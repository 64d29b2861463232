"""Running a workload: rounds, operation counts, checks and metrics.

:func:`end_to_end` runs untraced rounds until the time is up.  Before each
round it times one fresh import and one set-up; each operation of a round
is timed on its own, between two runs of a fixed reference kernel (see
:class:`Recorder`).  Every time metric is the median of its samples over
the run, each scaled to the reference speed.  :func:`per_layer` is the
traced run: a *unit* is one set-up plus one round.  It alternates untraced
units and units with every wrapper of :mod:`tracing` installed until the
time is up; the first untraced unit is the one checked.  Counts must
repeat exactly from unit to unit; times are medians over the traced units,
and the tracing overhead is the median traced unit's wall time against the
median untraced one's.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from tracing import TAPE_OPS, Tracer

# Every run takes at least this many set-up samples.
MIN_SETUPS = 5

UNITS = {
    "setup_s": "s",
    "fit_obs_per_s": "obs/s",
    "eval_obs_per_s": "obs/s",
    "halo_entries_per_s": "entries/s",
    "fit_rmse_vs_truth": "probability",
    "peak_rss_mb": "MB",
}

# The reference kernel: the same mix of work as the program (an interpreted
# loop, small matrix products, math.fsum over lists, tuple-keyed dicts),
# written here so that no change to the program moves it.
_KERNEL_A = np.linspace(-1.0, 1.0, 100).reshape(10, 10)
_KERNEL_B = np.linspace(-1.0, 1.0, 280).reshape(10, 28)
KERNEL_ITERATIONS = 500
# The kernel's time at the reference speed: the median over 2,000 runs of
# it on the 2-core VM of README.md.  A time metric reads as if every
# operation had run at this speed.
REFERENCE_KERNEL_S = 0.0035


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total, seen = 0.0, {}
        for i in range(KERNEL_ITERATIONS):
            row = (_KERNEL_A @ _KERNEL_B)[i % 10]
            total += math.fsum(row.tolist())
            seen[i % 97, i % 13] = total
            for j in range(20):
                total += j * 1e-12
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Recorder:
    """Counts operations and keeps (work, reference seconds) for each timed one.

    The VM this was built on switches between a fast and a slow state (the
    slow one about 1.7 times slower) every few seconds, and the share of a
    run spent in each differs from run to run: the totals, medians and
    fast deciles of raw times all spread by more than the 0.25 bounds.  So
    each operation's wall time is scaled by the reference kernel's time at
    the reference speed over its time just before and just after the
    operation, and the run reports the median of the scaled samples.
    """

    def __init__(self):
        self.samples = defaultdict(list)
        self.raw = defaultdict(list)
        self.attempted = 0
        self.failed = 0

    def add(self, metric, work, seconds, kernel_before):
        """Keep one sample; ``kernel_before`` is the kernel's time just before it."""
        scale = REFERENCE_KERNEL_S / ((kernel_before + kernel_seconds()) / 2)
        self.samples[metric].append((work, seconds * scale))
        self.raw[metric].append((work, seconds))

    @contextlib.contextmanager
    def op(self, metric, work):
        self.attempted += 1
        kernel_before = kernel_seconds()
        start = time.perf_counter()
        try:
            yield
        except Exception:
            self.failed += 1
            raise
        self.add(metric, work, time.perf_counter() - start, kernel_before)

    def rate(self, metric):
        """The median of a metric's per-operation rates (work / reference seconds).

        None when no operation of the metric completed.
        """
        samples = self.samples.get(metric)
        if not samples:
            return None
        return statistics.median(w / t for w, t in samples)


def run_round(workload, ctx, rec):
    """One round; a failure counts the round's unattempted operations as failed."""
    before = rec.attempted
    try:
        return workload.round(ctx, rec)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        missing = workload.ops_per_round - (rec.attempted - before)
        rec.attempted += missing
        rec.failed += missing
        return None


def run_checks(workload, ctx, output, rec, extra=()):
    """Oracle checks on one round's output plus the given (name, passed, detail).

    Without an output (the first round failed) only ``extra`` is checked.
    A check that raises counts as failed.  Returns whether all passed.
    """
    results = list(extra)
    if output is not None:
        try:
            results += list(workload.checks(ctx, output))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            results.append(("the checks ran to their end", False, "raised"))
    for name, passed, detail in results:
        rec.attempted += 1
        rec.failed += not passed
        print(f"check {'PASS' if passed else 'FAIL'}: {name} ({detail})", file=sys.stderr)
    return all(passed for _, passed, _ in results)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _room_for_another(start, done, seconds):
    """Whether one more round of average length still ends within the window."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def end_to_end(workload, seed, seconds, import_seconds, work):
    """Untraced rounds for ``seconds``; ``import_seconds()`` times one fresh import."""
    workdir = os.path.join(work, f"{workload.name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    rec = Recorder()

    def set_up():
        """One import in a fresh interpreter and one set-up, as one sample."""
        kernel_before = kernel_seconds()
        import_s = import_seconds()
        start = time.perf_counter()
        ctx = workload.setup(seed, workdir)
        rec.add("setup_s", 1, import_s + time.perf_counter() - start, kernel_before)
        return ctx

    try:
        # Each round runs on a fresh set-up, so that set-up samples spread
        # over the whole run.  Only the first round's context and output are
        # kept, so that peak RSS does not grow with the number of rounds;
        # later rounds are compared with it.
        start = time.perf_counter()
        first_ctx = set_up()
        first = run_round(workload, first_ctx, rec)
        expected = workload.fingerprint(first) if first is not None else None
        rounds, identical = 1, first is not None
        while first is not None and _room_for_another(start, rounds, seconds):
            out = run_round(workload, set_up(), rec)
            if out is None:
                identical = False
                break
            identical &= workload.fingerprint(out) == expected
            rounds += 1
            del out
        while len(rec.samples["setup_s"]) < MIN_SETUPS:
            set_up()
        # Read before the checks, so that the oracle's memory is not counted.
        peak_rss_mb = _peak_rss_mb()
        ctx = first_ctx
        passed = run_checks(workload, ctx, first, rec, [
            ("every round completes and gives bit-identical outputs", identical, f"{rounds} rounds"),
        ])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = {
        "setup_s": statistics.median(t for _, t in rec.samples["setup_s"]),
        "fit_obs_per_s": rec.rate("fit_obs_per_s"),
        "eval_obs_per_s": rec.rate("eval_obs_per_s"),
        "halo_entries_per_s": rec.rate("halo_entries_per_s"),
        "fit_rmse_vs_truth": ctx.get("fit_rmse_vs_truth"),
        "peak_rss_mb": peak_rss_mb,
    }
    # Work per second of each sample, unscaled and scaled (per second of
    # set-up for setup_s).
    print(f"{workload.name}: {rounds} rounds", file=sys.stderr)
    for name, samples in rec.samples.items():
        raw = [w / t for w, t in rec.raw[name]]
        scaled = [w / t for w, t in samples]
        print(f"  {name}: {len(raw)} samples, unscaled min {min(raw):.6g} median "
              f"{statistics.median(raw):.6g} max {max(raw):.6g}; scaled min {min(scaled):.6g} "
              f"median {statistics.median(scaled):.6g} max {max(scaled):.6g}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
    return passed and rec.failed == 0, rec, metrics


# Per-layer time metrics: each is exercised by every workload.
SELF_TIMES = {
    "data.ms": ("data.generate", "data.write", "data.load"),
    "training.train.ms": ("training.train",),
    "training.adam_step.ms": ("training.adam_step",),
    "training.evaluate.ms": ("training.evaluate",),
    "model.loss_node.ms": ("featureless.loss_node", "featured.loss_node"),
    "model.utilities_node.ms": ("featureless.utilities_node", "featured.utilities_node"),
    "model.predict.ms": ("featureless.predict", "featured.predict"),
    "autodiff.backward.ms": ("autodiff.backward",),
    "autodiff.exact_matmul.ms": ("autodiff.exact_matmul",),
}

# Per-layer counts; a layer a workload never enters reads 0.
COUNTS = [
    "training.nll_loss.calls",
    "training.adam_step.calls",
    "featureless.group_key.calls",
    "featureless.loss_node.calls",
    "featureless.utilities_node.calls",
    "featureless.predict.calls",
    "featureless.set_utilities.calls",
    "featured.group_key.calls",
    "featured.loss_node.calls",
    "featured.utilities_node.calls",
    "featured.predict.calls",
    "featured.forward.calls",
    "autodiff.backward.calls",
    "autodiff.exact_matmul.calls",
    "autodiff.nodes",
    "halo.forward.calls",
    "halo.marginal_effect.calls",
] + [f"autodiff.{op}.calls" for op in TAPE_OPS]

# Every per-layer metric with its unit, in the order they are reported.
LAYER_UNITS = {
    **{name: "ms" for name in SELF_TIMES},
    "training.epoch.ms": "ms",
    "halo.forward.ms": "ms",
    "halo.inversion.ms": "ms",
    "trace.overhead.pct": "%",
    **{name: "count" for name in COUNTS},
    "autodiff.exact_matmul.mflop": "Mflop",
}


def _unit(workload, seed, workdir, rec):
    start = time.perf_counter()
    ctx = workload.setup(seed, workdir)
    out = run_round(workload, ctx, rec)
    return ctx, out, time.perf_counter() - start


def per_layer(workload, seed, seconds, work):
    trace_dir = os.path.join(work, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{workload.name}-seed{seed}.csv")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    workdir = os.path.join(work, f"{workload.name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    rec = Recorder()
    units, untraced_s = [], []
    try:
        start = time.perf_counter()
        ctx, reference, reference_s = _unit(workload, seed, workdir, rec)
        expected = workload.fingerprint(reference) if reference is not None else None
        untraced_s.append(reference_s)
        # At least two traced units, so that the counts can be compared.
        while reference is not None and (
            len(units) < 2 or _room_for_another(start, len(units) + len(untraced_s), seconds)
        ):
            if len(untraced_s) <= len(units):
                untraced_s.append(_unit(workload, seed, workdir, rec)[2])
                continue
            tracer = Tracer()
            with tracer:
                _, out, unit_s = _unit(workload, seed, workdir, rec)
            if out is None:
                break
            tracer.write(trace_path, len(units))
            own, inclusive = tracer.times_ms()
            units.append({"counts": tracer.counts, "own": own, "inclusive": inclusive,
                          "seconds": unit_s, "same": workload.fingerprint(out) == expected})
        passed = run_checks(workload, ctx, reference, rec, [
            ("at least two traced units complete", len(units) >= 2, f"{len(units)} traced units"),
            ("traced outputs identical to untraced",
             all(u["same"] for u in units),
             f"{len(units)} traced units"),
            ("per-layer counts repeat exactly", all(u["counts"] == units[0]["counts"] for u in units),
             f"{len(units)} traced units"),
        ])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not units:
        return False, rec, {name: {"value": None, "unit": unit} for name, unit in LAYER_UNITS.items()}

    counts = units[0]["counts"]
    values = {}
    for name, parts in SELF_TIMES.items():
        values[name] = statistics.median(sum(u["own"][p] for p in parts) for u in units)
    values["training.epoch.ms"] = statistics.median(reference["epoch_ms"])
    values["halo.forward.ms"] = statistics.median(u["inclusive"]["halo.forward"] for u in units)
    values["halo.inversion.ms"] = statistics.median(
        u["inclusive"]["halo.full_relative_table"] - u["inclusive"]["halo.forward"] for u in units
    )
    traced_s = statistics.median(u["seconds"] for u in units)
    plain_s = statistics.median(untraced_s)
    values["trace.overhead.pct"] = 100.0 * (traced_s - plain_s) / plain_s
    for name in COUNTS:
        values[name] = counts[name]
    values["autodiff.exact_matmul.mflop"] = round(counts["autodiff.exact_matmul.mflop"], 6)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}

    # Every span name, including those kept out of the metrics (cli.*,
    # featured.forward), for a reader of the log.
    own, inclusive = units[0]["own"], units[0]["inclusive"]
    for name in sorted(inclusive):
        print(
            f"profile {name}: calls={counts[name + '.calls']} "
            f"self_ms={own[name]:.3f} inclusive_ms={inclusive[name]:.3f}",
            file=sys.stderr,
        )
    print(f"{workload.name}: {len(units)} traced units, spans in {trace_path}", file=sys.stderr)
    return passed and rec.failed == 0, rec, metrics
