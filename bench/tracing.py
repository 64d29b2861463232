"""Per-layer tracing of deephalo from outside the package.

While a :class:`Tracer` is installed, chosen functions and methods of the
package's modules are replaced by wrappers.  A *span* wrapper records
(name, start, end, parent) for each call and counts it; a *counter*
wrapper only counts, for the hot functions (per-observation loss, tape
ops) where a span would cost more than the call.  Spans stay in memory
until the traced unit ends, then :meth:`Tracer.write` appends them to a
CSV file.  Uninstalling restores every original attribute.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from deephalo import autodiff, cli, data, featured, featureless, halo, training

TAPE_OPS = (
    "constant",
    "parameter",
    "matmul",
    "add",
    "add_bias",
    "add_scalar",
    "scale",
    "hadamard",
    "elementwise_square",
    "relu",
    "transpose",
    "sum_all",
    "slice_entry",
    "scale_by",
    "mean_over_columns",
    "sum_over_columns",
    "layer_norm",
    "masked_softmax",
    "masked_log_softmax",
)

# (owner, attribute, span name); every span also counts its calls.
SPANS = [
    (data, "sample_choices", "data.generate"),
    (data, "gen_synthetic_simplex", "data.generate"),
    (data, "write_featureless_csv", "data.write"),
    (data, "write_probability_table", "data.write"),
    (data, "load_featureless_csv", "data.load"),
    (data, "load_featured_csv", "data.load"),
    (data, "load_probability_table", "data.load"),
    (training, "train", "training.train"),
    (training, "adam_step", "training.adam_step"),
    (training, "evaluate", "training.evaluate"),
    (training, "rmse_vs_frequencies", "training.rmse_vs_frequencies"),
    (featureless.FeaturelessModel, "loss_node", "featureless.loss_node"),
    (featureless.FeaturelessModel, "utilities_node", "featureless.utilities_node"),
    (featureless.FeaturelessModel, "predict", "featureless.predict"),
    (featured.FeaturedModel, "loss_node", "featured.loss_node"),
    (featured.FeaturedModel, "utilities_node", "featured.utilities_node"),
    (featured.FeaturedModel, "predict", "featured.predict"),
    (featured.FeaturedModel, "forward", "featured.forward"),
    (autodiff, "backward", "autodiff.backward"),
    (cli.Manifest, "__init__", "cli.manifest"),
    (cli.Manifest, "write", "cli.manifest"),
]

# (owner, attribute, count name) for calls that are counted without a span.
COUNTERS = [
    (training, "nll_loss", "training.nll_loss.calls"),
    (featureless.FeaturelessModel, "group_key", "featureless.group_key.calls"),
    (featureless.FeaturelessModel, "set_utilities", "featureless.set_utilities.calls"),
    (featured.FeaturedModel, "group_key", "featured.group_key.calls"),
    (halo, "marginal_effect", "halo.marginal_effect.calls"),
    (autodiff.Node, "__init__", "autodiff.nodes"),
] + [(autodiff, op, f"autodiff.{op}.calls") for op in TAPE_OPS]


class _TimedSetModel:
    """SetUtilityModel proxy that spans every ``set_utilities`` call."""

    def __init__(self, model, span):
        self.universe = model.universe
        self.set_utilities = span("halo.forward", model.set_utilities)


class Tracer:
    """Spans and counts of one traced unit; install it with ``with``."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    # -- wrappers ---------------------------------------------------------------

    def span(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _matmul_span(self, fn):
        counts = self.counts
        timed = self.span("autodiff.exact_matmul", fn)

        @functools.wraps(fn)
        def wrapper(a, b):
            m, k = a.shape
            counts["autodiff.exact_matmul.mflop"] += 2e-6 * m * k * b.shape[1]
            return timed(a, b)

        return wrapper

    def _table_span(self, fn):
        timed = self.span("halo.full_relative_table", fn)

        @functools.wraps(fn)
        def wrapper(model, *args, **kwargs):
            return timed(_TimedSetModel(model, self.span), *args, **kwargs)

        return wrapper

    def _cli_span(self, fn):
        @functools.wraps(fn)
        def wrapper(argv=None):
            return self.span(f"cli.{argv[0]}", fn)(argv)

        return wrapper

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self.span(name, owner.__dict__[attr]))
        for owner, attr, name in COUNTERS:
            self._patch(owner, attr, self.counter(name, owner.__dict__[attr]))
        self._patch(autodiff, "exact_matmul", self._matmul_span(autodiff.exact_matmul))
        self._patch(halo, "full_relative_table", self._table_span(halo.full_relative_table))
        self._patch(cli, "main", self._cli_span(cli.main))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- results ----------------------------------------------------------------

    def times_ms(self) -> tuple[Counter, Counter]:
        """(self time, inclusive time) per span name, in milliseconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own, inclusive = Counter(), Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += (end - start - child[index]) * 1e3
            inclusive[name] += (end - start) * 1e3
        return own, inclusive

    def write(self, path, unit: int) -> None:
        """Append this unit's spans as CSV rows (unit, name, start, end, parent)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "a", encoding="utf-8") as fh:
            if fh.tell() == 0:
                fh.write("unit,index,name,start_ms,end_ms,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    f"{unit},{index},{name},{(start - origin) * 1e3:.4f},"
                    f"{(end - origin) * 1e3:.4f},{parent}\n"
                )
