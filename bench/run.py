"""Benchmark entry point: one workload per invocation.

    python3 bench/run.py --workload beverage-cli --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``deephalo`` from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload, each in its own
child process, and prints one such line per workload.  It exits with 0
when every check passed and no operation failed, and with 1 otherwise.
See README.md.
"""

from __future__ import annotations

import os

# NumPy's BLAS is pinned to one thread before NumPy is first imported: the
# library itself runs serially, and the load comes from this one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Scratch files and traces; the root .gitignore lists it.
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("beverage-cli", "synthetic-minibatch", "featured-catalog", "halo-n10")

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import numpy, deephalo; print(time.perf_counter() - start)"
)


def import_seconds() -> float:
    """Time to import NumPy and deephalo in a fresh interpreter.

    This process has imported them already, so the import is timed in a
    child, one at a time: one sample for each set-up.
    """
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                           capture_output=True, text=True, check=True)
    return float(child.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            print(f"{name} {lines[-1] if lines else '(no result)'}")
            code = code or child.returncode
        return code

    # Every CLI command runs `git describe`.  Run from the benchmark's work
    # directory with git's search stopped at the checkout root, so that it
    # fails the same fast way whether or not the checkout is a repository.
    os.makedirs(WORK, exist_ok=True)
    os.chdir(WORK)
    os.environ["GIT_CEILING_DIRECTORIES"] = ROOT

    sys.path.insert(0, SRC)
    try:
        import deephalo  # noqa: F401
    except ImportError as exc:
        print(f"cannot import deephalo from {SRC}: {exc}", file=sys.stderr)
        return 2

    from harness import end_to_end, per_layer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.trace:
        correct, rec, metrics = per_layer(workload, args.seed, args.seconds, WORK)
    else:
        correct, rec, metrics = end_to_end(workload, args.seed, args.seconds, import_seconds, WORK)
    result = {"correct": correct, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
