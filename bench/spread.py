"""Run two sets of ten seeded runs of every workload and compare them.

    python3 bench/spread.py

Set A uses seeds 1-10 and set B seeds 11-20; set B starts when set A has
ended.  Within a set the workloads take turns, seed by seed, so that a
slow spell of the machine is shared among them rather than landing on one
workload's consecutive seeds.  Every run is a separate process of
``run.py`` with ``--seconds`` from BENCHMARK.json, one after another.

For every workload and end-to-end metric it prints each set's median and
the distance between its first and third quartiles, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the
median; then how far set B's median is worse than set A's, as a share of
set A's.  Both are flagged where they pass the metric's bound.  The raw
result lines, each with the run's wall time, go to
``.bench_work/spread.jsonl``.  It exits with 1 if a
run failed or was incorrect.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_PER_SET = 10
SETS = {"A": 1, "B": 1 + RUNS_PER_SET}  # first seed of each set


def _run(workload, seed, seconds, log):
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    wall_s = round(time.perf_counter() - start, 3)
    lines = child.stdout.strip().splitlines()
    if not lines:
        print(f"{workload} seed {seed}: exit {child.returncode}, no result\n{child.stderr}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    log.write(json.dumps({"workload": workload, "seed": seed, "exit": child.returncode,
                         "wall_s": wall_s, **result}) + "\n")
    log.flush()
    if child.returncode != 0:
        print(f"{workload} seed {seed}: exit {child.returncode}\n{child.stderr}", file=sys.stderr)
    return result


def _summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    results = {(s, w): [] for s in SETS for w in names}
    bad = 0
    with open(os.path.join(ROOT, ".bench_work", "spread.jsonl"), "w", encoding="utf-8") as log:
        for set_name, first in SETS.items():
            for seed in range(first, first + RUNS_PER_SET):
                for workload in names:
                    result = _run(workload, seed, spec["run_seconds"], log)
                    if result is None or not result["correct"]:
                        bad = 1
                    if result is not None:
                        results[set_name, workload].append(result)

    for workload in names:
        a, b = results["A", workload], results["B", workload]
        if len(a) < 2 or len(b) < 2:
            print(f"{workload}: too few results")
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in a + b})
        print(f"{workload}: {len(a)} + {len(b)} runs, "
              f"correct={all(r['correct'] for r in a + b)}, failed shares={shares}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            med_a, spread_a = _summary([r["metrics"][name]["value"] for r in a])
            med_b, spread_b = _summary([r["metrics"][name]["value"] for r in b])
            worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
            flags = [label for label, over in (
                ("A spread over bound/3", spread_a > bound / 3),
                ("B spread over bound/3", spread_b > bound / 3),
                ("B worse than A by more than the bound", worse > bound),
            ) if over]
            print(f"  {name:20s} A {med_a:12.6g} ({spread_a:6.2%})  B {med_b:12.6g} ({spread_b:6.2%})  "
                  f"B worse by {worse:7.2%}  bound {bound:.0%}  {'; '.join(flags)}")
    return bad


if __name__ == "__main__":
    sys.exit(main())
