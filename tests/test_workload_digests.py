"""Committed sha256 digests of every benchmark workload's fingerprint.

One round of each workload in ``bench/workloads.py``, at seeds 1 and 2,
must give the same bits as when ``workload_digests.json`` was written:
each part of the round's ``fingerprint`` (for a library workload the model
file, the history digest, the halo entries and the metrics; for
beverage-cli the model file, the alpha CSV and SVG and the eval NLL) is
hashed on its own, so a failure names the part that moved.

NumPy picks its float64 ``exp`` and ``log`` loops by CPU feature, so the
digests hold only where they were written: the file records Python,
NumPy, the machine and NumPy's enabled CPU features, and the test skips,
saying why, in any other environment.  A change that moves bits on purpose
rewrites the file::

    python3 tests/test_workload_digests.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "bench", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import workloads  # noqa: E402

DIGESTS = Path(__file__).with_name("workload_digests.json")
SEEDS = (1, 2)
PARTS = {
    "beverage-cli": ("model.json", "alpha.csv", "alpha.svg", "eval nll"),
    **{
        name: ("model", "history digest", "halo entries", "metrics")
        for name in ("synthetic-minibatch", "featured-catalog", "halo-n10")
    },
}


def environment() -> dict:
    """What the digests depend on besides the code: Python, NumPy, the CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


class _Untimed:
    """The ``rec`` a workload round expects, timing nothing."""

    def op(self, metric, work):
        return contextlib.nullcontext()


def round_digests(name: str, seed: int, workdir) -> dict[str, str]:
    """sha256 of ``repr`` of each fingerprint part of one round, by part name."""
    workload = workloads.WORKLOADS[name]()
    ctx = workload.setup(seed, str(workdir))
    parts = workload.fingerprint(workload.round(ctx, _Untimed()))
    assert len(parts) == len(PARTS[name]), f"{name} fingerprint has {len(parts)} parts"
    return {
        part: hashlib.sha256(repr(value).encode()).hexdigest()
        for part, value in zip(PARTS[name], parts)
    }


def _recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(PARTS))
def test_workload_round_matches_committed_digests(name, seed, tmp_path):
    recorded = _recorded()
    here = environment()
    if recorded["environment"] != here:
        moved = [key for key in here if recorded["environment"].get(key) != here[key]]
        pytest.skip(f"digests were written in another environment (differs in {moved})")
    got = round_digests(name, seed, tmp_path)
    want = recorded["digests"][name][str(seed)]
    moved = [part for part in PARTS[name] if got[part] != want[part]]
    assert not moved, f"{name} seed {seed}: digests moved for {moved}"


def test_committed_file_covers_every_workload_and_seed():
    recorded = _recorded()
    assert sorted(recorded["digests"]) == sorted(workloads.WORKLOADS) == sorted(PARTS)
    for name, by_seed in recorded["digests"].items():
        assert sorted(by_seed) == sorted(map(str, SEEDS))
        assert all(sorted(parts) == sorted(PARTS[name]) for parts in by_seed.values())


def write() -> None:
    """Run every round and rewrite the committed file with its digests."""
    digests = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in PARTS:
            digests[name] = {}
            for seed in SEEDS:
                out = Path(workdir, f"{name}-{seed}")
                out.mkdir()
                digests[name][str(seed)] = round_digests(name, seed, out)
    payload = {"environment": environment(), "digests": digests}
    DIGESTS.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python3 {Path(__file__).name} --write")
    write()
