"""Committed sha256 digests of every benchmark workload's fingerprint
and of a corpus of small training runs.

One round of each workload in ``bench/workloads.py``, at seeds 1 and 2,
must give the same bits as when ``workload_digests.json`` was written:
each part of the round's ``fingerprint`` (for a library workload the model
file, the history digest, the halo entries and the metrics; for
beverage-cli the model file, the alpha CSV and SVG and the eval NLL) is
hashed on its own, so a failure names the part that moved.

So must each run of ``TRAINING_RUNS``: a library fit gives its
``History.digest``, the sha256 of its final weights and the sha256 of its
``evaluate`` metrics; a CLI ``train`` run gives the sha256 of its model
file and of its history CSV without the ``wall_ms`` column.  Together they
cover both losses, full and mini-batches, patience, a rate switch,
clipping, a featured model, and the switch given as flags and as a
config-file ``lr_schedule``.

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
from deephalo import cli, data, training  # noqa: E402
from deephalo.featured import FeaturedModel  # noqa: E402
from deephalo.featureless import FeaturelessModel  # noqa: E402

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


def _beverage() -> data.Dataset:
    """440 beverage choices; the first 300 train, the rest validate."""
    dataset = data.sample_choices(data.beverage_fixture(), 40, seed=3)
    return dataset.with_splits({"train": list(range(300)), "val": list(range(300, 440))})


def _synthetic() -> data.Dataset:
    return data.gen_synthetic_simplex(6, 3, 10, 30, seed=4)[0]


def _featured() -> data.Dataset:
    """60 observations of sets of 2 to 4 items, each with its own features."""
    rng = np.random.default_rng(6)
    observations = []
    for i in range(60):
        items = tuple(int(j) for j in rng.choice(5, size=2 + i % 3, replace=False))
        x = np.zeros((3, 4))
        x[:, : len(items)] = rng.normal(size=(3, len(items)))
        chosen = items[int(rng.integers(len(items)))]
        observations.append(data.Observation(data.ChoiceSet(items, 4), chosen, x))
    return data.Dataset(observations, universe=5, feature_dim=3)


def _deephalo(universe, **kw):
    return lambda: FeaturelessModel.deephalo(universe, seed=2, **kw)


# Library fits: name -> (model factory, dataset factory, TrainConfig arguments).
LIBRARY_RUNS = {
    "mnl nll full": (lambda: FeaturelessModel.mnl(4, seed=1), _beverage,
                     {"learning_rate": 0.05, "max_epochs": 4}),
    "cmnl mse full": (lambda: FeaturelessModel.cmnl(4, seed=1), _beverage,
                      {"loss": "mse_onehot", "learning_rate": 0.05, "max_epochs": 4}),
    "deephalo nll batch": (_deephalo(6, width=6), _synthetic,
                           {"learning_rate": 0.02, "batch_size": 64, "max_epochs": 3, "seed": 1}),
    "deephalo mse batch": (_deephalo(6, width=6), _synthetic,
                           {"loss": "mse_onehot", "learning_rate": 0.05, "batch_size": 50,
                            "max_epochs": 3, "seed": 2}),
    "deephalo linear rank": (_deephalo(6, width=7, depth=3, activation="linear", rank=2),
                             _synthetic, {"learning_rate": 0.03, "max_epochs": 4}),
    "patience": (_deephalo(4, width=4), _beverage,
                 {"learning_rate": 0.3, "batch_size": 100, "max_epochs": 30, "patience": 2}),
    "rate switch": (_deephalo(4, width=4), _beverage,
                    {"learning_rate": 0.1, "lr2": 0.01, "lr_switch": 3, "max_epochs": 5}),
    "clip": (_deephalo(6, width=6), _synthetic,
             {"learning_rate": 0.05, "clip_norm": 0.05, "max_epochs": 3}),
    "clip switch batch": (lambda: FeaturelessModel.mnl(4, seed=3), _beverage,
                          {"learning_rate": 0.2, "lr2": 0.02, "lr_switch": 2, "batch_size": 100,
                           "clip_norm": 0.1, "max_epochs": 4, "seed": 5}),
    "featured nll batch": (lambda: FeaturedModel(3, 8, 2, 2, sigma="quadratic", seed=4), _featured,
                           {"learning_rate": 0.01, "batch_size": 16, "max_epochs": 2}),
    "featured mse full": (lambda: FeaturedModel(3, 6, 2, 1, seed=5), _featured,
                          {"loss": "mse_onehot", "learning_rate": 0.02, "max_epochs": 2}),
}

# CLI train runs on 330 beverage choices: name -> (train flags, config file or None).
CLI_RUNS = {
    "cli lr2 flags": (["--model", "deephalo-fl", "--width", "4", "--lr", "0.05", "--lr2", "0.005",
                       "--lr-switch", "3", "--epochs", "5", "--seed", "3"], None),
    "cli config lr_schedule": ([], {"model": "cmnl", "lr_schedule": [0.1, 0.01, 2],
                                    "max_epochs": 4, "batch_size": 100, "seed": 4}),
}
TRAINING_RUNS = [*LIBRARY_RUNS, *CLI_RUNS]


def _sha256(value: bytes) -> str:
    return hashlib.sha256(value).hexdigest()


def training_digests(name: str, workdir) -> dict[str, str]:
    """The digests of one run of ``TRAINING_RUNS``, by part name."""
    if name in LIBRARY_RUNS:
        make_model, make_data, config = LIBRARY_RUNS[name]
        dataset = make_data()
        model, history = training.train(make_model(), dataset, training.TrainConfig(**config))
        weights = b"".join(arr.tobytes() for _, arr in model.groups())
        metrics = training.evaluate(model, dataset)
        return {"history digest": history.digest(), "weights": _sha256(weights),
                "metrics": _sha256(repr(metrics).encode())}
    flags, file_conf = CLI_RUNS[name]
    paths = {key: str(Path(workdir, key)) for key in ("data.csv", "model.json", "history.csv")}
    argv = ["--data", paths["data.csv"], "-o", paths["model.json"], "--history", paths["history.csv"]]
    if file_conf is not None:
        Path(workdir, "conf.json").write_text(json.dumps(file_conf), encoding="utf-8")
        argv += ["--config", str(Path(workdir, "conf.json"))]
    data.write_featureless_csv(data.sample_choices(data.beverage_fixture(), 30, seed=2),
                               paths["data.csv"])
    with contextlib.redirect_stdout(None):
        assert cli.main(["train", *flags, *argv]) == 0
    history = Path(paths["history.csv"]).read_text(encoding="utf-8").splitlines()
    return {"model.json": _sha256(Path(paths["model.json"]).read_bytes()),
            "history.csv": _sha256("\n".join(row.rsplit(",", 1)[0] for row in history).encode())}


def _recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _recorded_here() -> dict:
    """The committed file, skipping the test unless it was written in this environment."""
    recorded = _recorded()
    here = environment()
    if recorded["environment"] != here:
        moved = [key for key in here if recorded["environment"].get(key) != here[key]]
        pytest.skip(f"digests were written in another environment (differs in {moved})")
    return recorded


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(PARTS))
def test_workload_round_matches_committed_digests(name, seed, tmp_path):
    recorded = _recorded_here()
    got = round_digests(name, seed, tmp_path)
    want = recorded["digests"][name][str(seed)]
    moved = [part for part in PARTS[name] if got[part] != want[part]]
    assert not moved, f"{name} seed {seed}: digests moved for {moved}"


@pytest.mark.parametrize("name", TRAINING_RUNS)
def test_training_run_matches_committed_digests(name, tmp_path):
    want = _recorded_here()["training"][name]
    got = training_digests(name, tmp_path)
    moved = [part for part in want if got[part] != want[part]]
    assert sorted(got) == sorted(want) and not moved, f"{name}: digests moved for {moved}"


def test_committed_file_covers_every_workload_and_seed():
    recorded = _recorded()
    assert sorted(recorded["digests"]) == sorted(workloads.WORKLOADS) == sorted(PARTS)
    for name, by_seed in recorded["digests"].items():
        assert sorted(by_seed) == sorted(map(str, SEEDS))
        assert all(sorted(parts) == sorted(PARTS[name]) for parts in by_seed.values())
    assert sorted(recorded["training"]) == sorted(TRAINING_RUNS)


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
        training_runs = {}
        for name in TRAINING_RUNS:
            out = Path(workdir, name.replace(" ", "-"))
            out.mkdir()
            training_runs[name] = training_digests(name, out)
    payload = {"environment": environment(), "digests": digests, "training": training_runs}
    DIGESTS.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python3 {Path(__file__).name} --write")
    write()
