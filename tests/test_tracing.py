"""The benchmark's tracer patches the package's hooks by name.

Renaming a hook that ``bench/tracing.py`` lists makes ``Tracer.__enter__``
raise ``KeyError``, which breaks every traced benchmark run; this test
catches that in the suite.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

from deephalo import data as dat  # noqa: E402
from deephalo import halo, training  # noqa: E402
from deephalo.featureless import FeaturelessModel  # noqa: E402


def _hooks():
    hooked = tracing.SPANS + tracing.COUNTERS
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in hooked]


def test_tracer_counts_one_forward_per_batch_and_restores_hooks():
    before = _hooks()
    table = {(0, 1): [0.4, 0.6], (0, 1, 2): [0.2, 0.3, 0.5], (1, 2): [0.7, 0.3]}
    ds = dat.sample_choices(table, 10, seed=2)
    model = FeaturelessModel.deephalo(3, width=4, depth=2, seed=1)
    cfg = training.TrainConfig(max_epochs=2, batch_size=20, seed=0)
    with tracing.Tracer() as tracer:
        training.train(model, ds, cfg)
        training.evaluate(model, ds)
        halo.full_relative_table(model, 1)
    counts = tracer.counts
    # Two batches an epoch, one validation pass an epoch, one evaluation.
    assert counts["featureless.predict.calls"] == 3
    assert counts["autodiff.masked_log_softmax.calls"] == 4
    assert counts["training.adam_step.calls"] == 4
    sets = counts["featureless.set_utilities.calls"]
    assert sets > 0
    assert counts["featureless.utilities_node.calls"] == 4 + 3 + sets
    assert counts["autodiff.exact_matmul.calls"] > 0
    assert _hooks() == before
