"""The benchmark's tracer patches the package's hooks by name.

Renaming a hook that ``bench/tracing.py`` lists makes ``Tracer.__enter__``
raise ``KeyError``, which breaks every traced benchmark run; this test
catches that in the suite.
"""

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

from deephalo import data as dat  # noqa: E402
from deephalo import featured, halo, training  # noqa: E402
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


def test_tracer_counts_featured_batches_predict_blocks_and_halo_forwards():
    before = _hooks()
    rng = np.random.default_rng(3)
    observations = []
    for i in range(40):
        real = 2 + i % 3
        x = np.zeros((2, 4))
        x[:, :real] = rng.normal(size=(2, real))
        observations.append(dat.Observation(dat.ChoiceSet(tuple(range(real)), 4), i % real, x))
    ds = dat.Dataset(observations, universe=4, feature_dim=2)
    model = featured.FeaturedModel(2, 4, 2, 2, seed=1)
    cfg = training.TrainConfig(max_epochs=2, batch_size=16, seed=0)
    catalog = featured.CatalogSetModel(model, rng.normal(size=(2, 4)))
    with tracing.Tracer() as tracer:
        training.train(model, ds, cfg)
        training.evaluate(model, ds)
        halo.full_relative_table(catalog, 1)
    counts = tracer.counts
    blocks = -(-len(observations) // featured.PREDICT_BLOCK)
    # Three batches an epoch; the 40 distinct observations are predicted in
    # blocks once an epoch for validation and once for the evaluation.
    assert counts["training.adam_step.calls"] == 6
    assert counts["featured.predict.calls"] == 3
    # A traced halo goes set by set, and a catalog set is a batch of one
    # (column stage, then set stage), not a featured forward.
    assert counts["halo.forward.calls"] > 0 and counts["featured.forward.calls"] == 0
    assert counts["featured.utilities_node.calls"] == 6 + 3 * blocks
    assert counts["autodiff.masked_log_softmax.calls"] == 6
    assert _hooks() == before


def test_each_public_load_is_one_data_load_span(tmp_path):
    """The loaders share private helpers, so no load shows up as two spans."""
    before = _hooks()
    data = tmp_path / "d.csv"
    data.write_text("set,choice\n0;1,0\n1;2,2\n")
    items = tmp_path / "items.csv"
    items.write_text("item_id,f1\n0,0.5\n4,1.5\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("set,choice,s1\n0;4,4,1.0\n")
    truth = tmp_path / "t.csv"
    truth.write_text("set,probs\n0;1,0.25;0.75\n")
    with tracing.Tracer() as tracer:
        dat.load_featureless_csv(data)
        dat.load_featured_csv(items, obs)
        dat.load_probability_table(truth)
    assert tracer.counts["data.load.calls"] == 3
    assert [span[0] for span in tracer.spans] == ["data.load"] * 3
    assert _hooks() == before


def test_grouping_calls_group_key_once_per_distinct_configuration():
    """One call per stored configuration and ``Groups`` built, not per
    observation: an offered set of featureless data, an (offered set,
    feature block) pair of featured data."""
    ds = dat.sample_choices(dat.beverage_fixture(), 200, seed=8)  # 2,200 observations
    halves = ds.with_splits({"train": list(range(0, 2200, 2)), "val": list(range(1, 2200, 2))})
    model = FeaturelessModel.deephalo(4, width=6, depth=2, seed=1)
    cfg = training.TrainConfig(max_epochs=2, batch_size=500, seed=0)
    with tracing.Tracer() as tracer:
        training.train(model, ds, cfg)  # one Groups: the training set validates
        training.train(model, halves, cfg)  # two: train and val
        training.evaluate(model, ds)
        training.evaluate(model, halves, "val")
    assert tracer.counts["featureless.group_key.calls"] == 11 * 5

    rng = np.random.default_rng(5)
    blocks = []
    for real in (2, 3, 3):
        x = np.zeros((3, 3))
        x[:, :real] = rng.normal(size=(3, real))
        blocks.append((tuple(range(real)), x))
    observations = []
    for i in range(40):  # equal blocks repeat, as in the grouping-contract tests
        items, x = blocks[i % 3]
        observations.append(dat.Observation(dat.ChoiceSet(items, 3), items[i % len(items)], x.copy()))
    featured_ds = dat.Dataset(observations, universe=3, feature_dim=3)
    model = featured.FeaturedModel(3, 4, 2, 2, seed=5)
    with tracing.Tracer() as tracer:
        training.train(model, featured_ds, training.TrainConfig(max_epochs=2, batch_size=16, seed=0))
        training.evaluate(model, featured_ds)  # 3 distinct blocks, in 2 Groups
    assert len(featured_ds.sets) == 3
    assert tracer.counts["featured.group_key.calls"] == 3 * 2
