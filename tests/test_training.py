"""Losses, the optimizer, the training loop, and evaluation metrics."""

import copy
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import deephalo
from deephalo import autodiff as ad
from deephalo import data as dat
from deephalo.featured import FeaturedModel
from deephalo.featureless import FeaturelessModel
from deephalo.training import (
    AdamState,
    EpochRecord,
    History,
    Metrics,
    TrainConfig,
    TrainingDivergedError,
    _exact_products,
    adam_step,
    evaluate,
    mse_onehot_loss,
    nll_loss,
    rmse_vs_frequencies,
    train,
    write_history_csv,
)


class TestNllLoss:
    def test_certain_choice(self):
        assert nll_loss(np.array([1.0, 0.0]), 0) == 0.0

    def test_half(self):
        assert nll_loss(np.array([0.5, 0.5]), 0) == pytest.approx(0.693147, abs=1e-6)

    def test_uniform_over_four(self):
        p = np.full(4, 0.25)
        assert nll_loss(p, 2) == pytest.approx(1.386294, abs=1e-6)

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError, match="probability 0"):
            nll_loss(np.array([1.0, 0.0]), 1)


class TestMseOnehotLoss:
    def test_perfect_prediction(self):
        assert mse_onehot_loss(np.array([0.0, 1.0]), 1, [0, 1]) == 0.0

    def test_uniform_over_two(self):
        assert mse_onehot_loss(np.array([0.5, 0.5]), 0, [0, 1]) == pytest.approx(0.25)

    def test_minimizer_is_empirical_frequency(self):
        """Training a saturated single-set model under the quadratic loss
        calibrates probabilities to the observed frequencies."""
        table = {(0, 1, 2): np.array([0.6, 0.3, 0.1])}
        ds = dat.sample_choices(table, 600, seed=3)
        freq = dat.empirical_frequencies(ds)[(0, 1, 2)]
        m = FeaturelessModel.cmnl(3, seed=0)
        cfg = TrainConfig(
            loss="mse_onehot", learning_rate=0.05, max_epochs=500, seed=1,
            lr_schedule=(0.05, 0.01, 350),
        )
        m, _ = train(m, ds, cfg)
        fitted = m.probabilities((0, 1, 2))[[0, 1, 2]]
        np.testing.assert_allclose(fitted, freq, atol=2e-3)


class TestAdam:
    def test_first_step_is_sign_scaled(self):
        theta = np.array([[2.0, -3.0]])
        g = np.array([[0.5, -0.25]])
        params = [("w", theta)]
        state = AdamState(params)
        adam_step(params, {"w": g.copy()}, state, t=1, lr=0.1)
        # After bias correction the first update is -lr * g / (|g| + eps).
        np.testing.assert_allclose(theta, [[1.9, -2.9]], atol=1e-6)

    def test_zero_gradient_zero_update(self):
        theta = np.array([[1.0, 2.0]])
        params = [("w", theta)]
        state = AdamState(params)
        adam_step(params, {"w": np.zeros((1, 2))}, state, t=1, lr=0.1)
        np.testing.assert_array_equal(theta, [[1.0, 2.0]])

    def test_non_finite_gradient_names_group(self):
        params = [("readout", np.ones((2, 2)))]
        state = AdamState(params)
        with pytest.raises(TrainingDivergedError, match="readout"):
            adam_step(params, {"readout": np.full((2, 2), np.nan)}, state, 1, 0.1)

    def test_deterministic_trajectories(self):
        table = dat.beverage_fixture()
        ds = dat.sample_choices(table, 200, seed=5)
        cfg = TrainConfig(loss="nll", learning_rate=0.02, max_epochs=30, seed=9)
        runs = []
        for _ in range(2):
            m = FeaturelessModel.deephalo(4, width=6, depth=2, seed=4)
            m, hist = train(m, ds, cfg)
            runs.append((hist.digest(), [a.copy() for _, a in m.trainables()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)


class TestTrainLoop:
    def test_mnl_on_single_pair_recovers_share(self):
        table = {(0, 1): np.array([0.98, 0.02])}
        ds = dat.sample_choices(table, 2000, seed=11)
        m = FeaturelessModel.mnl(2, seed=0)
        cfg = TrainConfig(loss="nll", learning_rate=0.1, max_epochs=300, seed=2)
        m, _ = train(m, ds, cfg)
        fitted = m.probabilities((0, 1))[0]
        assert abs(fitted - 0.98) <= 0.01

    def test_history_csv_is_plain_lines_ending_in_lf(self, tmp_path):
        ds = dat.sample_choices(dat.beverage_fixture(), 20, seed=1)
        cfg = TrainConfig(loss="nll", learning_rate=0.1, max_epochs=3, seed=0)
        _, hist = train(FeaturelessModel.mnl(4, seed=0), ds, cfg)
        path = tmp_path / "h.csv"
        write_history_csv(hist, path)
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
        lines = data.decode().split("\n")[:-1]
        assert lines[0] == "epoch,train_loss,val_nll,lr,wall_ms"
        assert lines[1:] == [
            f"{r.epoch},{r.train_loss!r},{r.val_nll!r},{r.lr!r},{r.wall_ms:.3f}"
            for r in hist.records
        ]

    def test_zero_learning_rate_changes_nothing(self):
        table = dat.beverage_fixture()
        ds = dat.sample_choices(table, 50, seed=1)
        m = FeaturelessModel.deephalo(4, width=4, depth=1, seed=3)
        before = [a.copy() for _, a in m.trainables()]
        cfg = TrainConfig(loss="nll", learning_rate=0.0, max_epochs=5, seed=0)
        m, hist = train(m, ds, cfg)
        for (_, now), then in zip(m.trainables(), before):
            np.testing.assert_array_equal(now, then)
        losses = [r.train_loss for r in hist.records]
        assert max(losses) == min(losses)

    def test_patience_one_with_worsening_validation(self):
        """Train and validation splits disagree on the preferred item, so
        validation NLL strictly worsens; patience=1 must stop after the
        second evaluation and restore the first epoch's weights."""
        cs = dat.ChoiceSet((0, 1), 2)
        observations = [dat.Observation(cs, 0) for _ in range(40)]
        observations += [dat.Observation(cs, 1) for _ in range(10)]
        ds = dat.Dataset(observations, universe=2)
        ds = ds.with_splits({"train": list(range(40)), "val": list(range(40, 50))})
        m = FeaturelessModel.mnl(2, seed=1)
        cfg = TrainConfig(loss="nll", learning_rate=0.2, max_epochs=50, patience=1, seed=0)
        m, hist = train(m, ds, cfg)
        assert hist.stopped_early
        assert len(hist.records) == 2
        assert hist.best_epoch == 1

    def test_restored_weights_match_best_epoch(self):
        cs = dat.ChoiceSet((0, 1), 2)
        observations = [dat.Observation(cs, 0) for _ in range(40)]
        observations += [dat.Observation(cs, 1) for _ in range(10)]
        ds = dat.Dataset(observations, universe=2)
        ds = ds.with_splits({"train": list(range(40)), "val": list(range(40, 50))})

        probe = FeaturelessModel.mnl(2, seed=1)
        cfg_one = TrainConfig(loss="nll", learning_rate=0.2, max_epochs=1, seed=0)
        probe, _ = train(probe, ds, cfg_one)
        epoch1 = [a.copy() for _, a in probe.trainables()]

        m = FeaturelessModel.mnl(2, seed=1)
        cfg = TrainConfig(loss="nll", learning_rate=0.2, max_epochs=50, patience=1, seed=0)
        m, _ = train(m, ds, cfg)
        for (_, now), then in zip(m.trainables(), epoch1):
            np.testing.assert_array_equal(now, then)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_location(self):
        table = {(0, 1): np.array([0.5, 0.5])}
        ds = dat.sample_choices(table, 20, seed=0)
        m = FeaturelessModel.deephalo(2, width=2, depth=2, activation="quadratic", seed=0)
        m.layers[0][...] = 1e200  # squaring overflows the forward pass
        cfg = TrainConfig(loss="nll", learning_rate=1.0, max_epochs=10, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(m, ds, cfg)

    def test_empty_training_split_rejected(self):
        cs = dat.ChoiceSet((0, 1), 2)
        ds = dat.Dataset([dat.Observation(cs, 0)], universe=2)
        ds = ds.with_splits({"train": [], "val": [0]})
        m = FeaturelessModel.mnl(2)
        with pytest.raises(ValueError, match="empty training"):
            train(m, ds, TrainConfig())

    def test_minibatch_training_runs(self):
        table = dat.beverage_fixture()
        ds = dat.sample_choices(table, 40, seed=2)
        m = FeaturelessModel.deephalo(4, width=5, depth=2, seed=1)
        cfg = TrainConfig(loss="nll", learning_rate=0.02, batch_size=64, max_epochs=3, seed=7)
        _, hist = train(m, ds, cfg)
        assert len(hist.records) == 3


class TestEvaluate:
    def test_perfect_table_fit_rmse_zero(self):
        m = FeaturelessModel.mnl(2, seed=0)
        p = m.probabilities((0, 1))
        table = {(0, 1): p[[0, 1]]}
        assert rmse_vs_frequencies(m, table) == 0.0

    def test_uniform_vs_degenerate_pair(self):
        m = FeaturelessModel(2, 2, 1, "linear", output_mode="identity")
        m.layers = [np.zeros((2, 2))]  # uniform predictor
        table = {(0, 1): np.array([1.0, 0.0])}
        assert rmse_vs_frequencies(m, table) == pytest.approx(0.5)

    def test_frequency_vector_must_match_its_set(self):
        m = FeaturelessModel.mnl(3, seed=0)
        table = {(0, 1): np.array([0.5, 0.5]), (0, 1, 2): np.array([0.5, 0.5])}
        with pytest.raises(ValueError, match=r"set \(0, 1, 2\) have 2 entries, expected 3"):
            rmse_vs_frequencies(m, table)

    def test_first_zero_probability_cell_is_named(self):
        # MNL utilities 0, 1600 and 800: exp(-800) underflows to 0, so
        # choosing item 0 from (0, 2) and item 2 from (1, 2) are both cells
        # at probability 0; the first in (group, row) order is reported.
        m = FeaturelessModel.mnl(3, seed=0)
        m.readout[:, 0] = [0.0, 1600.0, 800.0]
        obs = [((0, 1), 1), ((0, 2), 2), ((0, 2), 0), ((1, 2), 2)]
        ds = dat.Dataset([dat.Observation(dat.ChoiceSet(ids, 2), c) for ids, c in obs], universe=3)
        with pytest.raises(ValueError, match="^chosen slot 0 has probability 0; data and model disagree$"):
            evaluate(m, ds)
        ds = dat.Dataset([dat.Observation(dat.ChoiceSet(ids, 2), c) for ids, c in obs[3:]], universe=3)
        with pytest.raises(ValueError, match="^chosen slot 2 has probability 0"):
            evaluate(m, ds)
        assert evaluate(m, dat.Dataset(
            [dat.Observation(dat.ChoiceSet(ids, 2), c) for ids, c in obs[:2]], universe=3
        )).nll == 0.0

    def test_featured_model_has_no_set_frequencies(self):
        m = FeaturedModel(1, 4, 1, 1, seed=0)
        with pytest.raises(ValueError, match="depend on each observation's features"):
            rmse_vs_frequencies(m, {(0, 1): np.array([0.5, 0.5])})

    def test_accuracy_tie_break_prefers_lowest_slot(self):
        m = FeaturelessModel(2, 2, 1, "linear", output_mode="identity")
        m.layers = [np.zeros((2, 2))]
        cs = dat.ChoiceSet((0, 1), 2)
        observations = [dat.Observation(cs, 0), dat.Observation(cs, 0), dat.Observation(cs, 1)]
        ds = dat.Dataset(observations, universe=2)
        metrics = evaluate(m, ds)
        assert metrics.accuracy == pytest.approx(2 / 3)

    def test_metrics_fields(self):
        table = dat.beverage_fixture()
        ds = dat.sample_choices(table, 100, seed=3)
        m = FeaturelessModel.mnl(4, seed=1)
        metrics = evaluate(m, ds)
        assert metrics.nll >= 0
        assert 0 <= metrics.accuracy <= 1
        assert 0 <= metrics.rmse <= math.sqrt(2)

    def test_empty_dataset_rejected(self):
        m = FeaturelessModel.mnl(2)
        with pytest.raises(ValueError):
            evaluate(m, dat.Dataset([], universe=2))

    def test_count_times_term_splits_exactly(self):
        """The split floats sum exactly to each count times its term, so one
        fsum rounds the NLL total once, as a sum of one term per observation does."""
        rng = np.random.default_rng(12)
        terms = np.concatenate([-np.log(rng.uniform(size=300)),
                                [0.0, -0.0, 2.0**-52, 1.0 / 3.0, 744.44, math.pi]])
        counts = np.concatenate([rng.integers(1, 2**40, size=300),
                                 [1, 2**27, 2**40 + 12345, 2**53 - 1, 2**62 + 3, 7]])
        products = _exact_products(terms.tolist(), counts)
        assert len(products) == 6 * len(terms)
        exact = sum(Fraction(float(t)) * int(c) for t, c in zip(terms, counts))
        assert sum(map(Fraction, products)) == exact
        assert math.fsum(products) == float(exact)
        small = [(0.1, 3), (math.log(3.0), 1000), (2.5e-17, 2**20)]
        assert math.fsum(_exact_products(*zip(*small))) == math.fsum(
            [t for t, c in small for _ in range(c)]
        )


class TestInvariants:
    def test_softmax_shift_invariance(self):
        """Adding a constant to all finite utilities moves no probability,
        NLL, or accuracy."""
        rng = np.random.default_rng(21)
        from deephalo.featureless import UtilityVector, choice_probabilities

        for _ in range(25):
            n = int(rng.integers(2, 7))
            mask = np.zeros(n, dtype=bool)
            mask[rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)] = True
            values = np.full(n, -np.inf)
            values[mask] = rng.normal(size=int(mask.sum()))
            shift = float(rng.normal(scale=10.0))
            base = choice_probabilities(UtilityVector(values, mask))
            shifted_values = values.copy()
            shifted_values[mask] += shift
            shifted = choice_probabilities(UtilityVector(shifted_values, mask))
            assert np.max(np.abs(base - shifted)) <= 1e-12

    def test_seeded_training_reproducible_digest(self):
        table = dat.beverage_fixture()
        ds = dat.sample_choices(table, 100, seed=8)
        digests = []
        for _ in range(2):
            m = FeaturelessModel.deephalo(4, width=6, depth=2, seed=2)
            cfg = TrainConfig(loss="nll", learning_rate=0.03, max_epochs=20, seed=3)
            _, hist = train(m, ds, cfg)
            digests.append(hist.digest())
        assert digests[0] == digests[1]

    def test_fit_on_context_free_truth_matches_oracle(self):
        """On data generated by set-independent utilities, a deep model's
        test NLL lands within 0.01 of the generating model's NLL."""
        rng = np.random.default_rng(31)
        truth_utilities = rng.normal(size=5)
        table = {}
        for ids in itertools.combinations(range(5), 3):
            u = truth_utilities[list(ids)]
            e = np.exp(u - u.max())
            table[ids] = e / e.sum()
        ds = dat.sample_choices(table, 5000, seed=12)
        n = len(ds)
        ds = ds.with_splits(
            {"train": list(range(0, n, 2)), "test": list(range(1, n, 2))}
        )
        m = FeaturelessModel.deephalo(5, width=8, depth=3, activation="quadratic", seed=6)
        cfg = TrainConfig(
            loss="nll", learning_rate=0.05, max_epochs=400, seed=4,
            lr_schedule=(0.05, 0.005, 300),
        )
        m, _ = train(m, ds, cfg)
        test_obs = ds.observations_for("test")
        model_nll = evaluate(m, ds, split="test").nll
        oracle_terms = [
            -math.log(table[tuple(sorted(o.choice_set.items))][
                tuple(sorted(o.choice_set.items)).index(o.chosen)
            ])
            for o in test_obs
        ]
        oracle_nll = math.fsum(oracle_terms) / len(test_obs)
        assert abs(model_nll - oracle_nll) <= 0.01


class TestConfig:
    def test_negative_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=-4)

    @pytest.mark.parametrize("field", ["learning_rate", "clip_norm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rate_or_clip_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be non-negative and finite, got {value!r}"):
            TrainConfig(**{field: value})

    def test_negative_clip_norm_rejected(self):
        with pytest.raises(ValueError, match="clip_norm must be non-negative"):
            TrainConfig(clip_norm=-1.0)

    @pytest.mark.parametrize("schedule", [(math.nan, 0.01, 3), (0.1, math.inf, 3)])
    def test_non_finite_schedule_rate_rejected(self, schedule):
        with pytest.raises(ValueError, match="schedule rates"):
            TrainConfig(lr_schedule=schedule)


# -- grouping contract ----------------------------------------------------------
# Training and evaluation group each split once and weight one forward per
# distinct configuration by its counts.  The references below are the
# per-observation definitions; the grouped results must equal them exactly.


def _featureless_reference(model, obs):
    """(probabilities, real rows, chosen row, configuration) of one observation."""
    items = obs.choice_set.items
    return model.probabilities(items), list(sorted(items)), obs.chosen, tuple(sorted(items))


def _featured_reference(model, obs):
    mask = obs.choice_set.mask
    key = (obs.features.tobytes(), mask.tobytes())
    return model.probabilities(obs.features, mask), list(np.flatnonzero(mask)), obs.chosen_slot, key


def _reference_metrics(model, observations, reference) -> Metrics:
    """Per-observation NLL and top-1 hits; RMSE pooled over (configuration, row).

    One fsum term per observation: a count times a term would round
    differently, and the test datasets are large enough to show it.
    """
    nll, hits = [], 0
    predicted, chosen_rows = {}, {}
    for obs in observations:
        probs, rows, chosen, key = reference(model, obs)
        nll.append(nll_loss(probs, chosen))
        hits += int(np.argmax(probs) == chosen)
        predicted[key] = (probs, rows)
        chosen_rows.setdefault(key, []).append(chosen)
    sq = []
    for key, (probs, rows) in predicted.items():
        chosen = chosen_rows[key]
        freq = np.array([chosen.count(r) for r in rows]) / len(chosen)
        diff = probs[rows] - freq
        sq.extend((diff * diff).tolist())
    n = len(observations)
    return Metrics(math.fsum(nll) / n, hits / n, math.sqrt(math.fsum(sq) / len(sq)))


def _reference_train(model, dataset, config, reference) -> History:
    """``train`` without patience, one observation list per batch through ``loss_node``."""
    observations = dataset.observations_for("train")
    n = len(observations)
    rng = np.random.default_rng(config.seed)
    state = AdamState(model.trainables())
    history = History()
    t = 0
    for epoch in range(1, config.max_epochs + 1):
        lr = config.rate_for_epoch(epoch)
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, config.batch_size):
            batch = [observations[i] for i in order[lo : lo + config.batch_size]]
            nodes = model.make_param_nodes(trainable=True)
            loss = model.loss_node(nodes, batch, config.loss)
            ad.backward(loss)
            t += 1
            grads = {name: nodes[name].grad for name, _ in model.trainables()}
            adam_step(model.trainables(), grads, state, t, lr)
            losses.append(float(loss.value[0, 0]) * len(batch))
        val_nll = _reference_metrics(model, observations, reference).nll
        history.records.append(EpochRecord(epoch, math.fsum(losses) / n, val_nll, lr, 0.0))
    return history


def _featureless_orders_dataset():
    """One set offered in several item orders, beside two other sets."""
    rng = np.random.default_rng(0)
    orders = [(2, 0, 1), (0, 1, 2), (1, 2, 0), (0, 3), (3, 1, 2)]
    observations = []
    for _ in range(40):
        items = orders[int(rng.integers(len(orders)))]
        observations.append(dat.Observation(dat.ChoiceSet(items, 3), items[int(rng.integers(len(items)))]))
    return dat.Dataset(observations, universe=4)


def _featured_repeats_dataset():
    """Repeated observations: equal features and mask, different choices."""
    rng = np.random.default_rng(5)
    configs = []
    for real in (2, 3, 3):
        x = np.zeros((3, 3))
        x[:, :real] = rng.normal(size=(3, real))
        configs.append((tuple(range(real)), x))
    observations = []
    for i in range(40):
        items, x = configs[i % 3]
        chosen = items[int(rng.integers(len(items)))]
        observations.append(dat.Observation(dat.ChoiceSet(items, 3), chosen, x.copy()))
    return dat.Dataset(observations, universe=3, feature_dim=3)


class TestGroupingContract:
    def test_featureless_evaluate_equals_per_observation_definition(self):
        ds = _featureless_orders_dataset()
        assert {o.choice_set.items for o in ds.observations} >= {(2, 0, 1), (0, 1, 2)}
        model = FeaturelessModel.deephalo(4, width=6, depth=2, seed=3)
        model.layers[0] *= 20.0  # context effects well away from zero
        got = evaluate(model, ds)
        assert got == _reference_metrics(model, ds.observations, _featureless_reference)

    def test_featured_evaluate_equals_per_observation_definition(self):
        ds = _featured_repeats_dataset()
        model = FeaturedModel(3, 4, 2, 2, seed=5)
        model.params["readout"] *= 50.0
        got = evaluate(model, ds)
        assert got == _reference_metrics(model, ds.observations, _featured_reference)

    @pytest.mark.parametrize("loss", ["nll", "mse_onehot"])
    def test_featureless_train_equals_per_batch_loop(self, loss):
        ds = dat.sample_choices(dat.beverage_fixture(), 5, seed=4)  # 55 observations
        cfg = TrainConfig(loss=loss, learning_rate=0.05, batch_size=16, max_epochs=3, seed=6)
        assert len(ds) % cfg.batch_size != 0
        model, history = train(FeaturelessModel.deephalo(4, width=6, depth=2, seed=2), ds, cfg)
        ref_model = FeaturelessModel.deephalo(4, width=6, depth=2, seed=2)
        ref_history = _reference_train(ref_model, ds, cfg, _featureless_reference)
        assert history.digest() == ref_history.digest()
        for (_, got), (_, want) in zip(model.trainables(), ref_model.trainables()):
            assert np.array_equal(got, want)

    def test_featured_train_equals_per_batch_loop(self):
        ds = _featured_repeats_dataset()
        cfg = TrainConfig(loss="nll", learning_rate=0.02, batch_size=6, max_epochs=2, seed=1)
        assert len(ds) % cfg.batch_size != 0
        model, history = train(FeaturedModel(3, 4, 2, 2, seed=5), ds, cfg)
        ref_model = FeaturedModel(3, 4, 2, 2, seed=5)
        ref_history = _reference_train(ref_model, ds, cfg, _featured_reference)
        assert history.digest() == ref_history.digest()
        for (_, got), (_, want) in zip(model.trainables(), ref_model.trainables()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("loss", ["nll", "mse_onehot"])
    @pytest.mark.parametrize("kind", ["featureless", "featured"])
    def test_group_order_cannot_matter(self, kind, loss):
        """Reversed observations number the groups in another order, with equal results."""
        if kind == "featureless":
            ds, model = _featureless_orders_dataset(), FeaturelessModel.deephalo(4, width=6, depth=2, seed=3)
        else:
            ds, model = _featured_repeats_dataset(), FeaturedModel(3, 4, 2, 2, seed=5)
        reverse = dat.Dataset(ds.observations[::-1], universe=ds.universe, feature_dim=ds.feature_dim)
        twin = copy.deepcopy(model)

        def first_seen(data):
            return list(dict.fromkeys(
                model.group_key(obs.choice_set, obs.features)[0] for obs in data.observations
            ))

        assert first_seen(reverse) != first_seen(ds)
        assert evaluate(model, reverse) == evaluate(model, ds)
        cfg = TrainConfig(loss=loss, learning_rate=0.05, max_epochs=3, seed=2)
        model, history = train(model, ds, cfg)
        reverse_model, reverse_history = train(twin, reverse, cfg)
        assert reverse_history.digest() == history.digest()
        for (_, got), (_, want) in zip(reverse_model.trainables(), model.trainables()):
            assert np.array_equal(got, want)
        assert evaluate(reverse_model, reverse) == evaluate(model, ds)


_ITEMS = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]])  # 2 features x 3 items
_CONFIGS = [((0, 1), (0.5, 0.0)), ((2, 0, 1), (1.0, -2.0)), ((1, 2), (0.5, 0.0))]


def _featured_rows(signed_zero: bool):
    """(ids, chosen, shared) rows: each configuration of ``_CONFIGS`` repeats
    under different choices.  With ``signed_zero`` every other row of the
    first configuration carries -0.0 in place of its shared 0.0."""
    rng = np.random.default_rng(11)
    rows = []
    for i in range(30):
        ids, shared = _CONFIGS[i % 3]
        if signed_zero and i % 6 == 0:
            shared = (shared[0], -0.0)
        rows.append((ids, ids[int(rng.integers(len(ids)))], shared))
    return rows


def _featured_files(tmp_path, rows):
    items, obs = tmp_path / "items.csv", tmp_path / "obs.csv"
    items.write_text("item_id,f1,f2\n" + "".join(
        f"{item},{float(_ITEMS[0, item])!r},{float(_ITEMS[1, item])!r}\n" for item in range(3)
    ))
    obs.write_text("set,choice,s1,s2\n" + "".join(
        f"{';'.join(map(str, ids))},{chosen},{shared[0]!r},{shared[1]!r}\n"
        for ids, chosen, shared in rows
    ))
    return items, obs


def _featured_twin(rows) -> dat.Dataset:
    """The same data as :class:`Observation` objects, one block each."""
    observations = []
    for ids, chosen, shared in rows:
        x = np.zeros((4, 3))
        x[:2, : len(ids)] = _ITEMS[:, list(ids)]
        x[2:, : len(ids)] = np.array(shared)[:, None]
        observations.append(dat.Observation(dat.ChoiceSet(ids, 3), chosen, x))
    return dat.Dataset(observations, universe=3, feature_dim=4)


class TestConfigurationIndex:
    """Featured data store each distinct (offered set, feature block) once."""

    @pytest.mark.parametrize("signed_zero", [False, True], ids=["repeats", "signed-zero"])
    def test_loaded_file_stores_each_configuration_once(self, tmp_path, signed_zero):
        rows = _featured_rows(signed_zero)
        ds = dat.load_featured_csv(*_featured_files(tmp_path, rows))
        assert ds == _featured_twin(rows)
        assert len(ds) == 30 and len(ds.sets) == ds.features.shape[0] == 3 + signed_zero
        for i, (ids, chosen, shared) in enumerate(rows):
            cs, x = ds.configuration(i)
            assert (cs.items, int(ds.chosen[i])) == (ids, chosen)
            assert x[2:, 0].tobytes() == np.array(shared).tobytes()
        # With signed zeros, the first offered set has two blocks that differ
        # only in a sign bit, in first-seen order: row 0 carries -0.0.
        first = [s for s, cs in enumerate(ds.sets) if cs.items == (0, 1)]
        signs = np.signbit(ds.features[first, 3, 0]).tolist()
        assert signs == ([True, False] if signed_zero else [False])

    @pytest.mark.parametrize("signed_zero", [False, True], ids=["repeats", "signed-zero"])
    def test_evaluate_and_train_equal_per_observation_definitions(self, tmp_path, signed_zero):
        ds = dat.load_featured_csv(*_featured_files(tmp_path, _featured_rows(signed_zero)))
        model = FeaturedModel(4, 4, 2, 2, seed=7)
        model.params["readout"] *= 50.0
        want = _reference_metrics(model, ds.observations, _featured_reference)
        assert evaluate(model, ds) == want
        cfg = TrainConfig(loss="nll", learning_rate=0.02, batch_size=7, max_epochs=2, seed=3)
        ref_model = copy.deepcopy(model)
        model, history = train(model, ds, cfg)
        ref_history = _reference_train(ref_model, ds, cfg, _featured_reference)
        assert history.digest() == ref_history.digest()
        for (_, got), (_, want) in zip(model.trainables(), ref_model.trainables()):
            assert np.array_equal(got, want)


class TestLocatedErrors:
    def test_empty_batch(self):
        m = FeaturelessModel.mnl(2)
        with pytest.raises(ValueError, match="empty batch"):
            m.loss_node(m.make_param_nodes(), [], "nll")

    def test_unknown_loss_kind(self):
        m = FeaturelessModel.mnl(2)
        obs = [dat.Observation(dat.ChoiceSet((0, 1), 2), 0)]
        with pytest.raises(ValueError, match="unknown loss kind 'hinge'"):
            m.loss_node(m.make_param_nodes(), obs, "hinge")

    def test_featured_model_needs_features(self):
        m = FeaturedModel(2, 3, 1, 1)
        ds = dat.Dataset([dat.Observation(dat.ChoiceSet((0, 1), 2), 0)], universe=2)
        with pytest.raises(ValueError, match="requires observations with features"):
            m.loss_node(m.make_param_nodes(), ds.observations, "nll")
        with pytest.raises(ValueError, match="requires observations with features"):
            evaluate(m, ds)


# -- relabeling and mixed widths ------------------------------------------------


def _relabeled_model(model, perm):
    """``model`` with item ``perm[i]`` renamed ``i``; extra coordinates stay put."""
    lifted = np.concatenate([perm, np.arange(model.universe, model.width)])
    out = copy.deepcopy(model)
    out.layers = [model.layers[0][np.ix_(lifted, perm)]] + [
        layer[np.ix_(lifted, lifted)] for layer in model.layers[1:]
    ]
    out.readout = model.readout[np.ix_(perm, lifted)]
    return out


def _relabeled_dataset(ds, perm):
    new_id = np.argsort(perm)
    observations = [
        dat.Observation(
            dat.ChoiceSet(tuple(int(new_id[i]) for i in o.choice_set.items), o.choice_set.width),
            int(new_id[o.chosen]),
        )
        for o in ds.observations
    ]
    return dat.Dataset(observations, universe=ds.universe)


@pytest.mark.parametrize("loss", ["nll", "mse_onehot"])
@pytest.mark.parametrize("batch_size", [0, 32])
@pytest.mark.parametrize("clip_norm", [0.0, 1e-3])
def test_training_is_relabeling_equivariant_bit_for_bit(loss, batch_size, clip_norm):
    """Renaming the items in the data and the initial weights renames the
    trained weights exactly: no sum depends on the order of the groups."""
    rng = np.random.default_rng(41)
    table = {}
    for size in (2, 3, 3, 4, 5):
        ids = tuple(sorted(int(i) for i in rng.choice(5, size=size, replace=False)))
        table[ids] = rng.dirichlet(np.ones(size))
    ds = dat.sample_choices(table, 30, seed=2)
    perm = np.array([3, 0, 4, 1, 2])
    model = FeaturelessModel.deephalo(5, width=7, depth=2, seed=3)
    model.layers[0] *= 10.0
    relabeled = _relabeled_model(model, perm)
    cfg = TrainConfig(
        loss=loss, learning_rate=0.05, batch_size=batch_size, max_epochs=3, seed=4,
        clip_norm=clip_norm,
    )
    model, history = train(model, ds, cfg)
    relabeled, relabeled_history = train(relabeled, _relabeled_dataset(ds, perm), cfg)
    assert relabeled_history.digest() == history.digest()
    want = _relabeled_model(model, perm)
    for (name, got), (_, expected) in zip(relabeled.trainables(), want.trainables()):
        assert np.array_equal(got, expected), name


def _mixed_width_dataset():
    """Featured observations padded to widths 2, 3 and 4."""
    rng = np.random.default_rng(9)
    observations = []
    for i in range(30):
        width = 2 + i % 3
        real = int(rng.integers(1, width + 1))
        x = np.zeros((3, width))
        x[:, :real] = rng.normal(size=(3, real))
        cs = dat.ChoiceSet(tuple(range(real)), width)
        observations.append(dat.Observation(cs, int(rng.integers(real)), x))
    return dat.Dataset(observations, universe=4, feature_dim=3)


def test_featured_mixed_widths_train_and_evaluate():
    ds = _mixed_width_dataset()
    assert {o.choice_set.width for o in ds.observations} == {2, 3, 4}
    model = FeaturedModel(3, 4, 2, 2, seed=5)
    model.params["readout"] *= 50.0
    assert evaluate(model, ds) == _reference_metrics(model, ds.observations, _featured_reference)
    per_obs = [_featured_reference(model, o) for o in ds.observations]
    nodes = model.make_param_nodes(trainable=False)
    nll = model.loss_node(nodes, ds.observations, "nll").value[0, 0]
    assert nll == pytest.approx(np.mean([nll_loss(p, c) for p, _, c, _ in per_obs]), rel=1e-12)
    mse = model.loss_node(nodes, ds.observations, "mse_onehot").value[0, 0]
    want = np.mean([mse_onehot_loss(p, c, rows) for p, rows, c, _ in per_obs])
    assert mse == pytest.approx(want, rel=1e-12)
    for loss in ("nll", "mse_onehot"):
        cfg = TrainConfig(loss=loss, learning_rate=0.05, batch_size=8, max_epochs=4, seed=1)
        trained, history = train(FeaturedModel(3, 4, 2, 2, seed=5), ds, cfg)
        losses = [r.train_loss for r in history.records]
        assert np.isfinite(losses).all() and losses[-1] < losses[0]


def test_featureless_run_does_not_import_numpy_ma(tmp_path):
    """``numpy.ma`` costs about 1 MB of RSS and 11 ms per process, and
    ``np.unique``'s values-only form imports it.  A featureless load, train,
    evaluate and halo table in a fresh process must not."""
    path = tmp_path / "bev.csv"
    dat.write_featureless_csv(dat.sample_choices(dat.beverage_fixture(), 20, seed=1), path)
    script = f"""
import sys
from deephalo import data, halo, training
from deephalo.featureless import FeaturelessModel
assert "numpy.ma" not in sys.modules
ds = data.load_featureless_csv({str(path)!r})
model = FeaturelessModel.deephalo(ds.universe, width=6, depth=2, seed=1)
training.train(model, ds, training.TrainConfig(max_epochs=2, batch_size=50))
training.evaluate(model, ds)
halo.full_relative_table(model, 2)
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(deephalo.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
