"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines
as they complete.  The two training-heavy criteria (beverage fit and the
depth study) dominate the runtime; everything is seeded and deterministic.
"""

import itertools
import math
import time

import numpy as np
import pytest

from deephalo import data as dat
from deephalo import autodiff as ad
from deephalo.featured import CatalogSetModel, FeaturedModel
from deephalo.featureless import (
    FeaturelessModel,
    UtilityVector,
    choice_probabilities,
    required_depth_quadratic,
)
from deephalo.halo import full_relative_table, identifiability_count, relative_halo
from deephalo.training import TrainConfig, evaluate, rmse_vs_frequencies, train

from test_featureless import invert_effects, max_abs_utility


def _report(num: int, desc: str, passed: bool, detail: str = "") -> None:
    marker = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {marker}: {desc}{suffix}")
    assert passed, f"criterion {num} failed: {desc}{suffix}"


# -- shared expensive fixtures -------------------------------------------------


@pytest.fixture(scope="module")
def beverage_fit():
    """2000 samples per offered set, quadratic depth-2 width-8 fit."""
    table = dat.beverage_fixture()
    dataset = dat.sample_choices(table, 2000, seed=23)
    model = FeaturelessModel.deephalo(
        4, width=8, depth=2, activation="quadratic", seed=11
    )
    config = TrainConfig(
        loss="nll",
        learning_rate=0.05,
        max_epochs=900,
        seed=5,
        lr2=0.005,
        lr_switch=600,
    )
    model, _ = train(model, dataset, config)
    return model, table


@pytest.fixture(scope="module")
def depth_study():
    """All C(8,6) sets, 500 draws each, parameter-matched depths 1..5."""
    dataset, _ = dat.gen_synthetic_simplex(8, 6, 0, 500, seed=101)
    frequencies = dat.empirical_frequencies(dataset)
    budget = 460
    widths = {1: 29, 2: 15, 3: 12, 4: 10, 5: 9}
    rmse = {}
    counts = {}
    for depth, width in widths.items():
        model = FeaturelessModel.deephalo(
            8, width=width, depth=depth, activation="quadratic", seed=31
        )
        counts[depth] = model.parameter_count()
        model, _ = train(
            model,
            dataset,
            TrainConfig(
                loss="mse_onehot",
                learning_rate=0.03,
                max_epochs=800,
                seed=13,
                lr2=0.003,
                lr_switch=500,
            ),
        )
        model, _ = train(
            model,
            dataset,
            TrainConfig(loss="mse_onehot", learning_rate=0.0005, max_epochs=700, seed=14),
        )
        rmse[depth] = rmse_vs_frequencies(model, frequencies)
    return rmse, counts, budget


# -- criteria ------------------------------------------------------------------


def test_criterion_1_beverage_reproduction(beverage_fit):
    model, table = beverage_fit
    worst = 0.0
    for ids, probs in table.items():
        fitted = model.probabilities(ids)[list(ids)]
        worst = max(worst, float(np.max(np.abs(fitted - probs))))
    _report(
        1,
        "fitted beverage probabilities match the market-share table within 0.03",
        worst <= 0.03,
        f"max abs error {worst:.4f}",
    )


def test_criterion_2_beverage_halo_signs(beverage_fit):
    model, _ = beverage_fit
    # 0=Pepsi 1=Coke 2=7-Up 3=Sprite
    coke_vs_7up_given_pepsi = relative_halo(model, 1, 2, (0,))
    coke_vs_sprite_given_pepsi = relative_halo(model, 1, 3, (0,))
    pepsi_vs_coke_base = relative_halo(model, 0, 1, ())
    ok = (
        coke_vs_7up_given_pepsi < 0
        and coke_vs_sprite_given_pepsi < 0
        and pepsi_vs_coke_base > 0
    )
    _report(
        2,
        "relative effects reproduce the cola-rivalry reading of the heatmap",
        ok,
        f"a(1,2|0)={coke_vs_7up_given_pepsi:+.3f} "
        f"a(1,3|0)={coke_vs_sprite_given_pepsi:+.3f} "
        f"a(0,1|:)={pepsi_vs_coke_base:+.3f}",
    )


def test_criterion_3_depth_expressiveness(depth_study):
    rmse, counts, budget = depth_study
    matched = all(abs(counts[d] - budget) / budget <= 0.05 for d in counts)
    needed = required_depth_quadratic(8)
    assert needed == 4
    monotone = all(rmse[d + 1] <= rmse[d] for d in range(1, needed))
    drop = (rmse[1] - rmse[4]) / rmse[1]
    gain_5 = (rmse[4] - rmse[5]) / rmse[4]
    ok = matched and monotone and drop >= 0.30 and gain_5 < 0.05
    _report(
        3,
        "frequency RMSE falls with depth up to the required depth, then flattens",
        ok,
        "rmse " + " ".join(f"L{d}={rmse[d]:.5f}" for d in sorted(rmse))
        + f"; drop {drop:.1%}, depth-5 gain {gain_5:+.1%}",
    )


def test_criterion_4_order_truncation_suite():
    rng = np.random.default_rng(404)
    universe = 6
    failures = 0
    checks = 0
    for activation, depths in (("linear", (1, 2, 3)), ("quadratic", (1, 2))):
        for depth in depths:
            cap = depth if activation == "linear" else 2 ** (depth - 1)
            for _ in range(20):
                model = FeaturelessModel(universe, 8, depth, activation)
                model.layers = [
                    rng.normal(0, 0.5, size=np.shape(layer)) for layer in model.layers
                ]
                model.readout = rng.normal(0, 0.5, size=model.readout.shape)
                scale = max_abs_utility(model)
                for j in range(universe):
                    for source, value in invert_effects(model, j).items():
                        if len(source) > cap:
                            checks += 1
                            failures += abs(value) > 1e-8 * scale
    _report(
        4,
        "no interaction effects appear beyond each stack's order bound",
        failures == 0,
        f"{checks} inversions checked across 100 random models",
    )


def test_criterion_5_reconstruction_roundtrip():
    rng = np.random.default_rng(505)
    worst = 0.0
    from deephalo.halo import reconstruct_utility

    for draw in range(50):
        model = FeaturedModel(3, 4, 2, 2, sigma="identity", seed=1000 + draw)
        catalog = CatalogSetModel(model, rng.normal(size=(3, 4)))
        utilities = {}
        for size in range(1, 5):
            for ids in itertools.combinations(range(4), size):
                utilities[ids] = catalog.set_utilities(ids)
        scale = max(
            1.0, max(float(np.max(np.abs(u))) for u in utilities.values())
        )
        for ids, values in utilities.items():
            for pos, item in enumerate(ids):
                rebuilt = reconstruct_utility(catalog, item, ids)
                worst = max(worst, abs(rebuilt - float(values[pos])) / scale)
    _report(
        5,
        "summing extracted effects reconstructs every forward utility",
        worst <= 1e-8,
        f"worst relative gap {worst:.2e} over 50 draws",
    )


def test_criterion_6_permutation_equivariance():
    rng = np.random.default_rng(606)
    exact = True
    for trial in range(200):
        d_x = int(rng.integers(2, 5))
        width = int(rng.integers(3, 8))
        real = int(rng.integers(2, width + 1))
        model = FeaturedModel(
            d_x,
            int(rng.integers(3, 7)),
            int(rng.integers(1, 4)),
            int(rng.integers(1, 4)),
            sigma="quadratic" if trial % 2 else "identity",
            seed=2000 + trial,
        )
        x = np.zeros((d_x, width))
        x[:, :real] = rng.normal(size=(d_x, real))
        mask = np.zeros(width, dtype=bool)
        mask[:real] = True
        perm = rng.permutation(real)
        xp = x.copy()
        xp[:, :real] = x[:, perm]
        u = model.forward(x, mask).values
        up = model.forward(xp, mask).values
        if not np.array_equal(up[:real], u[perm]):
            exact = False
            break
    _report(
        6,
        "permuting offered items permutes utilities with exact equality",
        exact,
        "200 random (model, input, permutation) triples",
    )


def _flat_gradient_check(model, observations, h=1e-5):
    nodes = model.make_param_nodes(trainable=True)
    loss = model.loss_node(nodes, observations, "nll")
    ad.backward(loss)

    def loss_value():
        consts = model.make_param_nodes(trainable=False)
        return float(model.loss_node(consts, observations, "nll").value[0, 0])

    worst = 0.0
    for name, array in model.trainables():
        analytic = nodes[name].grad
        it = np.nditer(array, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = array[idx]
            array[idx] = saved + h
            up = loss_value()
            array[idx] = saved - h
            down = loss_value()
            array[idx] = saved
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(analytic[idx]), 1e-4)
            worst = max(worst, abs(analytic[idx] - fd) / denom)
    return worst


def test_criterion_7_gradient_correctness():
    rng = np.random.default_rng(707)
    worst = 0.0
    for config in range(10):
        model = FeaturelessModel.deephalo(
            3,
            width=int(rng.integers(3, 6)),
            depth=int(rng.integers(1, 4)),
            activation="quadratic" if config % 2 else "linear",
            seed=3000 + config,
        )
        table = {
            ids: np.full(len(ids), 1.0 / len(ids))
            for ids in [(0, 1), (0, 2), (0, 1, 2)]
        }
        observations = dat.sample_choices(table, 4, seed=config).observations
        worst = max(worst, _flat_gradient_check(model, observations))
    for config in range(10):
        d_x = 2
        model = FeaturedModel(
            d_x,
            3,
            int(rng.integers(1, 3)),
            int(rng.integers(1, 3)),
            sigma="quadratic" if config % 2 else "identity",
            variant="resnet" if config % 3 == 0 else "heads",
            seed=4000 + config,
        )
        observations = []
        for _ in range(3):
            real = int(rng.integers(2, 4))
            x = np.zeros((d_x, 4))
            x[:, :real] = rng.normal(size=(d_x, real))
            ids = tuple(range(real))
            cs = dat.ChoiceSet(ids, 4)
            observations.append(dat.Observation(cs, int(rng.integers(real)), x))
        worst = max(worst, _flat_gradient_check(model, observations))
    _report(
        7,
        "full-model likelihood gradients match central finite differences",
        worst <= 1e-4,
        f"max relative error {worst:.2e} over 20 configurations",
    )


def test_criterion_8_special_case_equivalences():
    # (a) one linear layer at full rank against the first-order preset.
    rng = np.random.default_rng(808)
    truth = rng.normal(0, 1.0, size=(4, 4))
    table = {}
    for size in (2, 3):
        for ids in itertools.combinations(range(4), size):
            u = np.array([truth[j, j] + sum(truth[j, k] for k in ids) for j in ids])
            e = np.exp(u - u.max())
            table[ids] = e / e.sum()
    dataset = dat.sample_choices(table, 500, seed=17)
    nll = {}
    for label, model in (
        ("general", FeaturelessModel.deephalo(4, width=4, depth=1, activation="linear", seed=2)),
        ("preset", FeaturelessModel.cmnl(4, seed=2)),
    ):
        config = TrainConfig(
            loss="nll",
            learning_rate=0.05,
            max_epochs=1500,
            seed=3,
            lr2=0.002,
            lr_switch=1000,
        )
        model, history = train(model, dataset, config)
        nll[label] = history.records[-1].train_loss
    gap = abs(nll["general"] - nll["preset"])

    # (b) zero interactions reproduce set-independent choice exactly.
    base = FeaturelessModel.mnl(4, seed=9)
    zeroed = FeaturelessModel(4, 6, 2, "quadratic", output_mode="dense")
    zeroed.layers = [np.zeros_like(layer) for layer in zeroed.layers]
    zeroed.readout = np.zeros((4, 6))
    zeroed.readout[:, :4] = np.diagflat(base.readout)
    exact = True
    for size in range(2, 5):
        for ids in itertools.combinations(range(4), size):
            pz = choice_probabilities(zeroed.forward(ids))
            pm = choice_probabilities(base.forward(ids))
            exact = exact and np.array_equal(pz, pm)
    _report(
        8,
        "presets coincide with their general-recursion configurations",
        gap <= 1e-3 and exact,
        f"first-order NLL gap {gap:.2e}; zero-interaction probabilities exact={exact}",
    )


def test_criterion_9_identifiability_count():
    matches = True
    for n in range(2, 9):
        enumerated = sum(
            len(subset) - 1
            for size in range(2, n + 1)
            for subset in itertools.combinations(range(n), size)
        )
        matches = matches and identifiability_count(n) == enumerated
    _report(
        9,
        "identifiable-effect count matches subset enumeration for n=2..8",
        matches and identifiability_count(4) == 17,
        f"n=4 gives {identifiability_count(4)}",
    )


def test_criterion_10_shift_invariance(beverage_fit):
    rng = np.random.default_rng(1010)
    worst_prob = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)] = True
        values = np.full(n, -np.inf)
        values[mask] = rng.normal(size=int(mask.sum()))
        shift = float(rng.normal(scale=25.0))
        base = choice_probabilities(UtilityVector(values, mask))
        moved = values.copy()
        moved[mask] += shift
        shifted = choice_probabilities(UtilityVector(moved, mask))
        worst_prob = max(worst_prob, float(np.max(np.abs(base - shifted))))

    model, _ = beverage_fit

    class SizeShifted:
        universe = model.universe

        def set_utilities(self, ids):
            return model.set_utilities(ids) + (2.1 * len(ids) - 0.4 * len(ids) ** 2)

    base_table = full_relative_table(model, max_order=2)
    shifted_table = full_relative_table(SizeShifted(), max_order=2)
    worst_alpha = max(
        abs(base_table.entries[key] - shifted_table.entries[key])
        for key in base_table.entries
    )
    _report(
        10,
        "probabilities ignore utility shifts; relative effects ignore "
        "set-size-dependent shifts",
        worst_prob <= 1e-12 and worst_alpha <= 1e-10,
        f"prob shift {worst_prob:.1e}, alpha shift {worst_alpha:.1e}",
    )
