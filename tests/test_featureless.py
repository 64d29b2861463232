"""Featureless model: recursions, presets, order control, equivariance."""

import itertools
import math
import re

import numpy as np
import pytest

from deephalo import autodiff as ad
from deephalo import data as dat
from deephalo.featureless import (
    FeaturelessModel,
    UtilityVector,
    choice_probabilities,
    max_interaction_order,
    required_depth_quadratic,
)
from deephalo.training import TrainConfig, train


def invert_effects(model, j):
    """Brute-force alternating-sign inversion of set utilities.

    Independent oracle: enumerates every source subset directly from
    forward passes, with no shared code with the halo module.
    """
    cache = {}

    def u(item, ids):
        if ids not in cache:
            vec = model.set_utilities(ids)
            cache[ids] = dict(zip(ids, vec))
        return cache[ids][item]

    others = [i for i in range(model.universe) if i != j]
    effects = {}
    for size in range(len(others) + 1):
        for source in itertools.combinations(others, size):
            total = 0.0
            for rsize in range(len(source) + 1):
                for picked in itertools.combinations(source, rsize):
                    sign = (-1.0) ** (len(source) - len(picked))
                    total += sign * u(j, tuple(sorted(picked + (j,))))
            effects[source] = total
    return effects


def max_abs_utility(model):
    worst = 0.0
    for size in range(1, model.universe + 1):
        for ids in itertools.combinations(range(model.universe), size):
            worst = max(worst, float(np.max(np.abs(model.set_utilities(ids)))))
    return worst


class TestForward:
    def test_zero_interactions_identity_readout(self):
        m = FeaturelessModel(4, 4, 2, "quadratic", output_mode="identity")
        m.layers = [np.zeros_like(l) for l in m.layers]
        uv = m.forward((0, 2))
        assert uv.values[0] == 1.0 and uv.values[2] == 1.0
        probs = choice_probabilities(uv)
        np.testing.assert_allclose(probs[[0, 2]], 0.5)
        assert probs[1] == 0.0 and probs[3] == 0.0

    def test_single_linear_layer_is_first_order(self):
        rng = np.random.default_rng(12)
        m = FeaturelessModel(5, 5, 1, "linear", output_mode="identity")
        m.layers = [rng.normal(size=(5, 5))]
        theta = m.layers[0]
        for ids in [(0, 1), (1, 3, 4), (0, 1, 2, 3, 4)]:
            u = m.set_utilities(ids)
            expected = [1.0 + sum(theta[j, k] for k in ids) for j in ids]
            np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_quadratic_two_layers_capped_at_second_order(self):
        rng = np.random.default_rng(3)
        m = FeaturelessModel(4, 4, 2, "quadratic")
        m.layers = [rng.normal(0, 0.5, size=l.shape) for l in m.layers]
        m.readout = rng.normal(0, 0.5, size=m.readout.shape)
        scale = max_abs_utility(m)
        for j in range(4):
            for source, value in invert_effects(m, j).items():
                if len(source) > 2:
                    assert abs(value) <= 1e-8 * scale

    def test_id_outside_universe_rejected(self):
        m = FeaturelessModel(3, 3, 1, "linear")
        with pytest.raises(ValueError, match="universe"):
            m.forward((0, 3))

    def test_width_expansion_runs(self):
        m = FeaturelessModel(3, 7, 2, "quadratic", seed=5)
        uv = m.forward((0, 1, 2))
        assert np.isfinite(uv.values).all()


class TestChoiceProbabilities:
    def test_uniform(self):
        uv = UtilityVector(np.array([0.0, 0.0]), np.array([True, True]))
        np.testing.assert_allclose(choice_probabilities(uv), [0.5, 0.5])

    def test_log_three_closed_form(self):
        uv = UtilityVector(np.array([math.log(3), 0.0]), np.array([True, True]))
        np.testing.assert_allclose(choice_probabilities(uv), [0.75, 0.25])

    def test_masked_slot_zero(self):
        uv = UtilityVector(
            np.array([5.0, -np.inf, 5.0]), np.array([True, False, True])
        )
        p = choice_probabilities(uv)
        assert p[1] == 0.0
        np.testing.assert_allclose(p[[0, 2]], 0.5)

    def test_all_dummy_rejected(self):
        uv = UtilityVector(np.array([-np.inf]), np.array([False]))
        with pytest.raises(Exception):
            choice_probabilities(uv)

    def test_utility_vector_invariant(self):
        with pytest.raises(ValueError):
            UtilityVector(np.array([1.0, 2.0]), np.array([True, False]))


class TestDepthAndOrder:
    def test_required_depth_values(self):
        assert required_depth_quadratic(15) == 5
        assert required_depth_quadratic(2) == 1
        assert required_depth_quadratic(4) == 3
        assert required_depth_quadratic(8) == 4

    def test_required_depth_rejects_tiny_universe(self):
        with pytest.raises(ValueError):
            required_depth_quadratic(1)

    def test_max_interaction_order(self):
        linear2 = FeaturelessModel(4, 4, 2, "linear")
        quad5 = FeaturelessModel(4, 4, 5, "quadratic")
        quad1 = FeaturelessModel(4, 4, 1, "quadratic")
        assert max_interaction_order(linear2) == 2
        assert max_interaction_order(quad5) == 16
        assert max_interaction_order(quad1) == 1


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_linear_order_truncation(depth):
    """Linear stacks of depth L produce no effects beyond order L (J=5)."""
    rng = np.random.default_rng(100 + depth)
    for _ in range(5):
        m = FeaturelessModel(5, 7, depth, "linear")
        m.layers = [rng.normal(0, 0.5, size=np.shape(l)) for l in m.layers]
        m.readout = rng.normal(0, 0.5, size=m.readout.shape)
        scale = max_abs_utility(m)
        for j in range(5):
            for source, value in invert_effects(m, j).items():
                if len(source) > depth:
                    assert abs(value) <= 1e-8 * scale


@pytest.mark.parametrize("depth", [1, 2])
def test_quadratic_order_truncation(depth):
    rng = np.random.default_rng(200 + depth)
    cap = 2 ** (depth - 1)
    for _ in range(5):
        m = FeaturelessModel(5, 6, depth, "quadratic")
        m.layers = [rng.normal(0, 0.5, size=np.shape(l)) for l in m.layers]
        m.readout = rng.normal(0, 0.5, size=m.readout.shape)
        scale = max_abs_utility(m)
        for j in range(5):
            for source, value in invert_effects(m, j).items():
                if len(source) > cap:
                    assert abs(value) <= 1e-8 * scale


def test_label_equivariance_is_exact():
    """Relabeling items and permuting all parameter blocks permutes
    utilities with bit-exact equality."""
    rng = np.random.default_rng(77)
    universe, width = 5, 8
    m = FeaturelessModel(universe, width, 3, "quadratic")
    m.layers = [rng.normal(size=np.shape(l)) for l in m.layers]
    m.readout = rng.normal(size=m.readout.shape)

    perm = np.array([3, 0, 4, 1, 2])
    lifted = np.concatenate([perm, np.arange(universe, width)])
    pm = FeaturelessModel(universe, width, 3, "quadratic")
    pm.layers = [m.layers[0][np.ix_(lifted, perm)]] + [
        layer[np.ix_(lifted, lifted)] for layer in m.layers[1:]
    ]
    pm.readout = m.readout[np.ix_(perm, lifted)]

    for ids in [(0, 1), (2, 4), (0, 1, 2, 3, 4), (1, 3, 4)]:
        base = m.forward(ids).values
        mapped_ids = tuple(int(np.flatnonzero(perm == i)[0]) for i in ids)
        permuted = pm.forward(mapped_ids).values
        for i, target in enumerate(perm):
            assert permuted[i] == base[target] or (
                np.isinf(permuted[i]) and np.isinf(base[target])
            )


@pytest.mark.parametrize("activation", ["linear", "quadratic"])
@pytest.mark.parametrize("output_mode", ["dense", "identity", "diagonal"])
@pytest.mark.parametrize("rank", [None, 2])
@pytest.mark.parametrize("residual", [True, False])
def test_batched_columns_equal_one_set_forwards(activation, output_mode, rank, residual):
    """Sets as columns of one forward give each set's own forward bit for bit."""
    rng = np.random.default_rng(31)
    m = FeaturelessModel(
        4, 6, 3, activation, rank=rank, output_mode=output_mode, first_layer_residual=residual
    )
    if rank is None:
        m.layers = [rng.normal(0, 0.5, size=l.shape) for l in m.layers]
    else:
        m.layers = [tuple(rng.normal(0, 0.7, size=f.shape) for f in l) for l in m.layers]
    if m.readout is not None:
        m.readout = rng.normal(1.0, 0.5, size=m.readout.shape)
    sets = [
        tuple(int(i) for i in rng.permutation(ids))
        for size in range(1, 5)
        for ids in itertools.combinations(range(4), size)
    ]
    sets = [sets[i] for i in rng.permutation(len(sets))]
    nodes = m.make_param_nodes(trainable=False)
    u, mask = m.utilities_node(nodes, sets)
    probs, _ = m.predict(sets)
    assert u.shape == mask.shape == probs.shape == (4, len(sets))
    assert np.array_equal(probs, ad.masked_softmax(u, mask).value)  # training's normaliser
    for g, ids in enumerate(sets):
        one, one_mask = m.utilities_node(nodes, [ids])
        np.testing.assert_array_equal(u.value[:, g], one.value[:, 0])
        np.testing.assert_array_equal(mask[:, g], one_mask[:, 0])
        assert sorted(np.flatnonzero(mask[:, g])) == sorted(ids)
        np.testing.assert_array_equal(m.forward(ids).values[list(ids)], u.value[list(ids), g])
        np.testing.assert_array_equal(probs[:, g], m.probabilities(ids))


def test_monotone_expressiveness_by_embedding():
    """A deeper model with zeroed extra layers reproduces the shallow one
    exactly, so its minimal loss can only be lower."""
    rng = np.random.default_rng(8)
    shallow = FeaturelessModel(4, 6, 2, "quadratic")
    shallow.layers = [rng.normal(0, 0.3, size=np.shape(l)) for l in shallow.layers]
    shallow.readout = rng.normal(size=shallow.readout.shape)

    deep = FeaturelessModel(4, 6, 4, "quadratic")
    deep.layers = list(shallow.layers) + [np.zeros((6, 6)), np.zeros((6, 6))]
    deep.readout = shallow.readout.copy()

    for size in range(1, 5):
        for ids in itertools.combinations(range(4), size):
            np.testing.assert_array_equal(
                shallow.forward(ids).values, deep.forward(ids).values
            )


def test_rank_factored_matches_dense_fit():
    """Full-rank factorization reaches the same minimal NLL as dense
    parameterization (within 1e-3) on a small first-order dataset."""
    rng = np.random.default_rng(5)
    truth = rng.normal(0, 1.0, size=(3, 3))
    table = {}
    for ids in itertools.combinations(range(3), 2):
        u = np.array([truth[j, j] + sum(truth[j, k] for k in ids) for j in ids])
        e = np.exp(u - u.max())
        table[ids] = e / e.sum()
    ds = dat.sample_choices(table, 400, seed=4)

    nlls = {}
    for rank in (None, 3):
        m = FeaturelessModel(3, 3, 1, "linear", rank=rank, seed=2)
        cfg = TrainConfig(
            loss="nll", learning_rate=0.05, max_epochs=600, seed=1,
            lr2=0.005, lr_switch=400,
        )
        m, hist = train(m, ds, cfg)
        nlls[rank] = hist.records[-1].train_loss
    assert abs(nlls[None] - nlls[3]) <= 1e-3


class TestPresets:
    def test_mnl_utilities_are_set_independent(self):
        m = FeaturelessModel.mnl(4, seed=3)
        u_pair = m.forward((1, 2)).values
        u_full = m.forward((0, 1, 2, 3)).values
        assert u_pair[1] == u_full[1] and u_pair[2] == u_full[2]

    def test_mnl_interactions_frozen(self):
        m = FeaturelessModel.mnl(4)
        assert [name for name, _ in m.trainables()] == ["readout"]

    def test_cmnl_shape(self):
        m = FeaturelessModel.cmnl(5)
        assert m.depth == 1 and m.activation == "linear"
        assert m.width == 5 and m.rank is None
        assert [name for name, _ in m.trainables()] == ["layer0"]

    def test_zeroed_interactions_reproduce_mnl_exactly(self):
        base = FeaturelessModel.mnl(4, seed=9)
        general = FeaturelessModel(4, 6, 2, "quadratic", output_mode="dense")
        general.layers = [np.zeros_like(l) for l in general.layers]
        general.readout = np.zeros((4, 6))
        general.readout[:, :4] = np.diagflat(base.readout)
        for ids in [(0, 1), (1, 2, 3), (0, 1, 2, 3)]:
            pg = choice_probabilities(general.forward(ids))
            pm = choice_probabilities(base.forward(ids))
            np.testing.assert_array_equal(pg, pm)


PRESETS = {
    "mnl": lambda: FeaturelessModel.mnl(3, seed=2),
    "cmnl": lambda: FeaturelessModel.cmnl(3, seed=2),
    "dense": lambda: FeaturelessModel(3, 5, 2, "quadratic", seed=2),
    "rank-factored": lambda: FeaturelessModel(3, 5, 2, "linear", rank=2, seed=2),
    "diagonal": lambda: FeaturelessModel(3, 4, 2, "quadratic", output_mode="diagonal", seed=2),
    "identity-no-residual": lambda: FeaturelessModel(
        3, 4, 2, "linear", output_mode="identity", first_layer_residual=False, seed=2
    ),
}


def assert_follows_declarations(m):
    """Parameters of exactly the trainable groups, file keys of exactly the header."""
    trainable = {name for name, _ in m.trainables()}
    nodes = m.make_param_nodes(trainable=True)
    assert list(nodes) == [name for name, _ in m.groups()]
    assert {name for name, node in nodes.items() if node.requires_grad} == trainable
    assert not any(node.requires_grad for node in m.make_param_nodes(trainable=False).values())
    payload = m.to_json()
    assert set(payload) == set(m.HEADER) | {"format_version", "kind", m.GROUPS}
    assert list(payload[m.GROUPS]) == list(nodes)


class TestSerialization:
    def test_round_trip_dense(self, tmp_path):
        m = FeaturelessModel(4, 6, 2, "quadratic", seed=1)
        path = tmp_path / "m.json"
        m.save(path)
        loaded = FeaturelessModel.load(path)
        for ids in [(0, 2), (0, 1, 2, 3)]:
            np.testing.assert_array_equal(
                m.forward(ids).values, loaded.forward(ids).values
            )

    def test_round_trip_rank_factored(self, tmp_path):
        m = FeaturelessModel(3, 5, 2, "linear", rank=2, seed=6)
        path = tmp_path / "m.json"
        m.save(path)
        loaded = FeaturelessModel.load(path)
        np.testing.assert_array_equal(
            m.forward((0, 1, 2)).values, loaded.forward((0, 1, 2)).values
        )

    def test_round_trip_presets(self, tmp_path):
        for preset in PRESETS.values():
            m = preset()
            path = tmp_path / "m.json"
            m.save(path)
            loaded = FeaturelessModel.load(path)
            np.testing.assert_array_equal(
                m.forward((0, 1)).values, loaded.forward((0, 1)).values
            )
            assert [n for n, _ in loaded.trainables()] == [
                n for n, _ in m.trainables()
            ]

    @pytest.mark.parametrize("preset", PRESETS)
    def test_param_nodes_and_file_keys_follow_declarations(self, preset):
        assert_follows_declarations(PRESETS[preset]())

    @pytest.mark.parametrize("preset,group", [
        ("cmnl", "layer7"),  # a layer index >= L
        ("cmnl", "readout"),  # the identity readout is fixed, not stored
        ("dense", "readuot"),
    ])
    def test_undeclared_group_named(self, preset, group):
        payload = PRESETS[preset]().to_json()
        payload["matrices"][group] = np.ones((3, 3)).tolist()
        with pytest.raises(ValueError, match=f"weight group '{group}' is not in the declared"):
            FeaturelessModel.from_json(payload)

    def test_wrong_shape_names_group(self):
        payload = FeaturelessModel(3, 5, 2, "linear", rank=2, seed=6).to_json()
        payload["matrices"]["layer1.right"] = np.zeros((2, 3)).tolist()
        with pytest.raises(ValueError, match=r"'layer1.right' has shape \(2, 3\).*\(2, 5\)"):
            FeaturelessModel.from_json(payload)

    def test_non_finite_entry_names_group(self):
        payload = FeaturelessModel.mnl(3).to_json()
        payload["matrices"]["readout"][1][0] = float("inf")
        with pytest.raises(ValueError, match="'readout' has non-finite entries"):
            FeaturelessModel.from_json(payload)

    def test_missing_group_and_header_key_named(self):
        payload = FeaturelessModel.cmnl(3).to_json()
        del payload["matrices"]["layer0"]
        with pytest.raises(ValueError, match="missing weight group 'layer0'"):
            FeaturelessModel.from_json(payload)
        payload = FeaturelessModel.cmnl(3).to_json()
        del payload["J_prime"]
        with pytest.raises(ValueError, match="missing header key 'J_prime'"):
            FeaturelessModel.from_json(payload)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeaturelessModel.from_json({"kind": "featured", "format_version": 1})

    @pytest.mark.parametrize("key", ["first_layer_residul", "weights", "d_x"])
    def test_unknown_key_named(self, key):
        # A misspelt optional key would otherwise load as its default.
        payload = FeaturelessModel.deephalo(3, width=4).to_json()
        payload[key] = False
        with pytest.raises(ValueError, match=f"model file has unknown key '{key}'$"):
            FeaturelessModel.from_json(payload)

    @pytest.mark.parametrize("key,value,named", [
        ("J", "4", "'J' must be an integer, got \"4\""),
        ("L", 2.5, "'L' must be an integer, got 2.5"),
        ("J_prime", None, "'J_prime' must be an integer, got null"),
        ("L", True, "'L' must be an integer, got true"),
        ("rank_H", "2", "'rank_H' must be an integer or null, got \"2\""),
        ("activation", 1, "'activation' must be a string, got 1"),
        ("output_mode", None, "'output_mode' must be a string, got null"),
        ("first_layer_residual", 0, "'first_layer_residual' must be true or false, got 0"),
    ])
    def test_mistyped_header_key_named(self, key, value, named):
        payload = FeaturelessModel.deephalo(3, width=4, rank=2).to_json()
        payload[key] = value
        with pytest.raises(ValueError, match=f"header key {re.escape(named)}$"):
            FeaturelessModel.from_json(payload)

    def test_payload_must_be_an_object(self):
        with pytest.raises(ValueError, match="must hold a JSON object, got an array"):
            FeaturelessModel.from_json([FeaturelessModel.mnl(3).to_json()])

    def test_file_that_is_not_json_is_named(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json")
        with pytest.raises(dat.DataFormatError, match="not valid JSON") as err:
            FeaturelessModel.load(path)
        assert str(path) in str(err.value)
