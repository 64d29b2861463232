"""Feature-based model: embedding, layers, equivariance, reductions."""

import itertools
import re

import numpy as np
import pytest

from deephalo import autodiff as ad
from deephalo import data as dat
from deephalo.featured import PREDICT_BLOCK, CatalogSetModel, FeaturedModel
from deephalo.featureless import FeaturelessModel, choice_probabilities

from test_featureless import assert_follows_declarations, invert_effects


def random_inputs(rng, d_x, real, width):
    x = np.zeros((d_x, width))
    x[:, :real] = rng.normal(size=(d_x, real))
    mask = np.zeros(width, dtype=bool)
    mask[:real] = True
    return x, mask


def identity_construction(theta, heads_q, depth):
    """Featured weights realizing the one-hot specialization.

    The embedding becomes the identity on one-hot columns and each head's
    modulator maps the j-th one-hot to q[h, j] times itself (an offset
    keeps the hidden relu in its linear region).  Sum aggregation makes
    the induced set function polynomial in membership.
    """
    d = theta.shape[0]
    h = heads_q.shape[0]
    model = FeaturedModel(
        d, d, h, depth, sigma="identity", aggregation="sum", layer_norm=False
    )
    p = model.params
    p["embed.w1"] = np.eye(d)
    p["embed.b1"] = np.zeros((d, 1))
    p["embed.w2"] = np.eye(d)
    p["embed.b2"] = np.zeros((d, 1))
    p["embed.w3"] = np.eye(d)
    p["embed.b3"] = np.zeros((d, 1))
    offset = 1.0 + np.max(np.abs(heads_q))
    for l in range(depth):
        p[f"layer{l}.agg"] = theta * h  # theta = (1/H) * q^T agg with q = I
        for i in range(h):
            p[f"layer{l}.head{i}.w"] = np.diagflat(heads_q[i])
            p[f"layer{l}.head{i}.b"] = np.full((d, 1), offset)
        p[f"layer{l}.shared_w"] = np.eye(d)
        p[f"layer{l}.shared_b"] = np.full((d, 1), -offset)
    p["readout"] = np.ones((1, d))
    return model


class TestEmbedding:
    def test_shared_map_gives_identical_columns(self):
        rng = np.random.default_rng(0)
        m = FeaturedModel(3, 5, 2, 1, seed=1)
        x = np.zeros((3, 4))
        x[:, 0] = x[:, 2] = rng.normal(size=3)
        x[:, 1] = rng.normal(size=3)
        z = m.embed(x, [True, True, True, False])
        np.testing.assert_array_equal(z[:, 0], z[:, 2])

    def test_columnwise_permutation(self):
        rng = np.random.default_rng(1)
        m = FeaturedModel(4, 6, 2, 1, seed=2)
        x, mask = random_inputs(rng, 4, 3, 3)
        z = m.embed(x, mask)
        perm = [2, 0, 1]
        zp = m.embed(x[:, perm], mask)
        np.testing.assert_array_equal(zp, z[:, perm])

    def test_dummy_column_stays_zero(self):
        rng = np.random.default_rng(2)
        m = FeaturedModel(3, 4, 2, 1, seed=3)
        x, mask = random_inputs(rng, 3, 2, 5)
        z = m.embed(x, mask)
        np.testing.assert_array_equal(z[:, 2:], np.zeros((4, 3)))

    def test_feature_dim_mismatch(self):
        m = FeaturedModel(3, 4, 2, 1)
        with pytest.raises(ValueError, match="feature matrix"):
            m.embed(np.zeros((2, 3)), [True, True, True])

    @pytest.mark.parametrize("options", [{}, {"layer_norm": False}, {"variant": "resnet"}])
    def test_embedding_is_first_layer_state(self, options):
        rng = np.random.default_rng(4)
        m = FeaturedModel(3, 5, 2, 2, seed=6, **options)
        x = np.zeros((3, 6))
        mask = np.array([False, True, True, False, True, False])
        x[:, mask] = rng.normal(size=(3, 3))
        z = m.embed(x, mask)
        assert z.tobytes() == m.layer_states(x, mask)[0].tobytes()
        assert not z[:, ~mask].any() and z[:, mask].all()
        for inspect in (m.embed, m.layer_states):
            with pytest.raises(ad.DegenerateSetError, match="no real slot"):
                inspect(np.zeros((3, 2)), [False, False])


class TestLayerStep:
    def test_zero_aggregation_is_identity_layer(self):
        rng = np.random.default_rng(3)
        m = FeaturedModel(3, 4, 2, 2, seed=4)
        for l in range(2):
            m.params[f"layer{l}.agg"] = np.zeros_like(m.params[f"layer{l}.agg"])
        x, mask = random_inputs(rng, 3, 3, 4)
        states = m.layer_states(x, mask)
        np.testing.assert_array_equal(states[0], states[1])
        np.testing.assert_array_equal(states[0], states[2])

    def test_single_head_constant_modulator_shifts_all_items_equally(self):
        rng = np.random.default_rng(4)
        m = FeaturedModel(3, 4, 1, 1, seed=5)
        # relu(0 x + 0) = 0, then the shared layer outputs its bias and the
        # layer norm of a constant column is its own bias: phi == 1 vector.
        m.params["layer0.head0.w"] = np.zeros((4, 4))
        m.params["layer0.head0.b"] = np.zeros((4, 1))
        m.params["layer0.shared_w"] = np.zeros((4, 4))
        m.params["layer0.shared_b"] = rng.normal(size=(4, 1))
        m.params["layer0.ln_gain"] = np.ones((4, 1))
        m.params["layer0.ln_bias"] = np.ones((4, 1))
        x, mask = random_inputs(rng, 3, 3, 3)
        states = m.layer_states(x, mask)
        shift = states[1] - states[0]
        np.testing.assert_allclose(shift[:, 1], shift[:, 0], atol=1e-12)
        np.testing.assert_allclose(shift[:, 2], shift[:, 0], atol=1e-12)

    def test_singleton_set_probability_one(self):
        rng = np.random.default_rng(5)
        m = FeaturedModel(4, 5, 3, 2, seed=6)
        x, mask = random_inputs(rng, 4, 1, 4)
        p = m.probabilities(x, mask)
        assert p[0] == 1.0
        np.testing.assert_array_equal(p[1:], 0.0)


class TestForward:
    def test_zero_aggregation_reduces_to_context_free_utilities(self):
        rng = np.random.default_rng(6)
        m = FeaturedModel(3, 4, 2, 3, seed=7)
        for l in range(3):
            m.params[f"layer{l}.agg"] = np.zeros_like(m.params[f"layer{l}.agg"])
        items = rng.normal(size=(3, 4))
        # Utility of an item must not depend on which others are present.
        catalog = CatalogSetModel(m, items)
        u_pair = catalog.set_utilities((0, 1))
        u_full = catalog.set_utilities((0, 1, 2, 3))
        assert u_pair[0] == pytest.approx(u_full[0], abs=1e-12)
        assert u_pair[1] == pytest.approx(u_full[1], abs=1e-12)

    def test_column_exchange_is_exact(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            m = FeaturedModel(3, 5, 2, 2, seed=100 + trial)
            x, mask = random_inputs(rng, 3, 4, 6)
            u = m.forward(x, mask).values
            xp = x.copy()
            xp[:, [1, 3]] = xp[:, [3, 1]]
            up = m.forward(xp, mask).values
            assert up[1] == u[3] and up[3] == u[1]
            assert up[0] == u[0] and up[2] == u[2]

    def test_matches_featureless_recursion_on_one_hots(self):
        """The one-hot configuration reproduces the featureless linear
        stack on a 4-item universe."""
        rng = np.random.default_rng(8)
        universe, depth = 4, 2
        theta = rng.normal(0, 0.4, size=(universe, universe))

        reference = FeaturelessModel(
            universe, universe, depth, "linear", output_mode="identity"
        )
        reference.layers = [theta.copy() for _ in range(depth)]

        featured = identity_construction(theta, np.eye(universe), depth)
        catalog = CatalogSetModel(featured, np.eye(universe))
        for size in range(1, universe + 1):
            for ids in itertools.combinations(range(universe), size):
                np.testing.assert_allclose(
                    catalog.set_utilities(ids),
                    reference.set_utilities(ids),
                    atol=1e-10,
                )

    def test_one_hot_order_truncation(self):
        """Identity-configured stacks show no effects beyond order depth
        on a 5-item universe (sum aggregation keeps utilities polynomial)."""
        rng = np.random.default_rng(9)
        universe = 5
        for depth in (1, 2):
            q = rng.normal(0, 0.7, size=(universe, universe))
            theta = rng.normal(0, 0.4, size=(universe, universe)) / universe
            featured = identity_construction(theta, q, depth)
            # Random head scaling: agg stays theta-based, heads carry q.
            catalog = CatalogSetModel(featured, np.eye(universe))
            umax = max(
                float(np.max(np.abs(catalog.set_utilities(ids))))
                for size in range(1, universe + 1)
                for ids in itertools.combinations(range(universe), size)
            )
            for j in range(universe):
                for source, value in invert_effects(catalog, j).items():
                    if len(source) > depth:
                        assert abs(value) <= 1e-6 * umax


class TestResnetVariant:
    def test_zero_weights_context_free(self):
        rng = np.random.default_rng(10)
        m = FeaturedModel(3, 4, 1, 2, variant="resnet", seed=11)
        for l in range(2):
            m.params[f"layer{l}.agg"] = np.zeros((4, 4))
        items = rng.normal(size=(3, 3))
        catalog = CatalogSetModel(m, items)
        u_pair = catalog.set_utilities((0, 2))
        u_full = catalog.set_utilities((0, 1, 2))
        assert u_pair[0] == pytest.approx(u_full[0], abs=1e-12)

    def test_matches_heads_variant_with_rank_one_map(self):
        """With one head and a constant-one modulator, the heads update is
        context * ones; the resnet update with the rank-one matrix
        ones @ agg_row reproduces it."""
        rng = np.random.default_rng(11)
        d = 4
        heads = FeaturedModel(3, d, 1, 2, seed=12)
        for l in range(2):
            heads.params[f"layer{l}.head0.w"] = np.zeros((d, d))
            heads.params[f"layer{l}.head0.b"] = np.zeros((d, 1))
            heads.params[f"layer{l}.shared_w"] = np.zeros((d, d))
            heads.params[f"layer{l}.shared_b"] = np.zeros((d, 1))
            heads.params[f"layer{l}.ln_gain"] = np.ones((d, 1))
            heads.params[f"layer{l}.ln_bias"] = np.ones((d, 1))

        resnet = FeaturedModel(3, d, 1, 2, variant="resnet", seed=12)
        for name in ("embed.w1", "embed.b1", "embed.w2", "embed.b2", "embed.w3",
                     "embed.b3", "embed.ln_gain", "embed.ln_bias", "readout"):
            resnet.params[name] = heads.params[name].copy()
        for l in range(2):
            row = heads.params[f"layer{l}.agg"]
            resnet.params[f"layer{l}.agg"] = np.ones((d, 1)) @ row

        x, mask = random_inputs(rng, 3, 3, 4)
        np.testing.assert_allclose(
            resnet.forward(x, mask).values[:3],
            heads.forward(x, mask).values[:3],
            atol=1e-12,
        )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        m = FeaturedModel(2, 4, 4, 2, variant="resnet", sigma="quadratic", seed=13)
        x, mask = random_inputs(rng, 2, 4, 5)
        u = m.forward(x, mask).values
        perm = [3, 1, 0, 2]
        xp = x.copy()
        xp[:, :4] = x[:, perm]
        up = m.forward(xp, mask).values
        np.testing.assert_array_equal(up[:4], u[perm])


def test_dummy_invariance_bit_identical():
    """Real-item utilities cannot depend on how much padding follows."""
    rng = np.random.default_rng(13)
    m = FeaturedModel(4, 6, 3, 2, sigma="quadratic", seed=14)
    real = rng.normal(size=(4, 5))
    for width in (8, 16):
        x = np.zeros((4, width))
        x[:, :5] = real
        mask = np.zeros(width, dtype=bool)
        mask[:5] = True
        u = m.forward(x, mask).values[:5]
        if width == 8:
            reference = u
        else:
            np.testing.assert_array_equal(u, reference)


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    m = FeaturedModel(3, 5, 2, 2, sigma="quadratic", seed=15)
    path = tmp_path / "m.json"
    m.save(path)
    loaded = FeaturedModel.load(path)
    x, mask = random_inputs(rng, 3, 3, 4)
    np.testing.assert_array_equal(
        m.forward(x, mask).values, loaded.forward(x, mask).values
    )
    assert loaded.sigma == "quadratic" and loaded.aggregation == "mean"


class TestCatalogIds:
    """Catalog ids are checked like featureless ids, naming the bad id."""

    @pytest.fixture
    def catalog(self):
        model = FeaturedModel(3, 4, 2, 1, seed=8)
        return CatalogSetModel(model, np.random.default_rng(9).normal(size=(3, 4)))

    def test_negative_id_rejected(self, catalog):
        with pytest.raises(ValueError, match="id -1 outside"):
            catalog.set_utilities((-1, 0))

    def test_out_of_catalog_id_rejected(self, catalog):
        with pytest.raises(ValueError, match="id 4 outside"):
            catalog.set_utilities((4,))

    def test_duplicate_id_rejected(self, catalog):
        with pytest.raises(ValueError, match=r"duplicate ids in \(0, 0\)"):
            catalog.set_utilities((0, 0))

    def test_empty_set_rejected(self, catalog):
        with pytest.raises(ValueError, match="empty"):
            catalog.set_utilities(())

    def test_relative_halo_rejects_negative_id(self, catalog):
        from deephalo.halo import relative_halo

        with pytest.raises(ValueError, match="id -1 outside"):
            relative_halo(catalog, -1, 0, ())

    def test_valid_ids_unchanged(self, catalog):
        u = catalog.set_utilities((3, 0))
        x = np.zeros((3, 4))
        x[:, :2] = catalog.item_features[:, [3, 0]]
        expected = catalog.model.forward(x, np.arange(4) < 2).values[:2]
        assert np.array_equal(u, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_item_feature_rejected_naming_item_and_row(self, bad):
        features = np.random.default_rng(9).normal(size=(3, 4))
        features[2, 1] = bad
        features[0, 3] = bad  # a later item: the first bad item is named
        with pytest.raises(ValueError, match=rf"catalog item 1 .* feature row 2: {bad!r}"):
            CatalogSetModel(FeaturedModel(3, 4, 2, 1, seed=8), features)


# -- batched forwards ------------------------------------------------------------


def _scattered_observations(rng, d_x, count):
    """Observations of widths 1-6 whose real slots sit anywhere, dummies between."""
    blocks = []
    for _ in range(count):
        width = int(rng.integers(1, 7))
        mask = rng.random(width) < 0.6
        mask[rng.integers(width)] = True
        x = np.zeros((d_x, width))
        x[:, mask] = rng.normal(size=(d_x, int(mask.sum())))
        blocks.append((x, mask))
    return blocks


@pytest.mark.parametrize("variant", ["heads", "resnet"])
@pytest.mark.parametrize("aggregation", ["mean", "sum"])
@pytest.mark.parametrize("sigma", ["identity", "quadratic"])
def test_batched_columns_equal_one_observation_forwards(sigma, aggregation, variant):
    """Each column of a batched forward is the observation's forward alone, bit for bit."""
    rng = np.random.default_rng(31)
    m = FeaturedModel(3, 5, 3, 2, sigma=sigma, aggregation=aggregation, variant=variant, seed=4)
    blocks = _scattered_observations(rng, 3, 12)
    assert any(np.any(~mask[:-1] & mask[1:]) for _, mask in blocks)  # a dummy before a real slot
    assert any(mask.sum() == 1 for _, mask in blocks)
    nodes = m.make_param_nodes(trainable=False)
    u, slots = m.utilities_node(nodes, blocks)
    assert slots.shape == (max(mask.size for _, mask in blocks), len(blocks))
    for b, (x, mask) in enumerate(blocks):
        alone = m.forward(x, mask)
        assert np.array_equal(slots[: mask.size, b], mask) and not slots[mask.size :, b].any()
        assert np.array_equal(u.value[: mask.size, b][mask], alone.values[mask])
        assert np.all(u.value[~slots[:, b], b] == 0.0)
        # Trailing padding of any width leaves the utilities unchanged.
        wide = np.zeros((3, mask.size + 3))
        wide[:, : mask.size] = x
        padded = m.forward(wide, np.concatenate([mask, np.zeros(3, dtype=bool)]))
        assert np.array_equal(padded.values[: mask.size], alone.values)


def test_predict_blocks_equal_one_observation_probabilities():
    rng = np.random.default_rng(32)
    m = FeaturedModel(3, 5, 2, 2, sigma="quadratic", seed=6)
    m.params["readout"] *= 40.0
    observations = []
    for _ in range(2 * PREDICT_BLOCK + 5):
        width = int(rng.integers(1, 7))
        x, mask = random_inputs(rng, 3, int(rng.integers(1, width + 1)), width)
        cs = dat.ChoiceSet(tuple(range(int(mask.sum()))), width)
        observations.append(dat.Observation(cs, 0, x))
    blocks = [(obs.features, obs.choice_set.mask) for obs in observations]
    probs, mask = m.predict(blocks)
    # The blocked utilities go through training's normaliser.
    u, slots = m.utilities_node(m.make_param_nodes(trainable=False), blocks)
    assert np.array_equal(mask, slots)
    assert np.array_equal(probs, ad.masked_softmax(u, slots).value)
    for g, obs in enumerate(observations):
        want = m.probabilities(obs.features, obs.choice_set.mask)
        assert np.array_equal(probs[: want.size, g], want)
        assert np.array_equal(mask[: want.size, g], obs.choice_set.mask)
        assert not mask[want.size :, g].any() and np.all(probs[want.size :, g] == 0.0)


@pytest.mark.parametrize("variant", ["heads", "resnet"])
def test_permuting_a_batch_gives_equal_parameter_gradients(variant):
    rng = np.random.default_rng(33)
    m = FeaturedModel(3, 4, 2, 2, sigma="quadratic", variant=variant, seed=7)
    blocks = _scattered_observations(rng, 3, 9)

    def gradients(order):
        nodes = m.make_param_nodes(trainable=True)
        u, slots = m.utilities_node(nodes, [blocks[i] for i in order])
        weight = np.zeros(slots.shape)
        for b, i in enumerate(order):
            weight[np.flatnonzero(slots[:, b])[0], b] = 1.0 + i  # a chosen slot and count
        loss = ad.sum_all(ad.hadamard(ad.masked_log_softmax(u, slots), ad.constant(weight)))
        ad.backward(loss)
        return loss.value, {name: nodes[name].grad for name in m.params}

    loss, grads = gradients(range(len(blocks)))
    for trial in range(5):
        moved_loss, moved = gradients(rng.permutation(len(blocks)))
        assert np.array_equal(moved_loss, loss)
        for name, grad in grads.items():
            assert np.array_equal(moved[name], grad), name


def test_observation_without_real_slot_rejected():
    m = FeaturedModel(2, 3, 1, 1, seed=0)
    with pytest.raises(ad.DegenerateSetError, match="no real slot"):
        m.forward(np.zeros((2, 3)), [False, False, False])


# -- model files -----------------------------------------------------------------


class TestModelFileValidation:
    def payload(self):
        return FeaturedModel(3, 4, 2, 2, seed=1).to_json()

    @pytest.mark.parametrize("variant", ["heads", "resnet"])
    def test_param_nodes_and_file_keys_follow_declarations(self, variant):
        m = FeaturedModel(3, 4, 2, 2, variant=variant, seed=1)
        assert_follows_declarations(m)
        assert FeaturedModel.from_json(m.to_json()).to_json() == m.to_json()

    def test_wrong_shape_names_group(self):
        payload = self.payload()
        payload["weights"]["embed.w2"] = np.ones((2, 2)).tolist()
        with pytest.raises(ValueError, match=r"'embed.w2' has shape \(2, 2\).*\(4, 4\)"):
            FeaturedModel.from_json(payload)

    def test_non_finite_entry_names_group(self):
        payload = self.payload()
        payload["weights"]["readout"][0][1] = float("nan")
        with pytest.raises(ValueError, match="'readout' has non-finite entries"):
            FeaturedModel.from_json(payload)

    def test_ragged_group_names_group(self):
        payload = self.payload()
        payload["weights"]["layer1.agg"] = [[1.0, 2.0], [3.0]]
        with pytest.raises(ValueError, match="'layer1.agg' is not a numeric matrix"):
            FeaturedModel.from_json(payload)

    def test_missing_header_key_named(self):
        payload = self.payload()
        del payload["d_x"]
        with pytest.raises(ValueError, match="missing header key 'd_x'"):
            FeaturedModel.from_json(payload)

    @pytest.mark.parametrize("key,value,named", [
        ("d", "4", "'d' must be an integer, got \"4\""),
        ("H", 2.0, "'H' must be an integer, got 2.0"),
        ("d_x", False, "'d_x' must be an integer, got false"),
        ("sigma", None, "'sigma' must be a string, got null"),
        ("variant", ["heads"], "'variant' must be a string, got [\"heads\"]"),
        ("aggregation", 0, "'aggregation' must be a string, got 0"),
        ("layer_norm", "yes", "'layer_norm' must be true or false, got \"yes\""),
    ])
    def test_mistyped_header_key_named(self, key, value, named):
        payload = self.payload()
        payload[key] = value
        with pytest.raises(ValueError, match=f"header key {re.escape(named)}$"):
            FeaturedModel.from_json(payload)

    def test_payload_must_be_an_object(self):
        with pytest.raises(ValueError, match="must hold a JSON object, got a string"):
            FeaturedModel.from_json("featured")

    @pytest.mark.parametrize("key", ["layer_nrom", "matrices", "J"])
    def test_unknown_key_named(self, key):
        payload = self.payload()
        payload[key] = False
        with pytest.raises(ValueError, match=f"model file has unknown key '{key}'$"):
            FeaturedModel.from_json(payload)

    def test_weights_must_be_an_object(self):
        payload = self.payload()
        payload["weights"] = [1.0]
        with pytest.raises(ValueError, match="'weights' must map weight-group names"):
            FeaturedModel.from_json(payload)

    def test_missing_and_extra_groups_named(self):
        payload = self.payload()
        del payload["weights"]["layer0.head1.b"]
        with pytest.raises(ValueError, match="missing weight group 'layer0.head1.b'"):
            FeaturedModel.from_json(payload)
        payload = self.payload()
        payload["weights"]["layer9.agg"] = [[0.0]]
        with pytest.raises(ValueError, match="'layer9.agg' is not in the declared"):
            FeaturedModel.from_json(payload)
