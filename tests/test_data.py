"""Dataset parsing, validation, fixtures, and generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deephalo import data as dat


class TestFeaturelessCsv:
    def test_direct_parse(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n0;2;3,2\n")
        ds = dat.load_featureless_csv(p)
        assert ds.observations[0].choice_set.items == (0, 2, 3)
        assert ds.observations[0].chosen == 2
        assert ds.universe == 4

    def test_singleton_set_is_valid(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n1,1\n")
        ds = dat.load_featureless_csv(p)
        assert ds.observations[0].choice_set.items == (1,)

    def test_duplicate_ids_rejected_with_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n0;1,0\n0;0;1,0\n")
        with pytest.raises(dat.DataFormatError, match="line 3"):
            dat.load_featureless_csv(p)

    def test_choice_outside_set_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n0;1,5\n")
        with pytest.raises(dat.DataFormatError, match="line 2"):
            dat.load_featureless_csv(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n0;1,0\nnot-a-set,0\n")
        with pytest.raises(dat.DataFormatError, match="line 3"):
            dat.load_featureless_csv(p)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("# c\nset,choice\n\n# mid\n0;1,5\n", 5),
            ('set,choice\n0;1,0\n"0;1,1\n# note\n\n0;1;2,2\n1;2,1\n', 3),
        ],
        ids=["after-comments-and-blanks", "stray-quote"],
    )
    def test_error_line_counts_every_line(self, tmp_path, text, line):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(dat.DataFormatError, match=f"line {line}:"):
            dat.load_featureless_csv(p)

    def test_observations_share_one_choice_set_per_offered_set(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n0;1,0\n2;0;1,2\n0;1,1\n0; 1,0\n2;0;1,0\n")
        ds = dat.load_featureless_csv(p)
        # Equal to building one ChoiceSet per row.
        rows = [((0, 1), 0), ((2, 0, 1), 2), ((0, 1), 1), ((0, 1), 0), ((2, 0, 1), 0)]
        per_row = dat.Dataset(
            [dat.Observation(dat.ChoiceSet(ids, 3), c) for ids, c in rows], universe=3
        )
        assert ds == per_row
        sets = [o.choice_set for o in ds.observations]
        assert sets[0] is sets[2] is sets[3] and sets[1] is sets[4]
        assert sets[0] is not sets[1]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("set,choice\n0;1,0\n0;1,1\n0;1,2\n", 4),  # seen set, bad choice
            ("set,choice\n0;1,0\n0;1,x\n", 3),
            ("set,choice\n0;1,0\n1;1,1\n1;1,1\n", 3),
        ],
        ids=["choice-outside-seen-set", "bad-choice-in-seen-set", "duplicate-ids"],
    )
    def test_errors_in_repeated_sets_name_their_line(self, tmp_path, text, line):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(dat.DataFormatError, match=f"line {line}:"):
            dat.load_featureless_csv(p)

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# generated for a test\nset,choice\n# mid comment\n0;1,1\n")
        assert len(dat.load_featureless_csv(p)) == 1

    def test_padding_to_max_set_size(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("set,choice\n0;1;2,0\n3;4,4\n")
        ds = dat.load_featureless_csv(p)
        assert ds.width == 3
        small = ds.observations[1].choice_set
        assert small.slot_ids == (3, 4, dat.NULL_ID)
        np.testing.assert_array_equal(small.mask, [True, True, False])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_round_trip(self, tmp_path_factory, data):
        universe = data.draw(st.integers(2, 6))
        n = data.draw(st.integers(1, 12))
        rng_seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(rng_seed)
        rows = []
        for _ in range(n):
            size = int(rng.integers(1, universe + 1))
            ids = tuple(int(i) for i in sorted(rng.choice(universe, size, replace=False)))
            rows.append((ids, int(rng.choice(ids))))
        width = max(len(ids) for ids, _ in rows)
        ds = dat.Dataset(
            [dat.Observation(dat.ChoiceSet(ids, width), c) for ids, c in rows],
            universe=universe,
        )
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        dat.write_featureless_csv(ds, path)
        loaded = dat.load_featureless_csv(path)
        assert [(o.choice_set.items, o.chosen) for o in loaded.observations] == rows


class TestFeaturedCsv:
    def test_assembly_with_shared_column(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1\n0,1.5\n1,-2.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice,s1\n0;1,0,5\n")
        ds = dat.load_featured_csv(items, obs)
        assert ds.feature_dim == 2
        x = ds.observations[0].features
        np.testing.assert_array_equal(x, [[1.5, -2.0], [5.0, 5.0]])

    def test_no_shared_features(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1,f2\n0,1,2\n1,3,4\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice\n0;1,1\n")
        ds = dat.load_featured_csv(items, obs)
        np.testing.assert_array_equal(ds.observations[0].features, [[1, 3], [2, 4]])

    def test_unknown_item_rejected(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1\n0,1\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice\n0;9,0\n")
        with pytest.raises(dat.DataFormatError, match="item id 9"):
            dat.load_featured_csv(items, obs)

    def test_dummy_columns_zero_after_padding(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1\n0,1\n1,2\n2,3\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice\n0;1;2,0\n1,1\n")
        ds = dat.load_featured_csv(items, obs)
        padded = ds.observations[1].features
        np.testing.assert_array_equal(padded, [[2.0, 0.0, 0.0]])


class TestBeverageFixture:
    def test_pair_pepsi_coke(self):
        table = dat.beverage_fixture()
        np.testing.assert_array_equal(table[(0, 1)], [0.98, 0.02])

    def test_pair_sevenup_sprite(self):
        table = dat.beverage_fixture()
        np.testing.assert_array_equal(table[(2, 3)], [0.90, 0.10])

    def test_full_assortment(self):
        table = dat.beverage_fixture()
        np.testing.assert_array_equal(table[(0, 1, 2, 3)], [0.49, 0.01, 0.45, 0.05])

    def test_eleven_sets_all_normalized(self):
        table = dat.beverage_fixture()
        assert len(table) == 11
        for probs in table.values():
            assert math.fsum(probs.tolist()) == pytest.approx(1.0, abs=1e-12)


class TestSampleChoices:
    def test_degenerate_distribution(self):
        ds = dat.sample_choices({(0, 1): np.array([1.0, 0.0])}, 50, seed=0)
        assert all(o.chosen == 0 for o in ds.observations)

    def test_fair_coin_frequency_within_3_sigma(self):
        # Binomial(10000, 0.5): 3 sigma is 0.015, checked against [0.47, 0.53].
        ds = dat.sample_choices({(0, 1): np.array([0.5, 0.5])}, 10_000, seed=2)
        share = np.mean([o.chosen == 0 for o in ds.observations])
        assert 0.47 <= share <= 0.53

    def test_seed_determinism(self):
        table = dat.beverage_fixture()
        a = dat.sample_choices(table, 100, seed=9)
        b = dat.sample_choices(table, 100, seed=9)
        assert [o.chosen for o in a.observations] == [o.chosen for o in b.observations]

    def test_negative_probability_rejected(self):
        with pytest.raises(dat.DataFormatError, match="negative"):
            dat.sample_choices({(0, 1): np.array([1.5, -0.5])}, 5, seed=0)

    def test_bad_sum_rejected(self):
        with pytest.raises(dat.DataFormatError, match="sum"):
            dat.sample_choices({(0, 1): np.array([0.6, 0.5])}, 5, seed=0)


class TestSimplexGenerator:
    def test_membership(self):
        _, table = dat.gen_synthetic_simplex(4, 4, 1, 5, seed=0)
        (probs,) = table.values()
        assert np.all(probs > 0)
        assert math.fsum(probs.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_mean_of_flat_simplex_draws(self):
        # Coordinates of a flat Dirichlet on the 2-simplex average 1/3.
        rng_seed = 5
        _, table = dat.gen_synthetic_simplex(3, 3, 1, 1, seed=rng_seed)
        rng = np.random.default_rng(rng_seed)
        draws = rng.exponential(1.0, size=(100_000, 3))
        draws /= draws.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(draws.mean(axis=0), 1 / 3, atol=0.005)

    def test_exhaustive_enumeration(self):
        ds, table = dat.gen_synthetic_simplex(4, 2, 0, 3, seed=1)
        assert sorted(table) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert len(ds) == 18

    def test_too_many_subsets_rejected(self):
        with pytest.raises(dat.DataFormatError):
            dat.gen_synthetic_simplex(4, 2, 7, 1, seed=0)

    def test_paper_scale_config_expressible(self):
        # 20 items, sets of 15: the exhaustive count is C(20,15); a sampled
        # handful must draw distinct subsets of the right size.
        assert math.comb(20, 15) == 15504
        ds, table = dat.gen_synthetic_simplex(20, 15, 3, 2, seed=3)
        assert len(table) == 3
        assert all(len(ids) == 15 for ids in table)


class TestEmpiricalFrequencies:
    def test_counting(self):
        cs = dat.ChoiceSet((0, 1), 2)
        ds = dat.Dataset(
            [dat.Observation(cs, c) for c in [0, 0, 1, 0]], universe=2
        )
        np.testing.assert_array_equal(
            dat.empirical_frequencies(ds)[(0, 1)], [0.75, 0.25]
        )

    def test_singleton(self):
        ds = dat.Dataset([dat.Observation(dat.ChoiceSet((2,), 1), 2)], universe=3)
        np.testing.assert_array_equal(dat.empirical_frequencies(ds)[(2,)], [1.0])

    def test_frequencies_normalized_per_set(self):
        ds, _ = dat.gen_synthetic_simplex(5, 3, 4, 25, seed=8)
        for probs in dat.empirical_frequencies(ds).values():
            assert math.fsum(probs.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_empty_dataset_rejected(self):
        ds = dat.Dataset([], universe=2)
        with pytest.raises(dat.DataFormatError):
            dat.empirical_frequencies(ds)


class TestProbabilityTableIo:
    def test_round_trip(self, tmp_path):
        table = dat.beverage_fixture()
        path = tmp_path / "t.csv"
        dat.write_probability_table(table, path)
        loaded = dat.load_probability_table(path)
        assert set(loaded) == set(table)
        for k in table:
            np.testing.assert_array_equal(loaded[k], table[k])


class TestSplits:
    def test_split_views(self):
        cs = dat.ChoiceSet((0, 1), 2)
        ds = dat.Dataset([dat.Observation(cs, i % 2) for i in range(4)], universe=2)
        ds = ds.with_splits({"train": [0, 1], "val": [2], "test": [3]})
        assert len(ds.observations_for("train")) == 2
        assert len(ds.observations_for("val")) == 1

    def test_manifest_round_trip(self, tmp_path):
        splits = {"train": [0, 2], "val": [1]}
        path = tmp_path / "s.json"
        dat.save_split_manifest(splits, path)
        assert dat.load_split_manifest(path) == splits

    def test_out_of_range_split_rejected(self):
        cs = dat.ChoiceSet((0, 1), 2)
        ds = dat.Dataset([dat.Observation(cs, 0)], universe=2)
        with pytest.raises(dat.DataFormatError):
            ds.with_splits({"train": [5]})
