"""Inclusion-exclusion extraction, relative effects, tables, export."""

import itertools
import math
import time

import numpy as np
import pytest

from deephalo import data as dat
from deephalo import featureless as fl
from deephalo import halo
from deephalo.autodiff import DegenerateSetError
from deephalo.featured import PREDICT_BLOCK, CatalogSetModel, FeaturedModel
from deephalo.featureless import FeaturelessModel
from deephalo.halo import (
    EnumerationCapError,
    RelativeHaloTable,
    export_heatmap,
    full_context_table,
    full_relative_table,
    identifiability_count,
    marginal_effect,
    read_halo_csv,
    reconstruct_utility,
    relative_halo,
    render_halo_svg,
    write_halo_csv,
)
from deephalo.training import TrainConfig, train
from test_featureless import invert_effects


class PlantedModel:
    """Ground-truth utilities assembled directly from a planted effect
    table: u_j(S) = sum of effects over source subsets of S."""

    def __init__(self, universe, seed):
        rng = np.random.default_rng(seed)
        self.universe = universe
        self.effects = {}
        for j in range(universe):
            others = [i for i in range(universe) if i != j]
            for size in range(len(others) + 1):
                for src in itertools.combinations(others, size):
                    self.effects[(j, src)] = float(rng.normal())

    def set_utilities(self, ids):
        ids = tuple(ids)
        out = []
        for j in ids:
            others = tuple(i for i in ids if i != j)
            total = 0.0
            for size in range(len(others) + 1):
                for src in itertools.combinations(others, size):
                    total += self.effects[(j, src)]
            out.append(total)
        return np.array(out)

    def planted_alpha(self, j, k, src):
        src = tuple(sorted(src))
        return (
            self.effects[(j, src)]
            + self.effects[(j, tuple(sorted(src + (k,))))]
            - self.effects[(k, src)]
            - self.effects[(k, tuple(sorted(src + (j,))))]
        )


class ShiftedModel:
    """Wraps a model, adding a set-size-dependent constant to all utilities."""

    def __init__(self, inner, shift_fn):
        self.inner = inner
        self.universe = inner.universe
        self.shift_fn = shift_fn

    def set_utilities(self, ids):
        return self.inner.set_utilities(ids) + self.shift_fn(len(ids))


class TestMarginalEffect:
    def test_empty_source_is_singleton_utility(self):
        m = PlantedModel(4, seed=0)
        for j in range(4):
            expected = m.set_utilities((j,))[0]
            assert marginal_effect(m, j, ()) == pytest.approx(expected, abs=1e-12)

    def test_single_source_is_difference(self):
        m = PlantedModel(4, seed=1)
        u_pair = m.set_utilities((1, 2))[0]
        u_solo = m.set_utilities((1,))[0]
        assert marginal_effect(m, 1, (2,)) == pytest.approx(u_pair - u_solo, abs=1e-12)

    def test_recovers_planted_effects_exactly(self):
        m = PlantedModel(4, seed=2)
        for (j, src), value in m.effects.items():
            assert marginal_effect(m, j, src) == pytest.approx(value, abs=1e-9)

    def test_item_in_source_rejected(self):
        m = PlantedModel(3, seed=0)
        with pytest.raises(ValueError):
            marginal_effect(m, 1, (1, 2))

    def test_cap_refusal_mentions_cost(self, monkeypatch):
        m = CountingModel(PlantedModel(3, seed=0))
        monkeypatch.setattr(halo, "SUBSET_BUDGET", 7)
        with pytest.raises(EnumerationCapError,
                           match=r"over 3 ids holds 8 subsets, above the budget of 7; "
                                 r"pass force=True \(--force"):
            marginal_effect(m, 0, (1, 2))
        assert m.calls == []
        assert marginal_effect(m, 0, (1, 2), force=True) == pytest.approx(
            m.inner.effects[(0, (1, 2))], abs=1e-9
        )


class TestReconstruction:
    def test_identity_on_trained_model(self):
        table = dat.beverage_fixture()
        ds = dat.sample_choices(table, 300, seed=6)
        m = FeaturelessModel.deephalo(4, width=6, depth=2, seed=3)
        m, _ = train(m, ds, TrainConfig(loss="nll", learning_rate=0.05, max_epochs=120, seed=1))
        scale = max(
            float(np.max(np.abs(m.set_utilities(ids))))
            for size in range(1, 5)
            for ids in itertools.combinations(range(4), size)
        )
        for j in range(4):
            for size in range(1, 5):
                for ids in itertools.combinations(range(4), size):
                    if j not in ids:
                        continue
                    direct = float(m.set_utilities(ids)[ids.index(j)])
                    rebuilt = reconstruct_utility(m, j, ids)
                    assert abs(rebuilt - direct) <= 1e-8 * scale

    def test_singleton_equals_base_effect(self):
        m = PlantedModel(3, seed=4)
        assert reconstruct_utility(m, 2, (2,)) == pytest.approx(
            m.effects[(2, ())], abs=1e-12
        )

    def test_item_must_be_offered(self):
        m = PlantedModel(3, seed=4)
        with pytest.raises(ValueError):
            reconstruct_utility(m, 0, (1, 2))

    def test_repeated_id_rejected(self):
        m = CountingModel(PlantedModel(3, seed=4))
        with pytest.raises(ValueError, match=r"duplicate ids in offered set \(0, 1, 1\)"):
            reconstruct_utility(m, 0, (0, 1, 1))
        with pytest.raises(ValueError, match="duplicate ids"):
            marginal_effect(m, 0, (1, 1))
        assert m.calls == []


class TestRelativeHalo:
    def test_context_free_model_collapses(self):
        m = FeaturelessModel.mnl(4, seed=5)
        u = {j: float(m.set_utilities((j,))[0]) for j in range(4)}
        assert relative_halo(m, 0, 1, ()) == pytest.approx(u[0] - u[1], abs=1e-10)
        for src in [(2,), (3,), (2, 3)]:
            assert abs(relative_halo(m, 0, 1, src)) <= 1e-10

    def test_matches_planted_table(self):
        m = PlantedModel(4, seed=7)
        for j, k in itertools.combinations(range(4), 2):
            others = [i for i in range(4) if i not in (j, k)]
            for size in range(len(others) + 1):
                for src in itertools.combinations(others, size):
                    assert relative_halo(m, j, k, src) == pytest.approx(
                        m.planted_alpha(j, k, src), abs=1e-8
                    )

    def test_exact_antisymmetry(self):
        m = PlantedModel(4, seed=8)
        for j, k in itertools.combinations(range(4), 2):
            a = relative_halo(m, j, k, ())
            b = relative_halo(m, k, j, ())
            assert a + b == 0.0

    def test_shift_invariance_under_set_size_shifts(self):
        base = PlantedModel(4, seed=9)
        shifted = ShiftedModel(base, lambda size: 3.7 * size - 0.5 * size * size)
        for j, k in itertools.combinations(range(4), 2):
            others = [i for i in range(4) if i not in (j, k)]
            for size in range(len(others) + 1):
                for src in itertools.combinations(others, size):
                    a = relative_halo(base, j, k, src)
                    b = relative_halo(shifted, j, k, src)
                    assert abs(a - b) <= 1e-10


class TestIdentifiabilityCount:
    def test_pair_universe(self):
        assert identifiability_count(2) == 1

    def test_four_items(self):
        # 6 pairs + 4 triples * 2 + 1 quad * 3
        assert identifiability_count(4) == 17

    def test_matches_enumeration_up_to_eight(self):
        for n in range(2, 9):
            enumerated = 0
            for size in range(2, n + 1):
                for subset in itertools.combinations(range(n), size):
                    # A size-q subset supports q - 1 spanning pair gaps.
                    enumerated += len(subset) - 1
            assert identifiability_count(n) == enumerated

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            identifiability_count(1)


class TestTables:
    def test_four_item_combinatorics(self):
        m = PlantedModel(4, seed=10)
        table = full_relative_table(m, max_order=2)
        assert len(table.pairs()) == 6
        for j, k in table.pairs():
            sources = [t for jj, kk, t in table.entries if (jj, kk) == (j, k)]
            assert len(sources) == 4  # empty, two singles, one pair

    def test_context_table_complete(self):
        m = PlantedModel(3, seed=11)
        table = full_context_table(m, max_order=2)
        assert len(table.entries) == 3 * 4  # per item: empty, 2 singles, 1 pair

    def test_universe_guard(self, monkeypatch):
        # Order 2 over 4 items: sources of up to 2 ids plus both items of a
        # pair, so every subset of the 4 ids.
        m = CountingModel(PlantedModel(4, seed=0))
        monkeypatch.setattr(halo, "SUBSET_BUDGET", 15)
        with pytest.raises(EnumerationCapError, match="4 ids holds 16 subsets"):
            full_relative_table(m, max_order=2)
        assert m.calls == []
        assert len(full_relative_table(m, max_order=2, force=True).entries) == 6 * 4
        monkeypatch.setattr(halo, "SUBSET_BUDGET", 16)
        assert len(full_relative_table(m, max_order=2).entries) == 6 * 4

    def test_pair_filter(self):
        m = PlantedModel(4, seed=12)
        table = full_relative_table(m, max_order=1, pairs=[(1, 2)])
        assert table.pairs() == [(1, 2)]

    def test_get_flips_sign(self):
        m = PlantedModel(3, seed=13)
        table = full_relative_table(m, max_order=1)
        assert table.get(1, 0, ()) == -table.get(0, 1, ())


class CountingModel:
    """Wraps a model and records every offered set it is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.universe = inner.universe
        self.calls = []

    def set_utilities(self, ids):
        self.calls.append(ids)
        return self.inner.set_utilities(ids)


class PairwiseModel:
    """u_j(S) = base_j + sum of push[i, j] over the other items i of S:
    effects of order 0 and 1 only, cheap at any universe size."""

    def __init__(self, universe, seed):
        rng = np.random.default_rng(seed)
        self.universe = universe
        self.base = rng.normal(size=universe)
        self.push = rng.normal(size=(universe, universe))

    def set_utilities(self, ids):
        return np.array([self.base[j] + sum(self.push[i, j] for i in ids if i != j) for j in ids])


def _trained_model():
    ds = dat.sample_choices(dat.beverage_fixture(), 200, seed=4)
    m = FeaturelessModel.deephalo(4, width=5, depth=2, seed=6)
    m, _ = train(m, ds, TrainConfig(loss="nll", learning_rate=0.05, max_epochs=30, seed=2))
    return m


def _catalog_model():
    return CatalogSetModel(
        FeaturedModel(3, 4, 2, 1, seed=8), np.random.default_rng(9).normal(size=(3, 5))
    )


def _moebius_loop(model, j, ids):
    """effect(j, S) for every S inside ``ids``: the fast Moebius transform as
    a pure-Python loop, one step per id in ascending order."""
    effect = {}
    for size in range(len(ids) + 1):
        for src in itertools.combinations(ids, size):
            offered = tuple(sorted(src + (j,)))
            effect[src] = float(model.set_utilities(offered)[offered.index(j)])
    for b in sorted(ids):
        for src in effect:
            if b in src:
                effect[src] -= effect[tuple(i for i in src if i != b)]
    return effect


class TestOneInversionPath:
    """Lone extractors and tables read the same transform: every entry is
    bit-identical, and all agree with the brute-force oracle."""

    @pytest.mark.parametrize(
        "make", [lambda: PlantedModel(6, seed=20), _trained_model], ids=["planted", "trained"]
    )
    def test_lone_calls_equal_table_entries(self, make):
        m = make()
        n = m.universe
        context = full_context_table(m, max_order=n - 1)
        assert len(context.entries) == n * 2 ** (n - 1)
        for (j, src), value in context.entries.items():
            assert marginal_effect(m, j, src) == value
        relative = full_relative_table(m, max_order=n - 2)
        assert len(relative.entries) == math.comb(n, 2) * 2 ** (n - 2)
        for (j, k, src), value in relative.entries.items():
            assert relative_halo(m, j, k, src) == value
            assert relative_halo(m, k, j, src) == -value

    @pytest.mark.parametrize(
        "make", [lambda: PlantedModel(6, seed=29), _trained_model, _catalog_model],
        ids=["planted", "trained", "catalog"],
    )
    def test_effects_equal_ascending_moebius_loop(self, make):
        # The same subtractions in the same order give the same bits.
        m = make()
        n = m.universe
        table = full_context_table(m, max_order=n - 1)
        for j in range(n):
            loop = _moebius_loop(m, j, tuple(i for i in range(n) if i != j))
            assert {src: table.entries[(j, src)] for src in loop} == loop

    @pytest.mark.parametrize(
        "make", [lambda: PlantedModel(5, seed=21), _catalog_model], ids=["planted", "catalog"]
    )
    def test_tables_match_brute_force_oracle(self, make):
        m = make()
        n = m.universe
        oracle = {j: invert_effects(m, j) for j in range(n)}
        context = full_context_table(m, max_order=n - 1)
        assert context.entries.keys() == {(j, s) for j in range(n) for s in oracle[j]}
        for (j, src), value in context.entries.items():
            assert abs(value - oracle[j][src]) <= 1e-9
        relative = full_relative_table(m, max_order=n - 2)
        for (j, k, src), value in relative.entries.items():
            expected = (oracle[j][src] + oracle[j][tuple(sorted(src + (k,)))]) - (
                oracle[k][src] + oracle[k][tuple(sorted(src + (j,)))]
            )
            assert abs(value - expected) <= 1e-9


def _reference_effects(model, items, ground, max_size, partners=None, force=False):
    """``halo._effects`` with its successor table filled one (subset, member)
    pair at a time and its utilities placed one member at a time: the
    reference for the array build.  It has no subset budget, so it ignores
    ``force``."""
    ids = tuple(sorted(set(ground) | set(items)))
    subsets = [s for size in range(max_size + 2) for s in itertools.combinations(ids, size)]
    cols = {s: c for c, s in enumerate(subsets) if len(s) <= max_size}
    width = len(cols)
    index = {b: i for i, b in enumerate(ids)}
    up = np.full((len(ids), width), -1)
    for c, s in enumerate(subsets):
        for pos, b in enumerate(s):
            up[index[b], cols[s[:pos] + s[pos + 1 :]]] = c
    held = up < 0
    rows = np.array([index[j] for j in items], dtype=int)
    succ = up[rows]
    valid = succ >= 0
    if partners is not None:
        near = np.array([[b in partners[j] for b in ids] for j in items], dtype=bool)
        valid &= (held.sum(axis=0) < max_size) | (near.reshape(len(items), len(ids)) @ held)
    offered = np.flatnonzero(np.bincount(succ[valid], minlength=len(subsets)))
    utilities = np.full((len(ids), len(subsets)), np.nan)
    for o in offered.tolist():
        s = subsets[o]
        vals = model.set_utilities(s)
        for b, value in zip(s, vals):
            utilities[index[b], o] = value
    effects = np.where(valid, utilities[rows[:, None], succ], np.nan)
    for i in range(len(ids)):
        lower = np.flatnonzero(~held[i] & (up[i] < width))
        effects[:, up[i, lower]] -= effects[:, lower]
    plus = np.where(succ < width, succ, -1)
    return cols, effects, plus


def _assert_same_lattice(got, want):
    """Equal column numbering in the same order, ``plus`` equal, ``effects``
    equal bit for bit with NaN in the same cells."""
    (cols, effects, plus), (ref_cols, ref_effects, ref_plus) = got, want
    assert list(cols.items()) == list(ref_cols.items())
    np.testing.assert_array_equal(plus, ref_plus)
    nan = np.isnan(ref_effects)
    np.testing.assert_array_equal(np.isnan(effects), nan)
    np.testing.assert_array_equal(effects[~nan].view(np.int64), ref_effects[~nan].view(np.int64))


class TestLatticeOracle:
    """``_effects`` builds its lattice with array arithmetic; a loop over every
    (subset, member) pair is the reference, and every output is the same."""

    @pytest.mark.parametrize("ids", [(0,), (0, 1), (0, 1, 2, 3), (1, 4), (2, 5, 7, 9)],
                             ids=["n1", "n2", "n4", "scattered2", "scattered4"])
    @pytest.mark.parametrize("shape", ["all", "one", "pairs"])
    def test_effects_equal_reference_loop(self, ids, shape):
        m = PlantedModel(10, seed=30)
        if shape == "all":
            items, ground, partners = ids, ids, None
        elif shape == "one":  # as marginal_effect asks: the item outside its ground
            items, ground, partners = ids[-1:], ids[:-1], None
        else:  # as full_relative_table asks: each item with its pair partners
            items, ground, partners = ids, ids, {j: set() for j in ids}
            for j, k in zip(ids, ids[1:]):
                partners[j].add(k)
                partners[k].add(j)
        for max_size in range(len(ids)):
            _assert_same_lattice(halo._effects(m, items, ground, max_size, partners),
                                 _reference_effects(m, items, ground, max_size, partners))

    def test_lone_calls_and_tables_equal_reference_loop(self, monkeypatch):
        m = PlantedModel(10, seed=31)
        effects, calls = halo._effects, []

        def checked(*args, **kwargs):
            calls.append(args[1:])
            got = effects(*args, **kwargs)
            _assert_same_lattice(got, _reference_effects(*args, **kwargs))
            return got

        monkeypatch.setattr(halo, "_effects", checked)
        marginal_effect(m, 0, (2, 5, 9))
        relative_halo(m, 0, 7, (2, 5, 9))
        reconstruct_utility(m, 5, (2, 5, 9))
        full_relative_table(m, 2, pairs=[(2, 5), (5, 9)])
        full_context_table(PlantedModel(5, seed=32), 3)
        assert calls[:2] == [((0,), (2, 5, 9), 3), ((0, 7), (0, 2, 5, 7, 9), 4)]
        assert len(calls) == 5

    def test_seventy_ids_equal_reference_loop(self, monkeypatch):
        # A bit mask per subset would overflow int64 past 62 ids.
        m = PairwiseModel(70, seed=33)

        def tables():
            return [full_context_table(m, 1).entries,
                    full_relative_table(m, 0, force=True).entries,
                    full_relative_table(m, 1, pairs=[(3, 66)], force=True).entries]

        got = tables()
        monkeypatch.setattr(halo, "_effects", _reference_effects)
        want = tables()
        for table, ref in zip(got, want):
            assert [(key, value.hex()) for key, value in table.items()] == [
                (key, value.hex()) for key, value in ref.items()
            ]
        assert len(got[2]) == 1 + 68
        assert got[2][(3, 66, (40,))] == pytest.approx(m.push[40, 3] - m.push[40, 66], abs=1e-12)


def _relative_keys(n, max_order, pairs):
    """(j, k, T) for each pair in turn, T by size and then in lexicographic order."""
    return [
        (j, k, src)
        for j, k in pairs
        for size in range(min(max_order, n - 2) + 1)
        for src in itertools.combinations([i for i in range(n) if i not in (j, k)], size)
    ]


class TestTableKeys:
    """Tables hold exactly the keys of an itertools enumeration, in its order."""

    @pytest.mark.parametrize("max_order", [0, 1, 4, 6])
    @pytest.mark.parametrize(
        "pairs", [None, [(1, 4)], [(3, 5), (0, 5), (2, 3)]], ids=["all", "one", "three"]
    )
    def test_relative_keys_in_enumeration_order(self, max_order, pairs):
        m = PlantedModel(6, seed=26)
        table = full_relative_table(m, max_order, pairs=pairs)
        listed = list(itertools.combinations(range(6), 2)) if pairs is None else pairs
        assert list(table.entries) == _relative_keys(6, max_order, listed)

    def test_context_keys_at_order_one(self):
        m = PlantedModel(6, seed=27)
        table = full_context_table(m, max_order=1)
        assert list(table.entries) == [
            (j, src) for j in range(6) for src in [()] + [(i,) for i in range(6) if i != j]
        ]

    def test_lone_call_equals_filtered_table_entry(self):
        # At max_order 1 the lattice's top layer holds the pairs T + {k}, and
        # the pair filter keeps only those holding the partner: S + {4} for
        # item 1 and S + {1} for item 4.
        m = PlantedModel(6, seed=28)
        table = full_relative_table(m, max_order=1, pairs=[(1, 4)])
        assert (1, 4, (3,)) in table.entries
        for (j, k, src), value in table.entries.items():
            assert relative_halo(m, j, k, src) == value
            assert relative_halo(m, k, j, src) == -value
            assert value == pytest.approx(m.planted_alpha(j, k, src), abs=1e-9)


class TestForwardCount:
    @pytest.mark.parametrize("max_order", [0, 1, 2, 4, 7])
    def test_each_offered_set_once(self, max_order):
        m = CountingModel(PlantedModel(6, seed=22))
        full_relative_table(m, max_order)
        assert len(m.calls) == sum(math.comb(6, s) for s in range(1, min(max_order + 2, 6) + 1))
        assert len(set(m.calls)) == len(m.calls)

    @pytest.mark.parametrize("max_order", [0, 1, 2, 4])
    def test_pair_filter_forwards_only_needed_sets(self, max_order):
        m = CountingModel(PlantedModel(6, seed=23))
        full_relative_table(m, max_order, pairs=[(1, 4)])
        assert all(1 in ids or 4 in ids for ids in m.calls)
        assert len(set(m.calls)) == len(m.calls)
        # T + {1}, T + {4} and T + {1, 4} for every source T of the other four.
        assert len(m.calls) == 3 * sum(math.comb(4, s) for s in range(min(max_order, 4) + 1))

    def test_forced_large_universe_scales_with_order(self):
        m = CountingModel(PairwiseModel(16, seed=24))
        table = full_relative_table(m, max_order=1, force=True)
        assert len(m.calls) == math.comb(16, 1) + math.comb(16, 2) + math.comb(16, 3)
        assert len(table.entries) == math.comb(16, 2) * 15
        base, push = m.inner.base, m.inner.push
        assert table.get(3, 11, ()) == pytest.approx(
            base[3] + push[11, 3] - base[11] - push[3, 11], abs=1e-12
        )
        assert table.get(3, 11, (7,)) == pytest.approx(push[7, 3] - push[7, 11], abs=1e-12)

    def test_empty_pair_list_runs_no_forward(self):
        m = CountingModel(PlantedModel(4, seed=26))
        table = full_relative_table(m, 2, pairs=[])
        assert (table.universe, table.max_order, table.entries) == (4, 2, {})
        assert m.calls == []

    @pytest.mark.parametrize("size", [0, 1, 3, 5])
    def test_lone_extractors_forward_each_offered_set_once(self, size):
        m = CountingModel(PlantedModel(8, seed=27))
        src = tuple(range(2, 2 + size))

        def forwards(extract, *args):
            m.calls.clear()
            extract(m, *args)
            assert len(set(m.calls)) == len(m.calls)
            return set(m.calls)

        with_0 = {tuple(sorted(s + (0,))) for r in range(size + 1)
                  for s in itertools.combinations(src, r)}
        assert forwards(marginal_effect, 0, src) == with_0
        assert forwards(reconstruct_utility, 0, (0,) + src) == with_0
        # T + {0}, T + {1} and T + {0, 1} for every T inside the source.
        assert len(forwards(relative_halo, 0, 1, src)) == 3 * 2**size

    def test_refusals_run_no_forward(self, monkeypatch):
        m = CountingModel(PlantedModel(4, seed=25))
        monkeypatch.setattr(halo, "SUBSET_BUDGET", 7)
        with pytest.raises(EnumerationCapError, match="4 ids holds 16 subsets"):
            full_relative_table(m, max_order=2)
        with pytest.raises(ValueError, match="max_order"):
            full_relative_table(m, max_order=-1)
        with pytest.raises(ValueError, match="max_order"):
            full_context_table(m, max_order=-1)
        with pytest.raises(ValueError, match="pair"):
            full_relative_table(m, max_order=1, pairs=[(0, 1), (2, 2)])
        with pytest.raises(EnumerationCapError):
            full_relative_table(m, max_order=0, pairs=[(0, 1)])  # 1 + 4 + 6 subsets
        with pytest.raises(EnumerationCapError):
            full_context_table(m, max_order=3)
        with pytest.raises(EnumerationCapError):
            marginal_effect(m, 0, (1, 2, 3))
        with pytest.raises(EnumerationCapError):
            relative_halo(m, 0, 1, (2, 3))
        with pytest.raises(EnumerationCapError):
            reconstruct_utility(m, 0, (0, 1, 2))
        with pytest.raises(ValueError):
            relative_halo(m, 0, 1, (1,))
        assert m.calls == []

    @pytest.mark.parametrize("universe, max_order", [(200, 12), (40, 5)])
    def test_large_tables_refused_before_any_build(self, universe, max_order):
        # C(200, 13) overflows int64, and 40 ids up to size 6 make about
        # 4.6 million subsets: the budget refuses both before the lattice.
        m = CountingModel(PairwiseModel(universe, seed=29))
        start = time.perf_counter()
        for table in (full_context_table, full_relative_table):
            with pytest.raises(EnumerationCapError, match=f"over {universe} ids holds"):
                table(m, max_order)
        assert time.perf_counter() - start < 0.5
        assert m.calls == []


class SetUtilitiesOnly:
    """Exposes only ``universe`` and ``set_utilities``: the per-set path."""

    def __init__(self, inner):
        self.universe = inner.universe
        self.set_utilities = inner.set_utilities


def _featureless(activation, output_mode, rank):
    rng = np.random.default_rng(41)
    m = FeaturelessModel(5, 7, 3, activation, rank=rank, output_mode=output_mode, seed=3)
    if rank is None:
        m.layers = [rng.normal(0, 0.4, size=l.shape) for l in m.layers]
    else:
        m.layers = [tuple(rng.normal(0, 0.6, size=f.shape) for f in l) for l in m.layers]
    if m.readout is not None:
        m.readout = rng.normal(1.0, 0.5, size=m.readout.shape)
    return m


def _catalog(variant, aggregation, **options):
    featured = FeaturedModel(
        3, 4, 2, 2, variant=variant, aggregation=aggregation, seed=12, **options
    )
    return CatalogSetModel(featured, np.random.default_rng(13).normal(size=(3, 6)))


def _assert_batched_equals_per_set(m):
    n = m.universe
    one = SetUtilitiesOnly(m)
    assert full_relative_table(m, n - 2).entries == full_relative_table(one, n - 2).entries
    assert full_relative_table(m, 1, pairs=[(0, 3)]).entries == (
        full_relative_table(one, 1, pairs=[(0, 3)]).entries
    )
    assert full_context_table(m, n - 1).entries == full_context_table(one, n - 1).entries
    rest = tuple(range(2, n))
    assert marginal_effect(m, 0, rest) == marginal_effect(one, 0, rest)
    assert relative_halo(m, 1, 0, rest) == relative_halo(one, 1, 0, rest)
    assert reconstruct_utility(m, 1, range(n)) == reconstruct_utility(one, 1, range(n))


BOTH_MODELS = pytest.mark.parametrize("make", [
    pytest.param(lambda: _featureless("quadratic", "dense", None), id="featureless"),
    pytest.param(lambda: _catalog("heads", "mean"), id="catalog"),
])


class TestBatchedForwards:
    """A model's ``batch_set_utilities`` gives the per-set path's tables bit for bit."""

    @pytest.mark.parametrize("activation", ["linear", "quadratic"])
    @pytest.mark.parametrize("output_mode", ["dense", "identity", "diagonal"])
    @pytest.mark.parametrize("rank", [None, 2])
    def test_featureless_equals_per_set(self, activation, output_mode, rank):
        _assert_batched_equals_per_set(_featureless(activation, output_mode, rank))

    @pytest.mark.parametrize("variant, aggregation, options", [
        pytest.param(variant, aggregation, {}, id=f"{aggregation}-{variant}")
        for aggregation in ("mean", "sum") for variant in ("heads", "resnet")
    ] + [
        # Branches on each side of the column/set stage split.
        pytest.param(variant, "mean", options, id=f"mean-{variant}-{name}")
        for variant in ("heads", "resnet")
        for name, options in [
            ("quadratic", {"sigma": "quadratic"}),
            ("no_layer_norm", {"layer_norm": False}),
            ("quadratic-no_layer_norm", {"sigma": "quadratic", "layer_norm": False}),
        ]
    ])
    def test_catalog_equals_per_set(self, variant, aggregation, options):
        m = _catalog(variant, aggregation, **options)
        # The tables read all 63 nonempty subsets: more than two full tapes.
        assert 2 ** m.universe - 1 > 2 * PREDICT_BLOCK
        _assert_batched_equals_per_set(m)
        # set_utilities is a batch of one, so the reference is the featured
        # model's one-set forward, which does not go through the batched path.
        for size in range(1, m.universe + 1):
            for ids in itertools.combinations(range(m.universe), size):
                want = m.model.forward(m.item_features[:, ids], np.ones(size, dtype=bool))
                assert np.array_equal(m.set_utilities(ids), want.values)

    def test_batch_aligned_with_id_order(self):
        for m in (_featureless("quadratic", "dense", None), _catalog("heads", "mean")):
            sets = [(4, 0, 2), (1,), (3, 1), (0, 1, 2, 3, 4)]
            flat = m.batch_set_utilities(sets)
            assert flat.shape == (3 + 1 + 2 + 5,)
            for ids, values in zip(sets, np.split(flat, [3, 4, 6])):
                np.testing.assert_array_equal(values, m.set_utilities(ids))
                order = sorted(range(len(ids)), key=ids.__getitem__)
                np.testing.assert_array_equal(
                    values[order], m.set_utilities(tuple(sorted(ids)))
                )

    def test_featureless_checks_each_set_once(self, monkeypatch):
        m = _featureless("quadratic", "dense", None)
        checked = []
        check = fl.check_sets
        monkeypatch.setattr(fl, "check_sets", lambda sets, n: checked.extend(sets) or check(sets, n))
        table = full_relative_table(m, max_order=3)
        assert len(checked) == len(set(checked)) == 2 ** m.universe - 1
        monkeypatch.setattr(fl, "check_sets", check)
        assert full_relative_table(m, max_order=3) == table

    @BOTH_MODELS
    def test_bad_ids_rejected(self, make):
        m = make()
        # Bad ids fail with check_ids' messages, and ids of any integer type are accepted.
        for bad, message in [((0, 0), r"duplicate ids in \(0, 0\)"),
                             ((0, 9), f"id 9 outside universe of size {m.universe}"),
                             ((-1, 0), f"id -1 outside universe of size {m.universe}"),
                             ((), "empty choice set"), (("x",), "invalid literal for int")]:
            with pytest.raises(ValueError, match=message):
                m.batch_set_utilities([(0, 1), bad])
        np.testing.assert_array_equal(
            m.batch_set_utilities([np.array([2, 0]), (2.0, 0.0)])[2:4], m.set_utilities((2, 0))
        )

    @BOTH_MODELS
    def test_utilities_own_their_data(self, make):
        m = make()
        assert m.set_utilities((3, 0, 2)).base is None
        assert m.batch_set_utilities([(3, 0, 2), (1,), (4, 1)]).base is None

    @BOTH_MODELS
    def test_first_bad_set_mid_batch_is_named(self, make):
        m = make()
        good = [(0, 1), (2,), (1, 3, 4)]
        with pytest.raises(ValueError, match=r"duplicate ids in \(3, 1, 3\)"):
            m.batch_set_utilities(good + [(3, 1, 3), (0, 9), ()] + good)
        with pytest.raises(ValueError, match=f"id 9 outside universe of size {m.universe}"):
            m.batch_set_utilities(good + [(4, 9), (3, 1, 3), ("x",)] + good)
        with pytest.raises(ValueError, match="invalid literal for int"):
            m.batch_set_utilities(good + [(4, "x"), (0, 9), (3, 3)] + good)
        with pytest.raises(DegenerateSetError, match="empty choice set"):
            m.batch_set_utilities(good + [(), (3, 3)] + good)

    def test_misshapen_utilities_rejected(self):
        class Short:
            """Its batch drops the first set's utilities."""

            universe = 3

            def set_utilities(self, ids):
                return np.zeros(len(ids))

            def batch_set_utilities(self, sets):
                return np.zeros(sum(map(len, sets[1:])))

        class Wide:
            """Returns a universe-wide vector, not one aligned with the set."""

            universe = 3

            def set_utilities(self, ids):
                return np.zeros(3)

        # The 7 offered sets of 3 ids have 3 * 1 + 3 * 2 + 3 = 12 members.
        with pytest.raises(ValueError, match=r"gave shape \(11,\), expected \(12,\)"):
            full_context_table(Short(), 2)
        with pytest.raises(ValueError, match=r"set \(0,\) have shape \(3,\), expected \(1,\)"):
            full_context_table(Wide(), 1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_utilities_rejected(self, bad):
        class NonFinite:
            """Finite utilities except on the offered set (0, 2)."""

            universe = 3

            def set_utilities(self, ids):
                return np.array([bad, 0.0]) if tuple(ids) == (0, 2) else np.zeros(len(ids))

        m = NonFinite()
        message = r"utilities of offered set \(0, 2\) are not finite"
        with pytest.raises(ValueError, match=message):
            full_relative_table(m, 1)
        with pytest.raises(ValueError, match=message):
            marginal_effect(m, 0, (2,))
        with pytest.raises(ValueError, match=message):
            relative_halo(m, 0, 2, ())


    def test_non_finite_batch_names_the_first_bad_set(self):
        class NonFiniteBatch:
            """Its batch is finite except on the offered sets (0, 2) and (1, 2)."""

            universe = 3

            def batch_set_utilities(self, sets):
                bad = {(0, 2): [0.0, np.nan], (1, 2): [np.inf, 0.0]}
                return np.concatenate([bad.get(tuple(s), np.zeros(len(s))) for s in sets])

        with pytest.raises(ValueError, match=r"offered set \(0, 2\) are not finite"):
            full_context_table(NonFiniteBatch(), 2)
        with pytest.raises(ValueError, match=r"offered set \(1, 2\) are not finite"):
            marginal_effect(NonFiniteBatch(), 1, (2,))


class TestTapeCount:
    """Halo forwards run as few tapes as the model allows."""

    def _count(self, monkeypatch, cls):
        calls = []
        inner = cls.utilities_node

        def counted(model, nodes, columns, *rest):
            calls.append(len(columns))
            return inner(model, nodes, columns, *rest)

        monkeypatch.setattr(cls, "utilities_node", counted)
        return calls

    def test_featureless_table_is_one_tape(self, monkeypatch):
        m = _featureless("quadratic", "dense", None)
        calls = self._count(monkeypatch, FeaturelessModel)
        full_relative_table(m, 3)
        assert calls == [2 ** 5 - 1]
        calls.clear()
        full_context_table(m, 1)
        assert calls == [5 + 10]

    def test_catalog_table_is_one_tape_per_block(self, monkeypatch):
        """The column stage runs once per call over the items the call offers;
        the set stage runs once per block of ``PREDICT_BLOCK`` sets."""
        m = _catalog("heads", "sum")
        columns, blocks = [], []
        column_stage, set_stage = FeaturedModel.column_stage, FeaturedModel.set_stage

        def counted_columns(model, nodes, x):
            columns.append(x.shape[1])
            return column_stage(model, nodes, x)

        def counted_sets(model, nodes, base, modulators, seg, *rest):
            blocks.append(seg.mask.shape[1])
            return set_stage(model, nodes, base, modulators, seg, *rest)

        monkeypatch.setattr(FeaturedModel, "column_stage", counted_columns)
        monkeypatch.setattr(FeaturedModel, "set_stage", counted_sets)
        full_relative_table(m, 4)
        sets = 2 ** 6 - 1
        assert columns == [m.universe]
        assert len(blocks) == math.ceil(sets / PREDICT_BLOCK)
        assert sum(blocks) == sets and max(blocks) == PREDICT_BLOCK
        columns.clear()
        blocks.clear()
        marginal_effect(m, 0, (2, 4))
        assert columns == [3] and blocks == [4]
        columns.clear()
        blocks.clear()
        assert m.batch_set_utilities([]).shape == (0,)
        assert full_relative_table(m, 2, pairs=[]).entries == {}
        assert columns == blocks == []

    @pytest.mark.parametrize("make", [
        lambda: _featureless("linear", "diagonal", 2), lambda: _catalog("resnet", "mean"),
    ], ids=["featureless", "catalog"])
    def test_set_utilities_only_runs_one_tape_per_set(self, monkeypatch, make):
        m = make()
        if isinstance(m, CatalogSetModel):
            # A catalog set is a batch of one: one set stage over one set.
            calls, set_stage = [], FeaturedModel.set_stage

            def counted(model, nodes, base, modulators, seg, *rest):
                calls.append(seg.mask.shape[1])
                return set_stage(model, nodes, base, modulators, seg, *rest)

            monkeypatch.setattr(FeaturedModel, "set_stage", counted)
        else:
            calls = self._count(monkeypatch, FeaturelessModel)
        full_relative_table(SetUtilitiesOnly(m), 2)
        n = m.universe
        assert calls == [1] * sum(math.comb(n, s) for s in range(1, 5))


class TestExport:
    def test_csv_round_trip_identical(self, tmp_path):
        m = PlantedModel(4, seed=14)
        table = full_relative_table(m, max_order=2)
        path = tmp_path / "alpha.csv"
        write_halo_csv(table, path)
        loaded = read_halo_csv(path)
        assert loaded.universe == table.universe
        assert loaded.max_order == table.max_order
        assert loaded.entries == table.entries

    def test_csv_stray_quote_reports_line(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text('# universe=3 max_order=0\npair_j,pair_k,source_set,alpha\n"0,1,,0.5\n0,2,,0.25\n')
        with pytest.raises(dat.DataFormatError, match="line 3:"):
            read_halo_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,2,", "line 4: expected 4 fields, got 3"),
            ("0,2,,0.25,9", "line 4: expected 4 fields, got 5"),
            ("0,x,,0.25", "line 4: ids must be integers"),
            ("0,2,1;y,0.25", "line 4: ids must be integers"),
            ("0,2,1,big", "line 4: .* alpha a number"),
        ],
    )
    def test_csv_malformed_row_reports_line(self, tmp_path, row, message):
        path = tmp_path / "alpha.csv"
        path.write_text(f"# universe=3 max_order=1\npair_j,pair_k,source_set,alpha\n0,1,,0.5\n{row}\n")
        with pytest.raises(dat.DataFormatError, match=message):
            read_halo_csv(path)

    @pytest.mark.parametrize("rows, message", [
        ("0,1,,0.5\n0,1,,0.75", "line 4: entry (0, 1, ()) repeats line 3"),
        ("0,1,2,0.5\n0,2,,0.25\n0,1,2,0.5", "line 5: entry (0, 1, (2,)) repeats line 3"),
        ("1,0,2,0.1", "line 3: pair (1, 0) must have pair_j < pair_k"),
        ("1,1,,0.1", "line 3: pair (1, 1) must have pair_j < pair_k"),
        ("0,1,3;2,0.3", "line 3: source set (3, 2) must be sorted distinct ids without 0 or 1"),
        ("0,2,2;1,0.3", "line 3: source set (2, 1) must be sorted distinct ids without 0 or 2"),
        ("0,1,2;2,0.3", "line 3: source set (2, 2) must be sorted distinct ids without 0 or 1"),
        ("0,2,2,0.3", "line 3: source set (2,) must be sorted distinct ids without 0 or 2"),
        ("0,2,0,0.3", "line 3: source set (0,) must be sorted distinct ids without 0 or 2"),
        ("-1,2,,0.3", "line 3: negative id -1"),
        ("0,1,-2,0.3", "line 3: negative id -2"),
        ("0,4,,0.3", "line 3: id 4 outside universe of size 4"),
        ("0,1,5,0.2", "line 3: id 5 outside universe of size 4"),
        ("0,1,2;3,0.2", "line 3: source set (2, 3) has more than max_order=1 ids"),
        ("0,1,,nan", "line 3: alpha must be finite, got 'nan'"),
        ("0,1,2,0.5\n0,2,,-inf", "line 4: alpha must be finite, got '-inf'"),
    ], ids=["repeat", "repeat-later", "pair-reversed", "pair-equal", "source-unsorted",
            "source-unsorted-holds-k", "source-repeats", "source-holds-k", "source-holds-j",
            "negative-pair-id", "negative-source-id", "pair-id-past-universe",
            "source-id-past-universe", "source-past-max-order", "alpha-nan", "alpha-inf"])
    def test_csv_entry_it_never_writes_reports_line(self, tmp_path, rows, message):
        path = tmp_path / "alpha.csv"
        path.write_text(f"# universe=4 max_order=1\npair_j,pair_k,source_set,alpha\n{rows}\n")
        with pytest.raises(dat.DataFormatError) as err:
            read_halo_csv(path)
        assert str(err.value) == message

    def test_csv_without_header_line_infers_universe_from_every_id(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("pair_j,pair_k,source_set,alpha\n0,1,,0.5\n0,1,3,0.25\n")
        assert (read_halo_csv(path).universe, read_halo_csv(path).max_order) == (4, 1)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_csv_copy_with_other_line_endings_reads_equal(self, tmp_path, ending):
        lf, copy = tmp_path / "lf.csv", tmp_path / "copy.csv"
        write_halo_csv(full_relative_table(PlantedModel(4, seed=14), max_order=2), lf)
        copy.write_bytes(lf.read_bytes().replace(b"\n", ending.encode()))
        assert read_halo_csv(copy) == read_halo_csv(lf)
        messages = []
        for path in (lf, copy):
            text = path.read_bytes().decode().replace("0,1,,", "0,1,x,", 1)
            path.write_bytes(text.encode())
            with pytest.raises(dat.DataFormatError) as err:
                read_halo_csv(path)
            messages.append(str(err.value))
        assert messages[0] == messages[1] and messages[0].startswith("line 3: ")

    def test_csv_without_entries_or_universe_names_file(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("pair_j,pair_k,source_set,alpha\n")
        with pytest.raises(dat.DataFormatError, match="no alpha entries") as err:
            read_halo_csv(path)
        assert str(path) in str(err.value)

    def test_csv_with_universe_but_no_entries_reads_empty(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("# universe=3 max_order=2\npair_j,pair_k,source_set,alpha\n")
        table = read_halo_csv(path)
        assert (table.universe, table.max_order, table.entries) == (3, 2, {})

    @pytest.mark.parametrize("header, message", [
        ("# universe=x max_order=1", "line 1: header key 'universe' must be an integer, got 'x'"),
        ("# universe=3 max_order=", "line 1: header key 'max_order' must be an integer, got ''"),
        ("# universe=3 max_order=2 universe=4", "line 1: header key 'universe' repeats line 1"),
        ("# universe=3 max_order=1\n# from universe=10", "line 2: header key 'universe' repeats line 1"),
        ("# max_order=1\n# universe=3 max_order=1", "line 2: header key 'max_order' repeats line 1"),
        ("# universe=0 max_order=1", "line 1: header key 'universe' must be at least 1, got 0"),
        ("# universe=-5 max_order=-1", "line 1: header key 'universe' must be at least 1, got -5"),
        ("# universe=3\n# max_order=-1", "line 2: header key 'max_order' must be at least 0, got -1"),
    ])
    def test_csv_malformed_header_reports_line(self, tmp_path, header, message):
        path = tmp_path / "alpha.csv"
        path.write_text(f"{header}\npair_j,pair_k,source_set,alpha\n0,1,,0.5\n")
        with pytest.raises(dat.DataFormatError, match=message):
            read_halo_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("# universe=3 max_order=0\n0,1,,0.5\n", "line 2: expected header '{h}', got '0,1,,0.5'"),
        ("# universe=3 max_order=0\n\n", "{path}: no header row, expected '{h}'"),
        ("pair_j,pair_k,source,alpha\n0,1,,0.5\n",
         "line 1: expected header '{h}', got 'pair_j,pair_k,source,alpha'"),
    ], ids=["no-header-row", "comments-only", "wrong-header"])
    def test_csv_table_errors_name_line_or_file(self, tmp_path, text, message):
        path = tmp_path / "alpha.csv"
        h = "pair_j,pair_k,source_set,alpha"
        path.write_text(text.format(h=h))
        with pytest.raises(dat.DataFormatError) as err:
            read_halo_csv(path)
        assert str(err.value) == message.format(h=h, path=path)

    def test_csv_of_an_empty_table_keeps_its_header_row(self, tmp_path):
        path = tmp_path / "alpha.csv"
        write_halo_csv(RelativeHaloTable(3, 2), path)
        assert path.read_text() == "# universe=3 max_order=2\npair_j,pair_k,source_set,alpha\n"
        assert read_halo_csv(path) == RelativeHaloTable(3, 2)

    def test_svg_self_contained_and_deterministic(self, tmp_path):
        m = PlantedModel(3, seed=15)
        table = full_relative_table(m, max_order=1)
        svg = render_halo_svg(table)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
        assert render_halo_svg(table) == svg

    def test_round_tripped_table_renders_identically(self, tmp_path):
        m = PlantedModel(4, seed=16)
        table = full_relative_table(m, max_order=2)
        path = tmp_path / "alpha.csv"
        export_heatmap(table, path, format="csv")
        assert render_halo_svg(read_halo_csv(path)) == render_halo_svg(table)

    def test_unknown_format_rejected(self, tmp_path):
        m = PlantedModel(3, seed=0)
        table = full_relative_table(m, max_order=1)
        with pytest.raises(ValueError):
            export_heatmap(table, tmp_path / "x", format="png")


def test_reconstruction_duality_at_size_eight():
    """Reconstruction equals the forward utility on a full 8-item set for
    50 random parameter draws (relative tolerance 1e-8)."""
    ids = tuple(range(8))
    rng = np.random.default_rng(88)
    for draw in range(50):
        m = FeaturelessModel.deephalo(
            8, width=8, depth=2, activation="quadratic", seed=500 + draw
        )
        utilities = m.set_utilities(ids)
        scale = max(1.0, float(np.max(np.abs(utilities))))
        j = int(rng.integers(8))
        rebuilt = reconstruct_utility(m, j, ids)
        assert abs(rebuilt - float(utilities[j])) <= 1e-8 * scale


def test_reconstruction_order_invariant():
    """Summing marginal effects in a different enumeration order cannot
    change the reconstructed utility (exactly rounded totals)."""
    m = PlantedModel(4, seed=17)
    ids = (0, 1, 2, 3)
    effects = []
    for size in range(4):
        for src in itertools.combinations((1, 2, 3), size):
            effects.append(marginal_effect(m, 0, src))
    forward_total = math.fsum(effects)
    reversed_total = math.fsum(reversed(effects))
    assert forward_total == reversed_total
    assert reconstruct_utility(m, 0, ids) == forward_total
