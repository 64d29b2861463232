"""Tests of the benchmark's oracle on cases solvable by hand."""

import math
from itertools import combinations

import numpy as np
import pytest

import oracle


def _payload(J, width, L, activation, matrices, output_mode="dense", rank=None):
    return {
        "J": J,
        "J_prime": width,
        "L": L,
        "activation": activation,
        "rank_H": rank,
        "output_mode": output_mode,
        "first_layer_residual": True,
        "matrices": matrices,
    }


class TestFeaturelessForward:
    def test_linear_one_layer_identity_readout(self):
        # u = member + W0 @ member, so u_0({0,1}) = 1 + 2 and u_1({0,1}) = 1 + 3.
        payload = _payload(2, 2, 1, "linear", {"layer0": [[0.0, 2.0], [3.0, 0.0]]}, "identity")
        u = oracle.featureless_utilities(payload, [[1, 1], [1, 0]])
        assert u[0].tolist() == [3.0, 4.0]
        assert u[1, 0] == 1.0

    def test_quadratic_two_layers(self):
        # y1 = m + W0 m = [1.5, 1]; y2 = y1 + W1 y1^2 = [1.5 + 1, 1 + 0.5 * 2.25].
        payload = _payload(
            2, 2, 2, "quadratic",
            {"layer0": [[0.5, 0.0], [0.0, 0.0]], "layer1": [[0.0, 1.0], [0.5, 0.0]],
             "readout": [[1.0, 0.0], [0.0, 2.0]]},
        )
        u = oracle.featureless_utilities(payload, [[1, 1]])
        assert u[0].tolist() == [2.5, 2.0 * 2.125]

    def test_linear_depth_two_masks_only_item_coordinates(self):
        # Extra coordinate 2 is never gated: y1 = [1, 0, 1]; y2 = y1 + W1 (y1 * [1, 0, 1]).
        w0 = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        w1 = [[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        payload = _payload(2, 3, 2, "linear", {"layer0": w0, "layer1": w1}, "identity")
        u = oracle.featureless_utilities(payload, [[1, 0]])
        assert u[0, 0] == 3.0

    def test_low_rank_and_diagonal_readout(self):
        # W0 = left.T @ right = [[0, 1], [0, 0]]; u = readout * (m + W0 m).
        payload = _payload(
            2, 2, 1, "linear",
            {"layer0.left": [[1.0, 0.0]], "layer0.right": [[0.0, 1.0]], "readout": [[2.0], [3.0]]},
            "diagonal", rank=1,
        )
        u = oracle.featureless_utilities(payload, [[1, 1]])
        assert u[0].tolist() == [4.0, 3.0]

    def test_set_probabilities_softmax_over_offered(self):
        payload = _payload(3, 3, 1, "linear", {"layer0": np.zeros((3, 3)).tolist()}, "identity")
        probs = oracle.set_probabilities(payload, [(2, 0)])
        assert list(probs) == [(0, 2)]
        np.testing.assert_allclose(probs[(0, 2)], [0.5, 0.5])


def _additive_lattice():
    # u_0(S) = 1 + 2[1 in S] + 3[2 in S] + 5[1 in S][2 in S]; u_1 = u_2 = 0.
    sets = oracle.subsets(3)
    rows = []
    for ids in sets:
        s = set(ids)
        u0 = 1 + 2 * (1 in s) + 3 * (2 in s) + 5 * (1 in s and 2 in s)
        rows.append([u0 if i == 0 else 0.0 for i in ids])
    return oracle.utility_lattice(3, sets, rows)


class TestMoebius:
    def test_marginal_effects_by_hand(self):
        effects = oracle.marginal_effects(_additive_lattice())
        b = oracle.bitmask
        assert effects[0, b(())] == 1.0
        assert effects[0, b((1,))] == 2.0
        assert effects[0, b((2,))] == 3.0
        assert effects[0, b((1, 2))] == 5.0

    def test_relative_effects_by_hand(self):
        alpha = oracle.relative_effects(_additive_lattice(), 1)
        # alpha(0,1,{}) = [e0({}) + e0({1})] - [e1({}) + e1({0})] = 1 + 2.
        assert alpha[(0, 1, ())] == 3.0
        # alpha(0,1,{2}) = [e0({2}) + e0({1,2})] - 0 = 3 + 5.
        assert alpha[(0, 1, (2,))] == 8.0
        assert alpha[(1, 2, (0,))] == 0.0
        assert len(alpha) == 3 * 2

    def test_matches_brute_force_alternating_sum(self):
        rng = np.random.default_rng(0)
        sets = oracle.subsets(4)
        values = {ids: rng.normal(size=len(ids)) for ids in sets}
        lattice = oracle.utility_lattice(4, sets, [values[s] for s in sets])
        effects = oracle.marginal_effects(lattice)
        for j in range(4):
            others = [i for i in range(4) if i != j]
            for size in range(4):
                for src in combinations(others, size):
                    total = 0.0
                    for r in range(size + 1):
                        for picked in combinations(src, r):
                            ids = tuple(sorted(picked + (j,)))
                            total += (-1) ** (size - r) * values[ids][ids.index(j)]
                    assert effects[j, oracle.bitmask(src)] == pytest.approx(total, abs=1e-12)

    def test_unevaluated_sets_do_not_reach_smaller_ones(self):
        sets = oracle.subsets(3, max_size=2)
        lattice = oracle.utility_lattice(3, sets, [np.ones(len(s)) for s in sets])
        alpha = oracle.relative_effects(lattice, 0)
        assert all(v == 0.0 for v in alpha.values())
        assert np.isnan(oracle.relative_effects(lattice, 1)[(0, 1, (2,))])


class TestCounts:
    def test_nll_by_hand(self):
        counts = oracle.choice_counts([((1, 0), 0), ((0, 1), 0), ((0, 1), 0), ((0, 1), 1)])
        assert counts == {(0, 1): {0: 3, 1: 1}}
        nll = oracle.nll_from_counts(counts, {(0, 1): np.array([0.75, 0.25])})
        assert nll == pytest.approx(-(3 * math.log(0.75) + math.log(0.25)) / 4)

    def test_pooled_rmse_by_hand(self):
        fitted = {(0, 1): [0.5, 0.5], (0, 1, 2): [0.2, 0.3, 0.5]}
        truth = {(0, 1): [0.6, 0.4], (0, 1, 2): [0.2, 0.3, 0.5]}
        assert oracle.pooled_rmse(fitted, truth) == pytest.approx(math.sqrt(0.02 / 5))


class TestReaders:
    def test_choices_probabilities_and_halo(self, tmp_path):
        (tmp_path / "d.csv").write_text("# comment\nset,choice\n2;0,2\n0;1,1\n")
        assert oracle.read_choices(tmp_path / "d.csv") == [((2, 0), 2), ((0, 1), 1)]
        (tmp_path / "t.csv").write_text("set,probs\n2;0,0.25;0.75\n")
        table = oracle.read_probability_table(tmp_path / "t.csv")
        assert table[(0, 2)].tolist() == [0.75, 0.25]
        (tmp_path / "a.csv").write_text(
            "# universe=3 max_order=1\npair_j,pair_k,source_set,alpha\n0,1,,0.5\n0,1,2,-1.25\n"
        )
        assert oracle.read_halo_csv(tmp_path / "a.csv") == {(0, 1, ()): 0.5, (0, 1, (2,)): -1.25}
