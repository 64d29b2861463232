"""Tape, operation, and gradient checks for the autodiff core."""

import math

import numpy as np
import pytest

from deephalo import autodiff as ad
from deephalo import data as dat
from deephalo.featured import FeaturedModel
from deephalo.training import TrainConfig, TrainingDivergedError, train


def central_difference(f, x, h):
    """Gradient of scalar f at array x by central differences."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2 * h)
    return grad


def max_rel_err(a, b, floor=1e-8):
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


class TestMatmul:
    def test_identity(self):
        a = ad.constant(np.eye(2))
        b = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).value, [[1, 2], [3, 4]])

    def test_row_times_column_value_and_gradient(self):
        a = ad.parameter([[1.0, 2.0]])
        b = ad.constant([[3.0], [4.0]])
        out = ad.matmul(a, b)
        assert out.value[0, 0] == pytest.approx(11.0)
        ad.backward(out)
        # d(out)/d(a) against central differences with h = 1e-6.
        fd = central_difference(
            lambda x: (x @ np.array([[3.0], [4.0]])).item(),
            np.array([[1.0, 2.0]]),
            1e-6,
        )
        np.testing.assert_allclose(a.grad, fd, rtol=1e-6)
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]])

    def test_zero_annihilates(self):
        z = ad.parameter(np.zeros((2, 3)))
        b = ad.parameter(np.arange(6.0).reshape(3, 2))
        out = ad.matmul(z, b)
        np.testing.assert_array_equal(out.value, np.zeros((2, 2)))
        ad.backward(ad.sum_all(out))
        # The zero factor blocks all gradient flow into its cofactor.
        np.testing.assert_array_equal(b.grad, np.zeros((3, 2)))
        np.testing.assert_array_equal(z.grad, (np.ones((2, 2)) @ b.value.T))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ad.DimensionError, match=r"\(2, 2\).*\(3, 1\)"):
            ad.matmul(ad.constant(np.eye(2)), ad.constant(np.zeros((3, 1))))


class TestHadamard:
    def test_ones_mask(self):
        out = ad.hadamard(ad.constant([1.0, 2.0, 3.0]), ad.constant([1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(out.value.ravel(), [1, 2, 3])

    def test_binary_mask(self):
        out = ad.hadamard(ad.constant([1.0, 2.0, 3.0]), ad.constant([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(out.value.ravel(), [0, 2, 0])

    def test_gradient_is_cofactor(self):
        rng = np.random.default_rng(4)
        av = rng.uniform(-1, 1, size=(4, 1))
        bv = rng.uniform(-1, 1, size=(4, 1))
        a = ad.parameter(av)
        ad.backward(ad.sum_all(ad.hadamard(a, ad.constant(bv))))
        np.testing.assert_array_equal(a.grad, bv)
        fd = central_difference(lambda x: float(np.sum(x * bv)), av, 1e-6)
        np.testing.assert_allclose(a.grad, fd, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ad.DimensionError):
            ad.hadamard(ad.constant(np.zeros((2, 1))), ad.constant(np.zeros((3, 1))))


class TestElementwiseSquare:
    def test_values(self):
        out = ad.elementwise_square(ad.constant([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(out.value.ravel(), [4, 0, 9])

    def test_gradient_two_a(self):
        a = ad.parameter([1.0, 2.0])
        ad.backward(ad.sum_all(ad.elementwise_square(a)))
        np.testing.assert_array_equal(a.grad.ravel(), [2.0, 4.0])

    def test_zero_maps_to_zero(self):
        # Dummy slots carry zeros and must stay inert under the activation.
        out = ad.elementwise_square(ad.constant(np.zeros((3, 2))))
        assert np.all(out.value == 0.0)


class TestSimpleOps:
    def test_relu(self):
        np.testing.assert_array_equal(
            ad.relu(ad.constant([-1.0, 2.0])).value.ravel(), [0.0, 2.0]
        )

    def test_mean_over_columns_skips_padding(self):
        a = ad.constant([[1.0, 3.0, 99.0], [2.0, 4.0, -99.0]])
        out = ad.mean_over_columns(a, [True, True, False])
        np.testing.assert_array_equal(out.value, [[2.0], [3.0]])

    def test_mean_over_columns_all_masked(self):
        with pytest.raises(ad.DegenerateSetError):
            ad.mean_over_columns(ad.constant(np.ones((2, 2))), [False, False])

    def test_mean_ignores_masked_values(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(3, 4))
        mask = [True, False, True, False]
        poisoned = base.copy()
        poisoned[:, 1] = 1e12
        poisoned[:, 3] = -7.0
        a = ad.mean_over_columns(ad.constant(base), mask)
        b = ad.mean_over_columns(ad.constant(poisoned), mask)
        np.testing.assert_array_equal(a.value, b.value)

    def test_layer_norm_constant_column_is_zero(self):
        one, zero = ad.constant(np.ones((3, 1))), ad.constant(np.zeros((3, 1)))
        out = ad.layer_norm(ad.constant([[5.0], [5.0], [5.0]]), one, zero)
        np.testing.assert_array_equal(out.value, np.zeros((3, 1)))

    def test_layer_norm_affine_bias_on_constant(self):
        gain = ad.constant(np.ones((2, 1)))
        bias = ad.constant([[1.5], [-2.0]])
        out = ad.layer_norm(ad.constant([[3.0], [3.0]]), gain, bias)
        np.testing.assert_array_equal(out.value, bias.value)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        a = ad.parameter(np.arange(4.0).reshape(2, 2))
        ad.backward(ad.sum_all(a))
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        wv = rng.uniform(-1, 1, size=(3, 3))
        xv = rng.uniform(-1, 1, size=(3, 1))

        def f(w):
            return float(np.sum((w @ xv) ** 2))

        w = ad.parameter(wv)
        out = ad.sum_all(ad.elementwise_square(ad.matmul(w, ad.constant(xv))))
        ad.backward(out)
        fd = central_difference(f, wv, 1e-5)
        assert max_rel_err(w.grad, fd) <= 1e-5

    def test_repeated_backward_accumulates(self):
        a = ad.parameter([[1.0, 2.0]])
        out = ad.sum_all(a)
        ad.backward(out)
        once = a.grad.copy()
        ad.backward(out)
        np.testing.assert_array_equal(a.grad, 2 * once)

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ad.DimensionError):
            ad.backward(ad.parameter(np.zeros((2, 1))))

    def test_shared_subexpression_matches_tree_expansion(self):
        # f = sum(s) + sum(s) with s shared must equal the version where
        # the two branches are built independently.
        av = np.array([[0.3, -0.7], [1.1, 0.2]])
        a1 = ad.parameter(av)
        s1 = ad.elementwise_square(a1)
        shared = ad.add(ad.sum_all(s1), ad.sum_all(s1))
        ad.backward(shared)

        a2 = ad.parameter(av)
        tree = ad.add(
            ad.sum_all(ad.elementwise_square(a2)),
            ad.sum_all(ad.elementwise_square(a2)),
        )
        ad.backward(tree)
        np.testing.assert_allclose(a1.grad, a2.grad, atol=1e-12)


COLUMN_MASK = np.array(
    [[True, False, True], [True, True, False], [False, True, True], [True, False, False]]
)

# Three observations: real slots {0, 2} of 3, {0} of 1 and {1, 2, 3} of 4.
SEGMENTS = ad.Segments([[True, False, True], [True], [False, True, True, True]])

FD_CASES = [
    ("matmul", lambda a, b: ad.matmul(a, b), [(3, 4), (4, 2)]),
    ("hadamard", lambda a, b: ad.hadamard(a, b), [(3, 3), (3, 3)]),
    ("square", lambda a: ad.elementwise_square(a), [(4, 2)]),
    ("add", lambda a, b: ad.add(a, b), [(2, 5), (2, 5)]),
    ("add_bias", lambda a, b: ad.add_bias(a, b), [(3, 4), (3, 1)]),
    ("scale", lambda a: ad.scale(a, -1.7), [(3, 3)]),
    ("transpose", lambda a: ad.transpose(a), [(2, 4)]),
    ("mean", lambda a: ad.mean_over_columns(a, [True, False, True, True]), [(3, 4)]),
    ("layer_norm", lambda a, g, b: ad.layer_norm(a, g, b), [(4, 3), (4, 1), (4, 1)]),
    ("softmax", lambda a: ad.masked_softmax(a, [True, True, False, True]), [(4, 1)]),
    ("log_softmax", lambda a: ad.masked_log_softmax(a, [True, True, True, False]), [(4, 1)]),
    ("softmax_columns", lambda a: ad.masked_softmax(a, COLUMN_MASK), [(4, 3)]),
    ("log_softmax_columns", lambda a: ad.masked_log_softmax(a, COLUMN_MASK), [(4, 3)]),
    ("scale_by", lambda a, s: ad.scale_by(a, s), [(3, 2), (1, 1)]),
    ("segment_sum", lambda a: ad.segment_sum(a, SEGMENTS), [(3, 6)]),
    ("segment_mean", lambda a: ad.segment_mean(a, SEGMENTS), [(3, 6)]),
    ("segment_scale", lambda a, s: ad.segment_scale(a, s, SEGMENTS, 1), [(3, 6), (2, 3)]),
    ("segment_bias", lambda a, b: ad.segment_bias(a, b, SEGMENTS), [(3, 6), (3, 3)]),
    ("scatter_slots", lambda u: ad.scatter_slots(u, SEGMENTS), [(1, 6)]),
    ("weight_matmul", lambda w, x: ad.weight_matmul(w, x), [(3, 4), (4, 5)]),
    ("layer_norm_wide", lambda a, g, b: ad.layer_norm(a, g, b), [(16, 5), (16, 1), (16, 1)]),
]


@pytest.mark.parametrize("name,build,shapes", FD_CASES, ids=[c[0] for c in FD_CASES])
def test_gradients_match_finite_differences(name, build, shapes):
    """Analytic vs central-difference gradients over 100 random draws.

    relu is checked separately: it is not differentiable at 0, so its
    draws are kept away from the kink.
    """
    rng = np.random.default_rng(42)
    trials = 100 // len(shapes) + 1
    worst = 0.0
    for _ in range(trials):
        arrays = [rng.uniform(-1, 1, size=s) for s in shapes]
        weight = rng.uniform(-1, 1, size=build(*map(ad.constant, arrays)).value.shape)

        for target in range(len(shapes)):
            nodes = [
                ad.parameter(arr) if i == target else ad.constant(arr)
                for i, arr in enumerate(arrays)
            ]
            out = ad.sum_all(ad.hadamard(build(*nodes), ad.constant(weight)))
            ad.backward(out)

            def f(x, target=target):
                trial = [x if i == target else arrays[i] for i in range(len(shapes))]
                consts = [ad.constant(arr) for arr in trial]
                return float(
                    ad.sum_all(
                        ad.hadamard(build(*consts), ad.constant(weight))
                    ).value[0, 0]
                )

            fd = central_difference(f, arrays[target], 1e-5)
            scale = max(np.max(np.abs(fd)), 1e-6)
            worst = max(worst, float(np.max(np.abs(nodes[target].grad - fd))) / scale)
    assert worst <= 1e-4


def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-1, 1, size=(4, 3))
        x[np.abs(x) < 1e-3] = 0.25  # keep clear of the nondifferentiable point
        a = ad.parameter(x)
        ad.backward(ad.sum_all(ad.relu(a)))
        fd = central_difference(lambda v: float(np.sum(np.maximum(v, 0.0))), x, 1e-5)
        np.testing.assert_allclose(a.grad, fd, atol=1e-9)


class TestMaskedSoftmax:
    def test_uniform(self):
        out = ad.masked_softmax(ad.constant([0.0, 0.0]), [True, True])
        np.testing.assert_allclose(out.value.ravel(), [0.5, 0.5])

    def test_masked_entries_exactly_zero(self):
        out = ad.masked_softmax(ad.constant([5.0, -3.0, 5.0]), [True, False, True])
        assert out.value[1, 0] == 0.0
        np.testing.assert_allclose(out.value.ravel(), [0.5, 0.0, 0.5])

    def test_all_masked_rejected(self):
        with pytest.raises(ad.DegenerateSetError):
            ad.masked_softmax(ad.constant([1.0, 2.0]), [False, False])

    def test_large_utilities_stable(self):
        out = ad.masked_softmax(ad.constant([1000.0, 999.0]), [True, True])
        assert np.isfinite(out.value).all()
        assert out.value[0, 0] > out.value[1, 0]


class TestColumnSoftmax:
    """Each column of a wide call is the softmax of that column alone."""

    @pytest.mark.parametrize("op", [ad.masked_softmax, ad.masked_log_softmax])
    def test_columns_equal_one_column_calls(self, op):
        rng = np.random.default_rng(19)
        for _ in range(20):
            u = rng.normal(0.0, 10.0, size=(6, 7))
            mask = rng.random((6, 7)) < 0.5
            mask[rng.integers(6, size=7), np.arange(7)] = True
            weight = rng.normal(size=(6, 7))
            wide = ad.parameter(u)
            out = op(wide, mask)
            ad.backward(ad.sum_all(ad.hadamard(out, ad.constant(weight))))
            for g in range(7):
                col = ad.parameter(u[:, g : g + 1].copy())
                one = op(col, mask[:, g])
                ad.backward(ad.sum_all(ad.hadamard(one, ad.constant(weight[:, g : g + 1]))))
                assert_same_values(out.value[:, g : g + 1], one.value)
                assert_same_values(wide.grad[:, g : g + 1], col.grad)

    def test_one_column_is_softmax_over_unmasked_entries(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            u = rng.normal(0.0, 10.0, size=9)
            mask = rng.random(9) < 0.6
            mask[int(rng.integers(9))] = True
            vals = u[mask]
            exps = np.exp(vals - vals.max())
            want = np.zeros(9)
            want[mask] = exps / sequential_sorted_sum(exps)
            want_log = np.zeros(9)
            want_log[mask] = np.log(exps / sequential_sorted_sum(exps))
            np.testing.assert_array_equal(ad.masked_softmax(ad.constant(u), mask).value[:, 0], want)
            np.testing.assert_array_equal(
                ad.masked_log_softmax(ad.constant(u), mask).value[:, 0], want_log
            )

    def test_within_bound_of_exactly_rounded_oracle(self):
        """Each column is within (k + 2) * 2**-53, relative, of a softmax whose
        denominator is exactly rounded (``math.fsum``), k its real rows: the
        sorted sum's error over k positive summands, the oracle's rounding,
        and the two divisions.  Masked rows are exactly zero in both."""

        def fsum_softmax(values, mask):
            mx = np.where(mask, values, -np.inf).max(axis=0)
            exps = np.exp(np.where(mask, values - mx, -np.inf))
            return exps / np.array([math.fsum(col) for col in exps.T.tolist()])

        rng = np.random.default_rng(26)
        for rows in (4, 9, 31, 100):
            u = rng.normal(0.0, 3.0, size=(rows, 40))
            mask = rng.random((rows, 40)) < 0.8
            mask[0] = True
            got = ad.masked_softmax(ad.constant(u), mask).value
            want = fsum_softmax(u, mask)
            assert np.all(got[~mask] == 0.0) and np.all(want[~mask] == 0.0)
            bound = (mask.sum(axis=0) + 2) * 2.0**-53
            assert np.all(np.abs(got - want) <= bound * want)

    def test_all_masked_column_rejected(self):
        mask = np.array([[True, False], [False, False]])
        with pytest.raises(ad.DegenerateSetError):
            ad.masked_log_softmax(ad.constant(np.zeros((2, 2))), mask)

    def test_mask_shape_must_match(self):
        with pytest.raises(ad.DimensionError):
            ad.masked_softmax(ad.constant(np.zeros((3, 2))), [True, True, False])


class TestSegments:
    """Per-observation ops over a column block of real slots."""

    def test_layout(self):
        np.testing.assert_array_equal(SEGMENTS.owner, [0, 0, 1, 2, 2, 2])
        np.testing.assert_array_equal(SEGMENTS.slot, [0, 2, 0, 1, 2, 3])
        np.testing.assert_array_equal(SEGMENTS.counts, [2, 1, 3])
        assert SEGMENTS.mask.shape == (4, 3)
        assert SEGMENTS.mask[:, 1].tolist() == [True, False, False, False]

    def test_reductions_equal_one_observation_sums(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 6)) * 10.0 ** rng.integers(-8, 8, size=(3, 6))
        summed = ad.segment_sum(ad.constant(a), SEGMENTS).value
        mean = ad.segment_mean(ad.constant(a), SEGMENTS).value
        for b, mask in enumerate(([True, False, True], [True], [False, True, True, True])):
            cols = SEGMENTS.owner == b
            padded = np.zeros((3, len(mask)))
            padded[:, mask] = a[:, cols]
            alone = ad.sum_over_columns(ad.constant(padded), mask).value[:, 0]
            assert np.array_equal(summed[:, b], alone)
            assert np.array_equal(mean[:, b], ad.mean_over_columns(ad.constant(padded), mask).value[:, 0])

    def test_scale_gradient_equals_scale_by(self):
        rng = np.random.default_rng(6)
        a, s, g = rng.normal(size=(3, 6)), rng.normal(size=(2, 3)), rng.normal(size=(3, 6))
        an, sn = ad.parameter(a), ad.parameter(s)
        out = ad.segment_scale(an, sn, SEGMENTS, 1)
        ad.backward(ad.sum_all(ad.hadamard(out, ad.constant(g))))
        assert np.all(sn.grad[0] == 0.0)
        for b in range(3):
            cols = SEGMENTS.owner == b
            ab, fb = ad.parameter(a[:, cols]), ad.parameter(s[1:, b : b + 1])
            alone = ad.scale_by(ab, fb)
            assert np.array_equal(out.value[:, cols], alone.value)
            ad.backward(ad.sum_all(ad.hadamard(alone, ad.constant(g[:, cols]))))
            assert np.array_equal(an.grad[:, cols], ab.grad)
            assert sn.grad[1, b] == fb.grad[0, 0]

    def test_scatter_places_real_slots(self):
        u = ad.constant(np.arange(1.0, 7.0).reshape(1, 6))
        np.testing.assert_array_equal(
            ad.scatter_slots(u, SEGMENTS).value,
            [[1.0, 3.0, 0.0], [0.0, 0.0, 4.0], [2.0, 0.0, 5.0], [0.0, 0.0, 6.0]],
        )

    def test_shape_errors(self):
        with pytest.raises(ad.DegenerateSetError, match="no real slot"):
            ad.Segments([[True], [False, False]])
        with pytest.raises(ad.DimensionError):
            ad.Segments([])
        with pytest.raises(ad.DimensionError):
            ad.segment_sum(ad.constant(np.ones((2, 5))), SEGMENTS)
        with pytest.raises(ad.DimensionError):
            ad.segment_scale(ad.constant(np.ones((2, 6))), ad.constant(np.ones((2, 3))), SEGMENTS, 2)
        with pytest.raises(ad.DimensionError):
            ad.segment_bias(ad.constant(np.ones((2, 6))), ad.constant(np.ones((2, 2))), SEGMENTS)
        with pytest.raises(ad.DimensionError):
            ad.scatter_slots(ad.constant(np.ones((2, 6))), SEGMENTS)


def test_layer_norm_column_is_the_same_alone_and_beside_others():
    """A column's value and input gradient do not depend on its neighbours
    (``ndarray.mean`` sums pairwise on one column and sequentially on more)."""
    rng = np.random.default_rng(8)
    gain, bias = rng.normal(size=(16, 1)), rng.normal(size=(16, 1))
    for trial in range(200):
        width = 1 + trial % 8
        a = rng.normal(size=(16, width)) * 10.0 ** rng.integers(-3, 4, size=(1, width))
        g = rng.normal(size=(16, width))
        wide = ad.parameter(a)
        out = ad.layer_norm(wide, ad.constant(gain), ad.constant(bias))
        ad.backward(ad.sum_all(ad.hadamard(out, ad.constant(g))))
        for j in range(width):
            alone = ad.parameter(a[:, j : j + 1])
            one = ad.layer_norm(alone, ad.constant(gain), ad.constant(bias))
            ad.backward(ad.sum_all(ad.hadamard(one, ad.constant(g[:, j : j + 1]))))
            assert np.array_equal(out.value[:, j : j + 1], one.value)
            assert np.array_equal(wide.grad[:, j : j + 1], alone.grad)


class TestLazyGradients:
    def test_constant_forward_allocates_no_gradients(self):
        x = ad.constant(np.ones((3, 2)))
        w = ad.constant(np.full((2, 3), 0.5))
        out = ad.sum_all(ad.relu(ad.matmul(w, x)))
        tape = ad._topo_order(out)
        assert len(tape) == 5 and all(node._grad is None for node in tape)
        np.testing.assert_array_equal(w.grad, np.zeros((2, 3)))
        assert w._grad is None

    def test_unreached_parameter_reads_zeros_and_accumulation_repeats(self):
        a = ad.parameter([[1.0, -2.0]])
        unused = ad.parameter([[3.0]])
        out = ad.sum_all(ad.elementwise_square(a))
        ad.backward(out)
        assert unused._grad is None
        np.testing.assert_array_equal(unused.grad, [[0.0]])
        held = a.grad
        np.testing.assert_array_equal(held, [[2.0, -4.0]])
        ad.backward(out)
        np.testing.assert_array_equal(held, [[4.0, -8.0]])
        assert a.grad is held

    def test_first_accumulation_normalises_negative_zero(self):
        a = ad.parameter([[0.0]])
        ad.backward(ad.scale(a, -0.0))
        assert np.signbit(a.grad[0, 0]) == np.signbit((np.zeros(1) + -0.0)[0])


class TestMatmulBudget:
    """exact_matmul takes wide products a block of output columns at a time."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("budget", [1, 9 * 6 * 2, 9 * 6 * 4])
    def test_blocks_equal_one_product_tensor(self, monkeypatch, budget):
        rng = np.random.default_rng(21)
        a, b = special_operands(rng)  # (6, 9) @ (9, 5)
        cases = [(a, b), (wide_range(rng, (4, 7)), wide_range(rng, (7, 23)))]
        whole = [ad._sorted_sum(x.T[:, :, None] * y[:, None, :]) for x, y in cases]
        calls = []
        counted = ad._sorted_sum
        monkeypatch.setattr(ad, "MATMUL_BUDGET", budget)
        monkeypatch.setattr(ad, "_sorted_sum", lambda x: calls.append(x.shape) or counted(x))
        for (x, y), want in zip(cases, whole):
            calls.clear()
            assert_same_values(ad.exact_matmul(x, y), want)
            k, m = x.shape[1], x.shape[0]
            step = max(1, budget // (k * m))
            assert len(calls) == -(-y.shape[1] // step)
            assert all(c[1] * c[2] * k <= max(budget, k * m) for c in calls)


def test_parameter_rejects_non_finite():
    with pytest.raises(ValueError):
        ad.parameter([np.inf, 1.0])


# -- sorted sum --------------------------------------------------------------
# Every reduction on the tape sorts its summands ascending and adds them left
# to right, so the result depends only on the multiset of summands.


def sequential_sorted_sum(x):
    """Pure-Python reference: sort each lane of axis 0, add left to right."""
    s = np.sort(np.asarray(x, dtype=float), axis=0)
    out = np.empty(s.shape[1:])
    for idx in np.ndindex(*s.shape[1:]):
        total = s[(0,) + idx]
        for i in range(1, s.shape[0]):
            total = total + s[(i,) + idx]
        out[idx] = total
    return out


def assert_same_values(got, want):
    """Equal entries, NaN at the same places, and the same sign on zeros."""
    np.testing.assert_array_equal(got, want)
    numbers = ~np.isnan(want)
    np.testing.assert_array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


def wide_range(rng, shape):
    """Normal draws spread over 16 decades, so reordering would round differently."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)


def special_operands(rng, m=6, k=9, n=5):
    """a @ b operands whose rows give +-0.0, +-inf and NaN products."""
    a = wide_range(rng, (m, k))
    b = wide_range(rng, (k, n))
    a[0] = -0.0  # row 0: signed zero products, all -0.0 in column 1
    b[:, 1] = np.abs(b[:, 1])
    a[1, :3] = 0.0  # row 1: signed zeros among nonzero products
    a[1, 3:5] = -0.0
    a[2, 2] = np.inf  # row 2: +-inf, and 0 * inf = NaN in column 0
    b[2, 0] = 0.0
    a[3, 1] = np.inf  # row 3: inf + -inf = NaN in every column
    a[3, 6] = -np.inf
    b[[1, 6]] = np.abs(b[[1, 6]])
    a[4, 4] = np.nan
    return a, b


# C-ordered shapes whose rows are shorter than ad.ROW_LOOP_LENGTH
# (np.add.accumulate) and at least as long (one add per row).
ACCUMULATE_SHAPES = [(40,), (40, 1), (40, 2), (9, 4, 3), (1,), (1, 3), (3, 40), (2, 5, 20)]
ROW_LOOP_SHAPES = [(2, 256), (3, 300), (2, 16, 20), (10, 10, 163), (1, 10, 30)]
# Layouts of the tape's product tensors: a weight gradient's (columns, m, n)
# products lie with the summed axis adjacent (accumulate), a forward's
# (k, m, sets) products with each row's sets adjacent (one add per row).
STRIDED = {"summed axis adjacent": ((16, 16, 85), (2, 0, 1)),
           "last axis adjacent": ((10, 10, 162), (1, 0, 2))}


class TestSortedSum:
    @pytest.mark.parametrize("shape", ACCUMULATE_SHAPES + ROW_LOOP_SHAPES)
    def test_equals_left_to_right_loop_over_sorted_values(self, shape):
        # np.add.reduce sums pairwise when one output remains, (40,) and
        # (40, 1) here, so the one-output shapes are the ones to watch.
        rng = np.random.default_rng(11)
        for _ in range(100 if np.prod(shape) < 1000 else 10):
            x = wide_range(rng, shape)
            np.testing.assert_array_equal(ad._sorted_sum(x), sequential_sorted_sum(x))

    def test_shapes_take_the_path_named(self):
        run = lambda x: ad._adjacent_run(np.sort(x, axis=0))
        for shape in ACCUMULATE_SHAPES:
            assert run(np.zeros(shape)) < ad.ROW_LOOP_LENGTH
        for shape in ROW_LOOP_SHAPES:
            assert run(np.zeros(shape)) >= ad.ROW_LOOP_LENGTH
        shape, axes = STRIDED["summed axis adjacent"]
        assert run(np.zeros(shape).transpose(axes)) == 1
        shape, axes = STRIDED["last axis adjacent"]
        assert run(np.zeros(shape).transpose(axes)) == 162 >= ad.ROW_LOOP_LENGTH

    @pytest.mark.parametrize("layout", sorted(STRIDED))
    def test_strided_layouts_equal_left_to_right_loop(self, layout):
        shape, axes = STRIDED[layout]
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = wide_range(rng, shape).transpose(axes)
            np.testing.assert_array_equal(ad._sorted_sum(x), sequential_sorted_sum(x))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", [5, 60])
    def test_both_paths_equal_with_special_values(self, monkeypatch, n):
        # Signed zeros, infinities and NaN give the same bits on either path.
        rng = np.random.default_rng(16)
        for _ in range(20):
            a, b = special_operands(rng, n=n)
            products = a.T[:, :, None] * b[:, None, :]
            x = wide_range(rng, (7, 300))
            x[:, :4] = [[0.0, -0.0, np.inf, np.nan]] * 7
            x[3:, 4] = -0.0
            paths = []
            for length in (1, 10**9):  # every row loops; no row loops
                monkeypatch.setattr(ad, "ROW_LOOP_LENGTH", length)
                paths.append([ad._sorted_sum(products), ad._sorted_sum(x), ad.exact_matmul(a, b)])
            for got, want in zip(*paths):
                assert_same_values(got, want)

    @pytest.mark.parametrize("m,k,n", [(1, 40, 1), (5, 17, 1), (6, 12, 4)])
    def test_matmul_equals_loop_over_sorted_products(self, m, k, n):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = wide_range(rng, (m, k))
            b = wide_range(rng, (k, n))
            products = a.T[:, :, None] * b[:, None, :]  # (k, m, n)
            np.testing.assert_array_equal(
                ad.exact_matmul(a, b), sequential_sorted_sum(products)
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_permuting_contraction_axis_is_exact_with_special_values(self):
        rng = np.random.default_rng(13)
        a, b = special_operands(rng)
        ref = ad.exact_matmul(a, b)
        assert ref[0, 1] == 0.0 and not np.signbit(ref[0, 1])  # -0.0 products
        assert np.isnan(ref[2, 0]) and np.isinf(ref[2, 1:]).all()
        assert np.isnan(ref[3]).all() and np.isnan(ref[4]).all()
        for _ in range(200):
            p = rng.permutation(a.shape[1])
            assert_same_values(ad.exact_matmul(a[:, p], b[p, :]), ref)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_permuting_summands_is_exact_for_one_output(self):
        rng = np.random.default_rng(14)
        x = wide_range(rng, (30,))
        x[:4] = [0.0, -0.0, -0.0, 0.0]
        zeros = np.array([-0.0, -0.0, -0.0])
        for values in (x, np.append(x, [np.inf, -np.inf]), np.append(x, np.nan), zeros):
            ref = ad._sorted_sum(values)
            for _ in range(100):
                got = ad._sorted_sum(rng.permutation(values))
                assert_same_values(np.atleast_1d(got), np.atleast_1d(ref))
        assert not np.signbit(ad._sorted_sum(zeros))  # a zero total is +0.0

    def test_inserting_zero_summands_changes_nothing(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            a = wide_range(rng, (5, 11))
            b = wide_range(rng, (11, 4))
            ref = ad.exact_matmul(a, b)
            at = sorted(rng.choice(12, size=3, replace=False))
            zero = rng.choice([0.0, -0.0])
            a_pad = np.insert(a, at, zero, axis=1)
            b_pad = np.insert(b, at, wide_range(rng, (3, 4)), axis=0)
            np.testing.assert_array_equal(ad.exact_matmul(a_pad, b_pad), ref)
            x = a[0]
            np.testing.assert_array_equal(
                ad._sorted_sum(np.insert(x, at, zero)), ad._sorted_sum(x)
            )

    def test_zero_padded_rows_and_columns_leave_entries_unchanged(self):
        rng = np.random.default_rng(16)
        a = wide_range(rng, (5, 11))
        b = wide_range(rng, (11, 4))
        ref = ad.exact_matmul(a, b)
        a_pad = np.vstack([a[:2], np.zeros((2, 11)), a[2:]])
        b_pad = np.hstack([b, np.zeros((11, 3))])
        out = ad.exact_matmul(a_pad, b_pad)
        np.testing.assert_array_equal(np.delete(out, [2, 3], axis=0)[:, :4], ref)
        np.testing.assert_array_equal(out[2:4], 0.0)
        np.testing.assert_array_equal(out[:, 4:], 0.0)
        # Masked slots of a column sum are never read, whatever they hold.
        node = ad.constant(a)
        padded = ad.constant(np.hstack([a, np.zeros((5, 2))]))
        mask = [True] * 11
        np.testing.assert_array_equal(
            ad.sum_over_columns(padded, mask + [False, False]).value,
            ad.sum_over_columns(node, mask).value,
        )

    @pytest.mark.parametrize("m,k,n", [(1, 2, 1), (8, 16, 8), (16, 29, 28), (3, 64, 5)])
    def test_within_rounding_bound_of_exactly_rounded_sum(self, m, k, n):
        # A left-to-right sum of k rounded products is within k * eps of the
        # exact sum of |a| @ |b|; the fsum reference rounds once more.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = wide_range(rng, (m, k))
            b = wide_range(rng, (k, n))
            ref = np.array(
                [[math.fsum(a[i] * b[:, j]) for j in range(n)] for i in range(m)]
            )
            bound = 2 * k * eps * (np.abs(a) @ np.abs(b))
            assert np.all(np.abs(ad.exact_matmul(a, b) - ref) <= bound)


# -- index-order products -----------------------------------------------------
# weight_matmul adds the value's and x's-adjoint products in index order, so a
# column depends only on its own operands; w's adjoint sums over columns and
# stays sorted.


def sequential_index_order_product(a, b):
    """Pure-Python reference: a[i,0]*b[0,j] + a[i,1]*b[1,j] + ..., left to right."""
    m, k = a.shape
    out = np.empty((m, b.shape[1]))
    for i, j in np.ndindex(out.shape):
        total = a[i, 0] * b[0, j]
        for l in range(1, k):
            total = total + a[i, l] * b[l, j]
        out[i, j] = total
    return out


def weight_matmul_parts(w, x, g):
    """Value and (w, x) adjoints of ``weight_matmul`` for the output adjoint ``g``."""
    # Nodes made directly: ``parameter`` rejects the non-finite operands.
    node = ad.weight_matmul(ad.Node(w, requires_grad=True), ad.Node(x, requires_grad=True))
    gw, gx = node.vjp(g)
    return node.value, gw, gx


class TestWeightMatmul:
    @pytest.mark.parametrize("m,k,n", [(1, 1, 1), (4, 1, 3), (1, 40, 1), (5, 17, 2), (16, 16, 9)])
    def test_value_and_state_adjoint_equal_index_order_loop(self, m, k, n):
        rng = np.random.default_rng(31)
        for _ in range(20):
            w, x, g = wide_range(rng, (m, k)), wide_range(rng, (k, n)), wide_range(rng, (m, n))
            value, _, gx = weight_matmul_parts(w, x, g)
            assert_same_values(value, sequential_index_order_product(w, x))
            assert_same_values(gx, sequential_index_order_product(w.T, g))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_special_values_equal_index_order_loop(self):
        rng = np.random.default_rng(35)
        w, x = special_operands(rng)
        g = wide_range(rng, (6, 5))
        g[:, 2] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0]
        value, _, gx = weight_matmul_parts(w, x, g)
        assert_same_values(value, sequential_index_order_product(w, x))
        assert_same_values(gx, sequential_index_order_product(w.T, g))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_column_alone_equals_column_at_every_width(self):
        rng = np.random.default_rng(32)
        w, x = special_operands(rng, m=6, k=9, n=40)
        x[3, 5], x[0, 7], x[4, 9] = np.inf, -np.inf, np.nan
        x[:, 11] = -0.0
        g = wide_range(rng, (6, 40))
        g[0, :4] = [0.0, -0.0, np.inf, np.nan]
        alone = [weight_matmul_parts(w, x[:, [j]], g[:, [j]]) for j in range(40)]
        for width in range(1, 41):
            cols = rng.permutation(40)[:width]
            value, _, gx = weight_matmul_parts(w, x[:, cols], g[:, cols])
            for c, j in enumerate(cols):
                assert_same_values(value[:, c], alone[j][0][:, 0])
                assert_same_values(gx[:, c], alone[j][2][:, 0])

    def test_weight_adjoint_is_sorted_and_invariant_to_column_order(self):
        rng = np.random.default_rng(33)
        for n in (1, 7, 40):
            w, x, g = wide_range(rng, (5, 8)), wide_range(rng, (8, n)), wide_range(rng, (5, n))
            _, gw, _ = weight_matmul_parts(w, x, g)
            assert_same_values(gw, ad.exact_matmul(g, x.T))
            for _ in range(20):
                p = rng.permutation(n)
                assert_same_values(weight_matmul_parts(w, x[:, p], g[:, p])[1], gw)

    def test_constant_operands_get_no_adjoint(self):
        w, x = ad.constant(np.ones((2, 3))), ad.parameter(np.ones((3, 4)))
        assert ad.weight_matmul(w, x).vjp(np.ones((2, 4)))[0] is None
        assert ad.weight_matmul(x, ad.constant(np.ones((4, 1)))).vjp(np.ones((3, 1)))[1] is None
        with pytest.raises(ad.DimensionError, match=r"\(2, 3\) x \(4, 1\)"):
            ad.weight_matmul(w, ad.constant(np.ones((4, 1))))

    @pytest.mark.parametrize("m,k,n", [(1, 1, 1), (1, 2, 1), (8, 16, 8), (16, 29, 28), (3, 64, 5)])
    def test_within_rounding_bound_of_exactly_rounded_sum(self, m, k, n):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(34)
        for _ in range(20):
            w, x = wide_range(rng, (m, k)), wide_range(rng, (k, n))
            ref = np.array(
                [[math.fsum(w[i] * x[:, j]) for j in range(n)] for i in range(m)]
            )
            bound = 2 * k * eps * (np.abs(w) @ np.abs(x))
            value = ad.weight_matmul(ad.constant(w), ad.constant(x)).value
            assert np.all(np.abs(value - ref) <= bound)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_featured_divergence_raises_training_diverged():
    # Overflowing activations reach the sorted sums as +-inf and NaN; they
    # must surface at the training loop's checks, not as an error mid-tape.
    rng = np.random.default_rng(18)
    cs = dat.ChoiceSet((0, 1, 2), 3)
    observations = [
        dat.Observation(cs, int(rng.integers(3)), rng.uniform(-1, 1, size=(2, 3)))
        for _ in range(6)
    ]
    ds = dat.Dataset(observations, universe=3, feature_dim=2)
    model = FeaturedModel(2, 4, 2, 2, sigma="quadratic", seed=0)
    for _, arr in model.trainables():
        arr[...] = 1e200
    cfg = TrainConfig(loss="nll", learning_rate=0.1, max_epochs=3, seed=0)
    with pytest.raises(TrainingDivergedError):
        train(model, ds, cfg)
