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
        out = ad.layer_norm(ad.constant([[5.0], [5.0], [5.0]]))
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
    ("join_columns", lambda a, b: ad.join_columns([a, b], 4), [(2, 1), (3, 1)]),
    ("scale_by", lambda a, s: ad.scale_by(a, s), [(3, 2), (1, 1)]),
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

    def test_all_masked_column_rejected(self):
        mask = np.array([[True, False], [False, False]])
        with pytest.raises(ad.DegenerateSetError):
            ad.masked_log_softmax(ad.constant(np.zeros((2, 2))), mask)

    def test_mask_shape_must_match(self):
        with pytest.raises(ad.DimensionError):
            ad.masked_softmax(ad.constant(np.zeros((3, 2))), [True, True, False])


def test_join_columns_pads_with_zero_rows():
    a = ad.parameter(np.array([[1.0], [2.0]]))
    b = ad.parameter(np.array([[3.0], [4.0], [5.0]]))
    joined = ad.join_columns([a, b], 4)
    np.testing.assert_array_equal(joined.value, [[1.0, 3.0], [2.0, 4.0], [0.0, 5.0], [0.0, 0.0]])
    weight = np.arange(8.0).reshape(4, 2)
    ad.backward(ad.sum_all(ad.hadamard(joined, ad.constant(weight))))
    np.testing.assert_array_equal(a.grad, weight[:2, :1])
    np.testing.assert_array_equal(b.grad, weight[:3, 1:])
    with pytest.raises(ad.DimensionError):
        ad.join_columns([b], 2)


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


class TestSortedSum:
    @pytest.mark.parametrize("shape", [(40,), (40, 1), (40, 2), (9, 4, 3), (1,), (1, 3)])
    def test_equals_left_to_right_loop_over_sorted_values(self, shape):
        # np.add.reduce sums pairwise when one output remains, (40,) and
        # (40, 1) here, so the one-output shapes are the ones to watch.
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = wide_range(rng, shape)
            np.testing.assert_array_equal(ad._sorted_sum(x), sequential_sorted_sum(x))

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
