"""Reverse-mode automatic differentiation over dense float64 matrices.

Values are 2-D numpy arrays; 1-D inputs are treated as column vectors.
Every operation returns a :class:`Node` that records its inputs together
with a local vector-Jacobian rule, so a fresh tape is built per forward
pass and discarded after :func:`backward`.

Every sum whose summands a tested symmetry can reorder goes through one
sorted sum: the summands are sorted ascending and then added strictly
left to right (reproducible summation in the sense of Demmel & Nguyen,
ARITH 2013).  Those sums are the contractions of :func:`matmul` (the
featureless model's width axis, whose first rows are items that
relabeling permutes), every weight gradient (a sum over columns, which
batch order and slot permutations reorder), the segment sums and means,
full sums, and the softmax reductions with their gradients; the
layer-norm statistics are sorted sums too.  A sorted sum depends only on
the multiset of its summands, so it is invariant to reordering them and
to inserting zeros, including with signed zeros, infinities and NaN.
That is what turns the model-level permutation and relabeling guarantees
into literal equalities instead of "equal up to reassociation".  It is
not exactly rounded: it carries the rounding error of an ordinary
left-to-right sum, at most about k * eps * sum(|x|) over k summands.
The sorted summands are added by ``np.add.accumulate``, or, where each
row of the summed axis ends in ``ROW_LOOP_LENGTH`` or more entries that
are adjacent in memory, one row at a time: the same additions in the same
order, so the same bits.  The input's shape and layout pick the faster of
the two.

:func:`weight_matmul` is the featured model's weight-times-state product.
Its value and its state adjoint contract over hidden units, which no
symmetry permutes, so they add their k products in index order, one
vectorised multiply-add per k, with the same error bound and no sort.
An entry reads only its own column of the state, so a column equals its
forward alone at any batch width.  Only its weight adjoint, a sum over
columns, is sorted.

Masked softmax and log-softmax work column by column: each column of the
utility matrix is one offered set, normalised over the rows its mask
column marks.  A column's max, exponentials, sorted-sum denominator and
vector-Jacobian product read only that column, and masked rows add exact
zeros to the sorted sums, so a column of a wide call equals the same
column called alone, and a one-column call equals a softmax over the
unmasked entries of a vector.  ``layer_norm`` takes its mean and variance
(and both means of its backward pass) as sorted sums down each column,
so a column's statistics never depend on how many columns stand beside
it.

The segment ops run a batch of observations as one column block: the
columns of a (rows x C) matrix are the real slots of B observations, and
a :class:`Segments` layout records which observation owns each column and
at which slot.  ``segment_sum``/``segment_mean`` reduce each
observation's columns to one column of a (rows x B) result; the columns
are scattered into a zero-padded (slots, rows, B) array and sort-summed
over the slot axis, so the padding adds exact zeros and an observation's
result equals its reduction alone.  ``segment_scale`` and
``segment_bias`` broadcast a per-observation factor or column back to
the observation's columns, and ``scatter_slots`` lays a (1 x C) row out
as the (slots x B) matrix of a padded batch.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

LAYER_NORM_EPS = 1e-5

# Adjacent summands per row from which _sorted_sum adds its sorted rows one
# row at a time: one vectorised add per row beats np.add.accumulate once each
# row's trailing run of adjacent entries is this long.  Where the summed
# axis is the adjacent one, as in the weight gradients, accumulate wins.
ROW_LOOP_LENGTH = 128

# Largest (k, m, n) product tensor, in elements, that exact_matmul builds
# at once; wider products are taken a block of output columns at a time.
MATMUL_BUDGET = 1 << 21


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DegenerateSetError(ValueError):
    """A reduction was asked to aggregate over zero unmasked entries."""


def _as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise DimensionError(f"expected at most 2 dimensions, got shape {arr.shape}")
    return arr


def _sorted_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0: sort the summands ascending, add left to right.

    ``np.add.reduce`` is not used because it sums pairwise when a single
    output remains; ``accumulate`` is sequential for every shape.  Rows
    that end in ``ROW_LOOP_LENGTH`` or more adjacent entries are added into
    the first row one row at a time instead: the same additions in the same
    order, so the same bits, with less overhead per summand.  A zero total
    is returned as +0.0: the vectorised sort may hand back either zero of
    an equal -0.0/+0.0 pair, so the sign of a zero total would otherwise
    depend on the order of the summands.
    """
    s = np.sort(x, axis=0)
    if s.size < ROW_LOOP_LENGTH * len(s) or _adjacent_run(s) < ROW_LOOP_LENGTH:
        np.add.accumulate(s, axis=0, out=s)
        return s[-1] + 0.0
    total = s[0]
    for row in s[1:]:
        total += row
    return total + 0.0


def _adjacent_run(s: np.ndarray) -> int:
    """Entries at the end of each row of ``s`` (a slice along axis 0) that
    lie next to each other in memory; 1 for a vector."""
    run = 1
    for size, stride in zip(s.shape[:0:-1], s.strides[:0:-1]):
        if stride != run * s.itemsize:
            break
        run *= size
    return run


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sorted sum of each row of ``a``, as a column vector."""
    return _sorted_sum(a.T).reshape(-1, 1)


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product whose contractions are sorted sums.

    Each entry is the left-to-right sum of its k rounded products taken in
    ascending order, so it is unchanged by any permutation of the
    contraction axis, but it is not exactly rounded.
    """
    m, k = a.shape
    kb, n = b.shape
    if k != kb:
        raise DimensionError(f"matmul shapes do not chain: {a.shape} x {b.shape}")
    if k == 1:
        # Outer product: one rounding per entry, nothing to reassociate.
        return a * b
    step = max(1, MATMUL_BUDGET // (k * m))
    if step >= n:
        return _sorted_sum(a.T[:, :, None] * b[:, None, :])
    out = np.empty((m, n))
    for lo in range(0, n, step):
        block = b[:, lo : lo + step]
        out[:, lo : lo + step] = _sorted_sum(a.T[:, :, None] * block[:, None, :])
    return out


def index_order_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product whose contractions add the k products in index order.

    Each entry is ``((a[i,0]*b[0,j] + a[i,1]*b[1,j]) + ...)``, one rounded
    product and one rounded sum per step, taken as one vectorised
    multiply-add over the (m x n) output per k.  An entry reads only row i
    of ``a`` and column j of ``b``, so a column of the product is the same
    bits at any number of columns beside it; it is not invariant to
    permuting the contraction axis.
    """
    m, k = a.shape
    kb, n = b.shape
    if k != kb:
        raise DimensionError(f"matmul shapes do not chain: {a.shape} x {b.shape}")
    cols = a.T[:, :, None]  # (k, m, 1): column i of a, broadcast along b's row i
    out = cols[0] * b[0]
    term = np.empty_like(out)
    for i in range(1, k):
        np.multiply(cols[i], b[i], out=term)
        out += term
    return out


class Node:
    """One value on the tape.

    ``grad`` has the same shape as ``value`` and reads as zeros until
    :func:`backward` first reaches the node, which allocates it; repeated
    :func:`backward` calls accumulate into it.  A node that never requires
    a gradient (constants, forward-only tapes) allocates none.  ``vjp``
    maps the adjoint of this node to adjoint contributions for each parent
    (or ``None`` for parents that do not require gradients).
    """

    __slots__ = ("value", "_grad", "requires_grad", "parents", "vjp")

    def __init__(
        self,
        value: np.ndarray,
        requires_grad: bool = False,
        parents: tuple["Node", ...] = (),
        vjp: Callable[[np.ndarray], tuple] | None = None,
    ):
        self.value = value
        self._grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.parents = parents
        self.vjp = vjp

    @property
    def grad(self) -> np.ndarray:
        return np.zeros_like(self.value) if self._grad is None else self._grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape


def constant(value) -> Node:
    arr = _as_matrix(value)
    if not np.isfinite(arr).all():
        raise ValueError("constant entries must be finite")
    return Node(arr)


def parameter(value) -> Node:
    """Wrap live parameter storage; the array is not copied."""
    arr = _as_matrix(value)
    if not np.isfinite(arr).all():
        raise ValueError("parameter entries must be finite")
    return Node(arr, requires_grad=True)


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents precede consumers


def backward(root: Node) -> None:
    """Accumulate d(root)/d(node) into ``grad`` for every ancestor.

    The root must be scalar (1x1).  Adjoints are propagated through a
    per-call buffer, so calling backward twice without zeroing gradients
    adds the same derivative twice.
    """
    if root.value.shape != (1, 1):
        raise DimensionError(f"backward root must be 1x1, got {root.value.shape}")
    order = _topo_order(root)
    adjoint: dict[int, np.ndarray] = {id(root): np.ones((1, 1))}
    for node in reversed(order):
        g = adjoint.pop(id(node), None)
        if g is None or not node.requires_grad:
            continue
        if node._grad is None:
            node._grad = np.zeros_like(node.value)
        node._grad += g
        if node.vjp is None:
            continue
        for parent, contrib in zip(node.parents, node.vjp(g)):
            if contrib is None or not parent.requires_grad:
                continue
            held = adjoint.get(id(parent))
            adjoint[id(parent)] = contrib if held is None else held + contrib


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    value = exact_matmul(a.value, b.value)

    def vjp(g):
        ga = exact_matmul(g, b.value.T) if a.requires_grad else None
        gb = exact_matmul(a.value.T, g) if b.requires_grad else None
        return ga, gb

    return Node(value, parents=(a, b), vjp=vjp)


def weight_matmul(w: Node, x: Node) -> Node:
    """``w @ x`` for a weight matrix ``w`` and a state ``x`` of one column per slot.

    The value and x's adjoint (``w.T @ g``) contract over hidden units and
    add their products in index order (:func:`index_order_matmul`), so a
    column equals its forward alone.  w's adjoint (``g @ x.T``) sums over
    the columns, which batch order and slot permutations reorder, so it
    stays a sorted sum.
    """
    value = index_order_matmul(w.value, x.value)

    def vjp(g):
        gw = exact_matmul(g, x.value.T) if w.requires_grad else None
        gx = index_order_matmul(w.value.T, g) if x.requires_grad else None
        return gw, gx

    return Node(value, parents=(w, x), vjp=vjp)


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"add shapes differ: {a.value.shape} vs {b.value.shape}")
    return Node(a.value + b.value, parents=(a, b), vjp=lambda g: (g, g))


def add_bias(a: Node, b: Node) -> Node:
    """Add a column vector to every column of ``a``."""
    if b.value.shape != (a.value.shape[0], 1):
        raise DimensionError(
            f"bias shape {b.value.shape} does not match rows of {a.value.shape}"
        )

    def vjp(g):
        gb = _row_sums(g) if b.requires_grad else None
        return g, gb

    return Node(a.value + b.value, parents=(a, b), vjp=vjp)


def add_scalar(a: Node, c: float) -> Node:
    return Node(a.value + float(c), parents=(a,), vjp=lambda g: (g,))


def scale(a: Node, c: float) -> Node:
    c = float(c)
    return Node(a.value * c, parents=(a,), vjp=lambda g: (c * g,))


def hadamard(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise DimensionError(
            f"hadamard shapes differ: {a.value.shape} vs {b.value.shape}"
        )

    def vjp(g):
        ga = b.value * g if a.requires_grad else None
        gb = a.value * g if b.requires_grad else None
        return ga, gb

    return Node(a.value * b.value, parents=(a, b), vjp=vjp)


def elementwise_square(a: Node) -> Node:
    return Node(a.value * a.value, parents=(a,), vjp=lambda g: (2.0 * a.value * g,))


def relu(a: Node) -> Node:
    keep = a.value > 0
    return Node(np.where(keep, a.value, 0.0), parents=(a,), vjp=lambda g: (keep * g,))


def transpose(a: Node) -> Node:
    return Node(a.value.T.copy(), parents=(a,), vjp=lambda g: (g.T,))


def sum_all(a: Node) -> Node:
    value = _sorted_sum(a.value.ravel()).reshape(1, 1)
    return Node(value, parents=(a,), vjp=lambda g: (np.full_like(a.value, g[0, 0]),))


def slice_entry(a: Node, i: int, j: int) -> Node:
    value = np.array([[a.value[i, j]]])

    def vjp(g):
        ga = np.zeros_like(a.value)
        ga[i, j] = g[0, 0]
        return (ga,)

    return Node(value, parents=(a,), vjp=vjp)


def scale_by(a: Node, s: Node) -> Node:
    """Multiply a matrix by a 1x1 node."""
    if s.value.shape != (1, 1):
        raise DimensionError(f"scale_by factor must be 1x1, got {s.value.shape}")
    sv = s.value[0, 0]

    def vjp(g):
        ga = sv * g if a.requires_grad else None
        gs = (
            _sorted_sum((g * a.value).ravel()).reshape(1, 1)
            if s.requires_grad
            else None
        )
        return ga, gs

    return Node(sv * a.value, parents=(a, s), vjp=vjp)


def mean_over_columns(a: Node, mask) -> Node:
    """Mean of the unmasked columns; masked columns never contribute.

    ``mask`` holds one flag per column.  The divisor is the number of
    unmasked columns, never the total column count.
    """
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.size != a.value.shape[1]:
        raise DimensionError(
            f"mask length {mask.size} does not match columns of {a.value.shape}"
        )
    cols = np.flatnonzero(mask)
    if cols.size == 0:
        raise DegenerateSetError("mean over an all-masked column set")
    count = float(cols.size)
    value = _row_sums(a.value[:, cols]) / count

    def vjp(g):
        ga = np.zeros_like(a.value)
        ga[:, cols] = g / count
        return (ga,)

    return Node(value, parents=(a,), vjp=vjp)


def sum_over_columns(a: Node, mask) -> Node:
    """Sum of the unmasked columns; masked columns never contribute."""
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.size != a.value.shape[1]:
        raise DimensionError(
            f"mask length {mask.size} does not match columns of {a.value.shape}"
        )
    cols = np.flatnonzero(mask)
    if cols.size == 0:
        raise DegenerateSetError("sum over an all-masked column set")
    value = _row_sums(a.value[:, cols])

    def vjp(g):
        ga = np.zeros_like(a.value)
        ga[:, cols] = g
        return (ga,)

    return Node(value, parents=(a,), vjp=vjp)


# ---------------------------------------------------------------------------
# Segment ops: a batch of observations as one column block
# ---------------------------------------------------------------------------


class Segments:
    """Column layout of a batch: which observation owns each column, at which slot.

    Built from one slot mask per observation.  The columns are the real
    slots, observation by observation and slot by slot; ``owner[c]`` and
    ``slot[c]`` locate column ``c``.  ``mask`` is the (slots x
    observations) real-slot mask, padded with dummy slots below
    observations narrower than the widest.
    """

    def __init__(self, masks: Sequence):
        masks = [np.asarray(m, dtype=bool).ravel() for m in masks]
        if not masks:
            raise DimensionError("a batch needs at least one observation")
        self.mask = np.zeros((max(m.size for m in masks), len(masks)), dtype=bool)
        for b, m in enumerate(masks):
            self.mask[: m.size, b] = m
        self.counts = self.mask.sum(axis=0)
        if not self.counts.all():
            raise DegenerateSetError("an observation has no real slot")
        self.owner, self.slot = np.nonzero(self.mask.T)

    def _check(self, a: Node, what: str) -> None:
        if a.value.shape[1] != self.owner.size:
            raise DimensionError(
                f"{what} has {a.value.shape[1]} columns, the layout {self.owner.size}"
            )

    def gather(self, x: np.ndarray) -> np.ndarray:
        """(rows x C) columns into a zero-padded (slots, rows, observations) array."""
        out = np.zeros((self.mask.shape[0], x.shape[0], self.mask.shape[1]))
        out[self.slot, :, self.owner] = x.T
        return out

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Sorted sum of each observation's columns of ``x``, as (rows x observations)."""
        return _sorted_sum(self.gather(x))


def segment_sum(a: Node, seg: Segments) -> Node:
    """Sum of each observation's columns: (rows x C) to (rows x observations)."""
    seg._check(a, "segment_sum input")
    return Node(seg.sums(a.value), parents=(a,), vjp=lambda g: (g[:, seg.owner],))


def segment_mean(a: Node, seg: Segments) -> Node:
    """Mean of each observation's columns, divided by its real-slot count."""
    seg._check(a, "segment_mean input")
    value = seg.sums(a.value) / seg.counts

    def vjp(g):
        return ((g / seg.counts)[:, seg.owner],)

    return Node(value, parents=(a,), vjp=vjp)


def segment_scale(a: Node, s: Node, seg: Segments, row: int) -> Node:
    """Scale each column by its owner's factor ``s[row, owner]``.

    ``s`` holds one column per observation.  The gradient of an
    observation's factor is one sorted sum over the products of all its
    entries, as :func:`scale_by`'s is.
    """
    seg._check(a, "segment_scale input")
    if s.value.shape[1] != seg.mask.shape[1] or not 0 <= row < s.value.shape[0]:
        raise DimensionError(
            f"segment_scale factors {s.value.shape} do not give row {row} "
            f"for {seg.mask.shape[1]} observations"
        )
    factors = s.value[row, seg.owner]

    def vjp(g):
        ga = g * factors if a.requires_grad else None
        gs = None
        if s.requires_grad:
            gs = np.zeros_like(s.value)
            products = seg.gather(g * a.value)
            gs[row] = _sorted_sum(products.reshape(-1, products.shape[2]))
        return ga, gs

    return Node(a.value * factors, parents=(a, s), vjp=vjp)


def segment_bias(a: Node, b: Node, seg: Segments) -> Node:
    """Add each observation's column of ``b`` to that observation's columns of ``a``."""
    seg._check(a, "segment_bias input")
    if b.value.shape != (a.value.shape[0], seg.mask.shape[1]):
        raise DimensionError(
            f"segment_bias shape {b.value.shape} does not match {a.value.shape[0]} "
            f"rows x {seg.mask.shape[1]} observations"
        )

    def vjp(g):
        gb = seg.sums(g) if b.requires_grad else None
        return g, gb

    return Node(a.value + b.value[:, seg.owner], parents=(a, b), vjp=vjp)


def scatter_slots(u: Node, seg: Segments) -> Node:
    """A (1 x C) row as the (slots x observations) matrix; dummy slots read 0."""
    seg._check(u, "scatter_slots input")
    if u.value.shape[0] != 1:
        raise DimensionError(f"scatter_slots takes one row, got {u.value.shape}")
    value = np.zeros(seg.mask.shape)
    value[seg.slot, seg.owner] = u.value[0]
    return Node(value, parents=(u,), vjp=lambda g: (g[seg.slot, seg.owner][None, :],))


def layer_norm(a: Node, gain: Node, bias: Node) -> Node:
    """Normalize each column to zero mean / unit variance, then ``gain`` and ``bias``.

    A zero-variance column maps to the bias: the variance floor is
    ``LAYER_NORM_EPS``.  The statistics are sorted sums down each column,
    so a column's value and gradient are the same alone and beside other
    columns.
    """
    if gain.value.shape != (a.value.shape[0], 1):
        raise DimensionError("layer_norm gain must be rows x 1")
    if bias.value.shape != (a.value.shape[0], 1):
        raise DimensionError("layer_norm bias must be rows x 1")
    m = a.value.shape[0]
    mu = _sorted_sum(a.value) / m
    centered = a.value - mu
    var = _sorted_sum(centered * centered) / m
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv

    def vjp(g):
        gh = g * gain.value
        mean_gh = _sorted_sum(gh) / m
        mean_ghx = _sorted_sum(gh * xhat) / m
        return (
            inv * (gh - mean_gh - xhat * mean_ghx) if a.requires_grad else None,
            _row_sums(g * xhat) if gain.requires_grad else None,
            _row_sums(g) if bias.requires_grad else None,
        )

    return Node(xhat * gain.value + bias.value, parents=(a, gain, bias), vjp=vjp)


def _softmax_parts(u: Node, mask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mask, exps, denominators): exps are zero on masked rows."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 1:
        mask = mask.reshape(-1, 1)
    if mask.shape != u.value.shape:
        raise DimensionError(
            f"softmax mask shape {mask.shape} does not match utilities {u.value.shape}"
        )
    if not mask.any(axis=0).all():
        raise DegenerateSetError("softmax over an all-masked utility column")
    mx = np.where(mask, u.value, -np.inf).max(axis=0)
    exps = np.exp(np.where(mask, u.value - mx, -np.inf))
    return mask, exps, _sorted_sum(exps)


def masked_softmax(u: Node, mask) -> Node:
    """Softmax of each column over its unmasked rows; masked rows are exactly zero."""
    mask, exps, denom = _softmax_parts(u, mask)
    p = exps / denom

    def vjp(g):
        inner = _sorted_sum(np.where(mask, g * p, 0.0))
        return (np.where(mask, p * (g - inner), 0.0),)

    return Node(p, parents=(u,), vjp=vjp)


def masked_log_softmax(u: Node, mask) -> Node:
    """Log-probabilities of each column over its unmasked rows; masked rows read 0."""
    mask, exps, denom = _softmax_parts(u, mask)
    p = exps / denom
    logp = np.log(np.where(mask, p, 1.0))

    def vjp(g):
        total = _sorted_sum(np.where(mask, g, 0.0))
        return (np.where(mask, g - p * total, 0.0),)

    return Node(logp, parents=(u,), vjp=vjp)

