"""Exact extraction of context effects from a trained set-utility model.

Any model exposing ``universe`` and ``set_utilities(ids)`` can be
analyzed.  A model may also offer ``batch_set_utilities(sets)``, which
returns the utilities of many offered sets from one call (the bundled
models run them as columns of a few tapes); without it every offered set
gets its own ``set_utilities`` call.  The marginal contribution of a
source subset ``T`` to item ``j``'s utility is recovered by
alternating-sign inversion over the Boolean lattice:

    effect(j, T) = sum over R subset of T of (-1)^(|T|-|R|) u_j(R + {j})

Summing those effects over every subset of an offered set reconstructs
the utility exactly.  Individual effects are only identified up to the
softmax gauge; the *relative* effect of ``T`` on an ordered pair (j, k)

    alpha(j, k, T) = [effect(j,T) + effect(j,T+{k})]
                   - [effect(k,T) + effect(k,T+{j})]

cancels that gauge and is what gets tabulated and rendered.

All effects come from one routine: the utilities of every distinct
offered set, then the fast Moebius transform (Kennes & Smets,
"Computational aspects of the Moebius transformation", UAI 1990), which
turns the alternating sums for every source set at once into one
in-place butterfly step per item id.  Subset enumeration is exponential
by design: rather than sampling, every extraction counts the subsets of
the lattice it is about to build and refuses, before any forward, a
count above ``SUBSET_BUDGET`` unless it is forced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from typing import Protocol

import numpy as np

from .data import DataFormatError, _keyed_rows, _read_table

# The most lattice subsets an extraction builds unless forced: 2^13, the
# lattice of one effect over a 12-id source or of a full 13-item table.
SUBSET_BUDGET = 2**13

_comb = np.frompyfunc(math.comb, 2, 1)  # math.comb as a ufunc, for tables of binomials


class EnumerationCapError(ValueError):
    """A request would enumerate more subsets than ``SUBSET_BUDGET``."""


class SetUtilityModel(Protocol):
    """What halo extraction needs of a model.

    ``set_utilities(ids)`` returns the utilities of the offered set
    ``ids``, aligned with the order of ``ids``.  A model may also define
    ``batch_set_utilities(sets)``, returning one such array per set; when
    it does, extraction asks for all the offered sets of a call at once,
    and otherwise it calls ``set_utilities`` once per distinct set.
    """

    universe: int

    def set_utilities(self, ids) -> np.ndarray: ...


def _set_utilities(model: SetUtilityModel, sets: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Utilities of each offered set, from one batched call when the model has one."""
    batch = getattr(model, "batch_set_utilities", None)
    if batch is None:
        return [model.set_utilities(ids) for ids in sets]
    values = batch(sets)
    if len(values) != len(sets):
        raise ValueError(f"batch_set_utilities gave {len(values)} arrays for {len(sets)} sets")
    return values


def _as_source(item: int, source) -> tuple[int, ...]:
    src = tuple(sorted(int(i) for i in source))
    if len(set(src)) != len(src):
        raise ValueError(f"duplicate ids in source set {source}")
    if item in src:
        raise ValueError(f"item {item} cannot appear in its own source set {src}")
    return src


def _lattice(ids: tuple[int, ...], max_size: int):
    """Every subset of up to ``max_size + 1`` of ``ids``, and its successor table.

    Returns ``(subsets, sizes, owner, pos, up)``.  ``subsets`` lists the
    sorted subsets by size and then in lexicographic order, and ``sizes``
    holds their sizes.  ``owner`` and ``pos`` list every (subset, member)
    pair, subset by subset with members ascending: the subset's index and
    the member's position in ``ids``.  ``up[i, c]`` is the index of
    S + {ids[i]} for each S = ``subsets[c]`` of up to ``max_size`` ids, or
    -1 where S holds ids[i].

    It is built with array arithmetic and no Python work per subset: each
    (subset, member) pair fills the cell of the subset without that member,
    whose index is a dense rank.  Among the k-subsets of n ids in
    lexicographic order, the one at positions p_1 < ... < p_k of ``ids``
    comes ``C(n, k) - 1 - sum_i C(n - 1 - p_i, k + 1 - i)``-th, counting
    from 0: the sum is the colexicographic rank of the mirrored positions.
    It is below the number of k-subsets, so it fits in int64 for any number
    of ids whose lattice fits in memory.
    """
    n, top = len(ids), max_size + 1
    # binom[x, y] = C(x, y); binom[n] counts the subsets of each size.
    binom = _comb.outer(np.arange(n + 1), np.arange(top + 1)).astype(np.int64)
    counts = binom[n]
    last = np.cumsum(counts) - 1  # the index of the last subset of each size
    subsets = list(chain.from_iterable(combinations(ids, size) for size in range(top + 1)))
    sizes = np.repeat(np.arange(top + 1), counts)
    ends = np.cumsum(sizes)
    owner = np.repeat(np.arange(len(subsets)), sizes)
    pos = np.searchsorted(np.array(ids, dtype=np.int64),
                          np.fromiter(chain.from_iterable(subsets), dtype=np.int64,
                                      count=int(ends[-1])))
    size, start, stop = sizes[owner], (ends - sizes)[owner], ends[owner] - 1
    # T without its member at slot j: the members before j keep their
    # binomials C(n - 1 - p_i, k - 1 - i), and those after it move down one
    # slot, to C(n - 1 - p_i, k - i).
    slot = np.arange(pos.size) - start
    at = (n - 1 - pos) * (top + 1) + size - slot  # binom.take(at) = C(n - 1 - p_i, k - i)
    kept, moved = binom.take(at - 1), binom.take(at)
    kept = np.cumsum(kept) - kept  # over the pairs before each one
    moved = np.cumsum(moved)
    colex = (kept - kept[start]) + (moved[stop] - moved)
    up = np.full((n, int(last[max_size]) + 1), -1)
    up[pos, last[size - 1] - colex] = owner  # counted back from the last (k - 1)-subset
    return subsets, sizes, owner, pos, up


def _effects(
    model: SetUtilityModel,
    items: tuple[int, ...],
    ground: tuple[int, ...],
    max_size: int,
    partners: dict[int, set[int]] | None = None,
    force: bool = False,
) -> tuple[dict[tuple[int, ...], int], np.ndarray, np.ndarray]:
    """Marginal effects of the small subsets of ``ground`` on each of ``items``.

    Returns ``(cols, effects, plus)``.  ``cols`` numbers the lattice: every
    sorted subset S of the ids of ``ground`` and ``items`` with at most
    ``max_size`` ids, by size and then in lexicographic order.
    ``effects[r, cols[S]]`` = effect(items[r], S) for every S in it without
    ``items[r]``.  When ``partners`` is given, a source of the full
    ``max_size`` is kept for item j only if it holds one of ``partners[j]``.
    Cells outside that hold NaN.  ``plus[r, cols[S]]`` is the column of
    S + {items[r]}, or -1 where S holds ``items[r]`` or S + {items[r]} is
    not in the lattice.

    Unless ``force`` is set, a lattice of more than ``SUBSET_BUDGET``
    subsets (those of up to ``max_size + 1`` ids) is refused with
    :class:`EnumerationCapError` before anything is built or evaluated.

    All of it is read off one successor table ``up`` from :func:`_lattice`:
    ``up[i, c]`` is the column of S + {ids[i]} among the subsets of up to
    ``max_size + 1`` ids, where S is lattice column c, or -1 where S holds
    ids[i].  A cell's offered set is its ``up`` entry; the utilities of all
    the distinct ones come from one :func:`_set_utilities` call, and the
    lattice's (subset, member) pairs place them.  The alternating sums are
    then one fast Moebius transform: for each id b in ascending order, every
    lattice subset holding b loses the value of the same subset without b,
    ``effects[:, up[b, S]] -= effects[:, S]``.  A cell reads only subsets of
    its own source, so a valid cell never reads a NaN one, and its value
    comes out of the same operations in the same order whatever else the
    array holds.
    """
    ids = tuple(sorted(set(ground) | set(items)))
    n = len(ids)
    count = sum(math.comb(n, s) for s in range(max_size + 2))
    if count > SUBSET_BUDGET and not force:
        raise EnumerationCapError(
            f"the lattice over {n} ids holds {count} subsets, above the budget of "
            f"{SUBSET_BUDGET}; pass force=True (--force on the command line) to run anyway"
        )
    subsets, sizes, owner, pos, up = _lattice(ids, max_size)
    width = up.shape[1]
    cols = dict(zip(subsets, range(width)))
    held = up < 0  # held[i, c]: lattice column c holds ids[i]
    rows = np.searchsorted(ids, items)
    succ = up[rows]
    valid = succ >= 0
    if partners is not None:
        near = np.array([[b in partners[j] for b in ids] for j in items], dtype=bool)
        valid &= (sizes[:width] < max_size) | (near.reshape(len(items), n) @ held)
    chosen = np.zeros(len(subsets), dtype=bool)  # the offered sets
    chosen[succ[valid]] = True
    offered = np.flatnonzero(chosen)
    utilities = np.full((n, len(subsets)), np.nan)
    if offered.size:
        offered_sets = list(map(subsets.__getitem__, offered.tolist()))
        values = list(map(np.asarray, _set_utilities(model, offered_sets)))
        shapes = [vals.shape for vals in values]
        expected = list(zip(sizes[offered].tolist()))  # (len(s),) for each set s
        if shapes != expected:
            s, shape = next((s, a) for s, a, b in zip(offered_sets, shapes, expected) if a != b)
            raise ValueError(
                f"utilities of offered set {s} have shape {shape}, expected ({len(s)},)"
            )
        flat = np.concatenate(values)
        # One check over every value; the set is looked up only on failure.
        if not np.isfinite(flat).all():
            bad = next(s for s, vals in zip(offered_sets, values) if not np.isfinite(vals).all())
            raise ValueError(f"utilities of offered set {bad} are not finite")
        pairs = chosen[owner]  # the (subset, member) pairs of the offered sets
        utilities[pos[pairs], owner[pairs]] = flat
    effects = np.where(valid, utilities[rows[:, None], succ], np.nan)
    steps = ~held & (up < width)  # S lacks ids[i], and S + {ids[i]} is in the lattice
    for i in range(n):
        lower = np.flatnonzero(steps[i])
        effects[:, up[i, lower]] -= effects[:, lower]
    plus = np.where(succ < width, succ, -1)
    return cols, effects, plus


def _alphas(effects, plus, row_j, row_k, t) -> np.ndarray:
    """alpha(j, k, T) for each column T in ``t``, from the rows of j and k.

    ``row_j`` and ``row_k`` are rows, or arrays of rows aligned with ``t``.
    """
    return (effects[row_j, t] + effects[row_j, plus[row_k, t]]) - (
        effects[row_k, t] + effects[row_k, plus[row_j, t]]
    )


def marginal_effect(model: SetUtilityModel, item: int, source, force: bool = False) -> float:
    """Marginal utility contribution of ``source`` to ``item``.

    Exact inversion over all subsets of the source set, the model's
    utilities read once per offered subset.  Bit-identical to the same
    entry of any table.
    """
    src = _as_source(item, source)
    cols, effects, _ = _effects(model, (item,), src, len(src), force=force)
    return float(effects[0, cols[src]])


def reconstruct_utility(
    model: SetUtilityModel, item: int, choice_set, force: bool = False
) -> float:
    """Sum of marginal effects over all source subsets of the offered set.

    Must equal the model's forward utility; the enumeration order of the
    subsets cannot change the result because the total is an exactly
    rounded sum.
    """
    ids = tuple(sorted(int(i) for i in choice_set))
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate ids in offered set {choice_set}")
    if item not in ids:
        raise ValueError(f"item {item} is not offered in {ids}")
    others = tuple(i for i in ids if i != item)
    cols, effects, _ = _effects(model, (item,), others, len(others), force=force)
    return math.fsum(effects[0, [c for s, c in cols.items() if item not in s]].tolist())


def relative_halo(model: SetUtilityModel, j: int, k: int, source, force: bool = False) -> float:
    """Gauge-free effect of ``source`` on the utility gap between j and k.

    Antisymmetric in (j, k) exactly: both orientations combine the same
    four marginal effects.
    """
    if j == k:
        raise ValueError("relative effect needs two distinct items")
    src = _as_source(j, source)
    if k in src:
        raise ValueError(f"item {k} cannot appear in the source set {src}")
    cols, effects, plus = _effects(
        model, (j, k), tuple(sorted(src + (j, k))), len(src) + 1, force=force
    )
    return float(_alphas(effects, plus, 0, 1, [cols[src]])[0])


def identifiability_count(n: int) -> int:
    """Number of identifiable relative effects over an n-item universe.

    Every subset of size q >= 2 supports q - 1 independent pair gaps.
    """
    if n < 2:
        raise ValueError(f"need at least 2 items, got {n}")
    return sum(math.comb(n, q) * (q - 1) for q in range(2, n + 1))


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def _check_order(max_order: int) -> None:
    if max_order < 0:
        raise ValueError(f"max_order must be at least 0, got {max_order}")


@dataclass
class ContextEffectTable:
    """Marginal effects effect(j, T) for every |T| <= max_order."""

    universe: int
    max_order: int
    entries: dict[tuple[int, tuple[int, ...]], float] = field(default_factory=dict)


@dataclass
class RelativeHaloTable:
    """Relative effects alpha(j, k, T) for item pairs j < k."""

    universe: int
    max_order: int
    entries: dict[tuple[int, int, tuple[int, ...]], float] = field(default_factory=dict)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted({(j, k) for j, k, _ in self.entries})

    def sources(self) -> list[tuple[int, ...]]:
        srcs = {t for _, _, t in self.entries}
        return sorted(srcs, key=lambda t: (len(t), t))

    def get(self, j: int, k: int, source) -> float:
        src = tuple(sorted(source))
        if j < k:
            return self.entries[(j, k, src)]
        return -self.entries[(k, j, src)]


def full_context_table(
    model: SetUtilityModel, max_order: int, force: bool = False
) -> ContextEffectTable:
    _check_order(max_order)
    n = model.universe
    items = tuple(range(n))
    cols, effects, _ = _effects(model, items, items, min(max_order, n - 1), force=force)
    table = ContextEffectTable(n, max_order)
    for item in items:
        row = effects[item].tolist()
        table.entries.update(((item, src), row[c]) for src, c in cols.items() if item not in src)
    return table


def full_relative_table(
    model: SetUtilityModel,
    max_order: int,
    pairs: list[tuple[int, int]] | None = None,
    force: bool = False,
) -> RelativeHaloTable:
    """Relative effects for every pair and every source up to max_order."""
    _check_order(max_order)
    n = model.universe
    if pairs is None:
        pairs = list(combinations(range(n), 2))
    partners: dict[int, set[int]] = {}
    for j, k in pairs:
        if not (0 <= j < k < n):
            raise ValueError(f"pair ({j}, {k}) must satisfy 0 <= j < k < universe")
        partners.setdefault(j, set()).add(k)
        partners.setdefault(k, set()).add(j)
    items = tuple(sorted(partners))
    cols, effects, plus = _effects(
        model, items, tuple(range(n)), min(max_order, n - 2) + 1, partners, force=force
    )
    subsets = list(cols)
    rows = np.searchsorted(items, np.array(pairs).reshape(-1, 2))
    # Each pair's sources, pair by pair: the columns where both S + {j} and
    # S + {k} are in the lattice.
    lands = plus >= 0
    p, t = np.nonzero(lands[rows[:, 0]] & lands[rows[:, 1]])
    alphas = _alphas(effects, plus, rows[p, 0], rows[p, 1], t)
    each = np.bincount(p, minlength=len(pairs)).tolist()
    js = chain.from_iterable(map(repeat, (j for j, _ in pairs), each))
    ks = chain.from_iterable(map(repeat, (k for _, k in pairs), each))
    keys = zip(js, ks, map(subsets.__getitem__, t.tolist()))
    table = RelativeHaloTable(n, max_order)
    table.entries.update(zip(keys, alphas.tolist()))
    return table


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def write_halo_csv(table: RelativeHaloTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# universe={table.universe} max_order={table.max_order}\n")
        fh.write("pair_j,pair_k,source_set,alpha\n")
        for j, k, src in sorted(table.entries, key=lambda e: (e[0], e[1], len(e[2]), e[2])):
            src_txt = ";".join(str(i) for i in src)
            fh.write(f"{j},{k},{src_txt},{table.entries[(j, k, src)]!r}\n")


def _entry_fault(j: int, k: int, src: tuple[int, ...], universe, max_order) -> str | None:
    """Why :func:`write_halo_csv` never writes the entry (j, k, src), or None."""
    ids = (j, k) + src
    if j >= k:
        return f"pair ({j}, {k}) must have pair_j < pair_k"
    if min(ids) < 0:
        return f"negative id {min(ids)}"
    if universe is not None and max(ids) >= universe:
        return f"id {max(ids)} outside universe of size {universe}"
    if list(src) != sorted(set(src) - {j, k}):
        return f"source set {src} must be sorted distinct ids without {j} or {k}"
    if max_order is not None and len(src) > max_order:
        return f"source set {src} has more than max_order={max_order} ids"
    return None


def read_halo_csv(path) -> RelativeHaloTable:
    """The table in a halo CSV; each entry must be one that :func:`write_halo_csv` writes."""
    comments: list[tuple[int, str]] = []
    _, rows, codes, numbers = _read_table(path, "pair_j,pair_k,source_set,alpha",
                                          rows_required=False, comments=comments)
    header: dict[str, int] = {}
    for lineno, comment in comments:
        for token in comment.lstrip("#").split():
            key, _, value = token.partition("=")
            if key in ("universe", "max_order"):
                try:
                    header[key] = int(value)
                except ValueError:
                    raise DataFormatError(
                        f"line {lineno}: header key '{key}' must be an integer, got {value!r}"
                    ) from None
    universe, max_order = header.get("universe"), header.get("max_order")
    entries: dict[tuple[int, int, tuple[int, ...]], float] = {}
    first_line: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for lineno, row in _keyed_rows(rows, codes, numbers):
        try:
            j, k = int(row[0]), int(row[1])
            src = tuple(int(i) for i in row[2].split(";")) if row[2] else ()
            alpha = float(row[3])
        except ValueError:
            raise DataFormatError(
                f"line {lineno}: ids must be integers and alpha a number, got {','.join(row)!r}"
            ) from None
        fault = _entry_fault(j, k, src, universe, max_order)
        if fault:
            raise DataFormatError(f"line {lineno}: {fault}")
        if not math.isfinite(alpha):
            raise DataFormatError(f"line {lineno}: alpha must be finite, got {row[3]!r}")
        key = (j, k, src)
        if key in first_line:
            raise DataFormatError(f"line {lineno}: entry {key} repeats line {first_line[key]}")
        first_line[key] = lineno
        entries[key] = alpha
    if universe is None:
        if not entries:
            raise DataFormatError(f"{path}: no alpha entries and no '# universe=' header")
        universe = 1 + max(max((j, k) + t) for j, k, t in entries)
    if max_order is None:
        max_order = max((len(t) for _, _, t in entries), default=0)
    return RelativeHaloTable(universe, max_order, entries)


def _diverging_color(value: float, scale: float) -> str:
    """White at zero, blue for negative, red for positive."""
    if scale <= 0:
        return "#ffffff"
    t = max(-1.0, min(1.0, value / scale))
    if t >= 0:
        other = int(round(255 * (1.0 - t)))
        return f"#ff{other:02x}{other:02x}"
    other = int(round(255 * (1.0 + t)))
    return f"#{other:02x}{other:02x}ff"


def _source_label(src: tuple[int, ...]) -> str:
    return "{" + ",".join(str(i) for i in src) + "}" if src else "{}"


def render_halo_svg(table: RelativeHaloTable) -> str:
    """Self-contained heatmap: pair rows, source-set columns, labeled cells."""
    pairs = table.pairs()
    sources = table.sources()
    cell_w, cell_h, left, top = 86, 30, 70, 46
    width = left + cell_w * len(sources) + 10
    height = top + cell_h * len(pairs) + 10
    scale = max((abs(v) for v in table.entries.values()), default=0.0)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{left}" y="16">relative halo effects '
        f"(blue &lt; 0 &lt; red, scale {scale:.4f})</text>",
    ]
    for c, src in enumerate(sources):
        x = left + c * cell_w + cell_w // 2
        out.append(f'<text x="{x}" y="{top - 8}" text-anchor="middle">{_source_label(src)}</text>')
    for r, (j, k) in enumerate(pairs):
        y = top + r * cell_h
        out.append(f'<text x="6" y="{y + cell_h // 2 + 4}">({j},{k})</text>')
        for c, src in enumerate(sources):
            x = left + c * cell_w
            value = table.entries.get((j, k, src))
            if value is None:
                out.append(
                    f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                    'fill="#eeeeee" stroke="#999999"/>'
                )
                continue
            color = _diverging_color(value, scale)
            out.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                f'fill="{color}" stroke="#555555"/>'
            )
            out.append(
                f'<text x="{x + cell_w // 2}" y="{y + cell_h // 2 + 4}" '
                f'text-anchor="middle">{value:+.3f}</text>'
            )
    out.append("</svg>")
    return "\n".join(out)


def export_heatmap(table: RelativeHaloTable, path, format: str = "csv") -> None:
    if format == "csv":
        write_halo_csv(table, path)
    elif format == "svg":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_halo_svg(table))
    else:
        raise ValueError(f"unknown heatmap format '{format}'")
