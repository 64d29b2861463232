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
by design, guarded by explicit caps rather than sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Protocol

import numpy as np

from .data import DataFormatError, _read_table

MARGINAL_CAP = 12
UNIVERSE_GUARD = 10


class EnumerationCapError(ValueError):
    """A request would enumerate more subsets than the configured cap."""


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


def _check_cap(size: int, cap: int, what: str) -> None:
    if size > cap:
        raise EnumerationCapError(
            f"{what} spans 2^{size} = {2**size} subsets, "
            f"above the cap of 2^{cap}; raise the cap to proceed"
        )


def _effects(
    model: SetUtilityModel,
    items: tuple[int, ...],
    ground: tuple[int, ...],
    max_size: int,
    partners: dict[int, set[int]] | None = None,
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

    All of it is read off one successor table ``up``: ``up[i, c]`` is the
    column of S + {ids[i]} among the subsets of up to ``max_size + 1`` ids,
    where S is lattice column c, or -1 where S holds ids[i].  A cell's
    offered set is its ``up`` entry; the utilities of all the distinct ones
    come from one :func:`_set_utilities` call.  The alternating sums are
    then one fast Moebius transform: for each id b in ascending order, every
    lattice subset holding b loses the value of the same subset without b,
    ``effects[:, up[b, S]] -= effects[:, S]``.  A cell reads only subsets of
    its own source, so a valid cell never reads a NaN one, and its value
    comes out of the same operations in the same order whatever else the
    array holds.
    """
    ids = tuple(sorted(set(ground) | set(items)))
    subsets = [s for size in range(max_size + 2) for s in combinations(ids, size)]
    cols = {s: c for c, s in enumerate(subsets) if len(s) <= max_size}
    width = len(cols)
    index = {b: i for i, b in enumerate(ids)}
    up = np.full((len(ids), width), -1)
    for c, s in enumerate(subsets):
        for pos, b in enumerate(s):
            up[index[b], cols[s[:pos] + s[pos + 1 :]]] = c
    held = up < 0  # held[i, c]: lattice column c holds ids[i]
    rows = np.array([index[j] for j in items], dtype=int)
    succ = up[rows]
    valid = succ >= 0
    if partners is not None:
        near = np.array([[b in partners[j] for b in ids] for j in items], dtype=bool)
        valid &= (held.sum(axis=0) < max_size) | (near.reshape(len(items), len(ids)) @ held)
    offered = np.flatnonzero(np.bincount(succ[valid], minlength=len(subsets)))
    utilities = np.full((len(ids), len(subsets)), np.nan)
    if offered.size:
        offered_sets = [subsets[o] for o in offered.tolist()]
        values = _set_utilities(model, offered_sets)
        for s, vals in zip(offered_sets, values):
            if np.shape(vals) != (len(s),):
                raise ValueError(
                    f"utilities of offered set {s} have shape {np.shape(vals)}, "
                    f"expected ({len(s)},)"
                )
        flat = np.concatenate(values)
        # One check over every value; the set is looked up only on failure.
        if not np.isfinite(flat).all():
            bad = next(s for s, vals in zip(offered_sets, values) if not np.isfinite(vals).all())
            raise ValueError(f"utilities of offered set {bad} are not finite")
        utilities[[index[b] for s in offered_sets for b in s],
                  np.repeat(offered, [len(s) for s in offered_sets])] = flat
    effects = np.where(valid, utilities[rows[:, None], succ], np.nan)
    for i in range(len(ids)):
        lower = np.flatnonzero(~held[i] & (up[i] < width))
        effects[:, up[i, lower]] -= effects[:, lower]
    plus = np.where(succ < width, succ, -1)
    return cols, effects, plus


def _alphas(effects, plus, row_j, row_k, t) -> np.ndarray:
    """alpha(j, k, T) for each column T in ``t``, from the rows of j and k."""
    e_j, e_k = effects[row_j], effects[row_k]
    return (e_j[t] + e_j[plus[row_k, t]]) - (e_k[t] + e_k[plus[row_j, t]])


def marginal_effect(
    model: SetUtilityModel, item: int, source, cap: int = MARGINAL_CAP
) -> float:
    """Marginal utility contribution of ``source`` to ``item``.

    Exact inversion over all subsets of the source set, the model's
    utilities read once per offered subset.  Bit-identical to the same
    entry of any table.
    """
    src = _as_source(item, source)
    _check_cap(len(src), cap, f"marginal effect of {src} on item {item}")
    cols, effects, _ = _effects(model, (item,), src, len(src))
    return float(effects[0, cols[src]])


def reconstruct_utility(
    model: SetUtilityModel, item: int, choice_set, cap: int = MARGINAL_CAP
) -> float:
    """Sum of marginal effects over all source subsets of the offered set.

    Must equal the model's forward utility; the enumeration order of the
    subsets cannot change the result because the total is an exactly
    rounded sum.
    """
    ids = tuple(sorted(int(i) for i in choice_set))
    if item not in ids:
        raise ValueError(f"item {item} is not offered in {ids}")
    others = tuple(i for i in ids if i != item)
    _check_cap(len(ids), cap, f"utility reconstruction over {ids}")
    cols, effects, _ = _effects(model, (item,), others, len(others))
    return math.fsum(effects[0, [c for s, c in cols.items() if item not in s]].tolist())


def relative_halo(
    model: SetUtilityModel, j: int, k: int, source, cap: int = MARGINAL_CAP
) -> float:
    """Gauge-free effect of ``source`` on the utility gap between j and k.

    Antisymmetric in (j, k) exactly: both orientations combine the same
    four marginal effects.
    """
    if j == k:
        raise ValueError("relative effect needs two distinct items")
    src = _as_source(j, source)
    if k in src:
        raise ValueError(f"item {k} cannot appear in the source set {src}")
    _check_cap(len(src) + 1, cap, f"relative effect of {src} on ({j}, {k})")
    cols, effects, plus = _effects(model, (j, k), tuple(sorted(src + (j, k))), len(src) + 1)
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
    model: SetUtilityModel, max_order: int, cap: int = MARGINAL_CAP
) -> ContextEffectTable:
    _check_order(max_order)
    n = model.universe
    largest = min(max_order, n - 1)
    _check_cap(largest, cap, f"a source set of {largest} items")
    items = tuple(range(n))
    cols, effects, _ = _effects(model, items, items, largest)
    table = ContextEffectTable(n, max_order)
    for item in items:
        row = effects[item].tolist()
        table.entries.update(((item, src), row[c]) for src, c in cols.items() if item not in src)
    return table


def full_relative_table(
    model: SetUtilityModel,
    max_order: int,
    pairs: list[tuple[int, int]] | None = None,
    guard: int = UNIVERSE_GUARD,
    force: bool = False,
    cap: int = MARGINAL_CAP,
) -> RelativeHaloTable:
    """Relative effects for every pair and every source up to max_order."""
    _check_order(max_order)
    n = model.universe
    if n > guard and not force:
        # One forward per offered set of at most max_order + 2 items.
        forwards = sum(math.comb(n, s) for s in range(1, min(max_order + 2, n) + 1))
        raise EnumerationCapError(
            f"universe of {n} items needs {forwards} forward passes "
            f"(guard is {guard} items); use the force option to run anyway"
        )
    if pairs is None:
        pairs = list(combinations(range(n), 2))
    partners: dict[int, set[int]] = {}
    for j, k in pairs:
        if not (0 <= j < k < n):
            raise ValueError(f"pair ({j}, {k}) must satisfy 0 <= j < k < universe")
        partners.setdefault(j, set()).add(k)
        partners.setdefault(k, set()).add(j)
    largest = min(max_order, n - 2) + 1
    _check_cap(largest, cap, f"a source set of {largest} items")
    items = tuple(sorted(partners))
    cols, effects, plus = _effects(model, items, tuple(range(n)), largest, partners)
    subsets = list(cols)
    row = {item: r for r, item in enumerate(items)}
    table = RelativeHaloTable(n, max_order)
    for j, k in pairs:
        # A pair's sources: the columns where both S + {j} and S + {k} are in the lattice.
        t = np.flatnonzero((plus[row[j]] >= 0) & (plus[row[k]] >= 0))
        alphas = _alphas(effects, plus, row[j], row[k], t)
        table.entries.update(zip(((j, k, subsets[c]) for c in t.tolist()), alphas.tolist()))
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
    rows = _read_table(path, "pair_j,pair_k,source_set,alpha", rows_required=False,
                       comments=comments)[1]
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
    for lineno, row in rows:
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
