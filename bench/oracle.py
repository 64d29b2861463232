"""Reference computations the benchmark checks deephalo's outputs against.

Written apart from the package and importing nothing from it: plain NumPy
and the standard library.  It covers

* the featureless forward, read straight from a model JSON payload and
  batched over many offered sets;
* the relative halo effects alpha(j, k, T), by a subset-sum (Moebius)
  inversion on the Boolean lattice of item bitmasks;
* NLL and RMSE recomputed from raw choice counts, and the CSV readers
  that feed them.

None of it runs inside a timed region.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# Featureless forward
# ---------------------------------------------------------------------------


def _layer(payload: dict, i: int) -> np.ndarray:
    mats = payload["matrices"]
    if payload.get("rank_H") is None:
        return np.asarray(mats[f"layer{i}"], dtype=float)
    left = np.asarray(mats[f"layer{i}.left"], dtype=float)
    right = np.asarray(mats[f"layer{i}.right"], dtype=float)
    return left.T @ right


def featureless_utilities(payload: dict, members: np.ndarray) -> np.ndarray:
    """Utilities for a batch of offered sets.

    ``members`` is an ``(S, J)`` 0/1 matrix, one row per offered set.  The
    result is ``(S, J)``; entries of items not offered are meaningless and
    must be masked by the caller.
    """
    members = np.asarray(members, dtype=float)
    n_sets, universe = members.shape
    if universe != payload["J"]:
        raise ValueError(f"members have {universe} columns, model has J={payload['J']}")
    width = payload["J_prime"]
    y = np.zeros((n_sets, width))
    y[:, :universe] = members
    increment = members @ _layer(payload, 0).T
    y = y + increment if payload.get("first_layer_residual", True) else increment
    gate = np.ones((n_sets, width))
    gate[:, :universe] = members
    for i in range(1, payload["L"]):
        inner = y * gate if payload["activation"] == "linear" else y * y
        y = y + inner @ _layer(payload, i).T
    mode = payload.get("output_mode", "dense")
    if mode == "dense":
        return y @ np.asarray(payload["matrices"]["readout"], dtype=float).T
    if mode == "identity":
        return y[:, :universe]
    readout = np.asarray(payload["matrices"]["readout"], dtype=float).ravel()
    return y[:, :universe] * readout


def members_matrix(sets, universe: int) -> np.ndarray:
    out = np.zeros((len(sets), universe))
    for row, ids in enumerate(sets):
        out[row, list(ids)] = 1.0
    return out


def softmax_over(utilities: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the offered items; zero elsewhere."""
    mask = np.asarray(members, dtype=bool)
    shifted = np.where(mask, utilities, -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    exps = np.where(mask, np.exp(shifted), 0.0)
    return exps / exps.sum(axis=1, keepdims=True)


def set_probabilities(payload: dict, sets) -> dict[tuple[int, ...], np.ndarray]:
    """Choice probabilities aligned with each sorted set, by the oracle forward."""
    sets = [tuple(sorted(s)) for s in sets]
    members = members_matrix(sets, payload["J"])
    probs = softmax_over(featureless_utilities(payload, members), members)
    return {ids: probs[row, list(ids)] for row, ids in enumerate(sets)}


# ---------------------------------------------------------------------------
# Moebius inversion
# ---------------------------------------------------------------------------


def bitmask(ids) -> int:
    return sum(1 << int(i) for i in ids)


def subsets(universe: int, max_size: int | None = None) -> list[tuple[int, ...]]:
    """Every non-empty sorted subset of the universe up to ``max_size`` items."""
    limit = universe if max_size is None else max_size
    return [ids for size in range(1, limit + 1) for ids in combinations(range(universe), size)]


def utility_lattice(universe: int, sets, utilities) -> np.ndarray:
    """``U[m, j]`` = utility of item j when the set with bitmask m is offered.

    ``utilities[i]`` is aligned with the sorted ids of ``sets[i]``.  Sets not
    given hold NaN, which the inversion carries only into supersets, never
    into smaller sets.
    """
    lattice = np.full((1 << universe, universe), np.nan)
    for ids, values in zip(sets, utilities):
        lattice[bitmask(ids), list(ids)] = values
    return lattice


def featureless_lattice(payload: dict, max_size: int | None = None) -> np.ndarray:
    """The utility lattice of a featureless model, by one batched oracle forward."""
    universe = payload["J"]
    sets = subsets(universe, max_size)
    rows = featureless_utilities(payload, members_matrix(sets, universe))
    return utility_lattice(universe, sets, [rows[i, list(ids)] for i, ids in enumerate(sets)])


def marginal_effects(lattice: np.ndarray) -> np.ndarray:
    """``E[j, m]`` = effect(j, T) for T the item set of bitmask m (j not in T).

    effect(j, T) = sum over R subset of T of (-1)^(|T|-|R|) u_j(R + {j}),
    computed by one in-place butterfly per bit.  Entries whose mask holds
    j itself are not effects and are left meaningless.
    """
    n_masks, universe = lattice.shape
    rows = np.arange(universe)
    masks = np.arange(n_masks)
    # values[j, m] = u_j(m + {j})
    values = lattice[masks[None, :] | (1 << rows)[:, None], rows[:, None]]
    for bit in range(universe):
        view = values.reshape(universe, -1, 2, 1 << bit)
        view[:, :, 1, :] -= view[:, :, 0, :]
    return values


def relative_effects(lattice: np.ndarray, max_order: int) -> dict[tuple[int, int, tuple[int, ...]], float]:
    """alpha(j, k, T) for every pair j < k and every |T| <= max_order."""
    effects = marginal_effects(lattice)
    universe = lattice.shape[1]
    table = {}
    for j, k in combinations(range(universe), 2):
        others = [i for i in range(universe) if i not in (j, k)]
        for size in range(min(max_order, len(others)) + 1):
            for src in combinations(others, size):
                m = bitmask(src)
                j_side = effects[j, m] + effects[j, m | 1 << k]
                k_side = effects[k, m] + effects[k, m | 1 << j]
                table[(j, k, src)] = float(j_side - k_side)
    return table


def halo_tolerance(source_size: int, max_abs_utility: float) -> float:
    """Allowed |program - oracle| for one alpha(j, k, T).

    Each of the four effects sums 2^(|T|+1) utilities.  The two forwards
    may disagree by a few ulps of the largest utility per term, and each
    butterfly level rounds once more, so the error grows at most like
    2^(|T|+1) times a small multiple of eps * max|u|.  The factor 64 leaves
    room for the forwards' own rounding.
    """
    return 4 * 64 * 2 ** (source_size + 1) * EPS * max(max_abs_utility, 1.0)


# ---------------------------------------------------------------------------
# Counts, NLL and RMSE
# ---------------------------------------------------------------------------


def choice_counts(rows) -> dict[tuple[int, ...], dict[int, int]]:
    """Counts per sorted offered set, from (ids, chosen) pairs."""
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for ids, chosen in rows:
        per_set = counts.setdefault(tuple(sorted(ids)), {})
        per_set[chosen] = per_set.get(chosen, 0) + 1
    return counts


def nll_from_counts(counts, probabilities) -> float:
    """Mean negative log-likelihood; ``probabilities[ids]`` aligns with ids."""
    terms = []
    total = 0
    for ids, per_set in counts.items():
        probs = probabilities[ids]
        for item, n in per_set.items():
            terms.append(-n * math.log(probs[ids.index(item)]))
            total += n
    return math.fsum(terms) / total


def pooled_rmse(fitted, truth) -> float:
    """RMSE pooled over every (set, slot) pair of the truth table."""
    sq = []
    for ids, target in truth.items():
        diff = np.asarray(fitted[ids], dtype=float) - np.asarray(target, dtype=float)
        sq.extend((diff * diff).tolist())
    return math.sqrt(math.fsum(sq) / len(sq))


# ---------------------------------------------------------------------------
# CSV readers
# ---------------------------------------------------------------------------


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                yield line


def read_choices(path) -> list[tuple[tuple[int, ...], int]]:
    """Rows of a ``set,choice`` CSV as (ids, chosen)."""
    rows = list(_lines(path))
    if rows[0] != "set,choice":
        raise ValueError(f"{path}: unexpected header {rows[0]!r}")
    out = []
    for line in rows[1:]:
        ids_txt, chosen = line.split(",")
        out.append((tuple(int(t) for t in ids_txt.split(";")), int(chosen)))
    return out


def read_probability_table(path) -> dict[tuple[int, ...], np.ndarray]:
    rows = list(_lines(path))
    if rows[0] != "set,probs":
        raise ValueError(f"{path}: unexpected header {rows[0]!r}")
    table = {}
    for line in rows[1:]:
        ids_txt, probs_txt = line.split(",")
        ids = tuple(int(t) for t in ids_txt.split(";"))
        probs = np.array([float(t) for t in probs_txt.split(";")])
        order = np.argsort(ids)
        table[tuple(sorted(ids))] = probs[order]
    return table


def read_halo_csv(path) -> dict[tuple[int, int, tuple[int, ...]], float]:
    rows = list(_lines(path))
    if rows[0] != "pair_j,pair_k,source_set,alpha":
        raise ValueError(f"{path}: unexpected header {rows[0]!r}")
    table = {}
    for line in rows[1:]:
        j, k, src, alpha = line.split(",")
        source = tuple(int(t) for t in src.split(";")) if src else ()
        table[(int(j), int(k), source)] = float(alpha)
    return table
