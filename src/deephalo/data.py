"""Choice datasets: padding, CSV I/O, synthetic generators, fixtures.

A dataset holds observations over a fixed universe of alternative ids
``0..universe-1``.  Each observation offers a subset of the universe
(padded to a common width with dummy slots) and records the chosen id.
Feature-based observations additionally carry a ``feature_dim x width``
matrix whose dummy columns are exactly zero.  A :class:`Dataset` keeps
them as columns: each distinct configuration (offered set, with its feature
block) once, and integer arrays that index them.

Every CSV format is read through one table reader, ``_read_table``, which
checks the header and each row's field count.  Real choice logs repeat a
few lines many times, so it splits each distinct line text once and hands
the loaders the distinct data rows plus an integer array that codes each
data line as its row; a loader parses and checks the distinct rows and
gathers its per-observation columns through the codes.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

NULL_ID = -1

PROB_SUM_TOL = 1e-9

# The most subsets ``gen_synthetic_simplex`` lists: all of them for ``sets=0``,
# or the pool it draws ``sets`` from.  Above it, draws are rejection-sampled.
# It also bounds a positive ``sets``, so the rejection draws stay few.
MAX_LISTED_SUBSETS = 200_000


class DataFormatError(ValueError):
    """Malformed or inconsistent input data; message carries the location."""


@dataclass(frozen=True)
class ChoiceSet:
    """An offered set of alternatives padded to a fixed slot count.

    Real items occupy slots ``0..len(items)-1``; the remaining slots are
    dummies carrying :data:`NULL_ID`.
    """

    items: tuple[int, ...]
    width: int

    def __post_init__(self):
        if not self.items:
            raise DataFormatError("choice set must contain at least one item")
        if len(set(self.items)) != len(self.items):
            raise DataFormatError(f"duplicate ids in choice set {self.items}")
        if any(i < 0 for i in self.items):
            raise DataFormatError(f"negative id in choice set {self.items}")
        if len(self.items) > self.width:
            raise DataFormatError(
                f"{len(self.items)} items exceed padded width {self.width}"
            )

    @property
    def mask(self) -> np.ndarray:
        m = np.zeros(self.width, dtype=bool)
        m[: len(self.items)] = True
        return m

    @property
    def slot_ids(self) -> tuple[int, ...]:
        return self.items + (NULL_ID,) * (self.width - len(self.items))


@dataclass(frozen=True)
class Observation:
    choice_set: ChoiceSet
    chosen: int
    features: np.ndarray | None = None  # feature_dim x width, dummy columns zero

    def __post_init__(self):
        if self.chosen not in self.choice_set.items:
            raise DataFormatError(
                f"chosen id {self.chosen} not offered in {self.choice_set.items}"
            )
        if self.features is not None:
            if self.features.shape[1] != self.choice_set.width:
                raise DataFormatError(
                    f"feature columns {self.features.shape[1]} != width "
                    f"{self.choice_set.width}"
                )
            dummies = self.features[:, len(self.choice_set.items) :]
            if dummies.size and np.any(dummies != 0.0):
                raise DataFormatError("dummy feature columns must be exactly zero")

    @property
    def chosen_slot(self) -> int:
        return self.choice_set.items.index(self.chosen)


def _bits(blocks: np.ndarray) -> np.ndarray:
    """Feature blocks as the integers of their float64 bits, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(blocks, dtype=np.float64).view(np.int64)


class Dataset:
    """Observations stored as columns over a fixed universe.

    ``set_index[i]`` is observation ``i``'s configuration ``s``, what a model
    reads, and each distinct one is stored once.  Featureless data store an
    offered set, the shared :class:`ChoiceSet` ``sets[s]``, and have
    ``features`` None.  Featured data store an (offered set, feature block)
    pair, ``sets[s]`` and ``features[s]``, in first-seen order; blocks with
    different bits differ (configurations x feature_dim x the widest width;
    dummy columns, and columns past a narrower set's width, are exactly
    zero).  Observation ``i`` chooses ``chosen[i]``, in slot ``slot[i]``.

    ``Dataset(observations, universe, feature_dim)`` turns a list of
    :class:`Observation` into columns; :meth:`from_columns` takes columns
    that a loader or a generator built, one feature block per observation.
    Both merge equal configurations in :meth:`_store`.  :attr:`observations`
    and :meth:`observations_for` build :class:`Observation` views on demand.
    """

    def __init__(
        self,
        observations: list[Observation],
        universe: int,
        feature_dim: int = 0,
    ):
        shared: dict[ChoiceSet, int] = {}  # equal offered sets share the first one
        set_index, chosen, slot = [], [], []
        for obs in observations:
            have = 0 if obs.features is None else obs.features.shape[0]
            if have != feature_dim:
                raise DataFormatError(
                    f"feature dim {have} differs from dataset dim {feature_dim}"
                )
            set_index.append(shared.setdefault(obs.choice_set, len(shared)))
            chosen.append(obs.chosen)
            slot.append(obs.chosen_slot)
        features = None
        if feature_dim:
            width = max((cs.width for cs in shared), default=0)
            features = np.zeros((len(observations), feature_dim, width))
            for block, obs in zip(features, observations):
                block[:, : obs.features.shape[1]] = obs.features
        self._store(list(shared), set_index, chosen, slot, universe, features)

    @classmethod
    def from_columns(
        cls, sets, set_index, chosen, slot, universe: int, features=None
    ) -> "Dataset":
        """A dataset of columns whose choices and features are already checked."""
        dataset = cls.__new__(cls)
        dataset._store(sets, set_index, chosen, slot, universe, features)
        return dataset

    def _store(self, sets, set_index, chosen, slot, universe, features):
        for cs in sets:
            if max(cs.items) >= universe:
                raise DataFormatError(
                    f"id {max(cs.items)} outside universe of size {universe}"
                )
        set_index = np.asarray(set_index, dtype=np.intp)
        if features is not None:
            # Distinct (set, block bytes) pairs in first-seen order: -0.0 and 0.0 differ.
            width = math.prod(features.shape[1:])
            key = np.column_stack([set_index, features.reshape(len(set_index), width)])
            rows = key.view(np.dtype((np.void, key.itemsize * (1 + width)))).ravel()
            _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
            kept, configuration = np.unique(first[inverse], return_inverse=True)
            sets = [sets[s] for s in set_index[kept].tolist()]
            set_index, features = configuration, features[kept]
        self.sets: list[ChoiceSet] = sets
        self.set_index = set_index
        self.chosen = np.asarray(chosen, dtype=np.int64)
        self.slot = np.asarray(slot, dtype=np.intp)
        self.features: np.ndarray | None = features
        self.universe = universe
        self.feature_dim = 0 if features is None else features.shape[1]
        self.splits: dict[str, list[int]] | None = None

    def __len__(self) -> int:
        return self.set_index.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            (self.universe, self.feature_dim, self.splits)
            == (other.universe, other.feature_dim, other.splits)
            and [self.sets[s] for s in self.set_index.tolist()]
            == [other.sets[s] for s in other.set_index.tolist()]
            and np.array_equal(self.chosen, other.chosen)
            and (self.features is None) == (other.features is None)
            and (
                self.features is None
                or np.array_equal(_bits(self.features[self.set_index]),
                                  _bits(other.features[other.set_index]))
            )
        )

    @property
    def width(self) -> int:
        return max(cs.width for cs in self.sets)

    def configuration(self, i: int) -> tuple[ChoiceSet, np.ndarray | None]:
        """Observation ``i``'s configuration: its offered set and feature block (or None)."""
        s = self.set_index[i]
        cs = self.sets[s]
        return cs, None if self.features is None else self.features[s, :, : cs.width]

    @property
    def observations(self) -> list[Observation]:
        return self.observations_for(None)

    def observations_for(self, split: str | None) -> list[Observation]:
        """:class:`Observation` views of ``split``, sharing their sets and feature blocks."""
        views = []
        for i in self.indices(split).tolist():
            cs, x = self.configuration(i)
            views.append(Observation(cs, int(self.chosen[i]), x))
        return views

    def indices(self, split: str | None = None) -> np.ndarray:
        """Positions of the observations in ``split``; all when it or the splits are None."""
        if split is None or self.splits is None:
            return np.arange(len(self))
        if split not in self.splits:
            raise KeyError(f"dataset has no '{split}' split")
        return np.asarray(self.splits[split], dtype=np.intp)

    def with_splits(self, splits: dict[str, list[int]]) -> "Dataset":
        """A copy with ``splits``, each split read once into a list and each
        index checked to be an observation position: a Python or NumPy
        integer, not a boolean."""
        n = len(self)
        out = copy.copy(self)
        out.splits = {}
        for name, idx in splits.items():
            idx = list(idx)
            if not all(t is int or issubclass(t, np.integer) for t in set(map(type, idx))):
                raise DataFormatError(f"split '{name}' must be a list of integers")
            bad = [i for i in idx if not 0 <= i < n]
            if bad:
                raise DataFormatError(f"split '{name}' indexes out of range: {bad[:3]}")
            out.splits[name] = idx
        return out


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def _read_table(
    path, header: str, rows_required: bool = True, comments: list | None = None
) -> tuple[list[str], list[tuple[int, list[str]]], np.ndarray, np.ndarray]:
    """The header names and the distinct data rows of a comma CSV, with the
    code of each data line's row and each data line's number.

    A row is its line split at commas: a quote is an ordinary character.
    The file is UTF-8, and a leading byte-order mark is read as nothing.
    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r`` and count from 1.  Blank
    and '#' comment lines are skipped; each comment line is appended to
    ``comments`` as (line number, stripped line) when it is given.

    The first row that is not a comment must be ``header``, comma-joined;
    one that ends in ``,...`` needs only its leading names.  Every data row
    must have the header's field count, and unless ``rows_required`` is
    false there must be one.  Each error names the file or the line.

    Each distinct line text is classified, split and checked once.  The rows
    are the distinct data texts as (number of the text's first data line,
    fields), in first-seen order; ``codes[n]`` is the row of the n-th data
    line, and ``numbers[n]`` its line number.  A line's faults depend on its
    text alone, so checking the rows in order finds the file's earliest
    faulty line.
    """
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n")
        raise DataFormatError(f"{path}: line {line}: not valid UTF-8") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    head = next((i for i, line in enumerate(lines) if line.strip()[:1] not in ("", "#")), None)
    if head is None:
        raise DataFormatError(f"{path}: no header row, expected '{header}'")
    names = [name.strip() for name in lines[head].split(",")]
    want = header.removesuffix(",...").split(",")
    if (names[: len(want)] if header.endswith(",...") else names) != want:
        raise DataFormatError(
            f"line {head + 1}: expected header '{header}', got '{','.join(names)}'"
        )
    lines[head] = ""  # read; a data line with the header's text is still a row
    # Each distinct text maps to the index of its first line; `at` holds
    # that index for every line.
    first = dict(zip(reversed(lines), range(len(lines) - 1, -1, -1)))
    at = np.fromiter(map(first.__getitem__, lines), np.intp, len(lines))
    comment = np.zeros(len(lines), dtype=bool)
    starts = []  # the first line of each data text
    for line, i in first.items():
        mark = line.strip()[:1]
        if mark == "#":
            comment[i] = True
        elif mark:
            starts.append(i)
    if comments is not None:
        comments.extend((i + 1, lines[i].strip()) for i in np.flatnonzero(comment[at]).tolist())
    starts.sort()
    code = np.full(len(lines), -1)
    code[starts] = np.arange(len(starts))
    codes = code[at]
    data = np.flatnonzero(codes >= 0)
    rows = [(i + 1, lines[i].split(",")) for i in starts]
    fields = len(names)
    for lineno, row in rows:
        if len(row) != fields:
            raise DataFormatError(f"line {lineno}: expected {fields} fields, got {len(row)}")
    if rows_required and not rows:
        raise DataFormatError(f"{path}: no data rows after the header")
    return names, rows, codes[data], data + 1


def _keyed_rows(rows, codes: np.ndarray, numbers: np.ndarray) -> list:
    """The rows of a keyed table in the order its checks meet them.

    These are the distinct rows up to the first data line that repeats an
    earlier line byte for byte, and then that line, whose key repeats.
    """
    seen = np.maximum.accumulate(codes)
    again = 1 + np.flatnonzero(codes[1:] <= seen[:-1])
    if not again.size:
        return rows
    n = again[0]
    return rows[: seen[n] + 1] + [(int(numbers[n]), rows[codes[n]][1])]


def _parse_id_list(text: str, lineno: int) -> tuple[int, ...]:
    try:
        ids = tuple(int(tok) for tok in text.split(";"))
    except ValueError:
        raise DataFormatError(f"line {lineno}: cannot parse set '{text}'") from None
    if len(set(ids)) != len(ids):
        raise DataFormatError(f"line {lineno}: duplicate ids in set '{text}'")
    if any(i < 0 for i in ids):
        raise DataFormatError(f"line {lineno}: negative id in set '{text}'")
    return ids


def _parse_choices(rows):
    """The distinct id tuples of ``set,choice,...`` rows, in first-seen order,
    and a (3, rows) array of each row's set index, chosen id and chosen slot;
    set texts parse once."""
    by_text: dict[str, tuple[int, tuple[int, ...]]] = {}
    by_ids: dict[tuple[int, ...], int] = {}
    columns = []
    for lineno, row in rows:
        known = by_text.get(row[0])
        if known is None:
            ids = _parse_id_list(row[0], lineno)
            known = by_text[row[0]] = by_ids.setdefault(ids, len(by_ids)), ids
        s, ids = known
        try:
            c = int(row[1])
        except ValueError:
            raise DataFormatError(f"line {lineno}: cannot parse choice '{row[1]}'") from None
        try:
            columns.append((s, c, ids.index(c)))
        except ValueError:
            raise DataFormatError(f"line {lineno}: choice {c} not in set {ids}") from None
    return list(by_ids), np.array(columns, dtype=np.intp).T


def load_featureless_csv(path) -> Dataset:
    """Read ``set,choice`` rows where ``set`` is a semicolon-joined id list."""
    _, rows, codes, _ = _read_table(path, "set,choice")
    distinct, columns = _parse_choices(rows)
    width = max(map(len, distinct))
    sets = [ChoiceSet(ids, width) for ids in distinct]
    return Dataset.from_columns(sets, *columns.take(codes, axis=1), max(map(max, distinct)) + 1)


def write_featureless_csv(dataset: Dataset, path) -> None:
    texts = [";".join(map(str, cs.items)) for cs in dataset.sets]
    rows = zip(dataset.set_index.tolist(), dataset.chosen.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("set,choice\n")
        fh.writelines(f"{texts[s]},{chosen}\n" for s, chosen in rows)


def load_featured_csv(items_path, obs_path) -> Dataset:
    """Read an item-feature table plus observations with shared features.

    Items file: ``item_id,f1..f{d}``, ids in any order, gaps allowed.
    Observations file: ``set,choice,s1..s{k}``; each shared value is
    replicated into every real item's column below its item's features.
    """
    header, item_rows, item_codes, item_lines = _read_table(items_path, "item_id,...")
    d_item = len(header) - 1
    column: dict[int, int] = {}  # item id -> its column of the stacked item matrix
    vectors = []
    for lineno, row in _keyed_rows(item_rows, item_codes, item_lines):
        try:
            item = int(row[0])
            vec = [float(v) for v in row[1:]]
        except ValueError:
            raise DataFormatError(f"line {lineno}: cannot parse item row") from None
        if not all(map(math.isfinite, vec)):
            raise DataFormatError(f"line {lineno}: item {item} has a non-finite feature")
        if item in column:
            raise DataFormatError(f"line {lineno}: duplicate item id {item}")
        column[item] = len(vectors)
        vectors.append(vec)
    header, obs_rows, codes, _ = _read_table(obs_path, "set,choice,...")
    distinct, columns = _parse_choices(obs_rows)
    absent = [next((i for i in ids if i not in column), None) for ids in distinct]
    shared = []
    for (lineno, row), s in zip(obs_rows, columns[0].tolist()):
        try:
            values = [float(v) for v in row[2:]]
        except ValueError:
            raise DataFormatError(f"line {lineno}: cannot parse shared features") from None
        if not all(map(math.isfinite, values)):
            raise DataFormatError(f"line {lineno}: non-finite shared feature")
        if absent[s] is not None:
            raise DataFormatError(f"line {lineno}: item id {absent[s]} absent from items file")
        shared.append(values)
    width = max(map(len, distinct))
    # Slot j of set s reads column cols[s, j] of the item matrix; a dummy
    # slot reads the zero column appended past the items.
    cols = np.full((len(distinct), width), len(vectors))
    for s, ids in enumerate(distinct):
        cols[s, : len(ids)] = [column[i] for i in ids]
    catalog = np.array(vectors + [[0.0] * d_item]).T  # d_item x (items + 1)
    slots = cols[columns[0]]  # rows x width
    x = np.empty((len(obs_rows), d_item + len(header) - 2, width))
    x[:, :d_item] = np.moveaxis(catalog[:, slots], 0, 1)
    x[:, d_item:] = np.where((slots < len(vectors))[:, None, :], np.array(shared)[:, :, None], 0.0)
    sets = [ChoiceSet(ids, width) for ids in distinct]
    # Every offered id is in the items file, so the universe spans the items.
    return Dataset.from_columns(sets, *columns.take(codes, axis=1), max(column) + 1, x[codes])


def save_split_manifest(splits: dict[str, list[int]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: list(map(int, v)) for k, v in splits.items()}, fh)


def read_json(path):
    """The JSON document in ``path``; a file that is not valid JSON, or whose
    objects repeat a key, is named."""

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise DataFormatError(f"{path}: key '{key}' appears twice in one object")
            obj[key] = value
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except DataFormatError:
            raise
        except ValueError as exc:
            raise DataFormatError(f"{path}: not valid JSON ({exc})") from None


def load_split_manifest(path) -> dict[str, list[int]]:
    """Split names to observation indices; each error names the file and the split."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise DataFormatError(f"{path}: a split manifest must map split names to index lists")
    for name, idx in raw.items():
        if not isinstance(idx, list) or any(type(i) is not int for i in idx):
            raise DataFormatError(f"{path}: split '{name}' must be a list of integers")
    return raw


# ---------------------------------------------------------------------------
# Probability tables
# ---------------------------------------------------------------------------

# A probability table maps a sorted tuple of item ids to the choice
# probability vector aligned with that tuple.


def beverage_fixture() -> dict[tuple[int, ...], np.ndarray]:
    """Hypothetical four-product soft-drink market shares.

    Products are 0-based here: 0=Pepsi, 1=Coke, 2=7-Up, 3=Sprite
    (the classic presentation labels them 1..4).  Eleven offered sets
    cover every pair, triple, and the full assortment.
    """
    table = {
        (0, 1): [0.98, 0.02],
        (0, 2): [0.50, 0.50],
        (0, 3): [0.50, 0.50],
        (1, 2): [0.50, 0.50],
        (1, 3): [0.50, 0.50],
        (2, 3): [0.90, 0.10],
        (0, 1, 2): [0.49, 0.01, 0.50],
        (0, 1, 3): [0.49, 0.01, 0.50],
        (0, 2, 3): [0.50, 0.45, 0.05],
        (1, 2, 3): [0.50, 0.45, 0.05],
        (0, 1, 2, 3): [0.49, 0.01, 0.45, 0.05],
    }
    return {k: np.array(v) for k, v in table.items()}


def _check_probabilities(ids, probs, where: str = "") -> None:
    """Raise unless ``probs`` is a distribution over ``ids``; ``where`` prefixes the message."""
    probs = np.asarray(probs, dtype=float)
    if len(ids) != probs.size:
        raise DataFormatError(f"{where}set {ids} has {probs.size} probabilities")
    if not np.all(np.isfinite(probs)):
        raise DataFormatError(f"{where}non-finite probability for set {ids}")
    if np.any(probs < 0):
        raise DataFormatError(f"{where}negative probability for set {ids}")
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise DataFormatError(f"{where}probabilities for set {ids} sum to {total!r}")


def sample_choices(
    table: dict[tuple[int, ...], np.ndarray], n_per_set: int, seed: int
) -> Dataset:
    """Draw ``n_per_set`` iid choices from every set in the table."""
    for ids, probs in table.items():
        _check_probabilities(ids, probs)
    rng = np.random.default_rng(seed)
    width = max(len(ids) for ids in table)
    draws = []
    for ids, probs in table.items():
        probs = np.asarray(probs, dtype=float)
        draws.append(rng.choice(len(ids), size=n_per_set, p=probs / probs.sum()))
    sets = [ChoiceSet(tuple(ids), width) for ids in table]
    return _drawn(sets, draws, max(max(ids) for ids in table) + 1)


def _drawn(sets: list[ChoiceSet], draws: list[np.ndarray], universe: int) -> Dataset:
    """The dataset of the slots ``draws[s]`` drawn from each ``sets[s]``, set by set."""
    set_index = np.repeat(np.arange(len(sets)), [len(d) for d in draws])
    chosen = np.concatenate([np.asarray(cs.items)[d] for cs, d in zip(sets, draws)])
    return Dataset.from_columns(sets, set_index, chosen, np.concatenate(draws), universe)


def gen_synthetic_simplex(
    universe: int, set_size: int, sets: int, n_per_set: int, seed: int
) -> tuple[Dataset, dict[tuple[int, ...], np.ndarray]]:
    """Sample per-set choice probabilities uniformly on the simplex.

    ``sets=0`` enumerates every size-``set_size`` subset, and is refused when
    there are more than :data:`MAX_LISTED_SUBSETS`; otherwise that many
    distinct subsets are drawn without replacement, and more than
    :data:`MAX_LISTED_SUBSETS` of them are refused.  Simplex draws
    use normalized unit-exponential variates (a flat Dirichlet).
    """
    if set_size > universe:
        raise DataFormatError(f"set size {set_size} exceeds universe {universe}")
    total = math.comb(universe, set_size)
    if sets > total:
        raise DataFormatError(
            f"{sets} distinct subsets requested but only {total} exist"
        )
    if sets > MAX_LISTED_SUBSETS:
        raise DataFormatError(
            f"{sets} subsets requested, more than the {MAX_LISTED_SUBSETS} it may draw"
        )
    if sets == 0 and total > MAX_LISTED_SUBSETS:
        raise DataFormatError(
            f"sets=0 would list all {total} subsets of size {set_size} from {universe} ids, "
            f"more than the {MAX_LISTED_SUBSETS} it may list; draw some with sets > 0"
        )
    rng = np.random.default_rng(seed)
    if sets == 0:
        chosen_sets = list(combinations(range(universe), set_size))
    elif total <= MAX_LISTED_SUBSETS:
        pool = list(combinations(range(universe), set_size))
        idx = rng.choice(total, size=sets, replace=False)
        chosen_sets = [pool[i] for i in sorted(idx)]
    else:
        seen: set[tuple[int, ...]] = set()
        while len(seen) < sets:
            pick = tuple(sorted(rng.choice(universe, size=set_size, replace=False)))
            seen.add(pick)
        chosen_sets = sorted(seen)

    table: dict[tuple[int, ...], np.ndarray] = {}
    for ids in chosen_sets:
        w = rng.exponential(1.0, size=set_size)
        table[tuple(int(i) for i in ids)] = w / w.sum()

    draws = [rng.choice(set_size, size=n_per_set, p=probs) for probs in table.values()]
    sets = [ChoiceSet(ids, set_size) for ids in table]
    return _drawn(sets, draws, universe), table


def empirical_frequencies(dataset: Dataset) -> dict[tuple[int, ...], np.ndarray]:
    """Observed choice-frequency vector per distinct offered set."""
    if not len(dataset):
        raise DataFormatError("cannot compute frequencies of an empty dataset")
    width = dataset.width
    cells = dataset.set_index * width + dataset.slot
    tally = np.bincount(cells, minlength=len(dataset.sets) * width).reshape(-1, width)
    counts: dict[tuple[int, ...], np.ndarray] = {}  # sorted ids -> counts in id order
    for cs, row in zip(dataset.sets, tally):
        key = tuple(sorted(cs.items))
        by_id = row[np.argsort(cs.items)]
        counts[key] = counts[key] + by_id if key in counts else by_id
    return {k: v / v.sum() for k, v in counts.items()}


def write_probability_table(table, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("set,probs\n")
        for ids, probs in table.items():
            ids_txt = ";".join(str(i) for i in ids)
            probs_txt = ";".join(repr(float(p)) for p in probs)
            fh.write(f"{ids_txt},{probs_txt}\n")


def load_probability_table(path) -> dict[tuple[int, ...], np.ndarray]:
    _, rows, codes, numbers = _read_table(path, "set,probs")
    table = {}
    first_line: dict[tuple[int, ...], int] = {}  # sorted ids -> line
    for lineno, row in _keyed_rows(rows, codes, numbers):
        ids = _parse_id_list(row[0], lineno)
        key = tuple(sorted(ids))
        if key in first_line:
            raise DataFormatError(f"line {lineno}: set {key} repeats line {first_line[key]}")
        first_line[key] = lineno
        try:
            probs = np.array([float(v) for v in row[1].split(";")])
        except ValueError:
            raise DataFormatError(f"line {lineno}: cannot parse probabilities") from None
        _check_probabilities(ids, probs, f"line {lineno}: ")
        table[ids] = probs
    return table
