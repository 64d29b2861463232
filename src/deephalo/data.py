"""Choice datasets: padding, CSV I/O, synthetic generators, fixtures.

A dataset is a list of observations over a fixed universe of alternative
ids ``0..universe-1``.  Each observation offers a subset of the universe
(padded to a common width with dummy slots) and records the chosen id.
Feature-based observations additionally carry a ``feature_dim x width``
matrix whose dummy columns are exactly zero.

Every CSV format is read through one table reader, ``_read_table``, which
checks the header and each row's field count.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

NULL_ID = -1

PROB_SUM_TOL = 1e-9


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


@dataclass
class Dataset:
    observations: list[Observation]
    universe: int
    feature_dim: int = 0
    splits: dict[str, list[int]] | None = None

    def __post_init__(self):
        for obs in self.observations:
            if max(obs.choice_set.items) >= self.universe:
                raise DataFormatError(
                    f"id {max(obs.choice_set.items)} outside universe "
                    f"of size {self.universe}"
                )
            have = 0 if obs.features is None else obs.features.shape[0]
            if have != self.feature_dim:
                raise DataFormatError(
                    f"feature dim {have} differs from dataset dim {self.feature_dim}"
                )

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def width(self) -> int:
        return max(o.choice_set.width for o in self.observations)

    def observations_for(self, split: str | None) -> list[Observation]:
        if split is None or self.splits is None:
            return self.observations
        if split not in self.splits:
            raise KeyError(f"dataset has no '{split}' split")
        return [self.observations[i] for i in self.splits[split]]

    def with_splits(self, splits: dict[str, list[int]]) -> "Dataset":
        n = len(self.observations)
        for name, idx in splits.items():
            bad = [i for i in idx if not 0 <= i < n]
            if bad:
                raise DataFormatError(f"split '{name}' indexes out of range: {bad[:3]}")
        return replace(self, splits=splits)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def csv_rows(fh, comments: list[tuple[int, str]] | None = None):
    """(line number, row) for each row of a comma CSV, 1-based numbering.

    Blank lines and '#' comment lines are skipped; each comment line is
    appended to ``comments`` as (line number, stripped line) when it is
    given.  One reader parses the whole file, fed one line at a time; a
    row must end on the line it starts on, so that every message can name
    its line.
    """
    pending: deque[int] = deque()  # numbers of the lines fed but not yet parsed

    def lines():
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped.startswith("#"):
                if comments is not None:
                    comments.append((lineno, stripped))
            elif stripped:
                pending.append(lineno)
                yield line

    for row in csv.reader(lines()):
        lineno = pending.popleft()
        if pending:
            raise DataFormatError(f"line {lineno}: quoted field runs past the end of the line")
        yield lineno, row


def _read_table(
    path, header: str, rows_required: bool = True, comments: list | None = None
) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header names and the (line number, row) data rows of a comma CSV.

    The first row that is not a comment must be ``header``, comma-joined;
    one that ends in ``,...`` needs only its leading names.  Every data row
    must have the header's field count, and unless ``rows_required`` is
    false there must be one.  Each error names the file or the line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        numbered = list(csv_rows(fh, comments))
    if not numbered:
        raise DataFormatError(f"{path}: no header row, expected '{header}'")
    (header_line, names), data_rows = numbered[0], numbered[1:]
    names = [name.strip() for name in names]
    want = header.removesuffix(",...").split(",")
    if (names[: len(want)] if header.endswith(",...") else names) != want:
        raise DataFormatError(
            f"line {header_line}: expected header '{header}', got '{','.join(names)}'"
        )
    fields = len(names)
    for lineno, row in data_rows:
        if len(row) != fields:
            raise DataFormatError(f"line {lineno}: expected {fields} fields, got {len(row)}")
    if rows_required and not data_rows:
        raise DataFormatError(f"{path}: no data rows after the header")
    return names, data_rows


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


def _parse_choices(rows) -> tuple[list[tuple[tuple[int, ...], int]], set[tuple[int, ...]]]:
    """(ids, chosen) of each ``set,choice,...`` row and the distinct ids; set texts parse once."""
    id_lists: dict[str, tuple[int, ...]] = {}
    parsed = []
    for lineno, row in rows:
        ids = id_lists.get(row[0])
        if ids is None:
            ids = id_lists[row[0]] = _parse_id_list(row[0], lineno)
        try:
            chosen = int(row[1])
        except ValueError:
            raise DataFormatError(f"line {lineno}: cannot parse choice '{row[1]}'") from None
        if chosen not in ids:
            raise DataFormatError(f"line {lineno}: choice {chosen} not in set {ids}")
        parsed.append((ids, chosen))
    return parsed, set(id_lists.values())


def load_featureless_csv(path) -> Dataset:
    """Read ``set,choice`` rows where ``set`` is a semicolon-joined id list."""
    parsed, distinct = _parse_choices(_read_table(path, "set,choice")[1])
    width = max(len(ids) for ids in distinct)
    universe = max(max(ids) for ids in distinct) + 1
    # Observations of one offered set share one ChoiceSet.
    choice_sets = {ids: ChoiceSet(ids, width) for ids in distinct}
    observations = [Observation(choice_sets[ids], chosen) for ids, chosen in parsed]
    return Dataset(observations, universe=universe)


def write_featureless_csv(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("set,choice\n")
        for obs in dataset.observations:
            ids = ";".join(str(i) for i in obs.choice_set.items)
            fh.write(f"{ids},{obs.chosen}\n")


def load_featured_csv(items_path, obs_path) -> Dataset:
    """Read an item-feature table plus observations with shared features.

    Items file: ``item_id,f1..f{d}``, ids in any order, gaps allowed.
    Observations file: ``set,choice,s1..s{k}``; each shared value is
    replicated into every real item's column below its item's features.
    """
    header, item_rows = _read_table(items_path, "item_id,...")
    d_item = len(header) - 1
    column: dict[int, int] = {}  # item id -> its column of the stacked item matrix
    vectors = []
    for lineno, row in item_rows:
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
    catalog = np.array(vectors).T  # d_item x items
    header, obs_rows = _read_table(obs_path, "set,choice,...")
    parsed, distinct = _parse_choices(obs_rows)
    width = max(len(ids) for ids in distinct)
    d_total = d_item + len(header) - 2
    observations = []
    for (lineno, row), (ids, chosen) in zip(obs_rows, parsed):
        try:
            shared = [float(v) for v in row[2:]]
        except ValueError:
            raise DataFormatError(f"line {lineno}: cannot parse shared features") from None
        if not all(map(math.isfinite, shared)):
            raise DataFormatError(f"line {lineno}: non-finite shared feature")
        missing = [i for i in ids if i not in column]
        if missing:
            raise DataFormatError(f"line {lineno}: item id {missing[0]} absent from items file")
        x = np.zeros((d_total, width))
        x[:d_item, : len(ids)] = catalog[:, [column[i] for i in ids]]
        x[d_item:, : len(ids)] = np.reshape(shared, (-1, 1))
        observations.append(Observation(ChoiceSet(ids, width), chosen, x))
    # Every offered id is in the items file, so the universe spans the items.
    return Dataset(observations, universe=max(column) + 1, feature_dim=d_total)


def save_split_manifest(splits: dict[str, list[int]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: list(map(int, v)) for k, v in splits.items()}, fh)


def read_json(path):
    """The JSON document in ``path``; a file that is not valid JSON is named."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
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
    universe = max(max(ids) for ids in table) + 1
    observations = []
    for ids, probs in table.items():
        probs = np.asarray(probs, dtype=float)
        draws = rng.choice(len(ids), size=n_per_set, p=probs / probs.sum())
        cs = ChoiceSet(tuple(ids), width)
        observations.extend(Observation(cs, ids[slot]) for slot in draws)
    return Dataset(observations, universe=universe)


def gen_synthetic_simplex(
    universe: int, set_size: int, sets: int, n_per_set: int, seed: int
) -> tuple[Dataset, dict[tuple[int, ...], np.ndarray]]:
    """Sample per-set choice probabilities uniformly on the simplex.

    ``sets=0`` enumerates every size-``set_size`` subset; otherwise that
    many distinct subsets are drawn without replacement.  Simplex draws
    use normalized unit-exponential variates (a flat Dirichlet).
    """
    if set_size > universe:
        raise DataFormatError(f"set size {set_size} exceeds universe {universe}")
    total = math.comb(universe, set_size)
    if sets > total:
        raise DataFormatError(
            f"{sets} distinct subsets requested but only {total} exist"
        )
    rng = np.random.default_rng(seed)
    if sets == 0:
        chosen_sets = list(combinations(range(universe), set_size))
    elif total <= 200_000:
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

    width = set_size
    observations = []
    for ids, probs in table.items():
        draws = rng.choice(set_size, size=n_per_set, p=probs)
        cs = ChoiceSet(ids, width)
        observations.extend(Observation(cs, ids[slot]) for slot in draws)
    dataset = Dataset(observations, universe=universe)
    return dataset, table


def empirical_frequencies(dataset: Dataset) -> dict[tuple[int, ...], np.ndarray]:
    """Observed choice-frequency vector per distinct offered set."""
    if not dataset.observations:
        raise DataFormatError("cannot compute frequencies of an empty dataset")
    counts: dict[tuple[int, ...], np.ndarray] = {}
    for obs in dataset.observations:
        key = tuple(sorted(obs.choice_set.items))
        if key not in counts:
            counts[key] = np.zeros(len(key))
        counts[key][key.index(obs.chosen)] += 1.0
    return {k: v / v.sum() for k, v in counts.items()}


def write_probability_table(table, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("set,probs\n")
        for ids, probs in table.items():
            ids_txt = ";".join(str(i) for i in ids)
            probs_txt = ";".join(repr(float(p)) for p in probs)
            fh.write(f"{ids_txt},{probs_txt}\n")


def load_probability_table(path) -> dict[tuple[int, ...], np.ndarray]:
    table = {}
    first_line: dict[tuple[int, ...], int] = {}  # sorted ids -> line
    for lineno, row in _read_table(path, "set,probs")[1]:
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
