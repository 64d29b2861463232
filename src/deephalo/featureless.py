"""Featureless context-dependent choice model.

The state starts as the indicator vector of the offered set, lifted into a
``width``-dimensional space (indicator in the first ``universe``
coordinates, zeros in the extra ones).  Each of ``depth`` residual layers
adds a learned interaction matrix applied to either

* the state masked back onto the offered set (``linear`` activation), or
* the elementwise square of the state (``quadratic`` activation).

Utilities are a linear readout of the final state, restricted to the
offered items.  A linear stack of depth L produces interaction effects up
to order L; a quadratic stack reaches order ``2**(L-1)`` because squaring
doubles the polynomial degree at every layer.  Multinomial logit and the
first-order contextual model are configuration presets of the same
recursion, not separate code paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from . import autodiff as ad
from . import training
from .autodiff import DegenerateSetError, Node
from .data import read_json

FORMAT_VERSION = 1

ACTIVATIONS = ("linear", "quadratic")
OUTPUT_MODES = ("dense", "identity", "diagonal")

INIT_SCALE = 0.02


@dataclass(frozen=True)
class UtilityVector:
    """Per-slot utilities with -inf at dummy positions."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        finite = np.isfinite(self.values)
        if not np.array_equal(finite, self.mask):
            raise ValueError("utilities must be finite exactly on unmasked slots")


def choice_probabilities(utilities: UtilityVector) -> np.ndarray:
    """Masked softmax: exact zeros at dummy slots, stabilized by the max."""
    return column_probabilities(utilities.values[:, None], utilities.mask[:, None])[:, 0]


def column_probabilities(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """:func:`choice_probabilities` of each column of a utility matrix.

    Each column is normalised over its unmasked rows by its own
    ``math.fsum`` denominator; masked rows are exactly zero.
    """
    if not mask.any(axis=0).all():
        raise DegenerateSetError("no real alternatives to choose from")
    mx = np.where(mask, values, -np.inf).max(axis=0)
    exps = np.exp(np.where(mask, values - mx, -np.inf))
    return exps / np.array([math.fsum(col) for col in exps.T.tolist()])


def required_depth_quadratic(universe: int) -> int:
    """Layers needed for a quadratic stack to reach full interaction order."""
    if universe < 2:
        raise ValueError(f"universe must have at least 2 items, got {universe}")
    return math.ceil(1.0 + math.log2(universe - 1))


def max_interaction_order(model: "FeaturelessModel") -> int:
    if model.activation == "linear":
        return model.depth
    return 2 ** (model.depth - 1)


def check_ids(ids, universe: int) -> tuple[int, ...]:
    """``ids`` as a tuple of ints: nonempty, distinct, each in ``[0, universe)``."""
    ids = tuple(int(i) for i in ids)
    if not ids:
        raise DegenerateSetError("empty choice set")
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate ids in {ids}")
    for i in ids:
        if not 0 <= i < universe:
            raise ValueError(f"id {i} outside universe of size {universe}")
    return ids


def set_ids(sets) -> tuple[list[int], list[int]]:
    """Every set's ids end to end, each by ``int()``, and each set's size."""
    return list(map(int, chain.from_iterable(sets))), list(map(len, sets))


def check_sets(sets, universe: int) -> np.ndarray:
    """The (universe x sets) membership mask of a list of offered sets.

    Checks all sets at once for what :func:`check_ids` checks of one, with
    the same ``int()`` conversion: no set is empty, every id is in
    ``[0, universe)``, and no set repeats an id (each (id, set) cell of the
    mask is set once).  When any check fails, the first set that fails
    raises its :func:`check_ids` error.
    """
    mask = np.zeros((universe, len(sets)), dtype=bool)
    try:
        ids, sizes = set_ids(list(map(tuple, sets)))
        valid = 0 not in sizes and (not ids or 0 <= min(ids) <= max(ids) < universe)
    except (TypeError, ValueError):  # a set that is no sequence, or an id int() refuses
        valid = False
    if valid:
        mask[ids, np.arange(len(sets)).repeat(sizes)] = True
        if np.count_nonzero(mask) == len(ids):
            return mask
    for one in sets:
        check_ids(one, universe)  # raises for the first bad set
    raise AssertionError("a set failed the bulk check but passed check_ids")


def split_sets(values, sizes: list[int]) -> list:
    """``values`` (a list or an array) cut into consecutive pieces of
    ``sizes``, one per set."""
    ends = list(accumulate(sizes))
    return list(map(values.__getitem__, map(slice, [0, *ends[:-1]], ends)))


# Header value types of a model file.  ``bool`` is a subclass of ``int``,
# so a size is checked to be no boolean as well.
SIZE, NAME, FLAG, NULL = (int,), (str,), (bool,), (type(None),)
_TYPE_WORDS = {int: "an integer", str: "a string", bool: "true or false", type(None): "null"}


def check_object(payload, what: str = "model file") -> None:
    """Raise unless a JSON file's payload (a model file by default) is an object."""
    if not isinstance(payload, dict):
        found = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
        raise ValueError(
            f"{what} must hold a JSON object, got {found.get(type(payload), 'a number')}"
        )


def check_header(payload, kind: str, header: dict, groups: str) -> None:
    """Raise naming the first header key that a model file lacks or mistypes.

    The payload must be a JSON object of ``kind`` and ``FORMAT_VERSION``.
    ``header`` is a model's ``HEADER`` table: key -> (constructor argument,
    allowed types, required), the types drawn from ``SIZE``, ``NAME``,
    ``FLAG``, optionally with ``NULL``; an optional key may be absent.
    ``groups`` names the key that maps weight-group names to matrices.
    """
    check_object(payload)
    if payload.get("kind") != kind:
        raise ValueError(f"expected kind '{kind}', got {payload.get('kind')!r}")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {payload.get('format_version')}")
    for key in [key for key, (_, _, required) in header.items() if required] + [groups]:
        if key not in payload:
            raise ValueError(f"model file is missing header key '{key}'")
    for key, (_, types, _) in header.items():
        value = payload.get(key)
        if key in payload and (
            not isinstance(value, types) or isinstance(value, bool) != (bool in types)
        ):
            allowed = " or ".join(_TYPE_WORDS[t] for t in types)
            raise ValueError(
                f"model file header key '{key}' must be {allowed}, got {json.dumps(value)}"
            )
    if not isinstance(payload[groups], dict):
        raise ValueError(f"model file '{groups}' must map weight-group names to matrices")


def weight_group(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """A model file's weight group as an array, checked against its declared shape."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"weight group '{name}' is not a numeric matrix") from None
    if arr.shape != shape:
        raise ValueError(
            f"weight group '{name}' has shape {arr.shape}; "
            f"the declared architecture needs {shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"weight group '{name}' has non-finite entries")
    return arr


class ParameterStore:
    """Parameter bookkeeping and the model file format both models share.

    A model declares
    * ``groups()``: its weight groups as (name, array) pairs in file order,
      each array the live storage that training and loading update in place;
    * ``frozen()``: the names of the groups that training leaves alone
      (none unless overridden);
    * ``HEADER``: file header key -> (constructor argument, allowed types,
      required), in file order; the argument also names the attribute;
    * ``kind`` and ``GROUPS``: the file's kind and the key that maps group
      names to matrices;
    and trainables, tape leaves, snapshots and the file format follow from those.
    """

    kind: str
    HEADER: dict[str, tuple[str, tuple[type, ...], bool]]
    GROUPS: str

    def frozen(self) -> set[str]:
        return set()

    def trainables(self) -> list[tuple[str, np.ndarray]]:
        frozen = self.frozen()
        return [(name, arr) for name, arr in self.groups() if name not in frozen]

    def make_param_nodes(self, trainable: bool = True) -> dict[str, Node]:
        """Tape leaves of every group: parameters of the trainable groups when
        ``trainable``, constants otherwise."""
        frozen = self.frozen() if trainable else None
        return {
            name: ad.parameter(arr) if trainable and name not in frozen else ad.constant(arr)
            for name, arr in self.groups()
        }

    def snapshot(self) -> list[np.ndarray]:
        return [arr.copy() for _, arr in self.trainables()]

    def restore(self, snap: list[np.ndarray]) -> None:
        for (_, arr), saved in zip(self.trainables(), snap):
            arr[...] = saved

    def parameter_count(self) -> int:
        return sum(arr.size for _, arr in self.trainables())

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            **{key: getattr(self, arg) for key, (arg, _, _) in self.HEADER.items()},
            self.GROUPS: {name: arr.tolist() for name, arr in self.groups()},
        }

    @classmethod
    def from_json(cls, payload: dict):
        """The model a file declares, every declared group filled from the file.

        A missing group and an undeclared one are both errors naming it.
        """
        check_header(payload, cls.kind, cls.HEADER, cls.GROUPS)
        given = {arg: payload[key] for key, (arg, _, _) in cls.HEADER.items() if key in payload}
        model = cls(**given)
        stored = payload[cls.GROUPS]
        declared = dict(model.groups())
        for name in [*declared, *sorted(stored)]:
            if name not in stored:
                raise ValueError(f"model file is missing weight group '{name}'")
            if name not in declared:
                raise ValueError(f"weight group '{name}' is not in the declared architecture")
        for name, arr in declared.items():
            arr[...] = weight_group(name, stored[name], arr.shape)
        return model

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)

    @classmethod
    def load(cls, path):
        return cls.from_json(read_json(path))


def _identity_block(universe: int, width: int) -> np.ndarray:
    block = np.zeros((universe, width))
    block[:, :universe] = np.eye(universe)
    return block


class FeaturelessModel(ParameterStore):
    """Interaction-order-controlled utility model over an indexed universe.

    Parameters are plain float64 arrays mutated in place by the optimizer;
    each forward pass wraps them in fresh tape nodes.
    """

    kind = "featureless"
    HEADER = {
        "J": ("universe", SIZE, True),
        "J_prime": ("width", SIZE, True),
        "L": ("depth", SIZE, True),
        "activation": ("activation", NAME, True),
        "rank_H": ("rank", SIZE + NULL, False),
        "output_mode": ("output_mode", NAME, False),
        "first_layer_residual": ("first_layer_residual", FLAG, False),
        "interactions_trainable": ("interactions_trainable", FLAG, False),
    }
    GROUPS = "matrices"

    def __init__(
        self,
        universe: int,
        width: int,
        depth: int,
        activation: str = "quadratic",
        rank: int | None = None,
        output_mode: str = "dense",
        first_layer_residual: bool = True,
        interactions_trainable: bool = True,
        seed: int = 0,
    ):
        if universe < 1:
            raise ValueError("universe must be positive")
        if width < universe:
            raise ValueError(f"width {width} must be at least universe {universe}")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if output_mode not in OUTPUT_MODES:
            raise ValueError(f"output_mode must be one of {OUTPUT_MODES}")
        if rank is not None and rank < 1:
            raise ValueError("rank must be positive when given")
        self.universe = universe
        self.width = width
        self.depth = depth
        self.activation = activation
        self.rank = rank
        self.output_mode = output_mode
        self.first_layer_residual = first_layer_residual
        self.interactions_trainable = interactions_trainable

        rng = np.random.default_rng(seed)
        self.layers: list = []
        for layer in range(depth):
            in_dim = universe if layer == 0 else width
            if rank is None:
                self.layers.append(rng.normal(0.0, INIT_SCALE, size=(width, in_dim)))
            else:
                factor_scale = math.sqrt(INIT_SCALE)
                left = rng.normal(0.0, factor_scale, size=(rank, width))
                right = rng.normal(0.0, factor_scale, size=(rank, in_dim))
                self.layers.append((left, right))
        if output_mode == "dense":
            self.readout = _identity_block(universe, width) + rng.normal(
                0.0, INIT_SCALE, size=(universe, width)
            )
        elif output_mode == "diagonal":
            self.readout = 1.0 + rng.normal(0.0, INIT_SCALE, size=(universe, 1))
        else:
            self.readout = None  # fixed [I | 0]

    # -- presets ------------------------------------------------------------

    @classmethod
    def deephalo(
        cls,
        universe: int,
        width: int | None = None,
        depth: int = 2,
        activation: str = "quadratic",
        rank: int | None = None,
        seed: int = 0,
    ) -> "FeaturelessModel":
        return cls(
            universe,
            width if width is not None else universe,
            depth,
            activation,
            rank=rank,
            seed=seed,
        )

    @classmethod
    def mnl(cls, universe: int, seed: int = 0) -> "FeaturelessModel":
        """Set-independent utilities: frozen zero interactions, trainable
        per-item readout."""
        model = cls(
            universe,
            universe,
            1,
            "linear",
            output_mode="diagonal",
            interactions_trainable=False,
            seed=seed,
        )
        model.layers = [np.zeros((universe, universe))]
        return model

    @classmethod
    def cmnl(cls, universe: int, seed: int = 0) -> "FeaturelessModel":
        """First-order contextual model: one dense linear layer, the
        readout frozen to the identity."""
        return cls(universe, universe, 1, "linear", output_mode="identity", seed=seed)

    # -- parameters ----------------------------------------------------------

    def groups(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            if self.rank is None:
                out.append((f"layer{i}", layer))
            else:
                out += [(f"layer{i}.left", layer[0]), (f"layer{i}.right", layer[1])]
        if self.output_mode != "identity":
            out.append(("readout", self.readout))
        return out

    def frozen(self) -> set[str]:
        if self.interactions_trainable:
            return set()
        return {name for name, _ in self.groups() if name != "readout"}

    def _layer_node(self, nodes: dict[str, Node], i: int) -> Node:
        if self.rank is None:
            return nodes[f"layer{i}"]
        return ad.matmul(ad.transpose(nodes[f"layer{i}.left"]), nodes[f"layer{i}.right"])

    # -- forward -------------------------------------------------------------

    def utilities_node(self, nodes: dict[str, Node], sets) -> tuple[Node, np.ndarray]:
        """Tape forward of offered sets as columns.

        Returns the (universe x sets) utility matrix and its mask.  Every
        contraction reads one column, so column ``g`` equals the forward of
        ``sets[g]`` alone.
        """
        mask = check_sets(sets, self.universe)
        member = mask.astype(float)
        lift = np.zeros((self.width, len(sets)))
        lift[: self.universe] = member

        y = ad.constant(lift)
        increment = ad.matmul(self._layer_node(nodes, 0), ad.constant(member))
        y = ad.add(y, increment) if self.first_layer_residual else increment

        if self.activation == "linear" and self.depth > 1:
            # Extra coordinates stay unmasked so they can carry composites.
            gate = np.ones((self.width, len(sets)))
            gate[: self.universe] = member
            gate_node = ad.constant(gate)
        for layer in range(1, self.depth):
            if self.activation == "linear":
                inner = ad.hadamard(y, gate_node)
            else:
                inner = ad.elementwise_square(y)
            y = ad.add(y, ad.matmul(self._layer_node(nodes, layer), inner))

        if self.output_mode == "dense":
            return ad.matmul(nodes["readout"], y), mask
        projected = ad.matmul(
            ad.constant(_identity_block(self.universe, self.width)), y
        )
        if self.output_mode == "identity":
            return projected, mask
        # A k = 1 product: each column is the readout itself.
        readout = ad.matmul(nodes["readout"], ad.constant(np.ones((1, len(sets)))))
        return ad.hadamard(readout, projected), mask

    def forward(self, choice_set) -> UtilityVector:
        """Utilities over the universe: finite on the set, -inf elsewhere."""
        ids = getattr(choice_set, "items", choice_set)
        u, mask = self.utilities_node(self.make_param_nodes(trainable=False), [ids])
        return UtilityVector(np.where(mask[:, 0], u.value[:, 0], -np.inf), mask[:, 0])

    def set_utilities(self, ids) -> np.ndarray:
        """Utilities aligned with ``ids`` order (halo-extraction hook)."""
        return self.batch_set_utilities([ids])[0]

    def batch_set_utilities(self, sets) -> list[np.ndarray]:
        """:meth:`set_utilities` of each set, all sets as columns of one tape."""
        sets = list(map(tuple, sets))
        u, _ = self.utilities_node(self.make_param_nodes(trainable=False), sets)  # checks them
        ids, sizes = set_ids(sets)
        values = u.value[ids, np.arange(len(sizes)).repeat(sizes)]
        # Each set gets its own array, as a gather per set would give: a view
        # would keep the batch's array alive, and a caller that keeps many
        # of them reads each through an extra object.
        return list(map(np.ndarray.copy, split_sets(values, sizes)))

    def probabilities(self, choice_set) -> np.ndarray:
        return choice_probabilities(self.forward(choice_set))

    def predict(self, sets) -> tuple[np.ndarray, np.ndarray]:
        """(universe x sets) probabilities, one offered set per column, and the mask."""
        u, mask = self.utilities_node(self.make_param_nodes(trainable=False), sets)
        return column_probabilities(u.value, mask), mask

    # -- training hooks --------------------------------------------------------
    # Grouping and the loss head live in ``training``.  A configuration is
    # the sorted offered set, and an observation's row in its utility
    # column is the chosen item id: slot j's row is the id in slot j.

    def group_key(self, choice_set, features):
        ids = tuple(sorted(choice_set.items))
        return ids, ids, choice_set.items

    loss_node = training.observations_loss
