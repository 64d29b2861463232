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

import numpy as np

from . import autodiff as ad
from . import training
from .autodiff import DegenerateSetError, Node

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


def _identity_block(universe: int, width: int) -> np.ndarray:
    block = np.zeros((universe, width))
    block[:, :universe] = np.eye(universe)
    return block


class FeaturelessModel:
    """Interaction-order-controlled utility model over an indexed universe.

    Parameters are plain float64 arrays mutated in place by the optimizer;
    each forward pass wraps them in fresh tape nodes.
    """

    kind = "featureless"

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

    def trainables(self) -> list[tuple[str, np.ndarray]]:
        out = []
        if self.interactions_trainable:
            for i, layer in enumerate(self.layers):
                if self.rank is None:
                    out.append((f"layer{i}", layer))
                else:
                    out.append((f"layer{i}.left", layer[0]))
                    out.append((f"layer{i}.right", layer[1]))
        if self.output_mode != "identity":
            out.append(("readout", self.readout))
        return out

    def make_param_nodes(self, trainable: bool = True) -> dict[str, Node]:
        wrap = ad.parameter if trainable else ad.constant
        trainable_names = {name for name, _ in self.trainables()}
        nodes = {}

        def lift(name, array):
            nodes[name] = wrap(array) if name in trainable_names else ad.constant(array)

        for i, layer in enumerate(self.layers):
            if self.rank is None:
                lift(f"layer{i}", layer)
            else:
                lift(f"layer{i}.left", layer[0])
                lift(f"layer{i}.right", layer[1])
        if self.output_mode != "identity":
            lift("readout", self.readout)
        return nodes

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
        mask = np.zeros((self.universe, len(sets)), dtype=bool)
        for g, ids in enumerate(sets):
            mask[list(check_ids(ids, self.universe)), g] = True
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
        ids = check_ids(ids, self.universe)
        return self.forward(ids).values[list(ids)]

    def probabilities(self, choice_set) -> np.ndarray:
        return choice_probabilities(self.forward(choice_set))

    def set_probabilities(self, sets) -> tuple[np.ndarray, np.ndarray]:
        """(universe x sets) probabilities, one offered set per column, and the mask."""
        u, mask = self.utilities_node(self.make_param_nodes(trainable=False), sets)
        return column_probabilities(u.value, mask), mask

    # -- training hooks --------------------------------------------------------
    # Grouping and the loss head live in ``training``; a row of a utility
    # column, and so ``chosen_slot``, is an item id.

    def group_key(self, obs):
        return tuple(sorted(obs.choice_set.items))

    def chosen_slot(self, obs) -> int:
        return obs.chosen

    def utilities_and_mask(self, nodes: dict[str, Node], observations) -> tuple[Node, np.ndarray]:
        """Tape utilities and mask of the observations' offered sets, as columns."""
        return self.utilities_node(nodes, [obs.choice_set.items for obs in observations])

    def loss_node(self, nodes: dict[str, Node], observations, kind: str) -> Node:
        return training.observations_loss(self, nodes, observations, kind)

    def predict(self, observations) -> tuple[np.ndarray, np.ndarray]:
        """(universe x observations) probabilities and the offered-item mask."""
        return self.set_probabilities([obs.choice_set.items for obs in observations])

    def snapshot(self) -> list[np.ndarray]:
        return [arr.copy() for _, arr in self.trainables()]

    def restore(self, snap: list[np.ndarray]) -> None:
        for (_, arr), saved in zip(self.trainables(), snap):
            arr[...] = saved

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        matrices = {}
        for i, layer in enumerate(self.layers):
            if self.rank is None:
                matrices[f"layer{i}"] = layer.tolist()
            else:
                matrices[f"layer{i}.left"] = layer[0].tolist()
                matrices[f"layer{i}.right"] = layer[1].tolist()
        if self.readout is not None:
            matrices["readout"] = self.readout.tolist()
        return {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "J": self.universe,
            "J_prime": self.width,
            "L": self.depth,
            "activation": self.activation,
            "rank_H": self.rank,
            "output_mode": self.output_mode,
            "first_layer_residual": self.first_layer_residual,
            "interactions_trainable": self.interactions_trainable,
            "matrices": matrices,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FeaturelessModel":
        if payload.get("kind") != cls.kind:
            raise ValueError(f"expected kind '{cls.kind}', got {payload.get('kind')!r}")
        if payload.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {payload.get('format_version')}")
        model = cls(
            payload["J"],
            payload["J_prime"],
            payload["L"],
            payload["activation"],
            rank=payload.get("rank_H"),
            output_mode=payload.get("output_mode", "dense"),
            first_layer_residual=payload.get("first_layer_residual", True),
            interactions_trainable=payload.get("interactions_trainable", True),
        )
        matrices = payload["matrices"]
        for i in range(model.depth):
            if model.rank is None:
                model.layers[i] = np.array(matrices[f"layer{i}"], dtype=float)
            else:
                model.layers[i] = (
                    np.array(matrices[f"layer{i}.left"], dtype=float),
                    np.array(matrices[f"layer{i}.right"], dtype=float),
                )
        if model.output_mode != "identity":
            model.readout = np.array(matrices["readout"], dtype=float)
        return model

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "FeaturelessModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def parameter_count(self) -> int:
        return sum(arr.size for _, arr in self.trainables())
