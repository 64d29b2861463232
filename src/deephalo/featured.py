"""Feature-based context-dependent choice model.

Each offered alternative's feature column is embedded by a shared
three-layer perceptron.  Every residual layer then

1. aggregates the current representations of the real alternatives into a
   per-head context summary (a masked mean of a linear map, optionally of
   the squared representations), and
2. shifts each alternative's representation by the head-weighted product
   of that summary with a modulator network evaluated on the *base*
   embedding.

Evaluating the modulators on the base embedding rather than the running
state is what caps the interaction order at one extra order per layer.
Utilities are a linear readout of the final representations; dummy slots
are re-zeroed after every stage and read probability exactly zero.

The ``resnet`` variant drops head modulation and adds the aggregated
context vector itself back to every alternative.
"""

from __future__ import annotations

import json

import numpy as np

from . import autodiff as ad
from . import training
from .autodiff import Node
from .featureless import UtilityVector, check_ids, choice_probabilities

FORMAT_VERSION = 1

SIGMAS = ("identity", "quadratic")
VARIANTS = ("heads", "resnet")
AGGREGATIONS = ("mean", "sum")


def _uniform_fanin(rng, rows: int, cols: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(cols)
    return rng.uniform(-bound, bound, size=(rows, cols))


def _uniform_bias(rng, rows: int, fan_in: int) -> np.ndarray:
    # Nonzero bias init keeps relu preactivations off the exact kink even
    # when an entire upstream column is clipped to zero.
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(rows, 1))


class FeaturedModel:
    kind = "featured"

    def __init__(
        self,
        feature_dim: int,
        embed_dim: int,
        heads: int,
        depth: int,
        sigma: str = "identity",
        variant: str = "heads",
        aggregation: str = "mean",
        layer_norm: bool = True,
        seed: int = 0,
    ):
        if feature_dim < 1 or embed_dim < 1 or heads < 1 or depth < 1:
            raise ValueError("feature_dim, embed_dim, heads, depth must be positive")
        if sigma not in SIGMAS:
            raise ValueError(f"sigma must be one of {SIGMAS}")
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
        self.feature_dim = feature_dim
        self.embed_dim = embed_dim
        self.heads = heads
        self.depth = depth
        self.sigma = sigma
        self.variant = variant
        # Mean aggregation ties the context scale to the set size; sum
        # aggregation keeps utilities polynomial in set membership, which
        # one-hot order-truncation analysis relies on.
        self.aggregation = aggregation
        self.layer_norm = layer_norm

        d, dx, h = embed_dim, feature_dim, heads
        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {}
        p = self.params
        p["embed.w1"] = _uniform_fanin(rng, d, dx)
        p["embed.b1"] = _uniform_bias(rng, d, dx)
        p["embed.w2"] = _uniform_fanin(rng, d, d)
        p["embed.b2"] = _uniform_bias(rng, d, d)
        p["embed.w3"] = _uniform_fanin(rng, d, d)
        p["embed.b3"] = _uniform_bias(rng, d, d)
        if layer_norm:
            p["embed.ln_gain"] = np.ones((d, 1))
            p["embed.ln_bias"] = np.zeros((d, 1))
        for l in range(depth):
            agg_rows = d if variant == "resnet" else h
            p[f"layer{l}.agg"] = _uniform_fanin(rng, agg_rows, d)
            if variant == "heads":
                for i in range(h):
                    p[f"layer{l}.head{i}.w"] = _uniform_fanin(rng, d, d)
                    p[f"layer{l}.head{i}.b"] = _uniform_bias(rng, d, d)
                p[f"layer{l}.shared_w"] = _uniform_fanin(rng, d, d)
                p[f"layer{l}.shared_b"] = _uniform_bias(rng, d, d)
                if layer_norm:
                    p[f"layer{l}.ln_gain"] = np.ones((d, 1))
                    p[f"layer{l}.ln_bias"] = np.zeros((d, 1))
        p["readout"] = rng.normal(0.0, 0.02, size=(1, d))

    # -- parameters ------------------------------------------------------------

    def trainables(self) -> list[tuple[str, np.ndarray]]:
        return list(self.params.items())

    def make_param_nodes(self, trainable: bool = True) -> dict[str, Node]:
        wrap = ad.parameter if trainable else ad.constant
        return {name: wrap(arr) for name, arr in self.params.items()}

    def snapshot(self) -> list[np.ndarray]:
        return [arr.copy() for _, arr in self.trainables()]

    def restore(self, snap) -> None:
        for (_, arr), saved in zip(self.trainables(), snap):
            arr[...] = saved

    def parameter_count(self) -> int:
        return sum(arr.size for arr in self.params.values())

    # -- forward pieces ----------------------------------------------------------

    def _check_inputs(self, features: np.ndarray, mask: np.ndarray):
        features = np.asarray(features, dtype=float)
        mask = np.asarray(mask, dtype=bool).ravel()
        if features.ndim != 2 or features.shape[0] != self.feature_dim:
            raise ValueError(
                f"feature matrix must be {self.feature_dim} x slots, "
                f"got shape {features.shape}"
            )
        if mask.size != features.shape[1]:
            raise ValueError("mask length must equal the slot count")
        if features[:, ~mask].size and np.any(features[:, ~mask] != 0.0):
            raise ValueError("dummy feature columns must be exactly zero")
        return features, mask

    def _mask_columns(self, z: Node, mask: np.ndarray) -> Node:
        gate = np.repeat(mask[None, :].astype(float), z.value.shape[0], axis=0)
        return ad.hadamard(z, ad.constant(gate))

    def embed_node(self, nodes, features: np.ndarray, mask: np.ndarray) -> Node:
        x = ad.constant(features)
        h1 = ad.relu(ad.add_bias(ad.matmul(nodes["embed.w1"], x), nodes["embed.b1"]))
        h2 = ad.relu(ad.add_bias(ad.matmul(nodes["embed.w2"], h1), nodes["embed.b2"]))
        h3 = ad.add_bias(ad.matmul(nodes["embed.w3"], h2), nodes["embed.b3"])
        if self.layer_norm:
            h3 = ad.layer_norm(h3, nodes["embed.ln_gain"], nodes["embed.ln_bias"])
        return self._mask_columns(h3, mask)

    def _modulator_node(self, nodes, l: int, head: int, base: Node) -> Node:
        hid = ad.relu(
            ad.add_bias(
                ad.matmul(nodes[f"layer{l}.head{head}.w"], base),
                nodes[f"layer{l}.head{head}.b"],
            )
        )
        out = ad.add_bias(
            ad.matmul(nodes[f"layer{l}.shared_w"], hid), nodes[f"layer{l}.shared_b"]
        )
        if self.layer_norm:
            out = ad.layer_norm(out, nodes[f"layer{l}.ln_gain"], nodes[f"layer{l}.ln_bias"])
        return out

    def layer_node(self, nodes, l: int, z_prev: Node, base: Node, mask: np.ndarray) -> Node:
        inner = z_prev if self.sigma == "identity" else ad.elementwise_square(z_prev)
        pooled = ad.matmul(nodes[f"layer{l}.agg"], inner)
        if self.aggregation == "mean":
            context = ad.mean_over_columns(pooled, mask)
        else:
            context = ad.sum_over_columns(pooled, mask)
        if self.variant == "resnet":
            z = ad.add_bias(z_prev, context)
        else:
            shift = None
            for head in range(self.heads):
                modulated = ad.scale_by(
                    self._modulator_node(nodes, l, head, base),
                    ad.slice_entry(context, head, 0),
                )
                shift = modulated if shift is None else ad.add(shift, modulated)
            z = ad.add(z_prev, ad.scale(shift, 1.0 / self.heads))
        return self._mask_columns(z, mask)

    def utilities_node(self, nodes, features: np.ndarray, mask: np.ndarray) -> Node:
        """Tape forward; returns a slots-length utility column."""
        features, mask = self._check_inputs(features, mask)
        base = self.embed_node(nodes, features, mask)
        z = base
        for l in range(self.depth):
            z = self.layer_node(nodes, l, z, base, mask)
        return ad.transpose(ad.matmul(nodes["readout"], z))

    # -- public surface ------------------------------------------------------------

    def embed(self, features, mask) -> np.ndarray:
        features, mask = self._check_inputs(np.asarray(features, float), mask)
        nodes = self.make_param_nodes(trainable=False)
        return self.embed_node(nodes, features, mask).value

    def layer_states(self, features, mask) -> list[np.ndarray]:
        """Representations [z0, z1, ..., zL] for inspection."""
        features, mask = self._check_inputs(np.asarray(features, float), mask)
        nodes = self.make_param_nodes(trainable=False)
        base = self.embed_node(nodes, features, mask)
        states = [base.value]
        z = base
        for l in range(self.depth):
            z = self.layer_node(nodes, l, z, base, mask)
            states.append(z.value)
        return states

    def forward(self, features, mask) -> UtilityVector:
        features, mask = self._check_inputs(np.asarray(features, float), mask)
        nodes = self.make_param_nodes(trainable=False)
        u = self.utilities_node(nodes, features, mask)
        values = np.full(mask.size, -np.inf)
        values[mask] = u.value[mask, 0]
        return UtilityVector(values, mask)

    def probabilities(self, features, mask) -> np.ndarray:
        return choice_probabilities(self.forward(features, mask))

    # -- training hooks ------------------------------------------------------------
    # Grouping and the loss head live in ``training``; a row of the utility
    # column, and so ``chosen_slot``, is a slot.

    def group_key(self, obs):
        if obs.features is None:
            raise ValueError("featured model requires observations with features")
        return (obs.features.tobytes(), obs.choice_set.mask.tobytes())

    def chosen_slot(self, obs) -> int:
        return obs.chosen_slot

    def utilities_and_mask(self, nodes, obs) -> tuple[Node, np.ndarray]:
        """Tape utilities of the observation's slots and its slot mask."""
        mask = obs.choice_set.mask
        return self.utilities_node(nodes, obs.features, mask), mask

    def loss_node(self, nodes, observations, kind: str) -> Node:
        return training.observations_loss(self, nodes, observations, kind)

    def predict(self, obs) -> tuple[np.ndarray, np.ndarray]:
        """(slot probabilities, real slot indices)."""
        probs = self.probabilities(obs.features, obs.choice_set.mask)
        return probs, np.flatnonzero(obs.choice_set.mask)

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "d_x": self.feature_dim,
            "d": self.embed_dim,
            "H": self.heads,
            "L": self.depth,
            "sigma": self.sigma,
            "variant": self.variant,
            "aggregation": self.aggregation,
            "layer_norm": self.layer_norm,
            "weights": {name: arr.tolist() for name, arr in self.params.items()},
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FeaturedModel":
        if payload.get("kind") != cls.kind:
            raise ValueError(f"expected kind '{cls.kind}', got {payload.get('kind')!r}")
        if payload.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {payload.get('format_version')}")
        model = cls(
            payload["d_x"],
            payload["d"],
            payload["H"],
            payload["L"],
            sigma=payload["sigma"],
            variant=payload["variant"],
            aggregation=payload.get("aggregation", "mean"),
            layer_norm=payload.get("layer_norm", True),
        )
        weights = payload["weights"]
        if set(weights) != set(model.params):
            raise ValueError("weight groups do not match the declared architecture")
        for name in model.params:
            model.params[name] = np.array(weights[name], dtype=float)
        return model

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "FeaturedModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


class CatalogSetModel:
    """Set-utility view of a featured model over a fixed item catalog.

    Items are identified by their column in ``item_features``; evaluating
    a subset builds the padded feature matrix for exactly those items.
    This is the bridge that lets halo extraction run on feature-based
    models (one-hot catalogs recover the featureless reading).
    """

    def __init__(self, model: FeaturedModel, item_features: np.ndarray):
        item_features = np.asarray(item_features, dtype=float)
        if item_features.ndim != 2 or item_features.shape[0] != model.feature_dim:
            raise ValueError(
                f"catalog must be {model.feature_dim} x items, got {item_features.shape}"
            )
        self.model = model
        self.item_features = item_features
        self.universe = item_features.shape[1]

    def set_utilities(self, ids) -> np.ndarray:
        ids = check_ids(ids, self.universe)
        width = self.universe
        x = np.zeros((self.model.feature_dim, width))
        mask = np.zeros(width, dtype=bool)
        for slot, item in enumerate(ids):
            x[:, slot] = self.item_features[:, item]
            mask[slot] = True
        return self.model.forward(x, mask).values[: len(ids)]
