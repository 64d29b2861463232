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
read probability exactly zero.

A batch of observations runs as one column block over their real slots:
the real feature columns of all observations are concatenated into one
(d_x x C) matrix, and every stage works on the (d x C) state.  The
embedding, the modulators, layer norm and the readout work column by
column; the context pooling is the only step that crosses columns, and it
stays within each observation (``autodiff`` segment ops).  Dummy slots are
never computed, so an observation's utilities are the same bits alone, in
any batch and at any padded width.

Every weight-times-state product (embedding, modulators, aggregation,
readout) is ``autodiff.weight_matmul``.  It contracts over hidden units,
which no symmetry of the model permutes, so it adds its products in index
order rather than sorting them; permuting the offered slots permutes the
columns, and each column is computed from its own slot alone.  The
weight gradients sum over columns and stay sorted, so training does not
depend on the order of the observations in a batch or of their slots.

The ``resnet`` variant drops head modulation and adds the aggregated
context vector itself back to every alternative.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import training
from .autodiff import Node
from .featureless import (
    FLAG,
    NAME,
    SIZE,
    ParameterStore,
    UtilityVector,
    check_header,
    check_ids,
    choice_probabilities,
    column_probabilities,
    weight_group,
)

FORMAT_VERSION = 1

# Configurations per forward-only tape in ``predict`` and catalog halo forwards:
# bounds the tape held at once, so peak memory does not grow with their number.
PREDICT_BLOCK = 16

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


class FeaturedModel(ParameterStore):
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

    def embed_node(self, nodes, x: Node) -> Node:
        h1 = ad.relu(ad.add_bias(ad.weight_matmul(nodes["embed.w1"], x), nodes["embed.b1"]))
        h2 = ad.relu(ad.add_bias(ad.weight_matmul(nodes["embed.w2"], h1), nodes["embed.b2"]))
        h3 = ad.add_bias(ad.weight_matmul(nodes["embed.w3"], h2), nodes["embed.b3"])
        if self.layer_norm:
            h3 = ad.layer_norm(h3, nodes["embed.ln_gain"], nodes["embed.ln_bias"])
        return h3

    def _modulator_node(self, nodes, l: int, head: int, base: Node) -> Node:
        hid = ad.relu(
            ad.add_bias(
                ad.weight_matmul(nodes[f"layer{l}.head{head}.w"], base),
                nodes[f"layer{l}.head{head}.b"],
            )
        )
        out = ad.add_bias(
            ad.weight_matmul(nodes[f"layer{l}.shared_w"], hid), nodes[f"layer{l}.shared_b"]
        )
        if self.layer_norm:
            out = ad.layer_norm(out, nodes[f"layer{l}.ln_gain"], nodes[f"layer{l}.ln_bias"])
        return out

    def layer_node(self, nodes, l: int, z_prev: Node, base: Node, seg: ad.Segments) -> Node:
        inner = z_prev if self.sigma == "identity" else ad.elementwise_square(z_prev)
        pooled = ad.weight_matmul(nodes[f"layer{l}.agg"], inner)
        if self.aggregation == "mean":
            context = ad.segment_mean(pooled, seg)
        else:
            context = ad.segment_sum(pooled, seg)
        if self.variant == "resnet":
            return ad.segment_bias(z_prev, context, seg)
        shift = None
        for head in range(self.heads):
            modulated = ad.segment_scale(
                self._modulator_node(nodes, l, head, base), context, seg, head
            )
            shift = modulated if shift is None else ad.add(shift, modulated)
        return ad.add(z_prev, ad.scale(shift, 1.0 / self.heads))

    def utilities_node(self, nodes, blocks, states: list | None = None) -> tuple[Node, np.ndarray]:
        """Tape forward of a batch of observations as one column block.

        ``blocks`` holds one (features, mask) pair per observation.  The
        real slots of all of them are the columns of one tape; dummy slots
        are never computed.  Returns the (slots x observations) utility
        matrix, zero at dummy slots, and its real-slot mask.  When
        ``states`` is a list, the representations z0, ..., zL of the real
        slots (d x C) are appended to it.
        """
        checked = [self._check_inputs(features, mask) for features, mask in blocks]
        seg = ad.Segments([mask for _, mask in checked])
        x = ad.constant(np.concatenate([f[:, mask] for f, mask in checked], axis=1))
        z = base = self.embed_node(nodes, x)
        if states is not None:
            states.append(z)
        for l in range(self.depth):
            z = self.layer_node(nodes, l, z, base, seg)
            if states is not None:
                states.append(z)
        return ad.scatter_slots(ad.weight_matmul(nodes["readout"], z), seg), seg.mask

    # -- public surface ------------------------------------------------------------

    def layer_states(self, features, mask) -> list[np.ndarray]:
        """Representations [z0, z1, ..., zL] for inspection; dummy columns read 0."""
        states: list[Node] = []
        _, slots = self.utilities_node(
            self.make_param_nodes(trainable=False), [(features, mask)], states
        )
        out = []
        for z in states:
            padded = np.zeros((self.embed_dim, slots.shape[0]))
            padded[:, slots[:, 0]] = z.value
            out.append(padded)
        return out

    def embed(self, features, mask) -> np.ndarray:
        return self.layer_states(features, mask)[0]

    def forward(self, features, mask) -> UtilityVector:
        u, slots = self.utilities_node(
            self.make_param_nodes(trainable=False), [(features, mask)]
        )
        return UtilityVector(np.where(slots[:, 0], u.value[:, 0], -np.inf), slots[:, 0])

    def probabilities(self, features, mask) -> np.ndarray:
        return choice_probabilities(self.forward(features, mask))

    def _blocked_utilities(self, configs, rows: int, block=lambda pair: pair):
        """(rows x configurations) utilities and real-slot mask, ``PREDICT_BLOCK`` per tape.

        ``block(config)`` gives a configuration's (features, mask) pair, built
        just before its tape runs; each tape is dropped once its utilities are
        copied out.  A column equals the pair's own forward bit for bit.
        """
        nodes = self.make_param_nodes(trainable=False)
        values = np.zeros((rows, len(configs)))
        real = np.zeros(values.shape, dtype=bool)
        for lo in range(0, len(configs), PREDICT_BLOCK):
            chunk = [block(config) for config in configs[lo : lo + PREDICT_BLOCK]]
            u, slots = self.utilities_node(nodes, chunk)
            values[: slots.shape[0], lo : lo + slots.shape[1]] = u.value
            real[: slots.shape[0], lo : lo + slots.shape[1]] = slots
        return values, real

    # -- training hooks ------------------------------------------------------------
    # Grouping and the loss head live in ``training``.  A configuration is
    # the (features, mask) pair, and an observation's row in its utility
    # column is the chosen slot.

    def group_key(self, obs):
        if obs.features is None:
            raise ValueError("featured model requires observations with features")
        mask = obs.choice_set.mask
        return (obs.features.tobytes(), mask.tobytes()), (obs.features, mask), obs.chosen_slot

    def loss_node(self, nodes, observations, kind: str) -> Node:
        return training.observations_loss(self, nodes, observations, kind)

    def predict(self, blocks) -> tuple[np.ndarray, np.ndarray]:
        """(slots x configurations) probabilities and the real-slot mask.

        ``blocks`` holds one (features, mask) pair per configuration.
        """
        values, mask = self._blocked_utilities(blocks, max(np.size(m) for _, m in blocks))
        return column_probabilities(values, mask), mask

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
        check_header(
            payload,
            cls.kind,
            FORMAT_VERSION,
            {"d_x": SIZE, "d": SIZE, "H": SIZE, "L": SIZE, "sigma": NAME, "variant": NAME},
            {"aggregation": NAME, "layer_norm": FLAG},
            "weights",
        )
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
        unmatched = sorted(set(model.params) ^ set(weights))
        if unmatched:
            name = unmatched[0]
            state = "is missing" if name in model.params else "is not in the declared architecture"
            raise ValueError(f"weight group '{name}' {state}")
        for name, declared in model.params.items():
            model.params[name] = weight_group(name, weights[name], declared.shape)
        return model


class CatalogSetModel:
    """Set-utility view of a featured model over a fixed item catalog.

    Items are identified by their column in ``item_features``; evaluating
    a subset builds the feature matrix of exactly those items.
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

    def _block(self, ids: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Features and all-real mask of the checked offered set ``ids``."""
        return self.item_features[:, list(ids)], np.ones(len(ids), dtype=bool)

    def set_utilities(self, ids) -> np.ndarray:
        """Utilities aligned with ``ids`` order (halo-extraction hook).

        One set is one :meth:`FeaturedModel.forward`, so a traced run counts
        each per-set halo forward as a featured forward.
        """
        return self.model.forward(*self._block(check_ids(ids, self.universe))).values

    def batch_set_utilities(self, sets) -> list[np.ndarray]:
        """:meth:`set_utilities` of each set, ``PREDICT_BLOCK`` sets per tape."""
        sets = [check_ids(ids, self.universe) for ids in sets]
        rows = max(map(len, sets), default=0)
        values, _ = self.model._blocked_utilities(sets, rows, self._block)
        return [values[: len(ids), g] for g, ids in enumerate(sets)]
