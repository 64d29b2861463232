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
(d_x x C) matrix, and every stage works on the (d x C) state.  Dummy slots
are never computed, so an observation's utilities are the same bits alone,
in any batch and at any padded width.

The forward has two stages.  The *column stage* is the embedding z0 and
every layer's head modulators: the modulators read the base embedding,
not the running state, and each op of this stage (``weight_matmul``,
``add_bias``, ``relu``, ``layer_norm``) computes a column from that column
alone.  So an item's column-stage values are the same bits in every
offered set, and ``CatalogSetModel`` computes them once per catalog item
and gathers them into each set.  The *set stage* is each layer's context
pooling and modulation, then the readout: the pooling is the only step
that crosses columns, and it stays within each observation (``autodiff``
segment ops).  ``utilities_node`` runs both stages on one tape, so training
and prediction see one graph.

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
    check_sets,
    choice_probabilities,
    column_probabilities,
    set_ids,
    split_sets,
)

# Configurations per forward-only tape in ``predict``, and offered sets per
# set-stage tape in catalog halo forwards: bounds the tape held at once, so
# peak memory does not grow with their number.
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
    HEADER = {
        "d_x": ("feature_dim", SIZE, True),
        "d": ("embed_dim", SIZE, True),
        "H": ("heads", SIZE, True),
        "L": ("depth", SIZE, True),
        "sigma": ("sigma", NAME, True),
        "variant": ("variant", NAME, True),
        "aggregation": ("aggregation", NAME, False),
        "layer_norm": ("layer_norm", FLAG, False),
    }
    GROUPS = "weights"

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

    def groups(self) -> list[tuple[str, np.ndarray]]:
        return list(self.params.items())

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

    def column_stage(self, nodes, x: Node) -> tuple[Node, list[list[Node]]]:
        """The base embedding of the columns of ``x`` and each layer's head modulators.

        Every op here reads only its own column, so a column is the same
        bits at any number of columns beside it.  ``resnet`` layers have no
        modulators.
        """
        base = self.embed_node(nodes, x)
        heads = range(self.heads if self.variant == "heads" else 0)
        return base, [
            [self._modulator_node(nodes, l, head, base) for head in heads]
            for l in range(self.depth)
        ]

    def layer_node(
        self, nodes, l: int, z_prev: Node, modulators: list[Node], seg: ad.Segments
    ) -> Node:
        inner = z_prev if self.sigma == "identity" else ad.elementwise_square(z_prev)
        pooled = ad.weight_matmul(nodes[f"layer{l}.agg"], inner)
        if self.aggregation == "mean":
            context = ad.segment_mean(pooled, seg)
        else:
            context = ad.segment_sum(pooled, seg)
        if self.variant == "resnet":
            return ad.segment_bias(z_prev, context, seg)
        shift = None
        for head, modulator in enumerate(modulators):
            modulated = ad.segment_scale(modulator, context, seg, head)
            shift = modulated if shift is None else ad.add(shift, modulated)
        return ad.add(z_prev, ad.scale(shift, 1.0 / self.heads))

    def set_stage(
        self, nodes, base: Node, modulators, seg: ad.Segments, states: list | None = None
    ) -> tuple[Node, np.ndarray]:
        """Every layer's pooling and modulation, then the readout, over the layout ``seg``.

        ``base`` and ``modulators`` are :meth:`column_stage` columns, one per
        column of ``seg``.  Returns the (slots x observations) utility
        matrix, zero at dummy slots, and its real-slot mask; when ``states``
        is a list, z0, ..., zL (d x C) are appended to it.
        """
        z = base
        if states is not None:
            states.append(z)
        for l in range(self.depth):
            z = self.layer_node(nodes, l, z, modulators[l], seg)
            if states is not None:
                states.append(z)
        return ad.scatter_slots(ad.weight_matmul(nodes["readout"], z), seg), seg.mask

    def utilities_node(self, nodes, blocks, states: list | None = None) -> tuple[Node, np.ndarray]:
        """Tape forward of a batch of observations as one column block.

        ``blocks`` holds one (features, mask) pair per observation.  The
        real slots of all of them are the columns of one tape, through the
        column stage and then the set stage; dummy slots are never
        computed.  Returns :meth:`set_stage`'s utilities and mask, and
        appends to ``states`` as it does.
        """
        checked = [self._check_inputs(features, mask) for features, mask in blocks]
        seg = ad.Segments([mask for _, mask in checked])
        x = ad.constant(np.concatenate([f[:, mask] for f, mask in checked], axis=1))
        return self.set_stage(nodes, *self.column_stage(nodes, x), seg, states)

    # -- public surface ------------------------------------------------------------

    def _padded(self, z: Node, mask: np.ndarray) -> np.ndarray:
        """A (d x C) state of the real slots as (d x slots); dummy columns read 0."""
        padded = np.zeros((self.embed_dim, mask.size))
        padded[:, mask] = z.value
        return padded

    def layer_states(self, features, mask) -> list[np.ndarray]:
        """Representations [z0, z1, ..., zL] for inspection; dummy columns read 0."""
        states: list[Node] = []
        _, slots = self.utilities_node(
            self.make_param_nodes(trainable=False), [(features, mask)], states
        )
        return [self._padded(z, slots[:, 0]) for z in states]

    def embed(self, features, mask) -> np.ndarray:
        """The base embedding z0, ``layer_states(...)[0]``; dummy columns read 0."""
        return self.layer_states(features, mask)[0]

    def forward(self, features, mask) -> UtilityVector:
        u, slots = self.utilities_node(
            self.make_param_nodes(trainable=False), [(features, mask)]
        )
        return UtilityVector(np.where(slots[:, 0], u.value[:, 0], -np.inf), slots[:, 0])

    def probabilities(self, features, mask) -> np.ndarray:
        return choice_probabilities(self.forward(features, mask))

    def _blocked_utilities(self, configs, rows: int, run):
        """(rows x configurations) utilities and real-slot mask, ``PREDICT_BLOCK`` per tape.

        ``run(chunk)`` builds and runs the forward-only tape of up to
        ``PREDICT_BLOCK`` configurations, just before its utilities are
        needed, and returns its utilities node and real-slot mask; each tape
        is dropped once its utilities are copied out.
        """
        values = np.zeros((rows, len(configs)))
        real = np.zeros(values.shape, dtype=bool)
        for lo in range(0, len(configs), PREDICT_BLOCK):
            u, slots = run(configs[lo : lo + PREDICT_BLOCK])
            values[: slots.shape[0], lo : lo + slots.shape[1]] = u.value
            real[: slots.shape[0], lo : lo + slots.shape[1]] = slots
        return values, real

    # -- training hooks ------------------------------------------------------------
    # Grouping and the loss head live in ``training``.  A configuration is
    # the (features, mask) pair, and an observation's row in its utility
    # column is the chosen slot.

    def group_key(self, choice_set, features):
        if features is None:
            raise ValueError("featured model requires observations with features")
        mask = choice_set.mask
        return (features.tobytes(), mask.tobytes()), (features, mask), range(mask.size)

    loss_node = training.observations_loss

    def predict(self, blocks) -> tuple[np.ndarray, np.ndarray]:
        """(slots x configurations) probabilities and the real-slot mask.

        ``blocks`` holds one (features, mask) pair per configuration; a
        column equals the pair's own forward bit for bit.
        """
        nodes = self.make_param_nodes(trainable=False)
        rows = max(np.size(m) for _, m in blocks)
        values, mask = self._blocked_utilities(
            blocks, rows, lambda chunk: self.utilities_node(nodes, chunk)
        )
        return column_probabilities(values, mask), mask


class CatalogSetModel:
    """Set-utility view of a featured model over a fixed item catalog.

    Items are identified by their column in ``item_features``; evaluating
    a subset runs the featured model on exactly those items' columns.
    This is the bridge that lets halo extraction run on feature-based
    models (one-hot catalogs recover the featureless reading).
    """

    def __init__(self, model: FeaturedModel, item_features: np.ndarray):
        item_features = np.asarray(item_features, dtype=float)
        if item_features.ndim != 2 or item_features.shape[0] != model.feature_dim:
            raise ValueError(
                f"catalog must be {model.feature_dim} x items, got {item_features.shape}"
            )
        bad = np.argwhere(~np.isfinite(item_features.T))
        if bad.size:
            item, row = bad[0]
            raise ValueError(
                f"catalog item {item} has a non-finite value in feature row {row}: "
                f"{float(item_features[row, item])!r}"
            )
        self.model = model
        self.item_features = item_features
        self.universe = item_features.shape[1]

    def set_utilities(self, ids) -> np.ndarray:
        """Utilities aligned with ``ids`` order (halo-extraction hook)."""
        return self.batch_set_utilities([ids])[0]

    def batch_set_utilities(self, sets) -> list[np.ndarray]:
        """Utilities of each set, aligned with its ids; each equals the
        :meth:`FeaturedModel.forward` of the set's item columns bit for bit.

        The column stage runs once per call, over the items the sets offer:
        an item's embedding and modulators are the same columns in every set
        that offers it.  Each block of ``PREDICT_BLOCK`` sets gathers its
        items' columns into forward-only nodes and runs only the set stage.
        """
        sets = list(map(tuple, sets))
        offered = check_sets(sets, self.universe).any(axis=1)
        if not sets:
            return []
        ids, sizes = set_ids(sets)
        sets = split_sets(ids, sizes)  # each set's ids as ints
        items = np.flatnonzero(offered).tolist()
        column = dict(zip(items, range(len(items))))
        model = self.model
        nodes = model.make_param_nodes(trainable=False)
        base, modulators = model.column_stage(nodes, ad.constant(self.item_features[:, items]))

        def run(chunk):
            seg = ad.Segments([np.ones(len(ids), dtype=bool) for ids in chunk])
            cols = [column[i] for ids in chunk for i in ids]
            gathered = [[ad.Node(m.value[:, cols]) for m in heads] for heads in modulators]
            return model.set_stage(nodes, ad.Node(base.value[:, cols]), gathered, seg)

        values, _ = model._blocked_utilities(sets, max(map(len, sets)), run)
        return [values[: len(ids), g] for g, ids in enumerate(sets)]
