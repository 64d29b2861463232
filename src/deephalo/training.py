"""Loss functions, Adam, the training loop, and evaluation metrics."""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import autodiff as ad
from .data import Dataset

LOSSES = ("nll", "mse_onehot")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Loss or a gradient became non-finite."""


@dataclass
class TrainConfig:
    loss: str = "nll"
    learning_rate: float = 1e-3
    batch_size: int = 0  # 0 = full batch
    max_epochs: int = 200
    patience: int = 0  # 0 = no early stopping
    seed: int = 0
    lr_schedule: tuple[float, float, int] | None = None  # (rate1, rate2, switch_epoch)
    clip_norm: float = 0.0  # 0 = no clipping

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")
        for name in ("learning_rate", "clip_norm"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
        if self.lr_schedule is not None:
            r1, r2, switch = self.lr_schedule
            if not (0 < r1 < math.inf and 0 < r2 < math.inf):
                raise ValueError("schedule rates must be positive and finite")
            if switch < 1:
                raise ValueError("schedule switch epoch must be >= 1")
        if self.patience < 0 or self.patience > self.max_epochs:
            raise ValueError(
                f"patience must lie in [0, max_epochs], got {self.patience} "
                f"with max_epochs {self.max_epochs}"
            )
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be positive, got {self.max_epochs}")
        if self.batch_size < 0:
            raise ValueError(
                f"batch_size must be non-negative (0 = full batch), got {self.batch_size}"
            )

    def rate_for_epoch(self, epoch: int) -> float:
        if self.lr_schedule is None:
            return self.learning_rate
        rate1, rate2, switch = self.lr_schedule
        return rate1 if epoch < switch else rate2


@dataclass
class Metrics:
    nll: float
    accuracy: float
    rmse: float


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_nll: float
    lr: float
    wall_ms: float


@dataclass
class History:
    records: list[EpochRecord] = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int = 0

    def digest(self) -> str:
        """Hash of the deterministic columns (timing excluded)."""
        h = hashlib.sha256()
        for r in self.records:
            h.update(f"{r.epoch},{r.train_loss!r},{r.val_nll!r},{r.lr!r};".encode())
        return h.hexdigest()


def nll_loss(probabilities: np.ndarray, chosen_slot: int) -> float:
    p = probabilities[chosen_slot]
    if p <= 0.0:
        raise ValueError(
            f"chosen slot {chosen_slot} has probability 0; data and model disagree"
        )
    return -math.log(p)


def mse_onehot_loss(probabilities: np.ndarray, chosen_slot: int, real_slots) -> float:
    real_slots = np.asarray(real_slots)
    onehot = np.zeros_like(probabilities)
    onehot[chosen_slot] = 1.0
    diff = probabilities[real_slots] - onehot[real_slots]
    return float(diff @ diff) / real_slots.size


class AdamState:
    """First/second moment buffers, keyed by parameter-group name."""

    def __init__(self, trainables):
        self.m = {name: np.zeros_like(arr) for name, arr in trainables}
        self.v = {name: np.zeros_like(arr) for name, arr in trainables}


def adam_step(
    trainables,
    grads: dict[str, np.ndarray],
    state: AdamState,
    t: int,
    lr: float,
) -> None:
    """One bias-corrected adaptive-moment update, in place."""
    for name, arr in trainables:
        g = grads[name]
        if not np.isfinite(g).all():
            raise TrainingDivergedError(f"non-finite gradient in group '{name}'")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> None:
    """Scale all gradients down to a global norm of ``max_norm``.

    The norm is one sorted sum, so it does not depend on where an entry
    sits in its array.
    """
    squares = np.concatenate([(g * g).ravel() for g in grads.values()])
    total = math.sqrt(float(ad._sorted_sum(squares)))
    if total > max_norm > 0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor


class Groups:
    """The observations ``index`` of a dataset, grouped by ``model.group_key``.

    ``group_key(choice_set, features)`` gives ``(key, configuration,
    rows)``: the configuration is what the model reads (the sorted offered
    set, or the (features, mask) pair), and ``rows[j]`` is the row in that
    configuration's utility column of an observation that chooses slot
    ``j`` (the item id, or the slot itself).  It is called once per stored
    configuration (``dataset.set_index``) that ``index`` reaches: an offered
    set of featureless data, an (offered set, feature block) pair of featured
    data.  ``configs`` holds one configuration per distinct key, in the
    dataset's configuration order; ``group[i]`` and ``row[i]``, the position
    in ``configs`` and the row of observation ``index[i]``, come by array
    indexing.  No result depends on the group order (sorted sums and fsums).
    """

    def __init__(self, model, dataset: Dataset, index: np.ndarray):
        stored = dataset.set_index[index]
        _, first, inverse = np.unique(stored, return_index=True, return_inverse=True)
        keys: dict = {}
        self.configs, group, start, rows = [], [], [], []
        for i in index[first].tolist():
            key, config, r = model.group_key(*dataset.configuration(i))
            g = keys.setdefault(key, len(keys))
            if g == len(self.configs):
                self.configs.append(config)
            group.append(g)
            start.append(len(rows))
            rows.extend(r)
        self.group = np.array(group)[inverse]
        self.row = np.array(rows)[np.array(start)[inverse] + dataset.slot[index]]
        self.rows = int(self.row.max()) + 1

    def __len__(self) -> int:
        return self.row.size

    def counts(self, index=slice(None)) -> np.ndarray:
        """Groups x rows table counting the observations at ``index``."""
        cells = len(self.configs) * self.rows
        flat = self.group[index] * self.rows + self.row[index]
        return np.bincount(flat, minlength=cells).reshape(-1, self.rows)


def _padded(table: np.ndarray, rows: int) -> np.ndarray:
    """Count-table rows as floats, each as long as a utility column of ``rows``."""
    out = np.zeros((table.shape[0], rows))
    width = min(rows, table.shape[1])
    out[:, :width] = table[:, :width]
    return out


def _loss_head(model, nodes, groups: Groups, table: np.ndarray, kind: str) -> ad.Node:
    """Mean loss of the observations counted in ``table``.

    One tape forward with a column per group that has a nonzero count;
    each column's rows are weighted by their counts.
    """
    if kind not in LOSSES:
        raise ValueError(f"unknown loss kind '{kind}'")
    used = np.flatnonzero(table.sum(axis=1))
    u, mask = model.utilities_node(nodes, [groups.configs[g] for g in used])
    counts = _padded(table[used], mask.shape[0]).T
    if kind == "nll":
        logp = ad.masked_log_softmax(u, mask)
        total = ad.scale(ad.sum_all(ad.hadamard(logp, ad.constant(counts))), -1.0)
    else:
        # A group of n observations over a set S contributes
        # (n / |S|) * (sum p^2 - 2 sum p * counts / n + 1).
        p = ad.masked_softmax(u, mask)
        sizes = mask.sum(axis=0)
        weight = counts.sum(axis=0) / sizes
        per_row = ad.constant(np.tile(weight, (mask.shape[0], 1)))
        quad = ad.sum_all(ad.hadamard(ad.hadamard(p, p), per_row))
        cross = ad.sum_all(ad.hadamard(p, ad.constant(counts / sizes)))
        total = ad.add_scalar(ad.add(quad, ad.scale(cross, -2.0)), math.fsum(weight))
    return ad.scale(total, 1.0 / int(table.sum()))


def observations_loss(model, nodes, observations, kind: str) -> ad.Node:
    """:func:`_loss_head` over a list of observations, turned into columns and grouped here."""
    if not observations:
        raise ValueError("empty batch")
    first = observations[0].features
    dataset = Dataset(
        observations,
        universe=1 + max(max(obs.choice_set.items) for obs in observations),
        feature_dim=0 if first is None else first.shape[0],
    )
    groups = Groups(model, dataset, dataset.indices())
    return _loss_head(model, nodes, groups, groups.counts(), kind)


def _batch_gradients(model, groups, table, loss_kind):
    nodes = model.make_param_nodes(trainable=True)
    loss = _loss_head(model, nodes, groups, table, loss_kind)
    ad.backward(loss)
    grads = {name: nodes[name].grad for name, _ in model.trainables()}
    return float(loss.value[0, 0]), grads


def train(model, dataset, config: TrainConfig):
    """Seeded mini-batch training with optional early stopping.

    Validation NLL drives early stopping regardless of the training loss;
    when no validation split exists the training observations stand in.
    With patience enabled the best-validation weights are restored at the
    end.  Returns ``(model, History)``.
    """
    train_index = dataset.indices("train")
    if not train_index.size:
        raise ValueError("empty training split")
    train_groups = Groups(model, dataset, train_index)
    val_groups = train_groups
    if dataset.splits is not None and dataset.splits.get("val"):
        val_groups = Groups(model, dataset, dataset.indices("val"))

    rng = np.random.default_rng(config.seed)
    state = AdamState(model.trainables())
    history = History()
    best_val = math.inf
    best_snapshot = None
    bad_epochs = 0
    t = 0
    n = train_index.size

    for epoch in range(1, config.max_epochs + 1):
        start = time.perf_counter()
        lr = config.rate_for_epoch(epoch)
        order = rng.permutation(n)
        step = n if config.batch_size == 0 else config.batch_size
        epoch_losses = []
        for lo in range(0, n, step):
            batch = order[lo : lo + step]
            loss_value, grads = _batch_gradients(
                model, train_groups, train_groups.counts(batch), config.loss
            )
            if not math.isfinite(loss_value):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {lo // step}"
                )
            if config.clip_norm > 0:
                _clip_gradients(grads, config.clip_norm)
            t += 1
            adam_step(model.trainables(), grads, state, t, lr)
            epoch_losses.append(loss_value * len(batch))
        train_loss = math.fsum(epoch_losses) / n

        val_nll = _metrics(model, val_groups).nll
        wall_ms = (time.perf_counter() - start) * 1000.0
        history.records.append(EpochRecord(epoch, train_loss, val_nll, lr, wall_ms))

        if config.patience > 0:
            if val_nll < best_val:
                best_val = val_nll
                best_snapshot = model.snapshot()
                history.best_epoch = epoch
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    history.stopped_early = True
                    break
    if best_snapshot is not None:
        model.restore(best_snapshot)
    if history.best_epoch == 0 and history.records:
        history.best_epoch = history.records[-1].epoch
    return model, history


def _exact_products(terms, counts) -> list[float]:
    """Floats whose exact sum is the sum of ``count * term`` over the cells.

    Veltkamp's split (factor 2**27 + 1) cuts each term into two halves of
    at most 26 significant bits, and each count is cut into 26-bit chunks,
    so every half times every chunk is a float product without rounding.
    """
    terms = np.asarray(terms, dtype=float)
    big = terms * 134217729.0
    high = big - (big - terms)
    counts = np.asarray(counts, dtype=np.int64)
    chunks = [((counts >> shift) & (2**26 - 1)) * 2.0**shift for shift in (0, 26, 52)]
    halves = (high, terms - high)
    return np.concatenate([half * chunk for half in halves for chunk in chunks]).tolist()


def _metrics(model, groups: Groups) -> Metrics:
    """Metrics from one prediction over all groups and their count table.

    Each distinct (group, row) NLL term is computed once.  Its count times
    it is split exactly into a few floats, so the fsum gives the same
    exactly rounded total as a sum of one term per observation.
    """
    probs, mask = model.predict(groups.configs)
    table = _padded(groups.counts(), mask.shape[0])
    cells = np.nonzero(table)
    p = probs.T[cells]
    zero = p <= 0.0
    if zero.any():  # nll_loss's error, for the first such cell
        first = int(np.argmax(zero))
        nll_loss(probs[:, cells[0][first]], int(cells[1][first]))
    nll_terms = -np.array(list(map(math.log, p.tolist())))
    hits = table[np.arange(table.shape[0]), np.argmax(probs, axis=0)].sum()
    diff = (probs - table.T / table.sum(axis=1))[mask]
    n = len(groups)
    return Metrics(
        nll=math.fsum(_exact_products(nll_terms, table[cells])) / n,
        accuracy=int(hits) / n,
        rmse=math.sqrt(math.fsum((diff * diff).tolist()) / diff.size),
    )


def evaluate(model, dataset, split: str | None = None) -> Metrics:
    """Mean NLL, top-1 accuracy (lowest slot wins ties), frequency RMSE."""
    index = dataset.indices(split)
    if not index.size:
        raise ValueError("cannot evaluate an empty dataset")
    return _metrics(model, Groups(model, dataset, index))


def rmse_vs_frequencies(model, table) -> float:
    """RMSE between model probabilities and a per-set frequency table.

    Squared errors pool over every (set, slot) pair before the root.
    """
    if model.kind == "featured":
        raise ValueError(
            "frequency RMSE needs a featureless model: a featured model's "
            "probabilities depend on each observation's features"
        )
    if not table:
        raise ValueError("empty frequency table")
    sets = list(map(tuple, table))
    probs, mask = model.predict(sets)
    sizes = list(map(len, sets))
    if list(map(len, table.values())) != sizes:
        bad = next(s for s, freq in table.items() if len(freq) != len(s))
        raise ValueError(f"frequencies of set {bad} have {len(table[bad])} entries, expected {len(bad)}")
    freqs = np.concatenate(list(table.values()), dtype=float)
    diff = probs[list(chain.from_iterable(sets)), np.arange(len(sets)).repeat(sizes)] - freqs
    return math.sqrt(math.fsum((diff * diff).tolist()) / int(mask.sum()))


def write_history_csv(history: History, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("epoch,train_loss,val_nll,lr,wall_ms\n")
        fh.writelines(
            f"{r.epoch},{r.train_loss!r},{r.val_nll!r},{r.lr!r},{r.wall_ms:.3f}\n"
            for r in history.records
        )
