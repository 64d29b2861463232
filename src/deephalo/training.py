"""Loss functions, Adam, the training loop, and evaluation metrics."""

from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

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
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.lr_schedule is not None:
            r1, r2, switch = self.lr_schedule
            if r1 <= 0 or r2 <= 0:
                raise ValueError("schedule rates must be positive")
            if switch < 1:
                raise ValueError("schedule switch epoch must be >= 1")
        if self.patience < 0 or self.patience > self.max_epochs:
            raise ValueError("patience must lie in [0, max_epochs]")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        if self.batch_size < 0:
            raise ValueError("batch_size must be non-negative (0 = full batch)")

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
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> None:
    """One bias-corrected adaptive-moment update, in place."""
    for name, arr in trainables:
        g = grads[name]
        if not np.isfinite(g).all():
            raise TrainingDivergedError(f"non-finite gradient in group '{name}'")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> None:
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm > 0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor


class Groups:
    """A split grouped once by ``model.group_key``.

    ``representatives`` holds the first observation of each distinct key,
    in sorted-key order; a group id is a position in that list.  For
    observation ``i``, ``group[i]`` is its group id and ``row[i]`` is
    ``model.chosen_slot``: its row in the model's utility column, the item
    id for the featureless model and the slot for the featured one.
    """

    def __init__(self, model, observations):
        keys = [model.group_key(obs) for obs in observations]
        first: dict = {}
        for key, obs in zip(keys, observations):
            first.setdefault(key, obs)
        ordered = sorted(first)
        ids = {key: g for g, key in enumerate(ordered)}
        self.representatives = [first[key] for key in ordered]
        self.group = np.array([ids[key] for key in keys])
        self.row = np.array([model.chosen_slot(obs) for obs in observations])
        self.rows = int(self.row.max()) + 1

    def __len__(self) -> int:
        return self.row.size

    def counts(self, index=slice(None)) -> np.ndarray:
        """Groups x rows table counting the observations at ``index``."""
        cells = len(self.representatives) * self.rows
        flat = self.group[index] * self.rows + self.row[index]
        return np.bincount(flat, minlength=cells).reshape(-1, self.rows)


def _padded(counts: np.ndarray, size: int) -> np.ndarray:
    """A count-table row as floats, as long as a utility column of ``size``."""
    out = np.zeros(size)
    out[: min(size, counts.size)] = counts[:size]
    return out


def _loss_head(model, nodes, groups: Groups, table: np.ndarray, kind: str) -> ad.Node:
    """Mean loss of the observations counted in ``table``.

    One tape forward per group with a nonzero count, in group order; each
    group's term weights its rows by their counts.
    """
    if kind not in LOSSES:
        raise ValueError(f"unknown loss kind '{kind}'")
    total = None
    for g in np.flatnonzero(table.sum(axis=1)):
        u, mask = model.utilities_and_mask(nodes, groups.representatives[g])
        counts = _padded(table[g], mask.size)
        if kind == "nll":
            logp = ad.masked_log_softmax(u, mask)
            term = ad.scale(ad.sum_all(ad.hadamard(logp, ad.constant(counts))), -1.0)
        else:
            p = ad.masked_softmax(u, mask)
            n_group = counts.sum()
            freq = counts / n_group
            quad = ad.sum_all(ad.hadamard(p, p))
            cross = ad.sum_all(ad.hadamard(p, ad.constant(freq)))
            per_obs = ad.add_scalar(ad.add(quad, ad.scale(cross, -2.0)), 1.0)
            term = ad.scale(per_obs, n_group / int(mask.sum()))
        total = term if total is None else ad.add(total, term)
    return ad.scale(total, 1.0 / int(table.sum()))


def observations_loss(model, nodes, observations, kind: str) -> ad.Node:
    """:func:`_loss_head` over a list of observations, grouped here."""
    if not observations:
        raise ValueError("empty batch")
    groups = Groups(model, observations)
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
    train_obs = dataset.observations_for("train")
    if not train_obs:
        raise ValueError("empty training split")
    train_groups = Groups(model, train_obs)
    val_groups = train_groups
    if dataset.splits is not None and dataset.splits.get("val"):
        val_groups = Groups(model, dataset.observations_for("val"))

    rng = np.random.default_rng(config.seed)
    state = AdamState(model.trainables())
    history = History()
    best_val = math.inf
    best_snapshot = None
    bad_epochs = 0
    t = 0
    n = len(train_obs)

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


def _metrics(model, groups: Groups) -> Metrics:
    """Metrics from one prediction per group and the groups' count table.

    Each distinct (group, row) NLL term is computed once and repeated by
    its count, so the fsum sees the same summands as a per-observation sum.
    """
    nll_terms = []
    hits = 0
    sq_err = []
    slot_count = 0
    for rep, row_counts in zip(groups.representatives, groups.counts()):
        probs, slots = model.predict(rep)
        counts = _padded(row_counts, probs.size)
        for row in np.flatnonzero(counts):
            nll_terms += [nll_loss(probs, int(row))] * int(counts[row])
        hits += int(counts[np.argmax(probs)])
        diff = probs[slots] - counts[slots] / counts.sum()
        sq_err.extend((diff * diff).tolist())
        slot_count += slots.size
    n = len(groups)
    return Metrics(
        nll=math.fsum(nll_terms) / n,
        accuracy=hits / n,
        rmse=math.sqrt(math.fsum(sq_err) / slot_count),
    )


def evaluate(model, dataset, split: str | None = None) -> Metrics:
    """Mean NLL, top-1 accuracy (lowest slot wins ties), frequency RMSE."""
    observations = dataset.observations_for(split)
    if not observations:
        raise ValueError("cannot evaluate an empty dataset")
    return _metrics(model, Groups(model, observations))


def rmse_vs_frequencies(model, table) -> float:
    """RMSE between model probabilities and a per-set frequency table.

    Squared errors pool over every (set, slot) pair before the root.
    """
    if not table:
        raise ValueError("empty frequency table")
    sq_err = []
    slots = 0
    for ids, freq in table.items():
        ids = tuple(ids)
        probs = model.probabilities(ids)
        diff = probs[list(ids)] - np.asarray(freq, dtype=float)
        sq_err.extend((diff * diff).tolist())
        slots += len(ids)
    return math.sqrt(math.fsum(sq_err) / slots)


def write_history_csv(history: History, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_nll", "lr", "wall_ms"])
        for r in history.records:
            writer.writerow([r.epoch, repr(r.train_loss), repr(r.val_nll), repr(r.lr), f"{r.wall_ms:.3f}"])
