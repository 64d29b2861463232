"""The four benchmark workloads.

Each workload has three parts:

* ``setup(seed, workdir)`` builds the inputs from the seed (data, files,
  model templates) and returns a context; it is timed as set-up;
* ``round(ctx, rec)`` runs the timed operations once, each through
  ``rec.op``, and returns what the checks need;
* ``checks(ctx, outputs)`` yields ``(name, passed, detail)`` by comparing
  one round's outputs with :mod:`oracle` or with a property the method must
  have.  It also sets ``ctx["fit_rmse_vs_truth"]``.

The seed argument drives what is sampled: the choices, and on
featured-catalog also each observation's offered set and shared features.
What generates them is fixed, as the beverage fixture is: the synthetic
simplex table, the teachers, the catalog and the halo-n10 offered sets come
from constant seeds, and so do the models and the optimiser.
So a run's work and its counts do not depend on the seed, and neither
does the target a fit is scored against.
Why each workload exists is written in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import math
import os

import numpy as np

import oracle
from deephalo import autodiff, cli, data, featured, featureless, halo, training

MODEL_SEED = 11
TRAIN_SEED = 5
SOURCE_SEED = 101


def _cli(argv) -> str:
    """Run one CLI command in process; raise on a non-zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"deephalo {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _halo_check(name, program: dict, lattice: np.ndarray, max_order: int):
    """Compare a program alpha table with the oracle's inversion of ``lattice``."""
    expected = oracle.relative_effects(lattice, max_order)
    if set(program) != set(expected):
        return name, False, f"{len(program)} entries, oracle has {len(expected)}"
    scale = float(np.nanmax(np.abs(lattice)))
    worst = 0.0
    for key, value in expected.items():
        err = abs(program[key] - value) / oracle.halo_tolerance(len(key[2]), scale)
        worst = max(worst, err)
    return name, worst <= 1.0, f"{len(expected)} entries, worst error {worst:.3g} of tolerance"


def _observation_rows(dataset, split=None):
    return [(o.choice_set.items, o.chosen) for o in dataset.observations_for(split)]


def _featureless_nll(payload, rows) -> float:
    counts = oracle.choice_counts(rows)
    return oracle.nll_from_counts(counts, oracle.set_probabilities(payload, counts))


def _library_fingerprint(out):
    """What must be bit-identical between rounds of a library workload."""
    return json.dumps(out["model"].to_json()), out["history"].digest(), out["halo"], out["metrics"]


def _loss_falls(losses) -> tuple[str, bool, str]:
    first, last = losses[0], losses[-1]
    return "final train loss below the first epoch's", last < first, f"{first:.6g} -> {last:.6g}"


# ---------------------------------------------------------------------------
# beverage-cli
# ---------------------------------------------------------------------------


class BeverageCli:
    """The README pipeline through ``deephalo.cli.main``: gen, train, eval, halo."""

    name = "beverage-cli"
    n_per_set = 2000
    epochs = 3
    eval_repeats = 2
    halo_repeats = 3
    ops_per_round = 1 + eval_repeats + halo_repeats  # train, eval x2, halo x3 commands

    def setup(self, seed, workdir):
        paths = {k: os.path.join(workdir, f) for k, f in (
            ("data", "bev.csv"), ("model", "model.json"), ("history", "history.csv"),
            ("metrics", "metrics.json"), ("alpha", "alpha.csv"), ("svg", "alpha.svg"),
        )}
        paths["truth"] = paths["data"] + ".truth.csv"
        _cli(["gen", "--fixture", "beverage", "--n-per-set", str(self.n_per_set),
              "--seed", str(seed), "-o", paths["data"]])
        return {"paths": paths, "n_obs": 11 * self.n_per_set}

    def round(self, ctx, rec):
        p, n = ctx["paths"], ctx["n_obs"]
        with rec.op("fit_obs_per_s", n * self.epochs):
            train_out = _cli([
                "train", "--model", "deephalo-fl", "--depth", "2", "--activation", "quadratic",
                "--width", "8", "--data", p["data"], "--lr", "0.05", "--epochs", str(self.epochs),
                "--seed", str(TRAIN_SEED), "-o", p["model"], "--history", p["history"],
            ])
        for _ in range(self.eval_repeats):
            with rec.op("eval_obs_per_s", n):
                eval_out = _cli(["eval", "--model-file", p["model"], "--data", p["data"],
                                 "--truth", p["truth"], "-o", p["metrics"]])
        for _ in range(self.halo_repeats):
            with rec.op("halo_entries_per_s", 24):
                _cli(["halo", "--model-file", p["model"], "--max-order", "2",
                      "-o", p["alpha"], "--svg", p["svg"]])
        history = _read(p["history"])
        return {
            "train": json.loads(train_out),
            "eval": json.loads(eval_out),
            "model": _read(p["model"]),
            "history": history,
            "epoch_ms": [float(line.split(",")[4]) for line in history.splitlines()[1:]],
            "alpha": _read(p["alpha"]),
            "svg": _read(p["svg"]),
        }

    def fingerprint(self, out):
        return (out["model"], out["alpha"], out["svg"], out["eval"]["nll"])

    def checks(self, ctx, out):
        p = ctx["paths"]
        payload = json.loads(out["model"])
        nll = _featureless_nll(payload, oracle.read_choices(p["data"]))
        truth = oracle.read_probability_table(p["truth"])
        rmse = oracle.pooled_rmse(oracle.set_probabilities(payload, truth), truth)
        ctx["fit_rmse_vs_truth"] = rmse
        yield "eval nll matches oracle", _close(out["eval"]["nll"], nll, 1e-10), f"{out['eval']['nll']!r} vs {nll!r}"
        yield ("eval rmse_vs_truth matches oracle", _close(out["eval"]["rmse_vs_truth"], rmse, 1e-9),
               f"{out['eval']['rmse_vs_truth']!r} vs {rmse!r}")
        lattice = oracle.featureless_lattice(payload)
        yield _halo_check("halo CSV matches oracle inversion", oracle.read_halo_csv(p["alpha"]), lattice, 2)
        losses = [float(line.split(",")[1]) for line in out["history"].splitlines()[1:]]
        yield _loss_falls(losses)
        yield ("train prints the last history row", out["train"]["train_loss"] == losses[-1]
               and out["train"]["epochs_run"] == self.epochs, repr(out["train"]))


# ---------------------------------------------------------------------------
# synthetic-minibatch
# ---------------------------------------------------------------------------


class SyntheticMinibatch:
    """All C(8,6) sets, 80/20 split, mse_onehot loss, mini-batches, patience."""

    name = "synthetic-minibatch"
    n_per_set = 500
    epochs = 2
    batch = 1000
    eval_repeats = 5
    ops_per_round = 2 + eval_repeats  # train, evaluate x5, halo

    def setup(self, seed, workdir):
        _, table = data.gen_synthetic_simplex(8, 6, 0, 1, SOURCE_SEED)
        dataset = data.sample_choices(table, self.n_per_set, seed)
        rng = np.random.default_rng(seed)
        train_idx, val_idx = [], []
        for start in range(0, len(dataset), self.n_per_set):
            picked = rng.permutation(np.arange(start, start + self.n_per_set))
            cut = self.n_per_set * 4 // 5
            train_idx += sorted(picked[:cut].tolist())
            val_idx += sorted(picked[cut:].tolist())
        dataset = dataset.with_splits({"train": train_idx, "val": val_idx})
        # Patience equal to max_epochs: the best-epoch snapshot and restore
        # run every epoch, but the stop never fires, so every seed trains
        # the same number of epochs.
        config = training.TrainConfig(
            loss="mse_onehot", learning_rate=0.01, batch_size=self.batch,
            max_epochs=self.epochs, patience=self.epochs, seed=TRAIN_SEED,
        )
        model = featureless.FeaturelessModel.deephalo(8, width=10, depth=4, activation="quadratic", seed=MODEL_SEED)
        return {"dataset": dataset, "table": table, "config": config, "model": model}

    def round(self, ctx, rec):
        dataset = ctx["dataset"]
        model = copy.deepcopy(ctx["model"])
        n_train = len(dataset.splits["train"])
        with rec.op("fit_obs_per_s", n_train * self.epochs):
            model, history = training.train(model, dataset, ctx["config"])
        for _ in range(self.eval_repeats):
            with rec.op("eval_obs_per_s", len(dataset.splits["val"])):
                metrics = training.evaluate(model, dataset, "val")
        with rec.op("halo_entries_per_s", 616):
            table = halo.full_relative_table(model, 2)
        return {"model": model, "history": history, "metrics": metrics, "halo": table.entries,
                "epoch_ms": [r.wall_ms for r in history.records]}

    fingerprint = staticmethod(_library_fingerprint)

    def checks(self, ctx, out):
        model, history, dataset = out["model"], out["history"], ctx["dataset"]
        payload = model.to_json()
        table = ctx["table"]
        ctx["fit_rmse_vs_truth"] = oracle.pooled_rmse(oracle.set_probabilities(payload, table), table)
        val_nlls = [r.val_nll for r in history.records]
        best = history.records[history.best_epoch - 1].val_nll
        yield "val NLL at best_epoch is the minimum", best == min(val_nlls), f"epoch {history.best_epoch}: {best!r}"
        restored = _featureless_nll(payload, _observation_rows(dataset, "val"))
        yield "oracle val NLL of restored weights", _close(restored, best, 1e-10), f"{restored!r} vs {best!r}"
        yield "evaluate nll matches oracle", _close(out["metrics"].nll, restored, 1e-10), f"{out['metrics'].nll!r} vs {restored!r}"
        yield self._gradient_check(model, dataset, ctx["config"])
        lattice = oracle.featureless_lattice(payload, max_size=4)
        yield _halo_check("halo table matches oracle inversion", out["halo"], lattice, 2)

    def _gradient_check(self, model, dataset, config):
        """Central differences on three coordinates of the first batch loss."""
        train_obs = dataset.observations_for("train")
        order = np.random.default_rng(config.seed).permutation(len(train_obs))
        batch = [train_obs[i] for i in order[: self.batch]]
        model = copy.deepcopy(model)
        nodes = model.make_param_nodes(trainable=True)
        autodiff.backward(model.loss_node(nodes, batch, config.loss))

        def loss():
            return model.loss_node(model.make_param_nodes(trainable=False), batch, config.loss).value[0, 0]

        h, worst = 1e-5, 0.0
        for name, arr in model.trainables()[:3]:
            grad = nodes[name].grad
            i = int(np.argmax(np.abs(grad)))
            saved = arr.flat[i]
            arr.flat[i] = saved + h
            up = loss()
            arr.flat[i] = saved - h
            down = loss()
            arr.flat[i] = saved
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - grad.flat[i]) / (1e-7 + 1e-4 * abs(grad.flat[i])))
        return "central differences agree with backward", worst <= 1.0, f"worst error {worst:.3g} of tolerance"


# ---------------------------------------------------------------------------
# featured-catalog
# ---------------------------------------------------------------------------


class FeaturedCatalog:
    """A teacher FeaturedModel's choices over an 8-item catalog, a student fit."""

    name = "featured-catalog"
    n_items, d_item, d_shared = 8, 4, 2
    n_obs, n_train = 64, 32
    epochs = 1
    batch = 16
    ops_per_round = 3  # train, evaluate, halo

    def setup(self, seed, workdir):
        d_x = self.d_item + self.d_shared
        catalog = np.random.default_rng(SOURCE_SEED).normal(size=(self.d_item, self.n_items))
        rng = np.random.default_rng(seed)
        teacher = featured.FeaturedModel(d_x, 8, 2, 2, seed=MODEL_SEED + 1)
        # A readout well above the init scale, so the teacher's choices are
        # far from uniform.
        teacher.params["readout"] *= 100.0
        items_path = os.path.join(workdir, "items.csv")
        obs_path = os.path.join(workdir, "observations.csv")
        with open(items_path, "w", encoding="utf-8") as fh:
            fh.write("item_id," + ",".join(f"f{i + 1}" for i in range(self.d_item)) + "\n")
            for item in range(self.n_items):
                fh.write(f"{item}," + ",".join(repr(float(v)) for v in catalog[:, item]) + "\n")
        truth = []
        with open(obs_path, "w", encoding="utf-8") as fh:
            fh.write("set,choice," + ",".join(f"s{i + 1}" for i in range(self.d_shared)) + "\n")
            for row in range(self.n_obs):
                # Set sizes cycle through 3..8, so the padded width is 8 for every seed.
                size = 3 + row % (self.n_items - 2)
                ids = tuple(int(i) for i in rng.choice(self.n_items, size=size, replace=False))
                shared = rng.normal(size=self.d_shared)
                x = np.zeros((d_x, self.n_items))
                x[: self.d_item, :size] = catalog[:, list(ids)]
                x[self.d_item :, :size] = shared[:, None]
                mask = np.arange(self.n_items) < size
                probs = teacher.probabilities(x, mask)
                chosen = ids[int(rng.choice(self.n_items, p=probs))]
                truth.append(probs)
                fh.write(f"{';'.join(map(str, ids))},{chosen},"
                         + ",".join(repr(float(v)) for v in shared) + "\n")
        dataset = data.load_featured_csv(items_path, obs_path)
        dataset = dataset.with_splits({"train": list(range(self.n_train)),
                                       "val": list(range(self.n_train, self.n_obs))})
        reference = np.zeros((d_x, self.n_items))
        reference[: self.d_item] = catalog  # shared features held at 0
        config = training.TrainConfig(loss="nll", learning_rate=0.01, batch_size=self.batch,
                                      max_epochs=self.epochs, seed=TRAIN_SEED)
        student = featured.FeaturedModel(d_x, 16, 4, 3, seed=MODEL_SEED)
        return {"dataset": dataset, "truth": truth, "reference": reference,
                "config": config, "model": student}

    def round(self, ctx, rec):
        dataset = ctx["dataset"]
        model = copy.deepcopy(ctx["model"])
        with rec.op("fit_obs_per_s", self.n_train * self.epochs):
            model, history = training.train(model, dataset, ctx["config"])
        with rec.op("eval_obs_per_s", self.n_obs):
            metrics = training.evaluate(model, dataset)
        catalog = featured.CatalogSetModel(model, ctx["reference"])
        with rec.op("halo_entries_per_s", 616):
            table = halo.full_relative_table(catalog, 2)
        return {"model": model, "history": history, "metrics": metrics, "halo": table.entries,
                "epoch_ms": [r.wall_ms for r in history.records]}

    fingerprint = staticmethod(_library_fingerprint)

    def checks(self, ctx, out):
        model, observations = out["model"], ctx["dataset"].observations
        probs = [model.probabilities(o.features, o.choice_set.mask) for o in observations]
        sq = []
        for p, target, obs in zip(probs, ctx["truth"], observations):
            diff = (p - target)[obs.choice_set.mask]
            sq.extend((diff * diff).tolist())
        ctx["fit_rmse_vs_truth"] = math.sqrt(math.fsum(sq) / len(sq))

        exact = True
        for obs in observations[:6]:
            x, mask = obs.features, obs.choice_set.mask
            perm = np.random.default_rng(len(obs.choice_set.items)).permutation(mask.size)
            base = model.forward(x, mask).values
            moved = model.forward(x[:, perm], mask[perm]).values
            exact &= bool(np.array_equal(moved, base[perm]))
        yield "slot permutation permutes utilities exactly", exact, "6 observations"
        padding = all(np.all(p[~o.choice_set.mask] == 0.0) for p, o in zip(probs, observations))
        yield "padding slots have probability exactly 0", padding, f"{len(observations)} observations"
        mean_nll = math.fsum(-math.log(p[o.chosen_slot]) for p, o in zip(probs, observations)) / len(probs)
        yield ("evaluate nll is the mean per-observation -log p", _close(out["metrics"].nll, mean_nll, 1e-12),
               f"{out['metrics'].nll!r} vs {mean_nll!r}")
        catalog = featured.CatalogSetModel(model, ctx["reference"])
        sets = oracle.subsets(self.n_items, 4)
        lattice = oracle.utility_lattice(self.n_items, sets, [catalog.set_utilities(s) for s in sets])
        yield _halo_check("catalog halo matches oracle inversion of set_utilities", out["halo"], lattice, 2)


# ---------------------------------------------------------------------------
# halo-n10
# ---------------------------------------------------------------------------


class _RoundForwards:
    """A SetUtilityModel that runs each offered set's forward once.

    ``full_relative_table`` keeps utilities only for the length of one
    call; this keeps them across the calls of one round.
    """

    def __init__(self, model):
        self.universe = model.universe
        self._model = model
        self._seen = {}

    def set_utilities(self, ids):
        values = self._seen.get(ids)
        if values is None:
            values = self._seen[ids] = self._model.set_utilities(ids)
        return values


class HaloN10:
    """The full relative table of a 10-item quadratic teacher, plus a short student fit."""

    name = "halo-n10"
    n_sets, n_per_set = 40, 120
    epochs = 4
    chunks = 5  # the table's 45 pairs, 9 to a chunk
    eval_repeats = 2
    # Per chunk: train, evaluate x2, the chunk's table.
    ops_per_round = chunks * (2 + eval_repeats)

    def setup(self, seed, workdir):
        teacher = featureless.FeaturelessModel.deephalo(10, width=10, depth=5, activation="quadratic", seed=MODEL_SEED)
        # Weights far above the init scale, so effects of every order are nonzero.
        weights = np.random.default_rng(SOURCE_SEED)
        for layer in teacher.layers:
            layer[...] = weights.normal(0.0, 0.15, size=layer.shape)
        teacher.readout[...] = np.eye(10) + weights.normal(0.0, 0.15, size=(10, 10))
        sets = []
        while len(sets) < self.n_sets:
            size = 2 + len(sets) % 8  # sizes 2..9 in turn
            ids = tuple(sorted(int(i) for i in weights.choice(10, size=size, replace=False)))
            if ids not in sets:
                sets.append(ids)
        table = {ids: teacher.probabilities(ids)[list(ids)] for ids in sets}
        dataset = data.sample_choices(table, self.n_per_set, seed)
        config = training.TrainConfig(loss="nll", learning_rate=0.05, max_epochs=self.epochs, seed=TRAIN_SEED)
        student = featureless.FeaturelessModel.deephalo(10, width=10, depth=5, activation="quadratic", seed=MODEL_SEED)
        return {"teacher": teacher, "table": table, "dataset": dataset, "config": config, "model": student}

    def round(self, ctx, rec):
        """The table in chunks of pairs, each after a short fit and its evaluations.

        So a run times many short operations of each kind, spread over the
        run.  The chunks share one :class:`_RoundForwards`, so that a round
        runs the 1,023 forwards and the inversions of one call over every
        pair.
        """
        dataset = ctx["dataset"]
        pairs = list(itertools.combinations(range(10), 2))
        size = len(pairs) // self.chunks
        teacher = _RoundForwards(ctx["teacher"])
        entries = {}
        for start in range(0, len(pairs), size):
            model = copy.deepcopy(ctx["model"])
            with rec.op("fit_obs_per_s", len(dataset) * self.epochs):
                model, history = training.train(model, dataset, ctx["config"])
            for _ in range(self.eval_repeats):
                with rec.op("eval_obs_per_s", len(dataset)):
                    metrics = training.evaluate(model, dataset)
            with rec.op("halo_entries_per_s", 11520 // self.chunks):
                table = halo.full_relative_table(teacher, 8, pairs=pairs[start : start + size])
            entries.update(table.entries)
        return {"model": model, "history": history, "metrics": metrics, "halo": entries,
                "epoch_ms": [r.wall_ms for r in history.records]}

    fingerprint = staticmethod(_library_fingerprint)

    def checks(self, ctx, out):
        payload = out["model"].to_json()
        table = ctx["table"]
        ctx["fit_rmse_vs_truth"] = oracle.pooled_rmse(oracle.set_probabilities(payload, table), table)
        nll = _featureless_nll(payload, _observation_rows(ctx["dataset"]))
        yield "evaluate nll matches oracle", _close(out["metrics"].nll, nll, 1e-10), f"{out['metrics'].nll!r} vs {nll!r}"
        yield _loss_falls([r.train_loss for r in out["history"].records])
        lattice = oracle.featureless_lattice(ctx["teacher"].to_json())
        yield _halo_check("all 11,520 entries match oracle inversion", out["halo"], lattice, 8)


WORKLOADS = {w.name: w for w in (BeverageCli, SyntheticMinibatch, FeaturedCatalog, HaloN10)}
