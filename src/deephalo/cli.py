"""Command-line entry point: data generation, training, evaluation, halo export.

Subcommands write a JSON run manifest beside their primary output, even
when they fail after producing partial artifacts.  Option precedence is
command line over ``--config`` file over built-in defaults.  Exit codes:
0 success, 1 runtime or model error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from . import __version__
from . import data as dat
from . import halo as hal
from . import training as trn
from .featureless import FeaturelessModel
from .featured import FeaturedModel

log = logging.getLogger("deephalo")

MODEL_KINDS = ("mnl", "cmnl", "deephalo-fl", "deephalo-feat")


class UsageError(ValueError):
    pass


def _configure_logging() -> None:
    level = os.environ.get("DEEPHALO_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(message)s")


def _atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


class Manifest:
    """Reproducibility record written beside every output artifact.

    Used as a context manager, it writes status "ok" when its block
    completes and "error" when the block raises, then lets the error through.
    """

    def __init__(self, command: str, config: dict, inputs: list[str]):
        self.payload = {
            "command": command,
            "config": config,
            "seed": config.get("seed"),
            "inputs": inputs,
            "outputs": [],
            "toolkit_version": __version__,
            "status": "running",
            "error": None,
            "wall_ms": None,
        }
        self._start = time.perf_counter()

    def add_output(self, path: str) -> None:
        self.payload["outputs"].append(path)

    def write(self, status: str, error: str | None = None) -> None:
        self.payload["status"] = status
        self.payload["error"] = error
        self.payload["wall_ms"] = round((time.perf_counter() - self._start) * 1000, 3)
        anchor = self.payload["outputs"][0] if self.payload["outputs"] else None
        if anchor is None:
            return
        _atomic_write_text(f"{anchor}.manifest.json", json.dumps(self.payload, indent=2))

    def __enter__(self) -> "Manifest":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is None:
            self.write("ok")
        elif isinstance(exc, UsageError):
            self.write("error", "usage error")
        else:
            self.write("error", str(exc))
        return False


# Training config files may use the TrainConfig field names directly.
CONFIG_ALIASES = {
    "learning_rate": "lr",
    "batch_size": "batch",
    "max_epochs": "epochs",
}


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicitly passed flags."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_conf = json.load(fh)
        for alias, target in CONFIG_ALIASES.items():
            if alias in file_conf and target in defaults:
                file_conf[target] = file_conf.pop(alias)
        if "lr_schedule" in file_conf and "lr2" in defaults:
            rate1, rate2, switch = file_conf.pop("lr_schedule")
            file_conf.setdefault("lr", rate1)
            file_conf.setdefault("lr2", rate2)
            file_conf.setdefault("lr_switch", switch)
        unknown = set(file_conf) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_conf)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

GEN_DEFAULTS = {
    "fixture": None,
    "universe": 0,
    "set_size": 0,
    "sets": 0,
    "n_per_set": 1000,
    "seed": 0,
    "out": None,
    "truth_out": None,
}


def _cmd_gen(args) -> int:
    conf = _merge_config(args, GEN_DEFAULTS)
    if not conf["out"]:
        raise UsageError("gen requires -o/--out")
    with Manifest("gen", conf, []) as manifest:
        manifest.add_output(conf["out"])
        if conf["n_per_set"] < 1:
            raise UsageError(f"--n-per-set must be at least 1, got {conf['n_per_set']}")
        if conf["fixture"]:
            if conf["fixture"] != "beverage":
                raise UsageError(f"unknown fixture '{conf['fixture']}'")
            if conf["universe"] or conf["set_size"]:
                raise UsageError("--fixture conflicts with --universe/--set-size")
            table = dat.beverage_fixture()
            dataset = dat.sample_choices(table, conf["n_per_set"], conf["seed"])
        else:
            if conf["universe"] < 2 or conf["set_size"] < 1:
                raise UsageError("synthetic gen requires --universe and --set-size")
            dataset, table = dat.gen_synthetic_simplex(
                conf["universe"],
                conf["set_size"],
                conf["sets"],
                conf["n_per_set"],
                conf["seed"],
            )
        dat.write_featureless_csv(dataset, conf["out"])
        truth_path = conf["truth_out"] or f"{conf['out']}.truth.csv"
        dat.write_probability_table(table, truth_path)
        manifest.add_output(truth_path)
        log.info("wrote %d observations to %s", len(dataset), conf["out"])
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TRAIN_DEFAULTS = {
    "model": None,
    "data": None,
    "items": None,
    "split": None,
    "universe": 0,
    "depth": 2,
    "width": 0,
    "heads": 4,
    "activation": "quadratic",
    "rank": "full",
    "loss": "nll",
    "lr": 1e-3,
    "lr2": 0.0,
    "lr_switch": 0,
    "batch": 0,
    "epochs": 200,
    "patience": 0,
    "clip_norm": 0.0,
    "seed": 0,
    "threads": 1,
    "out": None,
    "history": None,
}


def _build_model(conf: dict, dataset: dat.Dataset):
    kind = conf["model"]
    universe = max(conf["universe"], dataset.universe)
    if kind == "mnl":
        return FeaturelessModel.mnl(universe, seed=conf["seed"])
    if kind == "cmnl":
        return FeaturelessModel.cmnl(universe, seed=conf["seed"])
    if kind == "deephalo-fl":
        rank = None if conf["rank"] in ("full", "", None) else int(conf["rank"])
        width = conf["width"] or universe
        return FeaturelessModel.deephalo(
            universe,
            width=width,
            depth=conf["depth"],
            activation=conf["activation"],
            rank=rank,
            seed=conf["seed"],
        )
    if kind == "deephalo-feat":
        if dataset.feature_dim == 0:
            raise ValueError(
                "model kind 'deephalo-feat' needs feature data (--items), "
                "but the dataset is featureless"
            )
        sigma = "quadratic" if conf["activation"] == "quadratic" else "identity"
        return FeaturedModel(
            dataset.feature_dim,
            conf["width"] or 16,
            conf["heads"],
            conf["depth"],
            sigma=sigma,
            seed=conf["seed"],
        )
    raise UsageError(f"unknown model kind '{kind}'; choose from {MODEL_KINDS}")


def _load_dataset(conf: dict) -> dat.Dataset:
    if conf["items"]:
        dataset = dat.load_featured_csv(conf["items"], conf["data"])
    else:
        dataset = dat.load_featureless_csv(conf["data"])
    if conf.get("split"):
        dataset = dataset.with_splits(dat.load_split_manifest(conf["split"]))
    return dataset


def _cmd_train(args) -> int:
    conf = _merge_config(args, TRAIN_DEFAULTS)
    for required in ("model", "data", "out"):
        if not conf[required]:
            raise UsageError(f"train requires --{required.replace('_', '-')}")
    if conf["model"] not in MODEL_KINDS:
        raise UsageError(f"unknown model kind '{conf['model']}'")
    if conf["model"] != "deephalo-feat" and conf["items"]:
        raise UsageError("--items is only meaningful for deephalo-feat")
    with Manifest("train", conf, [conf["data"]]) as manifest:
        manifest.add_output(conf["out"])
        if conf["clip_norm"] < 0:
            raise UsageError(
                f"--clip-norm must be non-negative (0 = no clipping), got {conf['clip_norm']}"
            )
        dataset = _load_dataset(conf)
        model = _build_model(conf, dataset)
        schedule = None
        if conf["lr2"] and conf["lr_switch"]:
            schedule = (conf["lr"], conf["lr2"], conf["lr_switch"])
        config = trn.TrainConfig(
            loss=conf["loss"],
            learning_rate=conf["lr"],
            batch_size=conf["batch"],
            max_epochs=conf["epochs"],
            patience=conf["patience"],
            seed=conf["seed"],
            lr_schedule=schedule,
            clip_norm=conf["clip_norm"],
        )
        model, history = trn.train(model, dataset, config)
        model.save(conf["out"])
        if conf["history"]:
            trn.write_history_csv(history, conf["history"])
            manifest.add_output(conf["history"])
        final = history.records[-1]
        print(
            json.dumps(
                {
                    "epochs_run": final.epoch,
                    "train_loss": final.train_loss,
                    "val_nll": final.val_nll,
                    "stopped_early": history.stopped_early,
                }
            )
        )
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

EVAL_DEFAULTS = {
    "model_file": None,
    "data": None,
    "items": None,
    "split": None,
    "truth": None,
    "seed": 0,
    "out": "metrics.json",
}


def _load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    kind = payload.get("kind")
    if kind == "featureless":
        return FeaturelessModel.from_json(payload)
    if kind == "featured":
        return FeaturedModel.from_json(payload)
    raise ValueError(f"model file has unknown kind {kind!r}")


def _cmd_eval(args) -> int:
    conf = _merge_config(args, EVAL_DEFAULTS)
    for required in ("model_file", "data"):
        if not conf[required]:
            raise UsageError(f"eval requires --{required.replace('_', '-')}")
    with Manifest("eval", conf, [conf["model_file"], conf["data"]]) as manifest:
        manifest.add_output(conf["out"])
        model = _load_model(conf["model_file"])
        if model.kind != "featured" and conf["items"]:
            raise UsageError("--items is only meaningful for a featured model")
        if model.kind == "featured" and conf["truth"]:
            raise UsageError(
                "--truth needs a featureless model: a featured model's "
                "probabilities depend on each observation's features"
            )
        dataset = _load_dataset(conf)
        metrics = trn.evaluate(model, dataset, split=conf["split"])
        payload = {
            "nll": metrics.nll,
            "accuracy": metrics.accuracy,
            "rmse": metrics.rmse,
        }
        if conf["truth"]:
            table = dat.load_probability_table(conf["truth"])
            payload["rmse_vs_truth"] = trn.rmse_vs_frequencies(model, table)
        text = json.dumps(payload, indent=2)
        print(text)
        _atomic_write_text(conf["out"], text)
    return 0


# ---------------------------------------------------------------------------
# halo
# ---------------------------------------------------------------------------

HALO_DEFAULTS = {
    "model_file": None,
    "render_only": None,
    "max_order": 2,
    "pair": None,
    "svg": None,
    "force": False,
    "seed": 0,
    "out": None,
}


def _parse_pair(text: str) -> tuple[int, int]:
    """``"j,k"`` as the ordered pair (min, max) of two item ids."""
    try:
        j, k = (int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(
            f"--pair must be two item ids, e.g. 1,2; got {text!r}"
        ) from None
    return min(j, k), max(j, k)


def _cmd_halo(args) -> int:
    conf = _merge_config(args, HALO_DEFAULTS)
    if conf["render_only"]:
        if not conf["svg"]:
            raise UsageError("--render-only needs --svg for its output")
        with Manifest("halo", conf, [conf["render_only"]]) as manifest:
            manifest.add_output(conf["svg"])
            table = hal.read_halo_csv(conf["render_only"])
            hal.export_heatmap(table, conf["svg"], format="svg")
        return 0

    for required in ("model_file", "out"):
        if not conf[required]:
            raise UsageError(f"halo requires --{required.replace('_', '-')}")
    with Manifest("halo", conf, [conf["model_file"]]) as manifest:
        manifest.add_output(conf["out"])
        pairs = [_parse_pair(conf["pair"])] if conf["pair"] else None
        model = _load_model(conf["model_file"])
        if model.kind != "featureless":
            raise ValueError(
                "halo extraction from the CLI needs a featureless model; "
                "feature-based models require an item catalog (see CatalogSetModel)"
            )
        table = hal.full_relative_table(
            model, conf["max_order"], pairs=pairs, force=conf["force"]
        )
        hal.write_halo_csv(table, conf["out"])
        if conf["svg"]:
            hal.export_heatmap(table, conf["svg"], format="svg")
            manifest.add_output(conf["svg"])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deephalo",
        description="Context-dependent choice models with interaction-order control",
    )
    parser.add_argument("--version", action="version", version=f"deephalo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate fixture or synthetic choice data")
    gen.add_argument("--config")
    gen.add_argument("--fixture", choices=["beverage"])
    gen.add_argument("--universe", type=int)
    gen.add_argument("--set-size", dest="set_size", type=int)
    gen.add_argument("--sets", type=int, help="0 enumerates every subset")
    gen.add_argument("--n-per-set", dest="n_per_set", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("-o", "--out")
    gen.add_argument("--truth-out", dest="truth_out")
    gen.set_defaults(handler=_cmd_gen)

    train = sub.add_parser("train", help="fit a model to a dataset")
    train.add_argument("--config")
    train.add_argument("--model", choices=MODEL_KINDS)
    train.add_argument("--data")
    train.add_argument("--items")
    train.add_argument("--split")
    train.add_argument("--universe", type=int)
    train.add_argument("--depth", type=int)
    train.add_argument("--width", type=int)
    train.add_argument("--heads", type=int)
    train.add_argument("--activation", choices=["linear", "quadratic"])
    train.add_argument("--rank", help="positive integer or 'full'")
    train.add_argument("--loss", choices=list(trn.LOSSES))
    train.add_argument("--lr", type=float)
    train.add_argument("--lr2", type=float, help="second-phase learning rate")
    train.add_argument("--lr-switch", dest="lr_switch", type=int, help="epoch to switch")
    train.add_argument("--batch", type=int)
    train.add_argument("--epochs", type=int)
    train.add_argument("--patience", type=int)
    train.add_argument("--clip-norm", dest="clip_norm", type=float)
    train.add_argument("--seed", type=int)
    train.add_argument("--threads", type=int, help="accepted for compatibility; runs serial")
    train.add_argument("-o", "--out")
    train.add_argument("--history")
    train.set_defaults(handler=_cmd_train)

    ev = sub.add_parser("eval", help="evaluate a model file on a dataset")
    ev.add_argument("--config")
    ev.add_argument("--model-file", dest="model_file")
    ev.add_argument("--data")
    ev.add_argument("--items")
    ev.add_argument("--split")
    ev.add_argument("--truth", help="ground-truth probability table CSV")
    ev.add_argument("--seed", type=int)
    ev.add_argument("-o", "--out")
    ev.set_defaults(handler=_cmd_eval)

    ha = sub.add_parser("halo", help="extract relative context effects")
    ha.add_argument("--config")
    ha.add_argument("--model-file", dest="model_file")
    ha.add_argument("--render-only", dest="render_only", help="existing alpha CSV")
    ha.add_argument("--max-order", dest="max_order", type=int)
    ha.add_argument("--pair", help="restrict to one pair, e.g. 1,2")
    ha.add_argument("--svg", help="also render a heatmap SVG")
    ha.add_argument("--force", action="store_const", const=True)
    ha.add_argument("--seed", type=int)
    ha.add_argument("-o", "--out")
    ha.set_defaults(handler=_cmd_halo)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        log.debug("traceback", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
