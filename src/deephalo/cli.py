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
import math
import os
import re
import sys
import time
from dataclasses import fields

from . import __version__
from . import data as dat
from . import halo as hal
from . import training as trn
from .featureless import FeaturelessModel, check_object
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
            # JSON has no NaN or infinity: a non-finite number is written as its repr.
            "config": {
                k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in config.items()
            },
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
        text = json.dumps(self.payload, indent=2, allow_nan=False)
        _atomic_write_text(f"{anchor}.manifest.json", text)

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


# Every option of every subcommand, declared once: name -> (default, argparse
# keywords).  The flag is --name with '-' for '_' (and -o for out); the table
# order is the --help order and the order of the manifest's resolved config.
OPTIONS = {
    "gen": {
        "fixture": (None, {"choices": ["beverage"]}),
        "universe": (0, {"type": int}),
        "set_size": (0, {"type": int}),
        "sets": (0, {"type": int, "help": "0 enumerates every subset"}),
        "n_per_set": (1000, {"type": int}),
        "seed": (0, {"type": int}),
        "out": (None, {}),
        "truth_out": (None, {}),
    },
    "train": {
        "model": (None, {"choices": MODEL_KINDS}),
        "data": (None, {}),
        "items": (None, {}),
        "split": (None, {}),
        "universe": (0, {"type": int}),
        "depth": (2, {"type": int}),
        "width": (0, {"type": int}),
        "heads": (4, {"type": int}),
        "activation": ("quadratic", {"choices": ["linear", "quadratic"]}),
        "rank": ("full", {"help": "positive integer or 'full'"}),
        "loss": ("nll", {"choices": list(trn.LOSSES)}),
        "lr": (1e-3, {"type": float}),
        "lr2": (0.0, {"type": float, "help": "second-phase learning rate"}),
        "lr_switch": (0, {"type": int, "help": "epoch to switch"}),
        "batch": (0, {"type": int}),
        "epochs": (200, {"type": int}),
        "patience": (0, {"type": int}),
        "clip_norm": (0.0, {"type": float}),
        "seed": (0, {"type": int}),
        "threads": (1, {"type": int, "help": "accepted for compatibility; runs serial"}),
        "out": (None, {}),
        "history": (None, {}),
    },
    "eval": {
        "model_file": (None, {}),
        "data": (None, {}),
        "items": (None, {}),
        "split": (None, {}),
        "truth": (None, {"help": "ground-truth probability table CSV"}),
        "seed": (0, {"type": int}),
        "out": ("metrics.json", {}),
    },
    "halo": {
        "model_file": (None, {}),
        "render_only": (None, {"help": "existing alpha CSV"}),
        "max_order": (2, {"type": int}),
        "pair": (None, {"help": "restrict to one pair, e.g. 1,2"}),
        "svg": (None, {"help": "also render a heatmap SVG"}),
        "force": (False, {"action": "store_const", "const": True}),
        "seed": (0, {"type": int}),
        "out": (None, {}),
    },
}

# Training config files may use the TrainConfig field names directly.
CONFIG_ALIASES = {
    "learning_rate": "lr",
    "batch_size": "batch",
    "max_epochs": "epochs",
}


def _check_config_value(name: str, value, default, keywords: dict) -> None:
    """Raise unless a config-file value is one the option's flag could produce."""
    if value is None and default is None:
        return
    if "choices" in keywords:
        want, ok = f"one of {list(keywords['choices'])}", value in keywords["choices"]
    elif "const" in keywords:
        want, ok = "true or false", type(value) is bool
    elif keywords.get("type") is int:
        want, ok = "an integer", type(value) is int
    elif keywords.get("type") is float:
        want, ok = "a number", type(value) in (int, float)
    elif name == "rank":
        want, ok = "a string or an integer", type(value) in (str, int)
    else:
        want, ok = "a string", type(value) is str
    if not ok:
        raise UsageError(f"config key '{name}' must be {want}, got {json.dumps(value)}")


def _merge_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicitly passed flags, all named in ``OPTIONS``."""
    options = OPTIONS[args.command]
    merged = {name: default for name, (default, _) in options.items()}
    if args.config:
        try:
            file_conf = dat.read_json(args.config)
            check_object(file_conf, f"config file {args.config}")
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        for alias, target in CONFIG_ALIASES.items():
            if alias in file_conf and target in options:
                file_conf[target] = file_conf.pop(alias)
        if "lr_schedule" in file_conf and "lr2" in options:
            schedule = file_conf.pop("lr_schedule")
            if not isinstance(schedule, list) or len(schedule) != 3:
                raise UsageError(
                    f"config key 'lr_schedule' must be [rate1, rate2, switch_epoch], got {schedule!r}"
                )
            rate1, rate2, switch = schedule
            file_conf.setdefault("lr", rate1)
            file_conf.setdefault("lr2", rate2)
            file_conf.setdefault("lr_switch", switch)
        unknown = set(file_conf) - set(options)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for name, value in file_conf.items():
            _check_config_value(name, value, *options[name])
        merged.update(file_conf)
    for name in options:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    return merged


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    conf = _merge_config(args)
    if not conf["out"]:
        raise UsageError("gen requires -o/--out")
    with Manifest("gen", conf, []) as manifest:
        manifest.add_output(conf["out"])
        if conf["n_per_set"] < 1:
            raise UsageError(f"--n-per-set must be at least 1, got {conf['n_per_set']}")
        if conf["sets"] < 0:
            raise UsageError(
                f"--sets must be non-negative (0 enumerates every subset), got {conf['sets']}"
            )
        if conf["fixture"]:
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


def _parse_rank(value) -> int | None:
    """``--rank`` as a positive integer, or None for 'full'."""
    if value in ("full", ""):
        return None
    try:
        rank = int(value)
    except ValueError:
        rank = None
    if rank is None or rank < 1:
        raise UsageError(f"--rank must be a positive integer or 'full', got {value!r}")
    return rank


def _parse_schedule(conf: dict) -> tuple[float, float, int] | None:
    """``(--lr, --lr2, --lr-switch)`` when either of the last two is set, else None."""
    rate, rate2, switch = conf["lr"], conf["lr2"], conf["lr_switch"]
    if not rate2 and not switch:
        return None
    if not rate > 0:
        raise UsageError(f"--lr2 and --lr-switch need --lr, a positive rate; got {rate}")
    if not 0 < rate2 < math.inf:
        raise UsageError(f"--lr-switch needs --lr2, a positive finite rate; got {rate2}")
    if switch < 1:
        raise UsageError(f"--lr2 needs --lr-switch, an epoch >= 1; got {switch}")
    return rate, rate2, switch


def _build_model(conf: dict, dataset: dat.Dataset, rank: int | None):
    kind = conf["model"]
    universe = max(conf["universe"], dataset.universe)
    if kind == "mnl":
        return FeaturelessModel.mnl(universe, seed=conf["seed"])
    if kind == "cmnl":
        return FeaturelessModel.cmnl(universe, seed=conf["seed"])
    if kind == "deephalo-fl":
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


def _train_config(conf: dict, schedule) -> trn.TrainConfig:
    """The run's TrainConfig; a value it rejects is a usage error that names the flag."""
    try:
        return trn.TrainConfig(
            loss=conf["loss"],
            learning_rate=conf["lr"],
            batch_size=conf["batch"],
            max_epochs=conf["epochs"],
            patience=conf["patience"],
            seed=conf["seed"],
            lr_schedule=schedule,
            clip_norm=conf["clip_norm"],
        )
    except ValueError as exc:
        message = str(exc)
        for field in fields(trn.TrainConfig):
            flag = "--" + CONFIG_ALIASES.get(field.name, field.name).replace("_", "-")
            message = re.sub(rf"\b{field.name}\b", flag, message)
        raise UsageError(message) from None


def _load_dataset(conf: dict, split: str) -> dat.Dataset:
    """The ``--data`` set, with the ``--split`` manifest's splits if given.

    ``split`` names the split the command reads; the manifest must hold it.
    """
    if conf["items"]:
        dataset = dat.load_featured_csv(conf["items"], conf["data"])
    else:
        dataset = dat.load_featureless_csv(conf["data"])
    if conf["split"]:
        splits = dat.load_split_manifest(conf["split"])
        if split not in splits:
            raise dat.DataFormatError(f"{conf['split']}: split manifest has no '{split}' split")
        try:
            dataset = dataset.with_splits(splits)
        except dat.DataFormatError as exc:
            raise dat.DataFormatError(f"{conf['split']}: {exc}") from None
    return dataset


def _cmd_train(args) -> int:
    conf = _merge_config(args)
    for required in ("model", "data", "out"):
        if not conf[required]:
            raise UsageError(f"train requires --{required.replace('_', '-')}")
    if conf["model"] != "deephalo-feat" and conf["items"]:
        raise UsageError("--items is only meaningful for deephalo-feat")
    with Manifest("train", conf, [conf["data"]]) as manifest:
        manifest.add_output(conf["out"])
        rank = _parse_rank(conf["rank"])
        config = _train_config(conf, _parse_schedule(conf))
        dataset = _load_dataset(conf, "train")
        model = _build_model(conf, dataset, rank)
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


def _load_model(path: str):
    payload = dat.read_json(path)
    check_object(payload)
    kind = payload.get("kind")
    if kind == "featureless":
        return FeaturelessModel.from_json(payload)
    if kind == "featured":
        return FeaturedModel.from_json(payload)
    raise ValueError(f"model file has unknown kind {kind!r}")


def _cmd_eval(args) -> int:
    conf = _merge_config(args)
    for required in ("model_file", "data"):
        if not conf[required]:
            raise UsageError(f"eval requires --{required.replace('_', '-')}")
    with Manifest("eval", conf, [conf["model_file"], conf["data"]]) as manifest:
        manifest.add_output(conf["out"])
        model = _load_model(conf["model_file"])
        if model.kind != "featured" and conf["items"]:
            raise UsageError("--items is only meaningful for a featured model")
        if model.kind == "featured" and not conf["items"]:
            raise UsageError("a featured model needs its data's item features (--items)")
        if model.kind == "featured" and conf["truth"]:
            raise UsageError(
                "--truth needs a featureless model: a featured model's "
                "probabilities depend on each observation's features"
            )
        dataset = _load_dataset(conf, "test")
        table = dat.load_probability_table(conf["truth"]) if conf["truth"] else {}
        if model.kind == "featured" and dataset.feature_dim != model.feature_dim:
            raise dat.DataFormatError(
                f"{conf['items']}: its items with the shared values of {conf['data']} give "
                f"feature dimension {dataset.feature_dim}, but the model's is {model.feature_dim}"
            )
        sizes = [(conf["data"], dataset.universe)]
        if table:
            sizes.append((conf["truth"], 1 + max(map(max, table))))
        for path, size in sizes:
            if model.kind == "featureless" and size > model.universe:
                raise dat.DataFormatError(
                    f"{path}: its ids need a universe of size {size}, "
                    f"but the model's has size {model.universe}"
                )
        metrics = trn.evaluate(model, dataset, split="test" if conf["split"] else None)
        payload = {
            "nll": metrics.nll,
            "accuracy": metrics.accuracy,
            "rmse": metrics.rmse,
        }
        if table:
            payload["rmse_vs_truth"] = trn.rmse_vs_frequencies(model, table)
        text = json.dumps(payload, indent=2)
        print(text)
        _atomic_write_text(conf["out"], text)
    return 0


# ---------------------------------------------------------------------------
# halo
# ---------------------------------------------------------------------------


def _parse_pair(text: str) -> tuple[int, int]:
    """``"j,k"`` as the ordered pair (min, max) of two item ids."""
    try:
        j, k = sorted(int(v) for v in text.split(","))
    except ValueError:
        j = k = -1
    if j < 0 or j == k:
        raise UsageError(f"--pair must be two distinct item ids >= 0, e.g. 1,2; got {text!r}")
    return j, k


def _cmd_halo(args) -> int:
    conf = _merge_config(args)
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
        if pairs and pairs[0][1] >= model.universe:
            raise ValueError(
                f"--pair {conf['pair']}: item {pairs[0][1]} is outside the model's "
                f"universe of size {model.universe}"
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

    for command, help_text, handler in (
        ("gen", "generate fixture or synthetic choice data", _cmd_gen),
        ("train", "fit a model to a dataset", _cmd_train),
        ("eval", "evaluate a model file on a dataset", _cmd_eval),
        ("halo", "extract relative context effects", _cmd_halo),
    ):
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("--config")
        for name, (_, keywords) in OPTIONS[command].items():
            flags = ["-o"] if name == "out" else []
            cmd.add_argument(*flags, "--" + name.replace("_", "-"), dest=name, **keywords)
        cmd.set_defaults(handler=handler)

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
