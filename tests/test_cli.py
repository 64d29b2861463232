"""End-to-end command-line behavior: plumbing, codes, reproducibility."""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from deephalo import data as dat
from deephalo import training as trn
from deephalo.cli import OPTIONS, main
from deephalo.featured import FeaturedModel
from deephalo.featureless import FeaturelessModel
from deephalo.halo import read_halo_csv


def file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_beverage_row_count(self, tmp_path):
        out = tmp_path / "bev.csv"
        code = run("gen", "--fixture", "beverage", "--n-per-set", "2000",
                   "--seed", "7", "-o", str(out))
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) - 1 == 22000  # header plus 11 sets x 2000
        assert (tmp_path / "bev.csv.truth.csv").exists()
        assert (tmp_path / "bev.csv.manifest.json").exists()

    def test_exhaustive_pairs(self, tmp_path):
        out = tmp_path / "syn.csv"
        code = run("gen", "--universe", "4", "--set-size", "2", "--sets", "0",
                   "--n-per-set", "3", "--seed", "1", "-o", str(out))
        assert code == 0
        ds = dat.load_featureless_csv(out)
        sets = {tuple(sorted(o.choice_set.items)) for o in ds.observations}
        assert len(sets) == 6

    def test_byte_identical_reruns(self, tmp_path):
        args = ("gen", "--universe", "5", "--set-size", "3", "--sets", "4",
                "--n-per-set", "10", "--seed", "3")
        hashes = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run(*args, "-o", str(out)) == 0
            hashes.append((file_hash(out), file_hash(f"{out}.truth.csv")))
        assert hashes[0] == hashes[1]

    def test_missing_output_is_usage_error(self):
        assert run("gen", "--fixture", "beverage") == 2

    def test_fixture_conflicts_with_universe(self, tmp_path):
        code = run("gen", "--fixture", "beverage", "--universe", "4",
                   "--set-size", "2", "-o", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_non_positive_n_per_set_is_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "bev.csv"
        code = run("gen", "--fixture", "beverage", "--n-per-set", n, "-o", str(out))
        assert code == 2
        assert "--n-per-set" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "bev.csv.manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_negative_sets_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "syn.csv"
        code = run("gen", "--universe", "4", "--set-size", "2", "--sets", "-1",
                   "--n-per-set", "2", "-o", str(out))
        assert code == 2
        assert "--sets must be non-negative" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "syn.csv.truth.csv").exists()

    def test_sets_zero_past_the_listing_bound_exits_1(self, tmp_path, capsys):
        # C(40, 20) is about 1.4e11 subsets: refused before any is listed.
        out = tmp_path / "syn.csv"
        start = time.perf_counter()
        code = run("gen", "--universe", "40", "--set-size", "20", "--sets", "0",
                   "-o", str(out))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert f"all {math.comb(40, 20)} subsets" in err
        assert str(dat.MAX_LISTED_SUBSETS) in err
        assert not out.exists()
        assert not (tmp_path / "syn.csv.truth.csv").exists()

    def test_sets_past_the_listing_bound_exits_1(self, tmp_path, capsys):
        # C(40, 20) subsets exist, but drawing more than the bound is refused
        # before any draw or write.
        out = tmp_path / "syn.csv"
        sets = dat.MAX_LISTED_SUBSETS + 1
        start = time.perf_counter()
        code = run("gen", "--universe", "40", "--set-size", "20", "--sets", str(sets),
                   "-o", str(out))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert f"{sets} subsets requested" in err
        assert f"the {dat.MAX_LISTED_SUBSETS} it may draw" in err
        assert not out.exists()
        assert not (tmp_path / "syn.csv.truth.csv").exists()


@pytest.fixture(scope="module")
def beverage_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "bev.csv"
    assert run("gen", "--fixture", "beverage", "--n-per-set", "200",
               "--seed", "23", "-o", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, beverage_csv):
    out = tmp_path_factory.mktemp("model") / "m.json"
    code = run("train", "--model", "deephalo-fl", "--depth", "2",
               "--activation", "quadratic", "--width", "8",
               "--data", str(beverage_csv), "--lr", "0.05",
               "--epochs", "150", "--seed", "5", "-o", str(out))
    assert code == 0
    return out


class TestTrain:
    def test_missing_data_is_usage_error(self, tmp_path):
        code = run("train", "--model", "mnl", "-o", str(tmp_path / "m.json"))
        assert code == 2

    def test_deephalo_beats_mnl_on_context_data(self, tmp_path, beverage_csv, trained_model):
        mnl_out = tmp_path / "mnl.json"
        assert run("train", "--model", "mnl", "--data", str(beverage_csv),
                   "--lr", "0.1", "--epochs", "150", "--seed", "5",
                   "-o", str(mnl_out)) == 0
        import deephalo.training as trn

        ds = dat.load_featureless_csv(beverage_csv)
        deep = trn.evaluate(FeaturelessModel.load(trained_model), ds).nll
        flat = trn.evaluate(FeaturelessModel.load(mnl_out), ds).nll
        assert deep <= flat

    def test_cmnl_preset_matches_declared_configuration(self, tmp_path, beverage_csv):
        out = tmp_path / "cmnl.json"
        assert run("train", "--model", "cmnl", "--data", str(beverage_csv),
                   "--lr", "0.05", "--epochs", "5", "--seed", "1",
                   "-o", str(out)) == 0
        m = FeaturelessModel.load(out)
        assert m.depth == 1 and m.activation == "linear"
        assert m.width == m.universe and m.rank is None

    def test_history_and_manifest_written(self, tmp_path, beverage_csv):
        out = tmp_path / "m.json"
        hist = tmp_path / "h.csv"
        assert run("train", "--model", "mnl", "--data", str(beverage_csv),
                   "--epochs", "3", "-o", str(out), "--history", str(hist)) == 0
        header = hist.read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_nll,lr,wall_ms"
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["command"] == "train"

    def test_feature_model_on_featureless_data_fails(self, tmp_path, beverage_csv):
        code = run("train", "--model", "deephalo-feat", "--data", str(beverage_csv),
                   "--epochs", "2", "-o", str(tmp_path / "m.json"))
        assert code == 1
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_negative_batch_fails_with_error_manifest(self, tmp_path, capsys, beverage_csv):
        code = run("train", "--model", "mnl", "--data", str(beverage_csv),
                   "--batch", "-4", "--epochs", "3", "-o", str(tmp_path / "m.json"))
        assert code == 2
        assert "usage error: --batch must be non-negative" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flags,file_conf,named", [
        (["--batch", "-4"], {"batch_size": -4},
         "--batch must be non-negative (0 = full batch), got -4"),
        (["--epochs", "0"], {"max_epochs": 0}, "--epochs must be positive, got 0"),
        (["--patience", "-1"], {"patience": -1},
         "--patience must lie in [0, --epochs], got -1 with --epochs 200"),
        (["--patience", "5", "--epochs", "2"], {"patience": 5, "epochs": 2},
         "--patience must lie in [0, --epochs], got 5 with --epochs 2"),
    ], ids=["negative-batch", "zero-epochs", "negative-patience", "patience-past-epochs"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_training_range_is_usage_error_before_loading(
        self, tmp_path, capsys, source, flags, file_conf, named
    ):
        # The data file does not exist: the range is checked before it is read.
        given = flags
        if source == "config":
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps(file_conf))
            given = ["--config", str(conf)]
        out = tmp_path / "m.json"
        code = run("train", "--model", "mnl", "--data", str(tmp_path / "absent.csv"),
                   *given, "-o", str(out))
        assert code == 2
        assert f"usage error: {named}\n" == capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert (manifest["status"], manifest["error"]) == ("error", "usage error")

    @pytest.mark.parametrize("flag,value", [
        ("--lr", "nan"), ("--clip-norm", "inf"), ("--lr", "-inf"),
    ], ids=["nan-lr", "inf-clip", "minus-inf-lr"])
    def test_manifest_writes_non_finite_value_as_its_repr(
        self, tmp_path, beverage_csv, flag, value
    ):
        out = tmp_path / "m.json"
        code = run("train", "--model", "mnl", "--data", str(beverage_csv),
                   f"{flag}={value}", "--epochs", "1", "-o", str(out))
        assert code == 2

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        text = (tmp_path / "m.json.manifest.json").read_text()
        manifest = json.loads(text, parse_constant=refuse)
        assert manifest["config"][flag[2:].replace("-", "_")] == value

    def test_malformed_data_exits_1_naming_its_line(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("set,choice\n0;1,0\n0;1\n")
        out = tmp_path / "m.json"
        assert run("train", "--model", "mnl", "--data", str(data), "--epochs", "1",
                   "-o", str(out)) == 1
        assert "error: line 3: expected 2 fields, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_data_that_is_not_utf8_exits_1_naming_its_line(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"set,choice\r\n0;1,0\r\n0;1,\xff\r\n")
        out = tmp_path / "m.json"
        assert run("train", "--model", "mnl", "--data", str(data), "--epochs", "1",
                   "-o", str(out)) == 1
        assert f"error: {data}: line 3: not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_clip_norm_is_usage_error(self, tmp_path, capsys, beverage_csv):
        out = tmp_path / "m.json"
        code = run("train", "--model", "mnl", "--data", str(beverage_csv),
                   "--clip-norm", "-1", "--epochs", "1", "-o", str(out))
        assert code == 2
        assert "--clip-norm must be non-negative and finite, got -1.0" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["status"] == "error"

    @pytest.mark.parametrize("flags,named", [
        (["--lr2", "0.5"], "--lr2 needs --lr-switch, an epoch >= 1; got 0"),
        (["--lr-switch", "3"], "--lr-switch needs --lr2, a positive finite rate; got 0.0"),
        (["--lr2", "0.5", "--lr-switch", "-3"], "--lr2 needs --lr-switch, an epoch >= 1; got -3"),
        (["--lr2", "-0.5", "--lr-switch", "3"], "--lr-switch needs --lr2, a positive finite"),
    ], ids=["rate-only", "switch-only", "negative-switch", "negative-rate"])
    def test_half_or_bad_schedule_is_usage_error(
        self, tmp_path, capsys, beverage_csv, flags, named
    ):
        out = tmp_path / "m.json"
        code = run("train", "--model", "mnl", "--data", str(beverage_csv),
                   *flags, "--epochs", "1", "-o", str(out))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["status"] == "error"

    @pytest.mark.parametrize("flags,named", [
        (["--lr", "-1"], "--lr must be non-negative and finite, got -1.0"),
        (["--lr", "nan"], "--lr must be non-negative and finite, got nan"),
        (["--lr", "inf"], "--lr must be non-negative and finite, got inf"),
        (["--lr", "0", "--lr2", "0.5", "--lr-switch", "3"],
         "--lr2 and --lr-switch need --lr, a positive rate; got 0.0"),
        (["--clip-norm", "nan"], "--clip-norm must be non-negative and finite, got nan"),
        (["--clip-norm", "inf"], "--clip-norm must be non-negative and finite, got inf"),
    ], ids=["negative-lr", "nan-lr", "inf-lr", "zero-lr-with-schedule", "nan-clip", "inf-clip"])
    def test_bad_rate_or_clip_is_usage_error(self, tmp_path, capsys, beverage_csv, flags, named):
        out = tmp_path / "m.json"
        code = run("train", "--model", "mnl", "--data", str(beverage_csv),
                   *flags, "--epochs", "1", "-o", str(out))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["status"] == "error"

    @pytest.mark.parametrize("file_conf,named", [
        ({"lr": -1}, "--lr must be non-negative and finite, got -1"),
        ({"learning_rate": float("nan")}, "--lr must be non-negative and finite, got nan"),
        ({"lr_schedule": [0, 0.5, 3]}, "--lr2 and --lr-switch need --lr, a positive rate; got 0"),
        ({"clip_norm": float("nan")}, "--clip-norm must be non-negative and finite, got nan"),
    ], ids=["negative-lr", "nan-learning-rate", "zero-lr-schedule", "nan-clip"])
    def test_config_rate_and_clip_get_the_flag_check(
        self, tmp_path, capsys, beverage_csv, file_conf, named
    ):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"model": "mnl", **file_conf}))
        out = tmp_path / "m.json"
        code = run("train", "--config", str(conf), "--data", str(beverage_csv),
                   "--epochs", "1", "-o", str(out))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_non_finite_feature_names_its_line(self, tmp_path, capsys):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1\n0,0.5\n1,nan\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice\n0;1,0\n0;1,1\n")
        out = tmp_path / "m.json"
        code = run("train", "--model", "deephalo-feat", "--items", str(items),
                   "--data", str(obs), "--epochs", "1", "-o", str(out))
        assert code == 1
        assert "line 3: item 1 has a non-finite feature" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_config_lr_schedule_gets_the_flag_check(self, tmp_path, capsys, beverage_csv):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"model": "mnl", "lr_schedule": [0.1, 0.01, 0]}))
        out = tmp_path / "m.json"
        code = run("train", "--config", str(conf), "--data", str(beverage_csv),
                   "--epochs", "1", "-o", str(out))
        assert code == 2
        assert "--lr-switch, an epoch >= 1; got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_with_cli_override(self, tmp_path, beverage_csv):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"model": "mnl", "epochs": 3, "lr": 0.1}))
        out = tmp_path / "m.json"
        hist = tmp_path / "h.csv"
        assert run("train", "--config", str(conf), "--data", str(beverage_csv),
                   "--epochs", "2", "-o", str(out), "--history", str(hist)) == 0
        rows = hist.read_text().strip().splitlines()
        assert len(rows) - 1 == 2  # command line epochs beat the config file

    def test_config_accepts_train_config_field_names(self, tmp_path, beverage_csv):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({
            "model": "mnl", "loss": "nll", "learning_rate": 0.1,
            "batch_size": 0, "max_epochs": 4, "seed": 2,
            "lr_schedule": [0.1, 0.01, 3],
        }))
        out = tmp_path / "m.json"
        hist = tmp_path / "h.csv"
        assert run("train", "--config", str(conf), "--data", str(beverage_csv),
                   "-o", str(out), "--history", str(hist)) == 0
        rows = hist.read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        assert rows[0].split(",")[3] == "0.1" and rows[-1].split(",")[3] == "0.01"

    def test_short_lr_schedule_is_usage_error(self, tmp_path, capsys, beverage_csv):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"model": "mnl", "lr_schedule": [0.1, 0.01]}))
        code = run("train", "--config", str(conf), "--data", str(beverage_csv),
                   "-o", str(tmp_path / "m.json"))
        assert code == 2
        assert "lr_schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [[[0, 1]], {"train": [0, "a"]}])
    def test_malformed_split_manifest_exits_1(self, tmp_path, capsys, beverage_csv, payload):
        split = tmp_path / "split.json"
        split.write_text(json.dumps(payload))
        out = tmp_path / "m.json"
        code = run("train", "--model", "mnl", "--data", str(beverage_csv), "--split", str(split),
                   "--epochs", "1", "-o", str(out))
        assert code == 1
        assert str(split) in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, beverage_csv):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"modell": "mnl"}))
        code = run("train", "--config", str(conf), "--model", "mnl",
                   "--data", str(beverage_csv), "-o", str(tmp_path / "m.json"))
        assert code == 2

    @pytest.mark.parametrize("file_conf, named", [
        ({"lr": "abc"}, "config key 'lr' must be a number, got \"abc\""),
        ({"epochs": 2.5}, "config key 'epochs' must be an integer, got 2.5"),
        ({"seed": None}, "config key 'seed' must be an integer, got null"),
        ({"max_epochs": True}, "config key 'epochs' must be an integer, got true"),
        ({"clip_norm": False}, "config key 'clip_norm' must be a number, got false"),
        ({"loss": "hinge"}, "config key 'loss' must be one of ['nll', 'mse_onehot']"),
        ({"data": 3}, "config key 'data' must be a string, got 3"),
        ({"rank": 2.0}, "config key 'rank' must be a string or an integer, got 2.0"),
        (["lr"], "must hold a JSON object, got an array"),
    ], ids=["string-rate", "float-epochs", "null-seed", "bool-alias", "bool-float",
            "choice", "int-path", "float-rank", "array"])
    def test_config_value_the_flag_cannot_produce_is_usage_error(
        self, tmp_path, capsys, beverage_csv, file_conf, named
    ):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(file_conf))
        out = tmp_path / "m.json"
        code = run("train", "--config", str(conf), "--model", "mnl",
                   "--data", str(beverage_csv), "--epochs", "1", "-o", str(out))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "m.json.manifest.json").exists()

    def test_config_null_and_integer_rank_where_the_flag_allows(self, tmp_path, beverage_csv):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"model": "mnl", "history": None, "rank": 3, "lr": 1}))
        assert run("train", "--config", str(conf), "--data", str(beverage_csv),
                   "--epochs", "1", "-o", str(tmp_path / "m.json")) == 0

    def test_manifest_config_resolves_in_table_order(self, tmp_path, beverage_csv):
        file_conf = {"model": "mnl", "epochs": 3, "lr": 0.1, "seed": 4}
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(file_conf))
        out = tmp_path / "m.json"
        flags = {"data": str(beverage_csv), "epochs": 2, "out": str(out)}
        assert run("train", "--config", str(conf), "--data", flags["data"],
                   "--epochs", "2", "-o", flags["out"]) == 0
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert list(manifest["config"]) == list(OPTIONS["train"])
        assert manifest["config"] == {
            name: flags.get(name, file_conf.get(name, default))
            for name, (default, _) in OPTIONS["train"].items()
        }
        assert manifest["config"]["epochs"] == 2 and manifest["config"]["lr"] == 0.1
        assert manifest["config"]["batch"] == 0 and manifest["seed"] == 4

    @pytest.mark.parametrize("rank, named", [
        ("abc", "'abc'"), ("0", "'0'"), ("-3", "'-3'"), (0, "0"), (-3, "-3"),
    ], ids=["flag-text", "flag-zero", "flag-negative", "config-zero", "config-negative"])
    def test_rank_that_is_not_positive_is_usage_error(
        self, tmp_path, capsys, beverage_csv, rank, named
    ):
        out = tmp_path / "m.json"
        given = ["--rank", rank]
        if not isinstance(rank, str):
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"rank": rank}))
            given = ["--config", str(conf)]
        code = run("train", "--model", "deephalo-fl", "--data", str(beverage_csv),
                   *given, "--epochs", "1", "-o", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert f"--rank must be a positive integer or 'full', got {named}" in err
        assert not out.exists()

    @pytest.mark.parametrize("model, flag, value, least", [
        ("deephalo-fl", "--depth", "0", 1),
        ("deephalo-fl", "--width", "-2", 0),
        ("deephalo-feat", "--depth", "-1", 1),
        ("deephalo-feat", "--heads", "0", 1),
        ("deephalo-feat", "--width", "-1", 0),
    ])
    def test_architecture_below_its_least_is_usage_error_before_loading(
        self, tmp_path, capsys, model, flag, value, least
    ):
        """The data files do not exist: the flag is checked before they load."""
        out = tmp_path / "m.json"
        items = ["--items", str(tmp_path / "items.csv")] if model == "deephalo-feat" else []
        code = run("train", "--model", model, "--data", str(tmp_path / "absent.csv"), *items,
                   flag, value, "-o", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert f"usage error: {flag} must be at least {least}, got {value}" in err
        assert not out.exists()

    def test_architecture_flags_a_model_kind_does_not_read_are_not_checked(
        self, tmp_path, beverage_csv
    ):
        out = tmp_path / "m.json"
        code = run("train", "--model", "mnl", "--data", str(beverage_csv), "--depth", "0",
                   "--heads", "0", "--width", "-1", "--epochs", "1", "-o", str(out))
        assert code == 0 and out.exists()

    def test_split_index_out_of_range_names_manifest(self, tmp_path, capsys, beverage_csv):
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"train": [0, 1, 999999]}))
        out = tmp_path / "m.json"
        code = run("train", "--model", "mnl", "--data", str(beverage_csv), "--split", str(split),
                   "--epochs", "1", "-o", str(out))
        assert code == 1
        assert f"{split}: split 'train' indexes out of range: [999999]" in capsys.readouterr().err
        assert not out.exists()

    def test_split_manifest_without_train_split_exits_1(self, tmp_path, capsys, beverage_csv):
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"val": [0], "test": [1]}))
        out = tmp_path / "m.json"
        code = run("train", "--model", "mnl", "--data", str(beverage_csv), "--split", str(split),
                   "--epochs", "1", "-o", str(out))
        assert code == 1
        assert f"{split}: split manifest has no 'train' split" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_split_scores_the_test_split(self, tmp_path, beverage_csv, trained_model):
        splits = {"train": list(range(0, 2200, 2)), "test": list(range(1, 2200, 4))}
        split = tmp_path / "split.json"
        dat.save_split_manifest(splits, split)
        out = tmp_path / "metrics.json"
        assert run("eval", "--model-file", str(trained_model), "--data", str(beverage_csv),
                   "--split", str(split), "-o", str(out)) == 0
        ds = dat.load_featureless_csv(beverage_csv).with_splits(splits)
        expected = trn.evaluate(FeaturelessModel.load(trained_model), ds, "test")
        assert json.loads(out.read_text())["nll"] == expected.nll
        whole = trn.evaluate(FeaturelessModel.load(trained_model), ds)
        assert expected.nll != whole.nll

    def test_split_manifest_without_test_split_exits_1(
        self, tmp_path, capsys, beverage_csv, trained_model
    ):
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"train": [0, 1]}))
        out = tmp_path / "metrics.json"
        assert run("eval", "--model-file", str(trained_model), "--data", str(beverage_csv),
                   "--split", str(split), "-o", str(out)) == 1
        assert f"{split}: split manifest has no 'test' split" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target, code", [("config", 2), ("split", 1), ("model-file", 1)])
    def test_file_that_is_not_json_is_named(
        self, tmp_path, capsys, beverage_csv, trained_model, target, code
    ):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        paths = {"config": None, "split": None, "model-file": str(trained_model)}
        paths[target] = str(bad)
        given = [arg for name, path in paths.items() if path for arg in (f"--{name}", path)]
        out = tmp_path / "metrics.json"
        assert run("eval", *given, "--data", str(beverage_csv), "-o", str(out)) == code
        assert f"{bad}: not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_with_truth_table(self, tmp_path, beverage_csv, trained_model):
        out = tmp_path / "metrics.json"
        code = run("eval", "--model-file", str(trained_model),
                   "--data", str(beverage_csv),
                   "--truth", f"{beverage_csv}.truth.csv", "-o", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"nll", "accuracy", "rmse", "rmse_vs_truth"}
        assert payload["rmse_vs_truth"] < 0.2

    def test_truth_with_repeated_set_exits_1(self, tmp_path, capsys, beverage_csv, trained_model):
        truth = tmp_path / "truth.csv"
        truth.write_text("set,probs\n0;1,0.5;0.5\n0;1,0.9;0.1\n")
        out = tmp_path / "metrics.json"
        code = run("eval", "--model-file", str(trained_model), "--data", str(beverage_csv),
                   "--truth", str(truth), "-o", str(out))
        assert code == 1
        assert "line 3: set (0, 1) repeats line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_with_nan_probability_exits_1(
        self, tmp_path, capsys, beverage_csv, trained_model
    ):
        truth = tmp_path / "truth.csv"
        truth.write_text("set,probs\n0;1,0.5;nan\n")
        out = tmp_path / "metrics.json"
        code = run("eval", "--model-file", str(trained_model), "--data", str(beverage_csv),
                   "--truth", str(truth), "-o", str(out))
        assert code == 1
        assert "line 2: non-finite probability for set (0, 1)" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_header_only_truth_table_exits_1_naming_it(
        self, tmp_path, capsys, beverage_csv, trained_model
    ):
        truth = tmp_path / "t.csv"
        truth.write_text("set,probs\n")
        out = tmp_path / "metrics.json"
        code = run("eval", "--model-file", str(trained_model), "--data", str(beverage_csv),
                   "--truth", str(truth), "-o", str(out))
        assert code == 1
        assert f"error: {truth}: no data rows after the header" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_data_is_runtime_error(self, tmp_path, trained_model):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = run("eval", "--model-file", str(trained_model),
                   "--data", str(empty), "-o", str(tmp_path / "m.json"))
        assert code == 1

    def test_usage_error_without_model(self, tmp_path, beverage_csv):
        assert run("eval", "--data", str(beverage_csv)) == 2

    def test_items_with_featureless_model_is_usage_error(
        self, tmp_path, capsys, beverage_csv, trained_model
    ):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1\n0,0.5\n1,0.1\n2,0.2\n3,0.3\n")
        out = tmp_path / "metrics.json"
        code = run("eval", "--model-file", str(trained_model), "--data", str(beverage_csv),
                   "--items", str(items), "-o", str(out))
        assert code == 2
        assert "--items" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
        assert manifest["status"] == "error"

    @pytest.mark.parametrize("target", ["data", "truth"])
    def test_ids_beyond_the_model_universe_name_their_file(
        self, tmp_path, capsys, beverage_csv, trained_model, target
    ):
        paths = {"data": beverage_csv, "truth": f"{beverage_csv}.truth.csv"}
        bad = tmp_path / "bad.csv"
        bad.write_text("set,choice\n0;7,0\n" if target == "data" else "set,probs\n0;7,0.5;0.5\n")
        paths[target] = bad
        out = tmp_path / "metrics.json"
        code = run("eval", "--model-file", str(trained_model), "--data", str(paths["data"]),
                   "--truth", str(paths["truth"]), "-o", str(out))
        assert code == 1
        assert (f"error: {bad}: its ids need a universe of size 8, but the model's has size 4"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_items_of_another_feature_dimension_name_the_file(self, tmp_path, capsys):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1,f2\n0,0.5,1.0\n1,-0.25,2.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice\n0;1,0\n0;1,1\n")
        model = tmp_path / "feat.json"
        FeaturedModel(3, 4, 1, 1, seed=0).save(model)
        out = tmp_path / "metrics.json"
        code = run("eval", "--model-file", str(model), "--data", str(obs),
                   "--items", str(items), "-o", str(out))
        assert code == 1
        assert (f"error: {items}: its items with the shared values of {obs} give feature "
                "dimension 2, but the model's is 3" in capsys.readouterr().err)
        assert not out.exists()
        manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_featured_model_without_items_is_usage_error(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice\n0;1,0\n0;1,1\n")
        model = tmp_path / "feat.json"
        FeaturedModel(1, 4, 1, 1, seed=0).save(model)
        out = tmp_path / "metrics.json"
        code = run("eval", "--model-file", str(model), "--data", str(obs), "-o", str(out))
        assert code == 2
        assert "--items" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_truth_with_featured_model_names_truth(self, tmp_path, capsys):
        items = tmp_path / "items.csv"
        items.write_text("item_id,f1\n0,0.5\n1,-0.25\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("set,choice\n0;1,0\n0;1,1\n")
        truth = tmp_path / "truth.csv"
        dat.write_probability_table({(0, 1): np.array([0.5, 0.5])}, truth)
        model = tmp_path / "feat.json"
        FeaturedModel(1, 4, 1, 1, seed=0).save(model)
        out = tmp_path / "metrics.json"
        code = run("eval", "--model-file", str(model), "--data", str(obs),
                   "--items", str(items), "--truth", str(truth), "-o", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "--truth" in err and "missing 1 required positional argument" not in err
        assert not out.exists()
        manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
        assert manifest["status"] == "error"
        # Without --truth the same featured evaluation runs.
        assert run("eval", "--model-file", str(model), "--data", str(obs),
                   "--items", str(items), "-o", str(out)) == 0


def _featured_inputs(tmp_path):
    items = tmp_path / "items.csv"
    items.write_text("item_id,f1\n0,0.5\n1,-0.25\n2,1.0\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("set,choice\n0;1,0\n0;1;2,2\n")
    return items, obs


def _broken_embed(payload):
    payload["weights"]["embed.w2"] = [[0.1, 0.2], [0.3, 0.4]]


def _nan_readout(payload):
    payload["weights"]["readout"][0][0] = float("nan")


def _no_feature_dim(payload):
    del payload["d_x"]


def _with_group(payload, name):
    payload["matrices"][name] = [[1.0]]
    return payload


class TestModelFileValidation:
    """A malformed model file fails at load with a message naming what is wrong."""

    @pytest.mark.parametrize("corrupt,named", [
        (_broken_embed, "'embed.w2' has shape (2, 2)"),
        (_nan_readout, "'readout' has non-finite entries"),
        (_no_feature_dim, "missing header key 'd_x'"),
    ], ids=["shape", "nan", "header"])
    def test_featured_eval_names_the_group(self, tmp_path, capsys, corrupt, named):
        items, obs = _featured_inputs(tmp_path)
        payload = FeaturedModel(1, 4, 1, 1, seed=0).to_json()
        corrupt(payload)
        model = tmp_path / "feat.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "metrics.json"
        code = run("eval", "--model-file", str(model), "--data", str(obs),
                   "--items", str(items), "-o", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not out.exists()
        manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
        assert manifest["status"] == "error" and named in manifest["error"]

    @pytest.mark.parametrize("command", ["eval", "halo"])
    @pytest.mark.parametrize("payload,named", [
        ([{"kind": "featureless"}], "model file must hold a JSON object, got an array"),
        (dict(FeaturedModel(1, 4, 1, 1).to_json(), d="4"),
         "model file header key 'd' must be an integer, got \"4\""),
        (dict(FeaturelessModel.cmnl(3).to_json(), L=2.5),
         "model file header key 'L' must be an integer, got 2.5"),
        (dict(FeaturelessModel.cmnl(3).to_json(), J_prime=None),
         "model file header key 'J_prime' must be an integer, got null"),
        (_with_group(FeaturelessModel.cmnl(3).to_json(), "layer7"),
         "weight group 'layer7' is not in the declared architecture"),
        (_with_group(FeaturelessModel.cmnl(3).to_json(), "readout"),
         "weight group 'readout' is not in the declared architecture"),
        (_with_group(FeaturelessModel.mnl(3).to_json(), "readuot"),
         "weight group 'readuot' is not in the declared architecture"),
    ], ids=["list", "string-size", "float-size", "null-size",
            "layer-past-depth", "identity-readout", "misspelt-group"])
    def test_malformed_header_exits_1(self, tmp_path, capsys, command, payload, named):
        _, obs = _featured_inputs(tmp_path)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "out.csv"
        args = ["--data", str(obs)] if command == "eval" else []
        assert run(command, "--model-file", str(model), *args, "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not out.exists()

    def test_featureless_eval_names_the_group(self, tmp_path, capsys, beverage_csv):
        payload = FeaturelessModel.deephalo(4, width=6, depth=2, seed=1).to_json()
        payload["matrices"]["layer1"] = np.zeros((6, 4)).tolist()
        model = tmp_path / "fl.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "metrics.json"
        code = run("eval", "--model-file", str(model), "--data", str(beverage_csv),
                   "-o", str(out))
        assert code == 1
        assert "'layer1' has shape (6, 4)" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
        assert manifest["status"] == "error"


class TestHalo:
    def test_beverage_table_shape(self, tmp_path, trained_model):
        out = tmp_path / "alpha.csv"
        assert run("halo", "--model-file", str(trained_model),
                   "--max-order", "2", "-o", str(out)) == 0
        table = read_halo_csv(out)
        assert len(table.pairs()) == 6
        assert len(table.entries) == 24  # 4 sources per pair
        # Pepsi's intrinsic edge over Coke shows as a positive no-context cell.
        assert table.get(0, 1, ()) > 0

    def test_pair_filter(self, tmp_path, trained_model):
        out = tmp_path / "alpha.csv"
        assert run("halo", "--model-file", str(trained_model),
                   "--max-order", "2", "--pair", "1,2", "-o", str(out)) == 0
        assert read_halo_csv(out).pairs() == [(1, 2)]

    @pytest.mark.parametrize("pair", ["1", "1,x", "1,2,3", "1,1", "-1,2"])
    def test_malformed_pair_is_usage_error(self, tmp_path, capsys, trained_model, pair):
        out = tmp_path / "alpha.csv"
        code = run("halo", "--model-file", str(trained_model), "--max-order", "2",
                   f"--pair={pair}", "-o", str(out))
        assert code == 2
        assert "--pair" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "alpha.csv.manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_pair_outside_the_model_universe_exits_1(self, tmp_path, capsys, trained_model):
        out = tmp_path / "alpha.csv"
        code = run("halo", "--model-file", str(trained_model), "--max-order", "2",
                   "--pair", "2,9", "-o", str(out))
        assert code == 1
        assert ("error: --pair 2,9: item 9 is outside the model's universe of size 4"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_render_only_reproduces_svg(self, tmp_path, trained_model):
        alpha = tmp_path / "alpha.csv"
        svg_direct = tmp_path / "direct.svg"
        assert run("halo", "--model-file", str(trained_model), "--max-order", "2",
                   "-o", str(alpha), "--svg", str(svg_direct)) == 0
        svg_rendered = tmp_path / "rendered.svg"
        assert run("halo", "--render-only", str(alpha),
                   "--svg", str(svg_rendered)) == 0
        assert svg_direct.read_bytes() == svg_rendered.read_bytes()

    @pytest.mark.parametrize("row", ["0,1", "0,x,,0.5", "0,1,,inf"])
    def test_render_only_malformed_row_exits_1(self, tmp_path, capsys, row):
        alpha = tmp_path / "alpha.csv"
        alpha.write_text(f"# universe=2 max_order=0\npair_j,pair_k,source_set,alpha\n{row}\n")
        svg = tmp_path / "alpha.svg"
        assert run("halo", "--render-only", str(alpha), "--svg", str(svg)) == 1
        assert "error: line 3:" in capsys.readouterr().err
        assert not svg.exists()

    def test_render_only_repeated_entry_exits_1(self, tmp_path, capsys):
        alpha = tmp_path / "alpha.csv"
        alpha.write_text("# universe=3 max_order=1\npair_j,pair_k,source_set,alpha\n"
                         "0,1,,0.5\n0,1,,0.75\n")
        svg = tmp_path / "alpha.svg"
        assert run("halo", "--render-only", str(alpha), "--svg", str(svg)) == 1
        assert "error: line 4: entry (0, 1, ()) repeats line 3" in capsys.readouterr().err
        assert not svg.exists()

    def test_render_only_csv_without_header_row_exits_1(self, tmp_path, capsys):
        alpha = tmp_path / "alpha.csv"
        alpha.write_text("# universe=2 max_order=0\n0,1,,0.5\n")
        svg = tmp_path / "alpha.svg"
        assert run("halo", "--render-only", str(alpha), "--svg", str(svg)) == 1
        assert ("error: line 2: expected header 'pair_j,pair_k,source_set,alpha', got '0,1,,0.5'"
                in capsys.readouterr().err)
        assert not svg.exists()

    def test_render_only_malformed_header_exits_1(self, tmp_path, capsys):
        alpha = tmp_path / "alpha.csv"
        alpha.write_text("# universe=x max_order=1\npair_j,pair_k,source_set,alpha\n0,1,,0.5\n")
        svg = tmp_path / "alpha.svg"
        assert run("halo", "--render-only", str(alpha), "--svg", str(svg)) == 1
        assert "error: line 1: header key 'universe'" in capsys.readouterr().err
        assert not svg.exists()

    def test_render_only_entry_less_csv(self, tmp_path, capsys):
        alpha = tmp_path / "alpha.csv"
        alpha.write_text("pair_j,pair_k,source_set,alpha\n")
        svg = tmp_path / "alpha.svg"
        assert run("halo", "--render-only", str(alpha), "--svg", str(svg)) == 1
        assert f"error: {alpha}: no alpha entries" in capsys.readouterr().err
        assert not svg.exists()
        # With its universe declared, an entry-less table renders empty.
        alpha.write_text("# universe=3 max_order=2\npair_j,pair_k,source_set,alpha\n")
        assert run("halo", "--render-only", str(alpha), "--svg", str(svg)) == 0
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("force", [1, "yes"])
    def test_config_force_must_be_a_boolean(self, tmp_path, capsys, trained_model, force):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"force": force}))
        out = tmp_path / "alpha.csv"
        assert run("halo", "--config", str(conf), "--model-file", str(trained_model),
                   "-o", str(out)) == 2
        assert "config key 'force' must be true or false" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_order_fails_without_table(self, tmp_path, capsys, trained_model):
        out = tmp_path / "alpha.csv"
        assert run("halo", "--model-file", str(trained_model),
                   "--max-order", "-1", "-o", str(out)) == 2
        assert "usage error: --max-order must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()
        # Checked before the model file loads.
        assert run("halo", "--model-file", str(tmp_path / "absent.json"),
                   "--max-order", "-1", "-o", str(out)) == 2
        assert not out.exists()

    def test_missing_output_usage_error(self, trained_model):
        assert run("halo", "--model-file", str(trained_model)) == 2

    @staticmethod
    def _untrained(tmp_path, universe):
        path = tmp_path / f"m{universe}.json"
        FeaturelessModel.deephalo(universe, width=universe, depth=2, seed=1).save(path)
        return path

    def test_twelve_items_at_order_one_run_unforced(self, tmp_path):
        # 1 + 12 + 66 + 220 = 299 subsets, within the budget.
        out = tmp_path / "alpha.csv"
        assert run("halo", "--model-file", str(self._untrained(tmp_path, 12)),
                   "--max-order", "1", "-o", str(out)) == 0
        assert len(read_halo_csv(out).entries) == 66 * 11  # {} and 10 single sources

    def test_over_the_budget_exits_1_without_table(self, tmp_path, capsys):
        # Order 12 over 14 items needs every subset of the 14 ids.
        out = tmp_path / "alpha.csv"
        assert run("halo", "--model-file", str(self._untrained(tmp_path, 14)),
                   "--max-order", "12", "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert "14 ids holds 16384 subsets, above the budget of 8192" in err
        assert "--force" in err
        assert not out.exists()
        manifest = json.loads((tmp_path / "alpha.csv.manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_force_help_names_the_budget(self):
        assert "subset budget" in OPTIONS["halo"]["force"][1]["help"]


@pytest.mark.parametrize("command, flag", [
    ("train", "--threads"), ("eval", "--seed"), ("halo", "--seed"),
])
def test_removed_flag_is_usage_error(capsys, command, flag):
    assert run(command, flag, "1") == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("train", "threads"), ("eval", "seed"), ("halo", "seed")])
def test_removed_option_is_unknown_config_key(tmp_path, capsys, command, key):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: 1}))
    assert run(command, "--config", str(conf)) == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "halo"])
def test_deterministic_command_manifest_has_null_seed(
    tmp_path, beverage_csv, trained_model, command
):
    out = tmp_path / "out"
    given = {"eval": ["--data", str(beverage_csv)], "halo": ["--max-order", "1"]}[command]
    assert run(command, "--model-file", str(trained_model), *given, "-o", str(out)) == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert list(manifest["config"]) == list(OPTIONS[command])
    assert manifest["seed"] is None and manifest["status"] == "ok"


def test_version_flag_exits_zero():
    assert run("--version") == 0


def test_unknown_subcommand_is_usage_error():
    assert run("frobnicate") == 2
