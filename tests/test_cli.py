import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adagev
from adagev import autodiff as ad, cli, data as dt, evt, model as md
from adagev import objective as obj, pipeline as pl
from test_data import ODD_SPELLINGS, REFUSED_BODIES, write_idx_pair


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    """A small blobs CSV plus train flags sized for it."""
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    rc = run("gen-data", "--out", str(path),
             "--source-per-class", "30", "--target-per-class", "20")
    assert rc == 0
    flags = ["--data", str(path), "--epochs", "2", "--batch", "16",
             "--hidden", "8", "--tail", "block:2"]
    return path, flags


@pytest.fixture(scope="module")
def trained_dir(small_data, tmp_path_factory):
    _, flags = small_data
    outdir = tmp_path_factory.mktemp("run")
    rc = run("train", "--out", str(outdir), *flags)
    assert rc == 0
    return outdir


class TestGenData:
    def test_writes_csv_and_echo(self, tmp_path, capsys):
        out = tmp_path / "blobs.csv"
        rc = run("gen-data", "--out", str(out),
                 "--source-per-class", "5", "--target-per-class", "4")
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "adagev-blobs v1"
        assert len(lines) == 1 + 10 * 5 + 10 * 4
        echo = json.loads((tmp_path / "blobs.csv.config.json").read_text())
        assert echo["command"] == "gen-data"
        assert echo["source_per_class"] == 5
        assert "wrote" in capsys.readouterr().out

    def test_missing_out(self, capsys):
        assert run("gen-data") == 2

    def test_too_few_classes_for_split(self, tmp_path):
        rc = run("gen-data", "--out", str(tmp_path / "x.csv"), "--classes", "5")
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--known", "--source-unknown", "--target-unknown"])
    def test_negative_role_id_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        assert run("gen-data", "--out", str(out), f"{flag}=-1") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[0, 10)" in err and "[-1]" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--std", "nan"), ("--std", "inf"),
                                            ("--std", "1e308"), ("--rotation-deg", "nan"),
                                            ("--translate", "nan,0")])
    def test_non_finite_setting_is_data_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        assert run("gen-data", "--out", str(out), flag, value) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--dim", "1", "dim >= 2"), ("--source-per-class", "0", "counts must be positive"),
        ("--target-per-class", "0", "counts must be positive"),
        ("--translate", "1", "expected two components"),
        ("--translate", "a,b", "expected comma-separated reals")])
    def test_invalid_setting_is_usage_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x.csv"
        assert run("gen-data", "--out", str(out), flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_echo_replays(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("gen-data", "--out", str(a), "--seed", "5", "--std", "0.2",
                   "--source-per-class", "5", "--target-per-class", "4") == 0
        echo = tmp_path / "a.csv.config.json"
        assert run("gen-data", "--out", str(b), "--config", str(echo)) == 0
        assert a.read_bytes() == b.read_bytes()
        replayed = json.loads((tmp_path / "b.csv.config.json").read_text())
        assert replayed == dict(json.loads(echo.read_text()), out=str(b))

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            run("gen-data", "--out", str(p), "--seed", "3",
                "--source-per-class", "5", "--target-per-class", "4")
        assert a.read_text() == b.read_text()


class TestTrain:
    def test_outputs(self, trained_dir):
        assert (trained_dir / "checkpoint.bin").exists()
        log = (trained_dir / "train_log.jsonl").read_text().splitlines()
        assert len(log) == 2
        record = json.loads(log[0])
        assert {"epoch", "L_d", "L_e", "L_c", "total"} <= set(record)
        echo = json.loads((trained_dir / "config.json").read_text())
        assert echo["command"] == "train"
        assert echo["epochs"] == 2

    def test_missing_out(self, small_data):
        _, flags = small_data
        assert run("train", *flags) == 2

    def test_no_data_source(self, tmp_path):
        assert run("train", "--out", str(tmp_path)) == 2

    def test_missing_data_file(self, tmp_path):
        rc = run("train", "--out", str(tmp_path), "--data", str(tmp_path / "nope.csv"))
        assert rc == 3

    def test_corrupt_data_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not the header\n")
        rc = run("train", "--out", str(tmp_path / "out"), "--data", str(bad))
        assert rc == 3

    def test_bad_tail_flag(self, small_data, tmp_path):
        path, _ = small_data
        rc = run("train", "--out", str(tmp_path), "--data", str(path),
                 "--tail", "bogus:3")
        assert rc == 2

    def test_tail_none_rejected(self, small_data, tmp_path):
        path, _ = small_data
        rc = run("train", "--out", str(tmp_path), "--data", str(path),
                 "--tail", "none")
        assert rc == 2

    def test_config_file_precedence(self, small_data, tmp_path):
        path, _ = small_data
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 1, "batch": 16, "hidden": "8",
                                      "tail": "block:2"}))
        outdir = tmp_path / "run"
        rc = run("train", "--out", str(outdir), "--data", str(path),
                 "--config", str(config), "--batch", "8")
        assert rc == 0
        echo = json.loads((outdir / "config.json").read_text())
        assert echo["epochs"] == 1   # from config file
        assert echo["batch"] == 8    # flag wins over config file

    def test_divergence_is_numerical_failure(self, small_data, tmp_path, capsys):
        _, flags = small_data
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("train", "--out", str(tmp_path / "run"), *flags, "--lr", "1e150")
        assert rc == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "diverged at epoch 1, iteration" in err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_overflowing_squared_gradient_is_numerical_failure(self, small_data, tmp_path,
                                                                capsys):
        path, flags = small_data
        data = tmp_path / "huge.csv"
        data.write_text(path.read_text() + "target,0,1e160,-1e160\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("train", "--out", str(tmp_path / "run"), *flags, "--data", str(data),
                     "--hidden", "16")
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: training diverged at epoch ")
        assert err.endswith(": optimizer: squared gradient overflowed\n")
        assert len(err.splitlines()) == 1 and "RuntimeWarning" not in err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_collapsed_gev_fit_is_numerical_failure(self, small_data, tmp_path, capsys):
        _, flags = small_data
        rc = run("train", "--out", str(tmp_path / "run"), *flags, "--epochs", "3",
                 "--lr", "1e3")
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: GEV fit of the 120 last-epoch "
                                 "source entropies failed: ")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_is_data_error(self, small_data, tmp_path, capsys, value):
        path, _ = small_data
        lines = path.read_text().splitlines()
        domain, label, *feats = lines[5].split(",")
        lines[5] = ",".join([domain, label, value, *feats[1:]])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = run("train", "--out", str(tmp_path / "run"), "--data", str(bad))
        assert rc == 3
        assert "bad.csv:6: non-finite feature" in capsys.readouterr().err

    def test_tail_too_small_is_data_error_before_training(self, small_data, tmp_path, capsys,
                                                          monkeypatch):
        def step(*args):
            raise AssertionError("a training step ran")
        monkeypatch.setattr(obj, "total_step_gradients", step)
        path, _ = small_data  # 120 source-known rows: 6 blocks of the default 20
        outdir = tmp_path / "run"
        rc = run("train", "--out", str(outdir), "--data", str(path))
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["data error: the 120 source rows cannot give a GEV tail: "
                       "block_maxima needs >= 30 blocks, got 6 (120 values, block size 20)"]
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("under", [False, True], ids=["at", "under"])
    def test_out_at_a_file_is_data_error_before_training(self, small_data, tmp_path, capsys,
                                                         monkeypatch, command, under):
        def step(*args):
            raise AssertionError("a training step ran")
        monkeypatch.setattr(obj, "total_step_gradients", step)
        _, flags = small_data
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if under else afile
        assert run(command, "--out", str(out), *flags) == 3
        assert capsys.readouterr().err == f"data error: --out {out}: {afile} is not a directory\n"
        assert afile.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == [afile]

    def test_echo_replays_byte_identical(self, trained_dir, tmp_path):
        outdir = tmp_path / "replay"
        rc = run("train", "--out", str(outdir), "--config", str(trained_dir / "config.json"))
        assert rc == 0
        for name in ("checkpoint.bin", "train_log.jsonl"):
            assert (outdir / name).read_bytes() == (trained_dir / name).read_bytes()

    def test_config_of_another_command(self, small_data, tmp_path, capsys):
        path, _ = small_data
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "gen-data", "seed": 1}))
        rc = run("train", "--out", str(tmp_path / "o"), "--data", str(path),
                 "--config", str(config))
        assert rc == 2
        assert "is for 'gen-data', not 'train'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["", "0", "-5", "8,0"])
    def test_non_positive_hidden_is_usage_error_before_data_loads(self, tmp_path, capsys,
                                                                  value):
        rc = run("train", "--out", str(tmp_path / "run"), "--data", str(tmp_path / "no.csv"),
                 "--hidden", value)
        assert rc == 2  # a missing --data file would exit 3
        assert capsys.readouterr().err == (
            f"error: --hidden must be one or more positive widths, got {value!r}\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_is_usage_error(self, small_data, tmp_path, capsys, value):
        _, flags = small_data
        rc = run("train", "--out", str(tmp_path / "run"), *flags, "--lr", value)
        assert rc == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_repeated_role_id_is_data_error(self, small_data, tmp_path, capsys):
        _, flags = small_data
        rc = run("train", "--out", str(tmp_path / "run"), *flags, "--known", "0,0")
        assert rc == 2
        assert "class ids [0] appear more than once" in capsys.readouterr().err

    def test_unknown_config_key(self, small_data, tmp_path):
        path, _ = small_data
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"bogus_key": 1}))
        rc = run("train", "--out", str(tmp_path / "o"), "--data", str(path),
                 "--config", str(config))
        assert rc == 2

    @pytest.mark.parametrize("values,key", [
        ({"epochs": "2"}, "epochs"), ({"epochs": 2.5}, "epochs"), ({"epochs": True}, "epochs"),
        ({"lr": "0.1"}, "lr"), ({"weight_mode": "neg_entropy"}, "weight_mode"),
        ({"hidden": [8, 8]}, "hidden"), ({"data": 5}, "data"),
    ])
    def test_config_value_of_wrong_kind(self, small_data, tmp_path, capsys, values, key):
        path, _ = small_data
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        rc = run("train", "--out", str(tmp_path / "o"), "--data", str(path),
                 "--config", str(config))
        assert rc == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["lr", "lambda_d", "std", "tau"])
    def test_integer_beyond_float_range_is_usage_error(self, tmp_path, capsys, key):
        """Refused before any file is read; a float key keeps an integer that a
        float holds as the integer it is, so its echo is unchanged."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: 10 ** 400}))
        command = {"std": ["gen-data"], "tau": ["ablate", "--variant", "hard-threshold"]}.get(
            key, ["train"])
        data = [] if key == "std" else ["--data", str(tmp_path / "missing.csv")]
        out = tmp_path / "out"
        assert run(*command, "--config", str(config), "--out", str(out), *data) == 2
        assert capsys.readouterr().err == (f"error: config key {key!r} must be a number "
                                           f"within float range, got {10 ** 400!r}\n")
        assert not out.exists()
        flag = cli.GEN_FLAGS["std"] if key == "std" else cli.TRAIN_FLAGS["lr"]
        assert type(cli._config_value(key, flag, 10 ** 308)) is int

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("name", ODD_SPELLINGS)
    def test_odd_spelling_in_the_data_is_a_malformed_row(self, tmp_path, capsys, name,
                                                          command):
        path = tmp_path / "odd.csv"
        path.write_text("\n".join([dt.EXPORT_HEADER, *REFUSED_BODIES[name]]) + "\n",
                        encoding="utf-8")
        out = tmp_path / ("run" if command == "train" else "report.json")
        extra = ["--checkpoint", str(tmp_path / "none.bin")] if command == "eval" else []
        assert run(command, "--data", str(path), "--out", str(out), *extra) == 3
        assert capsys.readouterr().err == (f"data error: {path}:{ODD_SPELLINGS[name]}: "
                                           f"malformed row\n")
        assert not out.exists()

    def test_missing_config_file_is_data_error(self, small_data, tmp_path, capsys):
        _, flags = small_data
        rc = run("train", "--out", str(tmp_path / "run"), *flags,
                 "--config", str(tmp_path / "nope.json"))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error: cannot read config ")
        assert not (tmp_path / "run").exists()

    def test_config_not_an_object(self, small_data, tmp_path):
        path, _ = small_data
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]")
        rc = run("train", "--out", str(tmp_path / "o"), "--data", str(path),
                 "--config", str(config))
        assert rc == 2

    def test_config_kinds_accepted(self, small_data, tmp_path):
        path, _ = small_data
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 1.0, "batch": 16, "lambda_e": 1, "hidden": "8",
                                      "tail": "block:2", "weight_mode": "uniform",
                                      "seed": None}))
        outdir = tmp_path / "run"
        rc = run("train", "--out", str(outdir), "--data", str(path), "--config", str(config))
        assert rc == 0
        echo = json.loads((outdir / "config.json").read_text())
        assert (echo["epochs"], echo["lambda_e"], echo["seed"]) == (1, 1, 0)
        assert type(echo["epochs"]) is int

    def test_saturated_classifier_is_numerical_failure(self, small_data, tmp_path, capsys):
        # Adam at lr 100 saturates the classifier within an epoch, so the
        # source entropies the GEV is fitted to have no spread
        path, _ = small_data
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 1, "batch": 16, "lr": 100, "hidden": "8",
                                      "tail": "block:2"}))
        rc = run("train", "--out", str(tmp_path / "run"), "--data", str(path),
                 "--config", str(config))
        assert rc == 4
        assert capsys.readouterr().err == ("numerical failure: GEV fit of the 120 last-epoch "
                                           "source entropies failed: zero-variance input\n")

    def test_non_utf8_data_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bin.csv"
        bad.write_bytes(b"adagev-blobs v1\nsource,0,1.0,\xff\xfe\n")
        rc = run("train", "--out", str(tmp_path / "run"), "--data", str(bad))
        assert rc == 3
        assert "bin.csv: not UTF-8" in capsys.readouterr().err


class TestEval:
    def test_report(self, small_data, trained_dir, tmp_path, capsys):
        path, _ = small_data
        out = tmp_path / "report.json"
        rc = run("eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--data", str(path), "--out", str(out))
        assert rc == 0
        report = json.loads(out.read_text())
        assert {"OS", "OS_star", "UNK", "confusion", "gev"} <= set(report)
        assert 0.0 <= report["OS"] <= 1.0
        assert len(report["confusion"]) == 5
        assert "OS=" in capsys.readouterr().out

    def test_forward_overflow_is_numerical_failure(self, small_data, trained_dir, tmp_path,
                                                   capsys):
        path, _ = small_data
        params, gev = md.load_checkpoint(trained_dir / "checkpoint.bin")
        params.theta_g[0][...] = 1e308  # a row with |x1 + x2| > 1.8 overflows
        md.save_checkpoint(params, tmp_path / "ckpt.bin", gev=gev)
        rc = run("eval", "--checkpoint", str(tmp_path / "ckpt.bin"), "--data", str(path),
                 "--out", str(tmp_path / "r.json"))
        assert rc == 4
        assert capsys.readouterr().err == "numerical failure: forward produced non-finite values\n"

    def test_missing_checkpoint(self, small_data, tmp_path):
        path, _ = small_data
        rc = run("eval", "--checkpoint", str(tmp_path / "nope.bin"),
                 "--data", str(path), "--out", str(tmp_path / "r.json"))
        assert rc == 3

    def test_missing_required_flags(self):
        assert run("eval") == 2

    def test_report_locates_threshold(self, small_data, trained_dir, tmp_path):
        path, _ = small_data
        out = tmp_path / "report.json"
        run("eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--data", str(path), "--out", str(out))
        report = json.loads(out.read_text())
        gev = evt.GevParams(report["gev"]["l"], report["gev"]["s"], report["gev"]["c"])
        assert report["gev"]["tau"] == evt.rejection_threshold(gev)
        assert report["log_K"] == pytest.approx(np.log(4))
        assert ("upper_endpoint" in report["gev"]) == (gev.c < 0)

    def test_class_count_mismatch(self, small_data, trained_dir, tmp_path, capsys):
        path, _ = small_data
        rc = run("eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--data", str(path), "--out", str(tmp_path / "r.json"), "--known", "0,1,2")
        assert rc == 3
        assert "4 classes" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_input_width_mismatch(self, trained_dir, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        run("gen-data", "--out", str(wide), "--dim", "3",
            "--source-per-class", "5", "--target-per-class", "4")
        rc = run("eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--data", str(wide), "--out", str(tmp_path / "r.json"))
        assert rc == 3
        assert "width 3" in capsys.readouterr().err

    def test_checkpoint_without_gev(self, small_data, trained_dir, tmp_path, capsys):
        path, _ = small_data
        params, _ = md.load_checkpoint(trained_dir / "checkpoint.bin")
        md.save_checkpoint(params, tmp_path / "ckpt.bin")
        rc = run("eval", "--checkpoint", str(tmp_path / "ckpt.bin"), "--data", str(path),
                 "--out", str(tmp_path / "r.json"))
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {tmp_path / 'ckpt.bin'}: no GEV section; cannot evaluate\n")
        assert not (tmp_path / "r.json").exists()

    def test_non_positive_gev_scale(self, small_data, trained_dir, tmp_path, capsys):
        path, _ = small_data
        ckpt = tmp_path / "ckpt.bin"
        data = bytearray((trained_dir / "checkpoint.bin").read_bytes())
        data[-16:-8] = np.array([-1.0], dtype="<f8").tobytes()  # the GEV scale
        ckpt.write_bytes(bytes(data))
        rc = run("eval", "--checkpoint", str(ckpt), "--data", str(path),
                 "--out", str(tmp_path / "r.json"))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "invalid GEV section" in err

    def test_trailing_checkpoint_bytes(self, small_data, trained_dir, tmp_path):
        path, _ = small_data
        ckpt = tmp_path / "ckpt.bin"
        ckpt.write_bytes((trained_dir / "checkpoint.bin").read_bytes() + b"junk")
        rc = run("eval", "--checkpoint", str(ckpt), "--data", str(path),
                 "--out", str(tmp_path / "r.json"))
        assert rc == 3


class TestAblate:
    def test_variant_report(self, small_data, tmp_path):
        path, flags = small_data
        outdir = tmp_path / "abl"
        rc = run("ablate", "--out", str(outdir), "--variant", "no-reweight", *flags)
        assert rc == 0
        report = json.loads((outdir / "report_000_no-reweight.json").read_text())
        assert report["variant"] == "no-reweight"

    def test_hard_threshold_tau(self, small_data, tmp_path):
        _, flags = small_data
        outdir = tmp_path / "abl"
        rc = run("ablate", "--out", str(outdir), "--variant", "hard-threshold",
                 "--tau", "0.0", *flags)
        assert rc == 0
        report = json.loads((outdir / "report_000_hard-threshold.json").read_text())
        assert report["UNK"] == 1.0  # tau 0 rejects everything

    def test_tau_without_hard_threshold_is_usage_error(self, small_data, tmp_path, capsys,
                                                       monkeypatch):
        def train(*args):
            raise AssertionError("training started")
        monkeypatch.setattr(pl, "train", train)
        _, flags = small_data
        outdir = tmp_path / "abl"
        rc = run("ablate", "--out", str(outdir), "--variant", "full", "--tau", "0.1", *flags)
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--tau" in err[0]
        assert not outdir.exists()

    def test_forward_overflow_is_numerical_failure(self, small_data, tmp_path, capsys,
                                                   monkeypatch):
        train = pl.train

        def train_then_overflow(*args):
            result = train(*args)
            result.params.theta_g[0][...] = 1e308  # the target forward overflows
            return result
        monkeypatch.setattr(pl, "train", train_then_overflow)
        _, flags = small_data
        rc = run("ablate", "--out", str(tmp_path / "ab"), *flags)
        assert rc == 4
        assert capsys.readouterr().err == "numerical failure: forward produced non-finite values\n"

    def test_echo_with_null_tau_replays(self, small_data, tmp_path):
        _, flags = small_data
        first, second = tmp_path / "a", tmp_path / "b"
        assert run("ablate", "--out", str(first), "--variant", "full", *flags) == 0
        assert json.loads((first / "config.json").read_text())["tau"] is None
        assert run("ablate", "--out", str(second), "--config", str(first / "config.json")) == 0
        reports = [json.loads((d / "report_000_full.json").read_text())
                   for d in (first, second)]
        for r in reports:
            r.pop("config")
        assert reports[0] == reports[1]

    def test_non_finite_tau_is_usage_error(self, small_data, tmp_path, capsys):
        _, flags = small_data
        outdir = tmp_path / "abl"
        rc = run("ablate", "--out", str(outdir), "--variant", "hard-threshold",
                 "--tau", "nan", *flags)
        assert rc == 2
        assert "hard_threshold must be finite" in capsys.readouterr().err
        assert not outdir.exists()

    def test_grid(self, small_data, tmp_path, capsys):
        _, flags = small_data
        outdir = tmp_path / "grid"
        rc = run("ablate", "--out", str(outdir), "--grid-lambda-d", "0.0,0.5",
                 "--epochs", "1", *flags)
        assert rc == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert len(summary["points"]) == 2
        assert {p["lambda_d"] for p in summary["points"]} == {0.0, 0.5}
        assert {p["variant"] for p in summary["points"]} == {"full"}
        assert (outdir / "report_000_full.json").exists()
        assert (outdir / "report_001_full.json").exists()
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["idx", "variant", "l_d", "l_e", "l_c", "OS", "OS*", "UNK"]
        assert [line.split()[:3] for line in out[1:]] == [["0", "full", "0.00"],
                                                          ["1", "full", "0.50"]]

    def test_lambda_under_a_grid_is_still_checked(self, small_data, tmp_path, capsys):
        _, flags = small_data
        outdir = tmp_path / "grid"
        rc = run("ablate", "--out", str(outdir), "--grid-lambda-d", "0.5", "--lambda-d", "nan",
                 *flags)
        assert rc == 2
        assert "lambda_d must be" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("grid,message", [
        ("0.5,nan", "--grid-lambda-d: lambda_d must be a nonnegative finite real, got nan"),
        ("0.5,x", "--grid-lambda-d: could not convert string to float: 'x'"),
    ], ids=["nan", "text"])
    def test_bad_grid_point_trains_nothing(self, small_data, tmp_path, capsys, monkeypatch,
                                           grid, message):
        def train(*args):
            raise AssertionError("training started")
        monkeypatch.setattr(pl, "train", train)
        _, flags = small_data
        outdir = tmp_path / "grid"
        rc = run("ablate", "--out", str(outdir), "--grid-lambda-d", grid, *flags)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("value", ["", "x", "no_reweight", "full,", "full,bogus",
                                       "full,full", "no-reweight,full,no-reweight"])
    def test_bad_variant_list_is_usage_error_before_data_loads(self, tmp_path, capsys, value):
        outdir = tmp_path / "abl"
        rc = run("ablate", "--out", str(outdir), "--data", str(tmp_path / "no.csv"),
                 "--variant", value)
        assert rc == 2  # a missing --data file would exit 3
        assert capsys.readouterr().err == (
            "error: --variant must list distinct variants of full, no-reweight, "
            f"no-evt-binary, hard-threshold, got {value!r}\n")
        assert not outdir.exists()

    def test_grid_reports_equal_train_then_evaluate(self, small_data, tmp_path):
        """A full-variant grid writes, at each point, what pl.train and then
        pl.evaluate give at that point's loss weights."""
        _, flags = small_data
        outdir = tmp_path / "grid"
        assert run("ablate", "--out", str(outdir), "--variant", "full",
                   "--grid-lambda-d", "0,0.25,0.5", *flags) == 0
        cfg = json.loads((outdir / "config.json").read_text())
        cfg.pop("command")
        pool, specs = cli._training_setup(cfg)
        for idx, lambda_d in enumerate((0.0, 0.25, 0.5)):
            point = dict(cfg, lambda_d=lambda_d)
            result = pl.train(pool, specs, cli._train_config(point))
            report = pl.evaluate(result.params, result.gev, pool)
            want = json.loads(json.dumps(cli._report_payload(report, result.gev, point)))
            got = json.loads((outdir / f"report_{idx:03d}_full.json").read_text())
            assert got.pop("variant") == "full"
            assert got.pop("config") == point
            want.pop("config")
            assert got == want, idx

    def test_each_variant_writes_its_one_variant_report(self, small_data, tmp_path):
        """Byte for byte but the config's variant list, each report of a
        two-variant run is what a run of that variant alone writes."""
        _, flags = small_data
        outdir = tmp_path / "abl"
        assert run("ablate", "--out", str(outdir), "--variant", "full,no-reweight", *flags) == 0
        names = [f"report_000_{variant}.json" for variant in ("full", "no-reweight")]
        both = [(outdir / name).read_text() for name in names]
        for variant, name, text in zip(("full", "no-reweight"), names, both):
            assert run("ablate", "--out", str(outdir), "--variant", variant, *flags) == 0
            assert text.count('"variant": "full,no-reweight"') == 1  # the config's
            assert text.replace('"variant": "full,no-reweight"', f'"variant": "{variant}"') == (
                (outdir / name).read_text())

    def test_trains_once_per_weighting_and_point(self, small_data, tmp_path, monkeypatch):
        calls = []
        train = pl.train

        def counted(*args):
            calls.append(args[2])
            return train(*args)
        monkeypatch.setattr(pl, "train", counted)
        _, flags = small_data
        outdir = tmp_path / "abl"
        assert run("ablate", "--out", str(outdir), "--variant",
                   "full,no-evt-binary,hard-threshold", "--grid-lambda-d", "0,0.5", *flags) == 0
        assert [tc.loss_weights.lambda_d for tc in calls] == [0.0, 0.5]
        summary = json.loads((outdir / "summary.json").read_text())["points"]
        assert [(row["index"], row["variant"]) for row in summary] == [
            (idx, variant) for idx in (0, 1)
            for variant in ("full", "no-evt-binary", "hard-threshold")]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(
            ["config.json", "summary.json",
             *(f"report_{row['index']:03d}_{row['variant']}.json" for row in summary)])

    @pytest.mark.parametrize("extra,tau", [([], 0.5 * np.log(4)), (["--tau", "1.0"], 1.0)],
                             ids=["default", "tau"])
    def test_reports_hold_the_rejector_applied(self, small_data, tmp_path, extra, tau):
        """The hard threshold's report holds the tau it applied, the binary
        head's no rejector, and the full method's its GEV."""
        _, flags = small_data
        outdir = tmp_path / "abl"
        assert run("ablate", "--out", str(outdir), "--variant",
                   "full,hard-threshold,no-evt-binary", *extra, *flags) == 0
        full, hard, binary = (json.loads((outdir / f"report_000_{v}.json").read_text())
                              for v in ("full", "hard-threshold", "no-evt-binary"))
        assert "gev" in full and "tau" not in full
        assert hard["tau"] == tau and "gev" not in hard
        assert "gev" not in binary and "tau" not in binary

    def test_failure_at_a_later_point_writes_nothing(self, small_data, tmp_path, capsys):
        _, flags = small_data
        outdir = tmp_path / "fail"
        assert run("ablate", "--out", str(outdir), *flags, "--epochs", "2",
                   "--grid-lambda-c", "1,1e308") == 4
        assert capsys.readouterr().err.startswith("numerical failure: training diverged")
        assert not outdir.exists() or not any(outdir.iterdir())

    @pytest.mark.parametrize("variant,extra", [("no-evt-binary", []),
                                               ("hard-threshold", ["--tau", "1.0"])],
                             ids=["no-evt-binary", "hard-threshold"])
    def test_one_variant_report_is_the_run_ablations_report(self, small_data, tmp_path,
                                                             variant, extra):
        """Without a grid, one variant's report is run_ablations' report for
        it; its config is the echo, whose grid keys are null."""
        _, flags = small_data
        outdir = tmp_path / "abl"
        assert run("ablate", "--out", str(outdir), "--variant", variant, *extra, *flags) == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "config.json", f"report_000_{variant}.json", "summary.json"]
        cfg = json.loads((outdir / "config.json").read_text())
        assert cfg.pop("command") == "ablate"
        assert [cfg[f"grid_lambda_{k}"] for k in "dec"] == [None, None, None]
        pool, specs = cli._training_setup(cfg)
        name = variant.replace("-", "_")
        report, result = pl.run_ablations(pool, specs, cli._train_config(cfg), (name,),
                                          cfg["tau"])[name]
        gev, tau = pl.ablation_rejector(name, result, cfg["tau"])
        want = json.loads(json.dumps(cli._report_payload(report, gev, cfg, variant, tau=tau)))
        assert json.loads((outdir / f"report_000_{variant}.json").read_text()) == want


class TestFitGev:
    def test_fit_from_file(self, tmp_path, capsys):
        values = evt.gev_sample(evt.GevParams(0.5, 0.2, 0.1), 2000, seed=0)
        src = tmp_path / "entropies.txt"
        src.write_text("# entropy samples\n" + "\n".join(repr(float(v)) for v in values) + "\n")
        out = tmp_path / "fit.json"
        rc = run("fit-gev", "--input", str(src), "--out", str(out))
        assert rc == 0
        fit = json.loads(out.read_text())
        assert abs(fit["l"] - 0.5) < 0.1
        assert fit["n_fit"] == 2000
        assert "l=" in capsys.readouterr().out

    def test_tail_applied(self, tmp_path):
        values = np.linspace(0.0, 2.0, 1000)
        src = tmp_path / "v.txt"
        src.write_text("\n".join(str(v) for v in values))
        out = tmp_path / "fit.json"
        rc = run("fit-gev", "--input", str(src), "--out", str(out),
                 "--tail", "block:10")
        assert rc == 0
        assert json.loads(out.read_text())["n_fit"] == 100

    def test_overflowing_fitted_scale_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evt, "_nelder_mead",
                            lambda *a, **k: (np.array([0.5, 1000.0, 0.1]), 1.0, 1, True))
        src = tmp_path / "v.txt"
        src.write_text("\n".join(map(repr, evt.gev_sample(evt.GevParams(0.5, 0.2, 0.1), 100,
                                                          seed=0).tolist())))
        out = tmp_path / "fit.json"
        rc = run("fit-gev", "--input", str(src), "--out", str(out))
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "scale must be positive and finite" in err
        assert not out.exists()

    def test_non_numeric_line(self, tmp_path):
        src = tmp_path / "v.txt"
        src.write_text("1.0\nbanana\n")
        rc = run("fit-gev", "--input", str(src), "--out", str(tmp_path / "o.json"))
        assert rc == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_line(self, tmp_path, capsys, value):
        values = evt.gev_sample(evt.GevParams(0.5, 0.2, 0.1), 100, seed=0)
        src = tmp_path / "v.txt"
        src.write_text("\n".join([*map(repr, values.tolist()), value]) + "\n")
        rc = run("fit-gev", "--input", str(src), "--out", str(tmp_path / "o.json"))
        assert rc == 3
        assert "v.txt:101: not a finite real" in capsys.readouterr().err

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bin.txt"
        bad.write_bytes(b"1.0\n\x80\x81\n")
        rc = run("fit-gev", "--input", str(bad), "--out", str(tmp_path / "g.json"))
        assert rc == 3
        assert "bin.txt: not UTF-8" in capsys.readouterr().err

    def test_tail_pool_is_usage_error(self, tmp_path, capsys):
        """--tail-pool, --z-mode, --optimizer and --weight-mode paper-literal
        are gone from every command; each is argparse's usage error, before
        any file is read."""
        src = tmp_path / "v.txt"
        src.write_text("\n".join(map(repr, np.linspace(0.0, 2.0, 100).tolist())))
        cases = [(["fit-gev", "--input", str(src)], "--tail-pool", "known-only")]
        for command in ("train", "ablate"):
            cases += [([command, "--data", str(tmp_path / "blobs.csv")], flag, value)
                      for flag, value in (("--tail-pool", "known-only"),
                                          ("--z-mode", "same-batch"),
                                          ("--optimizer", "adam"),
                                          ("--weight-mode", "paper-literal"))]
        for argv, flag, value in cases:
            with pytest.raises(SystemExit) as exit_:
                run(*argv, "--out", str(tmp_path / "o"), flag, value)
            assert exit_.value.code == 2
            err = capsys.readouterr().err
            if flag == "--weight-mode":
                assert err.startswith(f"error: adagev {argv[0]}: argument --weight-mode: "
                                      f"invalid choice: 'paper-literal'")
            else:
                assert err == f"error: adagev: unrecognized arguments: {flag} {value}\n"
            assert not (tmp_path / "o").exists()

    def test_top_fraction_tail_is_usage_error(self, tmp_path, capsys):
        """--tail top:<fraction> is gone, and a block size must be positive;
        every command rejects either before it reads a file, so the missing
        files here would exit 3."""
        cases = [["fit-gev", "--input", str(tmp_path / "v.txt")]]
        cases += [[command, "--data", str(tmp_path / "blobs.csv")]
                  for command in ("train", "ablate")]
        for argv in cases:
            for tail, err in (("top:0.5", "--tail must be block:<size> or none, got 'top:0.5'"),
                              ("block:0", "bad --tail value 'block:0': block_size must be "
                                          "positive")):
                assert run(*argv, "--out", str(tmp_path / "o"), "--tail", tail) == 2
                assert capsys.readouterr().err == f"error: {err}\n"
                assert not (tmp_path / "o").exists()

    def test_degenerate_values(self, tmp_path):
        src = tmp_path / "v.txt"
        src.write_text("\n".join(["2.0"] * 100))
        rc = run("fit-gev", "--input", str(src), "--out", str(tmp_path / "o.json"))
        assert rc == 4

    @pytest.mark.parametrize("count, tail, reason", [
        (3, [], "need >= 30 values to fit"),
        (100, ["--tail", "block:20"],
         "block_maxima needs >= 30 blocks, got 5 (100 values, block size 20)"),
    ])
    def test_too_few_values_is_data_error(self, tmp_path, capsys, count, tail, reason):
        src = tmp_path / "v.txt"
        src.write_text("\n".join(map(repr, np.linspace(0.0, 2.0, count).tolist())))
        rc = run("fit-gev", "--input", str(src), "--out", str(tmp_path / "o.json"), *tail)
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: {src}: the {count} values cannot give a GEV tail: {reason}\n")
        assert not (tmp_path / "o.json").exists()

    def test_missing_input(self, tmp_path):
        rc = run("fit-gev", "--input", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "o.json"))
        assert rc == 3


# The exit code each exception class reaches, by family: every class the
# package defines must be listed, so a new class outside the three families
# fails here rather than escaping main as a traceback.
EXIT_CODE_OF = {
    dt.DataError: 3, md.CheckpointError: 3, OSError: 3,
    evt.FitError: 4, evt._BudgetSpent: 4, ad.NonFiniteError: 4,
    cli.UsageError: 2, ValueError: 2, io.UnsupportedOperation: 2,  # a ValueError and an OSError
}
PREFIX_OF = {2: "error: ", 3: "data error: ", 4: "numerical failure: "}


def package_exception_classes():
    """Every exception class that a module of adagev defines."""
    found = set()
    for info in pkgutil.iter_modules(adagev.__path__):
        module = importlib.import_module(f"adagev.{info.name}")
        found |= {value for value in vars(module).values() if isinstance(value, type)
                  and issubclass(value, BaseException) and value.__module__ == module.__name__}
    return found


@pytest.mark.parametrize("cls", sorted(package_exception_classes()
                                       | {OSError, ValueError, io.UnsupportedOperation},
                                       key=lambda c: f"{c.__module__}.{c.__qualname__}"),
                         ids=lambda c: c.__qualname__)
def test_every_exception_class_reaches_its_exit_code(cls, tmp_path, monkeypatch, capsys):
    assert cls in EXIT_CODE_OF, f"{cls.__module__}.{cls.__qualname__} has no exit code"

    def raise_it(path):
        raise cls("boom")

    monkeypatch.setattr(dt, "load_reals", raise_it)
    rc = run("fit-gev", "--input", "v.txt", "--out", str(tmp_path / "o.json"))
    assert rc == EXIT_CODE_OF[cls]
    assert capsys.readouterr().err == PREFIX_OF[rc] + "boom\n"


def test_out_of_memory_exits_3(small_data, tmp_path, monkeypatch, capsys):
    """An allocation the machine cannot give is a resource failure, as an
    OSError is; the parameter vector's request fails without allocating."""
    def no_memory(specs, flat=None):
        raise MemoryError("Unable to allocate 581. GiB for an array with shape "
                          "(78000000298,) and data type float64")

    monkeypatch.setattr(md, "layout", no_memory)
    _, flags = small_data
    out = tmp_path / "run"
    assert run("train", "--out", str(out), *flags, "--hidden", "2000000000") == 3
    assert capsys.readouterr().err == ("data error: out of memory: Unable to allocate 581. GiB "
                                       "for an array with shape (78000000298,) and data type "
                                       "float64\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "gen-data", "fit-gev"])
@pytest.mark.parametrize("blocked", ["under a file", "a directory"])
def test_unusable_out_file_exits_3_before_any_data_is_read(small_data, trained_dir, tmp_path,
                                                           monkeypatch, capsys, command,
                                                           blocked):
    def loader(*args, **kwargs):
        raise AssertionError("data was read or generated")
    for module, name in ((dt, "load_blobs"), (dt, "gen_shifted_blobs"), (dt, "load_reals"),
                         (md, "load_checkpoint")):
        monkeypatch.setattr(module, name, loader)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    if blocked == "under a file":
        out, blocker, reason = afile / "out.json", afile, "is not a directory"
    else:
        out = blocker = tmp_path / "adir"
        out.mkdir()
        reason = "is a directory"
    path, _ = small_data
    flags = {"eval": ["--data", str(path), "--checkpoint", str(trained_dir / "checkpoint.bin")],
             "gen-data": [], "fit-gev": ["--input", str(tmp_path / "values.txt")]}[command]
    before = sorted(tmp_path.rglob("*"))
    assert run(command, *flags, "--out", str(out)) == 3
    assert capsys.readouterr().err == f"data error: --out {out}: {blocker} {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before and afile.read_text() == "kept\n"


def test_eval_leaves_numpy_ma_unloaded(small_data, trained_dir, tmp_path):
    """adagev eval, run as `python -m adagev.cli`, loads no numpy.ma (np.unique would)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    path, _ = small_data
    modules_out = tmp_path / "modules.txt"
    argv = ["eval", "--data", str(path), "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--out", str(tmp_path / "report.json")]
    done = subprocess.run([sys.executable, "-c", COLD_START, str(modules_out), *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = modules_out.read_text(encoding="utf-8").splitlines()
    assert "adagev.data" in loaded
    assert "numpy.ma" not in loaded


def test_serial_eval_leaves_concurrent_futures_unloaded(trained_dir, tmp_path):
    """adagev eval with BLAS unpinned runs a multi-block target pool on one
    worker, so it never opens a thread pool nor imports concurrent.futures."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
    data = tmp_path / "blobs.csv"
    assert run("gen-data", "--out", str(data), "--source-per-class", "30",
               "--target-per-class", "1200") == 0
    params, _ = md.load_checkpoint(trained_dir / "checkpoint.bin")
    target = dt.apply_roles(*dt.load_blobs(data), dt.digits_split()).target_x
    assert len(pl._row_blocks(target, params.spec_g.madds + params.spec_c.madds)) >= 2
    modules_out = tmp_path / "modules.txt"
    argv = ["eval", "--data", str(data), "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--out", str(tmp_path / "report.json")]
    done = subprocess.run([sys.executable, "-c", COLD_START, str(modules_out), *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = modules_out.read_text(encoding="utf-8").splitlines()
    assert "adagev.pipeline" in loaded
    assert "concurrent.futures" not in loaded


class TestIdx:
    @pytest.fixture(scope="class")
    def idx_files(self, tmp_path_factory):
        """Ten classes of 4x4 images, each class a brighter bar, in a
        source and a target file pair."""
        root = tmp_path_factory.mktemp("idx")
        rng = np.random.default_rng(0)
        paths = {}
        for domain, per_class in (("source", 40), ("target", 24)):
            labels = np.repeat(np.arange(10), per_class)
            images = rng.integers(0, 96, (len(labels), 4, 4))
            for c in range(10):
                images[labels == c, c % 4, c // 4:c // 4 + 2] += 150
            order = rng.permutation(len(labels))
            (root / domain).mkdir()
            pair = write_idx_pair(root / domain, images[order], labels[order])
            paths[f"{domain}_images"], paths[f"{domain}_labels"] = map(str, pair)
        return paths

    @staticmethod
    def flags(paths):
        return [arg for key, path in paths.items()
                for arg in (f"--{key.replace('_', '-')}", path)]

    def test_train_and_eval(self, idx_files, tmp_path):
        outdir = tmp_path / "run"
        assert run("train", "--out", str(outdir), *self.flags(idx_files), "--hidden", "8",
                   "--epochs", "1", "--batch", "16", "--tail", "block:2") == 0
        ckpt = outdir / "checkpoint.bin"
        assert run("eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "report.json"),
                   *self.flags(idx_files)) == 0
        params, gev = md.load_checkpoint(ckpt)
        pool = dt.apply_roles(*dt.load_idx(idx_files["source_images"], idx_files["source_labels"]),
                              *dt.load_idx(idx_files["target_images"], idx_files["target_labels"]),
                              dt.digits_split())
        assert pool.feature_dim == 16 and len(pool.target_x) == 7 * 24
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["OS"] == pl.evaluate(params, gev, pool).os_score

    def test_label_count_unlike_image_count(self, idx_files, tmp_path, capsys):
        _, labels = write_idx_pair(tmp_path, np.zeros((7, 4, 4)), np.zeros(7))
        rc = run("train", "--out", str(tmp_path / "run"),
                 *self.flags(dict(idx_files, target_labels=str(labels))), "--tail", "block:2")
        assert rc == 3
        assert capsys.readouterr().err == (f"data error: {labels}: 7 labels for the 240 images "
                                           f"of {idx_files['target_images']}\n")
        assert not (tmp_path / "run").exists()

    def test_images_longer_than_header_exit_3(self, idx_files, tmp_path, capsys):
        images = tmp_path / "images.idx"
        images.write_bytes(Path(idx_files["source_images"]).read_bytes() + bytes(100))
        out = tmp_path / "run"
        rc = run("train", "--out", str(out), *self.flags(dict(idx_files, source_images=str(images))),
                 "--tail", "block:2")
        assert rc == 3
        assert capsys.readouterr().err == (f"data error: {images}: 100 bytes after the "
                                           f"{400 * 16}-byte payload that its header gives\n")
        assert not out.exists()

    @staticmethod
    def write_pairs(root, sizes, shape):
        """A source and a target IDX pair under ``root``, of ``sizes`` images
        of ``shape`` each, labels ``arange(n) % 10`` and pixels that take all
        256 byte values once there are enough of them; the paths by config key."""
        paths = {}
        for domain, n in zip(("source", "target"), sizes):
            (root / domain).mkdir()
            images = (np.arange(n * math.prod(shape)) * 7 % 256).reshape(n, *shape)
            pair = write_idx_pair(root / domain, images, np.arange(n) % 10)
            paths[f"{domain}_images"], paths[f"{domain}_labels"] = map(str, pair)
        return paths

    def test_pools_equal_load_idx_bit_for_bit(self, tmp_path):
        paths = self.write_pairs(tmp_path, (60, 50), (4, 4))
        cfg = {key: flag.default for key, flag in cli.SPLIT_FLAGS.items()} | paths
        cfg["out"] = str(tmp_path / "out")
        expected = dt.apply_roles(*dt.load_idx(paths["source_images"], paths["source_labels"]),
                                  *dt.load_idx(paths["target_images"], paths["target_labels"]),
                                  dt.digits_split())
        pool, _ = cli._load_pool(cfg, out_is_file=False)
        for key in ("source_known_x", "source_known_y", "source_unknown_x", "target_x"):
            got, want = getattr(pool, key), getattr(expected, key)
            assert got.dtype == want.dtype and got.shape == want.shape, key
            assert got.tobytes() == want.tobytes(), key
        assert pool.eval_target_roles().tolist() == expected.eval_target_roles().tolist()

        target, _ = cli._load_pool(cfg, out_is_file=True, target_only=True)
        assert target.target_x.dtype == np.float64
        assert target.target_x.tobytes() == expected.target_x.tobytes()
        assert target.eval_target_roles().tolist() == expected.eval_target_roles().tolist()
        for x in (target.source_known_x, target.source_unknown_x):
            assert x.dtype == np.float64 and x.shape == (0, 16)
        assert target.source_known_y.shape == (0,) and target.feature_dim == 16

    def test_load_pool_peak_memory(self, tmp_path):
        """Pixels stay uint8 until the roles pick the rows, so the peak stays
        near the float64 bytes of the kept rows."""
        paths = self.write_pairs(tmp_path, (6000, 2000), (28, 28))
        cfg = {key: flag.default for key, flag in cli.SPLIT_FLAGS.items()} | paths
        cfg["out"] = str(tmp_path / "out")
        tracemalloc.start()
        try:
            pool, _ = cli._load_pool(cfg, out_is_file=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(x.nbytes for x in (pool.source_known_x, pool.source_unknown_x, pool.target_x))
        assert kept == (6000 * 7 // 10 + 2000 * 7 // 10) * 28 * 28 * 8
        assert peak < 1.5 * kept

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_images_without_pixels_exit_3(self, tmp_path, capsys, command):
        paths = self.write_pairs(tmp_path, (400, 400), (0, 28))
        out = tmp_path / "out"
        extra = ["--checkpoint", str(tmp_path / "none.bin")] if command == "eval" else []
        assert run(command, "--out", str(out), *extra, *self.flags(paths)) == 3
        assert capsys.readouterr().err == (f"data error: {paths['source_images']}: images of "
                                           f"0 x 28 pixels have no pixel\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_echo_with_a_removed_key_exits_2(trained_dir, tmp_path, capsys, command):
    """An echo written before tail_pool, z_mode, optimizer or the
    top-fraction tail was removed no longer replays."""
    for key, value, err in (
            ("tail_pool", "known-only", "unknown config keys: ['tail_pool']"),
            ("optimizer", "adam", "unknown config keys: ['optimizer']"),
            ("z_mode", "same-batch", "unknown config keys: ['z_mode']"),
            ("tail", "top:0.1", "--tail must be block:<size> or none, got 'top:0.1'")):
        echo = json.loads((trained_dir / "config.json").read_text())
        echo.update({"command": command, key: value})
        config = tmp_path / f"old_{key}.json"
        config.write_text(json.dumps(echo))
        outdir = tmp_path / f"replay_{key}"
        assert run(command, "--out", str(outdir), "--config", str(config)) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not outdir.exists()


def test_sweep_is_gone(small_data, trained_dir, tmp_path, capsys):
    """sweep was folded into ablate: its command line is argparse's usage
    error, and ablate does not replay its config.json echo."""
    _, flags = small_data
    outdir = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exited:
        run("sweep", "--out", str(outdir), "--grid-lambda-d", "0,0.5", *flags)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: adagev: argument command: invalid choice: 'sweep'")
    config = tmp_path / "sweep_config.json"
    echo = json.loads((trained_dir / "config.json").read_text())
    config.write_text(json.dumps(dict(echo, command="sweep", grid_lambda_d="0,0.5",
                                      grid_lambda_e=None, grid_lambda_c=None)))
    assert run("ablate", "--out", str(outdir), "--config", str(config)) == 2
    assert capsys.readouterr().err == f"error: config {config} is for 'sweep', not 'ablate'\n"
    assert sorted(tmp_path.iterdir()) == [config]


def test_readme_command_block_runs(tmp_path, monkeypatch):
    """Every line of the README's "Command line" block exits 0, in order."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) == 6 and all(argv[0] == "adagev" for argv in lines)
    monkeypatch.chdir(tmp_path)
    values = evt.gev_sample(evt.GevParams(0.5, 0.2, 0.1), 600, seed=0)
    Path("entropies.txt").write_text("\n".join(map(repr, values.tolist())) + "\n")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in lines:
            assert cli.main(argv[1:]) == 0, argv


def test_cli_defaults_match_library_defaults():
    """Every CLI default is also a library default; the two must not drift apart."""
    gen = {key: flag.default for key, flag in cli.GEN_FLAGS.items()}
    bc = dt.BlobShiftConfig()
    assert (gen["classes"], gen["dim"], gen["std"], gen["source_per_class"],
            gen["target_per_class"], gen["seed"]) == (
        bc.class_count, bc.dim, bc.cluster_std, bc.source_per_class,
        bc.target_per_class, bc.seed)
    assert np.deg2rad(gen["rotation_deg"]) == bc.rotation
    assert cli._parse_float_pair(gen["translate"]) == bc.translation

    split = {key: flag.default for key, flag in cli.SPLIT_FLAGS.items()}
    assert cli._split_from(split) == dt.digits_split()

    train = {key: flag.default for key, flag in cli.TRAIN_FLAGS.items()}
    # _train_config maps --batch, --lr, the three lambdas, the weight mode
    # and --tail onto TrainConfig's fields
    assert cli._train_config(train) == pl.TrainConfig()
    modes = [v.replace("-", "_") for v in cli.TRAIN_FLAGS["weight_mode"].kind]
    assert modes == list(obj.WEIGHT_MODES)
    spec_g = md.default_specs(input_dim=2, num_classes=4)[0]
    assert cli._parse_int_list(train["hidden"]) == spec_g.widths[1:]

    ablate = {key: flag for group in cli.COMMANDS["ablate"].groups
              for key, flag in group.items()}
    assert [v.replace("-", "_") for v in cli.VARIANTS] == list(pl.ABLATION_VARIANTS)
    assert ablate["variant"].default.replace("-", "_") == pl.ABLATION_VARIANTS[0]
    hard = inspect.signature(pl.run_ablations).parameters["hard_threshold"]
    assert ablate["tau"].default == hard.default


def test_cli_import_leaves_scipy_optimize_unloaded():
    code = "import sys, adagev.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


# Run as `python -m adagev.cli ARG...`, then write the loaded module names to
# the file named by the first argument, whether the run exits or raises.
COLD_START = """
import runpy, sys
modules_out, sys.argv = sys.argv[1], ["adagev", *sys.argv[2:]]
try:
    runpy.run_module("adagev.cli", run_name="__main__", alter_sys=True)
finally:
    with open(modules_out, "w", encoding="utf-8") as f:
        f.write("\\n".join(sorted(sys.modules)))
"""
NUMERICAL_MODULES = {"numpy", *(f"adagev.{m}" for m in ("data", "evt", "model", "objective",
                                                        "pipeline"))}


@pytest.mark.parametrize("argv,code", [(["--help"], 0), (["train", "--help"], 0),
                                       (["train", "--no-such-flag"], 2)],
                         ids=["help", "train-help", "unknown-flag"])
def test_help_and_usage_errors_exit_before_numpy_loads(argv, code, tmp_path, monkeypatch,
                                                        capsys):
    """The cold path loads no numerical module, and prints what main prints
    with every module loaded."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    modules_out = tmp_path / "modules.txt"
    done = subprocess.run([sys.executable, "-c", COLD_START, str(modules_out), *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    loaded = set(modules_out.read_text(encoding="utf-8").splitlines())
    assert NUMERICAL_MODULES.isdisjoint(loaded), sorted(NUMERICAL_MODULES & loaded)
    assert not any(m.startswith(("numpy.", "scipy")) for m in loaded)
    assert {"adagev", "adagev.autodiff"} <= loaded

    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert done.returncode == exited.value.code == code
    assert (done.stdout, done.stderr) == capsys.readouterr()
    assert done.stdout.startswith("usage: adagev") if code == 0 else done.stderr == (
        "error: adagev: unrecognized arguments: --no-such-flag\n")


@pytest.mark.parametrize("command", ["fit-gev", "train"])
def test_fitting_commands_import_no_scipy(command, tmp_path):
    """fit-gev and train, run as `python -m adagev.cli`, fit a GEV without
    importing any scipy module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    if command == "fit-gev":
        values = tmp_path / "values.txt"
        values.write_text("\n".join(map(repr, evt.gev_sample(evt.GevParams(1, 0.2, 0.1), 60,
                                                              0).tolist())))
        argv = ["fit-gev", "--input", str(values), "--out", str(tmp_path / "fit.json")]
    else:
        data = tmp_path / "blobs.csv"
        assert run("gen-data", "--out", str(data), "--source-per-class", "30",
                   "--target-per-class", "20") == 0
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "run"), "--epochs", "1",
                "--batch", "16", "--hidden", "8", "--tail", "block:2"]
    modules_out = tmp_path / "modules.txt"
    done = subprocess.run([sys.executable, "-c", COLD_START, str(modules_out), *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = modules_out.read_text(encoding="utf-8").splitlines()
    assert "adagev.evt" in loaded
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


class TestIntLists:
    @pytest.mark.parametrize("flag,value", [("--hidden", "16,"), ("--known", "0,,1"),
                                            ("--target-unknown", ",7")])
    def test_empty_item_is_usage_error(self, small_data, tmp_path, capsys, flag, value):
        _, flags = small_data
        rc = run("train", "--out", str(tmp_path / "run"), *flags, flag, value)
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and repr(value) in err[0]
        assert not (tmp_path / "run").exists()

    def test_empty_string_is_the_empty_list(self, small_data, tmp_path, capsys):
        _, flags = small_data
        rc = run("train", "--out", str(tmp_path / "run"), *flags, "--source-unknown", "")
        assert rc == 3
        assert capsys.readouterr().err == "data error: source_unknown pool is empty\n"


# --- the exit-code rule, by property ---------------------------------------
#
# Each example runs one command on a tiny dataset with one flag replaced by a
# drawn value, given once or twice. A value marked invalid must
# exit 2 whatever the rest of the command line; any other value may succeed or
# fail, but only with a documented code and one stderr line.

PATH_KEYS = {"data", "source_images", "source_labels", "target_images", "target_labels",
             "out", "checkpoint", "input"}
ROLE_KEYS = {"known", "source_unknown", "target_unknown"}
MISSING = "no-such-dir/file"  # under the test's directory


def usage_error(strategy):
    """Values invalid on their own: each must exit 2."""
    return strategy.map(lambda value: (value, True))


def any_code(strategy):
    """Values that may be valid, or conflict with a file or another flag."""
    return strategy.map(lambda value: (value, False))


def flag_values(command, key, flag):
    """(value, invalid) pairs for one flag: valid, boundary, non-finite,
    wrong-type, empty and repeated values, by the flag's kind."""
    junk = usage_error(st.sampled_from(["", "x", "1e", "0x10", "--"]))
    non_finite = usage_error(st.sampled_from(["nan", "inf", "-inf", "NaN"]))
    if isinstance(flag.kind, list):
        return st.one_of(any_code(st.sampled_from(flag.kind)), junk)
    if flag.kind is int:
        return st.one_of(any_code(st.integers(0, 3).map(str)),
                         usage_error(st.integers(-3, -1).map(str)),
                         usage_error(st.sampled_from(["1.5", "2e0"])), non_finite, junk)
    if flag.kind is float:
        return st.one_of(any_code(st.floats(0.05, 2.0).map(repr)),
                         any_code(st.sampled_from(["0", "-1", "1e-300"])), non_finite, junk)
    if key in ROLE_KEYS or key == "hidden":
        ids = st.lists(st.integers(0, 9), min_size=1, max_size=3).map(
            lambda v: ",".join(map(str, v)))
        repeated = st.integers(0, 9).map(lambda i: f"{i},{i}")
        return st.one_of(any_code(ids), (any_code if key in ROLE_KEYS else usage_error)(
                             st.just("")),
                         (usage_error if key in ROLE_KEYS else any_code)(repeated),
                         usage_error(st.sampled_from(["1,", ",1", "1,,2", "a", "1.5", "nan"])))
    if key == "translate":
        return st.one_of(any_code(st.just("0.1,-0.2")), usage_error(
            st.sampled_from(["", "1", "1,2,3", "a,b", "nan,0", "0,inf"])))
    if key == "tail":
        return st.one_of(any_code(st.sampled_from(["block:1", "block:2", "block:50"])),
                         (any_code if command == "fit-gev" else usage_error)(st.just("none")),
                         usage_error(st.sampled_from(["", "block:", "block:x", "block:0",
                                                      "top:0.5", "top:0", "top:1", "top:nan",
                                                      "top:", "max:3"])))
    if key == "variant":
        subsets = st.lists(st.sampled_from(cli.VARIANTS), min_size=1, unique=True)
        repeated = subsets.flatmap(lambda v: st.permutations([*v, v[0]]))
        return st.one_of(any_code(subsets.map(",".join)), usage_error(repeated.map(",".join)),
                         usage_error(st.sampled_from(["", "x", "no_reweight", "full,",
                                                      "full,bogus", "FULL"])))
    if key.startswith("grid_"):
        return st.one_of(any_code(st.sampled_from(["0.5", "0,1"])), usage_error(
            st.sampled_from(["", "a", "1,,2", "nan", "0,inf", "-1"])))
    assert key in PATH_KEYS, key
    return any_code(st.sampled_from(["", MISSING]))


@pytest.fixture(scope="session")
def exit_code_setup(tmp_path_factory):
    """A tiny dataset, a checkpoint trained on it, entropy values to fit, and
    a valid command line for every command."""
    root = tmp_path_factory.mktemp("exit-codes")
    data = str(root / "blobs.csv")
    assert run("gen-data", "--out", data, "--source-per-class", "30",
               "--target-per-class", "20") == 0
    train = ["--data", data, "--epochs", "1", "--batch", "16", "--hidden", "8",
             "--tail", "block:2"]
    assert run("train", "--out", str(root / "model"), *train) == 0
    values = root / "values.txt"
    values.write_text("\n".join(map(str, evt.gev_sample(evt.GevParams(1, 0.2, 0.1), 60, 0))))
    base = {
        "gen-data": ["--source-per-class", "5", "--target-per-class", "4"],
        "train": train, "ablate": train,
        "eval": ["--data", data, "--checkpoint", str(root / "model" / "checkpoint.bin")],
        "fit-gev": ["--input", str(values)],
    }
    return root, {name: [name, *argv, "--out", str(root / name)] for name, argv in base.items()}


@st.composite
def one_flag_changed(draw):
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = {key: flag for group in cli.COMMANDS[command].groups for key, flag in group.items()}
    key = draw(st.sampled_from(sorted(flags)))
    value, invalid = draw(flag_values(command, key, flags[key]))
    return command, ["--" + key.replace("_", "-"), value] * draw(st.integers(1, 2)), invalid


def assert_documented_exit(root, argv, changed, invalid):
    """Run argv plus the changed flag: a documented code, one stderr line on
    failure, and 2 for a value marked invalid."""
    changed = [str(root / v) if v == MISSING else v for v in changed]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main([*argv, *changed])
        except SystemExit as e:
            rc = e.code
    lines = err.getvalue().splitlines()
    assert rc in (0, 2, 3, 4), (rc, lines)
    assert len(lines) == (0 if rc == 0 else 1), lines
    assert "Traceback" not in err.getvalue()
    if invalid:
        assert rc == 2, (changed, lines)


@given(case=one_flag_changed())
@settings(max_examples=100, deadline=None)
def test_exit_codes_follow_the_documented_rule(exit_code_setup, case):
    root, argv = exit_code_setup
    command, changed, invalid = case
    assert_documented_exit(root, argv[command], changed, invalid)


@given(case=one_flag_changed())
@example(case=("train", ["--tail", "bogus:3"], True))
@example(case=("train", ["--epochs", "0"], True))
@example(case=("train", ["--lambda-d", "-1"], True))
@example(case=("ablate", ["--lr", "-1"], True))
@example(case=("ablate", ["--variant", "full", "--tau", "1"], True))
@example(case=("ablate", ["--variant", "full,bogus"], True))
@example(case=("ablate", ["--variant", "no-reweight,full,no-reweight"], True))
@example(case=("ablate", ["--grid-lambda-d", "0.5,nan"], True))
@example(case=("fit-gev", ["--tail", "bogus:3"], True))
@example(case=("eval", ["--known", "1,1"], True))
@settings(max_examples=50, deadline=None)
def test_invalid_flag_values_exit_2_before_the_data_loads(exit_code_setup, case):
    """As above with the data file (fit-gev's input) and eval's checkpoint
    missing: a value invalid on its own is found before a file load fails."""
    root, argv = exit_code_setup
    command, changed, invalid = case
    argv = list(argv[command])
    for i, arg in enumerate(argv[:-1]):
        if arg in ("--data", "--input", "--checkpoint"):
            argv[i + 1] = str(root / MISSING)
    assert_documented_exit(root, argv, changed, invalid)


def test_eval_without_data_flags_is_usage_error_before_the_checkpoint(tmp_path, capsys):
    rc = run("eval", "--checkpoint", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "x"))
    assert rc == 2
    assert capsys.readouterr().err == "error: provide either --data or all four IDX paths\n"
