import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adagev
from adagev import autodiff as ad, cli, data as dt, evt, model as md
from adagev import objective as obj, pipeline as pl
from test_data import write_idx_pair


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
             "--hidden", "8", "--tail", "top:0.5"]
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
                                            ("--rotation-deg", "nan"), ("--translate", "nan,0")])
    def test_non_finite_setting_is_data_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        assert run("gen-data", "--out", str(out), flag, value) == 2
        assert "must be" in capsys.readouterr().err
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
                                      "tail": "top:0.5"}))
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
        ({"lr": "0.1"}, "lr"), ({"optimizer": "sgd"}, "optimizer"),
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
                                      "tail": "top:0.5", "optimizer": "sgd-momentum",
                                      "seed": None}))
        outdir = tmp_path / "run"
        rc = run("train", "--out", str(outdir), "--data", str(path), "--config", str(config))
        assert rc == 0
        echo = json.loads((outdir / "config.json").read_text())
        assert (echo["epochs"], echo["lambda_e"], echo["seed"]) == (1, 1, 0)
        assert type(echo["epochs"]) is int

    def test_saturated_classifier_is_numerical_failure(self, small_data, tmp_path, capsys):
        # SGD-momentum at lr 1 saturates the classifier within an epoch, so
        # the source entropies the GEV is fitted to have no spread
        path, _ = small_data
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 1, "batch": 16, "lr": 1, "hidden": "8",
                                      "tail": "top:0.5", "optimizer": "sgd-momentum"}))
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
        report = json.loads((outdir / "report.json").read_text())
        assert report["variant"] == "no-reweight"

    def test_hard_threshold_tau(self, small_data, tmp_path):
        _, flags = small_data
        outdir = tmp_path / "abl"
        rc = run("ablate", "--out", str(outdir), "--variant", "hard-threshold",
                 "--tau", "0.0", *flags)
        assert rc == 0
        report = json.loads((outdir / "report.json").read_text())
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
        reports = [json.loads((d / "report.json").read_text()) for d in (first, second)]
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
                 "--tail", "top:0.1")
        assert rc == 0
        assert json.loads(out.read_text())["n_fit"] == 100

    def test_overflowing_fitted_scale_exits_4(self, tmp_path, capsys, monkeypatch):
        import scipy.optimize
        from scipy.optimize import OptimizeResult
        monkeypatch.setattr(scipy.optimize, "minimize",
                            lambda *a, **k: OptimizeResult(x=np.array([0.5, 1000.0, 0.1]), fun=1.0))
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
        src = tmp_path / "v.txt"
        src.write_text("\n".join(map(repr, np.linspace(0.0, 2.0, 100).tolist())))
        with pytest.raises(SystemExit) as exit_:
            run("fit-gev", "--input", str(src), "--out", str(tmp_path / "o.json"),
                "--tail-pool", "known-only")
        assert exit_.value.code == 2
        assert capsys.readouterr().err == (
            "error: adagev: unrecognized arguments: --tail-pool known-only\n")
        assert not (tmp_path / "o.json").exists()

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
    evt.FitError: 4, ad.NonFiniteError: 4,
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
                   "--epochs", "1", "--batch", "16", "--tail", "top:0.5") == 0
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
                 *self.flags(dict(idx_files, target_labels=str(labels))), "--tail", "top:0.5")
        assert rc == 3
        assert capsys.readouterr().err == (f"data error: {labels}: 7 labels for the 240 images "
                                           f"of {idx_files['target_images']}\n")
        assert not (tmp_path / "run").exists()


class TestSweep:
    def test_grid(self, small_data, tmp_path, capsys):
        _, flags = small_data
        outdir = tmp_path / "sweep"
        rc = run("sweep", "--out", str(outdir), "--grid-lambda-d", "0.0,0.5",
                 "--epochs", "1", *flags)
        assert rc == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert len(summary["points"]) == 2
        assert {p["lambda_d"] for p in summary["points"]} == {0.0, 0.5}
        assert (outdir / "report_000.json").exists()
        assert (outdir / "report_001.json").exists()
        assert "OS" in capsys.readouterr().out

    def test_lambda_under_a_grid_is_still_checked(self, small_data, tmp_path, capsys):
        _, flags = small_data
        outdir = tmp_path / "sweep"
        rc = run("sweep", "--out", str(outdir), "--grid-lambda-d", "0.5", "--lambda-d", "nan",
                 *flags)
        assert rc == 2
        assert "lambda_d must be" in capsys.readouterr().err
        assert not outdir.exists()


    @pytest.mark.parametrize("grid,message", [
        ("0.5,nan", "--grid-lambda-d: lambda_d must be a nonnegative finite real, got nan"),
        ("0.5,x", "--grid-lambda-d: could not convert string to float: 'x'"),
    ])
    def test_bad_grid_point_trains_nothing(self, small_data, tmp_path, capsys, monkeypatch,
                                           grid, message):
        def train(*args):
            raise AssertionError("training started")
        monkeypatch.setattr(pl, "train", train)
        _, flags = small_data
        outdir = tmp_path / "sweep"
        rc = run("sweep", "--out", str(outdir), "--grid-lambda-d", grid, *flags)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists()


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
    # _train_config maps --batch, --lr, the three lambdas, the weight and z
    # modes and --tail/--tail-pool onto TrainConfig and its nested configs
    assert cli._train_config(train) == pl.TrainConfig()
    spec_g = md.default_specs(input_dim=2, num_classes=4)[0]
    assert cli._parse_int_list(train["hidden"]) == spec_g.widths[1:]

    ablate = {key: flag for group in cli.COMMANDS["ablate"].groups
              for key, flag in group.items()}
    assert [v.replace("-", "_") for v in ablate["variant"].kind] == list(pl.ABLATION_VARIANTS)
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
        return st.one_of(any_code(ids), any_code(st.just("")),
                         (usage_error if key in ROLE_KEYS else any_code)(repeated),
                         usage_error(st.sampled_from(["1,", ",1", "1,,2", "a", "1.5", "nan"])))
    if key == "translate":
        return st.one_of(any_code(st.just("0.1,-0.2")), usage_error(
            st.sampled_from(["", "1", "1,2,3", "a,b", "nan,0", "0,inf"])))
    if key == "tail":
        return st.one_of(any_code(st.sampled_from(["top:0.5", "block:2", "block:50"])),
                         (any_code if command == "fit-gev" else usage_error)(st.just("none")),
                         usage_error(st.sampled_from(["", "block:", "block:x", "block:0",
                                                      "top:0", "top:1", "top:nan", "top:",
                                                      "max:3"])))
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
             "--tail", "top:0.5"]
    assert run("train", "--out", str(root / "model"), *train) == 0
    values = root / "values.txt"
    values.write_text("\n".join(map(str, evt.gev_sample(evt.GevParams(1, 0.2, 0.1), 60, 0))))
    base = {
        "gen-data": ["--source-per-class", "5", "--target-per-class", "4"],
        "train": train, "ablate": train, "sweep": train,
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


@given(case=one_flag_changed())
@settings(max_examples=100, deadline=None)
def test_exit_codes_follow_the_documented_rule(exit_code_setup, case):
    root, argv = exit_code_setup
    command, changed, invalid = case
    changed = [str(root / v) if v == MISSING else v for v in changed]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main([*argv[command], *changed])
        except SystemExit as e:
            rc = e.code
    lines = err.getvalue().splitlines()
    assert rc in (0, 2, 3, 4), (rc, lines)
    assert len(lines) == (0 if rc == 0 else 1), lines
    assert "Traceback" not in err.getvalue()
    if invalid:
        assert rc == 2, (changed, lines)
