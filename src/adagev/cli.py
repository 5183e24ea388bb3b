"""Command-line surface: data generation, training, evaluation, ablations,
GEV fitting, and loss-weight sweeps.

Every run writes a config echo (config.json) holding all resolved values,
so any run can be reproduced exactly by replaying the echoed config.
Flags override values from an optional --config JSON file, which in turn
overrides the built-in defaults.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure,
and no other; a failure prints one stderr line and never a traceback.
``main`` gives each exception family one code, tried in this order:
DataError 3; FitError and NonFiniteError 4; any other ValueError, UsageError
among them, 2; an OSError, CheckpointError among them, 3. So a flag or
config value invalid on its own exits 2; a conflict with a data file or a
checkpoint, an unreadable or damaged file, and too few values for the GEV
tail (in train or fit-gev) exit 3; training that diverges, a forward pass
that overflows and a GEV fit that fails exit 4.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as dt
from . import evt
from . import model as md
from . import objective as obj
from . import pipeline as pl

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# One config key: its built-in default, its argparse type (or list of
# choices), and its help text. The flag is the key with dashes, so
# "source_per_class" is --source-per-class.
Flag = namedtuple("Flag", "default kind help", defaults=(str, None))

GEN_FLAGS = {
    "classes": Flag(10, int), "dim": Flag(2, int), "std": Flag(0.35, float),
    "rotation_deg": Flag(25.0, float), "translate": Flag("0.3,-0.2"),
    "source_per_class": Flag(200, int), "target_per_class": Flag(150, int),
    "seed": Flag(0, int),
}
SPLIT_FLAGS = {
    "known": Flag("0,1,2,3", help="comma-separated known class ids"),
    "source_unknown": Flag("4,5,6"), "target_unknown": Flag("7,8,9"),
}
TRAIN_FLAGS = {
    "epochs": Flag(20, int), "batch": Flag(64, int), "lr": Flag(1e-3, float),
    "optimizer": Flag("adam", ["adam", "sgd-momentum"]),
    "lambda_d": Flag(0.5, float), "lambda_e": Flag(1.0, float), "lambda_c": Flag(1.0, float),
    "weight_mode": Flag("neg-entropy", ["neg-entropy", "paper-literal", "uniform"]),
    "z_mode": Flag("same-batch", ["same-batch", "fresh-batch", "combined"]),
    "tail": Flag("block:20", help="block:<size>, top:<fraction>, or none"),
    "tail_pool": Flag("known-only", ["known-only", "known-plus-unknown"]),
    "hidden": Flag("64,64", help="feature extractor hidden widths, e.g. 64,64"),
    "seed": Flag(0, int),
}
DATA_FLAGS = {
    "data": Flag(None, help="synthetic blobs CSV (adagev-blobs v1)"),
    "source_images": Flag(None), "source_labels": Flag(None),
    "target_images": Flag(None), "target_labels": Flag(None),
}
OUT_FLAG = {"out": Flag(None)}


class UsageError(ValueError):
    pass


def _parse_int_list(text):
    """Comma-separated integers; the empty string is the empty list, and an
    empty item elsewhere is an error."""
    try:
        return tuple(int(v) for v in str(text).split(",")) if text != "" else ()
    except ValueError as e:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from e


def _parse_float_pair(text):
    parts = str(text).split(",")
    try:
        values = tuple(float(v) for v in parts)
    except ValueError as e:
        raise UsageError(f"expected comma-separated reals, got {text!r}") from e
    if len(values) != 2:
        raise UsageError(f"expected two components, got {text!r}")
    return values


def _parse_tail(text):
    if text == "none":
        return None
    kind, _, value = str(text).partition(":")
    try:
        if kind == "block":
            return evt.TailConfig(method="block_maxima", block_size=int(value))
        if kind == "top":
            return evt.TailConfig(method="top_fraction", fraction=float(value))
    except ValueError as e:
        raise UsageError(f"bad --tail value {text!r}: {e}") from e
    raise UsageError(f"--tail must be block:<size>, top:<fraction>, or none, got {text!r}")


def _config_value(key, flag, value):
    """A --config file value checked against its flag's kind.

    int kinds take integral numbers, float kinds any number, choice kinds a
    listed member and the other kinds a string.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(flag.kind, list):
        ok, expected = value in flag.kind, f"one of {flag.kind}"
    elif flag.kind is int:
        ok, expected = number and (isinstance(value, int) or value.is_integer()), "an integer"
    elif flag.kind is float:
        ok, expected = number, "a number"
    else:
        ok, expected = isinstance(value, str), "a string"
    if not ok:
        raise UsageError(f"config key {key!r} must be {expected}, got {value!r}")
    return int(value) if flag.kind is int else value


def _resolve(args, command):
    """builtin defaults < --config file < explicit flags; then the required keys."""
    flags = {key: flag for group in command.groups for key, flag in group.items()}
    merged = {key: flag.default for key, flag in flags.items()}
    config_path = args.config
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as f:
                file_values = json.load(f)
        except (OSError, ValueError) as e:
            raise dt.DataError(f"cannot read config {config_path}: {e}") from e
        if not isinstance(file_values, dict):
            raise UsageError(f"config {config_path} must hold a JSON object")
        # a run's config.json echo names its subcommand; it replays only that one
        echoed = file_values.pop("command", args.command)
        if echoed != args.command:
            raise UsageError(f"config {config_path} is for {echoed!r}, not {args.command!r}")
        unknown = set(file_values) - set(merged)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        # null leaves the key at its default, as an omitted key does
        merged.update({key: _config_value(key, flags[key], value)
                       for key, value in file_values.items() if value is not None})
    for key in merged:
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
        if flags[key].kind is int and merged[key] < 0:  # every count and seed, read or not
            raise UsageError(f"--{key.replace('_', '-')} must be nonnegative, got {merged[key]}")
    missing = [f"--{key.replace('_', '-')}" for key in command.required if not merged[key]]
    if missing:
        raise UsageError(f"{' and '.join(missing)} required")
    return merged


def _split_from(cfg) -> dt.RoleSplit:
    return dt.RoleSplit(
        known=_parse_int_list(cfg["known"]),
        source_unknown=_parse_int_list(cfg["source_unknown"]),
        target_unknown=_parse_int_list(cfg["target_unknown"]),
    )


def _load_pool(cfg):
    rs = _split_from(cfg)
    if cfg.get("data"):
        src_x, src_y, tgt_x, tgt_y = dt.load_blobs(cfg["data"])
    else:
        idx_keys = ("source_images", "source_labels", "target_images", "target_labels")
        if not all(cfg.get(k) for k in idx_keys):
            raise UsageError("provide either --data or all four IDX paths")
        src_x, src_y = dt.load_idx(cfg["source_images"], cfg["source_labels"])
        tgt_x, tgt_y = dt.load_idx(cfg["target_images"], cfg["target_labels"])
    return dt.apply_roles(src_x, src_y, tgt_x, tgt_y, rs), rs


def _train_config(cfg) -> pl.TrainConfig:
    tail = _parse_tail(cfg["tail"])
    if tail is None:
        raise UsageError("--tail none is only valid for fit-gev")
    return pl.TrainConfig(
        epochs=cfg["epochs"], batch_size=cfg["batch"], learning_rate=cfg["lr"],
        optimizer=cfg["optimizer"].replace("-", "_"),
        loss_weights=obj.LossWeights(cfg["lambda_d"], cfg["lambda_e"], cfg["lambda_c"]),
        weight_config=obj.WeightConfig(cfg["weight_mode"].replace("-", "_"),
                                       cfg["z_mode"].replace("-", "_")),
        tail_config=replace(tail, source_pool=cfg["tail_pool"].replace("-", "_")), seed=cfg["seed"],
    )


def _training_setup(cfg):
    """The pool and network specs that train, ablate and sweep share."""
    pool, rs = _load_pool(cfg)
    return pool, md.default_specs(pool.feature_dim, rs.num_known,
                                  _parse_int_list(cfg["hidden"]))


def _write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def _report_payload(report: pl.EvalReport, gev, tc_cfg, label=None):
    """The report, the rejector (l, s, c, tau and the upper endpoint when c < 0),
    log K (the largest possible entropy) and the resolved config."""
    payload = report.to_dict()
    payload["gev"] = {"l": gev.l, "s": gev.s, "c": gev.c, "tau": evt.rejection_threshold(gev)}
    if gev.c <= -evt.GUMBEL_EPS:
        payload["gev"]["upper_endpoint"] = gev.l - gev.s / gev.c
    payload["log_K"] = float(np.log(len(report.confusion) - 1))
    payload["config"] = tc_cfg
    if label:
        payload["variant"] = label
    return payload


def cmd_gen_data(cfg) -> int:
    rs = _split_from(cfg)
    all_role_ids = set(rs.known) | set(rs.source_unknown) | set(rs.target_unknown)
    outside = sorted(i for i in all_role_ids if not 0 <= i < cfg["classes"])
    if outside:
        raise UsageError(f"role ids {outside} lie outside the generated classes "
                         f"[0, {cfg['classes']}) of --classes {cfg['classes']}")
    bc = dt.BlobShiftConfig(
        class_count=cfg["classes"], dim=cfg["dim"], cluster_std=cfg["std"],
        rotation=np.deg2rad(cfg["rotation_deg"]),
        translation=_parse_float_pair(cfg["translate"]),
        source_per_class=cfg["source_per_class"],
        target_per_class=cfg["target_per_class"], seed=cfg["seed"],
    )
    src_x, src_y, tgt_x, tgt_y = dt.gen_shifted_blobs(bc)
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    dt.save_blobs(out, src_x, src_y, tgt_x, tgt_y)
    _write_json(out.with_suffix(out.suffix + ".config.json"),
                {"command": "gen-data", **cfg})
    print(f"wrote {out}: {len(src_x)} source rows, {len(tgt_x)} target rows, "
          f"{cfg['classes']} classes, dim {cfg['dim']}")
    return 0


def cmd_train(cfg) -> int:
    pool, specs = _training_setup(cfg)
    tc = _train_config(cfg)
    result = pl.train(pool, specs, tc)

    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    md.save_checkpoint(result.params, outdir / "checkpoint.bin", gev=result.gev)
    with open(outdir / "train_log.jsonl", "w", encoding="utf-8") as f:
        for record in result.log:
            f.write(json.dumps(record) + "\n")
    _write_json(outdir / "config.json", {"command": "train", **cfg})
    last = result.log[-1]
    print(f"trained {tc.epochs} epochs; final L_d={last['L_d']:.4f} "
          f"L_e={last['L_e']:.4f} L_c={last['L_c']:.4f}; "
          f"GEV l={result.gev.l:.4f} s={result.gev.s:.4f} c={result.gev.c:.4f}")
    print(f"checkpoint: {outdir / 'checkpoint.bin'}")
    return 0


def cmd_eval(cfg) -> int:
    params, gev = md.load_checkpoint(cfg["checkpoint"])
    if gev is None:
        raise dt.DataError(f"{cfg['checkpoint']}: no GEV section; cannot evaluate")
    pool, rs = _load_pool(cfg)
    if (params.num_classes, params.spec_g.widths[0]) != (rs.num_known, pool.feature_dim):
        raise dt.DataError(
            f"{cfg['checkpoint']} has {params.num_classes} classes and input width "
            f"{params.spec_g.widths[0]}; the data has {rs.num_known} known classes "
            f"and width {pool.feature_dim}")
    report = pl.evaluate(params, gev, pool)
    _write_json(cfg["out"], _report_payload(report, gev, cfg))
    print(f"OS={report.os_score:.4f} OS*={report.os_star:.4f} UNK={report.unk_recall}")
    return 0


def cmd_ablate(cfg) -> int:
    pool, specs = _training_setup(cfg)
    variant = cfg["variant"].replace("-", "_")
    report, result = pl.run_ablations(pool, specs, _train_config(cfg), (variant,),
                                      cfg["tau"])[variant]
    outdir = Path(cfg["out"])
    _write_json(outdir / "report.json",
                _report_payload(report, result.gev, cfg, label=cfg["variant"]))
    _write_json(outdir / "config.json", {"command": "ablate", **cfg})
    print(f"variant={cfg['variant']} OS={report.os_score:.4f} "
          f"OS*={report.os_star:.4f} UNK={report.unk_recall}")
    return 0


def cmd_fit_gev(cfg) -> int:
    values = dt.load_reals(cfg["input"])
    tail = _parse_tail(cfg["tail"])
    try:  # too few values is a data error, as in train; a fit that fails is numerical
        if tail is not None:
            values = evt.extract_tail(values, tail, rng_seed=cfg["seed"])
        elif values.size < evt.MIN_TAIL:
            raise evt.FitError(f"need >= {evt.MIN_TAIL} values to fit")
    except evt.FitError as e:  # values is still the whole file here
        raise dt.DataError(f"{cfg['input']}: the {values.size} values cannot give a GEV "
                           f"tail: {e}") from e
    fitted = evt.fit_gev_mle(values)
    _write_json(cfg["out"], {"l": fitted.l, "s": fitted.s, "c": fitted.c,
                             "n_fit": int(values.size), "config": cfg})
    print(f"l={fitted.l:.6f} s={fitted.s:.6f} c={fitted.c:.6f} (n={values.size})")
    return 0


def _grid(cfg, key):
    """The loss weights of --grid-<key>, each checked, or the one of --<key>."""
    raw = cfg["grid_" + key]
    if raw is None:
        return [cfg[key]]
    try:
        values = [float(v) for v in str(raw).split(",")]
        for v in values:
            obj.LossWeights(**{key: v})
    except ValueError as e:
        raise UsageError(f"--grid-{key.replace('_', '-')}: {e}") from e
    return values


def cmd_sweep(cfg) -> int:
    # the flag values are checked even where a grid replaces them, and every
    # grid point before the first one trains
    obj.LossWeights(cfg["lambda_d"], cfg["lambda_e"], cfg["lambda_c"])
    points = list(itertools.product(*(_grid(cfg, key)
                                      for key in ("lambda_d", "lambda_e", "lambda_c"))))

    pool, specs = _training_setup(cfg)
    outdir = Path(cfg["out"])
    summary = []
    for idx, (ld, le, lc) in enumerate(points):
        point = dict(cfg, lambda_d=ld, lambda_e=le, lambda_c=lc)
        result = pl.train(pool, specs, _train_config(point))
        report = pl.evaluate(result.params, result.gev, pool)
        _write_json(outdir / f"report_{idx:03d}.json", _report_payload(report, result.gev, point))
        summary.append({"index": idx, "lambda_d": ld, "lambda_e": le, "lambda_c": lc,
                        "OS": report.os_score, "OS_star": report.os_star,
                        "UNK": report.unk_recall})
    _write_json(outdir / "summary.json", {"points": summary})
    _write_json(outdir / "config.json", {"command": "sweep", **cfg})
    print(f"{'idx':>4} {'l_d':>6} {'l_e':>6} {'l_c':>6} {'OS':>8} {'OS*':>8} {'UNK':>8}")
    for row in summary:
        unk = f"{row['UNK']:.4f}" if row["UNK"] is not None else "  n/a"
        print(f"{row['index']:>4} {row['lambda_d']:>6.2f} {row['lambda_e']:>6.2f} "
              f"{row['lambda_c']:>6.2f} {row['OS']:>8.4f} {row['OS_star']:>8.4f} {unk:>8}")
    return 0


# Each subcommand: its handler, its help line, its flag groups (in the
# order config.json echoes them) and the keys it cannot run without.
Command = namedtuple("Command", "handler help groups required")
COMMANDS = {
    "gen-data": Command(cmd_gen_data, "generate the synthetic blob benchmark",
                        (GEN_FLAGS, SPLIT_FLAGS, OUT_FLAG), ("out",)),
    "train": Command(cmd_train, "run the training loop and fit the GEV rejector",
                     (TRAIN_FLAGS, SPLIT_FLAGS, OUT_FLAG, DATA_FLAGS), ("out",)),
    "eval": Command(cmd_eval, "evaluate a checkpoint on a target pool",
                    (SPLIT_FLAGS, {"checkpoint": Flag(None)}, OUT_FLAG, DATA_FLAGS),
                    ("checkpoint", "out")),
    "ablate": Command(cmd_ablate, "train and evaluate an ablation variant",
                      (TRAIN_FLAGS, SPLIT_FLAGS, OUT_FLAG, {
                          "variant": Flag("full", ["full", "no-reweight", "no-evt-binary",
                                                   "hard-threshold"]),
                          "tau": Flag(None, float, "entropy threshold for hard-threshold"),
                      }, DATA_FLAGS), ("out",)),
    "fit-gev": Command(cmd_fit_gev, "fit a GEV to a file of entropy values", ({
        "input": Flag(None), **OUT_FLAG,
        "tail": Flag("none", help="block:<size>, top:<fraction>, or none (default)"),
        "seed": Flag(0, int),
    },), ("input", "out")),
    "sweep": Command(cmd_sweep, "grid sweep over the loss weights",
                     (TRAIN_FLAGS, SPLIT_FLAGS, OUT_FLAG, {
                         "grid_lambda_d": Flag(None), "grid_lambda_e": Flag(None),
                         "grid_lambda_c": Flag(None),
                     }, DATA_FLAGS), ("out",)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one stderr line, as every other failure is."""
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adagev", description="open-set domain adaptation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON file of defaults; flags override it")
        for group in command.groups:
            for key, flag in group.items():
                kind = {"choices": flag.kind} if isinstance(flag.kind, list) else {"type": flag.kind}
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=flag.help, **kind)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = COMMANDS[args.command]
    try:
        return command.handler(_resolve(args, command))
    except dt.DataError as e:
        code, line = EXIT_DATA, f"data error: {e}"
    except (evt.FitError, ad.NonFiniteError) as e:
        code, line = EXIT_NUMERICAL, f"numerical failure: {e}"
    except ValueError as e:  # UsageError and every other ValueError
        code, line = EXIT_USAGE, f"error: {e}"
    except OSError as e:  # md.CheckpointError among them
        code, line = EXIT_DATA, f"data error: {e}"
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
