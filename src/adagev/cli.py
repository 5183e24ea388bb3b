"""Command-line surface: data generation, training, evaluation, GEV fitting,
and ablations over a loss-weight grid.

Every run writes a config echo (config.json) holding all resolved values,
so any run can be reproduced exactly by replaying the echoed config. An
echo holding a key its command no longer has (``optimizer``, say) is a
usage error.
Flags override values from an optional --config JSON file, which in turn
overrides the built-in defaults.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure,
and no other; a failure prints one stderr line and never a traceback.
``main`` gives each exception family one code, tried in this order:
DataError 3; FitError and NonFiniteError 4; any other ValueError, UsageError
among them, 2; an OSError, CheckpointError among them, 3; a MemoryError, a
resource failure as an OSError is, 3 ("out of memory"). So a flag or config
value invalid on its own exits 2; a conflict with a data file or a
checkpoint, an unreadable or damaged file, and too few values for the GEV
tail (in train or fit-gev) exit 3; training that diverges, a forward pass
that overflows and a GEV fit that fails exit 4. train, ablate, eval and
fit-gev check their flag values before they read a data file or a
checkpoint, so there a value invalid on its own exits 2 whatever the files.
Next, before any data is read or generated, every command checks that --out
can be written: a directory it needs where a file is, or an output file at
an existing directory, exits 3 at once, in one line naming --out and that
path.

What loads when: ``--help`` and argparse's usage errors exit after loading
only the standard library, the package ``__init__`` and ``autodiff``, which
need no numpy. The numerical modules (data, evt, model, objective,
pipeline) and numpy load in the functions that use them, once a command
runs. With PYTHONDONTWRITEBYTECODE set no bytecode is cached, so every
start also compiles each module it imports.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import namedtuple
from pathlib import Path

from . import autodiff as ad

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
    "lambda_d": Flag(0.5, float), "lambda_e": Flag(1.0, float), "lambda_c": Flag(1.0, float),
    "weight_mode": Flag("neg-entropy", ["neg-entropy", "uniform"]),
    "tail": Flag("block:20", help="block:<size>"),
    "hidden": Flag("64,64", help="feature extractor hidden widths, e.g. 64,64"),
    "seed": Flag(0, int),
}
DATA_FLAGS = {
    "data": Flag(None, help="synthetic blobs CSV (adagev-blobs v1)"),
    "source_images": Flag(None), "source_labels": Flag(None),
    "target_images": Flag(None), "target_labels": Flag(None),
}
OUT_FLAG = {"out": Flag(None)}
VARIANTS = ("full", "no-reweight", "no-evt-binary", "hard-threshold")


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
    """The block size of --tail block:<size>, at least 1, or None for none."""
    if text == "none":
        return None
    kind, _, value = str(text).partition(":")
    if kind != "block":
        raise UsageError(f"--tail must be block:<size> or none, got {text!r}")
    try:
        block = int(value)
        if block < 1:
            raise ValueError("block_size must be positive")
    except ValueError as e:
        raise UsageError(f"bad --tail value {text!r}: {e}") from e
    return block


def _config_value(key, flag, value):
    """A --config file value checked against its flag's kind.

    int kinds take integral numbers, float kinds any float and any integer
    that a float holds, choice kinds a listed member and the other kinds a
    string.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(flag.kind, list):
        ok, expected = value in flag.kind, f"one of {flag.kind}"
    elif flag.kind is int:
        ok, expected = number and (isinstance(value, int) or value.is_integer()), "an integer"
    elif flag.kind is float:  # a larger integer would overflow where it is first used
        ok = number and (isinstance(value, float) or abs(value) <= sys.float_info.max)
        expected = "a number within float range"
    else:
        ok, expected = isinstance(value, str), "a string"
    if not ok:
        raise UsageError(f"config key {key!r} must be {expected}, got {value!r}")
    return int(value) if flag.kind is int else value


def _resolve(args, command):
    """builtin defaults < --config file < explicit flags; then the required keys."""
    from . import data as dt

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
    from . import data as dt

    return dt.RoleSplit(
        known=_parse_int_list(cfg["known"]),
        source_unknown=_parse_int_list(cfg["source_unknown"]),
        target_unknown=_parse_int_list(cfg["target_unknown"]),
    )


def _check_out(out, is_file):
    """Refuse an --out that cannot be written, creating nothing: an output
    file at an existing directory, or a directory to hold the output (the
    file's parent, or ``out`` itself) under a path that is not a directory."""
    out = Path(out)
    if is_file and out.is_dir():
        raise IsADirectoryError(f"--out {out}: {out} is a directory")
    folder = out.parent if is_file else out
    existing = next((p for p in (folder, *folder.parents) if p.exists()), folder)
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {out}: {existing} is not a directory")


def _load_pool(cfg, out_is_file, target_only=False):
    """The role split and its pools, with float64 features. The role and data
    flags are checked first, then --out (see ``_check_out``); then the files
    are read.

    IDX pixels stay uint8 until ``apply_roles`` has picked the rows; then
    each kept pool is scaled to [0, 1], once. With ``target_only`` the
    source pools are cut to zero rows of the data's width, as ``evaluate``
    reads only the target rows; the source files are still read and checked
    in full.
    """
    import numpy as np

    from . import data as dt

    rs = _split_from(cfg)
    idx_keys = ("source_images", "source_labels", "target_images", "target_labels")
    if not (cfg.get("data") or all(cfg.get(k) for k in idx_keys)):
        raise UsageError("provide either --data or all four IDX paths")
    _check_out(cfg["out"], out_is_file)
    if cfg.get("data"):
        pool = dt.apply_roles(*dt.load_blobs(cfg["data"]), rs)
    else:
        pool = dt.apply_roles(*dt.read_idx(cfg["source_images"], cfg["source_labels"]),
                              *dt.read_idx(cfg["target_images"], cfg["target_labels"]), rs)
    if target_only:
        pool.source_known_x = np.empty((0, pool.feature_dim))
        pool.source_known_y = np.empty(0, np.int64)
        pool.source_unknown_x = np.empty((0, pool.feature_dim))
    for key in ("source_known_x", "source_unknown_x", "target_x"):
        rows = getattr(pool, key)
        if rows.dtype == np.uint8:  # IDX pixels
            setattr(pool, key, rows.astype(np.float64) / 255.0)
    return pool, rs


def _train_config(cfg) -> pl.TrainConfig:
    from . import objective as obj
    from . import pipeline as pl

    tail = _parse_tail(cfg["tail"])
    if tail is None:
        raise UsageError("--tail none is only valid for fit-gev")
    return pl.TrainConfig(
        epochs=cfg["epochs"], batch_size=cfg["batch"], learning_rate=cfg["lr"],
        loss_weights=obj.LossWeights(cfg["lambda_d"], cfg["lambda_e"], cfg["lambda_c"]),
        weight_mode=cfg["weight_mode"].replace("-", "_"), tail_block=tail, seed=cfg["seed"],
    )


def _training_setup(cfg):
    """The pool and network specs that train and ablate share; --hidden is
    checked before the pool loads, and --out must be able to become a
    directory."""
    from . import model as md

    hidden = _parse_int_list(cfg["hidden"])
    if not hidden or min(hidden) <= 0:
        raise UsageError(f"--hidden must be one or more positive widths, got {cfg['hidden']!r}")
    pool, rs = _load_pool(cfg, out_is_file=False)
    return pool, md.default_specs(pool.feature_dim, rs.num_known, hidden)


def _write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def _report_payload(report: pl.EvalReport, gev, tc_cfg, label=None, tau=None):
    """The report, the rejector that was applied, log K (the largest possible
    entropy) and the resolved config. The rejector is a fitted GEV under
    ``gev`` (l, s, c, its tau and the upper endpoint when c < 0), a hard
    entropy threshold under ``tau``, or neither, for the binary head."""
    import numpy as np

    from . import evt

    payload = report.to_dict()
    if gev is not None:
        payload["gev"] = {"l": gev.l, "s": gev.s, "c": gev.c, "tau": evt.rejection_threshold(gev)}
        if gev.c <= -evt.GUMBEL_EPS:
            payload["gev"]["upper_endpoint"] = gev.l - gev.s / gev.c
    if tau is not None:
        payload["tau"] = tau
    payload["log_K"] = float(np.log(len(report.confusion) - 1))
    payload["config"] = tc_cfg
    if label:
        payload["variant"] = label
    return payload


def cmd_gen_data(cfg) -> int:
    import numpy as np

    from . import data as dt

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
    _check_out(cfg["out"], is_file=True)
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
    from . import model as md
    from . import pipeline as pl

    tc = _train_config(cfg)
    pool, specs = _training_setup(cfg)
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
    from . import data as dt
    from . import model as md
    from . import pipeline as pl

    pool, rs = _load_pool(cfg, out_is_file=True, target_only=True)
    params, gev = md.load_checkpoint(cfg["checkpoint"])
    if gev is None:
        raise dt.DataError(f"{cfg['checkpoint']}: no GEV section; cannot evaluate")
    if (params.num_classes, params.spec_g.widths[0]) != (rs.num_known, pool.feature_dim):
        raise dt.DataError(
            f"{cfg['checkpoint']} has {params.num_classes} classes and input width "
            f"{params.spec_g.widths[0]}; the data has {rs.num_known} known classes "
            f"and width {pool.feature_dim}")
    report = pl.evaluate(params, gev, pool)
    _write_json(cfg["out"], _report_payload(report, gev, cfg))
    print(f"OS={report.os_score:.4f} OS*={report.os_star:.4f} UNK={report.unk_recall}")
    return 0


def cmd_fit_gev(cfg) -> int:
    from . import data as dt
    from . import evt

    tail = _parse_tail(cfg["tail"])
    _check_out(cfg["out"], is_file=True)
    values = dt.load_reals(cfg["input"])
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
    from . import objective as obj

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


def _variants(text):
    """The --variant list: one or more of VARIANTS, none of them twice."""
    names = str(text).split(",")
    if not set(names) <= set(VARIANTS) or len(set(names)) < len(names):
        raise UsageError(f"--variant must list distinct variants of {', '.join(VARIANTS)}, "
                         f"got {text!r}")
    return names


def cmd_ablate(cfg) -> int:
    from . import pipeline as pl

    # the flag values are checked even where a grid replaces them; then the
    # variants, --tau and every grid point, all before the data loads
    _train_config(cfg)
    variants = _variants(cfg["variant"])
    names = [v.replace("-", "_") for v in variants]
    pl.check_ablations(names, cfg["tau"])
    points = [dict(cfg, lambda_d=ld, lambda_e=le, lambda_c=lc)
              for ld, le, lc in itertools.product(*(_grid(cfg, key) for key in
                                                    ("lambda_d", "lambda_e", "lambda_c")))]
    configs = list(map(_train_config, points))

    pool, specs = _training_setup(cfg)
    outdir = Path(cfg["out"])
    reports, summary = {}, []  # every point is scored before any file is written
    for idx, (point, tc) in enumerate(zip(points, configs)):
        results = pl.run_ablations(pool, specs, tc, names, cfg["tau"])
        for variant, name in zip(variants, names):
            report, result = results[name]
            gev, tau = pl.ablation_rejector(name, result, cfg["tau"])
            reports[f"report_{idx:03d}_{variant}.json"] = _report_payload(
                report, gev, point, label=variant, tau=tau)
            summary.append({"index": idx, "variant": variant, "lambda_d": point["lambda_d"],
                            "lambda_e": point["lambda_e"], "lambda_c": point["lambda_c"],
                            "OS": report.os_score, "OS_star": report.os_star,
                            "UNK": report.unk_recall})
    for name, payload in reports.items():
        _write_json(outdir / name, payload)
    _write_json(outdir / "summary.json", {"points": summary})
    _write_json(outdir / "config.json", {"command": "ablate", **cfg})
    print(f"{'idx':>4} {'variant':<14} {'l_d':>6} {'l_e':>6} {'l_c':>6} "
          f"{'OS':>8} {'OS*':>8} {'UNK':>8}")
    for row in summary:
        unk = f"{row['UNK']:.4f}" if row["UNK"] is not None else "  n/a"
        print(f"{row['index']:>4} {row['variant']:<14} {row['lambda_d']:>6.2f} "
              f"{row['lambda_e']:>6.2f} {row['lambda_c']:>6.2f} {row['OS']:>8.4f} "
              f"{row['OS_star']:>8.4f} {unk:>8}")
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
    "ablate": Command(cmd_ablate, "train and evaluate ablation variants over a grid",
                      (TRAIN_FLAGS, SPLIT_FLAGS, OUT_FLAG, {
                          "variant": Flag("full", help=f"comma list of {', '.join(VARIANTS)}"),
                          "tau": Flag(None, float, "entropy threshold for hard-threshold"),
                          "grid_lambda_d": Flag(None), "grid_lambda_e": Flag(None),
                          "grid_lambda_c": Flag(None),
                      }, DATA_FLAGS), ("out",)),
    "fit-gev": Command(cmd_fit_gev, "fit a GEV to a file of entropy values", ({
        "input": Flag(None), **OUT_FLAG,
        "tail": Flag("none", help="block:<size> or none (default)"),
        "seed": Flag(0, int),
    },), ("input", "out")),
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
    from . import data as dt
    from . import evt

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
    except MemoryError as e:  # a resource failure, as an OSError is
        code, line = EXIT_DATA, "data error: out of memory" + (f": {e}" if str(e) else "")
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
