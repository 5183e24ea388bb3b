"""The adagev benchmark: training and rejection, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Workloads (see README.md for why each exists):

  pinned-train  pipeline.train then pipeline.evaluate on the criterion-8
                config, in process
  wide-idx      ``adagev train`` then ``adagev eval`` on 784-wide IDX files,
                through cli.main in process
  bulk-eval     ``adagev eval`` as a child process on a 140k-row CSV, plus
                pipeline.evaluate in process on the same pool

Each is a closed loop with one caller: an operation starts when the previous
one has returned. Every workload also starts ``adagev --help`` as a child
once per iteration, for the CLI cold start. The set-up makes the inputs from
``--seed`` at the start of every iteration.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the program's public functions are wrapped and
the last line holds the per-layer metrics, taken from every other iteration
(the rest run unwrapped, to measure the tracing overhead). A report with
sample counts, percentiles, the environment and, when traced, per-layer
self time and the spans, goes to ``.bench_out/``.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads; children inherit the environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 120

WORKLOADS = ("pinned-train", "wide-idx", "bulk-eval")


def fail_usage(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "adagev" / "__init__.py").is_file():
    fail_usage(f"no adagev sources under {SRC}; run from the root of an adagev checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import adagev  # noqa: E402
import adagev.cli  # noqa: E402
from adagev import data as dt  # noqa: E402
from adagev import model as md  # noqa: E402
from adagev import pipeline as pl  # noqa: E402

from layers import (SpanIndex, high_percentile, layer_metrics, parse_importtime,  # noqa: E402
                    percentile)
from spans import Tracer  # noqa: E402

if Path(adagev.__file__).resolve().parent != SRC / "adagev":
    fail_usage(f"imported adagev from {adagev.__file__}, not from {SRC}")


# --- the environment -------------------------------------------------------

def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps", "r", encoding="utf-8") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line and "/" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # look no higher
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "adagev").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_env": os.environ["OPENBLAS_NUM_THREADS"],
                 "threads": blas_threads},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "machine": platform.machine(),
    }


# --- operations and their checks --------------------------------------------

class Run:
    """State of one benchmark run: samples, counts, checks and the tracer."""

    def __init__(self, args):
        self.args = args
        self.work = OUT / args.workload
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.tracer = Tracer() if args.trace else None
        self.tracing = False
        self.import_times: list[dict] = []
        self.child_env = dict(os.environ)
        self.child_env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        rng = np.random.default_rng(args.seed)
        self.data_seed = int(rng.integers(2**31))
        self.train_seeds = [int(s) for s in rng.integers(2**31, size=6)]
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def add(self, metric, value):
        key = f"{metric}.traced" if self.tracing else metric
        self.samples.setdefault(key, []).append(value)

    @contextlib.contextmanager
    def traced(self, on):
        """Install the tracer for the block when ``on`` (traced runs only)."""
        on = bool(on and self.tracer)
        if on:
            self.tracer.install(adagev)
        self.tracing = on
        try:
            yield
        finally:
            if on:
                self.tracer.uninstall()
            self.tracing = False

    def span(self, name):
        return self.tracer.span(name) if self.tracing else contextlib.nullcontext()

    def op(self, kind, fn, check):
        """Run one operation, time it, and check its output.

        Returns (result, seconds); an operation that raises or fails a check
        counts as failed and returns (None, None).
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.span(f"bench.{kind}"):
                result = fn()
            seconds = time.perf_counter() - start
            problems = check(result)
        except Exception as e:  # a failing operation is counted, not fatal
            problems = [f"raised {type(e).__name__}: {e}"]
        if problems:
            self.failures.append({"op": kind, "problems": problems})
            return None, None
        return result, seconds

    def child(self, argv, importtime=False):
        """Run the adagev CLI in a child process, traced when tracing."""
        spans_out = self.work / "child_spans.json"
        if self.tracing:
            cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
            cmd += [str(HERE / "child.py"), str(spans_out)]
        else:
            cmd = [sys.executable, "-m", "adagev.cli"]
        done = subprocess.run(cmd + argv, cwd=ROOT, env=self.child_env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if self.tracing:
            self.tracer.merge(spans_out)
            if importtime:
                self.import_times.append(parse_importtime(done.stderr))
        return done

    def help_op(self):
        _, secs = self.op("cli_help", lambda: self.child(["--help"], importtime=True),
                          lambda done: _child_problems(done, "usage: adagev"))
        if secs is not None:
            self.add("cli_start_s", secs)


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _train_problems(log, gev, epochs):
    """Checks on a training run's per-epoch log and fitted GEV."""
    problems = []
    if [r["epoch"] for r in log] != list(range(1, epochs + 1)):
        problems.append(f"log has {len(log)} records for {epochs} epochs")
    if not all(_finite(r["L_d"], r["L_e"], r["L_c"], r["total"]) for r in log):
        problems.append("non-finite loss in the log")
    if gev is None or not (_finite(gev.l, gev.s, gev.c) and gev.s > 0):
        problems.append(f"bad GEV {gev}")
    return problems


def _report_problems(report, rows):
    """Checks on an EvalReport or on the dict an eval writes."""
    d = report if isinstance(report, dict) else report.to_dict()
    problems = []
    if d["sample_count"] != rows:
        problems.append(f"sample_count {d['sample_count']} != {rows} target rows")
    if int(np.asarray(d["confusion"]).sum()) != rows:
        problems.append("confusion matrix does not sum to the target rows")
    if not 0.0 <= d["OS"] <= 1.0:
        problems.append(f"OS {d['OS']} outside [0, 1]")
    return problems


def _child_problems(done, expect):
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    return [] if expect in done.stdout else [f"{expect!r} missing from output"]


def _cli_in_process(argv):
    """cli.main in this process, its console output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = adagev.cli.main(argv)
    return code, out.getvalue()


def _read_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


# --- workloads ----------------------------------------------------------------

def pinned_specs():
    return (md.MlpSpec((2, 128, 64), activation="tanh"),
            md.MlpSpec((64, 4), head="softmax"),
            md.MlpSpec((64, 64, 1), activation="tanh", head="sigmoid"))


class Workload:
    """Keeps each seed's model OS and checkpoint bytes, for the end of a run."""

    def __init__(self, run):
        self.run = run
        self.os_by_seed = {}
        self.checkpoints = {}

    def finish(self):
        """Check that one seed trained twice gave identical checkpoints."""
        repeated = [b for b in self.checkpoints.values() if len(b) > 1]
        blobs = repeated[0] if repeated else []
        self.run.op("determinism", lambda: blobs,
                    lambda b: [] if len(b) >= 2 and all(x == b[0] for x in b)
                    else [f"{len(b)} checkpoints of one seed, not all byte-identical"])
        return self.os_by_seed


class PinnedTrain(Workload):
    """pipeline.train then pipeline.evaluate on the criterion-8 config."""

    # Six seeds, so that their mean OS is steady across workload seeds, then a
    # repeat for the determinism check.
    min_iterations = 7
    evaluations = 10  # evaluate takes about 10 ms: several per model steady its median

    def __init__(self, run):
        super().__init__(run)
        self.epochs = 2 if run.args.tiny else 80

    def setup(self):
        src_x, src_y, tgt_x, tgt_y = dt.gen_shifted_blobs(
            dt.BlobShiftConfig(seed=self.run.data_seed))
        self.pool = dt.apply_roles(src_x, src_y, tgt_x, tgt_y, dt.digits_split())

    def iteration(self, i):
        run, seed = self.run, self.run.train_seeds[i % len(self.run.train_seeds)]
        tc = pl.TrainConfig(epochs=self.epochs, batch_size=128, learning_rate=1e-4,
                            optimizer="adam", seed=seed)
        result, secs = run.op("train", lambda: pl.train(self.pool, pinned_specs(), tc),
                              lambda r: _train_problems(r.log, r.gev, self.epochs))
        if result is None:
            return
        run.add("train_s", secs)
        path = run.work / f"checkpoint-{i}.bin"
        md.save_checkpoint(result.params, path, gev=result.gev)
        self.checkpoints.setdefault(seed, []).append(path.read_bytes())
        rows = len(self.pool.target_x)
        for _ in range(self.evaluations):
            report, secs = run.op("evaluate",
                                  lambda: pl.evaluate(result.params, result.gev, self.pool),
                                  lambda r: _report_problems(r, rows))
            if report is not None:
                run.add("eval_s", secs)
                run.add("eval_rows_per_s", rows / secs)
                self.os_by_seed.setdefault(seed, report.os_score)
        run.help_op()


# The IDX images: 28x28 uint8, 10 classes. Each class is a random sparse
# pattern under heavy noise, so that source predictions keep some entropy
# for the GEV fit; the target domain has lower contrast and a raised floor.
IDX_SIDE = 28


def make_idx_images(rng, per_class, prototypes, target):
    n = per_class * len(prototypes)
    labels = np.repeat(np.arange(len(prototypes), dtype=np.uint8), per_class)
    contrast = rng.uniform(0.6, 1.0, size=(n, 1))
    x = prototypes[labels] * contrast + rng.normal(0.0, 150.0, size=(n, IDX_SIDE * IDX_SIDE))
    if target:
        x = 0.9 * x + 10.0
    order = rng.permutation(n)
    return np.clip(x[order], 0, 255).astype(np.uint8), labels[order]


def write_idx(images_path, labels_path, images, labels):
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", dt.IDX_IMAGE_MAGIC, len(images), IDX_SIDE, IDX_SIDE))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", dt.IDX_LABEL_MAGIC, len(labels)))
        f.write(labels.tobytes())


class WideIdx(Workload):
    """``adagev train`` then ``adagev eval`` on IDX files, through cli.main."""

    min_iterations = 3  # two seeds, then a repeat for the determinism check
    evaluations = 8  # each takes about 0.1 s: several per model steady their medians

    def __init__(self, run):
        super().__init__(run)
        tiny = run.args.tiny
        self.source_per_class, self.target_per_class = (150, 40) if tiny else (250, 200)
        self.train_flags = ["--hidden", "32,16" if tiny else "512,256", "--batch", "128",
                            "--epochs", "2" if tiny else "10"]
        self.epochs = int(self.train_flags[-1])
        self.seeds = run.train_seeds[:2]

    def setup(self):
        rng = np.random.default_rng(self.run.data_seed)
        prototypes = 200.0 * (rng.uniform(size=(10, IDX_SIDE * IDX_SIDE)) > 0.7)
        self.paths = []
        for domain, per_class in (("source", self.source_per_class),
                                  ("target", self.target_per_class)):
            images, labels = make_idx_images(rng, per_class, prototypes, domain == "target")
            paths = (self.run.work / f"{domain}-images.idx", self.run.work / f"{domain}-labels.idx")
            write_idx(*paths, images, labels)
            self.paths += [f"--{domain}-images", str(paths[0]), f"--{domain}-labels", str(paths[1])]
        src = dt.load_idx(self.run.work / "source-images.idx", self.run.work / "source-labels.idx")
        tgt = dt.load_idx(self.run.work / "target-images.idx", self.run.work / "target-labels.idx")
        self.pool = dt.apply_roles(*src, *tgt, dt.digits_split())

    def iteration(self, i):
        run, seed = self.run, self.seeds[i % len(self.seeds)]
        outdir = run.work / f"train-{i}"
        argv = ["train", *self.paths, *self.train_flags, "--seed", str(seed), "--out", str(outdir)]
        _, secs = run.op("cli_train", lambda: _cli_in_process(argv), self._train_check(outdir))
        if secs is None:
            return
        run.add("train_s", secs)
        checkpoint = outdir / "checkpoint.bin"
        self.checkpoints.setdefault(seed, []).append(checkpoint.read_bytes())
        rows = len(self.pool.target_x)
        report_path = outdir / "report.json"
        argv = ["eval", "--checkpoint", str(checkpoint), *self.paths, "--out", str(report_path)]
        for _ in range(self.evaluations):
            _, secs = run.op("cli_eval", lambda: _cli_in_process(argv),
                             lambda r: [f"exit code {r[0]}: {r[1][-300:]}"] if r[0] != 0
                             else _report_problems(_read_json(report_path), rows))
            if secs is None:
                return
            run.add("eval_s", secs)
        cli_os = _read_json(report_path)["OS"]
        self.os_by_seed.setdefault(seed, cli_os)
        for _ in range(self.evaluations):
            _, secs = run.op("evaluate", lambda: pl.evaluate(*self.loaded, self.pool),
                             lambda r: _report_problems(r, rows)
                             + ([] if r.os_score == cli_os else ["OS differs from adagev eval"]))
            if secs is not None:
                run.add("eval_rows_per_s", rows / secs)
        run.help_op()

    def _train_check(self, outdir):
        def check(result):
            code, output = result
            if code != 0:
                return [f"exit code {code}: {output[-300:]}"]
            with open(outdir / "train_log.jsonl", "r", encoding="utf-8") as f:
                log = [json.loads(line) for line in f]
            _read_json(outdir / "config.json")
            # Loaded once here, for this check and for the in-process evaluate.
            self.loaded = md.load_checkpoint(outdir / "checkpoint.bin")
            return _train_problems(log, self.loaded[1], self.epochs)
        return check



class BulkEval(Workload):
    """``adagev eval`` in a child on a large CSV; pipeline.evaluate in process."""

    min_iterations = 3
    evaluations = 2

    def __init__(self, run):
        super().__init__(run)
        self.target_per_class = 500 if run.args.tiny else 20000
        self.epochs = 2 if run.args.tiny else 30
        self.seed = run.train_seeds[0]  # one seed: every set-up's checkpoint must match
        self.csv = run.work / "blobs.csv"
        self.checkpoint = run.work / "checkpoint.bin"

    def setup(self):
        """Write the CSV and a briefly trained checkpoint of the pinned specs.

        The domain shift is milder than the default (10 degrees, not 25), so
        that one briefly trained model's OS is steady across seeds: under the
        default shift its quartile spread is a quarter to a half of the median.
        """
        run = self.run
        src_x, src_y, tgt_x, tgt_y = dt.gen_shifted_blobs(dt.BlobShiftConfig(
            seed=run.data_seed, target_per_class=self.target_per_class,
            rotation=np.deg2rad(10.0), translation=(0.1, -0.1)))
        dt.save_blobs(self.csv, src_x, src_y, tgt_x, tgt_y)
        self.pool = dt.apply_roles(src_x, src_y, tgt_x, tgt_y, dt.digits_split())
        tc = pl.TrainConfig(epochs=self.epochs, batch_size=128, learning_rate=1e-3,
                            optimizer="adam", seed=self.seed)
        result, secs = run.op("train", lambda: pl.train(self.pool, pinned_specs(), tc),
                              lambda r: _train_problems(r.log, r.gev, self.epochs))
        self.params = None
        if result is None:
            return
        run.add("train_s", secs)
        md.save_checkpoint(result.params, self.checkpoint, gev=result.gev)
        self.checkpoints.setdefault(self.seed, []).append(self.checkpoint.read_bytes())
        self.params, self.gev = result.params, result.gev

    def iteration(self, i):
        run = self.run
        if self.params is None:  # the set-up's training failed, and was counted
            return
        rows = len(self.pool.target_x)
        report_path = run.work / "report.json"
        argv = ["eval", "--checkpoint", str(self.checkpoint), "--data", str(self.csv),
                "--out", str(report_path)]
        _, secs = run.op("cli_eval", lambda: run.child(argv),
                         lambda done: _child_problems(done, "OS=")
                         or _report_problems(_read_json(report_path), rows))
        if secs is not None:
            run.add("eval_s", secs)
        cli_os = _read_json(report_path)["OS"] if secs is not None else None
        run.help_op()
        for _ in range(self.evaluations):
            report, secs = run.op("evaluate",
                                  lambda: pl.evaluate(self.params, self.gev, self.pool),
                                  lambda r: _report_problems(r, rows)
                                  + ([] if cli_os in (None, r.os_score)
                                     else ["OS differs from adagev eval"]))
            if report is not None:
                run.add("eval_rows_per_s", rows / secs)
                self.os_by_seed[self.seed] = report.os_score


WORKLOAD_CLASSES = {"pinned-train": PinnedTrain, "wide-idx": WideIdx, "bulk-eval": BulkEval}


# --- metrics ----------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "eval_s": "s", "eval_rows_per_s": "1/s",
    "cli_start_s": "s", "peak_rss_mb": "MB", "os_score": "OS",
}


def summarize(values):
    """Median, sample count, quartiles and the high percentile if defined."""
    s = {"median": statistics.median(values), "n": len(values),
         "p25": percentile(values, 25), "p75": percentile(values, 75)}
    q = high_percentile(len(values))
    if q is not None:
        s[f"p{q:g}"] = percentile(values, q)
    return s


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    run = Run(args)
    workload = WORKLOAD_CLASSES[args.workload](run)

    # Each iteration makes its inputs afresh, so that the set-up samples spread
    # over the run as the others do. Iterations go on while another one of
    # the mean length fits in --seconds. In a traced run every other iteration
    # is traced, starting with the second, so that warm-up stays untraced.
    start = time.perf_counter()
    i = 0
    while (i < workload.min_iterations
           or (time.perf_counter() - start) * (i + 1) / i <= args.seconds):
        with run.traced(i % 2 == 1), run.span("bench.iteration"):
            setup_start = time.perf_counter()
            with run.span("bench.setup"):
                workload.setup()
            run.add("setup_s", time.perf_counter() - setup_start)
            workload.iteration(i)
        i += 1
    os_scores = workload.finish()

    missing = [m for m in ("setup_s", "train_s", "eval_s", "eval_rows_per_s", "cli_start_s")
               if not run.samples.get(m)] + ([] if os_scores else ["os_score"])
    run.op("samples", lambda: missing, lambda m: [f"no samples for {m}"] if m else [])
    summaries = {k: summarize(v) for k, v in run.samples.items() if v}
    medians = {k: s["median"] for k, s in summaries.items()}
    end_to_end = {m: medians.get(m, 0.0) for m in END_TO_END_UNITS}
    end_to_end["peak_rss_mb"] = peak_rss_mb()
    end_to_end["os_score"] = statistics.mean(os_scores.values()) if os_scores else 0.0

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "iterations": i, "environment": environment(args.seed),
              "samples": summaries, "os_by_seed": {str(k): v for k, v in os_scores.items()}}
    if args.trace:
        train = medians.get("train_s")
        ratio = medians["train_s.traced"] / train if train and "train_s.traced" in medians else 0.0
        layers, varying = layer_metrics(run.tracer.spans, run.import_times, ratio)
        run.op("counts", lambda: varying,
               lambda v: [f"{k} took several values: {vs}" for k, vs in v.items()])
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["self_time"] = SpanIndex(run.tracer.spans).self_times()
        run.tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
        metrics = layers
    else:
        report["end_to_end"] = end_to_end
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}
    report.update(attempted=run.attempted, failed=len(run.failures), failures=run.failures)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump(report, f, indent=1)

    for name, (value, unit) in metrics.items():
        n = summaries.get(name, {}).get("n", "")
        print(f"# {name:32s} {value:14.6g} {unit:6s} {f'n={n}' if n else ''}")
    for failure in run.failures:
        print(f"# FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
