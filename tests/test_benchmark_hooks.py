"""The benchmark's tracer (perfbench/spans.py) reaches the program through
module attributes and the optimizer factory. These tests train a tiny pool
under it, so that a renamed or bypassed hook fails here and not only in the
benchmark's own smoke run."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import adagev.cli  # the tracer wraps adagev.cli, which adagev's __init__ does not import
from adagev import model as md
from adagev import pipeline as pl

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_traced_training_records_every_hooked_layer(spans):
    pool = pl.dt.apply_roles(*pl.dt.gen_shifted_blobs(
        pl.dt.BlobShiftConfig(source_per_class=20, target_per_class=15)), pl.dt.digits_split())
    specs = (md.MlpSpec((2, 8), "tanh"), md.MlpSpec((8, 4), head="softmax"),
             md.MlpSpec((8, 1), head="sigmoid"))
    tc = pl.TrainConfig(epochs=1, batch_size=16, tail_block=2)
    tracer = spans.Tracer()
    tracer.install(adagev)
    try:
        result = adagev.pipeline.train(pool, specs, tc)
    finally:
        tracer.uninstall()
    assert pl.train is adagev.pipeline.train and not hasattr(pl.train, "__wrapped__")

    counts = Counter(name for _, _, name, _, _, _ in tracer.spans)
    iterations = math.ceil(len(pool.source_known_x) / tc.batch_size) * tc.epochs
    assert counts["pipeline.optimizer.step"] == iterations
    assert counts["objective.total_step_gradients"] == iterations
    # two discriminator, two classifier and three extractor passes per step
    assert counts["model.mlp_backward"] == 7 * iterations
    assert counts["pipeline.fit_rejector"] == 1
    assert counts["pipeline.train"] == 1
    assert len(result.log) == tc.epochs


def test_traced_two_lane_training_keeps_one_step_span_per_step(spans, monkeypatch):
    """A lane-sized training runs part of each step on a worker thread, whose
    wrapped calls share the tracer with the main thread's."""
    import concurrent.futures

    opened = []
    real = concurrent.futures.ThreadPoolExecutor

    def counted(*args, **kwargs):
        opened.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(pl.os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = pl.dt.BlobShiftConfig(dim=64, source_per_class=20, target_per_class=15)
    pool = pl.dt.apply_roles(*pl.dt.gen_shifted_blobs(cfg), pl.dt.digits_split())
    specs = md.default_specs(64, 4, (256, 256))
    tc = pl.TrainConfig(epochs=2, batch_size=64, tail_block=2)
    assert tc.batch_size * (64 * 256 + 256 * 256) >= pl.LANE_MIN_MADDS
    tracer = spans.Tracer()
    tracer.install(adagev)
    try:
        result = adagev.pipeline.train(pool, specs, tc)
    finally:
        tracer.uninstall()

    assert len(opened) == 1 and len(result.log) == tc.epochs
    counts = Counter(name for _, _, name, _, _, _ in tracer.spans)
    iterations = math.ceil(len(pool.source_known_x) / tc.batch_size) * tc.epochs
    assert counts["objective.total_step_gradients"] == iterations
    assert counts["model.mlp_backward"] == 7 * iterations
    assert tracer._stack == []


def test_traced_child_runs_the_cli(tmp_path):
    """perfbench/child.py installs the tracer on a freshly imported package,
    as every traced benchmark child does, then runs ``adagev --help``."""
    spans_out = tmp_path / "spans.json"
    src = Path(adagev.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(PERFBENCH), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(spans_out),
                           "--help"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: adagev")
    names = {name for _, _, name, _, _, _ in json.loads(spans_out.read_text())}
    assert "cli.main" in names
