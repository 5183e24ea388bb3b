import json
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adagev import data as dt
from adagev import evt
from adagev import model as md
from adagev import objective as obj
from adagev import pipeline as pl
import graph_engine as ad
from graph_reference import log_sigmoid, mlp_graph, param_nodes


def tiny_pool(seed=0):
    cfg = dt.BlobShiftConfig(source_per_class=20, target_per_class=15, seed=seed)
    sx, sy, tx, ty = dt.gen_shifted_blobs(cfg)
    return dt.apply_roles(sx, sy, tx, ty, dt.digits_split())


def tiny_specs():
    sg = md.MlpSpec((2, 8), activation="tanh")
    sc = md.MlpSpec((8, 4), head="softmax")
    sd = md.MlpSpec((8, 1), head="sigmoid")
    return sg, sc, sd


def tiny_config(**kw):
    # the tiny pool is too small for the default blocks of 20; use blocks of 2
    base = dict(epochs=2, batch_size=16, seed=0, tail_block=2)
    base.update(kw)
    return pl.TrainConfig(**base)


@pytest.fixture
def no_training(monkeypatch):
    """Fails the test if anything starts a training run."""
    def train(*args):
        raise AssertionError("training started")
    monkeypatch.setattr(pl, "train", train)


class TestConfigValidation:
    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            pl.TrainConfig(epochs=0)

    def test_bad_optimizer(self):
        with pytest.raises(ValueError):
            pl.TrainConfig(optimizer="adagrad")

    def test_benchmark_call_form(self):
        """perfbench/run.py still names the optimizer. The next change to the
        benchmark drops its optimizer="adam", and then the field goes too."""
        form = dict(epochs=2, batch_size=128, learning_rate=1e-4, seed=1)
        assert pl.TrainConfig(**form, optimizer="adam") == pl.TrainConfig(**form)
        with pytest.raises(ValueError, match="unknown optimizer 'sgd_momentum'"):
            pl.TrainConfig(**form, optimizer="sgd_momentum")

    @pytest.mark.parametrize("kw", [{"weight_mode": "paper_literal"}, {"weight_mode": "uniform "},
                                    {"tail_block": 0}, {"tail_block": -20}])
    def test_bad_weight_mode_or_tail_block(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            pl.TrainConfig(**kw)

    def test_bad_ablation_variant(self, no_training):
        with pytest.raises(ValueError, match="variant must be one of"):
            pl.run_ablations(tiny_pool(), tiny_specs(), tiny_config(), ("full", "nope"))

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_non_finite_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            pl.TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_non_finite_hard_threshold(self, no_training, tau):
        with pytest.raises(ValueError, match="hard_threshold must be finite"):
            pl.run_ablations(tiny_pool(), tiny_specs(), tiny_config(), ("hard_threshold",),
                             hard_threshold=tau)


    def test_tau_without_hard_threshold_variant(self, no_training):
        with pytest.raises(ValueError, match="--tau"):
            pl.run_ablations(tiny_pool(), tiny_specs(), tiny_config(), ("full", "no_reweight"),
                             hard_threshold=0.1)

    def test_tail_too_small_before_the_first_step(self, monkeypatch):
        def step(*args):
            raise AssertionError("a training step ran")
        monkeypatch.setattr(obj, "total_step_gradients", step)
        with pytest.raises(dt.DataError, match=r"the 80 source rows .* got 4 "):
            pl.train(tiny_pool(), tiny_specs(), tiny_config(tail_block=20))


class TestTrain:
    def test_returns_log_per_epoch(self):
        res = pl.train(tiny_pool(), tiny_specs(), tiny_config(epochs=3))
        assert len(res.log) == 3
        assert [r["epoch"] for r in res.log] == [1, 2, 3]
        for key in ("L_d", "L_e", "L_c", "total", "mean_weight", "max_weight",
                    "mean_known_entropy", "mean_unknown_entropy"):
            assert key in res.log[0]

    def test_gev_fitted(self):
        res = pl.train(tiny_pool(), tiny_specs(), tiny_config())
        assert isinstance(res.gev, evt.GevParams)
        assert res.gev.s > 0

    def test_deterministic(self):
        a = pl.train(tiny_pool(), tiny_specs(), tiny_config())
        b = pl.train(tiny_pool(), tiny_specs(), tiny_config())
        for ta, tb in zip(a.params.theta_g, b.params.theta_g):
            np.testing.assert_array_equal(ta, tb)
        assert a.gev == b.gev
        assert a.log == b.log

    def test_seed_changes_result(self):
        a = pl.train(tiny_pool(), tiny_specs(), tiny_config(seed=0))
        b = pl.train(tiny_pool(), tiny_specs(), tiny_config(seed=1))
        assert any((ta != tb).any() for ta, tb in zip(a.params.theta_g, b.params.theta_g))

    def test_zero_lr_freezes_params(self):
        pool = tiny_pool()
        specs = tiny_specs()
        res = pl.train(pool, specs, tiny_config(learning_rate=0.0))
        init_seed = np.random.SeedSequence(0).spawn(3)[0].generate_state(1)[0]
        init = md.init_params(*specs, int(init_seed))
        for ta, tb in zip(res.params.theta_g, init.theta_g):
            np.testing.assert_array_equal(ta, tb)

    def test_classification_loss_decreases(self):
        res = pl.train(tiny_pool(), tiny_specs(),
                       tiny_config(epochs=10, learning_rate=3e-3))
        assert res.log[-1]["L_c"] < res.log[0]["L_c"]


@pytest.fixture(scope="module")
def trained():
    pool = tiny_pool()
    res = pl.train(pool, tiny_specs(), tiny_config(epochs=5))
    return pool, res


class TestInfer:
    def test_batch_predictions_valid(self, trained):
        pool, res = trained
        preds = pl.infer_batch(res.params, res.gev, pool.target_x)
        assert preds.shape == (len(pool.target_x),)
        assert set(preds.tolist()) <= {-1, 0, 1, 2, 3}

    def test_single_matches_batch(self, trained):
        pool, res = trained
        batch = pl.infer_batch(res.params, res.gev, pool.target_x[:5])
        singles = [pl.infer_batch(res.params, res.gev, pool.target_x[i])[0] for i in range(5)]
        np.testing.assert_array_equal(batch, singles)

    def test_blocks_match_one_pass(self, trained):
        pool, res = trained
        rng = np.random.default_rng(0)
        x = pool.target_x[rng.integers(0, len(pool.target_x), 2 * pl.INFER_BLOCK_ROWS + 5)]
        x += 0.1 * rng.standard_normal(x.shape)
        probs = md.forward_classifier(res.params, md.forward_features(res.params, x))
        one = pl.predict(probs, obj.entropy(probs), evt.rejection_threshold(res.gev))
        preds = pl.infer_batch(res.params, res.gev, x)
        assert preds.dtype == one.dtype and preds.tobytes() == one.tobytes()
        assert (preds == -1).any() and (preds >= 0).any()

    def test_zero_rows(self, trained):
        _, res = trained
        preds = pl.infer_batch(res.params, res.gev, np.empty((0, 2)))
        assert preds.shape == (0,) and preds.dtype == np.int64

    def test_rejection_consistent_with_cdf(self, trained):
        pool, res = trained
        probs = md.forward_classifier(res.params,
                                      md.forward_features(res.params, pool.target_x))
        h = obj.entropy(probs)
        preds = pl.infer_batch(res.params, res.gev, pool.target_x)
        rejected = np.asarray(evt.gev_cdf(h, res.gev)) > 0.5
        np.testing.assert_array_equal(preds == -1, rejected)


@pytest.fixture
def workers(monkeypatch):
    """Sets the worker count to n through the rule's own inputs: one BLAS
    thread on n usable CPUs."""
    def set_workers(n):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(pl.os, "sched_getaffinity", lambda pid: set(range(n)))
        assert pl._infer_workers(3) == n
    return set_workers


def overflowing_params():
    """Untrained tiny-spec parameters whose one-layer extractor overflows on a
    row with |x1 + x2| > 1.8 and on no row closer to the origin."""
    params = md.init_params(*tiny_specs(), 0)
    params.theta_g[0][...] = 1e308
    return params


class TestParallelInfer:
    @pytest.fixture(scope="class")
    def uneven(self, trained):
        """Three blocks of 4,507, 4,507 and 4,506 rows."""
        pool, res = trained
        rng = np.random.default_rng(1)
        x = pool.target_x[rng.integers(0, len(pool.target_x), 3 * pl.INFER_BLOCK_ROWS + 1232)]
        return x + 0.1 * rng.standard_normal(x.shape), res

    def test_worker_counts_agree_bit_for_bit(self, uneven, workers):
        x, res = uneven
        got = {}
        for n in (1, 2, 3):
            workers(n)
            got[n] = pl.infer_batch(res.params, res.gev, x)
        assert got[1].dtype == np.int64 and len(got[1]) == len(x)
        assert got[2].tobytes() == got[1].tobytes() and got[3].tobytes() == got[1].tobytes()
        assert (got[1] == -1).any() and (got[1] >= 0).any()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_overflow_in_a_later_block_raises(self, workers, n):
        workers(n)
        x = np.full((3 * pl.INFER_BLOCK_ROWS, 2), 0.1)
        x[-1] = 1.0
        with pytest.raises(ad.NonFiniteError, match=r"^forward produced non-finite values$"):
            pl.infer_batch(overflowing_params(), evt.GevParams(0.5, 0.1, 0.0), x)

    def test_eval_overflow_in_a_later_block_exits_4(self, tmp_path, workers, capsys):
        from adagev import cli
        workers(2)
        sx, sy, tx, ty = dt.gen_shifted_blobs(dt.BlobShiftConfig(source_per_class=30,
                                                                 target_per_class=2000))
        tx = 1e-3 * tx
        tx[-1] = 1.0
        dt.save_blobs(tmp_path / "blobs.csv", sx, sy, tx, ty)
        assert len(dt.apply_roles(sx, sy, tx, ty, dt.digits_split()).target_x) == 14000
        md.save_checkpoint(overflowing_params(), tmp_path / "ckpt.bin",
                           gev=evt.GevParams(0.5, 0.1, 0.0))
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "ckpt.bin"),
                       "--data", str(tmp_path / "blobs.csv"), "--out", str(tmp_path / "r.json")])
        assert rc == 4
        assert capsys.readouterr().err == "numerical failure: forward produced non-finite values\n"

    def test_evaluate_leaves_no_thread_running(self, trained, workers):
        pool, res = trained
        workers(2)
        big = replace(pool, target_x=np.repeat(pool.target_x, 300, axis=0),
                      _target_roles=np.repeat(pool.eval_target_roles(), 300))
        assert len(big.target_x) >= 2 * pl.INFER_BLOCK_ROWS
        before = threading.enumerate()
        pl.evaluate(res.params, res.gev, big)
        after = threading.enumerate()
        assert threading.active_count() == len(before) and set(after) == set(before)

    @pytest.mark.parametrize("n", [2, 3])
    def test_caller_runs_blocks_beside_a_pool_of_one_thread_fewer(self, uneven, workers,
                                                                  pools_opened, monkeypatch, n):
        x, res = uneven
        workers(1)
        serial = pl._forward_blocks(res.params, x, lambda _, probs: probs)
        ran, forward_features = [], md.forward_features
        all_in = threading.Barrier(n, timeout=30)

        def recorded(params, block):
            ran.append(threading.get_ident())
            if len(ran) <= n:  # the first n blocks run on n threads at once
                all_in.wait()
            return forward_features(params, block)
        monkeypatch.setattr(md, "forward_features", recorded)
        workers(n)
        got = pl._forward_blocks(res.params, x, lambda _, probs: probs)
        assert pools_opened == [(n - 1,)]
        assert len(ran) == 3 and len(set(ran)) == n and threading.get_ident() in ran
        assert got.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("caller_first", [True, False], ids=["caller-first", "pool-first"])
    @pytest.mark.parametrize("nan_block", [0, 1])
    def test_first_failing_block_raises_on_either_thread(self, workers, monkeypatch,
                                                         caller_first, nan_block):
        """Two blocks fail with different errors, one on the calling thread
        and one on the pool's; the earlier block's error is raised."""
        import concurrent.futures

        workers(2)
        x = np.full((2 * pl.INFER_BLOCK_ROWS, 2), 0.1)
        x[nan_block * pl.INFER_BLOCK_ROWS + 5] = np.nan
        x[(1 - nan_block) * pl.INFER_BLOCK_ROWS + 9] = 1.0
        # the first block started sets it; both blocks start before either runs
        started, both = threading.Event(), threading.Barrier(2, timeout=30)
        ran, forward_features = {}, md.forward_features

        def gated(params, block):
            ran[threading.get_ident()] = np.isnan(block).any()
            started.set()
            both.wait()
            return forward_features(params, block)
        monkeypatch.setattr(md, "forward_features", gated)

        class Ordered(concurrent.futures.ThreadPoolExecutor):
            """Lets the calling thread or the pool take block 0."""
            def submit(self, fn, /, *args, **kwargs):
                if caller_first:
                    return super().submit(lambda: started.wait(30) and fn(*args, **kwargs))
                future = super().submit(fn, *args, **kwargs)
                started.wait(30)
                return future
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Ordered)
        before = threading.enumerate()
        with pytest.raises(ad.NonFiniteError) as got:
            pl.infer_batch(overflowing_params(), evt.GevParams(0.5, 0.1, 0.0), x)
        after = threading.enumerate()
        assert str(got.value) == ("forward input has non-finite values" if nan_block == 0
                                  else "forward produced non-finite values")
        caller = threading.get_ident()
        assert len(ran) == 2 and caller in ran
        assert ran[caller] == (caller_first == (nan_block == 0))
        assert threading.active_count() == len(before) and set(after) == set(before)


WIDE_MADDS = 784 * 512 + 512 * 256 + 256 * 4  # a row of the 784-wide nets below


@pytest.fixture(scope="module")
def wide():
    """Untrained 784 -> 512,256 nets and 1,600 rows, three blocks of 533 to
    534 rows, with a threshold midway in the widest gap between the middle
    entropies of a one-pass forward, so rounding cannot flip a prediction."""
    params = md.init_params(*md.default_specs(784, 4, (512, 256)), 0)
    x = np.random.default_rng(2).uniform(size=(1600, 784))
    probs = md.forward_classifier(params, md.forward_features(params, x))
    h = np.sort(obj.entropy(probs))[400:1200]
    gap = np.argmax(np.diff(h))
    return params, x, probs, 0.5 * (h[gap] + h[gap + 1])


def wide_probs(params, x):
    """The classifier's probabilities, computed in the inference blocks."""
    return pl._forward_blocks(params, x, lambda _, probs: probs)


class TestBlockLayout:
    def test_wide_blocks_are_sized_by_multiply_adds(self, wide):
        params = wide[0]
        assert params.spec_g.madds + params.spec_c.madds == WIDE_MADDS
        assert [len(b) for b in pl._row_blocks(np.empty((1400, 1)), WIDE_MADDS)] == [700, 700]
        assert [len(b) for b in pl._row_blocks(wide[1], WIDE_MADDS)] == [534, 533, 533]

    @pytest.mark.parametrize("specs", [tiny_specs(), md.default_specs(2, 4, (128, 64))],
                             ids=["tiny", "pinned"])
    def test_narrow_specs_keep_full_row_blocks(self, specs):
        madds = specs[0].madds + specs[1].madds
        x = np.empty((3 * pl.INFER_BLOCK_ROWS + 1232, 1))
        assert [len(b) for b in pl._row_blocks(x, madds)] == [4507, 4507, 4506]
        assert len(pl._row_blocks(x[:2 * pl.INFER_BLOCK_ROWS - 1], madds)) == 1

    @given(rows=st.integers(0, 20000), madds=st.integers(1, 10 ** 12))
    @settings(max_examples=300, deadline=None)
    def test_layout(self, rows, madds):
        """In order, without a row lost; no block under the floor or a short
        tail; whole INFER_BLOCK_ROWS blocks up to 2^16 multiply-adds a row."""
        x = np.arange(rows).reshape(rows, 1)
        sizes = [len(b) for b in pl._row_blocks(x, madds)]
        assert np.concatenate(pl._row_blocks(x, madds)).tobytes() == x.tobytes()
        assert max(sizes) - min(sizes) <= 1 and max(sizes) < 2 * pl.INFER_BLOCK_ROWS
        if rows >= pl.INFER_MIN_BLOCK_ROWS:
            assert min(sizes) >= pl.INFER_MIN_BLOCK_ROWS
        if madds <= 2 ** 16:
            assert len(sizes) == 1 or min(sizes) >= pl.INFER_BLOCK_ROWS
        assert len(pl._row_blocks(x, 2 * madds)) >= len(sizes)

    def test_worker_counts_agree_bit_for_bit(self, wide, workers):
        params, x, _, tau = wide
        got = {}
        for n in (1, 2, 3):
            workers(n)
            got[n] = wide_probs(params, x).tobytes(), pl._predict_blocks(params, x, tau).tobytes()
        assert got[2] == got[1] and got[3] == got[1]

    def test_blocks_predict_as_one_pass(self, wide):
        params, x, probs, tau = wide
        one = pl.predict(probs, obj.entropy(probs), tau)
        preds = pl._predict_blocks(params, x, tau)
        assert preds.tobytes() == one.tobytes()
        assert (preds == -1).sum() >= 400 and (preds >= 0).sum() >= 400
        np.testing.assert_allclose(wide_probs(params, x), probs, rtol=1e-12, atol=1e-15)


def lane_pool():
    """The tiny pool's sizes with 64 features."""
    cfg = dt.BlobShiftConfig(dim=64, source_per_class=20, target_per_class=15)
    return dt.apply_roles(*dt.gen_shifted_blobs(cfg), dt.digits_split())


def lane_specs():
    """An extractor whose pass at batch 64 is above the lane rule."""
    return md.default_specs(64, 4, (256, 256))


LANE_BATCH = 64


def unknown_overflow_pool():
    """The lane pool with one source-unknown row that overflows the lane
    specs' extractor; no other batch can draw it."""
    pool = lane_pool()
    pool.source_unknown_x[7] = 1.7e308
    return pool


@pytest.fixture
def pools_opened(monkeypatch):
    """Counts the thread pools that ``concurrent.futures`` opens."""
    import concurrent.futures
    opened = []
    real = concurrent.futures.ThreadPoolExecutor

    def counted(*args, **kwargs):
        opened.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted)
    return opened


class TestTrainingLanes:
    def test_lane_specs_are_above_the_rule(self):
        assert LANE_BATCH * lane_specs()[0].madds >= pl.LANE_MIN_MADDS

    # ids as when the same-batch normalizer and SGD-momentum were cases here
    @pytest.mark.parametrize("optimizer", ["adam"], ids=lambda o: f"{o}-same_batch")
    def test_worker_counts_agree_bit_for_bit(self, tmp_path, workers, pools_opened, optimizer):
        cfg = tiny_config(epochs=3, batch_size=LANE_BATCH, optimizer=optimizer)
        out = {}
        for n in (1, 2):
            workers(n)
            res = pl.train(lane_pool(), lane_specs(), cfg)
            md.save_checkpoint(res.params, tmp_path / f"{n}.bin", gev=res.gev)
            out[n] = (tmp_path / f"{n}.bin").read_bytes(), json.dumps(res.log)
            assert len(pools_opened) == n - 1
        assert out[2] == out[1]

    def test_pinned_specs_never_open_a_pool(self, monkeypatch, workers):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was opened")
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        workers(2)
        pinned = (md.MlpSpec((2, 128, 64), activation="tanh"), md.MlpSpec((64, 4), head="softmax"),
                  md.MlpSpec((64, 64, 1), activation="tanh", head="sigmoid"))
        res = pl.train(tiny_pool(), pinned, tiny_config(epochs=1, batch_size=128))
        assert len(res.log) == 1

    def test_unpinned_blas_trains_inline(self, monkeypatch, pools_opened):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(pl.os, "sched_getaffinity", lambda pid: {0, 1})
        pl.train(lane_pool(), lane_specs(), tiny_config(epochs=1, batch_size=LANE_BATCH))
        assert pools_opened == []

    def test_overflow_in_the_unknown_batch_names_epoch_and_iteration(self, workers, pools_opened):
        got = {}
        for n in (1, 2):
            workers(n)
            with pytest.raises(ad.NonFiniteError) as got[n]:
                pl.train(unknown_overflow_pool(), lane_specs(), tiny_config(batch_size=LANE_BATCH))
        assert len(pools_opened) == 1
        assert re.fullmatch(r"training diverged at epoch \d+, iteration \d+: "
                            r"op 'linear' produced non-finite values", str(got[1].value))
        assert str(got[2].value) == str(got[1].value)

    def test_train_unknown_overflow_exits_4(self, tmp_path, workers, pools_opened, capsys):
        from adagev import cli
        workers(2)
        sx, sy, tx, ty = dt.gen_shifted_blobs(dt.BlobShiftConfig(dim=64, source_per_class=20,
                                                                 target_per_class=15))
        sx[np.flatnonzero(sy == dt.digits_split().source_unknown[0])[3]] = 1.7e308
        dt.save_blobs(tmp_path / "blobs.csv", sx, sy, tx, ty)
        rc = cli.main(["train", "--data", str(tmp_path / "blobs.csv"), "--out",
                       str(tmp_path / "run"), "--hidden", "256,256", "--batch", str(LANE_BATCH),
                       "--epochs", "5", "--tail", "block:2"])
        assert rc == 4 and len(pools_opened) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical failure: training diverged at epoch \d+, iteration "
                            r"\d+: op 'linear' produced non-finite values\n", err)

    @pytest.mark.parametrize("pool", [lane_pool, unknown_overflow_pool])
    def test_train_leaves_no_thread_running(self, workers, pools_opened, pool):
        workers(2)
        before = threading.enumerate()
        try:
            pl.train(pool(), lane_specs(), tiny_config(batch_size=LANE_BATCH))
        except ad.NonFiniteError:
            assert pool is unknown_overflow_pool
        after = threading.enumerate()
        assert len(pools_opened) == 1
        assert threading.active_count() == len(before) and set(after) == set(before)


@pytest.fixture(scope="module")
def lane_executor():
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1) as executor:
        yield executor


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 200), hidden=st.lists(st.integers(16, 512), min_size=1, max_size=2),
       b=st.integers(1, 160), activation=st.sampled_from(["relu", "tanh"]),
       weight_mode=st.sampled_from(obj.WEIGHT_MODES), seed=st.integers(0, 2**32 - 1))
def test_two_lane_step_equals_inline_bit_for_bit(lane_executor, d, hidden, b, activation,
                                                 weight_mode, seed):
    rng = np.random.default_rng(seed)
    specs = (md.MlpSpec((d, *hidden), activation), md.MlpSpec((hidden[-1], 5), head="softmax"),
             md.MlpSpec((hidden[-1], 32, 1), activation, head="sigmoid"))
    params = md.init_params(*specs, seed)

    def rows():
        return rng.standard_normal((b, d))
    batch = dt.DomainBatch(source_x=rows(), source_y=rng.integers(0, 5, b), unknown_x=rows(),
                           target_x=rows())
    lw = obj.LossWeights(0.3, 1.7, 0.45)
    inline = obj.total_step_gradients(batch, params, lw, weight_mode)
    for _ in range(2):  # the second step reuses the worker that ran the first
        two_lane = obj.total_step_gradients(batch, params, lw, weight_mode, lane_executor)
        assert two_lane.grad.tobytes() == inline.grad.tobytes()
        assert ([two_lane.loss_d, two_lane.loss_e, two_lane.loss_c, two_lane.total]
                == [inline.loss_d, inline.loss_e, inline.loss_c, inline.total])
        assert two_lane.weights.tobytes() == inline.weights.tobytes()


def test_two_lane_steps_agree_under_thread_pressure():
    """Three trainings' worth of two-lane steps at once, six threads on a few
    cores, switching as often as the interpreter allows: a lane that wrote
    into another step's buffers, or a sum read before its lane finished,
    would change the bits."""
    from concurrent.futures import ThreadPoolExecutor

    specs = lane_specs()
    params = md.init_params(*specs, 3)
    pool, rng = lane_pool(), np.random.default_rng(3)
    # a new batch each step, so a buffer read too early holds other bits
    batches = [dt.sample_batch_triple(pool, LANE_BATCH, rng) for _ in range(15)]
    lw, mode = obj.LossWeights(), "neg_entropy"
    expected = [obj.total_step_gradients(b, params, lw, mode).grad.tobytes() for b in batches]
    got = {}

    def steps(k):
        with ThreadPoolExecutor(1) as executor:
            got[k] = [obj.total_step_gradients(b, params, lw, mode, executor).grad.tobytes()
                      for b in batches]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=steps, args=(k,)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {k: expected for k in range(3)}


@pytest.mark.parametrize("env,cpus,blocks,expected", [
    ({}, 2, 34, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 34, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 34, 4),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 1, 1),
    ({"OMP_NUM_THREADS": "1"}, 4, 34, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 34, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, 34, 2),
    ({"OPENBLAS_NUM_THREADS": "abc"}, 2, 34, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, 34, 1),
])
def test_infer_workers_rule(monkeypatch, env, cpus, blocks, expected):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(pl.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert pl._infer_workers(blocks) == expected


shape = st.one_of(st.floats(-0.9, -1e-3), st.floats(1e-3, 0.9),
                  st.floats(-9.9e-7, 9.9e-7))


@given(l=st.floats(0.0, np.log(5)), s=st.floats(1e-3, 0.5), c=shape,
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_predict_matches_cdf_rule(l, s, c, seed):
    """Entropy above tau rejects exactly the rows whose GEV CDF exceeds 0.5."""
    gev = evt.GevParams(l, s, c)
    tau = evt.rejection_threshold(gev)
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.full(5, rng.uniform(0.05, 5.0)), size=200)
    h = obj.entropy(probs)
    preds = pl.predict(probs, h, tau)
    clear = np.abs(h - tau) > 1e-9 * max(1.0, abs(tau))
    cdf_rule = np.asarray(evt.gev_cdf(h, gev)) > 0.5
    np.testing.assert_array_equal((preds == -1)[clear], cdf_rule[clear])
    kept = preds != -1
    np.testing.assert_array_equal(preds[kept], probs.argmax(axis=1)[kept])


class TestPredict:
    def test_hand_case(self):
        probs = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
        np.testing.assert_array_equal(pl.predict(probs, obj.entropy(probs), 0.6), [0, -1, 1])

    def test_argmax_tie_breaks_low(self):
        probs = np.array([[0.4, 0.4, 0.2]])
        assert pl.predict(probs, obj.entropy(probs), 10.0)[0] == 0

    def test_threshold_strict(self):
        probs = np.array([[0.5, 0.5]])
        assert pl.predict(probs, obj.entropy(probs), np.log(2))[0] == 0

    def test_entropy_at_tau_is_kept(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.05, 0.05, 0.9]])
        h = obj.entropy(probs)
        np.testing.assert_array_equal(pl.predict(probs, h, h[0]), [0, 2])
        np.testing.assert_array_equal(pl.predict(probs, h, h[0] - 1e-9), [-1, 2])

    def test_score_is_not_the_entropy(self):
        # a binary head's p(unknown) against 0.5: confident rows can be rejected
        probs = np.array([[0.99, 0.01], [0.5, 0.5], [0.2, 0.8]])
        p_unknown = np.array([0.9, 0.1, 0.5])
        np.testing.assert_array_equal(pl.predict(probs, p_unknown, 0.5), [-1, 0, 1])


def brute_force_metrics(true_roles, preds, k):
    """Independent O(N*K) oracle for the macro-recall metrics."""
    recalls = {}
    classes = list(range(k)) + [-1]
    for c in classes:
        mask = true_roles == c
        if mask.sum() == 0:
            continue
        recalls[c] = (preds[mask] == c).sum() / mask.sum()
    os_all = np.mean(list(recalls.values()))
    known = [recalls[c] for c in range(k) if c in recalls]
    os_star = np.mean(known) if known else float("nan")
    unk = recalls.get(-1)
    return os_all, os_star, unk


class TestComputeReport:
    def test_hand_case(self):
        true = np.array([0, 0, 1, -1, -1])
        pred = np.array([0, 1, 1, -1, 0])
        rep = pl.compute_report(true, pred, num_known=2)
        np.testing.assert_array_equal(rep.confusion, [[1, 1, 0], [0, 1, 0], [1, 0, 1]])
        assert rep.recalls == [0.5, 1.0, 0.5]
        np.testing.assert_allclose(rep.os_score, 2 / 3)
        np.testing.assert_allclose(rep.os_star, 0.75)
        np.testing.assert_allclose(rep.unk_recall, 0.5)

    def test_all_correct(self):
        true = np.array([0, 1, 2, -1])
        rep = pl.compute_report(true, true, num_known=3)
        assert rep.os_score == rep.os_star == rep.unk_recall == 1.0
        assert rep.excluded_classes == []

    def test_absent_class_excluded(self):
        true = np.array([0, 0, -1])
        pred = np.array([0, 0, -1])
        rep = pl.compute_report(true, pred, num_known=2)
        assert rep.excluded_classes == [1]
        assert rep.recalls[1] is None
        np.testing.assert_allclose(rep.os_score, 1.0)

    def test_no_unknowns_present(self):
        true = np.array([0, 1])
        rep = pl.compute_report(true, true, num_known=2)
        assert rep.unk_recall is None
        assert 2 in rep.excluded_classes

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 60))
            classes = np.array(list(range(k)) + [-1])
            true = classes[rng.integers(0, k + 1, n)]
            pred = classes[rng.integers(0, k + 1, n)]
            rep = pl.compute_report(true, pred, k)
            os_all, os_star, unk = brute_force_metrics(true, pred, k)
            np.testing.assert_allclose(rep.os_score, os_all)
            if not np.isnan(os_star):
                np.testing.assert_allclose(rep.os_star, os_star)
            if unk is not None:
                np.testing.assert_allclose(rep.unk_recall, unk)

    def test_confusion_total(self):
        rng = np.random.default_rng(1)
        true = rng.integers(-1, 3, 50)
        pred = rng.integers(-1, 3, 50)
        rep = pl.compute_report(true, pred, 3)
        assert rep.sample_count == 50


def loop_confusion(true, pred, k):
    """The confusion matrix one row at a time: the reference for compute_report."""
    confusion = np.zeros((k + 1, k + 1), dtype=np.int64)
    for t, p in zip(true, pred):
        confusion[k if t == pl.UNKNOWN else t, k if p == pl.UNKNOWN else p] += 1
    return confusion


@st.composite
def roles_and_predictions(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(0, 80))
    # a subset of the K+1 labels, so some classes are absent; [-1] is all-UNKNOWN
    labels = draw(st.lists(st.integers(-1, k - 1), min_size=1, unique=True))
    column = st.lists(st.sampled_from(labels), min_size=n, max_size=n)
    return k, np.array(draw(column), dtype=np.int64), np.array(draw(column), dtype=np.int64)


@given(roles_and_predictions())
@example((3, np.full(5, -1), np.full(5, -1)))  # all UNKNOWN
@settings(max_examples=200, deadline=None)
def test_confusion_matches_row_loop(case):
    k, true, pred = case
    rep = pl.compute_report(true, pred, k)
    np.testing.assert_array_equal(rep.confusion, loop_confusion(true, pred, k))
    assert rep.confusion.dtype == np.int64 and rep.sample_count == len(true)


@pytest.mark.parametrize("true,pred", [([0, 3], [0, 0]), ([0, -2], [0, 0]),
                                       ([0, 1], [0, 3]), ([0, 1], [0])])
def test_compute_report_rejects_out_of_range(true, pred):
    with pytest.raises(ValueError):
        pl.compute_report(np.array(true), np.array(pred), 3)


@pytest.fixture(scope="module")
def pool():
    return tiny_pool()


def reference_ablation(pool, specs, tc, variant, hard_threshold=None):
    """One variant as the single-variant ablation computed it: a training run
    of its own and the rejection rule written out; the reference for
    run_ablations."""
    if variant == "no_reweight":
        tc = replace(tc, weight_mode="uniform")
    result = pl.train(pool, specs, tc)
    params = result.params
    k = params.num_classes

    if variant == "no_evt_binary":
        feats_known = md.forward_features(params, pool.source_known_x)
        feats_unknown = md.forward_features(params, pool.source_unknown_x)
        feats = np.concatenate([feats_known, feats_unknown])
        labels = np.concatenate([np.zeros(len(feats_known)), np.ones(len(feats_unknown))])
        spec, theta = pl._train_binary_head(feats, labels, seed=tc.seed)
        tgt_feats = md.forward_features(params, pool.target_x)
        p_unknown = md.mlp_forward(spec, theta, tgt_feats)[:, 0]
        probs = md.forward_classifier(params, tgt_feats)
        preds = np.where(p_unknown > 0.5, pl.UNKNOWN, probs.argmax(axis=1))
    else:
        tau = evt.rejection_threshold(result.gev)
        if variant == "hard_threshold":
            tau = hard_threshold if hard_threshold is not None else 0.5 * np.log(k)
        # the tiny pool is one inference block
        probs = md.forward_classifier(params, md.forward_features(params, pool.target_x))
        preds = np.where(obj.entropy(probs) > tau, pl.UNKNOWN, probs.argmax(axis=1))
    return pl.compute_report(pool.eval_target_roles(), preds, k), result


@pytest.fixture
def train_calls(monkeypatch):
    """The TrainConfig of every training run started while the test runs."""
    calls, train = [], pl.train

    def counted(pool, specs, tc):
        calls.append(tc)
        return train(pool, specs, tc)
    monkeypatch.setattr(pl, "train", counted)
    return calls


class TestAblations:
    def test_all_variants_run(self, pool):
        out = pl.run_ablations(pool, tiny_specs(), tiny_config(), pl.ABLATION_VARIANTS)
        assert list(out) == list(pl.ABLATION_VARIANTS)
        for rep, _ in out.values():
            assert 0.0 <= rep.os_score <= 1.0

    def test_no_reweight_uses_uniform(self, pool):
        _, res = pl.run_ablations(pool, tiny_specs(), tiny_config(), ("no_reweight",))["no_reweight"]
        b = 16
        np.testing.assert_allclose(
            [r["max_weight"] for r in res.log], 1.0 / b, atol=1e-12)

    def test_hard_threshold_custom_tau(self, pool):
        # tau = 0 rejects everything; ln(4) accepts everything
        rep_lo, _ = pl.run_ablations(pool, tiny_specs(), tiny_config(), ("hard_threshold",),
                                     hard_threshold=0.0)["hard_threshold"]
        rep_hi, _ = pl.run_ablations(pool, tiny_specs(), tiny_config(), ("hard_threshold",),
                                     hard_threshold=np.log(4) + 1.0)["hard_threshold"]
        assert rep_lo.unk_recall == 1.0
        assert rep_hi.unk_recall == 0.0

    def test_trains_once_per_weighting(self, pool, train_calls):
        out = pl.run_ablations(pool, tiny_specs(), tiny_config(), pl.ABLATION_VARIANTS)
        assert [tc.weight_mode for tc in train_calls] == ["neg_entropy", "uniform"]
        assert out["full"][1] is out["no_evt_binary"][1] is out["hard_threshold"][1]
        assert out["no_reweight"][1] is not out["full"][1]

    def test_uniform_base_trains_once(self, pool, train_calls):
        tc = tiny_config(weight_mode="uniform")
        out = pl.run_ablations(pool, tiny_specs(), tc, pl.ABLATION_VARIANTS)
        assert train_calls == [tc]
        assert len({id(res) for _, res in out.values()}) == 1

    @pytest.mark.parametrize("hard_threshold", [None, 1.0])
    def test_matches_one_training_per_variant(self, pool, hard_threshold):
        specs, tc = tiny_specs(), tiny_config(seed=3)
        out = pl.run_ablations(pool, specs, tc, pl.ABLATION_VARIANTS, hard_threshold)
        for variant in pl.ABLATION_VARIANTS:
            want, want_res = reference_ablation(pool, specs, tc, variant, hard_threshold)
            got, got_res = out[variant]
            assert got.to_dict() == want.to_dict(), variant
            assert (got_res.gev, got_res.log) == (want_res.gev, want_res.log)

    def test_every_pool_pass_goes_through_the_block_rule(self, pool, monkeypatch):
        calls, row_blocks = [], pl._row_blocks

        def recorded(x, madds):
            calls.append((len(x), madds))
            return row_blocks(x, madds)
        monkeypatch.setattr(pl, "_row_blocks", recorded)
        specs = tiny_specs()
        pl.run_ablations(pool, specs, tiny_config(), pl.ABLATION_VARIANTS)
        known, unknown, target = (len(x) for x in (pool.source_known_x, pool.source_unknown_x,
                                                   pool.target_x))
        # each training logs its source pools once per epoch; the binary head
        # reads the source features, and every variant passes the target once
        training = [known, unknown] * tiny_config().epochs
        want = [*training, target, *training, target, known, unknown, target, target]
        madds = specs[0].madds + specs[1].madds
        assert calls == [(n, madds) for n in want]

    def test_gev_is_fitted_to_the_last_epoch_entropies(self, pool, monkeypatch):
        fitted, fit_rejector = [], pl.fit_rejector

        def captured(entropies, block_size, seed=0):
            fitted.append(entropies)
            return fit_rejector(entropies, block_size, seed)
        monkeypatch.setattr(pl, "fit_rejector", captured)
        res = pl.train(pool, tiny_specs(), tiny_config())
        # the tiny pools are one block each, so one pass gives the same bits
        h_known, h_unknown = (obj.entropy(md.forward_classifier(
            res.params, md.forward_features(res.params, x)))
            for x in (pool.source_known_x, pool.source_unknown_x))
        assert (res.log[-1]["mean_known_entropy"], res.log[-1]["mean_unknown_entropy"]) == (
            float(h_known.mean()), float(h_unknown.mean()))
        assert len(fitted) == 1 and fitted[0].tobytes() == h_known.tobytes()

    def test_worker_counts_agree_on_multi_block_source_pools(self, pool, monkeypatch, workers,
                                                              pools_opened, tmp_path):
        monkeypatch.setattr(pl, "INFER_BLOCK_ROWS", 16)
        monkeypatch.setattr(pl, "INFER_MIN_BLOCK_ROWS", 16)
        madds = sum(s.madds for s in tiny_specs()[:2])
        # the GEV is fitted to the source-known entropies, so its input spans blocks too
        assert [len(pl._row_blocks(x, madds))
                for x in (pool.source_known_x, pool.source_unknown_x)] == [5, 3]
        got = {}
        for n in (1, 2, 3):
            workers(n)
            out = pl.run_ablations(pool, tiny_specs(), tiny_config(), pl.ABLATION_VARIANTS)
            got[n] = []
            for variant, (report, res) in out.items():
                path = tmp_path / f"{n}-{variant}.bin"
                md.save_checkpoint(res.params, path, gev=res.gev)
                got[n].append((path.read_bytes(), res.gev, json.dumps(res.log),
                               json.dumps(report.to_dict())))
            assert len(pools_opened) == 14 * (n - 1)  # each of the 14 pool passes is 3+ blocks
        assert got[2] == got[1] and got[3] == got[1]


class TestBinaryHead:
    def test_separates_separable_data(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((60, 3)) + 4.0
        b = rng.standard_normal((60, 3)) - 4.0
        feats = np.vstack([a, b])
        labels = np.concatenate([np.ones(60), np.zeros(60)])
        spec, theta = pl._train_binary_head(feats, labels, seed=0)
        p = md.mlp_forward(spec, theta, feats)[:, 0]
        assert ((p > 0.5) == labels.astype(bool)).mean() > 0.95


def train_binary_head_graph(features, labels, seed, steps=300, lr=1e-2):
    """The binary head trained on the autodiff graph, with the BCE loss as
    graph nodes: the bit-for-bit reference of ``_train_binary_head``."""
    spec = md.MlpSpec((features.shape[1], 16, 1), activation="relu", head="sigmoid")
    flat, (theta,) = md.init_vector((spec,), np.random.default_rng(seed))
    optimizer = pl._Adam(lr)
    sign = 2.0 * labels.astype(np.float64)[:, None] - 1.0
    for _ in range(steps):
        nodes = param_nodes(theta)
        z = mlp_graph(spec, nodes, features)
        # BCE: -mean(y log sigmoid(z) + (1-y) log sigmoid(-z)) = -mean(log sigmoid(sign*z))
        loss = ad.scale(ad.reduce_mean(log_sigmoid(ad.mul(z, sign))), -1.0)
        ad.backward(loss)
        optimizer.step(flat, np.concatenate([n.grad.ravel() for n in nodes]))
    return spec, theta


@pytest.mark.parametrize("offset", [4.0, 0.5])
def test_binary_head_equals_graph_bit_for_bit(offset):
    # far apart, the head saturates; close, it keeps misclassifying
    rng = np.random.default_rng(1)
    feats = np.vstack([rng.standard_normal((50, 6)) + offset,
                       rng.standard_normal((40, 6)) - offset])
    labels = np.concatenate([np.ones(50), np.zeros(40)])
    _, theta = pl._train_binary_head(feats, labels, seed=3)
    _, ref = train_binary_head_graph(feats, labels, seed=3)
    assert [t.tobytes() for t in theta] == [t.tobytes() for t in ref]


def test_adam_step_equals_out_of_place_expressions_bit_for_bit():
    rng = np.random.default_rng(0)
    params = rng.standard_normal(19)
    ref = params.copy()
    m, v = np.zeros(19), np.zeros(19)
    adam = pl._Adam(1e-2)
    b1, b2, eps = adam.beta1, adam.beta2, adam.eps
    for t in range(1, 6):
        g = rng.standard_normal(19)
        adam.step(params, g)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        ref = ref - 1e-2 * m_hat / (np.sqrt(v_hat) + eps)
        assert params.tobytes() == ref.tobytes()


def test_blocked_adam_step_equals_out_of_place_expressions_bit_for_bit():
    n = pl.ADAM_BLOCK * 7 // 2  # three whole blocks and a half block
    rng = np.random.default_rng(1)
    params = rng.standard_normal(n)
    ref = params.copy()
    m, v = np.zeros(n), np.zeros(n)
    adam = pl._Adam(1e-2)
    b1, b2, eps = adam.beta1, adam.beta2, adam.eps
    for t in range(1, 6):
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        adam.step(params, g)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        ref = ref - 1e-2 * m_hat / (np.sqrt(v_hat) + eps)
        assert params.tobytes() == ref.tobytes()


def test_adam_overflow_in_last_block_raises():
    n = pl.ADAM_BLOCK * 5 // 2
    adam = pl._Adam(1e-2)
    g = np.ones(n)
    g[-1] = 1e160  # only the last, half block's squared gradient overflows
    params = np.zeros(n)
    with pytest.raises(ad.NonFiniteError, match="squared gradient overflowed"):
        adam.step(params, g)
    # the blocks before it were stepped; the caller discards the vector
    assert (params[:2 * pl.ADAM_BLOCK] != 0).all() and not params[2 * pl.ADAM_BLOCK:].any()


class TestDivergence:
    def test_huge_lr_raises(self):
        with pytest.raises((ad.NonFiniteError, evt.FitError)):
            pl.train(tiny_pool(), tiny_specs(), tiny_config(epochs=10, learning_rate=10.0))

    def test_non_finite_step_names_epoch_and_iteration(self):
        with pytest.raises(ad.NonFiniteError, match=r"epoch 1, iteration 2: op 'linear'"):
            pl.train(tiny_pool(), md.default_specs(2, 4), tiny_config(learning_rate=1e150))

    def test_overflowing_squared_gradient_names_epoch_and_iteration(self):
        pool = tiny_pool()
        pool.target_x[0] = (1e160, -1e160)  # its gradient squared exceeds the float range
        with pytest.raises(ad.NonFiniteError, match=r"epoch 1, iteration 1: optimizer: "
                                                    r"squared gradient overflowed$"):
            pl.train(pool, md.default_specs(2, 4), tiny_config())
