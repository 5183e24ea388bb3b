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
    # the tiny pool is too small for block maxima; fit on the top half
    base = dict(epochs=2, batch_size=16, seed=0,
                tail_config=evt.TailConfig("top_fraction", fraction=0.5))
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

    @pytest.mark.parametrize("source_pool,n", [("known_only", 80), ("known_plus_unknown", 140)])
    def test_tail_too_small_before_the_first_step(self, monkeypatch, source_pool, n):
        def step(*args):
            raise AssertionError("a training step ran")
        monkeypatch.setattr(obj, "total_step_gradients", step)
        tail = evt.TailConfig(source_pool=source_pool)  # blocks of 20
        with pytest.raises(dt.DataError, match=rf"the {n} source rows .* got {n // 20} "):
            pl.train(tiny_pool(), tiny_specs(), tiny_config(tail_config=tail))


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

    def test_aux_batches_for_fresh_z(self):
        cfg = tiny_config(weight_config=obj.WeightConfig("neg_entropy", "fresh_batch"))
        res = pl.train(tiny_pool(), tiny_specs(), cfg)
        assert len(res.log) == cfg.epochs


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
        tc = replace(tc, weight_config=obj.WeightConfig("uniform", tc.weight_config.z_mode))
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
        assert [tc.weight_config.weight_mode for tc in train_calls] == ["neg_entropy", "uniform"]
        assert out["full"][1] is out["no_evt_binary"][1] is out["hard_threshold"][1]
        assert out["no_reweight"][1] is not out["full"][1]

    def test_uniform_base_trains_once(self, pool, train_calls):
        tc = tiny_config(weight_config=obj.WeightConfig("uniform", "fresh_batch"))
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


def test_sgd_momentum_step_equals_out_of_place_expressions_bit_for_bit():
    rng = np.random.default_rng(0)
    params = rng.standard_normal(19)
    ref = params.copy()
    buf = np.zeros(19)
    sgd = pl._SgdMomentum(1e-2)
    for _ in range(5):
        g = rng.standard_normal(19)
        sgd.step(params, g)
        buf = sgd.momentum * buf + g
        ref = ref - 1e-2 * buf
        assert params.tobytes() == ref.tobytes()


class TestDivergence:
    def test_huge_lr_raises(self):
        with pytest.raises((pl.NumericalError, evt.FitError)):
            pl.train(tiny_pool(), tiny_specs(),
                     tiny_config(epochs=10, learning_rate=10.0, optimizer="sgd_momentum"))

    def test_non_finite_step_names_epoch_and_iteration(self):
        with pytest.raises(pl.NumericalError, match=r"epoch 1, iteration 2: op 'linear'"):
            pl.train(tiny_pool(), md.default_specs(2, 4), tiny_config(learning_rate=1e150))

    def test_overflowing_squared_gradient_names_epoch_and_iteration(self):
        pool = tiny_pool()
        pool.target_x[0] = (1e160, -1e160)  # its gradient squared exceeds the float range
        with pytest.raises(pl.NumericalError, match=r"epoch 1, iteration 1: optimizer: "
                                                    r"squared gradient overflowed$"):
            pl.train(pool, md.default_specs(2, 4), tiny_config())
