import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adagev import autodiff as ad
from adagev import data as dt
from adagev import model as md
from adagev import objective as obj


def random_probs(rng, b, k):
    p = rng.random((b, k)) + 1e-3
    return p / p.sum(axis=1, keepdims=True)


class TestEntropy:
    def test_uniform_max(self):
        h = obj.entropy(np.full((1, 4), 0.25))
        np.testing.assert_allclose(h, np.log(4), atol=1e-9)

    def test_one_hot_zero(self):
        h = obj.entropy(np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(h, 0.0, atol=1e-10)

    def test_half_half(self):
        h = obj.entropy(np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(h, np.log(2), atol=1e-12)

    def test_rejects_non_probability(self):
        with pytest.raises(ValueError):
            obj.entropy(np.array([[0.9, 0.9]]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 8))
        h = obj.entropy(random_probs(rng, 5, k))
        assert np.all(h >= 0) and np.all(h <= np.log(k) + 1e-9)


class TestBatchWeights:
    def test_equal_entropies_uniform(self):
        for mode in ("neg_entropy", "paper_literal", "uniform"):
            w = obj.batch_weights(np.full(5, 0.7), obj.WeightConfig(mode))
            np.testing.assert_allclose(w, 0.2)

    def test_neg_entropy_hand_case(self):
        w = obj.batch_weights(np.array([0.0, np.log(2)]), obj.WeightConfig("neg_entropy"))
        np.testing.assert_allclose(w, [2 / 3, 1 / 3])

    def test_paper_literal_hand_case(self):
        w = obj.batch_weights(np.array([0.0, np.log(2)]), obj.WeightConfig("paper_literal"))
        np.testing.assert_allclose(w, [1 / 3, 2 / 3])

    def test_neg_entropy_antitone(self):
        rng = np.random.default_rng(0)
        h = rng.random(20) * np.log(4)
        w = obj.batch_weights(h, obj.WeightConfig("neg_entropy"))
        order = np.argsort(h)
        assert np.all(np.diff(w[order]) < 0)

    def test_paper_literal_monotone(self):
        rng = np.random.default_rng(1)
        h = rng.random(20) * np.log(4)
        w = obj.batch_weights(h, obj.WeightConfig("paper_literal"))
        order = np.argsort(h)
        assert np.all(np.diff(w[order]) > 0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_same_batch_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.random(int(rng.integers(1, 40))) * 2
        for mode in ("neg_entropy", "paper_literal", "uniform"):
            w = obj.batch_weights(h, obj.WeightConfig(mode))
            assert abs(w.sum() - 1.0) < 1e-9

    def test_fresh_batch_normalizes_over_aux(self):
        h = np.array([0.0, 0.0])
        aux = np.array([0.0, 0.0, 0.0, 0.0])
        w = obj.batch_weights(h, obj.WeightConfig("neg_entropy", "fresh_batch"), aux)
        np.testing.assert_allclose(w, [0.25, 0.25])

    def test_combined_normalizes_over_both(self):
        h = np.array([0.0, 0.0])
        aux = np.array([0.0, 0.0])
        w = obj.batch_weights(h, obj.WeightConfig("neg_entropy", "combined"), aux)
        np.testing.assert_allclose(w, [0.25, 0.25])

    def test_aux_required(self):
        with pytest.raises(ValueError):
            obj.batch_weights(np.ones(3), obj.WeightConfig("neg_entropy", "fresh_batch"))


class TestLossDomain:
    def test_symmetric_midpoint(self):
        d = np.full((4, 1), 0.5)
        w = np.full(4, 0.25)
        loss = obj.loss_domain(d, d, w)
        np.testing.assert_allclose(float(loss.value), -2 * np.log(2), atol=1e-12)

    def test_correct_discriminator_low(self):
        d_src = np.full((3, 1), 0.1)
        d_tgt = np.full((3, 1), 0.9)
        loss = obj.loss_domain(d_src, d_tgt, np.full(3, 1 / 3))
        np.testing.assert_allclose(float(loss.value), 2 * np.log(0.1), atol=1e-9)

    def test_confused_discriminator_high(self):
        d_src = np.full((3, 1), 0.9)
        d_tgt = np.full((3, 1), 0.1)
        loss = obj.loss_domain(d_src, d_tgt, np.full(3, 1 / 3))
        np.testing.assert_allclose(float(loss.value), 2 * np.log(0.9), atol=1e-9)

    def test_weight_sum_checked(self):
        d = np.full((2, 1), 0.5)
        with pytest.raises(ValueError):
            obj.loss_domain(d, d, np.array([0.9, 0.5]))

    def test_uniform_weights_symmetric_in_batch_order(self):
        rng = np.random.default_rng(5)
        d_src = rng.random((6, 1)) * 0.8 + 0.1
        d_tgt = rng.random((6, 1)) * 0.8 + 0.1
        w = np.full(6, 1 / 6)
        a = float(obj.loss_domain(d_src, d_tgt, w).value)
        perm = rng.permutation(6)
        b = float(obj.loss_domain(d_src[perm], d_tgt[perm], w).value)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestLossEntropyUnknown:
    def test_uniform_is_minimum(self):
        loss = obj.loss_entropy_unknown(np.full((3, 4), 0.25))
        np.testing.assert_allclose(float(loss.value), -np.log(4), atol=1e-9)

    def test_one_hot_is_maximum(self):
        loss = obj.loss_entropy_unknown(np.eye(4))
        np.testing.assert_allclose(float(loss.value), 0.0, atol=1e-10)

    def test_mixed_batch(self):
        probs = np.vstack([np.full((1, 4), 0.25), np.eye(4)[:1]])
        loss = obj.loss_entropy_unknown(probs)
        np.testing.assert_allclose(float(loss.value), -np.log(4) / 2, atol=1e-9)


class TestLossClassification:
    def test_perfect_predictions(self):
        probs = np.eye(3)
        loss = obj.loss_classification(probs, [0, 1, 2])
        np.testing.assert_allclose(float(loss.value), 0.0, atol=1e-10)

    def test_uniform_baseline(self):
        loss = obj.loss_classification(np.full((5, 4), 0.25), [0, 1, 2, 3, 0])
        np.testing.assert_allclose(float(loss.value), np.log(4), atol=1e-9)

    def test_half_confidence(self):
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        loss = obj.loss_classification(probs, [0, 1])
        np.testing.assert_allclose(float(loss.value), np.log(2), atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            obj.loss_classification(np.full((2, 3), 1 / 3), [0, 5])


def tiny_setup(seed=0, b=4):
    rng = np.random.default_rng(seed)
    sg = md.MlpSpec((3, 5), activation="tanh")
    sc = md.MlpSpec((5, 3), head="softmax")
    sd = md.MlpSpec((5, 1), head="sigmoid")
    params = md.init_params(sg, sc, sd, seed)
    # nonzero biases so every gradient entry is informative
    for group in params.groups().values():
        for i in range(1, len(group), 2):
            group[i] = rng.standard_normal(group[i].shape) * 0.1
    batch = dt.DomainBatch(
        source_x=rng.standard_normal((b, 3)),
        source_y=rng.integers(0, 3, b),
        unknown_x=rng.standard_normal((b, 3)),
        target_x=rng.standard_normal((b, 3)),
    )
    return params, batch


def group_loss(params, batch, lw, wc, which, fixed_w=None):
    """Value of the objective one parameter group is supposed to descend.

    The importance weights are detached constants in the analytic step, so
    a finite-difference oracle must hold them fixed at the base point via
    ``fixed_w``.
    """
    feat_s = md.forward_features(params, batch.source_x)
    feat_u = md.forward_features(params, batch.unknown_x)
    feat_t = md.forward_features(params, batch.target_x)
    if fixed_w is None:
        probs_t = md.forward_classifier(params, feat_t)
        w = obj.batch_weights(obj.entropy(probs_t), wc)
    else:
        w = fixed_w
    d_src = md.forward_domain(params, feat_s)
    d_tgt = md.forward_domain(params, feat_t)
    l_d = float(obj.loss_domain(d_src, d_tgt, w).value)
    l_e = float(obj.loss_entropy_unknown(md.forward_classifier(params, feat_u)).value)
    l_c = float(obj.loss_classification(md.forward_classifier(params, feat_s), batch.source_y).value)
    if which == "theta_d":
        return lw.lambda_d * l_d
    if which == "theta_g":
        return -lw.lambda_d * l_d + lw.lambda_e * l_e + lw.lambda_c * l_c
    return lw.lambda_e * l_e + lw.lambda_c * l_c


class TestTotalStepGradients:
    def test_routing_matches_finite_differences(self):
        params, batch = tiny_setup()
        lw, wc = obj.LossWeights(), obj.WeightConfig()
        step = obj.total_step_gradients(batch, params, lw, wc)
        base_w = obj.batch_weights(
            obj.entropy(md.forward_classifier(params, md.forward_features(params, batch.target_x))),
            wc)
        h = 1e-5
        for which in ("theta_g", "theta_c", "theta_d"):
            group = params.groups()[which]
            for gi, tensor in enumerate(group):
                analytic = step.grads[which][gi]
                it = np.nditer(tensor, flags=["multi_index"])
                numeric = np.zeros_like(tensor)
                for _ in it:
                    idx = it.multi_index
                    orig = tensor[idx]
                    tensor[idx] = orig + h
                    up = group_loss(params, batch, lw, wc, which, fixed_w=base_w)
                    tensor[idx] = orig - h
                    down = group_loss(params, batch, lw, wc, which, fixed_w=base_w)
                    tensor[idx] = orig
                    numeric[idx] = (up - down) / (2 * h)
                err = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-8)
                assert err < 1e-4, f"{which}[{gi}] rel err {err}"

    def test_lambda_d_zero_decouples(self):
        params, batch = tiny_setup(seed=3)
        step = obj.total_step_gradients(batch, params, obj.LossWeights(0.0, 1.0, 1.0),
                                        obj.WeightConfig())
        for g in step.grads["theta_d"]:
            assert not g.any()

    def test_discriminator_step_decreases_loss_domain(self):
        for seed in range(5):
            params, batch = tiny_setup(seed=seed)
            lw, wc = obj.LossWeights(), obj.WeightConfig()
            before = group_loss(params, batch, lw, wc, "theta_d") / lw.lambda_d
            step = obj.total_step_gradients(batch, params, lw, wc)
            for tensor, grad in zip(params.theta_d, step.grads["theta_d"]):
                tensor -= 1e-3 * grad
            after = group_loss(params, batch, lw, wc, "theta_d") / lw.lambda_d
            assert after < before

    def test_weights_detached(self):
        # weights must carry no gradient: perturbing lambda_e/lambda_c paths
        # should leave theta_d gradients untouched by the weight computation
        params, batch = tiny_setup(seed=4)
        step1 = obj.total_step_gradients(batch, params, obj.LossWeights(0.5, 0.0, 0.0),
                                         obj.WeightConfig())
        step2 = obj.total_step_gradients(batch, params, obj.LossWeights(0.5, 1.0, 1.0),
                                         obj.WeightConfig())
        for a, b in zip(step1.grads["theta_d"], step2.grads["theta_d"]):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_nodes_per_step(self, monkeypatch):
        # the benchmark's specs: two extractor layers, one classifier layer,
        # two discriminator layers; each affine layer is one fused linear node,
        # and the three data batches enter those nodes as arrays, not as leaves
        counts = []
        backward = ad.backward

        def counting_backward(loss):
            counts.append(len(ad.topo_order(loss)))
            backward(loss)

        monkeypatch.setattr(ad, "backward", counting_backward)
        rng = np.random.default_rng(0)
        params = md.init_params(*md.default_specs(2, 4), seed=0)
        batch = dt.DomainBatch(source_x=rng.standard_normal((8, 2)),
                               source_y=rng.integers(0, 4, 8),
                               unknown_x=rng.standard_normal((8, 2)),
                               target_x=rng.standard_normal((8, 2)))
        obj.total_step_gradients(batch, params, obj.LossWeights(), obj.WeightConfig())
        assert counts == [56]
