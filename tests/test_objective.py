import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adagev import data as dt
from adagev import model as md
from adagev import objective as obj
import graph_engine as ad
from graph_reference import (gather_rows, log_sigmoid, log_softmax, mlp_graph, param_nodes,
                             row_sum, weighted_sum)


def random_probs(rng, b, k):
    p = rng.random((b, k)) + 1e-3
    return p / p.sum(axis=1, keepdims=True)


def logit(d):
    """The discriminator logit of probability d."""
    return np.log(d) - np.log1p(-d)


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
        z = np.zeros((4, 1))
        w = np.full(4, 0.25)
        loss = obj.loss_domain(z, z, w)[0]
        np.testing.assert_allclose(loss, -2 * np.log(2), atol=1e-12)

    def test_correct_discriminator_low(self):
        z_src = logit(np.full((3, 1), 0.1))
        z_tgt = logit(np.full((3, 1), 0.9))
        loss = obj.loss_domain(z_src, z_tgt, np.full(3, 1 / 3))[0]
        np.testing.assert_allclose(loss, 2 * np.log(0.1), atol=1e-9)

    def test_confused_discriminator_high(self):
        z_src = logit(np.full((3, 1), 0.9))
        z_tgt = logit(np.full((3, 1), 0.1))
        loss = obj.loss_domain(z_src, z_tgt, np.full(3, 1 / 3))[0]
        np.testing.assert_allclose(loss, 2 * np.log(0.9), atol=1e-9)

    def test_weight_sum_checked(self):
        z = np.zeros((2, 1))
        with pytest.raises(ValueError):
            obj.loss_domain(z, z, np.array([0.9, 0.5]))

    def test_uniform_weights_symmetric_in_batch_order(self):
        rng = np.random.default_rng(5)
        z_src = logit(rng.random((6, 1)) * 0.8 + 0.1)
        z_tgt = logit(rng.random((6, 1)) * 0.8 + 0.1)
        w = np.full(6, 1 / 6)
        a = obj.loss_domain(z_src, z_tgt, w)[0]
        perm = rng.permutation(6)
        b = obj.loss_domain(z_src[perm], z_tgt[perm], w)[0]
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestLossEntropyUnknown:
    def test_uniform_is_minimum(self):
        loss = obj.loss_entropy_unknown(np.zeros((3, 4)))[0]
        np.testing.assert_allclose(loss, -np.log(4), atol=1e-9)

    def test_one_hot_is_maximum(self):
        loss = obj.loss_entropy_unknown(50.0 * np.eye(4))[0]
        np.testing.assert_allclose(loss, 0.0, atol=1e-10)

    def test_mixed_batch(self):
        logits = np.vstack([np.zeros((1, 4)), 50.0 * np.eye(4)[:1]])
        loss = obj.loss_entropy_unknown(logits)[0]
        np.testing.assert_allclose(loss, -np.log(4) / 2, atol=1e-9)


class TestLossClassification:
    def test_perfect_predictions(self):
        loss = obj.loss_classification(50.0 * np.eye(3), [0, 1, 2])[0]
        np.testing.assert_allclose(loss, 0.0, atol=1e-10)

    def test_uniform_baseline(self):
        loss = obj.loss_classification(np.zeros((5, 4)), [0, 1, 2, 3, 0])[0]
        np.testing.assert_allclose(loss, np.log(4), atol=1e-9)

    def test_half_confidence(self):
        loss = obj.loss_classification(np.zeros((2, 2)), [0, 1])[0]
        np.testing.assert_allclose(loss, np.log(2), atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            obj.loss_classification(np.zeros((2, 3)), [0, 5])


def tiny_setup(seed=0, b=4):
    rng = np.random.default_rng(seed)
    sg = md.MlpSpec((3, 5), activation="tanh")
    sc = md.MlpSpec((5, 3), head="softmax")
    sd = md.MlpSpec((5, 1), head="sigmoid")
    params = md.init_params(sg, sc, sd, seed)
    # nonzero biases so every gradient entry is informative
    for group in params.groups().values():
        for i in range(1, len(group), 2):
            group[i][...] = rng.standard_normal(group[i].shape) * 0.1
    batch = dt.DomainBatch(
        source_x=rng.standard_normal((b, 3)),
        source_y=rng.integers(0, 3, b),
        unknown_x=rng.standard_normal((b, 3)),
        target_x=rng.standard_normal((b, 3)),
    )
    return params, batch


def training_pass(spec, group, x):
    """The network's logits."""
    return md.mlp_forward(spec, group, x, [])


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
    l_d = obj.loss_domain(training_pass(params.spec_d, params.theta_d, feat_s),
                          training_pass(params.spec_d, params.theta_d, feat_t), w)[0]
    l_e = obj.loss_entropy_unknown(training_pass(params.spec_c, params.theta_c, feat_u))[0]
    l_c = obj.loss_classification(training_pass(params.spec_c, params.theta_c, feat_s),
                                  batch.source_y)[0]
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


def central_differences(f, z, h=1e-6):
    """The gradient of the scalar f() in the entries of the array z."""
    numeric = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        orig = z[idx]
        z[idx] = orig + h
        up = f()
        z[idx] = orig - h
        down = f()
        z[idx] = orig
        numeric[idx] = (up - down) / (2 * h)
    return numeric


class TestLogitGradients:
    """Each loss's closed-form gradient on the logits, against central differences."""

    def test_domain(self):
        rng = np.random.default_rng(11)
        z_src, z_tgt = rng.standard_normal((5, 1)) * 3, rng.standard_normal((5, 1)) * 3
        w = obj.batch_weights(rng.random(5), obj.WeightConfig())
        _, g_src, g_tgt = obj.loss_domain(z_src, z_tgt, w, scale=0.7)
        for z, g in ((z_src, g_src), (z_tgt, g_tgt)):
            numeric = central_differences(lambda: 0.7 * obj.loss_domain(z_src, z_tgt, w)[0], z)
            np.testing.assert_allclose(g, numeric, rtol=1e-6, atol=1e-10)

    def test_entropy_unknown(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((4, 5)) * 3
        grad = obj.loss_entropy_unknown(z, scale=1.3)[1]
        numeric = central_differences(lambda: 1.3 * obj.loss_entropy_unknown(z)[0], z)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-10)

    def test_classification(self):
        rng = np.random.default_rng(13)
        z, y = rng.standard_normal((4, 5)) * 3, np.array([0, 4, 2, 2])
        grad = obj.loss_classification(z, y, scale=0.45)[1]
        numeric = central_differences(lambda: 0.45 * obj.loss_classification(z, y)[0], z)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-10)

    def test_binary(self):
        rng = np.random.default_rng(14)
        z, y = rng.standard_normal((6, 1)) * 3, np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        grad = obj.loss_binary(z, y)[1]
        numeric = central_differences(lambda: obj.loss_binary(z, y)[0], z)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-10)
        np.testing.assert_allclose(grad, (md.sigmoid(z) - y[:, None]) / 6, rtol=1e-12)


class TestSaturatedLogits:
    """A log clamped at 1e-12 gave these gradients as 0."""

    def test_target_logit_of_30_keeps_its_gradient(self):
        w = np.array([0.25, 0.75])
        g_tgt = obj.loss_domain(np.zeros((2, 1)), np.array([[30.0], [0.0]]), w, scale=0.5)[2]
        np.testing.assert_allclose(g_tgt[0], [-0.5 * 0.25], rtol=1e-12)

    def test_unlikely_true_class_keeps_its_gradient(self):
        z, y = np.array([[0.0, 40.0, 0.0], [0.0, 0.0, 0.0]]), np.array([0, 2])
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        assert p[0, 0] < 1e-12
        grad = obj.loss_classification(z, y, scale=1.5)[1]
        np.testing.assert_allclose(grad, 1.5 * (p - np.eye(3)[y]) / 2, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(grad[0], [-0.75, 0.75, 0.0], atol=1e-15)

    def test_saturated_discriminator_still_descends(self):
        # every discriminator logit is 30: the target rows' gradient on the
        # last bias sums to -lambda_d, since the weights sum to 1
        params, batch = tiny_setup(seed=6)
        params.theta_d[0][...] = 0.0
        params.theta_d[1][...] = 30.0
        step = obj.total_step_gradients(batch, params, obj.LossWeights(), obj.WeightConfig())
        np.testing.assert_allclose(step.grads["theta_d"][1], [-0.5], rtol=1e-9)

    def test_logits_beyond_the_float_range_name_log_softmax(self):
        for loss in (lambda z: obj.loss_classification(z, [0]), obj.loss_entropy_unknown):
            with pytest.raises(ad.NonFiniteError, match="'log_softmax'"):
                loss(np.array([[1e308, -1e308]]))


def test_tanh_overflow_in_the_step_names_linear():
    # tanh maps an overflowed pre-activation to 1.0, so only the affine
    # output check can see it
    params, batch = tiny_setup(seed=2)
    params.theta_g[0][:] = 1e308
    batch.source_x[:] = 10.0
    with pytest.raises(ad.NonFiniteError, match="'linear'"):
        obj.total_step_gradients(batch, params, obj.LossWeights(), obj.WeightConfig())


# The graph-built step the fused step replaced, kept as its bit-for-bit
# reference: the same losses as autodiff nodes and one backward pass.

def graph_step(batch, params, lw, wc):
    g_nodes, c_nodes, d_nodes = (param_nodes(t) for t in params.groups().values())
    feat_s = mlp_graph(params.spec_g, g_nodes, batch.source_x)
    feat_u = mlp_graph(params.spec_g, g_nodes, batch.unknown_x)
    feat_t = mlp_graph(params.spec_g, g_nodes, batch.target_x)
    probs_t = ad.stable_softmax(mlp_graph(params.spec_c, c_nodes, feat_t))
    aux_h = None
    if wc.z_mode != "same_batch":
        aux_h = obj.entropy(md.forward_classifier(
            params, md.forward_features(params, batch.target_aux_x)))
    w = obj.batch_weights(obj.entropy(probs_t.value), wc, aux_h)

    z_src = mlp_graph(params.spec_d, d_nodes, ad.grad_reverse(feat_s))
    z_tgt = mlp_graph(params.spec_d, d_nodes, ad.grad_reverse(feat_t))
    # log d(src) and log(1 - d(tgt)) = log sigmoid(-z_tgt)
    l_d = ad.add(ad.reduce_mean(log_sigmoid(z_src)),
                 weighted_sum(log_sigmoid(ad.scale(z_tgt, -1.0)), w))

    logits_u = mlp_graph(params.spec_c, c_nodes, feat_u)
    # log p enters as a constant: its path adds sum_k p_k d(log p_k) = d(sum_k p_k) = 0
    neg_h_u = row_sum(ad.mul(ad.stable_softmax(logits_u), log_softmax(logits_u).value))
    l_e = ad.scale(ad.reduce_mean(ad.scale(neg_h_u, -1.0)), -1.0)

    logits_s = mlp_graph(params.spec_c, c_nodes, feat_s)
    l_c = ad.scale(ad.reduce_mean(gather_rows(log_softmax(logits_s), batch.source_y)), -1.0)

    j = ad.add(ad.add(ad.scale(l_d, lw.lambda_d), ad.scale(l_e, lw.lambda_e)),
               ad.scale(l_c, lw.lambda_c))
    ad.backward(j)
    grads = {name: [n.grad for n in nodes] for name, nodes in
             zip(params.groups(), (g_nodes, c_nodes, d_nodes))}
    grad = np.concatenate([g.ravel() for group in grads.values() for g in group])
    losses = [float(n.value) for n in (l_d, l_e, l_c)]
    total = -lw.lambda_d * losses[0] + lw.lambda_e * losses[1] + lw.lambda_c * losses[2]
    return obj.StepResult(grad, grads, *losses, total, w)


SPEC_SETS = {
    # the pinned benchmark's shapes, smaller: one-layer classifier
    "tanh": (md.MlpSpec((2, 16, 8), "tanh"), md.MlpSpec((8, 4), head="softmax"),
             md.MlpSpec((8, 6, 1), "tanh", "sigmoid")),
    "relu": (md.MlpSpec((2, 16, 8), "relu"), md.MlpSpec((8, 4), head="softmax"),
             md.MlpSpec((8, 6, 1), "relu", "sigmoid")),
    # hidden layers in every network, so every activation is backpropagated
    "tanh-deep": (md.MlpSpec((3, 12, 10, 8), "tanh"), md.MlpSpec((8, 6, 4), "tanh", "softmax"),
                  md.MlpSpec((8, 6, 1), "tanh", "sigmoid")),
    "relu-deep": (md.MlpSpec((3, 12, 10, 8), "relu"), md.MlpSpec((8, 6, 4), "relu", "softmax"),
                  md.MlpSpec((8, 6, 1), "relu", "sigmoid")),
}
LOSS_WEIGHTS = {"default": obj.LossWeights(), "no-adversary": obj.LossWeights(0, 1, 1),
                "other": obj.LossWeights(0.3, 1.7, 0.45)}


def as_bytes(step):
    grads = [t.tobytes() for name in ("theta_g", "theta_c", "theta_d") for t in step.grads[name]]
    scalars = np.array([step.loss_d, step.loss_e, step.loss_c, step.total]).tobytes()
    return step.grad.tobytes(), grads, scalars, step.weights.tobytes()


@pytest.mark.parametrize("specs,weight_mode,z_mode,weights", itertools.product(
    SPEC_SETS, obj.WEIGHT_MODES, obj.Z_MODES, LOSS_WEIGHTS))
def test_fused_step_equals_graph_bit_for_bit(specs, weight_mode, z_mode, weights):
    seed = (list(SPEC_SETS).index(specs) * 9 + obj.WEIGHT_MODES.index(weight_mode) * 3
            + obj.Z_MODES.index(z_mode))
    rng = np.random.default_rng(seed)
    params = md.init_params(*SPEC_SETS[specs], seed=seed)
    for group in params.groups().values():
        for i in range(1, len(group), 2):
            group[i][...] = rng.standard_normal(group[i].shape) * 0.1

    def rows():
        return rng.standard_normal((16, params.spec_g.widths[0]))

    batch = dt.DomainBatch(source_x=rows(), source_y=rng.integers(0, 4, 16), unknown_x=rows(),
                           target_x=rows(), target_aux_x=None if z_mode == "same_batch" else rows())
    lw, wc = LOSS_WEIGHTS[weights], obj.WeightConfig(weight_mode, z_mode)
    fused = obj.total_step_gradients(batch, params, lw, wc)
    assert as_bytes(fused) == as_bytes(graph_step(batch, params, lw, wc))


# Rows that make one batch fail where the graph's order of checks sees it:
# "linear" overflows the extractor, "log_softmax" gives logits that span more
# than the float range, so only a loss on that batch's log-probabilities fails.
FAULT_ROWS = {"none": (0.1, 0.2), "linear": (1.5e308, 1.5e308), "log_softmax": (1e308, 0.0)}


def fault_params():
    """Features (x1 + x2, x2), logits (f1, -f1, 0) and a constant discriminator."""
    params = md.init_params(md.MlpSpec((2, 2)), md.MlpSpec((2, 3), head="softmax"),
                            md.MlpSpec((2, 1), head="sigmoid"), 0)
    params.flat[:] = 0.0
    params.theta_g[0][...] = [[1.0, 0.0], [1.0, 1.0]]
    params.theta_c[0][0] = [1.0, -1.0, 0.0]
    return params


def step_outcome(step):
    """The step's error type and message, or its result's bytes."""
    try:
        return as_bytes(step())
    except (ad.NonFiniteError, ValueError) as e:
        return type(e), str(e)


def test_lanes_raise_the_graphs_first_error():
    from concurrent.futures import ThreadPoolExecutor

    params, lw = fault_params(), obj.LossWeights()
    # a target row that only the losses on log-probabilities would see never fails
    cases = itertools.product(FAULT_ROWS, FAULT_ROWS, ("none", "linear"),
                              (None, "none", "linear"))
    with ThreadPoolExecutor(1) as executor:
        for source, unknown, target, aux in cases:
            def rows(fault):
                x = np.full((3, 2), 0.3)
                x[1] = FAULT_ROWS[fault]
                return x
            batch = dt.DomainBatch(rows(source), np.array([0, 1, 2]), rows(unknown), rows(target),
                                   None if aux is None else rows(aux))
            wc = obj.WeightConfig(z_mode="same_batch" if aux is None else "fresh_batch")
            with np.errstate(over="ignore"):  # the graph's softmax warns where the step does not
                expected = step_outcome(lambda: graph_step(batch, params, lw, wc))
            for lanes in (None, obj.Lanes(params.specs, executor)):
                got = step_outcome(lambda: obj.total_step_gradients(batch, params, lw, wc, lanes))
                assert got == expected, (source, unknown, target, aux, lanes)
