"""Demonstrates the gradient reversal layer and saddle-point routing.

A min-max objective would normally need two alternating optimizers: one
ascending the adversarial loss, one descending it. The gradient reversal
layer (GRL) folds both directions into a single backward pass: it is the
identity going forward and multiplies the upstream gradient by -1 going
backward. This script shows the sign flip in the training step itself,
then checks the per-group routing against finite differences.
"""

import numpy as np

from adagev import data as dt
from adagev import model as md
from adagev import objective as obj


def forward(spec, group, x):
    """A training pass: the logits, and the layer inputs ``mlp_backward`` reads."""
    inputs = []
    return md.mlp_forward(spec, group, x, inputs), inputs


def unreversed_extractor_gradient(batch, params, lw, weight_mode):
    """The extractor's gradient of lambda_d * L_d backpropagated without the
    reversal, in the step's order of the sums."""
    feat_s, in_gs = forward(params.spec_g, params.theta_g, batch.source_x)
    feat_t, in_gt = forward(params.spec_g, params.theta_g, batch.target_x)
    w = obj.batch_weights(
        obj.entropy(md.softmax(forward(params.spec_c, params.theta_c, feat_t)[0])[0]), weight_mode)
    z_s, in_ds = forward(params.spec_d, params.theta_d, feat_s)
    z_t, in_dt = forward(params.spec_d, params.theta_d, feat_t)
    _, g_zs, g_zt = obj.loss_domain(z_s, z_t, w, scale=lw.lambda_d)
    _, (grad_g, _, grad_d) = md.layout(params.specs)
    g_fs = md.mlp_backward(params.spec_d, params.theta_d, in_ds, g_zs, grad_d)
    g_ft = md.mlp_backward(params.spec_d, params.theta_d, in_dt, g_zt, grad_d)
    for inputs, g in ((in_gt, g_ft), (in_gs, g_fs)):
        md.mlp_backward(params.spec_g, params.theta_g, inputs, g, grad_g, wrt_input=False)
    return grad_g


def main():
    rng = np.random.default_rng(0)
    spec_g = md.MlpSpec((3, 8), activation="tanh")
    spec_c = md.MlpSpec((8, 4), head="softmax")
    spec_d = md.MlpSpec((8, 1), head="sigmoid")
    params = md.init_params(spec_g, spec_c, spec_d, seed=0)
    batch = dt.DomainBatch(
        source_x=rng.standard_normal((6, 3)),
        source_y=rng.integers(0, 4, 6),
        unknown_x=rng.standard_normal((6, 3)),
        target_x=rng.standard_normal((6, 3)),
    )
    weight_mode = "neg_entropy"

    print("=== forward identity, backward sign flip ===")
    print("the discriminator reads the extractor's features unchanged; only the")
    print("gradient it hands back to them is negated.")
    lw_d = obj.LossWeights(lambda_e=0.0, lambda_c=0.0)  # lambda_d * L_d alone
    through_grl = obj.total_step_gradients(batch, params, lw_d, weight_mode).grads["theta_g"]
    unreversed = unreversed_extractor_gradient(batch, params, lw_d, weight_mode)
    print("extractor W0[0] gradient of lambda_d*L_d through the GRL:", through_grl[0][0])
    print("the same gradient without the reversal:                 ", unreversed[0][0])
    print("every extractor gradient is the exact negation:",
          all(np.array_equal(a, -b) for a, b in zip(through_grl, unreversed)))

    print()
    print("=== saddle-point routing on a tiny model ===")
    lw = obj.LossWeights()
    step = obj.total_step_gradients(batch, params, lw, weight_mode)
    print("one fused backward pass produced gradients for all three groups:")
    for name, grads in step.grads.items():
        norms = [float(np.linalg.norm(g)) for g in grads]
        print(f"  {name}: {len(grads)} tensors, norms {['%.4f' % n for n in norms]}")

    # The discriminator's gradient descends lambda_d * L_d. Verify the first
    # weight entry against a central finite difference of that scalar.
    w = params.theta_d[0]
    h = 1e-6

    def l_d_value():
        feat_s = md.forward_features(params, batch.source_x)
        feat_t = md.forward_features(params, batch.target_x)
        probs_t = md.forward_classifier(params, feat_t)
        weights = obj.batch_weights(obj.entropy(probs_t), weight_mode)
        # the losses take logits: a training pass, which records its layer inputs
        z_s = md.mlp_forward(spec_d, params.theta_d, feat_s, [])
        z_t = md.mlp_forward(spec_d, params.theta_d, feat_t, [])
        return lw.lambda_d * obj.loss_domain(z_s, z_t, weights)[0]

    orig = w[0, 0]
    w[0, 0] = orig + h
    up = l_d_value()
    w[0, 0] = orig - h
    down = l_d_value()
    w[0, 0] = orig
    numeric = (up - down) / (2 * h)
    analytic = step.grads["theta_d"][0][0, 0]
    print()
    print(f"theta_d[0][0,0]: analytic {analytic:+.8f}, finite difference {numeric:+.8f}")
    print("the discriminator descends the adversarial loss; the feature extractor,")
    print("fed through the GRL, ascends the same loss in the same backward pass.")


if __name__ == "__main__":
    main()
