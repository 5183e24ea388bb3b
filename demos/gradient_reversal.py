"""Demonstrates the gradient reversal layer and saddle-point routing.

A min-max objective would normally need two alternating optimizers: one
ascending the adversarial loss, one descending it. The gradient reversal
layer (GRL) folds both directions into a single backward pass: it is the
identity going forward and multiplies the upstream gradient by -1 going
backward. This script shows the mechanics on a tiny network, then checks
the per-group routing against finite differences.
"""

import numpy as np

from adagev import autodiff as ad
from adagev import data as dt
from adagev import model as md
from adagev import objective as obj


def main():
    print("=== forward identity, backward sign flip ===")
    x = ad.leaf(np.array([[1.5, -2.0, 0.25]]))
    y = ad.grad_reverse(x)
    print("forward output is the same array object:", y.value is x.value)
    ad.backward(ad.reduce_sum(y))
    print("gradient of sum(x) through the GRL:", x.grad, "(would be all +1 without it)")

    print()
    print("=== saddle-point routing on a tiny model ===")
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
    lw = obj.LossWeights()
    step = obj.total_step_gradients(batch, params, lw, obj.WeightConfig())
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
        weights = obj.batch_weights(obj.entropy(probs_t), obj.WeightConfig())
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
