"""Loss terms and the saddle-point gradient routing.

Three terms enter the total objective: an entropy-weighted domain
adversarial loss, an entropy-maximization penalty on source unknown-class
samples, and plain cross-entropy on source known classes. The domain
discriminator descends the adversarial loss while the feature extractor
ascends it; both directions come out of one backward pass because the
discriminator input passes through a gradient reversal layer.

The training step is one fused numpy forward and backward, with no
autodiff graph: each loss returns its gradient next to its value, and
``model.mlp_backward`` carries it through the networks. The tests check it
against the same step built as an autodiff graph, bit for bit.

Per-target instance weights are exp(-H)/Z by default: high-entropy
(likely unknown) target samples get down-weighted so they are not
force-aligned with the source. ``paper_literal`` mode flips the sign of
the exponent, which up-weights high-entropy samples instead; ``uniform``
disables reweighting entirely (the ablation baseline). Weights are
always gradient-detached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as md

WEIGHT_MODES = ("neg_entropy", "paper_literal", "uniform")
Z_MODES = ("same_batch", "fresh_batch", "combined")


@dataclass(frozen=True)
class LossWeights:
    lambda_d: float = 0.5
    lambda_e: float = 1.0
    lambda_c: float = 1.0

    def __post_init__(self):
        for name in ("lambda_d", "lambda_e", "lambda_c"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be a nonnegative finite real, got {v}")


@dataclass(frozen=True)
class WeightConfig:
    weight_mode: str = "neg_entropy"
    z_mode: str = "same_batch"

    def __post_init__(self):
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
        if self.z_mode not in Z_MODES:
            raise ValueError(f"z_mode must be one of {Z_MODES}")


def _check_prob_rows(p: np.ndarray) -> None:
    sums = p.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6) or np.any(p < -1e-12):
        raise ValueError("rows must be probability vectors (sum 1 within 1e-6)")


def entropy(probs: np.ndarray) -> np.ndarray:
    """Per-row entropy of a probability matrix, as plain values."""
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    _check_prob_rows(probs)
    return -np.sum(probs * np.log(np.maximum(probs, ad.LOG_CLAMP)), axis=1)


def batch_weights(entropies: np.ndarray, cfg: WeightConfig,
                  aux_entropies: np.ndarray | None = None) -> np.ndarray:
    """Instance weights w_i = u_i / Z over a target batch.

    u_i is exp(-H_i), exp(+H_i), or 1 depending on weight_mode; Z sums the
    unnormalized weights over this batch, a fresh auxiliary batch, or both.
    """
    h = np.asarray(entropies, dtype=np.float64)
    if h.size < 1:
        raise ValueError("empty batch")
    if cfg.z_mode != "same_batch":
        if aux_entropies is None:
            raise ValueError(f"z_mode {cfg.z_mode!r} requires aux_entropies")
        h_aux = np.asarray(aux_entropies, dtype=np.float64)
    elif aux_entropies is not None:
        raise ValueError("aux_entropies only valid for fresh_batch/combined z modes")

    def unnorm(hv):
        if cfg.weight_mode == "neg_entropy":
            return np.exp(-hv)
        if cfg.weight_mode == "paper_literal":
            return np.exp(hv)
        return np.ones_like(hv)

    u = unnorm(h)
    if cfg.z_mode == "same_batch":
        z = u.sum()
    elif cfg.z_mode == "fresh_batch":
        z = unnorm(h_aux).sum()
    else:
        z = u.sum() + unnorm(h_aux).sum()
    if z <= 0:
        raise ValueError("partition function underflow: all unnormalized weights zero")
    return u / z


def loss_domain(d_src, d_tgt, w: np.ndarray, require_normalized: bool = True,
                scale: float = 1.0) -> tuple[float, np.ndarray, np.ndarray]:
    """Adversarial domain loss: E log d(src) + sum_j w_j log(1 - d(tgt)_j).

    Low when the discriminator separates the domains correctly. The
    discriminator minimizes this; the feature extractor maximizes it.
    ``require_normalized`` is dropped when the partition function is
    estimated from outside the batch, in which case the in-batch weights
    need not sum to one. Returns the loss and ``scale`` times its gradients
    with respect to ``d_src`` and ``d_tgt``; the weights get none.
    """
    d_src = np.asarray(d_src, dtype=np.float64)
    d_tgt = np.asarray(d_tgt, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("target weights must be finite and nonnegative")
    if require_normalized and abs(w.sum() - 1.0) > 1e-6:
        raise ValueError(f"target weights must sum to 1, got {w.sum()}")
    if w.ndim != 1 or d_tgt.shape not in ((len(w),), (len(w), 1)):
        raise ValueError(f"weights {w.shape} do not match discriminator outputs {d_tgt.shape}")
    wv = w.reshape(d_tgt.shape)
    # the graph's chain rule rounds scale/B and scale*w before the division by d
    up = float(scale)
    src_clamped = np.maximum(d_src, ad.LOG_CLAMP)
    one_minus = 1.0 - d_tgt
    tgt_clamped = np.maximum(one_minus, ad.LOG_CLAMP)
    value = np.log(src_clamped).mean() + (wv * np.log(tgt_clamped)).sum()
    g_src = np.where(d_src > ad.LOG_CLAMP, up / d_src.size / src_clamped, 0.0)
    g_tgt = np.where(one_minus > ad.LOG_CLAMP, up * wv / tgt_clamped, 0.0)
    g_tgt *= -1.0  # d(1 - d_tgt)/d d_tgt
    return float(value), g_src, g_tgt


def loss_entropy_unknown(probs, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """-mean entropy of source unknown-class predictions, and ``scale`` times
    its gradient with respect to ``probs``.

    Minimizing drives those predictions toward the uniform distribution.
    """
    probs = np.asarray(probs, dtype=np.float64)
    _check_prob_rows(probs)
    clamped = np.maximum(probs, ad.LOG_CLAMP)
    log_p = np.log(clamped)
    value = (probs * log_p).sum(axis=1).mean()
    up = float(scale) / len(probs)  # the graph's two negations cancel exactly
    grad = up * log_p
    grad += np.where(probs > ad.LOG_CLAMP, up * probs / clamped, 0.0)
    return float(value), grad


def loss_classification(probs, labels, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Mean cross-entropy -log p[y] over a labeled batch, and ``scale`` times
    its gradient with respect to ``probs``."""
    probs = np.asarray(probs, dtype=np.float64)
    _check_prob_rows(probs)
    labels = np.asarray(labels, dtype=np.int64)
    k = probs.shape[1]
    if labels.shape != (len(probs),):
        raise ValueError(f"labels {labels.shape} do not match probabilities {probs.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    rows = np.arange(len(probs))
    picked = probs[rows, labels]
    clamped = np.maximum(picked, ad.LOG_CLAMP)
    value = -np.log(clamped).mean()
    up = -float(scale) / len(probs)
    grad = np.zeros_like(probs)
    grad[rows, labels] = np.where(picked > ad.LOG_CLAMP, up / clamped, 0.0)
    return float(value), grad


@dataclass
class StepResult:
    """The gradient, one vector in the parameters' layout, and its views per
    parameter group, plus scalar diagnostics for logging."""

    grad: np.ndarray
    grads: dict[str, tuple[np.ndarray, ...]]
    loss_d: float
    loss_e: float
    loss_c: float
    total: float
    weights: np.ndarray


def total_step_gradients(batch, params: md.ModelParams, lw: LossWeights,
                         wc: WeightConfig) -> StepResult:
    """One joint gradient evaluation of the saddle-point objective.

    The gradients of J = lambda_d * L_d(with GRL) + lambda_e * L_e +
    lambda_c * L_c, from one fused forward and backward pass. The reversal
    layer negates the gradient the discriminator hands back to the features,
    which realizes the routing contract: theta_d descends lambda_d*L_d,
    theta_g descends -lambda_d*L_d + lambda_e*L_e + lambda_c*L_c, and
    theta_c descends lambda_e*L_e + lambda_c*L_c. Every value equals the
    graph-built step's bit for bit, which fixes the order of the sums: the
    extractor adds the source pass's gradients last.
    """
    spec_g, spec_c, spec_d = params.spec_g, params.spec_c, params.spec_d

    def forward(spec, group, x):
        inputs = []
        return md.mlp_forward(spec, group, x, inputs), inputs

    feat_s, in_gs = forward(spec_g, params.theta_g, batch.source_x)
    feat_u, in_gu = forward(spec_g, params.theta_g, batch.unknown_x)
    feat_t, in_gt = forward(spec_g, params.theta_g, batch.target_x)

    # detached: the weights carry no gradient
    h_t = entropy(forward(spec_c, params.theta_c, feat_t)[0])
    aux_h = None
    if wc.z_mode != "same_batch":
        if batch.target_aux_x is None:
            raise ValueError(f"z_mode {wc.z_mode!r} needs an auxiliary target batch")
        aux_probs = md.forward_classifier(params, md.forward_features(params, batch.target_aux_x))
        aux_h = entropy(aux_probs)
    w = batch_weights(h_t, wc, aux_h)

    d_src, in_ds = forward(spec_d, params.theta_d, feat_s)
    d_tgt, in_dt = forward(spec_d, params.theta_d, feat_t)
    normalized = wc.z_mode == "same_batch"
    l_d, g_dsrc, g_dtgt = loss_domain(d_src, d_tgt, w, normalized, scale=lw.lambda_d)

    probs_u, in_cu = forward(spec_c, params.theta_c, feat_u)
    l_e, g_pu = loss_entropy_unknown(probs_u, scale=lw.lambda_e)

    probs_s, in_cs = forward(spec_c, params.theta_c, feat_s)
    l_c, g_ps = loss_classification(probs_s, batch.source_y, scale=lw.lambda_c)

    # each network's first pass writes its gradients, the later ones add to them
    grad = np.empty_like(params.flat)
    _, (grad_g, grad_c, grad_d) = md.layout(params.specs, grad)
    # the gradient reversal layer: the features get the negated input gradients
    g_fs = -md.mlp_backward(spec_d, params.theta_d, in_ds, d_src, g_dsrc, grad_d, add=False)
    g_ft = -md.mlp_backward(spec_d, params.theta_d, in_dt, d_tgt, g_dtgt, grad_d)
    g_fu = md.mlp_backward(spec_c, params.theta_c, in_cu, probs_u, g_pu, grad_c, add=False)
    g_fs += md.mlp_backward(spec_c, params.theta_c, in_cs, probs_s, g_ps, grad_c)
    # the graph's order of the extractor's sums; the source pass must come last
    for k, (inputs, feat, g) in enumerate(((in_gt, feat_t, g_ft), (in_gu, feat_u, g_fu),
                                           (in_gs, feat_s, g_fs))):
        md.mlp_backward(spec_g, params.theta_g, inputs, feat, g, grad_g, add=k > 0,
                        wrt_input=False)

    total = -lw.lambda_d * l_d + lw.lambda_e * l_e + lw.lambda_c * l_c
    grads = dict(zip(params.groups(), (grad_g, grad_c, grad_d)))
    return StepResult(grad, grads, l_d, l_e, l_c, total, w)
