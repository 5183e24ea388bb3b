"""Loss terms and the saddle-point gradient routing.

Three terms enter the total objective: an entropy-weighted domain
adversarial loss, an entropy-maximization penalty on source unknown-class
samples, and plain cross-entropy on source known classes. The domain
discriminator descends the adversarial loss while the feature extractor
ascends it; both directions come out of one backward pass because the
discriminator input passes through a gradient reversal layer.

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
from .autodiff import Node

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


def entropy_graph(probs: Node) -> Node:
    """Per-row entropy -sum_c p log p as a graph node, shape [B]."""
    _check_prob_rows(probs.value)
    return ad.scale(ad.row_sum(ad.mul(probs, ad.log_clamped(probs))), -1.0)


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


def loss_domain(d_src, d_tgt, w: np.ndarray, require_normalized: bool = True) -> Node:
    """Adversarial domain loss: E log d(src) + sum_j w_j log(1 - d(tgt)_j).

    Low when the discriminator separates the domains correctly. The
    discriminator minimizes this; the feature extractor maximizes it.
    ``require_normalized`` is dropped when the partition function is
    estimated from outside the batch, in which case the in-batch weights
    need not sum to one.
    """
    d_src, d_tgt = ad.as_node(d_src), ad.as_node(d_tgt)
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("target weights must be finite and nonnegative")
    if require_normalized and abs(w.sum() - 1.0) > 1e-6:
        raise ValueError(f"target weights must sum to 1, got {w.sum()}")
    src_term = ad.reduce_mean(ad.log_clamped(d_src))
    one_minus = ad.add(ad.scale(d_tgt, -1.0), 1.0)
    tgt_term = ad.weighted_sum(ad.log_clamped(one_minus), w)
    return ad.add(src_term, tgt_term)


def loss_entropy_unknown(probs) -> Node:
    """-mean entropy of source unknown-class predictions.

    Minimizing drives those predictions toward the uniform distribution.
    """
    probs = ad.as_node(probs)
    return ad.scale(ad.reduce_mean(entropy_graph(probs)), -1.0)


def loss_classification(probs, labels) -> Node:
    """Mean cross-entropy -log p[y] over a labeled batch."""
    probs = ad.as_node(probs)
    _check_prob_rows(probs.value)
    labels = np.asarray(labels, dtype=np.int64)
    k = probs.value.shape[1]
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    return ad.scale(ad.reduce_mean(ad.log_clamped(ad.gather_rows(probs, labels))), -1.0)


@dataclass
class StepResult:
    """Gradients per parameter group plus scalar diagnostics for logging."""

    grads: dict[str, list[np.ndarray]]
    loss_d: float
    loss_e: float
    loss_c: float
    total: float
    weights: np.ndarray


def total_step_gradients(batch, params: md.ModelParams, lw: LossWeights,
                         wc: WeightConfig) -> StepResult:
    """One joint gradient evaluation of the saddle-point objective.

    Builds J = lambda_d * L_d(with GRL) + lambda_e * L_e + lambda_c * L_c
    and backpropagates once. The reversal layer makes the plain gradients
    of J realize the routing contract: theta_d descends lambda_d*L_d,
    theta_g descends -lambda_d*L_d + lambda_e*L_e + lambda_c*L_c, and
    theta_c descends lambda_e*L_e + lambda_c*L_c.
    """
    g_nodes = md.group_nodes(params.theta_g)
    c_nodes = md.group_nodes(params.theta_c)
    d_nodes = md.group_nodes(params.theta_d)

    feat_s = md.mlp_graph(params.spec_g, g_nodes, batch.source_x)
    feat_u = md.mlp_graph(params.spec_g, g_nodes, batch.unknown_x)
    feat_t = md.mlp_graph(params.spec_g, g_nodes, batch.target_x)

    probs_t = md.mlp_graph(params.spec_c, c_nodes, feat_t)
    h_t = entropy(probs_t.value)  # detached: weights carry no gradient
    aux_h = None
    if wc.z_mode != "same_batch":
        if batch.target_aux_x is None:
            raise ValueError(f"z_mode {wc.z_mode!r} needs an auxiliary target batch")
        aux_probs = md.forward_classifier(params, md.forward_features(params, batch.target_aux_x))
        aux_h = entropy(aux_probs)
    w = batch_weights(h_t, wc, aux_h)

    d_src = md.mlp_graph(params.spec_d, d_nodes, ad.grad_reverse(feat_s))
    d_tgt = md.mlp_graph(params.spec_d, d_nodes, ad.grad_reverse(feat_t))
    l_d = loss_domain(d_src, d_tgt, w, require_normalized=wc.z_mode == "same_batch")

    probs_u = md.mlp_graph(params.spec_c, c_nodes, feat_u)
    l_e = loss_entropy_unknown(probs_u)

    probs_s = md.mlp_graph(params.spec_c, c_nodes, feat_s)
    l_c = loss_classification(probs_s, batch.source_y)

    j = ad.add(ad.add(ad.scale(l_d, lw.lambda_d), ad.scale(l_e, lw.lambda_e)),
               ad.scale(l_c, lw.lambda_c))
    ad.backward(j)

    grads = {
        "theta_g": [n.grad for n in g_nodes],
        "theta_c": [n.grad for n in c_nodes],
        "theta_d": [n.grad for n in d_nodes],
    }
    total = (-lw.lambda_d * float(l_d.value) + lw.lambda_e * float(l_e.value)
             + lw.lambda_c * float(l_c.value))
    return StepResult(grads, float(l_d.value), float(l_e.value), float(l_c.value),
                      total, w)
