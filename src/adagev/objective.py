"""Loss terms and the saddle-point gradient routing.

Three terms enter the total objective: an entropy-weighted domain
adversarial loss, an entropy-maximization penalty on source unknown-class
samples, and plain cross-entropy on source known classes. The domain
discriminator descends the adversarial loss while the feature extractor
ascends it; both directions come out of one backward pass because the
discriminator input passes through a gradient reversal layer.

The training step is one fused numpy forward and backward, with no
autodiff graph: each loss takes a training pass's logits and returns its
closed-form gradient on them next to its value, and ``model.mlp_backward``
carries it through the networks. The tests hold the step bit for bit to
the same step built as an autodiff graph, whose losses use the graph ops
``log_softmax``, ``stable_softmax`` and ``log_sigmoid``. The source-unknown
batch's chain can run on a second lane (``Lanes``), because only the
gradient sums join it to the other batches. The sums are still formed in
the graph's order: the extractor's target + unknown + source, the
classifier's unknown + source and the discriminator's source + target.

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


def entropy(probs: np.ndarray) -> np.ndarray:
    """Per-row entropy of a probability matrix, as plain values."""
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6) or np.any(probs < -1e-12):
        raise ValueError("rows must be probability vectors (sum 1 within 1e-6)")
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


def loss_domain(z_src, z_tgt, w: np.ndarray, require_normalized: bool = True,
                scale: float = 1.0) -> tuple[float, np.ndarray, np.ndarray]:
    """Adversarial domain loss on the discriminator's logits:
    E log d(src) + sum_j w_j log(1 - d(tgt)_j), with d = sigmoid(z).

    Low when the discriminator separates the domains correctly. The
    discriminator minimizes this; the feature extractor maximizes it.
    ``require_normalized`` is dropped when the partition function is
    estimated from outside the batch, in which case the in-batch weights
    need not sum to one. Returns the loss and ``scale`` times its gradients
    with respect to ``z_src`` and ``z_tgt``, scale*sigmoid(-z_src)/B and
    -scale*w*sigmoid(z_tgt); the weights get none.
    """
    z_src = np.asarray(z_src, dtype=np.float64)
    z_tgt = np.asarray(z_tgt, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("target weights must be finite and nonnegative")
    if require_normalized and abs(w.sum() - 1.0) > 1e-6:
        raise ValueError(f"target weights must sum to 1, got {w.sum()}")
    if w.ndim != 1 or z_tgt.shape not in ((len(w),), (len(w), 1)):
        raise ValueError(f"weights {w.shape} do not match discriminator outputs {z_tgt.shape}")
    wv = w.reshape(z_tgt.shape)
    # log sigmoid(z) = -log(1 + exp(-z)), and log(1 - sigmoid(z)) = log sigmoid(-z)
    value = -np.logaddexp(0.0, -z_src).mean() - (wv * np.logaddexp(0.0, z_tgt)).sum()
    g_src = (scale / z_src.size) * md.sigmoid(-z_src)
    g_tgt = -(scale * wv) * md.sigmoid(z_tgt)
    return float(value), g_src, g_tgt


def _log_softmax(logits) -> tuple[np.ndarray, np.ndarray]:
    """``model.softmax`` of the logits and its log, which must be finite, as
    the graph op ``log_softmax``'s value must."""
    p, log_p = md.softmax(np.asarray(logits, dtype=np.float64))
    if not np.isfinite(log_p).all():
        raise ad.NonFiniteError("op 'log_softmax' produced non-finite values")
    return p, log_p


def loss_entropy_unknown(logits, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """-mean entropy of source unknown-class predictions, and ``scale`` times
    its gradient with respect to the classifier's ``logits``,
    scale*p*(log p + H)/B.

    Minimizing drives those predictions toward the uniform distribution.
    """
    p, log_p = _log_softmax(logits)
    value = (p * log_p).sum(axis=1).mean()
    grad = float(scale) / len(p) * log_p
    grad -= (grad * p).sum(axis=1, keepdims=True)  # + scale/B * H
    grad *= p
    return float(value), grad


def loss_classification(logits, labels, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Mean cross-entropy -log p[y] over a labeled batch, and ``scale`` times
    its gradient with respect to the classifier's ``logits``,
    scale*(p - onehot(y))/B."""
    p, log_p = _log_softmax(logits)
    labels = np.asarray(labels, dtype=np.int64)
    k = p.shape[1]
    if labels.shape != (len(p),):
        raise ValueError(f"labels {labels.shape} do not match logits {p.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    rows = np.arange(len(p))
    value = -log_p[rows, labels].mean()
    up = float(scale) / len(p)
    grad = up * p
    grad[rows, labels] -= up
    return float(value), grad


def loss_binary(logits, labels) -> tuple[float, np.ndarray]:
    """Binary cross-entropy of 0/1 ``labels`` on one-column ``logits`` z, and
    its gradient (sigmoid(z) - y)/N, taken as -s*sigmoid(-s*z)/N with
    s = 2y - 1 so that it does not cancel where sigmoid(z) rounds to y."""
    z = np.asarray(logits, dtype=np.float64)
    sign = 2.0 * np.asarray(labels, dtype=np.float64).reshape(z.shape) - 1.0
    margin = sign * z
    grad = md.sigmoid(-margin)
    grad *= -sign / len(z)
    return float(np.logaddexp(0.0, -margin).mean()), grad


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


class _Inline:
    """A lane run at once on the calling thread, read back like a future."""

    def __init__(self, fn, *args):
        try:
            self._result, self._error = fn(*args), None
        except Exception as e:  # kept for ``result``, as an executor keeps it
            self._result, self._error = None, e

    def exception(self):
        return self._error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._result


class Lanes:
    """Where ``total_step_gradients`` runs its second lane, and that lane's
    product buffers.

    The lane is the source-unknown batch's chain, then the source batch's
    extractor backward. It runs on ``executor``, a one-worker
    ``concurrent.futures`` executor, or, without one, inline on the calling
    thread: the same code, so the same bits. The buffers hold the lane's
    products that the calling thread's would collide with: the source
    batch's extractor gradient and the unknown batch's classifier gradient,
    as ``model.layout`` views. They are made once here and written over by
    every step.
    """

    def __init__(self, specs, executor=None):
        spec_g, spec_c, _ = specs
        self.executor = executor
        _, (self.ext_s, self.clf_u) = md.layout((spec_g, spec_c))

    def submit(self, fn, *args):
        if self.executor is None:
            return _Inline(fn, *args)
        return self.executor.submit(fn, *args)


def total_step_gradients(batch, params: md.ModelParams, lw: LossWeights,
                         wc: WeightConfig, lanes: Lanes | None = None) -> StepResult:
    """One joint gradient evaluation of the saddle-point objective.

    The gradients of J = lambda_d * L_d(with GRL) + lambda_e * L_e +
    lambda_c * L_c, from one fused forward and backward pass. The reversal
    layer negates the gradient the discriminator hands back to the features,
    which realizes the routing contract: theta_d descends lambda_d*L_d,
    theta_g descends -lambda_d*L_d + lambda_e*L_e + lambda_c*L_c, and
    theta_c descends lambda_e*L_e + lambda_c*L_c.

    The source-unknown batch enters only L_e, so its chain (extractor and
    classifier forward, L_e, classifier and extractor backward) runs on the
    second lane of ``lanes`` (by default inline) while this thread runs the
    source and target forwards, the weights, L_d, L_c and the
    discriminator's and the source classifier's backward. Then the lane runs
    the source batch's extractor backward while this thread runs the
    target's. The sums are formed in the graph-built step's order: extractor
    t + u + s, classifier u + s, discriminator s + t. Addition of two values
    commutes, so the unknown pass may write the extractor's gradient and the
    target pass add to it; every other product that would land out of order
    waits in a ``lanes`` buffer. So every value equals that step's bit for
    bit, and a failure raises the error that the graph's order of checks
    reaches first.
    """
    spec_g, spec_c, spec_d = params.spec_g, params.spec_c, params.spec_d
    lanes = lanes or Lanes(params.specs)
    # each network's first pass writes its gradients, the later ones add to them
    grad = np.empty_like(params.flat)
    _, (grad_g, grad_c, grad_d) = md.layout(params.specs, grad)

    def forward(spec, group, x):
        inputs = []
        return md.mlp_forward(spec, group, x, inputs), inputs

    def unknown_chain(features):
        feat_u, in_gu = features.result()
        logits_u, in_cu = forward(spec_c, params.theta_c, feat_u)
        l_e, g_zu = loss_entropy_unknown(logits_u, scale=lw.lambda_e)
        g_fu = md.mlp_backward(spec_c, params.theta_c, in_cu, g_zu, lanes.clf_u, add=False)
        md.mlp_backward(spec_g, params.theta_g, in_gu, g_fu, grad_g, add=False, wrt_input=False)
        return l_e

    features_u = lanes.submit(forward, spec_g, params.theta_g, batch.unknown_x)
    unknown = lanes.submit(unknown_chain, features_u)
    try:
        feat_s, in_gs = forward(spec_g, params.theta_g, batch.source_x)
        feat_t, in_gt = forward(spec_g, params.theta_g, batch.target_x)

        # detached: the weights carry no gradient
        h_t = entropy(md.softmax(forward(spec_c, params.theta_c, feat_t)[0])[0])
        aux_h = None
        if wc.z_mode != "same_batch":
            if batch.target_aux_x is None:
                raise ValueError(f"z_mode {wc.z_mode!r} needs an auxiliary target batch")
            aux_features = md.forward_features(params, batch.target_aux_x)
            aux_h = entropy(md.forward_classifier(params, aux_features))
        w = batch_weights(h_t, wc, aux_h)

        z_src, in_ds = forward(spec_d, params.theta_d, feat_s)
        z_tgt, in_dt = forward(spec_d, params.theta_d, feat_t)
        normalized = wc.z_mode == "same_batch"
        l_d, g_zsrc, g_ztgt = loss_domain(z_src, z_tgt, w, normalized, scale=lw.lambda_d)
    except Exception:
        # the graph checks the unknown batch's features before all of these
        unknown.exception()
        features_u.result()
        raise
    try:
        logits_s, in_cs = forward(spec_c, params.theta_c, feat_s)
        l_c, g_zs = loss_classification(logits_s, batch.source_y, scale=lw.lambda_c)
    except Exception:
        unknown.result()  # and L_e before L_c
        raise

    # the gradient reversal layer: the features get the negated input gradients
    g_fs = -md.mlp_backward(spec_d, params.theta_d, in_ds, g_zsrc, grad_d, add=False)
    g_ft = -md.mlp_backward(spec_d, params.theta_d, in_dt, g_ztgt, grad_d)
    g_fs += md.mlp_backward(spec_c, params.theta_c, in_cs, g_zs, grad_c, add=False)
    l_e = unknown.result()
    source = lanes.submit(md.mlp_backward, spec_g, params.theta_g, in_gs, g_fs, lanes.ext_s,
                          False, False)
    md.mlp_backward(spec_g, params.theta_g, in_gt, g_ft, grad_g, wrt_input=False)  # u + t
    source.result()
    # the extractor's (u + t) + s, then the classifier's s + u
    for acc, part in zip(grad_g + grad_c, lanes.ext_s + lanes.clf_u):
        acc += part

    total = -lw.lambda_d * l_d + lw.lambda_e * l_e + lw.lambda_c * l_c
    grads = dict(zip(params.groups(), (grad_g, grad_c, grad_d)))
    return StepResult(grad, grads, l_d, l_e, l_c, total, w)
