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
batch's chain can run on a second lane, a one-worker executor, because only
the gradient sums join it to the other batches. The sums are still formed
in the graph's order: the extractor's target + unknown + source, the
classifier's unknown + source and the discriminator's source + target.

Per-target instance weights are exp(-H)/Z in the default weight mode,
``neg_entropy``: high-entropy (likely unknown) target samples get
down-weighted so they are not force-aligned with the source. The weight
mode ``uniform`` disables reweighting entirely (the no_reweight ablation).
The mode is a plain string, one of WEIGHT_MODES. Weights are always
gradient-detached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as md

WEIGHT_MODES = ("neg_entropy", "uniform")


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


def entropy(probs: np.ndarray) -> np.ndarray:
    """Per-row entropy of a probability matrix, as plain values."""
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6) or np.any(probs < -1e-12):
        raise ValueError("rows must be probability vectors (sum 1 within 1e-6)")
    return -np.sum(probs * np.log(np.maximum(probs, ad.LOG_CLAMP)), axis=1)


def batch_weights(entropies: np.ndarray, weight_mode: str) -> np.ndarray:
    """Instance weights w_i = u_i / Z over a target batch.

    u_i is exp(-H_i) in neg_entropy mode and 1 in uniform mode, and Z sums
    u over the same batch, so the weights sum to one. A ``weight_mode``
    outside WEIGHT_MODES is a ValueError.
    """
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
    h = np.asarray(entropies, dtype=np.float64)
    if h.size < 1:
        raise ValueError("empty batch")
    u = np.exp(-h) if weight_mode == "neg_entropy" else np.ones_like(h)
    z = u.sum()
    if z <= 0:
        raise ValueError("partition function underflow: all unnormalized weights zero")
    return u / z


def loss_domain(z_src, z_tgt, w: np.ndarray, *,
                scale: float = 1.0) -> tuple[float, np.ndarray, np.ndarray]:
    """Adversarial domain loss on the discriminator's logits:
    E log d(src) + sum_j w_j log(1 - d(tgt)_j), with d = sigmoid(z).

    Low when the discriminator separates the domains correctly. The
    discriminator minimizes this; the feature extractor maximizes it. The
    weights must be nonnegative and sum to one. Returns the loss and
    ``scale`` times its gradients with respect to ``z_src`` and ``z_tgt``,
    scale*sigmoid(-z_src)/B and -scale*w*sigmoid(z_tgt); the weights get
    none.
    """
    z_src = np.asarray(z_src, dtype=np.float64)
    z_tgt = np.asarray(z_tgt, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("target weights must be finite and nonnegative")
    if abs(w.sum() - 1.0) > 1e-6:
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


def total_step_gradients(batch, params: md.ModelParams, lw: LossWeights,
                         weight_mode: str, executor=None) -> StepResult:
    """One joint gradient evaluation of the saddle-point objective.

    The gradients of J = lambda_d * L_d(with GRL) + lambda_e * L_e +
    lambda_c * L_c, from one fused forward and backward pass, with the
    target weights of ``weight_mode`` (``batch_weights``). The reversal
    layer negates the gradient the discriminator hands back to the features,
    which realizes the routing contract: theta_d descends lambda_d*L_d,
    theta_g descends -lambda_d*L_d + lambda_e*L_e + lambda_c*L_c, and
    theta_c descends lambda_e*L_e + lambda_c*L_c.

    The source-unknown batch enters only L_e, so its chain (extractor and
    classifier forward, L_e, classifier and extractor backward) runs on a
    second lane while this thread runs the source and target forwards, the
    weights, L_d, L_c and the discriminator's and the source classifier's
    backward. Then the lane runs the source batch's extractor backward while
    this thread runs the target's. The lane is ``executor``, a one-worker
    ``concurrent.futures`` executor, or, without one, the calling thread at
    once: the same code, so the same bits. The sums are formed in the
    graph-built step's order: extractor t + u + s, classifier u + s,
    discriminator s + t. Addition of two values commutes, so the unknown
    pass may write the extractor's gradient and the target pass add to it;
    the two products that would land out of order, the source batch's
    extractor gradient and the unknown batch's classifier gradient, wait in
    buffers of this step and are added last. So every value equals that
    step's bit for bit, and a failure raises the error that the graph's
    order of checks reaches first.
    """
    spec_g, spec_c, spec_d = params.spec_g, params.spec_c, params.spec_d
    submit = _Inline if executor is None else executor.submit
    # each network's first pass writes its gradients, the later ones add to them
    grad = np.empty_like(params.flat)
    _, (grad_g, grad_c, grad_d) = md.layout(params.specs, grad)
    ext_s, clf_u = (tuple(map(np.empty_like, views)) for views in (grad_g, grad_c))

    def forward(spec, group, x):
        inputs = []
        return md.mlp_forward(spec, group, x, inputs), inputs

    def unknown_chain(features):
        feat_u, in_gu = features.result()
        logits_u, in_cu = forward(spec_c, params.theta_c, feat_u)
        l_e, g_zu = loss_entropy_unknown(logits_u, scale=lw.lambda_e)
        g_fu = md.mlp_backward(spec_c, params.theta_c, in_cu, g_zu, clf_u, add=False)
        md.mlp_backward(spec_g, params.theta_g, in_gu, g_fu, grad_g, add=False, wrt_input=False)
        return l_e

    features_u = submit(forward, spec_g, params.theta_g, batch.unknown_x)
    unknown = submit(unknown_chain, features_u)
    try:
        feat_s, in_gs = forward(spec_g, params.theta_g, batch.source_x)
        feat_t, in_gt = forward(spec_g, params.theta_g, batch.target_x)

        # detached: the weights carry no gradient
        h_t = entropy(md.softmax(forward(spec_c, params.theta_c, feat_t)[0])[0])
        w = batch_weights(h_t, weight_mode)

        z_src, in_ds = forward(spec_d, params.theta_d, feat_s)
        z_tgt, in_dt = forward(spec_d, params.theta_d, feat_t)
        l_d, g_zsrc, g_ztgt = loss_domain(z_src, z_tgt, w, scale=lw.lambda_d)
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
    source = submit(md.mlp_backward, spec_g, params.theta_g, in_gs, g_fs, ext_s, False, False)
    md.mlp_backward(spec_g, params.theta_g, in_gt, g_ft, grad_g, wrt_input=False)  # u + t
    source.result()
    # the extractor's (u + t) + s, then the classifier's s + u
    for acc, part in zip(grad_g + grad_c, ext_s + clf_u):
        acc += part

    total = -lw.lambda_d * l_d + lw.lambda_e * l_e + lw.lambda_c * l_c
    grads = dict(zip(params.groups(), (grad_g, grad_c, grad_d)))
    return StepResult(grad, grads, l_d, l_e, l_c, total, w)
