"""End-to-end training, inference, evaluation, and ablations.

The training loop draws a source-known / source-unknown / target batch
triple each iteration, applies the joint saddle-point gradient step, and
after the final epoch fits a GEV to the tail of the source entropy
distribution. Inference rejects a target sample as unknown when the
fitted CDF of its prediction entropy exceeds 0.5, i.e. when the entropy
exceeds tau (the GEV median), otherwise takes the argmax class. Evaluation reports OS (macro recall over K+1 classes),
OS* (over the K known classes), and UNK recall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import data as dt
from . import evt
from . import model as md
from . import objective as obj

UNKNOWN = dt.UNKNOWN_ROLE
ABLATION_VARIANTS = ("full", "no_reweight", "no_evt_binary", "hard_threshold")
INFER_BLOCK_ROWS = 4096


class NumericalError(RuntimeError):
    """Training diverged (non-finite values in the training step)."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    loss_weights: obj.LossWeights = field(default_factory=obj.LossWeights)
    weight_config: obj.WeightConfig = field(default_factory=obj.WeightConfig)
    tail_config: evt.TailConfig = field(default_factory=evt.TailConfig)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or not 0 <= self.learning_rate < np.inf:
            raise ValueError("need epochs >= 1, batch_size >= 1, finite learning_rate >= 0")
        if self.optimizer not in ("adam", "sgd_momentum"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass(frozen=True)
class AblationMode:
    variant: str = "full"
    hard_threshold: float | None = None  # defaults to 0.5*log(K) when used

    def __post_init__(self):
        if self.variant not in ABLATION_VARIANTS:
            raise ValueError(f"variant must be one of {ABLATION_VARIANTS}")
        if self.hard_threshold is not None and not np.isfinite(self.hard_threshold):
            raise ValueError(f"hard_threshold must be finite, got {self.hard_threshold}")


@dataclass
class EvalReport:
    """Confusion matrix over K+1 classes (last row/column = unknown) with
    the macro-recall metrics. Classes absent from the target are excluded
    from the averages and listed in excluded_classes."""

    confusion: np.ndarray
    recalls: list[float | None]
    os_score: float
    os_star: float
    unk_recall: float | None
    sample_count: int
    excluded_classes: list[int]

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
            "recalls": self.recalls,
            "OS": self.os_score,
            "OS_star": self.os_star,
            "UNK": self.unk_recall,
            "sample_count": self.sample_count,
            "excluded_classes": self.excluded_classes,
        }


@dataclass
class TrainResult:
    params: md.ModelParams
    gev: evt.GevParams
    log: list[dict]


class _Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self.t = None, None, 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        bias1, bias2 = 1 - self.beta1 ** self.t, 1 - self.beta2 ** self.t
        # In place, with the operands of m = b1*m + (1-b1)*g,
        # v = b2*v + (1-b2)*g*g and p -= lr*m_hat / (sqrt(v_hat) + eps)
        # combined in that order, so every value is the same bit for bit.
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            gg = (1 - self.beta2) * g
            gg *= g
            v += gg
            step = m / bias1
            step *= self.lr
            den = v / bias2
            np.sqrt(den, out=den)
            den += self.eps
            step /= den
            p -= step


class _SgdMomentum:
    def __init__(self, lr, momentum=0.9):
        self.lr, self.momentum = lr, momentum
        self.buf = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        if self.buf is None:
            self.buf = [np.zeros_like(p) for p in params]
        for p, g, b in zip(params, grads, self.buf):
            b[:] = self.momentum * b + g
            p -= self.lr * b


def _make_optimizer(tc: TrainConfig):
    if tc.optimizer == "adam":
        return _Adam(tc.learning_rate)
    return _SgdMomentum(tc.learning_rate)


def fit_rejector(entropies: np.ndarray, tail: evt.TailConfig, seed: int = 0) -> evt.GevParams:
    """Fit the GEV to the extracted tail of the source entropy distribution."""
    return evt.fit_gev_mle(evt.extract_tail(entropies, tail, rng_seed=seed))


def train(pool: dt.DatasetPool, specs, tc: TrainConfig) -> TrainResult:
    """Run the training loop, then fit the GEV rejector.

    ``specs`` is the (spec_g, spec_c, spec_d) triple. One epoch makes
    ceil(|source_known| / B) iterations. Emits one log record per epoch.
    """
    spec_g, spec_c, spec_d = specs
    root = np.random.SeedSequence(tc.seed)
    init_seed, sample_seed, tail_seed = (s.generate_state(1)[0] for s in root.spawn(3))
    params = md.init_params(spec_g, spec_c, spec_d, int(init_seed))
    rng = np.random.default_rng(int(sample_seed))
    optimizer = _make_optimizer(tc)
    need_aux = tc.weight_config.z_mode != "same_batch"

    flat_params = params.theta_g + params.theta_c + params.theta_d
    iters = math.ceil(len(pool.source_known_x) / tc.batch_size)
    log = []
    epoch = it = 0
    try:
        for epoch in range(1, tc.epochs + 1):
            stats = {"L_d": 0.0, "L_e": 0.0, "L_c": 0.0, "total": 0.0,
                     "mean_weight": 0.0, "max_weight": 0.0}
            for it in range(1, iters + 1):
                batch = dt.sample_batch_triple(pool, tc.batch_size, rng, with_aux=need_aux)
                step = obj.total_step_gradients(batch, params, tc.loss_weights, tc.weight_config)
                flat_grads = step.grads["theta_g"] + step.grads["theta_c"] + step.grads["theta_d"]
                optimizer.step(flat_params, flat_grads)
                stats["L_d"] += step.loss_d
                stats["L_e"] += step.loss_e
                stats["L_c"] += step.loss_c
                stats["total"] += step.total
                stats["mean_weight"] += step.weights.mean()
                stats["max_weight"] += step.weights.max()
            h_known = obj.entropy(md.forward_classifier(
                params, md.forward_features(params, pool.source_known_x)))
            h_unknown = obj.entropy(md.forward_classifier(
                params, md.forward_features(params, pool.source_unknown_x)))
            log.append({"epoch": epoch,
                        **{k: v / iters for k, v in stats.items()},
                        "mean_known_entropy": float(h_known.mean()),
                        "mean_unknown_entropy": float(h_unknown.mean())})
    except ad.NonFiniteError as e:
        raise NumericalError(f"training diverged at epoch {epoch}, iteration {it}: {e}") from e

    # the last epoch's entropies come from the final parameters; entropy is row-wise
    if tc.tail_config.source_pool == "known_plus_unknown":
        h_known = np.concatenate([h_known, h_unknown])
    gev = fit_rejector(h_known, tc.tail_config, seed=int(tail_seed))
    return TrainResult(params, gev, log)


def predict(probs: np.ndarray, tau: float) -> np.ndarray:
    """The argmax class of each row, or UNKNOWN (-1) where its entropy exceeds tau.

    Ties in the argmax break toward the lowest class index.
    """
    return np.where(obj.entropy(probs) > tau, UNKNOWN, probs.argmax(axis=1))


def _predict_blocks(params: md.ModelParams, x: np.ndarray, tau: float) -> np.ndarray:
    """``predict`` of the classifier's probabilities, computed over row blocks.

    Each block has INFER_BLOCK_ROWS to 2*INFER_BLOCK_ROWS-1 rows (a smaller
    pool is one block), so the temporaries stay small. Rows are independent,
    so blocking changes no prediction. There is no short tail block, because
    BLAS may round a product of a few rows differently from one of many.
    """
    x = np.atleast_2d(x)
    blocks = np.array_split(x, max(len(x) // INFER_BLOCK_ROWS, 1))
    return np.concatenate([
        predict(md.forward_classifier(params, md.forward_features(params, block)), tau)
        for block in blocks])


def infer_batch(params: md.ModelParams, gev: evt.GevParams, x: np.ndarray) -> np.ndarray:
    """Predictions for a batch of samples, rejecting above the GEV median."""
    return _predict_blocks(params, x, evt.rejection_threshold(gev))


def infer(params: md.ModelParams, gev: evt.GevParams, x: np.ndarray) -> int:
    """Single-sample prediction: a known-class index or UNKNOWN."""
    return int(infer_batch(params, gev, np.atleast_2d(x))[0])


def compute_report(true_roles: np.ndarray, preds: np.ndarray, num_known: int) -> EvalReport:
    """Confusion matrix and macro-recall metrics from roles and predictions.

    Roles and predictions use UNKNOWN (-1) for the collapsed unknown
    class; it occupies the last row/column of the matrix.
    """
    k = num_known
    t, p = (np.asarray(a, dtype=np.int64) for a in (true_roles, preds))
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError(f"roles {t.shape} and predictions {p.shape} must be equal-length vectors")
    for a in (t, p):
        if a.size and (a.min() < UNKNOWN or a.max() >= k):
            raise ValueError(f"roles and predictions must lie in [{UNKNOWN}, {k})")
    t, p = (np.where(a == UNKNOWN, k, a) for a in (t, p))
    confusion = np.bincount((k + 1) * t + p, minlength=(k + 1) ** 2).reshape(k + 1, k + 1)

    recalls, included, excluded = [], [], []
    for c in range(k + 1):
        row = confusion[c].sum()
        if row == 0:
            recalls.append(None)
            excluded.append(c)
        else:
            r = confusion[c, c] / row
            recalls.append(float(r))
            included.append(r)
    known_included = [r for c, r in enumerate(recalls[:k]) if r is not None]
    return EvalReport(
        confusion=confusion,
        recalls=recalls,
        os_score=float(np.mean(included)) if included else float("nan"),
        os_star=float(np.mean(known_included)) if known_included else float("nan"),
        unk_recall=recalls[k],
        sample_count=int(confusion.sum()),
        excluded_classes=excluded,
    )


def evaluate(params: md.ModelParams, gev: evt.GevParams, pool: dt.DatasetPool) -> EvalReport:
    """Classify every target sample and score against hidden roles."""
    preds = infer_batch(params, gev, pool.target_x)
    return compute_report(pool.eval_target_roles(), preds,
                          params.num_classes)


def _train_binary_head(features: np.ndarray, labels: np.ndarray, seed: int,
                       steps: int = 300, lr: float = 1e-2):
    """Post-hoc known-vs-unknown head on frozen features: [f,16,1] MLP, BCE."""
    spec = md.MlpSpec((features.shape[1], 16, 1), activation="relu", head="sigmoid")
    rng = np.random.default_rng(seed)
    theta = md.init_group(spec, rng)
    optimizer = _Adam(lr)
    y = labels.astype(np.float64)[:, None]
    for _ in range(steps):
        nodes = md.group_nodes(theta)
        p = md.mlp_graph(spec, nodes, features)
        # BCE: -mean(y log p + (1-y) log(1-p))
        term1 = ad.mul(ad.log_clamped(p), y)
        term2 = ad.mul(ad.log_clamped(ad.add(ad.scale(p, -1.0), 1.0)), 1.0 - y)
        loss = ad.scale(ad.reduce_mean(ad.add(term1, term2)), -1.0)
        ad.backward(loss)
        optimizer.step(theta, [n.grad for n in nodes])
    return spec, theta


def binary_head_predict(spec, theta, features: np.ndarray) -> np.ndarray:
    return md.mlp_forward(spec, theta, features)[:, 0]


def run_ablation(pool: dt.DatasetPool, specs, tc: TrainConfig,
                 mode: AblationMode) -> tuple[EvalReport, TrainResult]:
    """Train and evaluate one model variant.

    full: the complete method. no_reweight: uniform target weights.
    no_evt_binary: replace GEV rejection with a binary known/unknown head
    trained post hoc on frozen source features. hard_threshold: reject
    when entropy exceeds a fixed threshold (default 0.5*log K).
    """
    if mode.variant == "no_reweight":
        tc = replace(tc, weight_config=obj.WeightConfig("uniform", tc.weight_config.z_mode))
    result = train(pool, specs, tc)
    params = result.params
    k = params.num_classes

    if mode.variant == "no_evt_binary":
        feats_known = md.forward_features(params, pool.source_known_x)
        feats_unknown = md.forward_features(params, pool.source_unknown_x)
        feats = np.concatenate([feats_known, feats_unknown])
        labels = np.concatenate([np.zeros(len(feats_known)), np.ones(len(feats_unknown))])
        spec, theta = _train_binary_head(feats, labels, seed=tc.seed)
        tgt_feats = md.forward_features(params, pool.target_x)
        p_unknown = binary_head_predict(spec, theta, tgt_feats)
        probs = md.forward_classifier(params, tgt_feats)
        preds = np.where(p_unknown > 0.5, UNKNOWN, probs.argmax(axis=1))
    else:
        tau = evt.rejection_threshold(result.gev)
        if mode.variant == "hard_threshold":
            tau = mode.hard_threshold if mode.hard_threshold is not None else 0.5 * np.log(k)
        preds = _predict_blocks(params, pool.target_x, tau)
    return compute_report(pool.eval_target_roles(), preds, k), result
