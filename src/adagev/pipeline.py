"""End-to-end training, inference, evaluation, and ablations.

The training loop draws a source-known / source-unknown / target batch
triple each iteration, applies the joint saddle-point gradient step, and
after the final epoch fits a GEV to the tail of the source entropy
distribution. Inference rejects a target sample as unknown when the
fitted CDF of its prediction entropy exceeds 0.5, i.e. when the entropy
exceeds tau (the GEV median), otherwise takes the argmax class. Every
rejector, the ablations' included, is a per-row score against a threshold
through one ``predict``. Every pass over a pool (the epoch log's source
entropies, the binary head's source features, the target passes of eval and
the ablations) runs in row blocks sized by the networks' multiply-adds per
row (``_row_blocks``); when BLAS is pinned to fewer threads than there are
usable CPUs, the blocks run at once on the idle cores. The block layout
depends only on the row count and the widths, so the worker count changes
no bit. The layout itself can change the last bits of a probability,
because BLAS chooses its kernel, and so its rounding, by a product's shape:
a prediction then changes only where an entropy lies within rounding of
the threshold, and a source pool of 2b rows or more (two blocks) can give
log entropies and a GEV whose last bits differ from one unblocked pass's.
Training uses an idle core the same way when its extractor passes are
large enough to pay for the hand-offs (``LANE_MIN_MADDS``): each step runs
the source-unknown batch's chain, then the source batch's extractor
backward, on one worker thread (``objective.Lanes``). The gradients are
still summed in the graph's order (the extractor's target + unknown +
source, the classifier's unknown + source, the discriminator's source +
target), so the worker count changes no bit of a checkpoint or a log
either.
Evaluation reports OS (macro recall over K+1 classes), OS* (over the K
known classes), and UNK recall.
"""

from __future__ import annotations

import math
import os
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
# The multiply-adds an inference row block is sized to, and the fewest rows
# it may have. On 2 cores with one BLAS thread, a 1,400-row pass of the
# 784-wide net (hidden 512,256; 533,504 multiply-adds a row) took 48.3 ms
# as one block, 25.3 ms as two blocks of 700 rows (this size), 29.7 ms as
# five of 280 and 32.5 ms as 21 of about 66: BLAS packs each weight once
# per product. With BLAS on both cores and the blocks serial, it took
# 26.7, 26.6, 27.9 and 33.8 ms. Nets of up to 2^16 multiply-adds a row
# (the criterion-8 one has 8,704) keep INFER_BLOCK_ROWS-row blocks.
INFER_BLOCK_MADDS = 2 ** 28
INFER_MIN_BLOCK_ROWS = 256
ADAM_BLOCK = 2 ** 14
# The multiply-adds of one extractor pass (batch x sum of fan_in*fan_out)
# from which a training step runs its second lane on a worker thread. On 2
# cores with one BLAS thread, the lane made the step 26-32% slower at
# 1.1-1.8M (1.1M is the criterion-8 config), broke even at 2.2-2.6M, and
# made it 7-32% faster at 3.5-5.2M and 41% faster at 68M (784-wide input,
# hidden 512,256).
LANE_MIN_MADDS = 2 ** 22


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
    """Adam over one flat vector, updated in place in blocks of ADAM_BLOCK
    values through three reused block buffers.

    A block whose squared gradient overflows raises NonFiniteError after
    the blocks before it (and its own m and v) have been updated, so the
    parameters and moments are partly stepped; ``train`` and the binary
    head discard them on that error.
    """

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self.t = None, None, 0

    def step(self, p: np.ndarray, g: np.ndarray):
        if self.m is None:
            self.m, self.v = np.zeros_like(p), np.zeros_like(p)
            n = min(len(p), ADAM_BLOCK)
            self._num, self._den, self._finite = np.empty(n), np.empty(n), np.empty(n, bool)
        self.t += 1
        bias1, bias2 = 1 - self.beta1 ** self.t, 1 - self.beta2 ** self.t
        # In place, with the operands of m = b1*m + (1-b1)*g,
        # v = b2*v + (1-b2)*g*g and p -= lr*m_hat / (sqrt(v_hat) + eps)
        # combined in that order, so every value is the same bit for bit.
        for lo in range(0, len(p), ADAM_BLOCK):
            hi = lo + ADAM_BLOCK
            m, v, gb, pb = self.m[lo:hi], self.v[lo:hi], g[lo:hi], p[lo:hi]
            num, den, finite = self._num[:len(pb)], self._den[:len(pb)], self._finite[:len(pb)]
            m *= self.beta1
            np.multiply(1 - self.beta1, gb, out=num)
            m += num
            v *= self.beta2
            with np.errstate(over="ignore"):  # a gradient above ~4e155 overflows (1-b2)*g*g
                np.multiply(1 - self.beta2, gb, out=num)
                num *= gb
                v += num
                np.divide(v, bias2, out=den)
            if not np.isfinite(den, out=finite).all():
                raise ad.NonFiniteError("optimizer: squared gradient overflowed")
            np.divide(m, bias1, out=num)
            num *= self.lr
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            pb -= num


class _SgdMomentum:
    def __init__(self, lr, momentum=0.9):
        self.lr, self.momentum = lr, momentum
        self.buf = None

    def step(self, p: np.ndarray, g: np.ndarray):
        if self.buf is None:
            self.buf = np.zeros_like(p)
        self.buf[:] = self.momentum * self.buf + g
        p -= self.lr * self.buf


def _make_optimizer(tc: TrainConfig):
    if tc.optimizer == "adam":
        return _Adam(tc.learning_rate)
    return _SgdMomentum(tc.learning_rate)


def fit_rejector(entropies: np.ndarray, tail: evt.TailConfig, seed: int = 0) -> evt.GevParams:
    """Fit the GEV to the extracted tail of the last epoch's source entropies."""
    try:
        return evt.fit_gev_mle(evt.extract_tail(entropies, tail, rng_seed=seed))
    except evt.FitError as e:
        raise evt.FitError(f"GEV fit of the {len(entropies)} last-epoch source entropies "
                           f"failed: {e}") from e


def train(pool: dt.DatasetPool, specs, tc: TrainConfig) -> TrainResult:
    """Run the training loop, then fit the GEV rejector.

    ``specs`` is the (spec_g, spec_c, spec_d) triple. One epoch makes
    ceil(|source_known| / B) iterations. Emits one log record per epoch. A
    source pool too small for the tail the GEV is fitted to is a DataError
    before the first step; a step that diverges to non-finite values raises
    NonFiniteError naming its epoch and iteration. When one extractor pass
    costs at least LANE_MIN_MADDS multiply-adds and a second core is free
    (``_infer_workers``), the steps share one worker thread, opened for the
    whole training and closed on any exit; otherwise they run inline. Either
    way the step sums its products in the graph's order, so the result is
    the same bit for bit.
    """
    spec_g, spec_c, spec_d = specs
    with_unknown = tc.tail_config.source_pool == "known_plus_unknown"
    n_tail = len(pool.source_known_x) + (len(pool.source_unknown_x) if with_unknown else 0)
    try:
        evt.tail_size(n_tail, tc.tail_config)
    except evt.FitError as e:
        raise dt.DataError(f"the {n_tail} source rows cannot give a GEV tail: {e}") from e
    root = np.random.SeedSequence(tc.seed)
    init_seed, sample_seed, tail_seed = (s.generate_state(1)[0] for s in root.spawn(3))
    params = md.init_params(spec_g, spec_c, spec_d, int(init_seed))
    rng = np.random.default_rng(int(sample_seed))
    optimizer = _make_optimizer(tc)
    need_aux = tc.weight_config.z_mode != "same_batch"

    iters = math.ceil(len(pool.source_known_x) / tc.batch_size)
    log = []
    epoch = it = 0
    executor = None
    if tc.batch_size * spec_g.madds >= LANE_MIN_MADDS and _infer_workers(2) > 1:
        from concurrent.futures import ThreadPoolExecutor
        executor = ThreadPoolExecutor(1)
    try:
        lanes = obj.Lanes(specs, executor)
        for epoch in range(1, tc.epochs + 1):
            stats = {"L_d": 0.0, "L_e": 0.0, "L_c": 0.0, "total": 0.0,
                     "mean_weight": 0.0, "max_weight": 0.0}
            for it in range(1, iters + 1):
                batch = dt.sample_batch_triple(pool, tc.batch_size, rng, with_aux=need_aux)
                step = obj.total_step_gradients(batch, params, tc.loss_weights, tc.weight_config,
                                                lanes)
                optimizer.step(params.flat, step.grad)
                stats["L_d"] += step.loss_d
                stats["L_e"] += step.loss_e
                stats["L_c"] += step.loss_c
                stats["total"] += step.total
                stats["mean_weight"] += step.weights.mean()
                stats["max_weight"] += step.weights.max()
                del step  # so the next step's gradient is the only one alive
            h_known, h_unknown = (_forward_blocks(params, x, lambda _, probs: obj.entropy(probs))
                                  for x in (pool.source_known_x, pool.source_unknown_x))
            log.append({"epoch": epoch,
                        **{k: v / iters for k, v in stats.items()},
                        "mean_known_entropy": float(h_known.mean()),
                        "mean_unknown_entropy": float(h_unknown.mean())})
    except ad.NonFiniteError as e:
        raise ad.NonFiniteError(f"training diverged at epoch {epoch}, iteration {it}: {e}") from e
    finally:
        if executor is not None:
            executor.shutdown()

    # the last epoch's entropies come from the final parameters
    h_tail = np.concatenate([h_known, h_unknown]) if with_unknown else h_known
    gev = fit_rejector(h_tail, tc.tail_config, seed=int(tail_seed))
    return TrainResult(params, gev, log)


def predict(probs: np.ndarray, scores: np.ndarray, threshold: float) -> np.ndarray:
    """The argmax class of each row, or UNKNOWN (-1) where its score exceeds threshold.

    Ties in the argmax break toward the lowest class index.
    """
    return np.where(scores > threshold, UNKNOWN, probs.argmax(axis=1))


def _infer_workers(blocks: int) -> int:
    """How many row blocks inference runs at once: min(blocks, usable CPUs //
    BLAS threads). ``train`` runs its second lane when this is above 1 for
    two blocks.

    The BLAS thread count is OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS. Unset
    or unparsable, BLAS already takes every core, and more workers would only
    compete with its threads for them, so inference stays serial.
    """
    try:
        blas = int(os.environ.get("OPENBLAS_NUM_THREADS") or os.environ["OMP_NUM_THREADS"])
    except (KeyError, ValueError):
        return 1
    if blas < 1:  # OpenBLAS reads 0 and below as unset
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(blocks, cpus // blas))


def _row_blocks(x: np.ndarray, madds: int) -> list[np.ndarray]:
    """``x`` in the row blocks that inference runs, for nets of ``madds``
    multiply-adds a row.

    A block is sized by multiply-adds: b = ceil(INFER_BLOCK_MADDS / madds)
    rows, held between INFER_MIN_BLOCK_ROWS and INFER_BLOCK_ROWS. Every
    block has b to 2b-1 rows (fewer than 2b rows are one block), so the
    temporaries stay small and there is no short tail block. The layout
    depends only on the row count and ``madds``, never on the worker count.
    """
    rows = min(INFER_BLOCK_ROWS, max(INFER_MIN_BLOCK_ROWS, -(-INFER_BLOCK_MADDS // madds)))
    return np.array_split(x, max(len(x) // rows, 1))


def _map_blocks(fn, params: md.ModelParams, x: np.ndarray) -> list:
    """``fn`` of each row block of ``x``, in block order. The blocks are
    ``_row_blocks`` for the extractor's and the classifier's multiply-adds.
    Every pass over a pool goes through here: the epoch log, the binary
    head's features, eval and the ablations.

    Several blocks run on a thread pool of ``_infer_workers`` threads, opened
    and closed within the call; numpy releases the GIL in matmul and ufuncs,
    so they run at the same time. Each block computes the same values on any
    thread, so the worker count changes no bit, and the first failing block
    in order raises its error. ``concurrent.futures`` is imported only for a
    pool, so serial runs start without it.
    """
    blocks = _row_blocks(np.atleast_2d(x), params.spec_g.madds + params.spec_c.madds)
    # one block skips the rule: its reads cost a 1k-row evaluate about 2%
    workers = _infer_workers(len(blocks)) if len(blocks) > 1 else 1
    if workers == 1:
        return [fn(block) for block in blocks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as executor:
        return list(executor.map(fn, blocks))


def _forward_blocks(params: md.ModelParams, x: np.ndarray, fn) -> np.ndarray:
    """``fn(features, probabilities)`` of each row block of ``x``
    (``_map_blocks``), concatenated in block order."""
    def block_fn(block):
        feats = md.forward_features(params, block)
        return fn(feats, md.forward_classifier(params, feats))
    return np.concatenate(_map_blocks(block_fn, params, x))


def _predict_blocks(params: md.ModelParams, x: np.ndarray, tau: float) -> np.ndarray:
    """``predict`` of the classifier's entropies against tau, over row blocks."""
    return _forward_blocks(params, x, lambda _, probs: predict(probs, obj.entropy(probs), tau))


def infer_batch(params: md.ModelParams, gev: evt.GevParams, x: np.ndarray) -> np.ndarray:
    """Predictions for a batch of samples, rejecting above the GEV median."""
    return _predict_blocks(params, x, evt.rejection_threshold(gev))


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
    flat, (theta,) = md.init_vector((spec,), np.random.default_rng(seed))
    grad, (grads,) = md.layout((spec,))
    optimizer = _Adam(lr)
    for _ in range(steps):
        inputs = []
        z = md.mlp_forward(spec, theta, features, inputs)
        md.mlp_backward(spec, theta, inputs, obj.loss_binary(z, labels)[1], grads, add=False,
                        wrt_input=False)
        optimizer.step(flat, grad)
    return spec, theta


def _ablation_preds(variant: str, result: TrainResult, pool: dt.DatasetPool, seed: int,
                    hard_threshold: float | None) -> np.ndarray:
    """One variant's target predictions from the model it trained: its
    rejector's per-row score against its threshold."""
    params = result.params
    if variant == "no_evt_binary":
        sources = (pool.source_known_x, pool.source_unknown_x)
        feats = np.concatenate([f for x in sources for f in _map_blocks(
            lambda block: md.forward_features(params, block), params, x)])
        labels = np.repeat([0.0, 1.0], [len(x) for x in sources])
        spec, theta = _train_binary_head(feats, labels, seed=seed)
        return _forward_blocks(params, pool.target_x, lambda feats, probs: predict(
            probs, md.mlp_forward(spec, theta, feats)[:, 0], 0.5))
    if variant != "hard_threshold":
        return infer_batch(params, result.gev, pool.target_x)
    tau = 0.5 * np.log(params.num_classes) if hard_threshold is None else hard_threshold
    return _predict_blocks(params, pool.target_x, tau)


def run_ablations(pool: dt.DatasetPool, specs, tc: TrainConfig, variants,
                  hard_threshold: float | None = None
                  ) -> dict[str, tuple[EvalReport, TrainResult]]:
    """The report and the trained model of each of ``variants``.

    full: the complete method. no_reweight: uniform target weights.
    no_evt_binary: a binary known/unknown head, trained post hoc on frozen
    source features, replaces the GEV rejector. hard_threshold: reject when
    entropy exceeds a fixed threshold (default 0.5*log K); ``hard_threshold``
    without that variant is a ValueError, since nothing would read it. Only
    no_reweight changes the training, so training runs once per distinct
    weighting.
    """
    if not set(variants) <= set(ABLATION_VARIANTS):
        raise ValueError(f"variant must be one of {ABLATION_VARIANTS}")
    if hard_threshold is not None and not np.isfinite(hard_threshold):
        raise ValueError(f"hard_threshold must be finite, got {hard_threshold}")
    if hard_threshold is not None and "hard_threshold" not in variants:
        raise ValueError(f"a hard threshold (ablate --tau) is read only by the hard_threshold "
                         f"variant, not by {', '.join(variants)}")
    uniform = obj.WeightConfig("uniform", tc.weight_config.z_mode)
    trained, out = {}, {}
    for variant in variants:
        weights = uniform if variant == "no_reweight" else tc.weight_config
        if weights not in trained:
            trained[weights] = train(pool, specs, replace(tc, weight_config=weights))
        result = trained[weights]
        preds = _ablation_preds(variant, result, pool, tc.seed, hard_threshold)
        out[variant] = (compute_report(pool.eval_target_roles(), preds,
                                       result.params.num_classes), result)
    return out
