"""Generalized extreme value distribution and the unknown-rejection rule.

Provides the GEV density/CDF in the unified (location, scale, shape)
parameterization with a Gumbel code path near shape zero, inverse-CDF
sampling, tail extraction from entropy samples (block maxima or top
fraction), maximum-likelihood fitting via Nelder-Mead over
(l, log s, c), and the rejection threshold for target samples. The rule
CDF(h) > 0.5 is the same as h > tau, with tau the GEV median, because
the CDF is monotone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GUMBEL_EPS = 1e-6
EULER_GAMMA = 0.5772156649015329
MIN_TAIL = 30  # the fewest tail values a GEV is fitted to


class FitError(ValueError):
    """Degenerate input or infeasible likelihood."""


@dataclass(frozen=True)
class GevParams:
    """Finite location l, scale s > 0 and shape c. |c| < 1e-6 uses the Gumbel limit."""

    l: float
    s: float
    c: float

    def __post_init__(self):
        if not np.isfinite(self.l):
            raise ValueError(f"location must be finite, got {self.l}")
        if not (np.isfinite(self.s) and self.s > 0):
            raise ValueError(f"scale must be positive and finite, got {self.s}")
        if not np.isfinite(self.c):
            raise ValueError("shape must be finite")


@dataclass(frozen=True)
class TailConfig:
    """How to turn raw entropy samples into the GEV fitting sample."""

    method: str = "block_maxima"
    block_size: int = 20
    fraction: float = 0.1
    source_pool: str = "known_only"

    def __post_init__(self):
        if self.method not in ("block_maxima", "top_fraction"):
            raise ValueError(f"unknown tail method {self.method!r}")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if not 0 < self.fraction < 1:
            raise ValueError("fraction must lie in (0,1)")
        if self.source_pool not in ("known_only", "known_plus_unknown"):
            raise ValueError(f"unknown source_pool {self.source_pool!r}")


def gev_t(x, p: GevParams):
    """The kernel t(x) = (1 + c(x-l)/s)^(-1/c); exp(-(x-l)/s) in the Gumbel limit.

    Outside the support: +inf below the lower endpoint (c > 0), 0 above
    the upper endpoint (c < 0).
    """
    x = np.asarray(x, dtype=np.float64)
    # a tiny s overflows z and c*z to +-inf, where t is 0 or inf
    with np.errstate(divide="ignore", over="ignore"):
        z = (x - p.l) / p.s
        if abs(p.c) < GUMBEL_EPS:
            t = np.exp(-z)
        else:
            base = 1.0 + p.c * z
            t = np.where(base > 0, np.power(np.maximum(base, 1e-300), -1.0 / p.c),
                         np.inf if p.c > 0 else 0.0)
    return t if t.ndim else float(t)


def gev_pdf(x, p: GevParams):
    """Density t^(1+c) * exp(-t) / s; zero outside the support."""
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(gev_t(x, p), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if abs(p.c) < GUMBEL_EPS:
            d = t * np.exp(-t) / p.s
        else:
            d = np.where(np.isfinite(t) & (t > 0),
                         np.power(np.where(t > 0, t, 1.0), 1.0 + p.c) * np.exp(-np.minimum(t, 700.0)) / p.s,
                         0.0)
    d = np.where(np.isfinite(d), d, 0.0)
    return d if d.ndim else float(d)


def gev_cdf(x, p: GevParams):
    """CDF exp(-t(x)); monotone nondecreasing in x."""
    t = np.asarray(gev_t(x, p), dtype=np.float64)
    out = np.exp(-t)
    return out if out.ndim else float(out)


def gev_quantile(u, p: GevParams):
    """Inverse CDF: l + s((-ln u)^(-c) - 1)/c; l - s ln(-ln u) in the Gumbel limit."""
    if abs(p.c) < GUMBEL_EPS:
        return p.l - p.s * np.log(-np.log(u))
    return p.l + p.s * (np.power(-np.log(u), -p.c) - 1.0) / p.c


def rejection_threshold(p: GevParams) -> float:
    """The GEV median tau: CDF(h) > 0.5 exactly when h > tau."""
    return float(gev_quantile(0.5, p))


def gev_sample(p: GevParams, n: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampling, deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return gev_quantile(rng.uniform(size=n), p)


def tail_size(n_values: int, tc: TailConfig) -> int:
    """How many of ``n_values`` values ``extract_tail`` keeps; FitError when
    that is fewer than MIN_TAIL, so a caller can check before it has them."""
    if tc.method == "block_maxima":
        k = n_values // tc.block_size
        if k < MIN_TAIL:
            raise FitError(f"block_maxima needs >= {MIN_TAIL} blocks, got {k} "
                           f"({n_values} values, block size {tc.block_size})")
        return k
    k = int(np.ceil(tc.fraction * n_values))
    if k < MIN_TAIL:
        raise FitError(f"top_fraction retains {k} values, needs >= {MIN_TAIL}")
    return k


def extract_tail(entropies, tc: TailConfig, rng_seed: int = 0) -> np.ndarray:
    """Reduce raw entropy values to the sample the GEV is fitted on.

    block_maxima: deterministic shuffle, partition into blocks of
    ``block_size``, keep each block's maximum (remainder dropped).
    top_fraction: keep the ceil(q*N) largest values.
    """
    values = np.asarray(entropies, dtype=np.float64)
    k = tail_size(values.size, tc)
    if tc.method == "block_maxima":
        rng = np.random.default_rng(rng_seed)
        shuffled = rng.permutation(values)[: k * tc.block_size]
        return shuffled.reshape(k, tc.block_size).max(axis=1)
    return np.sort(values)[-k:]


def _gev_at(l, log_s, c) -> GevParams:
    """The GEV at the optimizer's point (l, log s, c); a ValueError where that
    point is not a valid GEV, an overflowing scale included."""
    with np.errstate(over="ignore"):
        s = np.exp(log_s)
    return GevParams(float(l), float(s), float(c))


def _negative_log_likelihood(values: np.ndarray):
    def nll(theta):
        l, log_s, c = theta
        try:
            p = _gev_at(l, log_s, c)
        except ValueError:
            return np.inf
        dens = np.asarray(gev_pdf(values, p))
        if np.any(dens <= 0):
            return np.inf  # a value outside the support: infeasible
        return -np.sum(np.log(dens))

    return nll


def fit_gev_mle(values) -> GevParams:
    """Maximum-likelihood GEV fit via Nelder-Mead over (l, log s, c).

    Moment-based Gumbel init: s0 = sqrt(6)*std/pi, l0 = mean - gamma*s0,
    c0 = 0.1. Log-parameterizing the scale keeps it positive; points with
    any observation outside the support score -inf likelihood. scipy is
    imported here, not at module load, so the commands that fit nothing
    start without it.
    """
    from scipy.optimize import minimize

    values = np.asarray(values, dtype=np.float64)
    if values.size < MIN_TAIL:
        raise FitError(f"need >= {MIN_TAIL} values to fit, got {values.size}")
    std = values.std(ddof=1)
    if std <= 1e-12:
        raise FitError("zero-variance input")
    s0 = np.sqrt(6.0) * std / np.pi
    x0 = np.array([values.mean() - EULER_GAMMA * s0, np.log(s0), 0.1])
    nll = _negative_log_likelihood(values)
    if not np.isfinite(nll(x0)):
        x0[2] = 0.0  # Gumbel start is always feasible
    res = minimize(nll, x0, method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000, "maxfev": 4000})
    if not np.isfinite(res.fun):
        raise FitError("no feasible point found")
    try:
        return _gev_at(*res.x)
    except ValueError as e:
        raise FitError(f"the fit ended at an invalid point: {e}") from e

