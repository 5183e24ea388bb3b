"""Generalized extreme value distribution and the unknown-rejection rule.

Provides the GEV density/CDF in the unified (location, scale, shape)
parameterization with a Gumbel code path near shape zero, inverse-CDF
sampling, block maxima of entropy samples as the tail (blocks of a plain
``block_size``, ``TrainConfig.tail_block`` in training), maximum-likelihood
fitting via Nelder-Mead over (l, log s, c), and the rejection threshold
for target samples. The rule CDF(h) > 0.5 is the same as h > tau, with
tau the GEV median, because the CDF is monotone.
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


def tail_size(n_values: int, block_size: int) -> int:
    """How many of ``n_values`` values ``extract_tail`` keeps in blocks of
    ``block_size``; FitError when that is fewer than MIN_TAIL, so a caller
    can check before it has them. A block size below 1 is a ValueError."""
    if block_size < 1:
        raise ValueError(f"block_size must be positive, got {block_size}")
    k = n_values // block_size
    if k < MIN_TAIL:
        raise FitError(f"block_maxima needs >= {MIN_TAIL} blocks, got {k} "
                       f"({n_values} values, block size {block_size})")
    return k


def extract_tail(entropies, block_size: int, rng_seed: int = 0) -> np.ndarray:
    """Reduce raw entropy values to the sample the GEV is fitted on: a
    deterministic shuffle, blocks of ``block_size`` (the remainder dropped)
    and each block's maximum.
    """
    values = np.asarray(entropies, dtype=np.float64)
    k = tail_size(values.size, block_size)
    shuffled = np.random.default_rng(rng_seed).permutation(values)[: k * block_size]
    return shuffled.reshape(k, block_size).max(axis=1)


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


class _BudgetSpent(FitError):
    """The function-evaluation budget ran out in the middle of a step.

    ``_nelder_mead`` catches it; it is a FitError so that, like every class
    the package defines, it has an exit code in the CLI.
    """


def _nelder_mead(f, x0, xatol, fatol, maxiter, maxfev):
    """Minimise ``f`` from ``x0`` by Nelder-Mead; (x, fun, iterations, converged).

    A port of scipy's ``minimize(method="Nelder-Mead")`` without bounds or
    adaptive coefficients, with its arithmetic in its order, so x and fun
    equal scipy's bit for bit: the start simplex moves each coordinate by 5%
    (0.00025 where it is 0), the vertices are re-sorted with argsort/take
    after every iteration, the coefficients are reflection 1, expansion 2,
    contraction 1/2 and shrink 1/2, and a step stops where it would exceed
    ``maxfev`` evaluations. Convergence is both the simplex's largest
    coordinate spread within ``xatol`` and its largest value spread within
    ``fatol``; ``converged`` is False when a budget ran out first.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return f(x.copy())

    def by_value(sim, fsim):
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _BudgetSpent:
        pass
    # sorted twice, as scipy does: argsort need not keep tied values in place
    sim, fsim = by_value(*by_value(sim, fsim))
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = call(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = call(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = by_value(sim, fsim)
    converged = nfev < maxfev and iterations < maxiter
    return sim[0], np.min(fsim), iterations, converged


def fit_gev_mle(values) -> GevParams:
    """Maximum-likelihood GEV fit via Nelder-Mead over (l, log s, c).

    Moment-based Gumbel init: s0 = sqrt(6)*std/pi, l0 = mean - gamma*s0,
    c0 = 0.1. Log-parameterizing the scale keeps it positive; points with
    any observation outside the support score -inf likelihood. The
    minimiser is ``_nelder_mead``, so the fit, and tau with it, does not
    depend on an installed scipy.
    """
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
    x, fun, _, _ = _nelder_mead(nll, x0, xatol=1e-8, fatol=1e-10, maxiter=2000, maxfev=4000)
    if not np.isfinite(fun):
        raise FitError("no feasible point found")
    try:
        return _gev_at(*x)
    except ValueError as e:
        raise FitError(f"the fit ended at an invalid point: {e}") from e

