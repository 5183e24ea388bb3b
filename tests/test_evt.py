import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize

from adagev import evt
from adagev import pipeline as pl


PARAM_GRID = [
    evt.GevParams(0.0, 1.0, 0.0),
    evt.GevParams(0.5, 0.2, 0.1),
    evt.GevParams(1.0, 0.5, -0.2),
    evt.GevParams(-2.0, 3.0, 0.4),
]


class TestGevParams:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            evt.GevParams(0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            evt.GevParams(0.0, -1.0, 0.1)

    def test_shape_must_be_finite(self):
        with pytest.raises(ValueError):
            evt.GevParams(0.0, 1.0, np.inf)

    @pytest.mark.parametrize("s", [np.nan, np.inf])
    def test_scale_must_be_finite(self, s):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            evt.GevParams(0.0, s, 0.0)

    @pytest.mark.parametrize("l", [np.nan, np.inf, -np.inf])
    def test_location_must_be_finite(self, l):
        with pytest.raises(ValueError, match="location must be finite"):
            evt.GevParams(l, 1.0, 0.5)


class TestCdf:
    @pytest.mark.parametrize("p", PARAM_GRID)
    def test_value_at_location(self, p):
        # t(l) = 1 for every (s, c), so F(l) = e^-1
        np.testing.assert_allclose(evt.gev_cdf(p.l, p), np.exp(-1.0), atol=1e-12)

    @pytest.mark.parametrize("p", PARAM_GRID)
    def test_monotone(self, p):
        xs = np.linspace(p.l - 5 * p.s, p.l + 5 * p.s, 400)
        cdf = evt.gev_cdf(xs, p)
        assert np.all(np.diff(cdf) >= 0)

    @pytest.mark.parametrize("p", PARAM_GRID)
    def test_limits(self, p):
        assert evt.gev_cdf(p.l - 100 * p.s, p) < 1e-6 or p.c < 0
        assert evt.gev_cdf(p.l + 1000 * p.s, p) > 1 - 1e-3

    def test_support_endpoint_positive_shape(self):
        # c > 0: support is x >= l - s/c; below it the CDF is exactly zero
        p = evt.GevParams(0.0, 1.0, 0.5)
        assert evt.gev_cdf(-2.0 - 1e-9, p) == 0.0

    def test_gumbel_far_below_location_is_inf_without_warning(self):
        # z is about -1600: exp(-z) overflows, as the c != 0 branch's power does
        p = evt.GevParams(1.3, 0.0008, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evt.gev_t(0.001, p) == np.inf
            assert evt.gev_cdf(0.001, p) == 0.0

    def test_gumbel_continuity(self):
        xs = np.linspace(-3, 5, 50)
        below = evt.gev_cdf(xs, evt.GevParams(0.0, 1.0, 0.0))
        above = evt.gev_cdf(xs, evt.GevParams(0.0, 1.0, 2e-6))
        np.testing.assert_allclose(below, above, atol=1e-5)


class TestPdf:
    @pytest.mark.parametrize("p", PARAM_GRID)
    def test_integrates_to_one(self, p):
        # integrate between extreme quantiles (inverse CDF) so heavy
        # right tails (c > 0) are covered
        def quantile(u):
            if abs(p.c) < evt.GUMBEL_EPS:
                return p.l - p.s * np.log(-np.log(u))
            return p.l + p.s * ((-np.log(u)) ** -p.c - 1.0) / p.c

        lo, hi = quantile(1e-9), quantile(1.0 - 1e-9)
        total, _ = quad(lambda x: evt.gev_pdf(x, p), lo, hi, limit=400)
        np.testing.assert_allclose(total, 1.0, atol=1e-4)

    @pytest.mark.parametrize("p", PARAM_GRID)
    def test_matches_cdf_derivative(self, p):
        xs = p.l + p.s * np.array([-0.5, 0.0, 0.7, 2.0])
        h = 1e-6
        numeric = (evt.gev_cdf(xs + h, p) - evt.gev_cdf(xs - h, p)) / (2 * h)
        np.testing.assert_allclose(evt.gev_pdf(xs, p), numeric, rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("p", PARAM_GRID)
    def test_nonnegative(self, p):
        xs = np.linspace(p.l - 20 * p.s, p.l + 20 * p.s, 500)
        assert np.all(evt.gev_pdf(xs, p) >= 0)

    def test_zero_outside_support(self):
        p = evt.GevParams(0.0, 1.0, 0.5)  # support x >= -2
        assert evt.gev_pdf(-3.0, p) == 0.0
        n = evt.GevParams(0.0, 1.0, -0.5)  # support x <= 2
        assert evt.gev_pdf(3.0, n) == 0.0


class TestSample:
    @pytest.mark.parametrize("p", PARAM_GRID)
    def test_kolmogorov_distance(self, p):
        x = np.sort(evt.gev_sample(p, 20000, seed=9))
        emp = np.arange(1, x.size + 1) / x.size
        ks = np.abs(evt.gev_cdf(x, p) - emp).max()
        assert ks < 0.015

    def test_deterministic(self):
        p = PARAM_GRID[1]
        np.testing.assert_array_equal(evt.gev_sample(p, 100, seed=3),
                                      evt.gev_sample(p, 100, seed=3))

    def test_bad_count(self):
        with pytest.raises(ValueError):
            evt.gev_sample(PARAM_GRID[0], 0, seed=0)


class TestExtractTail:
    def test_block_maxima_counts(self):
        vals = np.arange(650.0)
        tail = evt.extract_tail(vals, block_size=20)
        assert tail.size == 32  # 650 // 20 blocks, remainder dropped

    def test_block_maxima_deterministic(self):
        vals = np.random.default_rng(0).random(800)
        np.testing.assert_array_equal(evt.extract_tail(vals, 20, rng_seed=5),
                                      evt.extract_tail(vals, 20, rng_seed=5))

    def test_block_maxima_too_few_blocks(self):
        with pytest.raises(evt.FitError):
            evt.extract_tail(np.random.default_rng(0).random(100), block_size=20)

    # ids as when the block size came in a TailConfig
    @pytest.mark.parametrize("block", [20, 10], ids=["tc0", "tc1"])
    @pytest.mark.parametrize("n", [0, 290, 291, 599, 600, 1000])
    def test_tail_size_is_the_extracted_size(self, block, n):
        vals = np.random.default_rng(n).random(n)
        expected = n // block
        if expected < evt.MIN_TAIL:
            with pytest.raises(evt.FitError):
                evt.tail_size(n, block)
            with pytest.raises(evt.FitError):
                evt.extract_tail(vals, block)
        else:
            assert evt.tail_size(n, block) == expected == evt.extract_tail(vals, block).size

    def test_config_validation(self):
        for n in (0, 1000):
            with pytest.raises(ValueError, match="block_size must be positive, got 0"):
                evt.tail_size(n, 0)


class TestFit:
    def test_recovers_gev(self):
        true = evt.GevParams(0.5, 0.2, 0.1)
        fitted = evt.fit_gev_mle(evt.gev_sample(true, 20000, seed=0))
        assert abs(fitted.l - true.l) < 0.05
        assert abs(fitted.s - true.s) < 0.05
        assert abs(fitted.c - true.c) < 0.08

    def test_recovers_gumbel(self):
        true = evt.GevParams(1.0, 0.5, 0.0)
        fitted = evt.fit_gev_mle(evt.gev_sample(true, 20000, seed=1))
        assert abs(fitted.l - true.l) < 0.05
        assert abs(fitted.s - true.s) < 0.05
        assert abs(fitted.c) < 0.05

    def test_recovers_negative_shape(self):
        true = evt.GevParams(0.0, 1.0, -0.2)
        fitted = evt.fit_gev_mle(evt.gev_sample(true, 20000, seed=2))
        assert abs(fitted.c - true.c) < 0.08

    def test_too_few_values(self):
        with pytest.raises(evt.FitError):
            evt.fit_gev_mle(np.arange(10.0))

    def test_degenerate_input(self):
        with pytest.raises(evt.FitError):
            evt.fit_gev_mle(np.full(100, 3.0))

    @pytest.mark.parametrize("point", [(0.0, 1000.0, 0.1), (np.nan, 0.0, 0.1)])
    def test_invalid_end_point_is_fit_error(self, monkeypatch, point):
        """An optimizer that reports a finite likelihood at a point that is no
        GEV (an overflowing scale, a NaN location) fails the fit."""
        monkeypatch.setattr(evt, "_nelder_mead", lambda *a, **k: (np.array(point), 1.0, 1, True))
        with pytest.raises(evt.FitError, match="invalid point"):
            evt.fit_gev_mle(evt.gev_sample(evt.GevParams(0.5, 0.2, 0.1), 100, seed=0))

    def test_likelihood_is_infinite_outside_the_parameters(self):
        nll = evt._negative_log_likelihood(np.linspace(0.0, 1.0, 50))
        assert np.isfinite(nll(np.array([0.5, 0.0, 0.1])))
        for theta in ([0.5, 1000.0, 0.1], [np.nan, 0.0, 0.1], [np.inf, 0.0, 0.1],
                      [0.5, np.nan, 0.1]):
            assert nll(np.array(theta)) == np.inf

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_fit_improves_on_start(self, seed):
        rng = np.random.default_rng(seed)
        true = evt.GevParams(float(rng.uniform(-1, 1)), float(rng.uniform(0.2, 2)),
                             float(rng.uniform(-0.3, 0.3)))
        sample = evt.gev_sample(true, 2000, seed=seed)
        fitted = evt.fit_gev_mle(sample)
        assert np.isfinite(fitted.l) and fitted.s > 0


@st.composite
def fit_samples(draw):
    """(values, outlier): 30-400 GEV draws, at times rounded to one decimal
    so that values tie, and at times (with 100 or more values) with one value
    far below the rest, which leaves fit_gev_mle's c = 0.1 start infeasible."""
    true = evt.GevParams(draw(st.floats(-1, 1)), draw(st.floats(0.1, 2)),
                         draw(st.floats(-1, 0.5)))
    outlier = draw(st.booleans())
    values = evt.gev_sample(true, draw(st.integers(100 if outlier else 30, 400)),
                            seed=draw(st.integers(0, 2 ** 31 - 1)))
    if draw(st.booleans()):
        values = np.round(values, 1)
    if outlier:
        values[0] = values.min() - 1e3 * (np.ptp(values) + 1.0)
    return values, outlier


@given(fit_samples(), st.integers(4, 60), st.integers(2, 40))
@settings(max_examples=40, deadline=None)
def test_nelder_mead_equals_scipy_bit_for_bit(sample, maxfev, maxiter):
    """The port gives scipy's x, fun, iteration count and success on fit_gev_mle's
    own objective and start, with the fit's budget and with small ones that
    stop a run mid-iteration or after a few iterations."""
    values, outlier = sample
    calls = []
    port = evt._nelder_mead

    def spy(f, x0, **options):
        calls.append((f, x0.copy(), options))
        return port(f, x0, **options)

    with mock.patch.object(evt, "_nelder_mead", spy):
        try:
            evt.fit_gev_mle(values)
        except evt.FitError:
            pass
    assume(calls)  # a rounded sample can have no variance left
    f, x0, fit_options = calls[0]
    assert not outlier or x0[2] == 0.0
    for budget in ({}, {"maxfev": maxfev}, {"maxiter": maxiter}):
        options = {**fit_options, **budget}
        x, fun, iterations, converged = port(f, x0, **options)
        want = minimize(f, x0, method="Nelder-Mead", options=options)
        assert x.tobytes() == want.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(want.fun).tobytes()
        assert (iterations, converged) == (want.nit, want.success)


class TestThreshold:
    def test_gumbel_closed_form(self):
        p = evt.GevParams(0.3, 0.7, 0.0)
        assert evt.rejection_threshold(p) == 0.3 - 0.7 * np.log(np.log(2))

    @pytest.mark.parametrize("p", PARAM_GRID)
    def test_is_median(self, p):
        np.testing.assert_allclose(evt.gev_cdf(evt.rejection_threshold(p), p), 0.5, atol=1e-12)

    @pytest.mark.parametrize("p", PARAM_GRID)
    def test_quantile_inverts_cdf(self, p):
        u = np.array([1e-6, 0.1, 0.5, 0.9, 1 - 1e-6])
        np.testing.assert_allclose(evt.gev_cdf(evt.gev_quantile(u, p), p), u, rtol=1e-9)


def rejected(h, p):
    """Whether predict rejects a row of entropy h at the GEV median of p."""
    probs = np.array([[1.0, 0.0]])  # the score, not these probabilities, decides
    return bool(pl.predict(probs, np.array([h]), evt.rejection_threshold(p))[0] == pl.UNKNOWN)


class TestReject:
    def test_above_median_rejected(self):
        p = evt.GevParams(0.0, 1.0, 0.0)
        median = -np.log(np.log(2))  # F = 0.5 at l - s*log(log 2)
        assert rejected(median + 1e-6, p)

    def test_below_median_kept(self):
        p = evt.GevParams(0.0, 1.0, 0.0)
        median = -np.log(np.log(2))
        assert not rejected(median - 1e-6, p)

    def test_boundary_strict(self):
        p = evt.GevParams(0.0, 1.0, 0.0)
        assert not rejected(evt.rejection_threshold(p), p)
