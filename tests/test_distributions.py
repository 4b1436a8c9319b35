"""Gamma and Weibull kernels: estimators, moment matching, the penalty transform."""

import math

import numpy as np
import pytest

from stereopatch.distributions import (
    GammaParams,
    gamma_mle,
    gamma_sum_approx,
    weibull_fit,
)

import oracles


# -- moment-matched sum -------------------------------------------------------


def test_two_unit_exponentials_sum_exactly():
    out = gamma_sum_approx(GammaParams(1.0, 1.0), GammaParams(1.0, 1.0), 1.0)
    assert out.shape == pytest.approx(2.0, abs=1e-15)
    assert out.scale == pytest.approx(1.0, abs=1e-15)


def test_hand_evaluated_moments():
    # shapes 2 and 3, scales 1 and 2, unit weight: mean 8, variance 14.
    out = gamma_sum_approx(GammaParams(2.0, 1.0), GammaParams(3.0, 2.0), 1.0)
    assert out.shape == pytest.approx(64.0 / 14.0, rel=1e-15)
    assert out.scale == pytest.approx(14.0 / 8.0, rel=1e-15)


def test_moment_identities():
    # shape*scale and shape*scale^2 reproduce the matched moments; the
    # identity is algebraic, so only float roundoff is tolerated.
    rng = np.random.default_rng(22)
    for trial in range(300):
        g1 = GammaParams(rng.uniform(0.3, 6), rng.uniform(0.05, 4))
        g2 = GammaParams(rng.uniform(0.3, 6), rng.uniform(0.05, 4))
        w = rng.uniform(0.05, 12)
        mu = g1.shape * g1.scale + g2.shape * w * g2.scale
        var = g1.shape * g1.scale**2 + g2.shape * w**2 * g2.scale**2
        out = gamma_sum_approx(g1, g2, w)
        assert math.isclose(out.shape * out.scale, mu, rel_tol=1e-15)
        assert math.isclose(out.shape * out.scale**2, var, rel_tol=1e-15)


# -- gamma estimation ---------------------------------------------------------


def test_recovers_generating_parameters():
    rng = np.random.default_rng(23)
    samples = rng.gamma(shape=2.0, scale=3.0, size=100_000)
    fit = gamma_mle(samples)
    assert fit.shape == pytest.approx(2.0, rel=0.05)
    assert fit.scale == pytest.approx(3.0, rel=0.05)


def test_two_sample_closed_form():
    d = np.array([1.0, math.e])
    fit = gamma_mle(d)
    phi = math.log((1.0 + math.e) / 2.0) - 0.5
    alpha = (3.0 - phi + math.sqrt((phi - 3.0) ** 2 + 24.0 * phi)) / (12.0 * phi)
    assert fit.shape == pytest.approx(alpha, rel=1e-14)
    assert fit.scale == pytest.approx(d.mean() / alpha, rel=1e-14)


def test_estimate_beats_a_parameter_grid():
    rng = np.random.default_rng(24)
    samples = rng.gamma(1.7, 0.6, 5000)
    fit = gamma_mle(samples)
    mine = float(np.sum(oracles.ref_gamma_logpdf(samples, fit.shape, fit.scale)))
    best_grid = oracles.gamma_loglike_grid_max(samples, fit.shape, fit.scale)
    # The closed form is an approximation to the exact MLE; it must sit
    # within a whisker of the grid optimum rather than strictly above it.
    assert mine >= best_grid - 1e-3 * abs(best_grid)


def test_mean_identity():
    rng = np.random.default_rng(25)
    for trial in range(50):
        d = rng.gamma(rng.uniform(0.5, 5), rng.uniform(0.2, 3), 60)
        fit = gamma_mle(d)
        assert math.isclose(fit.shape * fit.scale, float(d.mean()), rel_tol=1e-15)


def test_scale_equivariance():
    rng = np.random.default_rng(26)
    d = rng.gamma(2.5, 1.2, 400)
    base = gamma_mle(d)
    scaled = gamma_mle(d * 37.0)
    assert scaled.shape == pytest.approx(base.shape, rel=1e-12)
    assert scaled.scale == pytest.approx(base.scale * 37.0, rel=1e-12)


def test_degenerate_and_invalid_samples_raise():
    with pytest.raises(ValueError, match="degenerate sample"):
        gamma_mle(np.full(30, 2.0))
    with pytest.raises(ValueError, match="non-positive distance"):
        gamma_mle(np.array([1.0, -2.0, 3.0]))


# -- weibull penalty transform ------------------------------------------------


def test_penalty_transform_identity():
    # (d/lam)^k - (k-1) log d must equal -logpdf - (k log lam - log k):
    # the additive split the classifier threshold relies on.
    rng = np.random.default_rng(28)
    for trial in range(200):
        k = rng.uniform(0.4, 4)
        lam = rng.uniform(0.01, 5)
        d = rng.uniform(1e-9, 8)
        c2 = k * math.log(lam) - math.log(k)
        f = (d / lam) ** k - (k - 1.0) * math.log(d)
        lhs = f + c2
        rhs = -float(oracles.ref_weibull_logpdf(d, k, lam))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# -- weibull estimation -------------------------------------------------------


def test_fits_exponential_data():
    rng = np.random.default_rng(29)
    samples = rng.exponential(scale=2.0, size=100_000)
    fit = weibull_fit(samples)
    assert fit.shape == pytest.approx(1.0, rel=0.05)
    assert fit.scale == pytest.approx(2.0, rel=0.05)


def test_fits_weibull_data():
    rng = np.random.default_rng(30)
    samples = 0.8 * rng.weibull(1.5, size=100_000)
    fit = weibull_fit(samples)
    assert fit.shape == pytest.approx(1.5, rel=0.05)
    assert fit.scale == pytest.approx(0.8, rel=0.05)


def test_weibull_scale_equivariance():
    rng = np.random.default_rng(31)
    samples = 0.5 * rng.weibull(2.2, size=2000)
    base = weibull_fit(samples)
    scaled = weibull_fit(samples * 9.0)
    assert scaled.shape == pytest.approx(base.shape, abs=1e-8)
    assert scaled.scale == pytest.approx(base.scale * 9.0, rel=1e-8)


def test_fit_beats_local_grid():
    rng = np.random.default_rng(32)
    samples = 1.3 * rng.weibull(1.8, size=3000)
    fit = weibull_fit(samples)
    mine = float(np.sum(oracles.ref_weibull_logpdf(samples, fit.shape, fit.scale)))
    shapes = fit.shape * np.linspace(0.9, 1.1, 100)
    scales = fit.scale * np.linspace(0.9, 1.1, 100)
    for k in shapes:
        grid = np.sum(oracles.ref_weibull_logpdf(samples[None, :], k, scales[:, None]), axis=1)
        assert np.all(mine >= grid - 1e-9)


def test_weibull_degenerate_sample_raises():
    with pytest.raises(ValueError):
        weibull_fit(np.full(50, 3.0))
