"""Gamma and Weibull maximum-likelihood fits and moment-matched Gamma sums.

The Gamma shape estimate uses the closed-form approximation
shape = (3 - phi + sqrt((phi - 3)^2 + 24*phi)) / (12*phi) with
phi = log(mean) - mean(log); the Weibull fit solves the profile-likelihood
shape equation by Newton iteration and recovers the scale in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GammaParams:
    shape: float
    scale: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.shape) and np.isfinite(self.scale)):
            raise ValueError("gamma parameters must be finite")
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("gamma parameters must be positive")


@dataclass(frozen=True)
class WeibullParams:
    shape: float
    scale: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.shape) and np.isfinite(self.scale)):
            raise ValueError("weibull parameters must be finite")
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("weibull parameters must be positive")


def gamma_sum_approx(first: GammaParams, second: GammaParams, weight: float) -> GammaParams:
    """Single-Gamma moment approximation of X1 + weight*X2 for independent Gammas.

    Matches mean and variance: mu = a1*b1 + a2*w*b2,
    var = a1*b1^2 + a2*w^2*b2^2, then shape = mu^2/var, scale = var/mu.
    """
    if weight <= 0 or not np.isfinite(weight):
        raise ValueError("weight must be positive")
    mu = first.shape * first.scale + second.shape * weight * second.scale
    var = first.shape * first.scale**2 + second.shape * weight**2 * second.scale**2
    return GammaParams(mu * mu / var, var / mu)


def gamma_mle(values) -> GammaParams:
    """Closed-form Gamma fit from the log-moment gap.

    Raises ValueError("non-positive distance") for invalid samples and
    ValueError("degenerate sample") when all samples are (numerically) equal,
    which drives the log-moment gap to zero.
    """
    x = np.asarray(values, float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("need at least two samples")
    # a NaN fails both comparisons, as do 0, negative values and infinities
    if not (x.min() > 0.0 and x.max() < np.inf):
        raise ValueError("non-positive distance")
    mean = float(np.mean(x))
    mean_log = float(np.mean(np.log(x)))
    phi = np.log(mean) - mean_log
    if phi <= 1e-12:
        raise ValueError("degenerate sample")
    shape = (3.0 - phi + np.sqrt((phi - 3.0) ** 2 + 24.0 * phi)) / (12.0 * phi)
    return GammaParams(float(shape), mean / float(shape))


def weibull_fit(samples, max_iter: int = 100, tol: float = 1e-10) -> WeibullParams:
    """Profile-likelihood Weibull fit (Newton iteration on the shape).

    Samples must be non-negative and not all equal; zeros are nudged to a
    tiny positive value since the log-likelihood needs log(samples).  Raises
    ValueError("weibull fit failed") if Newton does not converge within
    ``max_iter`` iterations.
    """
    x = np.asarray(samples, float)
    if x.ndim != 1 or len(x) < 10:
        raise ValueError("need at least ten samples")
    if np.any(x < 0) or np.any(~np.isfinite(x)):
        raise ValueError("negative distance")
    top = float(np.max(x))
    if top <= 0:
        raise ValueError("degenerate sample")
    # Normalizing by the max keeps x**k away from overflow and leaves the
    # shape invariant; the scale is mapped back at the end.
    xs = x / top
    xs = np.maximum(xs, 1e-300)
    if float(np.min(xs)) == float(np.max(xs)):
        raise ValueError("degenerate sample")
    logx = np.log(xs)
    mean_log = float(np.mean(logx))
    sd_log = float(np.std(logx))
    if sd_log <= 0:
        raise ValueError("degenerate sample")
    k = np.pi / (np.sqrt(6.0) * sd_log)

    converged = False
    for _ in range(max_iter):
        xk = xs**k
        sw = float(np.sum(xk))
        swl = float(np.sum(xk * logx))
        swll = float(np.sum(xk * logx * logx))
        f = swl / sw - mean_log - 1.0 / k
        fp = (swll * sw - swl * swl) / (sw * sw) + 1.0 / (k * k)
        step = f / fp
        k_new = k - step
        while k_new <= 0:
            step *= 0.5
            k_new = k - step
        if abs(k_new - k) <= tol * max(1.0, k_new):
            k = k_new
            converged = True
            break
        k = k_new
    if not converged:
        raise ValueError("weibull fit failed")
    lam = top * float(np.mean(xs**k)) ** (1.0 / k)
    return WeibullParams(float(k), lam)

