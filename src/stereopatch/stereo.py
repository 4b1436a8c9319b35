"""Stereo rig model: projection, triangulation, and per-point noise statistics.

Triangulation is the standard homogeneous DLT: two rows per view of the 4x4
design matrix, solved by the right singular vector of the smallest singular
value.  The reconstruction uncertainty of a point is the Monte-Carlo mean of
its squared 3D displacement under pixel-noise re-triangulation, and the pool
of those values over a scene is what the Weibull noise model is fitted to.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .distributions import WeibullParams, weibull_fit

logger = logging.getLogger(__name__)

# Numerical guards
_W_EPS = 1e-12            # homogeneous scale considered "at infinity"
_COND_MAX = 1e12          # design-matrix condition limit for triangulation
_DIST_CLAMP = 1e-12       # floor applied to squared distances entering logs


@dataclass
class StereoRig:
    """Calibrated stereo pair: two 3x4 projection matrices plus noise levels."""

    camera_left: np.ndarray
    camera_right: np.ndarray
    pixel_noise_left: float
    pixel_noise_right: float
    image_size: tuple[int, int]
    noise_model: WeibullParams | None = None

    def __post_init__(self) -> None:
        self.camera_left = np.asarray(self.camera_left, float)
        self.camera_right = np.asarray(self.camera_right, float)
        if self.camera_left.shape != (3, 4) or self.camera_right.shape != (3, 4):
            raise ValueError("projection matrices must be 3x4")

    def camera_centers(self) -> np.ndarray:
        """(2,3) array with the two optical centers."""
        return np.stack([_camera_center(self.camera_left), _camera_center(self.camera_right)])


def _camera_center(camera: np.ndarray) -> np.ndarray:
    _, _, vt = np.linalg.svd(camera)
    c = vt[-1]
    if abs(c[3]) < _W_EPS * np.linalg.norm(c):
        raise ValueError("camera center at infinity")
    return c[:3] / c[3]


def project(camera: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Pinhole projection of one 3D point to pixel coordinates."""
    h = camera @ np.append(np.asarray(point, float), 1.0)
    if abs(h[2]) < _W_EPS:
        raise ValueError("at infinity in image")
    return h[:2] / h[2]


def project_many(camera: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch projection.  Returns (pixels (n,2), valid mask).

    Each point is multiplied as its own (1,3) row, so its pixels are bitwise
    the same whichever other points share the call (one matrix product over
    all rows rounds differently for a general camera).
    """
    pts = np.atleast_2d(np.asarray(points, float))
    h = (pts[:, None, :] @ camera[:, :3].T)[:, 0, :] + camera[:, 3]
    valid = np.abs(h[:, 2]) >= _W_EPS
    w = np.where(valid, h[:, 2], 1.0)
    return h[:, :2] / w[:, None], valid


def _design_rows(pixels: np.ndarray, camera: np.ndarray) -> np.ndarray:
    """Two DLT rows per point: u*P3 - P1 and v*P3 - P2.  (n,2,4)."""
    px = np.atleast_2d(pixels)
    rows = px[:, :, None] * camera[2][None, None, :] - camera[None, 0:2, :]
    return rows


def triangulate(pixel_left: np.ndarray, pixel_right: np.ndarray, rig: StereoRig) -> np.ndarray:
    """DLT triangulation of one correspondence.

    Raises ValueError("degenerate triangulation") when the design matrix is
    ill-conditioned (near-parallel rays) or the solution lands at infinity.
    """
    pts, ok = triangulate_many(
        np.asarray(pixel_left, float)[None, :], np.asarray(pixel_right, float)[None, :], rig
    )
    if not ok[0]:
        raise ValueError("degenerate triangulation")
    return pts[0]


def triangulate_many(
    pixels_left: np.ndarray, pixels_right: np.ndarray, rig: StereoRig
) -> tuple[np.ndarray, np.ndarray]:
    """Batch DLT.  Returns (points (n,3), ok mask); bad rows are left as zeros."""
    pl = np.atleast_2d(np.asarray(pixels_left, float))
    pr = np.atleast_2d(np.asarray(pixels_right, float))
    a = np.concatenate(
        (_design_rows(pl, rig.camera_left), _design_rows(pr, rig.camera_right)), axis=1
    )
    _, s, vt = np.linalg.svd(a)
    x = vt[:, -1, :]
    # rank must be 3 for a unique ray intersection; s[2] ~ 0 means the rays
    # are (near-)parallel and the nullspace is not one-dimensional
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, 2]
    w = x[:, 3]
    ok = (cond <= _COND_MAX) & (np.abs(w) >= _W_EPS * np.linalg.norm(x, axis=1))
    pts = np.zeros((len(pl), 3))
    if np.any(ok):
        pts[ok] = x[ok, :3] / w[ok, None]
    return pts, ok


# ---------------------------------------------------------------------------
# Scene points
# ---------------------------------------------------------------------------


@dataclass
class ScenePoint:
    """One reconstructed point with its originating pixel pair."""

    index: int
    position: np.ndarray
    pixel_left: np.ndarray
    pixel_right: np.ndarray
    uncertainty: float | None = None
    penalty: float | None = None


@dataclass
class PointCloud:
    """Column-oriented scene point storage (one row per point)."""

    positions: np.ndarray
    pixels_left: np.ndarray
    pixels_right: np.ndarray
    uncertainty: np.ndarray | None = None
    penalty: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, float).reshape(-1, 3)
        self.pixels_left = np.asarray(self.pixels_left, float).reshape(-1, 2)
        self.pixels_right = np.asarray(self.pixels_right, float).reshape(-1, 2)
        n = len(self.positions)
        if len(self.pixels_left) != n or len(self.pixels_right) != n:
            raise ValueError("pixel arrays must match the point count")

    def __len__(self) -> int:
        return len(self.positions)

    def point(self, index: int) -> ScenePoint:
        return ScenePoint(
            index,
            self.positions[index],
            self.pixels_left[index],
            self.pixels_right[index],
            None if self.uncertainty is None else float(self.uncertainty[index]),
            None if self.penalty is None else float(self.penalty[index]),
        )

    def bbox_diagonal(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(np.linalg.norm(np.ptp(self.positions, axis=0)))


def _in_fov(pixels: np.ndarray, image_size: tuple[int, int]) -> np.ndarray:
    w, h = image_size
    px = np.atleast_2d(pixels)
    return (px[:, 0] >= 0) & (px[:, 0] <= w) & (px[:, 1] >= 0) & (px[:, 1] <= h)


def _noise_draws(seed: int, index: int, trials: int) -> np.ndarray:
    """Per-point unit-normal pixel perturbations, order-independent by index."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))
    return rng.normal(size=(trials, 4))


def reconstruction_uncertainty(
    sp: ScenePoint, rig: StereoRig, trials: int = 20, seed: int = 0
) -> float:
    """Monte-Carlo mean squared 3D displacement under pixel-noise draws.

    Points whose own pixels fall outside either image get +inf (they cannot
    carry a correspondence).  Raises ValueError("unstable point") when more
    than half the perturbed draws triangulate degenerately.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not (_in_fov(sp.pixel_left, rig.image_size)[0] and _in_fov(sp.pixel_right, rig.image_size)[0]):
        return float("inf")
    noise = _noise_draws(seed, sp.index, trials)
    pl = sp.pixel_left + noise[:, 0:2] * rig.pixel_noise_left
    pr = sp.pixel_right + noise[:, 2:4] * rig.pixel_noise_right
    pts, ok = triangulate_many(pl, pr, rig)
    if np.count_nonzero(~ok) * 2 > trials:
        raise ValueError("unstable point")
    diff = pts[ok] - sp.position
    return float(np.mean(np.sum(diff * diff, axis=1)))


def attach_uncertainty(
    cloud: PointCloud, rig: StereoRig, trials: int = 20, seed: int = 0
) -> np.ndarray:
    """Batch reconstruction uncertainty for a whole cloud.

    Unstable points are marked +inf (with a logged warning) instead of
    raising, so one bad correspondence cannot abort a pipeline run.
    """
    n = len(cloud)
    out = np.full(n, np.inf)
    if n == 0:
        cloud.uncertainty = out
        return out
    noise = np.stack([_noise_draws(seed, i, trials) for i in range(n)])
    pl = cloud.pixels_left[:, None, :] + noise[:, :, 0:2] * rig.pixel_noise_left
    pr = cloud.pixels_right[:, None, :] + noise[:, :, 2:4] * rig.pixel_noise_right
    pts, ok = triangulate_many(pl.reshape(-1, 2), pr.reshape(-1, 2), rig)
    pts = pts.reshape(n, trials, 3)
    ok = ok.reshape(n, trials)
    diff = pts - cloud.positions[:, None, :]
    sq = np.sum(diff * diff, axis=2)
    valid_counts = ok.sum(axis=1)
    stable = valid_counts * 2 > trials
    sq_masked = np.where(ok, sq, 0.0)
    with np.errstate(invalid="ignore"):
        means = sq_masked.sum(axis=1) / np.where(valid_counts > 0, valid_counts, 1)
    fov = _in_fov(cloud.pixels_left, rig.image_size) & _in_fov(cloud.pixels_right, rig.image_size)
    good = stable & fov
    out[good] = means[good]
    n_unstable = int(np.count_nonzero(fov & ~stable))
    if n_unstable:
        logger.warning("%d unstable points marked with infinite uncertainty", n_unstable)
    cloud.uncertainty = out
    return out


def calibrate_noise_model(cloud: PointCloud, rig: StereoRig) -> WeibullParams:
    """Fit the Weibull noise model to the cloud's reconstruction uncertainties.

    Requires at least 100 finite training values; they are clamped to 1e-12
    before fitting since the log-likelihood needs positive samples.  The
    fitted model is stored on the rig and returned.
    """
    if cloud.uncertainty is None:
        raise ValueError("cloud has no uncertainty values; run attach_uncertainty first")
    samples = cloud.uncertainty[np.isfinite(cloud.uncertainty)]
    if len(samples) < 100:
        raise ValueError("need at least 100 training points")
    model = weibull_fit(np.maximum(samples, _DIST_CLAMP))
    rig.noise_model = model
    return model


def noise_model_offset(model: WeibullParams) -> float:
    """Constant folded out of the noise-prior log density: k*log(lam) - log(k)."""
    return model.shape * float(np.log(model.scale)) - float(np.log(model.shape))


def noise_penalty(values, model: WeibullParams):
    """Per-point classification penalty (d/lam)^k - (k-1)*log(d), d clamped >= 1e-12.

    Infinite uncertainties stay infinite, which bars the point from ever
    being classified.
    """
    x = np.asarray(values, float)
    clamped = np.maximum(x, _DIST_CLAMP)
    with np.errstate(over="ignore"):
        out = (clamped / model.scale) ** model.shape - (model.shape - 1.0) * np.log(clamped)
    out = np.where(np.isinf(x), np.inf, out)
    return float(out) if np.isscalar(values) else out


def attach_penalty(cloud: PointCloud, model: WeibullParams) -> np.ndarray:
    if cloud.uncertainty is None:
        raise ValueError("cloud has no uncertainty values; run attach_uncertainty first")
    cloud.penalty = noise_penalty(cloud.uncertainty, model)
    return cloud.penalty


# ---------------------------------------------------------------------------
# Ellipse intensity priors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EllipsePrior:
    """Elliptical image segment turned into a bivariate Gaussian prior.

    ``inertia`` holds the second central moments (xx, xy, yy) of the segment
    in pixels^2; the Gaussian has exactly that covariance.
    """

    centroid: np.ndarray
    inertia: np.ndarray
    mean_intensity: float
    view: str = "left"

    def __post_init__(self) -> None:
        object.__setattr__(self, "centroid", np.asarray(self.centroid, float).reshape(2))
        object.__setattr__(self, "inertia", np.asarray(self.inertia, float).reshape(3))
        xx, xy, yy = self.inertia
        if xx <= 0 or yy <= 0 or xx * yy - xy * xy <= 0:
            raise ValueError("inertia must be positive definite")
        if not 0.0 <= self.mean_intensity <= 1.0:
            raise ValueError("mean intensity must lie in [0, 1]")

    @property
    def correlation(self) -> float:
        xx, xy, yy = self.inertia
        return float(xy / np.sqrt(xx * yy))

    def mahalanobis(self, pixels: np.ndarray) -> np.ndarray:
        """Correlated quadratic form z; z/(1-rho^2) is the Mahalanobis square."""
        px = np.atleast_2d(np.asarray(pixels, float))
        xx, xy, yy = self.inertia
        dx = px[:, 0] - self.centroid[0]
        dy = px[:, 1] - self.centroid[1]
        rho = self.correlation
        return dx * dx / xx - 2.0 * rho * dx * dy / np.sqrt(xx * yy) + dy * dy / yy


def ellipse_log_prior(ellipse: EllipsePrior, pixel: np.ndarray) -> float:
    """Log of the bivariate Gaussian density aligned with the segment."""
    xx, xy, yy = ellipse.inertia
    rho = ellipse.correlation
    om = 1.0 - rho * rho
    z = float(ellipse.mahalanobis(pixel)[0])
    return -z / (2.0 * om) - float(np.log(2.0 * np.pi * np.sqrt(om * xx * yy)))
