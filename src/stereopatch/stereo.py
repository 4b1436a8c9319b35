"""Stereo rig model: projection, triangulation, and per-point noise statistics.

Triangulation is the standard homogeneous DLT: two rows per view of the 4x4
design matrix, solved by the right singular vector of the smallest singular
value.  The reconstruction uncertainty of a point is the first-order variance
of its triangulation under pixel noise, read in closed form off the SVD of its
one DLT solve (``_dlt``, shared with ``triangulate_many``), and the pool of
those values over a scene is what the Weibull noise model is fitted to.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .distributions import WeibullParams, weibull_fit

logger = logging.getLogger(__name__)

# Numerical guards
_W_EPS = 1e-12            # homogeneous scale considered "at infinity"
_COND_MAX = 1e12          # design-matrix condition limit for triangulation
_DIST_CLAMP = 1e-12       # floor applied to squared distances entering logs


@dataclass
class StereoRig:
    """Calibrated stereo pair: two finite 3x4 projection matrices plus noise levels."""

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
        if not (np.all(np.isfinite(self.camera_left)) and np.all(np.isfinite(self.camera_right))):
            raise ValueError("projection matrices must be finite")
        # the noise enters as its square (``attach_uncertainty``), which must be finite too
        noise = (float(self.pixel_noise_left), float(self.pixel_noise_right))
        if not all(x >= 0 and math.isfinite(x * x) for x in noise):
            raise ValueError("pixel noise must be non-negative, with a finite square")
        if len(self.image_size) != 2 or min(self.image_size) <= 0:
            raise ValueError(f"image size must be two positive numbers, not {self.image_size!r}")

    def camera_centers(self) -> np.ndarray:
        """(2,3) array with the two optical centers."""
        return np.stack([_camera_center(self.camera_left), _camera_center(self.camera_right)])


def _camera_center(camera: np.ndarray) -> np.ndarray:
    _, _, vt = np.linalg.svd(camera)
    c = vt[-1]
    if abs(c[3]) < _W_EPS * np.linalg.norm(c):
        raise ValueError("camera center at infinity")
    return c[:3] / c[3]


def project_many(camera: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection of 3D points to pixel coordinates.

    Returns (pixels (n,2), valid mask); a point in the camera's focal plane
    is at infinity in the image and is marked invalid.  Each point is
    multiplied as its own (1,3) row, so its pixels are bitwise the same
    whichever other points share the call (one matrix product over all rows
    rounds differently for a general camera).
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


def _dlt(
    pixels_left: np.ndarray, pixels_right: np.ndarray, rig: StereoRig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """SVD of every row's 4x4 DLT design matrix, solved by ``vt[:, 3]``: (u, s, vt, ok).

    A row is bad (``ok`` False) when its design matrix is ill-conditioned
    (near-parallel rays) or its solution lands at infinity.  Each row is its
    own SVD, so a point's result does not depend on the other rows.
    """
    pl = np.atleast_2d(np.asarray(pixels_left, float))
    pr = np.atleast_2d(np.asarray(pixels_right, float))
    a = np.concatenate(
        (_design_rows(pl, rig.camera_left), _design_rows(pr, rig.camera_right)), axis=1
    )
    u, s, vt = np.linalg.svd(a)
    x = vt[:, -1, :]
    # rank must be 3 for a unique ray intersection; s[2] ~ 0 means the rays
    # are (near-)parallel and the nullspace is not one-dimensional
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, 2]
    ok = (cond <= _COND_MAX) & (np.abs(x[:, 3]) >= _W_EPS * np.linalg.norm(x, axis=1))
    return u, s, vt, ok


def triangulate_many(
    pixels_left: np.ndarray, pixels_right: np.ndarray, rig: StereoRig
) -> tuple[np.ndarray, np.ndarray]:
    """Batch DLT.  Returns (points (n,3), ``_dlt``'s ok mask); bad rows are left as zeros."""
    _, _, vt, ok = _dlt(pixels_left, pixels_right, rig)
    x = vt[:, -1, :]
    pts = np.zeros((len(x), 3))
    if np.any(ok):
        pts[ok] = x[ok, :3] / x[ok, 3, None]
    return pts, ok


# ---------------------------------------------------------------------------
# Scene points
# ---------------------------------------------------------------------------


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

    def bbox_diagonal(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(np.linalg.norm(np.ptp(self.positions, axis=0)))


def _in_fov(pixels: np.ndarray, image_size: tuple[int, int]) -> np.ndarray:
    w, h = image_size
    px = np.atleast_2d(pixels)
    return (px[:, 0] >= 0) & (px[:, 0] <= w) & (px[:, 1] >= 0) & (px[:, 1] <= h)


def attach_uncertainty(cloud: PointCloud, rig: StereoRig) -> np.ndarray:
    """Reconstruction uncertainty of every cloud point, stored on the cloud.

    The first-order variance of the point's triangulation under independent
    pixel noise (Hartley & Zisserman, *Multiple View Geometry*, 2nd ed.,
    ch. 5): the sum over both views of sigma^2 * ||dX/d(u, v)||_F^2.  Pixel
    coordinate r moves row r of the point's DLT matrix A = U S V^T along P3 of
    its view, so the Jacobian is read off that one SVD by first-order
    singular-vector perturbation (Papadopoulo & Lourakis, ECCV 2000):
    dv3/dp_r = sum_{k<3} v_k (s3 U[r,3] v_k.P3 + s_k U[r,k] v3.P3) / (s3^2 - s_k^2).
    Only the pixels enter it, not the stored position.  Zero pixel noise gives
    exactly 0.  Points whose pixels leave either image get +inf, and so do
    unstable points, whose solve fails ``triangulate_many``'s rule or whose
    variance is not finite (with a logged warning), so one bad correspondence
    cannot abort a run.
    """
    u, s, vt, ok = _dlt(cloud.pixels_left, cloud.pixels_right, rig)
    # P3 of the view each pixel coordinate (u_l, v_l, u_r, v_r) belongs to
    p3 = np.repeat([rig.camera_left[2], rig.camera_right[2]], 2, axis=0)
    vp = np.einsum("nkc,rc->nkr", vt, p3)  # v_k . P3_r
    ut, sk = np.swapaxes(u, 1, 2), s[:, :, None]  # ut[:, k, r] = U[r, k]
    x = vt[:, None, 3]  # the solution v3, X = x[:3] / x[3]
    sigma2 = np.repeat([rig.pixel_noise_left**2, rig.pixel_noise_right**2], 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = sk[:, 3:] * ut[:, 3:] * vp[:, :3] + sk[:, :3] * ut[:, :3] * vp[:, 3:]
        dx = np.einsum("nkr,nkc->nrc", num / (sk[:, 3:] ** 2 - sk[:, :3] ** 2), vt[:, :3])
        jac = (dx[..., :3] - x[..., :3] / x[..., 3:] * dx[..., 3:]) / x[..., 3:]  # dX/dp_r
        variance = np.einsum("nrc,nrc,r->n", jac, jac, sigma2)
    stable = ok & np.isfinite(variance)
    fov = _in_fov(cloud.pixels_left, rig.image_size) & _in_fov(cloud.pixels_right, rig.image_size)
    out = np.where(stable & fov, variance, np.inf)
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


def noise_penalty(values, model: WeibullParams) -> np.ndarray:
    """Per-point classification penalty (d/lam)^k - (k-1)*log(d), d clamped >= 1e-12.

    Infinite uncertainties stay infinite, which bars the point from ever
    being classified.
    """
    x = np.asarray(values, float)
    clamped = np.maximum(x, _DIST_CLAMP)
    with np.errstate(over="ignore"):
        out = (clamped / model.scale) ** model.shape - (model.shape - 1.0) * np.log(clamped)
    return np.where(np.isinf(x), np.inf, out)


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
    in pixels^2; the Gaussian has exactly that covariance.  Its log density
    is evaluated, for both views of a segment pair at once, by
    ``growing._image_prior``.
    """

    centroid: np.ndarray
    inertia: np.ndarray
    mean_intensity: float
    view: str = "left"

    def __post_init__(self) -> None:
        object.__setattr__(self, "centroid", np.asarray(self.centroid, float).reshape(2))
        object.__setattr__(self, "inertia", np.asarray(self.inertia, float).reshape(3))
        if not (np.all(np.isfinite(self.centroid)) and np.all(np.isfinite(self.inertia))):
            raise ValueError("centroid and inertia must be finite")
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

