"""Probabilistic region growing over a stereo point cloud.

Each patch carries a plane fit, a convex boundary hull, Gamma parameters
over its members' point-to-patch distances, and its members as an int array
in acceptance order; that array is the one record of membership, and
``member_labels`` derives each point's patch id from it.  Each epoch serves
the unassigned points nearest-camera-first; a point joins the patch with the
highest log posterior provided that posterior clears a per-point threshold
built from the global acceptance level and the point's noise penalty.
Rejected points are retried in the next epoch, after the patches have grown.
An accept folds the points into the plane's running sums, grows the hull from
the members at its vertices and the accepted points alone, and refits the
Gamma parameters over every member.

The joint distance has one implementation, ``_joint_distance``, which the
classifier scores with.  Inside a hull it is (1 + w) times the plane term, so
``Patch.refit`` (in accepts, seeding and merges) fits the Gamma parameters to
the members' plane term alone.  All patches grow in parallel, so every queued
point is scored against every live patch.  ``PatchStack`` does this in one
vectorised pass: it holds each patch's hull, weight and Gamma parameters
along a patch axis and evaluates an (n points x n patches) log-posterior
matrix.  The image-prior term and the two-camera visibility depend only on
the point and the patch's segment pair, which nothing changes during growth,
so ``grow`` computes them once for the whole cloud, together with the mask of
points each seed pruned; after an accept only that patch's row of the stack
is re-read.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .distributions import GammaParams, gamma_mle
from .stereo import _DIST_CLAMP, PointCloud, StereoRig, noise_model_offset, project_many

logger = logging.getLogger(__name__)


def _check_config(cfg, counts: tuple = (), reals: tuple = (), optional: tuple = ()) -> None:
    """Raise ValueError unless each named ``counts`` field is an integer and each ``reals``
    field a finite number; ``optional`` reals may also be None.  A bool is neither."""
    for name in counts + reals + optional:
        value = getattr(cfg, name)
        if value is None and name in optional:
            continue
        kind = numbers.Integral if name in counts else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
            what = "an integer" if name in counts else "a finite number"
            raise ValueError(f"{name} must be {what}, not {value!r}")


@dataclass
class GrowConfig:
    """Growth parameters.

    ``log_threshold`` is the acceptance level in log space; the boundary
    weight mixes the hull distance into the joint point-to-patch distance and
    the intensity weight scales the image-prior contribution, which growth
    evaluates once per point and patch.  Each point is scored against all
    patches at once by the stacked scorer (``PatchStack``).  ``batch_size``
    queued points (32 by default) are classified against the same patch
    state in one stacked pass before the accepting patches' fits are
    refreshed; ``batch_size`` = 1 refreshes them after every point.
    """

    log_threshold: float = -15.0
    boundary_weight: float = 1e-7
    intensity_weight: float = 1.0
    batch_size: int = 32
    max_epochs: int = 60

    def __post_init__(self) -> None:
        _check_config(
            self, ("batch_size", "max_epochs"), ("log_threshold", "boundary_weight", "intensity_weight")
        )
        if self.boundary_weight <= 0:
            raise ValueError("boundary weight must be positive")
        if self.intensity_weight < 0:
            raise ValueError("intensity_weight must not be negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.max_epochs < 1:
            raise ValueError("max epochs must be at least 1")


class PointState:
    """Which points seeding and growth have handed out, guarding against a second claim."""

    def __init__(self, n_points: int) -> None:
        self.assigned_to = np.full(n_points, -1, dtype=int)

    def assign(self, indices, patch_id: int) -> None:
        idx = np.asarray(indices, dtype=int)
        if np.any(self.assigned_to[idx] >= 0):
            raise ValueError("point already assigned")
        self.assigned_to[idx] = patch_id

    def available_mask(self) -> np.ndarray:
        return self.assigned_to < 0

    def available_indices(self) -> np.ndarray:
        return np.where(self.assigned_to < 0)[0]


@dataclass
class Patch:
    """A growing planar patch: plane + hull (which carries the plane) + members + theta.

    ``members`` is a 1-D int array of cloud indices in acceptance order; any
    sequence given to the constructor is converted to one.
    """

    id: int
    plane: geometry.Plane
    hull: geometry.PlanarHull
    members: np.ndarray
    theta: GammaParams
    pair: "object"  # seeding.SegmentPair; kept loose to avoid an import cycle
    boundary_weight: float = 1.0
    intensity_weight: float = 1.0
    # merged patches carry a member-weighted intensity instead of their pair's
    intensity_override: float | None = None
    # points the seed's residual prune excluded; growth never offers them to this patch
    pruned: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def __post_init__(self) -> None:
        self.members = np.asarray(self.members, dtype=int).reshape(-1)

    @property
    def mean_intensity(self) -> float:
        if self.intensity_override is not None:
            return self.intensity_override
        return 0.5 * (self.pair.ellipse_left.mean_intensity + self.pair.ellipse_right.mean_intensity)

    def refit(self, member_positions: np.ndarray) -> None:
        """Set theta to ``gamma_mle`` of the members' clamped plane term (1 + w) * s^2.

        That is their joint distance while they lie inside their hull (see
        ``_joint_distance``).  A degenerate sample (fewer than two members, or
        all distances numerically equal) keeps the current theta.
        """
        d = (1.0 + self.boundary_weight) * self.plane.sq_dist_many(member_positions)
        try:
            self.theta = gamma_mle(np.maximum(d, _DIST_CLAMP))
        except ValueError:
            logger.debug("patch %d: degenerate distance sample, keeping theta", self.id)


def _joint_distance(
    hulls: geometry.HullStack, weight: np.ndarray | float, points: np.ndarray
) -> np.ndarray:
    """(n, P) joint distances of (n, 3) points to P stacked patches, clamped away from zero.

    The joint distance is the squared plane distance plus ``weight`` times
    the squared distance to the solid hull.  Each hull carries its patch's
    plane, so the plane term is the squared signed distance to the hull
    plane.  Where a point projects inside a hull the hull term equals the
    plane term and the distance is (1 + w) * plane term; the lateral
    boundary term is evaluated only for the rows outside some hull.
    """
    s = hulls.signed_dist(points)
    d_plane = s * s
    q = hulls.to_2d(points)
    inside = hulls.contains_2d(q)
    d = (1.0 + weight) * d_plane
    rows = np.flatnonzero(~np.all(inside, axis=1))
    if len(rows):
        dp = d_plane[rows]
        outer = dp + weight * (dp + hulls.boundary_sq_dist_2d(q[rows]))
        d[rows] = np.where(inside[rows], d[rows], outer)
    return np.maximum(d, _DIST_CLAMP)


def _image_prior(
    patches: list[Patch], positions: np.ndarray, rig: StereoRig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Image-prior term zeta*(z_l/2(1-rho_l^2) + z_r/2(1-rho_r^2)) per point and patch.

    Returns the (n_points, n_patches) term, each patch's half log product of
    the two views' decorrelated moments (1-rho^2)*xx*yy, and the (n_points,)
    mask of points that project into both cameras.
    """
    pl, okl = project_many(rig.camera_left, positions)
    pr, okr = project_many(rig.camera_right, positions)
    prior = np.empty((len(positions), len(patches)))
    half_log_moments = np.empty(len(patches))
    for j, patch in enumerate(patches):
        el = patch.pair.ellipse_left
        er = patch.pair.ellipse_right
        oml = 1.0 - el.correlation**2
        omr = 1.0 - er.correlation**2
        zl = el.mahalanobis(pl)
        zr = er.mahalanobis(pr)
        prior[:, j] = patch.intensity_weight * (zl / (2.0 * oml) + zr / (2.0 * omr))
        moments = oml * omr * el.inertia[0] * el.inertia[2] * er.inertia[0] * er.inertia[2]
        half_log_moments[j] = 0.5 * np.log(moments)
    return prior, half_log_moments, okl & okr


class PatchStack:
    """The stacked scorer: the log posterior of points against every patch at once.

    It is built over a fixed point set, the cloud's positions: each patch's
    seed-pruned points (``Patch.pruned``) are cloud indices, and each bars
    its row for that patch alone.  So a stack holding seeded patches needs
    the cloud's rows, and a pruned index outside the stacked rows raises
    ValueError naming its patch.  Patches without pruned points (hand-built,
    loaded or merged ones) may be scored over any points.  The image prior,
    the two-camera visibility and the pruned mask are evaluated once for all
    of the points, since growth does not change them.  Hulls, weights, Gamma
    parameters and the log posterior's constant are stacked along a patch
    axis; ``refresh`` re-reads one patch after it has accepted points.  Each
    entry takes the same floating-point operations, in the same order, as
    scoring that one point against that one patch alone.
    """

    def __init__(self, patches: list[Patch], positions: np.ndarray, rig: StereoRig) -> None:
        self.patches = list(patches)
        self.positions = np.atleast_2d(np.asarray(positions, float))
        self.prior, self.half_log_moments, visible = _image_prior(self.patches, self.positions, rig)
        self.blocked = np.repeat(~visible[:, None], len(self.patches), axis=1)
        for j, patch in enumerate(self.patches):
            if np.any((patch.pruned < 0) | (patch.pruned >= len(self.positions))):
                raise ValueError(
                    f"patch {patch.id} bars cloud points outside the {len(self.positions)} stacked rows"
                )
            self.blocked[patch.pruned, j] = True
        self._column = {p.id: j for j, p in enumerate(self.patches)}
        n = len(self.patches)
        self.hulls = geometry.HullStack([p.hull for p in self.patches])
        self.weight = np.empty(n)
        self.shape = np.empty(n)
        self.scale = np.empty(n)
        self.log_const = np.empty(n)
        for j in range(n):
            self._load(j)

    def refresh(self, patch_id: int) -> None:
        """Re-read the stacked row of one patch, after it accepted points."""
        self._load(self._column[patch_id])

    def _load(self, j: int) -> None:
        patch = self.patches[j]
        a, b = patch.theta.shape, patch.theta.scale
        self.weight[j] = patch.boundary_weight
        self.shape[j] = a
        self.scale[j] = b
        # the Gamma normalization -a*log(b) - log(Gamma(a)) and the ellipse moment term
        self.log_const[j] = -a * np.log(b) - math.lgamma(a) - self.half_log_moments[j]
        self.hulls.set(j, patch.hull)

    def scores(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), n_patches) log posteriors of the given points; blocked entries are -inf."""
        d = _joint_distance(self.hulls, self.weight, self.positions[rows])
        scores = (
            (self.shape - 1.0) * np.log(d) - self.prior[rows] - d / self.scale + self.log_const
        )
        return np.where(self.blocked[rows], -np.inf, scores)


def classify_batch(
    patches: list[Patch],
    cloud: PointCloud,
    indices: np.ndarray,
    cfg: GrowConfig,
    rig: StereoRig,
    stack: PatchStack | None = None,
) -> list[int | None]:
    """Best patch for each point, or None below the acceptance threshold.

    The winner is the argmax of the log posteriors (ties go to the lowest
    patch id); it is accepted only when the winning posterior clears
    log_threshold + noise penalty + noise-model offset for that point.
    A patch never wins a point it pruned at seeding (``Patch.pruned``).
    ``stack`` is the stacked scorer of ``patches`` over ``cloud``, as
    ``grow`` keeps it; without one it is built for this call.
    """
    if rig.noise_model is None:
        raise ValueError("rig has no calibrated noise model")
    if cloud.penalty is None:
        raise ValueError("cloud has no noise penalties; run attach_penalty first")
    idx = np.asarray(indices, dtype=int)
    if not patches:
        return [None] * len(idx)
    if stack is None:
        stack = PatchStack(patches, cloud.positions, rig)
    scores = stack.scores(idx)
    # np.argmax returns the first maximum, and patches are kept sorted by id,
    # so exact ties resolve to the lowest patch id
    best_col = np.argmax(scores, axis=1)
    best = scores[np.arange(len(idx)), best_col]
    threshold = cfg.log_threshold + cloud.penalty[idx] + noise_model_offset(rig.noise_model)
    ok = np.isfinite(best) & (best >= threshold)
    return [patches[col].id if good else None for col, good in zip(best_col, ok)]


def accept(patch: Patch, cloud: PointCloud, state: PointState, indices) -> None:
    """Fold accepted points into the patch and refresh its statistics.

    The plane absorbs the new points through its running sums, the hull is
    rebuilt from the members at its vertices and the new points on the
    refitted plane (``geometry.update_hull``), and the Gamma parameters are
    refitted to all members' plane terms in one batch (``Patch.refit``).
    """
    idx = np.asarray(indices, dtype=int).ravel()
    if len(idx) == 0:
        return
    new_pts = cloud.positions[idx]
    patch.plane = geometry.update_fit_many(patch.plane, new_pts)
    patch.members = np.concatenate([patch.members, idx])
    patch.hull = geometry.update_hull(patch.hull, patch.plane, new_pts)
    state.assign(idx, patch.id)
    patch.refit(cloud.positions[patch.members])


def member_labels(patches: list[Patch], n_points: int) -> np.ndarray:
    """Each point's patch id, or -1 for a point in no patch, read off the member arrays.

    Raises ValueError naming the first patch with members outside the
    ``n_points`` points, or the lowest point listed twice, whether by one
    patch or by two.
    """
    labels = np.full(n_points, -1, dtype=int)
    if not patches:
        return labels
    members = np.concatenate([p.members for p in patches])
    ids = np.repeat([p.id for p in patches], [len(p.members) for p in patches])
    outside = (members < 0) | (members >= n_points)
    if np.any(outside):
        raise ValueError(f"patch {ids[np.argmax(outside)]} has members outside the {n_points} points")
    twice = np.bincount(members, minlength=n_points) > 1
    if np.any(twice):
        raise ValueError(f"point {np.argmax(twice)} is listed twice")
    labels[members] = ids
    return labels


@dataclass
class GrowResult:
    patches: list[Patch]
    epochs: int
    truncated: bool
    accepted: int


def grow(
    patches: list[Patch],
    cloud: PointCloud,
    cfg: GrowConfig,
    rig: StereoRig,
    state: PointState,
) -> GrowResult:
    """Run the acceptance loop until an epoch makes no progress.

    Each epoch serves its points nearest first, by the sum of squared
    distances to the two camera centers (equal sums go to the higher index
    first), so near points are classified while the patches are still small.
    The first epoch serves every available point; each later one serves the
    points the one before rejected, in the order they were served.  The loop
    ends when an epoch accepts nothing, or after ``max_epochs`` (flagged
    truncated).  One ``PatchStack`` over the cloud scores every batch, so a
    patch never takes a point its seed pruned (``Patch.pruned``).  Without
    patches nothing can be accepted, and no epoch runs.
    """
    if not patches:
        return GrowResult(patches, 0, False, 0)
    centers = rig.camera_centers()
    avail = state.available_indices()
    cam_d = np.sum((cloud.positions[avail, None, :] - centers[None, :, :]) ** 2, axis=(1, 2))
    queue = avail[np.lexsort((-avail, cam_d))]

    stack = PatchStack(patches, cloud.positions, rig)
    epochs = 0
    truncated = False
    accepted_total = 0
    patches_by_id = {p.id: p for p in patches}

    while len(queue):
        rejected = []
        for start in range(0, len(queue), cfg.batch_size):
            batch = queue[start : start + cfg.batch_size]
            decisions = classify_batch(patches, cloud, batch, cfg, rig, stack)
            rejected.append(batch[[d is None for d in decisions]])
            for pid in sorted({d for d in decisions if d is not None}):
                accept(patches_by_id[pid], cloud, state, batch[[d == pid for d in decisions]])
                stack.refresh(pid)
        rejected = np.concatenate(rejected)
        epochs += 1
        accepted_total += len(queue) - len(rejected)
        if len(rejected) == len(queue):
            break
        if epochs >= cfg.max_epochs:
            truncated = True
            logger.warning("growth truncated after %d epochs", epochs)
            break
        queue = rejected

    return GrowResult(patches, epochs, truncated, accepted_total)
