"""Probabilistic region growing over a stereo point cloud.

Each patch carries a plane fit, a convex boundary hull, and Gamma parameters
over its members' joint point-to-patch distances.  Candidate points are served
nearest-camera-first from a queue; a point joins the patch with the highest
log posterior provided that posterior clears a per-point threshold built from
the global acceptance level and the point's noise penalty.  Rejected points
return to the far end of the queue and are retried after the patches have
grown.

All patches grow in parallel, so every queued point is scored against every
live patch.  ``PatchStack`` does this in one vectorised pass: it holds each
patch's plane, hull and Gamma parameters along a patch axis and evaluates an
(n points x n patches) log-posterior matrix.  The image-prior term and the
two-camera visibility depend only on the point and the patch's segment pair,
which nothing changes during growth, so ``grow`` computes them once for the
whole cloud, together with the mask of points each seed pruned; after an
accept only that patch's row of the stack is re-read.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .distributions import GammaParams, gamma_mle
from .stereo import _DIST_CLAMP, PointCloud, StereoRig, noise_model_offset, project_many

logger = logging.getLogger(__name__)


@dataclass
class GrowConfig:
    """Growth parameters.

    ``log_threshold`` is the acceptance level in log space; the boundary
    weight mixes the hull distance into the joint point-to-patch distance and
    the intensity weight scales the image-prior contribution, which growth
    evaluates once per point and patch.  Each point is scored against all
    patches at once by the stacked scorer (``PatchStack``).  With
    ``batch_size`` > 1 several points are classified against the same patch
    state before the fits are refreshed.
    """

    log_threshold: float = -20.0
    boundary_weight: float = 1.0
    intensity_weight: float = 1.0
    batch_size: int = 1
    max_epochs: int = 60

    def __post_init__(self) -> None:
        if self.boundary_weight <= 0:
            raise ValueError("boundary weight must be positive")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.max_epochs < 1:
            raise ValueError("max epochs must be at least 1")


class PointState:
    """Membership bookkeeping: which patch owns each point, if any."""

    def __init__(self, n_points: int) -> None:
        self.assigned_to = np.full(n_points, -1, dtype=int)
        self.rejected_by: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self.assigned_to)

    def assign(self, indices, patch_id: int) -> None:
        idx = np.asarray(indices, dtype=int)
        if np.any(self.assigned_to[idx] >= 0):
            raise ValueError("point already assigned")
        self.assigned_to[idx] = patch_id

    def reassign(self, indices, patch_id: int) -> None:
        self.assigned_to[np.asarray(indices, dtype=int)] = patch_id

    def release(self, indices) -> None:
        self.assigned_to[np.asarray(indices, dtype=int)] = -1

    def reject(self, indices, patch_id: int) -> None:
        for i in np.asarray(indices, dtype=int):
            self.rejected_by.setdefault(int(i), set()).add(patch_id)

    def barred(self, patch_ids: list[int]) -> np.ndarray:
        """(n_points, n_patches) mask of the points each listed patch rejected."""
        column = {pid: j for j, pid in enumerate(patch_ids)}
        out = np.zeros((len(self), len(patch_ids)), dtype=bool)
        for i, pids in self.rejected_by.items():
            for pid in pids:
                j = column.get(pid)
                if j is not None:
                    out[i, j] = True
        return out

    def available_mask(self) -> np.ndarray:
        return self.assigned_to < 0

    def available_indices(self) -> np.ndarray:
        return np.where(self.assigned_to < 0)[0]


@dataclass
class Patch:
    """A growing planar patch: plane + hull + members + distance statistics."""

    id: int
    plane: geometry.Plane
    hull: geometry.PlanarHull
    members: list[int]
    theta: GammaParams
    pair: "object"  # seeding.SegmentPair; kept loose to avoid an import cycle
    boundary_weight: float = 1.0
    intensity_weight: float = 1.0
    log_const: float = field(default=0.0)
    # merged patches carry a member-weighted intensity instead of their pair's
    intensity_override: float | None = None

    def __post_init__(self) -> None:
        self.refresh_log_const()

    @property
    def mean_intensity(self) -> float:
        if self.intensity_override is not None:
            return self.intensity_override
        return 0.5 * (self.pair.ellipse_left.mean_intensity + self.pair.ellipse_right.mean_intensity)

    def refresh_log_const(self) -> None:
        """Recompute the cached constant of the log posterior.

        Combines the Gamma normalization with the (patch-constant) ellipse
        moment determinants: -a*log(b) - log(Gamma(a)) - 0.5*log(product of
        the two views' decorrelated moment products).
        """
        from scipy.special import gammaln

        el = self.pair.ellipse_left
        er = self.pair.ellipse_right
        oml = 1.0 - el.correlation**2
        omr = 1.0 - er.correlation**2
        moment_prod = oml * omr * el.inertia[0] * el.inertia[2] * er.inertia[0] * er.inertia[2]
        self.log_const = float(
            -self.theta.shape * np.log(self.theta.scale)
            - gammaln(self.theta.shape)
            - 0.5 * np.log(moment_prod)
        )


def joint_distance(patch: Patch, position: np.ndarray) -> float:
    """Plane distance plus weighted hull distance, clamped away from zero.

    When the point's projection falls inside the hull the boundary term
    equals the plane term, so the joint distance collapses to
    (1 + w) * plane distance without evaluating the hull at all.
    """
    return float(joint_distance_many(patch, np.asarray(position, float)[None, :])[0])


def joint_distance_many(patch: Patch, positions: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(positions, float))
    d_plane = patch.plane.sq_dist_many(pts)
    w = patch.boundary_weight
    q = patch.hull.to_2d(pts)
    inside = patch.hull.contains_2d(q)
    out = (1.0 + w) * d_plane
    if not np.all(inside):
        idx = np.where(~inside)[0]
        s = pts[idx] @ patch.hull.normal + patch.hull.offset
        lateral = geometry._point_edges_sq_dist_2d(q[idx], patch.hull)
        out[idx] = d_plane[idx] + w * (s * s + lateral)
    return np.maximum(out, _DIST_CLAMP)


def _image_prior(
    patches: list[Patch], positions: np.ndarray, rig: StereoRig
) -> tuple[np.ndarray, np.ndarray]:
    """Image-prior term zeta*(z_l/2(1-rho_l^2) + z_r/2(1-rho_r^2)) per point and patch.

    Returns the (n_points, n_patches) term and the (n_points,) mask of points
    that project into both cameras.
    """
    pl, okl = project_many(rig.camera_left, positions)
    pr, okr = project_many(rig.camera_right, positions)
    prior = np.empty((len(positions), len(patches)))
    for j, patch in enumerate(patches):
        el = patch.pair.ellipse_left
        er = patch.pair.ellipse_right
        oml = 1.0 - el.correlation**2
        omr = 1.0 - er.correlation**2
        zl = el.mahalanobis(pl)
        zr = er.mahalanobis(pr)
        prior[:, j] = patch.intensity_weight * (zl / (2.0 * oml) + zr / (2.0 * omr))
    return prior, okl & okr


class PatchStack:
    """The stacked scorer: the log posterior of points against every patch at once.

    It is built over a fixed point set (during growth, the whole cloud).  The
    image prior, the two-camera visibility and the points each patch has
    rejected (``state``) are evaluated once for all of those points, since
    growth does not change them.  Plane, hull and Gamma parameters are
    stacked along a patch axis; ``refresh`` re-reads one patch after it has
    accepted points.  Each entry takes the same floating-point operations, in
    the same order, as scoring that one point against that one patch alone.
    """

    def __init__(
        self,
        patches: list[Patch],
        positions: np.ndarray,
        rig: StereoRig,
        state: PointState | None = None,
    ) -> None:
        self.patches = list(patches)
        self.positions = np.atleast_2d(np.asarray(positions, float))
        self.prior, visible = _image_prior(self.patches, self.positions, rig)
        self.blocked = ~visible[:, None]
        if state is not None:
            self.blocked = self.blocked | state.barred([p.id for p in self.patches])
        self._column = {p.id: j for j, p in enumerate(self.patches)}
        n = len(self.patches)
        self.hulls = geometry.HullStack([p.hull for p in self.patches])
        self.plane = np.empty((n, 4))
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
        self.plane[j] = patch.plane.implicit
        self.weight[j] = patch.boundary_weight
        self.shape[j] = patch.theta.shape
        self.scale[j] = patch.theta.scale
        self.log_const[j] = patch.log_const
        self.hulls.set(j, patch.hull)

    def scores(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), n_patches) log posteriors of the given points.

        The joint distance is as in ``joint_distance_many``; blocked entries
        are -inf.
        """
        pts = self.positions[rows]
        r = geometry._dot_rows(pts[:, None, :], self.plane[None, :, :3]) + self.plane[:, 3]
        d_plane = r * r
        q = self.hulls.to_2d(pts)
        s = self.hulls.signed_dist(pts)
        lateral = self.hulls.boundary_sq_dist_2d(q)
        d = np.where(
            self.hulls.contains_2d(q),
            (1.0 + self.weight) * d_plane,
            d_plane + self.weight * (s * s + lateral),
        )
        d = np.maximum(d, _DIST_CLAMP)
        scores = (
            (self.shape - 1.0) * np.log(d) - self.prior[rows] - d / self.scale + self.log_const
        )
        return np.where(self.blocked[rows], -np.inf, scores)


def log_posterior(patch: Patch, position: np.ndarray, rig: StereoRig) -> float:
    """Unnormalized log posterior of one 3D point belonging to the patch."""
    return float(posterior_scores([patch], np.asarray(position, float)[None, :], rig)[0, 0])


def posterior_scores(
    patches: list[Patch], positions: np.ndarray, rig: StereoRig
) -> np.ndarray:
    """(n_points, n_patches) matrix of log posteriors."""
    pts = np.atleast_2d(np.asarray(positions, float))
    return PatchStack(patches, pts, rig).scores(np.arange(len(pts)))


def classify(
    patches: list[Patch],
    cloud: PointCloud,
    index: int,
    cfg: GrowConfig,
    rig: StereoRig,
    state: PointState | None = None,
) -> int | None:
    """Best patch for one point, or None below the acceptance threshold."""
    ids = classify_batch(patches, cloud, np.array([index]), cfg, rig, state)
    return ids[0]


def classify_batch(
    patches: list[Patch],
    cloud: PointCloud,
    indices: np.ndarray,
    cfg: GrowConfig,
    rig: StereoRig,
    state: PointState | None = None,
    stack: PatchStack | None = None,
) -> list[int | None]:
    """Vectorized classification of several points against the current patches.

    The winner is the argmax of the log posteriors (ties go to the lowest
    patch id); it is accepted only when the winning posterior clears
    log_threshold + noise penalty + noise-model offset for that point.
    Patches that rejected a point in ``state`` are barred for it.  ``stack``
    is the stacked scorer of ``patches`` over ``cloud`` with ``state``'s
    rejections, as ``grow`` keeps it; without one it is built for this call.
    """
    if rig.noise_model is None:
        raise ValueError("rig has no calibrated noise model")
    if cloud.penalty is None:
        raise ValueError("cloud has no noise penalties; run attach_penalty first")
    idx = np.asarray(indices, dtype=int)
    if not patches:
        return [None] * len(idx)
    if stack is None:
        stack = PatchStack(patches, cloud.positions, rig, state)
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
    re-projected (and rebuilt only if some new point lies outside it), and the
    Gamma parameters are re-estimated from all member distances in one batch.
    A degenerate re-estimate keeps the previous parameters.
    """
    idx = np.asarray(indices, dtype=int).ravel()
    if len(idx) == 0:
        return
    patch.plane = geometry.update_fit_many(patch.plane, cloud.positions[idx])
    patch.members.extend(int(i) for i in idx)
    member_pts = cloud.positions[np.asarray(patch.members, dtype=int)]
    patch.hull = geometry.update_hull(patch.hull, patch.plane, cloud.positions[idx], member_pts)
    state.assign(idx, patch.id)
    distances = joint_distance_many(patch, member_pts)
    try:
        patch.theta = gamma_mle(distances)
    except ValueError:
        logger.debug("patch %d: degenerate distance sample, keeping previous theta", patch.id)
    patch.refresh_log_const()


@dataclass
class GrowResult:
    patches: list[Patch]
    unassigned: list[int]
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

    The queue is sorted descending by the sum of squared distances to the two
    camera centers and served from the bottom, so near points are classified
    first while the patches are still small; rejected points are re-inserted
    at the top and come around again in the next epoch.  The loop ends when a
    full epoch accepts nothing, or after ``max_epochs`` (flagged truncated).
    Without patches nothing can be accepted: no epoch runs and every
    available point stays unassigned.
    """
    centers = rig.camera_centers()
    avail = state.available_indices()
    cam_d = np.sum((cloud.positions[avail, None, :] - centers[None, :, :]) ** 2, axis=(1, 2))
    # stable descending sort; index breaks ties deterministically
    order = np.lexsort((avail, -cam_d))
    queue: deque[int] = deque(int(i) for i in avail[order])
    if not patches:
        return GrowResult(patches, [int(i) for i in queue], 0, False, 0)

    # seed_patch is the only writer of state.rejected_by, so the barred mask
    # the stack takes from it holds for the whole loop
    stack = PatchStack(patches, cloud.positions, rig, state)
    epochs = 0
    truncated = False
    accepted_total = 0
    epoch_remaining = len(queue)
    epoch_accepted = 0
    patches_by_id = {p.id: p for p in patches}

    while queue:
        k = min(cfg.batch_size, len(queue), epoch_remaining)
        batch = [queue.pop() for _ in range(k)]
        decisions = classify_batch(patches, cloud, np.array(batch), cfg, rig, state, stack)
        taken: dict[int, list[int]] = {}
        for point_idx, decision in zip(batch, decisions):
            if decision is None:
                queue.appendleft(point_idx)
            else:
                taken.setdefault(decision, []).append(point_idx)
        for pid in sorted(taken):
            accept(patches_by_id[pid], cloud, state, taken[pid])
            stack.refresh(pid)
            n_taken = len(taken[pid])
            epoch_accepted += n_taken
            accepted_total += n_taken
        epoch_remaining -= k
        if epoch_remaining <= 0:
            epochs += 1
            if epoch_accepted == 0:
                break
            if epochs >= cfg.max_epochs:
                truncated = True
                logger.warning("growth truncated after %d epochs", epochs)
                break
            epoch_remaining = len(queue)
            epoch_accepted = 0

    return GrowResult(patches, [int(i) for i in queue], epochs, truncated, accepted_total)
