"""Probabilistic region growing over a stereo point cloud.

Each patch carries a plane fit, a convex boundary hull, Gamma parameters
over its members' point-to-patch distances, and its members as an int array
in acceptance order; that array is the one record of membership, and
``member_labels`` derives each point's patch id from it.  Seeding and growth
claim points in the int array ``assigned_to`` (patch id, or -1 while free).
The first epoch serves the unassigned points nearest-camera-first, in
batches as large as the smallest patch, and ``GrowConfig.batch_size`` at
least: a batch can then at most double a patch before its fit is
refreshed, and the batches grow as the patches do.  A point joins the patch
with the highest log posterior provided that posterior clears a per-point
threshold built from the global acceptance level and the point's noise
penalty.  Rejected points are retried in the next epoch, after the patches
have grown: a retry epoch scores its whole queue against the patch state at
its start, so its decisions do not depend on the order it serves its points
in.  It scores the queue only against the patches that accepted points in
the epoch before: every other patch is, bit for bit, the state that already
scored each queued point below its threshold, so it can neither clear that
threshold nor tie a score that does, and the argmax over the remaining
patches, in ascending id order, picks the same winner.
An accept folds the points into the plane's running sums, grows the hull
from the members at its vertices and the accepted points alone, and refits
the Gamma parameters over every member.

The joint distance has one implementation, ``_joint_distance``, which the
classifier scores with.  Inside a hull it is (1 + w) times the plane term, so
``Patch.refit`` (in accepts, seeding and merges) fits the Gamma parameters to
the members' plane term alone.  All patches grow in parallel, so every queued
point is scored against every live patch.  ``PatchStack`` does this in one
vectorised pass: it holds each patch's hull, weight and Gamma parameters
along a patch axis and evaluates an (n points x n patches) log-posterior
matrix.  The image-prior term and the two-camera visibility depend only on
the point and the patch's segment pair, which nothing changes during growth,
so ``grow`` computes them once for the whole cloud; after an accept only
that patch's row of the stack is re-read.  Every free point, a seed's
residual outliers among them, is offered to every patch it is visible to.

A point asks one question of the patches: does any posterior clear its
threshold?  So the classifier bounds each (point, patch) score from above
before the exact work.  The joint distance is at least (1 + w) * s^2 +
w * l^2, with s^2 the plane term and l the point's in-plane distance beyond
a circle round the hull that holds every point the containment test counts
inside; the log posterior, (a - 1) * log d - d / b plus terms free of d,
is then at most its value at that floor, or at the Gamma mode (a - 1) * b
if the mode lies beyond it.  The floor l needs no in-plane coordinates:
a point x at signed distance s lies sqrt(|x - c|^2 - s^2) in-plane from
the circle's centre c lifted onto the hull plane, and a slack derived from
the operands' magnitudes covers the rounding, also far from the world
origin (``geometry.HullStack.lateral_floor``).  A pair whose bound falls
below the threshold, by a margin that covers rounding, scores -inf without
in-plane coordinates, the containment test or the per-edge boundary
distance; it could neither be accepted nor beat a posterior that is.  The
other pairs are scored exactly, so every decision equals the one over the
full matrix.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import geometry
from .distributions import GammaParams, gamma_mle
from .stereo import _DIST_CLAMP, PointCloud, StereoRig, noise_model_offset, project_many

logger = logging.getLogger(__name__)

# rows ``classify_batch`` hands to one ``PatchStack.scores`` call: a retry
# epoch's whole queue is scored in blocks of this many rows, so its scratch
# arrays stay small; nothing is accepted within a pass, so the block size
# cannot change a decision
_SCORE_ROWS = 1024


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
    evaluates once per point and patch.  The two weights reach growth only
    through ``seeding.seed_all``, which stamps them on each patch it makes:
    ``grow`` reads each patch's own weights, not these.  Each point is
    scored against all patches at once by the stacked scorer
    (``PatchStack``).  ``batch_size`` is the floor of the first epoch's
    batch (32 by default): each batch classifies that many queued points, or
    as many as the smallest patch has members if that is more, against the
    same patch state in one stacked pass before the accepting patches' fits
    are refreshed.  Each retry epoch classifies its whole queue in one pass.
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
    hulls: geometry.HullStack, weight: np.ndarray, cols: np.ndarray, d_plane: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """(K,) joint distances of K (point, patch) pairs, clamped away from zero.

    Pair k is a point with squared plane distance ``d_plane[k]`` and in-plane
    coordinates ``q[k]`` in the frame of stacked hull ``cols[k]``, whose
    boundary weight is ``weight[cols[k]]``.  The joint distance is the
    squared plane distance plus that weight times the squared distance to
    the solid hull.  Each hull carries its patch's plane, so the plane term
    is the squared signed distance to the hull plane.  Where a point projects
    inside its hull the hull term equals the plane term and the distance is
    (1 + w) * plane term; the lateral boundary term is evaluated only for the
    pairs outside.
    """
    w = weight[cols]
    d = (1.0 + w) * d_plane
    out = np.flatnonzero(~hulls.contains_2d(q, cols))
    if len(out):
        dp = d_plane[out]
        d[out] = dp + w[out] * (dp + hulls.boundary_sq_dist_2d(q[out], cols[out]))
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

    It is built over a fixed point set, any points at all.  The image prior
    and the (n points,) mask of points visible to both cameras are evaluated
    once for all of the points, since growth does not change them; a point
    outside the mask scores -inf against every patch.  Hulls, weights, Gamma
    parameters and the log posterior's constant are stacked along a patch
    axis; ``refresh`` re-reads one patch after it has accepted points.  Each
    entry takes the same floating-point operations, in the same order, as
    scoring that one point against that one patch alone.

    Given each point's acceptance threshold, ``scores`` first bounds every
    (point, patch) pair from above and evaluates exactly only the pairs that
    can clear it.  The joint distance is at least (1 + w) * s^2 + w * l^2,
    where s^2 is the plane term and l the point's distance beyond the hull's
    bounding circle (``geometry.HullStack.lateral_floor``, from 3D
    distances), so the score is at most its value there, or at the Gamma
    mode if that lies further out.  A pair whose bound, with slack for
    rounding, is below the threshold scores -inf and never reaches the
    in-plane projection, the containment test or the per-edge boundary
    distance; the other pairs keep their exact scores.  ``scores`` may be
    limited to some of the patches (``cols``), without copying the stack.
    """

    def __init__(self, patches: list[Patch], positions: np.ndarray, rig: StereoRig) -> None:
        self.patches = list(patches)
        self.positions = np.atleast_2d(np.asarray(positions, float))
        self.prior, self.half_log_moments, self.visible = _image_prior(
            self.patches, self.positions, rig
        )
        self._column = {p.id: j for j, p in enumerate(self.patches)}
        n = len(self.patches)
        self._every = np.arange(n)
        self.hulls = geometry.HullStack([p.hull for p in self.patches])
        self.weight = np.empty(n)
        self.shape = np.empty(n)
        self.scale = np.empty(n)
        self.log_const = np.empty(n)
        self.mode = np.empty(n)
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
        # the distance where the score (a - 1) * log(d) - d / b peaks
        self.mode[j] = (a - 1.0) * b if a > 1.0 else 0.0
        self.hulls.set(j, patch.hull)

    def scores(
        self, rows: np.ndarray, threshold: np.ndarray | None = None, cols: np.ndarray | None = None
    ) -> np.ndarray:
        """(len(rows), len(cols)) log posteriors of the given points against the
        patches in stack columns ``cols`` (every patch, in order, by default);
        the rows of points invisible to either camera are -inf.

        With a (len(rows),) ``threshold``, entries that provably fall below
        their row's threshold are -inf as well; every other entry is exact.
        In-plane coordinates are computed for the entries the bound keeps.
        """
        points = self.positions[rows]
        if cols is None:
            cols, prior = self._every, self.prior[rows]
        else:
            cols = np.asarray(cols, dtype=int)
            prior = self.prior[np.ix_(rows, cols)]
        s = self.hulls.signed_dist(points[:, None, :], cols)
        d_plane = s * s
        live = np.repeat(self.visible[rows, None], len(cols), axis=1)
        if threshold is not None:
            live &= self._may_clear(points, d_plane, prior, cols, np.asarray(threshold, float))
        i, k = np.nonzero(live)
        j = cols[k]
        q = self.hulls.to_2d(points[i], j)
        d = _joint_distance(self.hulls, self.weight, j, d_plane[i, k], q)
        scores = np.full(live.shape, -np.inf)
        scores[i, k] = (
            (self.shape[j] - 1.0) * np.log(d) - prior[i, k] - d / self.scale[j] + self.log_const[j]
        )
        return scores

    def _may_clear(
        self,
        points: np.ndarray,
        d_plane: np.ndarray,
        prior: np.ndarray,
        cols: np.ndarray,
        threshold: np.ndarray,
    ) -> np.ndarray:
        """(n, len(cols)) False where the score provably stays below the row's threshold."""
        w = self.weight[cols]
        lateral = self.hulls.lateral_floor(points, d_plane, cols)
        floor = ((1.0 + w) * d_plane + w * (lateral * lateral)) * (1.0 - 1e-9)
        # the score rises up to the mode and falls beyond it
        d = np.maximum(np.maximum(floor, _DIST_CLAMP), self.mode[cols])
        log_term = (self.shape[cols] - 1.0) * np.log(d)
        ratio = d / self.scale[cols]
        log_const = self.log_const[cols]
        bound = log_term - prior - ratio + log_const
        slack = 1e-9 * (1.0 + np.abs(log_term) + np.abs(prior) + ratio + np.abs(log_const))
        return ~(bound + slack < threshold[:, None])


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
    log_threshold + noise penalty + noise-model offset for that point.  A
    point that either camera cannot see gets None.  ``stack`` is a stacked
    scorer over ``cloud`` that holds every patch of ``patches``, and maybe
    others, which are not scored; ``grow`` keeps one over all its patches.
    A patch that is not in the stack raises ValueError.  Without a stack one
    is built for this call over the given points alone; a stack scores each
    point as it would among any other points, so the decisions are the same.
    Every point is scored against the same patch state, in blocks of
    ``_SCORE_ROWS`` rows.
    """
    if rig.noise_model is None:
        raise ValueError("rig has no calibrated noise model")
    if cloud.penalty is None:
        raise ValueError("cloud has no noise penalties; run attach_penalty first")
    idx = np.asarray(indices, dtype=int)
    if not patches:
        return [None] * len(idx)
    rows = idx
    if stack is None:
        stack = PatchStack(patches, cloud.positions[idx], rig)
        rows = np.arange(len(idx))
    cols = []
    for patch in patches:
        j = stack._column.get(patch.id)
        if j is None or stack.patches[j] is not patch:
            raise ValueError(f"patch {patch.id} is not in the stack")
        cols.append(j)
    # ascending columns, so ties still resolve to the lowest stacked patch (not
    # np.unique, which imports numpy.ma on its first call)
    cols = np.array(sorted(set(cols)), dtype=int)
    threshold = cfg.log_threshold + cloud.penalty[idx] + noise_model_offset(rig.noise_model)
    best_col = np.empty(len(idx), dtype=int)
    best = np.empty(len(idx))
    for start in range(0, len(idx), _SCORE_ROWS):
        block = slice(start, start + _SCORE_ROWS)
        # entries the bound drops were below their row's threshold, so they can
        # neither clear it nor beat a posterior that does
        scores = stack.scores(rows[block], threshold[block], cols)
        # np.argmax returns the first maximum, and patches are kept sorted by id,
        # so exact ties resolve to the lowest patch id
        k = np.argmax(scores, axis=1)
        best_col[block] = cols[k]
        best[block] = scores[np.arange(len(scores)), k]
    ok = np.isfinite(best) & (best >= threshold)
    ids = [p.id for p in stack.patches]
    return [ids[col] if good else None for col, good in zip(best_col.tolist(), ok.tolist())]


def accept(patch: Patch, cloud: PointCloud, assigned_to: np.ndarray, indices) -> None:
    """Claim points in ``assigned_to``, fold them into the patch, and refresh
    its statistics; a point already claimed raises ValueError first.

    The plane absorbs the new points through its running sums, the hull is
    rebuilt from the members at its vertices and the new points on the
    refitted plane (``geometry.update_hull``), and the Gamma parameters are
    refitted to all members' plane terms in one batch (``Patch.refit``).
    """
    idx = np.asarray(indices, dtype=int).ravel()
    if len(idx) == 0:
        return
    if np.any(assigned_to[idx] >= 0):
        raise ValueError("point already assigned")
    new_pts = cloud.positions[idx]
    patch.plane = geometry.update_fit_many(patch.plane, new_pts)
    patch.members = np.concatenate([patch.members, idx])
    patch.hull = geometry.update_hull(patch.hull, patch.plane, new_pts)
    assigned_to[idx] = patch.id
    patch.refit(cloud.positions[patch.members])


def check_members(patches: list[Patch], n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Every patch's members, concatenated, and the id of the patch listing each.

    Raises ValueError naming the first patch with members outside the
    ``n_points`` points, or the lowest point listed twice (by one patch or
    two).  Needs memory for the members alone, not for ``n_points`` entries.
    """
    if not patches:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    members = np.concatenate([p.members for p in patches])
    ids = np.repeat([p.id for p in patches], [len(p.members) for p in patches])
    outside = (members < 0) | (members >= n_points)
    if np.any(outside):
        raise ValueError(f"patch {ids[np.argmax(outside)]} has members outside the {n_points} points")
    ordered = np.sort(members)
    twice = ordered[1:] == ordered[:-1]
    if np.any(twice):
        raise ValueError(f"point {ordered[1:][np.argmax(twice)]} is listed twice")
    return members, ids


def member_labels(patches: list[Patch], n_points: int) -> np.ndarray:
    """Each point's patch id, or -1 for a point in no patch, read off the member
    arrays; raises ValueError as ``check_members`` does."""
    members, ids = check_members(patches, n_points)
    labels = np.full(n_points, -1, dtype=int)
    labels[members] = ids
    return labels


@dataclass
class GrowResult:
    patches: list[Patch]
    epochs: int
    truncated: bool
    accepted: int


def _batch_size(floor: int, patches: list[Patch]) -> int:
    """Points to classify against one patch state: ``floor``, or the smallest
    patch's member count if that is larger.

    Unless ``floor`` is larger, a batch of that many points can at most
    double the smallest patch before its fit is refreshed, and a larger
    patch by less.  While the smallest patch keeps growing, so does the
    batch, and the first epoch takes a number of passes near the number of
    times the smallest patch doubles, not the queue length over ``floor``.
    """
    return max(floor, min(len(p.members) for p in patches))


def _serve_epoch(
    queue: np.ndarray,
    floor: int,
    cloud: PointCloud,
    cfg: GrowConfig,
    rig: StereoRig,
    stack: PatchStack,
    assigned_to: np.ndarray,
    cols: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Serve one epoch's queue in batches; returns the points rejected, in
    queue order, and the stack columns, ascending, of the patches that
    accepted any.

    Before each batch its size is set anew by ``_batch_size``: ``floor``
    points, or as many as the smallest patch has members, if that is more,
    so the batches grow with the patches and a ``floor`` of ``len(queue)``
    serves the whole queue in one batch.  Each batch is classified against
    the patch state the batches before it left, over the patches in stack
    columns ``cols`` (every patch by default); then each winning patch takes
    its points of the batch in one ``accept``, in queue order, lowest patch
    id first, and its stacked row is re-read.  The caller vouches that
    every patch outside ``cols`` scores each queued point below its
    threshold, as a patch does that has not changed since it last rejected
    the point: it could neither win nor tie a winner, so the decisions equal
    those over every patch.
    """
    patches = stack.patches
    scored = patches if cols is None else [patches[j] for j in cols]
    rejected = []
    changed = np.zeros(len(patches), dtype=bool)
    start = 0
    while start < len(queue):
        batch = queue[start : start + _batch_size(floor, patches)]
        start += len(batch)
        decisions = classify_batch(scored, cloud, batch, cfg, rig, stack)
        won = np.array([-1 if d is None else d for d in decisions], dtype=int)
        rejected.append(batch[won < 0])
        for pid in sorted(set(won[won >= 0].tolist())):
            j = stack._column[pid]
            accept(patches[j], cloud, assigned_to, batch[won == pid])
            stack.refresh(pid)
            changed[j] = True
    return np.concatenate(rejected), np.flatnonzero(changed)


def grow(
    patches: list[Patch],
    cloud: PointCloud,
    cfg: GrowConfig,
    rig: StereoRig,
    assigned_to: np.ndarray,
) -> GrowResult:
    """Run the acceptance loop until an epoch makes no progress.

    The first epoch serves every point free in ``assigned_to``, nearest
    first, by the sum of squared distances to the two camera centers (equal
    sums go to the higher index first), so near points are classified while
    the patches are still small.  It serves them in batches, each
    classified against the patches the batches before it grew; a batch
    holds ``cfg.batch_size`` points, or as many as the smallest patch has
    members if that is more, so the batches grow as the patches do.  Each
    later (retry) epoch serves the points the one before rejected: it
    classifies its whole queue against the patch state at the epoch's start,
    then each winning patch accepts its points at once, so its decisions do
    not depend on the order of its queue.  A retry epoch
    scores its queue only against the patches that accepted points in the
    epoch before: every other patch is the state that already scored each
    queued point below its threshold.  The loop ends when an epoch accepts
    nothing, or after ``max_epochs`` (flagged truncated).  One
    ``PatchStack`` over the cloud scores every batch.  The points a seed's
    fit left out are free, and served like any other.  Without patches
    nothing can be accepted, and no epoch runs.
    """
    if not patches:
        return GrowResult(patches, 0, False, 0)
    centers = rig.camera_centers()
    avail = np.flatnonzero(assigned_to < 0)
    cam_d = np.sum((cloud.positions[avail, None, :] - centers[None, :, :]) ** 2, axis=(1, 2))
    queue = avail[np.lexsort((-avail, cam_d))]

    stack = PatchStack(patches, cloud.positions, rig)
    epochs = 0
    truncated = False
    accepted_total = 0
    changed = None

    while len(queue):
        floor = cfg.batch_size if epochs == 0 else len(queue)
        rejected, changed = _serve_epoch(queue, floor, cloud, cfg, rig, stack, assigned_to, changed)
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
