"""Patch seeding from corresponding elliptical image segments.

Each correspondence of segment centroids is triangulated into a 3D seed;
available points inside the seed sphere form the initial cluster, which is
fitted, refitted without its residual outliers, and turned into a patch with
hull and Gamma distance statistics.  The outliers stay free for growth.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import geometry
from .distributions import GammaParams, gamma_sum_approx
from .growing import Patch, _check_config
from .stereo import _DIST_CLAMP, EllipsePrior, PointCloud, StereoRig, triangulate_many

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SegmentPair:
    """A left/right segment correspondence with its triangulated 3D seed."""

    ellipse_left: EllipsePrior
    ellipse_right: EllipsePrior
    seed: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", np.asarray(self.seed, float).reshape(3))


@dataclass
class SeedConfig:
    """Seed gathering parameters.

    The seed-sphere radius r0 is ``radius_frac`` times the cloud
    bounding-box diagonal (``resolve_radius``); each sphere widens from it
    on sparse data, up to twice its length (see ``_seed_sphere``).
    """

    radius_frac: float = 0.05
    min_cluster: int = 8
    overlap_drop: float = 0.8

    def __post_init__(self) -> None:
        _check_config(self, ("min_cluster",), ("radius_frac", "overlap_drop"))
        if self.radius_frac <= 0:
            raise ValueError("radius fraction must be positive")
        if self.min_cluster < 4:
            raise ValueError("min cluster must be at least 4")
        if not 0.0 < self.overlap_drop <= 1.0:
            raise ValueError("overlap fraction must lie in (0, 1]")

    def resolve_radius(self, diagonal: float) -> float:
        """The seed radius r0 in a cloud whose bounding-box diagonal is ``diagonal``."""
        return self.radius_frac * diagonal


@dataclass(frozen=True)
class SeedRejection:
    """Why a segment pair produced no patch."""

    reason: str
    pair: SegmentPair


def segment_to_pairs(
    segments: list[tuple[EllipsePrior, EllipsePrior]], rig: StereoRig
) -> list[SegmentPair]:
    """Triangulate the centroids of each (left, right) segment pair into a seed point.

    All centroids are triangulated in one ``triangulate_many`` batch.  Pairs
    whose centroids triangulate degenerately are dropped with a logged
    warning rather than aborting the run.
    """
    if not segments:
        return []
    left = np.array([el.centroid for el, _ in segments])
    right = np.array([er.centroid for _, er in segments])
    seeds, ok = triangulate_many(left, right, rig)
    pairs: list[SegmentPair] = []
    for i, (el, er) in enumerate(segments):
        if not ok[i]:
            logger.warning("dropping segment pair %d: degenerate triangulation", i)
            continue
        pairs.append(SegmentPair(el, er, seeds[i]))
    return pairs


def _area_key(seg: EllipsePrior) -> float:
    """Square root of the segment's moment determinant, which grows with its area."""
    xx, xy, yy = seg.inertia
    return float(np.sqrt(max(xx * yy - xy * xy, 0.0)))


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array of finite floats, bit for bit.

    It partitions once, as np.median does, but skips np.median's NaN check,
    which imports numpy.ma (about 14 ms) on its first call.  The middle
    values are summed from 0.0, as np.mean sums them, so -0.0 reads 0.0.
    """
    k = len(values) // 2
    if len(values) % 2:
        return float(0.0 + np.partition(values, k)[k])
    part = np.partition(values, (k - 1, k))
    return float((0.0 + part[k - 1] + part[k]) / 2)


def _fallback_theta(
    cloud: PointCloud, member_idx: np.ndarray, boundary_weight: float
) -> GammaParams:
    """Starting theta of a seed patch, which ``Patch.refit`` keeps when the
    member distances all collapse (noiseless data).

    Uses the members' mean reconstruction uncertainty as the distance scale:
    that is the squared displacement the pixel noise induces, i.e. what the
    member distances would have measured.
    """
    base = _DIST_CLAMP
    if cloud.uncertainty is not None:
        u = cloud.uncertainty[member_idx]
        u = u[np.isfinite(u)]
        if len(u):
            base = max(float(np.mean(u)), _DIST_CLAMP)
    part = GammaParams(1.0, base)
    return gamma_sum_approx(part, part, boundary_weight)


def _seed_sphere(
    pair: SegmentPair,
    d2: np.ndarray,
    radius: float,
    cloud: PointCloud,
    cfg: SeedConfig,
    assigned_to: np.ndarray,
    patch_id: int,
    boundary_weight: float,
    intensity_weight: float,
) -> Patch | SeedRejection:
    """Grow one seed sphere into an initial patch, claiming its members in
    ``assigned_to`` (each point's patch id, or -1 while free).

    ``d2`` holds every point's squared distance to the seed and ``radius``
    is r0, both computed by ``seed_all``.  The sphere holds the free points
    within r0, widened to the ``min_cluster``-th nearest free point, at most
    to 2 r0.  Returns a SeedRejection (reason "sparse seed" or "degenerate
    seed") instead of raising when the cluster is unusable.  The members are
    the sphere's points whose squared residual to the first fit is at most
    nine times the squared median absolute residual, floored at fit
    precision, and the plane is refitted to them; the other points stay
    free, and growth offers them to every patch.
    """
    r2 = radius * radius
    free = assigned_to < 0
    k = cfg.min_cluster - 1
    if np.count_nonzero(free) > k:
        r2 = min(max(r2, np.partition(d2[free], k)[k]), 4.0 * r2)
    cand = np.flatnonzero(free & (d2 <= r2))
    if len(cand) < cfg.min_cluster:
        return SeedRejection("sparse seed", pair)
    pts = cloud.positions[cand]
    try:
        form = geometry.choose_plane_form(pts)
        plane = geometry.fit_plane(pts, form)
    except ValueError:
        return SeedRejection("degenerate seed", pair)

    residuals = geometry.fit_residuals(plane, pts)
    diam = float(np.linalg.norm(np.ptp(pts, axis=0)))
    threshold = max(9.0 * _median(np.abs(residuals)) ** 2, (1e-9 * diam) ** 2)
    inliers = residuals * residuals <= threshold
    if np.count_nonzero(inliers) < 3:
        return SeedRejection("degenerate seed", pair)
    if not np.all(inliers):
        try:
            plane = geometry.fit_plane(pts[inliers], form)
        except ValueError:
            return SeedRejection("degenerate seed", pair)

    members = cand[inliers]
    try:
        hull = geometry.build_hull(plane, cloud.positions[members])
    except ValueError:
        return SeedRejection("degenerate seed", pair)

    patch = Patch(
        patch_id,
        plane,
        hull,
        members,
        _fallback_theta(cloud, members, boundary_weight),
        pair,
        boundary_weight,
        intensity_weight,
    )
    patch.refit(cloud.positions[members])
    assigned_to[members] = patch_id
    return patch


def seed_all(
    pairs: list[SegmentPair],
    cloud: PointCloud,
    cfg: SeedConfig,
    radius: float,
    boundary_weight: float,
    intensity_weight: float,
) -> tuple[list[Patch], np.ndarray, list[SeedRejection]]:
    """Seed every segment pair, largest segment first.

    Returns the patches, the claims (``assigned_to``) and the rejections.
    Seeds whose r0 sphere overlaps an earlier kept seed's by more than the
    configured fraction are dropped as duplicates.  Patch ids are assigned in
    acceptance order, so the returned list is sorted by id.  ``radius`` is
    r0 as ``cfg.resolve_radius`` gives it for the cloud's bounding-box
    diagonal.  Every patch carries ``boundary_weight`` and
    ``intensity_weight``, the run's ``GrowConfig`` values, which growth reads
    off each patch.
    """
    assigned_to = np.full(len(cloud), -1)
    order = sorted(range(len(pairs)), key=lambda i: (-_area_key(pairs[i].ellipse_left), i))

    patches: list[Patch] = []
    rejections: list[SeedRejection] = []
    kept_spheres: list[np.ndarray] = []
    for i in order:
        d2 = np.sum((cloud.positions - pairs[i].seed) ** 2, axis=1)
        sphere = d2 <= radius * radius
        size = np.count_nonzero(sphere)
        if size and any(
            np.count_nonzero(sphere & kept) > cfg.overlap_drop * size for kept in kept_spheres
        ):
            rejections.append(SeedRejection("duplicate seed", pairs[i]))
            continue
        result = _seed_sphere(
            pairs[i],
            d2,
            radius,
            cloud,
            cfg,
            assigned_to,
            len(patches),
            boundary_weight,
            intensity_weight,
        )
        if isinstance(result, Patch):
            patches.append(result)
            kept_spheres.append(sphere)
        else:
            rejections.append(result)
    return patches, assigned_to, rejections
