"""Patch seeding from corresponding elliptical image segments.

Each correspondence of segment centroids is triangulated into a 3D seed;
available points inside the seed sphere form the initial cluster, which is
fitted, pruned of outliers once, and turned into a patch with hull and Gamma
distance statistics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import geometry
from .distributions import GammaParams, gamma_sum_approx
from .growing import Patch, PointState, _check_config
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

    ``radius`` is the seed-sphere radius in world units; when None it is
    resolved to ``radius_frac`` times the cloud bounding-box diagonal.
    ``inlier_residual`` (squared) defaults to nine times the squared median
    absolute residual of the initial fit, floored at fit precision.
    """

    radius: float | None = None
    radius_frac: float = 0.05
    min_cluster: int = 8
    inlier_residual: float | None = None
    overlap_drop: float = 0.8

    def __post_init__(self) -> None:
        _check_config(
            self, ("min_cluster",), ("radius_frac", "overlap_drop"), ("radius", "inlier_residual")
        )
        if self.radius_frac <= 0:
            raise ValueError("radius fraction must be positive")
        if self.min_cluster < 4:
            raise ValueError("min cluster must be at least 4")
        if not 0.0 < self.overlap_drop <= 1.0:
            raise ValueError("overlap fraction must lie in (0, 1]")
        for name in ("radius", "inlier_residual"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")

    def resolve_radius(self, cloud: PointCloud) -> float:
        if self.radius is not None:
            return float(self.radius)
        return self.radius_frac * cloud.bbox_diagonal()


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


def naive_segment(
    image: np.ndarray,
    view: str = "left",
    max_segments: int = 32,
    levels: int = 16,
    min_frac: float = 0.001,
) -> list[EllipsePrior]:
    """Quick-and-dirty segmenter: connected components of quantized intensity.

    Intended for bootstrapping on synthetic or very clean imagery, not as a
    real segmentation front end.  Components covering less than ``min_frac``
    of the image are discarded; the rest become ellipses via their pixel
    centroid and second central moments, largest first.
    """
    img = np.asarray(image, float)
    if img.ndim != 2:
        raise ValueError("image must be 2D")
    if np.any(img < 0) or np.any(img > 1):
        raise ValueError("intensities must lie in [0, 1]")
    quant = np.clip((img * levels).astype(int), 0, levels - 1)
    min_pixels = max(int(min_frac * img.size), 1)
    found: list[tuple[int, EllipsePrior]] = []
    for level in range(levels):
        mask = quant == level
        if not mask.any():
            continue
        labelled, n_comp = ndimage.label(mask)
        for comp in range(1, n_comp + 1):
            rows, cols = np.nonzero(labelled == comp)
            if len(rows) < min_pixels:
                continue
            cx = float(np.mean(cols))
            cy = float(np.mean(rows))
            xx = float(np.mean((cols - cx) ** 2))
            yy = float(np.mean((rows - cy) ** 2))
            xy = float(np.mean((cols - cx) * (rows - cy)))
            if xx <= 0 or yy <= 0 or xx * yy - xy * xy <= 0:
                continue  # degenerate (line-like) component
            intensity = float(np.mean(img[rows, cols]))
            found.append(
                (
                    len(rows),
                    EllipsePrior(np.array([cx, cy]), np.array([xx, xy, yy]), intensity, view),
                )
            )
    found.sort(key=lambda item: -item[0])
    return [e for _, e in found[:max_segments]]


def _area_key(seg: EllipsePrior) -> float:
    """Square root of the segment's moment determinant, which grows with its area."""
    xx, xy, yy = seg.inertia
    return float(np.sqrt(max(xx * yy - xy * xy, 0.0)))


def pair_segments_by_rank(
    left_segments: list[EllipsePrior], right_segments: list[EllipsePrior]
) -> list[tuple[EllipsePrior, EllipsePrior]]:
    """Pair segments across views by area rank, as (left, right) segment tuples.

    This is a crude stand-in for real correspondence matching and is only
    reliable when both views see the same segments at similar scales.
    """
    return list(
        zip(
            sorted(left_segments, key=_area_key, reverse=True),
            sorted(right_segments, key=_area_key, reverse=True),
        )
    )


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


def seed_patch(
    pair: SegmentPair,
    cloud: PointCloud,
    cfg: SeedConfig,
    state: PointState,
    patch_id: int,
    boundary_weight: float = 1.0,
    intensity_weight: float = 1.0,
) -> Patch | SeedRejection:
    """Grow one seed sphere into an initial patch.

    Returns a SeedRejection (reason "sparse seed" or "degenerate seed")
    instead of raising when the cluster is unusable.  The outliers excluded
    by the residual prune are kept on the patch as ``Patch.pruned``, and
    growth never offers them to this patch again (other patches may take
    them).
    """
    radius = cfg.resolve_radius(cloud)
    d2 = np.sum((cloud.positions - pair.seed) ** 2, axis=1)
    cand = np.where(state.available_mask() & (d2 <= radius * radius))[0]
    if len(cand) < cfg.min_cluster:
        return SeedRejection("sparse seed", pair)
    pts = cloud.positions[cand]
    try:
        form = geometry.choose_plane_form(pts)
        plane = geometry.fit_plane(pts, form)
    except ValueError:
        return SeedRejection("degenerate seed", pair)

    residuals = geometry.fit_residuals(plane, pts)
    if cfg.inlier_residual is not None:
        threshold = cfg.inlier_residual
    else:
        diam = float(np.linalg.norm(np.ptp(pts, axis=0)))
        threshold = max(9.0 * float(np.median(np.abs(residuals))) ** 2, (1e-9 * diam) ** 2)
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
        [int(i) for i in members],
        _fallback_theta(cloud, members, boundary_weight),
        pair,
        boundary_weight,
        intensity_weight,
        pruned=cand[~inliers],
    )
    patch.refit(cloud.positions[members])
    state.assign(members, patch_id)
    return patch


def seed_all(
    pairs: list[SegmentPair],
    cloud: PointCloud,
    cfg: SeedConfig,
    boundary_weight: float = 1.0,
    intensity_weight: float = 1.0,
) -> tuple[list[Patch], PointState, list[SeedRejection]]:
    """Seed every segment pair, largest segment first.

    Seeds whose spheres overlap an earlier kept seed by more than the
    configured fraction are dropped as duplicates.  Patch ids are assigned in
    acceptance order, so the returned list is sorted by id.
    """
    state = PointState(len(cloud))
    radius = cfg.resolve_radius(cloud)
    order = sorted(range(len(pairs)), key=lambda i: (-_area_key(pairs[i].ellipse_left), i))
    spheres = [
        frozenset(
            np.where(np.sum((cloud.positions - pairs[i].seed) ** 2, axis=1) <= radius * radius)[0]
        )
        for i in range(len(pairs))
    ]

    patches: list[Patch] = []
    rejections: list[SeedRejection] = []
    kept_spheres: list[frozenset] = []
    for i in order:
        sphere = spheres[i]
        if sphere and any(
            len(sphere & kept) > cfg.overlap_drop * len(sphere) for kept in kept_spheres
        ):
            rejections.append(SeedRejection("duplicate seed", pairs[i]))
            continue
        result = seed_patch(
            pairs[i], cloud, cfg, state, len(patches), boundary_weight, intensity_weight
        )
        if isinstance(result, Patch):
            patches.append(result)
            kept_spheres.append(sphere)
        else:
            rejections.append(result)
    return patches, state, rejections
