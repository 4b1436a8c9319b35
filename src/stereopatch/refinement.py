"""Post-growth cleanup: drop fragments, merge near-coplanar neighbours.

Merging is greedy on the normal alignment |n_i . n_j|: the best-aligned pair
that also passes the hull-proximity and intensity gates is merged, the union
is refitted from scratch (including a fresh slope test), and the search
repeats until no pair qualifies.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import geometry
from .growing import Patch, _check_config
from .stereo import PointCloud

logger = logging.getLogger(__name__)


@dataclass
class RefineConfig:
    """Refinement gates.

    ``hull_dist_max`` (squared world units) and ``min_area`` are resolved by
    the pipeline from the seed radius and scene extent when left None; refine
    itself requires concrete values.
    """

    normal_dot_min: float = 0.98
    hull_dist_max: float | None = None
    min_members: int = 10
    min_area: float | None = None
    intensity_tol: float = 0.1

    def __post_init__(self) -> None:
        _check_config(
            self, ("min_members",), ("normal_dot_min", "intensity_tol"), ("hull_dist_max", "min_area")
        )
        if not 0.0 <= self.normal_dot_min <= 1.0:
            raise ValueError("normal_dot_min must lie in [0, 1]")
        if self.min_members < 1:
            raise ValueError("min_members must be at least 1")
        if self.intensity_tol < 0:
            raise ValueError("intensity_tol must not be negative")
        for name in ("hull_dist_max", "min_area"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must not be negative")

    def resolved(self, cloud: PointCloud, seed_radius: float) -> "RefineConfig":
        hull_dist = self.hull_dist_max
        if hull_dist is None:
            hull_dist = (2.0 * seed_radius) ** 2
        min_area = self.min_area
        if min_area is None:
            min_area = 1e-4 * cloud.bbox_diagonal() ** 2
        return RefineConfig(
            self.normal_dot_min, hull_dist, self.min_members, min_area, self.intensity_tol
        )


def _merge(a: Patch, b: Patch, cloud: PointCloud) -> Patch:
    """Union refit of two patches; keeps the lower id and its segment pair.

    A degenerate distance sample keeps the first patch's theta.
    """
    members = np.union1d(a.members, b.members)
    pts = cloud.positions[members]
    form = geometry.choose_plane_form(pts)
    plane = geometry.fit_plane(pts, form)
    hull = geometry.build_hull(plane, pts)
    merged = Patch(
        min(a.id, b.id),
        plane,
        hull,
        members,
        a.theta,
        a.pair,
        a.boundary_weight,
        a.intensity_weight,
    )
    merged.refit(pts)
    na, nb = len(a.members), len(b.members)
    merged.intensity_override = (na * a.mean_intensity + nb * b.mean_intensity) / (na + nb)
    return merged


def refine(patches: list[Patch], cloud: PointCloud, cfg: RefineConfig) -> list[Patch]:
    """Discard undersized patches, then greedily merge aligned neighbours.

    A discarded patch's members are left in no patch.  Merge
    candidates need |n_i . n_j| >= normal_dot_min, hull distance <=
    hull_dist_max and mean intensities within intensity_tol; ties on the
    alignment go to the lowest id pair.  Deterministic throughout.
    """
    if cfg.hull_dist_max is None or cfg.min_area is None:
        raise ValueError("refine config not resolved")

    kept: list[Patch] = []
    for patch in sorted(patches, key=lambda p: p.id):
        if len(patch.members) < cfg.min_members or geometry.hull_area(patch.hull) < cfg.min_area:
            logger.info(
                "discarding patch %d (%d members, area %.3g)",
                patch.id,
                len(patch.members),
                geometry.hull_area(patch.hull),
            )
            continue
        kept.append(patch)

    while True:
        best: tuple[float, int, int] | None = None
        best_pair: tuple[int, int] | None = None
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                a, b = kept[i], kept[j]
                alignment = abs(float(np.dot(a.plane.normal, b.plane.normal)))
                if alignment < cfg.normal_dot_min:
                    continue
                if abs(a.mean_intensity - b.mean_intensity) > cfg.intensity_tol:
                    continue
                if geometry.hull_hull_min_sq_dist(a.hull, b.hull) > cfg.hull_dist_max:
                    continue
                key = (-alignment, a.id, b.id)
                if best is None or key < best:
                    best = key
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        merged = _merge(kept[i], kept[j], cloud)
        kept = [p for k, p in enumerate(kept) if k not in (i, j)]
        kept.append(merged)
        kept.sort(key=lambda p: p.id)

    return kept
