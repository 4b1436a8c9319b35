"""End-to-end extraction driver: calibrate, seed, grow, refine, verify."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import synth
from .distributions import WeibullParams
from .geometry import hull_is_convex
from .growing import GrowConfig, GrowResult, Patch, grow, member_labels
from .refinement import RefineConfig, refine
from .seeding import SeedConfig, SeedRejection, seed_all, segment_to_pairs
from .stereo import (
    EllipsePrior,
    PointCloud,
    StereoRig,
    attach_penalty,
    attach_uncertainty,
    calibrate_noise_model,
)

logger = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    """Raised when a pipeline stage cannot produce a usable result."""


def default_presets() -> dict:
    """Boundary weights of the bundled synthetic scenes that differ from the default.

    ``GrowConfig``'s defaults (acceptance level -15, boundary weight 1e-7)
    sit on the low-error plateau of two-plane, path, indoors, house and
    random-planes at the default density and pixel noise, so they, and
    scenes without a preset name, need no block.  The chessboard needs
    1e-4: its faces are coplanar, and the hull term alone stops a patch
    from swallowing the neighbouring cells.
    """
    return {"chessboard": {"grow": {"boundary_weight": 1e-4}}}


@dataclass
class RunConfig:
    """All tunables for one extraction run, with per-preset override blocks."""

    seed_cfg: SeedConfig = field(default_factory=SeedConfig)
    grow_cfg: GrowConfig = field(default_factory=GrowConfig)
    refine_cfg: RefineConfig = field(default_factory=RefineConfig)
    presets: dict = field(default_factory=default_presets)

    def for_scene(self, scene_id: str) -> "RunConfig":
        """Apply the override block matching the scene's preset, if any.

        Blocks are keyed by the preset element of the scene id (text before
        the first colon); a parameterized name like random-planes-6 also
        matches its base name.
        """
        preset = scene_id.split(":", 1)[0]
        base = preset.rsplit("-", 1)[0] if preset.rsplit("-", 1)[-1].isdigit() else preset
        block = self.presets.get(preset) or self.presets.get(base)
        return _with_blocks(self, block) if block else self


def _with_blocks(cfg: RunConfig, block: dict) -> RunConfig:
    """Copy of ``cfg`` with the field overrides of a block's seed/grow/refine entries."""
    return RunConfig(
        replace(cfg.seed_cfg, **block.get("seed", {})),
        replace(cfg.grow_cfg, **block.get("grow", {})),
        replace(cfg.refine_cfg, **block.get("refine", {})),
        cfg.presets,
    )


@dataclass
class PipelineResult:
    """The final patches and each cloud point's patch id, or -1 (``member_labels``)."""

    patches: list[Patch]
    labels: np.ndarray
    grow_result: GrowResult
    seed_rejections: list[SeedRejection]


def prepare(cloud: PointCloud, rig: StereoRig) -> None:
    """Attach uncertainty and penalties, calibrating the noise model if needed.

    Idempotent: already-attached arrays and an already-calibrated model are
    kept, so repeated runs on a shared cloud skip the uncertainty pass.  When
    calibration cannot proceed (too few finite samples, or a degenerate
    sample under zero pixel noise) a unit Weibull model is used instead.
    """
    if cloud.uncertainty is None:
        attach_uncertainty(cloud, rig)
    if rig.noise_model is None:
        try:
            calibrate_noise_model(cloud, rig)
        except ValueError as exc:
            logger.warning("noise calibration failed (%s); using unit Weibull model", exc)
            rig.noise_model = WeibullParams(1.0, 1.0)
    if cloud.penalty is None:
        attach_penalty(cloud, rig.noise_model)


def run_pipeline(
    cloud: PointCloud,
    rig: StereoRig,
    segments: list[tuple[EllipsePrior, EllipsePrior]],
    cfg: RunConfig | None = None,
) -> PipelineResult:
    """Full extraction: prepare, seed, grow, refine, then verify invariants."""
    if cfg is None:
        cfg = RunConfig()
    if len(cloud) == 0:
        raise ValueError("empty point cloud")
    if not segments:
        raise PipelineError("no segment pairs")

    prepare(cloud, rig)

    pairs = segment_to_pairs(segments, rig)
    if not pairs:
        raise PipelineError("no segment pair triangulates")

    # one bounding-box scan per run: it sets the seed radius and the refine gates
    diagonal = cloud.bbox_diagonal()
    seed_radius = cfg.seed_cfg.resolve_radius(diagonal)
    patches, assigned_to, rejections = seed_all(
        pairs,
        cloud,
        cfg.seed_cfg,
        seed_radius,
        boundary_weight=cfg.grow_cfg.boundary_weight,
        intensity_weight=cfg.grow_cfg.intensity_weight,
    )
    if not patches:
        raise PipelineError("no surviving seeds")

    grow_result = grow(patches, cloud, cfg.grow_cfg, rig, assigned_to)

    final = refine(grow_result.patches, cloud, cfg.refine_cfg.resolved(diagonal, seed_radius))
    if not final:
        raise PipelineError("no patches survive refinement")

    labels = verify_extraction(final, cloud)
    return PipelineResult(final, labels, grow_result, rejections)


def verify_extraction(patches: list[Patch], cloud: PointCloud) -> np.ndarray:
    """Structural invariants every finished extraction must satisfy; returns the labels.

    Every member indexes the cloud, no point is listed twice (by one patch
    or by two), and every hull is convex.  Raises PipelineError naming the
    first violation; otherwise returns ``member_labels`` of the patches.
    """
    try:
        labels = member_labels(patches, len(cloud))
    except ValueError as exc:
        raise PipelineError(str(exc)) from None
    for patch in patches:
        if not hull_is_convex(patch.hull):
            raise PipelineError(f"patch {patch.id} hull is not convex")
    return labels


def _metric_row(gt: synth.GroundTruth, result: PipelineResult) -> dict:
    report = synth.ssd_error(gt, result.patches)
    return {
        "patches": len(result.patches),
        "ssd_total": report.total,
        "ssd_avg": report.avg,
        "class_error": synth.classification_error(gt, result.patches),
        "epochs": result.grow_result.epochs,
        "error": "",
    }


def _failed_row(exc: Exception) -> dict:
    return {
        "patches": 0,
        "ssd_total": float("nan"),
        "ssd_avg": float("nan"),
        "class_error": float("nan"),
        "epochs": 0,
        "error": str(exc),
    }


def sweep_noise(
    preset: str,
    sigmas,
    cfg: RunConfig | None = None,
    seed: int = 0,
    points_per_face: int = 1000,
) -> list[dict]:
    """One pipeline run per pixel-noise level; failures become flagged rows."""
    rows = []
    for sigma in sigmas:
        spec = synth.SceneSpec(preset, points_per_face, float(sigma), seed)
        rig = synth.default_rig(spec.pixel_noise)
        run_cfg = (cfg or RunConfig()).for_scene(spec.scene_id)
        try:
            cloud, gt, segments = synth.generate(spec, rig)
            result = run_pipeline(cloud, rig, segments, run_cfg)
            row = _metric_row(gt, result)
        except (ValueError, PipelineError) as exc:
            row = _failed_row(exc)
        row["sigma"] = float(sigma)
        rows.append(row)
    return rows


def sweep_thresholds(
    preset: str,
    log_thresholds,
    boundary_weights,
    cfg: RunConfig | None = None,
    seed: int = 0,
    points_per_face: int = 1000,
    pixel_noise: float = 0.001,
) -> list[dict]:
    """Grid sweep over (log acceptance threshold, boundary weight).

    The scene is generated and calibrated once; every grid cell reruns
    seeding, growth and refinement with its own thresholds.
    """
    spec = synth.SceneSpec(preset, points_per_face, pixel_noise, seed)
    rig = synth.default_rig(spec.pixel_noise)
    cloud, gt, segments = synth.generate(spec, rig)
    prepare(cloud, rig)
    base = (cfg or RunConfig()).for_scene(spec.scene_id)

    rows = []
    for log_tau in log_thresholds:
        for weight in boundary_weights:
            cell = _with_blocks(
                base, {"grow": {"log_threshold": float(log_tau), "boundary_weight": float(weight)}}
            )
            try:
                result = run_pipeline(cloud, rig, segments, cell)
                row = _metric_row(gt, result)
            except (ValueError, PipelineError) as exc:
                row = _failed_row(exc)
            row["log_threshold"] = float(log_tau)
            row["boundary_weight"] = float(weight)
            rows.append(row)
    return rows
