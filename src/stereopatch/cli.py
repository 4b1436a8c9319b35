"""Command-line interface: extract, synth, eval, sweep, calibrate."""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

import numpy as np

from . import io, pipeline, synth
from .geometry import hull_area
from .stereo import attach_uncertainty, calibrate_noise_model

logger = logging.getLogger(__name__)

_NOISE_COLUMNS = ["sigma", "patches", "ssd_total", "ssd_avg", "class_error", "epochs", "error"]
_GRID_COLUMNS = [
    "log_threshold",
    "boundary_weight",
    "patches",
    "ssd_total",
    "ssd_avg",
    "class_error",
    "epochs",
    "error",
]
_TIMING_COLUMNS = ["axis", "value", "points", "patches", "seconds", "error"]
# default --values of the runtime axes: total points, and random-planes face counts
_DEFAULT_VALUES = {"points": "1000,2000,4000", "patches": "2,4,8"}


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING - 10 * min(verbosity, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_run_config(path: str | None) -> pipeline.RunConfig:
    if path is None:
        return pipeline.RunConfig()
    return io.load_config(path)


def _check_same_scene(*ids: str | None) -> None:
    known = [s for s in ids if s]
    if known and any(s != known[0] for s in known):
        raise io.InputError(f"scene_id mismatch between input files: {sorted(set(known))}")


def cmd_extract(args: argparse.Namespace) -> int:
    cloud, _, scene_id = io.load_cloud(args.cloud)
    rig, cam_scene = io.load_cameras(args.cameras)
    segments, seg_scene = io.load_segments(args.segments)
    _check_same_scene(scene_id, cam_scene, seg_scene)
    scene_id = scene_id or cam_scene or seg_scene or ""
    cfg = _load_run_config(args.config).for_scene(scene_id)

    result = pipeline.run_pipeline(cloud, rig, segments, cfg)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = io.ExtractionDocument(
        result.patches,
        np.flatnonzero(result.labels < 0).tolist(),
        scene_id,
        result.grow_result.epochs,
        result.grow_result.truncated,
        result.grow_result.accepted,
    )
    io.save_patches(out / "patches.json", doc)
    io.save_cloud(out / "labeled.ply", cloud, result.labels, scene_id, binary=args.binary)
    report = _extract_report(doc, len(cloud), len(result.seed_rejections))
    (out / "report.txt").write_text(report)
    print(report, end="")
    return 0


def _extract_report(doc: io.ExtractionDocument, n_points: int, n_rejected_seeds: int) -> str:
    lines = [
        "extraction report",
        f"scene: {doc.scene_id or 'unknown'}",
        f"points: {n_points}",
        f"assigned: {n_points - len(doc.unassigned)}",
        f"unassigned: {len(doc.unassigned)}",
        f"patches: {len(doc.patches)}",
        f"epochs: {doc.epochs}",
        f"accepted: {doc.accepted}",
        f"truncated: {'yes' if doc.truncated else 'no'}",
        f"seed rejections: {n_rejected_seeds}",
    ]
    for patch in sorted(doc.patches, key=lambda p: p.id):
        n = patch.plane.implicit
        lines.append(
            "patch %d: members=%d area=%.6g intensity=%.3f plane=[%.6f %.6f %.6f %.6f]"
            % (
                patch.id,
                len(patch.members),
                hull_area(patch.hull),
                patch.mean_intensity,
                n[0],
                n[1],
                n[2],
                n[3],
            )
        )
    return "\n".join(lines) + "\n"


def cmd_synth(args: argparse.Namespace) -> int:
    preset = args.preset
    if args.faces is not None:
        if not preset.startswith("random-planes"):
            raise io.InputError("--faces only applies to the random-planes preset")
        preset = f"random-planes-{args.faces}"
    try:
        spec = synth.SceneSpec(preset, args.points_per_face, args.noise, args.seed)
    except ValueError as exc:
        raise io.InputError(str(exc)) from None

    rig = synth.default_rig(spec.pixel_noise)
    cloud, gt, segments = synth.generate(spec, rig)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.save_cloud(out / "cloud.ply", cloud, gt.labels, spec.scene_id, binary=args.binary)
    io.save_cameras(out / "cameras.json", rig, spec.scene_id)
    io.save_segments(out / "segments.json", segments, spec.scene_id)
    io.save_ground_truth(out / "gt.json", gt)
    print(
        f"scene {spec.scene_id}: {len(cloud)} points, {len(gt.faces)} faces, "
        f"{len(segments)} segment pairs -> {out}"
    )
    return 0


def _metrics_table(scene: str, n_patches: int, report: synth.SsdReport, class_error: float) -> str:
    header = f"{'dataset':<28} {'patches':>7} {'total_ssd':>12} {'avg_ssd':>12} {'class_err':>10}"
    row = "%-28s %7d %12.4E %12.4E %10.4f" % (
        scene or "unknown",
        n_patches,
        report.total,
        report.avg,
        class_error,
    )
    detail = [
        "  patch %d -> face %s: ssd %s"
        % (e.patch_id, e.face, "%.4E" % e.ssd if e.ssd is not None else "unmatched")
        for e in report.entries
    ]
    return "\n".join([header, row, *detail]) + "\n"


def cmd_eval(args: argparse.Namespace) -> int:
    gt = io.load_ground_truth(args.gt)
    doc = io.load_patches(args.patches)
    _check_same_scene(gt.scene_id, doc.scene_id)
    try:
        report = synth.ssd_error(gt, doc.patches)
        class_error = synth.classification_error(gt, doc.patches)
    except ValueError as exc:
        raise io.InputError(f"{args.patches}: {exc}") from None
    table = _metrics_table(gt.scene_id, len(doc.patches), report, class_error)
    if args.out:
        Path(args.out).write_text(table)
    print(table, end="")
    return 0


def _parse_values(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise io.InputError(f"bad --values list {text!r}; expected comma-separated integers") from None
    if not values or any(v < 1 for v in values):
        raise io.InputError("--values needs positive integers")
    return values


def _write_csv(path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k, "")) for k in columns})


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args.config)
    out = Path(args.out) if args.out else Path(args.out_dir) / f"sweep_{args.axis}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)

    if args.axis == "noise":
        sigmas = np.geomspace(args.sigma_min, args.sigma_max, args.samples)
        rows = pipeline.sweep_noise(args.preset, sigmas, cfg, args.seed, args.points_per_face)
        _write_csv(out, _NOISE_COLUMNS, rows)
    elif args.axis == "thresholds":
        taus = np.linspace(args.tau_min, args.tau_max, args.samples)
        weights = np.geomspace(args.weight_min, args.weight_max, args.samples)
        rows = pipeline.sweep_thresholds(
            args.preset, taus, weights, cfg, args.seed, args.points_per_face, args.noise
        )
        _write_csv(out, _GRID_COLUMNS, rows)
    else:
        values = _parse_values(args.values or _DEFAULT_VALUES[args.axis])
        counts = (values, []) if args.axis == "points" else ([], values)
        rows = synth.runtime_probe(*counts, args.noise, args.seed)
        _write_csv(out, _TIMING_COLUMNS, rows)

    failed = sum(1 for r in rows if r.get("error"))
    print(f"sweep {args.axis}: {len(rows)} rows ({failed} failed) -> {out}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    cloud, _, cloud_scene = io.load_cloud(args.cloud)
    rig, cam_scene = io.load_cameras(args.cameras)
    _check_same_scene(cloud_scene, cam_scene)
    attach_uncertainty(cloud, rig)
    model = calibrate_noise_model(cloud, rig)
    io.save_cameras(args.out, rig, cam_scene or cloud_scene)
    print(f"noise model: shape={model.shape!r} scale={model.scale!r} -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stereopatch",
        description="Planar patch extraction from stereo point clouds, with a synthetic-scene harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        seed_help = "seed of scene generation for synth and sweep; no effect on extract or calibrate"
        p.add_argument("--seed", type=int, default=0, help=seed_help)
        p.add_argument("-v", "--verbose", action="count", default=0)

    p = sub.add_parser("extract", help="run the full extraction pipeline on files")
    p.add_argument("--cloud", required=True, help="labeled PLY point cloud")
    p.add_argument("--cameras", required=True, help="cameras JSON")
    p.add_argument("--segments", required=True, help="segment pairs JSON")
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--out-dir", default="out", help="output directory")
    p.add_argument("--binary", action="store_true", help="write the labeled cloud as binary PLY")
    common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--preset", required=True, help=f"one of: {', '.join(synth.PRESET_NAMES)}")
    p.add_argument("--points-per-face", type=int, default=1000)
    p.add_argument("--noise", type=float, default=0.001, help="pixel noise sigma")
    p.add_argument("--faces", type=int, help="face count for the random-planes preset")
    p.add_argument("--out-dir", default="out", help="output directory")
    p.add_argument("--binary", action="store_true", help="write the cloud as binary PLY")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score a patches file against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth JSON")
    p.add_argument("--patches", required=True, help="patches JSON")
    p.add_argument("--out", help="also write the metrics table to this file")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a parameter sweep and write CSV")
    p.add_argument("--axis", required=True, choices=["noise", "points", "patches", "thresholds"])
    p.add_argument("--preset", default="two-plane")
    p.add_argument("--samples", type=int, default=None, help="sample count (axis-dependent default)")
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--points-per-face", type=int, default=1000)
    p.add_argument("--noise", type=float, default=0.001, help="pixel noise for non-noise axes")
    p.add_argument("--sigma-min", type=float, default=0.001)
    p.add_argument("--sigma-max", type=float, default=0.5)
    p.add_argument("--tau-min", type=float, default=-35.0)
    p.add_argument("--tau-max", type=float, default=-5.0)
    p.add_argument("--weight-min", type=float, default=1e-8)
    p.add_argument("--weight-max", type=float, default=1e-2)
    p.add_argument("--values", help="comma-separated axis values for points/patches")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--out-dir", default="out")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help="fit the pixel-noise model and update a cameras file")
    p.add_argument("--cloud", required=True)
    p.add_argument("--cameras", required=True)
    p.add_argument("--out", required=True, help="output cameras JSON with the fitted model")
    common(p)
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args.verbose)
    if getattr(args, "samples", None) is None and getattr(args, "axis", None):
        args.samples = 7 if args.axis == "thresholds" else 20
    try:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, not {args.seed}")
        return args.func(args)
    except io.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except pipeline.PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
