"""The acceptance gate: one test per shipped guarantee.

Each test carries a criterion marker; the terminal summary prints one
pass/fail line per criterion at the end of the run.  Bounds are asserted
exactly as promised, with no slack added in either direction.
"""

import csv
import math
import time

import numpy as np
import pytest

from stereopatch import cli, pipeline, synth
from stereopatch.distributions import (
    GammaParams,
    gamma_mle,
    gamma_sum_approx,
    weibull_fit,
)
from stereopatch.geometry import (
    PlaneForm,
    build_hull,
    fit_plane,
    point_hull_sq_dist_many,
    update_fit_many,
)
from stereopatch.growing import GrowConfig, accept
from stereopatch.seeding import SeedConfig, seed_all, segment_to_pairs
from stereopatch.synth import SceneSpec, coeff_ssd, default_rig, generate

import oracles
from conftest import _build_scene, _run
from test_geometry import hull_from_random_points
from test_growing import build_micro


@pytest.mark.criterion(
    1, "noiseless seed fits recover every plane (ssd <= 1e-9, < 5 s at 5k points)"
)
def test_noiseless_seed_fit_recovery():
    densities = {
        "two-plane": 2500,
        "path": 1000,
        "chessboard": 1000,
        "indoors": 1000,
        "house": 1000,
        "random-planes-4": 1000,
    }
    for preset, ppf in densities.items():
        spec = SceneSpec(preset, ppf, 0.0, 0)
        rig = default_rig(0.0)
        cloud, gt, segments = generate(spec, rig)

        start = time.perf_counter()
        pairs = segment_to_pairs(segments, rig)
        assert len(pairs) == len(segments), f"{preset}: a centroid pair failed to triangulate"
        seed_cfg, grow_cfg = SeedConfig(), GrowConfig()
        patches, _, rejections = seed_all(
            pairs,
            cloud,
            seed_cfg,
            seed_cfg.resolve_radius(cloud.bbox_diagonal()),
            grow_cfg.boundary_weight,
            grow_cfg.intensity_weight,
        )
        elapsed = time.perf_counter() - start
        assert not rejections, f"{preset}: {[r.reason for r in rejections]}"

        # One segment pair per face, emitted in face order, so each seed is
        # scored against the plane of the face its pair came from (several
        # presets hold coplanar faces, which rules out matching by
        # coefficients).
        assert len(patches) == len(gt.faces)
        for patch in patches:
            (face,) = [f for f, pair in zip(gt.faces, pairs) if patch.pair is pair]
            ssd = coeff_ssd(patch.plane.implicit, face.coeffs())
            assert ssd <= 1e-9, f"{preset}: face {patch.id}: ssd {ssd:.3e}"
        if len(cloud) >= 5000:
            assert elapsed < 5.0


@pytest.mark.criterion(
    2, "low-noise pipeline: avg ssd <= 1e-4, classification error <= 0.05, < 60 s"
)
def test_low_noise_pipeline_accuracy(two_plane_run, path_run):
    for run in (two_plane_run, path_run):
        assert len(run.cloud) >= 2000
        assert len(run.gt.faces) <= 5
        assert run.seconds < 60.0
        report = synth.ssd_error(run.gt, run.result.patches)
        assert report.matched == len(run.gt.faces)
        assert report.avg <= 1e-4
        assert synth.classification_error(run.gt, run.result.patches) <= 0.05


def oracle_convex(verts2d):
    """Cross products of consecutive edges never change sign."""
    v = np.asarray(verts2d, float)
    if len(v) < 3:
        return False
    e = np.roll(v, -1, axis=0) - v
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    scale = float(np.max(np.abs(e))) ** 2
    return bool(np.all(cross >= -1e-9 * scale) or np.all(cross <= 1e-9 * scale))


@pytest.mark.criterion(
    3, "every run: exclusive membership, assigned+unassigned = N, convex hulls"
)
def test_membership_and_hull_properties(two_plane_run, path_run):
    runs = [two_plane_run, path_run]
    for sigma in (0.01, 0.1):
        runs.append(_run(_build_scene("two-plane", pixel_noise=sigma)))
    for run in runs:
        n = len(run.cloud)
        all_members = [i for p in run.result.patches for i in p.members]
        assert len(all_members) == len(set(all_members)), "a point sits in two patches"
        assigned = run.result.labels
        for patch in run.result.patches:
            assert np.all(assigned[patch.members] == patch.id)
            assert oracle_convex(patch.hull.verts2d)
        assert len(all_members) == int(np.sum(assigned >= 0))
        assert len(all_members) + int(np.sum(assigned < 0)) == n


@pytest.mark.criterion(4, "oracle equivalences hold over 200+ randomized cases each")
def test_oracle_equivalences():
    # Hull distance against a dense sampling of the solid polygon.  Mixed
    # inside- and outside-projection queries, guarded away from the surface
    # so the sampling resolution supports the relative tolerance.
    rng = np.random.default_rng(40)
    cases = 0
    for trial in range(320):
        hull, plane, _ = hull_from_random_points(rng, n=10)
        normal = plane.implicit[:3]
        if trial % 2:
            center = hull.vertices.mean(axis=0)
            p = center + normal * rng.uniform(0.45, 1.5) * rng.choice([-1.0, 1.0])
        else:
            edge_dir = hull.vertices[0] - hull.vertices[1]
            edge_dir /= np.linalg.norm(edge_dir)
            p = (
                hull.vertices[0]
                + edge_dir * rng.uniform(0.6, 2.0)
                + normal * rng.uniform(-1.5, 1.5)
            )
        expect = oracles.dense_point_polygon_sq_dist(p, hull.vertices, grid=300)
        if expect < 0.2:
            continue
        got = point_hull_sq_dist_many(hull, p[None])[0]
        assert got == pytest.approx(expect, rel=1e-3)
        assert got <= expect + 1e-12
        cases += 1
        if cases == 200:
            break
    assert cases == 200

    # Incremental fit against the batch fit on the same points.
    rng = np.random.default_rng(41)
    for trial in range(200):
        n = int(rng.integers(10, 41))
        ab = rng.uniform(-1.0, 1.0, (n, 2))
        slope = rng.uniform(-0.7, 0.7, 2)
        z = ab @ slope + rng.uniform(-0.5, 0.5) + rng.normal(0.0, 0.01, n)
        pts = np.column_stack([ab, z])
        running = fit_plane(pts[:3], PlaneForm.Z)
        for p in pts[3:]:
            running = update_fit_many(running, p[None])
        batch = fit_plane(pts, PlaneForm.Z)
        assert np.allclose(running.coeffs, batch.coeffs, rtol=1e-9, atol=1e-12)
        assert np.allclose(running.implicit, batch.implicit, rtol=1e-9, atol=1e-12)

    # The accept loop against a from-scratch rebuild after every acceptance.
    for seed in (21, 22):
        scene = build_micro(n=900, seed=seed)
        patch, cloud, assigned_to = scene.patch, scene.cloud, scene.assigned_to
        available = np.flatnonzero(assigned_to < 0)
        order = np.asarray(available)[
            np.argsort(np.sum((cloud.positions[available] - patch.pair.seed) ** 2, axis=1))
        ]
        for idx in order[:110]:
            accept(patch, cloud, assigned_to, [int(idx)])
            member_pts = cloud.positions[np.asarray(patch.members)]
            scratch = fit_plane(member_pts, patch.plane.form)
            # Relative error at the scale of the coefficient vector; an
            # elementwise bound on a near-zero slope would demand precision
            # finer than the roundoff of the shared running sums.
            gap = np.linalg.norm(patch.plane.coeffs - scratch.coeffs)
            assert gap <= 1e-9 * np.linalg.norm(scratch.coeffs)
            dists = np.maximum(
                (1.0 + patch.boundary_weight) * scratch.sq_dist_many(member_pts), 1e-12
            )
            scratch_theta = gamma_mle(dists)
            assert patch.theta.shape == pytest.approx(scratch_theta.shape, rel=1e-9)
            assert patch.theta.scale == pytest.approx(scratch_theta.scale, rel=1e-9)
        scratch_hull = build_hull(scratch, member_pts)
        assert len(patch.hull.vertices) == len(scratch_hull.vertices)
        gaps = np.linalg.norm(
            patch.hull.vertices[:, None, :] - scratch_hull.vertices[None, :, :], axis=2
        )
        assert np.max(gaps.min(axis=1)) <= 1e-6

    # Hull vertex sets against an exhaustive triangle-containment oracle.
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(8, 31))
        ab = rng.uniform(-2.0, 2.0, (n, 2))
        pts = np.column_stack([ab, 0.2 * ab[:, 0] - 0.1 * ab[:, 1] + 1.0])
        plane = fit_plane(pts, PlaneForm.Z)
        hull = build_hull(plane, pts)
        expect_idx = oracles.brute_hull_vertex_set(ab)
        got = oracles.point_set_key(hull.vertices)
        expect = oracles.point_set_key(pts[sorted(expect_idx)])
        assert got == expect


@pytest.mark.criterion(
    5, "estimators within 5% at n=1e5; moment identities exact; penalty identity 1e-12"
)
def test_statistical_estimators():
    rng = np.random.default_rng(50)
    for trial in range(20):
        shape = rng.uniform(0.5, 5.0)
        scale = rng.uniform(0.2, 3.0)
        fit = gamma_mle(rng.gamma(shape, scale, 100_000))
        assert fit.shape == pytest.approx(shape, rel=0.05)
        assert fit.scale == pytest.approx(scale, rel=0.05)

    for trial in range(20):
        shape = rng.uniform(0.5, 4.0)
        scale = rng.uniform(0.05, 5.0)
        fit = weibull_fit(scale * rng.weibull(shape, 100_000))
        assert fit.shape == pytest.approx(shape, rel=0.05)
        assert fit.scale == pytest.approx(scale, rel=0.05)

    # Moment identities of the weighted two-Gamma sum: algebraic, so only
    # float roundoff is tolerated.
    for trial in range(200):
        g1 = GammaParams(rng.uniform(0.3, 6.0), rng.uniform(0.05, 4.0))
        g2 = GammaParams(rng.uniform(0.3, 6.0), rng.uniform(0.05, 4.0))
        w = rng.uniform(0.05, 12.0)
        out = gamma_sum_approx(g1, g2, w)
        mu = g1.shape * g1.scale + g2.shape * w * g2.scale
        var = g1.shape * g1.scale**2 + g2.shape * w**2 * g2.scale**2
        assert math.isclose(out.shape * out.scale, mu, rel_tol=1e-15)
        assert math.isclose(out.shape * out.scale**2, var, rel_tol=1e-15)

    # Additive split of the penalty transform against the density itself.
    for trial in range(200):
        k = rng.uniform(0.4, 4.0)
        lam = rng.uniform(0.01, 5.0)
        d = rng.uniform(1e-9, 8.0)
        f = (d / lam) ** k - (k - 1.0) * math.log(d)
        c2 = k * math.log(lam) - math.log(k)
        rhs = -float(oracles.ref_weibull_logpdf(d, k, lam))
        assert f + c2 == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.criterion(
    6, "noise sweep: finite errors everywhere, err(0.001) <= 0.05, ssd < 1e-2"
)
def test_noise_robustness_curve():
    sigmas = np.geomspace(0.001, 0.5, 20)
    rows = pipeline.sweep_noise("two-plane", sigmas, pipeline.RunConfig(), 0, 1000)
    assert len(rows) == 20
    for row, sigma in zip(rows, sigmas):
        assert row["sigma"] == pytest.approx(sigma)
        assert row["error"] == ""
        assert row["patches"] >= 1
        for key in ("ssd_total", "ssd_avg", "class_error"):
            assert math.isfinite(row[key])
        assert row["ssd_avg"] < 1e-2
        assert row["ssd_total"] < 1e-2
    assert rows[0]["class_error"] <= 0.05


@pytest.mark.criterion(
    7, "threshold grid: the best boundary cell is no better than the best interior cell"
)
def test_threshold_landscape():
    taus = np.linspace(-35.0, -5.0, 7)
    weights = np.geomspace(1e-8, 1e-2, 7)
    rows = pipeline.sweep_thresholds(
        "two-plane", taus, weights, pipeline.RunConfig(), 0, 1000, 0.001
    )
    assert len(rows) == 49
    best_interior = math.inf
    best_boundary = math.inf
    for k, row in enumerate(rows):
        i, j = divmod(k, 7)
        assert row["log_threshold"] == pytest.approx(taus[i])
        assert row["boundary_weight"] == pytest.approx(weights[j])
        err = row["class_error"] if row["error"] == "" else math.inf
        if 1 <= i <= 5 and 1 <= j <= 5:
            best_interior = min(best_interior, err)
        else:
            best_boundary = min(best_boundary, err)
    assert math.isfinite(best_interior)
    assert best_boundary >= best_interior


@pytest.mark.criterion(8, "identical inputs and seed give byte-identical command outputs")
def test_command_determinism(tmp_path, capsys):
    del capsys  # the fixture silences CLI stdout during the test
    def identical(dir_a, dir_b, names):
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    scene_files = ("cloud.ply", "cameras.json", "segments.json", "gt.json")
    for label in ("a", "b"):
        code = cli.main(
            ["synth", "--preset", "two-plane", "--points-per-face", "1000",
             "--seed", "3", "--out-dir", str(tmp_path / f"synth_{label}")]
        )
        assert code == 0
    identical(tmp_path / "synth_a", tmp_path / "synth_b", scene_files)

    scene = tmp_path / "synth_a"
    for label in ("a", "b"):
        code = cli.main(
            ["extract", "--cloud", str(scene / "cloud.ply"),
             "--cameras", str(scene / "cameras.json"),
             "--segments", str(scene / "segments.json"),
             "--seed", "3", "--out-dir", str(tmp_path / f"extract_{label}")]
        )
        assert code == 0
    identical(
        tmp_path / "extract_a",
        tmp_path / "extract_b",
        ("patches.json", "labeled.ply", "report.txt"),
    )

    for label in ("a", "b"):
        code = cli.main(
            ["eval", "--gt", str(scene / "gt.json"),
             "--patches", str(tmp_path / "extract_a" / "patches.json"),
             "--out", str(tmp_path / f"metrics_{label}.txt")]
        )
        assert code == 0
    assert (tmp_path / "metrics_a.txt").read_bytes() == (tmp_path / "metrics_b.txt").read_bytes()

    for label in ("a", "b"):
        code = cli.main(
            ["sweep", "--axis", "noise", "--samples", "2",
             "--sigma-min", "0.001", "--sigma-max", "0.002",
             "--points-per-face", "1000",
             "--out", str(tmp_path / f"noise_{label}.csv")]
        )
        assert code == 0
    assert (tmp_path / "noise_a.csv").read_bytes() == (tmp_path / "noise_b.csv").read_bytes()

    # The timing sweep's seconds column is a wall-clock measurement; every
    # other cell must repeat exactly.
    for label in ("a", "b"):
        code = cli.main(
            ["sweep", "--axis", "points", "--values", "2000",
             "--out", str(tmp_path / f"points_{label}.csv")]
        )
        assert code == 0
    rows = []
    for label in ("a", "b"):
        with open(tmp_path / f"points_{label}.csv", newline="") as fh:
            rows.append([
                {k: v for k, v in row.items() if k != "seconds"}
                for row in csv.DictReader(fh)
            ])
    assert rows[0] == rows[1]
