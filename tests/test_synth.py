"""Scene generation, evaluation metrics, and the runtime probe."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from stereopatch.distributions import GammaParams
from stereopatch.geometry import build_hull, choose_plane_form, fit_plane
from stereopatch.growing import Patch
from stereopatch.seeding import SegmentPair
from stereopatch.stereo import EllipsePrior
from stereopatch.synth import (
    Face,
    GroundTruth,
    SceneSpec,
    build_faces,
    classification_error,
    coeff_ssd,
    default_rig,
    generate,
    polygon_moments_2d,
    runtime_probe,
    ssd_error,
)

import oracles

CHESSBOARD_RMS = 1.4859899898580033e-4


def flat_pair(intensity=0.5):
    ellipse = lambda view: EllipsePrior(
        np.array([100.0, 100.0]), np.array([40.0, 0.0, 40.0]), intensity, view
    )
    return SegmentPair(ellipse("left"), ellipse("right"), np.zeros(3))


def face_patch(pid, face, shift=0.0):
    """A patch whose plane is fitted to the face corners, optionally moved
    along the face normal by `shift`."""
    pts = face.vertices + shift * face.coeffs()[:3]
    plane = fit_plane(pts, choose_plane_form(pts))
    return Patch(
        pid,
        plane,
        build_hull(plane, pts),
        list(range(len(pts))),
        GammaParams(2.0, 1e-6),
        flat_pair(face.intensity),
        1.0,
    )


def label_patch(pid, members):
    """A geometrically arbitrary patch carrying a chosen member list."""
    patch = face_patch(pid, build_faces(SceneSpec("two-plane"))[0])
    patch.members = [int(i) for i in members]
    return patch


# -- generation ---------------------------------------------------------------


def test_noiseless_cloud_reproduces_the_sampled_points(quiet_two_plane_scene):
    scene = quiet_two_plane_scene
    gap = np.max(np.abs(scene.cloud.positions - scene.gt.positions))
    assert gap <= 1e-8


def test_labels_point_back_to_the_sampled_face():
    cloud, gt, _ = generate(SceneSpec("two-plane", 500, 0.001, 2))
    assert len(gt.labels) == len(cloud)
    assert np.all(gt.labels >= 0) and np.all(gt.labels < len(gt.faces))
    homo = np.hstack([gt.positions, np.ones((len(gt.positions), 1))])
    residuals = np.abs(np.sum(homo * gt.coeffs[gt.labels], axis=1))
    assert np.max(residuals) <= 1e-9


def test_every_preset_builds_its_face_count():
    counts = {
        "two-plane": 2,
        "path": 3,
        "chessboard": 8,
        "indoors": 5,
        "house": 5,
        "random-planes-4": 4,
    }
    for preset, expected in counts.items():
        faces = build_faces(SceneSpec(preset, seed=1))
        assert len(faces) == expected
        cloud, gt, segments = generate(SceneSpec(preset, 50, 0.001, 1))
        assert len(segments) == expected
        assert len(gt.faces) == expected


def test_plain_random_planes_normalizes_to_four():
    spec = SceneSpec("random-planes")
    assert spec.preset == "random-planes-4"
    assert spec.scene_id == "random-planes-4:0:1000:0.001"


def test_bad_specs_are_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        SceneSpec("mobius-strip")
    with pytest.raises(ValueError, match="points_per_face"):
        SceneSpec("path", points_per_face=0)
    with pytest.raises(ValueError, match="noise"):
        SceneSpec("path", pixel_noise=-0.1)


def test_chessboard_displacement_matches_the_golden_value():
    cloud, gt, _ = generate(SceneSpec("chessboard", 500, 0.001, 0))
    disp = cloud.positions - gt.positions
    rms = float(np.sqrt(np.mean(np.sum(disp**2, axis=1))))
    assert 0.0 < rms < 1e-3
    assert rms == pytest.approx(CHESSBOARD_RMS, rel=1e-9)


def test_generation_is_bit_deterministic():
    for preset in ("two-plane", "random-planes-3"):
        spec_a = SceneSpec(preset, 300, 0.001, 7)
        spec_b = SceneSpec(preset, 300, 0.001, 7)
        ca, ga, sa = generate(spec_a)
        cb, gb, sb = generate(spec_b)
        assert np.array_equal(ca.positions, cb.positions)
        assert np.array_equal(ca.pixels_left, cb.pixels_left)
        assert np.array_equal(ca.pixels_right, cb.pixels_right)
        assert np.array_equal(ga.labels, gb.labels)
        assert np.array_equal(ga.coeffs, gb.coeffs)
        for (la, ra), (lb, rb) in zip(sa, sb):
            assert np.array_equal(la.centroid, lb.centroid)
            assert np.array_equal(la.inertia, lb.inertia)
            assert np.array_equal(ra.centroid, rb.centroid)
            assert np.array_equal(ra.inertia, rb.inertia)


def test_different_seeds_move_the_noise():
    ca, _, _ = generate(SceneSpec("two-plane", 300, 0.001, 7))
    cc, _, _ = generate(SceneSpec("two-plane", 300, 0.001, 8))
    assert not np.array_equal(ca.positions, cc.positions)


def test_ground_truth_alignment_is_enforced():
    face = build_faces(SceneSpec("two-plane"))[0]
    with pytest.raises(ValueError, match="align"):
        GroundTruth([face], face.coeffs(), [0, 0], face.vertices[:3])


# -- projected segment moments --------------------------------------------------


def test_square_moments_are_exact():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    centroid, second = polygon_moments_2d(square)
    assert np.allclose(centroid, [0.5, 0.5], atol=1e-12)
    assert np.allclose(second, [1.0 / 12.0, 0.0, 1.0 / 12.0], atol=1e-12)


def test_moments_ignore_vertex_orientation():
    rng = np.random.default_rng(80)
    pts = rng.uniform(-2, 3, (12, 2))
    verts = pts[ConvexHull(pts).vertices]
    c_fwd, s_fwd = polygon_moments_2d(verts)
    c_rev, s_rev = polygon_moments_2d(verts[::-1])
    assert np.allclose(c_fwd, c_rev, atol=1e-12)
    assert np.allclose(s_fwd, s_rev, atol=1e-12)


def test_moments_match_rejection_sampling():
    rng = np.random.default_rng(81)
    for trial in range(5):
        pts = rng.uniform(-1, 4, (15, 2))
        verts = pts[ConvexHull(pts).vertices]
        centroid, second = polygon_moments_2d(verts)
        mc_c, mc_cov = oracles.montecarlo_polygon_moments(verts, seed=trial)
        assert np.allclose(centroid, mc_c, atol=0.02)
        assert second[0] == pytest.approx(mc_cov[0, 0], rel=0.03)
        assert second[2] == pytest.approx(mc_cov[1, 1], rel=0.03)
        assert second[1] == pytest.approx(mc_cov[0, 1], rel=0.05, abs=0.02)


def test_degenerate_polygon_is_rejected():
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="degenerate polygon"):
        polygon_moments_2d(line)


# -- plane-coefficient SSD ------------------------------------------------------


def test_coeff_ssd_basics():
    rng = np.random.default_rng(82)
    for trial in range(20):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        assert coeff_ssd(a, a) == 0.0
        assert coeff_ssd(a, -a) == 0.0
        assert coeff_ssd(a, b) == coeff_ssd(a, -b)
        assert coeff_ssd(a, b) == coeff_ssd(b, a)


def test_perfect_patches_score_zero_ssd():
    faces = build_faces(SceneSpec("two-plane"))
    gt = GroundTruth(
        faces,
        np.stack([f.coeffs() for f in faces]),
        [0, 1],
        np.stack([f.vertices[0] for f in faces]),
    )
    patches = [face_patch(i, f) for i, f in enumerate(faces)]
    report = ssd_error(gt, patches)
    assert report.matched == 2
    assert sorted(e.face for e in report.entries) == [0, 1]
    assert report.total <= 1e-20
    assert report.avg <= 1e-20


def test_offset_plane_costs_its_squared_shift():
    face = build_faces(SceneSpec("two-plane"))[0]
    gt = GroundTruth([face], face.coeffs(), [0], face.vertices[:1])
    report = ssd_error(gt, [face_patch(0, face, shift=1e-3)])
    assert report.total == pytest.approx(1e-6, rel=1e-6)
    assert report.avg == pytest.approx(1e-6, rel=1e-6)


def test_ssd_is_invariant_to_ground_truth_sign():
    faces = build_faces(SceneSpec("path"))
    patches = [face_patch(i, f, shift=2e-3) for i, f in enumerate(faces)]
    coeffs = np.stack([f.coeffs() for f in faces])
    anchor = np.stack([f.vertices[0] for f in faces])
    plain = ssd_error(GroundTruth(faces, coeffs, [0, 1, 2], anchor), patches)
    flipped = ssd_error(GroundTruth(faces, -coeffs, [0, 1, 2], anchor), patches)
    assert plain.total == pytest.approx(flipped.total, rel=1e-12)


def test_surplus_patch_is_flagged_not_averaged():
    faces = build_faces(SceneSpec("two-plane"))
    gt = GroundTruth(
        faces,
        np.stack([f.coeffs() for f in faces]),
        [0, 1],
        np.stack([f.vertices[0] for f in faces]),
    )
    stray = Face(faces[0].vertices + np.array([0.0, -3.0, 9.0]), 0.5)
    patches = [face_patch(i, f) for i, f in enumerate(faces)]
    patches.append(face_patch(2, stray))
    report = ssd_error(gt, patches)
    assert report.matched == 2
    flagged = [e for e in report.entries if e.face is None]
    assert len(flagged) == 1
    assert flagged[0].patch_id == 2 and flagged[0].ssd is None
    assert report.avg == pytest.approx(report.total / 2.0, rel=1e-12)


def test_ssd_requires_at_least_one_patch():
    faces = build_faces(SceneSpec("two-plane"))
    gt = GroundTruth(
        faces,
        np.stack([f.coeffs() for f in faces]),
        [0],
        faces[0].vertices[:1],
    )
    with pytest.raises(ValueError, match="no patches"):
        ssd_error(gt, [])


# -- classification error -------------------------------------------------------


def two_class_gt(labels):
    faces = build_faces(SceneSpec("two-plane"))
    labels = np.asarray(labels, int)
    anchor = np.zeros((len(labels), 3))
    for fi, face in enumerate(faces):
        anchor[labels == fi] = face.vertices[0]
    return GroundTruth(faces, np.stack([f.coeffs() for f in faces]), labels, anchor)


def test_perfect_split_scores_zero():
    gt = two_class_gt([0] * 5 + [1] * 5)
    patches = [label_patch(0, range(5)), label_patch(1, range(5, 10))]
    assert classification_error(gt, patches) == 0.0


def test_unassigned_cloud_with_half_on_faces_scores_half():
    gt = two_class_gt([0] * 5 + [-1] * 5)
    assert classification_error(gt, []) == pytest.approx(0.5)


def test_patch_ids_do_not_matter_only_the_split_does():
    gt = two_class_gt([0] * 5 + [1] * 5)
    patches = [label_patch(7, range(5, 10)), label_patch(3, range(5))]
    assert classification_error(gt, patches) == 0.0


def test_error_stays_within_the_unit_interval():
    rng = np.random.default_rng(83)
    for trial in range(10):
        labels = rng.integers(-1, 2, size=40)
        gt = two_class_gt(labels)
        cut = rng.integers(0, 40)
        patches = [label_patch(0, range(cut)), label_patch(1, range(cut, 40))]
        err = classification_error(gt, patches)
        assert 0.0 <= err <= 1.0


def test_misassigned_points_are_charged():
    gt = two_class_gt([0] * 8 + [1] * 2)
    patches = [label_patch(0, range(8)), label_patch(1, range(8, 10))]
    assert classification_error(gt, patches) == 0.0
    swapped = [label_patch(0, range(6)), label_patch(1, list(range(6, 10)))]
    assert classification_error(gt, swapped) == pytest.approx(0.2)


# -- runtime probe --------------------------------------------------------------


def test_runtime_probe_scales_monotonically():
    # One timing of a 20-40 ms run is at the mercy of the scheduler, so the
    # order is checked on each row's best time over five probes.
    probes = [runtime_probe([1000, 2000, 4000], [2, 4, 8]) for _ in range(5)]
    for rows in probes:
        assert [r["value"] for r in rows] == [1000, 2000, 4000, 2, 4, 8]
        for row in rows:
            assert row["error"] == ""
            assert row["patches"] >= 1
            assert set(row) == {"axis", "value", "points", "patches", "seconds", "error"}
        points_rows = [r for r in rows if r["axis"] == "points"]
        patch_rows = [r for r in rows if r["axis"] == "patches"]
        assert [r["points"] for r in points_rows] == [1000, 2000, 4000]
        assert [r["points"] for r in patch_rows] == [800, 1600, 3200]
    best = [min(rows[i]["seconds"] for rows in probes) for i in range(6)]
    for times in (best[:3], best[3:]):
        assert times == sorted(times)
