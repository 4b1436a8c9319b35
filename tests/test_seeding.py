"""Segment pairing, the fallback image segmenter, and seed-patch construction."""

import numpy as np
import pytest

from stereopatch import synth
from stereopatch.growing import PointState
from stereopatch.seeding import (
    SeedConfig,
    SeedRejection,
    SegmentPair,
    naive_segment,
    pair_segments_by_rank,
    seed_all,
    seed_patch,
    segment_to_pairs,
)
from stereopatch.stereo import EllipsePrior, PointCloud, project_many

import oracles


def circle_ellipse(centroid, intensity=0.5, view="left"):
    return EllipsePrior(np.asarray(centroid, dtype=float), np.array([2.0, 0.0, 2.0]), intensity, view)


# -- pairing ------------------------------------------------------------------


def test_seed_triangulates_from_the_centroids(two_plane_scene):
    rig = two_plane_scene.rig
    target = np.array([0.1, -0.2, 4.0])
    left = circle_ellipse(project_many(rig.camera_left, target)[0][0])
    right = circle_ellipse(project_many(rig.camera_right, target)[0][0], view="right")
    pairs = segment_to_pairs([(left, right)], rig)
    assert len(pairs) == 1
    assert np.max(np.abs(pairs[0].seed - target)) <= 1e-8


def test_empty_correspondence_gives_no_pairs(two_plane_scene):
    assert segment_to_pairs([], two_plane_scene.rig) == []


def test_degenerate_centroid_pair_is_dropped(two_plane_scene, caplog):
    rig = two_plane_scene.rig
    target = np.array([0.1, -0.2, 4.0])
    good_l = circle_ellipse(project_many(rig.camera_left, target)[0][0])
    good_r = circle_ellipse(project_many(rig.camera_right, target)[0][0], view="right")
    # Identical pixels in both views make the two rays parallel.
    bad = circle_ellipse(np.array([400.0, 300.0]))
    bad_r = circle_ellipse(np.array([400.0, 300.0]), view="right")
    with caplog.at_level("WARNING"):
        pairs = segment_to_pairs([(good_l, good_r), (bad, bad_r)], rig)
    assert len(pairs) == 1
    assert np.max(np.abs(pairs[0].seed - target)) <= 1e-8
    assert "dropping segment pair 1: degenerate triangulation" in caplog.text


def test_scene_segments_pair_onto_their_faces(two_plane_scene):
    scene = two_plane_scene
    pairs = segment_to_pairs(scene.segments, scene.rig)
    assert len(pairs) == len(scene.gt.faces)
    radius = SeedConfig().resolve_radius(scene.cloud)
    for pair in pairs:
        dists = [
            point_plane_sq_dist_from_coeffs(coeffs, pair.seed)
            for coeffs in scene.gt.coeffs
        ]
        assert min(dists) <= radius**2


def point_plane_sq_dist_from_coeffs(coeffs, p):
    return float(coeffs[:3] @ p + coeffs[3]) ** 2


@pytest.mark.parametrize("frac", [0.0, -0.05])
def test_non_positive_radius_fraction_is_rejected(frac):
    # a negative fraction would square into the same sphere as its absolute value
    with pytest.raises(ValueError, match="radius fraction must be positive"):
        SeedConfig(radius_frac=frac)


def test_rank_pairing_matches_by_area_order():
    big_l = EllipsePrior(np.array([10.0, 10.0]), np.array([9.0, 0.0, 9.0]), 0.5)
    small_l = EllipsePrior(np.array([40.0, 10.0]), np.array([1.0, 0.0, 1.0]), 0.5)
    big_r = EllipsePrior(np.array([12.0, 10.0]), np.array([8.5, 0.0, 9.5]), 0.5, "right")
    small_r = EllipsePrior(np.array([42.0, 10.0]), np.array([1.1, 0.0, 0.9]), 0.5, "right")
    matches = pair_segments_by_rank([small_l, big_l], [big_r, small_r])
    assert matches == [(big_l, big_r), (small_l, small_r)]


# -- fallback segmenter -------------------------------------------------------


def test_uniform_image_is_one_segment():
    image = np.full((60, 80), 0.5)
    segments = naive_segment(image)
    assert len(segments) == 1
    assert segments[0].centroid == pytest.approx([39.5, 29.5], abs=1.0)


def test_filled_ellipse_moments_are_recovered():
    h, w = 240, 320
    yy, xx = np.mgrid[0:h, 0:w]
    a, b = 70.0, 35.0
    cx, cy = 160.0, 120.0
    inside = ((xx - cx) / a) ** 2 + ((yy - cy) / b) ** 2 <= 1.0
    image = np.where(inside, 0.9, 0.1)
    segments = naive_segment(image)
    bright = [s for s in segments if s.mean_intensity > 0.5]
    assert len(bright) == 1
    e = bright[0]
    assert e.centroid == pytest.approx([cx, cy], abs=1.0)
    # Uniform-fill ellipse second moments: a^2/4 and b^2/4, zero cross term.
    assert e.inertia[0] == pytest.approx(a**2 / 4.0, rel=0.05)
    assert e.inertia[2] == pytest.approx(b**2 / 4.0, rel=0.05)
    assert abs(e.inertia[1]) <= 0.05 * (a**2 / 4.0)
    # Cross-check against the discrete pixel moments of the same mask.
    c, cov = oracles.discrete_image_moments(inside.astype(int), 1)
    assert e.centroid == pytest.approx(c, abs=0.5)
    assert e.inertia[0] == pytest.approx(cov[0, 0], rel=0.02)
    assert e.inertia[2] == pytest.approx(cov[1, 1], rel=0.02)


def test_two_squares_become_two_segments():
    image = np.full((80, 100), 0.1)
    image[10:30, 10:30] = 0.6
    image[45:65, 60:80] = 0.9
    segments = naive_segment(image)
    mids = {round(s.mean_intensity, 1): s for s in segments}
    assert 0.6 in mids and 0.9 in mids
    assert mids[0.6].centroid == pytest.approx([19.5, 19.5], abs=0.5)
    assert mids[0.9].centroid == pytest.approx([69.5, 54.5], abs=0.5)


# -- seed patches -------------------------------------------------------------


def test_noiseless_seed_recovers_the_plane(quiet_two_plane_scene):
    scene = quiet_two_plane_scene
    pairs = segment_to_pairs(scene.segments, scene.rig)
    patches, state, rejections = seed_all(pairs, scene.cloud, SeedConfig())
    assert len(patches) == len(scene.gt.faces)
    assert not rejections
    for patch in patches:
        ssd = min(
            float(np.sum((patch.plane.implicit - coeffs) ** 2))
            for coeffs in list(scene.gt.coeffs) + list(-scene.gt.coeffs)
        )
        assert ssd <= 1e-9
    # No outliers on exact planes: no seed prunes a point.
    assert all(len(patch.pruned) == 0 for patch in patches)


def test_low_noise_seed_planes_are_accurate():
    spec = synth.SceneSpec("chessboard", points_per_face=700, pixel_noise=0.001, seed=0)
    rig = synth.default_rig(spec.pixel_noise)
    cloud, gt, segments = synth.generate(spec, rig)
    pairs = segment_to_pairs(segments, rig)
    patches, state, rejections = seed_all(pairs, cloud, SeedConfig())
    assert len(patches) >= 6
    for patch in patches:
        ssd = min(
            min(
                float(np.sum((patch.plane.implicit - coeffs) ** 2)),
                float(np.sum((patch.plane.implicit + coeffs) ** 2)),
            )
            for coeffs in gt.coeffs
        )
        assert ssd <= 1e-4


def test_seed_in_empty_space_is_sparse(two_plane_scene):
    scene = two_plane_scene
    lonely = SegmentPair(
        circle_ellipse([100.0, 100.0]),
        circle_ellipse([90.0, 100.0], view="right"),
        np.array([50.0, 50.0, 50.0]),
    )
    state = PointState(len(scene.cloud))
    out = seed_patch(lonely, scene.cloud, SeedConfig(), state, 0)
    assert isinstance(out, SeedRejection)
    assert out.reason == "sparse seed"


def test_members_lie_inside_the_seed_sphere(two_plane_scene):
    scene = two_plane_scene
    pairs = segment_to_pairs(scene.segments, scene.rig)
    cfg = SeedConfig()
    radius = cfg.resolve_radius(scene.cloud)
    patches, state, _ = seed_all(pairs, scene.cloud, cfg)
    for patch in patches:
        member_pts = scene.cloud.positions[np.asarray(patch.members)]
        sq = np.sum((member_pts - patch.pair.seed) ** 2, axis=1)
        assert np.all(sq <= radius**2 + 1e-12)


def test_point_states_are_mutually_exclusive(two_plane_scene):
    scene = two_plane_scene
    pairs = segment_to_pairs(scene.segments, scene.rig)
    patches, state, _ = seed_all(pairs, scene.cloud, SeedConfig())
    for patch in patches:
        assigned = state.assigned_to[np.asarray(patch.members)]
        assert np.all(assigned == patch.id)
    available = state.available_mask()
    assert not np.any(available & (state.assigned_to >= 0))


def test_duplicate_seeds_collapse_to_one(two_plane_scene):
    scene = two_plane_scene
    pairs = segment_to_pairs(scene.segments, scene.rig)
    doubled = [pairs[0], pairs[0], pairs[1]]
    patches, state, rejections = seed_all(doubled, scene.cloud, SeedConfig())
    assert len(patches) == 2
    assert any(r.reason == "duplicate seed" for r in rejections)
