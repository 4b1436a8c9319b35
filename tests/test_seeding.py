"""Segment pairing and seed-patch construction."""

import numpy as np
import pytest

from stereopatch import pipeline, synth
from stereopatch.growing import GrowConfig, member_labels
from stereopatch.seeding import (
    SeedConfig,
    SeedRejection,
    SegmentPair,
    seed_all,
    segment_to_pairs,
)
from stereopatch.stereo import EllipsePrior, PointCloud, project_many


def circle_ellipse(centroid, intensity=0.5):
    return EllipsePrior(np.asarray(centroid, dtype=float), np.array([2.0, 0.0, 2.0]), intensity)


def _radius(cloud):
    """The seed radius r0 that ``run_pipeline`` resolves for ``cloud``."""
    return SeedConfig().resolve_radius(cloud.bbox_diagonal())


def _seed(pairs, cloud):
    """``seed_all`` as ``run_pipeline`` calls it under the default configs."""
    grow_cfg = GrowConfig()
    return seed_all(
        pairs, cloud, SeedConfig(), _radius(cloud), grow_cfg.boundary_weight, grow_cfg.intensity_weight
    )


# -- pairing ------------------------------------------------------------------


def test_seed_triangulates_from_the_centroids(two_plane_scene):
    rig = two_plane_scene.rig
    target = np.array([0.1, -0.2, 4.0])
    left = circle_ellipse(project_many(rig.camera_left, target)[0][0])
    right = circle_ellipse(project_many(rig.camera_right, target)[0][0])
    pairs = segment_to_pairs([(left, right)], rig)
    assert len(pairs) == 1
    assert np.max(np.abs(pairs[0].seed - target)) <= 1e-8


def test_empty_correspondence_gives_no_pairs(two_plane_scene):
    assert segment_to_pairs([], two_plane_scene.rig) == []


def test_degenerate_centroid_pair_is_dropped(two_plane_scene, caplog):
    rig = two_plane_scene.rig
    target = np.array([0.1, -0.2, 4.0])
    good_l = circle_ellipse(project_many(rig.camera_left, target)[0][0])
    good_r = circle_ellipse(project_many(rig.camera_right, target)[0][0])
    # Identical pixels in both views make the two rays parallel.
    bad = circle_ellipse(np.array([400.0, 300.0]))
    bad_r = circle_ellipse(np.array([400.0, 300.0]))
    with caplog.at_level("WARNING"):
        pairs = segment_to_pairs([(good_l, good_r), (bad, bad_r)], rig)
    assert len(pairs) == 1
    assert np.max(np.abs(pairs[0].seed - target)) <= 1e-8
    assert "dropping segment pair 1: degenerate triangulation" in caplog.text


def test_scene_segments_pair_onto_their_faces(two_plane_scene):
    scene = two_plane_scene
    pairs = segment_to_pairs(scene.segments, scene.rig)
    assert len(pairs) == len(scene.gt.faces)
    radius = SeedConfig().resolve_radius(scene.cloud.bbox_diagonal())
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


# -- seed patches -------------------------------------------------------------


def test_noiseless_seed_recovers_the_plane(quiet_two_plane_scene):
    scene = quiet_two_plane_scene
    pairs = segment_to_pairs(scene.segments, scene.rig)
    patches, assigned_to, rejections = _seed(pairs, scene.cloud)
    assert len(patches) == len(scene.gt.faces)
    assert not rejections
    for patch in patches:
        ssd = min(
            float(np.sum((patch.plane.implicit - coeffs) ** 2))
            for coeffs in list(scene.gt.coeffs) + list(-scene.gt.coeffs)
        )
        assert ssd <= 1e-9
    # No outliers on exact planes: each seed takes every point within r0 of
    # it that no earlier seed (lower id) claimed, and leaves none of them free.
    r0 = _radius(scene.cloud)
    for patch in patches:
        near = np.sum((scene.cloud.positions - patch.pair.seed) ** 2, axis=1) <= r0 * r0
        assert np.all((assigned_to[near] >= 0) & (assigned_to[near] <= patch.id))


def test_low_noise_seed_planes_are_accurate():
    spec = synth.SceneSpec("chessboard", points_per_face=700, pixel_noise=0.001, seed=0)
    rig = synth.default_rig(spec.pixel_noise)
    cloud, gt, segments = synth.generate(spec, rig)
    pairs = segment_to_pairs(segments, rig)
    patches, assigned_to, rejections = _seed(pairs, cloud)
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
        circle_ellipse([90.0, 100.0]),
        np.array([50.0, 50.0, 50.0]),
    )
    patches, assigned_to, (out,) = _seed([lonely], scene.cloud)
    assert patches == [] and not np.any(assigned_to >= 0)
    assert isinstance(out, SeedRejection)
    assert out.reason == "sparse seed" and out.pair is lonely


def test_members_lie_inside_the_seed_sphere(two_plane_scene):
    scene = two_plane_scene
    pairs = segment_to_pairs(scene.segments, scene.rig)
    radius = _radius(scene.cloud)
    patches, assigned_to, _ = _seed(pairs, scene.cloud)
    for patch in patches:
        member_pts = scene.cloud.positions[np.asarray(patch.members)]
        sq = np.sum((member_pts - patch.pair.seed) ** 2, axis=1)
        assert np.all(sq <= radius**2 + 1e-12)


def test_point_states_are_mutually_exclusive(two_plane_scene):
    scene = two_plane_scene
    pairs = segment_to_pairs(scene.segments, scene.rig)
    patches, assigned_to, _ = _seed(pairs, scene.cloud)
    for patch in patches:
        assigned = assigned_to[np.asarray(patch.members)]
        assert np.all(assigned == patch.id)
    # no point is claimed but by a patch that lists it
    assert np.array_equal(assigned_to, member_labels(patches, len(scene.cloud)))


def test_duplicate_seeds_collapse_to_one(two_plane_scene):
    scene = two_plane_scene
    pairs = segment_to_pairs(scene.segments, scene.rig)
    doubled = [pairs[0], pairs[0], pairs[1]]
    patches, assigned_to, rejections = _seed(doubled, scene.cloud)
    assert len(patches) == 2
    assert any(r.reason == "duplicate seed" for r in rejections)


def test_a_sparse_face_keeps_its_seed_in_a_widened_sphere():
    # At 500 points per face the resolved radius holds fewer than
    # min_cluster points around one two-plane seed; the sphere widens to the
    # min_cluster-th nearest free point, at most to twice the radius.
    spec = synth.SceneSpec("two-plane", 500, 0.001, 0)
    rig = synth.default_rig(spec.pixel_noise)
    cloud, gt, segments = synth.generate(spec, rig)
    pairs = segment_to_pairs(segments, rig)
    radius = _radius(cloud)
    patches, _, rejections = _seed(pairs, cloud)
    assert (len(patches), rejections) == (2, [])
    reach = [
        np.max(np.sum((cloud.positions[p.members] - p.pair.seed) ** 2, axis=1)) for p in patches
    ]
    assert max(reach) > radius**2
    assert max(reach) <= 4.0 * radius**2

    run_cfg = pipeline.RunConfig().for_scene(spec.scene_id)
    result = pipeline.run_pipeline(cloud, rig, segments, run_cfg)
    assert synth.classification_error(gt, result.patches) <= 0.05
