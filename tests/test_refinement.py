"""Merging and discarding of grown patches."""

import numpy as np
import pytest

from stereopatch.distributions import GammaParams
from stereopatch.geometry import (
    build_hull,
    choose_plane_form,
    fit_plane,
    hull_area,
    hull_from_vertices,
    hull_is_convex,
)
from stereopatch.growing import Patch, member_labels
from stereopatch.pipeline import PipelineError, verify_extraction
from stereopatch.refinement import RefineConfig, refine
from stereopatch.seeding import SegmentPair
from stereopatch.stereo import EllipsePrior, PointCloud

import oracles


def flat_pair(intensity):
    ellipse = EllipsePrior(np.array([100.0, 100.0]), np.array([40.0, 0.0, 40.0]), intensity)
    return SegmentPair(ellipse, ellipse, np.zeros(3))


def make_cloud(positions):
    n = len(positions)
    return PointCloud(np.asarray(positions, float), np.zeros((n, 2)), np.zeros((n, 2)))


def make_patch(pid, cloud, members, intensity=0.5, weight=1.0):
    members = [int(i) for i in members]
    pts = cloud.positions[np.asarray(members)]
    plane = fit_plane(pts, choose_plane_form(pts))
    return Patch(
        pid,
        plane,
        build_hull(plane, pts),
        members,
        GammaParams(2.0, 1e-6),
        flat_pair(intensity),
        weight,
    )


def rect_points(rng, x_lo, x_hi, y_lo, y_hi, n=40, tilt=0.0, lift=0.0, jitter=0.0):
    """Points on the plane z = lift + tilt*x, optionally with z jitter."""
    x = rng.uniform(x_lo, x_hi, n)
    y = rng.uniform(y_lo, y_hi, n)
    z = lift + tilt * x + (rng.normal(0.0, jitter, n) if jitter else 0.0)
    return np.column_stack([x, y, z])


def loose_cfg(**overrides):
    base = dict(
        normal_dot_min=0.98, hull_dist_max=0.25, min_members=3, min_area=1e-9
    )
    base.update(overrides)
    return RefineConfig(**base)


def two_abutting_patches(rng, intensities=(0.5, 0.5), tilts=(0.0, 0.0), lifts=(0.0, 0.0)):
    """Two 40-point rectangles meeting at x=1, plus their cloud."""
    pts_a = rect_points(rng, 0.0, 1.0, 0.0, 1.0, tilt=tilts[0], lift=lifts[0])
    pts_b = rect_points(rng, 1.0, 2.0, 0.0, 1.0, tilt=tilts[1], lift=lifts[1])
    # pin the shared edge so the hulls actually touch
    pts_a[0], pts_a[1] = [1.0, 0.0, lifts[0] + tilts[0]], [1.0, 1.0, lifts[0] + tilts[0]]
    pts_b[0], pts_b[1] = [1.0, 0.0, lifts[1] + tilts[1]], [1.0, 1.0, lifts[1] + tilts[1]]
    cloud = make_cloud(np.vstack([pts_a, pts_b]))
    a = make_patch(0, cloud, range(40), intensity=intensities[0])
    b = make_patch(1, cloud, range(40, 80), intensity=intensities[1])
    return cloud, a, b


# -- discard gates ------------------------------------------------------------


def test_undersized_patch_is_discarded_and_released():
    rng = np.random.default_rng(60)
    cloud = make_cloud(rect_points(rng, 0, 1, 0, 1, n=12))
    patch = make_patch(0, cloud, range(12))
    # keep the fitted geometry but claim only two of the points
    patch.members = patch.members[:2]
    out = refine([patch], cloud, loose_cfg(min_members=10))
    assert out == []
    assert not np.any(member_labels(out, len(cloud)) >= 0)


def test_sliver_patch_is_discarded():
    rng = np.random.default_rng(61)
    wide_pts = rect_points(rng, 2, 3, 0, 1)
    sliver_pts = rect_points(rng, 0, 1, 0, 0.01, n=15)
    cloud = make_cloud(np.vstack([wide_pts, sliver_pts]))
    a = make_patch(0, cloud, range(40))
    b = make_patch(1, cloud, range(40, 55))
    out = refine([a, b], cloud, loose_cfg(min_area=0.05))
    assert [p.id for p in out] == [0]
    assert np.all(member_labels(out, len(cloud))[40:] == -1)


def test_unresolved_config_is_rejected():
    rng = np.random.default_rng(62)
    cloud = make_cloud(rect_points(rng, 0, 1, 0, 1))
    patch = make_patch(0, cloud, range(40))
    with pytest.raises(ValueError, match="not resolved"):
        refine([patch], cloud, RefineConfig())


def test_resolved_fills_only_the_missing_gates():
    rng = np.random.default_rng(63)
    cloud = make_cloud(rect_points(rng, 0, 2, 0, 1))
    cfg = RefineConfig().resolved(cloud.bbox_diagonal(), seed_radius=0.3)
    assert cfg.hull_dist_max == pytest.approx(0.36, rel=1e-12)
    assert cfg.min_area == pytest.approx(1e-4 * cloud.bbox_diagonal() ** 2, rel=1e-12)
    explicit = RefineConfig(hull_dist_max=2.0, min_area=0.5).resolved(cloud.bbox_diagonal(), 0.3)
    assert explicit.hull_dist_max == 2.0
    assert explicit.min_area == 0.5


# -- merge gates --------------------------------------------------------------


def test_coplanar_neighbours_merge_onto_the_common_plane():
    rng = np.random.default_rng(64)
    cloud, a, b = two_abutting_patches(rng)
    out = refine([a, b], cloud, loose_cfg())
    assert len(out) == 1
    merged = out[0]
    assert merged.id == 0
    assert sorted(merged.members) == list(range(80))
    # all source points sit on z=0, so the merged implicit plane is +-(0,0,1,0)
    implicit = merged.plane.implicit
    implicit = implicit if implicit[2] > 0 else -implicit
    assert np.max(np.abs(implicit - np.array([0, 0, 1, 0.0]))) <= 1e-9
    assert np.all(member_labels(out, len(cloud)) == 0)


def test_distant_parallel_patches_stay_apart():
    rng = np.random.default_rng(65)
    pts_a = rect_points(rng, 0, 1, 0, 1)
    pts_b = rect_points(rng, 10, 11, 0, 1)
    cloud = make_cloud(np.vstack([pts_a, pts_b]))
    a = make_patch(0, cloud, range(40))
    b = make_patch(1, cloud, range(40, 80))
    out = refine([a, b], cloud, loose_cfg())
    assert sorted(p.id for p in out) == [0, 1]


def test_stacked_parallel_patches_stay_apart():
    rng = np.random.default_rng(66)
    cloud, a, b = two_abutting_patches(rng, lifts=(0.0, 3.0))
    out = refine([a, b], cloud, loose_cfg())
    assert sorted(p.id for p in out) == [0, 1]


def test_misaligned_normals_stay_apart():
    rng = np.random.default_rng(67)
    # ~16 degrees between the normals: alignment well under 0.98
    cloud, a, b = two_abutting_patches(rng, tilts=(0.0, 0.29), lifts=(0.0, -0.29))
    alignment = abs(float(np.dot(a.plane.normal, b.plane.normal)))
    assert alignment < 0.98
    out = refine([a, b], cloud, loose_cfg())
    assert sorted(p.id for p in out) == [0, 1]


def test_contrasting_intensity_blocks_the_merge():
    rng = np.random.default_rng(68)
    cloud, a, b = two_abutting_patches(rng, intensities=(0.2, 0.9))
    out = refine([a, b], cloud, loose_cfg())
    assert sorted(p.id for p in out) == [0, 1]


def test_anti_parallel_normals_still_merge():
    # The plane z = x fitted with z dependent gets a +z normal; fitted with
    # x dependent it gets a +x normal, and the two point opposite ways.
    # Such a pair describes one plane, so the gate must use |dot|.
    from stereopatch.geometry import PlaneForm

    rng = np.random.default_rng(69)
    x_a = rng.uniform(0.0, 1.0, 40)
    x_b = rng.uniform(1.0, 2.0, 40)
    y_a, y_b = rng.uniform(0.0, 3.0, 40), rng.uniform(0.0, 3.0, 40)
    pts_a = np.column_stack([x_a, y_a, 0.9 * x_a])
    pts_b = np.column_stack([x_b, y_b, 0.9 * x_b])
    pts_a[0], pts_a[1] = [1.0, 0.0, 0.9], [1.0, 3.0, 0.9]
    pts_b[0], pts_b[1] = [1.0, 0.0, 0.9], [1.0, 3.0, 0.9]
    cloud = make_cloud(np.vstack([pts_a, pts_b]))
    plane_a = fit_plane(pts_a, PlaneForm.Z)
    plane_b = fit_plane(pts_b, PlaneForm.X)
    a = Patch(0, plane_a, build_hull(plane_a, pts_a), list(range(40)),
              GammaParams(2.0, 1e-6), flat_pair(0.5), 1.0)
    b = Patch(1, plane_b, build_hull(plane_b, pts_b), list(range(40, 80)),
              GammaParams(2.0, 1e-6), flat_pair(0.5), 1.0)
    assert float(np.dot(a.plane.normal, b.plane.normal)) <= -0.98
    out = refine([a, b], cloud, loose_cfg())
    assert len(out) == 1


# -- merged-patch integrity ---------------------------------------------------


def test_merged_patch_satisfies_patch_invariants():
    rng = np.random.default_rng(70)
    cloud, a, b = two_abutting_patches(rng)
    merged = refine([a, b], cloud, loose_cfg())[0]
    assert np.linalg.norm(merged.plane.implicit[:3]) == pytest.approx(1.0, rel=1e-12)
    assert hull_is_convex(merged.hull)
    assert merged.theta.shape > 0 and merged.theta.scale > 0
    assert len(merged.members) >= 3
    assert abs(np.dot(a.plane.normal, b.plane.normal)) <= 1.0 + 1e-12
    # member-weighted intensity replaces the surviving pair's own value
    assert merged.mean_intensity == pytest.approx(0.5, rel=1e-12)


def test_merged_plane_matches_batch_refit_oracle():
    rng = np.random.default_rng(71)
    for trial in range(10):
        cloud, a, b = two_abutting_patches(rng)
        jitter = rng.normal(0.0, 1e-4, len(cloud))
        cloud.positions[:, 2] += jitter
        a = make_patch(0, cloud, range(40))
        b = make_patch(1, cloud, range(40, 80))
        merged = refine([a, b], cloud, loose_cfg())[0]
        coeffs = oracles.lstsq_plane(cloud.positions, merged.plane.form.value)
        assert np.allclose(merged.plane.coeffs, coeffs, rtol=1e-9, atol=1e-12)


def test_assigned_count_never_increases():
    rng = np.random.default_rng(72)
    pts = np.vstack(
        [
            rect_points(rng, 0, 1, 0, 1),
            rect_points(rng, 1, 2, 0, 1),
            rect_points(rng, 5, 6, 0, 1, n=4),
        ]
    )
    cloud = make_cloud(pts)
    a = make_patch(0, cloud, range(40))
    b = make_patch(1, cloud, range(40, 80))
    runt = make_patch(2, cloud, range(80, 84))
    before = int(np.sum(member_labels([a, b, runt], len(cloud)) >= 0))
    out = refine([a, b, runt], cloud, loose_cfg(min_members=10))
    after = int(np.sum(member_labels(out, len(cloud)) >= 0))
    assert after <= before
    assert after == sum(len(p.members) for p in out)


def test_refine_is_deterministic_and_order_independent():
    def build(order_seed):
        rng = np.random.default_rng(73)
        pts = np.vstack(
            [
                rect_points(rng, 0, 1, 0, 1),
                rect_points(rng, 1, 2, 0, 1),
                rect_points(rng, 2, 3, 0, 1),
            ]
        )
        cloud = make_cloud(pts)
        patches = [
            make_patch(0, cloud, range(40)),
            make_patch(1, cloud, range(40, 80)),
            make_patch(2, cloud, range(80, 120)),
        ]
        rng2 = np.random.default_rng(order_seed)
        rng2.shuffle(patches)
        return refine(patches, cloud, loose_cfg())

    runs = [build(s) for s in (0, 1, 2)]
    keys = [[(p.id, tuple(sorted(p.members))) for p in out] for out in runs]
    assert keys[0] == keys[1] == keys[2]
    assert len(runs[0]) == 1 and runs[0][0].id == 0


def test_chain_merging_absorbs_a_whole_row():
    rng = np.random.default_rng(74)
    blocks = [rect_points(rng, k, k + 1.0, 0, 1) for k in range(4)]
    cloud = make_cloud(np.vstack(blocks))
    patches = [make_patch(k, cloud, range(40 * k, 40 * (k + 1))) for k in range(4)]
    out = refine(patches, cloud, loose_cfg())
    assert len(out) == 1
    assert sorted(out[0].members) == list(range(160))


# -- verification -------------------------------------------------------------


def test_verification_returns_the_member_labels():
    rng = np.random.default_rng(77)
    cloud, a, b = two_abutting_patches(rng)
    assert np.array_equal(verify_extraction([a, b], cloud), np.repeat([0, 1], 40))


def test_verification_names_a_point_two_patches_list():
    rng = np.random.default_rng(78)
    cloud, a, b = two_abutting_patches(rng)
    b.members = np.append(b.members, 7)
    with pytest.raises(PipelineError, match="point 7 is listed twice"):
        verify_extraction([a, b], cloud)


def test_verification_names_a_point_one_patch_lists_twice():
    rng = np.random.default_rng(79)
    cloud, a, b = two_abutting_patches(rng)
    a.members = np.append(a.members, 12)
    with pytest.raises(PipelineError, match="point 12 is listed twice"):
        verify_extraction([a, b], cloud)


def test_verification_names_a_patch_with_members_past_the_cloud():
    rng = np.random.default_rng(80)
    cloud, a, b = two_abutting_patches(rng)
    b.members = np.append(b.members, len(cloud))
    with pytest.raises(PipelineError, match="patch 1 has members outside the 80 points"):
        verify_extraction([a, b], cloud)


def test_verification_rejects_a_non_convex_hull():
    rng = np.random.default_rng(81)
    cloud, a, b = two_abutting_patches(rng)
    # a dart on a's plane z = 0: the vertex (0.5, 0.2) is reflex
    dart = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0.5, 0.2, 0], [0, 1, 0]])
    a.hull = hull_from_vertices(a.plane, dart)
    with pytest.raises(PipelineError, match="patch 0 hull is not convex"):
        verify_extraction([a, b], cloud)


# -- hull area ----------------------------------------------------------------


def test_hull_area_of_the_unit_square():
    corners = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    plane = fit_plane(corners, choose_plane_form(corners))
    assert hull_area(build_hull(plane, corners)) == pytest.approx(1.0, abs=1e-12)


def test_hull_area_of_a_sliver_vanishes():
    # Fit the plane on a well-spread square, then hull only a hair-thin
    # strip of it: the area must collapse with the strip.
    rng = np.random.default_rng(75)
    corners = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    plane = fit_plane(corners, choose_plane_form(corners))
    strip = rect_points(rng, 0, 1, 0, 1e-7, n=12)
    assert hull_area(build_hull(plane, strip)) < 1e-6


def test_hull_area_matches_shoelace():
    rng = np.random.default_rng(76)
    for trial in range(20):
        pts = rect_points(rng, 0, 3, -1, 2, n=25)
        plane = fit_plane(pts, choose_plane_form(pts))
        hull = build_hull(plane, pts)
        assert hull_area(hull) == pytest.approx(
            oracles.shoelace_area(hull.verts2d), abs=1e-10
        )
