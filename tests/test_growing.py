"""The classify/accept growth loop: distances, scores, thresholds, updates."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gammaln

from stereopatch import geometry, growing, pipeline, synth
from stereopatch.distributions import GammaParams, WeibullParams, gamma_mle
from stereopatch.geometry import HullStack, PlaneForm, build_hull, fit_plane
from stereopatch.growing import (
    GrowConfig,
    Patch,
    PatchStack,
    accept,
    classify_batch,
    grow,
)
from stereopatch.refinement import _merge
from stereopatch.seeding import (
    SeedConfig,
    SegmentPair,
    _fallback_theta,
    seed_all,
    segment_to_pairs,
)
from stereopatch.stereo import (
    EllipsePrior,
    PointCloud,
    StereoRig,
    noise_model_offset,
    project_many,
    triangulate_many,
)

import oracles


def circle_ellipse(centroid, intensity=0.5, size=50.0):
    return EllipsePrior(np.asarray(centroid, dtype=float), np.array([size, 0.0, size]), intensity)


def square_patch(weight=1.0, zeta=1.0, theta=GammaParams(2.0, 1.0)):
    """Hand-built unit-square patch on Z=0 with chosen weights."""
    corners = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    plane = fit_plane(corners, PlaneForm.Z)
    hull = build_hull(plane, corners)
    rig = synth.default_rig(0.001)
    centroid = np.array([0.5, 0.5, 0.0])
    pair = SegmentPair(
        circle_ellipse(project_many(rig.camera_left, centroid + [0, 0, 4])[0][0]),
        circle_ellipse(project_many(rig.camera_right, centroid + [0, 0, 4])[0][0]),
        centroid,
    )
    return (
        Patch(0, plane, hull, [0, 1, 2, 3], theta, pair, weight, zeta),
        rig,
    )


@pytest.fixture(scope="module")
def micro():
    """One square face at depth 4 with the canonical rig, seeded."""
    return build_micro(n=1000, seed=0)


def build_micro(n=1000, seed=0, half=0.5, depth=4.0, noise=0.001):
    rig = synth.default_rig(noise)
    rng = np.random.default_rng(seed)
    ab = rng.uniform(-half, half, (n, 2))
    world = np.column_stack([ab[:, 0], ab[:, 1], np.full(n, depth)])
    pl, ok_l = project_many(rig.camera_left, world)
    pr, ok_r = project_many(rig.camera_right, world)
    pl = pl + rng.normal(0.0, noise, pl.shape)
    pr = pr + rng.normal(0.0, noise, pr.shape)
    positions, ok = triangulate_many(pl, pr, rig)
    keep = ok_l & ok_r & ok
    cloud = PointCloud(positions[keep], pl[keep], pr[keep])
    pipeline.prepare(cloud, rig)

    center = np.array([0.0, 0.0, depth])
    pxl = project_many(rig.camera_left, center)[0][0]
    pxr = project_many(rig.camera_right, center)[0][0]
    # second moment of a uniform square whose corner projects at `edge`
    edge = project_many(rig.camera_left, np.array([half, half, depth]))[0][0]
    size = float((edge[0] - pxl[0]) ** 2) / 3.0
    pair = SegmentPair(
        circle_ellipse(pxl, size=size),
        circle_ellipse(pxr, size=size),
        triangulate_many(pxl, pxr, rig)[0][0],
    )
    cfg = GrowConfig(log_threshold=-15.0, boundary_weight=1e-7)
    seed_cfg = SeedConfig()
    (patch,), assigned_to, _ = seed_all(
        [pair],
        cloud,
        seed_cfg,
        seed_cfg.resolve_radius(cloud.bbox_diagonal()),
        cfg.boundary_weight,
        cfg.intensity_weight,
    )
    return SimpleNamespace(
        cloud=cloud, rig=rig, pair=pair, assigned_to=assigned_to, patch=patch, cfg=cfg
    )


# -- joint distance -----------------------------------------------------------


def grid_joint_distance(hulls, weight, points):
    """(n, P) joint distances of (n, 3) points to every stacked hull, each
    (point, hull) pair through the classifier's pair kernel."""
    s = hulls.signed_dist(points)
    q = hulls.to_2d(points)
    i, j = np.indices(s.shape).reshape(2, -1)
    return growing._joint_distance(hulls, weight, j, (s * s)[i, j], q[i, j]).reshape(s.shape)


def joint_distance(patch, points):
    """The classifier's joint distance of (n, 3) points to one patch."""
    pts = np.atleast_2d(np.asarray(points, float))
    return grid_joint_distance(HullStack([patch.hull]), np.array([patch.boundary_weight]), pts)[:, 0]


def test_on_plane_inside_hull_is_clamped():
    patch, _ = square_patch()
    assert joint_distance(patch, np.array([[0.5, 0.5, 0.0]]))[0] == 1e-12


def test_inside_hull_distance_doubles_at_unit_weight():
    patch, _ = square_patch(weight=1.0)
    assert joint_distance(patch, np.array([[0.5, 0.5, 2.0]]))[0] == pytest.approx(8.0, rel=1e-12)


def test_outside_hull_composes_plane_and_boundary_terms():
    rng = np.random.default_rng(50)
    for trial in range(10):
        w = rng.uniform(0.05, 3.0)
        patch, _ = square_patch(weight=w)
        p = np.array([rng.uniform(1.6, 3.0), rng.uniform(-1.5, -0.4), rng.uniform(-2, 2)])
        plane_term = float(p[2] ** 2)
        hull_term = oracles.dense_point_polygon_sq_dist(p, patch.hull.vertices, grid=600)
        assert joint_distance(patch, p[None])[0] == pytest.approx(
            plane_term + w * hull_term, rel=1e-4
        )


# -- log posterior ------------------------------------------------------------


def expected_log_const(theta, pair):
    el, er = pair.ellipse_left, pair.ellipse_right
    det_scale = (
        (1.0 - el.correlation**2)
        * (1.0 - er.correlation**2)
        * el.inertia[0]
        * el.inertia[2]
        * er.inertia[0]
        * er.inertia[2]
    )
    return (
        -theta.shape * math.log(theta.scale)
        - float(gammaln(theta.shape))
        - 0.5 * math.log(det_scale)
    )


def test_cached_constant_matches_its_definition():
    # log Gamma vanishes at shapes 1 and 2
    for shape in (0.05, 1.0, 2.0, 3.2, 50.0):
        patch, rig = square_patch(theta=GammaParams(shape, 0.7))
        stack = PatchStack([patch], patch.hull.vertices, rig)
        expect = expected_log_const(patch.theta, patch.pair)
        assert stack.log_const[0] == pytest.approx(expect, rel=1e-12, abs=1e-12), shape


def test_score_at_a_hull_vertex_under_centred_ellipses():
    # Ellipses centred exactly on the vertex's two projections: both prior
    # quadratic terms vanish and only the clamped-distance terms remain.
    rig = synth.default_rig(0.001)
    corners = np.array([[0.0, 0, 4.0], [1, 0, 4.0], [1, 1, 4.0], [0, 1, 4.0]])
    plane = fit_plane(corners, PlaneForm.Z)
    hull = build_hull(plane, corners)
    vertex = corners[0]
    pair = SegmentPair(
        circle_ellipse(project_many(rig.camera_left, vertex)[0][0]),
        circle_ellipse(project_many(rig.camera_right, vertex)[0][0]),
        vertex,
    )
    theta = GammaParams(2.5, 0.3)
    patch = Patch(0, plane, hull, [0, 1, 2, 3], theta, pair, 1.0, 1.7)
    d = 1e-12
    expect = (
        (theta.shape - 1.0) * math.log(d)
        - d / theta.scale
        + expected_log_const(theta, pair)
    )
    assert PatchStack([patch], vertex[None], rig).scores([0])[0, 0] == pytest.approx(
        expect, rel=1e-12
    )


def test_zero_intensity_weight_leaves_pure_geometry():
    rng = np.random.default_rng(51)
    patch, rig = square_patch(zeta=0.0, theta=GammaParams(1.8, 0.9))
    for trial in range(20):
        p = rng.uniform([-0.5, -0.5, -1.0], [1.5, 1.5, 1.0])
        d = joint_distance(patch, p[None])[0]
        expect = float(oracles.ref_gamma_logpdf(d, patch.theta.shape, patch.theta.scale))
        el, er = patch.pair.ellipse_left, patch.pair.ellipse_right
        expect -= 0.5 * math.log(
            (1.0 - el.correlation**2)
            * (1.0 - er.correlation**2)
            * el.inertia[0]
            * el.inertia[2]
            * er.inertia[0]
            * er.inertia[2]
        )
        got = PatchStack([patch], p[None], rig).scores([0])[0, 0]
        assert got == pytest.approx(expect, rel=1e-12)


def test_full_score_composes_from_module_pieces():
    rng = np.random.default_rng(52)
    patch, rig = square_patch(zeta=1.7, theta=GammaParams(2.4, 0.5))
    el, er = patch.pair.ellipse_left, patch.pair.ellipse_right

    def quad_form(e, px):
        dx, dy = px - e.centroid
        k1, k2, k3 = e.inertia
        return dx * dx / k1 - 2.0 * k2 * dx * dy / (k1 * k3) + dy * dy / k3

    for trial in range(20):
        p = rng.uniform([-0.5, -0.5, 3.0], [1.5, 1.5, 5.0])
        d = joint_distance(patch, p[None])[0]
        z_l = quad_form(el, project_many(rig.camera_left, p)[0][0])
        z_r = quad_form(er, project_many(rig.camera_right, p)[0][0])
        om_l = 1.0 - el.correlation**2
        om_r = 1.0 - er.correlation**2
        expect = (
            float(oracles.ref_gamma_logpdf(d, patch.theta.shape, patch.theta.scale))
            - 1.7 * (z_l / (2.0 * om_l) + z_r / (2.0 * om_r))
            - 0.5
            * math.log(om_l * om_r * el.inertia[0] * el.inertia[2] * er.inertia[0] * er.inertia[2])
        )
        got = PatchStack([patch], p[None], rig).scores([0])[0, 0]
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_threshold_offset_is_the_weibull_constant():
    from stereopatch.distributions import WeibullParams

    model = WeibullParams(1.3, 0.02)
    assert noise_model_offset(model) == pytest.approx(
        1.3 * math.log(0.02) - math.log(1.3), rel=1e-15
    )


# -- classification -----------------------------------------------------------


def build_seeded(preset="random-planes-4", points_per_face=150, seed=0):
    """A small synthetic scene, prepared and seeded but not grown."""
    spec = synth.SceneSpec(preset, points_per_face, 0.001, seed)
    rig = synth.default_rig(spec.pixel_noise)
    cloud, _, segments = synth.generate(spec, rig)
    cfg = pipeline.RunConfig().for_scene(spec.scene_id)
    pipeline.prepare(cloud, rig)
    pairs = segment_to_pairs(segments, rig)
    patches, assigned_to, _ = seed_all(
        pairs,
        cloud,
        cfg.seed_cfg,
        cfg.seed_cfg.resolve_radius(cloud.bbox_diagonal()),
        cfg.grow_cfg.boundary_weight,
        cfg.grow_cfg.intensity_weight,
    )
    return SimpleNamespace(
        cloud=cloud,
        rig=rig,
        patches=patches,
        assigned_to=assigned_to,
        cfg=cfg.grow_cfg,
        seed_cfg=cfg.seed_cfg,
    )


def seed_fit_outliers(scene):
    """Each seed's points within r0 that its fit left out, by patch id.

    Every point free when a seed is made and within r0 of it is in its
    sphere, and seeds never give points up, so such a point joined that
    seed or was left out of its fit: then it stays free or a later seed,
    with a higher id, claims it.
    """
    radius = scene.seed_cfg.resolve_radius(scene.cloud.bbox_diagonal())
    outliers = {}
    for patch in scene.patches:
        near = np.sum((scene.cloud.positions - patch.pair.seed) ** 2, axis=1) <= radius**2
        claim = scene.assigned_to[near]
        outliers[patch.id] = np.flatnonzero(near)[(claim < 0) | (claim > patch.id)]
    return outliers


@pytest.fixture(scope="module")
def seeded():
    scene = build_seeded()
    assert len(scene.patches) >= 3
    return scene


def test_a_seed_fit_outlier_joins_its_own_patch_in_growth():
    scene = build_seeded()
    outliers = seed_fit_outliers(scene)
    assert any(len(o) for o in outliers.values()), "the scene should have seed fit outliers"
    for patch in scene.patches:
        assert not np.intersect1d(outliers[patch.id], patch.members).size
    result = grow(scene.patches, scene.cloud, scene.cfg, scene.rig, scene.assigned_to)
    assert result.accepted > 0
    # growth offers a seed's fit outliers to that seed's patch too, and some join it
    assert any(len(np.intersect1d(outliers[p.id], p.members)) for p in result.patches)


def test_a_stack_over_a_subset_of_the_rows_scores_them_as_the_full_stack(seeded):
    rows = np.random.default_rng(3).choice(len(seeded.cloud), size=60, replace=False)
    full = PatchStack(seeded.patches, seeded.cloud.positions, seeded.rig)
    part = PatchStack(seeded.patches, seeded.cloud.positions[rows], seeded.rig)
    expect = full.scores(rows)
    assert np.array_equal(part.scores(np.arange(len(rows))), expect)
    assert np.isfinite(expect).any()


def test_batch_classification_matches_single_calls(micro, seeded):
    rng = np.random.default_rng(55)
    for scene, patches in ((micro, [micro.patch]), (seeded, seeded.patches)):
        available = np.flatnonzero(scene.assigned_to < 0)
        idx = rng.choice(available, size=40, replace=False)
        if scene is seeded:
            outliers = np.concatenate(list(seed_fit_outliers(scene).values()))
            idx = np.concatenate([idx, outliers[scene.assigned_to[outliers] < 0][:5]])
        batch = classify_batch(patches, scene.cloud, idx, scene.cfg, scene.rig)
        singles = [
            classify_batch(patches, scene.cloud, [i], scene.cfg, scene.rig)[0] for i in idx
        ]
        assert batch == singles
        assert any(b is not None for b in batch)


def test_classification_without_a_stack_stacks_the_given_points_alone(seeded, monkeypatch):
    # The stack built for one call holds the points it classifies, not the
    # whole cloud, and decides as a stack over the whole cloud does.
    sizes = []

    class Recorded(PatchStack):
        def __init__(self, patches, positions, rig):
            sizes.append(len(positions))
            super().__init__(patches, positions, rig)

    monkeypatch.setattr(growing, "PatchStack", Recorded)
    idx = np.arange(0, len(seeded.cloud), 7)
    got = classify_batch(seeded.patches, seeded.cloud, idx, seeded.cfg, seeded.rig)
    one = classify_batch(seeded.patches, seeded.cloud, idx[:1], seeded.cfg, seeded.rig)
    assert sizes == [len(idx), 1] and len(seeded.cloud) > len(idx)
    full = PatchStack(seeded.patches, seeded.cloud.positions, seeded.rig)
    assert got == classify_batch(seeded.patches, seeded.cloud, idx, seeded.cfg, seeded.rig, full)
    assert one == got[:1]
    assert any(d is not None for d in got)


def test_no_patches_classify_nothing(micro):
    idx = np.arange(5)
    assert classify_batch([], micro.cloud, idx, micro.cfg, micro.rig) == [None] * 5
    assigned_to = np.full(len(micro.cloud), -1)
    result = grow([], micro.cloud, micro.cfg, micro.rig, assigned_to)
    assert (result.epochs, result.accepted, result.truncated) == (0, 0, False)
    assert result.patches == []
    assert np.flatnonzero(assigned_to < 0).tolist() == list(range(len(micro.cloud)))
    assert not np.any(assigned_to >= 0)


def test_far_point_is_unclassifiable(micro):
    # The farthest cloud point from a shrunken stand-in patch still scores
    # below any sane threshold when the patch sits elsewhere in space.
    corners = np.array([[10.0, 10, 20], [11, 10, 20], [11, 11, 20], [10, 11, 20]])
    plane = fit_plane(corners, PlaneForm.Z)
    hull = build_hull(plane, corners)
    far_patch = Patch(
        0, plane, hull, [0, 1, 2, 3], GammaParams(2.0, 1e-6), micro.patch.pair, 1e-7, 1.0
    )
    out = classify_batch([far_patch], micro.cloud, [0], micro.cfg, micro.rig)[0]
    assert out is None


def test_equal_patches_tie_to_the_lower_id(micro):
    member = int(micro.patch.members[0])
    twin = replace(micro.patch, id=7)
    assert classify_batch([micro.patch, twin], micro.cloud, [member], micro.cfg, micro.rig)[0] == 0
    assert (
        classify_batch([replace(micro.patch, id=1), replace(micro.patch, id=3)],
                       micro.cloud, [member], micro.cfg, micro.rig)[0]
        == 1
    )


def test_classifier_agrees_with_scene_labels(path_run):
    # Against fully grown patches the scorer should send almost every
    # labelled point to the patch covering its own face.
    run = path_run
    patches = run.result.patches
    votes = {}
    for patch in patches:
        labels = run.gt.labels[np.asarray(patch.members)]
        votes[patch.id] = int(np.bincount(labels[labels >= 0]).argmax())
    rng = np.random.default_rng(53)
    sample = rng.choice(len(run.cloud), size=200, replace=False)
    cfg = run.cfg.grow_cfg
    agree = 0
    skipped = 0
    for idx in sample:
        got = classify_batch(patches, run.cloud, [idx], cfg, run.rig)[0]
        if got is None:
            skipped += 1
            continue
        if votes[got] == run.gt.labels[idx]:
            agree += 1
    assert skipped <= 10
    assert agree / (len(sample) - skipped) >= 0.95


def test_shifting_every_score_keeps_the_winner(path_run):
    patches = path_run.result.patches
    cloud, rig, cfg = path_run.cloud, path_run.rig, path_run.cfg.grow_cfg
    rng = np.random.default_rng(54)
    sample = rng.choice(len(cloud), size=120, replace=False)
    stack = PatchStack(patches, cloud.positions, rig)
    shifted = PatchStack(patches, cloud.positions, rig)
    shifted.log_const += 7.5
    before, after = stack.scores(sample), shifted.scores(sample)
    finite = np.isfinite(before)
    assert np.array_equal(finite, np.isfinite(after))
    assert np.allclose(after[finite] - before[finite], 7.5, rtol=0.0, atol=1e-9)
    base = classify_batch(patches, cloud, sample, cfg, rig, stack=stack)
    up = classify_batch(patches, cloud, sample, cfg, rig, stack=shifted)
    compared = [(b, u) for b, u in zip(base, up) if b is not None]
    assert all(b == u for b, u in compared)
    assert len(compared) >= 80


# -- the stacked scorer -------------------------------------------------------


def verged_rig():
    """Canonical intrinsics with the right camera turned 0.1 rad about y.

    A point on the plane z = 0 is then at infinity for the left camera only.
    """
    k = np.array([[700.0, 0, 400], [0, 700, 300], [0, 0, 1]])
    c, s = math.cos(0.1), math.sin(0.1)
    rot = np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]])
    left = k @ np.hstack([np.eye(3), np.zeros((3, 1))])
    right = k @ np.hstack([rot, [[-0.2], [0.0], [0.0]]])
    return StereoRig(left, right, 0.001, 0.001, (800, 600))


def polygon_patch(pid, n_sides, center, radius, tilt, rig, weight, zeta, theta, inertia):
    """Patch whose hull is a regular n-gon on a tilted plane near depth 4."""
    ang = 2.0 * np.pi * np.arange(n_sides) / n_sides + 0.3
    x = center[0] + radius * np.cos(ang)
    y = center[1] + radius * np.sin(ang)
    corners = np.column_stack([x, y, 4.0 + tilt[0] * x + tilt[1] * y])
    plane = fit_plane(corners, PlaneForm.Z)
    hull = build_hull(plane, corners)
    assert len(hull.vertices) == n_sides
    mid = corners.mean(axis=0)
    pair = SegmentPair(
        EllipsePrior(project_many(rig.camera_left, mid)[0][0], np.asarray(inertia, float), 0.5),
        EllipsePrior(project_many(rig.camera_right, mid)[0][0], np.asarray(inertia, float)[::-1], 0.5),
        mid,
    )
    return Patch(pid, plane, hull, [], theta, pair, weight, zeta)


def polygon_scene():
    """Four patches with 3, 4, 6 and 8 hull vertices, a tied twin, and probe points."""
    rig = verged_rig()
    patches = [
        polygon_patch(0, 3, (-1.0, -0.5), 0.6, (0.05, 0.10), rig, 0.3, 1.0,
                      GammaParams(2.4, 0.05), (60.0, 12.0, 40.0)),
        polygon_patch(1, 4, (1.0, -0.5), 0.5, (-0.10, 0.02), rig, 1.5, 0.7,
                      GammaParams(1.6, 0.2), (30.0, -5.0, 50.0)),
        polygon_patch(2, 6, (-0.5, 1.0), 0.7, (0.00, -0.08), rig, 0.05, 1.3,
                      GammaParams(3.1, 0.02), (80.0, 20.0, 25.0)),
        polygon_patch(3, 8, (1.2, 1.2), 0.4, (0.12, 0.12), rig, 2.0, 0.4,
                      GammaParams(1.2, 0.5), (45.0, 0.0, 45.0)),
    ]
    patches.append(replace(patches[1], id=4))  # exact twin of patch 1
    rng = np.random.default_rng(56)
    xy = rng.uniform(-2.0, 2.5, (40, 2))
    probes = np.column_stack([xy, 4.0 + rng.uniform(-0.4, 0.4, 40)])
    centres = np.array([p.pair.seed + [0.0, 0.0, 0.2] for p in patches[:4]])
    invisible = np.array([[1.0, 0.5, 0.0]])  # z = 0: at infinity for the left camera
    positions = np.vstack([probes, centres, invisible])
    return SimpleNamespace(rig=rig, patches=patches, positions=positions, n_probes=40)


def reference_score(patch, p, rig):
    """Log posterior composed from module pieces and the oracles, point by point."""
    (pl,), (ok_l,) = project_many(rig.camera_left, p)
    (pr,), (ok_r,) = project_many(rig.camera_right, p)
    if not (ok_l and ok_r):
        return -math.inf
    z_pixels = (pl, pr)
    verts = patch.hull.vertices
    lateral = min(
        float(oracles.point_triangle_sq_dist(p[None, :], verts[0], verts[k], verts[k + 1])[0])
        for k in range(1, len(verts) - 1)
    )
    d = max(patch.plane.sq_dist_many(p[None])[0] + patch.boundary_weight * lateral, 1e-12)
    prior = 0.0
    moments = 1.0
    for e, px in zip((patch.pair.ellipse_left, patch.pair.ellipse_right), z_pixels):
        dx, dy = px - e.centroid
        k1, k2, k3 = e.inertia
        z = dx * dx / k1 - 2.0 * k2 * dx * dy / (k1 * k3) + dy * dy / k3
        om = 1.0 - k2 * k2 / (k1 * k3)
        prior += z / (2.0 * om)
        moments *= om * k1 * k3
    return (
        float(oracles.ref_gamma_logpdf(d, patch.theta.shape, patch.theta.scale))
        - patch.intensity_weight * prior
        - 0.5 * math.log(moments)
    )


def test_stacked_scores_match_per_patch_reference():
    scene = polygon_scene()
    rows = np.arange(len(scene.positions))
    scores = PatchStack(scene.patches, scene.positions, scene.rig).scores(rows)
    assert scores.shape == (len(scene.positions), len(scene.patches))
    for i, p in enumerate(scene.positions):
        for j, patch in enumerate(scene.patches):
            expect = reference_score(patch, p, scene.rig)
            if math.isinf(expect):
                assert scores[i, j] == expect
            else:
                assert scores[i, j] == pytest.approx(expect, rel=1e-12, abs=1e-12)
    assert np.all(scores[-1] == -np.inf)
    _, ok_right = project_many(scene.rig.camera_right, scene.positions[-1:])
    assert ok_right[0]  # invisible to the left camera only
    # every hull sees probe points on both sides of its boundary
    for patch in scene.patches:
        hull = HullStack([patch.hull])
        inside = hull.contains_2d(hull.to_2d(scene.positions[: scene.n_probes]))[:, 0]
        assert 0 < np.count_nonzero(inside) < scene.n_probes


def test_stacked_scorer_bars_rejected_points_and_ties_to_the_lower_id():
    scene = polygon_scene()
    n = len(scene.positions)
    cloud = PointCloud(scene.positions, np.zeros((n, 2)), np.zeros((n, 2)))
    cloud.penalty = np.zeros(n)
    scene.rig.noise_model = WeibullParams(1.0, 1.0)
    cfg = GrowConfig(log_threshold=-1e9)
    rows = np.arange(n)
    free = PatchStack(scene.patches, cloud.positions, scene.rig).scores(rows)

    got = classify_batch(scene.patches, cloud, rows, cfg, scene.rig)
    centre_of_2 = scene.n_probes + 2
    assert np.argmax(free[centre_of_2]) == 2
    assert got[centre_of_2] == scene.patches[2].id
    assert np.all(free[-1] == -np.inf)
    assert got[-1] is None  # invisible point

    centre_of_1 = scene.n_probes + 1
    assert free[centre_of_1, 1] == free[centre_of_1, 4]
    assert np.argmax(free[centre_of_1]) == 1
    assert got[centre_of_1] == 1
    assert sum(g == 4 for g in got) == 0  # the twin loses every tie


def test_refreshed_stack_equals_a_rebuilt_stack():
    # Accepting a ring of points around the triangle turns its hull into a
    # 12-gon, past the stack's capacity of 8; the refreshed row must then
    # score exactly as a stack rebuilt from the current patches.
    scene = polygon_scene()
    tri = scene.patches[0]
    ang = 2.0 * np.pi * np.arange(12) / 12
    ring = np.column_stack(
        [-1.0 + 1.1 * np.cos(ang), -0.5 + 1.1 * np.sin(ang), np.zeros(12)]
    )
    a, b, c, d = tri.plane.implicit
    ring[:, 2] = -(a * ring[:, 0] + b * ring[:, 1] + d) / c
    positions = np.vstack([tri.hull.vertices, scene.positions[:-1], ring])
    n = len(positions)
    cloud = PointCloud(positions, np.zeros((n, 2)), np.zeros((n, 2)))
    assigned_to = np.full(n, -1)
    patches = [replace(p, members=[]) for p in scene.patches]
    patches[0].members = [0, 1, 2]
    assigned_to[[0, 1, 2]] = 0
    stack = PatchStack(patches, cloud.positions, scene.rig)
    assert stack.hulls.capacity == 8

    accept(patches[0], cloud, assigned_to, np.arange(n - 12, n))
    assert len(patches[0].hull.vertices) == 12
    rows = np.flatnonzero(assigned_to < 0)
    stale = stack.scores(rows)
    stack.refresh(0)
    assert stack.hulls.capacity == 16
    fresh = PatchStack(patches, cloud.positions, scene.rig)
    assert np.array_equal(stack.scores(rows), fresh.scores(rows))
    assert not np.array_equal(stale, fresh.scores(rows))


def test_growth_keeps_its_stack_equal_to_a_fresh_one(monkeypatch):
    scene = build_seeded()
    seen = []
    real = growing.classify_batch

    def checked(patches, cloud, indices, cfg, rig, stack=None):
        fresh = PatchStack(stack.patches, cloud.positions, rig)
        assert np.array_equal(stack.scores(indices), fresh.scores(indices))
        seen.append(stack.hulls.capacity)
        return real(patches, cloud, indices, cfg, rig, stack)

    monkeypatch.setattr(growing, "classify_batch", checked)
    result = grow(scene.patches, scene.cloud, scene.cfg, scene.rig, scene.assigned_to)
    assert result.accepted > 0
    assert max(seen) > seen[0]  # some hull outgrew the padding during growth


def test_growth_classifies_a_batch_of_queued_points_per_stacked_pass_by_default(monkeypatch):
    # The first epoch classifies its queue, every free point, in passes of
    # batch_size points, or of as many as the smallest patch has members if
    # that is more; each retry epoch classifies its whole queue, every point
    # still free, in one pass.
    assert GrowConfig().batch_size == 32
    real = growing.classify_batch
    micro, chess = build_micro(n=900, seed=11), build_seeded("chessboard", 300)
    for scene, patches in ((micro, [micro.patch]), (chess, chess.patches)):
        assert scene.cfg.batch_size == 32
        free = np.flatnonzero(scene.assigned_to < 0)
        calls = []

        def counted(patches, cloud, indices, *args):
            smallest = min(len(p.members) for p in patches)
            calls.append((np.asarray(indices), np.flatnonzero(scene.assigned_to < 0), smallest))
            return real(patches, cloud, indices, *args)

        monkeypatch.setattr(growing, "classify_batch", counted)
        result = grow(patches, scene.cloud, scene.cfg, scene.rig, scene.assigned_to)
        assert result.accepted > 0 and not result.truncated
        rows = [len(idx) for idx, _, _ in calls]
        first = int(np.searchsorted(np.cumsum(rows), len(free))) + 1
        sizes = [max(32, smallest) for _, _, smallest in calls[:first]]
        assert rows[: first - 1] == sizes[:-1] and 0 < rows[first - 1] <= sizes[-1]
        assert max(sizes) > 32  # the batches grew with the patches
        assert np.array_equal(np.sort(np.concatenate([idx for idx, _, _ in calls[:first]])), free)
        assert len(calls) == first + result.epochs - 1
        for idx, free_now, _ in calls[first:]:
            assert np.array_equal(np.sort(idx), free_now)
    # the chessboard retries long queues, longer than one row block
    assert result.epochs > 2 and max(rows[first:]) > growing._SCORE_ROWS


def test_the_first_epoch_takes_about_as_many_passes_at_four_times_the_points(monkeypatch):
    # Batches as large as the smallest patch: the first epoch's pass count
    # follows the patches' doublings, not the point count over batch_size
    # (which would make four times as many passes at four times the points).
    real_serve, real_classify = growing._serve_epoch, growing.classify_batch
    passes = []

    def served(*args):
        passes.append(0)
        return real_serve(*args)

    def classified(*args):
        passes[-1] += 1
        return real_classify(*args)

    monkeypatch.setattr(growing, "_serve_epoch", served)
    monkeypatch.setattr(growing, "classify_batch", classified)
    first = {}
    for points_per_face in (1000, 4000):
        scene = build_seeded("two-plane", points_per_face)
        passes.clear()
        grow(scene.patches, scene.cloud, scene.cfg, scene.rig, scene.assigned_to)
        first[points_per_face] = passes[0]
    assert first[4000] <= first[1000] + 10
    # and under a quarter of the passes that fixed batches of 32 would take
    assert first[4000] < 2 * 4000 // 32 // 4


def test_a_retry_epoch_decides_independently_of_its_queue_order(monkeypatch):
    # Every retry epoch serves its queue in a shuffled order: every patch
    # ends with the same members, only in another acceptance order.
    rng = np.random.default_rng(5)
    real = growing._serve_epoch
    orders = []
    for shuffle in (False, True):
        scene = build_seeded("chessboard", 300)
        retried = []

        def served(queue, floor, *args):
            if floor == len(queue) and shuffle:
                queue = rng.permutation(queue)
            retried.append(floor == len(queue))
            return real(queue, floor, *args)

        monkeypatch.setattr(growing, "_serve_epoch", served)
        result = grow(scene.patches, scene.cloud, scene.cfg, scene.rig, scene.assigned_to)
        assert retried == [False] + [True] * (result.epochs - 1)
        orders.append([p.members for p in result.patches])
    assert result.epochs > 2 and len(orders[0]) == len(orders[1])
    assert all(np.array_equal(np.sort(a), np.sort(b)) for a, b in zip(*orders))
    assert not all(np.array_equal(a, b) for a, b in zip(*orders))


def test_scoring_rows_in_one_block_or_several_decides_alike(monkeypatch):
    # Nothing is accepted within a pass, so the block size cannot move a
    # decision: growth ends with the same members in the same order.
    outcomes = []
    for rows in (7, 10**9):
        monkeypatch.setattr(growing, "_SCORE_ROWS", rows)
        scene = build_seeded("chessboard", 300)
        free = np.flatnonzero(scene.assigned_to < 0)
        decisions = classify_batch(scene.patches, scene.cloud, free, scene.cfg, scene.rig)
        result = grow(scene.patches, scene.cloud, scene.cfg, scene.rig, scene.assigned_to)
        outcomes.append((decisions, [(p.members, p.theta) for p in result.patches]))
    (decisions_a, grown_a), (decisions_b, grown_b) = outcomes
    assert decisions_a == decisions_b and any(d is not None for d in decisions_a)
    assert len(grown_a) == len(grown_b)
    for (members_a, theta_a), (members_b, theta_b) in zip(grown_a, grown_b):
        assert np.array_equal(members_a, members_b) and theta_a == theta_b


def test_a_retry_pass_scores_only_the_patches_that_accepted_in_the_epoch_before(monkeypatch):
    # A patch that accepted nothing in the epoch before is the state that
    # already scored each queued point below its threshold.  So each retry
    # pass scores exactly the patches that accepted in the epoch before, and
    # every decision equals that of a fresh pass over every patch.
    scene = build_seeded("chessboard", 300)
    real_serve, real_classify, real_accept = growing._serve_epoch, growing.classify_batch, growing.accept
    epochs = []

    def served(*args):
        epochs.append(SimpleNamespace(passes=[], accepted=set()))
        return real_serve(*args)

    def classified(patches, cloud, indices, cfg, rig, stack=None):
        decisions = real_classify(patches, cloud, indices, cfg, rig, stack)
        epochs[-1].passes.append([p.id for p in patches])
        assert decisions == real_classify(stack.patches, cloud, indices, cfg, rig)
        return decisions

    def accepted(patch, *args):
        epochs[-1].accepted.add(patch.id)
        return real_accept(patch, *args)

    monkeypatch.setattr(growing, "_serve_epoch", served)
    monkeypatch.setattr(growing, "classify_batch", classified)
    monkeypatch.setattr(growing, "accept", accepted)
    result = grow(scene.patches, scene.cloud, scene.cfg, scene.rig, scene.assigned_to)
    assert len(epochs) == result.epochs > 2 and not result.truncated
    every = [p.id for p in scene.patches]
    assert len(epochs[0].passes) > 1 and all(ids == every for ids in epochs[0].passes)
    for before, epoch in zip(epochs, epochs[1:]):
        assert epoch.passes == [sorted(before.accepted)]
    assert any(len(epoch.passes[0]) < len(scene.patches) for epoch in epochs[1:])
    # the order the patches are given in plays no part, and a patch the
    # stack does not hold, or holds in another state, is refused
    rows = np.arange(len(scene.cloud))
    stack = PatchStack(scene.patches, scene.cloud.positions, scene.rig)
    some = scene.patches[1::2]
    decisions = real_classify(some, scene.cloud, rows, scene.cfg, scene.rig, stack)
    assert {d for d in decisions if d is not None} == {p.id for p in some}
    assert real_classify(some[::-1], scene.cloud, rows, scene.cfg, scene.rig, stack) == decisions
    stack = PatchStack(scene.patches[:2], scene.cloud.positions, scene.rig)
    for outside in (scene.patches[2], replace(scene.patches[0])):
        with pytest.raises(ValueError, match="not in the stack"):
            real_classify([scene.patches[0], outside], scene.cloud, rows, scene.cfg, scene.rig, stack)


@pytest.mark.parametrize("preset, points_per_face", [("two-plane", 1000), ("chessboard", 500)])
def test_the_staged_library_path_grows_as_run_pipeline(preset, points_per_face):
    # README's staged path: seed_all with the run's radius and weights, then
    # grow.  Growth reads the weights off the patches seed_all made.
    spec = synth.SceneSpec(preset, points_per_face, 0.001, 0)
    cfg = pipeline.RunConfig().for_scene(spec.scene_id)
    rig = synth.default_rig(spec.pixel_noise)
    cloud, _, segments = synth.generate(spec, rig)
    expected = pipeline.run_pipeline(cloud, rig, segments, cfg).grow_result

    rig = synth.default_rig(spec.pixel_noise)
    cloud, _, segments = synth.generate(spec, rig)
    pipeline.prepare(cloud, rig)
    pairs = segment_to_pairs(segments, rig)
    patches, assigned_to, _ = seed_all(
        pairs,
        cloud,
        cfg.seed_cfg,
        cfg.seed_cfg.resolve_radius(cloud.bbox_diagonal()),
        cfg.grow_cfg.boundary_weight,
        cfg.grow_cfg.intensity_weight,
    )
    got = grow(patches, cloud, cfg.grow_cfg, rig, assigned_to)
    assert (got.epochs, got.accepted, got.truncated) == (
        expected.epochs,
        expected.accepted,
        expected.truncated,
    )
    assert expected.accepted > 0 and len(got.patches) == len(expected.patches)
    for a, b in zip(got.patches, expected.patches):
        assert a.id == b.id and np.array_equal(a.members, b.members)


def test_chessboard_500_grows_without_truncation():
    spec = synth.SceneSpec("chessboard", 500, 0.001, 0)
    rig = synth.default_rig(spec.pixel_noise)
    cloud, _, segments = synth.generate(spec, rig)
    cfg = pipeline.RunConfig().for_scene(spec.scene_id)
    result = pipeline.run_pipeline(cloud, rig, segments, cfg)
    assert not result.grow_result.truncated
    assert 1 < result.grow_result.epochs < cfg.grow_cfg.max_epochs


# -- the threshold bound ------------------------------------------------------

# the three benchmark scenes, then a denser chessboard and two noisy clouds
BOUND_SCENES = [
    ("two-plane", 1000, 0.001),
    ("chessboard", 500, 0.001),
    ("random-planes-16", 400, 0.001),
    ("chessboard", 1000, 0.001),
    ("random-planes-16", 400, 0.1),
    ("random-planes-16", 400, 0.5),
]


@pytest.mark.parametrize("preset, points_per_face, sigma", BOUND_SCENES)
def test_bounded_classification_decides_as_the_full_matrix(monkeypatch, preset, points_per_face, sigma):
    # Every growth batch: the decisions equal argmax-and-threshold on the full
    # score matrix, every entry the bound keeps is exact, and no entry it
    # drops reaches its row's threshold.
    spec = synth.SceneSpec(preset, points_per_face, sigma, 0)
    rig = synth.default_rig(spec.pixel_noise)
    cloud, _, segments = synth.generate(spec, rig)
    seen = {"pairs": 0, "dropped": 0}
    real = growing.classify_batch

    def checked(patches, cloud, indices, cfg, rig, stack=None):
        decisions = real(patches, cloud, indices, cfg, rig, stack)
        idx = np.asarray(indices)
        threshold = cfg.log_threshold + cloud.penalty[idx] + noise_model_offset(rig.noise_model)
        full = stack.scores(idx)
        bounded = stack.scores(idx, threshold)
        assert decisions == oracles.threshold_decisions(full, threshold, [p.id for p in stack.patches])
        dropped = (bounded == -np.inf) & (full != -np.inf)
        assert np.array_equal(bounded, np.where(dropped, -np.inf, full), equal_nan=True)
        assert np.all(full[dropped] < np.broadcast_to(threshold[:, None], full.shape)[dropped])
        seen["pairs"] += full.size
        seen["dropped"] += np.count_nonzero(dropped)
        return decisions

    monkeypatch.setattr(growing, "classify_batch", checked)
    result = pipeline.run_pipeline(cloud, rig, segments, pipeline.RunConfig().for_scene(spec.scene_id))
    assert result.patches
    assert 0 < seen["dropped"] < seen["pairs"]


def test_the_bound_holds_below_the_gamma_mode():
    # Shape 3 puts the score's peak at d = 2 * scale = 1, beyond every
    # distance here, so a point's score rises with its distance; the bound
    # must then be taken at the mode, not at the distance floor.
    patch, rig = square_patch(weight=1.0, theta=GammaParams(3.0, 0.5))
    rng = np.random.default_rng(60)
    points = np.column_stack([rng.uniform(-0.3, 1.3, (200, 2)), rng.uniform(-0.2, 0.2, 200)])
    stack = PatchStack([patch], points, rig)
    rows = np.arange(len(points))
    full = stack.scores(rows)
    assert np.all(np.isfinite(full))
    assert np.array_equal(stack.scores(rows, full[:, 0] - 1e-6), full)
    dropped = stack.scores(rows, full[:, 0] + 1e-6)
    assert np.all((dropped == full) | (dropped == -np.inf))


def test_a_point_the_containment_tolerance_admits_past_a_short_edge_is_never_pruned():
    # A sliver whose tip is cut by an edge 2e-9 long.  The containment test
    # admits points up to tol / |e| = 5e-4 past that edge, as far as the long
    # edges allow (1e-6 here), so points just past the tip count inside while
    # lying beyond every vertex's distance from the vertex centroid.
    tip = 1e-9
    corners = np.array(
        [[-1e-3, 0.0], [0.0, -1e-3], [1.0, -tip], [1.0, tip], [0.0, 1e-3]]
    )
    verts = np.column_stack([corners, np.full(5, 4.0)])
    plane = fit_plane(verts, PlaneForm.Z)
    hull = build_hull(plane, verts)
    assert len(hull.vertices) == 5
    past = np.column_stack([1.0 + 1e-7 * np.arange(1, 10), np.zeros(9), np.full(9, 4.0)])
    hulls = HullStack([hull])
    q = hulls.to_2d(past)[:, 0]
    assert np.all(hulls.contains_2d(q, np.zeros(9, dtype=int)))
    center = hull.verts2d.mean(axis=0)
    vertex_radius = np.max(np.hypot(*(hull.verts2d - center).T))
    assert np.all(np.hypot(*(q - center).T) > vertex_radius * (1.0 + 1e-9) + 5e-8)
    # a steep score: the lateral term past the vertex radius alone would
    # move it by far more than the threshold's margin
    base, rig = square_patch()
    patch = replace(base, plane=plane, hull=hull, theta=GammaParams(1.0, 1e-9), boundary_weight=1e6)
    stack = PatchStack([patch], past, rig)
    rows = np.arange(len(past))
    full = stack.scores(rows)
    assert np.all(np.isfinite(full))
    assert np.array_equal(stack.scores(rows, full[:, 0] - 1e-6), full)


def random_polygon_patch(rng, pid, center, rig, span=1.0):
    """Patch whose hull spans random points, ``span`` across, on a random plane
    through ``center``, with a random boundary weight and a steep or a shallow Gamma."""
    normal = rng.normal(size=3) + [0.0, 0.0, 3.0]
    normal /= np.linalg.norm(normal)
    e1 = np.cross(normal, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    # the plane is fitted to a 2 x 2 square round the hull: its x and y stay
    # near 0 far from the world origin, so the Z form stays well conditioned
    corners = center + np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]) @ [e1, e2]
    plane = fit_plane(corners, PlaneForm.Z)
    ab = rng.uniform(-0.5 * span, 0.5 * span, (int(rng.integers(3, 14)), 2))
    hull = build_hull(plane, center + ab[:, :1] * e1 + ab[:, 1:] * e2)
    pixels = [project_many(camera, center)[0][0] for camera in (rig.camera_left, rig.camera_right)]
    pair = SegmentPair(circle_ellipse(pixels[0]), circle_ellipse(pixels[1]), center)
    theta = GammaParams(float(rng.choice([1.0, 2.5])), float(rng.choice([1e-9, 1e-4, 1e-2])))
    weight = float(rng.choice([1e-7, 1.0, 1e4]))
    return Patch(pid, plane, hull, [], theta, pair, weight, 1.0)


@pytest.mark.parametrize("depth", [4.0, 1e3, 1e6])
def test_the_3d_lateral_floor_never_bounds_below_an_exact_score(depth):
    # The bound takes its lateral floor from 3D distances, |q - c|^2 =
    # |x - c|^2 - s^2 with c the bounding-circle centre on the hull plane,
    # and never from in-plane coordinates.  Random tilted patches, at the
    # canonical depth and far from the world origin, are probed at points
    # just past their boundaries, high above their planes, and scattered
    # around.  A threshold equal to an entry's exact score never drops it,
    # the floor is 0 inside and at most the boundary distance outside.
    rng = np.random.default_rng(71)
    rig = synth.default_rig(0.001)
    positive = 0
    for trial in range(10):
        centres = np.array([0.0, 0.0, depth]) + rng.uniform(-1.0, 1.0, (4, 3))
        spans = rng.choice([1.0, 1e-2], len(centres))
        patches = [
            random_polygon_patch(rng, pid, c, rig, span) for pid, (c, span) in enumerate(zip(centres, spans))
        ]
        probes = []
        for p, span in zip(patches, spans):
            v = p.hull.vertices
            mid = v.mean(axis=0)
            out = v + (v - mid) * rng.choice([1e-12, 1e-9, 1e-6, 1e-3, 0.1], (len(v), 1))
            high = span * rng.choice([-1e4, -1e2, -3.0, 3.0, 1e2, 1e4], (len(v), 1))
            probes += [out, out + p.hull.normal * high, mid + p.hull.normal * 5.0]
            # just past the vertex on the bounding circle, where the floor is
            # tightest, and high above it, where |x - c|^2 - s^2 cancels most
            far = v[np.argmax(np.sum((v - mid) ** 2, axis=1))]
            step = span * np.outer([1e-9, 1e-7, 1e-5], (far - mid) / np.linalg.norm(far - mid))
            lift = span * np.outer([-1e4, -1e2, -1.0, 1.0, 1e2, 1e4], p.hull.normal)
            probes.append((far + step[:, None, :] + lift[None]).reshape(-1, 3))
        probes.append(centres.mean(axis=0) + rng.uniform(-2.0, 2.0, (40, 3)))
        points = np.vstack(probes)
        stack = PatchStack(patches, points, rig)
        rows = np.arange(len(points))
        full = stack.scores(rows)
        assert np.count_nonzero(np.isfinite(full)) > 0.5 * full.size
        for j in range(len(patches)):
            kept = stack.scores(rows, full[:, j], cols=[j])[:, 0]
            assert np.array_equal(kept, full[:, j])
        hulls = stack.hulls
        floor = hulls.lateral_floor(points, hulls.signed_dist(points) ** 2)
        q = hulls.to_2d(points)
        inside = hulls.contains_2d(q)
        assert np.all(floor[inside] == 0.0)
        assert np.all(floor[~inside] ** 2 <= hulls.boundary_sq_dist_2d(q)[~inside])
        positive += np.count_nonzero(floor > 0.0)
    assert positive > 0


# -- accepting points ---------------------------------------------------------


def test_accepting_a_coplanar_point_keeps_the_plane():
    scene = build_micro(n=900, seed=4, noise=0.0)
    before = np.asarray(scene.patch.plane.coeffs).copy()
    candidates = np.flatnonzero(scene.assigned_to < 0)
    accept(scene.patch, scene.cloud, scene.assigned_to, [int(candidates[0])])
    after = np.asarray(scene.patch.plane.coeffs)
    assert np.max(np.abs(after - before)) <= 1e-12
    assert scene.assigned_to[int(candidates[0])] == scene.patch.id


def test_accept_increments_membership_and_consumes_the_point():
    scene = build_micro(n=800, seed=5)
    n_before = len(scene.patch.members)
    idx = int(np.flatnonzero(scene.assigned_to < 0)[3])
    accept(scene.patch, scene.cloud, scene.assigned_to, [idx])
    assert len(scene.patch.members) == n_before + 1
    assert idx in scene.patch.members
    assert scene.assigned_to[idx] >= 0


def test_accepting_a_claimed_point_raises_and_leaves_the_patch_unchanged():
    scene = build_seeded()
    first, second = scene.patches[:2]
    members, sums = first.members.copy(), first.plane.sums.copy()
    vertices = first.hull.vertices.copy()
    claims = scene.assigned_to.copy()
    with pytest.raises(ValueError, match="point already assigned"):
        accept(first, scene.cloud, scene.assigned_to, second.members[:3])
    assert np.array_equal(first.members, members)
    assert np.array_equal(first.plane.sums, sums)
    assert np.array_equal(first.hull.vertices, vertices)
    assert np.array_equal(scene.assigned_to, claims)


def test_hundred_accepts_equal_scratch_recompute():
    scene = build_micro(n=900, seed=6)
    patch, cloud, assigned_to = scene.patch, scene.cloud, scene.assigned_to
    available = np.flatnonzero(assigned_to < 0)
    order = np.asarray(available)[
        np.argsort(np.sum((cloud.positions[available] - patch.pair.seed) ** 2, axis=1))
    ]
    for idx in order[:100]:
        accept(patch, cloud, assigned_to, [int(idx)])

    member_pts = cloud.positions[np.asarray(patch.members)]
    scratch_plane = fit_plane(member_pts, patch.plane.form)
    assert np.allclose(
        patch.plane.coeffs, scratch_plane.coeffs, rtol=1e-9, atol=1e-15
    )
    scratch_hull = build_hull(scratch_plane, member_pts)
    dists = np.maximum(
        (1.0 + patch.boundary_weight) * scratch_plane.sq_dist_many(member_pts), 1e-12
    )
    scratch_theta = gamma_mle(dists)
    assert patch.theta.shape == pytest.approx(scratch_theta.shape, rel=1e-9)
    assert patch.theta.scale == pytest.approx(scratch_theta.scale, rel=1e-9)
    # The amortized hull may have been projected on an earlier fit, so
    # compare vertex sets geometrically rather than bitwise.
    assert len(patch.hull.vertices) == len(scratch_hull.vertices)
    gaps = np.linalg.norm(
        patch.hull.vertices[:, None, :] - scratch_hull.vertices[None, :, :], axis=2
    )
    assert np.max(gaps.min(axis=1)) <= 1e-6


def test_every_accept_keeps_the_hull_equal_to_a_rebuild_over_all_members():
    # Batches of 1-7 points, served roughly from the centre out, mix points
    # inside and outside the current hull; the noisy tilted plane moves with
    # every refit, starting from an 8-point fit.
    rng = np.random.default_rng(11)
    n = 400
    ab = rng.uniform(-1.0, 1.0, (n, 2))
    ab = ab[np.argsort(np.hypot(ab[:, 0], ab[:, 1]) + rng.uniform(0.0, 0.6, n))]
    z = 0.4 * ab[:, 0] - 0.3 * ab[:, 1] + 2.0 + rng.normal(0.0, 1e-3, n)
    positions = np.column_stack([ab, z])
    cloud = PointCloud(positions, np.zeros((n, 2)), np.zeros((n, 2)))
    assigned_to = np.full(n, -1)
    seed = np.arange(8)
    plane = fit_plane(positions[seed], PlaneForm.Z)
    hull = build_hull(plane, positions[seed])
    patch = Patch(0, plane, hull, list(seed), GammaParams(2.0, 1e-6), None, 1e-3)
    assigned_to[seed] = 0
    start, mixed = len(seed), 0
    while start < n:
        batch = np.arange(start, min(start + int(rng.integers(1, 8)), n))
        start = batch[-1] + 1
        before = HullStack([patch.hull])
        inside = before.contains_2d(before.to_2d(positions[batch]))[:, 0]
        mixed += bool(inside.any() and not inside.all())
        accept(patch, cloud, assigned_to, batch)
        members = positions[np.asarray(patch.members)]
        after = HullStack([patch.hull])
        assert np.all(after.contains_2d(after.to_2d(members)))
        scratch = build_hull(patch.plane, members)
        assert len(patch.hull.vertices) == len(scratch.vertices)
        gaps = np.linalg.norm(patch.hull.vertices[:, None] - scratch.vertices[None], axis=2)
        assert np.max(gaps.min(axis=1)) <= 1e-6
    assert mixed >= 20


def fitted_theta(patch, cloud):
    return gamma_mle(joint_distance(patch, cloud.positions[np.asarray(patch.members)]))


def halves(patch):
    """Two patches that split ``patch``'s members, as a merge would meet them."""
    half = len(patch.members) // 2
    return (
        replace(patch, members=patch.members[:half]),
        replace(patch, id=patch.id + 1, members=patch.members[half:]),
    )


def test_seed_accept_and_merge_fit_theta_to_the_joint_distances():
    # Tilted planes: there a plane-only shortcut through ``points @ normal``
    # rounds differently from the kernel's dot products on some patches.
    scene = build_seeded()
    cloud, assigned_to = scene.cloud, scene.assigned_to
    merged = []
    for patch in scene.patches:
        assert patch.theta == fitted_theta(patch, cloud)
        free = np.flatnonzero(assigned_to < 0)
        near = np.argsort(np.sum((cloud.positions[free] - patch.pair.seed) ** 2, axis=1))
        accept(patch, cloud, assigned_to, free[near[:20]])
        assert patch.theta == fitted_theta(patch, cloud)
        merged.append(_merge(*halves(patch), cloud))
        assert merged[-1].theta == fitted_theta(merged[-1], cloud)
    patches = scene.patches + merged
    for p in patches:
        # the kernel reads the plane term from the hull, and the refit from
        # the plane; both round alike
        assert np.array_equal(p.hull.normal, p.plane.normal)
        assert p.hull.offset == p.plane.implicit[3]
        x = cloud.positions
        assert np.array_equal(p.plane.sq_dist_many(x), HullStack([p.hull]).signed_dist(x)[:, 0] ** 2)
    # the refit's distances are the classifier's, column for column
    stack = PatchStack(patches, cloud.positions, scene.rig)
    d = grid_joint_distance(stack.hulls, stack.weight, cloud.positions)
    for j, p in enumerate(patches):
        assert np.array_equal(d[:, j], joint_distance(p, cloud.positions))


def test_refit_fits_the_plane_term_of_a_member_outside_the_hull():
    # A member that lies laterally outside its hull is fitted by its plane
    # term alone, not by the classifier's joint distance.
    patch, _ = square_patch(weight=1.0)
    members = np.array(
        [[0.2, 0.3, 0.01], [0.5, 0.5, -0.02], [0.7, 0.2, 0.03], [3.0, 0.5, 0.015]]
    )
    stack = HullStack([patch.hull])
    assert not stack.contains_2d(stack.to_2d(members[-1:]))[0, 0]
    patch.refit(members)
    d = (1.0 + patch.boundary_weight) * patch.plane.sq_dist_many(members)
    expect = gamma_mle(np.maximum(d, 1e-12))
    assert patch.theta == expect
    assert expect != gamma_mle(joint_distance(patch, members))


def test_a_degenerate_sample_keeps_the_fallback_or_the_previous_theta():
    # Noiseless points on one plane: every joint distance is clamped to the
    # same floor, so the Gamma fit has no spread to estimate.
    scene = build_micro(n=900, seed=4, noise=0.0)
    patch, cloud, assigned_to = scene.patch, scene.cloud, scene.assigned_to
    with pytest.raises(ValueError, match="degenerate sample"):
        fitted_theta(patch, cloud)
    members = np.asarray(patch.members)
    assert patch.theta == _fallback_theta(cloud, members, patch.boundary_weight)

    previous = GammaParams(1.7, 3e-9)
    patch.theta = previous
    accept(patch, cloud, assigned_to, np.flatnonzero(assigned_to < 0)[:40])
    with pytest.raises(ValueError, match="degenerate sample"):
        fitted_theta(patch, cloud)
    assert patch.theta == previous
    merged = _merge(*halves(patch), cloud)
    with pytest.raises(ValueError, match="degenerate sample"):
        fitted_theta(merged, cloud)
    assert merged.theta == previous


# -- the grow loop ------------------------------------------------------------


def test_saturates_on_a_single_face():
    # All points lie on the seeded plane, so a generous threshold must
    # sweep up every one of them before the loop stalls.
    scene = build_micro(n=800, seed=10)
    cfg = replace(scene.cfg, log_threshold=-30.0)
    result = grow([scene.patch], scene.cloud, cfg, scene.rig, scene.assigned_to)
    assert not result.truncated
    assert len(np.flatnonzero(scene.assigned_to < 0)) == 0
    assert int(np.sum(scene.assigned_to >= 0)) == len(scene.cloud)
    assert result.epochs >= 1


def test_impossible_threshold_freezes_the_seeds():
    scene = build_micro(n=900, seed=7)
    seed_members = set(scene.patch.members)
    cfg = replace(scene.cfg, log_threshold=1e9)
    result = grow([scene.patch], scene.cloud, cfg, scene.rig, scene.assigned_to)
    assert result.accepted == 0
    assert set(result.patches[0].members) == seed_members


def test_membership_only_grows():
    scene = build_micro(n=900, seed=8)
    seed_members = set(scene.patch.members)
    result = grow([scene.patch], scene.cloud, scene.cfg, scene.rig, scene.assigned_to)
    assert seed_members <= set(result.patches[0].members)


def test_batched_growth_matches_single_stepping(monkeypatch):
    # On one isolated face no two queued points can flip each other's
    # winner, so batching may only change the update cadence, not the set:
    # one point per pass ends with the members the derived batches give.
    real = growing._batch_size
    outcomes = []
    for size in (lambda floor, patches: 1, real):
        monkeypatch.setattr(growing, "_batch_size", size)
        scene = build_micro(n=900, seed=9)
        cfg = replace(scene.cfg, log_threshold=-25.0)
        result = grow([scene.patch], scene.cloud, cfg, scene.rig, scene.assigned_to)
        outcomes.append((result.accepted, frozenset(result.patches[0].members)))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] > 0


def test_growth_tests_containment_only_for_the_scored_rows(monkeypatch):
    # Refits read the plane term alone, so no accept reaches the containment
    # test; an O(members) test per accept would add every member row again.
    # Only (point, patch) pairs the classifier scores reach it, and of those
    # only the pairs that the threshold bound keeps.
    scene = build_micro(n=900, seed=8)
    pairs = {"inside": 0, "scored": 0, "inside_accept": 0}
    accepting = []
    inside_polygons, scores, accept_ = geometry._inside_polygons, PatchStack.scores, growing.accept

    def counting_inside(q, *args):
        pairs["inside"] += q.size // 2
        pairs["inside_accept"] += len(accepting)
        return inside_polygons(q, *args)

    def counting_scores(self, idx, threshold=None, cols=None):
        pairs["scored"] += len(idx) * (len(self.patches) if cols is None else len(cols))
        return scores(self, idx, threshold, cols)

    def flagged_accept(*args):
        accepting.append(True)
        try:
            return accept_(*args)
        finally:
            accepting.pop()

    monkeypatch.setattr(geometry, "_inside_polygons", counting_inside)
    monkeypatch.setattr(PatchStack, "scores", counting_scores)
    monkeypatch.setattr(growing, "accept", flagged_accept)
    result = grow([scene.patch], scene.cloud, scene.cfg, scene.rig, scene.assigned_to)
    assert result.accepted > 0
    assert pairs["inside_accept"] == 0
    assert 0 < pairs["inside"] <= pairs["scored"]


def test_growth_stops_at_max_epochs_and_flags_truncation(caplog):
    ref = build_micro(n=900, seed=12)
    full = grow([ref.patch], ref.cloud, ref.cfg, ref.rig, ref.assigned_to)
    assert not full.truncated and full.epochs > 1

    scene = build_micro(n=900, seed=12)
    cfg = replace(scene.cfg, max_epochs=1)
    with caplog.at_level("WARNING", logger="stereopatch.growing"):
        result = grow([scene.patch], scene.cloud, cfg, scene.rig, scene.assigned_to)
    assert result.truncated
    assert result.epochs == 1
    assert 0 < result.accepted < full.accepted
    assert "growth truncated after 1 epochs" in caplog.text
