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
    PointState,
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
    seed_patch,
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


def circle_ellipse(centroid, intensity=0.5, view="left", size=50.0):
    return EllipsePrior(
        np.asarray(centroid, dtype=float), np.array([size, 0.0, size]), intensity, view
    )


def square_patch(weight=1.0, zeta=1.0, theta=GammaParams(2.0, 1.0)):
    """Hand-built unit-square patch on Z=0 with chosen weights."""
    corners = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    plane = fit_plane(corners, PlaneForm.Z)
    hull = build_hull(plane, corners)
    rig = synth.default_rig(0.001)
    centroid = np.array([0.5, 0.5, 0.0])
    pair = SegmentPair(
        circle_ellipse(project_many(rig.camera_left, centroid + [0, 0, 4])[0][0]),
        circle_ellipse(project_many(rig.camera_right, centroid + [0, 0, 4])[0][0], view="right"),
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
        circle_ellipse(pxr, view="right", size=size),
        triangulate_many(pxl, pxr, rig)[0][0],
    )
    state = PointState(len(cloud))
    cfg = GrowConfig(log_threshold=-15.0, boundary_weight=1e-7)
    patch = seed_patch(
        pair, cloud, SeedConfig(), state, 0, boundary_weight=cfg.boundary_weight
    )
    assert isinstance(patch, Patch)
    return SimpleNamespace(
        cloud=cloud, rig=rig, pair=pair, state=state, patch=patch, cfg=cfg
    )


# -- joint distance -----------------------------------------------------------


def joint_distance(patch, points):
    """The classifier's joint distance of (n, 3) points to one patch."""
    pts = np.atleast_2d(np.asarray(points, float))
    return growing._joint_distance(HullStack([patch.hull]), patch.boundary_weight, pts)[:, 0]


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
        circle_ellipse(project_many(rig.camera_right, vertex)[0][0], view="right"),
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
    patches, state, _ = seed_all(
        pairs,
        cloud,
        cfg.seed_cfg,
        cfg.grow_cfg.boundary_weight,
        cfg.grow_cfg.intensity_weight,
    )
    return SimpleNamespace(cloud=cloud, rig=rig, patches=patches, state=state, cfg=cfg.grow_cfg)


@pytest.fixture(scope="module")
def seeded():
    scene = build_seeded()
    assert len(scene.patches) >= 3
    assert any(len(p.pruned) for p in scene.patches), "the scene should carry seed-pruned points"
    return scene


def test_seed_pruned_points_never_join_their_patch():
    scene = build_seeded()
    pruned = {p.id: set(p.pruned.tolist()) for p in scene.patches}
    assert any(pruned.values())
    for patch in scene.patches:
        assert not pruned[patch.id] & set(patch.members)
        assert np.all(scene.state.assigned_to[patch.pruned] != patch.id)
    result = grow(scene.patches, scene.cloud, scene.cfg, scene.rig, scene.state)
    assert result.accepted > 0
    for patch in result.patches:
        assert not pruned[patch.id] & set(patch.members)


def test_a_stack_over_fewer_rows_than_a_seeded_patch_bars_names_the_patch(seeded):
    patch = next(p for p in seeded.patches if len(p.pruned))
    with pytest.raises(ValueError, match=f"patch {patch.id} bars cloud points outside the 1 stacked rows"):
        PatchStack([patch], seeded.cloud.positions[:1], seeded.rig)
    # over the cloud's rows the same patch stacks, with its pruned rows barred
    stack = PatchStack([patch], seeded.cloud.positions, seeded.rig)
    assert np.all(stack.blocked[patch.pruned, 0])


def test_batch_classification_matches_single_calls(micro, seeded):
    rng = np.random.default_rng(55)
    for scene, patches in ((micro, [micro.patch]), (seeded, seeded.patches)):
        available = scene.state.available_indices()
        idx = rng.choice(available, size=40, replace=False)
        pruned = np.concatenate([p.pruned for p in patches])
        barred = pruned[scene.state.assigned_to[pruned] < 0]
        idx = np.concatenate([idx, barred[:5]])
        batch = classify_batch(patches, scene.cloud, idx, scene.cfg, scene.rig)
        singles = [
            classify_batch(patches, scene.cloud, [i], scene.cfg, scene.rig)[0] for i in idx
        ]
        assert batch == singles
        assert any(b is not None for b in batch)


def test_no_patches_classify_nothing(micro):
    idx = np.arange(5)
    assert classify_batch([], micro.cloud, idx, micro.cfg, micro.rig) == [None] * 5
    state = PointState(len(micro.cloud))
    result = grow([], micro.cloud, micro.cfg, micro.rig, state)
    assert (result.epochs, result.accepted, result.truncated) == (0, 0, False)
    assert result.patches == []
    assert state.available_indices().tolist() == list(range(len(micro.cloud)))
    assert not np.any(state.assigned_to >= 0)


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
        EllipsePrior(
            project_many(rig.camera_left, mid)[0][0], np.asarray(inertia, float), 0.5, "left"
        ),
        EllipsePrior(
            project_many(rig.camera_right, mid)[0][0], np.asarray(inertia, float)[::-1], 0.5, "right"
        ),
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

    centre_of_2 = scene.n_probes + 2
    assert np.argmax(free[centre_of_2]) == 2
    patches = list(scene.patches)
    patches[2] = replace(patches[2], pruned=np.array([centre_of_2]))
    barred = PatchStack(patches, cloud.positions, scene.rig).scores(rows)
    assert barred[centre_of_2, 2] == -np.inf
    barred[centre_of_2, 2] = free[centre_of_2, 2]
    assert np.array_equal(barred, free)

    got = classify_batch(patches, cloud, rows, cfg, scene.rig)
    others = free[centre_of_2].copy()
    others[2] = -np.inf
    assert got[centre_of_2] == scene.patches[int(np.argmax(others))].id
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
    state = PointState(n)
    patches = [replace(p, members=[]) for p in scene.patches]
    patches[0].members = [0, 1, 2]
    state.assign([0, 1, 2], 0)
    stack = PatchStack(patches, cloud.positions, scene.rig)
    assert stack.hulls.capacity == 8

    accept(patches[0], cloud, state, np.arange(n - 12, n))
    assert len(patches[0].hull.vertices) == 12
    rows = state.available_indices()
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
        fresh = PatchStack(patches, cloud.positions, rig)
        assert np.array_equal(stack.scores(indices), fresh.scores(indices))
        seen.append(stack.hulls.capacity)
        return real(patches, cloud, indices, cfg, rig, stack)

    monkeypatch.setattr(growing, "classify_batch", checked)
    result = grow(scene.patches, scene.cloud, scene.cfg, scene.rig, scene.state)
    assert result.accepted > 0
    assert max(seen) > seen[0]  # some hull outgrew the padding during growth


def test_growth_classifies_a_batch_of_queued_points_per_stacked_pass_by_default(monkeypatch):
    assert GrowConfig().batch_size == 32
    scene = build_micro(n=900, seed=11)
    rows = []
    real = growing.classify_batch

    def counted(patches, cloud, indices, *args):
        rows.append(len(indices))
        return real(patches, cloud, indices, *args)

    monkeypatch.setattr(growing, "classify_batch", counted)
    result = grow([scene.patch], scene.cloud, scene.cfg, scene.rig, scene.state)
    assert result.accepted > 0
    assert max(rows) == 32
    assert len(rows) < sum(rows)


# -- accepting points ---------------------------------------------------------


def test_accepting_a_coplanar_point_keeps_the_plane():
    scene = build_micro(n=900, seed=4, noise=0.0)
    before = np.asarray(scene.patch.plane.coeffs).copy()
    candidates = scene.state.available_indices()
    accept(scene.patch, scene.cloud, scene.state, [int(candidates[0])])
    after = np.asarray(scene.patch.plane.coeffs)
    assert np.max(np.abs(after - before)) <= 1e-12
    assert scene.state.assigned_to[int(candidates[0])] == scene.patch.id


def test_accept_increments_membership_and_consumes_the_point():
    scene = build_micro(n=800, seed=5)
    n_before = len(scene.patch.members)
    idx = int(scene.state.available_indices()[3])
    accept(scene.patch, scene.cloud, scene.state, [idx])
    assert len(scene.patch.members) == n_before + 1
    assert idx in scene.patch.members
    assert not scene.state.available_mask()[idx]


def test_hundred_accepts_equal_scratch_recompute():
    scene = build_micro(n=900, seed=6)
    patch, cloud, state = scene.patch, scene.cloud, scene.state
    available = state.available_indices()
    order = np.asarray(available)[
        np.argsort(np.sum((cloud.positions[available] - patch.pair.seed) ** 2, axis=1))
    ]
    for idx in order[:100]:
        accept(patch, cloud, state, [int(idx)])

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
    state = PointState(n)
    seed = np.arange(8)
    plane = fit_plane(positions[seed], PlaneForm.Z)
    hull = build_hull(plane, positions[seed])
    patch = Patch(0, plane, hull, list(seed), GammaParams(2.0, 1e-6), None, 1e-3)
    state.assign(seed, 0)
    start, mixed = len(seed), 0
    while start < n:
        batch = np.arange(start, min(start + int(rng.integers(1, 8)), n))
        start = batch[-1] + 1
        before = HullStack([patch.hull])
        inside = before.contains_2d(before.to_2d(positions[batch]))[:, 0]
        mixed += bool(inside.any() and not inside.all())
        accept(patch, cloud, state, batch)
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
    cloud, state = scene.cloud, scene.state
    merged = []
    for patch in scene.patches:
        assert patch.theta == fitted_theta(patch, cloud)
        free = state.available_indices()
        near = np.argsort(np.sum((cloud.positions[free] - patch.pair.seed) ** 2, axis=1))
        accept(patch, cloud, state, free[near[:20]])
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
    d = growing._joint_distance(stack.hulls, stack.weight, cloud.positions)
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
    patch, cloud, state = scene.patch, scene.cloud, scene.state
    with pytest.raises(ValueError, match="degenerate sample"):
        fitted_theta(patch, cloud)
    members = np.asarray(patch.members)
    assert patch.theta == _fallback_theta(cloud, members, patch.boundary_weight)

    previous = GammaParams(1.7, 3e-9)
    patch.theta = previous
    accept(patch, cloud, state, state.available_indices()[:40])
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
    result = grow([scene.patch], scene.cloud, cfg, scene.rig, scene.state)
    assert not result.truncated
    assert len(scene.state.available_indices()) == 0
    assert int(np.sum(scene.state.assigned_to >= 0)) == len(scene.cloud)
    assert result.epochs >= 1


def test_impossible_threshold_freezes_the_seeds():
    scene = build_micro(n=900, seed=7)
    seed_members = set(scene.patch.members)
    cfg = replace(scene.cfg, log_threshold=1e9)
    result = grow([scene.patch], scene.cloud, cfg, scene.rig, scene.state)
    assert result.accepted == 0
    assert set(result.patches[0].members) == seed_members


def test_membership_only_grows():
    scene = build_micro(n=900, seed=8)
    seed_members = set(scene.patch.members)
    result = grow([scene.patch], scene.cloud, scene.cfg, scene.rig, scene.state)
    assert seed_members <= set(result.patches[0].members)


def test_batched_growth_matches_single_stepping():
    # On one isolated face no two queued points can flip each other's
    # winner, so batching may only change the update cadence, not the set.
    outcomes = []
    for batch in (1, 8):
        scene = build_micro(n=900, seed=9)
        cfg = replace(scene.cfg, log_threshold=-25.0, batch_size=batch)
        result = grow([scene.patch], scene.cloud, cfg, scene.rig, scene.state)
        outcomes.append(frozenset(result.patches[0].members))
    assert outcomes[0] == outcomes[1]


def test_growth_tests_containment_only_for_the_scored_rows(monkeypatch):
    # Refits read the plane term alone, so the only rows that reach the
    # containment test are those the classifier scores; an O(members) test
    # per accept would add every member row again.
    scene = build_micro(n=900, seed=8)
    rows = {"inside": 0, "scored": 0}
    inside_polygons, scores = geometry._inside_polygons, PatchStack.scores

    def counting_inside(q, *args):
        rows["inside"] += len(q)
        return inside_polygons(q, *args)

    def counting_scores(self, idx):
        rows["scored"] += len(idx)
        return scores(self, idx)

    monkeypatch.setattr(geometry, "_inside_polygons", counting_inside)
    monkeypatch.setattr(PatchStack, "scores", counting_scores)
    result = grow([scene.patch], scene.cloud, scene.cfg, scene.rig, scene.state)
    assert result.accepted > 0
    assert rows["inside"] == rows["scored"] > 0


def test_growth_stops_at_max_epochs_and_flags_truncation(caplog):
    ref = build_micro(n=900, seed=12)
    full = grow([ref.patch], ref.cloud, ref.cfg, ref.rig, ref.state)
    assert not full.truncated and full.epochs > 1

    scene = build_micro(n=900, seed=12)
    cfg = replace(scene.cfg, max_epochs=1)
    with caplog.at_level("WARNING", logger="stereopatch.growing"):
        result = grow([scene.patch], scene.cloud, cfg, scene.rig, scene.state)
    assert result.truncated
    assert result.epochs == 1
    assert 0 < result.accepted < full.accepted
    assert "growth truncated after 1 epochs" in caplog.text
