"""Plane fitting, planar hulls, and the squared-distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereopatch import geometry
from stereopatch.geometry import (
    HullStack,
    PlaneForm,
    build_hull,
    choose_plane_form,
    fit_plane,
    hull_area,
    hull_from_vertices,
    hull_hull_min_sq_dist,
    hull_is_convex,
    point_hull_sq_dist_many,
    update_fit_many,
    update_hull,
)
from stereopatch import synth

import oracles


def random_plane_points(rng, n, span=2.0, noise=0.0):
    """Points near a random non-degenerate plane, plus its frame."""
    origin = rng.uniform(-1, 1, 3)
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    e1 = np.cross(normal, [1.0, 0.0, 0.0])
    if np.linalg.norm(e1) < 1e-6:
        e1 = np.cross(normal, [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    ab = rng.uniform(-span, span, (n, 2))
    pts = origin + ab[:, :1] * e1 + ab[:, 1:] * e2
    if noise:
        pts = pts + rng.normal(scale=noise, size=(n, 1)) * normal
    return pts, origin, normal, e1, e2


def hull_from_random_points(rng, n=14, span=1.5):
    pts, *_ = random_plane_points(rng, n, span)
    form = choose_plane_form(pts)
    plane = fit_plane(pts, form)
    return build_hull(plane, pts), plane, pts


# -- dependent-axis selection -------------------------------------------------


def test_flat_z_cluster_selects_z_form():
    rng = np.random.default_rng(1)
    pts = np.column_stack(
        [rng.uniform(-5, 5, 40), rng.uniform(-5, 5, 40), np.zeros(40)]
    )
    assert choose_plane_form(pts) is PlaneForm.Z


def test_constant_x_cluster_selects_x_form():
    rng = np.random.default_rng(2)
    pts = np.column_stack(
        [np.full(40, 5.0), rng.uniform(-5, 5, 40), rng.uniform(-5, 5, 40)]
    )
    assert choose_plane_form(pts) is PlaneForm.X


def test_steep_slope_selects_minimum_range_axis():
    # Z = 10X + Y makes Z the widest axis; the rule must pick whichever
    # coordinate actually spans the least on the sample.
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 100)
    y = rng.uniform(-1, 1, 100)
    pts = np.column_stack([x, y, 10 * x + y])
    ranges = pts.max(axis=0) - pts.min(axis=0)
    by_axis = {0: PlaneForm.X, 1: PlaneForm.Y, 2: PlaneForm.Z}
    assert choose_plane_form(pts) is by_axis[int(np.argmin(ranges))]


def test_collinear_cluster_is_degenerate():
    t = np.linspace(0, 1, 30)
    pts = np.column_stack([t, 2 * t, -t])
    with pytest.raises(ValueError, match="degenerate cluster"):
        choose_plane_form(pts)


# -- least-squares fitting ----------------------------------------------------


def test_exact_plane_recovers_coefficients():
    rng = np.random.default_rng(4)
    x = rng.uniform(-3, 3, 25)
    y = rng.uniform(-3, 3, 25)
    pts = np.column_stack([x, y, 2 * x + 3 * y + 1])
    plane = fit_plane(pts, PlaneForm.Z)
    assert np.allclose(plane.coeffs, [2.0, 3.0, 1.0], atol=1e-12)


def test_four_point_fit_matches_lstsq():
    pts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    plane = fit_plane(pts, PlaneForm.Z)
    expect = oracles.lstsq_plane(pts, "z")
    assert np.allclose(plane.coeffs, expect, atol=1e-12)


def test_fit_matches_lstsq_on_random_clusters():
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(4, 60))
        pts = rng.uniform(-2, 2, (n, 3))
        pts[:, 2] = 0.3 * pts[:, 0] - 0.7 * pts[:, 1] + rng.normal(0, 0.2, n)
        plane = fit_plane(pts, PlaneForm.Z)
        expect = oracles.lstsq_plane(pts, "z")
        assert np.allclose(plane.coeffs, expect, rtol=1e-9, atol=1e-12)


def test_noiseless_scene_refit_matches_truth():
    # Refit each face of a noiseless scene from its own points: the implicit
    # coefficients must match the construction almost exactly.
    spec = synth.SceneSpec("path", points_per_face=600, pixel_noise=0.0, seed=0)
    cloud, gt, _ = synth.generate(spec, synth.default_rig(0.0))
    for face_idx, coeffs in enumerate(gt.coeffs):
        pts = cloud.positions[gt.labels == face_idx]
        plane = fit_plane(pts, choose_plane_form(pts))
        ssd = min(
            float(np.sum((plane.implicit - coeffs) ** 2)),
            float(np.sum((plane.implicit + coeffs) ** 2)),
        )
        assert ssd <= 1e-9


def test_collinear_fit_is_rank_deficient():
    t = np.linspace(0, 1, 10)
    pts = np.column_stack([t, t, np.zeros_like(t)])
    with pytest.raises(ValueError, match="rank-deficient fit"):
        fit_plane(pts, PlaneForm.Z)


def test_implicit_form_is_normalized_and_consistent():
    rng = np.random.default_rng(6)
    for trial in range(20):
        pts, *_ = random_plane_points(rng, 30, noise=0.05)
        form = choose_plane_form(pts)
        plane = fit_plane(pts, form)
        assert abs(np.linalg.norm(plane.implicit[:3]) - 1.0) < 1e-12
        expect = oracles.implicit_from_slope(form.value, plane.coeffs)
        agree = min(
            np.max(np.abs(plane.implicit - expect)),
            np.max(np.abs(plane.implicit + expect)),
        )
        assert agree < 1e-12


# -- incremental updates ------------------------------------------------------


def test_update_with_on_plane_point_is_identity():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 12)
    y = rng.uniform(-1, 1, 12)
    pts = np.column_stack([x, y, 0.5 * x - 1.5 * y + 2.0])
    plane = fit_plane(pts, PlaneForm.Z)
    updated = update_fit_many(plane, np.array([[0.3, 0.4, 0.5 * 0.3 - 1.5 * 0.4 + 2.0]]))
    assert np.allclose(updated.coeffs, plane.coeffs, atol=1e-12)
    assert abs(np.linalg.norm(updated.implicit[:3]) - 1.0) < 1e-12


def test_incremental_equals_batch_fit():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2, 2, (50, 3))
    plane = fit_plane(pts[:4], PlaneForm.Z)
    for p in pts[4:]:
        plane = update_fit_many(plane, p[None])
    batch = fit_plane(pts, PlaneForm.Z)
    assert np.allclose(plane.coeffs, batch.coeffs, rtol=1e-9, atol=1e-12)
    assert plane.sums[5] == 50


def test_each_running_sum_equals_its_own_np_sum():
    # The nine sums are one row-wise reduction; each row must round as
    # np.sum does on its own term, also past numpy's 8192-element blocks.
    rng = np.random.default_rng(10)
    for k in (1, 3, 8, 9, 129, 8193, 20000):
        pts = rng.normal(size=(k, 3)) * 30.0 + rng.uniform(-1e3, 1e3, 3)
        for form in PlaneForm:
            dep, i1, i2 = geometry._FORM_AXES[form]
            a, b, w = pts[:, i1], pts[:, i2], pts[:, dep]
            terms = (a * a, a * b, a, b * b, b, np.ones(k), a * w, b * w, w)
            expect = np.array([np.sum(t) for t in terms])
            assert geometry._accumulate(pts, form).tobytes() == expect.tobytes()


def test_insertion_order_does_not_matter():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-2, 2, (30, 3))
    results = []
    for order_seed in (0, 1):
        order = np.random.default_rng(order_seed).permutation(30)
        plane = fit_plane(pts[order[:5]], PlaneForm.Z)
        for idx in order[5:]:
            plane = update_fit_many(plane, pts[[idx]])
        results.append(np.asarray(plane.coeffs))
    assert np.allclose(results[0], results[1], rtol=1e-9, atol=1e-12)


def test_fit_is_a_local_minimum_of_the_axis_error():
    rng = np.random.default_rng(10)
    pts = rng.uniform(-2, 2, (40, 3))
    pts[:, 2] += rng.normal(0, 0.3, 40)
    plane = fit_plane(pts, PlaneForm.Z)
    u, v, d = plane.coeffs

    def sse(uu, vv, dd):
        return np.sum((uu * pts[:, 0] + vv * pts[:, 1] + dd - pts[:, 2]) ** 2)

    best = sse(u, v, d)
    for delta in (1e-4, -1e-4):
        assert sse(u + delta, v, d) >= best
        assert sse(u, v + delta, d) >= best
        assert sse(u, v, d + delta) >= best
    # Gradient of the squared-residual objective vanishes at the solution.
    res = u * pts[:, 0] + v * pts[:, 1] + d - pts[:, 2]
    grad = 2 * np.array(
        [np.dot(res, pts[:, 0]), np.dot(res, pts[:, 1]), np.sum(res)]
    )
    assert np.max(np.abs(grad)) <= 1e-8 * len(pts)


# -- point-plane distance -----------------------------------------------------


def test_on_plane_distance_is_zero():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    plane = fit_plane(pts, PlaneForm.Z)
    assert plane.sq_dist_many(np.array([[0.25, 0.75, 0.0]]))[0] == pytest.approx(0.0, abs=1e-24)


def test_height_above_ground_plane():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    plane = fit_plane(pts, PlaneForm.Z)
    assert plane.sq_dist_many(np.array([[0.0, 0.0, 2.0]]))[0] == pytest.approx(4.0, abs=1e-12)


def test_plane_distance_matches_projection_route():
    rng = np.random.default_rng(11)
    for trial in range(40):
        pts, *_ = random_plane_points(rng, 20)
        plane = fit_plane(pts, choose_plane_form(pts))
        p = rng.uniform(-3, 3, 3)
        n = plane.implicit[:3]
        signed = float(n @ p + plane.implicit[3])
        proj = p - signed * n
        expect = float(np.sum((p - proj) ** 2))
        assert plane.sq_dist_many(p[None])[0] == pytest.approx(expect, rel=1e-10, abs=1e-18)


# -- point-hull distance ------------------------------------------------------


def unit_square_hull():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    plane = fit_plane(pts, PlaneForm.Z)
    return build_hull(plane, pts), plane


def test_hull_vertex_distance_is_zero():
    hull, _ = unit_square_hull()
    assert point_hull_sq_dist_many(hull, hull.vertices[:1])[0] == pytest.approx(0.0, abs=1e-20)


def test_point_above_square_center():
    hull, plane = unit_square_hull()
    p = np.array([0.5, 0.5, 1.0])
    assert point_hull_sq_dist_many(hull, p[None])[0] == pytest.approx(1.0, abs=1e-12)
    assert point_hull_sq_dist_many(hull, p[None])[0] == plane.sq_dist_many(p[None])[0]


def test_inside_projection_equals_plane_distance_exactly():
    rng = np.random.default_rng(12)
    checked = 0
    for trial in range(60):
        hull, plane, pts = hull_from_random_points(rng)
        inner = pts.mean(axis=0)
        p = inner + plane.implicit[:3] * rng.uniform(-2, 2)
        local = (p - hull.origin) @ np.column_stack([hull.axis_u, hull.axis_v])
        if not oracles_point_in_polygon(hull.verts2d, local):
            continue
        assert point_hull_sq_dist_many(hull, p[None])[0] == plane.sq_dist_many(p[None])[0]
        checked += 1
    assert checked >= 40


def oracles_point_in_polygon(verts2d, pt):
    v = np.asarray(verts2d)
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        e = b - a
        if e[0] * (pt[1] - a[1]) - e[1] * (pt[0] - a[0]) < -1e-12:
            return False
    return True


def test_outside_hull_matches_dense_sampling():
    rng = np.random.default_rng(13)
    done = 0
    for trial in range(12):
        hull, plane, pts = hull_from_random_points(rng, n=10)
        # Step well off the hull laterally and off the plane too.
        edge_dir = hull.vertices[0] - hull.vertices[1]
        edge_dir /= np.linalg.norm(edge_dir)
        p = (
            hull.vertices[0]
            + edge_dir * rng.uniform(0.5, 2.0)
            + plane.implicit[:3] * rng.uniform(-1.5, 1.5)
        )
        got = point_hull_sq_dist_many(hull, p[None])[0]
        expect = oracles.dense_point_polygon_sq_dist(p, hull.vertices, grid=700)
        if expect < 1e-6:
            continue
        assert got == pytest.approx(expect, rel=1e-4)
        assert got <= expect + 1e-15
        done += 1
    assert done >= 8


def broadcast_boundary_sq_dist(q, starts, edges, edge_sq):
    """Reference: the min-over-edges distance through (npts, npolys, nedges, 2) arrays."""
    qq = q[:, :, None, :]
    diff = qq - starts[None]
    t = np.clip(np.sum(diff * edges[None], axis=3) / edge_sq[None], 0.0, 1.0)
    proj = starts[None] + t[..., None] * edges[None]
    d2 = np.sum((qq - proj) ** 2, axis=3)
    return np.min(d2, axis=2)


def test_boundary_kernel_equals_the_broadcast_formula_bit_for_bit():
    rng = np.random.default_rng(31)
    for trial in range(12):
        built = [hull_from_random_points(rng, n=int(rng.integers(3, 40))) for _ in range(4)]
        hulls = [hull for hull, _, _ in built]
        # a repeated vertex makes a zero-length edge, scored with the edge_sq = 1 stand-in
        hull, plane, _ = built[0]
        hulls.append(hull_from_vertices(plane, np.vstack([hull.vertices[:2], hull.vertices[1:]])))
        stack = HullStack(hulls)
        assert len({len(h.verts2d) for h in hulls}) > 1  # padding is exercised
        assert np.any(np.all(stack.edges[-1] == 0.0, axis=1) & (stack.edge_sq[-1] == 1.0))
        # interior points of each hull (outside the others) and points off every hull
        weights = rng.dirichlet(np.ones(3), size=(len(hulls), 6))
        inner = np.vstack([w @ h.vertices[:3] for w, h in zip(weights, hulls)])
        points = np.vstack([inner, rng.uniform(-4.0, 4.0, (30, 3))])
        q = stack.to_2d(points)
        inside = stack.contains_2d(q)
        assert np.any(inside) and not np.all(inside)
        got = stack.boundary_sq_dist_2d(q)
        expect = broadcast_boundary_sq_dist(q, stack.starts, stack.edges, stack.edge_sq)
        assert got.tobytes() == expect.tobytes()


def test_lateral_floor_is_zero_inside_and_below_the_boundary_distance_outside():
    rng = np.random.default_rng(33)
    for trial in range(10):
        hulls = [hull_from_random_points(rng, n=int(rng.integers(3, 40)))[0] for _ in range(4)]
        stack = HullStack(hulls)
        weights = rng.dirichlet(np.ones(3), size=(len(hulls), 6))
        inner = np.vstack([w @ h.vertices[:3] for w, h in zip(weights, hulls)])
        points = np.vstack([inner, hulls[0].vertices, rng.uniform(-4.0, 4.0, (30, 3))])
        q = stack.to_2d(points)
        floor = stack.lateral_floor(points, stack.signed_dist(points) ** 2)
        inside = stack.contains_2d(q)
        assert np.all(floor[inside] == 0.0)
        assert np.all(floor[~inside] ** 2 <= stack.boundary_sq_dist_2d(q)[~inside])
        assert np.any(floor > 0.0)
    # a vertex list that is not a convex, counter-clockwise polygon bounds nothing
    hull, plane, _ = hull_from_random_points(rng)
    assert np.isfinite(hull.bounding_circle[1])
    assert hull_from_vertices(plane, hull.vertices[::-1]).bounding_circle[1] == np.inf


def test_plane_basis_equals_the_np_cross_form():
    rng = np.random.default_rng(32)
    normals = rng.normal(size=(3000, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    axes = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [-0.0, 1.0, 0.0], [0.6, 0.0, 0.8]]
    near = [[np.sqrt(1.0 - z * z), 0.0, z] for z in (0.9, np.nextafter(0.9, 0.0), -0.9)]
    normals = np.vstack([normals, axes, near])
    assert np.any(np.abs(normals[:, 2]) < 0.9) and np.any(np.abs(normals[:, 2]) >= 0.9)
    for n in normals:
        helper = [0.0, 0.0, 1.0] if abs(n[2]) < 0.9 else [1.0, 0.0, 0.0]
        u = np.cross(n, helper)
        u = u / np.linalg.norm(u)
        v = np.cross(n, u)
        got_u, got_v = geometry._plane_basis(n)
        assert got_u.tobytes() == u.tobytes() and got_v.tobytes() == v.tobytes()


# -- hull maintenance ---------------------------------------------------------


def test_interior_point_leaves_hull_unchanged():
    hull, plane = unit_square_hull()
    new = np.array([[0.5, 0.5, 0.0]])
    updated = update_hull(hull, plane, new)
    assert oracles.point_set_key(updated.vertices) == oracles.point_set_key(hull.vertices)


def test_outside_point_extends_hull():
    hull, plane = unit_square_hull()
    new = np.array([[2.0, 0.5, 0.0]])
    updated = update_hull(hull, plane, new)
    keys = {tuple(np.round(v, 9)) for v in updated.vertices}
    assert (2.0, 0.5, 0.0) in keys
    assert hull_is_convex(updated)
    for v in hull.vertices:
        local = (v - updated.origin) @ np.column_stack([updated.axis_u, updated.axis_v])
        assert oracles_point_in_polygon(updated.verts2d, local)


def test_large_hull_matches_qhull():
    rng = np.random.default_rng(14)
    pts, origin, normal, e1, e2 = random_plane_points(rng, 1000)
    form = choose_plane_form(pts)
    plane = fit_plane(pts, form)
    hull = build_hull(plane, pts)
    flat = (pts - origin) @ np.column_stack([e1, e2])
    expect_idx = oracles.qhull_vertex_set(flat)
    got = oracles.point_set_key(hull.vertices)
    expect = oracles.point_set_key(pts[sorted(expect_idx)])
    assert got == expect


def test_small_hulls_match_exhaustive_edge_scan():
    rng = np.random.default_rng(15)
    for trial in range(30):
        n = int(rng.integers(6, 40))
        pts, origin, normal, e1, e2 = random_plane_points(rng, n)
        plane = fit_plane(pts, choose_plane_form(pts))
        hull = build_hull(plane, pts)
        flat = (pts - origin) @ np.column_stack([e1, e2])
        expect_idx = oracles.brute_hull_vertex_set(flat)
        got = oracles.point_set_key(hull.vertices)
        expect = oracles.point_set_key(pts[sorted(expect_idx)])
        assert got == expect


def test_hull_area_matches_shoelace():
    rng = np.random.default_rng(16)
    for trial in range(20):
        hull, _, _ = hull_from_random_points(rng)
        assert hull_area(hull) == pytest.approx(
            oracles.shoelace_area(hull.verts2d), abs=1e-10
        )


# -- hull-hull distance -------------------------------------------------------


def test_intersecting_hulls_have_zero_distance():
    hull_a, plane = unit_square_hull()
    pts = np.array([[0.5, 0.5, -1.0], [0.5, 0.5, 1.0], [0.6, 0.4, 1.0], [0.6, 0.4, -1.0]])
    plane_b = fit_plane(pts, choose_plane_form(pts))
    hull_b = build_hull(plane_b, pts)
    assert hull_hull_min_sq_dist(hull_a, hull_b) == pytest.approx(0.0, abs=1e-18)


def test_stacked_squares_distance():
    hull_a, _ = unit_square_hull()
    pts = np.array([[0.0, 0, 3.0], [1, 0, 3.0], [1, 1, 3.0], [0, 1, 3.0]])
    plane_b = fit_plane(pts, PlaneForm.Z)
    hull_b = build_hull(plane_b, pts)
    assert hull_hull_min_sq_dist(hull_a, hull_b) == pytest.approx(9.0, abs=1e-12)


def test_hull_distance_matches_dense_sampling():
    # Separation well above the sampling resolution keeps the oracle's grid
    # error far inside the comparison tolerance.
    rng = np.random.default_rng(17)
    for trial in range(8):
        hull_a, _, _ = hull_from_random_points(rng, n=8, span=1.0)
        pts_b, *_ = random_plane_points(rng, 8, span=1.0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        moved = pts_b + direction * rng.uniform(4.2, 6.0)
        plane_b = fit_plane(moved, choose_plane_form(moved))
        hull_b = build_hull(plane_b, moved)
        got = hull_hull_min_sq_dist(hull_a, hull_b)
        expect = oracles.dense_polygon_polygon_sq_dist(
            hull_a.vertices, hull_b.vertices, grid=260
        )
        assert expect > 0.5
        assert got == pytest.approx(expect, rel=1e-3)
        assert got <= expect + 1e-12


HULL_DIST_LIMIT = 0.065  # the merge gate's hull_dist_max on every preset


@settings(max_examples=160, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(
        ["apart", "touching", "stacked at the limit", "side by side at the limit", "crossing edges"]
    ),
)
def test_hull_distance_equals_the_unpruned_double_loop(seed, kind):
    rng = np.random.default_rng(seed)
    hull_a, plane_a, _ = hull_from_random_points(rng, n=int(rng.integers(3, 24)), span=rng.uniform(0.1, 2.0))
    gap = np.sqrt(HULL_DIST_LIMIT) * rng.choice([1.0, 1.0 + 1e-12, 1.0 - 1e-12])
    if kind in ("apart", "touching"):
        pts_b, *_ = random_plane_points(rng, int(rng.integers(3, 24)), span=rng.uniform(0.1, 2.0))
        if kind == "apart":
            pts_b = pts_b + rng.normal(size=3) * rng.uniform(0.0, 3.0)
        else:
            corner = build_hull(fit_plane(pts_b, choose_plane_form(pts_b)), pts_b).sources[0]
            pts_b = pts_b + (hull_a.vertices[rng.integers(len(hull_a.vertices))] - corner)
    elif kind == "stacked at the limit":
        pts_b = hull_a.vertices + plane_a.normal * gap
    elif kind == "side by side at the limit":
        along = hull_a.vertices @ hull_a.axis_u
        pts_b = hull_a.vertices + hull_a.axis_u * (np.ptp(along) + gap)
    else:
        # Axis-aligned edges, whose boxes lie exactly as far apart as the
        # edges do: a's top edge and b's bottom edge cross at the limit, just
        # closer than any vertex comes to the other hull, so only the edge
        # loop finds the distance, and only by the pair the box gap ties.
        size = rng.uniform(0.5, 2.0)
        pts_a = np.array([[0.0, 0, 0], [size, 0, 0], [size, 0, -size], [0, 0, -size]])
        plane_a = fit_plane(pts_a, PlaneForm.Y)
        hull_a = build_hull(plane_a, pts_a)
        eps = gap * 10.0 ** rng.uniform(-4.0, -1.0)
        x = size * rng.uniform(0.2, 0.8)
        pts_b = np.array([[x, -size, gap], [x, eps, gap], [x, eps, gap + size], [x, -size, gap + size]])
    hull_b = build_hull(fit_plane(pts_b, choose_plane_form(pts_b)), pts_b)
    got = hull_hull_min_sq_dist(hull_a, hull_b)
    expect = oracles.unpruned_hull_hull_min_sq_dist(hull_a, hull_b)
    assert got == expect and np.signbit(got) == np.signbit(expect)
    if kind == "crossing edges":
        assert got == pytest.approx(gap * gap, rel=1e-9)


def test_hull_distance_is_symmetric():
    rng = np.random.default_rng(18)
    for trial in range(10):
        hull_a, _, _ = hull_from_random_points(rng, n=9)
        hull_b, _, _ = hull_from_random_points(rng, n=9)
        assert hull_hull_min_sq_dist(hull_a, hull_b) == hull_hull_min_sq_dist(
            hull_b, hull_a
        )
