"""Independent reference implementations used to cross-check the package.

Every oracle here computes its answer by a route the package code does not
share: dense sampling instead of closed-form projection, lstsq instead of
accumulated normal equations, qhull / exhaustive edge tests instead of the
incremental monotone chain, scipy.stats instead of hand-rolled log pdfs.
Tests compare the two routes; neither side is derived from the other.
The oracles for the package's exact bounds are the other kind: the same
computation without the bound, so a pruned result must equal it bit for bit.
"""

import numpy as np
from scipy import integrate, stats
from scipy.spatial import ConvexHull


# -- plane fitting -----------------------------------------------------------

FORM_AXES = {"x": (0, 1, 2), "y": (1, 0, 2), "z": (2, 0, 1)}


def lstsq_plane(points, form):
    """Fit dep = u*a + v*b + d by np.linalg.lstsq. Returns (u, v, d)."""
    dep_ax, a_ax, b_ax = FORM_AXES[form]
    A = np.column_stack(
        [points[:, a_ax], points[:, b_ax], np.ones(len(points))]
    )
    sol, *_ = np.linalg.lstsq(A, points[:, dep_ax], rcond=None)
    return sol


def lstsq_residual_ssq(points, form):
    """Sum of squared residuals of the lstsq fit along the dependent axis."""
    dep_ax, a_ax, b_ax = FORM_AXES[form]
    u, v, d = lstsq_plane(points, form)
    pred = u * points[:, a_ax] + v * points[:, b_ax] + d
    return float(np.sum((points[:, dep_ax] - pred) ** 2))


def implicit_from_slope(form, coeffs):
    """Unit-normal implicit (A, B, C, D) from slope-intercept coefficients."""
    u, v, d = coeffs
    dep_ax, a_ax, b_ax = FORM_AXES[form]
    vec = np.zeros(4)
    vec[a_ax] = u
    vec[b_ax] = v
    vec[dep_ax] = -1.0
    vec[3] = d
    vec /= np.linalg.norm(vec[:3])
    if vec[dep_ax] < 0:
        vec = -vec
    return vec


# -- polygon sampling --------------------------------------------------------

def sample_polygon(vertices, grid=400):
    """Dense point samples covering a convex planar polygon, edges included.

    Fan-triangulates from vertex 0 and lays a barycentric grid over each
    triangle. grid=400 gives ~80k samples per triangle.
    """
    vertices = np.asarray(vertices, dtype=float)
    ii, jj = np.meshgrid(np.arange(grid + 1), np.arange(grid + 1))
    keep = (ii + jj) <= grid
    u = ii[keep] / grid
    v = jj[keep] / grid
    chunks = []
    for k in range(1, len(vertices) - 1):
        a, b, c = vertices[0], vertices[k], vertices[k + 1]
        chunks.append(a + np.outer(u, b - a) + np.outer(v, c - a))
    return np.concatenate(chunks, axis=0)


def dense_point_polygon_sq_dist(point, vertices, grid=400):
    """Min squared distance point-to-polygon by brute sampling."""
    samples = sample_polygon(vertices, grid)
    diff = samples - np.asarray(point, dtype=float)
    return float(np.min(np.einsum("ij,ij->i", diff, diff)))


def point_triangle_sq_dist(points, a, b, c):
    """Exact squared distance from many points to one solid triangle.

    The standard region-based closest-point construction: classify each
    point against the triangle's Voronoi regions (vertices, edges, face)
    by barycentric signs and clamp accordingly.
    """
    p = np.asarray(points, dtype=float)
    ab, ac = b - a, c - a
    ap = p - a
    d1, d2 = ap @ ab, ap @ ac
    bp = p - b
    d3, d4 = bp @ ab, bp @ ac
    cp = p - c
    d5, d6 = cp @ ab, cp @ ac
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    q = np.zeros_like(p)
    decided = np.zeros(len(p), dtype=bool)

    def settle(mask, closest):
        todo = mask & ~decided
        q[todo] = closest if closest.ndim == 1 else closest[todo]
        decided[todo] = True

    settle((d1 <= 0) & (d2 <= 0), a)
    settle((d3 >= 0) & (d4 <= d3), b)
    settle((d6 >= 0) & (d5 <= d6), c)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = d1 / (d1 - d3)
        settle((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + np.outer(t_ab, ab))
        t_ac = d2 / (d2 - d6)
        settle((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + np.outer(t_ac, ac))
        t_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        settle((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0), b + np.outer(t_bc, c - b))
    denom = va + vb + vc
    v = vb / denom
    w = vc / denom
    settle(np.ones(len(p), dtype=bool), a + v[:, None] * ab + w[:, None] * ac)

    diff = p - q
    return np.einsum("ij,ij->i", diff, diff)


def dense_polygon_polygon_sq_dist(verts_a, verts_b, grid=250):
    """Min squared distance between two polygons: dense samples on one side,
    exact point-triangle distances to the other side's fan, both directions.
    """
    best = np.inf
    for src, dst in ((verts_a, verts_b), (verts_b, verts_a)):
        samples = sample_polygon(src, grid)
        dv = np.asarray(dst, dtype=float)
        for k in range(1, len(dv) - 1):
            d = point_triangle_sq_dist(samples, dv[0], dv[k], dv[k + 1])
            best = min(best, float(d.min()))
    return best


def unpruned_hull_hull_min_sq_dist(hull_a, hull_b):
    """Min squared distance between two solid hulls, measuring every edge pair.

    The package's ``hull_hull_min_sq_dist`` skips the edge pairs whose
    bounding boxes lie farther apart than the best distance so far; this
    reference runs the same steps without that skip, the full double loop
    over the edges, so the two must agree bit for bit.
    """
    from stereopatch import geometry

    if hull_b.vertices.tobytes() < hull_a.vertices.tobytes():
        hull_a, hull_b = hull_b, hull_a
    if geometry._any_edge_pierces(hull_a, hull_b) or geometry._any_edge_pierces(hull_b, hull_a):
        return 0.0
    best = float(np.min(geometry.point_hull_sq_dist_many(hull_b, hull_a.vertices)))
    best = min(best, float(np.min(geometry.point_hull_sq_dist_many(hull_a, hull_b.vertices))))
    if best == 0.0:
        return 0.0
    a0, a1 = hull_a.vertices, np.roll(hull_a.vertices, -1, axis=0)
    b0, b1 = hull_b.vertices, np.roll(hull_b.vertices, -1, axis=0)
    for i in range(len(a0)):
        for j in range(len(b0)):
            d = geometry._seg_seg_sq_dist(a0[i], a1[i], b0[j], b1[j])
            if d < best:
                best = d
    return best


# -- convex hulls in 2D ------------------------------------------------------

def brute_hull_vertex_set(points2d, eps=1e-9):
    """Hull vertex indices by exhaustive triangle containment.

    In the plane a point inside the convex hull of a set lies inside some
    closed triangle of three set members, so p_k is a hull vertex iff no
    triangle of three OTHER points contains it.  Quartic in n overall; keep
    n modest.
    """
    from itertools import combinations

    pts = np.asarray(points2d, dtype=float)
    n = len(pts)
    triples = np.array(list(combinations(range(n), 3)))
    a, b, c = pts[triples[:, 0]], pts[triples[:, 1]], pts[triples[:, 2]]
    ab, ac = b - a, c - a
    det = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    usable = np.abs(det) > 1e-12
    safe_det = np.where(usable, det, 1.0)
    verts = set()
    for k in range(n):
        rel = pts[k] - a
        l1 = (rel[:, 0] * ac[:, 1] - rel[:, 1] * ac[:, 0]) / safe_det
        l2 = (ab[:, 0] * rel[:, 1] - ab[:, 1] * rel[:, 0]) / safe_det
        contains = usable & (l1 >= -eps) & (l2 >= -eps) & (l1 + l2 <= 1 + eps)
        contains &= ~np.any(triples == k, axis=1)
        if not np.any(contains):
            verts.add(k)
    return verts


def qhull_vertex_set(points2d):
    """Hull vertex indices via scipy's qhull binding."""
    return set(ConvexHull(np.asarray(points2d, dtype=float)).vertices.tolist())


def point_set_key(points):
    """Canonical sorted tuple-of-tuples for comparing vertex coordinate sets."""
    rows = sorted(tuple(np.round(row, 9)) for row in np.asarray(points))
    return tuple(rows)


# -- classification ------------------------------------------------------------

def threshold_decisions(scores, threshold, ids):
    """Each row's winner on a full (points x patches) score matrix: the id of
    the first column holding the row's maximum, or None when that maximum is
    not finite or falls below the row's threshold."""
    decisions = []
    for row, level in zip(np.asarray(scores), np.asarray(threshold)):
        k = int(np.argmax(row))
        decisions.append(ids[k] if np.isfinite(row[k]) and row[k] >= level else None)
    return decisions


# -- distributions -----------------------------------------------------------

def ref_gamma_logpdf(x, shape, scale):
    return stats.gamma.logpdf(x, a=shape, scale=scale)


def ref_weibull_logpdf(x, shape, scale):
    return stats.weibull_min.logpdf(x, c=shape, scale=scale)


def gamma_loglike_grid_max(samples, shape_hat, scale_hat, span=0.2, n=41):
    """Max log-likelihood over a parameter grid around a candidate estimate.

    Used to confirm an MLE: no grid point should beat the estimate by more
    than grid-resolution slack.
    """
    shapes = shape_hat * np.linspace(1 - span, 1 + span, n)
    best = -np.inf
    for a in shapes:
        # Profile out the scale: at fixed shape the optimum is mean/shape.
        b = float(np.mean(samples)) / a
        ll = float(np.sum(stats.gamma.logpdf(samples, a=a, scale=b)))
        best = max(best, ll)
    return best


def quad_unit_mass(logpdf, lo, hi):
    """Integrate exp(logpdf) over [lo, hi] by adaptive quadrature."""
    val, _ = integrate.quad(lambda t: np.exp(logpdf(t)), lo, hi, limit=200)
    return val


# -- triangulation -----------------------------------------------------------

def midpoint_triangulate(pixel_left, pixel_right, p_left, p_right):
    """Midpoint of the common perpendicular between the two viewing rays.

    Independent of the package's linear triangulation: builds each ray from
    the camera matrix (center = -M^-1 p4, direction = M^-1 [x; 1]) and
    intersects them geometrically.
    """
    def ray(P, px):
        M = P[:, :3]
        p4 = P[:, 3]
        center = -np.linalg.solve(M, p4)
        direction = np.linalg.solve(M, np.array([px[0], px[1], 1.0]))
        return center, direction / np.linalg.norm(direction)

    c1, d1 = ray(np.asarray(p_left, dtype=float), pixel_left)
    c2, d2 = ray(np.asarray(p_right, dtype=float), pixel_right)
    # Solve [d1, -d2] [t; s] = c2 - c1 in the least-squares sense.
    A = np.column_stack([d1, -d2])
    t, s = np.linalg.lstsq(A, c2 - c1, rcond=None)[0]
    return 0.5 * ((c1 + t * d1) + (c2 + s * d2))


def dlt_points(pixels_left, pixels_right, p_left, p_right):
    """Linear triangulation written out from the camera rows.

    The right singular vector of the smallest singular value of the stacked
    x*P3 - P1, y*P3 - P2 rows of both views, for pixel arrays of any
    leading shape (..., 2).
    """
    rows = []
    for P, px in ((np.asarray(p_left, dtype=float), pixels_left),
                  (np.asarray(p_right, dtype=float), pixels_right)):
        rows.append(px[..., 0:1] * P[2] - P[0])
        rows.append(px[..., 1:2] * P[2] - P[1])
    design = np.stack(rows, axis=-2)  # (..., 4, 4)
    null = np.linalg.svd(design)[2][..., -1, :]
    return null[..., :3] / null[..., 3:4]


def montecarlo_uncertainty(positions, pixels_left, pixels_right, p_left, p_right, sigmas,
                           trials=4000, seed=0):
    """Mean squared 3D displacement from ``positions`` under pixel noise.

    Each trial adds N(0, sigma^2) noise to the four pixel coordinates of
    every point (``sigmas`` = (left, right)) and re-triangulates by
    ``dlt_points``.  Sampling replaces the package's differentiation.
    """
    rng = np.random.default_rng(seed)
    n = len(positions)
    noise = rng.normal(size=(n, trials, 4)) * np.repeat(sigmas, 2)
    left = np.asarray(pixels_left, dtype=float)[:, None, :] + noise[..., 0:2]
    right = np.asarray(pixels_right, dtype=float)[:, None, :] + noise[..., 2:4]
    points = dlt_points(left, right, p_left, p_right)
    diff = points - np.asarray(positions, dtype=float)[:, None, :]
    return np.mean(np.sum(diff * diff, axis=-1), axis=1)


def central_difference_uncertainty(pixels_left, pixels_right, p_left, p_right, sigmas,
                                   step=1e-3):
    """First-order triangulation variance by central differences.

    Shifts each of the four pixel coordinates by +-``step`` px, re-triangulates
    by ``dlt_points`` and sums sigma^2 * ||dX/dp||^2 over the coordinates
    (``sigmas`` = (left, right)).  Finite differences replace the package's
    closed-form SVD perturbation.
    """
    pixels = np.concatenate(
        (np.asarray(pixels_left, dtype=float), np.asarray(pixels_right, dtype=float)), axis=1
    )
    shifted = pixels[:, None, None, :] + np.stack((np.eye(4), -np.eye(4)))[None] * step
    points = dlt_points(shifted[..., 0:2], shifted[..., 2:4], p_left, p_right)
    jac = (points[:, 0] - points[:, 1]) / (2.0 * step)  # (n, 4, 3)
    return np.sum(jac * jac, axis=2) @ np.repeat(np.asarray(sigmas, dtype=float) ** 2, 2)


# -- polygons and ellipses ---------------------------------------------------

def shoelace_area(verts2d):
    v = np.asarray(verts2d, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def polygon_centroid_2d(verts2d):
    """Area centroid of a simple polygon by the standard cross-product sums."""
    v = np.asarray(verts2d, dtype=float)
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross)
    cx = np.sum((x + xn) * cross) / (6.0 * area)
    cy = np.sum((y + yn) * cross) / (6.0 * area)
    return np.array([cx, cy])


def montecarlo_polygon_moments(verts2d, n=400_000, seed=0):
    """Centroid and central second moments of a polygon by rejection sampling."""
    v = np.asarray(verts2d, dtype=float)
    rng = np.random.default_rng(seed)
    lo, hi = v.min(axis=0), v.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n, 2))
    # Inside test for a convex polygon: consistent cross-product sign.
    inside = np.ones(n, dtype=bool)
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        e = b - a
        rel = pts - a
        inside &= (e[0] * rel[:, 1] - e[1] * rel[:, 0]) >= 0
    kept = pts[inside]
    c = kept.mean(axis=0)
    d = kept - c
    cov = d.T @ d / len(kept)
    return c, cov
