"""Plane fitting and planar convex-hull geometry.

Planes are fitted in slope-intercept form (one coordinate expressed as an
affine function of the other two) so the normal-equation system stays 3x3 and
can be updated incrementally from nine running sums.  Every plane also carries
the normalized implicit form (A, B, C, D) with a unit normal, which is what
all distance arithmetic uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

# Relative determinant floor for the 3x3 normal-equation solve.
_DET_RTOL = 1e-12

# Relative tolerance used by point-in-polygon tests (scaled by extent^2).
_CONTAIN_RTOL = 1e-12


class PlaneForm(Enum):
    """Which coordinate is expressed as a function of the other two."""

    X = "x"
    Y = "y"
    Z = "z"


# form -> (dependent axis, first independent axis, second independent axis)
_FORM_AXES = {
    PlaneForm.X: (0, 1, 2),  # X = u*Y + v*Z + d
    PlaneForm.Y: (1, 0, 2),  # Y = u*X + v*Z + d
    PlaneForm.Z: (2, 0, 1),  # Z = u*X + v*Y + d
}

_AXIS_TO_FORM = {0: PlaneForm.X, 1: PlaneForm.Y, 2: PlaneForm.Z}


@dataclass
class Plane:
    """Fitted plane: slope-intercept coefficients plus normalized implicit form.

    ``coeffs`` is (u, v, d) with the meaning fixed by ``form`` (see
    ``_FORM_AXES``).  ``implicit`` is (A, B, C, D) with A^2+B^2+C^2 = 1.
    ``sums`` holds the nine running sums of the normal equations so the fit
    can absorb new points without touching old ones.
    """

    form: PlaneForm
    coeffs: np.ndarray
    implicit: np.ndarray
    sums: np.ndarray
    n_points: int

    @property
    def normal(self) -> np.ndarray:
        return self.implicit[:3]

    def sq_dist(self, point: np.ndarray) -> float:
        d = float(np.dot(np.asarray(point, float), self.implicit[:3]) + self.implicit[3])
        return d * d

    def sq_dist_many(self, points: np.ndarray) -> np.ndarray:
        r = np.asarray(points, float) @ self.implicit[:3] + self.implicit[3]
        return r * r


def choose_plane_form(points: np.ndarray) -> PlaneForm:
    """Pick the dependent axis as the one with the smallest coordinate range.

    Ties prefer Z, then Y, then X.  Raises ValueError for clusters that do not
    span a plane (fewer than 3 points, or collinear/coincident points).
    """
    pts = np.asarray(points, float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 3:
        raise ValueError("degenerate cluster")
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[1] <= 1e-12 * max(sv[0], 1.0):
        raise ValueError("degenerate cluster")
    ranges = pts.max(axis=0) - pts.min(axis=0)
    preference = {2: 0, 1: 1, 0: 2}  # Z first on ties
    dep = min((2, 1, 0), key=lambda ax: (ranges[ax], preference[ax]))
    return _AXIS_TO_FORM[dep]


def _accumulate(points: np.ndarray, form: PlaneForm) -> np.ndarray:
    dep, i1, i2 = _FORM_AXES[form]
    a = points[:, i1]
    b = points[:, i2]
    w = points[:, dep]
    return np.array(
        [
            np.sum(a * a),
            np.sum(a * b),
            np.sum(a),
            np.sum(b * b),
            np.sum(b),
            float(len(points)),
            np.sum(a * w),
            np.sum(b * w),
            np.sum(w),
        ]
    )


def _point_contrib(point: np.ndarray, form: PlaneForm) -> np.ndarray:
    dep, i1, i2 = _FORM_AXES[form]
    a = float(point[i1])
    b = float(point[i2])
    w = float(point[dep])
    return np.array([a * a, a * b, a, b * b, b, 1.0, a * w, b * w, w])


def _solve_sums(sums: np.ndarray) -> np.ndarray:
    """Solve the symmetric 3x3 normal equations by adjugate/determinant."""
    saa, sab, sa, sbb, sb, n, saw, sbw, sw = sums
    m = np.array([[saa, sab, sa], [sab, sbb, sb], [sa, sb, n]])
    rhs = np.array([saw, sbw, sw])

    c00 = sbb * n - sb * sb
    c01 = sab * n - sb * sa
    c02 = sab * sb - sbb * sa
    det = saa * c00 - sab * c01 + sa * c02
    scale = max(float(np.max(np.abs(m))), 1e-30)
    if abs(det) <= _DET_RTOL * scale**3:
        raise ValueError("rank-deficient fit")

    # Adjugate of a symmetric matrix; rows double as columns.
    c11 = saa * n - sa * sa
    c12 = saa * sb - sab * sa
    c22 = saa * sbb - sab * sab
    inv = np.array([[c00, -c01, c02], [-c01, c11, -c12], [c02, -c12, c22]]) / det
    return inv @ rhs


def _to_implicit(form: PlaneForm, coeffs: np.ndarray) -> np.ndarray:
    """Convert slope-intercept coefficients to the unit-normal implicit form."""
    u, v, d = coeffs
    dep, i1, i2 = _FORM_AXES[form]
    s = 1.0 / np.sqrt(1.0 + u * u + v * v)
    out = np.empty(4)
    out[dep] = s
    out[i1] = -s * u
    out[i2] = -s * v
    out[3] = -s * d
    return out


def fit_plane(points: np.ndarray, form: PlaneForm) -> Plane:
    """Least-squares plane through ``points`` in the given slope-intercept form.

    Raises ValueError("rank-deficient fit") when the normal equations are
    singular (points collinear in the independent coordinates).
    """
    pts = np.asarray(points, float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 3:
        raise ValueError("rank-deficient fit")
    sums = _accumulate(pts, form)
    coeffs = _solve_sums(sums)
    return Plane(form, coeffs, _to_implicit(form, coeffs), sums, len(pts))


def update_fit(plane: Plane, point: np.ndarray) -> Plane:
    """Fold one more point into the fit.  The plane form never changes."""
    sums = plane.sums + _point_contrib(np.asarray(point, float), plane.form)
    coeffs = _solve_sums(sums)
    return Plane(plane.form, coeffs, _to_implicit(plane.form, coeffs), sums, plane.n_points + 1)


def update_fit_many(plane: Plane, points: np.ndarray) -> Plane:
    """Batch version of update_fit (one solve for the whole batch)."""
    pts = np.asarray(points, float).reshape(-1, 3)
    if len(pts) == 0:
        return plane
    sums = plane.sums + _accumulate(pts, plane.form)
    coeffs = _solve_sums(sums)
    return Plane(plane.form, coeffs, _to_implicit(plane.form, coeffs), sums, plane.n_points + len(pts))


def fit_residuals(plane: Plane, points: np.ndarray) -> np.ndarray:
    """Signed residuals along the dependent axis (what the fit minimizes)."""
    dep, i1, i2 = _FORM_AXES[plane.form]
    pts = np.asarray(points, float)
    u, v, d = plane.coeffs
    return u * pts[:, i1] + v * pts[:, i2] + d - pts[:, dep]


def point_plane_sq_dist(plane: Plane, point: np.ndarray) -> float:
    """Squared perpendicular distance (AX + BY + CZ + D)^2."""
    return plane.sq_dist(point)


# ---------------------------------------------------------------------------
# Planar convex hulls
# ---------------------------------------------------------------------------


def monotone_chain(points2d: np.ndarray) -> list[int]:
    """Indices of the strict convex hull, counter-clockwise.

    Collinear boundary points are dropped, so the vertex set is minimal.
    """
    pts = np.asarray(points2d, float)
    n = len(pts)
    if n < 3:
        return list(range(n))
    order = np.lexsort((pts[:, 1], pts[:, 0]))

    def cross(o: int, a: int, b: int) -> float:
        return (pts[a, 0] - pts[o, 0]) * (pts[b, 1] - pts[o, 1]) - (
            pts[a, 1] - pts[o, 1]
        ) * (pts[b, 0] - pts[o, 0])

    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(int(i))
    upper: list[int] = []
    for i in order[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(int(i))
    return lower[:-1] + upper[:-1]


def _plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal in-plane axes for a unit normal."""
    if abs(normal[2]) < 0.9:
        u = np.cross(normal, [0.0, 0.0, 1.0])
    else:
        u = np.cross(normal, [1.0, 0.0, 0.0])
    u = u / np.linalg.norm(u)
    v = np.cross(normal, u)
    return u, v


@dataclass
class PlanarHull:
    """Convex boundary polygon of a patch, living on the owning plane.

    ``vertices`` are counter-clockwise in the (axis_u, axis_v) frame and are
    reconstructed from their 2D coordinates, so they sit exactly on the plane.
    ``normal``/``offset`` are copies of the plane's implicit form at build
    time, which keeps the in-polygon distance branch bitwise identical to
    point_plane_sq_dist.  A hull is never modified in place, so the edge
    arrays and the containment tolerance are computed once, on first use.
    """

    vertices: np.ndarray
    verts2d: np.ndarray
    origin: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    normal: np.ndarray
    offset: float

    @cached_property
    def contain_tol(self) -> float:
        extent = float(np.max(np.ptp(self.verts2d, axis=0)))
        return _CONTAIN_RTOL * max(extent, 1e-12) ** 2

    @cached_property
    def edge_vectors(self) -> np.ndarray:
        """(nverts, 2) vector from each 2D vertex to the next one."""
        return np.roll(self.verts2d, -1, axis=0) - self.verts2d

    @cached_property
    def edge_sq_lengths(self) -> np.ndarray:
        """Squared edge lengths, with 1 standing in for zero-length edges."""
        e = self.edge_vectors
        ee = np.sum(e * e, axis=1)
        return np.where(ee > 0, ee, 1.0)

    def to_2d(self, points: np.ndarray) -> np.ndarray:
        rel = np.atleast_2d(np.asarray(points, float)) - self.origin
        return np.column_stack((rel @ self.axis_u, rel @ self.axis_v))

    def contains_2d(self, pts2d: np.ndarray) -> np.ndarray:
        """Non-strict membership of 2D points in the hull polygon."""
        q = np.atleast_2d(pts2d)[:, None, :]
        return _inside_polygons(
            q, self.verts2d[None], self.edge_vectors[None], np.array([self.contain_tol])
        )[:, 0]


def _inside_polygons(
    q: np.ndarray, starts: np.ndarray, edges: np.ndarray, tol: np.ndarray
) -> np.ndarray:
    """(npts, npolys) non-strict membership of q (npts, npolys, 2) in each polygon.

    ``starts``/``edges`` are (npolys, nedges, 2); a point is inside when
    cross(e_i, q - a_i) clears -tol for every edge of its polygon.
    """
    a = starts[None]
    e = edges[None]
    qq = q[:, :, None, :]
    cr = e[..., 0] * (qq[..., 1] - a[..., 1]) - e[..., 1] * (qq[..., 0] - a[..., 0])
    return np.all(cr >= -tol[None, :, None], axis=2)


def _boundary_sq_dist(
    q: np.ndarray, starts: np.ndarray, edges: np.ndarray, edge_sq: np.ndarray
) -> np.ndarray:
    """(npts, npolys) min squared 2D distance from q (npts, npolys, 2) to each boundary."""
    qq = q[:, :, None, :]
    diff = qq - starts[None]
    t = np.clip(np.sum(diff * edges[None], axis=3) / edge_sq[None], 0.0, 1.0)
    proj = starts[None] + t[..., None] * edges[None]
    d2 = np.sum((qq - proj) ** 2, axis=3)
    return np.min(d2, axis=2)


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis of two broadcast arrays.

    Every entry goes through the same matmul routine as a single-row
    ``point @ normal``, so a stacked evaluation equals the per-patch,
    per-point one bit for bit (a plain multiply-and-sum rounds differently).
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


class HullStack:
    """Hulls of several patches stacked along a leading patch axis.

    Each hull's 2D vertex and edge arrays are padded to a common capacity by
    repeating its last real edge, so the every-edge containment test and the
    min-over-edges boundary distance give the unpadded results.  ``set``
    replaces one hull; the capacity grows by doubling when a hull outgrows it.
    """

    def __init__(self, hulls: list[PlanarHull]) -> None:
        n = len(hulls)
        cap = max((len(h.verts2d) for h in hulls), default=3)
        self.origin = np.empty((n, 3))
        self.axis_u = np.empty((n, 3))
        self.axis_v = np.empty((n, 3))
        self.normal = np.empty((n, 3))
        self.offset = np.empty(n)
        self.tol = np.empty(n)
        self.starts = np.empty((n, cap, 2))
        self.edges = np.empty((n, cap, 2))
        self.edge_sq = np.empty((n, cap))
        for j, hull in enumerate(hulls):
            self.set(j, hull)

    @property
    def capacity(self) -> int:
        return self.starts.shape[1]

    def set(self, j: int, hull: PlanarHull) -> None:
        """Make ``hull`` the j-th stacked hull."""
        nv = len(hull.verts2d)
        if nv > self.capacity:
            cap = self.capacity
            while cap < nv:
                cap *= 2
            pad = cap - self.capacity
            # the last column already holds every row's last real edge
            self.starts, self.edges, self.edge_sq = (
                np.concatenate([arr, np.repeat(arr[:, -1:], pad, axis=1)], axis=1)
                for arr in (self.starts, self.edges, self.edge_sq)
            )
        self.origin[j] = hull.origin
        self.axis_u[j] = hull.axis_u
        self.axis_v[j] = hull.axis_v
        self.normal[j] = hull.normal
        self.offset[j] = hull.offset
        self.tol[j] = hull.contain_tol
        self.starts[j, :nv] = hull.verts2d
        self.starts[j, nv:] = hull.verts2d[-1]
        self.edges[j, :nv] = hull.edge_vectors
        self.edges[j, nv:] = hull.edge_vectors[-1]
        self.edge_sq[j, :nv] = hull.edge_sq_lengths
        self.edge_sq[j, nv:] = hull.edge_sq_lengths[-1]

    def to_2d(self, points: np.ndarray) -> np.ndarray:
        """(npts, nhulls, 2) in-plane coordinates of every point in every hull frame."""
        rel = np.asarray(points, float)[:, None, :] - self.origin[None]
        u = _dot_rows(rel, self.axis_u[None])
        v = _dot_rows(rel, self.axis_v[None])
        return np.stack((u, v), axis=2)

    def signed_dist(self, points: np.ndarray) -> np.ndarray:
        """(npts, nhulls) signed distance of every point to every hull plane."""
        return _dot_rows(np.asarray(points, float)[:, None, :], self.normal[None]) + self.offset

    def contains_2d(self, q: np.ndarray) -> np.ndarray:
        """(npts, nhulls) membership of q (npts, nhulls, 2), as PlanarHull.contains_2d."""
        return _inside_polygons(q, self.starts, self.edges, self.tol)

    def boundary_sq_dist_2d(self, q: np.ndarray) -> np.ndarray:
        """(npts, nhulls) min squared distance of q (npts, nhulls, 2) to each boundary."""
        return _boundary_sq_dist(q, self.starts, self.edges, self.edge_sq)


def _frame_for_plane(plane: Plane) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    normal = plane.implicit[:3].copy()
    offset = float(plane.implicit[3])
    origin = -offset * normal  # closest point of the plane to the world origin
    u, v = _plane_basis(normal)
    return origin, u, v, normal, offset


def build_hull(plane: Plane, points: np.ndarray) -> PlanarHull:
    """Hull of the points' projections onto the plane.

    Raises ValueError("degenerate hull") when fewer than 3 distinct vertices
    survive (collinear projections).
    """
    origin, u, v, normal, offset = _frame_for_plane(plane)
    pts = np.asarray(points, float)
    rel = pts - origin
    pts2d = np.column_stack((rel @ u, rel @ v))
    idx = monotone_chain(pts2d)
    if len(idx) < 3:
        raise ValueError("degenerate hull")
    verts2d = pts2d[idx]
    vertices = origin + verts2d[:, :1] * u + verts2d[:, 1:] * v
    return PlanarHull(vertices, verts2d, origin, u, v, normal, offset)


def hull_from_vertices(plane: Plane, vertices: np.ndarray) -> PlanarHull:
    """Rebuild a hull from stored boundary vertices without re-deriving them.

    Deserialization path: the vertex array is adopted bit-for-bit (so a
    write-read-write cycle stays byte stable) and only the working frame and
    2D coordinates are recomputed from the plane.
    """
    origin, u, v, normal, offset = _frame_for_plane(plane)
    verts = np.asarray(vertices, float).reshape(-1, 3)
    if len(verts) < 3:
        raise ValueError("degenerate hull")
    rel = verts - origin
    verts2d = np.column_stack((rel @ u, rel @ v))
    return PlanarHull(verts, verts2d, origin, u, v, normal, offset)


def update_hull(
    hull: PlanarHull, plane: Plane, new_points: np.ndarray, all_points: np.ndarray
) -> PlanarHull:
    """Refresh the hull after the plane moved and/or points were accepted.

    Existing vertices are re-projected onto the current plane every call (the
    plane drifts with each refit).  The full monotone-chain rebuild over all
    member points only runs when some new point lands outside the current
    polygon; interior acceptances keep the vertex set.
    """
    origin, u, v, normal, offset = _frame_for_plane(plane)
    rel = hull.vertices - origin
    verts2d = np.column_stack((rel @ u, rel @ v))
    reprojected = PlanarHull(
        origin + verts2d[:, :1] * u + verts2d[:, 1:] * v,
        verts2d,
        origin,
        u,
        v,
        normal,
        offset,
    )
    new_pts = np.atleast_2d(np.asarray(new_points, float))
    if len(new_pts) == 0:
        return reprojected
    if bool(np.all(reprojected.contains_2d(reprojected.to_2d(new_pts)))):
        return reprojected
    return build_hull(plane, all_points)


def _point_edges_sq_dist_2d(q: np.ndarray, hull: PlanarHull) -> np.ndarray:
    """Min squared 2D distance from each query point to the polygon boundary."""
    q = np.atleast_2d(q)[:, None, :]
    return _boundary_sq_dist(
        q, hull.verts2d[None], hull.edge_vectors[None], hull.edge_sq_lengths[None]
    )[:, 0]


def point_hull_sq_dist(hull: PlanarHull, point: np.ndarray) -> float:
    """Squared distance from a point to the solid hull polygon.

    When the point's projection falls inside the polygon this equals the
    squared plane distance exactly; otherwise the lateral boundary term is
    added (the polygon is planar, so the two components are orthogonal).
    """
    p = np.asarray(point, float)
    s = float(np.dot(p, hull.normal) + hull.offset)
    q = hull.to_2d(p)
    if bool(hull.contains_2d(q)[0]):
        return s * s
    lat = float(_point_edges_sq_dist_2d(q, hull)[0])
    return s * s + lat


def point_hull_sq_dist_many(hull: PlanarHull, points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, float))
    s = pts @ hull.normal + hull.offset
    out = s * s
    q = hull.to_2d(pts)
    inside = hull.contains_2d(q)
    if not np.all(inside):
        idx = np.where(~inside)[0]
        out[idx] += _point_edges_sq_dist_2d(q[idx], hull)
    return out


def _seg_seg_sq_dist(p1: np.ndarray, q1: np.ndarray, p2: np.ndarray, q2: np.ndarray) -> float:
    """Squared distance between 3D segments [p1,q1] and [p2,q2]."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = float(np.dot(d1, d1))
    e = float(np.dot(d2, d2))
    f = float(np.dot(d2, r))
    eps = 1e-30
    if a <= eps and e <= eps:
        return float(np.dot(r, r))
    if a <= eps:
        t = np.clip(f / e, 0.0, 1.0)
        s = 0.0
    else:
        c = float(np.dot(d1, r))
        if e <= eps:
            t = 0.0
            s = np.clip(-c / a, 0.0, 1.0)
        else:
            b = float(np.dot(d1, d2))
            denom = a * e - b * b
            s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > 0 else 0.0
            t = b * s + f
            if t < 0.0:
                t = 0.0
                s = np.clip(-c / a, 0.0, 1.0)
            elif t > e:
                t = 1.0
                s = np.clip((b - c) / a, 0.0, 1.0)
            else:
                t /= e
    c1 = p1 + s * d1
    c2 = p2 + t * d2
    diff = c1 - c2
    return float(np.dot(diff, diff))


def _edges(hull: PlanarHull) -> tuple[np.ndarray, np.ndarray]:
    return hull.vertices, np.roll(hull.vertices, -1, axis=0)


def _any_edge_pierces(edges_from: PlanarHull, target: PlanarHull) -> bool:
    a, b = _edges(edges_from)
    sa = a @ target.normal + target.offset
    sb = b @ target.normal + target.offset
    crossing = sa * sb < 0
    if not np.any(crossing):
        return False
    t = sa[crossing] / (sa[crossing] - sb[crossing])
    x = a[crossing] + t[:, None] * (b[crossing] - a[crossing])
    return bool(np.any(target.contains_2d(target.to_2d(x))))


def hull_hull_min_sq_dist(hull_a: PlanarHull, hull_b: PlanarHull) -> float:
    """Min squared distance between two solid hull polygons (0 if they meet)."""
    # Canonical argument order makes the result call-order symmetric.
    if hull_b.vertices.tobytes() < hull_a.vertices.tobytes():
        hull_a, hull_b = hull_b, hull_a
    if _any_edge_pierces(hull_a, hull_b) or _any_edge_pierces(hull_b, hull_a):
        return 0.0
    best = float(np.min(point_hull_sq_dist_many(hull_b, hull_a.vertices)))
    best = min(best, float(np.min(point_hull_sq_dist_many(hull_a, hull_b.vertices))))
    if best == 0.0:
        return 0.0
    a0, a1 = _edges(hull_a)
    b0, b1 = _edges(hull_b)
    for i in range(len(a0)):
        for j in range(len(b0)):
            d = _seg_seg_sq_dist(a0[i], a1[i], b0[j], b1[j])
            if d < best:
                best = d
    return best


def hull_area(hull: PlanarHull) -> float:
    """Polygon area via the shoelace formula on the 2D vertices."""
    x = hull.verts2d[:, 0]
    y = hull.verts2d[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def polygon_centroid_3d(vertices: np.ndarray) -> np.ndarray:
    """Area centroid of a planar 3D polygon (fan-triangle weighted mean)."""
    v = np.asarray(vertices, float)
    if len(v) < 3:
        return v.mean(axis=0)
    e1 = v[1:-1] - v[0]
    e2 = v[2:] - v[0]
    areas = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
    total = float(np.sum(areas))
    if total < 1e-30:
        return v.mean(axis=0)
    centroids = (v[0] + v[1:-1] + v[2:]) / 3.0
    return (areas[:, None] * centroids).sum(axis=0) / total


def hull_centroid(hull: PlanarHull) -> np.ndarray:
    """Area centroid of the hull polygon, in 3D."""
    return polygon_centroid_3d(hull.vertices)


def hull_is_convex(hull: PlanarHull) -> bool:
    """Every consecutive-edge cross product has the same sign (CCW: positive)."""
    v = hull.verts2d
    e = np.roll(v, -1, axis=0) - v
    en = np.roll(e, -1, axis=0)
    cr = e[:, 0] * en[:, 1] - e[:, 1] * en[:, 0]
    return bool(np.all(cr > 0))
