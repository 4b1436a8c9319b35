"""Plane fitting and planar convex-hull geometry.

Planes are fitted in slope-intercept form (one coordinate expressed as an
affine function of the other two) so the normal-equation system stays 3x3 and
can be updated incrementally from nine running sums.  Every plane also carries
the normalized implicit form (A, B, C, D) with a unit normal, which is what
all distance arithmetic uses.
"""

from __future__ import annotations

import math
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
    ``sums`` holds the nine running sums of the normal equations, the point
    count ``sums[5]`` among them, so the fit can absorb new points without
    touching old ones.
    """

    form: PlaneForm
    coeffs: np.ndarray
    implicit: np.ndarray
    sums: np.ndarray

    @property
    def normal(self) -> np.ndarray:
        return self.implicit[:3]

    def sq_dist_many(self, points: np.ndarray) -> np.ndarray:
        """Squared perpendicular distances (AX + BY + CZ + D)^2 of (n, 3) points."""
        # _dot_rows rounds as HullStack.signed_dist does, so both give bitwise equal terms
        r = _dot_rows(np.asarray(points, float), self.implicit[:3]) + self.implicit[3]
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
    """The nine running sums of ``points``, in ``Plane.sums`` order.

    Each term is one row of a C-contiguous (9, k) array, and one row-wise
    reduction sums them all; every row goes through the pairwise summation
    ``np.sum`` uses on a 1-D array, so each sum equals its own ``np.sum``.
    """
    dep, i1, i2 = _FORM_AXES[form]
    a = points[:, i1]
    b = points[:, i2]
    w = points[:, dep]
    terms = np.empty((9, len(points)))
    np.multiply(a, a, out=terms[0])
    np.multiply(a, b, out=terms[1])
    terms[2] = a
    np.multiply(b, b, out=terms[3])
    terms[4] = b
    terms[5] = 1.0
    np.multiply(a, w, out=terms[6])
    np.multiply(b, w, out=terms[7])
    terms[8] = w
    return terms.sum(axis=1)


def _solve_sums(sums: np.ndarray) -> np.ndarray:
    """Solve the symmetric 3x3 normal equations by adjugate/determinant."""
    saa, sab, sa, sbb, sb, n, saw, sbw, sw = sums.tolist()
    rhs = np.array([saw, sbw, sw])

    c00 = sbb * n - sb * sb
    c01 = sab * n - sb * sa
    c02 = sab * sb - sbb * sa
    det = saa * c00 - sab * c01 + sa * c02
    # the largest entry of the matrix [[saa, sab, sa], [sab, sbb, sb], [sa, sb, n]]
    scale = max(abs(saa), abs(sab), abs(sa), abs(sbb), abs(sb), abs(n), 1e-30)
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
    return Plane(form, coeffs, _to_implicit(form, coeffs), sums)


def update_fit_many(plane: Plane, points: np.ndarray) -> Plane:
    """Fold more points into the fit with one solve.  The plane form never changes."""
    pts = np.asarray(points, float).reshape(-1, 3)
    if len(pts) == 0:
        return plane
    sums = plane.sums + _accumulate(pts, plane.form)
    coeffs = _solve_sums(sums)
    return Plane(plane.form, coeffs, _to_implicit(plane.form, coeffs), sums)


def fit_residuals(plane: Plane, points: np.ndarray) -> np.ndarray:
    """Signed residuals along the dependent axis (what the fit minimizes)."""
    dep, i1, i2 = _FORM_AXES[plane.form]
    pts = np.asarray(points, float)
    u, v, d = plane.coeffs
    return u * pts[:, i1] + v * pts[:, i2] + d - pts[:, dep]


# ---------------------------------------------------------------------------
# Planar convex hulls
# ---------------------------------------------------------------------------


def monotone_chain(points2d: np.ndarray) -> list[int]:
    """Indices of the strict convex hull, counter-clockwise.

    Collinear boundary points are dropped, so the vertex set is minimal.
    The chain runs on Python floats: their subtractions and multiplies are
    the IEEE double operations numpy's scalars do, without the per-scalar
    indexing cost.
    """
    pts = np.asarray(points2d, float)
    n = len(pts)
    if n < 3:
        return list(range(n))
    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()
    x = pts[:, 0].tolist()
    y = pts[:, 1].tolist()

    def cross(o: int, a: int, b: int) -> float:
        return (x[a] - x[o]) * (y[b] - y[o]) - (y[a] - y[o]) * (x[b] - x[o])

    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def _cross(a, b) -> np.ndarray:
    """a x b of two 3-vectors, written out with ``np.cross``'s multiplies and
    subtractions in its order, so the result equals it bit for bit (signed
    zeros included) without its per-call array overhead."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal in-plane axes for a unit normal."""
    n = normal.tolist()
    if abs(n[2]) < 0.9:
        u = _cross(n, (0.0, 0.0, 1.0))
    else:
        u = _cross(n, (1.0, 0.0, 0.0))
    u = u / np.linalg.norm(u)
    v = _cross(n, u.tolist())
    return u, v


@dataclass
class PlanarHull:
    """Convex boundary polygon of a patch, living on the owning plane.

    ``vertices`` are counter-clockwise in the (axis_u, axis_v) frame and are
    reconstructed from their 2D coordinates, so they sit exactly on the plane;
    ``sources`` are the points they were projected from (for a hull read
    from disk, the vertices themselves), which ``update_hull`` grows from.
    ``normal``/``offset`` copy the implicit form of the plane that
    ``build_hull``, ``update_hull`` or ``hull_from_vertices`` was given, so
    a point's signed distance to the hull plane is bitwise its distance to
    that plane.  A hull is never modified in place, so the edge arrays and
    the containment tolerance are computed once, on first use.
    """

    vertices: np.ndarray
    verts2d: np.ndarray
    origin: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    normal: np.ndarray
    offset: float
    sources: np.ndarray

    @cached_property
    def contain_tol(self) -> float:
        # Python floats: each axis's max - min, as np.ptp takes it, without its overhead
        xs, ys = self.verts2d.T.tolist()
        extent = max(max(xs) - min(xs), max(ys) - min(ys))
        return _CONTAIN_RTOL * max(extent, 1e-12) ** 2

    @cached_property
    def edge_vectors(self) -> np.ndarray:
        """(nverts, 2) vector from each 2D vertex to the next one."""
        v = self.verts2d
        return np.concatenate((v[1:], v[:1])) - v

    @cached_property
    def edge_sq_lengths(self) -> np.ndarray:
        """Squared edge lengths, with 1 standing in for zero-length edges."""
        e = self.edge_vectors
        ee = np.sum(e * e, axis=1)
        return np.where(ee > 0, ee, 1.0)

    @cached_property
    def bounding_circle(self) -> tuple[tuple[float, float], float]:
        """2D centre (the vertex centroid) and a radius around it holding the
        polygon and every point the containment test counts inside.

        The test admits points up to tol / |e| outside edge e.  Pushing every
        edge of a strictly convex, once-wound polygon out by the largest such
        offset moves each vertex by offset / cos(turn / 2), turn being the
        exterior angle there; the radius adds that reach, and slack for the
        rounding of the test, to the vertex radius.  Any other vertex list,
        such as a hull read from a file may hold, gets an infinite radius.
        """
        # Python floats: a hull has tens of vertices, too few for numpy to pay
        xs, ys = self.verts2d[:, 0].tolist(), self.verts2d[:, 1].tolist()
        cx, cy = sum(xs) / len(xs), sum(ys) / len(ys)
        radius = max(map(math.hypot, [x - cx for x in xs], [y - cy for y in ys]))
        # the containment test's edge vectors; a zero-length edge admits every point
        edges = [
            (x1 - x0, y1 - y0)
            for x0, y0, x1, y1 in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1])
            if x1 != x0 or y1 != y0
        ]
        pairs = list(zip(edges, edges[1:] + edges[:1]))
        cross = [ex * fy - ey * fx for (ex, ey), (fx, fy) in pairs]
        turn = list(map(math.atan2, cross, [ex * fx + ey * fy for (ex, ey), (fx, fy) in pairs]))
        if len(edges) < 3 or min(cross) <= 0 or sum(turn) > 3 * math.pi:
            return (cx, cy), math.inf
        offset = 2.0 * self.contain_tol / min(math.hypot(*e) for e in edges)
        offset += 1e-9 * (max(abs(cx), abs(cy)) + radius)
        return (cx, cy), radius + offset / math.cos(max(turn) / 2)


def _inside_polygons(
    q: np.ndarray, starts: np.ndarray, edges: np.ndarray, tol: np.ndarray
) -> np.ndarray:
    """Non-strict membership of q (..., 2) in polygons that broadcast against it.

    ``starts``/``edges`` are (..., nedges, 2) and ``tol`` is (...): (npolys,
    nedges, 2) against q (npts, npolys, 2) tests every point in every
    polygon, and (K, nedges, 2) against q (K, 2) tests K (point, polygon)
    pairs.  A point is inside when cross(e_i, q - a_i) clears -tol for
    every edge of its polygon.
    """
    qx = q[..., 0, None]
    qy = q[..., 1, None]
    cr = edges[..., 0] * (qy - starts[..., 1]) - edges[..., 1] * (qx - starts[..., 0])
    return np.all(cr >= -tol[..., None], axis=-1)


def _boundary_sq_dist(
    q: np.ndarray, starts: np.ndarray, edges: np.ndarray, edge_sq: np.ndarray
) -> np.ndarray:
    """Min squared 2D distance from q (..., 2) to polygon boundaries that broadcast
    against it, as ``_inside_polygons`` takes them (``edge_sq`` is (..., nedges)).

    Works on x/y components, so no (..., nedges, 2) temporary is made; every
    entry is the clamped projection of q onto each edge and its squared
    offset, rx * rx + ry * ry, minimised over the edges.
    """
    qx = q[..., 0, None]
    qy = q[..., 1, None]
    ax = starts[..., 0]
    ay = starts[..., 1]
    ex = edges[..., 0]
    ey = edges[..., 1]
    t = ((qx - ax) * ex + (qy - ay) * ey) / edge_sq
    np.clip(t, 0.0, 1.0, out=t)
    rx = qx - (ax + t * ex)
    ry = qy - (ay + t * ey)
    return np.min(rx * rx + ry * ry, axis=-1)


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
    min-over-edges boundary distance give the unpadded results; both read
    the edges only up to the most vertices among the hulls tested.  The
    point-wise methods take either a grid of points against every hull or,
    with ``cols``, points against the hulls ``cols`` indexes, the two
    broadcast together: (K, 3) points with (K,) cols are K (point, hull)
    pairs.  Both forms run one kernel, so an entry has the same bits either
    way.  ``lateral_floor`` bounds a grid of points against the hulls
    ``cols``.  ``set`` replaces one hull; the capacity grows by doubling
    when a hull outgrows it.
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
        self.radius = np.empty(n)
        # the bounding circle's centre lifted onto the hull plane, and
        # |origin| + |2D centre|, the scale of the frame's rounding
        self.center = np.empty((n, 3))
        self.frame_norm = np.empty(n)
        self.nverts = np.empty(n, dtype=int)
        self.starts = np.empty((n, cap, 2))
        self.edges = np.empty((n, cap, 2))
        self.edge_sq = np.empty((n, cap))
        for j, hull in enumerate(hulls):
            self.set(j, hull)
        # lateral_floor expands squared distances about this point, near the hulls
        self.ref = self.center.mean(axis=0) if n else np.zeros(3)

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
        (cx, cy), self.radius[j] = hull.bounding_circle
        origin = hull.origin.tolist()
        frame = zip(origin, hull.axis_u.tolist(), hull.axis_v.tolist())
        self.center[j] = [o + cx * u + cy * v for o, u, v in frame]
        self.frame_norm[j] = math.hypot(*origin) + math.hypot(cx, cy)
        self.nverts[j] = nv
        self.starts[j, :nv] = hull.verts2d
        self.starts[j, nv:] = hull.verts2d[-1]
        self.edges[j, :nv] = hull.edge_vectors
        self.edges[j, nv:] = hull.edge_vectors[-1]
        self.edge_sq[j, :nv] = hull.edge_sq_lengths
        self.edge_sq[j, nv:] = hull.edge_sq_lengths[-1]

    def to_2d(self, points: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """(npts, nhulls, 2) in-plane coordinates of every point in every hull
        frame; with ``cols``, the coordinates of points (..., 3) in the frames
        of hulls cols (...), shaped (..., 2)."""
        points = np.asarray(points, float)
        if cols is None:
            points, cols = points[:, None, :], slice(None)
        rel = points - self.origin[cols]
        u = _dot_rows(rel, self.axis_u[cols])
        v = _dot_rows(rel, self.axis_v[cols])
        return np.stack((u, v), axis=-1)

    def signed_dist(self, points: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """(npts, nhulls) signed distance of every point to every hull plane;
        with ``cols``, that of points (..., 3) to the planes of hulls cols (...)."""
        points = np.asarray(points, float)
        if cols is None:
            points, cols = points[:, None, :], slice(None)
        return _dot_rows(points, self.normal[cols]) + self.offset[cols]

    def _edge_arrays(self, cols: np.ndarray | None) -> tuple:
        """Stacked edge starts, vectors and squared lengths of the hulls ``cols``,
        cut after the most vertices any of them has: the padding beyond only
        repeats each hull's last edge."""
        if cols is None:
            cols = slice(None)
        nv = int(self.nverts[cols].max(initial=1))
        return self.starts[cols, :nv], self.edges[cols, :nv], self.edge_sq[cols, :nv]

    def contains_2d(self, q: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """(npts, nhulls) non-strict membership of q (npts, nhulls, 2) in each hull
        polygon; with ``cols``, the (K,) membership of q (K, 2) in hull cols[k]."""
        starts, edges, _ = self._edge_arrays(cols)
        return _inside_polygons(q, starts, edges, self.tol if cols is None else self.tol[cols])

    def boundary_sq_dist_2d(self, q: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """(npts, nhulls) min squared distance of q (npts, nhulls, 2) to each
        boundary; with ``cols``, the (K,) distance of q (K, 2) to hull cols[k]."""
        return _boundary_sq_dist(q, *self._edge_arrays(cols))

    def lateral_floor(
        self, points: np.ndarray, d_plane: np.ndarray, cols: np.ndarray | None = None
    ) -> np.ndarray:
        """(npts, ncols) lower bound on the 2D distance of each point's in-plane
        coordinates, as ``to_2d`` computes them, to the polygons of the hulls
        ``cols`` (every hull by default), given ``d_plane``, the (npts, ncols)
        squared signed distances s^2 of the (npts, 3) points to those hull
        planes (``signed_dist`` squared).

        A point x at signed distance s from a plane lies sqrt(|x - c|^2 - s^2)
        in-plane from a point c of that plane, so no in-plane coordinates are
        needed: the floor is that distance from the bounding-circle centre,
        lifted onto the hull plane, less the circle's radius.  |x - c|^2 is
        expanded about ``ref`` as |x|^2 - 2 x.c + |c|^2, one matrix product.
        Before the root, the squared distance loses a * (2.001e-9 * a +
        1e-12 * f) + (1e-12 * f)^2, with a = |x - ref| + |c - ref| >= |x - c|
        and f = |x| + |frame origin| + |2D centre|.  The rounding of the
        expansion is a few ulps of a^2, and that of the plane distance, of the
        frame's lift and of ``to_2d`` a few ulps of a * f, so the floor stays
        below the circle's floor on ``to_2d``'s coordinates shrunk by 1e-9,
        even far from the world origin.  It is 0 wherever the containment
        test may count a point inside, and at most the boundary distance
        wherever it counts the point outside.
        """
        cols = slice(None) if cols is None else cols
        points = np.asarray(points, float)
        x = points - self.ref
        c = self.center[cols] - self.ref
        xx = np.einsum("ij,ij->i", x, x)
        cc = np.einsum("ij,ij->i", c, c)
        r2 = x @ (-2.0 * c).T
        r2 += xx[:, None]
        r2 += cc
        r2 -= d_plane
        a = np.sqrt(xx)[:, None] + np.sqrt(cc)
        f = np.sqrt(np.einsum("ij,ij->i", points, points))[:, None] + self.frame_norm[cols]
        f *= 1e-12
        r2 -= a * (2.001e-9 * a + f) + f * f
        np.maximum(r2, 0.0, out=r2)
        np.sqrt(r2, out=r2)
        r2 -= self.radius[cols]
        return np.maximum(r2, 0.0, out=r2)


def _project(plane: Plane, points: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Points' 2D coordinates in the plane's hull frame, and the frame
    (origin, axis_u, axis_v, normal, offset) as PlanarHull holds it."""
    normal = plane.implicit[:3].copy()
    offset = float(plane.implicit[3])
    origin = -offset * normal  # closest point of the plane to the world origin
    u, v = _plane_basis(normal)
    rel = np.atleast_2d(np.asarray(points, float)) - origin
    return np.column_stack((rel @ u, rel @ v)), (origin, u, v, normal, offset)


def build_hull(plane: Plane, points: np.ndarray) -> PlanarHull:
    """Hull of the points' projections onto the plane.

    Raises ValueError("degenerate hull") when fewer than 3 distinct vertices
    survive (collinear projections).
    """
    pts = np.atleast_2d(np.asarray(points, float))
    pts2d, frame = _project(plane, pts)
    idx = monotone_chain(pts2d)
    if len(idx) < 3:
        raise ValueError("degenerate hull")
    # lift the 2D vertices back to 3D, so they lie on the plane
    origin, u, v = frame[:3]
    verts2d = pts2d[idx]
    return PlanarHull(origin + verts2d[:, :1] * u + verts2d[:, 1:] * v, verts2d, *frame, pts[idx])


def hull_from_vertices(plane: Plane, vertices: np.ndarray) -> PlanarHull:
    """Rebuild a hull from stored boundary vertices without re-deriving them.

    Deserialization path: the vertex array is adopted bit-for-bit (so a
    write-read-write cycle stays byte stable) and only the working frame and
    2D coordinates are recomputed from the plane.
    """
    verts = np.asarray(vertices, float).reshape(-1, 3)
    if len(verts) < 3:
        raise ValueError("degenerate hull")
    verts2d, frame = _project(plane, verts)
    return PlanarHull(verts, verts2d, *frame, verts)


def update_hull(hull: PlanarHull, plane: Plane, new_points: np.ndarray) -> PlanarHull:
    """Hull of the current vertices' source points and the new points on the refitted plane.

    On a fixed plane hull(hull(S) + T) = hull(S + T), so the chain runs over
    the h vertex sources and the k new points instead of every member.  The
    sources are the members themselves, not their projections on an earlier
    fit, so the result equals a rebuild over all members on the current
    plane unless the plane's drift turns an interior member into a vertex.
    """
    return build_hull(plane, np.vstack([hull.sources, np.reshape(new_points, (-1, 3))]))


def point_hull_sq_dist_many(hull: PlanarHull, points: np.ndarray) -> np.ndarray:
    """Squared distances from (n, 3) points to the solid hull polygon.

    When a point's projection falls inside the polygon this equals the
    squared plane distance exactly; otherwise the lateral boundary term is
    added (the polygon is planar, so the two components are orthogonal).
    """
    pts = np.atleast_2d(np.asarray(points, float))
    stack = HullStack([hull])
    s = stack.signed_dist(pts)[:, 0]
    out = s * s
    q = stack.to_2d(pts)
    outside = np.flatnonzero(~stack.contains_2d(q)[:, 0])
    if len(outside):
        out[outside] += stack.boundary_sq_dist_2d(q[outside])[:, 0]
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
    stack = HullStack([target])
    sa = stack.signed_dist(a)[:, 0]
    sb = stack.signed_dist(b)[:, 0]
    crossing = sa * sb < 0
    if not np.any(crossing):
        return False
    t = sa[crossing] / (sa[crossing] - sb[crossing])
    x = a[crossing] + t[:, None] * (b[crossing] - a[crossing])
    return bool(np.any(stack.contains_2d(stack.to_2d(x))))


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
    # Two segments are no closer than their axis-aligned boxes.  Edge pairs
    # whose box gap exceeds best, with slack for the segment distance's
    # rounding, can never lower it, so only the others are measured, in the
    # same row-major order as the full double loop.
    lo_a, hi_a = np.minimum(a0, a1)[:, None], np.maximum(a0, a1)[:, None]
    lo_b, hi_b = np.minimum(b0, b1)[None], np.maximum(b0, b1)[None]
    gap = np.maximum(np.maximum(lo_b - hi_a, lo_a - hi_b), 0.0)
    scale = max(np.max(np.abs(a0)), np.max(np.abs(b0)))
    reach = np.sqrt(best) * (1.0 + 1e-9) + 1e-12 * scale
    for i, j in zip(*np.nonzero(np.sum(gap * gap, axis=2) <= reach * reach)):
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


def hull_is_convex(hull: PlanarHull) -> bool:
    """Every consecutive-edge cross product has the same sign (CCW: positive)."""
    e = hull.edge_vectors
    en = np.roll(e, -1, axis=0)
    cr = e[:, 0] * en[:, 1] - e[:, 1] * en[:, 0]
    return bool(np.all(cr > 0))
