"""Synthetic stereo scenes with exact ground truth, plus evaluation metrics.

Each preset arranges a handful of planar faces in front of a fixed stereo
rig. Points are sampled uniformly on the faces, projected into both views,
perturbed with Gaussian pixel noise and triangulated back to 3D, which is
exactly the data a real interest-point pipeline would hand the extractor.
The ground-truth ellipse segments come from the analytic moments of each
face's projected outline.
"""

from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .growing import Patch, member_labels
from .stereo import EllipsePrior, PointCloud, StereoRig, _in_fov, project_many, triangulate_many

logger = logging.getLogger(__name__)

IMAGE_SIZE = (800, 600)
_FOCAL = 700.0
_PRINCIPAL = (400.0, 300.0)
_BASELINE = 0.2


def default_rig(pixel_noise: float = 0.0) -> StereoRig:
    """Parallel stereo pair: left camera at the origin, right 0.2 to the +X."""
    k = np.array([[_FOCAL, 0.0, _PRINCIPAL[0]], [0.0, _FOCAL, _PRINCIPAL[1]], [0.0, 0.0, 1.0]])
    left = k @ np.hstack([np.eye(3), np.zeros((3, 1))])
    right = k @ np.hstack([np.eye(3), np.array([[-_BASELINE], [0.0], [0.0]])])
    return StereoRig(left, right, pixel_noise, pixel_noise, IMAGE_SIZE)


@dataclass(frozen=True)
class Face:
    """One ground-truth planar polygon with a flat paint intensity."""

    vertices: np.ndarray
    intensity: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", np.asarray(self.vertices, float).reshape(-1, 3))
        if len(self.vertices) < 3:
            raise ValueError("face needs at least 3 vertices")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError("intensity must lie in [0, 1]")

    def coeffs(self) -> np.ndarray:
        """Normalized implicit plane [A, B, C, D] from the Newell normal."""
        v = self.vertices
        nxt = np.roll(v, -1, axis=0)
        n = np.array(
            [
                np.sum((v[:, 1] - nxt[:, 1]) * (v[:, 2] + nxt[:, 2])),
                np.sum((v[:, 2] - nxt[:, 2]) * (v[:, 0] + nxt[:, 0])),
                np.sum((v[:, 0] - nxt[:, 0]) * (v[:, 1] + nxt[:, 1])),
            ]
        )
        norm = np.linalg.norm(n)
        if norm <= 0.0:
            raise ValueError("degenerate face")
        n = n / norm
        return np.append(n, -float(n @ v.mean(axis=0)))

    def centroid(self) -> np.ndarray:
        return geometry.polygon_centroid_3d(self.vertices)


def _rect(corners) -> np.ndarray:
    return np.asarray(corners, float).reshape(4, 3)


def _two_plane() -> list[Face]:
    ground = _rect([(-1.1, 0.8, 2.6), (1.1, 0.8, 2.6), (1.1, 0.8, 5.2), (-1.1, 0.8, 5.2)])
    wall = _rect([(-1.1, 0.8, 5.2), (1.1, 0.8, 5.2), (1.1, -1.0, 5.2), (-1.1, -1.0, 5.2)])
    return [Face(ground, 0.35), Face(wall, 0.75)]


def _path() -> list[Face]:
    ground = _rect([(-0.7, 0.8, 2.6), (0.7, 0.8, 2.6), (0.7, 0.8, 6.0), (-0.7, 0.8, 6.0)])
    left = _rect([(-0.75, 0.8, 2.6), (-0.75, 0.8, 6.0), (-0.75, -0.2, 6.0), (-0.75, -0.2, 2.6)])
    right = _rect([(0.75, 0.8, 2.6), (0.75, -0.2, 2.6), (0.75, -0.2, 6.0), (0.75, 0.8, 6.0)])
    return [Face(ground, 0.3), Face(left, 0.6), Face(right, 0.9)]


def _chessboard() -> list[Face]:
    # 4x4 grid of 0.45-sized cells on one plane; only the "black" squares are
    # faces, and diagonal neighbours alternate intensity so corner-touching
    # squares never share it
    faces = []
    cell = 0.45
    for i in range(4):
        for j in range(4):
            if (i + j) % 2 != 0:
                continue
            x0 = -0.9 + cell * i
            z0 = 2.8 + cell * j
            quad = _rect(
                [
                    (x0, 0.6, z0),
                    (x0 + cell, 0.6, z0),
                    (x0 + cell, 0.6, z0 + cell),
                    (x0, 0.6, z0 + cell),
                ]
            )
            faces.append(Face(quad, 0.25 if i % 2 == 0 else 0.75))
    return faces


def _indoors() -> list[Face]:
    floor = _rect([(-1.2, 0.8, 2.8), (1.2, 0.8, 2.8), (1.2, 0.8, 5.6), (-1.2, 0.8, 5.6)])
    back = _rect([(-1.2, 0.8, 5.6), (1.2, 0.8, 5.6), (1.2, -0.8, 5.6), (-1.2, -0.8, 5.6)])
    left = _rect([(-1.2, 0.8, 2.8), (-1.2, 0.8, 5.6), (-1.2, -0.8, 5.6), (-1.2, -0.8, 2.8)])
    right = _rect([(1.2, 0.8, 2.8), (1.2, -0.8, 2.8), (1.2, -0.8, 5.6), (1.2, 0.8, 5.6)])
    ceiling = _rect([(-1.2, -0.8, 2.8), (-1.2, -0.8, 5.6), (1.2, -0.8, 5.6), (1.2, -0.8, 2.8)])
    return [Face(floor, 0.2), Face(back, 0.4), Face(left, 0.55), Face(right, 0.7), Face(ceiling, 0.9)]


def _house() -> list[Face]:
    ground = _rect([(-1.1, 0.8, 2.6), (1.1, 0.8, 2.6), (1.1, 0.8, 4.2), (-1.1, 0.8, 4.2)])
    front = _rect([(-0.8, 0.8, 4.2), (0.8, 0.8, 4.2), (0.8, -0.2, 4.2), (-0.8, -0.2, 4.2)])
    roof_left = _rect([(0.0, -0.7, 4.2), (0.0, -0.7, 5.4), (-0.8, -0.2, 5.4), (-0.8, -0.2, 4.2)])
    roof_right = _rect([(0.0, -0.7, 4.2), (0.8, -0.2, 4.2), (0.8, -0.2, 5.4), (0.0, -0.7, 5.4)])
    side = _rect([(0.8, 0.8, 4.2), (0.8, 0.8, 5.4), (0.8, -0.2, 5.4), (0.8, -0.2, 4.2)])
    return [
        Face(ground, 0.25),
        Face(front, 0.45),
        Face(roof_left, 0.65),
        Face(roof_right, 0.85),
        Face(side, 0.1),
    ]


def _random_planes(count: int, rng: np.random.Generator) -> list[Face]:
    """Randomly oriented quads in disjoint lateral grid cells near depth 4.

    The grid never drops below 3x3, so up to nine faces share one size
    distribution no matter the count; that keeps the runtime probe's
    patch-count axis from being confounded by shrinking face geometry.
    Lateral cell separation keeps the per-face ground truth unambiguous.
    """
    cols = max(3, int(np.ceil(np.sqrt(count))))
    cell_x, cell_y = 1.6 / cols, 1.2 / cols
    half_cap = 0.4 * min(cell_x, cell_y)
    cells = rng.permutation(cols * cols)[:count]
    faces = []
    for i, cell in enumerate(cells):
        cx = -0.8 + (cell % cols + 0.5) * cell_x + rng.uniform(-0.1, 0.1) * cell_x
        cy = -0.6 + (cell // cols + 0.5) * cell_y + rng.uniform(-0.1, 0.1) * cell_y
        center = np.array([cx, cy, 4.0 + rng.uniform(-0.25, 0.25)])
        while True:
            normal = rng.standard_normal(3)
            normal /= np.linalg.norm(normal)
            if abs(normal[2]) >= 0.5:
                break
        e1, e2 = geometry._plane_basis(normal)
        a, b = rng.uniform(0.55, 0.95, 2) * half_cap
        quad = np.array(
            [
                center + a * e1 + b * e2,
                center - a * e1 + b * e2,
                center - a * e1 - b * e2,
                center + a * e1 - b * e2,
            ]
        )
        faces.append(Face(quad, (i + 0.5) / count))
    return faces


_FIXED_PRESETS = {
    "two-plane": _two_plane,
    "path": _path,
    "chessboard": _chessboard,
    "indoors": _indoors,
    "house": _house,
}

PRESET_NAMES = sorted(_FIXED_PRESETS) + ["random-planes[-N]"]

_RANDOM_RE = re.compile(r"^random-planes-(\d+)$")


@dataclass
class SceneSpec:
    """Everything that determines a synthetic scene, bit for bit."""

    preset: str
    points_per_face: int = 1000
    pixel_noise: float = 0.001
    seed: int = 0

    def __post_init__(self) -> None:
        if self.preset == "random-planes":
            self.preset = "random-planes-4"
        if self.preset not in _FIXED_PRESETS and not _RANDOM_RE.match(self.preset):
            raise ValueError(
                f"unknown preset {self.preset!r}; choose from {', '.join(PRESET_NAMES)}"
            )
        if self.points_per_face < 1:
            raise ValueError("points_per_face must be positive")
        if self.pixel_noise < 0:
            raise ValueError("pixel noise must be nonnegative")

    @property
    def scene_id(self) -> str:
        return f"{self.preset}:{self.seed}:{self.points_per_face}:{self.pixel_noise!r}"


def build_faces(spec: SceneSpec) -> list[Face]:
    if spec.preset in _FIXED_PRESETS:
        return _FIXED_PRESETS[spec.preset]()
    match = _RANDOM_RE.match(spec.preset)
    count = int(match.group(1))
    if count < 1:
        raise ValueError("random-planes needs at least one face")
    # face geometry draws come first so the sampling stream is unaffected
    return _random_planes(count, np.random.default_rng(np.random.SeedSequence((spec.seed, 0))))


@dataclass
class GroundTruth:
    """Per-face planes and per-point provenance for a generated cloud.

    Each label is a face index, or -1 for a point on no face.
    """

    faces: list[Face]
    coeffs: np.ndarray
    labels: np.ndarray
    positions: np.ndarray
    scene_id: str = ""

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, float).reshape(-1, 4)
        self.labels = np.asarray(self.labels, int).reshape(-1)
        self.positions = np.asarray(self.positions, float).reshape(-1, 3)
        if len(self.labels) != len(self.positions):
            raise ValueError("labels and positions must align")
        bad = self.labels[(self.labels < -1) | (self.labels >= len(self.faces))]
        if len(bad):
            raise ValueError(f"label {bad[0]} lies outside [-1, {len(self.faces)})")


def polygon_moments_2d(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and central second moments of a simple 2D polygon.

    Standard signed-area Green's-theorem sums; orientation-independent since
    the signed area divides out.
    """
    v = np.asarray(verts, float).reshape(-1, 2)
    nxt = np.roll(v, -1, axis=0)
    cross = v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]
    area = 0.5 * np.sum(cross)
    if abs(area) < 1e-12:
        raise ValueError("degenerate polygon")
    cx = np.sum((v[:, 0] + nxt[:, 0]) * cross) / (6.0 * area)
    cy = np.sum((v[:, 1] + nxt[:, 1]) * cross) / (6.0 * area)
    exx = np.sum((v[:, 0] ** 2 + v[:, 0] * nxt[:, 0] + nxt[:, 0] ** 2) * cross) / (12.0 * area)
    eyy = np.sum((v[:, 1] ** 2 + v[:, 1] * nxt[:, 1] + nxt[:, 1] ** 2) * cross) / (12.0 * area)
    exy = np.sum(
        (v[:, 0] * nxt[:, 1] + 2.0 * v[:, 0] * v[:, 1] + 2.0 * nxt[:, 0] * nxt[:, 1] + nxt[:, 0] * v[:, 1])
        * cross
    ) / (24.0 * area)
    centroid = np.array([cx, cy])
    second = np.array([exx - cx * cx, exy - cx * cy, eyy - cy * cy])
    return centroid, second


def _face_segment(face: Face, camera: np.ndarray) -> EllipsePrior | None:
    """Ellipse prior of the face's projected outline, or None if invisible."""
    pixels, valid = project_many(camera, face.vertices)
    if not np.all(valid):
        return None
    w, h = IMAGE_SIZE
    if (
        pixels[:, 0].max() < 0
        or pixels[:, 0].min() > w
        or pixels[:, 1].max() < 0
        or pixels[:, 1].min() > h
    ):
        return None
    try:
        centroid, second = polygon_moments_2d(pixels)
        return EllipsePrior(centroid, second, face.intensity)
    except ValueError:
        return None


def _sample_face(face: Face, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform area sampling via the fan triangulation of the polygon."""
    v = face.vertices
    tri_a = np.repeat(v[0][None, :], len(v) - 2, axis=0)
    tri_b = v[1:-1]
    tri_c = v[2:]
    areas = 0.5 * np.linalg.norm(np.cross(tri_b - tri_a, tri_c - tri_a), axis=1)
    total = areas.sum()
    if total <= 0:
        raise ValueError("degenerate face")
    which = rng.choice(len(areas), size=count, p=areas / total)
    r = rng.random((count, 2))
    u = np.sqrt(r[:, 0:1])
    w = r[:, 1:2]
    return (1.0 - u) * tri_a[which] + u * (1.0 - w) * tri_b[which] + u * w * tri_c[which]


def generate(
    spec: SceneSpec, rig: StereoRig | None = None
) -> tuple[PointCloud, GroundTruth, list[tuple[EllipsePrior, EllipsePrior]]]:
    """Sample, project, perturb and triangulate one synthetic scene.

    Faces invisible in either view contribute no points and no segment pair.
    Points whose noisy pixels leave either image, or whose triangulation is
    degenerate, are dropped before the cloud is assembled, so every returned
    point has a usable correspondence.
    """
    if rig is None:
        rig = default_rig(spec.pixel_noise)
    faces = build_faces(spec)
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1)))

    segments: list[tuple[EllipsePrior, EllipsePrior]] = []
    usable: list[int] = []
    for fi, face in enumerate(faces):
        left = _face_segment(face, rig.camera_left)
        right = _face_segment(face, rig.camera_right)
        if left is None or right is None:
            logger.warning("face %d invisible in one view, excluding its points", fi)
            continue
        usable.append(fi)
        segments.append((left, right))

    sampled = []
    labels = []
    for fi in usable:
        sampled.append(_sample_face(faces[fi], spec.points_per_face, rng))
        labels.append(np.full(spec.points_per_face, fi))
    if not sampled:
        raise ValueError("no visible faces in scene")
    sampled = np.vstack(sampled)
    labels = np.concatenate(labels)

    clean_left, ok_left = project_many(rig.camera_left, sampled)
    clean_right, ok_right = project_many(rig.camera_right, sampled)
    noisy_left = clean_left + spec.pixel_noise * rng.standard_normal(clean_left.shape)
    noisy_right = clean_right + spec.pixel_noise * rng.standard_normal(clean_right.shape)

    in_left = _in_fov(noisy_left, rig.image_size)
    in_right = _in_fov(noisy_right, rig.image_size)
    positions, ok_tri = triangulate_many(noisy_left, noisy_right, rig)
    keep = ok_left & ok_right & in_left & in_right & ok_tri
    dropped = int(np.sum(~keep))
    if dropped:
        logger.info("dropped %d of %d sampled points (fov or triangulation)", dropped, len(keep))

    cloud = PointCloud(positions[keep], noisy_left[keep], noisy_right[keep])
    gt = GroundTruth(
        faces,
        np.stack([f.coeffs() for f in faces]),
        labels[keep],
        sampled[keep],
        spec.scene_id,
    )
    return cloud, gt, segments


@dataclass(frozen=True)
class SsdEntry:
    """One extracted patch's match against ground truth (face None = unmatched)."""

    patch_id: int
    face: int | None
    ssd: float | None


@dataclass
class SsdReport:
    entries: list[SsdEntry] = field(default_factory=list)
    total: float = 0.0
    avg: float = float("nan")
    matched: int = 0


def coeff_ssd(a: np.ndarray, b: np.ndarray) -> float:
    """Sign-aligned sum of squared coefficient differences."""
    a = np.asarray(a, float).reshape(4)
    b = np.asarray(b, float).reshape(4)
    return float(min(np.sum((a - b) ** 2), np.sum((a + b) ** 2)))


def ssd_error(gt: GroundTruth, patches: list[Patch]) -> SsdReport:
    """Plane-coefficient SSD under greedy centroid-proximity matching.

    Every (patch, face) pair is ranked by centroid distance; pairs are taken
    greedily with each patch and face used at most once. Patches left over
    get flagged entries and stay out of the average.
    """
    if not patches:
        raise ValueError("no patches to evaluate")
    face_centroids = np.stack([f.centroid() for f in gt.faces])
    order = []
    for pi, patch in enumerate(sorted(patches, key=lambda p: p.id)):
        pc = geometry.polygon_centroid_3d(patch.hull.vertices)
        for fi in range(len(gt.faces)):
            d = float(np.sum((pc - face_centroids[fi]) ** 2))
            order.append((d, pi, fi))
    order.sort()

    by_id = sorted(patches, key=lambda p: p.id)
    match: dict[int, int] = {}
    used_faces: set[int] = set()
    for _, pi, fi in order:
        if pi in match or fi in used_faces:
            continue
        match[pi] = fi
        used_faces.add(fi)

    report = SsdReport()
    for pi, patch in enumerate(by_id):
        if pi in match:
            fi = match[pi]
            ssd = coeff_ssd(patch.plane.implicit, gt.coeffs[fi])
            report.entries.append(SsdEntry(patch.id, fi, ssd))
            report.total += ssd
            report.matched += 1
        else:
            report.entries.append(SsdEntry(patch.id, None, None))
    if report.matched:
        report.avg = report.total / report.matched
    return report


def classification_error(gt: GroundTruth, patches: list[Patch]) -> float:
    """1 - n/N under the best one-to-one patch-to-face assignment.

    Points carrying label -1 (on no face) count as their own class whose
    correct prediction is "unassigned"; that pairing is fixed, the rest is an
    optimal assignment on the confusion matrix.  The predictions are the
    patches' ``member_labels``, which raise ValueError when a member index
    falls outside the ground-truth points, or when a point is listed twice,
    by one patch or by two.
    """
    from scipy.optimize import linear_sum_assignment

    n_points = len(gt.labels)
    if n_points == 0:
        raise ValueError("ground truth has no points")
    by_id = sorted(patches, key=lambda p: p.id)
    predicted = member_labels(by_id, n_points)

    n_faces = len(gt.faces)
    confusion = np.zeros((max(len(by_id), 1), max(n_faces, 1)), dtype=int)
    for col, patch in enumerate(by_id):
        sel = gt.labels[predicted == patch.id]
        sel = sel[sel >= 0]
        if len(sel):
            confusion[col] += np.bincount(sel, minlength=n_faces)[:n_faces]
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    correct = int(confusion[rows, cols].sum())
    correct += int(np.sum((predicted == -1) & (gt.labels == -1)))
    return 1.0 - correct / n_points


def runtime_probe(
    point_counts: list[int],
    patch_counts: list[int],
    pixel_noise: float = 0.001,
    seed: int = 0,
) -> list[dict]:
    """Time the full pipeline while scaling point count, then face count.

    The point axis scales points-per-face on the two-plane preset; the patch
    axis scales the random-planes face count at fixed per-face sampling.
    Worse-than-quadratic growth (doubling the axis more than quadruples the
    time) is logged as a warning, not an error.
    """
    from . import pipeline as pl

    rows: list[dict] = []

    def run_one(axis: str, value: int, spec: SceneSpec) -> dict:
        rig = default_rig(spec.pixel_noise)
        cloud, gt, segments = generate(spec, rig)
        row = {
            "axis": axis,
            "value": value,
            "points": len(cloud),
            "patches": 0,
            "seconds": 0.0,
            "error": "",
        }
        cfg = pl.RunConfig().for_scene(spec.scene_id)
        start = time.perf_counter()
        try:
            result = pl.run_pipeline(cloud, rig, segments, cfg)
            row["patches"] = len(result.patches)
        except (ValueError, pl.PipelineError) as exc:
            row["error"] = str(exc)
        row["seconds"] = time.perf_counter() - start
        return row

    for n in point_counts:
        spec = SceneSpec("two-plane", points_per_face=max(n // 2, 1), pixel_noise=pixel_noise, seed=seed)
        rows.append(run_one("points", n, spec))
    for k in patch_counts:
        spec = SceneSpec(
            f"random-planes-{k}",
            points_per_face=400,
            pixel_noise=pixel_noise,
            seed=seed,
        )
        rows.append(run_one("patches", k, spec))

    for axis in ("points", "patches"):
        axis_rows = [r for r in rows if r["axis"] == axis and not r["error"]]
        for prev, cur in zip(axis_rows, axis_rows[1:]):
            if cur["value"] == 2 * prev["value"] and cur["seconds"] > 4.0 * max(prev["seconds"], 1e-9):
                logger.warning(
                    "%s axis scales worse than quadratically (doubling it more than quadrupled the time): "
                    "{%d: %.3fs, %d: %.3fs}",
                    axis,
                    prev["value"],
                    prev["seconds"],
                    cur["value"],
                    cur["seconds"],
                )
    return rows
