"""File formats: labeled PLY point clouds and versioned JSON documents.

Every writer is deterministic: JSON documents have a fixed key order and
shortest-round-trip float text, ASCII PLY writes every float as ``%.17g``
(17 significant digits, which also read back to the same double), and
binary PLY stores the doubles themselves.  Every reader validates its
input strictly enough that a write-read-write cycle reproduces the file
byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import GammaParams, WeibullParams
from .geometry import Plane, PlaneForm, hull_from_vertices
from .growing import Patch, check_members, member_labels
from .stereo import EllipsePrior, PointCloud, StereoRig
from .synth import Face, GroundTruth

FORMAT_VERSION = 1

_PLY_FLOAT_PROPS = ("x", "y", "z", "px_u", "px_v", "pxp_u", "pxp_v")
_PLY_DTYPE = np.dtype([(name, "<f8") for name in _PLY_FLOAT_PROPS] + [("label", "<i4")])


class InputError(ValueError):
    """Malformed or inconsistent input file; message carries the diagnostic."""


# ---------------------------------------------------------------------------
# PLY point clouds
# ---------------------------------------------------------------------------


def _ply_header(count: int, scene_id: str | None, binary: bool) -> str:
    lines = ["ply", "format binary_little_endian 1.0" if binary else "format ascii 1.0"]
    if scene_id:
        lines.append(f"comment scene_id {scene_id}")
    lines.append(f"element vertex {count}")
    lines.extend(f"property double {name}" for name in _PLY_FLOAT_PROPS)
    lines.append("property int label")
    lines.append("end_header")
    return "\n".join(lines) + "\n"


def save_cloud(
    path,
    cloud: PointCloud,
    labels: np.ndarray | None = None,
    scene_id: str | None = None,
    binary: bool = False,
) -> None:
    """Write the cloud as PLY with pixel-pair and label vertex properties."""
    n = len(cloud)
    if labels is None:
        labels = np.full(n, -1)
    labels = np.asarray(labels, int).reshape(-1)
    if len(labels) != n:
        raise ValueError("labels must match the point count")
    header = _ply_header(n, scene_id, binary)
    columns = np.hstack([cloud.positions, cloud.pixels_left, cloud.pixels_right])
    if binary:
        rows = np.zeros(n, dtype=_PLY_DTYPE)
        for k, name in enumerate(_PLY_FLOAT_PROPS):
            rows[name] = columns[:, k]
        rows["label"] = labels
        Path(path).write_bytes(header.encode("ascii") + rows.tobytes())
        return
    row = "%.17g %.17g %.17g %.17g %.17g %.17g %.17g %d\n"  # _PLY_FLOAT_PROPS, then the label
    body = "".join(row % (*values, label) for values, label in zip(columns.tolist(), labels.tolist()))
    Path(path).write_text(header + body)


def load_cloud(path) -> tuple[PointCloud, np.ndarray, str | None]:
    """Read a labeled PLY cloud; returns (cloud, labels, scene_id)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    marker = b"end_header\n"
    cut = raw.find(marker)
    if not raw.startswith(b"ply\n") or cut < 0:
        raise InputError(f"{path}: not a ply file")
    header_lines = raw[:cut].decode("ascii", "replace").splitlines()
    body = raw[cut + len(marker):]

    binary = None
    count = None
    scene_id = None
    props: list[str] = []
    for ln, line in enumerate(header_lines[1:], start=2):
        fields = line.split()
        if not fields:
            raise InputError(f"{path}: line {ln}: empty header line")
        if fields[0] == "format":
            if fields[1:] == ["ascii", "1.0"]:
                binary = False
            elif fields[1:] == ["binary_little_endian", "1.0"]:
                binary = True
            else:
                raise InputError(f"{path}: line {ln}: unsupported format {' '.join(fields[1:])}")
        elif fields[0] == "comment":
            if len(fields) >= 3 and fields[1] == "scene_id":
                scene_id = " ".join(fields[2:])
        elif fields[0] == "element":
            if fields[1] != "vertex" or len(fields) != 3:
                raise InputError(f"{path}: line {ln}: only a vertex element is supported")
            try:
                count = int(fields[2])
            except ValueError:
                raise InputError(f"{path}: line {ln}: bad vertex count {fields[2]!r}") from None
        elif fields[0] == "property":
            props.append(" ".join(fields[1:]))
        else:
            raise InputError(f"{path}: line {ln}: unexpected header keyword {fields[0]!r}")
    if binary is None or count is None:
        raise InputError(f"{path}: header missing format or element line")
    expected = [f"double {name}" for name in _PLY_FLOAT_PROPS] + ["int label"]
    if props != expected:
        raise InputError(f"{path}: vertex properties must be exactly {expected}")
    if count == 0:
        raise InputError(f"{path}: empty point cloud")

    if binary:
        need = count * _PLY_DTYPE.itemsize
        if len(body) != need:
            raise InputError(f"{path}: expected {need} payload bytes, found {len(body)}")
        rows = np.frombuffer(body, dtype=_PLY_DTYPE, count=count)
        columns = np.column_stack([rows[name] for name in _PLY_FLOAT_PROPS])
        labels = rows["label"].astype(int)
    else:
        lines = body.decode("ascii", "replace").splitlines()
        if len(lines) != count:
            raise InputError(f"{path}: expected {count} vertex rows, found {len(lines)}")
        columns = np.empty((count, 7))
        labels = np.empty(count, dtype=int)
        header_len = len(header_lines) + 1
        for i, line in enumerate(lines):
            fields = line.split()
            if len(fields) != 8:
                raise InputError(
                    f"{path}: line {header_len + i}: expected 8 fields, found {len(fields)}"
                )
            try:
                columns[i] = [float(v) for v in fields[:7]]
                labels[i] = int(fields[7])
            except ValueError:
                raise InputError(f"{path}: line {header_len + i}: bad numeric field") from None
    if not np.all(np.isfinite(columns)):
        raise InputError(f"{path}: non-finite vertex values")

    cloud = PointCloud(columns[:, 0:3], columns[:, 3:5], columns[:, 5:7])
    return cloud, labels, scene_id


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


def _dump_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_json(path, kind: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    if doc.get("kind") != kind:
        raise InputError(f"{path}: expected a {kind!r} document, found {doc.get('kind')!r}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported format_version {doc.get('format_version')!r}")
    return doc


def _field(doc: dict, path, key: str):
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected an object holding {key!r}, found {doc!r}")
    if key not in doc:
        raise InputError(f"{path}: missing field {key!r}")
    return doc[key]


def _items(doc: dict, path, key: str) -> list:
    value = _field(doc, path, key)
    if not isinstance(value, list):
        raise InputError(f"{path}: {key} must be a list, not {value!r}")
    return value


def _int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, a bool or anything else raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _ellipse_doc(e: EllipsePrior) -> dict:
    return {
        "centroid": e.centroid.tolist(),
        "inertia": e.inertia.tolist(),
        "mean_intensity": e.mean_intensity,
    }


def _ellipse_from(doc: dict, path) -> EllipsePrior:
    try:
        return EllipsePrior(
            np.asarray(_field(doc, path, "centroid"), float),
            np.asarray(_field(doc, path, "inertia"), float),
            float(_field(doc, path, "mean_intensity")),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad ellipse: {exc}") from None


def save_cameras(path, rig: StereoRig, scene_id: str | None = None) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "cameras",
        "scene_id": scene_id or "",
        "image_size": list(rig.image_size),
        "camera_left": rig.camera_left.tolist(),
        "camera_right": rig.camera_right.tolist(),
        "pixel_noise_left": rig.pixel_noise_left,
        "pixel_noise_right": rig.pixel_noise_right,
        "noise_model": None
        if rig.noise_model is None
        else {"shape": rig.noise_model.shape, "scale": rig.noise_model.scale},
    }
    _dump_json(path, doc)


def load_cameras(path) -> tuple[StereoRig, str]:
    doc = _load_json(path, "cameras")
    size = _field(doc, path, "image_size")
    if not (isinstance(size, list) and len(size) == 2):
        raise InputError(f"{path}: image_size must be [width, height]")
    model_doc = _field(doc, path, "noise_model")
    model = None
    if model_doc is not None:
        try:
            model = WeibullParams(float(model_doc["shape"]), float(model_doc["scale"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: bad noise_model: {exc}") from None
    try:
        rig = StereoRig(
            np.asarray(_field(doc, path, "camera_left"), float),
            np.asarray(_field(doc, path, "camera_right"), float),
            float(_field(doc, path, "pixel_noise_left")),
            float(_field(doc, path, "pixel_noise_right")),
            (_int(size[0], "image width"), _int(size[1], "image height")),
            model,
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None
    return rig, str(doc.get("scene_id", ""))


def save_segments(
    path, segments: list[tuple[EllipsePrior, EllipsePrior]], scene_id: str | None = None
) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "segments",
        "scene_id": scene_id or "",
        "pairs": [
            {"left": _ellipse_doc(left), "right": _ellipse_doc(right)}
            for left, right in segments
        ],
    }
    _dump_json(path, doc)


def load_segments(path) -> tuple[list[tuple[EllipsePrior, EllipsePrior]], str]:
    doc = _load_json(path, "segments")
    pairs = []
    for entry in _items(doc, path, "pairs"):
        pairs.append(
            (
                _ellipse_from(_field(entry, path, "left"), path),
                _ellipse_from(_field(entry, path, "right"), path),
            )
        )
    return pairs, str(doc.get("scene_id", ""))


def save_ground_truth(path, gt: GroundTruth) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "ground_truth",
        "scene_id": gt.scene_id,
        "faces": [
            {"vertices": f.vertices.tolist(), "intensity": f.intensity} for f in gt.faces
        ],
        "labels": gt.labels.tolist(),
        "positions": gt.positions.tolist(),
    }
    _dump_json(path, doc)


def load_ground_truth(path) -> GroundTruth:
    doc = _load_json(path, "ground_truth")
    try:
        faces = [
            Face(np.asarray(_field(f, path, "vertices"), float), float(_field(f, path, "intensity")))
            for f in _items(doc, path, "faces")
        ]
        return GroundTruth(
            faces,
            np.stack([f.coeffs() for f in faces]),
            np.asarray([_int(v, "label") for v in _items(doc, path, "labels")], int),
            np.asarray(_field(doc, path, "positions"), float),
            str(doc.get("scene_id", "")),
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class _RestoredPair:
    """Stand-in for a seeding pair when patches come back from disk."""

    ellipse_left: EllipsePrior
    ellipse_right: EllipsePrior


@dataclass
class ExtractionDocument:
    """A patches file: the patches, the cloud's point count and the growth counts."""

    patches: list[Patch]
    n_points: int
    scene_id: str
    epochs: int
    truncated: bool
    accepted: int

    @property
    def unassigned(self) -> list[int]:
        """The points in no patch, read off the member arrays."""
        return np.flatnonzero(member_labels(self.patches, self.n_points) < 0).tolist()


def save_patches(path, doc: ExtractionDocument) -> None:
    entries = []
    for patch in sorted(doc.patches, key=lambda p: p.id):
        entries.append(
            {
                "id": patch.id,
                "form": patch.plane.form.name,
                "coeffs": patch.plane.coeffs.tolist(),
                "implicit": patch.plane.implicit.tolist(),
                "sums": patch.plane.sums.tolist(),
                "hull_vertices": patch.hull.vertices.tolist(),
                "members": patch.members.tolist(),
                "theta": {"shape": patch.theta.shape, "scale": patch.theta.scale},
                "ellipse_left": _ellipse_doc(patch.pair.ellipse_left),
                "ellipse_right": _ellipse_doc(patch.pair.ellipse_right),
                "boundary_weight": patch.boundary_weight,
                "intensity_weight": patch.intensity_weight,
                "intensity_override": patch.intensity_override,
            }
        )
    _dump_json(
        path,
        {
            "format_version": FORMAT_VERSION,
            "kind": "patches",
            "scene_id": doc.scene_id,
            "patches": entries,
            "n_points": doc.n_points,
            "epochs": doc.epochs,
            "truncated": doc.truncated,
            "accepted": doc.accepted,
        },
    )


def load_patches(path) -> ExtractionDocument:
    """Read a patches file.  Patch ids must be distinct and non-negative, because
    labels use -1 for a point in no patch and are keyed by patch id, and the
    members must be distinct points below ``n_points``."""
    doc = _load_json(path, "patches")
    patches = []
    for entry in _items(doc, path, "patches"):
        try:
            form = PlaneForm[_field(entry, path, "form")]
        except (KeyError, TypeError):
            raise InputError(f"{path}: unknown plane form {entry.get('form')!r}") from None
        try:
            plane = Plane(
                form,
                np.asarray(_field(entry, path, "coeffs"), float),
                np.asarray(_field(entry, path, "implicit"), float),
                np.asarray(_field(entry, path, "sums"), float),
            )
            hull = hull_from_vertices(plane, np.asarray(_field(entry, path, "hull_vertices"), float))
            theta_doc = _field(entry, path, "theta")
            members = np.array([_int(i, "member") for i in _items(entry, path, "members")], int)
            pid = _int(_field(entry, path, "id"), "id")
            if pid < 0:
                raise ValueError(f"negative patch id {pid}")
            if any(p.id == pid for p in patches):
                raise ValueError(f"repeated patch id {pid}")
            override = _field(entry, path, "intensity_override")
            patch = Patch(
                pid,
                plane,
                hull,
                members,
                GammaParams(float(theta_doc["shape"]), float(theta_doc["scale"])),
                _RestoredPair(
                    _ellipse_from(_field(entry, path, "ellipse_left"), path),
                    _ellipse_from(_field(entry, path, "ellipse_right"), path),
                ),
                float(_field(entry, path, "boundary_weight")),
                float(_field(entry, path, "intensity_weight")),
                None if override is None else float(override),
            )
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: bad patch entry: {exc}") from None
        patches.append(patch)
    keys = ("n_points", "epochs", "truncated", "accepted")
    n_points, epochs, truncated, accepted = (_field(doc, path, k) for k in keys)
    try:
        if not isinstance(truncated, bool):
            raise ValueError(f"truncated must be true or false, not {truncated!r}")
        if _int(n_points, "n_points") < 0:
            raise ValueError(f"negative n_points {n_points}")
        check_members(patches, n_points)
        return ExtractionDocument(
            patches,
            n_points,
            str(doc.get("scene_id", "")),
            _int(epochs, "epochs"),
            truncated,
            _int(accepted, "accepted"),
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


def load_config(path) -> "RunConfig":
    """Parse a config document into a RunConfig; unknown keys are errors.

    The document's ``presets`` blocks are laid over ``pipeline.default_presets()``
    one preset name at a time, so a config without them runs like no config.
    """
    from .pipeline import RunConfig, _with_blocks

    doc = _load_json(path, "config")
    try:
        cfg = _with_blocks(RunConfig(), doc)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None
    presets = doc.get("presets", {})
    if not isinstance(presets, dict):
        raise InputError(f"{path}: presets must be an object")
    for name, block in presets.items():
        if not isinstance(block, dict) or not set(block) <= {"seed", "grow", "refine"}:
            raise InputError(f"{path}: preset block {name!r} may only hold seed/grow/refine")
        try:
            _with_blocks(cfg, block)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: preset block {name!r}: {exc}") from None
    cfg.presets = {**cfg.presets, **presets}
    known = {"format_version", "kind", "seed", "grow", "refine", "presets"}
    unknown = set(doc) - known
    if unknown:
        raise InputError(f"{path}: unknown config fields {sorted(unknown)}")
    return cfg
