"""Disk formats and the command-line entry points."""

import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from stereopatch import cli, io, pipeline
from stereopatch.distributions import GammaParams, WeibullParams
from stereopatch.geometry import build_hull, choose_plane_form, fit_plane
from stereopatch.growing import Patch, PatchStack
from stereopatch.seeding import SegmentPair
from stereopatch.stereo import EllipsePrior, PointCloud
from stereopatch.synth import GroundTruth, SceneSpec, build_faces, generate

PLY_PROPS = ("x", "y", "z", "px_u", "px_v", "pxp_u", "pxp_v")


def small_cloud(n=23, seed=3):
    rng = np.random.default_rng(seed)
    positions = rng.standard_normal((n, 3)) * [1.5, 1.0, 0.3] + [0.0, 0.0, 5.0]
    pix = lambda: rng.uniform(0.0, 800.0, (n, 2)) + rng.standard_normal((n, 2)) / 3.0
    return PointCloud(positions, pix(), pix()), rng.integers(-1, 4, size=n)


def empty_ply_text():
    lines = ["ply", "format ascii 1.0", "element vertex 0"]
    lines += [f"property double {name}" for name in PLY_PROPS]
    lines += ["property int label", "end_header", ""]
    return "\n".join(lines)


def face_patch(pid, face, members):
    plane = fit_plane(face.vertices, choose_plane_form(face.vertices))
    ellipse = EllipsePrior(np.array([100.0, 100.0]), np.array([40.0, 0.0, 40.0]), face.intensity)
    pair = SegmentPair(ellipse, ellipse, face.vertices.mean(axis=0))
    return Patch(
        pid,
        plane,
        build_hull(plane, face.vertices),
        list(members),
        GammaParams(2.0, 1e-6),
        pair,
        1.0,
    )


def perfect_fixture(tmp_path):
    """Ground truth plus exactly-matching patches, both written to disk."""
    faces = build_faces(SceneSpec("two-plane"))
    positions = np.vstack([f.vertices for f in faces])
    labels = [0] * 4 + [1] * 4
    gt = GroundTruth(
        faces, np.stack([f.coeffs() for f in faces]), labels, positions, "hand-built"
    )
    patches = [face_patch(0, faces[0], range(4)), face_patch(1, faces[1], range(4, 8))]
    gt_path = tmp_path / "gt.json"
    patches_path = tmp_path / "patches.json"
    io.save_ground_truth(gt_path, gt)
    doc = io.ExtractionDocument(patches, 8, "hand-built", 1, False, 8)
    io.save_patches(patches_path, doc)
    return gt_path, patches_path, patches


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_dir(tmp_path, name, *extra):
    """Generate a two-plane scene directory; extra args override the defaults.

    Seeding needs on the order of a thousand samples per face, so tests that
    feed the extraction pipeline keep the default density and only the
    file-format tests shrink it."""
    out = tmp_path / name
    code = cli.main(
        ["synth", "--preset", "two-plane", "--points-per-face", "1000", "--seed", "3"]
        + [str(a) for a in extra]
        + ["--out-dir", str(out)]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def small_scene(tmp_path_factory):
    """A two-plane scene directory too sparse to extract, for input-error tests."""
    out = tmp_path_factory.mktemp("small") / "scene"
    code = cli.main(
        ["synth", "--preset", "two-plane", "--points-per-face", "50", "--out-dir", str(out)]
    )
    assert code == 0
    return out


# -- PLY clouds -----------------------------------------------------------------


def test_ascii_cloud_roundtrip(tmp_path):
    cloud, labels = small_cloud()
    path = tmp_path / "cloud.ply"
    io.save_cloud(path, cloud, labels, scene_id="two-plane:3:50:0.001")
    loaded, got_labels, scene_id = io.load_cloud(path)
    assert scene_id == "two-plane:3:50:0.001"
    assert np.array_equal(loaded.positions, cloud.positions)
    assert np.array_equal(loaded.pixels_left, cloud.pixels_left)
    assert np.array_equal(loaded.pixels_right, cloud.pixels_right)
    assert np.array_equal(got_labels, labels)
    again = tmp_path / "again.ply"
    io.save_cloud(again, loaded, got_labels, scene_id=scene_id)
    assert again.read_bytes() == path.read_bytes()


def test_ascii_rows_equal_the_per_value_format(tmp_path):
    # one format string per row writes what formatting each value alone did
    cloud, labels = small_cloud()
    cloud.positions[0] = [-0.0, 1e-300, -2.5e-17]
    cloud.pixels_left[1] = [3.0, -7.0]
    cloud.pixels_right[2] = [5e-324, 123456789012345.0]
    labels[:3] = [-1, 0, 2_000_000_000]
    path = tmp_path / "cloud.ply"
    io.save_cloud(path, cloud, labels)
    columns = np.hstack([cloud.positions, cloud.pixels_left, cloud.pixels_right])
    rows = [" ".join("%.17g" % v for v in columns[i]) + " %d\n" % labels[i] for i in range(len(labels))]
    text = path.read_text()
    assert text.endswith("end_header\n" + "".join(rows))
    assert "-0 1e-300 -2.4999999999999999e-17 " in text
    assert " 3 -7 " in text and " 4.9406564584124654e-324 123456789012345 " in text


def test_binary_cloud_roundtrip(tmp_path):
    cloud, labels = small_cloud(seed=4)
    path = tmp_path / "cloud.ply"
    io.save_cloud(path, cloud, labels, scene_id="bin-check", binary=True)
    assert b"binary_little_endian" in path.read_bytes()[:80]
    loaded, got_labels, scene_id = io.load_cloud(path)
    assert scene_id == "bin-check"
    assert np.array_equal(loaded.positions, cloud.positions)
    assert np.array_equal(got_labels, labels)
    again = tmp_path / "again.ply"
    io.save_cloud(again, loaded, got_labels, scene_id=scene_id, binary=True)
    assert again.read_bytes() == path.read_bytes()


def test_omitted_labels_default_to_unassigned(tmp_path):
    cloud, _ = small_cloud(n=5)
    path = tmp_path / "cloud.ply"
    io.save_cloud(path, cloud)
    _, labels, scene_id = io.load_cloud(path)
    assert scene_id is None
    assert np.all(labels == -1)


def test_label_count_mismatch_is_rejected(tmp_path):
    cloud, _ = small_cloud(n=5)
    with pytest.raises(ValueError, match="labels must match"):
        io.save_cloud(tmp_path / "bad.ply", cloud, labels=[0, 1])


def test_malformed_ply_files_are_rejected(tmp_path):
    junk = tmp_path / "junk.ply"
    junk.write_text("hello\nworld\n")
    with pytest.raises(io.InputError, match="not a ply file"):
        io.load_cloud(junk)

    empty = tmp_path / "empty.ply"
    empty.write_text(empty_ply_text())
    with pytest.raises(io.InputError, match="empty point cloud"):
        io.load_cloud(empty)

    cloud, labels = small_cloud(n=4)
    chopped = tmp_path / "chopped.ply"
    io.save_cloud(chopped, cloud, labels, binary=True)
    chopped.write_bytes(chopped.read_bytes()[:-4])
    with pytest.raises(io.InputError, match="payload bytes"):
        io.load_cloud(chopped)

    short_row = tmp_path / "short.ply"
    io.save_cloud(short_row, cloud, labels)
    lines = short_row.read_text().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:5])
    short_row.write_text("\n".join(lines) + "\n")
    with pytest.raises(io.InputError, match="expected 8 fields"):
        io.load_cloud(short_row)


def ply_header_text(count):
    return io._ply_header(count, None, False)


def test_an_ascii_cloud_changed_in_place_is_written_with_its_new_values(tmp_path):
    cloud, labels = small_cloud(n=6)
    path = tmp_path / "cloud.ply"
    io.save_cloud(path, cloud, labels)
    loaded, got_labels, _ = io.load_cloud(path)
    loaded.positions[2, 1] = 0.25
    loaded.pixels_right[4, 0] = -loaded.pixels_right[4, 0]
    again = tmp_path / "again.ply"
    io.save_cloud(again, loaded, got_labels)
    back, back_labels, _ = io.load_cloud(again)
    assert back.positions[2, 1] == 0.25
    assert np.array_equal(back.pixels_right, loaded.pixels_right)
    assert np.array_equal(back.positions, loaded.positions)
    assert np.array_equal(back_labels, labels)
    # 0.0 and -0.0 compare equal; the reused text must still go
    text = tmp_path / "zero.ply"
    text.write_text(ply_header_text(1) + "0 1 2 3 4 5 6 7\n")
    zero, _, _ = io.load_cloud(text)
    zero.positions[0, 0] = -0.0
    io.save_cloud(text, zero, [1])
    assert text.read_text().endswith("end_header\n-0 1 2 3 4 5 6 1\n")


def test_a_hand_written_ascii_cloud_keeps_its_number_text(tmp_path):
    rows = ["0.5 1e-3 +2 3. .25 1E2 -0 7\n", "-1.5 0.001 2 3 4 5 6 -1\n"]
    path = tmp_path / "cloud.ply"
    path.write_text(ply_header_text(2) + "".join(rows))
    cloud, labels, _ = io.load_cloud(path)
    assert np.array_equal(labels, [7, -1])
    out = tmp_path / "labeled.ply"
    io.save_cloud(out, cloud, [-1, 3])
    assert out.read_text() == ply_header_text(2) + "0.5 1e-3 +2 3. .25 1E2 -0 -1\n" + (
        "-1.5 0.001 2 3 4 5 6 3\n"
    )
    back, back_labels, _ = io.load_cloud(out)
    columns = np.hstack([cloud.positions, cloud.pixels_left, cloud.pixels_right])
    back_columns = np.hstack([back.positions, back.pixels_left, back.pixels_right])
    assert back_columns.tobytes() == columns.tobytes()
    assert np.array_equal(back_labels, [-1, 3])
    # a new cloud on the same arrays was not read from rows: "%.17g"
    io.save_cloud(out, PointCloud(cloud.positions, cloud.pixels_left, cloud.pixels_right), [0, 0])
    assert out.read_text().endswith("0.5 0.001 2 3 0.25 100 -0 0\n-1.5 0.001 2 3 4 5 6 0\n")


def test_a_cloud_whose_file_changed_after_loading_is_written_from_its_values(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(ply_header_text(1) + "5e-1 1 2 3 4 5 6 7\n")
    cloud, _, _ = io.load_cloud(path)
    out = tmp_path / "out.ply"
    io.save_cloud(out, cloud, [1])
    assert out.read_text().endswith("end_header\n5e-1 1 2 3 4 5 6 1\n")
    path.write_text(ply_header_text(1) + "2.5e-1 1 2 3 4 5 6 7\n")
    io.save_cloud(out, cloud, [2])
    assert out.read_text().endswith("end_header\n0.5 1 2 3 4 5 6 2\n")
    path.unlink()
    io.save_cloud(out, cloud, [3])
    assert out.read_text().endswith("end_header\n0.5 1 2 3 4 5 6 3\n")


# ASCII rows of a tiny cloud, mutated one edit at a time; the reader must
# give what the per-line reference gives, arrays or message.
_TOKENS = [
    "1_0", "nan(1)", "5.", "0x10", "inf", "-inf", "nan", "1e999", "+5", "05", "-0", ".5",
    "1e-3", "1e", "-", "1.2.3", "1-2", "2147483647", "2147483648", "-2147483648",
    "-2147483649", str(2**40 + 5), str(2**70), "7",
]
_EDIT_KINDS = ["token"] * 4 + [
    "tab", "double space", "lead space", "trail space", "crlf", "drop field", "extra field",
    "drop newline", "blank row", "text after newline",
]
_EDITS = st.tuples(
    st.sampled_from(_EDIT_KINDS),
    st.sampled_from(range(4)),
    st.sampled_from([7, 7, 7, 0, 1, 2, 3, 4, 5, 6]),  # the label field three times as often
    st.sampled_from(_TOKENS),
)


def _edit_rows(rows, endings, edit):
    kind, r, f, token = edit
    fields = rows[r].split(" ")
    f %= len(fields)
    if kind == "token":
        fields[f] = token
    elif kind == "tab":
        fields[f] = "\t" + fields[f]
    elif kind == "double space":
        fields[f] = " " + fields[f]
    elif kind == "drop field":
        del fields[f]
    elif kind == "extra field":
        fields.insert(f, "1")
    rows[r] = " ".join(fields)
    if kind == "lead space":
        rows[r] = " " + rows[r]
    elif kind == "trail space":
        rows[r] += " "
    edited = {"crlf": "\r\n", "drop newline": "", "blank row": "\n\n", "text after newline": "\n8"}
    endings[r] = edited.get(kind, endings[r])


@settings(
    max_examples=400, deadline=None, database=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edits=st.lists(_EDITS, min_size=1, max_size=3))
def test_the_ascii_reader_equals_the_per_line_reference(tmp_path, edits):
    rows = ["0.5 -1.25 3 1e-3 2.5e2 -7 8.125 0", "1 2 3 4 5 6 7 -1",
            "0.1 0.2 0.30000000000000004 4 5 6 7 2", "-0.5 1 1 1 1 1 1 3"]
    endings = ["\n"] * len(rows)
    for edit in edits:
        _edit_rows(rows, endings, edit)
    body = "".join(row + ending for row, ending in zip(rows, endings))
    path = tmp_path / "mutant.ply"
    path.write_text(ply_header_text(4) + body, newline="")
    try:
        expect = oracles.per_line_ply_rows(path, 4)
    except ValueError as exc:
        with pytest.raises(io.InputError) as got:
            io.load_cloud(path)
        assert str(got.value) == str(exc)
        return
    cloud, labels, _ = io.load_cloud(path)
    columns = np.hstack([cloud.positions, cloud.pixels_left, cloud.pixels_right])
    assert columns.tobytes() == expect[0].tobytes()
    assert labels.dtype == expect[1].dtype and np.array_equal(labels, expect[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_binary_cloud_with_a_non_finite_position_is_rejected(tmp_path, capsys, small_scene, bad):
    capsys.readouterr()
    cloud, labels, scene_id = io.load_cloud(small_scene / "cloud.ply")
    cloud.positions[3, 1] = bad
    broken = tmp_path / "broken.ply"
    io.save_cloud(broken, cloud, labels, scene_id=scene_id, binary=True)
    with pytest.raises(io.InputError, match="non-finite vertex values"):
        io.load_cloud(broken)
    code, _, err = run_cli(
        capsys, "extract", "--cloud", broken,
        "--cameras", small_scene / "cameras.json",
        "--segments", small_scene / "segments.json",
        "--out-dir", tmp_path / "out",
    )
    assert code == 2
    assert "non-finite vertex values" in err


# -- JSON documents ---------------------------------------------------------------


def test_cameras_roundtrip(tmp_path, two_plane_scene):
    path = tmp_path / "cameras.json"
    for rig in (
        two_plane_scene.rig,
        replace(two_plane_scene.rig, noise_model=WeibullParams(1.3, 0.02)),
    ):
        io.save_cameras(path, rig, "cam-check")
        loaded, scene_id = io.load_cameras(path)
        assert scene_id == "cam-check"
        assert np.array_equal(loaded.camera_left, rig.camera_left)
        assert np.array_equal(loaded.camera_right, rig.camera_right)
        assert loaded.pixel_noise_left == rig.pixel_noise_left
        assert loaded.pixel_noise_right == rig.pixel_noise_right
        assert tuple(loaded.image_size) == tuple(rig.image_size)
        if rig.noise_model is None:
            assert loaded.noise_model is None
        else:
            assert loaded.noise_model.shape == rig.noise_model.shape
            assert loaded.noise_model.scale == rig.noise_model.scale
        again = tmp_path / "cameras2.json"
        io.save_cameras(again, loaded, scene_id)
        assert again.read_bytes() == path.read_bytes()


def test_segments_roundtrip(tmp_path, two_plane_scene):
    path = tmp_path / "segments.json"
    io.save_segments(path, two_plane_scene.segments, "seg-check")
    loaded, scene_id = io.load_segments(path)
    assert scene_id == "seg-check"
    assert len(loaded) == len(two_plane_scene.segments)
    for (gl, gr), (ll, lr) in zip(two_plane_scene.segments, loaded):
        for a, b in ((gl, ll), (gr, lr)):
            assert np.array_equal(a.centroid, b.centroid)
            assert np.array_equal(a.inertia, b.inertia)
            assert a.mean_intensity == b.mean_intensity
    again = tmp_path / "segments2.json"
    io.save_segments(again, loaded, scene_id)
    assert again.read_bytes() == path.read_bytes()


def test_ground_truth_roundtrip(tmp_path):
    _, gt, _ = generate(SceneSpec("path", 60, 0.001, 2))
    path = tmp_path / "gt.json"
    io.save_ground_truth(path, gt)
    loaded = io.load_ground_truth(path)
    assert loaded.scene_id == gt.scene_id
    assert len(loaded.faces) == len(gt.faces)
    for fa, fb in zip(gt.faces, loaded.faces):
        assert np.array_equal(fa.vertices, fb.vertices)
        assert fa.intensity == fb.intensity
    assert np.array_equal(loaded.labels, gt.labels)
    assert np.array_equal(loaded.positions, gt.positions)
    assert np.array_equal(loaded.coeffs, gt.coeffs)
    again = tmp_path / "gt2.json"
    io.save_ground_truth(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def _int_arrays(patches):
    return all(isinstance(p.members, np.ndarray) and p.members.dtype.kind == "i" for p in patches)


def test_patches_roundtrip(tmp_path, two_plane_run):
    result = two_plane_run.result
    assert _int_arrays(result.patches)
    unassigned = np.flatnonzero(result.labels < 0).tolist()
    doc = io.ExtractionDocument(
        result.patches,
        len(two_plane_run.cloud),
        two_plane_run.spec.scene_id,
        result.grow_result.epochs,
        result.grow_result.truncated,
        result.grow_result.accepted,
    )
    path = tmp_path / "patches.json"
    io.save_patches(path, doc)
    loaded = io.load_patches(path)
    assert _int_arrays(loaded.patches)
    assert loaded.scene_id == doc.scene_id
    assert loaded.n_points == doc.n_points
    assert loaded.unassigned == unassigned
    assert (loaded.epochs, loaded.truncated, loaded.accepted) == (
        doc.epochs,
        doc.truncated,
        doc.accepted,
    )
    assert len(loaded.patches) == len(doc.patches)
    saved = sorted(doc.patches, key=lambda p: p.id)
    probe = two_plane_run.cloud.positions
    saved_const = PatchStack(saved, probe, two_plane_run.rig).log_const
    loaded_const = PatchStack(loaded.patches, probe, two_plane_run.rig).log_const
    assert saved_const == pytest.approx(loaded_const, rel=1e-15)
    for a, b in zip(saved, loaded.patches):
        assert a.id == b.id
        assert a.plane.form == b.plane.form
        assert np.array_equal(a.plane.coeffs, b.plane.coeffs)
        assert np.array_equal(a.plane.implicit, b.plane.implicit)
        assert np.array_equal(a.plane.sums, b.plane.sums)
        assert np.array_equal(a.hull.vertices, b.hull.vertices)
        assert np.array_equal(a.members, b.members)
        assert (a.theta.shape, a.theta.scale) == (b.theta.shape, b.theta.scale)
        assert a.boundary_weight == b.boundary_weight
    again = tmp_path / "patches2.json"
    io.save_patches(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_patch_writer_ignores_input_order(tmp_path):
    _, patches_path, patches = perfect_fixture(tmp_path)
    flipped = tmp_path / "flipped.json"
    io.save_patches(
        flipped, io.ExtractionDocument(patches[::-1], 8, "hand-built", 1, False, 8)
    )
    assert flipped.read_bytes() == patches_path.read_bytes()


def test_load_config_applies_blocks(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        '{"format_version": 1, "kind": "config",'
        ' "grow": {"log_threshold": -12.5},'
        ' "presets": {"two-plane": {"grow": {"boundary_weight": 1e-05}}}}'
    )
    cfg = io.load_config(path)
    assert cfg.grow_cfg.log_threshold == -12.5
    tuned = cfg.for_scene("two-plane:0:10:0.001")
    assert tuned.grow_cfg.boundary_weight == 1e-5
    assert tuned.grow_cfg.log_threshold == -12.5
    # a preset the file does not name keeps its built-in block
    assert cfg.for_scene("chessboard:0:10:0.001").grow_cfg.boundary_weight == 1e-4

    path.write_text('{"format_version": 1, "kind": "config", "banana": 1}')
    with pytest.raises(io.InputError, match="unknown config fields"):
        io.load_config(path)

    path.write_text('{"format_version": 1, "kind": "config", "grow": {"tau": -3}}')
    with pytest.raises(io.InputError):
        io.load_config(path)

    path.write_text('{"format_version": 1, "kind": "cameras"}')
    with pytest.raises(io.InputError, match="expected a 'config' document"):
        io.load_config(path)

    path.write_text('{"format_version": 99, "kind": "config"}')
    with pytest.raises(io.InputError, match="format_version"):
        io.load_config(path)


def test_a_scene_without_a_preset_name_runs_at_the_tuned_defaults(two_plane_run):
    # A scene loaded from files without a scene id matches no preset block,
    # so it runs at RunConfig's defaults; on two-plane they are its tuned values.
    scene = two_plane_run
    result = pipeline.run_pipeline(scene.cloud, scene.rig, scene.segments)
    assert len(result.patches) == len(scene.result.patches)
    for a, b in zip(result.patches, scene.result.patches):
        assert np.array_equal(a.members, b.members)
        assert a.plane.form == b.plane.form
        assert np.array_equal(a.plane.coeffs, b.plane.coeffs)


def test_an_empty_config_extracts_like_no_config(tmp_path, capsys):
    scene = synth_dir(tmp_path, "scene", "--points-per-face", "300")
    config = tmp_path / "config.json"
    config.write_text('{"format_version": 1, "kind": "config"}')
    inputs = ["--cloud", scene / "cloud.ply", "--cameras", scene / "cameras.json",
              "--segments", scene / "segments.json"]
    assert run_cli(capsys, "extract", *inputs, "--out-dir", tmp_path / "plain")[0] == 0
    code, _, _ = run_cli(
        capsys, "extract", *inputs, "--config", config, "--out-dir", tmp_path / "configured"
    )
    assert code == 0
    plain = (tmp_path / "plain" / "patches.json").read_bytes()
    assert (tmp_path / "configured" / "patches.json").read_bytes() == plain


@pytest.mark.parametrize(
    "block",
    [
        '"seed": {"radius": "0.1"}',
        '"seed": {"radius_frac": -0.05}',
        '"seed": {"min_cluster": 8.5}',
        '"grow": {"batch_size": 2.5}',
        '"grow": {"boundary_weight": NaN}',
        '"grow": {"max_epochs": true}',
        '"refine": {"min_members": "10"}',
        '"refine": {"intensity_tol": Infinity}',
        '"refine": {"intensity_tol": -1}',
        '"refine": {"min_members": -5}',
        '"refine": {"min_members": 0}',
        '"refine": {"normal_dot_min": 2.0}',
        '"refine": {"normal_dot_min": -0.5}',
        '"refine": {"min_area": -1}',
        '"refine": {"hull_dist_max": -1}',
        '"grow": {"intensity_weight": -3}',
        # inlier_residual is no longer a field, so any value is rejected as unknown
        '"seed": {"inlier_residual": -1}',
        '"seed": {"inlier_residual": 0}',
        '"seed": {"inlier_residual": 1}',
        '"seed": {"radius": 0}',
        '"seed": {"radius": -0.1}',
        '"presets": {"two-plane": {"grow": {"batch_size": 2.5}}}',
    ],
)
def test_cli_rejects_mistyped_config_values(tmp_path, small_scene, block):
    import subprocess
    import sys

    config = tmp_path / "config.json"
    config.write_text('{"format_version": 1, "kind": "config", %s}' % block)
    with pytest.raises(io.InputError):
        io.load_config(config)
    proc = subprocess.run(
        [sys.executable, "-m", "stereopatch.cli", "extract",
         "--cloud", str(small_scene / "cloud.ply"),
         "--cameras", str(small_scene / "cameras.json"),
         "--segments", str(small_scene / "segments.json"),
         "--config", str(config), "--out-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "config.json" in proc.stderr


def _add_member(src, dst):
    """Mutation that lists patch ``src``'s first member in patch ``dst`` as well."""

    def mutate(doc):
        patches = doc["patches"]
        patches[dst]["members"].append(patches[src]["members"][0])

    return mutate


def _set(*keys_and_value):
    """Mutation that stores the last argument at the key path given by the others."""
    *keys, value = keys_and_value

    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value

    return mutate


def _set_ply_label(row, value):
    """Mutation of a PLY file's lines that sets the label of vertex row ``row``."""

    def mutate(lines):
        i = lines.index("end_header\n") + 1 + row
        lines[i] = lines[i].rsplit(" ", 1)[0] + f" {value}\n"

    return mutate


def _drop(key):
    """Mutation that deletes a top-level key, as in a file written before it existed."""

    def mutate(doc):
        del doc[key]

    return mutate


@pytest.mark.parametrize(
    "name, mutate",
    [
        pytest.param("segments.json", _set("pairs", 5), id="pairs-not-a-list"),
        pytest.param(
            "segments.json", _set("pairs", 0, "left", "inertia", 0, float("nan")),
            id="nan-inertia",
        ),
        pytest.param(
            "segments.json", _set("pairs", 0, "right", "centroid", 1, float("inf")),
            id="inf-centroid",
        ),
        pytest.param("cameras.json", _set("pixel_noise_left", [1]), id="noise-in-a-list"),
        pytest.param("cameras.json", _set("pixel_noise_left", float("nan")), id="nan-noise"),
        pytest.param("cameras.json", _set("pixel_noise_right", float("inf")), id="inf-noise"),
        pytest.param("cameras.json", _set("pixel_noise_right", -0.001), id="negative-noise"),
        pytest.param("cameras.json", _set("pixel_noise_right", 1e308), id="noise-square-overflows"),
        pytest.param("cameras.json", _set("camera_left", 0, 0, float("nan")), id="nan-camera"),
        pytest.param("cameras.json", _set("image_size", [-800, 600]), id="negative-image-size"),
        pytest.param("gt.json", _set("faces", 5), id="faces-not-a-list"),
        pytest.param("gt.json", _set("faces", [5]), id="face-not-an-object"),
        pytest.param("patches.json", _set("patches", 5), id="patches-not-a-list"),
        pytest.param(
            "patches.json", _set("patches", 0, "members", 0, 1000000),
            id="member-past-the-end",
        ),
        pytest.param("patches.json", _set("patches", 0, "members", 0, -3), id="negative-member"),
        pytest.param("patches.json", _add_member(0, 1), id="member-in-two-patches"),
        pytest.param("patches.json", _add_member(0, 0), id="member-listed-twice"),
        pytest.param("patches.json", _set("patches", 0, "id", -1), id="negative-patch-id"),
        pytest.param("patches.json", _set("patches", 1, "id", 0), id="repeated-patch-id"),
        pytest.param(
            "patches.json", _set("patches", 0, "intensity_override", "bright"),
            id="mistyped-intensity",
        ),
        pytest.param("cameras.json", _set("image_size", [800.7, 600]), id="fractional-image-size"),
        pytest.param("gt.json", _set("labels", 7, 1.7), id="fractional-label"),
        pytest.param("gt.json", _set("labels", 0, False), id="boolean-label"),
        pytest.param("gt.json", _set("labels", 7, 2), id="label-past-the-faces"),
        pytest.param("gt.json", _set("labels", 0, -2), id="label-below-minus-one"),
        pytest.param(
            "patches.json", _set("patches", 0, "members", [0.9, 1.5, 2.7, 3.2]),
            id="fractional-members",
        ),
        pytest.param("patches.json", _set("patches", 1, "id", 1.5), id="fractional-id"),
        pytest.param("patches.json", _set("n_points", 4.5), id="fractional-n-points"),
        pytest.param("patches.json", _set("n_points", 9), id="point-count-differs-from-gt"),
        pytest.param("patches.json", _set("n_points", -1), id="negative-n-points"),
        # checked against the ground truth before anything of that size is allocated
        pytest.param("patches.json", _set("n_points", 10**12), id="n-points-past-memory"),
        pytest.param("patches.json", _drop("n_points"), id="file-without-point-count"),
        pytest.param("patches.json", _set("epochs", 1.5), id="fractional-epochs"),
        pytest.param("patches.json", _set("accepted", True), id="boolean-accepted"),
        pytest.param("patches.json", _set("truncated", "no"), id="string-truncated"),
        pytest.param("cloud.ply", _set_ply_label(3, 2**70), id="label-overflows-int64"),
        pytest.param("cloud.ply", _set_ply_label(3, 2**40 + 5), id="label-outside-int32"),
        pytest.param("cloud.ply", _set_ply_label(0, -(2**31) - 1), id="label-below-int32"),
    ],
)
def test_cli_rejects_out_of_range_and_mistyped_input_files(tmp_path, small_scene, name, mutate):
    import json
    import subprocess
    import sys

    gt_path, patches_path, _ = perfect_fixture(tmp_path)
    files = {
        "cloud.ply": small_scene / "cloud.ply",
        "cameras.json": small_scene / "cameras.json",
        "segments.json": small_scene / "segments.json",
        "gt.json": gt_path,
        "patches.json": patches_path,
    }
    if name.endswith(".ply"):
        lines = files[name].read_text().splitlines(keepends=True)
        mutate(lines)
        text = "".join(lines)
    else:
        doc = json.loads(files[name].read_text())
        mutate(doc)
        text = json.dumps(doc)
    files[name] = tmp_path / "broken" / name
    files[name].parent.mkdir()
    files[name].write_text(text)
    if name in ("gt.json", "patches.json"):
        argv = ["eval", "--gt", files["gt.json"], "--patches", files["patches.json"]]
    else:
        argv = ["extract", "--cloud", files["cloud.ply"], "--cameras", files["cameras.json"],
                "--segments", files["segments.json"], "--out-dir", tmp_path / "out"]
    proc = subprocess.run(
        [sys.executable, "-m", "stereopatch.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(files[name]) in proc.stderr


# -- command line -----------------------------------------------------------------


@pytest.mark.parametrize("command", ["extract", "synth", "calibrate", "sweep"])
def test_cli_rejects_a_negative_seed_naming_the_flag(tmp_path, capsys, small_scene, command):
    args = {
        "extract": ["--cloud", small_scene / "cloud.ply", "--cameras", small_scene / "cameras.json",
                    "--segments", small_scene / "segments.json", "--out-dir", tmp_path / "out"],
        "synth": ["--preset", "two-plane", "--points-per-face", "50", "--out-dir", tmp_path / "out"],
        "calibrate": ["--cloud", small_scene / "cloud.ply", "--cameras", small_scene / "cameras.json",
                      "--out", tmp_path / "cameras.json"],
        "sweep": ["--axis", "points", "--values", "100", "--out-dir", tmp_path / "out"],
    }[command]
    code, _, err = run_cli(capsys, command, *args, "--seed", "-1")
    assert code == 2
    assert "--seed" in err and "-1" in err


@pytest.mark.parametrize("command", ["extract", "calibrate"])
@pytest.mark.parametrize("cloud, reason", [("nope.ply", "No such file or directory"),
                                           (".", "Is a directory")])
def test_cli_reports_a_cloud_it_cannot_read(tmp_path, capsys, small_scene, command, cloud, reason):
    cloud = tmp_path / cloud
    args = {
        "extract": ["--segments", small_scene / "segments.json", "--out-dir", tmp_path / "out"],
        "calibrate": ["--out", tmp_path / "cameras.json"],
    }[command]
    code, _, err = run_cli(
        capsys, command, "--cloud", cloud, "--cameras", small_scene / "cameras.json", *args
    )
    assert code == 2
    assert err == f"error: {cloud}: {reason}\n"


@pytest.mark.parametrize("command", ["extract", "synth", "calibrate"])
def test_cli_reports_an_output_path_it_cannot_create(tmp_path, capsys, small_scene, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    # extract's output directory is the file itself, the others' lie under it
    out, reason = {
        "extract": (blocker, "File exists"),
        "synth": (blocker / "scene", "Not a directory"),
        "calibrate": (blocker / "cameras.json", "Not a directory"),
    }[command]
    # the small scene is too sparse to extract, so extract reads a denser one
    scene = synth_dir(tmp_path, "scene") if command == "extract" else small_scene
    args = {
        "extract": ["--cloud", scene / "cloud.ply", "--cameras", scene / "cameras.json",
                    "--segments", scene / "segments.json", "--out-dir", out],
        "synth": ["--preset", "two-plane", "--points-per-face", "50", "--out-dir", out],
        "calibrate": ["--cloud", scene / "cloud.ply", "--cameras", scene / "cameras.json",
                      "--out", out],
    }[command]
    capsys.readouterr()
    code, _, err = run_cli(capsys, command, *args)
    assert code == 2
    assert err.splitlines()[-1] == f"error: {out}: {reason}"


def test_cli_synth_is_deterministic(tmp_path, capsys):
    dir_a = synth_dir(tmp_path, "a")
    dir_b = synth_dir(tmp_path, "b")
    out = capsys.readouterr().out
    assert "2 faces" in out and "2 segment pairs" in out
    for name in ("cloud.ply", "cameras.json", "segments.json", "gt.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    cloud, labels, scene_id = io.load_cloud(dir_a / "cloud.ply")
    assert scene_id == "two-plane:3:1000:0.001"
    assert set(np.unique(labels)) <= {0, 1}


def test_cli_synth_chessboard_and_faces_flag(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "synth", "--preset", "chessboard", "--points-per-face", "50",
        "--out-dir", tmp_path / "chess",
    )
    assert code == 0
    assert len(io.load_ground_truth(tmp_path / "chess" / "gt.json").faces) == 8

    code, _, _ = run_cli(
        capsys, "synth", "--preset", "random-planes", "--faces", "3",
        "--points-per-face", "50", "--out-dir", tmp_path / "rp",
    )
    assert code == 0
    gt = io.load_ground_truth(tmp_path / "rp" / "gt.json")
    assert len(gt.faces) == 3
    assert gt.scene_id.startswith("random-planes-3:")

    code, _, err = run_cli(
        capsys, "synth", "--preset", "two-plane", "--faces", "3",
        "--out-dir", tmp_path / "bad",
    )
    assert code == 2
    assert "--faces only applies" in err


def test_cli_synth_rejects_unknown_preset(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "synth", "--preset", "torus", "--out-dir", tmp_path / "x"
    )
    assert code == 2
    assert "unknown preset" in err and "two-plane" in err


def test_cli_extract_runs_and_reruns_identically(tmp_path, capsys):
    scene = synth_dir(tmp_path, "scene")
    capsys.readouterr()

    def extract(out_name):
        out = tmp_path / out_name
        code, stdout, _ = run_cli(
            capsys, "extract", "--cloud", scene / "cloud.ply",
            "--cameras", scene / "cameras.json",
            "--segments", scene / "segments.json",
            "--out-dir", out, "--seed", "3",
        )
        assert code == 0
        return out, stdout

    out1, report = extract("run1")
    assert "patches: 2" in report
    assert (out1 / "report.txt").read_text() == report

    doc = io.load_patches(out1 / "patches.json")
    assert len(doc.patches) == 2
    _, labels, _ = io.load_cloud(out1 / "labeled.ply")
    for patch in doc.patches:
        assert np.all(labels[patch.members] == patch.id)
    assert np.all(labels[doc.unassigned] == -1)
    assigned = sum(len(p.members) for p in doc.patches)
    assert assigned + len(doc.unassigned) == len(labels)

    out2, _ = extract("run2")
    for name in ("patches.json", "labeled.ply", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    code, table, _ = run_cli(
        capsys, "eval", "--gt", scene / "gt.json", "--patches", out1 / "patches.json",
    )
    assert code == 0
    row = table.splitlines()[1].split()
    assert row[0] == "two-plane:3:1000:0.001"
    assert int(row[1]) == 2
    assert float(row[3]) < 1e-2
    assert float(row[4]) <= 0.1


def test_cli_extract_writes_the_same_files_from_an_ascii_cloud_and_its_binary_copy(tmp_path, capsys):
    # synth writes "%.17g", so the ASCII input's reused row text is what the
    # binary input's floats format to
    scene = synth_dir(tmp_path, "scene", "--points-per-face", "500")
    cloud, labels, scene_id = io.load_cloud(scene / "cloud.ply")
    binary = tmp_path / "binary.ply"
    io.save_cloud(binary, cloud, labels, scene_id, binary=True)
    outs = []
    for source in (scene / "cloud.ply", binary):
        out = tmp_path / source.stem
        code, _, _ = run_cli(
            capsys, "extract", "--cloud", source,
            "--cameras", scene / "cameras.json",
            "--segments", scene / "segments.json",
            "--out-dir", out,
        )
        assert code == 0
        outs.append(out)
    for name in ("patches.json", "labeled.ply", "report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_extract_output_does_not_depend_on_the_seed(tmp_path, capsys):
    # --seed seeds scene generation only; on this scene a seeded uncertainty
    # estimate would move the last digits of the plane fits in patches.json
    scene = synth_dir(tmp_path, "scene", "--points-per-face", "500")
    outs = []
    for seed in ("0", "7"):
        out = tmp_path / f"seed{seed}"
        code, _, _ = run_cli(
            capsys, "extract", "--cloud", scene / "cloud.ply",
            "--cameras", scene / "cameras.json",
            "--segments", scene / "segments.json",
            "--out-dir", out, "--seed", seed,
        )
        assert code == 0
        outs.append(out)
    for name in ("patches.json", "labeled.ply", "report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_extract_rejects_empty_cloud(tmp_path, capsys):
    scene = synth_dir(tmp_path, "scene", "--points-per-face", "50")
    capsys.readouterr()
    empty = tmp_path / "empty.ply"
    empty.write_text(empty_ply_text())
    code, _, err = run_cli(
        capsys, "extract", "--cloud", empty,
        "--cameras", scene / "cameras.json",
        "--segments", scene / "segments.json",
        "--out-dir", tmp_path / "out",
    )
    assert code == 2
    assert "empty.ply" in err and "empty point cloud" in err


def test_cli_rejects_scene_id_mismatch(tmp_path, capsys):
    scene_a = synth_dir(tmp_path, "a", "--points-per-face", "50")
    out_b = tmp_path / "b"
    code = cli.main(
        ["synth", "--preset", "two-plane", "--points-per-face", "50",
         "--seed", "4", "--out-dir", str(out_b)]
    )
    assert code == 0
    capsys.readouterr()
    code, _, err = run_cli(
        capsys, "extract", "--cloud", scene_a / "cloud.ply",
        "--cameras", out_b / "cameras.json",
        "--segments", scene_a / "segments.json",
        "--out-dir", tmp_path / "out",
    )
    assert code == 2
    assert "scene_id mismatch" in err


def test_cli_eval_perfect_fixture_scores_zero(tmp_path, capsys):
    gt_path, patches_path, _ = perfect_fixture(tmp_path)
    code, table, _ = run_cli(capsys, "eval", "--gt", gt_path, "--patches", patches_path)
    assert code == 0
    row = table.splitlines()[1].split()
    assert row[0] == "hand-built"
    assert float(row[2]) <= 1e-12
    assert float(row[3]) <= 1e-12
    assert float(row[4]) == 0.0
    out_file = tmp_path / "metrics.txt"
    code, table, _ = run_cli(
        capsys, "eval", "--gt", gt_path, "--patches", patches_path, "--out", out_file,
    )
    assert code == 0
    assert out_file.read_text() == table


def test_cli_sweep_noise_writes_csv(tmp_path, capsys):
    out = tmp_path / "noise.csv"
    code, stdout, _ = run_cli(
        capsys, "sweep", "--axis", "noise", "--samples", "3",
        "--points-per-face", "1000", "--out", out,
    )
    assert code == 0
    assert "3 rows" in stdout
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [
            "sigma", "patches", "ssd_total", "ssd_avg", "class_error", "epochs", "error",
        ]
        rows = list(reader)
    assert len(rows) == 3
    sigmas = [float(r["sigma"]) for r in rows]
    assert sigmas == pytest.approx(list(np.geomspace(0.001, 0.5, 3)))
    assert rows[0]["error"] == ""
    assert int(rows[0]["patches"]) >= 1
    assert float(rows[0]["ssd_avg"]) < 1e-2
    assert float(rows[0]["class_error"]) <= 0.1


def test_cli_sweep_points_writes_csv(tmp_path, capsys):
    # both runtime axes: total points on two-plane, and random-planes face counts
    for axis, values in (("points", [2000, 4000]), ("patches", [2, 4])):
        out = tmp_path / f"{axis}.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--axis", axis, "--values", ",".join(map(str, values)), "--out", out,
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["axis"] for r in rows] == [axis, axis]
        assert [int(r["value"]) for r in rows] == values
        for row in rows:
            assert row["error"] == ""
            assert float(row["seconds"]) > 0.0
            assert int(row["patches"]) >= 1


def test_cli_sweep_thresholds_writes_grid_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--axis", "thresholds", "--samples", "2",
        "--points-per-face", "300", "--out", out,
    )
    assert code == 0
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [
            "log_threshold", "boundary_weight", "patches",
            "ssd_total", "ssd_avg", "class_error", "epochs", "error",
        ]
        rows = list(reader)
    assert len(rows) == 4
    assert [float(r["log_threshold"]) for r in rows] == [-35.0, -35.0, -5.0, -5.0]


@pytest.mark.parametrize("axis", ["noise", "thresholds"])
def test_cli_sweep_rejects_a_sample_count_below_one(tmp_path, capsys, axis):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "sweep", "--axis", axis, "--samples", "0", "--out", out)
    assert code == 2
    assert "--samples must be at least 1" in err
    assert not out.exists()


def test_cli_sweep_rejects_bad_values(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--axis", "points", "--values", "10,zero",
        "--out", tmp_path / "x.csv",
    )
    assert code == 2
    assert "comma-separated integers" in err


def test_cli_calibrate_fits_a_noise_model(tmp_path, capsys):
    scene = synth_dir(tmp_path, "scene", "--points-per-face", "200")
    capsys.readouterr()
    out = tmp_path / "calibrated.json"
    code, stdout, _ = run_cli(
        capsys, "calibrate", "--cloud", scene / "cloud.ply",
        "--cameras", scene / "cameras.json", "--out", out,
    )
    assert code == 0
    assert "noise model" in stdout
    rig, scene_id = io.load_cameras(out)
    assert scene_id == "two-plane:3:200:0.001"
    assert rig.noise_model is not None
    assert rig.noise_model.shape > 0 and rig.noise_model.scale > 0


def test_module_entry_point_prints_usage():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "stereopatch.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "extract" in proc.stdout and "synth" in proc.stdout


def test_importing_the_cli_leaves_scipy_spatial_and_optimize_unloaded(tmp_path):
    # Any scipy module adds memory and start-up time to every command (scipy.special
    # or scipy.ndimage alone about 0.35 s and 26 MB): the extraction benchmark's
    # peak_rss_mb would see it.  synth imports linear_sum_assignment inside
    # the one function that needs it, which only eval and sweep call.
    import subprocess
    import sys

    code = (
        "import sys, stereopatch.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "after_import = loaded()\n"
        "scene, out = sys.argv[1:]\n"
        "synth = ['synth', '--preset', 'path', '--points-per-face', '300', '--out-dir', scene]\n"
        "extract = ['extract', '--cloud', scene + '/cloud.ply', '--cameras', scene + '/cameras.json',\n"
        "           '--segments', scene + '/segments.json', '--out-dir', out]\n"
        "codes = [stereopatch.cli.main(synth), stereopatch.cli.main(extract)]\n"
        "print(codes, after_import, loaded())"
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "scene"), str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] [] []"
    assert (out / "patches.json").exists()


def test_an_extract_run_leaves_numpy_ma_unloaded(tmp_path):
    # np.median and np.unique import numpy.ma (about 14 ms) on their first
    # call, which every extract process would pay
    import subprocess
    import sys

    scene = tmp_path / "scene"
    assert cli.main(["synth", "--preset", "path", "--points-per-face", "300", "--out-dir", str(scene)]) == 0
    code = (
        "import sys, stereopatch.cli\n"
        "scene, out = sys.argv[1:]\n"
        "extract = ['extract', '--cloud', scene + '/cloud.ply', '--cameras', scene + '/cameras.json',\n"
        "           '--segments', scene + '/segments.json', '--out-dir', out]\n"
        "print(stereopatch.cli.main(extract), 'numpy.ma' in sys.modules)"
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(scene), str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert "patches: 3" in proc.stdout
