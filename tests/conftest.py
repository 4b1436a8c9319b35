"""Shared fixtures and the acceptance-criteria reporting hook.

Scene generation and full pipeline runs are expensive, so the canonical
test scenes are built once per session and shared; the pipeline treats the
prepared cloud as read-only apart from idempotent preparation, which makes
the sharing safe.
"""

import time
from types import SimpleNamespace

import pytest

from stereopatch import pipeline, synth


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, desc): marks a test as one acceptance criterion",
    )


_criteria = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, desc = marker.args
    if report.when == "call":
        _criteria[num] = (desc, report.passed)
    elif report.when == "setup" and report.failed:
        _criteria[num] = (desc, False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criteria):
        desc, passed = _criteria[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict} - {desc}")


def _build_scene(preset, points_per_face=1000, pixel_noise=0.001, seed=0):
    spec = synth.SceneSpec(preset, points_per_face, pixel_noise, seed)
    rig = synth.default_rig(spec.pixel_noise)
    cloud, gt, segments = synth.generate(spec, rig)
    return SimpleNamespace(
        spec=spec, rig=rig, cloud=cloud, gt=gt, segments=segments
    )


def _run(scene):
    cfg = pipeline.RunConfig().for_scene(scene.spec.scene_id)
    start = time.perf_counter()
    result = pipeline.run_pipeline(scene.cloud, scene.rig, scene.segments, cfg)
    seconds = time.perf_counter() - start
    return SimpleNamespace(
        **vars(scene), cfg=cfg, result=result, seconds=seconds
    )


@pytest.fixture(scope="session")
def two_plane_scene():
    return _build_scene("two-plane")


@pytest.fixture(scope="session")
def two_plane_run(two_plane_scene):
    return _run(two_plane_scene)


@pytest.fixture(scope="session")
def path_scene():
    return _build_scene("path")


@pytest.fixture(scope="session")
def path_run(path_scene):
    return _run(path_scene)


@pytest.fixture(scope="session")
def quiet_two_plane_scene():
    """Noiseless two-plane scene for exact-recovery tests."""
    return _build_scene("two-plane", pixel_noise=0.0)
