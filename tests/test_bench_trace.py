"""The benchmark tracer's contract with the package functions it wraps.

``extractbench/spans.py`` wraps the stage functions by name and reads
counts from their arguments, so a renamed function or a changed signature
would only surface in a traced benchmark run; its scorer reads the output
files, so a changed file format would too.  This test runs and scores one
small traced extraction instead.
"""

import importlib
import time
from pathlib import Path

from stereopatch import cli

BENCH = Path(__file__).resolve().parents[1] / "extractbench"


def test_traced_extract_records_work_in_every_always_nonzero_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    run = importlib.import_module("run")
    scene = tmp_path / "scene"
    synth_argv = ["synth", "--preset", "path", "--points-per-face", "300", "--out-dir", str(scene)]
    assert cli.main(synth_argv) == 0
    extract_argv = [
        "extract",
        "--cloud", str(scene / "cloud.ply"),
        "--cameras", str(scene / "cameras.json"),
        "--segments", str(scene / "segments.json"),
        "--out-dir", str(tmp_path / "out"),
    ]
    tracer = spans.Tracer()
    with tracer.installed():
        start = time.perf_counter()
        code = cli.main(extract_argv)
        wall = time.perf_counter() - start
    assert code == 0
    metrics, _ = tracer.layer_metrics(wall)
    assert [name for name in run.ALWAYS_NONZERO if not metrics[name] > 0] == []
    # the scorer reads the extraction's files as the benchmark does, and
    # raises on a format it cannot read or an out-of-range result
    scores = run.Scorer(scene).score(tmp_path / "out")
    assert scores["class_error"] <= 0.05
