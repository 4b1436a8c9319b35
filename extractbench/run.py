"""Extraction benchmark: times `stereopatch extract` on pinned synthetic scenes.

Run from the root of a checkout:

    python3 extractbench/run.py --workload two-plane-1k --seed 0 --seconds 20 --trace 0

Set-up generates the workload's scene and writes its four files the way
`stereopatch synth` does, in a fresh interpreter each time, so that set-up
time includes the package import.  One operation is one `stereopatch extract`
run on those files, in this process through `stereopatch.cli.main`.
Operations repeat, one after another, until `--seconds` of them have been
timed.  Every operation's output is checked and scored against the ground
truth outside the timed window.

`--seed` is the extract command's `--seed`, which seeds the Monte-Carlo
triangulation-uncertainty draws; the scene itself is pinned by
`--scene-seed` (default 0), because scene geometry moves the accuracy and
the cost of a run far more than run-to-run noise does.

With `--trace 1` one more operation runs with every public function of the
stage modules wrapped (see spans.py), and the run reports per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full result, with the
environment, output hashes and the per-function span summary, goes to
`extractbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as stdio
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One BLAS/OpenMP thread: the load comes from a single process, and a pool
# sized to the machine would make timings depend on what else runs on it.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

PIXEL_NOISE = 0.001
SETUP_REPEATS = 5
SCENE_FILES = ("cloud.ply", "cameras.json", "segments.json", "gt.json")

# Per-layer metrics that count work every extraction does; zero means a
# wrap failed to take, not that the layer was idle.
ALWAYS_NONZERO = (
    "io.load_s",
    "io.save_s",
    "io.bytes_written",
    "pipeline.run_pipeline_s",
    "pipeline.verify_s",
    "stereo.prepare_s",
    "stereo.attach_uncertainty_s",
    "stereo.calibrate_s",
    "stereo.project_many_calls",
    "stereo.projected_points",
    "seeding.seed_all_s",
    "seeding.seeds_kept",
    "seeding.seed_members",
    "growing.grow_s",
    "growing.classify_calls",
    "growing.classify_s",
    "growing.points_classified",
    "growing.patch_evals",
    "growing.accept_calls",
    "growing.accept_s",
    "growing.accepted",
    "growing.epochs",
    "growing.member_rows",
    "geometry.update_hull_calls",
    "geometry.update_hull_s",
    "distributions.gamma_mle_calls",
    "distributions.gamma_mle_s",
    "distributions.gamma_samples",
    "refinement.refine_s",
    "refinement.patches_in",
    "refinement.patches_out",
)

# name -> (preset, points per face, per-layer metrics this workload must
# exercise beyond ALWAYS_NONZERO); why each was chosen is in BENCHMARK.json
WORKLOADS = {
    "two-plane-1k": (
        "two-plane",
        1000,
        ("geometry.chain_points", "geometry.monotone_chain_s"),
    ),
    "chessboard-500": (
        "chessboard",
        500,
        ("growing.requeued", "geometry.chain_points", "geometry.hull_pair_tests"),
    ),
    "random-planes-16": ("random-planes-16", 400, ("geometry.chain_points",)),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="seed of the extract command")
    parser.add_argument("--seconds", type=float, help="timed seconds of operations per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="1: report per-layer metrics")
    parser.add_argument("--scene-seed", type=int, default=0, help="seed of the generated scene")
    # set-up worker mode: generate the scene into DIR and print its set-up time
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_into is None:
        missing = [f"--{k}" for k in ("seed", "seconds", "trace") if getattr(args, k) is None]
        if missing:
            parser.error(f"required: {', '.join(missing)}")
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
    return args


def synth_argv(workload: str, scene_seed: int, out_dir: Path) -> list[str]:
    preset, points_per_face = WORKLOADS[workload][:2]
    return [
        "synth",
        "--preset", preset,
        "--points-per-face", str(points_per_face),
        "--noise", repr(PIXEL_NOISE),
        "--seed", str(scene_seed),
        "--out-dir", str(out_dir),
    ]


def setup_worker(workload: str, scene_seed: int, out_dir: Path) -> int:
    """Import the package, generate the scene and write its files, timed."""
    t0 = time.perf_counter()
    from stereopatch import cli

    with contextlib.redirect_stdout(stdio.StringIO()):
        code = cli.main(synth_argv(workload, scene_seed, out_dir))
    elapsed = time.perf_counter() - t0
    print(json.dumps({"code": code, "setup_s": elapsed}))
    return code


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def set_up(workload: str, scene_seed: int, work: Path) -> tuple[Path, list[float]]:
    """Run the set-up worker SETUP_REPEATS times; every copy must be identical."""
    times = []
    digests = set()
    for k in range(SETUP_REPEATS):
        scene = work / f"scene{k}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--scene-seed", str(scene_seed), "--setup-into", str(scene)],
            capture_output=True, text=True, timeout=120,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(float(json.loads(lines[-1])["setup_s"]))
        digests.add(tuple(sha256(scene / name) for name in SCENE_FILES))
    if len(digests) != 1:
        raise RuntimeError("set-up wrote different scene files on repeated runs")
    return work / "scene0", times


def extract_argv(scene: Path, out_dir: Path, seed: int) -> list[str]:
    return [
        "extract",
        "--cloud", str(scene / "cloud.ply"),
        "--cameras", str(scene / "cameras.json"),
        "--segments", str(scene / "segments.json"),
        "--out-dir", str(out_dir),
        "--seed", str(seed),
    ]


def run_extract(cli, argv: list[str]) -> tuple[float, str | None]:
    """One timed operation: (wall seconds, failure text or None)."""
    sink = stdio.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception:
        return time.perf_counter() - t0, traceback.format_exc()
    elapsed = time.perf_counter() - t0
    return elapsed, None if code == 0 else f"extract exited with code {code}"


class Scorer:
    """Checks an extraction's files and scores them as `stereopatch eval` does."""

    def __init__(self, scene: Path) -> None:
        from stereopatch import io

        self.gt = io.load_ground_truth(scene / "gt.json")
        cloud, _, self.scene_id = io.load_cloud(scene / "cloud.ply")
        self.positions = cloud.positions

    def score(self, out_dir: Path) -> dict:
        """Scores and hashes; raises ValueError on an invalid extraction."""
        import numpy as np
        from stereopatch import io, synth

        doc = io.load_patches(out_dir / "patches.json")
        labeled, labels, scene_id = io.load_cloud(out_dir / "labeled.ply")
        if scene_id != self.scene_id or doc.scene_id != self.gt.scene_id:
            raise ValueError("outputs carry the wrong scene id")
        if not np.array_equal(labeled.positions, self.positions):
            raise ValueError("labeled cloud positions differ from the input cloud")
        assigned = np.full(len(self.positions), -1)
        for patch in doc.patches:
            members = np.asarray(patch.members, dtype=int)
            if len(members) < 3 or np.any(assigned[members] >= 0):
                raise ValueError(f"patch {patch.id}: too few members, or members shared")
            assigned[members] = patch.id
        if not np.array_equal(assigned, labels):
            raise ValueError("labeled cloud disagrees with patch membership")
        if sorted(doc.unassigned) != np.flatnonzero(assigned < 0).tolist():
            raise ValueError("unassigned list disagrees with patch membership")
        report = synth.ssd_error(self.gt, doc.patches)
        class_error = synth.classification_error(self.gt, doc.patches)
        # sanity gate against degenerate output: criterion 2's SSD bound and
        # a class error below one half; the values themselves are metrics
        if not (report.matched >= 1 and report.avg <= 1e-4 and class_error < 0.5):
            raise ValueError(
                f"extraction out of range: ssd_avg {report.avg!r}, class_error {class_error!r}"
            )
        return {
            "patches": len(doc.patches),
            "class_error": class_error,
            "ssd_avg": report.avg,
            "patches_sha256": sha256(out_dir / "patches.json"),
            "labeled_sha256": sha256(out_dir / "labeled.ply"),
        }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "stereopatch").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def check_hash_record(key: str, outputs: dict) -> str | None:
    """Compare with the outputs an earlier run in this checkout recorded."""
    path = OUT / "hashes.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    earlier = record.get(key)
    if earlier is not None:
        return None if earlier == outputs else f"outputs differ from an earlier run: {earlier}"
    record[key] = outputs
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    scene, setup_times = set_up(args.workload, args.scene_seed, work)

    sys.path.insert(0, str(SRC))
    import stereopatch
    from stereopatch import cli

    if not Path(stereopatch.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported stereopatch from {stereopatch.__file__}, not {SRC}")

    # warm-up on a small scene that extracts in about a second: lazy imports
    # and first-call costs stay out of the timing; its result is not used
    warm = work / "warm"
    with contextlib.redirect_stdout(stdio.StringIO()):
        cli.main(["synth", "--preset", "path", "--points-per-face", "300", "--out-dir", str(warm)])
    run_extract(cli, extract_argv(warm, warm / "out", 0))

    scorer = Scorer(scene)
    out_dir = work / "out"
    argv = extract_argv(scene, out_dir, args.seed)
    times: list[float] = []
    failures: list[str] = []
    scores: list[dict] = []
    attempted = 0
    spent = 0.0
    while spent < args.seconds:
        shutil.rmtree(out_dir, ignore_errors=True)
        attempted += 1
        elapsed, failure = run_extract(cli, argv)
        spent += elapsed
        if attempted == 1:
            # the peak grows a little with every later operation (the allocator
            # keeps freed memory), so take it where every run has reached
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if failure is None:
            try:
                scores.append(scorer.score(out_dir))
                times.append(elapsed)
                continue
            except ValueError as exc:
                failure = f"invalid output: {exc}"
        failures.append(failure)
        print(f"operation failed: {failure}", file=sys.stderr)
    if not scores:
        raise RuntimeError(f"all {attempted} operations failed")

    first = scores[0]
    outputs = {k: first[k] for k in ("patches_sha256", "labeled_sha256")}
    problems = []
    if any({k: s[k] for k in outputs} != outputs for s in scores):
        problems.append("outputs differ between repetitions in this run")
    env = environment()
    mismatch = check_hash_record(
        f"{args.workload}/scene{args.scene_seed}/seed{args.seed}/{env['source_sha256']}", outputs
    )
    if mismatch:
        problems.append(mismatch)
    extract_s = statistics.median(times)
    result = {
        "workload": args.workload,
        "scene_seed": args.scene_seed,
        "seed": args.seed,
        "points": len(scorer.positions),
        "patches": first["patches"],
        "class_error": first["class_error"],
        "ssd_avg": first["ssd_avg"],
        "samples": len(times),
        "extract_s_all": times,
        "setup_s_all": setup_times,
        "failures": failures,
        "outputs": outputs,
        "environment": env,
        "problems": problems,
    }
    if args.trace:
        metrics = trace_run(cli, scene, scorer, args, work, extract_s, result)
    else:
        metrics = {
            "extract_s": metric(extract_s, "s"),
            "points_per_s": metric(len(scorer.positions) / extract_s, "points/s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "class_error": metric(first["class_error"], "fraction"),
            "ssd_avg": metric(first["ssd_avg"], "ssd"),
            "ok_frac": metric(len(times) / attempted, "fraction"),
        }
    result["metrics"] = metrics
    summary = {
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, summary


def trace_run(cli, scene: Path, scorer: Scorer, args, work: Path, extract_s: float, result: dict) -> dict:
    """One traced operation; returns the per-layer metrics and records problems in result."""
    tracer = Tracer()
    out_dir = work / "traced"
    with tracer.installed():
        origin = time.perf_counter()
        wall, failure = run_extract(cli, extract_argv(scene, out_dir, args.seed))
    if failure is not None:
        raise RuntimeError(f"traced operation failed: {failure}")
    traced = scorer.score(out_dir)
    outputs = result["outputs"]
    if {k: traced[k] for k in outputs} != outputs:
        result["problems"].append("traced outputs differ from untraced outputs")

    layer, result["per_function"] = tracer.layer_metrics(wall)
    layer["trace.overhead_s"] = wall - extract_s
    layer["trace.overhead_frac"] = (wall - extract_s) / extract_s
    zero = [name for name in ALWAYS_NONZERO + WORKLOADS[args.workload][2] if not layer[name]]
    if zero:
        result["problems"].append(f"zero work recorded where the workload must do some: {zero}")
    tracer.dump(OUT / f"spans-{args.workload}-scene{args.scene_seed}-seed{args.seed}.json", origin)
    return {name: metric(value, unit_of(name)) for name, value in sorted(layer.items())}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", ".share")):
        return "fraction"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    if not (SRC / "stereopatch" / "__init__.py").is_file():
        print(f"error: no stereopatch sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_into is not None:
        sys.path.insert(0, str(SRC))
        return setup_worker(args.workload, args.scene_seed, Path(args.setup_into))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result, summary = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-scene{args.scene_seed}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"workload {args.workload}: {result['points']} points, scene seed {args.scene_seed}, seed {args.seed}")
    print(
        f"extract_s: median of {result['samples']} samples "
        f"(no tail percentile: fewer than ten samples lie beyond any)"
    )
    print(f"failed_frac: {summary['failed']}/{summary['attempted']}")
    print(f"outputs: {json.dumps(result['outputs'])}")
    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
