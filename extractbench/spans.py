"""Span recorder that wraps stereopatch's public functions from outside.

Every public module-level function of the eight stage modules is replaced by
a wrapper that records one span per call (function, parent span, start, end)
and, for a few functions, counts taken from the call's arguments and result.
A function bound into another module with ``from ... import`` is replaced
there as well (for example ``pipeline.grow`` and ``growing.gamma_mle``);
wrapping only the defining module would leave those calls uncounted.

Spans stay in memory; ``layer_metrics`` turns them into per-layer totals,
self times and counts, and ``dump`` writes them as JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("io", "pipeline", "stereo", "seeding", "growing", "geometry", "distributions", "refinement")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_saved_bytes(counts, args, kwargs, result, exc):
    if exc is None:
        counts["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_projected(counts, args, kwargs, result, exc):
    counts["stereo.projected_points"] += len(_arg(args, kwargs, 1, "points"))


def _count_seeds(counts, args, kwargs, result, exc):
    if exc is not None:
        return
    patches, _, rejections = result
    counts["seeding.seeds_kept"] += len(patches)
    counts["seeding.seed_members"] += sum(len(p.members) for p in patches)
    for rejection in rejections:
        # reasons are "sparse seed", "degenerate seed" and "duplicate seed"
        counts["seeding.rejected." + rejection.reason.split()[0]] += 1


def _count_classified(counts, args, kwargs, result, exc):
    if exc is not None:
        return
    n = len(result)
    counts["growing.points_classified"] += n
    counts["growing.patch_evals"] += n * len(_arg(args, kwargs, 0, "patches"))
    counts["growing.requeued"] += result.count(None)


def _count_accepted(counts, args, kwargs, result, exc):
    if exc is not None:
        return
    counts["growing.accepted"] += len(_arg(args, kwargs, 3, "indices"))
    counts["growing.member_rows"] += len(_arg(args, kwargs, 0, "patch").members)


def _count_grow(counts, args, kwargs, result, exc):
    if exc is None:
        counts["growing.epochs"] += result.epochs
        counts["growing.truncated"] += int(result.truncated)


def _count_chain(counts, args, kwargs, result, exc):
    counts["geometry.chain_points"] += len(_arg(args, kwargs, 0, "points2d"))


def _count_gamma(counts, args, kwargs, result, exc):
    counts["distributions.gamma_samples"] += len(_arg(args, kwargs, 0, "values"))
    if isinstance(exc, ValueError):
        counts["distributions.gamma_fallbacks"] += 1


def _count_refine(counts, args, kwargs, result, exc):
    counts["refinement.patches_in"] += len(_arg(args, kwargs, 0, "patches"))
    if exc is None:
        counts["refinement.patches_out"] += len(result)


HOOKS = {
    "io.save_cloud": _count_saved_bytes,
    "io.save_patches": _count_saved_bytes,
    "stereo.project_many": _count_projected,
    "seeding.seed_all": _count_seeds,
    "growing.classify_batch": _count_classified,
    "growing.accept": _count_accepted,
    "growing.grow": _count_grow,
    "geometry.monotone_chain": _count_chain,
    "distributions.gamma_mle": _count_gamma,
    "refinement.refine": _count_refine,
}

# counters that stay zero when the function never runs; listed so every
# per-layer metric is present in every traced result
COUNTERS = (
    "io.bytes_written",
    "stereo.projected_points",
    "seeding.seeds_kept",
    "seeding.rejected.sparse",
    "seeding.rejected.degenerate",
    "seeding.rejected.duplicate",
    "seeding.seed_members",
    "growing.points_classified",
    "growing.patch_evals",
    "growing.accepted",
    "growing.requeued",
    "growing.epochs",
    "growing.truncated",
    "growing.member_rows",
    "geometry.chain_points",
    "distributions.gamma_samples",
    "distributions.gamma_fallbacks",
    "refinement.patches_in",
    "refinement.patches_out",
)


class Tracer:
    """Records spans of wrapped stereopatch calls while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _wrap(self, qualname: str, func):
        k = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        fn, parent, start, end, stack, counts = (
            self.fn, self.parent, self.start, self.end, self._stack, self.counts
        )

        def wrapper(*args, **kwargs):
            idx = len(fn)
            fn.append(k)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(counts, args, kwargs, None, exc)
                raise
            end[idx] = perf_counter()
            stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result, None)
            return result

        return functools.wraps(func)(wrapper)

    @contextmanager
    def installed(self):
        """Replace every binding of each public stage function while active."""
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"stereopatch.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        patched = []
        modules = [m for n, m in sys.modules.items() if n == "stereopatch" or n.startswith("stereopatch.")]
        try:
            for mod in modules:
                for name, obj in list(vars(mod).items()):
                    hit = wrapped.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        patched.append((mod, name, obj))
                        setattr(mod, name, hit[1])
            yield self
        finally:
            for mod, name, obj in patched:
                setattr(mod, name, obj)

    def layer_metrics(self, wall_s: float) -> tuple[dict[str, float], dict[str, dict]]:
        """Per-layer metrics and a per-function summary of the recorded spans.

        ``wall_s`` is the traced operation's wall time; each layer's share is
        its self time over it, and ``trace.outside_s`` is the part of it spent
        outside every wrapped call (argument parsing, report formatting).
        """
        import numpy as np

        n_names = len(self.names)
        fn = np.asarray(self.fn, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(fn, minlength=n_names)
        total = np.bincount(fn, weights=dur, minlength=n_names)
        self_by = np.bincount(fn, weights=self_t, minlength=n_names)
        index = {name: k for k, name in enumerate(self.names)}

        def tot(name: str) -> float:
            return float(total[index[name]])

        def ncalls(name: str) -> int:
            return int(calls[index[name]])

        def prefixed(prefix: str) -> float:
            return float(sum(total[k] for name, k in index.items() if name.startswith(prefix)))

        c = self.counts
        build = index["geometry.build_hull"]
        update = index["geometry.update_hull"]
        rebuilds = int(np.count_nonzero((fn == build) & nested & (fn[np.maximum(parent, 0)] == update)))
        m: dict[str, float] = {name: c[name] for name in COUNTERS}
        m.update(
            {
                "io.load_s": prefixed("io.load_"),
                "io.save_s": prefixed("io.save_"),
                "pipeline.run_pipeline_s": tot("pipeline.run_pipeline"),
                "pipeline.verify_s": tot("pipeline.verify_extraction"),
                "stereo.prepare_s": tot("pipeline.prepare"),
                "stereo.attach_uncertainty_s": tot("stereo.attach_uncertainty"),
                "stereo.calibrate_s": tot("stereo.calibrate_noise_model"),
                "stereo.project_many_calls": ncalls("stereo.project_many"),
                "seeding.seed_all_s": tot("seeding.seed_all"),
                "growing.grow_s": tot("growing.grow"),
                "growing.classify_calls": ncalls("growing.classify_batch"),
                "growing.classify_s": tot("growing.classify_batch"),
                "growing.accept_calls": ncalls("growing.accept"),
                "growing.accept_s": tot("growing.accept"),
                "growing.accept_ratio": c["growing.accepted"] / max(c["growing.points_classified"], 1),
                "geometry.update_hull_calls": ncalls("geometry.update_hull"),
                "geometry.update_hull_s": tot("geometry.update_hull"),
                "geometry.hull_rebuilds": rebuilds,
                "geometry.rebuild_ratio": rebuilds / max(ncalls("geometry.update_hull"), 1),
                "geometry.monotone_chain_s": tot("geometry.monotone_chain"),
                "geometry.hull_pair_tests": ncalls("geometry.hull_hull_min_sq_dist"),
                "distributions.gamma_mle_calls": ncalls("distributions.gamma_mle"),
                "distributions.gamma_mle_s": tot("distributions.gamma_mle"),
                "refinement.refine_s": tot("refinement.refine"),
            }
        )
        for layer in LAYERS:
            layer_self = float(sum(self_by[k] for name, k in index.items() if name.split(".")[0] == layer))
            m[f"{layer}.self_s"] = layer_self
            m[f"{layer}.share"] = layer_self / wall_s
        m["trace.extract_s"] = wall_s
        m["trace.outside_s"] = wall_s - float(dur[~nested].sum())
        m["trace.spans"] = len(dur)
        per_function = {
            name: {"calls": int(calls[k]), "total_s": float(total[k]), "self_s": float(self_by[k])}
            for name, k in sorted(index.items())
            if calls[k]
        }
        return m, per_function

    def dump(self, path, origin: float) -> None:
        """Write the spans as JSON columns, times in ns from ``origin``."""
        doc = {
            "names": self.names,
            "fn": self.fn,
            "parent": self.parent,
            "start_ns": [round((t - origin) * 1e9) for t in self.start],
            "end_ns": [round((t - origin) * 1e9) for t in self.end],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
