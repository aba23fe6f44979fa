"""Spans around calls into capunfold's modules, recorded from outside.

:class:`Tracer` replaces a function's name in the namespace of the module
that calls it with a wrapper that records a span: the layer's name, start
and end on ``time.perf_counter``, the span that was open when it began,
and the operation it belongs to.  A layer's self time is its span minus
the child spans inside it, so the self times of one operation add up to
that operation's span.  Some wrappers also record counts taken from the
call's arguments or result, and some record the peak of memory that
``tracemalloc`` sees allocated inside the call.

Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from pathlib import Path


def _waterfall_counts(args, result):
    return {"strips.paths": sum(len(p) for p in result.paths.values()),
            "strips.count": len(result.strips)}


def _overlap_counts(args, result):
    return {"develop.overlap.faces": len(args[0].placed)}


# (calling module, name in its namespace, layer, options).  Every public
# function that capunfold.pipeline and capunfold.cli call is here, plus
# develop.left_of, so that the left_of calls inside banks_ordered are seen,
# and meshio.ConvexCap, which load_off builds the cap with.
TARGETS = [
    ("capunfold.pipeline", "validate_cap", "mesh.validate", {}),
    ("capunfold.pipeline", "compute_metrics", "mesh.metrics", {}),
    ("capunfold.pipeline", "choose_origin", "forest.origin", {}),
    ("capunfold.pipeline", "build_forest", "forest.build", {}),
    ("capunfold.pipeline", "verify_forest", "forest.verify", {}),
    ("capunfold.pipeline", "layout_net", "develop.layout", {"peak": True}),
    ("capunfold.pipeline", "net_congruent", "develop.congruent", {}),
    ("capunfold.pipeline", "turn_distortion", "develop.turn", {}),
    ("capunfold.pipeline", "develop_chain", "develop.chain", {"calls": True}),
    ("capunfold.pipeline", "banks_ordered", "develop.banks", {"calls": True}),
    ("capunfold.pipeline", "left_of", "monotone.left_of", {"calls": True}),
    ("capunfold.develop", "left_of", "monotone.left_of", {"calls": True}),
    ("capunfold.pipeline", "waterfall_strips", "strips.waterfall",
     {"peak": True, "counts": _waterfall_counts}),
    ("capunfold.pipeline", "strip_certificates", "strips.certificates", {}),
    ("capunfold.pipeline", "check_overlap", "develop.overlap",
     {"peak": True, "counts": _overlap_counts}),
    ("capunfold.pipeline", "rasterize_overlap_oracle", "develop.raster", {}),
    ("capunfold.cli", "cut_and_unfold", "pipeline.self", {}),
    ("capunfold.cli", "load_mesh", "meshio.load", {}),
    ("capunfold.cli", "save_mesh", "meshio.save", {}),
    ("capunfold.cli", "render_net_svg", "svgout.net_svg", {}),
    ("capunfold.cli", "render_forest_svg", "svgout.forest_svg", {}),
    ("capunfold.cli", "validate_cap", "mesh.validate", {}),
    ("capunfold.cli", "compute_metrics", "mesh.metrics", {}),
    ("capunfold.cli", "generate_budget_cap", "generate.cap", {}),
    ("capunfold.cli", "generate_cap", "generate.cap", {}),
    ("capunfold.meshio", "ConvexCap", "mesh.build", {}),
]


class Tracer:
    """Records spans; with ``memory=True`` also, for the layers that ask
    for it, the peak of memory allocated inside the call, by tracing
    allocations only while that call runs (so such a layer must not
    contain another one)."""

    def __init__(self, memory: bool = True):
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._op: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str, peak: bool) -> dict:
        span = {"name": name, "op": self._op, "id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "child_s": 0.0, "counts": {}}
        self.spans.append(span)
        self._stack.append(span)
        if peak and self.memory:
            tracemalloc.start()
            span["peak"] = True
        span["start"] = time.perf_counter()
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if span.pop("peak", False):
            span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        self._stack.pop()
        dur = span["end"] - span["start"]
        span["self_s"] = dur - span["child_s"]
        if self._stack:
            self._stack[-1]["child_s"] += dur

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self._run(name, fn, args, kwargs)

    def _run(self, name, fn, args, kwargs, peak=False, counts=None,
             calls=False):
        span = self._begin(name, peak)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._end(span)
        if calls:
            span["counts"][name + ".calls"] = 1
        if counts is not None:
            span["counts"].update(counts(args, result))
        return result

    def operation(self, op: int, fn, *args, **kwargs):
        """Run one benchmark operation as a root span; its self time is
        ``bench.self``."""
        self._op = op
        try:
            return self._run("bench.self", fn, args, kwargs)
        finally:
            self._op = None

    # -- installing wrappers ----------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, layer, opts in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(original, layer, opts))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _wrapper(self, fn, layer: str, opts: dict):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(layer, fn, args, kwargs, **opts)
        return traced

    # -- results -----------------------------------------------------------

    def op_totals(self) -> dict[int, float]:
        return {s["op"]: s["end"] - s["start"] for s in self.spans
                if s["parent"] is None and s["op"] is not None}

    def self_time_gap(self) -> float:
        """Largest difference, over operations, between the sum of their
        spans' self times and the operation's own span."""
        sums: dict[int, float] = {}
        for s in self.spans:
            if s["op"] is not None:
                sums[s["op"]] = sums.get(s["op"], 0.0) + s["self_s"]
        return max((abs(sums[op] - total)
                    for op, total in self.op_totals().items()), default=0.0)

    def per_op_metrics(self) -> dict[str, float]:
        """Per-operation means over the run: ``<layer>_s`` self times,
        ``<layer>_peak_mb`` peaks and counts.  ``bench.op_s`` is the traced
        time of one operation and ``bench.self_s`` the part of it outside
        every layer.  Layers outside operations (``generate``) are means
        per call."""
        n_ops = len(self.op_totals())
        sums: dict[str, float] = {}
        setup_calls: dict[str, int] = {}
        for s in self.spans:
            key = s["name"] + "_s"
            sums[key] = sums.get(key, 0.0) + s["self_s"]
            if s["op"] is None:
                setup_calls[key] = setup_calls.get(key, 0) + 1
            if "peak_mb" in s:
                key = s["name"] + "_peak_mb"
                sums[key] = sums.get(key, 0.0) + s["peak_mb"]
            for k, v in s["counts"].items():
                sums[k] = sums.get(k, 0.0) + v
        out = {k: v / setup_calls.get(k, n_ops or 1) for k, v in sums.items()}
        out["bench.op_s"] = sum(self.op_totals().values()) / (n_ops or 1)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n")
