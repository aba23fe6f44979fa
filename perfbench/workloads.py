"""Workloads of the cold-cap benchmark: inputs, the operation, its checks.

One operation unfolds one cap from scratch.  ``ConvexCap`` caches vertex
fans and ``develop`` caches face frames on the cap object, so every
operation builds a fresh cap from the generated arrays; a user who loads a
file always pays this cold cost.

The program is imported from the checkout's ``src`` directory, which
``run.py`` puts on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checker
from capunfold import cli
from capunfold.generate import generate_budget_cap, generate_cap
from capunfold.mesh import ConvexCap
from capunfold.meshio import save_mesh
from capunfold.pipeline import cut_and_unfold

cli_main = cli.main


@dataclass(frozen=True)
class Spec:
    index: int            # mixed into the run seed, so workloads differ
    n: int                # vertex count asked of the generator
    cap_seeds: tuple[int, ...]     # generator seeds; one round of caps
    size: tuple[int, int]  # (vertices, triangles) the generator gives
    phi_deg: float | None = None   # None: tilt at 0.9 of the cap's budget
    files: bool = False   # operation is `capunfold unfold` on an OFF file
    warmup_n: int | None = None    # warm up on a smaller cap of this size

    @property
    def regime(self) -> str:
        return "budget" if self.phi_deg is None else "steep"

    @property
    def origin_mode(self) -> str:
        return "closest_to_boundary" if self.files else "central"


WORKLOADS = {
    # per-cap fixed costs, forest growth and per-leaf certificates
    "suite-budget": Spec(index=1, n=200, cap_seeds=tuple(range(20)),
                         size=(217, 384)),
    # dense overlap prefilter and per-face waterfall interpolation.  One
    # shape: a run has about three samples, and with several shapes, whose
    # times differ by some 15%, noise decides which one is the median.  The
    # warm-up uses a 200-vertex cap because one 5000-vertex operation takes
    # seconds and the set-up is repeated
    "large-net": Spec(index=2, n=5000, cap_seeds=(0,),
                      size=(4921, 9600), warmup_n=200),
    # over-budget warning path, off-centre origin, OFF/OBJ/SVG/JSON files
    "files-steep": Spec(index=3, n=500, cap_seeds=tuple(range(10)),
                        size=(469, 864), phi_deg=33.0, files=True),
}


@dataclass
class Input:
    vertices: np.ndarray
    triangles: np.ndarray
    off: Path | None = None
    out_dir: Path | None = None


@dataclass
class Outcome:
    failed: bool
    result: object = None      # UnfoldResult of the operation
    exit_code: int | None = None
    status: str | None = None


def quarter_turn(vertices, k: int):
    """The same cap turned by ``k`` quarter turns about the z axis; exact,
    since a quarter turn only swaps coordinates and signs."""
    V = vertices.copy()
    for _ in range(k % 4):
        V[:, 0], V[:, 1] = -V[:, 1], V[:, 0].copy()
    return V


def generate(spec: Spec, cap_seed: int, n: int | None = None,
             call=None) -> ConvexCap:
    """Generate one cap; ``call(name, fn, *args, **kwargs)`` may wrap the
    generator in a span."""
    call = call or (lambda _name, fn, *a, **k: fn(*a, **k))
    if spec.phi_deg is None:
        return call("generate.cap", generate_budget_cap, n or spec.n,
                    seed=cap_seed)
    return call("generate.cap", generate_cap, n or spec.n,
                phi=math.radians(spec.phi_deg), seed=cap_seed)


def make_inputs(spec: Spec, seed: int, work: Path, call=None) -> list[Input]:
    """Generate (the generator validates) the workload's caps, each turned
    by a number of quarter turns drawn from the run seed; for file
    workloads also write each as OFF."""
    rng = np.random.default_rng([seed, spec.index])
    inputs = []
    for i, cap_seed in enumerate(spec.cap_seeds):
        cap = generate(spec, cap_seed, call=call)
        if (cap.n_vertices, cap.n_triangles) != spec.size:
            raise RuntimeError(
                f"cap seed {cap_seed} gave {cap.n_vertices} vertices and "
                f"{cap.n_triangles} triangles, expected {spec.size}")
        inp = Input(quarter_turn(cap.vertices, rng.integers(4)),
                    cap.triangles.copy())
        if spec.files:
            work.mkdir(parents=True, exist_ok=True)
            inp.off = work / f"cap-{i}.off"
            inp.out_dir = work / f"out-{i}"
            save_mesh(inp.off, ConvexCap(inp.vertices, inp.triangles))
        inputs.append(inp)
    return inputs


def warmup_input(spec: Spec, inputs: list[Input]) -> Input:
    if spec.warmup_n is None:
        return inputs[0]
    cap = generate(spec, spec.cap_seeds[0], n=spec.warmup_n)
    return Input(cap.vertices, cap.triangles)


class _Capture:
    """Pass-through around ``cli.cut_and_unfold`` that keeps the last
    result, so the checker sees the net a CLI operation made."""

    def __init__(self, fn):
        self.fn = fn
        self.result = None

    def __call__(self, *args, **kwargs):
        self.result = self.fn(*args, **kwargs)
        return self.result


def capture_cli_results() -> _Capture:
    """Put a :class:`_Capture` in ``cli``'s namespace; call once per
    process, before any tracer wraps the name."""
    cli.cut_and_unfold = _Capture(cli.cut_and_unfold)
    return cli.cut_and_unfold


def unfold_arrays(vertices, triangles, origin_mode):
    """The library operation: build the cap, then cut and unfold it."""
    return cut_and_unfold(ConvexCap(vertices, triangles),
                          origin_mode=origin_mode)


def unfold_file(off: Path, out_dir: Path, origin_mode: str):
    """The CLI operation, in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["unfold", "--input", str(off), "--origin-mode",
                         origin_mode, "--out-dir", str(out_dir)])
    return code, out.getvalue()


def operation(spec: Spec, inp: Input, capture: _Capture | None,
              run=None) -> Outcome:
    """Run one operation; ``run(fn, *args)`` may wrap it in a span.  File
    workloads need the ``capture`` from :func:`capture_cli_results`.  An
    operation fails when it raises, or when the CLI reports an error
    instead of a status."""
    run = run or (lambda fn, *a: fn(*a))
    if not spec.files:
        result = run(unfold_arrays, inp.vertices, inp.triangles,
                     spec.origin_mode)
        return Outcome(False, result, status=result.diagnostics["status"])
    capture.result = None
    code, stdout = run(unfold_file, inp.off, inp.out_dir, spec.origin_mode)
    lines = stdout.strip().splitlines()
    status = json.loads(lines[-1]).get("status") if lines else None
    if status is None or capture.result is None:
        return Outcome(True, exit_code=code)
    return Outcome(False, capture.result, exit_code=code, status=status)


def check(spec: Spec, inp: Input, out: Outcome) -> list[str]:
    """Independent checks of one operation's outputs."""
    res = out.result
    problems = checker.check_result(
        inp.vertices, inp.triangles, res.net.placed, res.net.cut_edges,
        res.forest.parent, res.diagnostics, spec.regime)
    if out.status != res.diagnostics["status"]:
        problems.append(f"printed status {out.status!r} differs from the "
                        f"result's {res.diagnostics['status']!r}")
    if spec.files:
        problems += checker.check_artifacts(
            inp.out_dir, inp.vertices, inp.triangles, res.net.cut_edges,
            out.status, out.exit_code)
    return problems
