"""End-to-end cut-and-unfold pipeline with one table of certificates.

Stages: validate -> metrics -> forest -> develop -> strips -> certify ->
overlap; a failure in one raises a :class:`PipelineError` naming it.  Each
check is one row ``(key, holds, is_error, message)``, in pipeline order.
The paper's certificates are theorems within the tilt budget, so they fail
as errors there and as warnings over it, where a clean net is only
empirically clean.  :func:`cut_and_unfold` alone turns the rows into the
``certificates`` map, ``errors``, ``warnings`` and ``status``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .develop import (
    Net,
    banks_ordered,
    check_overlap,
    develop_chain,
    layout_net,
    net_congruent,
    path_turns,
    rasterize_overlap_oracle,
    turn_distortion,
)
from .forest import SpanningForest, build_forest, choose_origin, verify_forest
from .geom import direction_spreads, normalize_angle
from .mesh import ConvexCap, compute_metrics, validate_cap
from .monotone import left_of
from .strips import StripSystem, strip_certificates, waterfall_strips

SCHEMA_VERSION = "3"


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class UnfoldResult:
    cap: ConvexCap
    forest: SpanningForest
    strips: StripSystem
    net: Net
    diagnostics: dict

    @property
    def clean(self) -> bool:
        return self.diagnostics["overlap"]["clean"]

    @property
    def proven(self) -> bool:
        return self.diagnostics["status"] == "proven_clean"


def cut_and_unfold(cap: ConvexCap, origin_mode: str = "central",
                   rasterize: bool = False) -> UnfoldResult:
    diag: dict = {"schema_version": SCHEMA_VERSION}

    # a failure in any stage is re-raised as a PipelineError naming it
    stage = "validate"
    try:
        _validate(cap)
        stage = "metrics"
        metrics, rows = _metrics(cap, diag)
        stage = "forest"
        forest = _forest(cap, origin_mode, diag, metrics)
        stage = "develop"
        net = layout_net(cap, forest)
        stage = "strips"
        strips = waterfall_strips(cap, forest)
        stage = "certify"
        rows += _certify(cap, forest, strips, net, diag, metrics)
        stage = "overlap"
        report = check_overlap(net)
    except Exception as exc:
        raise PipelineError(stage, str(exc)) from exc

    diag["overlap"] = {
        "clean": report.clean,
        "pairs": [list(p) for p in report.pairs[:20]],
        "pair_count": len(report.pairs),
    }
    if rasterize:
        diag["overlap"]["raster_oracle_overlap"] = rasterize_overlap_oracle(net)

    # the one place where verdicts become errors, warnings and the status
    diag["certificates"] = {key: holds for key, holds, _, _ in rows}
    failed = [(error, msg) for _, holds, error, msg in rows if not holds]
    diag["errors"] = [msg for error, msg in failed if error]
    diag["warnings"] = [msg for error, msg in failed if not error]
    if not report.clean:
        diag["errors"].append(f"net has {len(report.pairs)} overlapping pairs")
    diag["status"] = (
        "overlap" if not report.clean
        else "certificate_failed" if diag["errors"]
        else "proven_clean" if not diag["warnings"] else "empirical_clean")
    return UnfoldResult(cap=cap, forest=forest, strips=strips, net=net,
                        diagnostics=diag)


def _validate(cap: ConvexCap):
    problems = validate_cap(cap)
    if problems:
        raise RuntimeError("; ".join(problems))


def _metrics(cap: ConvexCap, diag: dict):
    m = compute_metrics(cap)
    # rim angle comparison: surface angle >= projected angle at each rim vertex
    psi, psi_p = cap.rim_angles()
    diag["metrics"] = {
        "n_vertices": cap.n_vertices,
        "n_triangles": cap.n_triangles,
        "phi_actual": m.phi_actual,
        "alpha": m.alpha,
        "alpha_planar": m.alpha_planar,
        "omega_total": m.omega_total,
        "omega_bound": m.omega_bound,
        "delta_perp_max": m.delta_perp_max,
        "phi_budget": m.phi_budget,
        "rim_angle_worst_violation": max(0.0, float((psi_p - psi).max())),
    }
    return m, [
        ("within_budget", m.within_budget, False,
         f"tilt {math.degrees(m.phi_actual):.3f} deg exceeds budget "
         f"{math.degrees(m.phi_budget):.3f} deg; certificates are empirical"),
        ("rim_angle_ok", not (psi + 1e-9 < psi_p).any(), False,
         "projected rim angle exceeds surface angle"),
    ]


def _forest(cap: ConvexCap, origin_mode: str, diag: dict, metrics):
    qs = choose_origin(cap, origin_mode, theta=metrics.theta)
    forest = build_forest(cap, qs)
    violations = verify_forest(cap, forest)
    diag["forest"] = {
        "origin": int(forest.system.origin),
        "origin_mode": origin_mode,
        "theta": forest.system.theta,
        "gap_direction": normalize_angle(forest.system.gap_direction),
        "axis_rotation": forest.system.axis_rotation,
        "n_trees": len(forest.tree_starts),
        "n_leaves": len(forest.leaves),
        "violations": violations,
    }
    if violations:
        raise RuntimeError("forest verification failed: " + "; ".join(violations))
    return forest


def _certify(cap: ConvexCap, forest: SpanningForest, strips: StripSystem,
             net: Net, diag: dict, m) -> list:
    """Rows of the net, leaf paths, trees and waterfall paths."""
    # leaf-path certificates, every path at once over the forest table: a
    # pair that breaks a precondition of left_of reads None and fails the
    # *_monotone row, a pair seen out of order (False, r) the *_ordered row
    bound = 3 * m.delta_perp_max + 2 * m.omega_total
    turns = path_turns(cap, forest)
    max_dq = turn_distortion(forest, turns)
    chains = left_of(*develop_chain(cap, forest, turns), forest.path_offsets)
    banks = banks_ordered(cap, net, forest)
    diag["paths"] = {"max_turn_distortion": max_dq,
                     "turn_distortion_bound": bound}

    # per-tree layout preconditions: the curvature each tree encloses and
    # its cone of edge directions, child to parent
    curvs = forest.tree_curvatures(cap)
    spreads = direction_spreads(forest.directions[forest.tree_order],
                                forest.tree_starts)
    diag["trees"] = {"max_curvature": max(curvs, default=0.0),
                     "max_direction_spread": float(spreads.max(initial=0.0))}

    theorem = m.within_budget
    return [
        ("net_congruent", net_congruent(cap, net), True,
         "net placement not congruent to the surface"),
        ("within_distortion_bound", max_dq <= bound + 1e-9, theorem,
         "turn distortion exceeds 3*delta_perp + 2*omega"),
        ("chains_monotone", None not in chains, theorem,
         "developed chains not radially monotone on some path"),
        ("chains_ordered", all(v is None or v[0] for v in chains), theorem,
         "left development not left of right development on some path"),
        ("banks_monotone", None not in banks, theorem,
         "cut banks not radially monotone from a shared leaf image on some "
         "leaf path"),
        ("banks_ordered", all(v is None or v[0] for v in banks), theorem,
         "cut banks out of order on some leaf path"),
        ("curvature_below_pi", all(c < math.pi for c in curvs), False,
         "a tree encloses curvature >= pi"),
        ("spread_below_pi", bool((spreads < math.pi).all()), False,
         "a tree's direction cone >= pi"),
        *strip_certificates(strips),
    ]
