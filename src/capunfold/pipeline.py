"""End-to-end cut-and-unfold pipeline with a full certificate bundle.

Composes: metrics -> origin choice -> spanning forest -> waterfall strips ->
development -> overlap check.  Every stage contributes certificates to a
JSON-serializable diagnostics dictionary; theorem-precondition failures
(e.g. tilt over budget) are warnings, not errors — the unfolding still runs
and the overlap verdict is reported as empirical rather than proven.
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

SCHEMA_VERSION = "2"


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
    diag: dict = {"schema_version": SCHEMA_VERSION, "warnings": [],
                  "errors": []}

    # a failure in any stage is re-raised as a PipelineError naming it
    stage = "validate"
    try:
        _validate(cap)
        stage = "metrics"
        metrics = _metrics(cap, diag)
        stage = "forest"
        forest = _forest(cap, origin_mode, diag, metrics)
        stage = "develop"
        net = layout_net(cap, forest)
        stage = "strips"
        strips = waterfall_strips(cap, forest)
        stage = "certify"
        _certify(cap, forest, strips, net, diag)
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
        "within_budget": m.phi_actual <= m.phi_budget + 1e-12,
    }
    if not diag["metrics"]["within_budget"]:
        diag["warnings"].append(
            f"tilt {math.degrees(m.phi_actual):.3f} deg exceeds budget "
            f"{math.degrees(m.phi_budget):.3f} deg; certificates are empirical")

    # rim angle comparison: surface angle >= projected angle at each rim vertex
    psi, psi_p = cap.rim_angles()
    rim_ok = not (psi + 1e-9 < psi_p).any()
    worst = max(0.0, float((psi_p - psi).max()))
    diag["metrics"]["rim_angle_ok"] = rim_ok
    diag["metrics"]["rim_angle_worst_violation"] = worst
    if not rim_ok:
        diag["warnings"].append("projected rim angle exceeds surface angle")
    return m


def _forest(cap: ConvexCap, origin_mode: str, diag: dict, metrics):
    qs = choose_origin(cap, origin_mode,
                       theta=math.pi / 2 - metrics.alpha_planar)
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
             net: Net, diag: dict):
    m = diag["metrics"]

    if not net_congruent(cap, net):
        diag["errors"].append("net placement not congruent to the surface")

    # leaf-path certificates, every path at once over the forest table; a
    # pair that breaks a precondition of left_of gives None, so the
    # certificate fails (warning over budget, error within) instead of raising
    bound = 3 * m["delta_perp_max"] + 2 * m["omega_total"]
    turns = path_turns(cap, forest)
    max_dq = turn_distortion(forest, turns)
    chains = left_of(*develop_chain(cap, forest, turns), forest.path_offsets)
    banks = banks_ordered(cap, net, forest)
    paths_ordered = all(v is not None and v[0] for v in chains)
    banks_ok = all(v is not None and v[0] for v in banks)
    diag["paths"] = {
        "max_turn_distortion": max_dq,
        "turn_distortion_bound": bound,
        "within_distortion_bound": max_dq <= bound + 1e-9,
        "chains_ordered": paths_ordered,
        "banks_ordered": banks_ok,
    }
    # within the tilt budget these are theorems, so a failure is an error
    failures = diag["errors"] if m["within_budget"] else diag["warnings"]
    if not diag["paths"]["within_distortion_bound"]:
        failures.append("turn distortion exceeds 3*delta_perp + 2*omega")
    # a None verdict is a failed precondition, (False, r) an order violation
    for verdicts, unmet, unordered in (
            (chains, "developed chains not radially monotone on some path",
             "left development not left of right development on some path"),
            (banks, "cut banks not radially monotone from a shared leaf "
             "image on some leaf path",
             "cut banks out of order on some leaf path")):
        if None in verdicts:
            failures.append(unmet)
        if any(v is not None and not v[0] for v in verdicts):
            failures.append(unordered)

    # per-tree layout preconditions
    curvs = forest.tree_curvatures(cap)
    # each tree's cone of edge directions, child to parent
    spreads = direction_spreads(forest.directions[forest.tree_order],
                                forest.tree_starts)
    diag["trees"] = {
        "max_curvature": max(curvs, default=0.0),
        "max_direction_spread": float(spreads.max(initial=0.0)),
        "curvature_below_pi": all(c < math.pi for c in curvs),
        "spread_below_pi": bool((spreads < math.pi).all()),
    }
    for key, msg in (("curvature_below_pi", "a tree encloses curvature >= pi"),
                     ("spread_below_pi", "a tree's direction cone >= pi")):
        if not diag["trees"][key]:
            diag["warnings"].append(msg)

    diag["strips"] = strip_certificates(strips)
    if not diag["strips"]["clean"]:
        diag["errors"].extend(diag["strips"]["errors"])
