"""Command-line front end: generate caps, run the unfolding pipeline, verify
certificates, render SVG/OBJ artifacts, and print mesh statistics.

Exit codes: 0 every certificate proven, 1 clean net with certificate
warnings (tilt over budget), 2 overlap or any error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .generate import generate_budget_cap, generate_cap
from .mesh import compute_metrics, validate_cap
from .meshio import load_mesh, save_mesh
from .pipeline import PipelineError, cut_and_unfold
from .svgout import render_forest_svg, render_net_svg

EXIT_PROVEN = 0
EXIT_EMPIRICAL = 1
EXIT_FAIL = 2

DEG = math.pi / 180


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # exit 1 means a clean net with warnings, so nothing may crash into it
        error = {"error": str(exc)}
        if isinstance(exc, PipelineError):
            error["stage"] = exc.stage
        print(json.dumps(error), file=sys.stderr)
        return EXIT_FAIL


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="capunfold",
        description="Unfold nearly flat convex caps into non-overlapping "
                    "planar nets, with certificates.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("generate", help="generate a random cap")
    g.add_argument("--n", type=int, required=True, help="vertex count (>= 4)")
    g.add_argument("--phi", type=float, default=None,
                   help="max face tilt in degrees; omit to sit at 0.9x the "
                        "tilt budget of the planar margin")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--jitter", type=float, default=0.25)
    g.add_argument("--lift", choices=("paraboloid", "sphere"),
                   default="paraboloid")
    g.add_argument("--angle-mode", choices=("non_obtuse", "strict_acute"),
                   default="non_obtuse")
    g.add_argument("--out-dir", type=Path, default=Path("."))
    g.add_argument("--config", type=Path, default=None,
                   help="JSON file of generator settings; flags win")
    g.set_defaults(func=cmd_generate)

    for name, fn, hlp in (
            ("unfold", cmd_unfold, "run the full pipeline and write artifacts"),
            ("verify", cmd_verify, "run the pipeline, report certificates only"),
            ("render", cmd_render, "render SVG/OBJ for a cap")):
        c = sub.add_parser(name, help=hlp)
        c.add_argument("--input", type=Path, default=None,
                       help="OFF or OBJ mesh file")
        c.add_argument("--n", type=int, default=None,
                       help="generate instead of loading: vertex count")
        c.add_argument("--phi", type=float, default=None,
                       help="generated tilt in degrees")
        c.add_argument("--seed", type=int, default=0)
        c.add_argument("--origin-mode",
                       choices=("central", "closest_to_boundary"),
                       default="central")
        if name == "verify":
            c.add_argument("--rasterize", action="store_true",
                           help="also run the grid overlap oracle")
            c.add_argument("--suite", type=int, default=None, metavar="K",
                           help="verify K generated caps (seeds 0..K-1) "
                                "in parallel")
            c.add_argument("--jobs", type=int, default=None)
        else:
            c.add_argument("--out-dir", type=Path, default=Path("."))
        c.set_defaults(func=fn)

    s = sub.add_parser("stats", help="print metrics for a cap")
    s.add_argument("--input", type=Path, default=None)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--phi", type=float, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_stats)
    return p


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


_GEN_DEFAULTS = {"phi": None, "seed": 0, "jitter": 0.25,
                 "lift": "paraboloid", "angle_mode": "non_obtuse"}


def cmd_generate(args) -> int:
    cfg = {"n": args.n, "phi": args.phi, "seed": args.seed,
           "jitter": args.jitter, "lift": args.lift,
           "angle_mode": args.angle_mode}
    if args.config is not None:
        stored = json.loads(args.config.read_text())
        for k, v in stored.items():
            if k in cfg and cfg[k] == _GEN_DEFAULTS.get(k, None):
                cfg[k] = v
    if cfg["n"] is None or cfg["n"] < 4:
        raise ValueError("--n must be at least 4")
    cap = _generate(cfg["n"], cfg["phi"], cfg["seed"], jitter=cfg["jitter"],
                    lift=cfg["lift"], angle_mode=cfg["angle_mode"])
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    stem = f"cap-n{cfg['n']}-seed{cfg['seed']}"
    save_mesh(out / f"{stem}.off", cap)
    metrics = _metrics_dict(cap)
    (out / f"{stem}.metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"off": str(out / f"{stem}.off"),
                      "metrics": str(out / f"{stem}.metrics.json")}))
    return EXIT_PROVEN


def cmd_unfold(args) -> int:
    cap = _load_or_generate(args)
    result = cut_and_unfold(cap, origin_mode=args.origin_mode)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    save_mesh(out / "cap.obj", cap,
              cut_edges=set(result.net.cut_edges))
    (out / "net.svg").write_text(
        render_net_svg(cap, result.net, result.forest))
    (out / "diagnostics.json").write_text(
        json.dumps(result.diagnostics, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"status": result.diagnostics["status"],
                      "out_dir": str(out)}))
    return _triage(result)


def cmd_verify(args) -> int:
    if args.suite:
        if args.rasterize:
            raise ValueError("--rasterize is not supported with --suite")
        return _verify_suite(args)
    cap = _load_or_generate(args)
    result = cut_and_unfold(cap, origin_mode=args.origin_mode,
                            rasterize=args.rasterize)
    print(json.dumps(result.diagnostics, indent=2, sort_keys=True))
    return _triage(result)


def cmd_render(args) -> int:
    cap = _load_or_generate(args)
    result = cut_and_unfold(cap, origin_mode=args.origin_mode)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "net.svg").write_text(
        render_net_svg(cap, result.net, result.forest))
    (out / "forest.svg").write_text(
        render_forest_svg(cap, result.forest, result.strips))
    save_mesh(out / "cap.obj", cap, cut_edges=set(result.net.cut_edges))
    print(json.dumps({"net_svg": str(out / "net.svg"),
                      "forest_svg": str(out / "forest.svg"),
                      "cap_obj": str(out / "cap.obj")}))
    return _triage(result)


def cmd_stats(args) -> int:
    cap = _load_or_generate(args)
    print(json.dumps(_metrics_dict(cap), indent=2, sort_keys=True))
    return EXIT_PROVEN


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _generate(n, phi_deg, seed, **kwargs):
    if n is None or n < 4:
        raise ValueError("--n must be at least 4")
    if phi_deg is None:
        return generate_budget_cap(n, seed=seed, **kwargs)
    return generate_cap(n, phi=phi_deg * DEG, seed=seed, **kwargs)


def _load_or_generate(args):
    if (args.input is None) == (args.n is None):
        raise ValueError("give exactly one of --input or --n")
    if args.input is not None:
        cap, _ = load_mesh(args.input)
        issues = validate_cap(cap)
        if issues:
            raise RuntimeError("invalid cap: " + "; ".join(issues))
        return cap
    return _generate(args.n, args.phi, args.seed)


def _metrics_dict(cap) -> dict:
    from .geom import delta_perp, omega_bound, phi_budget
    m = compute_metrics(cap)
    return {
        "n_vertices": m.n_vertices,
        "n_triangles": m.n_triangles,
        "phi_actual_deg": math.degrees(m.phi_actual),
        "alpha_deg": math.degrees(m.alpha),
        "alpha_planar_deg": math.degrees(m.alpha_planar),
        "omega_total_deg": math.degrees(m.omega_total),
        "omega_bound_deg": math.degrees(omega_bound(m.phi_actual)),
        "delta_perp_max_deg": math.degrees(delta_perp(m.phi_actual)),
        "phi_budget_deg": (math.degrees(phi_budget(m.alpha_planar))
                           if m.alpha_planar > 0 else 0.0),
    }


def _triage(result) -> int:
    if result.diagnostics["status"] == "proven_clean":
        return EXIT_PROVEN
    if result.diagnostics["status"] == "empirical_clean":
        return EXIT_EMPIRICAL
    return EXIT_FAIL


def _verify_one(job) -> dict:
    n, phi_deg, seed, origin_mode = job
    try:
        cap = _generate(n, phi_deg, seed)
        result = cut_and_unfold(cap, origin_mode=origin_mode)
        return {"seed": seed, "status": result.diagnostics["status"]}
    except Exception as exc:
        return {"seed": seed, "status": "error", "message": str(exc)}


def _verify_suite(args) -> int:
    if args.n is None:
        raise ValueError("--suite requires --n")
    jobs = [(args.n, args.phi, seed, args.origin_mode)
            for seed in range(args.suite)]
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        rows = list(pool.map(_verify_one, jobs))
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    print(json.dumps({"runs": rows, "counts": counts}, indent=2))
    if counts.get("error") or counts.get("overlap"):
        return EXIT_FAIL
    if counts.get("empirical_clean"):
        return EXIT_EMPIRICAL
    return EXIT_PROVEN


if __name__ == "__main__":
    sys.exit(main())
