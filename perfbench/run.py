#!/usr/bin/env python3
"""Cold-cap unfolding benchmark for capunfold.

    python3 perfbench/run.py --workload suite-budget --seed 1 --seconds 30 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from spans around each module's
functions, and the spans are written to ``perfbench_results/``.

Without ``--workload`` every workload runs, each in its own process, and a
table of their metrics is printed.

The program is imported from ``src/`` next to this directory; the run
exits with code 1, printing no result, when it is not there.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads, so timings do not depend
# on how many cores the machine lends the process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / "perfbench_results"

SETUP_REPEATS = 5      # set-ups per run; setup_s is their median
P90_MIN_SAMPLES = 100  # cap_s_p90 needs ten samples beyond it

# Metric names and units come from BENCHMARK.json at the checkout's root.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# The benchmark's own names for the program's entry points, so the traced
# run sees the cap build, the library call and the CLI call as layers.
BENCH_TARGETS = [
    ("workloads", "ConvexCap", "mesh.build", {}),
    ("workloads", "cut_and_unfold", "pipeline.self", {}),
    ("workloads", "cli_main", "cli.self", {}),
]


def import_program():
    """Import the workloads, and with them capunfold from ``src/``."""
    if not (SRC / "capunfold" / "__init__.py").is_file():
        sys.exit(f"perfbench: no capunfold sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import capunfold
    import workloads
    if Path(capunfold.__file__).resolve().parent != SRC / "capunfold":
        sys.exit(f"perfbench: imported capunfold from {capunfold.__file__}, "
                 f"not from {SRC}")
    return workloads


def setup(wl, spec, seed, work, capture, call=None):
    """Generate the caps (and OFF files), then warm up with one untimed
    operation.  Returns the inputs and the set-up's wall time."""
    t0 = time.perf_counter()
    inputs = wl.make_inputs(spec, seed, work, call=call)
    warm = wl.operation(spec, wl.warmup_input(spec, inputs), capture)
    if warm.failed:
        raise RuntimeError("the warm-up operation failed")
    return inputs, time.perf_counter() - t0


def measure(wl, spec, inputs, capture, seconds, tracer=None):
    """Run whole rounds over the inputs, at least one, until the timed
    operations add up to ``seconds``; check every operation's outputs
    outside the timing."""
    times, problems = [], []
    attempted = failed = 0
    elapsed = 0.0
    while attempted == 0 or elapsed < seconds:
        for inp in inputs:
            attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.operation(spec, inp, capture)
                else:
                    out = wl.operation(spec, inp, capture, run=lambda fn, *a:
                                       tracer.operation(attempted, fn, *a))
            except Exception:
                traceback.print_exc()
                out = None
            dt = time.perf_counter() - t0
            elapsed += dt
            if out is None or out.failed:
                failed += 1
                continue
            times.append(dt)
            problems += wl.check(spec, inp, out)
    return times, elapsed, attempted, failed, problems


def traced_measure(wl, spec, inputs, capture, seconds, tracer):
    """:func:`measure`, with the tracer's wrappers installed if any."""
    if tracer is None:
        return measure(wl, spec, inputs, capture, seconds)
    from tracer import TARGETS
    tracer.install(TARGETS + BENCH_TARGETS)
    try:
        return measure(wl, spec, inputs, capture, seconds, tracer)
    finally:
        tracer.uninstall()


def run_workload(name, seed, seconds, trace):
    wl = import_program()
    spec = wl.WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    capture = wl.capture_cli_results() if spec.files else None
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(memory=False)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            inputs, dt = setup(wl, spec, seed, work, capture,
                               call=tracer.call if tracer else None)
            setups.append(dt)
        if tracer:
            # tracemalloc slows every allocation several times over, so
            # memory peaks come from one operation of their own, on the
            # first cap, and times from the rounds after it
            peaks = Tracer(memory=True)
            _, _, attempted, failed, problems = traced_measure(
                wl, spec, inputs[:1], capture, 0, peaks)
        else:
            attempted = failed = 0
            problems = []
        times, elapsed, a, f, p = traced_measure(
            wl, spec, inputs, capture, seconds, tracer)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if tracer:
        gap = tracer.self_time_gap()
        if gap > 1e-9 * max(tracer.op_totals().values(), default=1.0):
            problems.append(f"self times miss their operation by {gap}")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    n = len(times)
    head = (f"{name} seed={seed} trace={trace}: {attempted} operations "
            f"({len(spec.cap_seeds)} caps a round), "
            f"{failed} failed, {len(problems)} check failures")
    if tracer:
        layer = tracer.per_op_metrics()
        layer.update((k, v) for k, v in peaks.per_op_metrics().items()
                     if k.endswith("_peak_mb"))
        metrics = {k: layer.get(k, 0.0) for k in PER_LAYER}
        units = PER_LAYER
        out = RESULTS / f"trace-{name}-seed{seed}.json"
        tracer.dump(out)
        print(f"{head}; traced operation {metrics['bench.op_s']:.4f} s, "
              f"self times sum to it within {gap:.2e} s; spans in {out}")
    else:
        metrics = {
            "cap_s_p50": statistics.median(times) if n else float("nan"),
            "caps_per_s": n / elapsed,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
        tail = ""
        if n >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(times, n=10)[-1]
            tail = f", cap_s_p90 {p90:.4f} s"
        print(f"{head}; {n} samples: cap_s_p50 {metrics['cap_s_p50']:.4f} s"
              f"{tail}, caps_per_s {metrics['caps_per_s']:.3f} 1/s, "
              f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB, setup_s "
              f"{metrics['setup_s']:.4f} s (median of {SETUP_REPEATS})")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(seed, seconds, trace):
    """Each workload in its own process, then one table of the metrics."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"] or result["failed"] > 0
        rows.append((name, result))
    print()
    for name, r in rows:
        print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, "
              f"correct {r['correct']}")
        for metric, m in r["metrics"].items():
            print(f"    {metric:28s} {m['value']:14.6g} {m['unit']}")
    return int(status)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                   help="one workload; omit to run them all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=_SPEC["run_seconds"],
                   help="timed operation time to reach, in whole rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
