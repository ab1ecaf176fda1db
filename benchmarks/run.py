"""gradecho benchmark: time to a checked solution for ``run``, ``sweep`` and
``compare``, with a per-module trace.

    python3 benchmarks/run.py --workload run-fig3a --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: the next iteration starts
only after the previous one has written its outputs and passed the
correctness gate.  Another iteration starts only while it is expected to
end inside ``--seconds``; at least one always runs.  The seed generates the
workload's inputs; the program receives only the generated files.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The full result
(samples, quartiles, fingerprint, environment, trace breakdown, spans) is
written under ``.bench_results/`` at the repository root.

``ns_per_cell_step`` and the Tier-1 suite's wall time are deliberately not
end-to-end metrics: a PR that cuts the step count raises ns per cell-step
while the time to a solution falls, and 22 runs of a ~100 s suite per side
would dwarf everything else.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, patched

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("run-fig3a", "sweep-fig4a", "compare-oracle-ats")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ref_err": "ratio"}

# Span name -> per-layer metric holding its mean self time per iteration.
# The root span of an iteration keeps only the time no layer span covers.
SPAN_METRICS = {
    "iteration": "trace.other_s",
    "config.parse": "config.parse_s",
    "model.validate": "model.validate_s",
    "solver.integrate": "solver.integrate_s",
    "metrics.echo": "metrics.echo_s",
    "analytic.closed": "analytic.closed_s",
    "io.csv": "io.csv_s",
    "sweep.run": "sweep.run_s",
    "bench.check": "bench.check_s",
}
PER_LAYER = {
    "cli.import_s": "s",
    "config.parse_s": "s",
    "model.validate_s": "s",
    "solver.integrate_s": "s",
    "solver.steps": "count",
    "solver.ns_per_cell_step": "ns",
    "solver.snapshot_mb": "MB",
    "metrics.echo_s": "s",
    "analytic.closed_s": "s",
    "io.csv_s": "s",
    "io.csv_bytes": "bytes",
    "sweep.run_s": "s",
    "sweep.point_s_median": "s",
    "sweep.point_s_max": "s",
    "sweep.speedup": "ratio",
    "sweep.resume_s": "s",
    "sweep.checkpoint_bytes": "bytes",
    "sweep.failed_points": "count",
    "bench.check_s": "s",
    "trace.other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def quartiles(xs: list) -> list:
    xs = [x for x in xs if math.isfinite(x)]
    if not xs:
        return [math.nan] * 3
    if len(xs) == 1:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it has waited for."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def setup_times(workload: str, seed: int, workdir: Path) -> list:
    """SETUP_REPEATS fresh interpreters, each timing its own set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for k in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed),
             str(workdir / f"setup{k}")],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def safe_iterate(it, tracer=None):
    """One iteration; an exception fails the iteration, not the run."""
    from workloads import Outcome

    t = time.perf_counter()
    try:
        return it.iterate(tracer)
    except Exception:  # noqa: BLE001 - every failure is counted and reported
        return Outcome(time.perf_counter() - t, [traceback.format_exc(limit=4)])


def traced_iterate(it, tracer, index: int):
    tracer.iteration = index
    with contextlib.ExitStack() as stack:
        for module, wrappers in it.loop_patches(tracer):
            stack.enter_context(patched(module, wrappers))
        with tracer.span("iteration"):
            out = safe_iterate(it, tracer)
    tracer.iteration = None
    return out


def closed_loop(step, seconds: float) -> list:
    """Run ``step`` back to back while the next one is expected to end
    within ``seconds``; returns the list of what each step returned."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def layer_metrics(tracer, untraced: list) -> tuple[dict, dict]:
    """Per-layer self times of the traced iterations, and the breakdown
    behind them.

    Self times are means over the traced iterations, so the layer self
    times plus trace.other_s add up to trace.wall_s.  Layers a workload
    never calls read 0.
    """
    roots = tracer.roots("iteration")
    per_iter = [tracer.self_times(r) for r in roots]
    names = sorted(set().union(*per_iter))
    mean_self = {n: statistics.fmean(d.get(n, 0.0) for d in per_iter) for n in names}
    layer = dict.fromkeys(PER_LAYER, 0.0)
    for name, value in mean_self.items():
        layer[SPAN_METRICS[name]] = value
    layer["trace.wall_s"] = statistics.fmean(tracer.spans[r].end - tracer.spans[r].start
                                             for r in roots)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.fmean(o.wall_s for o in untraced)
    breakdown = {"iterations": len(roots), "mean_self_s": mean_self,
                 "traced_wall_s": layer["trace.wall_s"],
                 "sum_minus_wall_s": sum(mean_self.values()) - layer["trace.wall_s"]}
    return layer, breakdown


def solver_metrics(layer: dict, records: list) -> None:
    """Steps, ns per cell-step and snapshot size from the integrate calls
    behind ``solver.integrate_s`` (one per iteration, or one per sweep point)."""
    if records:
        layer["solver.steps"] = sum(r[0] for r in records)
        layer["solver.ns_per_cell_step"] = (layer["solver.integrate_s"] * 1e9
                                            / sum(r[0] * r[1] for r in records))
        layer["solver.snapshot_mb"] = max(r[2] for r in records) / 1e6


def run(args) -> dict:
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    try:
        it = workloads.make(args.workload, args.seed, workdir / "run")
        it.before_loop(tracer)
        if tracer is None:
            untraced = closed_loop(lambda i: safe_iterate(it), args.seconds)
            traced = []
        else:
            pairs = closed_loop(lambda i: (safe_iterate(it), traced_iterate(it, tracer, i)),
                                args.seconds)
            untraced = [p[0] for p in pairs]
            traced = [p[1] for p in pairs]
        rss = peak_rss_mb()
        extra, late_failures = it.after_loop(untraced + traced, tracer)
        setups = setup_times(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it

    outcomes = untraced + traced
    outcomes[-1].failures += late_failures
    failed = sum(1 for o in outcomes if o.failures)
    walls = [o.wall_s for o in untraced]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "inputs": it.inputs(),
        "attempted": len(outcomes), "failed": failed, "fail_ratio": failed / len(outcomes),
        "failures": [f for o in outcomes for f in o.failures][:10],
        "wall_s_samples": walls, "wall_s_quartiles": quartiles(walls),
        "setup_samples": setups, "fingerprint": outcomes[-1].fingerprint,
    }
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": rss,
            "ref_err": statistics.median(o.ref_err for o in outcomes),
        }
        units = END_TO_END
    else:
        metrics, result["breakdown"] = layer_metrics(tracer, untraced)
        metrics.update(extra)
        metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        solver_metrics(metrics, it.records)
        units = PER_LAYER
    result["metrics"] = metrics
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(results_dir / f"{stem}-spans.json")
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, default=str)
        fh.write("\n")
    finite = all(math.isfinite(v) for v in metrics.values())
    return {"correct": failed == 0 and finite, "attempted": len(outcomes), "failed": failed,
            "metrics": {k: {"value": metrics[k] if math.isfinite(metrics[k]) else None,
                            "unit": u} for k, u in units.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "gradecho" / "__init__.py").is_file():
        print(f"error: no gradecho source under {SRC}", file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread here and in every process started from here,
    # so the sweep's 2 workers stay within the 2 cores; set before numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import gradecho

    if Path(gradecho.__file__).resolve().parent != (SRC / "gradecho").resolve():
        print(f"error: imported gradecho from {gradecho.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
