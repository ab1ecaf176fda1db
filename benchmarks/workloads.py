"""The three benchmark workloads: seeded inputs, one closed-loop iteration
each, the correctness gate and the output fingerprint.

Why these three (each drives a different part of a run):

* ``run-fig3a`` -- ``gradecho run`` on the fig3a multi-switch sequence:
  probe-limited (32k steps x 1025 cells), the longest time series (CSV) and
  the O(N*M) fidelity correlation.  Adaptive dt, the step kernel, metrics
  and CSV work all show here.
* ``sweep-fig4a`` -- ``run_sweep`` on fig4a-coarse with 2 workers and a
  checkpoint: 25 control-limited points, process-pool pickling, checkpoint
  appends with fsync, per-point metrics; the slowest point sets the tail.
* ``compare-oracle-ats`` -- ``gradecho compare`` on the constant-control
  oracle: 201k steps at nz = 512, the per-numpy-call overhead regime, and
  the only user of the closed forms and coherence snapshots.

Seeds change only inputs that leave nz, dt and the step plan unchanged, so
every seed of a workload does the same amount of solver work.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from gradecho import analytic, cli, config, metrics, model, solver, sweep
from gradecho.io import write_timeseries_csv
from gradecho.scenarios import builtin_scenario, builtin_sweep

from spans import Tracer, patched

# |t_echo - t_pred| / (t_pred - probe center) accepted for the fig3a echo;
# measured ~2e-4 at the seed commit.
ECHO_TOL = 0.01
# Per sweep point the phase-area prediction ignores dispersion, which
# delays the echo by up to ~0.8 storage times on this grid; the bound only
# catches an echo that is not where any echo can be.  The median (ref_err)
# carries the accuracy.
SWEEP_ECHO_TOL = 1.0
# compare: relative L2 of the transmitted tail against the closed form
# (README: ~2-3 % at Omega_c = 100 Gamma).
TAIL_L2_BOUND = 0.05
SWEEP_POINTS = 25
SWEEP_WORKERS = 2


@dataclass
class Outcome:
    """One checked iteration."""

    wall_s: float
    failures: list
    ref_err: float = math.nan
    fingerprint: dict = field(default_factory=dict)
    table: str = ""  # sweep only: the CSV text, kept for the failed-point count


# ---------------------------------------------------------------- inputs

def _amplitude(rng) -> complex:
    return complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))


def generate_scenario(workload: str, seed: int) -> model.Scenario:
    """Seeded scenario for the CLI workloads (run-fig3a, compare-oracle-ats)."""
    rng = np.random.default_rng(seed)
    if workload == "run-fig3a":
        s = builtin_scenario("fig3a")
        return replace(s, medium=replace(s.medium, xi=s.medium.xi * rng.uniform(0.98, 1.02)),
                       probe=replace(s.probe, amplitude=_amplitude(rng)))
    if workload == "compare-oracle-ats":
        s = builtin_scenario("oracle-ats")
        omega_c = rng.uniform(90.0, 110.0)
        # xi tracks Omega_c: the closed forms' own error grows like
        # xi / Omega_c, so a fixed ratio keeps ref_err a measure of the
        # solver rather than of the draw.
        return replace(s, medium=replace(s.medium, xi=omega_c / 5.0),
                       profile=model.Uniform(b=omega_c),
                       probe=replace(s.probe, amplitude=_amplitude(rng)))
    raise KeyError(workload)


def generate_sweep(seed: int, checkpoint: Optional[str]) -> sweep.SweepSpec:
    rng = np.random.default_rng(seed)
    spec = builtin_sweep("fig4a-coarse", workers=SWEEP_WORKERS, checkpoint=checkpoint)
    base = replace(spec.base, probe=replace(spec.base.probe, amplitude=_amplitude(rng)))
    return replace(spec, base=base)


def _require_valid(s: model.Scenario, what: str) -> None:
    errors = [i.message for i in model.validate_scenario(s) if i.severity == "error"]
    if errors:
        raise ValueError(f"{what}: generated input fails validation: {'; '.join(errors)}")


def prepare(workload: str, seed: int, workdir: Path):
    """Build and validate the workload's generated inputs in ``workdir``.

    Returns the scenario written as ``<workload>.cfg`` (CLI workloads) or
    the sweep spec.  This is what ``setup_s`` times after the import.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "sweep-fig4a":
        spec = generate_sweep(seed, str(workdir / "sweep_checkpoint.jsonl"))
        for i in range(spec.size()):
            _require_valid(spec.point(i)[1], f"sweep point {i}")
        return spec
    scenario = generate_scenario(workload, seed)
    cfg = workdir / f"{workload}.cfg"
    cfg.write_text(config.serialize_scenario(scenario), encoding="utf-8")
    parsed = config.parse_scenario_file(cfg)
    if parsed != scenario:
        raise ValueError(f"{cfg}: config does not round-trip")
    _require_valid(parsed, workload)
    return parsed


def record_counts(scenario: model.Scenario, record: solver.FieldRecord) -> tuple:
    """(steps, nz, snapshot bytes) of one integrate call.  The steps are
    computed from the record and the grid: each recorded interval spans
    round(interval / dt) steps of the grid's resolved dt, which is exact for
    the uniform-dt plan of the seed commit."""
    steps = int(np.sum(np.rint(np.diff(record.times) / scenario.resolved_dt())))
    return steps, record.z.size - 1, record.rho31.nbytes + record.rho21.nbytes


# ------------------------------------------------------- correctness gates

def _finite_leaves(obj, where: str, out: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _finite_leaves(v, f"{where}.{k}", out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        if not math.isfinite(obj):
            out.append(f"{where} is not finite ({obj})")


def echo_error(t_echo: float, t_pred: float, t0: float) -> float:
    """Echo-time distance from the phase-area prediction, in storage times."""
    return abs(t_echo - t_pred) / (t_pred - t0)


def check_run(result: dict, table: np.ndarray, t_pred: float, t0: float,
              after: float) -> tuple[list, float]:
    """Gate for ``gradecho run``: ``result`` is the metrics JSON, ``table``
    the time-series CSV (t, re/im probe_in, re/im probe_out, intensity)."""
    failures: list = []
    if table.ndim != 2 or table.shape[1] != 6 or table.shape[0] < 3:
        return [f"time series has shape {table.shape}, expected (n >= 3, 6)"], math.nan
    if not np.all(np.isfinite(table)):
        failures.append(f"time series has {int(np.sum(~np.isfinite(table)))} non-finite values")
    _finite_leaves(result, "metrics", failures)
    if "echo_peak_time" not in result:
        return failures + [f"no echo metrics: {result.get('echo')!r}"], math.nan
    for name in ("efficiency_R", "fidelity"):
        if not 0.0 <= result[name] <= 1.0:
            failures.append(f"{name} = {result[name]} outside [0, 1]")
    err = echo_error(result["echo_peak_time"], t_pred, t0)
    if not err <= ECHO_TOL:
        failures.append(f"echo at {result['echo_peak_time']:.6g} is {err:.3g} storage times "
                        f"from the phase-area prediction {t_pred:.6g} (tolerance {ECHO_TOL})")
    t = table[:, 0]
    m = t > after
    if np.any(m):
        t_csv = t[m][int(np.argmax(table[m, 5]))]
        if abs(t_csv - result["echo_peak_time"]) > 2 * float(np.max(np.diff(t))):
            failures.append(f"time-series peak at {t_csv:.6g} disagrees with the "
                            f"reported echo peak {result['echo_peak_time']:.6g}")
    return failures, err


def check_compare(residuals: dict, table: np.ndarray) -> tuple[list, float]:
    """Gate for ``gradecho compare``: ``residuals`` is compare_residuals.json,
    ``table`` compare.csv (T, re/im solver tail, re/im closed tail)."""
    failures: list = []
    if table.ndim != 2 or table.shape[1] != 5 or table.shape[0] < 1:
        failures.append(f"compare table has shape {table.shape}, expected (n >= 1, 5)")
    elif not np.all(np.isfinite(table)):
        failures.append(f"compare table has {int(np.sum(~np.isfinite(table)))} non-finite values")
    _finite_leaves(residuals, "residuals", failures)
    if residuals.get("validity_broadband_ordering") is not True:
        failures.append("validity_broadband_ordering is not true")
    tail = residuals.get("probe_tail_rel_l2", math.nan)
    if not tail < TAIL_L2_BOUND:
        failures.append(f"probe_tail_rel_l2 = {tail} not below {TAIL_L2_BOUND}")
    return failures, float(tail)


def check_sweep(table_text: str, t_pred: list, t0: float,
                reference: Optional[str] = None) -> tuple[list, float]:
    """Gate for a fig4a sweep table (SweepResult.to_csv text).  With
    ``reference`` the table must equal it byte for byte: results are
    promised identical for any worker count and on every repeat."""
    failures: list = []
    rows = list(csv.DictReader(io.StringIO(table_text)))
    if [int(r["index"]) for r in rows] != list(range(SWEEP_POINTS)):
        return [f"sweep table has {len(rows)} rows, expected indices 0..{SWEEP_POINTS - 1}"], math.nan
    errs = []
    for r in rows:
        i = int(r["index"])
        if r["error"]:
            failures.append(f"point {i} failed: {r['error']}")
        for k, v in r.items():
            if k in ("index", "error", "no_echo", "dispersion") or v == "":
                continue
            if not math.isfinite(float(v)):
                failures.append(f"point {i}: {k} = {v} is not finite")
        if r.get("efficiency_R") and not 0.0 <= float(r["efficiency_R"]) <= 1.0:
            failures.append(f"point {i}: efficiency_R = {r['efficiency_R']} outside [0, 1]")
        if r.get("no_echo") == "False" and r.get("dispersion") != "ambiguous":
            err = echo_error(float(r["echo_peak_time"]), t_pred[i], t0)
            if not err <= SWEEP_ECHO_TOL:
                failures.append(f"point {i}: echo {err:.3g} storage times from the "
                                f"phase-area prediction (tolerance {SWEEP_ECHO_TOL})")
            errs.append(err)
    if not errs:
        failures.append("no point has an unambiguous echo")
    if reference is not None and table_text != reference:
        failures.append("sweep table differs from the reference table (the serial "
                        "single-point table, or the run's first table)")
    return failures, statistics.median(errs) if errs else math.nan


# ------------------------------------------------------------ workloads

def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


class CliWorkload:
    """``gradecho run`` / ``gradecho compare`` on a generated config file."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.scenario = prepare(name, seed, workdir)
        self.cfg = workdir / f"{name}.cfg"
        self.outdir = workdir / "out"
        s = self.scenario
        self.t0 = s.probe.center_time
        self.after = s.schedule.last_flip_time()
        self.t_pred = (analytic.predict_echo_time(s.schedule, s.profile, t0=self.t0,
                                                  t_end=s.grid.t_end, length=s.medium.length)
                       if self.after is not None else None)
        self.records: list = []  # [(steps, nz, snapshot bytes)] of the last traced run
        self.csv_bytes = 0  # size of the last traced time-series CSV

    def inputs(self) -> dict:
        s = self.scenario
        return {"xi": s.medium.xi, "profile": repr(s.profile),
                "probe_amplitude": [s.probe.amplitude.real, s.probe.amplitude.imag],
                "nz": s.grid.nz, "dt": s.resolved_dt()}

    def iterate(self, tracer: Optional[Tracer] = None) -> Outcome:
        _fresh_dir(self.outdir)
        command = "run" if self.name == "run-fig3a" else "compare"
        t_start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, str(self.cfg), "--output", str(self.outdir)])
        if code != 0:
            return Outcome(time.perf_counter() - t_start, [f"{command} exited {code}"])
        with _span(tracer, "bench.check"):
            if command == "run":
                out = self._check_run()
            else:
                out = self._check_compare()
        out.wall_s = time.perf_counter() - t_start
        return out

    def _check_run(self) -> Outcome:
        result = json.loads((self.outdir / f"{self.name}_metrics.json").read_text())
        table = np.loadtxt(self.outdir / f"{self.name}_timeseries.csv",
                           delimiter=",", skiprows=1, ndmin=2)
        failures, err = check_run(result, table, self.t_pred, self.t0, self.after)
        fp = {"max_abs_probe_out": float(np.max(np.hypot(table[:, 3], table[:, 4]))),
              **{k: result.get(k) for k in ("efficiency_R", "echo_peak_time",
                                            "echo_fwhm", "fidelity")}}
        return Outcome(0.0, failures, err, fp)

    def _check_compare(self) -> Outcome:
        residuals = json.loads((self.outdir / "compare_residuals.json").read_text())
        table = np.loadtxt(self.outdir / "compare.csv", delimiter=",", skiprows=1, ndmin=2)
        failures, err = check_compare(residuals, table)
        fp = {"max_abs_probe_tail": float(np.max(np.hypot(table[:, 1], table[:, 2]))),
              **{k: residuals.get(k) for k in ("rho31_rel_l2", "rho21_rel_l2",
                                               "probe_tail_rel_l2")}}
        return Outcome(0.0, failures, err, fp)

    def before_loop(self, tracer: Optional[Tracer]) -> None:
        pass

    def after_loop(self, outcomes: list, tracer: Optional[Tracer]) -> tuple[dict, list]:
        """Per-layer metrics known only after the loop, and late failures."""
        return ({"io.csv_bytes": self.csv_bytes} if tracer is not None else {}), []

    def loop_patches(self, tracer: Tracer):
        """Span every call cmd_run / cmd_compare makes into another module."""
        def on_record(args, record):
            self.records = [record_counts(args[0], record)]

        def on_csv(args, _):
            self.csv_bytes = Path(args[1]).stat().st_size

        w = tracer.wrap
        return [(cli, {
            "parse_scenario_file": w(config.parse_scenario_file, "config.parse"),
            "validate_scenario": w(model.validate_scenario, "model.validate"),
            "integrate": w(solver.integrate, "solver.integrate", on_record),
            "compute_echo_metrics": w(metrics.compute_echo_metrics, "metrics.echo"),
            "write_timeseries_csv": w(write_timeseries_csv, "io.csv", on_csv),
            "rho31_closed": w(analytic.rho31_closed, "analytic.closed"),
            "rho21_closed": w(analytic.rho21_closed, "analytic.closed"),
            "probe_closed": w(analytic.probe_closed, "analytic.closed"),
        })]


class SweepWorkload:
    """``run_sweep`` on fig4a-coarse (2 workers, checkpointed), then to_csv."""

    name = "sweep-fig4a"

    def __init__(self, name: str, seed: int, workdir: Path):
        self.workdir = workdir
        self.spec = prepare(self.name, seed, workdir)
        self.checkpoint = Path(self.spec.checkpoint)
        self.csv_path = workdir / "sweep.csv"
        self.t0 = self.spec.base.probe.center_time
        self.t_pred = []
        for i in range(self.spec.size()):
            s = self.spec.point(i)[1]
            self.t_pred.append(analytic.predict_echo_time(
                s.schedule, s.profile, t0=self.t0, t_end=s.grid.t_end, length=s.medium.length))
        self.reference: Optional[str] = None
        self.records: list = []  # (steps, nz, snapshot bytes) per traced point

    def inputs(self) -> dict:
        amp = self.spec.base.probe.amplitude
        return {"probe_amplitude": [amp.real, amp.imag], "workers": self.spec.workers,
                "points": self.spec.size(), "nz": self.spec.base.grid.nz}

    def iterate(self, tracer: Optional[Tracer] = None) -> Outcome:
        self.checkpoint.unlink(missing_ok=True)
        t_start = time.perf_counter()
        with _span(tracer, "sweep.run"):
            result = sweep.run_sweep(self.spec)
        result.to_csv(self.csv_path)
        with _span(tracer, "bench.check"):
            out = self._check(self.csv_path.read_text(encoding="utf-8"))
        out.wall_s = time.perf_counter() - t_start
        return out

    def _check(self, text: str) -> Outcome:
        failures, err = check_sweep(text, self.t_pred, self.t0, self.reference)
        if self.reference is None and not failures:
            self.reference = text
        rows = list(csv.DictReader(io.StringIO(text)))
        shape = self.spec.shape

        def grid(col):
            return np.array([float(r[col]) if r.get(col) else math.nan
                             for r in rows]).reshape(shape).tolist()

        fp = {"efficiency_R": grid("efficiency_R"), "echo_peak_time": grid("echo_peak_time"),
              "table_sha256": hashlib.sha256(text.encode()).hexdigest()}
        return Outcome(0.0, failures, err, fp, table=text)

    def serial_reference(self, tracer: Tracer) -> str:
        """The table from 25 single-point sweeps with workers=1, in-process,
        with each point and its solver/metrics calls spanned."""
        rows = []
        with contextlib.ExitStack() as stack:
            for module, wrappers in self._point_patches(tracer):
                stack.enter_context(patched(module, wrappers))
            for i in range(self.spec.size()):
                values, _ = self.spec.point(i)
                single = dataclasses.replace(
                    self.spec, axes=tuple((p, (values[p],)) for p, _ in self.spec.axes),
                    workers=1, checkpoint=None)
                with tracer.span("sweep.point"):
                    (row,) = sweep.run_sweep(single).rows
                rows.append(dataclasses.replace(row, index=i))
        path = self.workdir / "serial.csv"
        sweep.SweepResult(spec_shape=self.spec.shape,
                          axis_paths=tuple(p for p, _ in self.spec.axes),
                          rows=tuple(rows)).to_csv(path)
        self.reference = path.read_text(encoding="utf-8")
        return self.reference

    def _point_patches(self, tracer: Tracer):
        def on_record(args, record):
            self.records.append(record_counts(args[0], record))

        w = tracer.wrap
        return [(sweep, {
            "validate_scenario": w(model.validate_scenario, "model.validate"),
            "integrate": w(solver.integrate, "solver.integrate", on_record),
            "compute_echo_metrics": w(metrics.compute_echo_metrics, "metrics.echo"),
        })]

    def loop_patches(self, tracer: Tracer):
        """The pool's workers run the points, so the parallel sweep has no
        in-process layer calls to span."""
        return []

    def before_loop(self, tracer: Optional[Tracer]) -> None:
        # The traced run computes the serial single-point table first, so
        # every iteration is checked against it bit for bit and the
        # per-point layer spans are recorded.  Runs without the trace skip
        # the ~16 s serial pass and check each iteration against the first.
        if tracer is not None:
            self.serial_reference(tracer)

    def after_loop(self, outcomes: list, tracer: Optional[Tracer]) -> tuple[dict, list]:
        if tracer is None:
            return {}, []
        # resume on the complete checkpoint the last iteration left: nothing
        # is recomputed and the table must not change
        t = time.perf_counter()
        with tracer.span("sweep.resume"):
            result = sweep.run_sweep(self.spec)
        resume_s = time.perf_counter() - t
        path = self.workdir / "resumed.csv"
        result.to_csv(path)
        failures = ([] if path.read_text(encoding="utf-8") == self.reference
                    else ["resumed sweep table differs from the serial table"])

        # solver/metrics/model run inside the pool's workers; they are
        # measured on the serial single-point pass and summed over its points
        sums: dict = {}
        point_s = []
        for r in tracer.roots("sweep.point"):
            point_s.append(tracer.spans[r].end - tracer.spans[r].start)
            for n, v in tracer.self_times(r).items():
                sums[n] = sums.get(n, 0.0) + v
        run_s = statistics.fmean(s.end - s.start for s in tracer.spans if s.name == "sweep.run")
        extra = {
            "solver.integrate_s": sums.get("solver.integrate", 0.0),
            "metrics.echo_s": sums.get("metrics.echo", 0.0),
            "model.validate_s": sums.get("model.validate", 0.0),
            "sweep.point_s_median": statistics.median(point_s),
            "sweep.point_s_max": max(point_s),
            "sweep.speedup": sum(point_s) / run_s,
            "sweep.resume_s": resume_s,
            "sweep.checkpoint_bytes": self.checkpoint.stat().st_size,
            "sweep.failed_points": max(
                sum(1 for r in csv.DictReader(io.StringIO(o.table)) if r["error"])
                for o in outcomes),
        }
        return extra, failures


def make(name: str, seed: int, workdir: Path):
    if name == "sweep-fig4a":
        return SweepWorkload(name, seed, workdir)
    return CliWorkload(name, seed, workdir)
