"""Tests for the benchmark itself (not the package):

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEEDS = range(8)


def _plan(s):
    return (s.grid, s.resolved_dt(), s.schedule.segments, s.medium.length)


@pytest.mark.parametrize("workload", ["run-fig3a", "compare-oracle-ats"])
def test_seeds_change_inputs_but_not_the_step_plan(workload):
    scenarios = [workloads.generate_scenario(workload, seed) for seed in SEEDS]
    assert len({_plan(s) for s in scenarios}) == 1
    assert len({s.probe.amplitude for s in scenarios}) == len(SEEDS)
    assert len({s.medium.xi for s in scenarios}) == len(SEEDS)
    assert scenarios[0] == workloads.generate_scenario(workload, 0)


def test_sweep_seeds_change_inputs_but_not_the_step_plan():
    specs = [workloads.generate_sweep(seed, None) for seed in SEEDS]
    plans = {tuple(_plan(spec.point(i)[1]) for i in range(spec.size())) for spec in specs}
    assert len(plans) == 1
    assert len({spec.base.probe.amplitude for spec in specs}) == len(SEEDS)
    assert all(spec.size() == workloads.SWEEP_POINTS for spec in specs)


def test_prepare_writes_a_config_that_round_trips(tmp_path):
    s = workloads.prepare("run-fig3a", 5, tmp_path)
    assert s == workloads.generate_scenario("run-fig3a", 5)
    assert (tmp_path / "run-fig3a.cfg").is_file()


# ------------------------------------------------------------------ gates

T0, T_PRED, AFTER = 1.0, 3.0, 2.0


def _run_outputs(t_echo=T_PRED):
    t = np.linspace(0.0, 4.0, 4001)
    probe_in = np.exp(-((t - T0) / 0.05) ** 2)
    probe_out = 0.5 * np.exp(-((t - t_echo) / 0.05) ** 2) * np.exp(0.3j)
    table = np.column_stack([t, probe_in, 0 * t, probe_out.real, probe_out.imag,
                             np.abs(probe_out) ** 2])
    result = {"echo_peak_time": t_echo, "efficiency_R": 0.25, "fidelity": 0.9,
              "echo_fwhm": 0.08, "config_hash": "abc"}
    return result, table


def test_run_gate_accepts_an_echo_on_the_prediction():
    failures, err = workloads.check_run(*_run_outputs(), T_PRED, T0, AFTER)
    assert failures == [] and err == 0.0


def test_run_gate_rejects_nan():
    result, table = _run_outputs()
    table[1234, 3] = math.nan
    failures, _ = workloads.check_run(result, table, T_PRED, T0, AFTER)
    assert any("non-finite" in f for f in failures)
    result, table = _run_outputs()
    result["fidelity"] = math.nan
    assert workloads.check_run(result, table, T_PRED, T0, AFTER)[0]


def test_run_gate_rejects_a_shifted_echo():
    shifted = T_PRED + 0.05 * (T_PRED - T0)
    failures, err = workloads.check_run(*_run_outputs(shifted), T_PRED, T0, AFTER)
    assert err == pytest.approx(0.05)
    assert any("phase-area prediction" in f for f in failures)


def test_run_gate_rejects_a_series_that_disagrees_with_the_metrics():
    result, _ = _run_outputs()
    _, table = _run_outputs(T_PRED + 0.01)  # 10 samples late, inside ECHO_TOL
    failures, err = workloads.check_run(result, table, T_PRED, T0, AFTER)
    assert err == 0.0
    assert any("disagrees" in f for f in failures)


def test_run_gate_rejects_efficiency_outside_unit_interval():
    result, table = _run_outputs()
    result["efficiency_R"] = 1.2
    assert workloads.check_run(result, table, T_PRED, T0, AFTER)[0]


def _compare_outputs():
    table = np.ones((10, 5))
    residuals = {"rho31_rel_l2": 0.03, "rho21_rel_l2": 0.02, "probe_tail_rel_l2": 0.0286,
                 "validity_broadband_ordering": True, "omega_c": 100.0,
                 "impulse_amplitude": {"re": 0.007, "im": 0.0}}
    return residuals, table


def test_compare_gate():
    residuals, table = _compare_outputs()
    assert workloads.check_compare(residuals, table) == ([], 0.0286)
    table[3, 2] = math.inf
    assert workloads.check_compare(residuals, table)[0]
    residuals, table = _compare_outputs()
    residuals["probe_tail_rel_l2"] = workloads.TAIL_L2_BOUND
    assert workloads.check_compare(residuals, table)[0]
    residuals, table = _compare_outputs()
    residuals["validity_broadband_ordering"] = False
    assert workloads.check_compare(residuals, table)[0]
    residuals, table = _compare_outputs()
    residuals["impulse_amplitude"]["im"] = math.nan
    assert workloads.check_compare(residuals, table)[0]


def _sweep_table(t_echo=0.09, error="", r="0.5"):
    lines = ["index,medium.xi,profile.zeta,echo_peak_time,efficiency_R,dispersion,no_echo,error"]
    for i in range(workloads.SWEEP_POINTS):
        lines.append(f"{i},500,250,{t_echo if i == 7 else 0.09},{r if i == 7 else 0.5},"
                     f"False,False,{error if i == 7 else ''}")
    return "\n".join(lines) + "\n"


def test_sweep_gate():
    t_pred = [0.082] * workloads.SWEEP_POINTS
    good = _sweep_table()
    failures, err = workloads.check_sweep(good, t_pred, 0.048, reference=good)
    assert failures == [] and err == pytest.approx(0.008 / 0.034)
    for bad in (_sweep_table(t_echo="nan"), _sweep_table(r="1.5"),
                _sweep_table(error="ValueError: boom"), _sweep_table(t_echo=0.2)):
        assert workloads.check_sweep(bad, t_pred, 0.048)[0], bad
    assert workloads.check_sweep(good, t_pred, 0.048, reference=_sweep_table(t_echo=0.0900001))[0]
    short = "\n".join(good.splitlines()[:-1]) + "\n"
    assert workloads.check_sweep(short, t_pred, 0.048)[0]


# ----------------------------------------------------------------- trace

def test_self_times_add_up_to_the_root():
    tr = Tracer()
    tr.spans = [Span("iteration", 0.0, 10.0, None, 0),
                Span("solver.integrate", 1.0, 7.0, 0, 0),
                Span("model.validate", 1.5, 2.0, 1, 0),
                Span("io.csv", 8.0, 9.0, 0, 0)]
    st = tr.self_times(0)
    assert st == {"iteration": 3.0, "solver.integrate": 5.5, "model.validate": 0.5,
                  "io.csv": 1.0}
    assert sum(st.values()) == 10.0


def test_tracer_records_nested_spans_and_wrapped_calls():
    tr = Tracer()
    seen = []
    f = tr.wrap(lambda x: x + 1, "layer.f", lambda args, out: seen.append((args, out)))
    with tr.span("iteration"):
        assert f(1) == 2
    assert [(s.name, s.parent) for s in tr.spans] == [("iteration", None), ("layer.f", 0)]
    assert seen == [((1,), 2)]
    assert math.isclose(sum(tr.self_times(0).values()), tr.spans[0].end - tr.spans[0].start)


# ------------------------------------------------------- metric contract

def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOADS]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert set(run.SPAN_METRICS.values()) <= set(run.PER_LAYER)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "run-fig3a",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
