import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gradecho
from gradecho.cli import main
from gradecho.config import serialize_scenario
from gradecho.model import ControlSchedule, MediumParams
from gradecho.scenarios import builtin_scenario, builtin_sweep
from gradecho.sweep import SweepSpec

from .conftest import small_scenario

SMALL_OVERRIDE = "nz=128,t_end=2.0"


def _write_small_config(tmp_path, **overrides):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(serialize_scenario(small_scenario(**overrides)), encoding="utf-8")
    return cfg


def test_run_builtin_writes_files(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "fig4c", "--output", str(out),
                 "--grid-override", "nz=256,t_end=0.3",
                 "--efficiency-cut", "0.065"])
    assert code == 0
    assert (out / "fig4c_timeseries.csv").exists()
    metrics = json.loads((out / "fig4c_metrics.json").read_text())
    assert 0.19 < metrics["echo_peak_time"] < 0.25
    manifest = json.loads((out / "fig4c_manifest.json").read_text())
    assert set(manifest) == {"tool", "version", "config_hash", "scenario",
                             "grid_used", "note", "outputs", "wall_time_s"}
    assert len(manifest["outputs"]) == 2
    assert manifest["config_hash"] == metrics["config_hash"]


def test_run_config_file(tmp_path):
    cfg = _write_small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    assert (out / "small_timeseries.csv").exists()


def test_run_determinism_bit_identical(tmp_path):
    cfg = _write_small_config(tmp_path)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", str(cfg), "--output", str(out)]) == 0
        outs.append((out / "small_timeseries.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_missing_field_exits_2_no_partial_files(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(serialize_scenario(small_scenario()).replace("t_end", "tend"),
                   encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", str(cfg), "--output", str(out)])
    assert code == 2
    assert not out.exists() or not any(out.iterdir())


def test_run_under_resolved_grid_exits_2(tmp_path):
    cfg = _write_small_config(tmp_path)
    out = tmp_path / "out"
    code = main(["run", str(cfg), "--output", str(out), "--grid-override", "dt=0.5"])
    assert code == 2
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("override", ["t_end=1.5 tau", "t_end=1500000 utau",
                                      "dt=auto, t_end=1.5"])
def test_grid_override_reads_the_config_grammar(tmp_path, override):
    cfg = _write_small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out), "--grid-override", override]) == 0
    manifest = json.loads((out / "small_manifest.json").read_text())
    assert manifest["grid_used"]["t_end"] == pytest.approx(1.5, rel=1e-15)


@pytest.mark.parametrize("override", ["nz=64.0", "n_z=64", "t_end", "t_end=1.5 gamma",
                                      "record_stride=2.5", "t_end=inf", "dt=nan"])
def test_bad_grid_override_exits_2(tmp_path, override):
    cfg = _write_small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out), "--grid-override", override]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_run_records_a_multimodal_echo_like_the_sweep(tmp_path):
    # fig4a-coarse point 22 (xi = 8000, zeta = 1000): the echo has a
    # secondary peak at 0.87 of its maximum, so its width is undefined
    cfg = tmp_path / "pt22.cfg"
    cfg.write_text(serialize_scenario(builtin_sweep("fig4a-coarse").point(22)[1]),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    metrics = json.loads((out / "pt22_metrics.json").read_text())
    assert metrics["echo"].startswith("ambiguous: ")
    assert set(metrics) == {"builtin", "config_hash", "echo", "efficiency_R",
                            "echo_peak_time", "echo_peak_value"}
    assert 0 < metrics["efficiency_R"] < 1
    manifest = json.loads((out / "pt22_manifest.json").read_text())
    assert len(manifest["outputs"]) == 2


def test_run_with_no_echo_records_undefined_and_writes_every_file(tmp_path):
    cfg = _write_small_config(tmp_path, medium=MediumParams(xi=0.0))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    metrics = json.loads((out / "small_metrics.json").read_text())
    assert metrics["echo"] == "undefined: no echo above the detection floor"
    assert sorted(p.name for p in out.iterdir()) == [
        "small_manifest.json", "small_metrics.json", "small_timeseries.csv"]


@pytest.mark.parametrize("extra", [
    ["--grid-override", "t_end=0.1, nz=128"],  # the last flip lies past t_end
    ["--grid-override", "t_end=0.3, nz=128", "--efficiency-cut", "0.5"],
])
def test_scoring_error_exits_2_and_writes_nothing(tmp_path, extra):
    out = tmp_path / "out"
    assert main(["run", "fig4b", "--output", str(out), *extra]) == 2
    assert not any(out.iterdir())


@pytest.mark.parametrize("segments, ramp", [
    # the ramp from 0.7 ends one ulp before the 0.8 segment
    (((0.0, 1.0), (0.7, -1.0), (0.8, 1.0), (1.2, -1.0)), 0.1),
    # a flip through zero gain, with the probe window ending one ulp past 0.6
    (((0.0, 1.0), (0.6, 0.0), (0.8, -1.0)), 0.0),
], ids=["ramp-end", "zero-gain-flip"])
def test_run_scores_schedules_near_rounding_edges(tmp_path, segments, ramp):
    cfg = _write_small_config(tmp_path, schedule=ControlSchedule(segments, ramp_time=ramp))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    metrics = json.loads((out / "small_metrics.json").read_text())
    assert "echo" not in metrics
    assert metrics["echo_peak_time"] > segments[-1][0]


def test_run_with_a_short_segment_records_undefined(tmp_path):
    # a 1e-10 segment makes the finest record spacing 2e10 times below the
    # window: the correlation refuses the resample grid instead of allocating it
    cfg = _write_small_config(tmp_path, schedule=ControlSchedule(
        ((0.0, 1.0), (0.8, -1.0), (0.8000000001, -1.0))))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    metrics = json.loads((out / "small_metrics.json").read_text())
    assert metrics["echo"].startswith("undefined: resampling needs")


@pytest.mark.parametrize("module, names", [
    (gradecho.cli, ("parse_scenario_file", "validate_scenario", "integrate",
                    "compute_echo_metrics", "write_timeseries_csv", "rho31_closed",
                    "rho21_closed", "probe_closed")),
    (gradecho.sweep, ("validate_scenario", "integrate", "compute_echo_metrics")),
])
def test_names_the_benchmark_traces_exist(module, names):
    # benchmarks/workloads.py rebinds these module attributes to time each layer
    for name in names:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_unknown_builtin_exits_2(tmp_path):
    assert main(["run", "fig9z", "--output", str(tmp_path / "o")]) == 2


def test_sweep_cli_with_injected_tiny_grid(tmp_path, monkeypatch):
    import gradecho.cli as cli_mod

    def tiny(workers=1, checkpoint=None):
        return SweepSpec(base=small_scenario(), axes=(("medium.xi", (20.0, 50.0)),),
                         workers=workers, checkpoint=checkpoint,
                         efficiency_cut=0.8, detect_after=0.8)

    monkeypatch.setitem(cli_mod.BUILTIN_SWEEPS, "tiny", tiny)
    monkeypatch.setattr("gradecho.scenarios.BUILTIN_SWEEPS",
                        cli_mod.BUILTIN_SWEEPS)
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    assert main(["sweep", "tiny", "--output", str(out1), "--workers", "1"]) == 0
    assert main(["sweep", "tiny", "--output", str(out2), "--workers", "2"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    # resume: rerun over the finished checkpoint gives the identical table
    assert main(["sweep", "tiny", "--output", str(out1), "--resume"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    # a checkpoint written for another spec is refused with exit 2
    ckpt = out1 / "sweep_checkpoint.jsonl"
    lines = ckpt.read_text(encoding="utf-8").splitlines()
    ckpt.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    assert main(["sweep", "tiny", "--output", str(out1), "--resume"]) == 2


@pytest.mark.parametrize("argv", [["fig4a-corse"], ["fig4a-coarse", "--workers", "0"]],
                         ids=["unknown-spec", "no-workers"])
def test_failed_sweep_keeps_the_old_checkpoint(tmp_path, argv):
    ckpt = tmp_path / "sweep_checkpoint.jsonl"
    ckpt.write_bytes(b'{"gradecho_checkpoint": "abc"}\n')
    assert main(["sweep", *argv, "--output", str(tmp_path)]) == 2
    assert ckpt.read_bytes() == b'{"gradecho_checkpoint": "abc"}\n'


def test_sweep_manifest(tmp_path, monkeypatch):
    import gradecho.cli as cli_mod

    def tiny(workers=1, checkpoint=None):
        return SweepSpec(base=small_scenario(), axes=(("medium.xi", (20.0, -5.0)),),
                         workers=workers, checkpoint=checkpoint,
                         efficiency_cut=0.8, detect_after=0.8)

    monkeypatch.setitem(cli_mod.BUILTIN_SWEEPS, "tiny", tiny)
    out = tmp_path / "out"
    assert main(["sweep", "tiny", "--output", str(out)]) == 0
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert set(manifest) == {"tool", "version", "sweep", "grid_shape", "axes",
                             "base_config_hash", "workers", "outputs",
                             "failed_points", "wall_time_s"}
    assert manifest["sweep"] == "tiny"
    assert manifest["grid_shape"] == [2]
    assert manifest["axes"] == [["medium.xi", [20.0, -5.0]]]
    assert manifest["workers"] == 1
    assert manifest["outputs"] == [str(out / "sweep.csv")]
    assert manifest["failed_points"] == [1]


def test_compare_emits_residuals(tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", "oracle-ats", "--output", str(out),
                 "--grid-override", "t_end=3.0,nz=256"])
    assert code == 0
    res = json.loads((out / "compare_residuals.json").read_text())
    assert res["validity_broadband_ordering"] is True
    assert res["rho31_rel_l2"] < 0.1
    assert (out / "compare.csv").exists()


def test_compare_rejects_structured_profile(tmp_path):
    assert main(["compare", "fig4b", "--output", str(tmp_path / "x")]) == 2


def _no_integrate(*args, **kwargs):
    raise AssertionError("integrate called")


def test_compare_refuses_an_empty_tail_window(tmp_path, monkeypatch):
    # oracle-ats: the tail starts 8 widths past the center, at t = 0.016
    monkeypatch.setattr(gradecho.cli, "integrate", _no_integrate)
    out = tmp_path / "out"
    assert main(["compare", "oracle-ats", "--output", str(out),
                 "--grid-override", "t_end=0.01"]) == 2
    assert not any(out.iterdir())


def test_compare_refuses_a_run_without_coherences(tmp_path, monkeypatch):
    cfg = tmp_path / "ats.cfg"
    cfg.write_text(serialize_scenario(replace(builtin_scenario("oracle-ats"),
                                              outputs=("probe_in", "probe_out"))),
                   encoding="utf-8")
    monkeypatch.setattr(gradecho.cli, "integrate", _no_integrate)
    out = tmp_path / "out"
    assert main(["compare", str(cfg), "--output", str(out)]) == 2
    assert not any(out.iterdir())


@pytest.mark.parametrize("medium", [dict(xi=0.0), dict(delta_p=50.0, gamma_ground=5.0)],
                         ids=["uncoupled", "detuned-dephased"])
def test_compare_refuses_a_medium_its_closed_forms_do_not_describe(tmp_path, monkeypatch,
                                                                  medium):
    # xi = 0 wrote an Infinity residual; a detuned, dephased medium was
    # scored against forms that assume neither (residuals ~1), both exit 0
    s = builtin_scenario("oracle-ats")
    s = replace(s, medium=replace(s.medium, **medium), grid=replace(s.grid, t_end=0.5))
    cfg = tmp_path / "ats.cfg"
    cfg.write_text(serialize_scenario(s), encoding="utf-8")
    monkeypatch.setattr(gradecho.cli, "integrate", _no_integrate)
    out = tmp_path / "out"
    assert main(["compare", str(cfg), "--output", str(out)]) == 2
    assert not any(out.iterdir())


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses a flag's value
        return exc.code


@pytest.mark.parametrize("argv", [
    ["feasibility", "--b", "nan"],
    ["feasibility", "--b", "inf"],
    ["feasibility", "--b", "1000", "--tau-s", "0"],
    ["feasibility", "--b", "1000", "--length-cm", "-5"],
    ["feasibility", "--b", "1000", "--wavelength-nm", "0", "--geometry", "perpendicular"],
    ["analytic", "--omega-c", "nan", "--eta-z", "5"],
    ["analytic", "--omega-c", "100", "--eta-z", "-5"],
    ["analytic", "--omega-c", "100", "--eta-z", "5", "--gamma", "-1"],
    ["analytic", "--omega-c", "100", "--eta-z", "5", "--t-max", "inf"],
])
def test_bad_command_line_number_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] == "analytic":
        argv = argv + ["--output", str(out)]
    assert _exit_code(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_analytic_emission(tmp_path):
    out = tmp_path / "ana"
    code = main(["analytic", "--output", str(out), "--omega-c", "0.3",
                 "--eta-z", "5.0", "--samples", "100"])
    assert code == 0
    lines = (out / "analytic.csv").read_text().splitlines()
    assert lines[0].startswith("T,")
    assert len(lines) > 50


def test_feasibility_prints_report(capsys):
    assert main(["feasibility", "--b", "1000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rayleigh_um"] == pytest.approx(50.0, rel=0.02)
    assert payload["power_w"] == pytest.approx(0.08, rel=0.1)


def test_cli_import_loads_no_scipy_and_no_process_pool():
    # gradecho run and gradecho sweep never call scipy, and a serial sweep
    # starts no pool: neither belongs on the import path
    src = str(Path(gradecho.__file__).resolve().parent.parent)
    code = ("import sys; import gradecho, gradecho.cli; "
            "print('\\n'.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={"PYTHONPATH": src}).stdout
    loaded = [m for m in out.split()
              if m.split(".")[0] in ("scipy", "multiprocessing")
              or m.startswith("concurrent.futures")]
    assert loaded == []
