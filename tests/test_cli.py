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
from gradecho.solver import MAX_COHERENCE, integrate
from gradecho.sweep import SweepSpec

from .conftest import fig4b_with_a_segment_past_t_end, small_scenario
from .test_config import FIG3A_TEXT_0_4_3

SMALL_OVERRIDE = "nz=128,t_end=2.0"


def _write_small_config(tmp_path, **overrides):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(serialize_scenario(small_scenario(**overrides)), encoding="utf-8")
    return cfg


def test_package_version_matches_pyproject():
    # the version is written by hand in both places; manifests and
    # checkpoints quote the package's
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == gradecho.__version__


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
                             "grid_used", "note", "outputs", "wall_time_s",
                             "peak_coherence", "max_coherence"}
    assert len(manifest["outputs"]) == 2
    assert manifest["config_hash"] == metrics["config_hash"]


def test_run_config_file(tmp_path):
    cfg = _write_small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    assert (out / "small_timeseries.csv").exists()


def test_run_manifest_reports_the_peak_coherence_against_the_guard(tmp_path):
    cfg = _write_small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    manifest = json.loads((out / "small_manifest.json").read_text())
    assert manifest["max_coherence"] == MAX_COHERENCE
    assert manifest["peak_coherence"] == integrate(small_scenario()).peak_coherence
    assert 0.0 < manifest["peak_coherence"] < MAX_COHERENCE


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


def test_run_on_a_0_4_3_config_exits_2_no_partial_files(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(FIG3A_TEXT_0_4_3, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 2
    assert "unknown field 'shape'" in capsys.readouterr().err
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
                                      "record_stride=2.5", "t_end=inf", "dt=nan",
                                      "nz=100"])  # nz must be a multiple of 8
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


def test_run_with_no_flip_records_no_echo_and_writes_every_file(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "oracle", "--output", str(out)]) == 0
    assert (out / "oracle_timeseries.csv").exists()
    metrics = json.loads((out / "oracle_metrics.json").read_text())
    assert set(metrics) == {"builtin", "config_hash", "echo"}
    assert metrics["echo"] == "no control flip before t_end"
    manifest = json.loads((out / "oracle_manifest.json").read_text())
    assert manifest["outputs"] == [str(out / "oracle_timeseries.csv"),
                                   str(out / "oracle_metrics.json")]


def test_run_scores_the_echo_after_the_last_flip_before_t_end(tmp_path):
    cfg = tmp_path / "fig4b.cfg"
    cfg.write_text(serialize_scenario(fig4b_with_a_segment_past_t_end()), encoding="utf-8")
    assert main(["run", str(cfg), "--output", str(tmp_path / "ext")]) == 0
    assert main(["run", "fig4b", "--output", str(tmp_path / "plain")]) == 0
    ext = json.loads((tmp_path / "ext" / "fig4b_metrics.json").read_text())
    plain = json.loads((tmp_path / "plain" / "fig4b_metrics.json").read_text())
    for key in ("builtin", "config_hash"):
        del ext[key], plain[key]
    assert "echo_peak_time" in plain
    assert ext == plain


def test_run_with_the_flip_past_t_end_records_no_echo(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "fig4b", "--output", str(out),
                 "--grid-override", "t_end=0.15, nz=128"]) == 0
    assert (out / "fig4b_timeseries.csv").exists()
    metrics = json.loads((out / "fig4b_metrics.json").read_text())
    assert metrics["echo"] == "no control flip before t_end"


@pytest.mark.parametrize("t_end", ["0.1602", "0.161"])
def test_run_with_no_whole_echo_after_the_flip_records_undefined(tmp_path, t_end):
    # fig4b flips at 0.16: at 0.1602 two samples follow the flip and the run
    # exited 2 after integrating; up to 0.161 the output only rises
    out = tmp_path / "out"
    assert main(["run", "fig4b", "--output", str(out),
                 "--grid-override", f"t_end={t_end}, nz=128"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "fig4b_manifest.json", "fig4b_metrics.json", "fig4b_timeseries.csv"]
    metrics = json.loads((out / "fig4b_metrics.json").read_text())
    assert metrics["echo"] == "undefined: no whole echo: no dip after the flip at t = 0.16"


def test_efficiency_cut_past_an_overridden_t_end_exits_2_and_writes_nothing(tmp_path,
                                                                           monkeypatch):
    monkeypatch.setattr(gradecho.cli, "integrate", _no_integrate)
    out = tmp_path / "out"
    assert main(["run", "fig4b", "--output", str(out), "--grid-override", "t_end=0.3, nz=128",
                 "--efficiency-cut", "0.5"]) == 2
    assert not any(out.iterdir())


@pytest.mark.parametrize("segments, ramp, xi, echo", [
    # the ramp from 0.7 ends one ulp before the 0.8 segment; the phase area
    # rephases only past t_end = 2, and the lobe at 1.45 after the last flip
    # is the forward emission, so the echo is still rising at the last sample
    (((0.0, 1.0), (0.7, -1.0), (0.8, 1.0), (1.2, -1.0)), 0.1, 50.0,
     "undefined: no whole echo: peak at the window edge t = 2"),
    # a flip through zero gain, with the probe window ending one ulp past 0.6;
    # at xi = 75 the echo after the flip outgrows the decaying forward emission
    (((0.0, 1.0), (0.6, 0.0), (0.8, -1.0)), 0.0, 75.0, None),
], ids=["ramp-end", "zero-gain-flip"])
def test_run_scores_schedules_near_rounding_edges(tmp_path, segments, ramp, xi, echo):
    cfg = _write_small_config(tmp_path, schedule=ControlSchedule(segments, ramp_time=ramp),
                              medium=MediumParams(xi=xi))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    metrics = json.loads((out / "small_metrics.json").read_text())
    assert metrics.get("echo") == echo
    if echo is None:
        assert metrics["echo_peak_time"] > segments[-1][0]


def test_run_with_a_short_segment_records_undefined(tmp_path):
    # a 1e-10 segment makes the finest record spacing 2e10 times below the
    # window: the correlation refuses the resample grid instead of allocating it
    # (at xi = 75 the echo after the flip outgrows the decaying forward emission)
    cfg = _write_small_config(tmp_path, schedule=ControlSchedule(
        ((0.0, 1.0), (0.8, -1.0), (0.8000000001, -1.0))), medium=MediumParams(xi=75.0))
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
                         workers=workers, checkpoint=checkpoint)

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
        return SweepSpec(base=small_scenario(), axes=(("medium.xi", (50.0, -5.0)),),
                         workers=workers, checkpoint=checkpoint)

    monkeypatch.setitem(cli_mod.BUILTIN_SWEEPS, "tiny", tiny)
    out = tmp_path / "out"
    assert main(["sweep", "tiny", "--output", str(out)]) == 0
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert set(manifest) == {"tool", "version", "sweep", "grid_shape", "axes",
                             "base_config_hash", "workers", "outputs",
                             "failed_points", "wall_time_s"}
    assert manifest["sweep"] == "tiny"
    assert manifest["grid_shape"] == [2]
    assert manifest["axes"] == [["medium.xi", [50.0, -5.0]]]
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


def test_compare_meets_the_closed_form_gate_past_the_probe_window(tmp_path):
    # the full-length oracle-ats run: the coherences at L/2 are scored from
    # where the probe tail is, 8 widths past the probe center, so no sample
    # of the entering probe, where the impulse forms do not hold, weighs in
    # (measured 0.0281 rho31 and 0.0147 rho21 against the 5% gate)
    out = tmp_path / "cmp"
    assert main(["compare", "oracle-ats", "--output", str(out)]) == 0
    res = json.loads((out / "compare_residuals.json").read_text())
    assert res["rho31_rel_l2"] <= 0.05
    assert res["rho21_rel_l2"] <= 0.05
    assert res["probe_tail_rel_l2"] <= 0.05


def test_compare_rejects_structured_profile(tmp_path):
    assert main(["compare", "fig4b", "--output", str(tmp_path / "x")]) == 2


def _no_integrate(*args, **kwargs):
    raise AssertionError("integrate called")


@pytest.mark.parametrize("cut", ["5", "-0.1"])
def test_efficiency_cut_outside_the_record_exits_2_before_integrating(tmp_path, monkeypatch,
                                                                      cut):
    monkeypatch.setattr(gradecho.cli, "integrate", _no_integrate)
    out = tmp_path / "out"
    assert main(["run", "fig4b", "--output", str(out), "--efficiency-cut", cut]) == 2
    assert not any(out.iterdir())


def test_compare_refuses_an_empty_tail_window(tmp_path, monkeypatch):
    # oracle-ats: the tail starts 8 widths past the center, at t = 0.016
    monkeypatch.setattr(gradecho.cli, "integrate", _no_integrate)
    out = tmp_path / "out"
    assert main(["compare", "oracle-ats", "--output", str(out),
                 "--grid-override", "t_end=0.01"]) == 2
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


def test_compare_refuses_a_zero_probe_amplitude(tmp_path, monkeypatch, capsys):
    # it integrated, warned of a 0/0 in the relative residuals and exited 2
    # on a NaN that JSON refuses
    s = builtin_scenario("oracle-ats")
    s = replace(s, probe=replace(s.probe, amplitude=0.0), grid=replace(s.grid, t_end=0.5))
    cfg = tmp_path / "ats.cfg"
    cfg.write_text(serialize_scenario(s), encoding="utf-8")
    monkeypatch.setattr(gradecho.cli, "integrate", _no_integrate)
    out = tmp_path / "out"
    assert main(["compare", str(cfg), "--output", str(out)]) == 2
    assert not any(out.iterdir())
    assert "amplitude" in capsys.readouterr().err


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses a flag's value
        return exc.code


@pytest.mark.parametrize("argv", [
    ["feasibility", "--b", "nan"],
    ["feasibility", "--b", "1e200"],  # the intensity estimate overflows
    ["feasibility", "--b", "inf"],
    ["feasibility", "--b", "1000", "--tau-s", "0"],
    ["feasibility", "--b", "1000", "--length-cm", "-5"],
    ["feasibility", "--b", "1000", "--wavelength-nm", "0", "--geometry", "perpendicular"],
    ["analytic", "--omega-c", "nan", "--eta-z", "5"],
    ["analytic", "--omega-c", "100", "--eta-z", "-5"],
    ["analytic", "--omega-c", "100", "--eta-z", "5", "--gamma", "-1"],
    ["analytic", "--omega-c", "100", "--eta-z", "5", "--t-max", "inf"],
    ["analytic", "--omega-c", "100", "--eta-z", "5", "--samples", "-5"],
    ["analytic", "--omega-c", "100", "--eta-z", "5", "--samples", "0"],  # no curve
    ["analytic", "--omega-c", "100", "--eta-z", "5", "--t-min", "0", "--t-max", "0"],
])
def test_bad_command_line_number_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] == "analytic":
        argv = argv + ["--output", str(out)]
    assert _exit_code(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["run", "{dir}", "--output", "{out}"], "{dir}"),
    (["compare", "{dir}", "--output", "{out}"], "{dir}"),
    (["run", "oracle", "--output", "{file}/out"], "{file}/out"),
    (["run", "oracle", "--output", "{file}"], "{file}"),
    (["compare", "oracle", "--output", "{file}/out"], "{file}/out"),
    (["sweep", "fig4a-coarse", "--output", "{file}/out"], "{file}/out"),
    (["analytic", "--omega-c", "100", "--eta-z", "5", "--output", "{file}/out"],
     "{file}/out"),
    (["run", "oracle", "--output", "{out}"], "{out}/oracle_timeseries.csv"),
    (["run", "oracle", "--output", "{out}"], "{out}/oracle_manifest.json"),
    (["sweep", "fig4a-coarse", "--output", "{out}"], "{out}/sweep_checkpoint.jsonl"),
    (["sweep", "fig4a-coarse", "--output", "{out}"], "{out}/sweep.csv"),
    (["compare", "oracle", "--output", "{out}"], "{out}/compare.csv"),
    (["analytic", "--omega-c", "100", "--eta-z", "5", "--output", "{out}"],
     "{out}/analytic.csv"),
], ids=["run-dir-scenario", "compare-dir-scenario", "run-output-under-a-file",
        "run-output-is-a-file", "compare-output-under-a-file",
        "sweep-output-under-a-file", "analytic-output-under-a-file",
        "run-csv-is-a-dir", "run-manifest-is-a-dir", "sweep-checkpoint-is-a-dir",
        "sweep-csv-is-a-dir", "compare-csv-is-a-dir", "analytic-csv-is-a-dir"])
def test_a_bad_scenario_or_output_path_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                  monkeypatch, argv, named):
    # a directory is no scenario file, and an output directory that cannot
    # be made, or an output file path inside it that is an existing
    # directory, is a config error naming the path, before any run: not a
    # traceback, and not after the whole run
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("x", encoding="utf-8")
    paths = dict(dir=tmp_path / "dir", file=tmp_path / "file", out=tmp_path / "out")
    named = named.format(**paths)
    if named.startswith(str(paths["out"])):
        Path(named).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))

    def no_run(*args, **kwargs):
        raise AssertionError("ran before checking its output paths")

    monkeypatch.setattr(gradecho.cli, "integrate", no_run)
    monkeypatch.setattr(gradecho.cli, "run_sweep", no_run)
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text(encoding="utf-8") == "x"


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
