"""Command-line front end.

Subcommands: run, sweep, compare, analytic, feasibility.
Exit codes: 0 ok, 2 config error, 3 numeric divergence, 4 resource limit.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (AnalyticParams, impulse_equivalent_amplitude,
                       probe_closed, rho21_closed, rho31_closed)
from .config import (ConfigError, apply_grid_override, config_hash,
                     parse_scenario_file, serialize_scenario)
from .io import RunManifestWriter, write_csv, write_json, write_timeseries_csv
from .metrics import (AmbiguousPeakError, UndefinedMetricError,
                      compute_echo_metrics, feasibility)
from .model import Scenario, Uniform, broadband_ordering_ok, validate_scenario
from .scenarios import (BUILTIN_SCENARIOS, BUILTIN_SWEEPS, builtin_scenario,
                        builtin_sweep, scenario_notes)
from .solver import (MAX_COHERENCE, PROBE_WINDOW, DivergenceError,
                     ResourceLimitError, integrate, step_plan)
from .sweep import run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_RESOURCE = 4


def _load_scenario(ref: str) -> tuple[Scenario, str]:
    if ref in BUILTIN_SCENARIOS:
        return builtin_scenario(ref), scenario_notes(ref)
    path = Path(ref)
    if not path.is_file():
        raise ConfigError(f"{ref!r} is neither a builtin scenario "
                          f"({', '.join(sorted(BUILTIN_SCENARIOS))}) nor a file")
    return parse_scenario_file(path), ""


def _output_dir(path: str, *files: str) -> list[Path]:
    """The paths of ``files`` in the output directory ``path``, made if
    missing; a ConfigError names a directory that cannot be made or an
    output file path that is an existing directory, before any work."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path!r}: {exc.strerror}") from None
    paths = [Path(path) / f for f in files]
    for out in paths:
        if out.is_dir():
            raise ConfigError(f"output file {str(out)!r} is a directory")
    return paths


def _prepare(args, *files: str) -> tuple[Scenario, str, list[Path]]:
    scenario, note = _load_scenario(args.scenario)
    if args.grid_override:
        scenario = apply_grid_override(scenario, args.grid_override)
    return scenario, note, _output_dir(args.output, *files)


def cmd_run(args) -> int:
    name = Path(args.scenario).stem if Path(args.scenario).exists() else args.scenario
    scenario, note, (csv_path, metrics_path, manifest_path) = _prepare(
        args, f"{name}_timeseries.csv", f"{name}_metrics.json", f"{name}_manifest.json")
    issues = validate_scenario(scenario)
    for issue in issues:
        print(f"{issue.severity}: {issue.message}", file=sys.stderr)
    if any(i.severity == "error" for i in issues):
        return EXIT_CONFIG

    t_end = scenario.grid.t_end
    if args.efficiency_cut is not None and not 0.0 <= args.efficiency_cut <= t_end:
        raise ConfigError(f"--efficiency-cut {args.efficiency_cut:g} lies outside the "
                          f"recorded window [0, t_end = {t_end:g}]")
    plan = step_plan(scenario)
    manifest = RunManifestWriter(config_hash=config_hash(scenario),
                                 scenario=serialize_scenario(scenario),
                                 grid_used={"nz": scenario.grid.nz,
                                            "t_end": scenario.grid.t_end,
                                            "steps": sum(p.steps for p in plan),
                                            "pieces": [[p.t_start, p.t_end, p.steps, p.dt]
                                                       for p in plan]},
                                 note=note)
    record = integrate(scenario, check=False)  # validated above

    # score before writing: a scoring error (exit 2) leaves no files
    after = scenario.schedule.last_flip_time(t_end)
    t_cut = args.efficiency_cut if args.efficiency_cut is not None else after
    metrics_payload: dict = {"builtin": name, "config_hash": config_hash(scenario)}
    if after is None:
        metrics_payload["echo"] = "no control flip before t_end"
    else:
        try:
            metrics_payload.update(asdict(compute_echo_metrics(record, after, t_cut)))
        except AmbiguousPeakError as exc:
            metrics_payload.update(exc.metrics, echo=f"ambiguous: {exc}")
        except UndefinedMetricError as exc:
            metrics_payload["echo"] = f"undefined: {exc}"

    write_timeseries_csv(record, csv_path)
    write_json(metrics_payload, metrics_path)
    manifest.add_output(csv_path)
    manifest.add_output(metrics_path)
    manifest.write(manifest_path, peak_coherence=record.peak_coherence,
                   max_coherence=MAX_COHERENCE)
    print(f"wrote {csv_path} and {metrics_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.spec not in BUILTIN_SWEEPS:
        raise ConfigError(f"unknown sweep {args.spec!r}; available: "
                          f"{', '.join(sorted(BUILTIN_SWEEPS))}")
    checkpoint = Path(args.output) / "sweep_checkpoint.jsonl"
    # the spec first: a sweep that cannot start keeps the old checkpoint
    spec = builtin_sweep(args.spec, workers=args.workers, checkpoint=str(checkpoint))
    _, csv_path, manifest_path = _output_dir(args.output, checkpoint.name, "sweep.csv",
                                             "sweep_manifest.json")
    if not args.resume:
        checkpoint.unlink(missing_ok=True)
    manifest = RunManifestWriter(sweep=args.spec, grid_shape=list(spec.shape),
                                 axes=[[p, list(vals)] for p, vals in spec.axes],
                                 base_config_hash=config_hash(spec.base),
                                 workers=args.workers)
    result = run_sweep(spec)
    result.to_csv(csv_path)
    manifest.add_output(csv_path)
    failed = [r.index for r in result.rows if r.error]
    manifest.write(manifest_path, failed_points=failed)
    print(f"wrote {csv_path} ({len(result.rows)} points, {len(failed)} failed)")
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario, _, (residuals_path, csv_path) = _prepare(args, "compare_residuals.json",
                                                       "compare.csv")
    if not isinstance(scenario.profile, Uniform) or len(scenario.schedule.segments) != 1:
        raise ConfigError("compare needs a constant control field: a uniform "
                          "profile and a single-segment schedule")
    med = scenario.medium
    if med.delta_p or med.delta_c or med.gamma_ground or med.xi == 0:
        raise ConfigError("compare needs the medium its closed forms describe: "
                          "xi > 0 and delta_p = delta_c = gamma_ground = 0")
    if scenario.probe.amplitude == 0:
        raise ConfigError("compare needs a nonzero probe amplitude: its residuals are "
                          "relative to the closed-form response to that probe")
    t0 = scenario.probe.center_time
    # the impulse closed forms hold once the probe has entered: past its window
    tail = max(PROBE_WINDOW * scenario.probe.width, 1e-9)
    if scenario.grid.t_end - t0 <= tail:
        raise ConfigError(f"compare needs t_end > center + {PROBE_WINDOW:g} widths "
                          f"= {t0 + tail:g} tau")
    z_mid = med.length / 2.0
    record = integrate(scenario, nodes=(z_mid,))
    omega_c = scenario.schedule.segments[0][1] * scenario.profile.b
    amp = impulse_equivalent_amplitude(scenario.probe)

    ok = broadband_ordering_ok(1.0 / scenario.probe.width, abs(omega_c),
                               med.gamma_decay)

    r31, r21 = record.rho31[:, 0], record.rho21[:, 0]
    Tc = record.snapshot_times - t0
    mc = Tc > tail
    p_mid = AnalyticParams(omega_c=omega_c, eta_z=med.eta * z_mid,
                           gamma_decay=med.gamma_decay, probe_amp=amp)
    r31_ref = rho31_closed(p_mid, Tc[mc])
    r21_ref = rho21_closed(p_mid, Tc[mc])

    T = record.times - t0
    mt = T > tail
    p_out = replace(p_mid, eta_z=med.eta * med.length)
    tail_ref = amp * probe_closed(p_out, T[mt])

    def rel_l2(a, b):
        return float(np.linalg.norm(a - b) / np.linalg.norm(b))

    residuals = {
        "rho31_rel_l2": rel_l2(r31[mc], r31_ref),
        "rho21_rel_l2": rel_l2(r21[mc], r21_ref),
        "probe_tail_rel_l2": rel_l2(record.probe_out[mt], tail_ref),
        "validity_broadband_ordering": ok,
        "omega_c": omega_c,
        "impulse_amplitude": {"re": amp.real, "im": amp.imag},
    }

    write_json(residuals, residuals_path)  # refuses a NaN first
    write_csv(csv_path,
              "T,re_solver_tail,im_solver_tail,re_closed_tail,im_closed_tail",
              [T[mt], record.probe_out[mt].real, record.probe_out[mt].imag,
               tail_ref.real, tail_ref.imag])
    print(json.dumps(residuals, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_analytic(args) -> int:
    p = AnalyticParams(omega_c=args.omega_c, eta_z=args.eta_z,
                       gamma_decay=args.gamma, probe_amp=args.amp)
    T = np.linspace(args.t_min, args.t_max, args.samples)
    T = T[T > 0]
    if not T.size:
        raise ConfigError(f"no sample time T > 0 among {args.samples} samples "
                          f"from {args.t_min:g} to {args.t_max:g}")
    [path] = _output_dir(args.output, "analytic.csv")
    r31 = rho31_closed(p, T)
    r21 = rho21_closed(p, T)
    tail = args.amp * probe_closed(p, T)
    write_csv(path, "T,im_rho31,re_rho31,re_rho21,im_rho21,probe_tail",
              [T, r31.imag, r31.real, r21.real, r21.imag, tail.real])
    print(f"wrote {path}")
    return EXIT_OK


def cmd_feasibility(args) -> int:
    report = feasibility(b=args.b, length_cm=args.length_cm,
                         wavelength_nm=args.wavelength_nm,
                         geometry=args.geometry, lifetime_s=args.tau_s)
    print(json.dumps(asdict(report), indent=2, sort_keys=True))
    return EXIT_OK


def finite_number(text: str) -> float:
    """argparse type: a finite float; argparse turns the ValueError of
    ``nan``, ``inf`` or a non-number into exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gradecho",
        description="Gradient photon echo simulator: scheduled control-field "
                    "dynamics, closed-form overlays, metrics and sweeps.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="integrate one scenario and emit CSV/JSON")
    runp.add_argument("scenario", help="builtin name or config file path")
    runp.add_argument("--output", required=True, help="output directory")
    runp.add_argument("--grid-override", default="",
                      help="comma list of key=value pairs for the [grid] "
                           "section, read as in a config file (units, auto)")
    runp.add_argument("--efficiency-cut", type=finite_number, default=None,
                      dest="efficiency_cut",
                      help="storage-efficiency lower time limit "
                           "(default: last control flip)")
    runp.set_defaults(func=cmd_run)

    swp = sub.add_parser("sweep", help="run a parameter grid")
    swp.add_argument("spec", help="builtin sweep name (fig4a-coarse)")
    swp.add_argument("--output", required=True)
    swp.add_argument("--workers", type=int, default=1)
    swp.add_argument("--resume", action="store_true",
                     help="reuse an existing checkpoint in the output dir")
    swp.set_defaults(func=cmd_sweep)

    cmp = sub.add_parser("compare", help="solver vs closed forms for constant control")
    cmp.add_argument("scenario", help="builtin name (oracle, oracle-ats) or config")
    cmp.add_argument("--output", required=True)
    cmp.add_argument("--grid-override", default="")
    cmp.set_defaults(func=cmd_compare)

    ana = sub.add_parser("analytic", help="emit closed-form curves as CSV")
    ana.add_argument("--output", required=True)
    ana.add_argument("--omega-c", type=finite_number, required=True, dest="omega_c")
    ana.add_argument("--eta-z", type=finite_number, required=True, dest="eta_z")
    ana.add_argument("--gamma", type=finite_number, default=1.0)
    ana.add_argument("--amp", type=finite_number, default=1.0)
    ana.add_argument("--t-min", type=finite_number, default=1e-3, dest="t_min")
    ana.add_argument("--t-max", type=finite_number, default=10.0, dest="t_max")
    ana.add_argument("--samples", type=int, default=2000)
    ana.set_defaults(func=cmd_analytic)

    fea = sub.add_parser("feasibility", help="laboratory-scale control beam estimates")
    fea.add_argument("--b", type=finite_number, required=True,
                     help="focal Rabi frequency in units of 1/tau")
    fea.add_argument("--length-cm", type=finite_number, default=5.0, dest="length_cm")
    fea.add_argument("--wavelength-nm", type=finite_number, default=780.0,
                     dest="wavelength_nm")
    fea.add_argument("--geometry", choices=("gaussian", "perpendicular"),
                     default="gaussian")
    fea.add_argument("--tau-s", type=finite_number, default=5e-9, dest="tau_s",
                     help="excited-state lifetime in seconds")
    fea.set_defaults(func=cmd_feasibility)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
