import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import j0, j1

from gradecho.analytic import AnalyticParams, impulse_equivalent_amplitude, rho31_closed
from gradecho.model import (ControlSchedule, GridSpec, Linear, MediumParams,
                            ProbePulse, Scenario, Uniform)
from gradecho.scenarios import BUILTIN_SCENARIOS, builtin_scenario
from gradecho.solver import (DivergenceError, ResourceLimitError,
                             _check_coherences, _coherence_matrix, _rk4_map,
                             convergence_check, integrate, step_plan)

from .conftest import (constant_control_response, method_of_lines_response,
                       rel_l2, small_scenario)


def test_empty_medium_passes_probe_through():
    s = small_scenario(medium=MediumParams(xi=0.0), flip=False)
    rec = integrate(s)
    assert rel_l2(rec.probe_out, rec.probe_in) < 1e-14


def test_two_level_exact_impulse_response():
    """Control off: the transmitted tail and rho31 match the exact
    optically-thick two-level response

        tail(T)  = -A sqrt(eta z / (2T)) J1(sqrt(2 eta z T)) exp(-Gamma T/2)
        rho31(T) = (i A / 2) J0(sqrt(2 eta z T)) exp(-Gamma T/2)

    for a boundary impulse of area A (independent oracle for the scheme)."""
    kappa, t0 = 1e-3, 8e-3
    s = Scenario(
        medium=MediumParams(xi=20.0),
        profile=Uniform(b=0.0),
        schedule=ControlSchedule(segments=((0.0, 1.0),)),
        probe=ProbePulse(amplitude=1.0, center_time=t0, width=kappa,
                         shape="regularized_delta"),
        grid=GridSpec(t_end=5.0, nz=256),
    )
    rec = integrate(s)
    area = s.probe.area
    eta_L = s.medium.eta * s.medium.length

    T = rec.times - t0
    m = (T >= 0.5) & (T <= 5.0)
    tail_exact = (-np.sqrt(eta_L / (2 * T[m])) * j1(np.sqrt(2 * eta_L * T[m]))
                  * np.exp(-T[m] / 2.0) * area)
    assert rel_l2(rec.probe_out[m], tail_exact) < 0.01

    snap_t, r31, _ = rec.coherence_at(s.medium.length)
    Ts = snap_t - t0
    ms = (Ts >= 0.5) & (Ts <= 5.0)
    r31_exact = 0.5j * area * j0(np.sqrt(2 * eta_L * Ts[ms])) * np.exp(-Ts[ms] / 2.0)
    assert rel_l2(r31[ms], r31_exact) < 0.01


def test_closed_forms_match_in_broadband_regime():
    """In the regime 1/width >> Omega_c >> Gamma the constant-control closed
    forms (with the documented x4 impulse normalization) agree with the
    dynamics; at Omega_c = 100 Gamma the residual is ~2%."""
    s = builtin_scenario("oracle-ats")
    rec = integrate(s)
    amp = impulse_equivalent_amplitude(s.probe)
    t0 = s.probe.center_time

    snap_t, r31, r21 = rec.coherence_at(0.5)
    T = snap_t - t0
    m = (T >= 0.5) & (T <= 10.0)
    p = AnalyticParams(omega_c=100.0, eta_z=s.medium.eta * 0.5, probe_amp=amp)
    assert rel_l2(r31[m], rho31_closed(p, T[m])) < 0.05


def test_probe_linearity_exact():
    base = integrate(small_scenario())
    for alpha in (2.0, 1j, -1.0):
        s = small_scenario(probe=ProbePulse(amplitude=alpha, center_time=0.2,
                                            width=0.05))
        rec = integrate(s)
        assert rel_l2(rec.probe_out, alpha * base.probe_out) < 1e-12
        assert rel_l2(rec.rho31, alpha * base.rho31) < 1e-12
        assert rel_l2(rec.rho21, alpha * base.rho21) < 1e-12


def test_global_phase_covariance():
    phi = 0.7
    base = integrate(small_scenario())
    s = small_scenario(probe=ProbePulse(amplitude=np.exp(1j * phi),
                                        center_time=0.2, width=0.05))
    rec = integrate(s)
    assert rel_l2(rec.probe_out, np.exp(1j * phi) * base.probe_out) < 1e-12
    assert rel_l2(np.abs(rec.rho31), np.abs(base.rho31)) < 1e-12
    assert rel_l2(np.abs(rec.rho21), np.abs(base.rho21)) < 1e-12


def test_control_sign_symmetry():
    base = integrate(small_scenario())
    flipped = small_scenario(
        schedule=ControlSchedule(segments=((0.0, -1.0), (0.8, 1.0))))
    rec = integrate(flipped)
    i_base = np.abs(base.probe_out) ** 2
    i_flip = np.abs(rec.probe_out) ** 2
    assert rel_l2(i_flip, i_base) < 1e-10
    assert rel_l2(rec.rho21, -base.rho21) < 1e-10
    assert rel_l2(rec.rho31, base.rho31) < 1e-10


def test_causality():
    s = small_scenario(flip=False,
                       probe=ProbePulse(amplitude=1.0, center_time=1.0, width=0.01))
    rec = integrate(s)
    peak_in = np.max(np.abs(rec.probe_in))
    lead = np.nonzero(np.abs(rec.probe_in) > 1e-10 * peak_in)[0]
    t_lead = rec.times[lead[0]]
    before = rec.times < t_lead
    assert np.max(np.abs(rec.probe_out[before])) < 1e-10 * peak_in


def test_convergence_monotone():
    rep = convergence_check(small_scenario(), refinements=2)
    assert rep.errors.shape == (2,)
    assert rep.monotone
    assert np.all(rep.errors > 0)


def test_convergence_coarse_grid_flagged():
    # dt violating dt*max|Omega_c| <= 0.1 by 30x: first error is large
    s = small_scenario(grid=GridSpec(t_end=2.0, nz=128, dt=1.5))
    rep_bad = convergence_check(s, refinements=2, check=False)
    rep_ok = convergence_check(small_scenario(), refinements=2)
    assert (not rep_bad.monotone) or rep_bad.errors[0] > 50 * rep_ok.errors[0]


def test_divergence_guard():
    # explicit RK4 driven far outside its stability region blows up and the
    # guard names the failing step
    s = Scenario(
        medium=MediumParams(xi=100.0),
        profile=Uniform(b=100.0),
        schedule=ControlSchedule(segments=((0.0, 1.0),)),
        probe=ProbePulse(amplitude=1.0, center_time=5.0, width=2.0),
        grid=GridSpec(t_end=50.0, nz=16, dt=0.1),
    )
    with pytest.raises(DivergenceError, match="step"):
        integrate(s, check=False)


@pytest.mark.parametrize("bad", [10 * (1 + 1e-9), np.nan, np.inf, -1j * np.inf])
@pytest.mark.parametrize("which", ["rho31", "rho21"])
def test_guard_stops_one_bad_cell(bad, which):
    r = np.zeros(1025, dtype=complex)
    bad_r = r.copy()
    bad_r[512] = bad
    args = (bad_r, r) if which == "rho31" else (r, bad_r)
    with pytest.raises(DivergenceError, match="at step 17 "):
        _check_coherences(*args, step=17, t=0.5)


def test_guard_passes_large_but_bounded_coherences():
    # the sum of squares is far above the one-call bound, so this goes
    # through the exact max|rho| test, which passes it
    r = np.full(1025, 9.99, dtype=complex)
    _check_coherences(r, 1j * r, step=1, t=0.0)


def _taylor_map(A, dt):
    """Closed form of one RK4 step under a constant A with the probe linear
    across the step: M is the 4th-order Taylor polynomial of exp(A dt) and
    V0, V1 push the drive (i/2, 0) Omega_p through the four stages."""
    A2 = A @ A
    A3 = A2 @ A
    A4 = A3 @ A
    M = np.eye(2) + dt * A + dt**2 / 2.0 * A2 + dt**3 / 6.0 * A3 + dt**4 / 24.0 * A4
    c = np.array([0.5j, 0.0])
    Ac, A2c, A3c = A @ c, A2 @ c, A3 @ c
    V0 = dt / 6.0 * (3 * c + 2 * dt * Ac + 0.75 * dt**2 * A2c + 0.25 * dt**3 * A3c)
    V1 = dt / 6.0 * (3 * c + dt * Ac + 0.25 * dt**2 * A2c)
    return M, V0, V1


def test_rk4_map_of_a_constant_control_is_the_taylor_map():
    dt = 2.5e-3
    med = MediumParams(xi=1.0, gamma_ground=0.01, delta_p=0.3, delta_c=-0.2)
    A = _coherence_matrix(np.linspace(-40.0, 40.0, 33), med)
    y = _rk4_map(A, A, A, dt)
    for got, want in zip((y[:, :, :2], y[:, :, 2], y[:, :, 3]), _taylor_map(A, dt)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


MOL_GRID = GridSpec(t_end=2.0, nz=64)
MOL_CASES = {
    "flipped": {},
    "ramped": dict(schedule=ControlSchedule(segments=((0.0, 1.0), (0.8, -1.0)),
                                            ramp_time=0.02)),
    "gradient": dict(profile=Linear(zeta=4.0)),
}


@pytest.mark.parametrize("case", sorted(MOL_CASES))
def test_matches_method_of_lines_oracle(case):
    # an adaptive integrator of the same equations on the same z grid, for
    # a switched, a ramped and a gradient control (measured 1.8e-4 each)
    s = small_scenario(grid=MOL_GRID, **MOL_CASES[case])
    rec = integrate(s)
    assert rel_l2(rec.probe_out, method_of_lines_response(s, rec.times)) <= 1e-3


def test_method_of_lines_error_falls_with_dt():
    # the oracle shares the z grid, so what is left is the time-stepping
    # error: halving a pinned dt cuts it ~4x (measured 1.7e-4, 4.3e-5, 1.1e-5)
    base = small_scenario(grid=MOL_GRID, **MOL_CASES["ramped"])
    errs = []
    for f in (1, 2, 4):
        s = replace(base, grid=replace(MOL_GRID, dt=base.resolved_dt() / f))
        rec = integrate(s)
        errs.append(rel_l2(rec.probe_out, method_of_lines_response(s, rec.times)))
    assert errs[0] >= 3 * errs[1] and errs[1] >= 3 * errs[2]


def test_resource_limit(monkeypatch):
    monkeypatch.setattr("gradecho.solver.MAX_STEPS", 10)
    with pytest.raises(ResourceLimitError):
        integrate(small_scenario())


def test_resource_limit_counts_the_real_plan(monkeypatch):
    # oracle-ats steps ~10k times, far fewer than a uniform resolved_dt
    # plan (~201k): a budget between the two runs, one below the real count
    # fails and quotes it
    s = builtin_scenario("oracle-ats")
    real = sum(p.steps for p in step_plan(s))
    uniform = math.ceil(s.grid.t_end / s.resolved_dt())
    assert 10 * real < uniform
    monkeypatch.setattr("gradecho.solver.MAX_STEPS", real)
    rec = integrate(s)
    assert rec.times.size == real + 1
    monkeypatch.setattr("gradecho.solver.MAX_STEPS", real - 1)
    with pytest.raises(ResourceLimitError, match=f"needs {real} steps"):
        integrate(s)


def test_pinned_dt_gives_uniform_plan():
    s = small_scenario(grid=GridSpec(t_end=2.0, nz=128, dt=2e-3))
    plan = step_plan(s)
    assert [(p.t_start, p.t_end, p.gain) for p in plan] == [(0.0, 0.8, 1.0), (0.8, 2.0, -1.0)]
    assert [p.steps for p in plan] == [400, 600]
    assert all(p.dt == pytest.approx(2e-3, rel=1e-12) for p in plan)


def test_plan_of_a_cut_short_ramp_and_a_t_end_inside_a_ramp_is_pinned():
    # the 0.85 segment cuts the 0.8 ramp short; t_end = 2 falls inside the
    # ramp that opens at 1.9; the probe window ends at 0.6
    s = small_scenario(schedule=ControlSchedule(
        segments=((0.0, 1.0), (0.8, -1.0), (0.85, 2.0), (1.9, -0.5)), ramp_time=0.2))
    assert [tuple(p) for p in step_plan(s)] == [
        (0.0, 0.6000000000000001, 240, 0.0025000000000000005, 1.0),
        (0.6000000000000001, 0.8, 50, 0.003999999999999999, 1.0),
        (0.8, 0.85, 13, 0.003846153846153841, None),
        (0.85, 1.05, 50, 0.004000000000000001, None),
        (1.05, 1.9, 213, 0.003990610328638497, 2.0),
        (1.9, 2.0, 25, 0.0040000000000000036, None),
    ]


@pytest.mark.parametrize("schedule", [
    # the ramp from 0.7 ends at 0.7 + 0.1 = 0.7999999999999999, one ulp
    # before the 0.8 segment
    ControlSchedule(((0.0, 1.0), (0.7, -1.0), (0.8, 1.0), (1.2, -1.0)), ramp_time=0.1),
    # the probe window ends at 0.2 + 8 * 0.05 = 0.6000000000000001, one ulp
    # after the 0.6 segment starts
    ControlSchedule(((0.0, 1.0), (0.6, 0.0), (0.8, -1.0))),
], ids=["ramp-end", "window-edge"])
def test_plan_has_no_rounding_sliver(schedule):
    s = small_scenario(schedule=schedule)
    plan = step_plan(s)
    assert plan[0].t_start == 0.0 and plan[-1].t_end == s.grid.t_end
    assert all(a.t_end == b.t_start for a, b in zip(plan, plan[1:]))
    assert min(p.t_end - p.t_start for p in plan) > 1e-3
    assert {t for t, _ in schedule.segments} <= {p.t_start for p in plan}


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_auto_plan_respects_step_limits(name):
    s = builtin_scenario(name)
    plan = step_plan(s)
    dt_fine = s.resolved_dt()
    omega_max = s.max_abs_control()
    eta_l = s.medium.eta * s.medium.length
    lo = s.probe.center_time - 8 * s.probe.width
    hi = s.probe.center_time + 8 * s.probe.width
    assert plan[0].t_start == 0.0 and plan[-1].t_end == s.grid.t_end
    tol = 1 + 1e-9
    for prev, p in zip(plan, plan[1:]):
        assert prev.t_end == p.t_start
    for p in plan:
        assert p.dt * p.steps == pytest.approx(p.t_end - p.t_start, rel=1e-12)
        assert p.dt * omega_max <= 0.1 * tol
        assert p.dt <= max(dt_fine, 0.1 / eta_l) * tol
        if p.t_start < hi and p.t_end > lo:  # overlaps the probe window
            assert p.dt <= dt_fine * tol


def test_auto_plan_splits_and_matches_uniform_after_entry():
    s = small_scenario()
    plan = step_plan(s)
    assert len(plan) == 3 and plan[1].dt > s.resolved_dt()
    auto = integrate(s)
    pinned = integrate(small_scenario(
        grid=GridSpec(t_end=2.0, nz=128, dt=s.resolved_dt())))
    m = auto.times > s.probe.center_time + 8 * s.probe.width
    out = np.interp(auto.times[m], pinned.times, pinned.probe_out.real) + \
        1j * np.interp(auto.times[m], pinned.times, pinned.probe_out.imag)
    assert rel_l2(auto.probe_out[m], out) < 1e-3


def test_convergence_level0_is_integrate(monkeypatch):
    import gradecho.solver as solver

    runs = []
    run = solver._run

    def spy(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(solver, "_run", spy)
    convergence_check(small_scenario(), refinements=1)
    monkeypatch.undo()
    rec = integrate(small_scenario())
    assert len(runs) == 2
    for f in ("times", "probe_in", "probe_out", "rho31", "rho21"):
        assert np.array_equal(getattr(runs[0], f), getattr(rec, f))
    assert runs[1].times.size == 2 * (rec.times.size - 1) + 1
    assert runs[1].z.size == 2 * (rec.z.size - 1) + 1


def test_validation_gate():
    s = small_scenario(grid=GridSpec(t_end=2.0, nz=128, dt=0.3))
    with pytest.raises(ValueError, match="validation"):
        integrate(s)  # check=True by default
    integrate(s, check=False)  # stress use remains possible


def test_record_shapes_consistent(small_record):
    rec = small_record
    assert rec.times.shape == rec.probe_in.shape == rec.probe_out.shape
    assert rec.rho31.shape == rec.rho21.shape
    assert rec.rho31.shape[1] == rec.z.shape[0]
    assert rec.snapshot_times.shape[0] == rec.rho31.shape[0]
    assert rec.times[0] == 0.0


def test_steps_align_to_segment_boundaries(small_record):
    # the flip time appears exactly on the recorded grid
    assert np.min(np.abs(small_record.times - 0.8)) < 1e-12


def test_ramped_switch_runs_and_stays_close_to_instant():
    s_inst = small_scenario()
    s_ramp = small_scenario(
        schedule=ControlSchedule(segments=((0.0, 1.0), (0.8, -1.0)),
                                 ramp_time=0.02))
    r1 = integrate(s_inst)
    r2 = integrate(s_ramp)
    # the ramp adds plan cuts, so the two runs sample different times
    out = np.interp(r1.times, r2.times, r2.probe_out.real) + \
        1j * np.interp(r1.times, r2.times, r2.probe_out.imag)
    # a switch fast compared to 1/max|Omega_c| barely changes the output
    assert rel_l2(out, r1.probe_out) < 0.05


def test_ramp_path_matches_fast_path_for_constant_gain():
    # a "ramp" between equal gains exercises the general RK4 path on a
    # constant control field; both paths integrate the same dynamics.  The
    # dt is pinned so both runs step at the same rate and only the path differs.
    grid = GridSpec(t_end=2.0, nz=128, dt=small_scenario().resolved_dt())
    s_fast = small_scenario(flip=False, grid=grid)
    s_slow = small_scenario(
        schedule=ControlSchedule(segments=((0.0, 1.0), (0.8, 1.0)),
                                 ramp_time=0.05), grid=grid)
    r_fast = integrate(s_fast)
    r_slow = integrate(s_slow)
    t_common = r_fast.times
    out = np.interp(t_common, r_slow.times, r_slow.probe_out.real) + \
        1j * np.interp(t_common, r_slow.times, r_slow.probe_out.imag)
    assert rel_l2(out, r_fast.probe_out) < 1e-9


def test_fig4b_default_grid_is_converged():
    # one dt/nz refinement moves the transmitted trace by well under 1%
    s = builtin_scenario("fig4b")
    rep = convergence_check(s, refinements=1)
    assert rep.errors[0] < 0.01


def test_outputs_without_coherences():
    s = small_scenario()
    s = type(s)(medium=s.medium, profile=s.profile, schedule=s.schedule,
                probe=s.probe, grid=s.grid, outputs=("probe_in", "probe_out"))
    rec = integrate(s)
    assert rec.rho31.size == 0 and rec.snapshot_times.size == 0
    with pytest.raises(ValueError):
        rec.coherence_at(0.5)


@pytest.mark.parametrize("name", ["oracle", "oracle-ats"])
def test_auto_plan_matches_exact_constant_control_response(name):
    # the coarse step after the probe has entered keeps the run within 1e-3
    # of the exact response at an overdamped and a broadband Omega_c
    # (measured: at most 3.5e-4 and 4.1e-4)
    s = builtin_scenario(name)
    rec = integrate(s)
    t0 = s.probe.center_time
    snap_t, r31, r21 = rec.coherence_at(0.5)
    z_mid = rec.z[np.argmin(np.abs(rec.z - 0.5))]
    m = (snap_t - t0 >= 0.5) & (snap_t - t0 <= 10.0)
    x31, x21, _ = constant_control_response(s, z_mid, snap_t[m])
    mt = (rec.times - t0 >= 0.5) & (rec.times - t0 <= 10.0)
    _, _, tail = constant_control_response(s, s.medium.length, rec.times[mt])
    errs = (rel_l2(r31[m], x31), rel_l2(r21[m], x21), rel_l2(rec.probe_out[mt], tail))
    assert max(errs) <= 1e-3
