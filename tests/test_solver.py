import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import j0, j1

from gradecho.analytic import AnalyticParams, impulse_equivalent_amplitude, rho31_closed
from gradecho.model import (ControlSchedule, GridSpec, Linear, MediumParams,
                            ProbePulse, Scenario, Uniform, scale_scenario)
from gradecho.scenarios import BUILTIN_SCENARIOS, builtin_scenario
from gradecho.solver import (MAX_COHERENCE, DivergenceError, K, ResourceLimitError,
                             _blocks, _check_coherences, _coherence_matrix,
                             _gll_rule, _rk4_map, _run, _strided,
                             convergence_check, integrate, step_plan)

from .conftest import (UTAU, constant_control_response, method_of_lines_response,
                       rel_l2, small_scenario, unfused_step_loop)


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
        probe=ProbePulse(amplitude=1.0, center_time=t0, width=kappa),
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


def _diverging_scenario() -> Scenario:
    """Explicit RK4 driven far outside its stability region."""
    return Scenario(
        medium=MediumParams(xi=100.0),
        profile=Uniform(b=100.0),
        schedule=ControlSchedule(segments=((0.0, 1.0),)),
        probe=ProbePulse(amplitude=1.0, center_time=5.0, width=2.0),
        grid=GridSpec(t_end=50.0, nz=16, dt=0.1),
    )


def test_divergence_guard():
    # explicit RK4 driven far outside its stability region blows up and the
    # guard names the failing step
    s = _diverging_scenario()
    with pytest.raises(DivergenceError, match="step"):
        integrate(s, check=False)


@pytest.mark.parametrize("every_step, ramped", [(True, False), (False, False), (False, True)],
                         ids=["stride-1", "stride-total", "ramped"])
def test_divergence_guard_stops_by_the_end_of_the_first_bad_block(every_step, ramped):
    # the guard checks every block-end state: with snapshots at every step
    # (500 steps, so the automatic stride is 1) every step ends a block, and
    # with a snapshot only at the last step blocks run K steps, except on a
    # ramp, where every step is a block of its own (here steps 3 to 22, and
    # the run blows up at step 4)
    s = _diverging_scenario()
    if ramped:
        s = replace(s, schedule=ControlSchedule(segments=((0.0, 1.0), (0.2, 2.0)),
                                                ramp_time=2.0))
    with np.errstate(all="ignore"):
        _, _, _, rho31, rho21 = unfused_step_loop(s)
    peak = np.maximum(np.abs(rho31), np.abs(rho21)).max(axis=1)
    first = int(np.argmax(~(peak <= MAX_COHERENCE)))  # NaN counts as above
    assert first > 0
    total = rho31.shape[0] - 1
    stride = 1 if every_step else total
    plan = step_plan(s)
    blocks, g = [], 0  # per piece, the lengths of its blocks
    for piece in plan:
        blocks.append([])
        # a constant piece is one stretch of one RK4 map, a ramp one per step
        for steps in [1] * piece.steps if piece.gain is None else [piece.steps]:
            blocks[-1] += _blocks(g, steps, stride)
            g += steps
    ends = np.cumsum([m for lengths in blocks for m in lengths])
    assert ends[-1] == total and (stride == 1 or np.max(np.diff(ends)) == K)
    assert all(lengths == [1] * piece.steps
               for piece, lengths in zip(plan, blocks) if piece.gain is None)
    with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
        _run(s, plan, snapshot_stride=stride)
    step = int(re.search(r"at step (\d+) ", str(err.value)).group(1))
    assert first <= step <= ends[np.searchsorted(ends, first)]
    if ramped:
        assert plan[1].gain is None and 2 < first <= 22
        assert step == first


@pytest.mark.parametrize("bad", [10 * (1 + 1e-9), np.nan, np.inf, -1j * np.inf])
@pytest.mark.parametrize("which", ["rho31", "rho21"])
def test_guard_stops_one_bad_cell(bad, which):
    r = np.zeros(1025, dtype=complex)
    bad_r = r.copy()
    bad_r[512] = bad
    args = (bad_r, r) if which == "rho31" else (r, bad_r)
    with pytest.raises(DivergenceError, match="at step 17 "):
        _check_coherences(np.stack(args), step=17, t=0.5)


def test_guard_passes_large_but_bounded_coherences():
    # the guard compares the exact max |rho|, not a bound from the sum of
    # squares, which here is far above MAX_COHERENCE
    r = np.full(1025, 9.99, dtype=complex)
    r[3] = 1j * 9.995
    assert _check_coherences(np.stack((r, 1j * r)), step=1, t=0.0) == 9.995


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


def test_gll_rule_integrates_degree_8_exactly():
    x, Q = _gll_rule(8)
    assert _gll_rule(8)[1] is Q  # built once per process, shared read-only
    assert not (x.flags.writeable or Q.flags.writeable)
    assert x[0] == -1.0 and x[-1] == 1.0 and x[4] == 0.0
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert np.all(Q[0] == 0.0)
    for k in range(9):
        exact = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.max(np.abs(Q @ x**k - exact)) < 1e-14


def test_record_holds_the_distinct_nodes(small_record):
    # 16 elements of 8 intervals: element edges at multiples of 1/16
    z = small_record.z
    assert z.size == small_scenario().grid.nz + 1 == 129
    assert z[0] == 0.0 and z[-1] == 1.0 and np.all(np.diff(z) > 0)
    assert np.allclose(z[::8], np.arange(17) / 16, rtol=0, atol=1e-15)


MOL_GRID = GridSpec(t_end=2.0, nz=64)
MOL_CASES = {
    "flipped": {},
    "ramped": dict(schedule=ControlSchedule(segments=((0.0, 1.0), (0.8, -1.0)),
                                            ramp_time=0.02)),
    "gradient": dict(profile=Linear(zeta=4.0)),
}


@pytest.mark.parametrize("case", sorted(MOL_CASES))
def test_matches_method_of_lines_oracle(case):
    # an adaptive integrator of the same equations, exact in z, for a
    # switched, a ramped and a gradient control (measured 1.8e-4 each)
    s = small_scenario(grid=MOL_GRID, **MOL_CASES[case])
    rec = integrate(s)
    assert rel_l2(rec.probe_out, method_of_lines_response(s, rec.times)) <= 1e-3


PINNED_DT = 2.1e-3  # pieces of 381, 572 (flipped) or 381, 10, 562 (ramped) steps


@pytest.mark.parametrize("case", sorted(MOL_CASES))
def test_step_matches_the_unfused_reference_loop(case):
    # the transfer blocks change only the rounding (measured <= 1.5e-14); a slip
    # in the predictor or corrector of one coefficient is far above 1e-13 and
    # far below the 1e-3 oracle gates; "ramped" builds a map every step
    s = small_scenario(grid=MOL_GRID, **MOL_CASES[case])
    rec = _run(s, step_plan(s), record_stride=1, snapshot_stride=1)
    times, probe_in, probe_out, rho31, rho21 = unfused_step_loop(s)
    assert np.array_equal(rec.times, times)
    assert rel_l2(rec.probe_out, probe_out) <= 1e-13
    assert rel_l2(rec.rho31, rho31) <= 1e-13
    assert rel_l2(rec.rho21, rho21) <= 1e-13

    # partial blocks: records and snapshots at other strides, and a pinned dt
    # whose pieces are no multiple of K, against the reference subsampled
    # (a record stride above the step count keeps only step 0 and the last)
    pinned = small_scenario(grid=replace(MOL_GRID, dt=PINNED_DT), **MOL_CASES[case])
    assert all(piece.steps % K for piece in step_plan(pinned))
    assert _strided(10, 3).tolist() == [0, 3, 6, 9, 10]
    assert _strided(9, 3).tolist() == [0, 3, 6, 9]
    for base, ref in ((s, (times, probe_in, probe_out, rho31, rho21)),
                      (pinned, unfused_step_loop(pinned))):
        total = ref[0].size - 1
        for rec_stride, snap_stride in itertools.product((1, 3, total + 1), (1, 5, None)):
            rec = _run(base, step_plan(base), record_stride=rec_stride,
                       snapshot_stride=snap_stride)
            at = _strided(total, rec_stride)
            snap = _strided(total, snap_stride or math.ceil(total / 512))
            assert np.array_equal(rec.times, ref[0][at])
            assert np.array_equal(rec.probe_in, ref[1][at])
            assert np.array_equal(rec.snapshot_times, ref[0][snap])
            assert rel_l2(rec.probe_out, ref[2][at]) <= 1e-13
            assert rel_l2(rec.rho31, ref[3][snap]) <= 1e-13
            assert rel_l2(rec.rho21, ref[4][snap]) <= 1e-13


def test_method_of_lines_error_falls_with_dt():
    # at nz = 64 the solver's z error is below a tenth of its smallest time
    # error (measured 5e-16 against nz = 128; the uniform control's field
    # is smooth in z), so what is left against the oracle is the
    # time-stepping error: halving a pinned dt cuts it ~4x (measured
    # 1.7e-4, 4.3e-5, 1.1e-5)
    base = small_scenario(grid=MOL_GRID, **MOL_CASES["ramped"])
    errs = []
    for f in (1, 2, 4):
        s = replace(base, grid=replace(MOL_GRID, dt=base.resolved_dt() / f))
        rec = integrate(s)
        errs.append(rel_l2(rec.probe_out, method_of_lines_response(s, rec.times)))
    assert errs[0] >= 3 * errs[1] and errs[1] >= 3 * errs[2]
    finer = integrate(replace(s, grid=replace(s.grid, nz=2 * MOL_GRID.nz)))
    assert rel_l2(rec.probe_out, finer.probe_out) < errs[2] / 10


@pytest.mark.parametrize("name, after, rtol, bound", [
    ("fig3a", UTAU, 1e-13, 1e-5),
    ("fig4b", None, 1e-12, 2.5e-4),
    ("fig4c", None, 1e-12, 3.9e-4),
], ids=["fig3a-1e-05", "fig4b-0.00025", "fig4c-0.00039"])
def test_echo_window_error_against_the_exact_in_z_reference(request, name, after,
                                                            rtol, bound):
    # the fig4b and fig4c bounds are the trapezoid rule's errors at
    # nz = 1024; the GLL grid at nz = 256 under the per-piece plan measures
    # 2.9e-6 (fig3a), 5.3e-5 (fig4b) and 1.1e-5 (fig4c), all time error.
    # The echo window is t > 1 utau on fig3a, where the echoes peak at
    # 0.2% of the input, and after the last flip otherwise.  The reference
    # certifies the error only if loosening its rtol and its atol (by
    # default 1e-12 of the coherence scale |area| / 2) 10x moves it by less
    # than a tenth of that error (measured at most 1.2e-10).
    s = builtin_scenario(name)
    rec = request.getfixturevalue(f"{name}_record")
    m = rec.times > (after if after is not None else s.schedule.last_flip_time())
    ref = method_of_lines_response(s, rec.times, rtol=rtol)
    looser = method_of_lines_response(s, rec.times, rtol=10 * rtol,
                                      atol=1e-11 * abs(s.probe.area) / 2)
    err = rel_l2(rec.probe_out[m], ref[m])
    assert err <= bound
    assert rel_l2(looser[m], ref[m]) < err / 10


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


def test_a_rounding_sliver_joins_the_ramp_under_the_ramp_bound():
    # the ramp from 4 to -1 opened at 0.3 ends at 0.3 + 0.6 =
    # 0.8999999999999999, one ulp before the 0.9 segment; the sliver left
    # holds -1, but the ramp piece it joins reaches 4, so that piece keeps
    # dt |Omega_c| <= 0.1 at gain 4 (a weak medium leaves the control limit
    # in charge)
    schedule = ControlSchedule(((0.0, 4.0), (0.3, -1.0), (0.9, 1.0)), ramp_time=0.6)
    s = small_scenario(schedule=schedule, medium=MediumParams(xi=1.0))
    joined = next(p for p in step_plan(s) if p.t_end == 0.9)
    assert joined.gain is None
    assert joined.dt * 4.0 * s.profile.b <= 0.1 * (1 + 1e-9)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_auto_plan_respects_step_limits(name):
    # each piece keeps dt |Omega_c| <= 0.1 under the control its own stretch
    # reaches, and dt <= width / 20 where it overlaps the probe window; and
    # it steps no finer than those limits, the medium's 0.1 / (eta L) and
    # t_end / 50 need, so a piece stepped at another piece's control is caught
    s = builtin_scenario(name)
    plan = step_plan(s)
    peak = s.profile.peak(s.medium.length)
    medium = 0.1 / (s.medium.eta * s.medium.length)
    lo = s.probe.center_time - 8 * s.probe.width
    hi = s.probe.center_time + 8 * s.probe.width
    stretches = list(s.schedule.stretches(s.grid.t_end))
    assert plan[0].t_start == 0.0 and plan[-1].t_end == s.grid.t_end
    tol = 1 + 1e-9
    for prev, p in zip(plan, plan[1:]):
        assert prev.t_end == p.t_start
    for p in plan:
        assert p.dt * p.steps == pytest.approx(p.t_end - p.t_start, rel=1e-12)
        mid = 0.5 * (p.t_start + p.t_end)
        _, _, g_from, gain = next(st for st in stretches if st[0] <= mid < st[1])
        omega = max(abs(gain), abs(g_from or 0.0)) * peak
        control = 0.1 / omega if omega > 0 else math.inf
        need = min(s.probe.width / 20, control, s.grid.t_end / 50)
        assert p.dt * omega <= 0.1 * tol
        if p.t_start < hi and p.t_end > lo:  # overlaps the probe window
            assert p.dt <= s.probe.width / 20 * tol
        else:
            need = max(need, min(control, medium, s.grid.t_end / 50))
            assert p.dt <= need * tol
        assert (p.steps - 1) * need < (p.t_end - p.t_start) * tol


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
@pytest.mark.parametrize("factor", [1e-5, 10.0])
def test_plan_scales_with_the_scenario(name, factor):
    # scale_scenario divides every time by the factor and multiplies every
    # rate by it, so each step limit scales with it and the plan keeps its
    # pieces and step counts; fig3a at 1e-5 is fig3b
    s = builtin_scenario(name)
    plan, scaled = step_plan(s), step_plan(scale_scenario(s, factor))
    assert [p.steps for p in scaled] == [p.steps for p in plan]
    for p, q in zip(plan, scaled):
        assert q.dt == pytest.approx(p.dt / factor, rel=1e-12)
        assert q.t_start == pytest.approx(p.t_start / factor, rel=1e-12, abs=0.0)


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

    def spy(*args, **kwargs):
        runs.append(run(*args, **kwargs))
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
    # a "ramp" between equal gains steps a constant control field one step
    # per block, each under the RK4 map of its own gains; both runs
    # integrate the same dynamics.  The dt is pinned so both runs step at
    # the same rate and only the block layout differs.
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
