import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import j0, j1

from gradecho.analytic import AnalyticParams, impulse_equivalent_amplitude, rho31_closed
from gradecho.model import (CONTROL_STEP, ControlSchedule, GaussianBeam, GridSpec, Linear,
                            MediumParams,
                            ProbePulse, Scenario, Uniform, scale_scenario)
from gradecho.scenarios import BUILTIN_SCENARIOS, builtin_scenario, builtin_sweep
from gradecho.solver import (MAX_COHERENCE, NS, DivergenceError, K, ResourceLimitError,
                             _blocks, _check_coherences, _element_matrix, _expm,
                             _gll_rule, _run, _step_map, _step_maps,
                             _strided, _stretches, convergence_check, integrate,
                             step_plan)

from .conftest import (TRACED, UTAU, constant_control_response, method_of_lines_response,
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
    rec = integrate(s, nodes=(s.medium.length,))
    area = s.probe.area
    eta_L = s.medium.eta * s.medium.length

    T = rec.times - t0
    m = (T >= 0.5) & (T <= 5.0)
    tail_exact = (-np.sqrt(eta_L / (2 * T[m])) * j1(np.sqrt(2 * eta_L * T[m]))
                  * np.exp(-T[m] / 2.0) * area)
    assert rel_l2(rec.probe_out[m], tail_exact) < 0.01

    r31 = rec.rho31[:, 0]
    Ts = rec.snapshot_times - t0
    ms = (Ts >= 0.5) & (Ts <= 5.0)
    r31_exact = 0.5j * area * j0(np.sqrt(2 * eta_L * Ts[ms])) * np.exp(-Ts[ms] / 2.0)
    assert rel_l2(r31[ms], r31_exact) < 0.01


def test_closed_forms_match_in_broadband_regime():
    """In the regime 1/width >> Omega_c >> Gamma the constant-control closed
    forms (with the documented x4 impulse normalization) agree with the
    dynamics; at Omega_c = 100 Gamma the residual is ~2%."""
    s = builtin_scenario("oracle-ats")
    rec = integrate(s, nodes=(0.5,))
    amp = impulse_equivalent_amplitude(s.probe)
    t0 = s.probe.center_time

    r31 = rec.rho31[:, 0]
    T = rec.snapshot_times - t0
    m = (T >= 0.5) & (T <= 10.0)
    p = AnalyticParams(omega_c=100.0, eta_z=s.medium.eta * 0.5, probe_amp=amp)
    assert rel_l2(r31[m], rho31_closed(p, T[m])) < 0.05


def test_probe_linearity_exact():
    base = integrate(small_scenario(), nodes=TRACED)
    for alpha in (2.0, 1j, -1.0):
        s = small_scenario(probe=ProbePulse(amplitude=alpha, center_time=0.2,
                                            width=0.05))
        rec = integrate(s, nodes=TRACED)
        assert rel_l2(rec.probe_out, alpha * base.probe_out) < 1e-12
        assert rel_l2(rec.rho31, alpha * base.rho31) < 1e-12
        assert rel_l2(rec.rho21, alpha * base.rho21) < 1e-12


def test_global_phase_covariance():
    phi = 0.7
    base = integrate(small_scenario(), nodes=TRACED)
    s = small_scenario(probe=ProbePulse(amplitude=np.exp(1j * phi),
                                        center_time=0.2, width=0.05))
    rec = integrate(s, nodes=TRACED)
    assert rel_l2(rec.probe_out, np.exp(1j * phi) * base.probe_out) < 1e-12
    assert rel_l2(np.abs(rec.rho31), np.abs(base.rho31)) < 1e-12
    assert rel_l2(np.abs(rec.rho21), np.abs(base.rho21)) < 1e-12


def test_the_record_is_the_unit_run_times_the_probe_amplitude():
    # the kernel runs the probe's unit envelope and the record takes the
    # amplitude at the end: amplitude 0 is an all-zero record, with no
    # division and so no warning, and any other amplitude is that times the
    # unit run to rounding
    unit = integrate(small_scenario(), nodes=TRACED)
    fields = ("probe_in", "probe_out", "rho31", "rho21")
    for amplitude in (0.0, -2.0, np.exp(1j * np.pi / 3)):
        s = small_scenario(probe=ProbePulse(amplitude=amplitude, center_time=0.2,
                                            width=0.05))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = integrate(s, nodes=TRACED)
        for f in fields:
            got, want = getattr(rec, f), amplitude * getattr(unit, f)
            assert got.dtype == complex
            if amplitude == 0:
                assert np.all(got == 0)
            else:
                assert rel_l2(got, want) <= 1e-15
        assert rec.peak_coherence == pytest.approx(abs(amplitude) * unit.peak_coherence,
                                                   rel=1e-15, abs=0.0)


def test_control_sign_symmetry():
    base = integrate(small_scenario(), nodes=TRACED)
    flipped = small_scenario(
        schedule=ControlSchedule(segments=((0.0, -1.0), (0.8, 1.0))))
    rec = integrate(flipped, nodes=TRACED)
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
    """A medium with gain: gamma_ground < 0 makes the spin coherence grow
    as the control drives it, which the exact step follows into blow-up."""
    return Scenario(
        medium=MediumParams(xi=100.0, gamma_ground=-20.0),
        profile=Uniform(b=100.0),
        schedule=ControlSchedule(segments=((0.0, 1.0),)),
        probe=ProbePulse(amplitude=1.0, center_time=5.0, width=2.0),
        grid=GridSpec(t_end=50.0, nz=16, dt=0.1),
    )


def test_divergence_guard():
    # a medium with gain blows up and the guard names the failing step
    s = _diverging_scenario()
    with pytest.raises(DivergenceError, match="step"):
        integrate(s, check=False)


def _first_bad_step(s: Scenario) -> tuple[int, np.ndarray]:
    """The first step of ``unfused_step_loop`` with a |rho| above
    MAX_COHERENCE or non-finite, and the nodes where it is."""
    with np.errstate(all="ignore"):
        _, _, _, rho31, rho21 = unfused_step_loop(s)
    bad = ~(np.maximum(np.abs(rho31), np.abs(rho21)) <= MAX_COHERENCE)  # NaN too
    first = int(np.argmax(bad.any(axis=1)))
    return first, np.flatnonzero(bad[first])


def _block_ends(plan, schedule) -> tuple[list, list, np.ndarray]:
    """The stretches of ``plan`` under ``schedule``, the lengths of each
    one's blocks, and every block's end step."""
    stretches = list(_stretches(plan, schedule))
    blocks = [[m for m, count in _blocks(piece.steps) for _ in range(count)]
              for piece in stretches]
    return stretches, blocks, np.cumsum([m for lengths in blocks for m in lengths])


def _named_step(err) -> int:
    return int(re.search(r"at step (\d+) ", str(err.value)).group(1))


def _ramped_variant() -> Scenario:
    return replace(_diverging_scenario(), schedule=ControlSchedule(
        segments=((0.0, 1.0), (0.2, 2.0)), ramp_time=2.0))


def _far_element_variant(b: float) -> Scenario:
    """The gain medium under a control of peak ``b`` at z = 0 that falls to
    b / sqrt(26) at z = L (a beam focused on the entrance)."""
    return replace(_diverging_scenario(), profile=GaussianBeam(b=b, z_focus=0.0, rayleigh=0.2),
                   grid=GridSpec(t_end=50.0, nz=256, dt=0.1))


@pytest.mark.parametrize("ramped", [False, True], ids=["constant", "ramped"])
def test_divergence_guard_stops_by_the_end_of_the_first_bad_block(ramped):
    # the guard checks every block-end state: blocks run K steps, except on
    # a ramp, where every step is a block of its own (here steps 3 to 22,
    # and the run blows up at step 14)
    s = _ramped_variant() if ramped else _diverging_scenario()
    first, _ = _first_bad_step(s)
    assert first > 0
    plan = step_plan(s)
    total = sum(piece.steps for piece in plan)
    stretches, blocks, ends = _block_ends(plan, s.schedule)
    assert ends[-1] == total and np.max(np.diff(ends)) == K
    ramp = [piece for piece in plan if piece.gain is None]
    ramp_steps = [lengths for piece, lengths in zip(stretches, blocks)
                  if any(r.t_start <= piece.t_start < r.t_end for r in ramp)]
    assert ramp_steps == [[1]] * sum(piece.steps for piece in ramp)
    with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
        _run(s, plan)
    step = _named_step(err)
    assert first <= step <= ends[np.searchsorted(ends, first)]
    if ramped:
        assert plan[1].gain is None and 2 < first <= 22
        assert step == first


@pytest.mark.parametrize("b", [70.0, 300.0])
def test_divergence_guard_names_the_first_bad_block_of_a_far_element(b):
    # the gain drives the spin coherence fastest where |Omega_c| is small
    # but not zero, so under a control that falls off from z = 0 the far
    # elements blow up first, while the skewed pipeline runs them last: the
    # guard still names the end of the first bad block in run order (at
    # b = 70 the far third goes bad at step 8, in the first block; at
    # b = 300 the last element at step 13, in the second), and the blow-up
    # raises no RuntimeWarning on the way
    s = _far_element_variant(b)
    first, bad = _first_bad_step(s)
    _, _, ends = _block_ends(step_plan(s), s.schedule)
    assert first > 0 and bad.min() > s.grid.nz // 2  # the far half goes first
    with pytest.raises(DivergenceError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate(s, check=False)
    assert first <= _named_step(err) <= ends[np.searchsorted(ends, first)]


@pytest.mark.parametrize("make, step, peak", [
    (_diverging_scenario, 20, "4.73e+03"),
    (_ramped_variant, 14, "13.5"),
    (lambda: _far_element_variant(70.0), 10, "12.5"),
    (lambda: _far_element_variant(300.0), 20, "1.67e+03"),
    (lambda: replace(_diverging_scenario(),
                     probe=replace(_diverging_scenario().probe, amplitude=3j)), 20, "1.42e+04"),
], ids=["constant", "ramped", "zeta70", "zeta300", "amplitude3i"])
def test_divergence_guard_names_its_block_and_state(make, step, peak):
    # the verdict on a block is taken as it leaves the last element: the
    # named step and the state printed are those of the first bad block in
    # run order, at the element where it first went bad
    with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
        integrate(make(), check=False)
    assert _named_step(err) == step
    assert str(err.value).endswith(f"max |rho| = {peak}")


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


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("size", [0.01, 0.4, 3.0])
def test_expm_matches_scipy(kind, size):
    # the numpy exponential of a batch of 22 x 22 matrices, of 1-norms up to
    # 0.02, 0.7 and 5, against scipy's, relative to each exponential's
    # largest entry (measured at most 8.4e-15; the solver's augmented
    # matrices have 1-norms of about 1, their shift's 1 and dt A's up to ~0.5)
    from scipy.linalg import expm

    rng = np.random.default_rng(7)
    M = size * rng.standard_normal((32, 22, 22)) / 22
    if kind == "complex":
        M = M + 1j * size * rng.standard_normal((32, 22, 22)) / 22
    got = _expm(M)
    assert got.dtype == M.dtype
    for g, m in zip(got, M):
        want = expm(m)
        assert np.max(np.abs(g - want)) <= 1e-14 * np.max(np.abs(want))


class _Built(Exception):
    """Stops a run after its first map build."""


def test_resonant_runs_step_in_real_arithmetic(monkeypatch):
    # every builtin and every fig4a-coarse point has Dp = Dc = 0 and builds
    # float64 maps; any detuning steps the same functions in complex128
    import gradecho.solver as solver

    step_maps, built = solver._step_maps, []

    def spy(*args):
        built.append({F.dtype for F in step_maps(*args).values()})
        raise _Built

    monkeypatch.setattr(solver, "_step_maps", spy)
    spec = builtin_sweep("fig4a-coarse")
    resonant = ([builtin_scenario(name) for name in sorted(BUILTIN_SCENARIOS)]
                + [spec.point(i)[1] for i in range(spec.size())])
    detuned = [small_scenario(medium=MediumParams(xi=50.0, **detuning))
               for detuning in (dict(delta_p=2.0, delta_c=2.0), dict(delta_c=-1.0),
                                dict(delta_p=0.5, gamma_ground=0.1))]
    for s in resonant + detuned:
        with pytest.raises(_Built):
            integrate(s)
    assert len(resonant) == 35
    assert built == ([{np.dtype(np.float64)}] * len(resonant)
                     + [{np.dtype(np.complex128)}] * len(detuned))


@pytest.mark.parametrize("medium", [
    MediumParams(xi=50.0),
    MediumParams(xi=50.0, delta_p=0.5, delta_c=-1.0, gamma_ground=0.1)],
    ids=["resonant", "detuned"])
def test_composed_maps_are_successive_one_step_maps(medium):
    # the m-step map composed from F1 does what m steps of F1 in turn do:
    # each step takes the state and its own 2 inputs to the new state and
    # its 2 outputs, which follow those of the steps before
    p, E = 8, 4
    _, Q = _gll_rule(p)
    scale = -0.5 * medium.eta / E
    A = _element_matrix(np.linspace(-30.0, 30.0, E * (p + 1)), medium, scale, Q)
    F1 = _step_map(A, 2e-3, scale, Q)
    assert F1.shape == (E, NS + 2, NS + 2)
    assert F1.dtype == (np.float64 if medium.delta_p == 0.0 else np.complex128)
    rng = np.random.default_rng(3)

    def draw(*shape):
        v = rng.standard_normal(shape)
        return v + 1j * rng.standard_normal(shape) if F1.dtype.kind == "c" else v

    def apply(F, *parts):
        return (F @ np.concatenate(parts, axis=1)[..., None])[..., 0]

    for m in range(1, K + 1):
        maps = _step_maps(F1, {m})
        assert maps.keys() == {m}
        state, inputs = draw(E, NS), draw(E, 2 * m)
        stepped, outs = state, []
        for i in range(m):
            stepped = apply(F1, stepped[:, :NS], inputs[:, 2 * i:2 * i + 2])
            outs.append(stepped[:, NS:])
        want = np.concatenate([stepped[:, :NS]] + outs, axis=1)
        got = apply(maps[m], state, inputs)
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
    # switched, a ramped and a gradient control (measured 2.4e-8, 2.0e-6 on
    # the ramp, whose steps are frozen at the gain of their midpoint, and
    # 2.4e-8)
    s = small_scenario(grid=MOL_GRID, **MOL_CASES[case])
    rec = integrate(s)
    assert rel_l2(rec.probe_out, method_of_lines_response(s, rec.times)) <= 1e-3


PINNED_DT = 2.1e-3  # pieces of 381, 572 (flipped), 381, 10, 562 (ramped) or 62 (switching) steps
# 16 alternating segments of 11 to 62 steps, 2 to 7 blocks each on the 8
# elements of MOL_GRID, each ending in a shorter block: up to four stretches
# of two block lengths each share the pipeline (two at the pinned dt)
STEP_CASES = {**MOL_CASES, "switching": dict(schedule=ControlSchedule(
    segments=tuple((0.1285 * i, (-1.0) ** i) for i in range(16))))}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_step_matches_the_unfused_reference_loop(case):
    # the transfer blocks and the carried derivative change only the
    # rounding (measured <= 4.1e-14); a slip in one coefficient of the step
    # map or of the derivative jump at a gain change is far above 1e-13 and
    # far below the 1e-3 oracle gates; "ramped" builds a map every step.
    # Records at other strides (a stride above the step count keeps only
    # step 0 and the last), a trace of no node, one node, every distinct
    # node, and z = 0, an element edge, z = L and that edge again, and a
    # pinned dt whose constant pieces end in a shorter block, against the
    # reference at the recorded steps and at every block end
    s = small_scenario(grid=MOL_GRID, **STEP_CASES[case])
    pinned = small_scenario(grid=replace(MOL_GRID, dt=PINNED_DT), **STEP_CASES[case])
    assert all(piece.steps % _blocks(piece.steps)[0][0]
               for piece in step_plan(pinned) if piece.gain is not None)
    assert _strided(10, 3).tolist() == [0, 3, 6, 9, 10]
    assert _strided(9, 3).tolist() == [0, 3, 6, 9]
    # distinct node i sits at z = i / 64; 0.375 is an element edge
    traces = [((), []), ((0.5,), [32]), ((0.0, 0.375, 1.0, 0.375), [0, 24, 64, 24])]
    for base in (s, pinned):
        times, probe_in, probe_out, rho31, rho21 = unfused_step_loop(base)
        plan = step_plan(base)
        total = times.size - 1
        z = _run(base, plan).z
        ends = np.append(0, _block_ends(plan, base.schedule)[2])
        for rec_stride, (nodes, cols) in itertools.product(
                (1, 3, total + 1), traces + [(tuple(z), list(range(z.size)))]):
            rec = _run(base, plan, record_stride=rec_stride, nodes=nodes)
            at = _strided(total, rec_stride)
            assert np.array_equal(rec.times, times[at])
            assert np.array_equal(rec.probe_in, probe_in[at])
            assert rel_l2(rec.probe_out, probe_out[at]) <= 1e-13
            assert np.array_equal(rec.snapshot_times, times[ends])
            assert rec.rho31.shape == rec.rho21.shape == (ends.size, len(nodes))
            if cols:
                assert rel_l2(rec.rho31, rho31[np.ix_(ends, cols)]) <= 1e-13
                assert rel_l2(rec.rho21, rho21[np.ix_(ends, cols)]) <= 1e-13


def test_a_ramp_step_runs_under_the_gain_at_its_midpoint():
    # every stretch the run steps has one constant gain: a ramp piece
    # expands into one-step pieces that tile it, each frozen at the gain of
    # its midpoint, and a constant piece passes through as it is
    s = small_scenario(grid=MOL_GRID, **MOL_CASES["ramped"])
    plan = step_plan(s)
    ramps = [piece for piece in plan if piece.gain is None]
    assert ramps
    stretches = list(_stretches(plan, s.schedule))
    assert len(stretches) == len(plan) - len(ramps) + sum(r.steps for r in ramps)
    for ramp in ramps:
        steps = [q for q in stretches if ramp.t_start <= q.t_start < ramp.t_end]
        assert len(steps) == ramp.steps
        assert steps[-1].t_end == pytest.approx(ramp.t_end, rel=1e-14)
        for i, q in enumerate(steps):  # on the run's step grid t_start + dt i
            t0 = ramp.t_start + ramp.dt * i
            assert q == (t0, t0 + ramp.dt, 1, ramp.dt, s.schedule.gain(t0 + ramp.dt / 2))
    assert [q for q in stretches if q.steps > 1] == [piece for piece in plan
                                                     if piece.gain is not None]


def _builtin(name: str) -> Scenario:
    """A builtin scenario, or fig4b with a 0.002 ramp for "fig4b-ramped"."""
    s = builtin_scenario(name.removesuffix("-ramped"))
    if name.endswith("-ramped"):
        s = replace(s, schedule=replace(s.schedule, ramp_time=0.002))
    return s


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS) + ["fig4b-ramped"])
def test_a_run_without_coherences_keeps_only_the_first_and_last_state(name):
    # a coherence trace changes nothing but the trace: a run with a traced
    # node takes the same blocks as one without, and gives the same record
    # bit for bit, apart from its one rho31 and rho21 column
    s = _builtin(name)
    rec = integrate(s)
    traced = integrate(s, nodes=(0.5,))
    for f in ("times", "probe_in", "probe_out", "snapshot_times", "z"):
        assert np.array_equal(getattr(rec, f), getattr(traced, f))
    assert rec.peak_coherence == traced.peak_coherence
    assert rec.rho31.shape == rec.rho21.shape == (rec.snapshot_times.size, 0)
    assert traced.rho31.shape == traced.rho21.shape == (rec.snapshot_times.size, 1)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS) + ["fig4b-ramped"])
def test_coherence_snapshots_land_on_block_ends(name):
    # the trace holds step 0 and every block end, in blocks of at most K
    # steps that end at every piece end and after every ramp step
    s = _builtin(name)
    plan = step_plan(s)
    total = sum(piece.steps for piece in plan)
    _, _, ends = _block_ends(plan, s.schedule)
    rec = integrate(s, nodes=(0.5, 1.0))
    assert rec.rho31.shape == rec.rho21.shape == (ends.size + 1, 2)
    # the end time of every step, as the run lays them out
    t = np.concatenate([[0.0]] + [piece.t_start + piece.dt * np.arange(1, piece.steps + 1)
                                  for piece in plan])
    assert ends[-1] == total and np.all(np.diff(ends) <= K)
    assert np.array_equal(rec.snapshot_times, t[np.append(0, ends)])
    assert np.all(rec.rho31[0] == 0) and np.all(rec.rho21[0] == 0)


def test_method_of_lines_error_falls_with_dt():
    # at nz = 64 the solver's z error is below a tenth of its smallest time
    # error (measured 8e-13 against nz = 128; the uniform control's field
    # is smooth in z), so what is left against the oracle is the
    # time-stepping error; on a ramp, whose steps are frozen at the gain of
    # their midpoint, halving a pinned dt cuts it ~4x (measured 2.0e-6,
    # 5.0e-7, 1.2e-7)
    base = small_scenario(grid=MOL_GRID, **MOL_CASES["ramped"])
    errs = []
    for f in (1, 2, 4):
        s = replace(base, grid=replace(MOL_GRID, dt=base.resolved_dt() / f))
        rec = integrate(s)
        errs.append(rel_l2(rec.probe_out, method_of_lines_response(s, rec.times)))
    assert errs[0] >= 3 * errs[1] and errs[1] >= 3 * errs[2]
    finer = integrate(replace(s, grid=replace(s.grid, nz=2 * MOL_GRID.nz)))
    assert rel_l2(rec.probe_out, finer.probe_out) < errs[2] / 10


def test_error_falls_fourth_order_with_dt():
    # every element steps exactly under a cubic-Hermite field, so without a
    # ramp the time error is fourth order: it falls at least 12x per halving
    # of a pinned dt on small_scenario against the method of lines (measured
    # 2.4e-8, 1.5e-9, 9.4e-11: 16.0x and 16.0x), and per halving of every
    # piece's dt of oracle-ats's plan, from an eighth of its steps, against
    # the exact constant-control response in the tail (measured 1.6e-2,
    # 1.0e-3, 6.6e-5: 15.7x and 15.3x; the response is good to ~3e-6)
    base = small_scenario(grid=MOL_GRID)
    mol = []
    for f in (1, 2, 4):
        s = replace(base, grid=replace(MOL_GRID, dt=base.resolved_dt() / f))
        rec = integrate(s)
        mol.append(rel_l2(rec.probe_out, method_of_lines_response(s, rec.times)))
    s = builtin_scenario("oracle-ats")
    t0 = s.probe.center_time
    exact = []
    for f in (8, 4, 2):
        plan = tuple(p._replace(steps=max(1, p.steps // f), dt=p.dt * p.steps / max(1, p.steps // f))
                     for p in step_plan(s))
        rec = _run(s, plan)
        m = (rec.times - t0 >= 0.5) & (rec.times - t0 <= 10.0)
        _, _, tail = constant_control_response(s, s.medium.length, rec.times[m])
        exact.append(rel_l2(rec.probe_out[m], tail))
    print("small_scenario against the method of lines:", ", ".join(f"{e:.3g}" for e in mol))
    print("oracle-ats tail against the exact response:", ", ".join(f"{e:.3g}" for e in exact))
    for errs in (mol, exact):
        assert errs[0] >= 12 * errs[1] and errs[1] >= 12 * errs[2]


@pytest.mark.parametrize("name, after, rtol, bound", [
    ("fig3a", UTAU, 1e-13, 1e-5),
    ("fig4b", None, 1e-12, 2.5e-4),
    ("fig4c", None, 1e-12, 3.9e-4),
], ids=["fig3a-1e-05", "fig4b-0.00025", "fig4c-0.00039"])
def test_echo_window_error_against_the_exact_in_z_reference(request, name, after,
                                                            rtol, bound):
    # the fig4b and fig4c bounds are the trapezoid rule's errors at
    # nz = 1024; the GLL grid at nz = 256 under the per-piece plan measures
    # 1.6e-8 (fig3a) and 1.6e-7 (fig4b), time error, and 1.8e-6 (fig4c),
    # z error (3.7e-9 at nz = 512).
    # The echo window is t > 1 utau on fig3a, where the echoes peak at
    # 0.2% of the input, and after the last flip otherwise.  The reference
    # certifies the error only if loosening its rtol and its atol (by
    # default 1e-12 of the coherence scale |area| / 2) 10x moves it by less
    # than a tenth of that error (measured at most 1.2e-10, 1.7e-11 on fig3a).
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
    # oracle-ats steps ~2.8k times, far fewer than a uniform resolved_dt
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
    # dt |Omega_c| <= CONTROL_STEP at gain 4 (a weak medium leaves the
    # control limit in charge; under the sliver's gain the piece would take
    # 8 steps, 3x that limit)
    schedule = ControlSchedule(((0.0, 4.0), (0.3, -1.0), (0.9, 1.0)), ramp_time=0.6)
    s = small_scenario(schedule=schedule, medium=MediumParams(xi=1.0), profile=Uniform(b=8.0))
    joined = next(p for p in step_plan(s) if p.t_end == 0.9)
    assert joined.gain is None
    assert joined.dt * 4.0 * s.profile.b <= CONTROL_STEP * (1 + 1e-9)


FIG4A_COARSE = builtin_sweep("fig4a-coarse")


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS)
                         + [f"fig4a-coarse:{i}" for i in range(FIG4A_COARSE.size())])
def test_auto_plan_respects_step_limits(name):
    # each piece keeps dt |Omega_c| <= CONTROL_STEP under the control its own stretch
    # reaches, and dt <= width / 20 where it overlaps the probe window; and
    # it steps no finer than those limits, the medium's 0.1 / (eta L) and
    # t_end / 50 need, so a piece stepped at another piece's control is caught
    # (validate_scenario checks only a given dt and leans on this)
    sweep, _, point = name.rpartition(":")
    s = builtin_sweep(sweep).point(int(point))[1] if sweep else builtin_scenario(name)
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
        control = CONTROL_STEP / omega if omega > 0 else math.inf
        need = min(s.probe.width / 20, control, s.grid.t_end / 50)
        assert p.dt * omega <= CONTROL_STEP * tol
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


def test_record_shapes_consistent():
    rec = integrate(small_scenario(), nodes=TRACED)
    assert rec.times.shape == rec.probe_in.shape == rec.probe_out.shape
    assert rec.rho31.shape == rec.rho21.shape == (rec.snapshot_times.size, len(TRACED))
    assert rec.z.shape == (small_scenario().grid.nz + 1,)
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
    # per block, each under the RK4 map of its midpoint gain; both runs
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


@pytest.mark.parametrize("name, detuning, gate", [
    ("oracle", {}, 1e-3),
    ("oracle-ats", {}, 1e-3),
    ("oracle-ats", dict(delta_p=20.0, delta_c=20.0), 6e-4),
    ("oracle-ats", dict(delta_p=10.0, delta_c=4.0, gamma_ground=0.5), 6e-4),
    ("oracle", dict(delta_p=20.0, delta_c=20.0), 1e-3),
    ("oracle", dict(delta_p=100.0, delta_c=100.0), 1e-3),
    ("oracle", dict(delta_p=300.0, delta_c=300.0), 1e-3),
], ids=["oracle", "oracle-ats", "oracle-ats-dp=dc", "oracle-ats-dp!=dc",
        "oracle-dp=dc=20", "oracle-dp=dc=100", "oracle-dp=dc=300"])
def test_auto_plan_matches_exact_constant_control_response(name, detuning, gate):
    # the coarse step after the probe has entered keeps the run within 1e-3
    # of the exact response at an overdamped and a broadband Omega_c
    # (measured: at most 1.3e-8 and 5.6e-6); the detuned runs step in
    # complex arithmetic, with a one-photon detuning on two-photon resonance
    # and off it with ground dephasing (measured 8.5e-6 and 6.8e-6); on
    # oracle a detuning, not Omega_c = 0.3, sets the step (1,324, 5,337 and
    # 15,371 steps at Dp = Dc = 20, 100 and 300; measured at most 7.9e-6,
    # 7.1e-6 and 8.3e-5)
    s = builtin_scenario(name)
    s = replace(s, medium=replace(s.medium, **detuning))
    rec = integrate(s, nodes=(0.5,))
    t0 = s.probe.center_time
    snap_t, r31, r21 = rec.snapshot_times, rec.rho31[:, 0], rec.rho21[:, 0]
    z_mid = rec.z[np.argmin(np.abs(rec.z - 0.5))]
    m = (snap_t - t0 >= 0.5) & (snap_t - t0 <= 10.0)
    x31, x21, _ = constant_control_response(s, z_mid, snap_t[m])
    mt = (rec.times - t0 >= 0.5) & (rec.times - t0 <= 10.0)
    _, _, tail = constant_control_response(s, s.medium.length, rec.times[mt])
    errs = (rel_l2(r31[m], x31), rel_l2(r21[m], x21), rel_l2(rec.probe_out[mt], tail))
    print(f"rho31, rho21, tail errors: {errs[0]:.3g}, {errs[1]:.3g}, {errs[2]:.3g} "
          f"(gate {gate:g})")
    assert max(errs) <= gate
