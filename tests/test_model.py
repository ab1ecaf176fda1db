import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradecho.model import (ControlSchedule, GaussianBeam, GridSpec, Linear,
                            MediumParams, ProbePulse, Scenario, Uniform,
                            scale_scenario, validate_scenario)
from gradecho.scenarios import builtin_scenario

from .conftest import small_scenario


def test_medium_invariants():
    m = MediumParams(xi=2000.0)
    assert m.eta == pytest.approx(1000.0)
    with pytest.raises(ValueError):
        MediumParams(xi=-1.0)
    with pytest.raises(ValueError):
        MediumParams(xi=1.0, gamma_decay=0.0)
    with pytest.raises(ValueError):
        MediumParams(xi=1.0, length=0.0)


def _control(profile, schedule, t, z, length=1.0):
    """The control Rabi frequency gain(t) * profile(z), as the solver forms it."""
    return schedule.gain(t) * float(profile.value(z, length))


def test_evaluate_control_uniform():
    sched = ControlSchedule(segments=((0.0, 1.0),))
    assert _control(Uniform(b=2.0), sched, t=0.5, z=0.3) == pytest.approx(2.0)


def test_evaluate_control_gaussian_beam_focus_value():
    # focal value is b, here with the figure-2 parameterization b = 1e7 * beta
    beta = 3.0
    prof = GaussianBeam(b=1e7 * beta, z_focus=1.0, rayleigh=0.2)
    sched = ControlSchedule(segments=((0.0, 1.0),))
    assert _control(prof, sched, t=0.0, z=1.0) == pytest.approx(1e7 * beta)
    # off focus the amplitude falls like 1/sqrt(1 + ((z-zf)/r)^2)
    expected = 1e7 * beta / math.sqrt(1.0 + (0.4 / 0.2) ** 2)
    assert _control(prof, sched, t=0.0, z=0.6) == pytest.approx(expected)


def test_evaluate_control_linear_midpoint():
    sched = ControlSchedule(segments=((0.0, 1.0),))
    assert _control(Linear(zeta=1000.0), sched, t=0.0, z=0.5) == pytest.approx(500.0)


def test_evaluate_control_domain_error():
    sched = ControlSchedule(segments=((0.0, 1.0),))
    with pytest.raises(ValueError, match="t >= 0"):
        _control(Uniform(b=1.0), sched, t=-1.0, z=0.5)


def test_schedule_structural_errors():
    with pytest.raises(ValueError):
        ControlSchedule(segments=((0.0, 1.0), (2.0, -1.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        ControlSchedule(segments=((0.5, 1.0),))  # must start at 0


def test_schedule_gain_and_flips():
    sched = ControlSchedule(segments=((0.0, 4.0), (1.0, -1.0), (4.5, 4.0)))
    assert sched.gain(0.5) == 4.0
    assert sched.gain(1.0) == -1.0
    assert sched.gain(10.0) == 4.0
    assert sched.flip_times() == (1.0, 4.5)
    assert sched.last_flip_time() == 4.5
    # only flips before t_end count
    assert sched.flip_times(4.5) == (1.0,)
    assert sched.last_flip_time(4.5) == 1.0
    assert sched.flip_times(1.0) == ()
    assert sched.last_flip_time(1.0) is None


def test_a_flip_through_zero_gain_is_a_flip():
    # control off between the two signs: the storage interval of the protocol
    assert ControlSchedule(((0.0, 1.0), (1.0, 0.0), (1.5, -1.0))).flip_times() == (1.5,)
    assert ControlSchedule(((0.0, 1.0), (1.0, 0.0), (1.5, 2.0))).flip_times() == ()
    assert ControlSchedule(((0.0, 0.0), (1.0, 1.0), (2.0, -1.0))).flip_times() == (2.0,)


def test_schedule_cosine_ramp_monotone():
    sched = ControlSchedule(segments=((0.0, 1.0), (1.0, -1.0)), ramp_time=0.2)
    ts = np.linspace(1.0, 1.2, 41)
    gains = np.array([sched.gain(t) for t in ts])
    assert gains[0] == pytest.approx(1.0)
    assert gains[-1] == pytest.approx(-1.0)
    assert np.all(np.diff(gains) <= 1e-12)  # monotone transition


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.floats(min_value=1e-3, max_value=1.0), max_size=4),
       gains=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=5, max_size=5),
       ramp=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.5)),
       t_end=st.floats(min_value=1e-3, max_value=5.0),
       cuts=st.tuples(st.floats(min_value=0.0, max_value=1.0),
                      st.floats(min_value=0.0, max_value=1.0)))
def test_stretches_tile_the_timeline(steps, gains, ramp, t_end, cuts):
    from gradecho.analytic import phase_area

    starts = list(np.cumsum([0.0] + steps))
    segs = tuple(zip(starts, gains))
    sched = ControlSchedule(segments=segs, ramp_time=ramp)
    parts = list(sched.stretches(t_end))
    # consecutive, nonempty, from 0 to t_end
    assert parts[0][0] == 0.0 and parts[-1][1] == t_end
    assert all(a < b for a, b, _, _ in parts)
    assert all(p[1] == q[0] for p, q in zip(parts, parts[1:]))
    for ta, tb, g_from, gain in parts:
        k = max(i for i, (tk, _) in enumerate(segs) if tk <= ta)
        assert gain == segs[k][1]
        if g_from is not None:
            # a ramp opens a later segment, from the previous gain, at most ramp long
            assert k > 0 and ta == segs[k][0] and g_from == segs[k - 1][1]
            assert tb <= ta + ramp
    # the phase area adds up over a split interval
    t0, tm = sorted(c * t_end for c in cuts)
    prof = Uniform(b=1.0)
    whole = phase_area(sched, prof, 0.5, t0, t_end)
    split = phase_area(sched, prof, 0.5, t0, tm) + phase_area(sched, prof, 0.5, tm, t_end)
    assert split == pytest.approx(whole, rel=1e-12, abs=1e-12)


def test_validate_fig2_scenario_clean():
    issues = validate_scenario(builtin_scenario("fig2b"))
    assert issues == []


def test_validate_broadband_ordering_warning():
    s = small_scenario(profile=Uniform(b=2000.0),
                       probe=ProbePulse(center_time=0.05, width=5e-3),
                       grid=GridSpec(t_end=0.09, nz=128))
    issues = validate_scenario(s)
    assert any("broadband ordering" in i.message for i in issues
               if i.severity == "warning")


def test_validate_grid_under_resolution_error():
    s = small_scenario(grid=GridSpec(t_end=2.0, nz=128, dt=0.06))
    # dt * max|Omega_c| = 0.12 > 0.1 and dt > width/20
    issues = validate_scenario(s)
    assert any(i.severity == "error" for i in issues)


def test_validate_decay_window_warning():
    issues = validate_scenario(builtin_scenario("fig4b"))
    assert any("lifetime" in i.message for i in issues if i.severity == "warning")
    assert not any(i.severity == "error" for i in issues)


def test_scale_identity():
    s = small_scenario()
    assert scale_scenario(s, 1.0) == s


def test_scale_fig3a_to_fig3b_parameters():
    scaled = scale_scenario(builtin_scenario("fig3a"), 1e-5)
    assert scaled.medium.xi == pytest.approx(10.0)
    # focal control of the first segment: 1e7 * (4 * 1e-5) = 400 / tau,
    # i.e. beta = 4e-5 in the 1e7*beta parameterization
    assert scaled.schedule.segments[0][1] * scaled.profile.b == pytest.approx(400.0)
    # switching sequence now lives on the 0.1 tau scale
    assert scaled.schedule.segments[1][0] == pytest.approx(0.1)
    assert scaled.probe.width == pytest.approx(5e-4)
    assert scaled.medium.length == builtin_scenario("fig3a").medium.length


@settings(max_examples=50, deadline=None)
@given(a=st.floats(min_value=1e-4, max_value=1e4),
       b=st.floats(min_value=1e-4, max_value=1e4))
def test_scale_composes(a, b):
    s = small_scenario()
    left = scale_scenario(scale_scenario(s, a), b)
    right = scale_scenario(s, a * b)
    assert left.medium.xi == pytest.approx(right.medium.xi, rel=1e-12)
    for (t1, g1), (t2, g2) in zip(left.schedule.segments, right.schedule.segments):
        assert t1 == pytest.approx(t2, rel=1e-12)
        assert g1 == pytest.approx(g2, rel=1e-12)
    assert left.probe.width == pytest.approx(right.probe.width, rel=1e-12)
    assert left.grid.t_end == pytest.approx(right.grid.t_end, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(z=st.floats(min_value=0.0, max_value=1.0),
       t=st.floats(min_value=0.0, max_value=10.0))
def test_profile_evaluation_pure_and_sign_symmetric(z, t):
    prof = GaussianBeam(b=5.0, z_focus=1.0, rayleigh=0.2)
    sched = ControlSchedule(segments=((0.0, 1.0), (1.0, -1.0)))
    flipped = ControlSchedule(segments=((0.0, -1.0), (1.0, 1.0)))
    v1 = _control(prof, sched, t, z)
    v2 = _control(prof, sched, t, z)
    assert v1 == v2  # bitwise repeatability
    assert abs(_control(prof, flipped, t, z)) == abs(v1)


def test_probe_pulse_boundary_and_area():
    p = ProbePulse(amplitude=2.0, center_time=1.0, width=0.5)
    assert p.boundary_value(1.0) == pytest.approx(2.0)
    assert p.boundary_value(1.5) == pytest.approx(2.0 * math.exp(-1.0))
    assert p.area == pytest.approx(2.0 * 0.5 * math.sqrt(math.pi))
    with pytest.raises(ValueError):
        ProbePulse(width=-1.0)


def test_gridspec_invariants():
    with pytest.raises(ValueError):
        GridSpec(t_end=1.0, nz=1)
    with pytest.raises(ValueError):
        GridSpec(t_end=0.0)
    with pytest.raises(ValueError):
        GridSpec(t_end=1.0, dt=2.0)
