import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0, j1

from gradecho.analytic import (AnalyticParams, first_order_signal,
                               impulse_equivalent_amplitude, phase_area,
                               predict_echo_time, probe_closed, rho21_closed,
                               rho31_closed)
from gradecho.model import (ControlSchedule, GaussianBeam, GridSpec, Linear,
                            MediumParams, ProbePulse, Scenario, Uniform)
from gradecho.scenarios import builtin_scenario

from .conftest import (UTAU, constant_control_response,
                       fig4b_with_a_segment_past_t_end, rel_l2)


@pytest.fixture
def params():
    return AnalyticParams(omega_c=0.3, eta_z=5.0, gamma_decay=1.0, probe_amp=1.0)


def test_rho31_small_time_limit(params):
    # J0(0) = 1 and cos(0) = 1: the value is i amp / 8 for any eta_z
    for eta_z in (0.0, 5.0, 500.0):
        p = AnalyticParams(omega_c=0.3, eta_z=eta_z)
        assert rho31_closed(p, 0.0) == pytest.approx(1j / 8)


def test_rho31_cosine_node(params):
    T = math.pi / params.omega_c
    assert abs(rho31_closed(params, T)) < 1e-12


def test_rho31_negative_time_rejected(params):
    with pytest.raises(ValueError):
        rho31_closed(params, -0.1)


def test_rho21_zero_at_origin(params):
    assert rho21_closed(params, 0.0) == 0.0


def test_rho21_antinode_value(params):
    T = math.pi / params.omega_c
    expected = -(1.0 / 8.0) * j0(math.sqrt(params.eta_z * T)) * math.exp(-T / 4.0)
    assert rho21_closed(params, T) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("bad", [dict(omega_c=math.nan), dict(eta_z=math.inf),
                                 dict(gamma_decay=math.nan), dict(probe_amp=complex(0, math.inf)),
                                 dict(eta_z=-5.0), dict(gamma_decay=-1.0)])
def test_params_refuse_non_finite_or_negative_fields(bad):
    with pytest.raises(ValueError):
        AnalyticParams(**(dict(omega_c=100.0, eta_z=5.0) | bad))


def test_probe_closed_no_medium():
    p = AnalyticParams(omega_c=0.3, eta_z=0.0)
    assert probe_closed(p, 1.0) == 0.0


def test_probe_closed_two_level_first_lobe_sign_definite():
    # control off: pure ringing tail, single sign until the first J1 zero
    p = AnalyticParams(omega_c=0.0, eta_z=5.0)
    T_first_zero = 3.8317**2 / p.eta_z
    T = np.linspace(1e-3, 0.95 * T_first_zero, 200)
    vals = np.real(probe_closed(p, T))
    assert np.all(vals < 0)


def test_probe_closed_singular_origin():
    p = AnalyticParams(omega_c=0.3, eta_z=5.0)
    with pytest.raises(ValueError):
        probe_closed(p, 0.0)


def test_probe_closed_decays():
    p = AnalyticParams(omega_c=0.3, eta_z=5.0)
    assert abs(probe_closed(p, 200.0)) < 1e-20


@settings(max_examples=100, deadline=None)
@given(T=st.floats(min_value=0.0, max_value=50.0),
       omega_c=st.floats(min_value=0.0, max_value=100.0),
       eta_z=st.floats(min_value=0.0, max_value=1e4))
def test_coherence_pythagorean_identity(T, omega_c, eta_z):
    # |rho31|^2 + |rho21|^2 = (amp/8)^2 J0^2 exp(-Gamma T/2) pointwise
    p = AnalyticParams(omega_c=omega_c, eta_z=eta_z, probe_amp=1.0)
    lhs = abs(rho31_closed(p, T)) ** 2 + abs(rho21_closed(p, T)) ** 2
    rhs = (1.0 / 64.0) * j0(math.sqrt(eta_z * T)) ** 2 * math.exp(-T / 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-18)


# ---------------------------------------------------------------- phase area

def test_phase_area_constant_gain():
    sched = ControlSchedule(segments=((0.0, 0.7),))
    prof = Uniform(b=3.0)
    assert phase_area(sched, prof, z=0.5, t0=1.0, t=3.0) == pytest.approx(
        0.5 * 0.7 * 3.0 * 2.0)


def test_phase_area_antisymmetric_flip():
    sched = ControlSchedule(segments=((0.0, 1.0), (2.0, -1.0)))
    prof = Uniform(b=1.5)
    t0 = 0.5
    # area accumulated to the flip cancels at t = 2 t_f - t0
    assert phase_area(sched, prof, 0.0, t0, 2 * 2.0 - t0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("segments", [
    ((0.0, 1.0), (1.0, -1.0), (3.0, 2.0)),   # every ramp runs its full width
    ((0.0, 1.0), (1.0, -2.0), (1.2, 3.0)),   # the next segment cuts the first ramp short
])
@pytest.mark.parametrize("t0, t", [(0.0, 4.0), (0.3, 1.1), (1.1, 1.6), (1.25, 3.3)])
def test_phase_area_of_cosine_ramps_matches_quadrature(segments, t0, t):
    from scipy.integrate import quad

    sched = ControlSchedule(segments=segments, ramp_time=0.5)
    starts = [tk for tk, _ in sched.segments] + [math.inf]
    ramp_ends = [min(tk + 0.5, nxt) for tk, nxt in zip(starts[1:-1], starts[2:])]
    # the gain is smooth only between segment starts and ramp ends
    knots = sorted({t0, t, *(x for x in starts[:-1] + ramp_ends if t0 < x < t)})
    ref = sum(quad(sched.gain, a, b, epsabs=1e-14)[0]
              for a, b in zip(knots, knots[1:]))
    prof = Uniform(b=3.0)
    assert phase_area(sched, prof, 0.5, t0, t) == pytest.approx(1.5 * ref, rel=1e-13, abs=1e-14)


def test_phase_area_fig3a_first_crossing():
    sched = ControlSchedule(segments=((0.0, 4.0), (1.0 * UTAU, -1.0)))
    prof = GaussianBeam(b=1e7, z_focus=1.0, rayleigh=0.2)
    t = predict_echo_time(sched, prof, t0=0.55 * UTAU, t_end=8 * UTAU)
    assert t == pytest.approx(2.8 * UTAU, rel=1e-9)


def test_predict_echo_simple_flip():
    sched = ControlSchedule(segments=((0.0, 1.0), (1.8 * UTAU, -1.0)))
    prof = GaussianBeam(b=2e7, z_focus=1.0, rayleigh=0.2)
    t = predict_echo_time(sched, prof, t0=0.0, t_end=6 * UTAU)
    assert t == pytest.approx(3.6 * UTAU, rel=1e-9)


def test_predict_echo_double_gain_comes_earlier():
    t_f, t0 = 2.0, 0.3
    prof = Uniform(b=1.0)
    single = ControlSchedule(segments=((0.0, 1.0), (t_f, -1.0)))
    double = ControlSchedule(segments=((0.0, 1.0), (t_f, -2.0)))
    t1 = predict_echo_time(single, prof, t0=t0, t_end=10.0)
    t2 = predict_echo_time(double, prof, t0=t0, t_end=10.0)
    assert t1 == pytest.approx(2 * t_f - t0, rel=1e-12)
    assert t2 == pytest.approx(1.5 * t_f - 0.5 * t0, rel=1e-12)
    assert t2 < t1


def test_predict_echo_fig4c_timing():
    sched = ControlSchedule(segments=((0.0, 1.0), (0.16, -2.0)))
    t = predict_echo_time(sched, Linear(zeta=1000.0), t0=0.048, t_end=0.6)
    assert t == pytest.approx(0.216, rel=1e-12)
    assert abs(t - 0.22) / 0.22 < 0.15


def test_predict_echo_none_without_crossing():
    sched = ControlSchedule(segments=((0.0, 1.0),))
    assert predict_echo_time(sched, Uniform(b=1.0), t0=0.0, t_end=5.0) is None
    # flip too weak to rephase before t_end
    sched2 = ControlSchedule(segments=((0.0, 1.0), (4.0, -1e-3)))
    assert predict_echo_time(sched2, Uniform(b=1.0), t0=0.0, t_end=5.0) is None


def test_predict_echo_finds_the_crossing_inside_a_sign_changing_ramp():
    # the area is -0.115 at both stretch edges 1.3 and 2.3, but the ramp from
    # +1 to -1 carries it through zero at 1.557 and back at 2.043
    sched = ControlSchedule(segments=((0.0, -2.0), (0.01, 1.0), (1.3, -1.0)), ramp_time=1.0)
    prof = Uniform(b=1.0)
    assert phase_area(sched, prof, 0.0, 0.0, 1.3) == pytest.approx(
        phase_area(sched, prof, 0.0, 0.0, 2.3), rel=1e-12)
    t = predict_echo_time(sched, prof, t0=0.0, t_end=2.4)
    assert t == pytest.approx(1.55704, abs=1e-5)
    assert phase_area(sched, prof, 0.0, 0.0, t) == pytest.approx(0.0, abs=1e-12)


def test_predict_echo_after_a_t0_past_the_last_flip():
    # from t0 = 0.1 on the gain stays -1, so the area never returns to zero
    sched = ControlSchedule(segments=((0.0, 1.0), (0.05, -1.0)))
    assert predict_echo_time(sched, Uniform(b=1.0), t0=0.1, t_end=1.0) is None


def test_predict_echo_ignores_a_segment_past_t_end():
    s = fig4b_with_a_segment_past_t_end()
    t = predict_echo_time(s.schedule, s.profile, t0=0.048, t_end=0.6)
    assert t == pytest.approx(0.272, rel=1e-12)


def test_predict_echo_after_a_flip_through_zero_gain():
    # area 1 at t = 1, held while the control is off, undone by 1.5 + 1
    sched = ControlSchedule(segments=((0.0, 1.0), (1.0, 0.0), (1.5, -1.0)))
    assert predict_echo_time(sched, Uniform(b=1.0), t0=0.0, t_end=5.0) == pytest.approx(
        2.5, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(t_f=st.floats(min_value=0.5, max_value=3.0),
       g2=st.floats(min_value=0.2, max_value=5.0),
       t0=st.floats(min_value=0.0, max_value=0.4))
def test_predict_echo_matches_linear_segment_algebra(t_f, g2, t0):
    # bisection against the exact crossing of the piecewise-linear area
    sched = ControlSchedule(segments=((0.0, 1.0), (t_f, -g2)))
    prof = Uniform(b=1.0)
    t = predict_echo_time(sched, prof, t0=t0, t_end=100.0)
    expected = t_f + (t_f - t0) / g2
    assert t == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------- first-order scattering

def test_first_order_uniform_is_cosine_squared():
    prof = Uniform(b=2.0)
    for T in (0.0, 0.3, 1.1, 2.7):
        assert first_order_signal(prof, T) == pytest.approx(
            math.cos(2.0 * T / 2.0) ** 2, abs=1e-12)


def test_first_order_linear_is_sinc_squared():
    zeta = 1000.0
    prof = Linear(zeta=zeta)
    for T in (1e-4, 3e-3, 7e-3):
        x = zeta * T / 2.0
        expected = (math.sin(x) / x) ** 2
        assert first_order_signal(prof, T, nquad=512) == pytest.approx(expected, abs=1e-6)


def _half_decay_time(prof, t_hi, n=4000):
    T = np.linspace(0.0, t_hi, n)
    sig = first_order_signal(prof, T)
    below = np.nonzero(sig <= 0.5)[0]
    i = below[0]
    return float(np.interp(0.5, [sig[i], sig[i - 1]], [T[i], T[i - 1]]))


def test_first_order_gaussian_beta4_decays_4x_faster():
    t1 = _half_decay_time(GaussianBeam(b=1e7, z_focus=1.0, rayleigh=0.2), 1e-6)
    t4 = _half_decay_time(GaussianBeam(b=4e7, z_focus=1.0, rayleigh=0.2), 2.5e-7)
    assert t1 / t4 == pytest.approx(4.0, rel=1e-3)


def test_first_order_half_decay_halves_when_amplitude_doubles():
    # uniform: exact; gaussian beam: within 10%
    tu1 = _half_decay_time(Uniform(b=2.0), 2.0)
    tu2 = _half_decay_time(Uniform(b=4.0), 1.0)
    assert tu1 / tu2 == pytest.approx(2.0, rel=1e-6)
    tg1 = _half_decay_time(GaussianBeam(b=5.0, z_focus=1.0, rayleigh=0.2), 2.0)
    tg2 = _half_decay_time(GaussianBeam(b=10.0, z_focus=1.0, rayleigh=0.2), 1.0)
    assert tg1 / tg2 == pytest.approx(2.0, rel=0.1)


def test_first_order_nquad_floor():
    with pytest.raises(ValueError):
        first_order_signal(Uniform(b=1.0), 1.0, nquad=8)


# ---------------------------------- exact constant-control response (conftest)

def test_exact_response_control_off_is_two_level_impulse_response():
    """Omega_c = 0: the exact response reduces to the optically thick
    two-level formulas of test_two_level_exact_impulse_response."""
    t0 = 8e-3
    s = Scenario(
        medium=MediumParams(xi=20.0),
        profile=Uniform(b=0.0),
        schedule=ControlSchedule(segments=((0.0, 1.0),)),
        probe=ProbePulse(amplitude=1.0, center_time=t0, width=1e-3),
        grid=GridSpec(t_end=5.0, nz=256),
    )
    area = s.probe.area
    eta_L = s.medium.eta * s.medium.length
    T = np.linspace(0.5, 5.0, 901)
    r31, r21, tail = constant_control_response(s, s.medium.length, T + t0)

    tail_exact = (-np.sqrt(eta_L / (2 * T)) * j1(np.sqrt(2 * eta_L * T))
                  * np.exp(-T / 2.0) * area)
    r31_exact = 0.5j * area * j0(np.sqrt(2 * eta_L * T)) * np.exp(-T / 2.0)
    assert rel_l2(tail, tail_exact) < 1e-4
    assert rel_l2(r31, r31_exact) < 1e-4
    assert np.all(r21 == 0)


def test_exact_response_broadband_limit_is_closed_form():
    """Omega_c = 100 Gamma: the closed forms are the broadband limit of the
    exact response and differ from it by the ~2% the solver shows against
    them (measured 2.1% rho31, 2.4% rho21, 2.4% tail)."""
    s = builtin_scenario("oracle-ats")
    amp = impulse_equivalent_amplitude(s.probe)
    t0 = s.probe.center_time
    T = np.linspace(0.5, 10.0, 4001)
    r31, r21, _ = constant_control_response(s, 0.5, T + t0)
    _, _, out = constant_control_response(s, s.medium.length, T + t0)

    p_mid = AnalyticParams(omega_c=100.0, eta_z=s.medium.eta * 0.5, probe_amp=amp)
    p_out = AnalyticParams(omega_c=100.0, eta_z=s.medium.eta, probe_amp=1.0)
    assert rel_l2(r31, rho31_closed(p_mid, T)) < 0.03
    assert rel_l2(r21, rho21_closed(p_mid, T)) < 0.03
    assert rel_l2(out, amp * probe_closed(p_out, T)) < 0.03
