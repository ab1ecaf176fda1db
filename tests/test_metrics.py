import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradecho.metrics import (AmbiguousPeakError, NoEchoError,
                              UndefinedMetricError, classical_fidelity,
                              compute_echo_metrics, delay_bandwidth, detect_echo,
                              eit_baseline, feasibility, fwhm,
                              storage_efficiency)
from gradecho.metrics import _xcorr
from gradecho.model import MediumParams, ProbePulse
from gradecho.scenarios import builtin_sweep
from gradecho.solver import integrate

from .conftest import small_scenario


def test_fwhm_gaussian_field():
    # |exp(-(T/k)^2)|^2 has intensity FWHM k sqrt(2 ln 2)
    kappa = 0.37
    t = np.linspace(-3, 3, 4001)
    intensity = np.exp(-2 * (t / kappa) ** 2)
    expected = kappa * math.sqrt(2 * math.log(2))
    assert fwhm(t, intensity) == pytest.approx(expected, rel=1e-5)


def test_fwhm_edge_peak_uses_window_edge():
    t = np.linspace(0, 5, 2001)
    y = np.exp(-t)  # decaying from the first sample
    assert fwhm(t, y) == pytest.approx(math.log(2), rel=1e-4)


def test_fwhm_ambiguous_two_peaks():
    t = np.linspace(0, 10, 2001)
    y = np.exp(-(((t - 3) / 0.3) ** 2)) + 0.9 * np.exp(-(((t - 7) / 0.3) ** 2))
    with pytest.raises(AmbiguousPeakError):
        fwhm(t, y)


def test_detect_echo_small_flip_protocol(small_record):
    # window past the post-flip forward transient; phase area predicts
    # rephasing at 2*0.8 - 0.2 = 1.4
    det = detect_echo(small_record, after=1.1)
    assert det is not None
    assert det.peak_time == pytest.approx(1.4, abs=0.08)


def test_detect_echo_none_without_flip():
    # nothing rephases and, with no medium, nothing trails the pulse either
    rec = integrate(small_scenario(flip=False, medium=MediumParams(xi=0.0)))
    det = detect_echo(rec, after=1.0)
    assert det is None


def test_detect_echo_bad_window(small_record):
    with pytest.raises(ValueError):
        detect_echo(small_record, after=5.0)


def test_storage_efficiency_no_medium_zero():
    s = small_scenario(medium=MediumParams(xi=0.0), flip=False)
    rec = integrate(s)
    # probe has fully exited before the cut: nothing is stored
    assert storage_efficiency(rec, t_cut=1.0) == pytest.approx(0.0, abs=1e-10)


def test_storage_efficiency_bounded(small_record):
    r = storage_efficiency(small_record, t_cut=0.8)
    assert 0.0 <= r <= 1.0


def test_storage_efficiency_zero_input():
    s = small_scenario(flip=False)
    rec = integrate(s)
    object.__setattr__(rec, "probe_in", np.zeros_like(rec.probe_in))
    with pytest.raises(UndefinedMetricError):
        storage_efficiency(rec, t_cut=0.5)


def test_fidelity_perfect_for_delayed_phase_rotated_copy():
    t = np.linspace(0, 10, 2001)
    pulse = np.exp(-(((t - 3) / 0.4) ** 2)).astype(complex)
    delayed = 0.37 * np.exp(1j * 1.1) * np.exp(-(((t - 6.2) / 0.4) ** 2))
    assert classical_fidelity(t, pulse, t, delayed) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("silent", ["in", "out"])
def test_fidelity_of_a_trace_without_energy_is_undefined(silent):
    t = np.linspace(0, 10, 2001)
    pulse = np.exp(-(((t - 3) / 0.4) ** 2)).astype(complex)
    traces = {"in": pulse, "out": pulse}
    traces[silent] = np.zeros_like(pulse)
    with pytest.raises(UndefinedMetricError, match="fidelity needs two traces with energy"):
        classical_fidelity(t, traces["in"], t, traces["out"])


def test_fidelity_zero_for_disjoint_with_bounded_delay():
    t = np.linspace(0, 10, 2001)
    a = np.where(np.abs(t - 2) < 0.5, 1.0, 0.0).astype(complex)
    b = np.where(np.abs(t - 8) < 0.5, 1.0, 0.0).astype(complex)
    val = classical_fidelity(t, a, t, b, delay_range=(-1.0, 1.0))
    assert val == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0),
       phase=st.floats(min_value=0.0, max_value=2 * math.pi),
       shift=st.floats(min_value=-1.0, max_value=1.0))
def test_fidelity_invariances(scale, phase, shift):
    t = np.linspace(0, 12, 1501)
    a = np.exp(-(((t - 4) / 0.5) ** 2)).astype(complex)
    b = np.exp(-(((t - 7.3) / 0.6) ** 2)) * (1 + 0.2 * np.sin(t))
    base = classical_fidelity(t, a, t, b)
    moved = scale * np.exp(1j * phase) * np.interp(t - shift, t, b.real)
    assert classical_fidelity(t, a, t, moved.astype(complex)) == pytest.approx(
        base, rel=5e-3, abs=5e-3)


def test_eit_baseline_values():
    assert eit_baseline(10000.0).value == pytest.approx(0.99971)
    assert eit_baseline(2000.0).value == pytest.approx(0.99855)
    low = eit_baseline(2.9)
    assert low.value == 0.0 and low.flagged


def test_feasibility_gaussian_reference_point():
    rep = feasibility(b=1000.0, length_cm=5.0, wavelength_nm=780.0)
    assert rep.rayleigh_um == pytest.approx(50.0, rel=0.02)
    assert rep.power_w == pytest.approx(0.08, rel=0.10)


@pytest.mark.parametrize("bad", [dict(b=math.nan), dict(length_cm=-5.0),
                                 dict(wavelength_nm=0.0), dict(lifetime_s=0.0),
                                 dict(lifetime_s=math.nan)])
def test_feasibility_refuses_out_of_range_input(bad):
    args = dict(b=1000.0, length_cm=5.0, wavelength_nm=780.0, lifetime_s=5e-9) | bad
    with pytest.raises(ValueError):
        feasibility(**args)


def test_feasibility_perpendicular_spot():
    rep = feasibility(b=1000.0, length_cm=5.0, wavelength_nm=780.0,
                      geometry="perpendicular")
    assert rep.spot_um2 == pytest.approx(math.pi * 25e8 / math.log(1000.0))


def test_feasibility_rayleigh_shrinks_with_b():
    rs = [feasibility(b=b, length_cm=5.0, wavelength_nm=780.0).rayleigh_um
          for b in (10.0, 100.0, 1000.0, 10000.0)]
    assert all(a > b for a, b in zip(rs, rs[1:]))


def test_feasibility_rejects_flat_beam():
    with pytest.raises(ValueError):
        feasibility(b=1.0, length_cm=5.0, wavelength_nm=780.0)


def test_delay_bandwidth_algebra():
    assert delay_bandwidth(0.28, 0.05, 0.005) == pytest.approx(46.0)
    assert delay_bandwidth(0.28, 0.05, 0.0025) == pytest.approx(92.0)
    with pytest.raises(UndefinedMetricError):
        delay_bandwidth(0.28, 0.05, 0.0)


def test_echo_fwhm_scales_inversely_with_flip_gain(fig4b_record, fig4c_record):
    # doubling the retrieval gain halves the echo duration (within 20%)
    widths = {}
    for g, rec in ((1, fig4b_record), (2, fig4c_record)):
        m = rec.times > 0.16
        widths[g] = fwhm(rec.times[m], np.abs(rec.probe_out[m]) ** 2)
    assert widths[1] / widths[2] == pytest.approx(2.0, rel=0.20)


def test_storage_efficiency_invariant_under_probe_scaling():
    from gradecho.model import ProbePulse

    r1 = integrate(small_scenario())
    r2 = integrate(small_scenario(
        probe=ProbePulse(amplitude=3.0, center_time=0.2, width=0.05)))
    assert storage_efficiency(r2, 0.8) == pytest.approx(
        storage_efficiency(r1, 0.8), rel=1e-12)


def test_detect_echo_invariant_under_probe_scaling_and_phase():
    import numpy as _np

    base = detect_echo(integrate(small_scenario()), after=1.1)
    for amp in (2.0, _np.exp(0.9j)):
        rec = integrate(small_scenario(
            probe=ProbePulse(amplitude=amp, center_time=0.2, width=0.05)))
        det = detect_echo(rec, after=1.1)
        assert det.peak_time == pytest.approx(base.peak_time, rel=1e-12)


def test_fft_correlation_equals_direct_correlation():
    rng = np.random.default_rng(7)
    for na, nb in ((1, 1), (5, 17), (64, 63), (300, 41), (129, 1000)):
        a = rng.normal(size=na) + 1j * rng.normal(size=na)
        b = rng.normal(size=nb) + 1j * rng.normal(size=nb)
        want = np.correlate(np.conj(b), np.conj(a), mode="full")
        got = _xcorr(a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_echo_metrics_of_a_flipped_empty_medium_raise_no_echo():
    rec = integrate(small_scenario(medium=MediumParams(xi=0.0)))
    with pytest.raises(NoEchoError, match="no echo above the detection floor"):
        compute_echo_metrics(rec, after=0.8, t_cut=0.8)


def test_multimodal_echo_carries_its_defined_metrics():
    # fig4a-coarse point 22 (xi = 8000, zeta = 1000): the echo has a
    # secondary peak at 0.87 of its maximum
    scenario = builtin_sweep("fig4a-coarse").point(22)[1]
    rec = integrate(scenario)
    after = scenario.schedule.last_flip_time()
    with pytest.raises(AmbiguousPeakError) as info:
        compute_echo_metrics(rec, after=after, t_cut=after)
    det = detect_echo(rec, after)
    assert info.value.metrics == {"efficiency_R": storage_efficiency(rec, after),
                                  "echo_peak_time": det.peak_time,
                                  "echo_peak_value": det.peak_value}
