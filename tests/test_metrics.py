import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradecho.metrics import (AmbiguousPeakError, NoEchoError,
                              UndefinedMetricError, classical_fidelity,
                              compute_echo_metrics, delay_bandwidth, detect_echo,
                              feasibility, fwhm, storage_efficiency)
from gradecho.metrics import _xcorr
from gradecho.model import MediumParams, ProbePulse
from gradecho.solver import FieldRecord, integrate

from .conftest import small_scenario


def test_fwhm_gaussian_field():
    # |exp(-(T/k)^2)|^2 has intensity FWHM k sqrt(2 ln 2)
    kappa = 0.37
    t = np.linspace(-3, 3, 4001)
    intensity = np.exp(-2 * (t / kappa) ** 2)
    expected = kappa * math.sqrt(2 * math.log(2))
    assert fwhm(t, intensity) == pytest.approx(expected, rel=1e-5)


@pytest.mark.parametrize("per_width, bound", [(20, 2e-5), (40, 1e-6)])
def test_fwhm_of_a_coarsely_sampled_gaussian(per_width, bound):
    # the intensity |exp(-(t/w)^2)|^2 sampled at spacing w/20 and w/40 at 7
    # offsets; the sampled peak and linear crossings were off by up to 9.6e-4
    # and 1.9e-4, the parabola vertex and cubic crossings by 8.4e-6 and 3.6e-7
    w = 0.37
    for offset in np.arange(7) / 7:
        t = (np.arange(-400, 401) + offset) * w / per_width
        width = fwhm(t, np.exp(-2 * (t / w) ** 2))
        assert width == pytest.approx(w * math.sqrt(2 * math.log(2)), rel=bound)


def test_fwhm_falls_back_to_linear_crossings_at_the_window_ends():
    # the half level is crossed between the first two samples and between
    # the last two, where a cubic has no sample on one side
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    assert fwhm(t, y) == pytest.approx(2.0, rel=1e-15)


def test_fwhm_edge_peak_uses_window_edge():
    t = np.linspace(0, 5, 2001)
    # decaying from the first sample, and rising to the last one
    for y in (np.exp(-t), np.exp(t - 5)):
        assert fwhm(t, y) == pytest.approx(math.log(2), rel=1e-4)


def test_fwhm_ambiguous_two_peaks():
    t = np.linspace(0, 10, 2001)
    a, b = np.exp(-(((t - 3) / 0.3) ** 2)), np.exp(-(((t - 7) / 0.3) ** 2))
    for y in (a + 0.9 * b, 0.9 * a + b):  # the secondary peak right, then left
        with pytest.raises(AmbiguousPeakError):
            fwhm(t, y)


def test_detect_echo_small_flip_protocol(small_record):
    # window past the post-flip forward transient; phase area predicts
    # rephasing at 2*0.8 - 0.2 = 1.4
    det = detect_echo(small_record, after=1.1)
    assert det is not None
    assert det.peak_time == pytest.approx(1.4, abs=0.08)


def _trace_record(times, intensity) -> FieldRecord:
    """A record whose |probe_out|^2 is ``intensity``, under a unit input."""
    times = np.asarray(times, dtype=float)
    none = np.empty(0)
    return FieldRecord(times=times, probe_in=np.eye(times.size)[0].astype(complex),
                       probe_out=np.sqrt(intensity).astype(complex),
                       snapshot_times=none, z=none, rho31=none, rho21=none,
                       peak_coherence=0.0)


def test_detect_echo_refines_the_peak_on_unequal_spacing():
    # a parabola peaked at 10.1, sampled 1.0 then 0.2 apart around its
    # max, as at a step plan's dt change; the equal-spacing vertex
    # formula put it at 10.3
    t = np.array([0.0, 9.0, 10.0, 10.2])
    det = detect_echo(_trace_record(t, 200.0 - (t - 10.1) ** 2), after=0.5)
    assert det.peak_time == pytest.approx(10.1, abs=1e-12)
    assert det.peak_value == pytest.approx(200.0, rel=1e-12)


def test_detect_echo_on_equal_spacing_keeps_the_symmetric_vertex():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = np.linspace(0.0, 1.0, 41) + rng.uniform(-5.0, 5.0)
        y = np.exp(-((t - t[20] - rng.uniform(-0.03, 0.03)) / rng.uniform(0.02, 0.2)) ** 2)
        det = detect_echo(_trace_record(t, y), after=t[0])
        i = int(np.argmax(y))
        y0, y1, y2 = y[i - 1], y[i], y[i + 1]
        delta = 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)
        assert det.peak_time == pytest.approx(t[i] + delta * (t[i + 1] - t[i - 1]) / 2,
                                              rel=1e-14, abs=1e-14)
        assert det.peak_value == pytest.approx(y1 - 0.25 * (y0 - y2) * delta, rel=1e-14)


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


def test_feasibility_gaussian_reference_point():
    rep = feasibility(b=1000.0, length_cm=5.0, wavelength_nm=780.0)
    assert rep.rayleigh_um == pytest.approx(50.0, rel=0.02)
    assert rep.power_w == pytest.approx(0.08, rel=0.10)


@pytest.mark.parametrize("bad", [dict(b=math.nan), dict(length_cm=-5.0),
                                 dict(wavelength_nm=0.0), dict(lifetime_s=0.0),
                                 dict(lifetime_s=math.nan), dict(b=1e200),
                                 dict(lifetime_s=1e-300)])
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


def test_echo_metrics_fidelity_is_classical_fidelity(fig4b_record):
    # one definition: the bundle reads the same correlation as the function,
    # on the window past the first dip after the flip at 0.16
    t = fig4b_record.times
    y = np.abs(fig4b_record.probe_out) ** 2
    first = int(np.searchsorted(t, 0.16, side="right"))
    valley = next(i for i in range(first + 1, t.size - 1) if y[i - 1] > y[i] <= y[i + 1])
    m = t > t[valley]
    got = compute_echo_metrics(fig4b_record, flip=0.16, t_cut=0.065).fidelity
    assert got == classical_fidelity(t, fig4b_record.probe_in,
                                     t[m], fig4b_record.probe_out[m])


def test_echo_metrics_of_a_flipped_empty_medium_raise_no_echo():
    rec = integrate(small_scenario(medium=MediumParams(xi=0.0)))
    with pytest.raises(NoEchoError, match="no echo above the detection floor"):
        compute_echo_metrics(rec, flip=0.8, t_cut=0.8)


def _gauss(t, center):
    return np.exp(-((t - center) / 0.2) ** 2)


def _echo_record(t_echo: float, echo: float = 0.5, forward: float = 0.0,
                 t_forward: float = 2.2, notch: float = 0.0) -> FieldRecord:
    """A unit Gaussian input at t = 1 and, as the output, a copy of it of
    amplitude ``echo`` at ``t_echo``, sampled 0.01 apart on [0, 4].
    ``forward`` adds a forward lobe of that amplitude at ``t_forward``,
    ``notch`` a narrow dip of that depth at t = 2.35."""
    t = np.linspace(0.0, 4.0, 401)
    out = (echo * _gauss(t, t_echo) + forward * _gauss(t, t_forward)
           - notch * np.exp(-((t - 2.35) / 0.02) ** 2))
    none = np.empty(0)
    return FieldRecord(times=t, probe_in=_gauss(t, 1.0).astype(complex),
                       probe_out=out.astype(complex),
                       snapshot_times=none, z=none, rho31=none, rho21=none,
                       peak_coherence=0.0)


@pytest.mark.parametrize("t_echo, flip", [
    (4.5, "2.0"), (1.9, "2.0"), (3.99, "3.995"), (3.99, "3.985")],
    ids=["rises-to-the-end", "falls-from-the-start", "one-sample", "two-samples"])
def test_echo_metrics_of_a_window_without_a_whole_echo_are_undefined(t_echo, flip):
    # a lone lobe after the flip is taken for the forward emission: no dip
    # follows it inside the record, so no echo window opens
    with pytest.raises(UndefinedMetricError,
                       match=f"^no whole echo: no dip after the flip at t = {float(flip):g}$"):
        compute_echo_metrics(_echo_record(t_echo), flip=float(flip), t_cut=float(flip))


def test_echo_metrics_of_an_echo_cut_off_by_the_window_are_undefined():
    # past the forward lobe's dip the output rises to the last sample
    with pytest.raises(UndefinedMetricError,
                       match="^no whole echo: peak at the window edge t = 4$"):
        compute_echo_metrics(_echo_record(4.5, forward=0.6), flip=2.0, t_cut=2.0)


def test_echo_metrics_from_the_small_flip_see_only_a_decaying_tail(small_record):
    # right after the flip at 0.8 the output still carries the forward
    # emission (0.0094 of the input peak); the window opens where that tail
    # dips, before the echo at 1.44 (3.9e-4)
    m = compute_echo_metrics(small_record, flip=0.8, t_cut=0.8)
    assert m.echo_peak_time == pytest.approx(1.444, abs=0.002)


def test_echo_metrics_of_an_interior_echo_score():
    # the flip at 2 falls on the tail of a forward lobe at 1.8, which dips
    # to 1e-8 before the echo; the efficiency counts from past that tail
    m = compute_echo_metrics(_echo_record(3.0, forward=0.6, t_forward=1.8),
                             flip=2.0, t_cut=2.5)
    assert m.echo_peak_time == pytest.approx(3.0, abs=1e-9)
    assert m.echo_fwhm == pytest.approx(m.input_fwhm, rel=1e-9)
    assert m.efficiency_R == pytest.approx(0.25, rel=1e-6)


def test_echo_metrics_score_the_echo_past_a_larger_forward_lobe():
    # the forward lobe at 2.2 holds the largest sample after the flip
    m = compute_echo_metrics(_echo_record(3.0, echo=0.4, forward=0.6), flip=2.0, t_cut=2.0)
    assert m.echo_peak_time == pytest.approx(3.0, abs=1e-6)
    assert m.echo_fwhm == pytest.approx(m.input_fwhm, rel=1e-4)


@pytest.mark.parametrize("notch, t_peak", [(0.05, 3.0), (0.1, 2.376)],
                         ids=["shallow", "dipping"])
def test_a_ripple_on_the_forward_lobe_opens_the_window_where_it_dips(notch, t_peak):
    # a shallow notch leaves the lobe falling, and the echo is scored; one
    # deep enough to dip opens the window on it, and the lobe's remainder,
    # larger than the echo, is scored in its place
    rec = _echo_record(3.0, echo=0.2, forward=0.6, notch=notch)
    m = compute_echo_metrics(rec, flip=2.0, t_cut=2.0)
    assert m.echo_peak_time == pytest.approx(t_peak, abs=1e-3)


@pytest.mark.parametrize("point, t_echo, width", [(5, 0.0964, 0.02494), (11, 0.0794, 0.01035)],
                         ids=["xi1000-zeta250", "xi2000-zeta500"])
def test_fig4a_coarse_echoes_are_scored_past_the_forward_emission(
        fig4a_coarse_record, point, t_echo, width):
    # from the flip at 0.065, point 5 was scored on its forward lobe at
    # 0.0686 (width 0.0090); from 0.075 the window opened on the echo of
    # point 11 and clipped its width to 0.00936 (the method-of-lines
    # reference on point 5's record times reads 0.0964 and 0.02494)
    m = compute_echo_metrics(fig4a_coarse_record(point), flip=0.065, t_cut=0.065)
    assert m.echo_peak_time == pytest.approx(t_echo, abs=5e-4)
    assert m.echo_fwhm == pytest.approx(width, rel=2e-3)


def test_multimodal_echo_carries_its_defined_metrics(fig4a_coarse_record):
    # fig4a-coarse point 22 (xi = 8000, zeta = 1000): the echo has a
    # secondary peak at 0.87 of its maximum
    rec = fig4a_coarse_record(22)
    with pytest.raises(AmbiguousPeakError) as info:
        compute_echo_metrics(rec, flip=0.065, t_cut=0.065)
    det = detect_echo(rec, 0.065)
    assert info.value.metrics == {"efficiency_R": storage_efficiency(rec, 0.065),
                                  "echo_peak_time": det.peak_time,
                                  "echo_peak_value": det.peak_value}
