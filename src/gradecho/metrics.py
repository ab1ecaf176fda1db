"""Scalar diagnostics over recorded runs: widths, echo detection, storage
efficiency, classical fidelity, delay-bandwidth product, and experimental
feasibility estimates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .solver import FieldRecord

__all__ = [
    "AmbiguousPeakError",
    "UndefinedMetricError",
    "NoEchoError",
    "EchoMetrics",
    "EchoDetection",
    "fwhm",
    "detect_echo",
    "storage_efficiency",
    "classical_fidelity",
    "feasibility",
    "FeasibilityReport",
    "delay_bandwidth",
    "compute_echo_metrics",
]

NO_ECHO_FLOOR = 1e-10  # relative to the input intensity peak
NOISE_FLOOR = 1e-12    # relative to the trace maximum, for width search
_MAX_RESAMPLE = 2**22  # most samples of a trace resampled for a correlation


class AmbiguousPeakError(ValueError):
    """Trace has competing peaks; a single width is not meaningful.  From
    ``compute_echo_metrics``, ``metrics`` holds what stays defined."""

    metrics: Optional[dict] = None


class UndefinedMetricError(ValueError):
    """Metric undefined for this input (zero energy, no echo, ...)."""


class NoEchoError(UndefinedMetricError):
    """Nothing after the last flip rises above the echo detection floor."""


def _vertex(t: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    """Time and value of the peak at sample i: the vertex of the parabola
    through the samples i - 1, i, i + 1, for unequal spacing (a step plan's
    dt changes at piece edges), clipped to half a spacing either side of
    t[i]; the sample itself at either end of the samples or unless that
    parabola has a maximum."""
    if not 0 < i < t.size - 1:
        return float(t[i]), float(y[i])
    h0, h1 = t[i] - t[i - 1], t[i + 1] - t[i]
    d0, d1 = (y[i] - y[i - 1]) / h0, (y[i + 1] - y[i]) / h1
    a = (d1 - d0) / (h0 + h1)
    if not a < 0:
        return float(t[i]), float(y[i])
    b = (d0 * h1 + d1 * h0) / (h0 + h1)  # the slope at t[i]
    s = float(np.clip(-0.5 * b / a, -0.5 * h0, 0.5 * h1))
    return float(t[i] + s), float(y[i] + s * (b + a * s))


def _crossing(t: np.ndarray, y: np.ndarray, i: int, level: float) -> float:
    """Time in [t[i], t[i + 1]] where the samples cross ``level``: a root of
    the cubic through samples i - 1 .. i + 2, or the linear interpolant where
    either neighbour is missing (or the cubic has no root in the interval)."""
    h = t[i + 1] - t[i]
    linear = t[i] + h * (level - y[i]) / (y[i + 1] - y[i])
    if i < 1 or i + 2 >= t.size:
        return float(linear)
    s = (t[i - 1:i + 3] - t[i]) / h  # the interval is s in [0, 1]
    roots = np.roots(np.polyfit(s, y[i - 1:i + 3] - level, 3))
    roots = roots.real[(np.abs(roots.imag) <= 1e-9) & (roots.real >= -1e-9)
                       & (roots.real <= 1 + 1e-9)]
    if roots.size == 0:
        return float(linear)
    return float(t[i] + h * roots[np.argmin(np.abs(t[i] + h * roots - linear))])


def fwhm(times: np.ndarray, intensity: np.ndarray) -> float:
    """Full width at half maximum between interpolated half-level crossings.

    The maximum is the vertex of the parabola through the three samples
    around the largest one (the largest sample itself on a window edge), and
    each crossing is a root of the cubic through the four samples around it,
    linear where fewer exist: sampled at spacing w/20, a Gaussian intensity
    exp(-2 (t/w)^2) reads within 2e-5 of its width.  The global maximum
    must dominate: a secondary sample above 80% of the peak outside the main
    lobe raises AmbiguousPeakError.  Each crossing follows the last sample
    below half before the peak and the first one after it; a side that
    never falls below half (a peak on a window edge) takes the edge as its
    crossing.  A reported "half duration" corresponds to half this value.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(intensity, dtype=float)
    if t.shape != y.shape or t.size < 3:
        raise ValueError("times and intensity must be equal-length, size >= 3")
    i = int(np.argmax(y))
    peak = y[i]
    if peak <= 0:
        raise UndefinedMetricError("trace has no positive maximum")
    half = _vertex(t, y, i)[1] / 2.0
    below = np.nonzero(y < half)[0]
    left, right = below[below < i], below[below > i]
    il = left[-1] if left.size else 0
    ir = right[0] if right.size else t.size - 1
    tl = _crossing(t, y, il, half) if left.size else t[0]
    tr = _crossing(t, y, ir - 1, half) if right.size else t[-1]

    outside = np.concatenate([y[:il], y[ir + 1:]])
    significant = outside[outside > NOISE_FLOOR * peak]
    if significant.size and np.max(significant) > 0.8 * peak:
        raise AmbiguousPeakError(
            f"secondary peak at {np.max(significant) / peak:.2f} of max outside "
            f"the main lobe; width is ambiguous")
    return float(tr - tl)


class EchoDetection(NamedTuple):
    peak_time: float
    peak_value: float


def detect_echo(record: FieldRecord, after: float,
                before: Optional[float] = None) -> Optional[EchoDetection]:
    """Argmax of |probe_out|^2 on t in (after, before], sub-sample refined.

    Returns None when nothing rises above 1e-10 of the input intensity peak
    (no echo is a result, not an error).
    """
    t = record.times
    m = t > after
    if before is not None:
        m &= t <= before
    if not np.any(m):
        raise ValueError("empty detection window")
    y = np.abs(record.probe_out) ** 2
    input_peak = float(np.max(np.abs(record.probe_in) ** 2))
    tw, yw = t[m], y[m]
    i = int(np.argmax(yw))
    if yw[i] <= NO_ECHO_FLOOR * input_peak:
        return None
    return EchoDetection(*_vertex(tw, yw, i))


def storage_efficiency(record: FieldRecord, t_cut: float) -> float:
    """Transmitted intensity integral for t > t_cut over total input integral.

    Trapezoidal quadrature on the recorded grid; the upper limit is the end
    of the recorded window (truncation of the nominal infinite integral).
    """
    t = record.times
    if not t[0] <= t_cut <= t[-1]:
        raise ValueError("t_cut outside the recorded window")
    iin = np.abs(record.probe_in) ** 2
    iout = np.abs(record.probe_out) ** 2
    den = float(np.trapezoid(iin, t))
    if den <= 0:
        raise UndefinedMetricError("input trace carries no energy")
    num = float(np.trapezoid(np.where(t >= t_cut, iout, 0.0), t))
    return num / den


def _uniform(t: np.ndarray, y: np.ndarray, dt: float) -> np.ndarray:
    """Linear resampling of complex ``y`` onto a grid of step ``dt`` from t[0];
    UndefinedMetricError if that takes more than _MAX_RESAMPLE samples."""
    n = int(round((t[-1] - t[0]) / dt)) + 1
    if n > _MAX_RESAMPLE:
        raise UndefinedMetricError(f"resampling needs {n} samples at spacing "
                                   f"{dt:.3g}, above {_MAX_RESAMPLE}")
    tu = t[0] + dt * np.arange(n)
    return np.interp(tu, t, y.real) + 1j * np.interp(tu, t, y.imag)


def _xcorr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.correlate(conj(b), conj(a), "full")`` by FFT: entry k is
    sum_n a[n] conj(b[n + k - (a.size - 1)])."""
    n = a.size + b.size - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.ifft(np.fft.fft(np.conj(b), size) * np.fft.fft(a[::-1], size))[:n]


def _correlation(t_in, in_trace, t_out, out_trace) -> tuple[float, float, float]:
    """Resample both traces onto the finest spacing of either and
    cross-correlate them.

    Returns (peak, e_in, e_out): the largest |int out*(t) in(t - lag) dt|^2
    over the lags of that grid, and the energies of the resampled traces.
    """
    t_in = np.asarray(t_in, float)
    t_out = np.asarray(t_out, float)
    dt = min(float(np.min(np.diff(t_in))), float(np.min(np.diff(t_out))))
    au = _uniform(t_in, np.asarray(in_trace, complex), dt)
    bu = _uniform(t_out, np.asarray(out_trace, complex), dt)
    peak = float(np.max(np.abs(_xcorr(au, bu) * dt) ** 2))
    return (peak, float(np.sum(np.abs(au) ** 2) * dt),
            float(np.sum(np.abs(bu) ** 2) * dt))


def classical_fidelity(t_in: np.ndarray, in_trace: np.ndarray,
                       t_out: np.ndarray, out_trace: np.ndarray) -> float:
    """Delay-optimized normalized cross-correlation squared,

        max over tau_d of |int out*(t) in(t - tau_d) dt|^2
                        / (int |in|^2 dt * int |out|^2 dt),

    a value in [0, 1], invariant under global phase, amplitude scaling and
    time translation of either trace.
    """
    peak, e_in, e_out = _correlation(t_in, in_trace, t_out, out_trace)
    if e_in <= 0 or e_out <= 0:
        raise UndefinedMetricError("fidelity needs two traces with energy")
    return min(peak / (e_in * e_out), 1.0)


@dataclass(frozen=True)
class FeasibilityReport:
    geometry: str
    b: float
    length_cm: float
    wavelength_nm: float
    lifetime_s: float
    intensity_w_cm2: float
    rayleigh_um: Optional[float] = None
    power_w: Optional[float] = None
    spot_um2: Optional[float] = None


def feasibility(b: float, length_cm: float, wavelength_nm: float,
                geometry: str = "gaussian",
                lifetime_s: float = 5e-9) -> FeasibilityReport:
    """Laboratory-scale estimates for a control field with focal Rabi
    frequency b/tau.

    Gaussian geometry: Rayleigh length r from b/sqrt(1 + (L/r)^2) = 1 and cw
    power K = (1/2) * I * lambda * r with the dipole-based intensity estimate
    I = 1e-17 (b/tau)^2 W/cm^2.  Perpendicular geometry: focus spot area
    pi L^2 / ln(b).  The default lifetime reproduces the quoted 0.08 W
    example at b = 1000, L = 5 cm, lambda = 780 nm; pass the actual excited
    state lifetime (e.g. 26.2e-9 for the Rb D2 line) for a specific atom.
    """
    if not b > 1:
        raise ValueError("b must exceed 1: the gradient needs the Rabi "
                         "frequency to fall to 1/tau inside the medium")
    if not all(v > 0 for v in (length_cm, wavelength_nm, lifetime_s)):
        raise ValueError("length_cm, wavelength_nm and lifetime_s must be > 0")
    rate = b / lifetime_s
    intensity = 1e-17 * (rate * rate)  # W/cm^2
    if not (math.isfinite(intensity) and math.isfinite(b * b)):
        raise ValueError(f"b = {b:g} is too large: the control intensity "
                         f"estimate overflows")
    report = partial(FeasibilityReport, geometry=geometry, b=b, length_cm=length_cm,
                     wavelength_nm=wavelength_nm, lifetime_s=lifetime_s,
                     intensity_w_cm2=intensity)
    if geometry == "gaussian":
        r_cm = length_cm / math.sqrt(b * b - 1.0)
        lam_cm = wavelength_nm * 1e-7
        return report(rayleigh_um=r_cm * 1e4, power_w=0.5 * intensity * lam_cm * r_cm)
    if geometry == "perpendicular":
        return report(spot_um2=math.pi * length_cm**2 / math.log(b) * 1e8)
    raise ValueError(f"unknown geometry {geometry!r}")


@dataclass(frozen=True)
class EchoMetrics:
    """Per-run scalar summary; efficiency and fidelity live in [0, 1]."""

    echo_peak_time: float
    echo_fwhm: float
    efficiency_R: float
    fidelity: float
    delay_bandwidth: float
    echo_peak_value: float
    input_peak_time: float
    input_fwhm: float
    overlap_fidelity: float
    truncation_time: float

    def __post_init__(self) -> None:
        for name in ("echo_peak_time", "echo_fwhm", "efficiency_R",
                     "fidelity", "delay_bandwidth"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.efficiency_R <= 1.0:
            raise ValueError("efficiency_R outside [0, 1]")
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError("fidelity outside [0, 1]")


def delay_bandwidth(echo_peak_time: float, input_peak_time: float,
                    echo_fwhm: float) -> float:
    """Echo formation delay over echo duration (dimensionless)."""
    if echo_fwhm <= 0:
        raise UndefinedMetricError("echo width must be positive")
    return (echo_peak_time - input_peak_time) / echo_fwhm


def compute_echo_metrics(record: FieldRecord, flip: float, t_cut: float) -> EchoMetrics:
    """Bundle the standard per-run diagnostics for a flip protocol.

    The echo is the largest sample of (valley, t_end]; the valley is the
    first i past the first sample after the last ``flip`` with y[i - 1] >
    y[i] <= y[i + 1], y = |probe_out|^2, the dip that ends the forward
    emission: a lone lobe after the flip is no echo, and a ripple that dips
    the forward lobe opens the window on the ripple.  ``t_cut`` starts the
    storage efficiency.  Raises NoEchoError when nothing after the flip
    rises above the detection floor, UndefinedMetricError when the output
    does not dip or the window's largest sample is its first or last, and
    AmbiguousPeakError with the still-defined ``metrics`` for a multimodal echo.
    """
    t = record.times
    iout = np.abs(record.probe_out) ** 2
    iin = np.abs(record.probe_in) ** 2
    y = iout[np.searchsorted(t, flip, side="right"):]
    if not np.max(y, initial=0.0) > NO_ECHO_FLOOR * np.max(iin):
        raise NoEchoError("no echo above the detection floor")
    dips = np.flatnonzero((y[:-2] > y[1:-1]) & (y[1:-1] <= y[2:]))
    if not dips.size:
        raise UndefinedMetricError(f"no whole echo: no dip after the flip at t = {flip:g}")
    start = t.size - y.size + dips[0] + 2  # the first sample past the valley
    tw, yw = t[start:], iout[start:]
    i = int(np.argmax(yw))
    if not 0 < i < yw.size - 1:
        raise UndefinedMetricError(f"no whole echo: peak at the window edge t = {tw[i]:g}")
    peak_time, peak_value = _vertex(tw, yw, i)
    eff = storage_efficiency(record, t_cut)
    try:
        echo_fwhm = fwhm(tw, yw)
        input_fwhm = fwhm(t, iin)
    except AmbiguousPeakError as exc:
        exc.metrics = {"efficiency_R": eff, "echo_peak_time": peak_time,
                       "echo_peak_value": peak_value}
        raise
    input_peak_time = float(t[np.argmax(iin)])
    # both fidelities from one correlation; the peak and the input carry energy
    peak, e_in, e_out = _correlation(t, record.probe_in, tw, record.probe_out[start:])
    fid = min(peak / (e_in * e_out), 1.0)
    ovl = peak / e_in**2
    dbp = delay_bandwidth(peak_time, input_peak_time, echo_fwhm)
    return EchoMetrics(echo_peak_time=peak_time, echo_fwhm=echo_fwhm,
                       efficiency_R=eff, fidelity=fid, delay_bandwidth=dbp,
                       echo_peak_value=peak_value,
                       input_peak_time=input_peak_time, input_fwhm=input_fwhm,
                       overlap_fidelity=ovl, truncation_time=float(t[-1]))
