"""Scalar diagnostics over recorded runs: widths, echo detection, storage
efficiency, classical fidelity, the EIT retrieval baseline, delay-bandwidth
product, and experimental feasibility estimates.
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
    "eit_baseline",
    "EitBaseline",
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
    """Nothing rises above the echo detection floor in the detection window."""


def fwhm(times: np.ndarray, intensity: np.ndarray) -> float:
    """Full width at half maximum by linear interpolation between samples.

    The global maximum must dominate: a secondary sample above 80% of the
    peak outside the main lobe raises AmbiguousPeakError.  A peak sitting on
    a window edge uses the edge as that side's crossing.  A reported "half
    duration" corresponds to half this value.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(intensity, dtype=float)
    if t.shape != y.shape or t.size < 3:
        raise ValueError("times and intensity must be equal-length, size >= 3")
    i = int(np.argmax(y))
    peak = y[i]
    if peak <= 0:
        raise UndefinedMetricError("trace has no positive maximum")
    half = peak / 2.0

    # left crossing
    below = np.nonzero(y[: i + 1] < half)[0]
    if below.size:
        il = below[-1]
        tl = t[il] + (t[il + 1] - t[il]) * (half - y[il]) / (y[il + 1] - y[il])
        left_edge = il
    else:
        tl = t[0]
        left_edge = 0
    # right crossing
    below = np.nonzero(y[i:] < half)[0]
    if below.size:
        ir = i + below[0]
        tr = t[ir - 1] + (t[ir] - t[ir - 1]) * (half - y[ir - 1]) / (y[ir] - y[ir - 1])
        right_edge = ir
    else:
        tr = t[-1]
        right_edge = t.size - 1

    outside = np.concatenate([y[:left_edge], y[right_edge + 1:]])
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
    if after >= t[-1]:
        raise ValueError("'after' lies beyond the recorded window")
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
    if 0 < i < yw.size - 1:
        # parabolic refinement through the three samples around the max
        y0, y1, y2 = yw[i - 1], yw[i], yw[i + 1]
        denom = y0 - 2 * y1 + y2
        if denom != 0:
            delta = 0.5 * (y0 - y2) / denom
            delta = float(np.clip(delta, -0.5, 0.5))
            tpk = tw[i] + delta * (tw[i + 1] - tw[i - 1]) / 2.0
            vpk = y1 - 0.25 * (y0 - y2) * delta
            return EchoDetection(float(tpk), float(vpk))
    return EchoDetection(float(tw[i]), float(yw[i]))


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


def _uniform(t: np.ndarray, y: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear resampling of complex ``y`` onto a grid of step ``dt`` from t[0];
    UndefinedMetricError if that takes more than _MAX_RESAMPLE samples."""
    n = int(round((t[-1] - t[0]) / dt)) + 1
    if n > _MAX_RESAMPLE:
        raise UndefinedMetricError(f"resampling needs {n} samples at spacing "
                                   f"{dt:.3g}, above {_MAX_RESAMPLE}")
    tu = t[0] + dt * np.arange(n)
    return tu, np.interp(tu, t, y.real) + 1j * np.interp(tu, t, y.imag)


def _xcorr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.correlate(conj(b), conj(a), "full")`` by FFT: entry k is
    sum_n a[n] conj(b[n + k - (a.size - 1)])."""
    n = a.size + b.size - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.ifft(np.fft.fft(np.conj(b), size) * np.fft.fft(a[::-1], size))[:n]


def _correlation(t_in, in_trace, t_out, out_trace):
    """Resample both traces onto the finest spacing of either and
    cross-correlate them.

    Returns (|corr|^2, lags, e_in, e_out): |int out*(t) in(t - lag) dt|^2 per
    delay ``lag`` of in relative to out, and the energies of the resampled
    traces.
    """
    t_in = np.asarray(t_in, float)
    t_out = np.asarray(t_out, float)
    dt = min(float(np.min(np.diff(t_in))), float(np.min(np.diff(t_out))))
    ta, au = _uniform(t_in, np.asarray(in_trace, complex), dt)
    tb, bu = _uniform(t_out, np.asarray(out_trace, complex), dt)
    corr = _xcorr(au, bu) * dt
    lags = (tb[0] - ta[0]) + dt * (np.arange(corr.size) - (ta.size - 1))
    return (np.abs(corr) ** 2, lags, float(np.sum(np.abs(au) ** 2) * dt),
            float(np.sum(np.abs(bu) ** 2) * dt))


def classical_fidelity(t_in: np.ndarray, in_trace: np.ndarray,
                       t_out: np.ndarray, out_trace: np.ndarray,
                       delay_range: Optional[tuple[float, float]] = None) -> float:
    """Delay-optimized normalized cross-correlation squared,

        max over tau_d of |int out*(t) in(t - tau_d) dt|^2
                        / (int |in|^2 dt * int |out|^2 dt),

    a value in [0, 1], invariant under global phase, amplitude scaling and
    (within the searched range) time translation of either trace.
    """
    power, lags, eau, ebu = _correlation(t_in, in_trace, t_out, out_trace)
    if eau <= 0 or ebu <= 0:
        raise UndefinedMetricError("fidelity needs two traces with energy")
    if delay_range is not None:
        sel = (lags >= delay_range[0]) & (lags <= delay_range[1])
        if not np.any(sel):
            raise ValueError("delay_range excludes every available lag")
        power = power[sel]
    return min(float(np.max(power) / (eau * ebu)), 1.0)


class EitBaseline(NamedTuple):
    value: float
    flagged: bool  # True when xi <= 2.9 and the formula has no meaning


def eit_baseline(xi: float) -> EitBaseline:
    """Optimal EIT retrieval efficiency 1 - 2.9/xi; 0 (flagged) for xi <= 2.9."""
    if xi <= 2.9:
        return EitBaseline(0.0, True)
    return EitBaseline(1.0 - 2.9 / xi, False)


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
    intensity = 1e-17 * (b / lifetime_s) ** 2  # W/cm^2
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


def compute_echo_metrics(record: FieldRecord, after: float, t_cut: float) -> EchoMetrics:
    """Bundle the standard per-run diagnostics for a flip protocol.

    ``after`` restricts echo detection (usually the last flip time); ``t_cut``
    is the storage-efficiency lower integration limit.  Raises NoEchoError
    when nothing rises above the detection floor, and AmbiguousPeakError with
    the still-defined ``metrics`` for a multimodal echo.
    """
    det = detect_echo(record, after)
    if det is None:
        raise NoEchoError("no echo above the detection floor")
    eff = storage_efficiency(record, t_cut)
    t = record.times
    iout = np.abs(record.probe_out) ** 2
    iin = np.abs(record.probe_in) ** 2
    m = t > after
    try:
        echo_fwhm = fwhm(t[m], iout[m])
        input_fwhm = fwhm(t, iin)
    except AmbiguousPeakError as exc:
        exc.metrics = {"efficiency_R": eff, "echo_peak_time": det.peak_time,
                       "echo_peak_value": det.peak_value}
        raise
    input_peak_time = float(t[np.argmax(iin)])
    # fidelity and overlap_fidelity from one correlation; the detected echo
    # and storage_efficiency already guarantee both energies
    power, _, eau, ebu = _correlation(t, record.probe_in, t[m], record.probe_out[m])
    fid = min(float(np.max(power) / (eau * ebu)), 1.0)
    ovl = float(np.max(power) / eau**2)
    dbp = delay_bandwidth(det.peak_time, input_peak_time, echo_fwhm)
    return EchoMetrics(echo_peak_time=det.peak_time, echo_fwhm=echo_fwhm,
                       efficiency_R=eff, fidelity=fid, delay_bandwidth=dbp,
                       echo_peak_value=det.peak_value,
                       input_peak_time=input_peak_time, input_fwhm=input_fwhm,
                       overlap_fidelity=ovl, truncation_time=float(t[-1]))
