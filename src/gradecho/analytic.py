"""Closed-form coherence/probe solutions for constant control, and the
phase-area machinery that generalizes their trigonometric factors to switched
control fields.

The closed forms describe the response to an impulsive probe at the z = 0
boundary.  Their amplitude convention: a regularized impulse of
time-integrated amplitude A corresponds to probe_amp = 4 A (see
``impulse_equivalent_amplitude``); with that mapping the forms agree with
the numerical dynamics in the broadband regime 1/width >> Omega_c >> Gamma,
converging as Omega_c/Gamma grows (measured: 8% relative L2 at Omega_c =
30 Gamma, 2.4% at 100 Gamma, 1.0% at 300 Gamma).  Well below Omega_c =
Gamma/2 the pair of dressed modes is overdamped and the trigonometric
factors no longer describe the dynamics.

scipy is imported inside the functions that call it, so importing the
package (``gradecho run`` and ``gradecho sweep`` never call them) does not
load it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ControlSchedule, ProbePulse, SpatialProfile

__all__ = [
    "AnalyticParams",
    "impulse_equivalent_amplitude",
    "rho31_closed",
    "rho21_closed",
    "probe_closed",
    "phase_area",
    "predict_echo_time",
    "first_order_signal",
]


@dataclass(frozen=True)
class AnalyticParams:
    """Constant-control closed-form parameters.

    eta_z is the product of the coupling constant eta and the observation
    depth z.
    """

    omega_c: float
    eta_z: float
    gamma_decay: float = 1.0
    probe_amp: complex = 1.0

    def __post_init__(self) -> None:
        values = (self.omega_c, self.eta_z, self.gamma_decay, self.probe_amp)
        if not all(cmath.isfinite(v) for v in values):
            raise ValueError("closed-form parameters must be finite")
        if self.eta_z < 0 or self.gamma_decay < 0:
            raise ValueError("eta_z and gamma_decay must be >= 0")


def impulse_equivalent_amplitude(probe: ProbePulse) -> complex:
    """probe_amp matching a regularized-delta boundary pulse.

    The closed forms carry an extra factor of 4 relative to a unit-area
    impulse response of the propagation equations; this returns
    4 * (time-integrated boundary amplitude).
    """
    return 4.0 * probe.area


def _envelope(p: AnalyticParams, T: np.ndarray) -> np.ndarray:
    from scipy.special import j0

    return j0(np.sqrt(p.eta_z * T)) * np.exp(-p.gamma_decay * T / 4.0)


def rho31_closed(p: AnalyticParams, T):
    """i (probe_amp/8) J0(sqrt(eta_z T)) exp(-Gamma T/4) cos(Omega_c T/2)."""
    Tarr = np.asarray(T, dtype=float)
    if np.any(Tarr < 0):
        raise ValueError("T must be >= 0")
    out = 1j * (p.probe_amp / 8.0) * _envelope(p, Tarr) * np.cos(p.omega_c * Tarr / 2.0)
    return complex(out) if np.isscalar(T) else out


def rho21_closed(p: AnalyticParams, T):
    """-(probe_amp/8) J0(sqrt(eta_z T)) exp(-Gamma T/4) sin(Omega_c T/2)."""
    Tarr = np.asarray(T, dtype=float)
    if np.any(Tarr < 0):
        raise ValueError("T must be >= 0")
    out = -(p.probe_amp / 8.0) * _envelope(p, Tarr) * np.sin(p.omega_c * Tarr / 2.0)
    return complex(out) if np.isscalar(T) else out


def probe_closed(p: AnalyticParams, T):
    """Scattered tail of the transmitted probe, normalized by probe_amp:

        -(1/4) sqrt(eta_z/T) J1(sqrt(eta_z T)) exp(-Gamma T/4) cos(Omega_c T/2)

    The forward delta component of the solution is never evaluated as a
    numeric spike; in comparisons the incident regularized pulse itself
    stands in for it.
    """
    from scipy.special import j1

    Tarr = np.asarray(T, dtype=float)
    if np.any(Tarr <= 0):
        raise ValueError("T must be > 0: sqrt(eta_z/T) is singular at T = 0")
    u = np.sqrt(p.eta_z * Tarr)
    out = (-0.25 * np.sqrt(p.eta_z / Tarr) * j1(u)
           * np.exp(-p.gamma_decay * Tarr / 4.0) * np.cos(p.omega_c * Tarr / 2.0))
    return complex(out) if np.isscalar(T) else out


def _gain_integral(schedule: ControlSchedule, t0: float, t: float) -> float:
    """Exact integral of gain(t') over [t0, t], closed form on ramp stretches."""
    if t < t0:
        raise ValueError("t must be >= t0")
    w = schedule.ramp_time
    total = 0.0
    for ta, tb, g_from, gain in schedule.stretches(t):
        a = max(ta, t0)
        if tb <= a:
            continue
        if g_from is None:
            total += gain * (tb - a)
        else:
            # integral of g_from + (gain - g_from)(1 - cos(pi u / w))/2, u = x - ta
            def F(x):
                u = x - ta
                return (g_from * u
                        + (gain - g_from) / 2.0 * (u - (w / math.pi) * math.sin(math.pi * u / w)))
            total += F(tb) - F(a)
    return total


def phase_area(schedule: ControlSchedule, profile: SpatialProfile,
               z: float, t0: float, t: float, length: float = 1.0) -> float:
    """Accumulated half phase (1/2) * integral of Omega_c(t', z) dt' over [t0, t]."""
    omega_z = float(profile.value(z, length))
    return 0.5 * omega_z * _gain_integral(schedule, t0, t)


def predict_echo_time(schedule: ControlSchedule, profile: SpatialProfile,
                      t0: float, t_end: float, length: float = 1.0) -> Optional[float]:
    """Earliest zero crossing of the phase area after both t0 and the last
    gain sign flip before t_end.

    The area is taken at ``profile.focus(length)``, the profile maximum (echo
    emission is dominated by the highest-coherence region).  Returns None
    when the area never crosses zero before t_end.  The search runs between
    the schedule's stretch edges and the gain's zero inside each
    sign-changing ramp: between those points the gain keeps one sign, so the
    area is monotone and a sign test is exact.
    """
    from scipy.optimize import brentq

    last_flip = schedule.last_flip_time(t_end)
    if last_flip is None:
        return None
    start = max(last_flip, t0)  # the area vanishes trivially at t0
    focus = profile.focus(length)

    def area(t: float) -> float:
        return phase_area(schedule, profile, focus, t0, t, length)

    pts = {start, t_end}
    for ta, tb, g_from, gain in schedule.stretches(t_end):
        pts.add(ta)
        if g_from is not None and g_from * gain < 0:  # the ramp's gain crosses zero
            x = math.acos(1.0 - 2.0 * g_from / (g_from - gain)) / math.pi
            pts.add(min(ta + x * schedule.ramp_time, tb))
    pts = sorted(p for p in pts if p >= start)
    eps = 1e-15 * max(1.0, t_end)
    for a, b in zip(pts, pts[1:]):
        fa, fb = area(a), area(b)  # a zero at a later a was returned as b
        if fa * fb < 0:
            return float(brentq(area, a, b, xtol=eps))
        if fb == 0.0:
            return b
    return None


def first_order_signal(profile: SpatialProfile, T, nquad: int = 256,
                       length: float = 1.0):
    """|integral_0^L cos(Omega_c(z) T / 2) dz|^2 / L^2 by composite Simpson.

    First-order scattering estimate of the transmitted intensity envelope for
    a static control profile.  The integrals at every T are one product of
    the matrix of cosines at the n + 1 nodes (n = nquad rounded up to even)
    with the Simpson weights h/3 [1, 4, 2, ..., 4, 1]; that matrix takes
    len(T) x (n + 1) doubles of memory.
    """
    if nquad < 16:
        raise ValueError("nquad must be >= 16")
    n = nquad + (nquad % 2)  # Simpson needs an even interval count
    zs = np.linspace(0.0, length, n + 1)
    omega = np.asarray(profile.value(zs, length), dtype=float)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (zs[1] - zs[0]) / 3.0
    Tarr = np.atleast_1d(np.asarray(T, dtype=float))
    vals = (np.cos(np.multiply.outer(Tarr, omega) / 2.0) @ w / length) ** 2
    return float(vals[0]) if np.isscalar(T) else vals
