"""Domain model: medium, control-field profiles, switching schedules, probe pulses.

Unit conventions used throughout the package:

* time is measured in units of tau (the excited-state lifetime), so the
  nominal decay rate is 1/tau = 1,
* rates (Rabi frequencies, detunings, decay constants) are in units of
  1/tau, i.e. multiples of the nominal linewidth,
* positions are measured in units of the medium length (length = 1 by
  default); the retarded frame removes the vacuum transit time entirely.

All model types are immutable after construction and safe to share between
worker processes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

__all__ = [
    "MediumParams",
    "Uniform",
    "GaussianBeam",
    "Linear",
    "SpatialProfile",
    "ControlSchedule",
    "ProbePulse",
    "GridSpec",
    "Scenario",
    "ValidationIssue",
    "evaluate_control",
    "validate_scenario",
    "scale_scenario",
    "broadband_ordering_ok",
]


@dataclass(frozen=True)
class MediumParams:
    """Atomic medium and laser detunings.

    ``eta = gamma_decay * xi / (2 * length)`` is the field-coherence coupling
    constant; it is always derived, never stored.
    """

    xi: float
    gamma_decay: float = 1.0
    gamma_ground: float = 0.0
    delta_p: float = 0.0
    delta_c: float = 0.0
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.gamma_decay <= 0:
            raise ValueError("gamma_decay must be > 0")
        if self.xi < 0:
            raise ValueError("xi must be >= 0")
        if self.length <= 0:
            raise ValueError("length must be > 0")

    @property
    def eta(self) -> float:
        return self.gamma_decay * self.xi / (2.0 * self.length)


@dataclass(frozen=True)
class Uniform:
    """Spatially flat control amplitude b (units of 1/tau)."""

    b: float

    def value(self, z, length: float = 1.0):
        return self.b * np.ones_like(np.asarray(z, dtype=float))

    def peak(self, length: float = 1.0) -> float:
        return abs(self.b)

    def focus(self, length: float = 1.0) -> float:
        return length


@dataclass(frozen=True)
class GaussianBeam:
    """Gaussian-beam axial profile b / sqrt(1 + ((z - z_focus)/rayleigh)^2)."""

    b: float
    z_focus: float
    rayleigh: float

    def __post_init__(self) -> None:
        if self.rayleigh <= 0:
            raise ValueError("rayleigh must be > 0")

    def value(self, z, length: float = 1.0):
        zz = np.asarray(z, dtype=float)
        return self.b / np.sqrt(1.0 + ((zz - self.z_focus) / self.rayleigh) ** 2)

    def peak(self, length: float = 1.0) -> float:
        return abs(float(self.value(self.focus(length), length)))

    def focus(self, length: float = 1.0) -> float:
        return min(max(self.z_focus, 0.0), length)


@dataclass(frozen=True)
class Linear:
    """Linear gradient zeta * z / length (units of 1/tau at z = length)."""

    zeta: float

    def value(self, z, length: float = 1.0):
        return self.zeta * np.asarray(z, dtype=float) / length

    def peak(self, length: float = 1.0) -> float:
        return abs(self.zeta)

    def focus(self, length: float = 1.0) -> float:
        return length


SpatialProfile = Union[Uniform, GaussianBeam, Linear]


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant temporal gain multiplying the spatial profile.

    ``segments`` is an ordered tuple of (t_start, gain); the first segment
    must start at t = 0 and start times must be strictly increasing.  A sign
    change of the gain, also across zero-gain segments, realizes the pi
    phase shift of the control field (``flip_times``).
    With ``ramp_time > 0`` each transition follows a cosine half-wave of that
    width starting at the segment boundary instead of an instantaneous jump.

    ``stretches(t_end)`` is the one walk of this timeline: every later
    segment opens with a cosine ramp from the previous segment's gain, cut
    short by the next segment or t_end, and holds its own gain after it.
    ``gain``, ``solver.step_plan`` and ``analytic.phase_area`` all read it.
    """

    segments: Tuple[Tuple[float, float], ...]
    ramp_time: float = 0.0

    def __post_init__(self) -> None:
        segs = tuple((float(t), float(g)) for t, g in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("schedule needs at least one segment")
        if segs[0][0] != 0.0:
            raise ValueError("first segment must start at t = 0")
        starts = [t for t, _ in segs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment start times must be strictly increasing")
        if self.ramp_time < 0:
            raise ValueError("ramp_time must be >= 0")

    def stretches(self, t_end: float = math.inf):
        """Consecutive stretches (t_a, t_b, g_from, gain) tiling [0, t_end]:
        a cosine ramp from ``g_from`` towards ``gain`` that starts at t_a
        (see ``gain``), or ``gain`` held constant, with ``g_from`` None."""
        segs = self.segments
        for k, (ta, gain) in enumerate(segs):
            tb = min(segs[k + 1][0], t_end) if k + 1 < len(segs) else t_end
            if tb <= ta:
                return
            if self.ramp_time > 0 and k > 0:
                t_ramp = min(ta + self.ramp_time, tb)
                yield ta, t_ramp, segs[k - 1][1], gain
                ta = t_ramp
            if tb > ta:
                yield ta, tb, None, gain

    def gain(self, t: float) -> float:
        if t < 0:
            raise ValueError("schedule gain is defined for t >= 0")
        for ta, tb, g_from, g in self.stretches():
            if t < tb:
                break
        if g_from is not None:
            x = (t - ta) / self.ramp_time
            g = g_from + (g - g_from) * 0.5 * (1.0 - math.cos(math.pi * x))
        return g

    def max_abs_gain(self) -> float:
        return max(abs(g) for _, g in self.segments)

    def flip_times(self) -> Tuple[float, ...]:
        """Start times of segments whose gain has the opposite sign of the last
        nonzero gain before it, so a flip may pass through zero-gain segments
        (control off, the memory protocol's storage interval)."""
        out, last = [], 0.0
        for t, g in self.segments:
            if g * last < 0:
                out.append(t)
            if g != 0:
                last = g
        return tuple(out)

    def last_flip_time(self) -> Optional[float]:
        flips = self.flip_times()
        return flips[-1] if flips else None


@dataclass(frozen=True)
class ProbePulse:
    """Weak probe boundary envelope at z = 0.

    The Gaussian and regularized-delta shapes share the evaluation
    amplitude * exp(-((t - center_time)/width)^2); ``regularized_delta``
    marks a pulse whose width is meant to be small compared to every other
    timescale, standing in for a true delta kick.  The equations are linear
    in the probe, so |amplitude| has no absolute meaning.
    """

    amplitude: complex = 1.0
    center_time: float = 0.0
    width: float = 1.0
    shape: str = "gaussian"

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be > 0")
        if self.shape not in ("gaussian", "regularized_delta"):
            raise ValueError(f"unknown probe shape {self.shape!r}")

    def boundary_value(self, t):
        tt = np.asarray(t, dtype=float)
        val = self.amplitude * np.exp(-(((tt - self.center_time) / self.width) ** 2))
        return complex(val) if np.isscalar(t) or tt.ndim == 0 else val

    @property
    def area(self) -> complex:
        """Time-integrated boundary amplitude."""
        return self.amplitude * self.width * math.sqrt(math.pi)


@dataclass(frozen=True)
class GridSpec:
    """Space-time grid: nz cells over [0, length], time step dt up to t_end.

    ``dt=None`` lets ``solver.step_plan`` choose the steps (its docstring
    gives the rule); a given ``dt`` steps the whole window at that dt.
    ``record_stride=None`` keeps at most 1e5 probe samples and
    ``snapshot_stride=None`` at most 512 coherence snapshots.
    """

    t_end: float
    nz: int = 1024
    dt: Optional[float] = None
    record_stride: Optional[int] = None
    snapshot_stride: Optional[int] = None

    def __post_init__(self) -> None:
        if self.nz < 2:
            raise ValueError("nz must be >= 2")
        if self.t_end <= 0:
            raise ValueError("t_end must be > 0")
        if self.dt is not None and not 0 < self.dt < self.t_end:
            raise ValueError("dt must satisfy 0 < dt < t_end")
        for name in ("record_stride", "snapshot_stride"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class Scenario:
    medium: MediumParams
    profile: SpatialProfile
    schedule: ControlSchedule
    probe: ProbePulse
    grid: GridSpec
    outputs: Tuple[str, ...] = ("probe_in", "probe_out", "coherences")

    def max_abs_control(self) -> float:
        return self.schedule.max_abs_gain() * self.profile.peak(self.medium.length)

    def resolved_dt(self) -> float:
        if self.grid.dt is not None:
            return self.grid.dt
        omega_max = self.max_abs_control()
        dt = self.probe.width / 20.0
        if omega_max > 0:
            dt = min(dt, 0.1 / omega_max)
        return min(dt, self.grid.t_end / 50.0)


class ValidationIssue(NamedTuple):
    severity: str  # "error" | "warning"
    message: str


def evaluate_control(profile: SpatialProfile, schedule: ControlSchedule,
                     t: float, z: float, length: float = 1.0) -> float:
    """Control Rabi frequency gain(t) * profile(z) in units of 1/tau.

    The sign encodes the control phase (0 or pi).
    """
    if not 0.0 <= z <= length:
        raise ValueError(f"z = {z} outside the medium [0, {length}]")
    if t < 0:
        raise ValueError("t must be >= 0")
    return schedule.gain(t) * float(profile.value(z, length))


def broadband_ordering_ok(bandwidth: float, omega_c_max: float,
                          gamma_decay: float) -> bool:
    """Broadband operating ordering: probe bandwidth > max|Omega_c| > Gamma."""
    return bandwidth > omega_c_max > gamma_decay


def validate_scenario(s: Scenario) -> list[ValidationIssue]:
    """Check grid resolution (errors) and physical-regime expectations (warnings).

    Structurally invalid inputs (non-monotone schedules, bad grid fields)
    already raise at construction time.
    """
    issues: list[ValidationIssue] = []
    dt = s.resolved_dt()
    omega_max = s.max_abs_control()

    if omega_max > 0 and dt * omega_max > 0.1 * (1 + 1e-12):
        issues.append(ValidationIssue(
            "error", f"grid under-resolves the control field: dt*max|Omega_c| = "
                     f"{dt * omega_max:.3g} > 0.1"))
    if dt > s.probe.width / 20.0 * (1 + 1e-12):
        issues.append(ValidationIssue(
            "error", f"grid under-resolves the probe: dt = {dt:.3g} > width/20 = "
                     f"{s.probe.width / 20.0:.3g}"))

    bandwidth = 1.0 / s.probe.width
    if not broadband_ordering_ok(bandwidth, omega_max, s.medium.gamma_decay):
        issues.append(ValidationIssue(
            "warning", f"broadband ordering 1/width > max|Omega_c| > Gamma violated: "
                       f"1/width = {bandwidth:.3g}, max|Omega_c| = {omega_max:.3g}, "
                       f"Gamma = {s.medium.gamma_decay:.3g}"))
    if s.schedule.ramp_time > 0 and omega_max > 0 and s.schedule.ramp_time > 1.0 / omega_max:
        issues.append(ValidationIssue(
            "warning", f"ramp_time = {s.schedule.ramp_time:.3g} exceeds 1/max|Omega_c| = "
                       f"{1.0 / omega_max:.3g}; switching is not fast on the echo scale"))
    if s.grid.t_end > 0.1 / s.medium.gamma_decay:
        issues.append(ValidationIssue(
            "warning", f"simulated window t_end = {s.grid.t_end:.3g} approaches the "
                       f"lifetime 1/Gamma = {1.0 / s.medium.gamma_decay:.3g}; spontaneous "
                       f"decay visibly damps the signal"))
    return issues


def scale_scenario(s: Scenario, factor: float) -> Scenario:
    """Time-scaling map: gains and xi multiplied by ``factor``, every time
    (probe center/width, schedule times, ramp, dt, t_end) divided by it;
    the length is unchanged.
    """
    if factor <= 0:
        raise ValueError("factor must be > 0")
    f = float(factor)
    medium = replace(s.medium, xi=s.medium.xi * f)
    schedule = ControlSchedule(
        segments=tuple((t / f, g * f) for t, g in s.schedule.segments),
        ramp_time=s.schedule.ramp_time / f,
    )
    probe = replace(s.probe, center_time=s.probe.center_time / f,
                    width=s.probe.width / f)
    grid = replace(s.grid, t_end=s.grid.t_end / f,
                   dt=None if s.grid.dt is None else s.grid.dt / f)
    return replace(s, medium=medium, schedule=schedule, probe=probe, grid=grid)
