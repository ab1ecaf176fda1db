"""Coupled coherence-field integration on a 1D space-time grid.

The equations are solved in the retarded frame T = t - z/c, where the field
equation loses its time derivative and becomes d(Omega_p)/dz = i eta rho31
at fixed T.  Per time step the two coherence ODEs

    d(rho31)/dT = -(Gamma/2 + i Dp) rho31 + (i/2) Omega_c rho21 + (i/2) Omega_p
    d(rho21)/dT = i (Dc - Dp + i gamma) rho21 + (i/2) conj(Omega_c) rho31

are advanced at every z with a classical 4-stage Runge-Kutta step, the field
is rebuilt by trapezoidal integration of i eta rho31 from the boundary, and
the pair is iterated once as a corrector.  Because the system is linear and
the control gain is constant inside a schedule segment, the RK4 step is
applied as a precomputed linear map (one 2x2 matrix and two drive vectors
per z), which is algebraically identical to running the four stages with the
probe interpolated linearly across the step.  ``step_plan`` lays out the
time steps: they are aligned to segment boundaries so a gain change never
happens mid-step, and with an automatic dt the short probe is resolved only
while it enters the medium.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import Scenario, validate_scenario

__all__ = [
    "FieldRecord",
    "DivergenceError",
    "ResourceLimitError",
    "Piece",
    "integrate",
    "step_plan",
    "convergence_check",
    "ConvergenceReport",
]

MAX_COHERENCE = 10.0  # weak-probe normalization: any |rho| above this is blow-up
MAX_STEPS = 20_000_000  # default step budget of one run


class DivergenceError(RuntimeError):
    """Raised when a coherence becomes non-finite or unphysically large."""


class ResourceLimitError(RuntimeError):
    """Raised before starting a run that would exceed the step budget."""


@dataclass(frozen=True)
class FieldRecord:
    """Immutable simulation output.

    ``times/probe_in/probe_out`` sample the boundary and transmitted probe;
    ``rho31/rho21`` hold coherence snapshots of shape
    (len(snapshot_times), len(z)), empty if coherences were not requested.
    """

    times: np.ndarray
    probe_in: np.ndarray
    probe_out: np.ndarray
    snapshot_times: np.ndarray
    z: np.ndarray
    rho31: np.ndarray
    rho21: np.ndarray

    def coherence_at(self, z_target: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(snapshot_times, rho31, rho21) at the grid node nearest z_target."""
        if self.rho31.size == 0:
            raise ValueError("run was recorded without coherence snapshots")
        j = int(np.argmin(np.abs(self.z - z_target)))
        return self.snapshot_times, self.rho31[:, j], self.rho21[:, j]


def _rk4_operators(omega_c: np.ndarray, dt: float, gamma: float,
                   dp: float, dc: float, gg: float):
    """Classical-RK4 one-step map for the linear coherence pair.

    Returns (M11, M12, M21, M22, V0, V1) with rho_{n+1} = M rho_n +
    V0 * Omega_p(t_n) + V1 * Omega_p(t_{n+1}); V0/V1 come from pushing the
    linearly interpolated probe through the four stages.
    """
    nz = omega_c.shape[0]
    A = np.zeros((nz, 2, 2), dtype=complex)
    A[:, 0, 0] = -(gamma / 2.0 + 1j * dp)
    A[:, 0, 1] = 0.5j * omega_c
    A[:, 1, 0] = 0.5j * np.conj(omega_c)
    A[:, 1, 1] = 1j * (dc - dp + 1j * gg)
    A2 = A @ A
    A3 = A2 @ A
    A4 = A3 @ A
    M = (np.broadcast_to(np.eye(2, dtype=complex), (nz, 2, 2))
         + dt * A + dt**2 / 2.0 * A2 + dt**3 / 6.0 * A3 + dt**4 / 24.0 * A4)
    c = np.zeros((nz, 2), dtype=complex)
    c[:, 0] = 0.5j
    Ac = np.einsum("zij,zj->zi", A, c)
    A2c = np.einsum("zij,zj->zi", A2, c)
    A3c = np.einsum("zij,zj->zi", A3, c)
    V0 = dt / 6.0 * (3 * c + 2 * dt * Ac + 0.75 * dt**2 * A2c + 0.25 * dt**3 * A3c)
    V1 = dt / 6.0 * (3 * c + dt * Ac + 0.25 * dt**2 * A2c)
    return M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1], V0, V1


def _cumtrapz0(f: np.ndarray, dz: float) -> np.ndarray:
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum((f[1:] + f[:-1]) * (dz / 2.0), out=out[1:])
    return out


class Piece(NamedTuple):
    """One stretch of the step plan: ``steps`` steps of ``dt`` from
    ``t_start`` to ``t_end`` under a constant ``gain`` (None inside a cosine
    ramp, where the control depends on time)."""

    t_start: float
    t_end: float
    steps: int
    dt: float
    gain: Optional[float]


PROBE_WINDOW = 8.0  # probe widths either side of center; exp(-64) ~ 1.6e-28


def _dt_after(scenario: Scenario, dt_fine: float) -> float:
    """Auto step once the probe has entered: the control and medium limits."""
    limits = [scenario.grid.t_end / 50.0]
    omega_max = scenario.max_abs_control()
    if omega_max > 0:
        limits.append(0.1 / omega_max)
    eta_l = scenario.medium.eta * scenario.medium.length
    if eta_l > 0:
        limits.append(0.1 / eta_l)
    return max(dt_fine, min(limits))


def step_plan(scenario: Scenario) -> tuple[Piece, ...]:
    """The time steps ``integrate`` runs, as consecutive pieces over [0, t_end].

    Pieces are cut at segment starts and cosine-ramp edges, so a gain change
    never happens mid-step; ramp pieces take at least 8 steps.  A user-given
    ``grid.dt`` steps every piece at that dt.  Otherwise ``resolved_dt()``
    is used only while the probe enters (center +- 8 widths) and the coarser
    control/medium step (see ``_dt_after``) elsewhere, with two more cuts at
    the window edges.
    """
    sched = scenario.schedule
    t_end = scenario.grid.t_end
    dt_fine = scenario.resolved_dt()
    dt_after = dt_fine if scenario.grid.dt is not None else _dt_after(scenario, dt_fine)
    lo = scenario.probe.center_time - PROBE_WINDOW * scenario.probe.width
    hi = scenario.probe.center_time + PROBE_WINDOW * scenario.probe.width
    window_cuts = (lo, hi) if dt_after > dt_fine else ()

    controls = []  # (t_a, t_b, gain_or_None)
    bounds = [t for t, _ in sched.segments] + [t_end]
    for k, (t0, gain) in enumerate(sched.segments):
        t1 = min(bounds[k + 1], t_end)
        if t1 <= t0 or t0 >= t_end:
            continue
        if sched.ramp_time > 0 and k > 0:
            t_ramp = min(t0 + sched.ramp_time, t1)
            controls.append((t0, t_ramp, None))
            if t1 > t_ramp:
                controls.append((t_ramp, t1, gain))
        else:
            controls.append((t0, t1, gain))

    plan = []
    for ta, tb, gain in controls:
        edges = [ta] + [c for c in window_cuts if ta < c < tb] + [tb]
        for a, b in zip(edges, edges[1:]):
            dt = dt_fine if lo <= 0.5 * (a + b) <= hi else dt_after
            steps = max(1, int(math.ceil((b - a) / dt - 1e-12)))
            if gain is None:
                steps = max(steps, 8)  # resolve the cosine ramp itself
            plan.append(Piece(a, b, steps, (b - a) / steps, gain))
    return tuple(plan)


def _ramp_rhs_factory(prof_z, schedule, gamma, dp, dc, gg):
    a11 = -(gamma / 2.0 + 1j * dp)
    a22 = 1j * (dc - dp + 1j * gg)

    def rhs(t, r31, r21, op):
        oc = schedule.gain(t) * prof_z
        d31 = a11 * r31 + 0.5j * oc * r21 + 0.5j * op
        d21 = a22 * r21 + 0.5j * np.conj(oc) * r31
        return d31, d21

    return rhs


def integrate(scenario: Scenario, check: bool = True,
              max_steps: int = MAX_STEPS) -> FieldRecord:
    """Run the scenario through ``step_plan(scenario)`` and return the
    sampled fields.

    With ``check=True`` (default) validation errors abort the run; warnings
    are allowed.  ``max_steps`` bounds the total number of steps of the plan.
    """
    if check:
        _raise_on_errors(scenario)
    return _run(scenario, step_plan(scenario), max_steps)


def _raise_on_errors(scenario: Scenario) -> None:
    errors = [i for i in validate_scenario(scenario) if i.severity == "error"]
    if errors:
        raise ValueError("scenario fails validation: "
                         + "; ".join(i.message for i in errors))


def _run(scenario: Scenario, plan: tuple[Piece, ...], max_steps: int) -> FieldRecord:
    """Step ``scenario`` through ``plan`` (no validation)."""
    med = scenario.medium
    grid = scenario.grid
    L = med.length
    nz = grid.nz
    dz = L / nz
    zs = np.linspace(0.0, L, nz + 1)
    prof_z = np.asarray(scenario.profile.value(zs, L), dtype=float)
    eta = med.eta

    total_steps = sum(p.steps for p in plan)
    if total_steps > max_steps:
        raise ResourceLimitError(
            f"run needs {total_steps} steps, above the budget of {max_steps}; "
            f"coarsen dt or shorten t_end")

    rec_stride = grid.record_stride or max(1, int(math.ceil(total_steps / 1e5)))
    want_coh = "coherences" in scenario.outputs
    snap_stride = grid.snapshot_stride or max(1, int(math.ceil(total_steps / 512)))

    probe = scenario.probe.boundary_value
    r31 = np.zeros(nz + 1, dtype=complex)
    r21 = np.zeros(nz + 1, dtype=complex)
    op = np.full(nz + 1, probe(0.0), dtype=complex)
    op += _cumtrapz0(1j * eta * r31, dz)

    times = [0.0]
    pin = [op[0]]
    pout = [op[-1]]
    snap_t, snaps31, snaps21 = [0.0], [r31.copy()], [r21.copy()]
    ramp_rhs = None

    n_global = 0
    for (ta, _, nsteps, dt_i, gain) in plan:
        if gain is not None:
            M11, M12, M21, M22, V0, V1 = _rk4_operators(
                gain * prof_z, dt_i, med.gamma_decay, med.delta_p,
                med.delta_c, med.gamma_ground)
            V01, V02 = V0[:, 0], V0[:, 1]
            V11, V12 = V1[:, 0], V1[:, 1]
            VS1 = V01 + V11
        else:
            if ramp_rhs is None:
                ramp_rhs = _ramp_rhs_factory(prof_z, scenario.schedule,
                                             med.gamma_decay, med.delta_p,
                                             med.delta_c, med.gamma_ground)
        for n in range(nsteps):
            t0 = ta + n * dt_i
            t1 = ta + (n + 1) * dt_i
            g0 = op
            if gain is not None:
                r31p = M11 * r31 + M12 * r21 + VS1 * g0
                op_pred = probe(t1) + _cumtrapz0(1j * eta * r31p, dz)
                r31n = M11 * r31 + M12 * r21 + V01 * g0 + V11 * op_pred
                r21n = M21 * r31 + M22 * r21 + V02 * g0 + V12 * op_pred
            else:
                r31n, r21n = _ramp_step(ramp_rhs, t0, dt_i, r31, r21, g0, g0)
                op_pred = probe(t1) + _cumtrapz0(1j * eta * r31n, dz)
                r31n, r21n = _ramp_step(ramp_rhs, t0, dt_i, r31, r21, g0, op_pred)
            op = probe(t1) + _cumtrapz0(1j * eta * r31n, dz)
            r31, r21 = r31n, r21n
            n_global += 1
            if n_global % rec_stride == 0 or n_global == total_steps:
                peak = max(np.max(np.abs(r31)), np.max(np.abs(r21)))
                if not np.isfinite(peak) or peak > MAX_COHERENCE:
                    raise DivergenceError(
                        f"coherences diverged at step {n_global} (t = {t1:.6g}): "
                        f"max |rho| = {peak:.3g}")
                times.append(t1)
                pin.append(op[0])
                pout.append(op[-1])
            if want_coh and (n_global % snap_stride == 0 or n_global == total_steps):
                snap_t.append(t1)
                snaps31.append(r31.copy())
                snaps21.append(r21.copy())

    if want_coh:
        snap_times = np.array(snap_t)
        rho31 = np.vstack(snaps31)
        rho21 = np.vstack(snaps21)
    else:
        snap_times = np.empty(0)
        rho31 = np.empty((0, nz + 1), dtype=complex)
        rho21 = np.empty((0, nz + 1), dtype=complex)

    return FieldRecord(times=np.array(times), probe_in=np.array(pin),
                       probe_out=np.array(pout), snapshot_times=snap_times,
                       z=zs, rho31=rho31, rho21=rho21)


def _ramp_step(rhs, t0, dt, r31, r21, g0, g1):
    """Plain RK4 step with time-varying control, probe linear across the step."""
    gm = 0.5 * (g0 + g1)
    tm = t0 + 0.5 * dt
    k1a, k1b = rhs(t0, r31, r21, g0)
    k2a, k2b = rhs(tm, r31 + 0.5 * dt * k1a, r21 + 0.5 * dt * k1b, gm)
    k3a, k3b = rhs(tm, r31 + 0.5 * dt * k2a, r21 + 0.5 * dt * k2b, gm)
    k4a, k4b = rhs(t0 + dt, r31 + dt * k3a, r21 + dt * k3b, g1)
    return (r31 + dt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a),
            r21 + dt / 6.0 * (k1b + 2 * k2b + 2 * k3b + k4b))


class ConvergenceReport(NamedTuple):
    errors: np.ndarray  # relative L2 difference between consecutive levels
    monotone: bool


def convergence_check(scenario: Scenario, refinements: int = 2,
                      check: bool = True) -> ConvergenceReport:
    """Self-convergence of probe_out under refinement of the plan it runs.

    Level 0 is ``integrate(scenario)`` with every step recorded; level k
    runs ``step_plan(scenario)`` with 2**k times the steps in every piece
    and 2**k times nz.  Returns the relative L2 differences between
    consecutive levels; a non-monotone sequence flags an under-resolved
    base grid.
    """
    if refinements < 1:
        raise ValueError("refinements must be >= 1")
    from dataclasses import replace

    if check:
        _raise_on_errors(scenario)
    plan = step_plan(scenario)
    outs = []
    for k in range(refinements + 1):
        f = 2**k
        grid = replace(scenario.grid, nz=scenario.grid.nz * f, record_stride=1)
        refined = tuple(p._replace(steps=p.steps * f, dt=p.dt / f) for p in plan)
        rec = _run(replace(scenario, grid=grid), refined, MAX_STEPS)
        outs.append((rec.times, rec.probe_out))
    errs = []
    t0, y0 = outs[0]
    for (t1, y1) in outs[1:]:
        y1i = np.interp(t0, t1, y1.real) + 1j * np.interp(t0, t1, y1.imag)
        errs.append(float(np.linalg.norm(y0 - y1i) / np.linalg.norm(y1i)))
        t0, y0 = t1, y1
    errs_arr = np.array(errs)
    monotone = bool(np.all(np.diff(errs_arr) < 0)) if len(errs_arr) > 1 else True
    return ConvergenceReport(errors=errs_arr, monotone=monotone)
