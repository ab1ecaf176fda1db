"""Coupled coherence-field integration on a 1D space-time grid.

The equations are solved in the retarded frame T = t - z/c, where the field
equation loses its time derivative and becomes d(Omega_p)/dz = i eta rho31
at fixed T.  Per time step the two coherence ODEs

    d(rho31)/dT = -(Gamma/2 + i Dp) rho31 + (i/2) Omega_c rho21 + (i/2) Omega_p
    d(rho21)/dT = i (Dc - Dp + i gamma) rho21 + (i/2) conj(Omega_c) rho31

are advanced at every z with a classical 4-stage Runge-Kutta step, the field
is rebuilt by trapezoidal integration of i eta rho31 from the boundary, and
the pair is iterated once as a corrector.  The system is linear, so one RK4
step with the probe interpolated linearly across it is an affine map
rho+ = M rho + V0 Omega_p(t0) + V1 Omega_p(t1) per z (``_rk4_map``): a
constant-gain piece builds it once, a cosine-ramp piece rebuilds it every
step from the control at the step's start, middle and end, and both run the
same step body.  ``step_plan`` lays out the time steps: they are aligned to
segment boundaries so a gain change never happens mid-step, and with an
automatic dt the short probe is resolved only while it enters the medium.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import MediumParams, Scenario, validate_scenario

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
MAX_STEPS = 20_000_000  # step budget of one run


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


def _coherence_matrix(oc: np.ndarray, med: MediumParams) -> np.ndarray:
    """Per-z 2x2 matrix A of d(rho31, rho21)/dT = A (rho31, rho21) + drive
    under the control field ``oc``."""
    A = np.empty((oc.shape[0], 2, 2), dtype=complex)
    A[:, 0, 0] = -(med.gamma_decay / 2.0 + 1j * med.delta_p)
    A[:, 0, 1] = 0.5j * oc
    A[:, 1, 0] = 0.5j * np.conj(oc)
    A[:, 1, 1] = 1j * (med.delta_c - med.delta_p + 1j * med.gamma_ground)
    return A


def _rk4_map(A0: np.ndarray, Ah: np.ndarray, A1: np.ndarray, dt: float):
    """One classical-RK4 step as an affine map, for the coherence matrix at
    the step's start, middle and end and the probe linear across the step.

    The four stages run on the per-z 2x4 basis [I | e_g0 | e_g1]; returns
    y of shape (nz, 2, 4) with rho_{n+1} = M rho_n + V0 Omega_p(t_n) +
    V1 Omega_p(t_{n+1}) for M = y[:, :, :2], V0 = y[:, :, 2], V1 = y[:, :, 3].
    """
    y = np.zeros((A0.shape[0], 2, 4), dtype=complex)
    y[:, 0, 0] = y[:, 1, 1] = 1.0
    drive = np.zeros((3, 2, 4), dtype=complex)  # (i/2) Omega_p at t0, t_half, t1
    drive[0, 0, 2] = drive[2, 0, 3] = 0.5j
    drive[1, 0, 2:] = 0.25j
    k1 = A0 @ y + drive[0]
    k2 = Ah @ (y + 0.5 * dt * k1) + drive[1]
    k3 = Ah @ (y + 0.5 * dt * k2) + drive[1]
    k4 = A1 @ (y + dt * k3) + drive[2]
    y += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _check_coherences(r31: np.ndarray, r21: np.ndarray, step: int, t: float) -> None:
    """Raise DivergenceError if any |rho| is non-finite or above MAX_COHERENCE.

    The sum of squares bounds the max, so the cheap test passes only steps
    the exact test would pass; NaN, inf and large sums go to the exact test.
    """
    if (np.vdot(r31, r31) + np.vdot(r21, r21)).real < 0.81 * MAX_COHERENCE**2:
        return
    peak = np.maximum(np.max(np.abs(r31)), np.max(np.abs(r21)))  # keeps a NaN
    if not np.isfinite(peak) or peak > MAX_COHERENCE:
        raise DivergenceError(
            f"coherences diverged at step {step} (t = {t:.6g}): "
            f"max |rho| = {peak:.3g}")


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

    The pieces follow ``schedule.stretches(t_end)``, so a gain change never
    happens mid-step; ramp pieces take at least 8 steps.  A user-given
    ``grid.dt`` steps every piece at that dt.  Otherwise ``resolved_dt()``
    is used only while the probe enters (center +- 8 widths) and the coarser
    control/medium step (see ``_dt_after``) elsewhere, with two more cuts at
    the window edges.  No piece is a rounding sliver (1e-12 t_end or less):
    a window cut that close to a stretch edge is dropped, and a stretch that
    short after a ramp joins the ramp's last piece.
    """
    dt_fine = scenario.resolved_dt()
    dt_after = dt_fine if scenario.grid.dt is not None else _dt_after(scenario, dt_fine)
    lo = scenario.probe.center_time - PROBE_WINDOW * scenario.probe.width
    hi = scenario.probe.center_time + PROBE_WINDOW * scenario.probe.width
    window_cuts = (lo, hi) if dt_after > dt_fine else ()
    tol = 1e-12 * scenario.grid.t_end

    plan = []
    for ta, tb, g_from, gain in scenario.schedule.stretches(scenario.grid.t_end):
        ramp = g_from is not None
        if tb - ta <= tol and plan and plan[-1].gain is None:
            # a rounding sliver joins the ramp before it: ramp steps read schedule.gain
            ta, ramp = plan.pop().t_start, True
        edges = [ta] + [c for c in window_cuts if ta + tol < c < tb - tol] + [tb]
        for a, b in zip(edges, edges[1:]):
            dt = dt_fine if lo <= 0.5 * (a + b) <= hi else dt_after
            steps = max(1, int(math.ceil((b - a) / dt - 1e-12)))
            if ramp:
                steps = max(steps, 8)  # resolve the cosine ramp itself
            plan.append(Piece(a, b, steps, (b - a) / steps, None if ramp else gain))
    return tuple(plan)


def integrate(scenario: Scenario, check: bool = True) -> FieldRecord:
    """Run the scenario through ``step_plan(scenario)`` and return the
    sampled fields.

    With ``check=True`` (default) validation errors abort the run; warnings
    are allowed.  A plan above ``MAX_STEPS`` steps raises ResourceLimitError.
    """
    if check:
        _raise_on_errors(scenario)
    return _run(scenario, step_plan(scenario))


def _raise_on_errors(scenario: Scenario) -> None:
    errors = [i for i in validate_scenario(scenario) if i.severity == "error"]
    if errors:
        raise ValueError("scenario fails validation: "
                         + "; ".join(i.message for i in errors))


def _run(scenario: Scenario, plan: tuple[Piece, ...]) -> FieldRecord:
    """Step ``scenario`` through ``plan`` (no validation)."""
    med = scenario.medium
    grid = scenario.grid
    L = med.length
    nz = grid.nz
    zs = np.linspace(0.0, L, nz + 1)
    prof_z = np.asarray(scenario.profile.value(zs, L), dtype=float)
    c = 0.5j * med.eta * (L / nz)  # trapezoid weight of i eta rho31

    total_steps = sum(p.steps for p in plan)
    if total_steps > MAX_STEPS:
        raise ResourceLimitError(
            f"run needs {total_steps} steps, above the budget of {MAX_STEPS}; "
            f"coarsen dt or shorten t_end")

    rec_stride = grid.record_stride or max(1, int(math.ceil(total_steps / 1e5)))
    snap_stride = grid.snapshot_stride or max(1, int(math.ceil(total_steps / 512)))
    # every stride-th step and the last one, step n into sample ceil(n / stride)
    n_rec = 1 + -(-total_steps // rec_stride)
    n_snap = 1 + -(-total_steps // snap_stride) if "coherences" in scenario.outputs else 0
    times, snap_t = np.zeros(n_rec), np.zeros(n_snap)
    pin, pout = np.empty((2, n_rec), dtype=complex)
    rho31, rho21 = np.zeros((2, n_snap, nz + 1), dtype=complex)  # sample 0: rho = 0

    def step_map(gains, dt):
        """RK4 map for the gains at a step's start, middle and end, laid out
        as ``coef``: rows (M11, M12, V01, V11) and (M21, M22, V02, V12)."""
        A0, Ah, A1 = (_coherence_matrix(g * prof_z, med) for g in gains)
        return _rk4_map(A0, Ah, A1, dt).transpose(1, 2, 0)

    coef = np.empty((2, 4, nz + 1), dtype=complex)
    (M11, M12, V01, V11), (M21, M22, V02, V12) = coef
    r31, r21, r31n, r21n, w, tmp, op_pred = np.zeros((7, nz + 1), dtype=complex)
    half = np.empty(nz, dtype=complex)
    acc = np.zeros(nz + 1, dtype=complex)  # acc[0] stays 0: the boundary node

    def rebuild_field(r, boundary, out):
        """out = boundary + cumulative trapezoid of i eta r from z = 0."""
        np.add(r[1:], r[:-1], out=half)
        np.add.accumulate(half, out=acc[1:])  # cumsum without its wrapper
        np.multiply(acc, c, out=out)
        out += boundary

    probe = scenario.probe.boundary_value
    op = np.full(nz + 1, probe(0.0), dtype=complex)  # field at the step start
    pin[0], pout[0] = op[0], op[-1]

    n_global = 0
    for (ta, _, nsteps, dt, gain) in plan:
        t1s = ta + dt * np.arange(1, nsteps + 1)
        boundary = probe(t1s)
        if gain is not None:
            coef[...] = step_map((gain,) * 3, dt)
        for n in range(nsteps):
            t1 = t1s[n]
            if gain is None:
                t0 = ta + n * dt
                coef[...] = step_map([scenario.schedule.gain(t) for t in
                                      (t0, t0 + 0.5 * dt, t0 + dt)], dt)
            # w = M11 rho31 + M12 rho21 + V01 Omega_p(t0), shared by both passes
            np.multiply(M11, r31, out=w)
            w += np.multiply(M12, r21, out=tmp)
            w += np.multiply(V01, op, out=tmp)
            # predictor: the probe held at its start value across the step
            np.multiply(V11, op, out=r31n)
            r31n += w
            rebuild_field(r31n, boundary[n], op_pred)
            # corrector with the predicted field at the step end
            np.multiply(V11, op_pred, out=r31n)
            r31n += w
            np.multiply(M21, r31, out=r21n)
            r21n += np.multiply(M22, r21, out=tmp)
            r21n += np.multiply(V02, op, out=tmp)
            r21n += np.multiply(V12, op_pred, out=tmp)
            rebuild_field(r31n, boundary[n], op)
            r31, r31n = r31n, r31
            r21, r21n = r21n, r21
            n_global += 1
            if n_global % rec_stride == 0 or n_global == total_steps:
                _check_coherences(r31, r21, n_global, t1)
                k = -(-n_global // rec_stride)
                times[k], pin[k], pout[k] = t1, op[0], op[-1]
            if n_snap and (n_global % snap_stride == 0 or n_global == total_steps):
                k = -(-n_global // snap_stride)
                snap_t[k], rho31[k], rho21[k] = t1, r31, r21

    return FieldRecord(times=times, probe_in=pin, probe_out=pout,
                       snapshot_times=snap_t, z=zs, rho31=rho31, rho21=rho21)


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
        rec = _run(replace(scenario, grid=grid), refined)
        outs.append((rec.times, rec.probe_out))
    errs = []
    t0, y0 = outs[0]
    for (t1, y1) in outs[1:]:
        # every piece doubles its steps, so each level's record times are
        # every other record time of the next
        if not np.array_equal(t1[::2], t0):
            raise RuntimeError("refined record times do not nest")
        y1i = y1[::2]
        errs.append(float(np.linalg.norm(y0 - y1i) / np.linalg.norm(y1i)))
        t0, y0 = t1, y1
    errs_arr = np.array(errs)
    monotone = bool(np.all(np.diff(errs_arr) < 0)) if len(errs_arr) > 1 else True
    return ConvergenceReport(errors=errs_arr, monotone=monotone)
