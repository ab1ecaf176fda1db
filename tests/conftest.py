"""Shared fixtures: the figure-protocol runs are expensive enough to cache
for the whole session."""
from __future__ import annotations

import functools
import math
from dataclasses import replace
from typing import Optional

import numpy as np
import numpy.polynomial.legendre as leg
import pytest
from scipy.integrate import solve_ivp

from gradecho import builtin_scenario, builtin_sweep, integrate
from gradecho.model import (GLL_ORDER, ControlSchedule, GridSpec, MediumParams,
                            ProbePulse, Scenario, Uniform)
from gradecho.solver import _gll_rule, step_plan

UTAU = 1e-6
TRACED = (0.0, 0.3, 0.5, 1.0)  # the z nodes the property checks trace


def small_scenario(flip: bool = True, **overrides) -> Scenario:
    """Cheap, fully resolved scenario for property tests (~1.6k steps)."""
    fields = dict(
        medium=MediumParams(xi=50.0),
        profile=Uniform(b=2.0),
        schedule=ControlSchedule(segments=((0.0, 1.0), (0.8, -1.0)) if flip
                                 else ((0.0, 1.0),)),
        probe=ProbePulse(amplitude=1.0, center_time=0.2, width=0.05),
        grid=GridSpec(t_end=2.0, nz=128),
    )
    fields.update(overrides)
    return Scenario(**fields)


def fig4b_with_a_segment_past_t_end() -> Scenario:
    """fig4b with a third segment after its t_end = 0.6: the last flip inside
    the window is still the one at 0.16."""
    s = builtin_scenario("fig4b")
    return replace(s, schedule=ControlSchedule(s.schedule.segments + ((0.7, 1.0),)))


@pytest.fixture(scope="session")
def fig3a_record():
    return integrate(builtin_scenario("fig3a"))


@pytest.fixture(scope="session")
def fig4b_record():
    return integrate(builtin_scenario("fig4b"))


@pytest.fixture(scope="session")
def fig4c_record():
    return integrate(builtin_scenario("fig4c"))


@pytest.fixture(scope="session")
def small_record():
    return integrate(small_scenario())


@pytest.fixture(scope="session")
def fig4a_coarse_record():
    """The record of fig4a-coarse grid point i (each flips at 0.065),
    integrated once per session."""
    spec = builtin_sweep("fig4a-coarse")
    return functools.cache(lambda i: integrate(spec.point(i)[1]))


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def constant_control_response(scenario: Scenario, z: float, times):
    """Exact (rho31, rho21, Omega_p) at depth z for a constant, uniform control.

    With Omega_c fixed the solver's equations are linear and time-invariant,
    so in the Laplace domain (s) they solve exactly at every Omega_c:

        Omega_p(z, s) = Omega_p(0, s) exp(-(eta z / 2) (s - a22) / D(s))
        rho31 = (i/2) (s - a22) Omega_p(z, s) / D(s)
        rho21 = (i/2) conj(Omega_c) (i/2) Omega_p(z, s) / D(s)

    with a11 = -(Gamma/2 + i Dp), a22 = i (Dc - Dp + i gamma) and
    D(s) = (s - a11)(s - a22) + |Omega_c|^2 / 4.  For Dp = Dc = gamma = 0,
    D = s^2 + Gamma s / 2 + Omega_c^2 / 4; the closed forms in
    ``gradecho.analytic`` are its Omega_c >> Gamma limit.

    The boundary pulse is sampled (10 points per probe width and 100 per
    1/max(|Omega_c|, Gamma)), damped by exp(-sigma t), transformed by FFT on
    the line s = sigma + i omega, multiplied by the transfer functions and
    transformed back.  The FFT period is at least 4 max(times) and sigma = 30 / period,
    so the periodic images are suppressed by exp(-30); without the damping
    the EIT-delayed pulse (group delay ~110 tau at z = 0.5 for
    Omega_c = 0.3 Gamma) wraps around into the window.  Results are linearly
    interpolated onto ``times``; halving the sampling step moves them by
    < 3e-6 relative L2 on the oracle scenarios.
    """
    med, probe = scenario.medium, scenario.probe
    gains = {g for _, g in scenario.schedule.segments}
    if not isinstance(scenario.profile, Uniform) or len(gains) != 1:
        raise ValueError("exact response needs a uniform, constant control")
    omega_c = gains.pop() * scenario.profile.b
    t_out = np.asarray(times, dtype=float)

    dt = min(probe.width / 10.0, 0.01 / max(abs(omega_c), med.gamma_decay))
    n = 1 << math.ceil(math.log2(4.0 * t_out.max() / dt))
    sigma = 30.0 / (n * dt)
    t = np.arange(n) * dt
    damp = np.exp(-sigma * t)
    s = sigma + 2j * np.pi * np.fft.fftfreq(n, dt)

    a11 = -(med.gamma_decay / 2.0 + 1j * med.delta_p)
    a22 = 1j * (med.delta_c - med.delta_p + 1j * med.gamma_ground)
    d = (s - a11) * (s - a22) + abs(omega_c) ** 2 / 4.0
    field = (np.fft.fft(probe.boundary_value(t) * damp)
             * np.exp(-(med.eta * z / 2.0) * (s - a22) / d))

    def to_times(spectrum):
        return np.interp(t_out, t, np.fft.ifft(spectrum) / damp)

    return (to_times(0.5j * (s - a22) / d * field),
            to_times(0.5j * np.conj(omega_c) * 0.5j / d * field),
            to_times(field))


def rho31_coherence_matrix(oc: np.ndarray, med: MediumParams) -> np.ndarray:
    """Per-z 2x2 matrix A of d(rho31, rho21)/dT = A (rho31, rho21) + drive
    under the control field ``oc``, in the rho31 form the solver's u = -i rho31
    form is checked against."""
    A = np.empty((oc.shape[0], 2, 2), dtype=complex)
    A[:, 0, 0] = -(med.gamma_decay / 2.0 + 1j * med.delta_p)
    A[:, 0, 1] = 0.5j * oc
    A[:, 1, 0] = 0.5j * np.conj(oc)
    A[:, 1, 1] = 1j * (med.delta_c - med.delta_p + 1j * med.gamma_ground)
    return A


def rho31_rk4_map(A: np.ndarray, dt: float) -> np.ndarray:
    """One classical-RK4 step of the rho31 form under the constant ``A`` with
    the probe linear across the step, as y of shape (nz, 2, 4): rho_{n+1} =
    M rho_n + V0 Omega_p(t_n) + V1 Omega_p(t_{n+1}) for M = y[:, :, :2],
    V0 = y[:, :, 2], V1 = y[:, :, 3], under the drive (i/2) Omega_p."""
    y = np.zeros((A.shape[0], 2, 4), dtype=complex)
    y[:, 0, 0] = y[:, 1, 1] = 1.0
    drive = np.zeros((3, 2, 4), dtype=complex)  # (i/2) Omega_p at t0, t_half, t1
    drive[0, 0, 2] = drive[2, 0, 3] = 0.5j
    drive[1, 0, 2:] = 0.25j
    k1 = A @ y + drive[0]
    k2 = A @ (y + 0.5 * dt * k1) + drive[1]
    k3 = A @ (y + 0.5 * dt * k2) + drive[1]
    k4 = A @ (y + dt * k3) + drive[2]
    y += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def unfused_step_loop(scenario: Scenario):
    """(times, probe_in, probe_out, rho31, rho21) after every step of
    ``step_plan(scenario)``, at the distinct z nodes, from the solver's scheme
    written one quantity at a time in the rho31 form, in complex arithmetic.

    The solver steps u = -i rho31 from the probe's unit envelope and scales
    by the amplitude at the end; this loop steps rho31 and rho21 under the
    amplitude's own probe (``rho31_coherence_matrix``, ``rho31_rk4_map``), so
    it checks that change of variables.  It shares ``step_plan`` and
    ``_gll_rule`` with the solver, with a ramp step frozen at the gain of its
    midpoint, as the solver does: per step, w = M11 rho31 + M12 rho21
    + V01 Omega_p(t0); the predictor rho31 = w + V11 Omega_p(t0) gives the
    predicted field at the step end; the corrector puts that field in place
    of V11's and V12's Omega_p(t1); and each field rebuild adds the field
    gained inside every element to a running sum of the element totals,
    seeded with the boundary value.  The solver chains transfer maps of
    many steps through the elements instead, so the two agree to rounding,
    not bitwise; the boundary values are evaluated per piece, as the solver
    does.
    """
    med, sched = scenario.medium, scenario.schedule
    probe = scenario.probe.boundary_value
    p = GLL_ORDER
    E = scenario.grid.nz // p
    x, Q = _gll_rule(p)
    h = med.length / E
    zs = np.append((np.arange(E)[:, None] * h + 0.5 * h * (x[:-1] + 1.0)).ravel(),
                   med.length)
    stored = (np.arange(E)[:, None] * p + np.arange(p + 1)).ravel()
    distinct = np.append(np.arange(E * p) + np.arange(E * p) // p, stored.size - 1)
    prof = np.asarray(scenario.profile.value(zs, med.length), dtype=float)[stored]
    iQ = (0.5j * med.eta * h) * Q.T

    def step_map(gain, dt):
        return rho31_rk4_map(rho31_coherence_matrix(gain * prof, med), dt).transpose(1, 2, 0)

    def field(r31, boundary):
        gained = r31.reshape(E, p + 1) @ iQ
        edge = np.cumsum(np.concatenate(([boundary], gained[:-1, p])))
        return (edge[:, None] + gained).ravel()

    r31 = np.zeros(stored.size, dtype=complex)
    r21 = np.zeros(stored.size, dtype=complex)
    op = np.full(stored.size, probe(0.0), dtype=complex)
    times, pin, out = [0.0], [op[0]], [op[-1]]
    s31, s21 = [r31[distinct]], [r21[distinct]]
    for ta, _, steps, dt, gain in step_plan(scenario):
        t1s = ta + dt * np.arange(1, steps + 1)
        boundary = probe(t1s)
        if gain is not None:
            coef = step_map(gain, dt)
        for n in range(steps):
            if gain is None:  # a ramp step under the gain at its midpoint
                coef = step_map(sched.gain(ta + n * dt + dt / 2), dt)
            (M11, M12, V01, V11), (M21, M22, V02, V12) = coef
            w = M11 * r31 + M12 * r21 + V01 * op
            predicted = field(w + V11 * op, boundary[n])
            r31, r21 = (w + V11 * predicted,
                        M21 * r31 + M22 * r21 + V02 * op + V12 * predicted)
            op = field(r31, boundary[n])
            times.append(t1s[n])
            pin.append(boundary[n])
            out.append(op[-1])
            s31.append(r31[distinct])
            s21.append(r21[distinct])
    return np.array(times), np.array(pin), np.array(out), np.array(s31), np.array(s21)


def gll_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto-Legendre nodes x on [-1, 1] (+-1 and the roots of
    P_order') and Q with (Q f)_i the integral from -1 to x_i of the
    degree-``order`` interpolant of f at the nodes: Q = W V^-1 for
    V = legvander(x, order) and W[:, n] = legval(x, legint(e_n, lbnd=-1))."""
    unit = np.eye(order + 1)
    x = np.concatenate(([-1.0], np.sort(leg.legroots(leg.legder(unit[order]))), [1.0]))
    W = np.stack([leg.legval(x, leg.legint(e, lbnd=-1)) for e in unit], axis=1)
    Q = np.linalg.solve(leg.legvander(x, order).T, W.T).T
    Q[0] = 0.0
    return x, Q


def method_of_lines_response(scenario: Scenario, times, elements: int = 64,
                             order: int = 8, rtol: float = 1e-12,
                             atol: Optional[float] = None) -> np.ndarray:
    """Transmitted probe Omega_p(L, t) on ``times`` from an adaptive
    integrator, for any profile, schedule and ramp; exact in z to the
    degree-``order`` interpolant and in t to DOP853's tolerance.

    Method of lines on the solver's equations, on its own z grid: ``elements``
    equal elements of ``order`` + 1 Gauss-Lobatto-Legendre nodes each (the
    grid's ``nz`` is not used), with the field the exact cumulative integral
    of the per-element interpolant of i eta rho31 (``gll_rule``).  The
    coherences are integrated in t by ``solve_ivp`` (DOP853).  The control is
    evaluated at the exact time inside each right-hand side, and the
    integration restarts at every segment start and ramp edge, where the gain
    or its derivative jumps, and at the probe window (center +- 8 widths)
    with a first step of width / 20, so the short probe is not stepped over.
    ``atol`` is absolute on the coherences, so it must sit far below their
    size; by default it is 1e-12 of their scale |probe area| / 2 (peak
    |rho| reads 4.40e-3, 4.62e-9 and 8.78e-4 on fig4b, fig3a and oracle-ats
    against 4.43e-3, 4.43e-9 and 8.86e-4).  Nothing of ``gradecho.solver``
    is used.
    """
    if atol is None:
        atol = 1e-12 * abs(scenario.probe.area) / 2
    med, sched, probe = scenario.medium, scenario.schedule, scenario.probe
    x, Q = gll_rule(order)
    h = med.length / elements
    n = elements * order + 1  # distinct nodes; element e holds e order .. (e + 1) order
    zs = np.append((np.arange(elements)[:, None] * h
                    + 0.5 * h * (x[:-1] + 1.0)).ravel(), med.length)
    element = np.arange(elements)[:, None] * order + np.arange(order + 1)
    prof = np.asarray(scenario.profile.value(zs, med.length), dtype=float)
    c = 0.5j * med.eta * h
    a11 = -(med.gamma_decay / 2.0 + 1j * med.delta_p)
    a22 = 1j * (med.delta_c - med.delta_p + 1j * med.gamma_ground)
    to_end = np.zeros(n)  # the field gained from 0 to L, as weights on the nodes
    np.add.at(to_end, element, np.broadcast_to(Q[-1], element.shape))

    def field(t, r31):
        gained = c * (r31[element] @ Q.T)
        edge = np.concatenate(([0.0], np.cumsum(gained[:-1, -1])))
        inner = (edge[:, None] + gained)[:, :-1].ravel()
        return probe.boundary_value(t) + np.append(inner, edge[-1] + gained[-1, -1])

    def rhs(t, y):
        r31, r21 = y[:n], y[n:]
        oc = sched.gain(t) * prof
        return np.concatenate((a11 * r31 + 0.5j * oc * r21 + 0.5j * field(t, r31),
                               a22 * r21 + 0.5j * np.conj(oc) * r31))

    t_out = np.asarray(times, dtype=float)
    cuts = {t0 for t0, _ in sched.segments[1:]}
    if sched.ramp_time > 0:
        cuts |= {t0 + sched.ramp_time for t0 in cuts}
    cuts |= {probe.center_time - 8 * probe.width, probe.center_time + 8 * probe.width}
    edges = sorted({0.0, t_out[-1]} | {t for t in cuts if 0.0 < t < t_out[-1]})
    y = np.zeros(2 * n, dtype=complex)
    out = np.empty(t_out.size, dtype=complex)
    for a, b in zip(edges, edges[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=rtol, atol=atol,
                        first_step=min(probe.width / 20.0, b - a), dense_output=True)
        m = (t_out >= a) & (t_out <= b)
        out[m] = probe.boundary_value(t_out[m]) + c * (to_end @ sol.sol(t_out[m])[:n])
        y = sol.y[:, -1]
    return out
