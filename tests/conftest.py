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
from scipy.linalg import expm

from gradecho import builtin_scenario, builtin_sweep, integrate
from gradecho.model import (GLL_ORDER, ControlSchedule, GridSpec, MediumParams,
                            ProbePulse, Scenario, Uniform)
from gradecho.solver import _gll_rule, step_plan

UTAU = 1e-6
TRACED = (0.0, 0.3, 0.5, 1.0)  # the z nodes the property checks trace


def small_scenario(flip: bool = True, **overrides) -> Scenario:
    """Cheap, fully resolved scenario for property tests (590 steps)."""
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


def rho31_element_matrix(oc: np.ndarray, med: MediumParams, c: complex,
                         Q: np.ndarray) -> np.ndarray:
    """Matrix B of d(rho31, rho21)/dT = B (rho31, rho21) + (i/2) Omega_first
    e_31 for the coherences of one element under the control ``oc`` at its
    nodes, with the field at its nodes Omega_first + c Q rho31, in the rho31
    form the solver's u = -i rho31 form is checked against."""
    n = oc.size
    B = np.zeros((2 * n, 2 * n), dtype=complex)
    B[:n, :n] = 0.5j * c * Q
    B[:n, :n] += np.diag(np.full(n, -(med.gamma_decay / 2.0 + 1j * med.delta_p)))
    B[:n, n:] = np.diag(0.5j * oc)
    B[n:, :n] = np.diag(0.5j * np.conj(oc))
    B[n:, n:] = np.diag(np.full(n, 1j * (med.delta_c - med.delta_p + 1j * med.gamma_ground)))
    return B


def rho31_step_map(B: np.ndarray, dt: float) -> np.ndarray:
    """One step of dt of d rho/dT = B rho + (i/2) v(T) e_31 with v the cubic
    through (v, v') at both ends, by ``scipy.linalg.expm`` of the system
    augmented with v and its first three derivatives: returns the 2n x 2n + 4
    map from (rho, v(t0), v'(t0), v(t1), v'(t1)) to the new rho."""
    m = B.shape[0]
    aug = np.zeros((m + 4, m + 4), dtype=complex)
    aug[:m, :m] = B
    aug[:m // 2, m] = 0.5j
    aug[m:m + 3, m + 1:m + 4] = np.eye(3)
    X = expm(dt * aug)
    # the cubic's value and three derivatives at t0 from its two end pairs
    ends = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                     [1.0, dt, dt**2, dt**3], [0.0, 1.0, 2 * dt, 3 * dt**2]])
    taylor = np.diag([1.0, 1.0, 2.0, 6.0]) @ np.linalg.inv(ends)
    return np.concatenate((X[:m, :m], X[:m, m:] @ taylor), axis=1)


def unfused_step_loop(scenario: Scenario):
    """(times, probe_in, probe_out, rho31, rho21) after every step of
    ``step_plan(scenario)``, at the distinct z nodes, from the solver's scheme
    written one step and one element at a time in the rho31 form, in complex
    arithmetic.

    The solver steps u = -i rho31 from the probe's unit envelope and scales
    by the amplitude at the end; this loop steps rho31 and rho21 under the
    amplitude's own probe (``rho31_element_matrix``, ``rho31_step_map``), so
    it checks that change of variables.  It shares ``step_plan`` and
    ``_gll_rule`` with the solver, with a ramp step frozen at the gain of its
    midpoint, as the solver does.  Per step, the field and its T-derivative
    at every element's first node at the step start are rebuilt from the
    whole state under the step's gain (a running sum of the element totals,
    seeded with the boundary probe and its derivative), so a gain change
    needs no special case; then element 0, 1, ... steps exactly under the
    cubic through its first-node pairs at both ends, the end pair being the
    element before's last-node field and derivative at the step end (the
    boundary probe's for element 0).  The solver chains transfer maps of
    many steps through the elements instead, and carries the derivative
    from step to step, so the two agree to rounding, not bitwise.
    """
    med, sched = scenario.medium, scenario.schedule
    probe = scenario.probe
    p = GLL_ORDER
    n = p + 1
    E = scenario.grid.nz // p
    x, Q = _gll_rule(p)
    h = med.length / E
    c = 0.5j * med.eta * h  # the field gained inside an element is c Q rho31
    zs = np.append((np.arange(E)[:, None] * h + 0.5 * h * (x[:-1] + 1.0)).ravel(),
                   med.length)
    stored = (np.arange(E)[:, None] * p + np.arange(n)).ravel()
    distinct = np.append(np.arange(E * p) + np.arange(E * p) // p, stored.size - 1)
    prof = np.asarray(scenario.profile.value(zs, med.length), dtype=float)[stored].reshape(E, n)

    def field(r31, boundary):
        gained = c * (r31 @ Q.T)
        edge = np.cumsum(np.concatenate(([boundary], gained[:-1, p])))
        return edge[:, None] + gained

    def slope(r31, r21, fld, oc):
        """d rho31 / dT at the nodes under the control ``oc`` there."""
        return -(med.gamma_decay / 2.0 + 1j * med.delta_p) * r31 + 0.5j * (oc * r21 + fld)

    @functools.cache
    def maps(gain, dt):
        return [rho31_step_map(rho31_element_matrix(gain * prof[e], med, c, Q), dt)
                for e in range(E)]

    r31 = np.zeros((E, n), dtype=complex)
    r21 = np.zeros((E, n), dtype=complex)
    start = (probe.boundary_value(0.0), probe.boundary_derivative(0.0))
    times, pin, out = [0.0], [start[0]], [start[0]]
    s31, s21 = [r31.ravel()[distinct]], [r21.ravel()[distinct]]
    for ta, _, steps, dt, gain in step_plan(scenario):
        t1s = ta + dt * np.arange(1, steps + 1)
        boundary = (probe.boundary_value(t1s), probe.boundary_derivative(t1s))
        for k in range(steps):
            g = gain if gain is not None else sched.gain(ta + k * dt + dt / 2)  # a ramp step
            fld = field(r31, start[0])
            dfld = field(slope(r31, r21, fld, g * prof), start[1])
            start = end = (boundary[0][k], boundary[1][k])
            for e, F in enumerate(maps(g, dt)):
                rho = F @ np.concatenate((r31[e], r21[e],
                                          [fld[e, 0], dfld[e, 0], end[0], end[1]]))
                r31[e], r21[e] = rho[:n], rho[n:]
                inner = end[0] + c * (Q @ r31[e])
                end = (inner[-1],
                       end[1] + c * (Q[-1] @ slope(r31[e], r21[e], inner, g * prof[e])))
            times.append(t1s[k])
            pin.append(start[0])
            out.append(end[0])
            s31.append(r31.ravel()[distinct])
            s21.append(r21.ravel()[distinct])
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
