"""Coupled coherence-field integration on a 1D space-time grid.

The equations are solved in the retarded frame T = t - z/c, where the field
equation loses its time derivative and becomes d(Omega_p)/dz = i eta rho31
at fixed T.  Per time step the two coherence ODEs

    d(rho31)/dT = -(Gamma/2 + i Dp) rho31 + (i/2) Omega_c rho21 + (i/2) Omega_p
    d(rho21)/dT = i (Dc - Dp + i gamma) rho21 + (i/2) conj(Omega_c) rho31

are advanced at every z with a classical 4-stage Runge-Kutta step, the field
is rebuilt by integrating i eta rho31 from the boundary, and the pair is
iterated once as a corrector.  The system is linear, so one RK4 step with
the probe interpolated linearly across it is an affine map
rho+ = M rho + V0 Omega_p(t0) + V1 Omega_p(t1) per z (``_rk4_map``), built
once for a constant-gain piece and once per step, from the control at the
step's start, middle and end, on a cosine ramp.  ``step_plan`` lays out the
time steps: they are aligned to segment boundaries so a gain change never
happens mid-step, and with an automatic dt each piece is stepped at the
control it reaches itself, and the short probe is resolved only while it
enters the medium.

The z grid is nz / 8 equal elements, each with the 9 Gauss-Lobatto-Legendre
nodes of its interval, and the field is exact for the degree-8 interpolant
of rho31 in every element (``_gll_rule``): inside an element it is the
field at the element's first node plus (i eta h / 2) Q rho31.  The record
holds the nz + 1 distinct nodes.

Elements are coupled only through the field at their shared node, one
predicted and one corrected value per step, and within a piece the scheme
is linear.  So m steps of one element are a fixed linear map from its state
(rho31 and rho21 at its 9 nodes and the corrected field at its first node,
NS = 19 values) and its 2 m first-node inputs to its new state and its 2 m
last-node outputs, which are the next element's inputs.  ``_step_maps``
builds these maps under one RK4 map: ``_element_steps`` runs the scheme on
each element on its own, on unit states and one pair of unit inputs at the
first step, and the step does not change, so the inputs of later steps are
that response shifted.  A run steps in blocks that end at every snapshot step and every
piece end: at most K steps under a constant gain, with the maps built once
per piece, and one step on a ramp, with the maps of that step's RK4 map.
E chained matrix-vector products carry the boundary probe through the
elements, one batched product advances every element's state, and the last
element's outputs are the transmitted probe.
A block makes E + 6 numpy calls, 3 more when it ends at a snapshot: about
2 per step at E = 32 and 21-step blocks.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import GLL_ORDER, MediumParams, Scenario, validate_scenario

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
K = 24  # most steps in one transfer block
NS = 2 * (GLL_ORDER + 1) + 1  # element state: rho31, rho21 at its nodes, edge field


class DivergenceError(RuntimeError):
    """Raised when a coherence becomes non-finite or unphysically large."""


class ResourceLimitError(RuntimeError):
    """Raised before starting a run that would exceed the step budget."""


@dataclass(frozen=True)
class FieldRecord:
    """Immutable simulation output.

    ``times/probe_in/probe_out`` sample the boundary and transmitted probe;
    ``z`` holds the nz + 1 distinct grid nodes and ``rho31/rho21`` coherence
    snapshots of shape (len(snapshot_times), len(z)).  Each holds step 0,
    every stride-th step and the last step, at the smallest strides that
    keep 1e5 probe samples and 512 snapshots or fewer after step 0.
    ``peak_coherence`` is the largest |rho| the divergence guard
    saw, at any stored node of any state it checked.
    """

    times: np.ndarray
    probe_in: np.ndarray
    probe_out: np.ndarray
    snapshot_times: np.ndarray
    z: np.ndarray
    rho31: np.ndarray
    rho21: np.ndarray
    peak_coherence: float

    def coherence_at(self, z_target: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(snapshot_times, rho31, rho21) at the grid node nearest z_target."""
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


def _check_coherences(rho: np.ndarray, step: int, t: float) -> float:
    """The max |rho| over ``rho``; raise DivergenceError if it is non-finite
    or above MAX_COHERENCE."""
    peak = float(np.max(np.abs(rho)))
    if not peak <= MAX_COHERENCE:  # a NaN fails this too
        raise DivergenceError(
            f"coherences diverged at step {step} (t = {t:.6g}): "
            f"max |rho| = {peak:.3g}")
    return peak


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


def step_plan(scenario: Scenario) -> tuple[Piece, ...]:
    """The time steps ``integrate`` runs, as consecutive pieces over [0, t_end].

    The pieces follow ``schedule.stretches(t_end)``, so a gain change never
    happens mid-step; ramp pieces take at least 8 steps.  A user-given
    ``grid.dt`` steps every piece at that dt.  Otherwise every stretch is
    stepped under the largest |gain| it reaches (|gain| when constant,
    max(|g_from|, |gain|) on a ramp) by ``Scenario.auto_dt``: its window
    step while the probe enters (center +- 8 widths) and its coarser
    after-window step elsewhere, with two more cuts at the window edges.
    No piece is a rounding sliver (1e-12 t_end or less): a window cut that
    close to a stretch edge is dropped, and a stretch that short after a
    ramp joins the ramp's last piece under the ramp's bound.
    """
    lo = scenario.probe.center_time - PROBE_WINDOW * scenario.probe.width
    hi = scenario.probe.center_time + PROBE_WINDOW * scenario.probe.width
    tol = 1e-12 * scenario.grid.t_end
    pinned = scenario.grid.dt

    plan = []
    for ta, tb, g_from, gain in scenario.schedule.stretches(scenario.grid.t_end):
        ramp = g_from is not None
        bound = max(abs(g_from), abs(gain)) if ramp else abs(gain)
        if tb - ta <= tol and plan and plan[-1].gain is None:
            # a rounding sliver joins the ramp before it: ramp steps read schedule.gain
            ta, ramp, bound = plan.pop().t_start, True, max(bound, last_bound)
        last_bound = bound
        dt_fine, dt_after = (pinned, pinned) if pinned is not None else scenario.auto_dt(bound)
        cuts = (lo, hi) if dt_after > dt_fine else ()
        edges = [ta] + [c for c in cuts if ta + tol < c < tb - tol] + [tb]
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
    The run stops with DivergenceError when the state at the end of a block
    has a non-finite |rho| or one above ``MAX_COHERENCE``; blocks end at
    every snapshot step, at every piece end and after at most K steps, and
    after every step of a ramp, so the check runs at least every K steps,
    at every ramp step and at the last step.  ``peak_coherence`` of the record
    is the largest |rho| over the states checked.
    """
    if check:
        _raise_on_errors(scenario)
    return _run(scenario, step_plan(scenario))


def _raise_on_errors(scenario: Scenario) -> None:
    errors = [i for i in validate_scenario(scenario) if i.severity == "error"]
    if errors:
        raise ValueError("scenario fails validation: "
                         + "; ".join(i.message for i in errors))


@functools.cache
def _gll_rule(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto-Legendre nodes x on [-1, 1] (+-1 and the roots of P_p')
    and the matrix Q with (Q f)_i = integral from -1 to x_i of the degree-p
    interpolant of f at the nodes: Q = W V^-1 for V = legvander(x, p) and
    W[:, n] = legval(x, legint(e_n, lbnd=-1)).  Q's first row is exactly 0.
    Built once per process and order; both arrays are read-only."""
    from numpy.polynomial import legendre as leg

    unit = np.eye(p + 1)
    x = np.concatenate(([-1.0], np.sort(leg.legroots(leg.legder(unit[p]))), [1.0]))
    x = 0.5 * (x - x[::-1])  # exactly symmetric about 0
    W = np.stack([leg.legval(x, leg.legint(e, lbnd=-1)) for e in unit], axis=1)
    Q = np.linalg.solve(leg.legvander(x, p).T, W.T).T
    Q[0] = 0.0
    x.flags.writeable = Q.flags.writeable = False
    return x, Q


def _element_steps(coef, k: int, scale: complex, Q: np.ndarray):
    """The scheme on each element on its own for ``k`` steps under the RK4
    map ``coef``, run on unit columns.

    An element's state is rho31 and rho21 at its p + 1 nodes and the
    corrected field at its first node at the step start (NS values); its
    inputs at a step are the predicted and the corrected field at its first
    node at the step end, and its outputs the same two at its last node,
    which are the next element's inputs.  Inside the element the field is
    the first-node field plus ``scale`` Q rho31, scale = i eta h / 2.

    Column c < NS starts as the unit state e_c, and columns NS and NS + 1
    are unit inputs at the first step; every later input is 0.  ``coef``
    broadcasts to (4, 2, p + 1, NS + 2, E): the coefficients of rho31,
    rho21, the start field and the end field in the rho31 row and in the
    rho21 row.  After each step this yields the outputs, shape
    (2, NS + 2, E), and the state, shape (NS, NS + 2, E): by linearity, the
    columns of the maps that take an element's state and inputs to them.
    """
    n, E = Q.shape[0], coef.shape[-1]
    M1, M2, V0, V1 = coef

    def gained(r, q=Q):
        """scale q r over the node axis, as one real product."""
        return scale * (q @ r.view(float).reshape(n, -1)).view(complex).reshape(
            len(q), *r.shape[1:])

    x = np.zeros((NS, NS + 2, E), dtype=complex)
    x[np.arange(NS), np.arange(NS)] = 1.0
    for j in range(k):
        r31 = x[:n]
        op = x[2 * n] + gained(r31)  # the field at the step start
        xn = np.empty_like(x)
        rho = xn[:2 * n].reshape(2, n, NS + 2, E)
        np.multiply(M1, r31, out=rho)
        rho += M2 * x[n:2 * n]
        rho += V0 * op
        end = gained(rho[0] + V1[0] * op)  # the predicted field at the step end
        xn[-1] = 0.0
        if j == 0:
            end[:, NS] += 1.0
            xn[-1, NS + 1] = 1.0
        rho += V1 * end
        x = xn
        yield np.stack((end[-1], x[-1] + gained(x[:n], Q[-1:])[0])), x


def _step_maps(coef, scale: complex, Q: np.ndarray, lengths) -> dict:
    """Transfer maps of a piece stepped under one RK4 map ``coef`` in blocks
    of the given ``lengths``: per length m, the output map of each element
    as a list of (2 m, NS + 2 m) matrices and the state map, shape
    (E, NS, NS + 2 m).

    The step is the same every step, so one build of k = max(lengths) steps
    on the NS unit states and one pair of inputs at the first step gives
    every column: the response to the inputs at step n is the first-step
    response n steps later.  The output map of m steps is the leading 2 m
    rows and NS + 2 m columns of the output map of k steps.
    """
    k, E = max(lengths), coef.shape[-1]
    out_map = np.zeros((E, 2 * k, NS + 2 * k), dtype=complex)
    kicks = np.empty((k, NS, 2, E), dtype=complex)
    states = {}
    for j, (y, x) in enumerate(_element_steps(coef, k, scale, Q)):
        out_map[:, 2 * j:2 * j + 2, :NS] = y[:, :NS].transpose(2, 0, 1)
        # the inputs of every step i, j steps on
        for i in range(k - j):
            out_map[:, 2 * (i + j):2 * (i + j) + 2, NS + 2 * i:NS + 2 * i + 2] = \
                y[:, NS:].transpose(2, 0, 1)
        kicks[j] = x[:, NS:]
        if j + 1 in lengths:
            states[j + 1] = x[:, :NS].transpose(2, 0, 1)
    return {m: (list(out_map[:, :2 * m, :NS + 2 * m]), np.concatenate(
        (states[m], kicks[m - 1::-1].transpose(3, 1, 0, 2).reshape(E, NS, 2 * m)), axis=2))
        for m in states}


def _blocks(plan: tuple[Piece, ...], stride: int):
    """Per piece of ``plan``, the lengths of its blocks: a block ends at the
    piece end, at every ``stride``-th step of the run and after at most K
    steps, and on a ramp, where the RK4 map changes every step, after each
    step."""
    g = 0
    for piece in plan:
        end, lengths = g + piece.steps, []
        most = K if piece.gain is not None else 1
        while g < end:
            lengths.append(min(most, end - g, stride - g % stride))
            g += lengths[-1]
        yield lengths


def _run(scenario: Scenario, plan: tuple[Piece, ...], *,
         record_stride: Optional[int] = None,
         snapshot_stride: Optional[int] = None) -> FieldRecord:
    """Step ``scenario`` through ``plan`` (no validation), recording the
    probe every ``record_stride`` steps and the coherences every
    ``snapshot_stride`` steps, by default those of ``FieldRecord``."""
    med = scenario.medium
    L = med.length
    nz = scenario.grid.nz
    p, E = GLL_ORDER, nz // GLL_ORDER
    x, Q = _gll_rule(p)
    h = L / E
    # the nz + 1 distinct nodes; element e holds nodes e p .. (e + 1) p
    zs = np.append((np.arange(E)[:, None] * h + 0.5 * h * (x[:-1] + 1.0)).ravel(), L)
    stored = (np.arange(E)[:, None] * p + np.arange(p + 1)).ravel()
    prof_z = np.asarray(scenario.profile.value(zs, L), dtype=float)[stored]
    scale = 0.5j * med.eta * h

    total_steps = sum(piece.steps for piece in plan)
    if total_steps > MAX_STEPS:
        raise ResourceLimitError(
            f"run needs {total_steps} steps, above the budget of {MAX_STEPS}; "
            f"coarsen dt or shorten t_end")

    rec_stride = record_stride or max(1, int(math.ceil(total_steps / 1e5)))
    snap_stride = snapshot_stride or max(1, int(math.ceil(total_steps / 512)))
    # every stride-th step and the last one, step n into sample ceil(n / stride)
    n_rec = 1 + -(-total_steps // rec_stride)
    n_snap = 1 + -(-total_steps // snap_stride)
    times, snap_t = np.zeros(n_rec), np.zeros(n_snap)
    pin, pout = np.empty((2, n_rec), dtype=complex)
    snaps = np.zeros((2, n_snap, nz + 1), dtype=complex)  # sample 0: rho = 0

    def coef(gains, dt):
        """The RK4 map of a step under the ``gains`` at its start, middle
        and end, laid out for ``_step_maps``."""
        A0, Ah, A1 = (_coherence_matrix(g * prof_z, med) for g in gains)
        y = _rk4_map(A0, Ah, A1, dt).reshape(E, p + 1, 2, 4)
        return y.transpose(3, 2, 1, 0)[..., None, :]

    # Row e < E of V is element e's state, then its inputs over a block
    # (predicted and corrected first-node field at each step end); a block's
    # output map takes row e to the inputs of row e + 1, and row E collects
    # the last element's outputs, the field at z = L.
    V = np.zeros((E + 1, NS + 2 * K), dtype=complex)
    probe = scenario.probe.boundary_value
    V[:E, NS - 1] = pin[0] = pout[0] = probe(0.0)
    # the distinct nodes' rho31 and rho21 as flat indices into V
    node = np.append(np.arange(E)[:, None] * V.shape[1] + np.arange(p),
                     (E - 1) * V.shape[1] + p)
    gather = np.stack((node, node + p + 1))
    rows = {}  # per block length: element inputs and outputs as views into V

    def step_piece(ta, nsteps, dt, gain, lengths, g) -> float:
        """Step one piece from step ``g`` of the run in blocks of ``lengths``
        steps and record it; returns the largest |rho| its block ends
        reached.  The piece's maps are freed when it returns."""
        t1s = ta + dt * np.arange(1, nsteps + 1)
        boundary = probe(t1s)
        u = np.repeat(boundary, 2)
        field_out = np.empty(nsteps, dtype=complex)
        if gain is not None:
            maps = _step_maps(coef((gain,) * 3, dt), scale, Q, set(lengths))
        peak, j = 0.0, 0
        for m in lengths:
            n = NS + 2 * m
            if gain is None:  # a ramp step is a block of its own, under its own map
                t0 = ta + dt * j
                maps = _step_maps(coef([scenario.schedule.gain(t) for t in
                                        (t0, t0 + 0.5 * dt, t0 + dt)], dt), scale, Q, {1})
            mats, state_map = maps[m]
            if m not in rows:
                rows[m] = list(zip(V[:E, :n], V[1:, NS:n]))
            V[0, NS:n] = u[2 * j:2 * j + 2 * m]
            for a, (vin, vout) in zip(mats, rows[m]):
                np.dot(a, vin, out=vout)
            V[:E, :NS] = np.matmul(state_map, V[:E, :n, None])[..., 0]
            field_out[j:j + m] = V[E, NS + 1:n:2]
            j += m
            peak = max(peak, _check_coherences(V[:E, :NS - 1], g + j, t1s[j - 1]))
            if (g + j) % snap_stride == 0 or g + j == total_steps:
                k = -(-(g + j) // snap_stride)
                snap_t[k], snaps[:, k] = t1s[j - 1], V.take(gather)
        # the recorded steps of this piece
        steps = np.arange((g // rec_stride + 1) * rec_stride, g + nsteps + 1, rec_stride)
        if g + nsteps == total_steps and total_steps % rec_stride:
            steps = np.append(steps, total_steps)
        k, at = -(-steps // rec_stride), steps - g - 1
        times[k], pin[k], pout[k] = t1s[at], boundary[at], field_out[at]
        return peak

    g, peak = 0, 0.0
    for (ta, _, nsteps, dt, gain), lengths in zip(plan, _blocks(plan, snap_stride)):
        peak = max(peak, step_piece(ta, nsteps, dt, gain, lengths, g))
        g += nsteps

    return FieldRecord(times=times, probe_in=pin, probe_out=pout,
                       snapshot_times=snap_t, z=zs, rho31=snaps[0], rho21=snaps[1],
                       peak_coherence=peak)


class ConvergenceReport(NamedTuple):
    errors: np.ndarray  # relative L2 difference between consecutive levels
    monotone: bool


def convergence_check(scenario: Scenario, refinements: int = 2,
                      check: bool = True) -> ConvergenceReport:
    """Self-convergence of probe_out under refinement of the plan it runs.

    Level 0 is ``integrate(scenario)`` with every step recorded; level k
    runs ``step_plan(scenario)`` with 2**k times the steps in every piece
    and 2**k times nz, that is 2**k times the z elements.  Returns the
    relative L2 differences between consecutive levels; a non-monotone
    sequence flags an under-resolved base grid.
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
        grid = replace(scenario.grid, nz=scenario.grid.nz * f)
        refined = tuple(p._replace(steps=p.steps * f, dt=p.dt / f) for p in plan)
        rec = _run(replace(scenario, grid=grid), refined, record_stride=1)
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
