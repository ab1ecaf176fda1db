"""Coupled coherence-field integration on a 1D space-time grid.

In the retarded frame T = t - z/c the field equation loses its time
derivative, and with u = -i rho31 the equations read

    du/dT = -(Gamma/2 + i Dp) u + (1/2) Omega_c rho21 + (1/2) Omega_p
    d(rho21)/dT = i (Dc - Dp + i gamma) rho21 - (1/2) conj(Omega_c) u
    d(Omega_p)/dz = -eta u  at fixed T.

Omega_c is real and the kernel runs the probe's real unit envelope, so on
resonance (Dp = Dc = 0) a run steps in float64, and otherwise the same
functions step in complex128; by linearity ``probe_out``, rho31 = i a u and
rho21 are the unit run's times the probe amplitude a.  ``step_plan`` aligns
the time steps to segment boundaries, so a gain change never happens
mid-step; with an automatic dt each piece is stepped at the control it
reaches itself, and the short probe is resolved only while it enters the
medium.  A cosine ramp is stepped at the gain of each step's midpoint.

The z grid is nz / 8 equal elements, each with the 9 Gauss-Lobatto-Legendre
nodes of its interval, and the field is exact for the degree-8 interpolant
of u in every element (``_gll_rule``): inside an element it is the field at
the element's first node plus (-eta h / 2) Q u.  The record holds the
nz + 1 distinct nodes.

Elements are coupled only through the field at their shared node.  Under
one constant gain an element's 18 coherences obey d rho/dT = A rho +
(1/2) v(T) e_u with v the field at its first node, and a step takes v as
the cubic Hermite of v and dv/dT at its two ends and steps rho exactly
under it, by the exponential of A augmented with the cubic's coefficients
(Van Loan's block exponential, ``_step_map``, on a numpy-only batched
``_expm``).  The element's outputs, v and dv/dT at its last node, follow
from the field equation and its T-derivative.  The time error is fourth
order and the control's rotation is exact, so ``model.CONTROL_STEP`` bounds
dt Omega at 0.4.  A gain change leaves the field continuous but not its
derivative: each stretch's first block adds the jump, summed over the
elements before, to the derivative an element holds (``_entry_map``).

Within a stretch the scheme is linear.  So m steps of one element are a
fixed linear map from its state (u and rho21 at its 9 nodes, the field and
its derivative at its first node, NS = 20 values) and its 2 m first-node
inputs to its new state and its 2 m last-node outputs, which are the next
element's inputs.  Every step is the same: ``_step_maps`` composes the
fused maps, NS + 2 m square, from the one-step map F1 one step at a time.
A run is one pass over stretches of one constant gain, a constant piece or
one ramp step (``_stretches``): each builds its maps once and is cut into
blocks of at most K steps, apart from a shorter tail (``_blocks``), with
or without a coherence trace.  The blocks run through a skewed pipeline of
the elements, B blocks in B + E - 1 wavefronts, and wavefront d is enter,
advance, leave.  Enter: one shifted copy hands each element's outputs to
the next element as inputs, and the boundary probe and its derivative
enter element 0 as block d's inputs.  Advance: one batched product per run
of equal blocks advances every element that holds one; element e runs
block d - e.  Leave: block d - E + 1 leaves the last element with its
transmitted probe and is settled there: the divergence guard judges it,
and a stretch's maps go once its last block has left, so at most E maps
are alive.  A wavefront makes about 5 numpy calls plus one per run of
blocks it holds, whatever E: under one call per step at 10-step blocks.
Every wavefront copies the traced nodes out of the state, and the trace at
every block end is read off those copies after the last wavefront.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
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
K = 10  # the longest transfer block, in steps
NC = 2 * (GLL_ORDER + 1)  # an element's coherences: u and rho21 at its nodes
NS = NC + 2  # element state: its coherences, the field and its T-derivative at its first node


class DivergenceError(RuntimeError):
    """Raised when a coherence becomes non-finite or unphysically large."""


class ResourceLimitError(RuntimeError):
    """Raised before starting a run that would exceed the step budget."""


@dataclass(frozen=True)
class FieldRecord:
    """Immutable simulation output.

    ``times/probe_in/probe_out`` sample the boundary and transmitted probe
    at step 0, every stride-th step and the last step (``_strided``), at the
    smallest stride that keeps 1e5 samples or fewer after step 0; ``z``
    holds the nz + 1 distinct grid nodes.  ``snapshot_times`` is step 0 and
    every block end, and ``rho31/rho21``, of shape (len(snapshot_times),
    len(nodes)), trace the coherences there at the ``nodes`` ``integrate``
    was asked for: column k at the distinct node nearest nodes[k].
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


def _element_matrix(oc: np.ndarray, med: MediumParams, scale: float,
                    Q: np.ndarray) -> np.ndarray:
    """Per-element matrix A, shape (E, NC, NC), of d(u, rho21)/dT = A (u,
    rho21) + (1/2) Omega_first e_u for the coherences of each element (u at
    its p + 1 nodes, then rho21) under the real control ``oc`` at the stored
    nodes, with the field inside the element the first-node field
    Omega_first plus ``scale`` Q u: float64 when Dp = Dc = 0, where every
    entry is real, and complex128 otherwise."""
    n = Q.shape[0]
    oc = oc.reshape(-1, n)
    A = np.zeros((oc.shape[0], 2 * n, 2 * n), dtype=complex)
    i = np.arange(n)
    A[:, :n, :n] = 0.5 * scale * Q
    A[:, i, i] -= med.gamma_decay / 2.0 + 1j * med.delta_p
    A[:, i, n + i] = 0.5 * oc
    A[:, n + i, i] = -0.5 * np.conj(oc)
    A[:, n + i, n + i] = 1j * (med.delta_c - med.delta_p + 1j * med.gamma_ground)
    return A if med.delta_p or med.delta_c else A.real.copy()


def _expm(M: np.ndarray) -> np.ndarray:
    """exp of every matrix of the batch ``M`` (..., n, n): the degree-14
    Taylor polynomial of M / 2^s, squared s times, for the least s that
    brings the largest 1-norm in the batch to 1/2 or below, where the
    truncation error is under 3e-17 of the norm."""
    n = M.shape[-1]
    norm = float(np.abs(M).sum(axis=-2).max())
    s = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0 else 0
    X = M * 0.5**s
    P, T = X / 14.0, np.empty_like(X)
    for k in range(13, -1, -1):  # Horner: P <- I + X P / k, in place
        P.reshape(-1, n * n)[:, ::n + 1] += 1.0
        if k:
            np.matmul(X, P, out=T)
            T *= 1.0 / k
            P, T = T, P
    for _ in range(s):
        np.matmul(P, P, out=T)
        P, T = T, P
    return P


# the cubic Hermite v on a step of dt: its (v, dt v', dt^2 v'', dt^3 v''') at
# the step start from (v, dt v') at the start and at the end
HERMITE = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                    [-6.0, -4.0, 6.0, -2.0], [12.0, 6.0, -12.0, 6.0]])


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


def integrate(scenario: Scenario, check: bool = True,
              nodes: tuple[float, ...] = ()) -> FieldRecord:
    """Run the scenario through ``step_plan(scenario)`` and return the
    sampled fields.

    With ``check=True`` (default) validation errors abort the run; warnings
    are allowed.  A plan above ``MAX_STEPS`` steps raises ResourceLimitError.
    The record traces rho31 and rho21 at step 0 and every block end at the
    distinct grid node nearest each z position in ``nodes``; the trace
    changes no block and no other field of the record.  The run stops with
    DivergenceError when the state at the end of a block has a non-finite
    |rho| or one above ``MAX_COHERENCE``, naming the end of the first such
    block in run order; blocks end at every piece end, after every ramp
    step and after at most K steps (``_blocks``), so the check runs at least
    that often and at the last step.  ``peak_coherence`` of the record is
    the largest |rho| over the states checked.
    """
    if check:
        _raise_on_errors(scenario)
    return _run(scenario, step_plan(scenario), nodes=nodes)


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


def _step_map(A: np.ndarray, dt: float, scale: float, Q: np.ndarray) -> np.ndarray:
    """One step of dt of each element on its own under its matrix ``A``
    (``_element_matrix``), as the map F1 of shape (E, NS + 2, NS + 2) in
    the dtype of A.

    An element's state is its NC coherences, u = -i rho31 and rho21 at its
    p + 1 nodes, then the field Omega and its T-derivative at its first node
    at the step start (NS values); its inputs at a step are Omega and its
    T-derivative at its first node at the step end, and its outputs the same
    two at its last node, which are the next element's inputs.  Inside the
    element the field is the first-node field plus ``scale`` Q u, scale =
    -eta h / 2, so the coherences obey d rho/dT = A rho + (1/2) v(T) e_u
    with v the first-node field, taken across the step as the cubic Hermite
    of its values and derivatives at the two ends.

    That step is exact: the exponential of the augmented matrix (Van Loan)
    [[dt A, dt e_u / 2, 0], [0, 0, N]] with N the 4 x 4 shift, acting on
    the coherences and the Hermite coefficients (``HERMITE``), gives the new
    coherences.  The outputs are the field gained across the element,
    scale Q[-1] u, and the derivative gained, scale Q[-1] du/dT, with du/dT
    read off A and the first-node field at the step end.
    """
    E, nc = A.shape[:2]
    n = nc // 2
    M = np.zeros((E, nc + 4, nc + 4), dtype=A.dtype)
    M[:, :nc, :nc] = dt * A
    M[:, :n, nc] = 0.5 * dt
    M[:, range(nc, nc + 3), range(nc + 1, nc + 4)] = 1.0
    X = _expm(M)
    F = np.zeros((E, NS + 2, NS + 2), dtype=A.dtype)
    F[:, :nc, :nc] = X[:, :nc, :nc]
    F[:, :nc, nc:] = X[:, :nc, nc:] @ (HERMITE * [1.0, dt, 1.0, dt])
    F[:, nc, NS] = F[:, nc + 1, NS + 1] = 1.0  # the inputs are the new first-node pair
    w = scale * Q[-1]  # the field gained across the element, per node of u
    F[:, NS] = w @ F[:, :n]
    F[:, NS + 1] = w @ (A[:, :n] @ F[:, :nc])
    F[:, NS, NS] += 1.0
    F[:, NS + 1, NS] += 0.5 * w.sum()
    F[:, NS + 1, NS + 1] += 1.0
    return F


def _entry_map(F: np.ndarray, jump: np.ndarray) -> np.ndarray:
    """The fused map ``F`` of a stretch's first block, preceded by the jump
    of the first-node derivative where the stretch's gain starts, as shape
    (E, n + 1, n + 1) for F's n.

    A gain change leaves the field continuous but moves du/dT by (A - A_prev)
    rho, so the derivative an element holds from the stretch before is that
    side's: element e's jumps by the sum over the elements before it of
    ``jump`` . rho, with jump = scale Q[-1] (A - A_prev) over the u rows.
    That sum rides one slot after the block's inputs, from element to
    element as the outputs do: the map adds it to the held derivative and
    passes it on with the element's own term added.
    """
    E, n = F.shape[0], F.shape[-1]
    G = np.zeros((E, n + 1, n + 1), dtype=F.dtype)
    G[:, :n, :n] = F
    G[:, :n, n] = F[:, :, NC + 1]
    G[:, n, :NC] = jump
    G[:, n, n] = 1.0
    return G


def _step_maps(F1: np.ndarray, lengths) -> dict:
    """Fused transfer maps of a stretch whose every step is the one-step
    map ``F1`` (``_step_map``), for blocks of the given ``lengths``: per
    length m, shape (E, n, n) with n = NS + 2 m, the map of each element
    from its state and its 2 m inputs to its new state and its 2 m outputs.

    The map of m steps is that of m - 1 steps followed by F1, which takes
    its new state and the 2 inputs of step m to the new state and the 2
    outputs of step m, appended after the outputs of the steps before.
    Only the maps asked for and the one being extended are kept.
    """
    E = F1.shape[0]
    maps, F = {}, F1
    for m in range(1, max(lengths) + 1):
        if m > 1:
            n = NS + 2 * m
            G = np.zeros((E, n, n), dtype=F1.dtype)
            np.matmul(F1[:, :NS, :NS], F[:, :NS], out=G[:, :NS, :n - 2])
            np.matmul(F1[:, NS:, :NS], F[:, :NS], out=G[:, n - 2:, :n - 2])
            G[:, NS:n - 2, :n - 2] = F[:, NS:]  # the outputs of steps 1 .. m - 1
            G[:, :NS, n - 2:] = F1[:, :NS, NS:]
            G[:, n - 2:, n - 2:] = F1[:, NS:, NS:]
            F = G
        if m in lengths:
            maps[m] = F
    return maps


def _strided(total: int, stride: int) -> np.ndarray:
    """Step 0, every ``stride``-th step and the last step of ``total`` steps."""
    return np.append(np.arange(0, total, stride), total)


def _stretches(plan: tuple[Piece, ...], schedule):
    """The stretches of one constant gain that ``plan`` runs, in order: a
    constant piece, or one step of a cosine ramp as a one-step Piece under
    the gain at the step's midpoint."""
    for piece in plan:
        if piece.gain is not None:
            yield piece
            continue
        for i in range(piece.steps):
            t0 = piece.t_start + piece.dt * i
            yield Piece(t0, t0 + piece.dt, 1, piece.dt, schedule.gain(t0 + piece.dt / 2))


def _blocks(steps: int) -> list[tuple[int, int]]:
    """The blocks of a stretch of ``steps`` steps as runs (length, count):
    ceil(steps / K) blocks of m = ceil(steps / ceil(steps / K)) <= K
    steps, the last one shorter when m does not divide ``steps``."""
    m = -(-steps // -(-steps // K))
    body, tail = divmod(steps, m)
    return [(m, body)] + [(tail, 1)] * (tail > 0)


def _run(scenario: Scenario, plan: tuple[Piece, ...], *,
         record_stride: Optional[int] = None,
         nodes: tuple[float, ...] = ()) -> FieldRecord:
    """Step ``scenario`` through ``plan`` (no validation), recording the
    probe every ``record_stride`` steps (``_strided``, by default that of
    ``FieldRecord``) and the coherences at step 0 and every block end at
    the distinct node nearest each z in ``nodes``.

    One walk of the stretches of one constant gain (``_stretches``), each
    split into the runs of equal blocks of ``_blocks``, gives the step that
    starts every block.  The blocks run through a skewed pipeline of the z
    elements, and wavefront d is enter, advance, leave: one shifted copy
    hands each element's outputs to the next element's inputs and block d
    enters element 0; every element with a block advances, in one batched
    product per run of blocks of one stretch and map (its first block runs
    the ``_entry_map``, the rest one map per length), so element e runs
    block d - e; and block d - E + 1 leaves element E - 1 and is settled:
    its transmitted probe is read, and the guard, which keeps the first bad
    state of every block, raises if it has one.  Blocks leave in run order,
    so the first bad block to leave is the first in run order.
    Distinct node i is stored in element e = min(i // p, E - 1), and every
    wavefront copies the traced nodes' u and rho21 out of the state (one
    ``take``); element e ends block b at wavefront b + e, which picks the
    block-end rows of those copies after the last wavefront.  A stretch's
    maps are built as its first block enters and dropped once its last
    block has left, so at most E maps of E (NS + 2 m + 1)^2 values are
    alive: in float64, 13.8 MB at nz = 256 and 220 MB at nz = 1024 when
    every stretch is one 10-step block.
    """
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
    scale = -0.5 * med.eta * h
    dtype = _element_matrix(prof_z, med, scale, Q).dtype  # float64 on resonance

    total_steps = sum(piece.steps for piece in plan)
    if total_steps > MAX_STEPS:
        raise ResourceLimitError(
            f"run needs {total_steps} steps, above the budget of {MAX_STEPS}; "
            f"coarsen dt or shorten t_end")

    walk = [(piece, _blocks(piece.steps))
            for piece in _stretches(plan, scenario.schedule)]
    # block b runs steps start[b] + 1 .. start[b + 1]; a plain list, since
    # the wavefront reads it one entry at a time
    start = np.cumsum([0] + [m for _, runs in walk for m, count in runs
                             for _ in range(count)]).tolist()
    blocks = len(start) - 1
    # the end time, boundary probe and transmitted probe of every step
    t = np.concatenate([[0.0]] + [ta + dt * np.arange(1, steps + 1)
                                  for ta, _, steps, dt, _ in plan])
    # the kernel runs the real unit envelope; the record takes the amplitude
    amp = complex(scenario.probe.amplitude)
    unit = replace(scenario.probe, amplitude=1.0)
    pin = unit.boundary_value(t)
    pout = pin.astype(dtype)  # at step 0 the medium holds no coherence
    # the boundary inputs of every step: the probe and its T-derivative
    drive = np.stack((pin, unit.boundary_derivative(t)), axis=1)

    # Row e of V is element e's state, then its inputs over its block and
    # the derivative jump of ``_entry_map``; its fused map overwrites them
    # with its new state and its outputs, which one shifted copy then hands
    # to row e + 1 as inputs.  With no coherence at step 0 every node sees
    # the boundary probe and du/dT = Omega / 2, so the derivative falls by
    # eta z Omega / 2 into the medium.
    width = NS + 2 * K + 1
    V = np.zeros((E, width), dtype=dtype)
    V[:, NC] = pin[0]
    V[:, NC + 1] = drive[0, 1] - 0.5 * med.eta * h * np.arange(E) * pin[0]
    # the traced nodes' elements, and their u and rho21 as flat indices into V
    at_node = np.abs(zs[:, None] - np.asarray(nodes, dtype=float)).argmin(axis=0)
    home = np.minimum(at_node // p, E - 1)
    flat = home * width + at_node - home * p
    flat = np.concatenate((flat, flat + p + 1))
    seen = np.empty((blocks + E - 1, flat.size), dtype=dtype)  # the copies, per wavefront
    # the runs of equal blocks in the pipeline, oldest first: (the number of
    # the first block, blocks, maps); at wavefront d element e runs block d - e
    live = []
    peak, bad = 0.0, {}  # bad: the first bad state of each bad block, by number

    def wavefront(d):
        """Block d enters element 0, every busy element advances, and block
        d - E + 1 leaves element E - 1, where it is settled."""
        nonlocal peak
        # enter: each element's outputs are the next one's inputs, and block
        # d's inputs at element 0 are the boundary probe
        V[1:, NS:] = V[:-1, NS:]
        if d < blocks:
            s0, s1 = start[d], start[d + 1]
            V[0, NS:NS + 2 * (s1 - s0)] = drive[s0 + 1:s1 + 1].ravel()
            V[0, NS + 2 * (s1 - s0)] = 0.0  # no jump before the first element
        for w0, count, F in live:  # advance: elements lo .. hi - 1 run a block of the run
            lo, hi = max(0, d - w0 - count + 1), min(E, d - w0 + 1)
            n = F.shape[-1]
            np.matmul(F[lo:hi], V[lo:hi, :n, None], out=V[lo:hi, :n, None])
        if flat.size:
            V.take(flat, out=seen[d])
        wave_peak = abs(amp) * float(np.abs(V[:, :NC]).max())
        if not wave_peak <= MAX_COHERENCE:  # a NaN fails this too
            for e in range(max(0, d - blocks + 1), min(E, d + 1)):  # the busy elements
                if not abs(amp) * np.abs(V[e, :NC]).max() <= MAX_COHERENCE:
                    bad.setdefault(d - e, amp * V[e, :NC])
        else:
            peak = max(peak, wave_peak)
        b = d - E + 1
        if b >= 0:  # leave: the first bad block to leave is the first in run order
            s0, s1 = start[b], start[b + 1]
            pout[s0 + 1:s1 + 1] = V[E - 1, NS:NS + 2 * (s1 - s0):2]
            if b in bad:
                _check_coherences(bad[b], s1, t[s1])
            w0, count, _ = live[0]
            if b == w0 + count - 1:  # the last block of the oldest run
                live.pop(0)

    def run_blocks(count, F):
        """The next ``count`` blocks enter the pipeline under the map F."""
        nonlocal d
        live.append((d, count, F))
        for _ in range(count):
            wavefront(d)
            d += 1

    d, A_prev = 0, 0.0  # step 0 holds no coherence, so its jump acts on zeros
    with np.errstate(over="ignore", invalid="ignore"):  # the guard reports blow-up
        for piece, runs in walk:
            A = _element_matrix(piece.gain * prof_z, med, scale, Q)
            maps = _step_maps(_step_map(A, piece.dt, scale, Q), {m for m, _ in runs})
            (m, count), *rest = runs
            run_blocks(1, _entry_map(maps[m], scale * Q[-1] @ (A - A_prev)[:, :p + 1]))
            for m, count in [(m, count - 1)] + rest:
                if count:
                    run_blocks(count, maps[m])
            A_prev = A
            del maps  # the runs hold them: freed as they leave the pipeline
        while live:
            wavefront(d)
            d += 1
    # element e ended block b at wavefront b + e; step 0 holds no coherence
    trace = np.zeros((blocks + 1, flat.size), dtype=dtype)
    trace[1:] = np.take_along_axis(seen, np.arange(blocks)[:, None] + np.tile(home, 2), axis=0)
    u, rho21 = np.split(trace, 2, axis=1)

    at = _strided(total_steps, record_stride or max(1, int(math.ceil(total_steps / 1e5))))
    return FieldRecord(times=t[at], probe_in=amp * pin[at], probe_out=amp * pout[at],
                       snapshot_times=t[start], z=zs, rho31=1j * amp * u,
                       rho21=amp * rho21, peak_coherence=peak)


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
