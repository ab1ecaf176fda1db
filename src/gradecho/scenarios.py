"""Named built-in scenarios reproducing the published figure protocols.

Times are in tau (so 1 utau = 1e-6).  The probe arrival for the microsecond
switching sequence (fig3a) is not pinned by the protocol itself; 0.55 utau
is inferred from the phase-area cancellation that puts the first echo at
2.8 utau, and the generated manifests carry that note.
"""
from __future__ import annotations

from .model import (ControlSchedule, GaussianBeam, GridSpec, Linear,
                    MediumParams, ProbePulse, Scenario, Uniform, scale_scenario)
from .sweep import SweepSpec

__all__ = ["builtin_scenario", "builtin_sweep", "scenario_notes",
           "BUILTIN_SCENARIOS", "BUILTIN_SWEEPS"]

UTAU = 1e-6


def _fig2(beta: float, flip: bool) -> Scenario:
    segments = ((0.0, 1.0), (1.8 * UTAU, -1.0)) if flip else ((0.0, 1.0),)
    return Scenario(
        medium=MediumParams(xi=1e6),
        profile=GaussianBeam(b=1e7 * beta, z_focus=1.0, rayleigh=0.2),
        schedule=ControlSchedule(segments=segments),
        probe=ProbePulse(amplitude=1.0, center_time=3e-8, width=5e-9),
        grid=GridSpec(t_end=(4.2 * UTAU) if flip else (1.2 * UTAU)),
    )


def _fig3a() -> Scenario:
    return Scenario(
        medium=MediumParams(xi=1e6),
        profile=GaussianBeam(b=1e7, z_focus=1.0, rayleigh=0.2),
        schedule=ControlSchedule(segments=(
            (0.0, 4.0), (1.0 * UTAU, -1.0), (4.5 * UTAU, 4.0), (6.5 * UTAU, -8.0))),
        probe=ProbePulse(amplitude=1.0, center_time=0.55 * UTAU, width=5e-9),
        grid=GridSpec(t_end=8.0 * UTAU),
    )


def _fig4(flip_gain: float, flip_time: float = 0.16, t_end: float = 0.6) -> Scenario:
    return Scenario(
        medium=MediumParams(xi=2000.0),
        profile=Linear(zeta=1000.0),
        schedule=ControlSchedule(segments=((0.0, 1.0), (flip_time, flip_gain))),
        probe=ProbePulse(amplitude=1.0, center_time=0.048, width=5e-3),
        grid=GridSpec(t_end=t_end),
    )


def _oracle(omega_c: float) -> Scenario:
    return Scenario(
        medium=MediumParams(xi=20.0),
        profile=Uniform(b=omega_c),
        schedule=ControlSchedule(segments=((0.0, 1.0),)),
        probe=ProbePulse(amplitude=1.0, center_time=8e-3, width=1e-3),
        grid=GridSpec(t_end=10.05),
    )


BUILTIN_SCENARIOS = {
    "fig2a-beta1": lambda: _fig2(1.0, flip=False),
    "fig2a-beta2": lambda: _fig2(2.0, flip=False),
    "fig2a-beta4": lambda: _fig2(4.0, flip=False),
    "fig2b": lambda: _fig2(2.0, flip=True),
    "fig3a": _fig3a,
    "fig3b": lambda: scale_scenario(_fig3a(), 1e-5),
    "fig4b": lambda: _fig4(-1.0),
    "fig4c": lambda: _fig4(-2.0),
    "oracle": lambda: _oracle(0.3),
    "oracle-ats": lambda: _oracle(100.0),
}

_NOTES = {
    "fig3a": "probe center_time 0.55 utau inferred from phase-area cancellation "
             "(first echo at 2.8 utau); not stated in the figure",
    "fig3b": "fig3a rescaled by s = 1e-5: gains x s, xi x s, all times / s",
    "fig4b": "retrieval flip at 0.16 tau; efficiency integration cut at 0.065 tau",
    "fig4c": "bandwidth-doubling retrieval: flip gain -2 at 0.16 tau",
    "oracle": "constant-control closed-form comparison point (overdamped: "
              "Omega_c < Gamma/2, outside the regime where the closed forms hold)",
    "oracle-ats": "constant-control comparison point inside the broadband "
                  "regime 1/width >> Omega_c >> Gamma",
}


def builtin_scenario(name: str) -> Scenario:
    try:
        return BUILTIN_SCENARIOS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin scenario {name!r}; available: "
                       f"{', '.join(sorted(BUILTIN_SCENARIOS))}") from None


def scenario_notes(name: str) -> str:
    return _NOTES.get(name, "")


def _fig4a_coarse(workers: int = 1, checkpoint=None) -> SweepSpec:
    # contour protocol: retrieval immediately after the probe has fully
    # entered (flip at 0.065 tau, echoes looked for from 0.075 tau)
    base = _fig4(-1.0, flip_time=0.065, t_end=0.3)
    return SweepSpec(
        base=base,
        axes=(("medium.xi", (500.0, 1000.0, 2000.0, 4000.0, 8000.0)),
              ("profile.zeta", (250.0, 500.0, 1000.0, 2000.0, 4000.0))),
        workers=workers,
        checkpoint=checkpoint,
        detect_after=0.075,
    )


BUILTIN_SWEEPS = {"fig4a-coarse": _fig4a_coarse}


def builtin_sweep(name: str, workers: int = 1, checkpoint=None) -> SweepSpec:
    try:
        return BUILTIN_SWEEPS[name](workers=workers, checkpoint=checkpoint)
    except KeyError:
        raise KeyError(f"unknown builtin sweep {name!r}; available: "
                       f"{', '.join(sorted(BUILTIN_SWEEPS))}") from None
