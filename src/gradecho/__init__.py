"""Gradient photon echoes in a control-field-structured lambda medium:
numerical integration of the coupled coherence-field dynamics, closed-form
cross-checks, echo metrics, parameter sweeps, and a CLI.
"""

__version__ = "0.8.0"

from .model import (ControlSchedule, GaussianBeam, GridSpec, Linear,
                    MediumParams, ProbePulse, Scenario, Uniform,
                    scale_scenario, validate_scenario)
from .solver import (ConvergenceReport, DivergenceError, FieldRecord,
                     ResourceLimitError, convergence_check, integrate)
from .analytic import (AnalyticParams, first_order_signal,
                       impulse_equivalent_amplitude, phase_area,
                       predict_echo_time, probe_closed, rho21_closed,
                       rho31_closed)
from .metrics import (EchoMetrics, classical_fidelity, compute_echo_metrics,
                      delay_bandwidth, detect_echo, feasibility, fwhm,
                      storage_efficiency)
from .sweep import SweepSpec, dispersion_flag, run_sweep
from .scenarios import builtin_scenario, builtin_sweep

__all__ = [
    "ControlSchedule", "GaussianBeam", "GridSpec", "Linear", "MediumParams",
    "ProbePulse", "Scenario", "Uniform", "scale_scenario", "validate_scenario",
    "ConvergenceReport", "DivergenceError", "FieldRecord", "ResourceLimitError",
    "convergence_check", "integrate",
    "AnalyticParams", "first_order_signal", "impulse_equivalent_amplitude",
    "phase_area", "predict_echo_time", "probe_closed", "rho21_closed",
    "rho31_closed",
    "EchoMetrics", "classical_fidelity", "compute_echo_metrics",
    "delay_bandwidth", "detect_echo", "feasibility", "fwhm", "storage_efficiency",
    "SweepSpec", "dispersion_flag", "run_sweep",
    "builtin_scenario", "builtin_sweep",
]
