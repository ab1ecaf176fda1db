"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured values (run with ``pytest tests/test_acceptance.py -v -s``).

Absolute durations are quoted as Gaussian width parameters and converted to
intensity FWHM in one place (``quoted_fwhm``) before they are compared with
``fwhm``.  Some criteria contain sub-checks whose quoted targets disagree
with the converged dynamics; they are implemented exactly as stated and left
red rather than loosened.  Each failure message and docstring carries the
measured values and what is known of the cause.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from gradecho.analytic import (AnalyticParams, first_order_signal,
                               impulse_equivalent_amplitude, probe_closed,
                               rho21_closed, rho31_closed)
from gradecho.metrics import (classical_fidelity, detect_echo, feasibility,
                              fwhm, storage_efficiency)
from gradecho.model import (ControlSchedule, GridSpec, MediumParams,
                            ProbePulse, Scenario, Uniform, scale_scenario)
from gradecho.scenarios import builtin_scenario, builtin_sweep
from gradecho.solver import convergence_check, integrate
from gradecho.sweep import SweepSpec, run_sweep

from .conftest import (TRACED, UTAU, constant_control_response, rel_l2,
                       small_scenario)


class Criterion:
    """Collects sub-check results and prints one line for the criterion."""

    def __init__(self, name: str):
        self.name = name
        self.details: list[str] = []
        self.failures: list[str] = []

    def check(self, label: str, ok: bool, detail: str) -> None:
        mark = "ok" if ok else "FAILED"
        self.details.append(f"{label}: {detail} [{mark}]")
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def finish(self) -> None:
        status = "PASS" if not self.failures else "FAIL"
        print(f"\ncriterion {self.name}: {status}")
        for d in self.details:
            print(f"    {d}")
        assert not self.failures, f"criterion {self.name}: " + " | ".join(self.failures)


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def quoted_fwhm(width: float) -> float:
    """Intensity FWHM of a pulse whose duration is quoted as the width w of
    its Gaussian amplitude exp(-(t/w)^2), the convention of
    ``ProbePulse.width``: |.|^2 = exp(-2 t^2/w^2) falls to half at
    t = w sqrt(ln 2 / 2), so FWHM = w sqrt(2 ln 2) ~ 1.177 w.  ``fwhm``
    measures the fig4 input (width 5e-3 tau) as 5.887e-3 tau."""
    return width * math.sqrt(2.0 * math.log(2.0))


@pytest.fixture(scope="module")
def timed_run():
    cache: dict[str, tuple] = {}

    def get(name: str):
        if name not in cache:
            t0 = time.monotonic()
            rec = integrate(builtin_scenario(name), nodes=(0.5,))
            cache[name] = (rec, time.monotonic() - t0)
        return cache[name]

    return get


# --------------------------------------------------------------- criterion 1

def test_criterion_1_oracle_equivalence(timed_run):
    """Oracle equivalence at constant control Omega_c = 0.3 Gamma, xi = 20,
    regularized-delta probe, relative L2 <= 5% on T in [0.5, 10].

    The reference is the exact constant-control response
    (``constant_control_response``), which holds at every Omega_c.  The
    closed forms are its broadband limit Omega_c >> Gamma and do not
    describe this overdamped point (Omega_c < Gamma/2): against them the
    residuals are 1.11 (rho31), 0.94 (rho21) and 1.02 (tail), while against
    the exact response they are 8.5e-5, 3.7e-4 and 2.9e-4.  The closed forms
    themselves are checked in test_criterion_1_supplement below.
    """
    c = Criterion("1 (oracle equivalence, Omega_c = 0.3 Gamma)")
    rec, elapsed = timed_run("oracle")
    s = builtin_scenario("oracle")
    t0 = s.probe.center_time

    snap_t, r31, r21 = rec.snapshot_times, rec.rho31[:, 0], rec.rho21[:, 0]
    z_mid = rec.z[np.argmin(np.abs(rec.z - 0.5))]
    m = (snap_t - t0 >= 0.5) & (snap_t - t0 <= 10.0)
    x31, x21, _ = constant_control_response(s, z_mid, snap_t[m])
    e31 = rel_l2(r31[m], x31)
    e21 = rel_l2(r21[m], x21)

    mt = (rec.times - t0 >= 0.5) & (rec.times - t0 <= 10.0)
    _, _, tail = constant_control_response(s, s.medium.length, rec.times[mt])
    etail = rel_l2(rec.probe_out[mt], tail)

    c.check("rho31 rel L2", e31 <= 0.05, f"{e31:.1e} (tol 0.05)")
    c.check("rho21 rel L2", e21 <= 0.05, f"{e21:.1e} (tol 0.05)")
    c.check("probe tail rel L2", etail <= 0.05, f"{etail:.1e} (tol 0.05)")
    c.check("runtime", elapsed <= 30.0, f"{elapsed:.1f}s (limit 30s)")
    c.finish()


def test_criterion_1_supplement_broadband_regime(timed_run):
    """Closed-form comparison inside the broadband validity ordering
    1/width >> Omega_c >> Gamma (Omega_c = 100 Gamma): all three residuals
    meet the 5% tolerance, demonstrating solver/closed-form equivalence
    where the forms apply."""
    c = Criterion("1-supplement (oracle equivalence, Omega_c = 100 Gamma)")
    rec, elapsed = timed_run("oracle-ats")
    s = builtin_scenario("oracle-ats")
    amp = impulse_equivalent_amplitude(s.probe)
    t0 = s.probe.center_time
    eta = s.medium.eta

    snap_t, r31, r21 = rec.snapshot_times, rec.rho31[:, 0], rec.rho21[:, 0]
    T = snap_t - t0
    m = (T >= 0.5) & (T <= 10.0)
    p_mid = AnalyticParams(omega_c=100.0, eta_z=eta * 0.5, probe_amp=amp)
    e31 = rel_l2(r31[m], rho31_closed(p_mid, T[m]))
    e21 = rel_l2(r21[m], rho21_closed(p_mid, T[m]))
    Tt = rec.times - t0
    mt = (Tt >= 0.5) & (Tt <= 10.0)
    tail = amp * probe_closed(AnalyticParams(omega_c=100.0, eta_z=eta,
                                             probe_amp=1.0), Tt[mt])
    etail = rel_l2(rec.probe_out[mt], tail)
    c.check("rho31 rel L2", e31 <= 0.05, f"{e31:.3f} (tol 0.05)")
    c.check("rho21 rel L2", e21 <= 0.05, f"{e21:.3f} (tol 0.05)")
    c.check("probe tail rel L2", etail <= 0.05, f"{etail:.3f} (tol 0.05)")
    c.check("runtime", elapsed <= 30.0, f"{elapsed:.1f}s (limit 30s)")
    c.finish()


# --------------------------------------------------------------- criterion 2

def test_criterion_2_echo_timing(timed_run):
    c = Criterion("2 (echo timing, flip at 1.8 utau)")
    rec, elapsed = timed_run("fig2b")
    det = detect_echo(rec, after=1.8 * UTAU)
    ok = det is not None and _within(det.peak_time, 3.6 * UTAU, 0.10)
    c.check("echo peak", ok,
            f"{det.peak_time / UTAU:.3f} utau (target 3.6 +- 10%)")
    c.check("runtime", elapsed <= 300.0, f"{elapsed:.1f}s (limit 5 min)")
    c.finish()


# --------------------------------------------------------------- criterion 3

def test_criterion_3_compression():
    c = Criterion("3 (forward-signal compression)")
    widths = {}
    for beta in (1, 2, 4):
        s = builtin_scenario(f"fig2a-beta{beta}")
        rec = integrate(s)
        cut = s.probe.center_time + 4 * s.probe.width  # excludes the spike
        m = rec.times >= cut
        widths[beta] = fwhm(rec.times[m], np.abs(rec.probe_out[m]) ** 2)
    ratio = widths[4] / widths[1]
    c.check("fwhm ratio beta4/beta1", _within(ratio, 0.25, 0.30),
            f"{ratio:.3f} (target 0.25 +- 30%)")
    c.check("monotone in beta", widths[1] > widths[2] > widths[4],
            f"{widths[1]/UTAU:.3f} > {widths[2]/UTAU:.3f} > {widths[4]/UTAU:.3f} utau")
    c.finish()


# --------------------------------------------------------------- criterion 4

def test_criterion_4_switch_sequence(timed_run):
    """First-echo timing and the final echo width pass; the first echo width
    is red.  The quoted durations 0.4 and 0.05 utau are Gaussian widths,
    intensity FWHMs of 0.471 and 0.0589 utau.  The measured FWHMs are
    0.613 utau (+30.1%, outside the 30% tolerance) and 0.0755 utau (+28.2%).

    The solver agrees with the independent first-order estimate
    (``first_order_signal`` on the fig3a profile: 0.618 utau at gain 1, and
    1/8 of that for the gain -8 final echo).  The cause of the excess is not
    settled: the echo width scales as 1/b, and the echo timing pins only the
    gain ratios, not b = 1e7 or rayleigh = 0.2."""
    c = Criterion("4 (switch sequence echo durations)")
    rec, _ = timed_run("fig3a")
    t = rec.times
    iout = np.abs(rec.probe_out) ** 2

    det1 = detect_echo(rec, after=1.0 * UTAU, before=4.5 * UTAU)
    m1 = (t > 1.0 * UTAU) & (t <= 4.5 * UTAU)
    w1 = fwhm(t[m1], iout[m1])
    m3 = t > 6.5 * UTAU
    w3 = fwhm(t[m3], iout[m3])
    # first-order envelope of an echo read out at unit gain, T from its peak
    T = np.linspace(-1.5, 1.5, 3001) * UTAU
    w_fo = fwhm(T, first_order_signal(builtin_scenario("fig3a").profile,
                                      np.abs(T)))

    c.check("first echo time", _within(det1.peak_time, 2.8 * UTAU, 0.15),
            f"{det1.peak_time / UTAU:.3f} utau (target 2.8 +- 15%)")
    for label, w, width, gain in (("first echo fwhm", w1, 0.4 * UTAU, 1),
                                  ("final echo fwhm", w3, 0.05 * UTAU, 8)):
        target = quoted_fwhm(width)
        c.check(label, _within(w, target, 0.30),
                f"{w / UTAU:.4f} utau (width {width / UTAU:g} utau = FWHM "
                f"{target / UTAU:.4f} +- 30%; first-order estimate "
                f"{w_fo / gain / UTAU:.4f})")
    c.finish()


# --------------------------------------------------------------- criterion 5

def test_criterion_5_time_scaling(timed_run):
    c = Criterion("5 (time-scaling symmetry)")
    rec_a, _ = timed_run("fig3a")
    rec_b, _ = timed_run("fig3b")
    s = 1e-5

    # fig3b = scale(fig3a, 1e-5): sample indices align exactly
    assert rec_a.times.shape == rec_b.times.shape
    m = rec_b.times <= 0.4
    err = rel_l2(rec_b.probe_out[m], rec_a.probe_out[m])
    c.check("rescaled probe_out rel L2 (t <= 0.4 tau)", err <= 0.10,
            f"{err:.4f} (tol 0.10)")

    # decay visibly lowers the late echo on the stretched timescale
    ma = rec_a.times > 6.5 * UTAU
    mb = rec_b.times > 0.65
    pa = float(np.max(np.abs(rec_a.probe_out[ma]) ** 2))
    pb = float(np.max(np.abs(rec_b.probe_out[mb]) ** 2))
    c.check("decay visible after 0.4 tau", pb < 0.9 * pa,
            f"late echo intensity ratio {pb / pa:.3f} (< 0.9)")

    # exact symmetry at s = 0.1 with decay switched off (Gamma = 1e-12 with
    # xi rescaled to hold eta = Gamma xi / 2L fixed)
    gamma = 1e-12
    base = Scenario(
        medium=MediumParams(xi=2 * 10.0 / gamma, gamma_decay=gamma),
        profile=Uniform(b=0.3),
        schedule=ControlSchedule(segments=((0.0, 1.0), (1.0, -1.0))),
        probe=ProbePulse(amplitude=1.0, center_time=8e-3, width=1e-3),
        grid=GridSpec(t_end=3.0, nz=256, dt=5e-5),
    )
    ra = integrate(base, check=False)
    rb = integrate(scale_scenario(base, 0.1), check=False)
    err2 = rel_l2(rb.probe_out, ra.probe_out)
    c.check("exact check s = 0.1, decay off", err2 <= 0.02,
            f"rel L2 {err2:.2e} (tol 0.02)")
    c.finish()


# --------------------------------------------------------------- criterion 6

def test_criterion_6_storage(timed_run):
    c = Criterion("6 (broadband storage, flip at 0.16 tau)")
    rec, _ = timed_run("fig4b")
    R = storage_efficiency(rec, t_cut=0.065)
    det = detect_echo(rec, after=0.16)
    t = rec.times
    m = t > 0.16
    w_echo = fwhm(t[m], np.abs(rec.probe_out[m]) ** 2)
    w_in = fwhm(t, np.abs(rec.probe_in) ** 2)
    fid = classical_fidelity(t, rec.probe_in, t[m], rec.probe_out[m])

    c.check("efficiency R", 0.75 <= R <= 0.85, f"{R:.4f} (target 0.80 +- 0.05)")
    c.check("echo peak", _within(det.peak_time, 0.28, 0.10),
            f"{det.peak_time:.4f} tau (target 0.28 +- 10%)")
    c.check("echo fwhm vs input", _within(w_echo, w_in, 0.20),
            f"{w_echo:.5f} vs input {w_in:.5f} (+- 20%)")
    c.check("classical fidelity", 0.68 <= fid <= 0.82,
            f"{fid:.3f} (target 0.75 +- 0.07)")
    c.finish()


# --------------------------------------------------------------- criterion 7

def test_criterion_7_bandwidth_doubling(timed_run):
    """Retrieval at gain -2 halves the echo duration: the quoted 2.5e-3 tau
    is half the probe width 5e-3 tau, an intensity FWHM of 2.944e-3 tau.
    The measured echo FWHM is 3.139e-3 tau (+6.6%, inside +-20%); the
    input pulse measures 5.887e-3 tau by the same ``fwhm``."""
    c = Criterion("7 (bandwidth doubling, flip gain -2)")
    rec, _ = timed_run("fig4c")
    det = detect_echo(rec, after=0.16)
    m = rec.times > 0.16
    w = fwhm(rec.times[m], np.abs(rec.probe_out[m]) ** 2)
    target = quoted_fwhm(2.5e-3)
    c.check("echo peak", _within(det.peak_time, 0.22, 0.10),
            f"{det.peak_time:.4f} tau (target 0.22 +- 10%)")
    c.check("echo fwhm", _within(w, target, 0.20),
            f"{w:.3e} tau (width 2.5e-3 tau = FWHM {target:.3e} +- 20%)")
    c.finish()


# --------------------------------------------------------------- criterion 8

def test_criterion_8_contour_landmark(tmp_path):
    """Flag concentration and runtime pass.  Monotonicity and the 0.8
    landmark are red: the efficiency along zeta = 1000 peaks near
    xi = 2 zeta and falls in the deep-dispersion corner (0.284, 0.589,
    0.796, 0.713, 0.479), and R(2000, 1000) = 0.796 sits just below 0.8.

    This is neither grid error nor window truncation: refining each of these
    points to nz = 4096 with dt/4 moves R by at most 1.5e-4, and doubling
    t_end moves R(8000, 1000) only to 0.510.  The cause is not settled."""
    c = Criterion("8 (contour landmarks, 5x5 sweep)")
    t0 = time.monotonic()
    spec = builtin_sweep("fig4a-coarse", workers=8,
                         checkpoint=str(tmp_path / "ckpt.jsonl"))
    result = run_sweep(spec)
    elapsed = time.monotonic() - t0

    by_point = {(r.values["medium.xi"], r.values["profile.zeta"]): r
                for r in result.rows}
    xis = [500.0, 1000.0, 2000.0, 4000.0, 8000.0]
    row = [by_point[(xi, 1000.0)] for xi in xis]
    Rs = [r.metrics.get("efficiency_R") if r.metrics else math.nan for r in row]
    monotone = all(b >= a - 1e-12 for a, b in zip(Rs, Rs[1:])
                   if not (math.isnan(a) or math.isnan(b)))
    c.check("R monotone in xi at zeta=1000", monotone,
            "R = " + ", ".join(f"{v:.3f}" for v in Rs)
            + " (grid-converged to 1.5e-4 at nz = 4096, dt/4)")
    first_above = next((xi for xi, v in zip(xis, Rs)
                        if not math.isnan(v) and v >= 0.80), None)
    c.check("R >= 0.8 first at xi = 2000", first_above == 2000.0,
            f"first grid point with R >= 0.8: {first_above}")

    flagged = [(r.values["medium.xi"], r.values["profile.zeta"])
               for r in result.rows if r.flags.get("dispersion") is True]
    in_region = [xi >= zeta for xi, zeta in flagged]
    frac = sum(in_region) / len(in_region) if flagged else 0.0
    c.check("dispersion flags concentrated in zeta <= xi", bool(flagged) and frac >= 0.8,
            f"{sum(in_region)}/{len(flagged)} flagged points have zeta <= xi")
    c.check("runtime (8 workers)", elapsed <= 1800.0,
            f"{elapsed:.0f}s (limit 30 min)")
    c.finish()


# --------------------------------------------------------------- criterion 9

def test_criterion_9_property_suite(tmp_path):
    c = Criterion("9 (always-on property suite)")
    base = integrate(small_scenario(), nodes=TRACED)

    worst = 0.0
    for alpha in (2.0, 1j, -1.0):
        s = small_scenario(probe=ProbePulse(amplitude=alpha, center_time=0.2,
                                            width=0.05))
        rec = integrate(s, nodes=TRACED)
        worst = max(worst,
                    rel_l2(rec.probe_out, alpha * base.probe_out),
                    rel_l2(rec.rho31, alpha * base.rho31),
                    rel_l2(rec.rho21, alpha * base.rho21))
    c.check("probe linearity", worst <= 1e-12, f"max rel dev {worst:.2e} (tol 1e-12)")

    phi = 0.7
    rec_phi = integrate(small_scenario(
        probe=ProbePulse(amplitude=np.exp(1j * phi), center_time=0.2, width=0.05)),
        nodes=TRACED)
    dev = max(rel_l2(rec_phi.probe_out, np.exp(1j * phi) * base.probe_out),
              rel_l2(np.abs(rec_phi.rho21), np.abs(base.rho21)))
    c.check("global-phase covariance", dev <= 1e-12, f"max rel dev {dev:.2e}")

    rec_neg = integrate(small_scenario(
        schedule=ControlSchedule(segments=((0.0, -1.0), (0.8, 1.0)))))
    dev_sign = rel_l2(np.abs(rec_neg.probe_out) ** 2, np.abs(base.probe_out) ** 2)
    c.check("control-sign symmetry", dev_sign <= 1e-10, f"rel dev {dev_sign:.2e}")

    s_c = small_scenario(flip=False,
                         probe=ProbePulse(amplitude=1.0, center_time=1.0, width=0.01))
    rec_c = integrate(s_c)
    peak_in = float(np.max(np.abs(rec_c.probe_in)))
    lead = rec_c.times[np.nonzero(np.abs(rec_c.probe_in) > 1e-10 * peak_in)[0][0]]
    spill = float(np.max(np.abs(rec_c.probe_out[rec_c.times < lead]))) / peak_in
    c.check("causality", spill < 1e-10, f"pre-pulse output {spill:.2e} of peak")

    Rs = [storage_efficiency(base, t_cut=0.8),
          storage_efficiency(integrate(builtin_scenario("fig4b")), t_cut=0.065)]
    c.check("R in [0, 1]", all(0.0 <= R <= 1.0 for R in Rs),
            ", ".join(f"{R:.4f}" for R in Rs))

    rep = convergence_check(small_scenario(), refinements=2)
    c.check("convergence monotone (2 refinements)", rep.monotone,
            "errors " + ", ".join(f"{e:.2e}" for e in rep.errors))

    spec1 = SweepSpec(base=small_scenario(), axes=(("medium.xi", (20.0, 50.0)),),
                      workers=1)
    spec2 = SweepSpec(base=small_scenario(), axes=(("medium.xi", (20.0, 50.0)),),
                      workers=2)
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    run_sweep(spec1).to_csv(p1)
    run_sweep(spec2).to_csv(p2)
    c.check("sweep determinism across worker counts",
            p1.read_bytes() == p2.read_bytes(), "CSV bit-identical for 1 vs 2 workers")
    c.finish()


# -------------------------------------------------------------- criterion 10

def test_criterion_10_feasibility():
    """Rayleigh length and power pass; the perpendicular spot size is red by
    3.4%: pi L^2 / ln(b) at the quoted parameters (b = 1000, L = 5 cm) is
    1.137e9 um^2, above the 1.1e9 edge of 1e9 +- 10%.  ``feasibility``
    computes the formula its docstring states (pinned by
    test_metrics.py::test_feasibility_perpendicular_spot); whether the
    formula or the rounded quote is off is not settled."""
    c = Criterion("10 (feasibility arithmetic)")
    rep = feasibility(b=1000.0, length_cm=5.0, wavelength_nm=780.0)
    c.check("rayleigh length", _within(rep.rayleigh_um, 50.0, 0.02),
            f"{rep.rayleigh_um:.2f} um (target 50 +- 2%)")
    c.check("cw power", _within(rep.power_w, 0.08, 0.10),
            f"{rep.power_w:.4f} W (target 0.08 +- 10%)")
    perp = feasibility(b=1000.0, length_cm=5.0, wavelength_nm=780.0,
                       geometry="perpendicular")
    c.check("perpendicular spot size", _within(perp.spot_um2, 1e9, 0.10),
            f"{perp.spot_um2:.3e} um^2 (target 1e9 +- 10%)")
    c.finish()
