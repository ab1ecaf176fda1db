"""Human-readable scenario configs.

Grammar: INI-style sections [medium], [probe], [control.profile],
[control.schedule], [grid], [outputs].  Times carry an explicit unit suffix
("tau" or "utau" = 1e-6 tau) and rates the suffix "gamma" (multiples of the
nominal 1/tau); bare numbers are accepted for dimensionless quantities.
Example::

    [medium]
    xi = 2000
    gamma_decay = 1 gamma

    [probe]
    amplitude = 1
    center_time = 0.048 tau
    width = 5e-3 tau
    shape = gaussian

    [control.profile]
    kind = linear
    zeta = 1000 gamma

    [control.schedule]
    segments = 0 tau: 1, 0.16 tau: -1
    ramp_time = 0 tau

    [grid]
    nz = 1024
    t_end = 0.6 tau
    dt = auto

    [outputs]
    observables = probe_in, probe_out, coherences

Serialization is canonical: parse(serialize(s)) reproduces the scenario
exactly, and the serialized text doubles as the config-hash input.
"""
from __future__ import annotations

import configparser
import hashlib
import io
from typing import Optional

from .model import (ControlSchedule, GaussianBeam, GridSpec, Linear,
                    MediumParams, ProbePulse, Scenario, Uniform)

__all__ = ["ConfigError", "parse_scenario", "parse_scenario_file",
           "serialize_scenario", "config_hash"]


class ConfigError(ValueError):
    """Malformed scenario config; message carries section/field context."""


_TIME_SUFFIXES = {"tau": 1.0, "utau": 1e-6}
OBSERVABLES = ("probe_in", "probe_out", "coherences")
_RATE_SUFFIXES = {"gamma": 1.0}


def _parse_number(text: str, where: str, kind: str = "plain") -> float:
    parts = text.strip().split()
    if not parts:
        raise ConfigError(f"{where}: empty value")
    try:
        value = float(parts[0])
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse number from {text!r}") from exc
    if len(parts) == 1:
        return value
    if len(parts) > 2:
        raise ConfigError(f"{where}: too many tokens in {text!r}")
    suffix = parts[1].lower()
    table = {"time": _TIME_SUFFIXES, "rate": _RATE_SUFFIXES,
             "plain": {**_TIME_SUFFIXES, **_RATE_SUFFIXES}}[kind]
    if suffix not in table:
        raise ConfigError(f"{where}: unknown unit suffix {suffix!r} "
                          f"(expected one of {sorted(table)})")
    return value * table[suffix]


def _parse_complex(text: str, where: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse complex number from {text!r}") from exc


def _get(cp: configparser.ConfigParser, section: str, key: str,
         required: bool = True, default: Optional[str] = None) -> Optional[str]:
    if not cp.has_section(section):
        if required:
            raise ConfigError(f"missing required section [{section}]")
        return default
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}]: missing required field {key!r}")
        return default
    return cp.get(section, key)


def _new_parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                     inline_comment_prefixes=("#",))


def parse_scenario(text: str) -> Scenario:
    cp = _new_parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    med = MediumParams(
        xi=_parse_number(_must(cp, "medium", "xi"), "[medium] xi"),
        gamma_decay=_parse_number(_get(cp, "medium", "gamma_decay", False, "1"),
                                  "[medium] gamma_decay", "rate"),
        gamma_ground=_parse_number(_get(cp, "medium", "gamma_ground", False, "0"),
                                   "[medium] gamma_ground", "rate"),
        delta_p=_parse_number(_get(cp, "medium", "delta_p", False, "0"),
                              "[medium] delta_p", "rate"),
        delta_c=_parse_number(_get(cp, "medium", "delta_c", False, "0"),
                              "[medium] delta_c", "rate"),
        length=_parse_number(_get(cp, "medium", "length", False, "1"),
                             "[medium] length"),
    )

    kind = _must(cp, "control.profile", "kind").strip().lower()
    where = "[control.profile]"
    if kind == "uniform":
        profile = Uniform(b=_parse_number(_must(cp, "control.profile", "b"),
                                          f"{where} b", "rate"))
    elif kind == "gaussian_beam":
        profile = GaussianBeam(
            b=_parse_number(_must(cp, "control.profile", "b"), f"{where} b", "rate"),
            z_focus=_parse_number(_must(cp, "control.profile", "z_focus"),
                                  f"{where} z_focus"),
            rayleigh=_parse_number(_must(cp, "control.profile", "rayleigh"),
                                   f"{where} rayleigh"))
    elif kind == "linear":
        profile = Linear(zeta=_parse_number(_must(cp, "control.profile", "zeta"),
                                            f"{where} zeta", "rate"))
    else:
        raise ConfigError(f"{where}: unknown kind {kind!r}")

    seg_text = _must(cp, "control.schedule", "segments")
    segments = []
    for item in seg_text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(f"[control.schedule] segments: expected "
                              f"'<time>: <gain>' in {item!r}")
        t_txt, g_txt = item.split(":", 1)
        segments.append((
            _parse_number(t_txt, "[control.schedule] segment time", "time"),
            _parse_number(g_txt, "[control.schedule] segment gain"),
        ))
    try:
        schedule = ControlSchedule(
            segments=tuple(segments),
            ramp_time=_parse_number(_get(cp, "control.schedule", "ramp_time",
                                         False, "0"),
                                    "[control.schedule] ramp_time", "time"))
    except ValueError as exc:
        raise ConfigError(f"[control.schedule]: {exc}") from exc

    try:
        probe = ProbePulse(
            amplitude=_parse_complex(_get(cp, "probe", "amplitude", False, "1"),
                                     "[probe] amplitude"),
            center_time=_parse_number(_must(cp, "probe", "center_time"),
                                      "[probe] center_time", "time"),
            width=_parse_number(_must(cp, "probe", "width"), "[probe] width", "time"),
            shape=_get(cp, "probe", "shape", False, "gaussian").strip().lower())
    except ValueError as exc:
        raise ConfigError(f"[probe]: {exc}") from exc

    def _opt_auto(section, key, kind="time", integer=False):
        raw = _get(cp, section, key, False, "auto")
        raw = raw.strip()
        if raw.lower() == "auto":
            return None
        if integer:
            try:
                return int(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: expected integer or 'auto'") from exc
        return _parse_number(raw, f"[{section}] {key}", kind)

    try:
        grid = GridSpec(
            t_end=_parse_number(_must(cp, "grid", "t_end"), "[grid] t_end", "time"),
            nz=int(_get(cp, "grid", "nz", False, "1024")),
            dt=_opt_auto("grid", "dt"),
            record_stride=_opt_auto("grid", "record_stride", integer=True),
            snapshot_stride=_opt_auto("grid", "snapshot_stride", integer=True))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from exc

    outputs = _get(cp, "outputs", "observables", False, ", ".join(OBSERVABLES))
    out_tuple = tuple(o.strip() for o in outputs.split(",") if o.strip())
    unknown = [o for o in out_tuple if o not in OBSERVABLES]
    if unknown:
        raise ConfigError(f"[outputs] observables: unknown {', '.join(map(repr, unknown))}; "
                          f"choose from {', '.join(OBSERVABLES)}")

    return Scenario(medium=med, profile=profile, schedule=schedule,
                    probe=probe, grid=grid, outputs=out_tuple)


def _must(cp, section, key) -> str:
    return _get(cp, section, key, required=True)


def parse_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _g(x: float) -> str:
    return format(float(x), ".17g")


def serialize_scenario(s: Scenario) -> str:
    out = io.StringIO()
    m = s.medium
    out.write("[medium]\n")
    out.write(f"xi = {_g(m.xi)}\n")
    out.write(f"gamma_decay = {_g(m.gamma_decay)} gamma\n")
    out.write(f"gamma_ground = {_g(m.gamma_ground)} gamma\n")
    out.write(f"delta_p = {_g(m.delta_p)} gamma\n")
    out.write(f"delta_c = {_g(m.delta_c)} gamma\n")
    out.write(f"length = {_g(m.length)}\n\n")

    out.write("[control.profile]\n")
    p = s.profile
    if isinstance(p, Uniform):
        out.write(f"kind = uniform\nb = {_g(p.b)} gamma\n")
    elif isinstance(p, GaussianBeam):
        out.write(f"kind = gaussian_beam\nb = {_g(p.b)} gamma\n"
                  f"z_focus = {_g(p.z_focus)}\nrayleigh = {_g(p.rayleigh)}\n")
    elif isinstance(p, Linear):
        out.write(f"kind = linear\nzeta = {_g(p.zeta)} gamma\n")
    else:  # pragma: no cover - profile union is closed
        raise ConfigError(f"cannot serialize profile {type(p).__name__}")
    out.write("\n")

    out.write("[control.schedule]\n")
    segs = ", ".join(f"{_g(t)} tau: {_g(g)}" for t, g in s.schedule.segments)
    out.write(f"segments = {segs}\n")
    out.write(f"ramp_time = {_g(s.schedule.ramp_time)} tau\n\n")

    pr = s.probe
    amp = pr.amplitude
    amp_txt = _g(amp.real) if getattr(amp, "imag", 0.0) == 0 else repr(complex(amp))
    out.write("[probe]\n")
    out.write(f"amplitude = {amp_txt}\n")
    out.write(f"center_time = {_g(pr.center_time)} tau\n")
    out.write(f"width = {_g(pr.width)} tau\n")
    out.write(f"shape = {pr.shape}\n\n")

    g = s.grid
    out.write("[grid]\n")
    out.write(f"nz = {g.nz}\n")
    out.write(f"t_end = {_g(g.t_end)} tau\n")
    out.write(f"dt = {'auto' if g.dt is None else _g(g.dt) + ' tau'}\n")
    out.write(f"record_stride = {'auto' if g.record_stride is None else g.record_stride}\n")
    out.write(f"snapshot_stride = {'auto' if g.snapshot_stride is None else g.snapshot_stride}\n\n")

    out.write("[outputs]\n")
    out.write(f"observables = {', '.join(s.outputs)}\n")
    return out.getvalue()


def config_hash(s: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(s).encode("utf-8")).hexdigest()
