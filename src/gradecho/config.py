"""Human-readable scenario configs.

Grammar: INI-style sections [medium], [probe], [control.profile],
[control.schedule], [grid].  Times carry an explicit unit suffix
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

    [control.profile]
    kind = linear
    zeta = 1000 gamma

    [control.schedule]
    segments = 0 tau: 1, 0.16 tau: -1
    ramp_time = 0 tau

    [grid]
    nz = 256
    t_end = 0.6 tau
    dt = auto

Each section's fields are declared once, in serialization order, in the
tables below, which parsing, serialization and ``apply_grid_override`` read;
only the profile ``kind`` and the ``segments`` are written out by hand.
Serialization is canonical: parse(serialize(s)) reproduces the scenario
exactly, and the serialized text doubles as the config-hash input.
"""
from __future__ import annotations

import cmath
import configparser
import hashlib
from dataclasses import replace
from functools import partial
from typing import NamedTuple, Optional

from .model import (ControlSchedule, GaussianBeam, GridSpec, Linear,
                    MediumParams, ProbePulse, Scenario, Uniform)

__all__ = ["ConfigError", "parse_scenario", "parse_scenario_file",
           "serialize_scenario", "config_hash", "apply_grid_override"]


class ConfigError(ValueError):
    """Malformed scenario config; message carries section/field context."""


_TIME_SUFFIXES = {"tau": 1.0, "utau": 1e-6}
# unit kind -> accepted suffixes; "tau" and "gamma" values serialize with
# their suffix, "plain" values bare
_SUFFIXES = {"tau": _TIME_SUFFIXES, "gamma": {"gamma": 1.0},
             "plain": {**_TIME_SUFFIXES, "gamma": 1.0}}


class _Field(NamedTuple):
    """One config key.  ``kind`` is a unit kind of ``_SUFFIXES``, "int" or
    "complex".  ``default`` is config text, None for a required key; a
    field whose default is "auto" also takes "auto", which stands for None."""

    name: str
    kind: str
    default: Optional[str] = None


_MEDIUM = (_Field("xi", "plain"), _Field("gamma_decay", "gamma", "1"),
           _Field("gamma_ground", "gamma", "0"), _Field("delta_p", "gamma", "0"),
           _Field("delta_c", "gamma", "0"), _Field("length", "plain", "1"))
_PROFILES = {"uniform": (Uniform, (_Field("b", "gamma"),)),
             "gaussian_beam": (GaussianBeam, (_Field("b", "gamma"),
                                              _Field("z_focus", "plain"),
                                              _Field("rayleigh", "plain"))),
             "linear": (Linear, (_Field("zeta", "gamma"),))}
_SCHEDULE = (_Field("ramp_time", "tau", "0"),)  # after the segments line
_PROBE = (_Field("amplitude", "complex", "1"), _Field("center_time", "tau"),
          _Field("width", "tau"))
_GRID = (_Field("nz", "int", "256"), _Field("t_end", "tau"), _Field("dt", "tau", "auto"))


def _parse_number(text: str, where: str, kind: str = "plain") -> float:
    parts = text.strip().split()
    if not parts:
        raise ConfigError(f"{where}: empty value")
    try:
        value = float(parts[0])
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse number from {text!r}") from exc
    _finite(value, text, where)
    if len(parts) == 1:
        return value
    if len(parts) > 2:
        raise ConfigError(f"{where}: too many tokens in {text!r}")
    suffix = parts[1].lower()
    table = _SUFFIXES[kind]
    if suffix not in table:
        raise ConfigError(f"{where}: unknown unit suffix {suffix!r} "
                          f"(expected one of {sorted(table)})")
    return value * table[suffix]


def _finite(value, text: str, where: str):
    """``value``, refused unless finite: an inf or nan breaks the run later."""
    if not cmath.isfinite(value):
        raise ConfigError(f"{where}: {text.strip()!r} is not a finite number")
    return value


def _parse_value(field: _Field, text: str, where: str):
    text = text.strip()
    if field.default == "auto" and text.lower() == "auto":
        return None
    if field.kind in _SUFFIXES:
        return _parse_number(text, where, field.kind)
    try:
        value = int(text) if field.kind == "int" else complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {field.kind} from {text!r}") from exc
    return _finite(value, text, where)


def _format_value(field: _Field, value) -> str:
    if value is None:
        return "auto"
    if field.kind == "int":
        return str(value)
    if field.kind == "complex":
        return _g(value.real) if getattr(value, "imag", 0.0) == 0 else repr(complex(value))
    return _g(value) if field.kind == "plain" else f"{_g(value)} {field.kind}"


def _get(cp: configparser.ConfigParser, section: str, key: str,
         default: Optional[str] = None) -> str:
    """Raw text of ``key``; without a default the section and key are required."""
    if cp.has_option(section, key):
        return cp.get(section, key)
    if default is not None:
        return default
    if not cp.has_section(section):
        raise ConfigError(f"missing required section [{section}]")
    raise ConfigError(f"[{section}]: missing required field {key!r}")


def _read(cp: configparser.ConfigParser, section: str, fields) -> dict:
    return {f.name: _parse_value(f, _get(cp, section, f.name, f.default),
                                 f"[{section}] {f.name}") for f in fields}


def _build(section: str, make, **values):
    """``make(**values)`` with its ValueError as a ConfigError of ``section``."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def _refuse_unknown(cp: configparser.ConfigParser, profile_fields) -> None:
    """Raise on a section or key the grammar does not declare, so a typo
    never falls back to a default; ``profile_fields`` are the chosen kind's."""
    tables = {"medium": _MEDIUM, "control.profile": ("kind", *profile_fields),
              "control.schedule": ("segments", *_SCHEDULE), "probe": _PROBE,
              "grid": _GRID}
    for section in cp.sections():
        if section not in tables:
            raise ConfigError(f"unknown section [{section}] (expected one of "
                              f"{', '.join(f'[{t}]' for t in tables)})")
        names = [f if isinstance(f, str) else f.name for f in tables[section]]
        unknown = [k for k in cp.options(section) if k not in names]
        if unknown:
            raise ConfigError(f"[{section}]: unknown field {unknown[0]!r} "
                              f"(expected one of {', '.join(names)})")


def parse_scenario(text: str) -> Scenario:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    medium = _build("medium", MediumParams, **_read(cp, "medium", _MEDIUM))
    kind = _get(cp, "control.profile", "kind").strip().lower()
    if kind not in _PROFILES:
        raise ConfigError(f"[control.profile]: unknown kind {kind!r}")
    cls, fields = _PROFILES[kind]
    _refuse_unknown(cp, fields)
    profile = _build("control.profile", cls, **_read(cp, "control.profile", fields))
    segments = []
    for item in _get(cp, "control.schedule", "segments").split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(f"[control.schedule] segments: expected "
                              f"'<time>: <gain>' in {item!r}")
        t_txt, g_txt = item.split(":", 1)
        segments.append((
            _parse_number(t_txt, "[control.schedule] segment time", "tau"),
            _parse_number(g_txt, "[control.schedule] segment gain"),
        ))
    schedule = _build("control.schedule", ControlSchedule, segments=tuple(segments),
                      **_read(cp, "control.schedule", _SCHEDULE))
    probe = _build("probe", ProbePulse, **_read(cp, "probe", _PROBE))
    grid = _build("grid", GridSpec, **_read(cp, "grid", _GRID))
    return Scenario(medium=medium, profile=profile, schedule=schedule,
                    probe=probe, grid=grid)


def parse_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def apply_grid_override(scenario: Scenario, text: str) -> Scenario:
    """``scenario`` with [grid] fields replaced from a comma list of
    key=value pairs; each value reads as in a config file's [grid] section."""
    fields = {f.name: f for f in _GRID}
    values = {}
    for item in text.split(","):
        if not item.strip():
            continue
        key, sep, value = (p.strip() for p in item.partition("="))
        if not sep:
            raise ConfigError(f"grid override entries need key=value, got {item.strip()!r}")
        if key not in fields:
            raise ConfigError(f"grid override: unknown [grid] field {key!r} "
                              f"(expected one of {', '.join(fields)})")
        values[key] = _parse_value(fields[key], value, f"grid override {key}")
    return replace(scenario, grid=_build("grid", partial(replace, scenario.grid), **values))


def _g(x: float) -> str:
    return format(float(x), ".17g")


def serialize_scenario(s: Scenario) -> str:
    kind = next((k for k, (cls, _) in _PROFILES.items() if isinstance(s.profile, cls)),
                None)
    if kind is None:  # pragma: no cover - profile union is closed
        raise ConfigError(f"cannot serialize profile {type(s.profile).__name__}")
    segs = ", ".join(f"{_g(t)} tau: {_g(g)}" for t, g in s.schedule.segments)
    blocks = (("medium", s.medium, _MEDIUM, []),
              ("control.profile", s.profile, _PROFILES[kind][1], [f"kind = {kind}"]),
              ("control.schedule", s.schedule, _SCHEDULE, [f"segments = {segs}"]),
              ("probe", s.probe, _PROBE, []),
              ("grid", s.grid, _GRID, []))
    out = []
    for section, obj, fields, special in blocks:
        lines = [f"[{section}]", *special]
        lines += [f"{f.name} = {_format_value(f, getattr(obj, f.name))}" for f in fields]
        out.append("\n".join(lines) + "\n")
    return "\n".join(out)


def config_hash(s: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(s).encode("utf-8")).hexdigest()
