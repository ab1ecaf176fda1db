import textwrap

import pytest

import gradecho.config
from gradecho.config import (ConfigError, config_hash, parse_scenario,
                             serialize_scenario)
from gradecho.model import GaussianBeam, Linear, Uniform
from gradecho.scenarios import BUILTIN_SCENARIOS, builtin_scenario

EXAMPLE = """
[medium]
xi = 2000
gamma_decay = 1 gamma

[control.profile]
kind = linear
zeta = 1000 gamma

[control.schedule]
segments = 0 tau: 1, 0.16 tau: -1

[probe]
amplitude = 1
center_time = 0.048 tau
width = 5e-3 tau

[grid]
nz = 256
t_end = 0.6 tau
"""


def test_parse_example_matches_builtin():
    assert parse_scenario(EXAMPLE) == builtin_scenario("fig4b")


def test_unit_suffixes():
    s = parse_scenario(EXAMPLE.replace("0.16 tau", "160000 utau"))
    assert s.schedule.segments[1][0] == pytest.approx(0.16)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_roundtrip_builtin(name):
    s = builtin_scenario(name)
    assert parse_scenario(serialize_scenario(s)) == s


def test_roundtrip_preserves_profile_kinds():
    for profile in (Uniform(b=0.25), Linear(zeta=123.456),
                    GaussianBeam(b=1.5e7, z_focus=0.9, rayleigh=0.21)):
        s = builtin_scenario("fig4b")
        s = type(s)(medium=s.medium, profile=profile, schedule=s.schedule,
                    probe=s.probe, grid=s.grid)
        assert parse_scenario(serialize_scenario(s)) == s


def test_roundtrip_complex_amplitude():
    from dataclasses import replace

    s = builtin_scenario("fig4b")
    s = replace(s, probe=replace(s.probe, amplitude=1.0 + 2.0j))
    assert parse_scenario(serialize_scenario(s)) == s


FIG3A_TEXT = """\
[medium]
xi = 1000000
gamma_decay = 1 gamma
gamma_ground = 0 gamma
delta_p = 0 gamma
delta_c = 0 gamma
length = 1

[control.profile]
kind = gaussian_beam
b = 10000000 gamma
z_focus = 1
rayleigh = 0.20000000000000001

[control.schedule]
segments = 0 tau: 4, 9.9999999999999995e-07 tau: -1, 4.5000000000000001e-06 tau: 4, 6.4999999999999996e-06 tau: -8
ramp_time = 0 tau

[probe]
amplitude = 1
center_time = 5.5000000000000003e-07 tau
width = 5.0000000000000001e-09 tau

[grid]
nz = 256
t_end = 7.9999999999999996e-06 tau
dt = auto
"""


def test_serialized_text_is_pinned():
    # the text is the config-hash input and is stored in run manifests and
    # checkpoint headers: a change of format changes every hash
    assert serialize_scenario(builtin_scenario("fig3a")) == FIG3A_TEXT
    assert config_hash(builtin_scenario("fig3a")) == (
        "9e707470340709165e628140b8eca580907286de7939e2c678cda729b4e339b2")


# FIG3A_TEXT as 0.4.3 wrote it, with the recording fields 0.5.0 dropped
OLD_LINES = ("shape = regularized_delta\n", "record_stride = auto\n",
             "snapshot_stride = auto\n",
             "\n[outputs]\nobservables = probe_in, probe_out, coherences\n")
FIG3A_TEXT_0_4_3 = FIG3A_TEXT.replace(
    "e-09 tau\n", "e-09 tau\n" + OLD_LINES[0]).replace(
    "dt = auto\n", "dt = auto\n" + "".join(OLD_LINES[1:]))


@pytest.mark.parametrize("fixed", range(4))
def test_a_0_4_3_config_names_its_first_unknown_key_or_section(fixed):
    # with the first ``fixed`` old lines deleted, the next one is refused;
    # with all of them deleted the text is today's
    text = FIG3A_TEXT_0_4_3
    for line in OLD_LINES[:fixed]:
        text = text.replace(line, "")
    first = ("field 'shape'", "field 'record_stride'", "field 'snapshot_stride'",
             r"section \[outputs\]")[fixed]
    with pytest.raises(ConfigError, match=f"unknown {first}"):
        parse_scenario(text)
    for line in OLD_LINES[fixed:]:
        text = text.replace(line, "")
    assert text == FIG3A_TEXT


def test_the_documented_example_parses_and_round_trips():
    # the indented block after "Example::" in the module docstring
    block = gradecho.config.__doc__.split("Example::\n", 1)[1]
    lines = []
    for line in block.splitlines():
        if line.strip() and not line.startswith("    "):
            break
        lines.append(line)
    s = parse_scenario(textwrap.dedent("\n".join(lines)))
    assert s == builtin_scenario("fig4b")
    assert parse_scenario(serialize_scenario(s)) == s


def test_hash_stable_and_sensitive():
    s = builtin_scenario("fig4b")
    assert config_hash(s) == config_hash(builtin_scenario("fig4b"))
    assert config_hash(s) != config_hash(builtin_scenario("fig4c"))


def test_missing_section_is_config_error():
    with pytest.raises(ConfigError, match=r"\[medium\]"):
        parse_scenario(EXAMPLE.replace("[medium]", "[med]"))


def test_missing_field_is_config_error():
    broken = EXAMPLE.replace("width = 5e-3 tau", "")
    with pytest.raises(ConfigError, match="width"):
        parse_scenario(broken)


@pytest.mark.parametrize("old, new", [
    ("gamma_decay = 1 gamma", "gama_decay = 2 gamma"),  # a mistyped key
    ("[grid]", "[gird]\nnz = 64\n\n[grid]"),  # a mistyped section
    ("zeta = 1000 gamma", "zeta = 1000 gamma\nb = 3 gamma"),  # a key of another kind
], ids=["key", "section", "other-kind"])
def test_unknown_section_or_key_is_config_error(old, new):
    # a typo must not fall back to a default: each of these parsed at 0.3.0
    with pytest.raises(ConfigError, match=r"unknown (field 'gama_decay'|section \[gird\]"
                                          r"|field 'b')"):
        parse_scenario(EXAMPLE.replace(old, new))


@pytest.mark.parametrize("old, new", [
    ("xi = 2000", "xi = nan"),
    ("zeta = 1000 gamma", "zeta = inf gamma"),
    ("0.16 tau: -1", "0.16 tau: nan"),
    ("0 tau: 1", "1e999 tau: 1"),
    ("amplitude = 1", "amplitude = nan+1j"),
    ("width = 5e-3 tau", "width = -inf tau"),
    ("t_end = 0.6 tau", "t_end = inf tau"),
], ids=["xi", "zeta", "gain", "segment-time", "amplitude", "width", "t_end"])
def test_non_finite_number_is_config_error(old, new):
    with pytest.raises(ConfigError, match="not a finite number"):
        parse_scenario(EXAMPLE.replace(old, new))


def test_unknown_unit_suffix():
    with pytest.raises(ConfigError, match="suffix"):
        parse_scenario(EXAMPLE.replace("0.048 tau", "0.048 seconds"))


def test_bad_segment_grammar():
    with pytest.raises(ConfigError, match="segments"):
        parse_scenario(EXAMPLE.replace("0 tau: 1, 0.16 tau: -1", "0 tau 1"))


def test_nonmonotone_schedule_is_config_error():
    with pytest.raises(ConfigError, match="increasing"):
        parse_scenario(EXAMPLE.replace("0 tau: 1, 0.16 tau: -1",
                                       "0 tau: 1, 0.2 tau: -1, 0.1 tau: 1"))

