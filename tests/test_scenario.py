"""Scenario document parsing, validation, and canonical emission tests."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import dpmsim.scenario as scenario_module
from dpmsim.nesting import flow_nested_past
from dpmsim.quantities import Current, Duration, Energy, Illuminance, Power, TimePoint, Voltage
from dpmsim.scenario import (
    _QUANTITIES,
    ScenarioError,
    VariantKind,
    canonical_dict,
    emit_scenario,
    parse_quantity,
    parse_scenario,
    quantity_text,
    with_constant_light,
)
from scenario_gen import random_scenario, with_initial_soc

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"
SCENARIO_DIR = REPO / "scenarios"

MINIMAL = """
schema_version: 1
pmic:
  v_chrdy: 3.3V
  v_ovch: 4V
  v_ovch_hysteresis: 50mV
harvester:
  calibration:
    - [200lux, 43uW]
sim:
  duration: 10min
"""


def test_parse_bundled_case_study(case_study):
    s = case_study
    assert s.name == "case-study-node"
    assert s.pmic.v_chrdy == Voltage.from_volts(3.3)
    assert s.pmic.v_ovch == Voltage.from_volts(4.0)
    assert s.pmic.grace_window == Duration.from_millis(600)
    assert s.storage.capacity_mah == 10.0
    assert s.storage.nominal_voltage == Voltage.from_volts(3.7)
    assert s.storage.initial_soc == 0.5
    assert s.always_on.total_current == Current(452)
    assert s.rtc.rearm_on_clear is True
    assert s.rtc.alarm_period == Duration.from_minutes(10)
    assert s.touch.press_times == ()
    assert [step.name for step in s.load_script] == [
        "sensor_sample",
        "mcu_process",
        "radio_advertise",
    ]
    assert s.dpm_variant.kind is VariantKind.HARDWARE_GATED
    assert s.dpm_variant.i_sleep is None
    assert s.duration == Duration.from_millis(603_535)
    assert s.light_timeline == ((TimePoint.zero(), Illuminance(200.0)),)
    # All thresholds are set explicitly, so nothing was defaulted.
    assert s.warnings == ()


def test_parse_bundled_software_variant(case_study, case_study_sw):
    s = case_study_sw
    assert s.dpm_variant.kind is VariantKind.SOFTWARE_SLEEP
    assert s.dpm_variant.i_sleep == Current(3_000)
    # The software twin differs only in its idle model.
    assert s.load_script == case_study.load_script
    assert s.pmic == case_study.pmic
    assert s.storage == case_study.storage
    assert s.harvester == case_study.harvester


def test_minimal_document_fills_documented_defaults():
    s = parse_scenario(MINIMAL)
    assert s.name == "unnamed"
    assert s.storage.capacity_mah == 10.0
    assert s.rtc.alarm_period == Duration.from_minutes(10)
    assert s.dpm_variant.kind is VariantKind.HARDWARE_GATED
    assert s.light_timeline == ((TimePoint.zero(), Illuminance(0.0)),)
    assert s.load_script == ()
    assert s.warnings == ()


def test_defaulted_thresholds_are_flagged():
    # A curve bottoming out below the default v_chrdy keeps the scenario
    # valid once the threshold defaults kick in.
    doc = """
schema_version: 1
storage:
  ocv_curve:
    - [0.0, 2.5V]
    - [1.0, 4.2V]
harvester:
  calibration:
    - [200lux, 43uW]
sim:
  duration: 10min
"""
    s = parse_scenario(doc)
    assert len(s.warnings) == 3
    assert all("documented default" in w for w in s.warnings)
    assert {w.split()[0] for w in s.warnings} == {
        "pmic.v_chrdy",
        "pmic.v_ovch",
        "pmic.v_ovch_hysteresis",
    }
    # Warnings do not take part in scenario identity.
    assert s == parse_scenario(doc.replace("10min", "600s"))


PARSE_REJECTIONS = [
    (lambda d: d.replace("schema_version: 1", "schema_version: 2"), "schema_version"),
    (lambda d: d.replace("schema_version: 1\n", ""), "schema_version"),
    (lambda d: d + "unknown_top: 1\n", "unknown field"),
    (lambda d: d.replace("sim:\n  duration: 10min\n", "sim: {}\n"), "required field"),
    (lambda d: d.replace("10min", "0s"), "must be positive"),
    (lambda d: d.replace("10min", "1.5us"), "grid"),
    (lambda d: d.replace("3.3V", "3.3volts"), "not a voltage"),
    (lambda d: d.replace("3.3V", "2.9V"), "empty-store voltage"),
    (lambda d: d.replace("4V", "4.3V"), "OCV range"),
    (lambda d: d + "light_timeline: [[5s, 200lux]]\n", "start at 0s"),
    (
        lambda d: d + "light_timeline: [[0s, 200lux], [5s, 100lux], [5s, 50lux]]\n",
        "strictly increasing",
    ),
    (lambda d: d + "light_timeline: [[0s, -3]]\n", "negative"),
    (lambda d: d + "storage:\n  initial_soc: 1.5\n", "[0, 1]"),
    (
        lambda d: d
        + "load_script:\n"
        + "  - {name: a, duration: 1s, energy: 1mJ}\n"
        + "  - {name: a, duration: 1s, energy: 1mJ}\n",
        "duplicate load step name",
    ),
    # The ledger books the always-on rail's drain under this name.
    (
        lambda d: d
        + "load_script:\n"
        + "  - {name: a, duration: 1s, energy: 1mJ}\n"
        + "  - {name: always_on, duration: 1s, energy: 1mJ}\n",
        "load_script[1] (line 14): load step name 'always_on' is reserved for the always-on rail",
    ),
    # Nothing computes with a step's supply rail, so a file that names one is
    # refused. The id is the one this case had while rail was an lv/hv field.
    pytest.param(
        lambda d: d + "load_script:\n  - {name: a, duration: 1s, energy: 1mJ, rail: hv}\n",
        "load_script[0].rail (line 13): unknown field",
        id="<lambda>-rail must be",
    ),
    (lambda d: d + "dpm_variant:\n  kind: software_sleep\n", "requires i_sleep"),
    (
        lambda d: d + "dpm_variant:\n  kind: hardware_gated\n  i_sleep: 3uA\n",
        "only applies to software_sleep",
    ),
    (lambda d: d + "dpm_variant:\n  kind: psychic\n", "kind must be"),
    (
        lambda d: d.replace("calibration:\n    - [200lux, 43uW]\n", "calibration: []\n"),
        "at least one",
    ),
    (lambda d: d + "pmic2: {}\n", "unknown field"),
    # No run, comparison or sweep read it, so a file that sets it is refused.
    (
        lambda d: d + "always_on:\n  fixed_cycle_energy: 0.6mJ\n",
        "always_on.fixed_cycle_energy (line 13): unknown field",
    ),
    # Values past 64 bits or past the float range name their field.
    (
        lambda d: d.replace("10min", "1e30us"),
        "sim.duration (line 11): Duration 1000000000000000000000000000000"
        " does not fit in 64-bit signed range",
    ),
    # Past Python's 4,300-digit str() limit the value is named by its length.
    (
        lambda d: d.replace("10min", "1e5000us"),
        "sim.duration (line 11): Duration of 5001 digits does not fit in 64-bit signed range",
    ),
    (
        lambda d: d + "touch:\n  press_times: [1e30us]\n",
        "touch.press_times[0] (line 13): TimePoint 1000000000000000000000000000000 does not fit",
    ),
    (
        lambda d: d + "light_timeline: [[0s, 1e400lux]]\n",
        "light_timeline[0] (line 12): '1e400lux' is not a finite illuminance",
    ),
    (
        lambda d: d.replace("43uW", "1e400uW"),
        "harvester.calibration[0] (line 9): '1e400uW' is not a finite power",
    ),
    (
        lambda d: d + "storage:\n  ocv_curve: [[0, 3V], [.nan, 3.6V], [1, 4.2V]]\n",
        "storage (line 13): ocv_curve soc values must be strictly increasing (0.0 -> nan)",
    ),
]


@pytest.mark.parametrize("mangle, needle", PARSE_REJECTIONS)
def test_parse_rejections(mangle, needle):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(mangle(MINIMAL))
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "mangle, message",
    [
        (
            lambda d: d + "rtc:\n  alarm_period: 0s\n",
            "rtc (line 13): alarm_period must be positive",
        ),
        (
            lambda d: d + "touch:\n  press_times: [2s, 1s]\n",
            "touch (line 13): touch press times must be strictly increasing (2000000 -> 1000000)",
        ),
        (
            lambda d: d + "always_on:\n  i_rtc: -1nA\n",
            "always_on (line 13): i_rtc must be non-negative",
        ),
        (
            lambda d: d + "load_script:\n  - {name: a, duration: 0s, energy: 1mJ}\n",
            "load_script[0] (line 13): load step 'a' draws energy over zero time",
        ),
        (
            lambda d: d.replace("v_ovch: 4V", "v_ovch: 3.2V"),
            "pmic (line 4): v_chrdy (3300000 uV) must be below v_ovch (3200000 uV)",
        ),
        (
            lambda d: d.replace("calibration:\n    - [200lux, 43uW]\n", "calibration: []\n"),
            "harvester (line 8): harvester calibration needs at least one point",
        ),
        (
            lambda d: d
            + "load_script:\n"
            + "  - {name: a, duration: 1s, energy: 1mJ}\n"
            + "  - {name: a, duration: 1s, energy: 1mJ}\n",
            "load_script[1] (line 14): duplicate load step name 'a'",
        ),
        (
            lambda d: d + "dpm_variant:\n  kind: software_sleep\n",
            "dpm_variant.kind (line 13): software_sleep requires i_sleep",
        ),
        (
            lambda d: d + "dpm_variant:\n  i_sleep: 3uA\n",
            "dpm_variant.i_sleep (line 13): i_sleep only applies to software_sleep",
        ),
        (
            lambda d: d + "dpm_variant:\n  kind: software_sleep\n  i_sleep: -3uA\n",
            "dpm_variant.i_sleep (line 14): i_sleep must be non-negative",
        ),
        (
            lambda d: d + "storage:\n  nominal_voltage: 0V\n",
            "storage (line 13): nominal_voltage must be positive",
        ),
        (
            lambda d: d + "storage:\n  nominal_voltage: -3.7V\n",
            "storage (line 13): nominal_voltage must be positive",
        ),
        (
            lambda d: d.replace("10min", "0s"),
            "sim.duration (line 11): must be positive",
        ),
        (
            lambda d: d + "light_timeline: [[0s, 200lux], [5s, 100lux], [5s, 50lux]]\n",
            "light_timeline[2] (line 12): times must be strictly increasing (5000000 -> 5000000)",
        ),
    ],
    ids=[
        "rtc", "touch", "always_on", "load_step", "pmic", "harvester",
        "duplicate_step", "variant_kind", "variant_i_sleep", "negative_i_sleep",
        "zero_nominal_voltage", "negative_nominal_voltage", "sim", "timeline",
    ],
)
def test_refusals_name_the_section_path_and_line(mangle, message):
    # The section dataclasses refuse on construction; the parser adds
    # where in the document the refused section or field sits.
    with pytest.raises(ScenarioError) as err:
        parse_scenario(mangle(MINIMAL))
    assert str(err.value) == message


def test_storage_field_errors_name_their_path_once():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "storage: {capacity: 10}\n")
    assert str(err.value) == "storage.capacity (line 12): '10' is not a charge (expected a suffix from: Ah, mAh)"


def test_pmic_quiescent_current_must_match_the_always_on_budget():
    doc = (
        MINIMAL.replace("  v_ovch_hysteresis: 50mV\n", "  v_ovch_hysteresis: 50mV\n  i_quiescent: 9999nA\n")
        + "always_on:\n  i_pmic: 200nA\n"
    )
    lines = doc.splitlines()
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert f"pmic.i_quiescent (line {lines.index('  i_quiescent: 9999nA') + 1})" in str(err.value)
    assert f"always_on.i_pmic (line {lines.index('  i_pmic: 200nA') + 1})" in str(err.value)
    # Agreement parses; so does omitting the field, whatever i_pmic is.
    assert parse_scenario(doc.replace("9999nA", "200nA")).always_on.i_pmic == Current(200)
    assert parse_scenario(MINIMAL + "always_on:\n  i_pmic: 0nA\n").always_on.i_pmic == Current(0)


def test_duplicate_yaml_keys_are_rejected():
    doc = MINIMAL + "sim:\n  duration: 5min\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert str(err.value) == "line 12: duplicate key 'sim'"


def test_empty_and_malformed_documents():
    with pytest.raises(ScenarioError, match="^scenario document is empty$"):
        parse_scenario("")
    # YAML errors read as pyyaml's pure-Python loader words them, snippet included.
    with pytest.raises(ScenarioError) as err:
        parse_scenario("a: [unclosed")
    assert str(err.value) == (
        "not valid YAML: while parsing a flow sequence\n"
        '  in "<unicode string>", line 1, column 4:\n'
        "    a: [unclosed\n"
        "       ^\n"
        "expected ',' or ']', but got '<stream end>'\n"
        '  in "<unicode string>", line 1, column 13:\n'
        "    a: [unclosed\n"
        "                ^"
    )
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL.replace("v_ovch: 4V", "v_ovch:\t4V"))
    assert str(err.value) == (
        "not valid YAML: while scanning for the next token\n"
        "found character '\\t' that cannot start any token\n"
        '  in "<unicode string>", line 5, column 10:\n'
        "      v_ovch:\t4V\n"
        "             ^"
    )
    with pytest.raises(ScenarioError) as err:
        parse_scenario("just a string")
    assert str(err.value) == "scenario document (line 1): expected a mapping"
    # libyaml refuses an escape past U+10FFFF; the pure scanner's chr() raises.
    for escape, reason in [
        ("\\U00110000", "chr() arg not in range(0x110000)"),
        ("\\UFFFFFFFF", "Python int too large to convert to C int"),
    ]:
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MINIMAL + f'meta: {{name: "{escape}"}}\n')
        assert str(err.value) == f"not valid YAML: {reason}"


@pytest.mark.parametrize(
    "value, reason",
    [
        ("!x 4V", "could not determine a constructor for the tag '!x'"),
        # libyaml would scan this tag as '!us'; the refusal is the pure loader's.
        ("!us, 4V", "could not determine a constructor for the tag '!us,'"),
        ("2020-13-45", "month must be in 1..12"),
    ],
)
def test_values_yaml_cannot_construct_are_refused(value, reason):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL.replace("v_ovch: 4V", f"v_ovch: {value}"))
    assert str(err.value) == f"pmic.v_ovch (line 5): not a valid YAML value: {reason}"


@pytest.mark.parametrize(
    "tail, message",
    [
        ("meta: &a {name: *a}\n", "meta.name (line 12)"),
        ("light_timeline: &a [*a]\n", "light_timeline[0] (line 12)"),
        # The line is the alias's own, not its anchor's (line 13).
        ("meta:\n  name: &n x\n  description:\n    *n\n", "meta.description (line 15)"),
        ("meta:\n  &k name: x\n  *k : y\n", "meta (line 14)"),
    ],
    ids=["recursive_mapping", "recursive_list", "value", "key"],
)
def test_yaml_aliases_are_refused_where_they_are_used(tail, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + tail)
    assert str(err.value) == f"{message}: YAML aliases are not supported"


def test_nested_aliases_are_refused_without_expanding_them(monkeypatch):
    # Each level lists the one below ten times: 10**7 scalars if copied out.
    levels = ["  x0: &a0 [" + ", ".join(["1V"] * 10) + "]\n"]
    levels += [f"  x{i}: &a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]\n" for i in range(1, 8)]
    walked = []
    walk = scenario_module._walk
    monkeypatch.setattr(scenario_module, "_walk", lambda node, *rest: walked.append(node) or walk(node, *rest))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "meta:\n" + "".join(levels))
    assert str(err.value) == "meta.x1[0] (line 14): YAML aliases are not supported"
    # Each node up to the alias is visited once: 14 before x0, x0 and its ten items, x1 and the alias.
    assert len(walked) == 27


# 100,000 levels would overflow the C stack in libyaml's composer.
@pytest.mark.parametrize("depth", [1000, 100_000])
def test_deep_nesting_is_refused(depth):
    with pytest.raises(ScenarioError) as err:
        parse_scenario("a:\n" + "- " * depth + "x\n")
    assert str(err.value) == "not valid YAML: nested deeper than the parser's recursion limit"


TOO_DEEP = "not valid YAML: nested deeper than the parser's recursion limit"


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="pyyaml is built without libyaml")
@pytest.mark.parametrize(
    "text, message",
    [
        ("a: " + "[" * 3000 + "]" * 3000, TOO_DEEP),
        ("a:\n" + "- " * 1000 + "x\n", TOO_DEEP),
        (MINIMAL + "unknown_top: 1\n", "unknown_top (line 12): unknown field"),
        (
            MINIMAL.replace("v_ovch: 4V", "v_ovch: 4parsecs"),
            "pmic.v_ovch (line 5): '4parsecs' is not a voltage (expected a suffix from: V, mV, uV)",
        ),
        (MINIMAL + "sim:\n  duration: 5min\n", "line 12: duplicate key 'sim'"),
    ],
    ids=["flow", "block", "unknown-key", "bad-suffix", "duplicate-key"],
)
def test_refusals_on_the_libyaml_route_are_final(monkeypatch, text, message):
    # libyaml composes these, and the refusal comes from reading its tree:
    # the pure loader would compose the same tree, so it is not entered.
    def pure_loader(*args):
        raise AssertionError("the pure loader was entered")

    assert scenario_module._fast_route(text)
    monkeypatch.setattr(scenario_module, "_PureLoader", pure_loader)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "a: " + "[" * 3000 + "]" * 3000 + "\n#\t\n",
        "a: " + "[" * 6000 + "]" * 6000,
        "a: " + "[" * 1500 + "]" * 1500 + "\n#\t\n",
        "a: " + "{a: " * 1500 + "}" * 1500 + "\n#\t\n",
        MINIMAL + "meta:\n  description: >-\n    x\n  name: [" + "[" * 1500 + "'a', " + "]" * 1501 + "\n#\t\n",
    ],
    ids=["3000-tab", "6000", "1500-tab", "1500-mappings-tab", "after-a-block-scalar"],
)
def test_deep_flow_nesting_is_refused_before_the_pure_loader_composes(monkeypatch, text):
    # The pure scanner takes time quadratic in the nesting to reach the
    # composer's recursion limit; one pass over the text refuses it first.
    def pure_loader(*args):
        raise AssertionError("the pure loader was entered")

    assert not scenario_module._fast_route(text)
    monkeypatch.setattr(scenario_module, "_PureLoader", pure_loader)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == TOO_DEEP


@pytest.mark.parametrize(
    "value, description",
    [
        ("'" + "[" * 3000 + "'", "[" * 3000),
        ('"' + "{\\\"" * 3000 + '"', '{"' * 3000),
        ("x" + "[" * 3000, "x" + "[" * 3000),
        ("x # " + "[" * 3000, "x"),
        ("x\n    " + "[" * 3000, "x " + "[" * 3000),
        (">-\n    " + "{" * 3000 + "\n\n     [", "{" * 3000 + "\n\n ["),
    ],
    ids=["single-quoted", "double-quoted", "plain", "comment", "plain-continued", "block-scalar"],
)
def test_brackets_that_open_no_collection_are_no_nesting(value, description):
    text = MINIMAL + "meta:\n  description: " + value + "\n  name: n\n#\t\n"
    assert not scenario_module._fast_route(text)
    assert parse_scenario(text).description == description


def _flow_depth(text: str) -> tuple[int, bool]:
    """The deepest flow nesting the pure scanner reaches, and whether the text composes."""
    depth = deepest = 0
    try:
        for token in yaml.scan(text, Loader=yaml.SafeLoader):
            if isinstance(token, (yaml.FlowSequenceStartToken, yaml.FlowMappingStartToken)):
                depth += 1
                deepest = max(deepest, depth)
            elif isinstance(token, (yaml.FlowSequenceEndToken, yaml.FlowMappingEndToken)):
                depth -= 1
        yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError:
        return deepest, False
    return deepest, True


def test_the_nesting_pass_never_overcounts_a_valid_text():
    # Differential: on every mutant that composes, the pass finds flow
    # nesting past a limit only where the pure scanner opens that many.
    base = (SCENARIO_DIR / "case_study.scenario").read_text() + (
        "extra:\n  - [a, [b, {c: [d, 'e]]', \"f{\"]}]]\n  - k: [[x], {y: [z]}]  # ]]\n"
        "  - w [[ v\n  - |\n    [[[\n  - q\n    [[r\n  - {s: [t], u: {v: [w]}}\n"
    )
    found = deep = 0
    for text in _mutants(base, 200, seed=1):
        depth, valid = _flow_depth(text)
        for limit in range(5):
            past = flow_nested_past(text, limit)
            if valid:
                assert not past or depth > limit, repr(text)
                deep += depth > limit
                found += past
    assert found > 0.9 * deep


# Characters on which libyaml and the pure-Python loader have been seen to
# differ, characters either refuses, and YAML punctuation.
MUTATION_ALPHABET = [
    "\t", "?", "\ufeff", "\x00", "\x85", "\r", "\xa0", "µ", "é", "—", "\u2028", "\ud800",
    "!", "&", "*", "%", "#", "|", ">", "'", '"', "@", "`", ":", "-", ",", "[", "]", "{", "}", " ", "\n",
]

# Texts that libyaml alone accepts or reads otherwise, or cannot take: one
# for each character or sequence that keeps a text off the libyaml route.
LIBYAML_DIVERGENT = [
    MINIMAL.replace("v_ovch: 4V", "v_ovch:\t4V"),
    MINIMAL + "meta: {name: a?b}\n",
    MINIMAL.replace("\n  v_chrdy", "\n\ufeff v_chrdy"),
    MINIMAL + "meta: {name: !!str, description: x}\n",
    MINIMAL + "meta: {name: &n x, description: *n}\n",
    MINIMAL + "meta:\n  name: a\ud800\n",
    MINIMAL + "meta:\n  description: >-# a comment\n    x\n",
]


def _mutants(text: str, count: int, seed: int) -> list[str]:
    """count copies of text, each with one to three characters inserted, replaced or deleted."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        mutant = text
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(mutant) + 1)
            keep = rng.choice((i, i, i + 1))  # insert twice as often as replace
            c = rng.choice(MUTATION_ALPHABET) if rng.random() < 0.85 else ""
            mutant = mutant[:i] + c + mutant[keep:]
        out.append(mutant)
    return out


def _outcome(text: str) -> tuple:
    try:
        s = parse_scenario(text)
    except Exception as exc:
        return type(exc), str(exc)
    return s, s.warnings


def test_libyaml_and_pure_routes_agree(monkeypatch):
    case_study = (SCENARIO_DIR / "case_study.scenario").read_text()
    texts = [case_study, (SCENARIO_DIR / "case_study_software.scenario").read_text()]
    texts += [emit_scenario(random_scenario(seed)) for seed in range(100)]
    texts += [getattr(case, "values", case)[0](MINIMAL) for case in PARSE_REJECTIONS]
    texts += LIBYAML_DIVERGENT + _mutants(case_study, 300, seed=0)
    fast = [_outcome(text) for text in texts]
    monkeypatch.setattr(scenario_module, "_FAST_LOADER", None)
    for text, expected in zip(texts, fast):
        assert _outcome(text) == expected, repr(text)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="pyyaml is built without libyaml")
def test_bundled_scenarios_take_the_libyaml_route(monkeypatch):
    texts = [path.read_text() for path in sorted(SCENARIO_DIR.glob("*.scenario"))]
    # A long but shallow timeline: more nesting indicators than levels libyaml may nest.
    entries = "".join(f"  - [{i}s, {i % 50}lux]\n" for i in range(3000))
    texts.append(MINIMAL + "light_timeline:\n" + entries)
    # With the pure route gone, a parse succeeds only on the libyaml route.
    monkeypatch.setattr(scenario_module, "_PureLoader", None)
    for text in texts:
        parse_scenario(text)


def test_quantity_parsers():
    assert parse_quantity("10min", Duration) == Duration.from_minutes(10)
    assert parse_quantity("1h", Duration) == Duration(3_600_000_000)
    assert parse_quantity("3.3V", Voltage) == Voltage(3_300_000)
    assert parse_quantity("50mV", Voltage) == Voltage(50_000)
    assert parse_quantity(200, Illuminance) == Illuminance(200.0)
    assert parse_quantity("200lux", Illuminance) == Illuminance(200.0)
    with pytest.raises(ScenarioError):
        parse_quantity("10parsecs", Duration)
    with pytest.raises(ScenarioError):
        parse_quantity("0.5uV", Voltage)  # finer than the 1 uV grid


_I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_FINITE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@given(
    st.one_of(
        _I64.map(Duration),
        st.integers(min_value=0, max_value=2**63 - 1).map(TimePoint),
        _I64.map(Voltage),
        _I64.map(Current),
        _FINITE.map(Power),
        _FINITE.map(Energy),
        _FINITE.map(Illuminance),
        _FINITE,  # a bare float is a store's capacity in mAh
        st.sampled_from([Power(1e-05), Energy(1e20), Illuminance(5e-324), 1.7976931348623157e308]),
    )
)
def test_quantity_text_round_trips(q):
    assert parse_quantity(quantity_text(q), type(q)) == q


def test_readme_lists_the_accepted_suffixes():
    readme = README.read_text()
    for dimension, _, integral, scales in _QUANTITIES.values():
        suffixes = ", ".join(f"`{u}`" if u else "a bare number" for u in scales)
        stored = f"{'integer' if integral else 'float'} {next(iter(scales))}"
        assert f"| {dimension} | {suffixes} | {stored} |" in readme


def test_emit_parse_round_trip(case_study, case_study_sw):
    for s in (case_study, case_study_sw):
        again = parse_scenario(emit_scenario(s))
        assert again == s
        # Emission is canonical: a second pass is byte-identical.
        assert emit_scenario(again) == emit_scenario(s)


@pytest.mark.parametrize("seed", range(100))
def test_emit_parse_round_trip_generated(seed):
    s = random_scenario(seed)
    text = emit_scenario(s)
    again = parse_scenario(text)
    assert again == s
    assert emit_scenario(again) == text


def test_canonical_dict_shape(case_study):
    d = canonical_dict(case_study)
    assert list(d) == [
        "schema_version",
        "meta",
        "pmic",
        "storage",
        "always_on",
        "rtc",
        "touch",
        "harvester",
        "light_timeline",
        "load_script",
        "dpm_variant",
        "sim",
    ]
    assert d["pmic"]["v_chrdy"] == "3300000uV"
    assert d["storage"]["capacity"] == "10.0mAh"
    assert d["storage"]["initial_soc"] == 0.5
    assert d["light_timeline"] == [["0us", "200.0lux"]]
    assert d["sim"] == {"duration": "603535000us"}
    assert d["dpm_variant"] == {"kind": "hardware_gated"}
    assert d["load_script"][0] == {
        "name": "sensor_sample",
        "duration": "1500000us",
        "energy": "1100000.0nJ",
    }


def test_with_constant_light(case_study):
    s = with_constant_light(case_study, 350.0)
    assert s.light_timeline == ((TimePoint.zero(), Illuminance(350.0)),)
    assert s.load_script == case_study.load_script
    assert s.pmic == case_study.pmic
    for lux in (-1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=r"^light_timeline\[0\]: illuminance cannot be negative$"):
            with_constant_light(case_study, lux)


def test_with_initial_soc(case_study):
    s = with_initial_soc(case_study, 0.25)
    assert s.storage.initial_soc == 0.25
    assert s.storage.e_store.nj == pytest.approx(0.25 * s.storage.e_capacity.nj, rel=1e-12)
    assert s.storage.e_capacity == case_study.storage.e_capacity
    with pytest.raises(ValueError):
        with_initial_soc(case_study, 1.5)
