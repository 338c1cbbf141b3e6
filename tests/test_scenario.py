"""Scenario document parsing, validation, and canonical emission tests."""

from __future__ import annotations

import pytest

from dpmsim.quantities import Current, Duration, Illuminance, TimePoint, Voltage
from dpmsim.scenario import (
    ScenarioError,
    VariantKind,
    canonical_dict,
    emit_scenario,
    parse_duration,
    parse_illuminance,
    parse_scenario,
    parse_voltage,
    with_constant_light,
    with_initial_soc,
)
from scenario_gen import random_scenario

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
    assert [step.rail.value for step in s.load_script] == ["hv", "lv", "hv"]
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


@pytest.mark.parametrize(
    "mangle, needle",
    [
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
        (
            lambda d: d + "load_script:\n  - {name: a, duration: 1s, energy: 1mJ, rail: xhv}\n",
            "rail must be",
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
    ],
)
def test_parse_rejections(mangle, needle):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(mangle(MINIMAL))
    assert needle in str(err.value)


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
    assert "duplicate key" in str(err.value)


def test_empty_and_malformed_documents():
    with pytest.raises(ScenarioError):
        parse_scenario("")
    with pytest.raises(ScenarioError):
        parse_scenario("a: [unclosed")
    with pytest.raises(ScenarioError):
        parse_scenario("just a string")


def test_quantity_parsers():
    assert parse_duration("10min") == Duration.from_minutes(10)
    assert parse_duration("1h") == Duration.from_seconds(3600)
    assert parse_voltage("3.3V") == Voltage(3_300_000)
    assert parse_voltage("50mV") == Voltage(50_000)
    assert parse_illuminance(200) == Illuminance(200.0)
    assert parse_illuminance("200lux") == Illuminance(200.0)
    with pytest.raises(ScenarioError):
        parse_duration("10parsecs")
    with pytest.raises(ScenarioError):
        parse_voltage("0.5uV")  # finer than the 1 uV grid


def test_emit_parse_round_trip(case_study, case_study_sw):
    for s in (case_study, case_study_sw):
        again = parse_scenario(emit_scenario(s))
        assert again == s
        # Emission is canonical: a second pass is byte-identical.
        assert emit_scenario(again) == emit_scenario(s)


@pytest.mark.parametrize("seed", [1, 7, 40, 99])
def test_emit_parse_round_trip_generated(seed):
    s = random_scenario(seed)
    assert parse_scenario(emit_scenario(s)) == s


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
        "rail": "hv",
    }


def test_with_constant_light(case_study):
    s = with_constant_light(case_study, 350.0)
    assert s.light_timeline == ((TimePoint.zero(), Illuminance(350.0)),)
    assert s.load_script == case_study.load_script
    assert s.pmic == case_study.pmic


def test_with_initial_soc(case_study):
    s = with_initial_soc(case_study, 0.25)
    assert s.storage.initial_soc == 0.25
    assert s.storage.e_store.nj == pytest.approx(0.25 * s.storage.e_capacity.nj, rel=1e-12)
    assert s.storage.e_capacity == case_study.storage.e_capacity
    with pytest.raises(ValueError):
        with_initial_soc(case_study, 1.5)
