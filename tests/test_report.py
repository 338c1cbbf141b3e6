"""Report rendering tests: CSV, JSON, and text output."""

from __future__ import annotations

import csv
import io
import json

import pytest

from dpmsim.engine import run
from dpmsim.report import (
    CYCLE_COLUMNS,
    FORMATS,
    emit_cycles_csv,
    emit_json,
    emit_report,
    emit_text,
    report_dict,
)
from dpmsim.scenario import with_constant_light
from scenario_gen import with_initial_soc


@pytest.fixture(scope="module")
def report(case_study):
    return run(case_study)


def test_csv_round_trips_exactly(report):
    text = emit_cycles_csv(report)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CYCLE_COLUMNS)
    assert len(rows) == 1 + len(report.cycles)
    parsed = rows[1]
    row = report.cycles[0]
    assert int(parsed[0]) == row.index
    assert int(parsed[1]) == row.start_us
    # repr round-trip: the floats survive the text format bit for bit.
    assert float(parsed[2]) == row.consumed_nj
    assert float(parsed[3]) == row.harvested_nj
    assert float(parsed[4]) == row.net_nj
    assert float(parsed[5]) == row.end_soc


def test_csv_headers_only_without_cycles(case_study):
    dark = with_constant_light(with_initial_soc(case_study, 0.02), 0.0)
    r = run(dark)
    zero_rows = [row for row in r.cycles if row.harvested_nj == row.consumed_nj == 0.0]
    assert zero_rows == list(r.cycles)
    text = emit_cycles_csv(r)
    lines = text.splitlines()
    assert lines[0] == ",".join(CYCLE_COLUMNS)
    assert len(lines) == 1 + len(r.cycles)


def test_json_document_shape(report):
    doc = json.loads(emit_json(report))
    assert list(doc) == [
        "scenario",
        "duration_us",
        "final",
        "energy",
        "mode_residency_us",
        "cycles_completed",
        "cycles",
        "anomalies",
        "scenario_warnings",
    ]
    assert doc["duration_us"] == report.duration_us
    assert doc["final"]["mode"] == report.final_mode
    assert doc["final"]["soc"] == report.final_soc
    assert doc["final"]["voltage_uv"] == report.final_voltage.uv
    assert doc["energy"]["harvested_nj"] == report.e_harvested.nj
    assert doc["energy"]["consumed_total_nj"] == report.e_consumed_total.nj
    assert doc["energy"]["net_gain_nj"] == report.net_gain.nj
    assert doc["energy"]["consumed_nj"] == {name: e.nj for name, e in report.e_consumed}
    assert doc["cycles_completed"] == report.cycles_completed
    assert doc["cycles"][0]["net_nj"] == report.cycles[0].net_nj
    assert doc["anomalies"] == []
    assert doc["scenario_warnings"] == []
    assert doc["scenario"]["meta"]["name"] == "case-study-node"
    # The trace never rides along in the JSON document.
    assert "trace" not in doc
    assert emit_json(report).endswith("\n")


def test_json_matches_report_dict(report):
    assert json.loads(emit_json(report)) == report_dict(report)


def test_text_sections(report):
    text = emit_text(report)
    assert text.startswith("run summary: case-study-node\n")
    for needle in (
        "energy ledger",
        "wake cycles",
        "mode residency",
        "anomalies: none",
        "  harvested       26.040000 mJ",
        "  consumed        2.146355 mJ",
        "  net gain        23.893645 mJ",
        "    sensor_sample     1.100000 mJ",
        "  final mode      normal",
        "  completed       1",
    ):
        assert needle in text, needle
    assert text.endswith("\n")


def test_text_lists_anomalies_and_warnings(case_study):
    drained = with_constant_light(with_initial_soc(case_study, 0.0500001), 0.0)
    text = emit_text(run(drained))
    assert "anomalies (1)" in text
    assert "load_step_aborted" in text


def test_emit_report_dispatch(report):
    assert emit_report(report, "csv") == emit_cycles_csv(report)
    assert emit_report(report, "json") == emit_json(report)
    assert emit_report(report, "text") == emit_text(report)
    assert emit_report(report) == emit_text(report)
    with pytest.raises(ValueError):
        emit_report(report, "xml")
    assert FORMATS == ("csv", "json", "text")


def test_emission_is_deterministic(case_study, report):
    again = run(case_study)
    assert emit_cycles_csv(again) == emit_cycles_csv(report)
    assert emit_json(again) == emit_json(report)
    assert emit_text(again) == emit_text(report)
