"""Golden traces: speed-only changes to the engine must not move a byte.

The digests below cover the text trace followed by the JSON report, for
both bundled scenarios and for the generated scenarios of seeds 0-99
(folded into one digest over their per-seed hex digests, in seed order).
They were first recorded from the object-per-event engine that
preceded the plain-number hot path, and re-recorded once when the load
steps' unused "rail" key left the JSON report; the text traces and the
rest of each report did not change then. Any drift in traces, ledgers,
cycle rows, anomalies or residency shows up here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from dpmsim.engine import Report, format_trace, run
from dpmsim.report import emit_report
from dpmsim.scenario import parse_scenario

from scenario_gen import random_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

BUNDLED = {
    "case_study.scenario": "6d802d6558a7b3e735a069e118817aecb155d46a7c24aab986d347f1a50a46a3",
    "case_study_software.scenario": "5c06182ecfd8ff34418d88cd26373d5803651be1b43cdc1c18def2668bae0314",
}
RANDOM_SEEDS = range(100)
RANDOM_COMBINED = "fa290bb06c89300e8038677fea5228f328d74db14166622fba081bebf1c6b8c6"


def _digest(report: Report) -> str:
    rendered = format_trace(report) + emit_report(report, "json")
    return hashlib.sha256(rendered.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_scenario_trace_and_report_are_golden(name):
    report = run(parse_scenario((SCENARIO_DIR / name).read_text()))
    assert _digest(report) == BUNDLED[name]


def test_random_scenarios_trace_and_report_are_golden():
    combined = hashlib.sha256()
    for seed in RANDOM_SEEDS:
        combined.update(_digest(run(random_scenario(seed))).encode())
    assert combined.hexdigest() == RANDOM_COMBINED
