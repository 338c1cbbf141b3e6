"""Golden traces: speed-only changes to the engine must not move a byte.

The digests below cover the text trace followed by the JSON report, for
both bundled scenarios and for the generated scenarios of seeds 0-99
(folded into one digest over their per-seed hex digests, in seed order).
They were recorded from the object-per-event engine that preceded the
plain-number hot path, so any drift in traces, ledgers, cycle rows,
anomalies or residency shows up here.
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
    "case_study.scenario": "7c578818a803681f60510fc33e80df3569a08f3d17f1477121001c4131e649bf",
    "case_study_software.scenario": "b0ec304fbeeaa0b4303e6ccbbe6c94d42cf8522a736a811ed73c9decad74d305",
}
RANDOM_SEEDS = range(100)
RANDOM_COMBINED = "0e2066d53287087e418fea641eb5fc3e0926db8cae5391d5cb2092f37c484a47"


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
