"""Golden traces: speed-only changes to the engine must not move a byte.

The digests below cover the text trace followed by the JSON report, for
both bundled scenarios and for the generated scenarios of seeds 0-99
(folded into one digest over their per-seed hex digests, in seed order).
They were first recorded from the object-per-event engine that
preceded the plain-number hot path, and re-recorded once when the load
steps' unused "rail" key left the JSON report; the text traces and the
rest of each report did not change then. Any drift in traces, ledgers,
cycle rows, anomalies or residency shows up here.

The combined digest was re-recorded once more when falling crossings
(chrdy_down, ovch_down) moved their aim from 1e-6 uV past their guard's
onset onto it. Seeds 5, 17, 34, 42, 48, 53, 68, 69, 74, 81 and 94
changed, and only in time: each of them has one chrdy_down crossing that
lands 1-86 us earlier, and the grace expiry of the Shutdown it opens
moves with it. Record counts, kinds, modes, latch states, the uV read at
each record, notes and cycle counts are unchanged, and the final store
moves by at most 1.2e-11 relative. The bundled digests did not move.

CORPUS_SLICE pins trace_corpus.py's recipe on its first 20 seeds: the
generated scenarios under constant light at 1x, 2x and 0.5x their first
level. The full corpus is run by hand (see trace_corpus.py).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from dpmsim.engine import Report, format_trace, run
from dpmsim.report import emit_report
from dpmsim.scenario import parse_scenario

from scenario_gen import random_scenario
from trace_corpus import corpus, digest

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

BUNDLED = {
    "case_study.scenario": "6d802d6558a7b3e735a069e118817aecb155d46a7c24aab986d347f1a50a46a3",
    "case_study_software.scenario": "5c06182ecfd8ff34418d88cd26373d5803651be1b43cdc1c18def2668bae0314",
}
RANDOM_SEEDS = range(100)
RANDOM_COMBINED = "15776033879329abc1aa2d9d92813c81c88d2c05db0c2bd2d40ea0d6663d3f4e"
# trace_corpus.py's recipe on seeds 0-19: (runs, records, digest).
CORPUS_SLICE = (60, 5590, "1ee5839214609dd5a0d6415f045405f10e05451feb5544a65ce3cbb3d1787640")


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


def test_trace_corpus_slice_is_golden():
    assert digest(corpus(range(20))) == CORPUS_SLICE
