"""Byte-identity referee for speed-only engine changes.

One SHA-256 over the text trace and then the JSON report of every run in
a fixed corpus, in order: each generated scenario of seeds 0-449 under
constant light at 1x, 2x and 0.5x its first light level, then the case
study from soc 0.05 under 4.83 lux, which drops into Shutdown and
recovers by crossing. A change that moves one byte of any trace or
report moves the digest.

    PYTHONPATH=src:tests python tests/trace_corpus.py

prints the run count, the record count and the digest. Run it on both
sides of a change; the lines must be equal. The golden test in
test_golden_trace.py pins the cheap slice (seeds 0-19).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from pathlib import Path

from dpmsim.engine import Report, format_trace, run
from dpmsim.report import emit_json
from dpmsim.scenario import Scenario, parse_scenario, with_constant_light

from scenario_gen import random_scenario, with_initial_soc

SEEDS = range(450)
FACTORS = (1, 2, 0.5)
CASE_STUDY = Path(__file__).resolve().parent.parent / "scenarios" / "case_study.scenario"


def corpus(seeds: range = SEEDS) -> Iterator[Scenario]:
    for seed in seeds:
        s = random_scenario(seed)
        first_lux = s.light_timeline[0][1].lux
        for k in FACTORS:
            yield with_constant_light(s, first_lux * k)


def digest(scenarios) -> tuple[int, int, str]:
    """(runs, trace records, SHA-256 over each run's trace then JSON report)."""
    sha = hashlib.sha256()
    runs = records = 0
    for s in scenarios:
        r: Report = run(s)
        sha.update(format_trace(r).encode())
        sha.update(emit_json(r).encode())
        runs += 1
        records += len(r.trace)
    return runs, records, sha.hexdigest()


def full_corpus() -> Iterator[Scenario]:
    yield from corpus()
    case_study = parse_scenario(CASE_STUDY.read_text())
    yield with_constant_light(with_initial_soc(case_study, 0.05), 4.83)


if __name__ == "__main__":
    runs, records, hexdigest = digest(full_corpus())
    print(f"runs {runs} records {records} sha256 {hexdigest}")
