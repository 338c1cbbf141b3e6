"""Golden oracle results: changes to how the oracle steps its grid must not
move a bit of what it returns.

The digest folds the SHA-256 of `repr(run_oracle(scenario, dt))` for the
generated scenarios of seeds 0-99 on the 1 ms, 100 us and 10 us grids
(seed-major), then both bundled scenarios on the 1 ms, 10 us and 1 us
grids, into one digest over the per-case hex digests. The repr carries
every transition time, the tick count, the final store, each ledger and
each component's consumption at full float precision, so a last-bit
drift that the engine comparisons' tolerances would pass shows up here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from dpmsim.oracle import run_oracle
from dpmsim.quantities import Duration
from dpmsim.scenario import parse_scenario

from scenario_gen import random_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

RANDOM_SEEDS = range(100)
RANDOM_STEPS_US = (1000, 100, 10)
BUNDLED = ("case_study.scenario", "case_study_software.scenario")
BUNDLED_STEPS_US = (1000, 10, 1)
COMBINED = "a07edd3cd73fab3924a19c9a246a4970bad54fec9919fdaefa69bf49a5b42bec"


def _cases():
    for seed in RANDOM_SEEDS:
        scenario = random_scenario(seed)
        for dt in RANDOM_STEPS_US:
            yield scenario, dt
    for name in BUNDLED:
        scenario = parse_scenario((SCENARIO_DIR / name).read_text())
        for dt in BUNDLED_STEPS_US:
            yield scenario, dt


def test_oracle_results_are_golden():
    combined = hashlib.sha256()
    for scenario, dt in _cases():
        rendered = repr(run_oracle(scenario, Duration(dt)))
        combined.update(hashlib.sha256(rendered.encode()).hexdigest().encode())
    assert combined.hexdigest() == COMBINED
