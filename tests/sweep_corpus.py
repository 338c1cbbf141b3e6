"""Referee for changes to the lux sweep.

Sweeps each bundled scenario file and random_scenario(0..99) over
[1, 200] lux at the default resolution, and prints one line per
scenario: the route that answered with the answer and bracket, or the
refusal. A final line gives one SHA-256 over every line before it.

    PYTHONPATH=src:tests python tests/sweep_corpus.py

Run it on both sides of a change and compare the lines: an answer that
moved shows on its scenario's line, and the digest moves with it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from pathlib import Path

from dpmsim.analysis import SweepError, sweep_lux
from dpmsim.quantities import Illuminance
from dpmsim.scenario import Scenario, parse_scenario

from scenario_gen import random_scenario

SEEDS = range(100)
LO, HI = Illuminance(1.0), Illuminance(200.0)
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = ("case_study.scenario", "case_study_software.scenario")


def corpus() -> Iterator[tuple[str, Scenario]]:
    for name in BUNDLED:
        yield name, parse_scenario((SCENARIO_DIR / name).read_text())
    for seed in SEEDS:
        yield f"random_scenario({seed})", random_scenario(seed)


def line(label: str, scenario: Scenario) -> str:
    try:
        res = sweep_lux(scenario, LO, HI)
    except SweepError as exc:
        return f"{label} error {exc}"
    # A sweep without a route field only bisects.
    route = getattr(res, "route", "bisection")
    return (
        f"{label} {route} {res.breakeven.lux!r}"
        f" [{res.bracket_lo.lux!r}, {res.bracket_hi.lux!r}] probes {len(res.probes)}"
    )


if __name__ == "__main__":
    sha = hashlib.sha256()
    for label, scenario in corpus():
        text = line(label, scenario)
        print(text, flush=True)
        sha.update(text.encode() + b"\n")
    print(f"sha256 {sha.hexdigest()}")
