"""The oracle's run-length loop: against its per-tick reference on the
1 ms grid, and against the engine on grids too fine for that reference."""

from __future__ import annotations

import dataclasses
import math

import pytest

from dpmsim.engine import run
from dpmsim.oracle import engine_mode_sequence, run_oracle
from dpmsim.quantities import Duration
from dpmsim.scenario import with_constant_light
from oracle_reference import run_oracle_per_tick
from scenario_gen import random_scenario, with_initial_soc


def _ledgers(res):
    yield "final_e_store", res.final_e_store.nj
    yield "e_harvested", res.e_harvested.nj
    yield "e_consumed", res.e_consumed.nj
    yield "e_discarded", res.e_discarded.nj
    for name, e in res.e_consumed_by_component:
        yield name, e.nj


@pytest.mark.parametrize("which", ["case_study", "case_study_sw"] + list(range(20)))
def test_run_length_matches_per_tick_reference(which, request):
    scenario = request.getfixturevalue(which) if isinstance(which, str) else random_scenario(which)
    fast = run_oracle(scenario)
    ref = run_oracle_per_tick(scenario)
    assert fast.transitions == ref.transitions
    assert fast.cycles_completed == ref.cycles_completed
    assert fast.ticks == ref.ticks
    assert fast.final_mode == ref.final_mode
    ref_ledgers = dict(_ledgers(ref))
    fast_ledgers = dict(_ledgers(fast))
    assert fast_ledgers.keys() == ref_ledgers.keys()
    for name, nj in ref_ledgers.items():
        assert fast_ledgers[name] == pytest.approx(nj, rel=1e-9), name


@pytest.mark.parametrize("seed", [5, 17, 19, 42])
def test_shutdown_entry_is_the_first_grid_instant_after_the_crossing(seed):
    # On these runs the per-tick loop's summed increments drift: seed 5
    # enters Shutdown ~20 ticks of 100 us after the engine's crossing.
    # Multiplied increments land on the first grid instant at or after it.
    scenario = random_scenario(seed)
    dt = 100
    crossings = [rec.time_us for rec in run(scenario).trace if "mode=shutdown" in rec.note]
    entries = [t for t, mode in run_oracle(scenario, Duration(dt)).transitions if mode == "shutdown"]
    assert crossings
    assert entries == [math.ceil(t / dt) * dt for t in crossings]


def _shutdown_endings(modes):
    """The mode after each Shutdown that ends within the run."""
    return [after for before, after in zip(modes, modes[1:]) if before == "shutdown"]


@pytest.fixture(scope="module")
def marginal(case_study):
    # ~48 nW above the idle drain, store on v_chrdy: the first burst drops
    # it into Shutdown at once (as in test_engine's marginal-light test).
    return dataclasses.replace(
        with_constant_light(with_initial_soc(case_study, 0.05), 4.83), duration=Duration(3_000_000)
    )


@pytest.mark.parametrize("dt", [10, 1])
def test_marginal_light_shutdowns_end_by_crossing_on_fine_grids(marginal, dt):
    assert set(_shutdown_endings(engine_mode_sequence(run(marginal)))) == {"normal"}
    res = run_oracle(marginal, Duration(dt))
    assert set(_shutdown_endings(res.mode_sequence)) == {"normal"}


def test_marginal_light_first_shutdown_on_the_1us_grid(marginal):
    transitions = run_oracle(marginal, Duration(1)).transitions
    first = next(i for i, (_, mode) in enumerate(transitions) if mode == "shutdown")
    assert transitions[first:first + 2] == ((15_138, "shutdown"), (25_226, "normal"))


def test_marginal_light_1ms_grid_lets_the_grace_run_out(marginal):
    # One 1 ms tick overshoots by ~15 s of net charge, past the 600 ms grace.
    assert run_oracle(marginal).transitions == (
        (0, "normal"), (16_000, "shutdown"), (616_000, "deep_sleep"))
