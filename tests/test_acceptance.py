"""Acceptance gate: ten checks, one test (and one pass/fail line) each.

Every check pins a headline figure or behavioural guarantee of the
simulator at an explicit tolerance. Run with -v to get the per-check
verdict lines; each test also prints the measured numbers, visible
under -rA.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from dpmsim.analysis import compare_dpm
from dpmsim.energy import AlwaysOnBudget, always_on_power, cycle_energy, soc_at_voltage
from dpmsim.engine import format_trace, run
from dpmsim.oracle import compare_with_engine, run_oracle
from dpmsim.pmic import Mode, PmicMode, fired_transitions, stage2, step_mode
from dpmsim.quantities import Current, Duration, Energy, TimePoint, Voltage, energy_of, power_of
from dpmsim.report import report_dict
from dpmsim.scenario import with_constant_light, with_initial_soc
from dpmsim.wake import LatchState, RtcConfig, WakeSource, on_rtc_alarm, on_touch
from scenario_gen import random_scenario


def test_c01_net_cycle_gain_at_three_light_levels(case_study):
    """One full wake cycle at 200/300/500 lux nets 23.90/36.06/70.28 mJ (+-0.02)."""
    measured = []
    for lux, expected_mj in ((200.0, 23.90), (300.0, 36.06), (500.0, 70.28)):
        report = run(with_constant_light(case_study, lux))
        got = report.net_gain.millijoules
        measured.append((lux, got))
        assert got == pytest.approx(expected_mj, abs=0.02), (lux, got)
    print("c01 net gain mJ:", ", ".join(f"{lux:g} lux -> {mj:.6f}" for lux, mj in measured))


def test_c02_cycle_energy_of_the_bundled_script(case_study):
    """cycle_energy on the bundled script is 2.1462 mJ with the measured
    0.6 mJ idle term, and within +-0.01 mJ of 2.14 either way."""
    script = case_study.load_script
    budget = case_study.always_on
    sleep = case_study.rtc.alarm_period
    with_measured_idle = cycle_energy(script, budget, sleep, always_on_energy=Energy(600_000.0))
    integrated = cycle_energy(script, budget, sleep)
    assert with_measured_idle.nj == 2_146_200.0
    assert with_measured_idle.millijoules == pytest.approx(2.14, abs=0.01)
    assert integrated.nj == pytest.approx(2_146_355.204, abs=1e-6)
    assert integrated.millijoules == pytest.approx(2.14, abs=0.01)
    print(f"c02 cycle energy mJ: measured-idle {with_measured_idle.millijoules:.6f},"
          f" integrated {integrated.millijoules:.6f}")


def test_c03_ten_minute_idle_drain(case_study):
    """A 10 min idle stretch at 452 nA on the 2.2 V rail costs 0.59664 mJ,
    within 2% of the rounded 0.6 mJ figure."""
    drain = energy_of(always_on_power(case_study.always_on), Duration.from_minutes(10))
    assert drain.nj == 596_640.0
    assert drain.millijoules == pytest.approx(0.6, rel=0.02)
    print(f"c03 idle drain mJ: {drain.millijoules:.6f}")


def test_c04_idle_current_ratio(case_study, case_study_sw):
    """compare_dpm on the 452 nA vs 3 uA twins reports a 6.64x idle ratio,
    within 1% of the headline 6.6x."""
    cmp = compare_dpm(run(case_study), run(case_study_sw))
    ratio = cmp.idle_ratio_sw_over_hw
    assert round(ratio, 2) == 6.64
    assert ratio == pytest.approx(6.6, rel=0.01)
    assert cmp.idle_ratio_note == "~6.6x"
    print(f"c04 idle ratio: {ratio!r} ({cmp.idle_ratio_note})")


def test_c05_component_current_budget_sums_exactly():
    """With zero extra leakage the always-on budget is exactly the 310 nA
    sum of the component datasheet currents."""
    budget = AlwaysOnBudget(
        i_pmic=Current(200),
        i_rtc=Current(45),
        i_touch=Current(65),
        i_extra_leakage=Current(0),
    )
    assert budget.total_current == Current(310)
    assert always_on_power(budget) == power_of(Voltage.from_volts(2.2), Current(310))
    assert always_on_power(budget).nw == 682.0
    print(f"c05 budget: {budget.total_current.na:g} nA, {always_on_power(budget).nw:g} nW")


def test_c06_mode_machine_grid_sweep(case_study):
    """Exhaustive sweep over storage voltages, harvester states, latch and
    clock positions: guards stay mutually exclusive, the overcharge
    hysteresis band holds both modes, Shutdown grace is exactly 600 ms,
    and Stage2 implies the latch plus a charged mode. Zero violations."""
    cfg = case_study.pmic
    exit_uv = cfg.v_ovch.uv - cfg.v_ovch_hysteresis.uv
    harvester_states = ((0, 0.0), (300_000, 1_000.0), (1_200_000, 50_000.0))  # (uV, nW)
    deadline = TimePoint(500_000)
    modes = (
        PmicMode.deep_sleep(),
        PmicMode.wake_up(),
        PmicMode.normal(),
        PmicMode.overcharge(),
        PmicMode.shutdown(deadline),
    )
    violations: list[str] = []
    checked = 0
    for v_uv in range(0, cfg.v_ovch.uv + 100_001, 1000):
        for v_h, p_h in harvester_states:
            for latch in (False, True):
                for now_us in (0, 500_000, 500_001):
                    inputs = (v_uv, v_h, p_h, now_us)
                    for mode in modes:
                        checked += 1
                        fired = fired_transitions(mode, cfg, *inputs)
                        if len(fired) > 1:
                            violations.append(f"exclusivity {mode.mode} {v_uv} {fired}")
                            continue
                        new = step_mode(mode, cfg, *inputs)
                        if mode.mode is Mode.OVERCHARGE:
                            should_exit = v_uv <= exit_uv
                            if should_exit != (new.mode is Mode.NORMAL):
                                violations.append(f"hysteresis exit {v_uv} -> {new.mode}")
                        if mode.mode is Mode.NORMAL and v_uv >= cfg.v_ovch.uv:
                            if new.mode is not Mode.OVERCHARGE:
                                violations.append(f"hysteresis entry {v_uv} -> {new.mode}")
                        if mode.mode is Mode.NORMAL and new.mode is Mode.SHUTDOWN:
                            if new.grace_deadline != TimePoint(now_us + 600_000):
                                violations.append(f"grace deadline {new.grace_deadline}")
                        if mode.mode is Mode.SHUTDOWN:
                            expired = new.mode is Mode.DEEP_SLEEP
                            should = v_uv < cfg.v_chrdy.uv and now_us >= deadline.us
                            if expired != should:
                                violations.append(f"grace expiry {v_uv} {now_us} -> {new.mode}")
                        if stage2(new.mode, latch) and not (
                            latch and new.mode in (Mode.NORMAL, Mode.OVERCHARGE)
                        ):
                            violations.append(f"rail chain {new.mode} latch={latch}")
    assert violations == []
    print(f"c06 grid sweep: {checked} states, 0 violations")


def test_c07_latch_invariants_over_random_events():
    """Across >=10^4 random trigger/clear events the latch never drops a
    set state on its own, always names the latest trigger as the wake
    source, and ignores clears issued while the compute rail is down."""
    rng = random.Random(0x1A7C)
    rtc = RtcConfig()
    latch = LatchState.cleared()
    modes = tuple(Mode)
    expected_source = WakeSource.NONE
    now = 0
    events = 30_000
    clears_applied = clears_skipped = 0
    for _ in range(events):
        now += rng.randint(0, 5_000_000)
        t = TimePoint(now)
        kind = rng.choice(("touch", "alarm", "clear"))
        if kind == "touch":
            latch = on_touch(latch, t)
            expected_source = WakeSource.TOUCH
        elif kind == "alarm":
            latch, _ = on_rtc_alarm(latch, t, rtc)
            expected_source = WakeSource.RTC
        else:
            mode = rng.choice(modes)
            if stage2(mode, latch.set):
                latch = LatchState.cleared(t)
                expected_source = WakeSource.NONE
                clears_applied += 1
            else:
                clears_skipped += 1
        assert latch.set == (expected_source is not WakeSource.NONE)
        assert latch.wake_source is expected_source
    assert events >= 10_000
    assert clears_applied > 0 and clears_skipped > 0
    print(f"c07 latch stream: {events} events,"
          f" {clears_applied} clears applied, {clears_skipped} blocked")


def test_c08_engine_matches_fixed_step_integrator():
    """On 20 randomized scenarios (each <=2 simulated hours) the event
    engine and the 1 ms fixed-step integrator produce identical mode
    sequences and agree on the final stored energy within rel 1e-3."""
    worst_store = 0.0
    for seed in range(20):
        scenario = random_scenario(seed)
        assert scenario.duration.us <= 7_200_000_000
        report = run(scenario)
        result = run_oracle(scenario, Duration(1000))
        agr = compare_with_engine(report, result)
        assert agr.sequences_match, (seed, agr.engine_sequence, agr.oracle_sequence)
        assert agr.e_store_rel_error <= 1e-3, (seed, agr.e_store_rel_error)
        worst_store = max(worst_store, agr.e_store_rel_error)
    print(f"c08 oracle equivalence: 20 scenarios, worst store rel {worst_store:.3e}")


def test_c09_conservation_and_determinism(case_study, case_study_sw):
    """Every accepted run balances its energy ledger to rel 1e-6 and
    replays byte-identically."""
    scenarios = [case_study, case_study_sw] + [random_scenario(seed) for seed in (3, 7, 12)]
    worst = 0.0
    for scenario in scenarios:
        first = run(scenario)
        balance = (
            first.e_store_initial.nj
            + first.e_harvested.nj
            - first.e_consumed_total.nj
            - first.e_overcharge_discarded.nj
            - first.e_store_final.nj
        )
        scale = max(
            first.e_store_initial.nj, first.e_harvested.nj, first.e_consumed_total.nj, 1.0
        )
        assert abs(balance) <= 1e-6 * scale, (scenario.name, balance, scale)
        worst = max(worst, abs(balance) / scale)
        again = run(scenario)
        assert format_trace(again) == format_trace(first)
        assert json.dumps(report_dict(again)) == json.dumps(report_dict(first))
    print(f"c09 ledger balance: {len(scenarios)} runs, worst rel {worst:.3e}")


def test_c10_sustained_autonomy_day_and_darkness(case_study):
    """24 h at 200 lux: storage never decreases cycle over cycle until the
    overcharge clamp engages, then holds at the clamp. At 0 lux from
    below v_chrdy the node stays in DeepSleep and consumes nothing."""
    day = dataclasses.replace(
        with_initial_soc(with_constant_light(case_study, 200.0), 0.69),
        duration=Duration.from_minutes(24 * 60),
    )
    report = run(day)
    assert report.cycles_completed == 144
    assert report.e_overcharge_discarded.nj > 0.0
    assert dict(report.mode_residency)["overcharge"].us > 0
    clamp_soc = soc_at_voltage(day.storage, day.pmic.v_ovch)
    socs = [row.end_soc for row in report.cycles]
    clamped_from = next(i for i, s in enumerate(socs) if s >= clamp_soc - 1e-4)
    rising = socs[: clamped_from + 1]
    assert all(b >= a for a, b in zip(rising, rising[1:]))
    assert all(abs(s - clamp_soc) <= 2e-3 for s in socs[clamped_from:])

    dark = dataclasses.replace(
        with_initial_soc(with_constant_light(case_study, 0.0), 0.04),
        duration=Duration.from_minutes(60),
    )
    still = run(dark)
    assert still.final_mode == "deep_sleep"
    assert dict(still.mode_residency)["deep_sleep"] == dark.duration
    assert still.e_consumed_total.nj == 0.0
    assert still.e_store_final.nj == still.e_store_initial.nj
    print(f"c10 autonomy: clamp from cycle {clamped_from},"
          f" dark hour consumed {still.e_consumed_total.nj:g} nJ")
