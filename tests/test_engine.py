"""Event-engine tests: crossing prediction, frozen case-study numbers,
determinism, and the awkward regimes (depletion, overcharge, shutdown)."""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as hyp

from dpmsim import engine
from dpmsim.energy import _integrate, _store_uv, harvest_power
from dpmsim.engine import (
    _COLD_START,
    _DEPLETED,
    SimulationError,
    _check_invariants,
    _check_landing,
    _onset_nj,
    _Step,
    find_threshold_crossing,
    format_trace,
    idle_power,
    run,
)
from dpmsim.pmic import MODE_NAMES, NORMAL, Exit, PmicConfig, stage2, step_mode
from dpmsim.quantities import Duration, Energy, Illuminance, TimePoint
from dpmsim.scenario import Scenario, parse_scenario, with_constant_light
from scenario_gen import random_scenario, soc_at_uv, with_initial_soc

ZERO_IDLE = """
schema_version: 1
pmic:
  v_chrdy: 3.3V
  v_ovch: 4V
  v_ovch_hysteresis: 50mV
always_on:
  i_pmic: 0nA
  i_rtc: 0nA
  i_touch: 0nA
  i_extra_leakage: 0nA
  rail_voltage: 1V
harvester:
  calibration:
    - [1lux, 1000nW]
sim:
  duration: 2000s
"""


def _exit(s: Scenario, label: str) -> Exit:
    """The PMIC's exit of that label in the scenario's configuration."""
    return next(e for exits in s.pmic.exits for e in exits if e.label == label)


def _onset(s: Scenario, exit: Exit) -> float:
    return _onset_nj(s.storage.ocv_segments, s.storage.e_capacity.nj, exit)


def _v_uv(s: Scenario, e_nj: float) -> float:
    return _store_uv(s.storage.ocv_segments, e_nj, s.storage.e_capacity.nj)


def _solve(s: Scenario, exit: Exit, e_nj: float, p_nw: float, now_us: int = 0) -> int | None:
    """The engine's crossing solve for the exit, from e_nj at now_us under net power p_nw."""
    onset = 0.0 if exit is _DEPLETED else _onset(s, exit)
    return find_threshold_crossing(now_us, e_nj, p_nw, onset, exit.rising)


# -- crossing prediction ---------------------------------------------------


def test_crossing_none_when_power_points_away():
    s = parse_scenario(ZERO_IDLE)
    e = s.storage.e_store.nj
    # In DeepSleep the power split is all zero.
    assert _solve(s, _exit(s, "ovch_up"), e, 0.0) is None
    # WakeUp, dark, zero idle: p_net is exactly 0, just above empty.
    assert _solve(s, _exit(s, "chrdy_up"), 1e6, 0.0) is None
    assert _solve(s, _DEPLETED, 1e6, 0.0) is None


def test_crossing_already_satisfied_returns_now():
    s = parse_scenario(ZERO_IDLE)
    # soc 0.5 sits at 3.867 V, above the charge-ready target.
    assert _solve(s, _exit(s, "chrdy_up"), s.storage.e_store.nj, 0.0, now_us=777) == 777


def _guard_holds(s: Scenario, exit: Exit, e_nj: float, p_nw: float, t: int) -> bool:
    """The exit's guard at time t, from e_nj at 0 under constant net power."""
    return exit.holds(round(_v_uv(s, e_nj + p_nw * t / 1e6)))


def test_crossing_charge_time_is_energy_over_power():
    s = parse_scenario(ZERO_IDLE)
    cap = s.storage.e_capacity.nj
    p_nw = harvest_power(s.harvester, Illuminance(1.0)).nw  # 1000 nW in, nothing out
    e_target = 0.05 * cap  # 3.3 V on the default curve
    e = e_target - 1e6
    chrdy_up = _exit(s, "chrdy_up")
    t = _solve(s, chrdy_up, e, p_nw)
    # round(v) >= 3.3 V already holds half a microvolt (11.1 uJ) below
    # 3.3 V, which is where the oracle puts its charge-ready threshold.
    e_onset = soc_at_uv(s.storage.ocv_segments, 3_300_000 - 0.5) * cap
    assert t == math.ceil((e_onset - e) / 1000.0 * 1e6)
    assert _guard_holds(s, chrdy_up, e, p_nw, t)
    assert not _guard_holds(s, chrdy_up, e, p_nw, t - 1)


def test_crossing_overcharge_exit_lands_on_its_onset(case_study):
    s = case_study
    # Overcharge at 200 lux with sensor_sample (~733 uW) running: the
    # store only discharges.
    drain = idle_power(s).nw + s.load_script[0].power.nw
    p_nw = min(0.0, harvest_power(s.harvester, Illuminance(200.0)).nw - drain)
    ovch_down = _exit(s, "ovch_down")
    # round(v) < T holds below T - 0.5 uV, which is v_ovch - hysteresis
    # + 0.5 uV: the oracle's overcharge exit.
    e_onset = soc_at_uv(s.storage.ocv_segments, ovch_down.uv - 0.5) * s.storage.e_capacity.nj
    e = e_onset + 470_000.0
    t = _solve(s, ovch_down, e, p_nw)
    onset_us = (e_onset - e) / p_nw * 1e6
    assert 0.0 <= t - onset_us <= 1.0
    assert _guard_holds(s, ovch_down, e, p_nw, t)
    assert not _guard_holds(s, ovch_down, e, p_nw, t - 1)


# Every (mode, exit) pair of the table.
MODE_EXITS = [(mode, e.label) for mode, exits in enumerate(PmicConfig().exits) for e in exits]


@pytest.mark.parametrize(("mode", "label"), MODE_EXITS, ids=[f"{MODE_NAMES[m]}-{lb}" for m, lb in MODE_EXITS])
@given(gap_uv=hyp.floats(0.6, 5_000.0), log_p_nw=hyp.floats(3.0, 8.0))
def test_step_mode_leaves_by_the_solved_crossing(case_study, mode, label, gap_uv, log_p_nw):
    """The solved microsecond is where step_mode first takes the exit.

    The store opens gap_uv short of the guard's onset (exit.uv - 0.5 uV)
    and moves towards it at 1 uW-100 mW. The guard must hold at the
    solved t and not at t - 1, unless t - 1 is the opening instant.
    Below ~1 uW near a full store, one us of charge is under one ulp of
    the stored energy, so the power range stops there. Each
    reading enters the mode at the instant it reads, so Shutdown's grace
    window never runs out under it.
    """
    s = case_study
    cap = s.storage.e_capacity.nj
    exit = _exit(s, label)
    p_nw = 10.0**log_p_nw if exit.rising else -(10.0**log_p_nw)
    v_open = exit.uv - 0.5 + (-gap_uv if exit.rising else gap_uv)
    e = soc_at_uv(s.storage.ocv_segments, v_open) * cap
    t = _solve(s, exit, e, p_nw)

    def mode_at(t_us: int) -> int:
        v_uv = round(_v_uv(s, _integrate(e, cap, p_nw, t_us)[0]))
        return step_mode(mode, t_us, s.pmic, v_uv, 0, 0.0, t_us)

    assert mode_at(t) == exit.to
    if t - 1 != 0:
        assert mode_at(t - 1) == mode


def test_crossing_depletion_time_is_exact():
    s = parse_scenario(ZERO_IDLE.replace("i_pmic: 0nA", "i_pmic: 1000nA"))
    # WakeUp, dark: drains at exactly 1000 nW.
    assert _solve(s, _DEPLETED, 1_000_000.0, -idle_power(s).nw) == 1_000_000_000


def test_crossing_depletion_lands_on_the_first_empty_microsecond():
    # A Shutdown solve from random_scenario(81) whose quotient rounds up
    # past a whole microsecond: ceil of it lands 1 us after the store
    # first reads empty.
    s = random_scenario(81)
    cap = s.storage.e_capacity.nj
    now = 2_013_281_208
    e = 11_959_393_539.680122
    p_nw = 400.528691251263 - idle_power(s).nw
    assert p_nw == 400.528691251263 - 770.0
    t = _solve(s, _DEPLETED, e, p_nw, now_us=now)
    assert t == 32_370_950_344_771
    assert _integrate(e, cap, p_nw, t - now)[0] == 0.0
    assert _integrate(e, cap, p_nw, t - 1 - now)[0] > 0.0
@hyp.composite
def _curve_and_exit(draw):
    """An OCV curve with flat segments and 1 uV steps, and an exit a
    valid scenario can hold: its threshold sits above v_empty and at or
    below v_full, often on a knot or a curve end."""
    n = draw(hyp.integers(2, 6))
    inner = sorted(draw(hyp.sets(hyp.floats(0.001, 0.999), min_size=n - 2, max_size=n - 2)))
    socs = [0.0, *inner, 1.0]
    steps = draw(hyp.lists(hyp.sampled_from([0, 1, 2]) | hyp.integers(0, 2_000_000), min_size=n - 1, max_size=n - 1))
    if not any(steps):
        steps[-1] = 1
    uvs = [draw(hyp.integers(1_000_000, 4_000_000))]
    for step in steps:
        uvs.append(uvs[-1] + step)
    segments = tuple((s0, v0, s1, v1) for s0, v0, s1, v1 in zip(socs, uvs, socs[1:], uvs[1:]))
    uv = draw(hyp.sampled_from([uvs[-1], uvs[0] + 1, *uvs[1:]]) | hyp.integers(uvs[0] + 1, uvs[-1]))
    rising = draw(hyp.booleans())
    exit = Exit("probe", max(uv, uvs[0] + 1), rising, NORMAL)
    return segments, draw(hyp.floats(1e3, 1e11)), exit


@given(_curve_and_exit())
@example((  # a segment one ulp of soc wide that climbs 2 uV
    ((0.0, 1_000_000, 0.001, 1_000_000), (0.001, 1_000_000, 0.0010000000000000002, 1_000_002),
     (0.0010000000000000002, 1_000_002, 1.0, 1_000_002)),
    1000.0,
    Exit("probe", 1_000_001, False, NORMAL),
))
def test_onset_energy_is_where_the_guard_switches(case):
    segments, capacity_nj, exit = case
    onset = _onset_nj(segments, capacity_nj, exit)

    def guard(e_nj: float) -> bool:
        return exit.holds(round(_store_uv(segments, e_nj, capacity_nj)))

    assert guard(onset)
    assert not guard(math.nextafter(onset, -math.inf if exit.rising else math.inf))


# A tiny store under 10 mW: it climbs ~5 uV per us towards v_ovch.
FAST_FILL = """
schema_version: 1
pmic:
  v_chrdy: 3.3V
  v_ovch: 4V
  v_ovch_hysteresis: 50mV
storage:
  capacity: 0.0001mAh
harvester:
  calibration:
    - [1lux, 10mW]
touch:
  press_times: [1ms]
light_timeline:
  - [0us, 1lux]
  - [1ms, 1lux]
sim:
  duration: 1s
"""


def test_advance_to_rejects_time_running_backwards(monkeypatch):
    # At 1 ms a touch and a light change dispatch, the second after a
    # zero interval, which is fine. The crossing solved after it is
    # patched to land at 999 us, before the clock.
    solve, integrate = engine.find_threshold_crossing, engine._integrate
    solves_at_1ms, intervals = [], []

    def backwards(now_us, *args):
        if now_us == 1_000:
            solves_at_1ms.append(now_us)
            if len(solves_at_1ms) == 2:
                return 999
        return solve(now_us, *args)

    def spy(e_nj, capacity_nj, p_nw, dt_us):
        intervals.append(dt_us)
        return integrate(e_nj, capacity_nj, p_nw, dt_us)

    monkeypatch.setattr(engine, "find_threshold_crossing", backwards)
    monkeypatch.setattr(engine, "_integrate", spy)
    with pytest.raises(SimulationError, match=r"time must not run backwards \(1000 -> 999\)"):
        run(parse_scenario(FAST_FILL))
    # The store was integrated once, from 0 to 1 ms; neither the zero
    # interval nor the refused event moved it.
    assert intervals == [1_000]


def test_a_crossing_solved_early_fails_the_run(monkeypatch):
    # The loop checks each stored-voltage crossing it dispatches: solved
    # 3 us early, ovch_up lands 13 uV short of v_ovch.
    solve = engine.find_threshold_crossing

    def early(now_us, *args):
        t = solve(now_us, *args)
        return t if t is None or t == now_us else t - 3

    run(parse_scenario(FAST_FILL))  # on time, it lands within the store's 5 uV per us
    monkeypatch.setattr(engine, "find_threshold_crossing", early)
    with pytest.raises(SimulationError, match="threshold crossing dispatched 13 uV off target"):
        run(parse_scenario(FAST_FILL))


# -- frozen case-study run --------------------------------------------------


def test_step_running_without_stage2_breaks_an_invariant():
    cap = parse_scenario(ZERO_IDLE).storage.e_capacity.nj
    probe = _Step("probe", 1_000.0, 1_000, 1)
    _check_invariants(probe, stage2(NORMAL, True), 0.5 * cap, cap)  # Stage2 holds: a running step is fine
    with pytest.raises(SimulationError, match="without Stage2"):
        _check_invariants(probe, stage2(NORMAL, False), 0.5 * cap, cap)


def test_a_step_left_running_without_stage2_fails_the_run(case_study, monkeypatch):
    # A Stage2 rule that never reports the rail again after its first
    # rise hides the fall: the next step starts with no Stage2 edge seen.
    real, rises = engine.stage2, []

    def rises_once(mode, latch):
        if rises:
            return False
        up = real(mode, latch)
        if up:
            rises.append(mode)
        return up

    monkeypatch.setattr(engine, "stage2", rises_once)
    with pytest.raises(SimulationError, match="load step 'mcu_process' running without Stage2 power"):
        run(case_study)


def test_a_store_outside_its_range_fails_the_run(case_study, monkeypatch):
    monkeypatch.setattr(engine, "_integrate", lambda e_nj, capacity_nj, p_nw, dt_us: (2 * capacity_nj, 0.0, 0.0))
    with pytest.raises(SimulationError, match=r"stored energy \S+ nJ outside \[0, capacity\]"):
        run(case_study)


def test_the_event_budget_ends_a_run(case_study, monkeypatch):
    monkeypatch.setattr(engine, "_MAX_EVENTS", 3)
    with pytest.raises(SimulationError, match="event budget exhausted; scenario is livelocked"):
        run(case_study)


def test_case_study_frozen_numbers(case_study):
    r = run(case_study)
    assert r.duration_us == 603_535_000
    assert r.cycles_completed == 1
    assert len(r.cycles) == 1
    row = r.cycles[0]
    assert row.start_us == 0
    assert row.consumed_nj == pytest.approx(2_146_355.204, abs=1e-6)
    assert row.harvested_nj == pytest.approx(26_040_000.0, abs=1e-6)
    assert row.net_nj == pytest.approx(23_893_644.796, abs=1e-6)
    assert row.end_soc == pytest.approx(0.5001793817176877, rel=1e-12)
    consumed = dict((name, e.nj) for name, e in r.e_consumed)
    assert consumed["always_on"] == pytest.approx(600_155.204, abs=1e-6)
    assert consumed["sensor_sample"] == pytest.approx(1_100_000.0, abs=1e-6)
    assert consumed["mcu_process"] == pytest.approx(46_200.0, abs=1e-6)
    assert consumed["radio_advertise"] == pytest.approx(400_000.0, abs=1e-6)
    assert r.e_consumed_total.nj == pytest.approx(2_146_355.204, abs=1e-6)
    assert r.net_gain.nj == pytest.approx(23_893_644.796, abs=1e-6)
    assert r.e_overcharge_discarded == Energy(0.0)
    assert r.final_mode == "normal"
    assert r.final_soc == pytest.approx(0.5001793817176877, rel=1e-12)
    assert r.anomalies == ()
    # The whole run sits in Normal: residency is the full duration.
    residency = dict((m, d.us) for m, d in r.mode_residency)
    assert residency["normal"] == 603_535_000
    assert sum(residency.values()) == r.duration_us


def test_case_study_burst_timing(case_study):
    r = run(case_study)
    assert r.trace[0].kind == "init"
    assert r.trace[0].mode == "normal"
    assert r.trace[0].v_store_uv == 3_866_667
    steps = [(rec.time_us, rec.note) for rec in r.trace if rec.kind == "load_step_complete"]
    assert [t for t, _ in steps] == [1_500_000, 1_535_000, 3_535_000]
    assert [n.split(";")[0] for _, n in steps] == [
        "step_done=sensor_sample",
        "step_done=mcu_process",
        "step_done=radio_advertise",
    ]
    clears = [rec for rec in r.trace if rec.kind == "mcu_clear_latch"]
    assert len(clears) == 1
    assert clears[0].time_us == 3_535_000
    assert "latch_cleared" in clears[0].note
    assert "alarm_rearmed" in clears[0].note


def test_alarm_rearms_from_clear_not_from_schedule(case_study):
    r = run(case_study)
    alarms = [rec.time_us for rec in r.trace if rec.kind == "rtc_alarm"]
    # Clear at 3.535 s pushes the next alarm to 603.535 s; the original
    # 600 s slot must not fire.
    assert alarms == [0, 603_535_000]


def test_alarm_keeps_fixed_schedule_without_rearm(case_study):
    s = dataclasses.replace(
        case_study, rtc=dataclasses.replace(case_study.rtc, rearm_on_clear=False)
    )
    r = run(s)
    alarms = [rec.time_us for rec in r.trace if rec.kind == "rtc_alarm"]
    assert alarms == [0, 600_000_000]
    clear_notes = [rec.note for rec in r.trace if rec.kind == "mcu_clear_latch"]
    assert all("alarm_rearmed" not in note for note in clear_notes)


def test_replay_is_byte_identical(case_study):
    r1 = run(case_study)
    r2 = run(case_study)
    assert format_trace(r1) == format_trace(r2)
    assert r1 == r2


def test_trace_line_format(case_study):
    text = format_trace(run(case_study))
    assert text.endswith("\n")
    line_re = re.compile(
        r"^\d+ [a-z_]+(?::[a-z_]+)? [a-z_]+ [01] \d+ [0-9]+\.[0-9e+-]+( # \S+)?$"
    )
    for line in text.splitlines():
        assert line_re.match(line), line


def test_readme_lists_every_threshold_cross_label():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.findall(r"`threshold_cross:([a-z_]+)`", readme)
    exits = {e.label for mode_exits in PmicConfig().exits for e in mode_exits}
    assert sorted(listed) == sorted(exits | {_COLD_START.label, _DEPLETED.label})


def test_simultaneous_alarm_and_touch_resolve_alarm_first(case_study):
    s = dataclasses.replace(
        case_study,
        touch=dataclasses.replace(case_study.touch, press_times=(TimePoint(0),)),
    )
    r = run(s)
    assert r.trace[1].kind == "rtc_alarm"
    assert "latch_set=rtc" in r.trace[1].note
    assert r.trace[2].kind == "touch_press"
    assert "latch_set=touch" in r.trace[2].note


# -- dark, depleted, and clamped regimes ------------------------------------


def test_dark_deep_sleep_is_absorbing(case_study):
    s = with_constant_light(with_initial_soc(case_study, 0.02), 0.0)
    r = run(s)
    assert r.final_mode == "deep_sleep"
    assert r.e_store_final == r.e_store_initial
    assert r.e_harvested == Energy(0.0)
    assert r.e_consumed_total == Energy(0.0)
    residency = dict((m, d.us) for m, d in r.mode_residency)
    assert residency["deep_sleep"] == r.duration_us
    ignored = [rec for rec in r.trace if "ignored_unpowered" in rec.note]
    assert len(ignored) == 2  # the alarms at 0 s and 600 s
    assert r.anomalies == ()
    # Cycle rows exist (the alarms flush them) but carry nothing.
    assert all(row.consumed_nj == 0.0 and row.harvested_nj == 0.0 for row in r.cycles)


LIVELOCK = """
schema_version: 1
meta:
  name: dim-start
pmic:
  v_chrdy: 3.3V
  v_ovch: 4V
  v_ovch_hysteresis: 50mV
storage:
  capacity: 0.01mAh
  initial_soc: 0.0
harvester:
  calibration:
    - [10lux, 2000nW]
    - [200lux, 43000nW]
light_timeline:
  - [0us, 15lux]
  - [300s, 200lux]
load_script:
  - name: blink
    duration: 10ms
    energy: 1uJ
dpm_variant:
  kind: software_sleep
  i_sleep: 3uA
sim:
  duration: 650s
"""


def test_depleted_start_holds_until_light_changes():
    r = run(parse_scenario(LIVELOCK))
    assert [a.code for a in r.anomalies] == ["storage_depleted"]
    held = [rec for rec in r.trace if "cold_start_held_until_light_change" in rec.note]
    assert len(held) == 1
    assert held[0].time_us == 0
    # Pinned in deep sleep for exactly the dim phase, then one boot.
    residency = dict((m, d.us) for m, d in r.mode_residency)
    assert residency["deep_sleep"] == 300_000_000
    assert 180_000_000 < residency["wake_up"] < 186_000_000
    assert r.final_mode == "normal"
    assert r.cycles_completed == 1  # the 600 s alarm burst ran to completion
    boots = [rec for rec in r.trace if "mode=wake_up" in rec.note]
    assert len(boots) == 1
    assert boots[0].time_us == 300_000_000


def test_wake_latch_dies_with_the_rail():
    r = run(parse_scenario(LIVELOCK))
    lost = [rec for rec in r.trace if "latch_lost_power" in rec.note]
    # The t=0 alarm latched in WakeUp; depletion wiped it within the
    # same microsecond.
    assert len(lost) == 1
    assert lost[0].time_us == 0
    assert not lost[0].latch_set


def test_overcharge_rejects_surplus(case_study):
    s = with_initial_soc(case_study, 0.999)
    r = run(s)
    assert r.final_mode == "overcharge"
    assert r.e_overcharge_discarded.nj > 0.0
    # Charging is held off, so the store can only have sagged.
    assert r.e_store_final.nj <= r.e_store_initial.nj
    residency = dict((m, d.us) for m, d in r.mode_residency)
    assert residency["overcharge"] == r.duration_us


@pytest.mark.parametrize("lux", [1e12, 1e15, 1e30])
def test_light_that_fills_the_store_within_one_us_runs_to_overcharge(case_study, lux):
    # The overcharge crossing lands wherever the store is after the one
    # us in which it fills, up to v_full, not within 1 uV of v_ovch.
    r = run(with_constant_light(case_study, lux))
    assert r.final_mode == "overcharge"
    assert r.e_overcharge_discarded.nj > 0.0


def test_an_overflowing_ledger_fails_the_run(case_study):
    # 1e300 lux harvests past the float range: the ledger turns to NaN,
    # which must fail the balance check rather than reach a report.
    with pytest.raises(SimulationError, match="out of balance by nan"):
        run(with_constant_light(case_study, 1e300))


def test_a_crossing_dispatched_off_its_onset_raises(case_study):
    s = case_study
    segments, cap = s.storage.ocv_segments, s.storage.e_capacity.nj
    # Normal at 200 lux, ~42 uW net: far under 1 uV per us.
    p_nw = harvest_power(s.harvester, Illuminance(200.0)).nw - idle_power(s).nw
    ovch_up = _exit(s, "ovch_up")
    e = soc_at_uv(segments, ovch_up.uv - 5) * cap
    with pytest.raises(SimulationError, match="dispatched 5 uV off target"):
        _check_landing(ovch_up, round(_v_uv(s, e)), segments, cap, e, p_nw)


def test_a_clear_without_stage2_power_leaves_the_latch_set(case_study):
    # Shutdown keeps the latch logic up but not the compute rail, so a
    # clear issued in it is lost and the latch stays set. In the dark,
    # the store here first reads below v_chrdy on the microsecond the
    # one load step ends: that dispatch drops the node into Shutdown,
    # and the clear the finished script queued arrives without Stage2.
    step = case_study.load_script[0]
    s = with_constant_light(dataclasses.replace(case_study, load_script=(step,), duration=Duration(2_000_000)), 0.0)
    p_nw = idle_power(s).nw + step.power.nw
    e = _onset(s, _exit(s, "chrdy_down")) + p_nw * (step.duration.us - 0.5) / 1e6
    r = run(with_initial_soc(s, e / s.storage.e_capacity.nj))
    rec = next(rec for rec in r.trace if rec.kind == "mcu_clear_latch")
    assert rec.time_us == step.duration.us
    assert (rec.kind, rec.mode, rec.latch_set) == ("mcu_clear_latch", "shutdown", True)
    assert rec.note == "clear_skipped_unpowered"
    assert [a.code for a in r.anomalies] == ["clear_skipped_unpowered"]


def test_marginal_light_recovers_from_shutdown_by_crossing(case_study):
    # 4.83 lux harvests ~48 nW more than the idle drain; the store starts
    # on v_chrdy, so the first burst drops it into Shutdown at once.
    s = dataclasses.replace(
        with_constant_light(with_initial_soc(case_study, 0.05), 4.83), duration=Duration(3_000_000)
    )
    r = run(s)
    entry = next(rec for rec in r.trace if "mode=shutdown" in rec.note)
    recovery = next(rec for rec in r.trace if rec.time_us > entry.time_us and "mode=normal" in rec.note)
    assert entry.time_us == 15_138
    # Recovery comes from the charge-ready crossing, long before the
    # 600 ms grace deadline, after (e_onset - e_entry) / p_net.
    assert recovery.kind == "threshold_cross:chrdy_up"
    assert recovery.time_us == 25_226
    e_onset = soc_at_uv(s.storage.ocv_segments, _exit(s, "chrdy_up").uv - 0.5) * s.storage.e_capacity.nj
    p_net = harvest_power(s.harvester, Illuminance(4.83)).nw - idle_power(s).nw
    assert recovery.time_us - entry.time_us == math.ceil((e_onset - entry.e_store_nj) / p_net * 1e6)


def test_shutdown_runs_its_grace_and_dies(case_study):
    s = with_constant_light(with_initial_soc(case_study, 0.0500001), 0.0)
    r = run(s)
    modes = [rec.mode for rec in r.trace]
    seen = [m for i, m in enumerate(modes) if i == 0 or m != modes[i - 1]]
    assert seen == ["normal", "shutdown", "deep_sleep"]
    shutdowns = [rec for rec in r.trace if "mode=shutdown" in rec.note]
    expiries = [rec for rec in r.trace if rec.kind == "shutdown_grace_expire"]
    assert len(shutdowns) == 1 and len(expiries) == 1
    # The grace window is exactly 600 ms.
    assert expiries[0].time_us - shutdowns[0].time_us == 600_000
    assert [a.code for a in r.anomalies] == ["load_step_aborted"]
    # The aborted step's completion was cancelled with it.
    assert not [rec for rec in r.trace if rec.kind == "load_step_complete"]
    assert r.final_mode == "deep_sleep"
    assert r.cycles_completed == 0
    # Nothing drains after the rails drop.
    last_e = expiries[0].e_store_nj
    assert r.e_store_final.nj == last_e


def test_only_the_last_shutdown_entry_runs_its_grace_window(case_study):
    # Marginal light drops the node into Shutdown and recovers it by
    # crossing five times, then goes out: each recovery cancels the grace
    # window its entry queued, and only the last one expires.
    s = dataclasses.replace(
        with_initial_soc(case_study, 0.05),
        light_timeline=((TimePoint(0), Illuminance(4.83)), (TimePoint(100_000), Illuminance(0.0))),
        duration=Duration(2_000_000),
    )
    r = run(s)
    entries = [rec.time_us for rec in r.trace if "mode=shutdown" in rec.note]
    assert len(entries) == 6 and entries[0] == 15_138 and entries[-1] == 86_889
    expiries = [rec for rec in r.trace if rec.kind == "shutdown_grace_expire"]
    assert [rec.time_us for rec in expiries] == [86_889 + 600_000]
    assert expiries[0].mode == "deep_sleep"


def test_whole_rows_run_from_alarm_to_alarm(case_study):
    # The bundled run ends on the alarm that closes its one cycle.
    assert [(row.start_us, row.whole) for row in run(case_study).cycles] == [(0, True)]
    # Alarms at 60 s, 663.535 s and 1267.07 s: the rows before the first
    # and after the last are not whole.
    s = dataclasses.replace(
        case_study,
        rtc=dataclasses.replace(case_study.rtc, first_alarm=TimePoint(60_000_000)),
        duration=Duration.from_minutes(30),
    )
    rows = [(row.start_us, row.whole) for row in run(s).cycles]
    assert rows == [(0, False), (60_000_000, True), (663_535_000, True), (1_267_070_000, False)]
    # Without re-arming, every alarm is one period after the last.
    fixed = dataclasses.replace(s, rtc=dataclasses.replace(s.rtc, rearm_on_clear=False))
    rows = [(row.start_us, row.whole) for row in run(fixed).cycles]
    assert rows == [(0, False), (60_000_000, True), (660_000_000, True), (1_260_000_000, False)]


def test_empty_script_still_cycles(case_study):
    s = dataclasses.replace(case_study, load_script=())
    r = run(s)
    assert r.cycles_completed == 2  # bursts at 0 s and 600 s
    consumed = dict((name, e.nj) for name, e in r.e_consumed)
    assert set(consumed) == {"always_on"}
    assert consumed["always_on"] > 0.0


def test_idle_power_variants(case_study, case_study_sw):
    assert idle_power(case_study).nw == 994.4
    assert idle_power(case_study_sw).nw == 6600.0


# -- metamorphic relations ------------------------------------------------


def test_touches_while_the_latch_is_set_change_only_the_trace(case_study):
    # The t=0 alarm sets the latch and the burst clears it at 3.535 s.
    touched = dataclasses.replace(
        case_study, touch=dataclasses.replace(case_study.touch, press_times=(TimePoint(1_000_000), TimePoint(2_000_000)))
    )
    base, r = run(case_study), run(touched)
    assert [rec.time_us for rec in r.trace if rec.kind == "touch_press"] == [1_000_000, 2_000_000]

    def fields(rec):
        return rec.time_us, rec.kind, rec.mode, rec.latch_set, rec.v_store_uv, rec.note

    assert [fields(rec) for rec in r.trace if rec.kind != "touch_press"] == [fields(rec) for rec in base.trace]
    # Each extra dispatch splits an integration interval, so the floats
    # agree to rounding, not bit for bit.
    close = pytest.approx
    assert r.e_harvested.nj == close(base.e_harvested.nj, rel=1e-12)
    assert [e.nj for _, e in r.e_consumed] == close([e.nj for _, e in base.e_consumed], rel=1e-12)
    assert r.e_store_final.nj == close(base.e_store_final.nj, rel=1e-12)
    assert [x for row in r.cycles for x in dataclasses.astuple(row)] == close(
        [x for row in base.cycles for x in dataclasses.astuple(row)], rel=1e-12
    )
    assert (r.cycles_completed, r.mode_residency, r.anomalies) == (base.cycles_completed, base.mode_residency, base.anomalies)


def test_more_constant_light_never_harvests_less():
    violations = []
    for seed in range(40):
        s = random_scenario(seed)
        lux = s.light_timeline[0][1].lux
        harvested = [run(with_constant_light(s, lux * k)).e_harvested.nj for k in (0.5, 1.0, 1.5, 2.0)]
        if any(more < less for less, more in zip(harvested, harvested[1:])):
            violations.append((seed, harvested))
    assert violations == []
