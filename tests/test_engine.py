"""Event-engine tests: crossing prediction, frozen case-study numbers,
determinism, and the awkward regimes (depletion, overcharge, shutdown)."""

from __future__ import annotations

import dataclasses
import re

import pytest

from dpmsim.engine import (
    CrossKind,
    SimulationError,
    _check_invariants,
    _set_lux,
    _State,
    _Step,
    find_threshold_crossing,
    format_trace,
    idle_power,
    run,
)
from dpmsim.pmic import PmicMode
from dpmsim.quantities import Energy, Illuminance, TimePoint
from dpmsim.scenario import parse_scenario, with_constant_light, with_initial_soc
from dpmsim.wake import LatchState, on_touch

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


def _state(doc: str = ZERO_IDLE) -> _State:
    return _State(parse_scenario(doc))


# -- crossing prediction ---------------------------------------------------


def test_crossing_none_when_power_points_away():
    st = _state()
    st.mode = PmicMode.deep_sleep()  # power split is all zero here
    assert find_threshold_crossing(st, CrossKind.OVCH_UP, 4_000_000) is None
    st.mode = PmicMode.wake_up()  # dark, zero idle: p_net is exactly 0
    st.e_store_nj = 1e6  # just above empty
    assert find_threshold_crossing(st, CrossKind.CHRDY_UP, 3_300_000) is None
    assert find_threshold_crossing(st, CrossKind.DEPLETED, 0) is None


def test_crossing_already_satisfied_returns_now():
    st = _state()
    st.mode = PmicMode.normal()
    st.now = 777
    # soc 0.5 sits at 3.867 V, above the charge-ready target.
    assert find_threshold_crossing(st, CrossKind.CHRDY_UP, 3_300_000) == 777


def test_crossing_charge_time_is_energy_over_power():
    st = _state()
    _set_lux(st, Illuminance(1.0))  # 1000 nW in, nothing out
    st.mode = PmicMode.wake_up()
    e_target = 0.05 * st.e_capacity_nj  # 3.3 V on the default curve
    st.e_store_nj = e_target - 1e6
    t = find_threshold_crossing(st, CrossKind.CHRDY_UP, 3_300_000)
    # 1 mJ short at 1 uW net: one million milliseconds, up to float dust.
    assert abs(t - 1_000_000_000) <= 1
    assert round(st.v_store_float(e_target - 1e6 + 1000.0 * t / 1e6)) >= 3_300_000


def test_crossing_depletion_time_is_exact():
    doc = ZERO_IDLE.replace("i_pmic: 0nA", "i_pmic: 1000nA")
    st = _state(doc)
    st.mode = PmicMode.wake_up()  # dark: drains at exactly 1000 nW
    st.e_store_nj = 1_000_000.0
    assert find_threshold_crossing(st, CrossKind.DEPLETED, 0) == 1_000_000_000


def test_crossing_target_outside_curve_is_rejected():
    st = _state()
    st.mode = PmicMode.normal()
    with pytest.raises(ValueError):
        find_threshold_crossing(st, CrossKind.CHRDY_UP, 2_000_000)


# -- frozen case-study run --------------------------------------------------


def test_step_running_without_stage2_breaks_an_invariant():
    st = _state()
    st.mode = PmicMode.normal()
    st.latch = on_touch(st.latch, TimePoint(0))
    st.active_step = _Step("probe", 1_000.0, 1_000)
    _check_invariants(st)  # Stage2 holds: a running step is fine
    st.latch = LatchState.cleared(TimePoint(0))
    with pytest.raises(SimulationError, match="without Stage2"):
        _check_invariants(st)


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
    assert r.final_mode == "deep_sleep"
    assert r.cycles_completed == 0
    # Nothing drains after the rails drop.
    last_e = expiries[0].e_store_nj
    assert r.e_store_final.nj == last_e


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
