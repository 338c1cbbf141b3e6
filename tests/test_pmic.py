"""Mode-machine unit tests plus the exhaustive guard-exclusivity sweep."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpmsim.pmic import Mode, PmicConfig, PmicMode, stage2, step_mode
from dpmsim.quantities import Duration, TimePoint, Voltage

CFG = PmicConfig()  # documented defaults: 3.0 V / 3.6 V / 50 mV / 600 ms


def _inp(
    v_store_uv: int,
    v_harv_uv: int = 0,
    p_harv_nw: float = 0.0,
    now_us: int = 0,
) -> tuple[int, int, float, int]:
    """step_mode's plain-number inputs after the mode and config."""
    return (v_store_uv, v_harv_uv, p_harv_nw, now_us)


# -- single transitions -------------------------------------------------


def test_cold_start_needs_both_voltage_and_power():
    ds = PmicMode.deep_sleep()
    assert step_mode(ds, CFG, *_inp(0, 300_000, 2000.0)).mode is Mode.WAKE_UP
    assert step_mode(ds, CFG, *_inp(0, 299_999, 2000.0)).mode is Mode.DEEP_SLEEP
    assert step_mode(ds, CFG, *_inp(0, 300_000, 1999.9)).mode is Mode.DEEP_SLEEP
    # The store level is irrelevant to the cold-start guard.
    assert step_mode(ds, CFG, *_inp(3_600_000, 0, 0.0)).mode is Mode.DEEP_SLEEP


def test_wake_up_to_normal_at_charge_ready():
    wu = PmicMode.wake_up()
    assert step_mode(wu, CFG, *_inp(3_000_000)).mode is Mode.NORMAL
    assert step_mode(wu, CFG, *_inp(2_999_999)).mode is Mode.WAKE_UP


def test_normal_to_overcharge_at_threshold():
    normal = PmicMode.normal()
    assert step_mode(normal, CFG, *_inp(3_600_000)).mode is Mode.OVERCHARGE
    assert step_mode(normal, CFG, *_inp(3_599_999)).mode is Mode.NORMAL


def test_normal_to_shutdown_below_charge_ready():
    normal = PmicMode.normal()
    out = step_mode(normal, CFG, *_inp(2_999_999, now_us=42))
    assert out.mode is Mode.SHUTDOWN
    assert out.grace_deadline == TimePoint(42) + Duration.from_millis(600)
    # Boundary equality belongs to the higher mode: no shutdown at 3.0 V.
    assert step_mode(normal, CFG, *_inp(3_000_000)).mode is Mode.NORMAL


def test_overcharge_exits_through_hysteresis():
    ovch = PmicMode.overcharge()
    exit_uv = 3_600_000 - 50_000
    assert step_mode(ovch, CFG, *_inp(exit_uv)).mode is Mode.NORMAL
    assert step_mode(ovch, CFG, *_inp(exit_uv + 1)).mode is Mode.OVERCHARGE
    # Dropping below v_ovch alone does not leave Overcharge.
    assert step_mode(ovch, CFG, *_inp(3_599_999)).mode is Mode.OVERCHARGE


def test_shutdown_recovery_beats_grace_expiry():
    shut = PmicMode.shutdown(TimePoint(1_000))
    # Both conditions hold at once; recovery wins.
    assert step_mode(shut, CFG, *_inp(3_000_000, now_us=1_000)).mode is Mode.NORMAL
    assert step_mode(shut, CFG, *_inp(2_999_999, now_us=1_000)).mode is Mode.DEEP_SLEEP
    assert step_mode(shut, CFG, *_inp(2_999_999, now_us=999)).mode is Mode.SHUTDOWN


def test_shutdown_mode_carries_its_deadline():
    with pytest.raises(ValueError):
        PmicMode(Mode.SHUTDOWN)
    with pytest.raises(ValueError):
        PmicMode(Mode.NORMAL, TimePoint(5))


def test_config_validation():
    with pytest.raises(ValueError):
        PmicConfig(v_chrdy=Voltage.from_volts(3.6)).validate()
    with pytest.raises(ValueError):
        PmicConfig(v_ovch_hysteresis=Voltage(0)).validate()
    with pytest.raises(ValueError):
        PmicConfig(
            v_chrdy=Voltage.from_volts(3.58), v_ovch_hysteresis=Voltage.from_millivolts(50)
        ).validate()
    with pytest.raises(ValueError):
        PmicConfig(grace_window=Duration(0)).validate()
    CFG.validate()


# -- exhaustive exclusivity sweep ----------------------------------------

_HARVESTER_STATES = (
    (0, 0.0),  # dark
    (300_000, 1_000.0),  # lit but under the cold-start power floor
    (1_200_000, 50_000.0),  # fully lit
)


def _modes_at(deadline: TimePoint):
    return (
        PmicMode.deep_sleep(),
        PmicMode.wake_up(),
        PmicMode.normal(),
        PmicMode.overcharge(),
        PmicMode.shutdown(deadline),
    )


def test_guard_exclusivity_on_1mv_grid():
    """At most one guard fires from any mode, for every millivolt level.

    The sweep covers [0, v_ovch + 100 mV] in 1 mV steps, every harvester
    state, and clock instants on both sides of the grace deadline. The
    latch is not an input of the mode machine. step_mode raises exactly
    when more than one guard fires, so each raise is a violation.
    """
    deadline = TimePoint(500_000)
    violations = []
    for uv in range(0, CFG.v_ovch.uv + 100_000 + 1, 1_000):
        for v_harv, p_harv in _HARVESTER_STATES:
            for now_us in (0, 500_000, 500_001):
                inputs = _inp(uv, v_harv, p_harv, now_us)
                for mode in _modes_at(deadline):
                    try:
                        step_mode(mode, CFG, *inputs)
                    except RuntimeError as exc:
                        violations.append((mode.mode, uv, str(exc)))
    assert violations == []


def test_step_mode_never_raises_on_grid():
    deadline = TimePoint(500_000)
    for uv in range(0, CFG.v_ovch.uv + 100_000 + 1, 1_000):
        inputs = _inp(uv, 1_200_000, 50_000.0, 500_000)
        for mode in _modes_at(deadline):
            step_mode(mode, CFG, *inputs)


# -- the Stage2 rule -------------------------------------------------------


def test_rail_implication_chain():
    for mode in _modes_at(TimePoint(10)):
        for latch in (False, True):
            charged = mode.mode in (Mode.NORMAL, Mode.OVERCHARGE)
            assert stage2(mode.mode, latch) == (charged and latch), (mode.mode, latch)


def test_operating_stage_mapping():
    assert stage2(PmicMode.normal().mode, True)
    assert stage2(PmicMode.overcharge().mode, True)
    assert not stage2(PmicMode.normal().mode, False)
    assert not stage2(PmicMode.overcharge().mode, False)
    assert not stage2(PmicMode.wake_up().mode, True)
    assert not stage2(PmicMode.shutdown(TimePoint(1)).mode, True)
    assert not stage2(PmicMode.deep_sleep().mode, False)


# -- randomized single-step properties ------------------------------------


@st.composite
def _any_inputs(draw):
    return _inp(
        draw(st.integers(min_value=0, max_value=5_000_000)),
        draw(st.integers(min_value=0, max_value=2_000_000)),
        draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
        draw(st.integers(min_value=0, max_value=10**9)),
    )


@given(inputs=_any_inputs(), deadline_us=st.integers(min_value=0, max_value=10**9))
def test_step_moves_along_defined_edges_only(inputs: tuple[int, int, float, int], deadline_us: int):
    allowed = {
        Mode.DEEP_SLEEP: {Mode.DEEP_SLEEP, Mode.WAKE_UP},
        Mode.WAKE_UP: {Mode.WAKE_UP, Mode.NORMAL},
        Mode.NORMAL: {Mode.NORMAL, Mode.OVERCHARGE, Mode.SHUTDOWN},
        Mode.OVERCHARGE: {Mode.OVERCHARGE, Mode.NORMAL},
        Mode.SHUTDOWN: {Mode.SHUTDOWN, Mode.NORMAL, Mode.DEEP_SLEEP},
    }
    for mode in _modes_at(TimePoint(deadline_us)):
        out = step_mode(mode, CFG, *inputs)
        assert out.mode in allowed[mode.mode]
