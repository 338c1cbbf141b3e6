"""Mode-machine unit tests plus the exhaustive guard-exclusivity sweep."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpmsim.pmic import (
    DEEP_SLEEP,
    MODES,
    NORMAL,
    OVERCHARGE,
    SHUTDOWN,
    WAKE_UP,
    PmicConfig,
    stage2,
    step_mode,
)
from dpmsim.quantities import Duration, Voltage

CFG = PmicConfig()  # documented defaults: 3.0 V / 3.6 V / 50 mV / 600 ms


def _inp(
    v_store_uv: int,
    v_harv_uv: int = 0,
    p_harv_nw: float = 0.0,
    now_us: int = 0,
) -> tuple[int, int, float, int]:
    """step_mode's plain-number inputs after the mode, entry time and config."""
    return (v_store_uv, v_harv_uv, p_harv_nw, now_us)


# -- single transitions -------------------------------------------------


def test_cold_start_needs_both_voltage_and_power():
    ds = DEEP_SLEEP
    assert step_mode(ds, 0, CFG, *_inp(0, 300_000, 2000.0)) == WAKE_UP
    assert step_mode(ds, 0, CFG, *_inp(0, 299_999, 2000.0)) == DEEP_SLEEP
    assert step_mode(ds, 0, CFG, *_inp(0, 300_000, 1999.9)) == DEEP_SLEEP
    # The store level is irrelevant to the cold-start guard.
    assert step_mode(ds, 0, CFG, *_inp(3_600_000, 0, 0.0)) == DEEP_SLEEP


def test_wake_up_to_normal_at_charge_ready():
    wu = WAKE_UP
    assert step_mode(wu, 0, CFG, *_inp(3_000_000)) == NORMAL
    assert step_mode(wu, 0, CFG, *_inp(2_999_999)) == WAKE_UP


def test_normal_to_overcharge_at_threshold():
    normal = NORMAL
    assert step_mode(normal, 0, CFG, *_inp(3_600_000)) == OVERCHARGE
    assert step_mode(normal, 0, CFG, *_inp(3_599_999)) == NORMAL


def test_normal_to_shutdown_below_charge_ready():
    normal = NORMAL
    assert step_mode(normal, 0, CFG, *_inp(2_999_999, now_us=42)) == SHUTDOWN
    # The grace window runs 600 ms from the instant Shutdown is entered.
    assert step_mode(SHUTDOWN, 42, CFG, *_inp(2_999_999, now_us=600_041)) == SHUTDOWN
    assert step_mode(SHUTDOWN, 42, CFG, *_inp(2_999_999, now_us=600_042)) == DEEP_SLEEP
    # Boundary equality belongs to the higher mode: no shutdown at 3.0 V.
    assert step_mode(normal, 0, CFG, *_inp(3_000_000)) == NORMAL


def test_overcharge_exits_through_hysteresis():
    ovch = OVERCHARGE
    exit_uv = 3_600_000 - 50_000
    assert step_mode(ovch, 0, CFG, *_inp(exit_uv)) == NORMAL
    assert step_mode(ovch, 0, CFG, *_inp(exit_uv + 1)) == OVERCHARGE
    # Dropping below v_ovch alone does not leave Overcharge.
    assert step_mode(ovch, 0, CFG, *_inp(3_599_999)) == OVERCHARGE


def test_shutdown_recovery_beats_grace_expiry():
    shut = SHUTDOWN
    # Entered at 400 us, the grace runs out at 600_400 us. Both
    # conditions hold at once there; recovery wins.
    assert step_mode(shut, 400, CFG, *_inp(3_000_000, now_us=600_400)) == NORMAL
    assert step_mode(shut, 400, CFG, *_inp(2_999_999, now_us=600_400)) == DEEP_SLEEP
    assert step_mode(shut, 400, CFG, *_inp(2_999_999, now_us=600_399)) == SHUTDOWN


def test_config_validation():
    with pytest.raises(ValueError):
        PmicConfig(v_chrdy=Voltage.from_volts(3.6))
    with pytest.raises(ValueError):
        PmicConfig(v_ovch_hysteresis=Voltage(0))
    with pytest.raises(ValueError):
        PmicConfig(v_chrdy=Voltage.from_volts(3.58), v_ovch_hysteresis=Voltage.from_millivolts(50))
    with pytest.raises(ValueError):
        PmicConfig(grace_window=Duration(0))
    PmicConfig()


# -- exhaustive exclusivity sweep ----------------------------------------

_HARVESTER_STATES = (
    (0, 0.0),  # dark
    (300_000, 1_000.0),  # lit but under the cold-start power floor
    (1_200_000, 50_000.0),  # fully lit
)

# Every mode is entered at 0; the clock sits before, at the last us of
# and at the end of Shutdown's 600 ms grace window.
_CLOCK = (0, 599_999, 600_000)


def test_guard_exclusivity_on_1mv_grid():
    """At most one guard fires from any mode, for every millivolt level.

    The sweep covers [0, v_ovch + 100 mV] in 1 mV steps, every harvester
    state, and clock instants on both sides of the grace window's end.
    The latch is not an input of the mode machine. step_mode raises
    exactly when more than one guard fires, so each raise is a violation.
    """
    violations = []
    for uv in range(0, CFG.v_ovch.uv + 100_000 + 1, 1_000):
        for v_harv, p_harv in _HARVESTER_STATES:
            for now_us in _CLOCK:
                inputs = _inp(uv, v_harv, p_harv, now_us)
                for mode in MODES:
                    try:
                        step_mode(mode, 0, CFG, *inputs)
                    except RuntimeError as exc:
                        violations.append((mode, uv, str(exc)))
    assert violations == []


def test_step_mode_never_raises_on_grid():
    for uv in range(0, CFG.v_ovch.uv + 100_000 + 1, 1_000):
        inputs = _inp(uv, 1_200_000, 50_000.0, 600_000)
        for mode in MODES:
            step_mode(mode, 0, CFG, *inputs)


# -- the Stage2 rule -------------------------------------------------------


def test_rail_implication_chain():
    for mode in MODES:
        for latch in (False, True):
            charged = mode in (NORMAL, OVERCHARGE)
            assert stage2(mode, latch) == (charged and latch), (mode, latch)


def test_operating_stage_mapping():
    assert stage2(NORMAL, True)
    assert stage2(OVERCHARGE, True)
    assert not stage2(NORMAL, False)
    assert not stage2(OVERCHARGE, False)
    assert not stage2(WAKE_UP, True)
    assert not stage2(SHUTDOWN, True)
    assert not stage2(DEEP_SLEEP, False)


# -- randomized single-step properties ------------------------------------


@st.composite
def _any_inputs(draw):
    return _inp(
        draw(st.integers(min_value=0, max_value=5_000_000)),
        draw(st.integers(min_value=0, max_value=2_000_000)),
        draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
        draw(st.integers(min_value=0, max_value=10**9)),
    )


@given(inputs=_any_inputs(), entered_us=st.integers(min_value=0, max_value=10**9))
def test_step_moves_along_defined_edges_only(inputs: tuple[int, int, float, int], entered_us: int):
    allowed = {
        DEEP_SLEEP: {DEEP_SLEEP, WAKE_UP},
        WAKE_UP: {WAKE_UP, NORMAL},
        NORMAL: {NORMAL, OVERCHARGE, SHUTDOWN},
        OVERCHARGE: {OVERCHARGE, NORMAL},
        SHUTDOWN: {SHUTDOWN, NORMAL, DEEP_SLEEP},
    }
    for mode in MODES:
        assert step_mode(mode, entered_us, CFG, *inputs) in allowed[mode]
