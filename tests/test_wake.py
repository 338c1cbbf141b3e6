"""Wake-source latch and wake trigger bookkeeping tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpmsim.energy import AlwaysOnBudget
from dpmsim.quantities import Current, Duration, TimePoint
from dpmsim.wake import LatchState, RtcConfig, TouchScript, WakeSource, on_rtc_alarm, on_touch


def test_cleared_latch_has_no_source():
    latch = LatchState.cleared()
    assert not latch.set
    assert latch.wake_source is WakeSource.NONE


def test_clear_latch_cannot_carry_a_source():
    with pytest.raises(ValueError):
        LatchState(set=False, wake_source=WakeSource.TOUCH, last_change=TimePoint(0))


def test_touch_sets_latch_and_source():
    latch = on_touch(LatchState.cleared(), TimePoint(10))
    assert latch.set
    assert latch.wake_source is WakeSource.TOUCH
    assert latch.last_change == TimePoint(10)


def test_rtc_alarm_sets_latch_and_schedules_next():
    cfg = RtcConfig()
    latch, next_alarm = on_rtc_alarm(LatchState.cleared(), TimePoint(0), cfg)
    assert latch.set
    assert latch.wake_source is WakeSource.RTC
    assert next_alarm == TimePoint(0) + cfg.alarm_period
    assert cfg.alarm_period == Duration.from_minutes(10)


def test_latest_trigger_owns_the_source():
    latch = on_touch(LatchState.cleared(), TimePoint(5))
    latch, _ = on_rtc_alarm(latch, TimePoint(6), RtcConfig())
    assert latch.wake_source is WakeSource.RTC
    latch = on_touch(latch, TimePoint(7))
    assert latch.wake_source is WakeSource.TOUCH


def test_clear_resets_source():
    latch = on_touch(LatchState.cleared(), TimePoint(5))
    latch = LatchState.cleared(TimePoint(6))
    assert not latch.set
    assert latch.wake_source is WakeSource.NONE
    assert latch.last_change == TimePoint(6)


def test_time_must_not_regress():
    latch = on_touch(LatchState.cleared(), TimePoint(100))
    with pytest.raises(RuntimeError):
        on_touch(latch, TimePoint(99))
    with pytest.raises(RuntimeError):
        on_rtc_alarm(latch, TimePoint(99), RtcConfig())
    # Equal timestamps are allowed: several events can share one instant.
    on_touch(latch, TimePoint(100))


def test_touch_script_must_be_strictly_increasing():
    with pytest.raises(ValueError):
        TouchScript(press_times=(TimePoint(5), TimePoint(5))).validate()
    with pytest.raises(ValueError):
        TouchScript(press_times=(TimePoint(5), TimePoint(4))).validate()
    TouchScript(press_times=(TimePoint(4), TimePoint(5))).validate()
    TouchScript().validate()


def test_quiescent_current_validation():
    with pytest.raises(ValueError):
        RtcConfig(alarm_period=Duration(0)).validate()
    # The RTC and touch drains live in the always-on budget only.
    with pytest.raises(ValueError):
        AlwaysOnBudget(i_rtc=Current(-1)).validate()
    with pytest.raises(ValueError):
        AlwaysOnBudget(i_touch=Current(-1)).validate()
    RtcConfig().validate()


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_event_replay_is_deterministic(seed: int):
    def replay() -> list[tuple[bool, WakeSource, int]]:
        rng = random.Random(seed)
        latch = LatchState.cleared()
        now = 0
        states = []
        for _ in range(40):
            now += rng.randrange(1, 10_000)
            kind = rng.randrange(3)
            if kind == 0:
                latch = on_touch(latch, TimePoint(now))
            elif kind == 1:
                latch, _ = on_rtc_alarm(latch, TimePoint(now), RtcConfig())
            else:
                latch = LatchState.cleared(TimePoint(now))
            states.append((latch.set, latch.wake_source, latch.last_change.us))
        return states

    assert replay() == replay()


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2), st.integers(1, 5_000)),
        min_size=1,
        max_size=60,
    )
)
def test_latch_invariants_under_any_event_stream(events):
    latch = LatchState.cleared()
    now = 0
    for kind, gap in events:
        now += gap
        if kind == 0:
            latch = on_touch(latch, TimePoint(now))
        elif kind == 1:
            latch, _ = on_rtc_alarm(latch, TimePoint(now), RtcConfig())
        else:
            latch = LatchState.cleared(TimePoint(now))
        # The source is recorded exactly when the latch is set.
        assert latch.set == (latch.wake_source is not WakeSource.NONE)
        assert latch.last_change.us <= now
