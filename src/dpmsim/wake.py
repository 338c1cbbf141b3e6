"""Wake-source latch and wake trigger bookkeeping.

A touch press or an RTC alarm sets a hardware latch; the compute domain
stays powered for as long as the latch is set, and software clears it
(over I2C or a dedicated disable line) once its work is done. Setting
the latch costs nothing: the always-on drain is the same whether the
latch is set or clear.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .quantities import Current, Duration, TimePoint


class WakeSource(enum.Enum):
    NONE = "none"
    TOUCH = "touch"
    RTC = "rtc"


class ClearVia(enum.Enum):
    I2C_COMMAND = "i2c_command"
    SW_DISABLE_SIGNAL = "sw_disable_signal"


@dataclass(frozen=True)
class ClearCommand:
    via: ClearVia
    at: TimePoint


@dataclass(frozen=True)
class LatchState:
    set: bool
    wake_source: WakeSource
    last_change: TimePoint

    def __post_init__(self) -> None:
        if not self.set and self.wake_source is not WakeSource.NONE:
            raise ValueError("a clear latch cannot carry a wake source")

    @classmethod
    def cleared(cls, at: TimePoint = TimePoint.zero()) -> "LatchState":
        return cls(False, WakeSource.NONE, at)


@dataclass(frozen=True)
class RtcConfig:
    """Periodic alarm stream: first_alarm, then every alarm_period.

    rearm_on_clear instead schedules each next alarm one period after
    the latch clear that ends the woken burst, matching firmware that
    reprograms the alarm at the end of its work.
    """

    alarm_period: Duration = Duration.from_minutes(10)
    first_alarm: TimePoint = TimePoint.zero()
    i_quiescent: Current = Current(45)
    rearm_on_clear: bool = False

    def validate(self) -> None:
        if self.alarm_period.us <= 0:
            raise ValueError("alarm_period must be positive")
        if self.i_quiescent.na < 0:
            raise ValueError("rtc i_quiescent must be non-negative")


@dataclass(frozen=True)
class TouchScript:
    """Scripted press times, strictly increasing."""

    press_times: tuple[TimePoint, ...] = ()
    i_quiescent: Current = Current(65)

    def validate(self) -> None:
        for a, b in zip(self.press_times, self.press_times[1:]):
            if b <= a:
                raise ValueError(f"touch press times must be strictly increasing ({a.us} -> {b.us})")
        if self.i_quiescent.na < 0:
            raise ValueError("touch i_quiescent must be non-negative")


def on_touch(latch: LatchState, t: TimePoint) -> LatchState:
    """Set the latch from a touch press; latest trigger owns the source."""
    if t < latch.last_change:
        raise RuntimeError(f"touch at {t.us} us precedes last latch change {latch.last_change.us} us")
    return LatchState(True, WakeSource.TOUCH, t)


def on_rtc_alarm(latch: LatchState, t: TimePoint, rtc: RtcConfig) -> tuple[LatchState, TimePoint]:
    """Set the latch from an alarm and return the next scheduled alarm."""
    if t < latch.last_change:
        raise RuntimeError(f"alarm at {t.us} us precedes last latch change {latch.last_change.us} us")
    return LatchState(True, WakeSource.RTC, t), t + rtc.alarm_period


def mcu_clear(latch: LatchState, cmd: ClearCommand) -> LatchState:
    """Clear the latch; both clear paths behave identically.

    Clearing an already-clear latch is a no-op the engine reports as an
    anomaly. Power gating (Stage2 active) is the engine's precondition,
    not checked here.
    """
    return LatchState.cleared(cmd.at)
