"""Wake trigger configuration: the RTC alarm stream and scripted touches.

A touch press or an RTC alarm sets a one-bit hardware latch; the compute
domain stays powered for as long as the latch is set, and software
clears it once its work is done. The engine holds that bit as a plain
bool and names each trigger in the trace (latch_set=rtc, latch_set=touch).
Setting the latch costs nothing: the always-on drain is the same whether
the latch is set or clear.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quantities import Duration, TimePoint


@dataclass(frozen=True)
class RtcConfig:
    """Periodic alarm stream: first_alarm, then every alarm_period.

    rearm_on_clear instead schedules each next alarm one period after
    the latch clear that ends the woken burst, matching firmware that
    reprograms the alarm at the end of its work.
    """

    alarm_period: Duration = Duration.from_minutes(10)
    first_alarm: TimePoint = TimePoint.zero()
    rearm_on_clear: bool = False

    def __post_init__(self) -> None:
        if self.alarm_period.us <= 0:
            raise ValueError("alarm_period must be positive")


@dataclass(frozen=True)
class TouchScript:
    """Scripted press times, strictly increasing."""

    press_times: tuple[TimePoint, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.press_times, self.press_times[1:]):
            if b <= a:
                raise ValueError(f"touch press times must be strictly increasing ({a.us} -> {b.us})")
