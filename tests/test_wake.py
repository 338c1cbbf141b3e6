"""Wake trigger configuration tests.

The latch itself is one bool inside the engine; test_engine and the c07
acceptance check cover how triggers, clears and power loss move it.
"""

from __future__ import annotations

import pytest

from dpmsim.energy import AlwaysOnBudget
from dpmsim.quantities import Current, Duration, TimePoint
from dpmsim.wake import RtcConfig, TouchScript


def test_touch_script_must_be_strictly_increasing():
    with pytest.raises(ValueError):
        TouchScript(press_times=(TimePoint(5), TimePoint(5)))
    with pytest.raises(ValueError):
        TouchScript(press_times=(TimePoint(5), TimePoint(4)))
    TouchScript(press_times=(TimePoint(4), TimePoint(5)))
    TouchScript()


def test_quiescent_current_validation():
    with pytest.raises(ValueError):
        RtcConfig(alarm_period=Duration(0))
    # The RTC and touch drains live in the always-on budget only.
    with pytest.raises(ValueError):
        AlwaysOnBudget(i_rtc=Current(-1))
    with pytest.raises(ValueError):
        AlwaysOnBudget(i_touch=Current(-1))
    RtcConfig()
