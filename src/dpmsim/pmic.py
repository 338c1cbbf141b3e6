"""Power-management IC mode machine and the Stage2 gating rule.

The PMIC moves between five modes based on the storage-element voltage,
the harvester state, and a grace timer. Mode plus the hardware wake
latch decide the node's operating stage (see stage2):

  Stage1: only the always-on rail (wake sources and latch logic) is up.
  Stage2: the switched compute rail is additionally up, which requires
          a charged store (Normal or Overcharge) and a set latch.

A mode is a small int that names itself through MODE_NAMES. Each mode's
stored-voltage exits are one table, PmicConfig.exits, indexed by mode and
read by the mode machine and the engine's crossing solver alike. On the
store voltage in whole microvolts, a rising exit holds once v >= uv and
a falling one once v < uv. So a store exactly on v_chrdy or v_ovch is in
the higher mode, and one exactly on v_ovch - hysteresis has left
Overcharge. DeepSleep leaves only by cold start, which reads the
harvester; Shutdown also ends in DeepSleep once its grace window, counted
from the instant it was entered, runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .quantities import Duration, Power, Voltage


# The engine keeps the mode in a local and indexes tables with it.
MODE_NAMES = ("deep_sleep", "wake_up", "normal", "overcharge", "shutdown")
MODES = range(len(MODE_NAMES))
DEEP_SLEEP, WAKE_UP, NORMAL, OVERCHARGE, SHUTDOWN = MODES


class Exit(NamedTuple):
    """A stored-voltage guard that ends a mode and the mode it leads to."""

    label: str
    uv: int
    rising: bool
    to: int

    def holds(self, v_uv: int) -> bool:
        """Does the guard hold at this store voltage, in whole uV?"""
        return v_uv >= self.uv if self.rising else v_uv < self.uv


@dataclass(frozen=True)
class PmicConfig:
    """Threshold and timing parameters of the mode machine.

    The charge-ready and overcharge thresholds are scenario inputs; the
    values below are documented defaults only and the scenario parser
    warns when a file relies on them.
    """

    v_cold_start: Voltage = Voltage.from_millivolts(300)
    p_cold_start: Power = Power.from_microwatts(2.0)
    v_chrdy: Voltage = field(default=Voltage.from_volts(3.0), metadata={"flagged": True})
    v_ovch: Voltage = field(default=Voltage.from_volts(3.6), metadata={"flagged": True})
    v_ovch_hysteresis: Voltage = field(default=Voltage.from_millivolts(50), metadata={"flagged": True})
    grace_window: Duration = Duration.from_millis(600)

    def __post_init__(self) -> None:
        if self.v_chrdy >= self.v_ovch:
            raise ValueError(
                f"v_chrdy ({self.v_chrdy.uv} uV) must be below v_ovch ({self.v_ovch.uv} uV)"
            )
        if self.v_ovch_hysteresis.uv <= 0:
            raise ValueError("v_ovch_hysteresis must be positive")
        if (self.v_ovch - self.v_ovch_hysteresis).uv < self.v_chrdy.uv:
            raise ValueError("hysteresis exit voltage falls below v_chrdy")
        if self.grace_window.us <= 0:
            raise ValueError("grace_window must be positive")

    @cached_property
    def exits(self) -> tuple[tuple[Exit, ...], ...]:
        """Each mode's stored-voltage exits, indexed by mode (see the module docstring)."""
        chrdy_up = Exit("chrdy_up", self.v_chrdy.uv, True, NORMAL)
        return (
            (),  # DEEP_SLEEP
            (chrdy_up,),  # WAKE_UP
            (  # NORMAL
                Exit("ovch_up", self.v_ovch.uv, True, OVERCHARGE),
                Exit("chrdy_down", self.v_chrdy.uv, False, SHUTDOWN),
            ),
            (Exit("ovch_down", (self.v_ovch - self.v_ovch_hysteresis).uv + 1, False, NORMAL),),  # OVERCHARGE
            (chrdy_up,),  # SHUTDOWN
        )


def cold_start(cfg: PmicConfig, v_harvester_uv: int, p_harvester_nw: float) -> bool:
    """DeepSleep's one exit: the harvester alone can start the PMIC."""
    return v_harvester_uv >= cfg.v_cold_start.uv and p_harvester_nw >= cfg.p_cold_start.nw


def step_mode(
    mode: int, entered_us: int, cfg: PmicConfig,
    v_store_uv: int, v_harvester_uv: int, p_harvester_nw: float, now_us: int,
) -> int:
    """Apply at most one mode transition and return the new mode.

    Inputs are plain numbers: the time the current mode was entered and
    the clock in us, store and harvester voltage in uV, harvester power
    in nW. Returns ``mode`` itself when no guard fires. The guards out
    of any one mode are mutually exclusive; callers that need multi-step
    settling (e.g. WakeUp immediately followed by Normal when the store
    is already charged) re-invoke this per step.
    """
    fired = None
    for exit in cfg.exits[mode]:
        if exit.holds(v_store_uv):
            if fired is not None:
                raise RuntimeError(
                    f"guard exclusivity violated from {MODE_NAMES[mode]}: {[fired.label, exit.label]}"
                )
            fired = exit
    if fired is not None:
        return fired.to
    if mode == DEEP_SLEEP:
        if cold_start(cfg, v_harvester_uv, p_harvester_nw):
            return WAKE_UP
    elif mode == SHUTDOWN and now_us - entered_us >= cfg.grace_window.us:
        # Recovery by chrdy_up wins at the boundary instant: the table
        # is read first.
        return DEEP_SLEEP
    return mode


def stage2(mode: int, latch_set: bool) -> bool:
    """Switched compute rail up: a charged store (Normal or Overcharge) and a set latch."""
    return latch_set and (mode == NORMAL or mode == OVERCHARGE)
