"""Power-management IC mode machine and the Stage2 gating rule.

The PMIC moves between five modes based on the storage-element voltage,
the harvester state, and a grace timer. Mode plus the hardware wake
latch decide the node's operating stage (see stage2):

  Stage1: only the always-on rail (wake sources and latch logic) is up.
  Stage2: the switched compute rail is additionally up, which requires
          a charged store (Normal or Overcharge) and a set latch.

Threshold comparisons treat boundary equality as belonging to the
higher-energy mode, so a store sitting exactly on a threshold never
oscillates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .quantities import Duration, Power, TimePoint, Voltage


class Mode(enum.Enum):
    DEEP_SLEEP = "deep_sleep"
    WAKE_UP = "wake_up"
    NORMAL = "normal"
    OVERCHARGE = "overcharge"
    SHUTDOWN = "shutdown"


# Enum member lookups go through the enum metaclass; the per-event paths
# compare against these module-level names instead.
_DEEP_SLEEP, _WAKE_UP, _NORMAL, _OVERCHARGE, _SHUTDOWN = Mode


@dataclass(frozen=True)
class PmicMode:
    """Current mode; Shutdown always carries its grace deadline."""

    mode: Mode
    grace_deadline: TimePoint | None = None

    def __post_init__(self) -> None:
        if (self.mode is Mode.SHUTDOWN) != (self.grace_deadline is not None):
            raise ValueError("grace_deadline is carried by Shutdown and only Shutdown")

    @classmethod
    def deep_sleep(cls) -> "PmicMode":
        return cls(Mode.DEEP_SLEEP)

    @classmethod
    def wake_up(cls) -> "PmicMode":
        return cls(Mode.WAKE_UP)

    @classmethod
    def normal(cls) -> "PmicMode":
        return cls(Mode.NORMAL)

    @classmethod
    def overcharge(cls) -> "PmicMode":
        return cls(Mode.OVERCHARGE)

    @classmethod
    def shutdown(cls, deadline: TimePoint) -> "PmicMode":
        return cls(Mode.SHUTDOWN, deadline)


@dataclass(frozen=True)
class PmicConfig:
    """Threshold and timing parameters of the mode machine.

    The charge-ready and overcharge thresholds are scenario inputs; the
    values below are documented defaults only and the scenario parser
    warns when a file relies on them.
    """

    v_cold_start: Voltage = Voltage.from_millivolts(300)
    p_cold_start: Power = Power.from_microwatts(2.0)
    v_chrdy: Voltage = Voltage.from_volts(3.0)
    v_ovch: Voltage = Voltage.from_volts(3.6)
    v_ovch_hysteresis: Voltage = Voltage.from_millivolts(50)
    grace_window: Duration = Duration.from_millis(600)

    def validate(self) -> None:
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


def step_mode(
    current: PmicMode, cfg: PmicConfig, v_store_uv: int, v_harvester_uv: int, p_harvester_nw: float, now_us: int
) -> PmicMode:
    """Apply at most one mode transition and return the new mode.

    Inputs are plain numbers: store and harvester voltage in uV,
    harvester power in nW, the clock in us. Returns ``current`` itself
    when no guard fires. The guards out of any one mode are mutually
    exclusive; callers that need multi-step settling (e.g. WakeUp
    immediately followed by Normal when the store is already charged)
    re-invoke this per step.
    """
    fired = _fired(current, cfg, v_store_uv, v_harvester_uv, p_harvester_nw, now_us)
    if not fired:
        return current
    if len(fired) > 1:
        raise RuntimeError(f"guard exclusivity violated from {current.mode}: {[name for name, _ in fired]}")
    return fired[0][1]


def _fired(
    current: PmicMode, cfg: PmicConfig, v: int, v_harvester_uv: int, p_harvester_nw: float, now_us: int
) -> tuple[tuple[str, PmicMode], ...]:
    """(guard name, next mode) for every transition guard satisfied right now."""
    mode = current.mode
    if mode is _NORMAL:
        fired = ()
        if v >= cfg.v_ovch.uv:
            fired += (("overcharge_enter", PmicMode.overcharge()),)
        if v < cfg.v_chrdy.uv:
            fired += (("shutdown_enter", PmicMode.shutdown(TimePoint(now_us + cfg.grace_window.us))),)
        return fired
    if mode is _DEEP_SLEEP:
        if v_harvester_uv >= cfg.v_cold_start.uv and p_harvester_nw >= cfg.p_cold_start.nw:
            return (("cold_start", PmicMode.wake_up()),)
    elif mode is _WAKE_UP:
        if v >= cfg.v_chrdy.uv:
            return (("charge_ready", PmicMode.normal()),)
    elif mode is _OVERCHARGE:
        if v <= cfg.v_ovch.uv - cfg.v_ovch_hysteresis.uv:
            return (("overcharge_exit", PmicMode.normal()),)
    elif mode is _SHUTDOWN:
        # Recovery wins at the boundary instant; the engine never
        # evaluates a Shutdown mode after its grace deadline has been
        # dispatched, so the two guards stay exclusive via v_store.
        if v >= cfg.v_chrdy.uv:
            return (("shutdown_recover", PmicMode.normal()),)
        if now_us >= current.grace_deadline.us:
            return (("grace_expired", PmicMode.deep_sleep()),)
    return ()


def stage2(mode: Mode, latch_set: bool) -> bool:
    """Switched compute rail up: a charged store (Normal or Overcharge) and a set latch."""
    return latch_set and (mode is _NORMAL or mode is _OVERCHARGE)
