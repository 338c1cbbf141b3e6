"""Storage element, harvester calibration, and energy budgeting.

State of charge is tracked in energy terms (nJ). The open-circuit
voltage curve maps state of charge to the voltage the mode machine
compares against its thresholds. The curve is monotone, if maybe flat in
places, so each guard on the rounded voltage switches at a single stored
energy, its onset, which makes exact crossing prediction possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .quantities import Current, Duration, Energy, Fraction, Illuminance, Power, Voltage, energy_of, power_of

# 1 mAh moves 3.6 coulombs; times nominal volts gives the energy equivalent.
_JOULES_PER_MAH_VOLT = 3.6


@dataclass(frozen=True)
class StorageElement:
    """A rechargeable store with a piecewise-linear OCV curve.

    The defaults are the documented values a scenario file may omit.
    """

    capacity_mah: float = field(default=10.0, metadata={"key": "capacity"})
    nominal_voltage: Voltage = Voltage.from_volts(3.7)
    initial_soc: Fraction = 0.5
    ocv_curve: tuple[tuple[Fraction, Voltage], ...] = (
        (0.0, Voltage.from_volts(3.0)),
        (0.1, Voltage.from_volts(3.6)),
        (1.0, Voltage.from_volts(4.2)),
    )

    def __post_init__(self) -> None:
        # Comparisons are phrased so that a NaN fails them.
        if not self.capacity_mah > 0:
            raise ValueError("storage capacity must be positive")
        if self.nominal_voltage.uv <= 0:
            raise ValueError("nominal_voltage must be positive")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ValueError(f"initial_soc must lie in [0, 1], got {self.initial_soc}")
        curve = self.ocv_curve
        if len(curve) < 2 or curve[0][0] != 0.0 or curve[-1][0] != 1.0:
            raise ValueError("ocv_curve must span soc 0 through soc 1")
        for (s0, v0), (s1, v1) in zip(curve, curve[1:]):
            if not s0 < s1:
                raise ValueError(f"ocv_curve soc values must be strictly increasing ({s0} -> {s1})")
            if v1.uv < v0.uv:
                raise ValueError(f"ocv_curve voltages must be non-decreasing ({v0.uv} -> {v1.uv})")

    @property
    def e_capacity(self) -> Energy:
        return Energy.from_joules(self.capacity_mah * _JOULES_PER_MAH_VOLT * self.nominal_voltage.volts)

    @property
    def e_store(self) -> Energy:
        return Energy(self.initial_soc * self.e_capacity.nj)

    @property
    def v_empty(self) -> Voltage:
        return self.ocv_curve[0][1]

    @property
    def v_full(self) -> Voltage:
        return self.ocv_curve[-1][1]

    @property
    def ocv_segments(self) -> tuple[tuple[float, int, float, int], ...]:
        """The OCV curve as plain (soc0, uv0, soc1, uv1) segments."""
        curve = self.ocv_curve
        return tuple((s0, v0.uv, s1, v1.uv) for (s0, v0), (s1, v1) in zip(curve, curve[1:]))


# The cores below work on plain numbers (soc, uV, nJ, nW, us) so the event
# engine can call them per event.


def _ocv_uv(segments: tuple[tuple[float, int, float, int], ...], soc: float) -> float:
    for s0, v0, s1, v1 in segments:
        if soc <= s1:
            return v0 + (v1 - v0) * (soc - s0) / (s1 - s0)
    return float(segments[-1][3])


def _store_uv(segments: tuple[tuple[float, int, float, int], ...], e_nj: float, capacity_nj: float) -> float:
    """Terminal voltage in fractional uV for a stored energy, soc clamped to [0, 1]."""
    soc = e_nj / capacity_nj
    if soc < 0.0:
        soc = 0.0
    elif soc > 1.0:
        soc = 1.0
    return _ocv_uv(segments, soc)


def _integrate(e_nj: float, capacity_nj: float, p_nw: float, dt_us: int) -> tuple[float, float, float]:
    """(stored, clipped above capacity, clipped below empty) after dt_us at p_nw.

    The clipped energy is returned rather than lost, so the engine's
    conservation ledger stays exact.
    """
    e_new = e_nj + (p_nw * dt_us) / 1_000_000
    if e_new > capacity_nj:
        return capacity_nj, e_new - capacity_nj, 0.0
    if e_new < 0.0:
        return 0.0, 0.0, -e_new
    return e_new, 0.0, 0.0


@dataclass(frozen=True)
class HarvesterModel:
    """Piecewise-linear lux-to-power calibration with an implicit origin.

    Below the first calibration point the curve runs linearly from
    (0 lux, 0 W); above the last point the final segment extrapolates.
    The open-circuit voltage stands in for the transducer potential the
    cold-start comparator sees; it is a constant whenever light is
    present because the cell voltage saturates far above the cold-start
    minimum at any usable illuminance.
    """

    v_open_circuit: Voltage = Voltage.from_volts(1.2)
    calibration: tuple[tuple[Illuminance, Power], ...] = field(kw_only=True)

    def __post_init__(self) -> None:
        if not self.calibration:
            raise ValueError("harvester calibration needs at least one point")
        prev_lux = 0.0
        prev_nw = 0.0
        for lux, p in self.calibration:
            if not prev_lux < lux.lux < math.inf:  # NaN and infinities fail too
                raise ValueError(f"calibration lux values must be strictly increasing ({prev_lux} -> {lux.lux})")
            if not prev_nw <= p.nw < math.inf:
                raise ValueError(f"calibration power must be non-decreasing ({prev_nw} -> {p.nw} nW)")
            prev_lux, prev_nw = lux.lux, p.nw


def harvest_power(model: HarvesterModel, lux: Illuminance) -> Power:
    """Harvested power at an illuminance level."""
    x = lux.lux
    if x < 0:
        raise ValueError(f"illuminance cannot be negative, got {x}")
    points = [(0.0, 0.0)] + [(l.lux, p.nw) for l, p in model.calibration]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x <= x1:
            return Power(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    x0, y0 = points[-2]
    x1, y1 = points[-1]
    return Power(y1 + (y1 - y0) * (x - x1) / (x1 - x0))


def harvest_voltage(model: HarvesterModel, lux: Illuminance) -> Voltage:
    return model.v_open_circuit if lux.lux > 0 else Voltage(0)


# The ledger's name for the always-on rail's drain; no load step may take it.
ALWAYS_ON_COMPONENT = "always_on"


@dataclass(frozen=True)
class AlwaysOnBudget:
    """Current budget of everything on the always-on rail."""

    i_pmic: Current = Current(200)
    i_rtc: Current = Current(45)
    i_touch: Current = Current(65)
    i_extra_leakage: Current = Current(142)
    rail_voltage: Voltage = Voltage.from_volts(2.2)

    @property
    def total_current(self) -> Current:
        return self.i_pmic + self.i_rtc + self.i_touch + self.i_extra_leakage

    def __post_init__(self) -> None:
        for name in ("i_pmic", "i_rtc", "i_touch", "i_extra_leakage"):
            if getattr(self, name).na < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.rail_voltage.uv <= 0:
            raise ValueError("rail_voltage must be positive")


def always_on_power(budget: AlwaysOnBudget) -> Power:
    return power_of(budget.rail_voltage, budget.total_current)


@dataclass(frozen=True)
class LoadStep:
    """One scripted wake activity drawing a fixed energy over a fixed time."""

    name: str
    duration: Duration
    energy: Energy

    @property
    def power(self) -> Power:
        if self.duration.us == 0:
            return Power(0.0)
        return Power(self.energy.nj / self.duration.us * 1e6)

    def __post_init__(self) -> None:
        if self.duration.us < 0:
            raise ValueError(f"load step {self.name!r} has a negative duration")
        if not 0 <= self.energy.nj < math.inf:  # NaN and infinities fail too
            raise ValueError(f"load step {self.name!r} has negative energy")
        if self.duration.us == 0 and self.energy.nj > 0:
            raise ValueError(f"load step {self.name!r} draws energy over zero time")


def script_duration(script: tuple[LoadStep, ...]) -> Duration:
    total = Duration(0)
    for step in script:
        total = total + step.duration
    return total


def cycle_energy(
    script: tuple[LoadStep, ...],
    budget: AlwaysOnBudget,
    sleep: Duration,
    always_on_energy: Energy | None = None,
) -> Energy:
    """Energy drawn over one wake burst plus the following sleep phase.

    The always-on rail drains for the whole cycle (sleep plus the burst
    itself); that term is computed from the budget unless always_on_energy
    supplies a pre-measured per-cycle figure.
    """
    if sleep.us < 0:
        raise ValueError("sleep duration cannot be negative")
    total = Energy(0.0)
    for step in script:
        total = total + step.energy
    if always_on_energy is None:
        always_on_energy = energy_of(always_on_power(budget), sleep + script_duration(script))
    return total + always_on_energy
