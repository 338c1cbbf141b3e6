"""Unit-tagged scalar types used throughout the simulator.

Time is kept as 64-bit integer microseconds so that event ordering and
interval arithmetic are exact; voltages and currents are integers on a
1 uV / 1 nA grid; power, energy and illuminance are 64-bit floats.
There is no general-purpose unit system here on purpose: six quantities
cover everything the simulator needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NewType

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def _check_i64(value: int, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    if not (_I64_MIN <= value <= _I64_MAX):
        # str() refuses ints past 4,300 digits; give the length instead.
        shown = value if value.bit_length() < 10_000 else f"of {int(math.log10(abs(value))) + 1} digits"
        raise OverflowError(f"{what} {shown} does not fit in 64-bit signed range")
    return value


# A dimensionless share in [0, 1], such as a state of charge. Scenario
# sections annotate it apart from a bare float, which is a charge in mAh.
Fraction = NewType("Fraction", float)


@dataclass(frozen=True, order=True)
class Duration:
    """A signed time interval in whole microseconds."""

    us: int

    def __post_init__(self) -> None:
        _check_i64(self.us, "Duration")

    @classmethod
    def from_millis(cls, ms: int) -> "Duration":
        return cls(ms * 1_000)

    @classmethod
    def from_minutes(cls, m: int) -> "Duration":
        return cls(m * 60_000_000)

    def __add__(self, other: "Duration") -> "Duration":
        if not isinstance(other, Duration):
            return NotImplemented
        return Duration(self.us + other.us)

    def __sub__(self, other: "Duration") -> "Duration":
        if not isinstance(other, Duration):
            return NotImplemented
        return Duration(self.us - other.us)


@dataclass(frozen=True, order=True)
class TimePoint:
    """An absolute simulation time in whole microseconds; never negative."""

    us: int

    def __post_init__(self) -> None:
        _check_i64(self.us, "TimePoint")
        if self.us < 0:
            raise ValueError(f"TimePoint must be non-negative, got {self.us}")

    @classmethod
    def zero(cls) -> "TimePoint":
        return cls(0)


@dataclass(frozen=True, order=True)
class Voltage:
    """Electric potential in whole microvolts."""

    uv: int

    def __post_init__(self) -> None:
        _check_i64(self.uv, "Voltage")

    @classmethod
    def from_millivolts(cls, mv: int) -> "Voltage":
        return cls(mv * 1_000)

    @classmethod
    def from_volts(cls, v: float) -> "Voltage":
        return cls(round(v * 1e6))

    @property
    def volts(self) -> float:
        return self.uv / 1e6

    def __sub__(self, other: "Voltage") -> "Voltage":
        if not isinstance(other, Voltage):
            return NotImplemented
        return Voltage(self.uv - other.uv)


@dataclass(frozen=True, order=True)
class Current:
    """Electric current in whole nanoamps."""

    na: int

    def __post_init__(self) -> None:
        _check_i64(self.na, "Current")

    @property
    def microamps(self) -> float:
        return self.na / 1e3

    def __add__(self, other: "Current") -> "Current":
        if not isinstance(other, Current):
            return NotImplemented
        return Current(self.na + other.na)


@dataclass(frozen=True, order=True)
class Power:
    """Power in nanowatts."""

    nw: float

    @classmethod
    def from_microwatts(cls, uw: float) -> "Power":
        return cls(uw * 1e3)

    @property
    def microwatts(self) -> float:
        return self.nw / 1e3


@dataclass(frozen=True, order=True)
class Energy:
    """Energy in nanojoules."""

    nj: float

    @classmethod
    def from_joules(cls, j: float) -> "Energy":
        return cls(j * 1e9)

    @property
    def millijoules(self) -> float:
        return self.nj / 1e6

    def __add__(self, other: "Energy") -> "Energy":
        if not isinstance(other, Energy):
            return NotImplemented
        return Energy(self.nj + other.nj)


@dataclass(frozen=True, order=True)
class Illuminance:
    """Incident light level in lux."""

    lux: float


def power_of(v: Voltage, i: Current) -> Power:
    """Exact-to-one-rounding product of a voltage and a current.

    uV * nA = 1e-6 nW, and the integer product is exact, so the single
    float division below is the only rounding step.
    """
    if v.uv < 0 or i.na < 0:
        raise ValueError(f"power_of requires non-negative inputs, got {v.uv} uV, {i.na} nA")
    return Power((v.uv * i.na) / 1_000_000)


def energy_of(p: Power, d: Duration) -> Energy:
    """Energy accumulated at constant power over a duration.

    nW * us = 1e-6 nJ; two float roundings total, far inside the 1e-9
    relative tolerance the accounting invariants ask for.
    """
    if d.us < 0:
        raise ValueError(f"energy_of requires a non-negative duration, got {d.us} us")
    return Energy((p.nw * d.us) / 1_000_000)
