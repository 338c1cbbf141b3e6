from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dpmsim.quantities import (
    Current,
    Duration,
    Energy,
    Illuminance,
    Power,
    TimePoint,
    Voltage,
    energy_of,
    power_of,
)


def test_duration_constructors():
    assert Duration.from_millis(600).us == 600_000
    assert Duration.from_minutes(10).us == 600_000_000


def test_duration_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        Duration(1.5)
    with pytest.raises(TypeError):
        Duration(True)


def test_duration_rejects_out_of_range():
    with pytest.raises(OverflowError):
        Duration(2**63)


def test_timepoint_never_negative():
    with pytest.raises(ValueError):
        TimePoint(-1)
    assert TimePoint.zero().us == 0


def test_timepoint_arithmetic():
    # Instants order by their microseconds; sums are taken on plain ints,
    # so adding a Duration to a TimePoint is not defined.
    assert TimePoint(10) < TimePoint(15)
    with pytest.raises(TypeError):
        TimePoint(10) + Duration(5)


def test_voltage_current_conversions():
    assert Voltage.from_volts(3.3).uv == 3_300_000
    assert Voltage.from_millivolts(50).uv == 50_000
    assert Current(452).microamps == 0.452


def test_power_energy_conversions():
    assert Power.from_microwatts(2.0).nw == 2_000.0
    assert Energy.from_joules(1.0).nj == 1e9
    assert Energy(600_155.204).millijoules == pytest.approx(0.600155204)


def test_power_of_is_exact_for_grid_inputs():
    # 2.2 V * 452 nA: the integer product is exact, one rounding total.
    p = power_of(Voltage.from_volts(2.2), Current(452))
    assert p.nw == 994.4
    assert power_of(Voltage.from_volts(2.2), Current(310)).nw == 682.0
    assert power_of(Voltage.from_volts(2.2), Current(3000)).nw == 6600.0


def test_power_of_rejects_negative():
    with pytest.raises(ValueError):
        power_of(Voltage(-1), Current(1))
    with pytest.raises(ValueError):
        power_of(Voltage(1), Current(-1))


def test_energy_of_examples():
    assert energy_of(Power(994.4), Duration.from_minutes(10)).nj == 596_640.0
    assert energy_of(Power(0.0), Duration(10**12)).nj == 0.0
    with pytest.raises(ValueError):
        energy_of(Power(1.0), Duration(-1))


@given(uv=st.integers(min_value=0, max_value=10**7), na=st.integers(min_value=0, max_value=10**9))
@example(uv=9_999_999, na=999_999_999)
def test_power_of_matches_integer_product(uv: int, na: int):
    # power_of promises one rounding of the exact product; (uv * na) / 1e6 rounds twice past 2**53.
    assert power_of(Voltage(uv), Current(na)).nw == float(Fraction(uv * na, 10**6))


@given(a=st.integers(min_value=-(2**40), max_value=2**40), b=st.integers(min_value=-(2**40), max_value=2**40))
def test_duration_addition_is_exact(a: int, b: int):
    assert (Duration(a) + Duration(b)).us == a + b
    assert (Duration(a) - Duration(b)).us == a - b


@given(k=st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_illuminance_orders_like_floats(k: float):
    assert (Illuminance(k) < Illuminance(k + 1.0)) == (k < k + 1.0)


def test_quantities_are_hashable_value_types():
    assert Duration(5) == Duration(5)
    assert len({Voltage(1), Voltage(1), Voltage(2)}) == 2
    assert Energy(1.0) != Energy(2.0)
