"""Unit conversion and fuel energy checks against definitional constants."""

import math

import pytest

from nh3econ.errors import DimensionError, InputError
from nh3econ.units import (
    FUELS,
    FuelSpec,
    Quantity,
    convert,
    dimension_of,
    fuel_by_name,
    fuel_energy,
    UNIT_TAGS,
)


def test_definitional_constants():
    assert convert(Quantity(1.0, "tce"), "GJ").value == pytest.approx(29.3076, rel=1e-12)
    assert convert(Quantity(1.0, "toe"), "GJ").value == pytest.approx(41.868, rel=1e-12)
    assert convert(Quantity(1.0, "MWh"), "GJ").value == pytest.approx(3.6, rel=1e-12)
    assert convert(Quantity(1.0, "kcal"), "GJ").value == pytest.approx(4186.8e-9, rel=1e-12)
    assert convert(Quantity(1.0, "Btu"), "GJ").value == pytest.approx(1055.06e-9, rel=1e-12)


def test_tce_to_kbtu():
    # 29.3076 GJ over 1.05506 MJ per kBtu = 27778.136 kBtu (27.778 MBtu)
    expected = 29.3076 / (1055.06 * 1e3 / 1e9)
    assert convert(Quantity(1.0, "tce"), "kBtu").value == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(27778.1358, abs=1e-3)


def test_money_and_ratio_units():
    assert convert(Quantity(1.0, "B_USD"), "USD").value == 1e9
    assert convert(Quantity(1.0, "USD_per_kgH2"), "USD_per_t").value == pytest.approx(1000.0)
    # 1 tce = 29.3076/3.6 MWh, so a per-tce price spreads over 8.141 MWh
    per_mwh = convert(Quantity(100.0, "USD_per_tce"), "USD_per_MWh").value
    assert per_mwh == pytest.approx(100.0 * 3.6 / 29.3076, rel=1e-12)


def test_round_trip_all_units():
    for unit in sorted(UNIT_TAGS):
        q = Quantity(1.2345678, unit)
        for target in sorted(UNIT_TAGS):
            if dimension_of(target) != dimension_of(unit):
                continue
            back = convert(convert(q, target), unit)
            assert back.value == pytest.approx(q.value, rel=1e-12)


def test_composition_is_exact():
    q = Quantity(7.25, "GJ")
    direct = convert(q, "kBtu").value
    via_btu = convert(convert(q, "Btu"), "kBtu").value
    assert via_btu == pytest.approx(direct, rel=1e-12)


def test_dimension_mismatch_names_both_units():
    with pytest.raises(DimensionError) as excinfo:
        convert(Quantity(1.0, "GJ"), "t")
    assert "GJ" in str(excinfo.value) and "'t'" in str(excinfo.value)


def test_unknown_unit_rejected():
    with pytest.raises(InputError):
        Quantity(1.0, "furlong")
    with pytest.raises(InputError):
        convert(Quantity(1.0, "GJ"), "parsec")


def test_non_finite_value_rejected():
    with pytest.raises(InputError):
        Quantity(math.inf, "GJ")
    with pytest.raises(InputError):
        Quantity(math.nan, "USD")


def test_fuel_energy_ammonia():
    energy = fuel_energy(Quantity(1.0, "t"), FUELS["NH3"])
    assert energy.unit == "GJ"
    assert energy.value == pytest.approx(18.6, rel=1e-12)


def test_fuel_energy_thermal_coal():
    # 5500 kcal/kg at 4186.8 J/kcal is 23.0274 GJ/t
    energy = fuel_energy(Quantity(1.0, "t"), FUELS["thermal_coal"])
    assert energy.value == pytest.approx(5500 * 4186.8 / 1e6, rel=1e-12)
    assert energy.value == pytest.approx(23.03, abs=5e-3)


def test_fuel_energy_zero_and_mass_units():
    assert fuel_energy(Quantity(0.0, "t"), FUELS["NH3"]).value == 0.0
    kt = fuel_energy(Quantity(1.0, "kt"), FUELS["NH3"]).value
    assert kt == pytest.approx(18.6e3, rel=1e-12)


def test_fuel_energy_rejects_negative_mass():
    with pytest.raises(InputError):
        fuel_energy(Quantity(-1.0, "t"), FUELS["NH3"])


def test_unknown_fuel():
    with pytest.raises(InputError) as excinfo:
        fuel_by_name("peat")
    assert "peat" in str(excinfo.value)


def test_fuel_spec_requires_positive_lhv():
    with pytest.raises(InputError):
        FuelSpec("broken", 0.0)


@pytest.mark.parametrize("cls, args, message", [
    (Quantity, (1.0, "furlong"), "unknown unit tag 'furlong'"),
    (Quantity, (math.inf, "GJ"), "non-finite value inf for unit GJ"),
    (Quantity, (math.nan, "USD"), "non-finite value nan for unit USD"),
    (FuelSpec, ("broken", 0.0), "fuel 'broken': LHV must be positive"),
    (FuelSpec, ("broken", -1.0), "fuel 'broken': LHV must be positive"),
])
def test_record_checks_name_the_problem(cls, args, message):
    with pytest.raises(InputError) as excinfo:
        cls(*args)
    assert str(excinfo.value) == message
