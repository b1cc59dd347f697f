"""Unit-aware quantities and the fixed conversion constants every model uses.

Only the dimensions the analyses actually need are covered (energy, mass,
money and a handful of ratio units). All conversions are exact linear
factors against a per-dimension base unit, so round trips and composed
conversions agree to machine precision.
"""

from __future__ import annotations

import math

from .errors import DimensionError, InputError

# Definitional energy constants.
TCE_GJ = 29.3076           # 1 tce = 7000 kcal/kg standard coal
TOE_GJ = 41.868
BTU_J = 1055.06
KCAL_J = 4186.8
MWH_GJ = 3.6

# Heating values shared by the carrier, co-firing and scenario models.
# Hydrogen values are standard physical constants kept here as named
# numbers so that every energy-basis choice downstream is auditable.
H2_LHV_GJ_PER_T = 120.0
H2_HHV_GJ_PER_T = 141.8
NH3_LHV_GJ_PER_T = 18.6
COAL_LHV_GJ_PER_T = 5500.0 * KCAL_J / 1e6   # 5500 kcal/kg thermal coal
HEATING_OIL_LHV_GJ_PER_T = TOE_GJ           # shipping fuel, 1 toe per tonne

# Stoichiometry: NH3 is 3/17 hydrogen by mass.
NH3_T_PER_T_H2 = 17.0 / 3.0

# unit tag -> (dimension, factor to the dimension's base unit)
_UNITS: dict[str, tuple[str, float]] = {
    "GJ": ("energy", 1.0),
    "MJ": ("energy", 1e-3),
    "MWh": ("energy", MWH_GJ),
    "kWh": ("energy", MWH_GJ * 1e-3),
    "TWh": ("energy", MWH_GJ * 1e6),
    "tce": ("energy", TCE_GJ),
    "toe": ("energy", TOE_GJ),
    "Btu": ("energy", BTU_J * 1e-9),
    "kBtu": ("energy", BTU_J * 1e-6),
    "kcal": ("energy", KCAL_J * 1e-9),
    "t": ("mass", 1.0),
    "kg": ("mass", 1e-3),
    "kt": ("mass", 1e3),
    "Mt": ("mass", 1e6),
    "USD": ("money", 1.0),
    "kUSD": ("money", 1e3),
    "B_USD": ("money", 1e9),
    "USD_per_t": ("money_per_mass", 1.0),
    "USD_per_kgH2": ("money_per_mass", 1e3),
    "USD_per_tce": ("money_per_energy", 1.0 / TCE_GJ),
    "USD_per_MWh": ("money_per_energy", 1.0 / MWH_GJ),
    "kgCO2_per_MWh": ("emission_intensity", 1.0),
    "kg_per_USD": ("mass_per_money", 1.0),
    "kBtu_per_USD": ("energy_per_money", 1.0),
}

UNIT_TAGS = frozenset(_UNITS)


def dimension_of(unit: str) -> str:
    """Dimension name for a unit tag; raises InputError on unknown tags."""
    try:
        return _UNITS[unit][0]
    except KeyError:
        raise InputError(f"unknown unit tag {unit!r}") from None


class Quantity:
    """A finite numeric value tagged with one unit from the closed set."""

    __slots__ = ("value", "unit")

    def __init__(self, value: float, unit: str):
        if unit not in _UNITS:
            raise InputError(f"unknown unit tag {unit!r}")
        if not math.isfinite(value):
            raise InputError(f"non-finite value {value!r} for unit {unit}")
        self.value = value
        self.unit = unit

    def to(self, target_unit: str) -> "Quantity":
        return convert(self, target_unit)


def convert(q: Quantity, target_unit: str) -> Quantity:
    """Convert a quantity to another unit of the same dimension.

    Raises DimensionError when the units do not share a dimension.
    """
    src_dim, src_factor = _UNITS[q.unit]
    try:
        tgt_dim, tgt_factor = _UNITS[target_unit]
    except KeyError:
        raise InputError(f"unknown unit tag {target_unit!r}") from None
    if src_dim != tgt_dim:
        raise DimensionError(q.unit, target_unit)
    return Quantity(q.value * src_factor / tgt_factor, target_unit)


class FuelSpec:
    """A fuel with its lower heating value (GJ per tonne, i.e. MJ/kg)."""

    __slots__ = ("name", "lhv_gj_per_t")

    def __init__(self, name: str, lhv_gj_per_t: float):
        if lhv_gj_per_t <= 0:
            raise InputError(f"fuel {name!r}: LHV must be positive")
        self.name = name
        self.lhv_gj_per_t = lhv_gj_per_t


FUELS: dict[str, FuelSpec] = {
    "NH3": FuelSpec("NH3", NH3_LHV_GJ_PER_T),
    "H2": FuelSpec("H2", H2_LHV_GJ_PER_T),
    "thermal_coal": FuelSpec("thermal_coal", COAL_LHV_GJ_PER_T),
    "heating_oil": FuelSpec("heating_oil", HEATING_OIL_LHV_GJ_PER_T),
}


def fuel_by_name(name: str) -> FuelSpec:
    try:
        return FUELS[name]
    except KeyError:
        raise InputError(
            f"unknown fuel {name!r}; known fuels: {', '.join(sorted(FUELS))}"
        ) from None


def fuel_energy(mass: Quantity, fuel: FuelSpec) -> Quantity:
    """Chemical energy content of a fuel mass, as GJ (mass x LHV)."""
    mass_t = convert(mass, "t")
    if mass_t.value < 0:
        raise InputError(f"fuel mass must be nonnegative, got {mass_t.value}")
    return Quantity(mass_t.value * fuel.lhv_gj_per_t, "GJ")
