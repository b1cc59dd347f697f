"""2030 green-ammonia supply capacity and sectoral demand model.

Supply converts a share of projected wind and solar generation into
ammonia through electrolysis and synthesis. Demand aggregates four
sectors, each linear in its penetration rate: conventional ammonia
substitution, coal-power co-firing, shipping fuel substitution on an
energy-equivalent basis, and fuel-cell mobility served through hydrogen
refilling stations with ammonia as the carrier. Energy conversions use
the named constants of `units`. Each assumptions class declares in `UNITS`
the keys that its `from_mapping` reads, in constructor order, with units.

`demand_breakdown_mt` computes the four sectors in one pass: `DemandLevel`
has already held each rate in [0, 1], so nothing checks it again. The
earlier helpers, one per sector, each checking its rate, are kept in
`tests/oracles.py`, and the breakdown matches them bit for bit.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import InputError
from .units import (
    H2_HHV_GJ_PER_T,
    HEATING_OIL_LHV_GJ_PER_T,
    MWH_GJ,
    NH3_LHV_GJ_PER_T,
    NH3_T_PER_T_H2,
    TCE_GJ,
)

SECTORS = ("power", "ammonia", "shipping", "mobility")


class SupplyAssumptions:
    """Renewable build-out and conversion-chain efficiencies for 2030."""

    UNITS = {
        "wind_gw": "GW",
        "solar_gw": "GW",
        "wind_hours": "h_per_yr",
        "solar_hours": "h_per_yr",
        "electrolyser_efficiency": "fraction",
        "synthesis_conversion": "fraction",
    }
    __slots__ = tuple(UNITS)

    def __init__(self, wind_gw: float, solar_gw: float, wind_hours: float,
                 solar_hours: float, electrolyser_efficiency: float,
                 synthesis_conversion: float):
        self.wind_gw = wind_gw
        self.solar_gw = solar_gw
        self.wind_hours = wind_hours
        self.solar_hours = solar_hours
        self.electrolyser_efficiency = electrolyser_efficiency
        self.synthesis_conversion = synthesis_conversion
        for name in ("wind_gw", "solar_gw", "wind_hours", "solar_hours"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be nonnegative")
        for name in ("electrolyser_efficiency", "synthesis_conversion"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise InputError(f"{name} must be in (0, 1]")

    @property
    def electricity_mwh_per_t_nh3(self) -> float:
        """Electrolysis power demand per tonne of ammonia produced.

        The hydrogen energy content is taken on its higher heating value:
        that reproduces the model's renewable-share anchors, whereas a
        lower-heating-value basis understates demand.
        """
        mwh_per_t_h2 = (H2_HHV_GJ_PER_T / MWH_GJ) / self.electrolyser_efficiency
        t_h2_per_t_nh3 = (1.0 / NH3_T_PER_T_H2) / self.synthesis_conversion
        return mwh_per_t_h2 * t_h2_per_t_nh3

    @classmethod
    def from_mapping(cls, params: Mapping[str, float]) -> "SupplyAssumptions":
        return cls(**{key: params[key] for key in cls.UNITS})


class DemandAssumptions:
    """Sector baselines that the penetration rates act on."""

    UNITS = {
        "conventional_ammonia_mt": "Mt",
        "shipping_fuel_mt": "Mt",
        "thermal_gw": "GW",
        "coal_share": "fraction",
        "coal_hours": "h_per_yr",
        "coal_consumption_tce_per_mwh": "tce_per_MWh",
        "hrs_count": "count",
        "hrs_capacity_kg_per_day": "kg_per_day",
    }
    __slots__ = tuple(UNITS)

    def __init__(self, conventional_ammonia_mt: float, shipping_fuel_mt: float,
                 thermal_gw: float, coal_share: float, coal_hours: float,
                 coal_consumption_tce_per_mwh: float, hrs_count: float,
                 hrs_capacity_kg_per_day: float):
        self.conventional_ammonia_mt = conventional_ammonia_mt
        self.shipping_fuel_mt = shipping_fuel_mt
        self.thermal_gw = thermal_gw
        self.coal_share = coal_share
        self.coal_hours = coal_hours
        self.coal_consumption_tce_per_mwh = coal_consumption_tce_per_mwh
        self.hrs_count = hrs_count
        self.hrs_capacity_kg_per_day = hrs_capacity_kg_per_day
        for name in self.__slots__:
            if name != "coal_share" and not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive")
        if not 0.0 < coal_share <= 1.0:
            raise InputError("coal_share must be in (0, 1]")

    @classmethod
    def from_mapping(cls, params: Mapping[str, float]) -> "DemandAssumptions":
        return cls(**{key: params[key] for key in cls.UNITS})


class SupplyLevel:
    __slots__ = ("name", "renewable_share")

    def __init__(self, name: str, renewable_share: float):
        if not 0.0 <= renewable_share <= 1.0:
            raise InputError(f"supply level {name!r}: share must be in [0, 1]")
        self.name = name
        self.renewable_share = renewable_share


class DemandLevel:
    __slots__ = ("name", "pr_ammonia", "pr_power", "pr_shipping", "pr_mobility")

    def __init__(self, name: str, pr_ammonia: float, pr_power: float,
                 pr_shipping: float, pr_mobility: float):
        values = (pr_ammonia, pr_power, pr_shipping, pr_mobility)
        for field_name, value in zip(self.__slots__[1:], values):
            if not 0.0 <= value <= 1.0:
                raise InputError(
                    f"demand level {name!r}: {field_name} must be in [0, 1]")
        self.name = name
        self.pr_ammonia = pr_ammonia
        self.pr_power = pr_power
        self.pr_shipping = pr_shipping
        self.pr_mobility = pr_mobility


def renewable_generation_twh(s: SupplyAssumptions) -> float:
    """Annual wind plus solar generation: capacity times use hours."""
    return (s.wind_gw * s.wind_hours + s.solar_gw * s.solar_hours) / 1e3


def supply_capacity_mt(s: SupplyAssumptions, renewable_share: float) -> float:
    """Ammonia output if a share of renewable generation feeds electrolysis."""
    if not 0.0 <= renewable_share <= 1.0:
        raise InputError(f"renewable_share must be in [0, 1], got {renewable_share}")
    generation_mwh = renewable_generation_twh(s) * 1e6
    return generation_mwh * renewable_share / s.electricity_mwh_per_t_nh3 / 1e6


def demand_breakdown_mt(d: DemandAssumptions, level: DemandLevel) -> dict[str, float]:
    """Per-sector demand at one level, in Mt, keyed by sector in `SECTORS` order.

    Each sector is its rate, which `DemandLevel` holds in [0, 1], times a
    baseline: power co-fires the fuel energy of the coal fleet and shipping
    replaces heating oil, each energy-equivalent; ammonia substitutes
    conventional output; and mobility carries as ammonia the hydrogen that
    refilling stations dispense, its rate being the station utilization
    times the share of station hydrogen arriving as ammonia.
    """
    coal_fuel_gj = (d.thermal_gw * 1e3 * d.coal_share * d.coal_hours
                    * d.coal_consumption_tce_per_mwh * TCE_GJ)
    oil_energy_gj = d.shipping_fuel_mt * 1e6 * HEATING_OIL_LHV_GJ_PER_T
    h2_t_per_year = d.hrs_count * d.hrs_capacity_kg_per_day * 365.0 / 1e3
    return {
        "power": level.pr_power * coal_fuel_gj / NH3_LHV_GJ_PER_T / 1e6,
        "ammonia": level.pr_ammonia * d.conventional_ammonia_mt,
        "shipping": level.pr_shipping * oil_energy_gj / NH3_LHV_GJ_PER_T / 1e6,
        "mobility": level.pr_mobility * h2_t_per_year * NH3_T_PER_T_H2 / 1e6,
    }


class BalanceRow:
    """One supply-level / demand-level pairing of the balance table."""

    __slots__ = ("supply_level", "demand_level", "supply_mt", "demand_mt",
                 "coverage", "covered")

    def __init__(self, supply_level: str, demand_level: str, supply_mt: float,
                 demand_mt: float, coverage: float, covered: bool):
        self.supply_level = supply_level
        self.demand_level = demand_level
        self.supply_mt = supply_mt
        self.demand_mt = demand_mt
        self.coverage = coverage
        self.covered = covered


def balance_report(s: SupplyAssumptions, d: DemandAssumptions,
                   supply_levels: list[SupplyLevel],
                   demand_levels: list[DemandLevel]) -> list[BalanceRow]:
    """Cross every supply level with every demand level. Coverage is
    supply over demand, so a demand level with no demand is an input error."""
    totals = [(dl, sum(demand_breakdown_mt(d, dl).values())) for dl in demand_levels]
    rows = []
    for sl in supply_levels:
        supply = supply_capacity_mt(s, sl.renewable_share)
        for dl, demand in totals:
            if not demand > 0:
                raise InputError(
                    f"demand level {dl.name!r} has a total demand of {demand} Mt; "
                    "supply coverage needs a positive demand")
            coverage = supply / demand
            rows.append(BalanceRow(
                supply_level=sl.name,
                demand_level=dl.name,
                supply_mt=supply,
                demand_mt=demand,
                coverage=coverage,
                covered=supply >= demand,
            ))
    return rows
