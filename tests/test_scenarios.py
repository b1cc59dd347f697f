"""Supply/demand scenario checks: frozen balances and linearity laws."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nh3econ import data_io, scenarios
from nh3econ.errors import InputError
from oracles import (constructor_defaults, demand_by_parts, replaced, required_renewable_share,
                     sector_demand_mt)

TCE_GJ = 29.3076
TOE_GJ = 41.868


@pytest.fixture(scope="module")
def assumptions():
    params = data_io.load_bundled_params("scenarios")
    return (scenarios.SupplyAssumptions.from_mapping(params),
            scenarios.DemandAssumptions.from_mapping(params))


def test_renewable_generation(assumptions):
    supply, _ = assumptions
    # 780 GW x 2246 h + 840 GW x 1163 h
    assert scenarios.renewable_generation_twh(supply) == pytest.approx(2728.8, rel=1e-12)


def test_renewable_generation_single_source(assumptions):
    supply, _ = assumptions
    solar_only = replaced(supply, wind_gw=0.0)
    assert scenarios.renewable_generation_twh(solar_only) == pytest.approx(976.92, rel=1e-12)
    nothing = replaced(supply, wind_gw=0.0, solar_gw=0.0)
    assert scenarios.renewable_generation_twh(nothing) == 0.0


def test_electricity_per_tonne_calibration(assumptions):
    supply, _ = assumptions
    # (3/17)/0.95 tonnes of hydrogen per tonne of ammonia, HHV basis
    expected = (3.0 / 17.0) / 0.95 * ((141.8 / 3.6) / 0.70)
    assert supply.electricity_mwh_per_t_nh3 == pytest.approx(expected, rel=1e-12)
    ledger = {e.constant: e.value for e in data_io.Dataset().manifest.calibration}
    assert supply.electricity_mwh_per_t_nh3 == pytest.approx(
        ledger["electricity_per_t_nh3_mwh"], abs=1e-6)


def test_supply_capacity(assumptions):
    supply, _ = assumptions
    assert scenarios.supply_capacity_mt(supply, 0.0) == 0.0
    level1 = scenarios.supply_capacity_mt(supply, 0.15)
    expected = 2728.8e6 * 0.15 / supply.electricity_mwh_per_t_nh3 / 1e6
    assert level1 == pytest.approx(expected, rel=1e-12)
    assert level1 == pytest.approx(39.0, abs=1.0)


def test_power_sector_demand(assumptions):
    _, demand = assumptions
    assert sector_demand_mt(demand, "power", 0.0) == 0.0
    at3 = sector_demand_mt(demand, "power", 0.03)
    oracle = 0.03 * (1450e3 * 0.87 * 4000) * 0.31 * TCE_GJ / 18.6 / 1e6
    assert at3 == pytest.approx(oracle, rel=1e-12)
    assert at3 == pytest.approx(73.0, abs=4.0)
    # linearity between the tabulated rates
    at5 = sector_demand_mt(demand, "power", 0.05)
    assert at5 == pytest.approx(at3 * 5.0 / 3.0, rel=1e-12)


def test_shipping_demand(assumptions):
    _, demand = assumptions
    at15 = sector_demand_mt(demand, "shipping", 0.15)
    oracle = 0.15 * 20e6 * TOE_GJ / 18.6 / 1e6
    assert at15 == pytest.approx(oracle, rel=1e-12)
    assert at15 == pytest.approx(6.7, abs=0.3)
    assert sector_demand_mt(demand, "shipping", 0.0) == 0.0
    assert sector_demand_mt(demand, "shipping", 0.03) == pytest.approx(at15 / 5.0, rel=1e-12)


def test_mobility_demand(assumptions):
    _, demand = assumptions
    at80 = sector_demand_mt(demand, "mobility", 0.8)
    oracle = 0.8 * (1000 * 1000 * 365 / 1e3) * (17.0 / 3.0) / 1e6
    assert at80 == pytest.approx(oracle, rel=1e-12)
    assert at80 == pytest.approx(1.6, abs=0.2)
    assert sector_demand_mt(demand, "mobility", 0.0) == 0.0
    assert sector_demand_mt(demand, "mobility", 0.1) == pytest.approx(at80 / 8.0, rel=1e-12)


def test_ammonia_sector_demand(assumptions):
    _, demand = assumptions
    assert sector_demand_mt(demand, "ammonia", 0.5) == pytest.approx(26.0, rel=1e-12)
    assert sector_demand_mt(demand, "ammonia", 0.0) == 0.0
    assert sector_demand_mt(demand, "ammonia", 0.1) == pytest.approx(5.2, rel=1e-12)


def test_required_share_round_trip(assumptions):
    supply, _ = assumptions
    assert required_renewable_share(supply, 0.0) == 0.0
    for demand_mt in (5.0, 73.9, 250.0):
        share = required_renewable_share(supply, demand_mt)
        assert scenarios.supply_capacity_mt(supply, share) == pytest.approx(
            demand_mt, rel=1e-12)
    for share in (0.15, 0.35, 0.65):
        capacity = scenarios.supply_capacity_mt(supply, share)
        assert required_renewable_share(supply, capacity) == pytest.approx(
            share, rel=1e-12)


def test_power_anchor_share(assumptions):
    supply, demand = assumptions
    at3 = sector_demand_mt(demand, "power", 0.03)
    share = required_renewable_share(supply, at3)
    assert share == pytest.approx(0.28, abs=0.03)


def test_demand_linear_homogeneous(assumptions):
    _, demand = assumptions
    for sector in ("shipping", "ammonia", "power", "mobility"):
        assert sector_demand_mt(demand, sector, 0.0) == 0.0
        assert sector_demand_mt(demand, sector, 0.4) == pytest.approx(
            2.0 * sector_demand_mt(demand, sector, 0.2), rel=1e-12)


_RATE = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(factors=st.fixed_dictionaries(
           {key: st.floats(0.5, 1.5) for key in scenarios.DemandAssumptions.UNITS}),
       rates=st.tuples(_RATE, _RATE, _RATE, _RATE))
def test_breakdown_matches_the_per_sector_oracles_bit_for_bit(assumptions, factors, rates):
    _, bundled = assumptions
    scaled = {key: getattr(bundled, key) * factor for key, factor in factors.items()}
    scaled["coal_share"] = min(scaled["coal_share"], 1.0)
    demand = scenarios.DemandAssumptions(**scaled)
    level = scenarios.DemandLevel("drawn", *rates)
    new = scenarios.demand_breakdown_mt(demand, level)
    old = demand_by_parts(demand, level)
    assert [(sector, value.hex()) for sector, value in new.items()] == [
        (sector, value.hex()) for sector, value in old.items()]
    assert sum(new.values()).hex() == sum(old.values()).hex()


def test_sector_ordering_every_level(assumptions):
    _, demand = assumptions
    for level in data_io.Dataset().manifest.demand_levels:
        breakdown = scenarios.demand_breakdown_mt(demand, level)
        assert (breakdown["power"] > breakdown["ammonia"]
                > breakdown["shipping"] > breakdown["mobility"]), level.name


def test_balance_report(assumptions):
    supply, demand = assumptions
    dataset = data_io.Dataset()
    rows = scenarios.balance_report(supply, demand, dataset.manifest.supply_levels,
                                    dataset.manifest.demand_levels)
    assert len(rows) == 15
    by_pair = {(r.supply_level, r.demand_level): r for r in rows}
    first = by_pair[("Level 1", "Level 1")]
    assert first.covered and first.supply_mt >= first.demand_mt
    stretch = by_pair[("Level 3", "Level 5")]
    assert stretch.coverage == pytest.approx(0.64, abs=0.06)
    assert not stretch.covered
    # totals are the sum of the four sector demands
    breakdown = scenarios.demand_breakdown_mt(demand, dataset.manifest.demand_levels[4])
    assert stretch.demand_mt == pytest.approx(sum(breakdown.values()), rel=1e-12)


def test_share_validation(assumptions):
    supply, _ = assumptions
    with pytest.raises(InputError):
        scenarios.supply_capacity_mt(supply, 1.2)
    with pytest.raises(InputError):
        scenarios.DemandLevel("bad", 0.1, 0.1, 0.1, 1.4)
    with pytest.raises(InputError):
        scenarios.SupplyLevel("bad", -0.2)


LEVEL = {"name": "bad", "pr_ammonia": 0.1, "pr_power": 0.1, "pr_shipping": 0.1,
         "pr_mobility": 0.1}


@pytest.mark.parametrize("cls, kwargs, message", [
    *((scenarios.SupplyAssumptions, {name: -1.0}, f"{name} must be nonnegative")
      for name in ("wind_gw", "solar_gw", "wind_hours", "solar_hours")),
    *((scenarios.SupplyAssumptions, {name: value}, f"{name} must be in (0, 1]")
      for name in ("electrolyser_efficiency", "synthesis_conversion")
      for value in (0.0, 1.1)),
    (scenarios.SupplyAssumptions, {"electrolyser_efficiency": math.nan},
     "electrolyser_efficiency must be in (0, 1]"),
    *((scenarios.DemandAssumptions, {name: 0.0}, f"{name} must be positive")
      for name in ("conventional_ammonia_mt", "shipping_fuel_mt", "thermal_gw",
                   "coal_hours", "coal_consumption_tce_per_mwh", "hrs_count",
                   "hrs_capacity_kg_per_day")),
    (scenarios.DemandAssumptions, {"coal_share": 0.0}, "coal_share must be in (0, 1]"),
    (scenarios.DemandAssumptions, {"coal_share": 1.1}, "coal_share must be in (0, 1]"),
    (scenarios.SupplyLevel, {"name": "bad", "renewable_share": -0.2},
     "supply level 'bad': share must be in [0, 1]"),
    (scenarios.SupplyLevel, {"name": "bad", "renewable_share": 1.5},
     "supply level 'bad': share must be in [0, 1]"),
    *((scenarios.DemandLevel, {**LEVEL, name: 1.4},
       f"demand level 'bad': {name} must be in [0, 1]")
      for name in ("pr_ammonia", "pr_power", "pr_shipping", "pr_mobility")),
    (scenarios.DemandLevel, {**LEVEL, "pr_power": -0.1},
     "demand level 'bad': pr_power must be in [0, 1]"),
])
def test_record_checks_name_the_problem(cls, kwargs, message, assumptions):
    # an assumptions record takes the bundled values for the fields not given
    base = next((a for a in assumptions if type(a) is cls), None)
    with pytest.raises(InputError) as excinfo:
        cls(**kwargs) if base is None else replaced(base, **kwargs)
    assert str(excinfo.value) == message


def test_records_keep_field_order_and_defaults():
    supply = scenarios.SupplyAssumptions(1.0, 2.0, 3.0, 4.0, 0.5, 0.6)
    assert (supply.wind_gw, supply.solar_gw, supply.wind_hours, supply.solar_hours,
            supply.electrolyser_efficiency, supply.synthesis_conversion
            ) == (1.0, 2.0, 3.0, 4.0, 0.5, 0.6)
    demand = scenarios.DemandAssumptions(52.0, 20.0, 1450.0, 0.87, 4000.0, 0.31, 1000.0, 500.0)
    assert (demand.conventional_ammonia_mt, demand.shipping_fuel_mt, demand.thermal_gw,
            demand.coal_share, demand.coal_hours, demand.coal_consumption_tce_per_mwh,
            demand.hrs_count, demand.hrs_capacity_kg_per_day) == (
                52.0, 20.0, 1450.0, 0.87, 4000.0, 0.31, 1000.0, 500.0)
    # every value comes from scenarios.csv: no constructor keeps a copy
    for cls in (scenarios.SupplyAssumptions, scenarios.DemandAssumptions,
                scenarios.SupplyLevel, scenarios.DemandLevel):
        assert constructor_defaults(cls) == {}, cls
    level = scenarios.DemandLevel("L", 0.1, 0.2, 0.3, 0.4)
    assert (level.name, level.pr_ammonia, level.pr_power, level.pr_shipping,
            level.pr_mobility) == ("L", 0.1, 0.2, 0.3, 0.4)
