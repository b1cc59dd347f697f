"""Independent oracles shared by the module and acceptance tests.

The LP oracle enumerates every basic solution of the slack form, so it
shares no code path with the simplex implementation it checks. The DEA
oracle states the CCR model in its envelopment form, which `gtfp` scores
through the equivalent ratio form. The carrier oracles are the earlier
forms of `carriers.default_query` (one checked lookup per key), of
`carriers.delivery_cost` and `carriers.storage_cost` (a walk that sizes
every stage, then the levelization as a pass of its own) and of
`carriers._levelize` (a list of costs, then a second pass for the stage
records); the walks also give the hydrogen leaving a chain, which the
mass-balance tests check. The co-firing oracles are the earlier helpers
of `cofiring.evaluate`, one per quantity, each checking the rate, and the
scenario oracles the earlier helpers of `scenarios.demand_breakdown_mt`,
one per sector, each checking its rate; `sector_demand_mt` reads one
sector of the breakdown. The current code must match each of these bit
for bit. The last two recipes check bundled data and published anchors:
the Tibet 2019 CO2 gap fill, and the renewable-generation share that a
given ammonia demand needs. The record helpers at the end let tests
change a few fields of a record built from the bundled dataset, whose
constructors take every dataset value as a required argument.
"""

import inspect
from itertools import combinations

import numpy as np

from nh3econ import carriers, cofiring, lp, scenarios
from nh3econ.errors import InputError
from nh3econ.gtfp import RegionRecord
from nh3econ.units import (HEATING_OIL_LHV_GJ_PER_T, NH3_LHV_GJ_PER_T, NH3_T_PER_T_H2,
                           TCE_GJ)

_BASIS_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _basis_indices(n_total: int, m: int) -> np.ndarray:
    key = (n_total, m)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = np.array(list(combinations(range(n_total), m)))
    return _BASIS_CACHE[key]


def enumerate_lp_minimum(c, a_ub, b_ub) -> float:
    """Exhaustive minimum of min c.x s.t. a_ub x <= b_ub, x >= 0.

    Appends slack columns and evaluates c.x at every nonsingular basic
    feasible solution; for a bounded feasible LP the optimum is attained
    at one of them.
    """
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a_ub.shape
    ext = np.hstack([a_ub, np.eye(m)])
    c_ext = np.concatenate([c, np.zeros(m)])

    idx = _basis_indices(n + m, m)                      # (nb, m)
    mats = ext[:, idx].transpose(1, 0, 2)               # (nb, m, m)
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-10
    xb = np.full((len(idx), m), np.nan)
    if ok.any():
        rhs = np.broadcast_to(b_ub, (int(ok.sum()), m))[..., None]
        xb[ok] = np.linalg.solve(mats[ok], rhs)[..., 0]

    residual = np.abs(np.einsum("bij,bj->bi", mats, np.nan_to_num(xb)) - b_ub).max(axis=1)
    feasible = ok & np.all(xb >= -1e-9, axis=1) & (residual < 1e-7)
    if not feasible.any():
        return float("inf")
    objectives = np.einsum("bj,bj->b", c_ext[idx], np.nan_to_num(xb))
    return float(objectives[feasible].min())


def random_bounded_lp(rng: np.random.Generator):
    """A feasible, bounded random LP with <= 6 variables and <= 8 rows.

    A strictly feasible point constructs the right-hand side, and a
    simplex-sum cap bounds the feasible set.
    """
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 8))
    a = rng.uniform(-1.0, 1.0, (m, n))
    x0 = rng.uniform(0.0, 2.0, n)
    b = a @ x0 + rng.uniform(0.1, 1.0, m)
    c = rng.uniform(-1.0, 1.0, n)
    a = np.vstack([a, np.ones(n)])
    b = np.append(b, x0.sum() + 10.0)
    return c, a, b


def random_regions(rng: np.random.Generator, count: int | None = None) -> list[RegionRecord]:
    """Random strictly positive DMU records for the efficiency model."""
    count = count or int(rng.integers(3, 9))
    records = []
    for i in range(count):
        records.append(RegionRecord(
            name=f"dmu{i}",
            energy_mtce=float(rng.uniform(0.5, 10.0)),
            labour_m=float(rng.uniform(0.5, 10.0)),
            capital_busd=float(rng.uniform(0.5, 10.0)),
            co2_mt=float(rng.uniform(0.5, 10.0)),
            gdp_busd=float(rng.uniform(0.5, 10.0)),
        ))
    return records


def ccr_envelopment_lp(records: list[RegionRecord], i: int) -> lp.LinearProgram:
    """LP for region i: min theta over (theta, lambda_1..lambda_M).

    Input rows demand sum_j lambda_j X_jk <= theta X_ik for each input k,
    the output row demands sum_j lambda_j Y_j >= Y_i, and all variables are
    nonnegative. No explicit theta <= 1 row is needed: lambda = e_i is
    feasible with theta = 1, so the optimum never exceeds 1.
    """
    c = [1.0, *[0.0] * len(records)]
    a_ub = [[-column[i], *column] for column in zip(*(r.inputs for r in records))]
    a_ub.append([0.0, *(-r.gdp_busd for r in records)])
    b_ub = [*[0.0] * len(records[0].inputs), -records[i].gdp_busd]
    return lp.LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub)


def _carrier_param(params, key: str) -> float:
    try:
        return float(params[key])
    except KeyError:
        raise InputError(f"missing carrier parameter {key!r}") from None


def query_per_key(params, annual_h2_kt: float, distance_km: float = 0.0,
                  storage_days: float = 0.0) -> carriers.CostQuery:
    """`default_query` reading each financial key through its own lookup."""
    return carriers.CostQuery(
        annual_h2_kt=annual_h2_kt,
        distance_km=distance_km,
        storage_days=storage_days,
        dr=_carrier_param(params, "wacc"),
        lifetime_years=int(_carrier_param(params, "lifetime_years")),
        electricity_usd_per_mwh=_carrier_param(params, "electricity_usd_per_mwh"),
        stored_share=_carrier_param(params, "stored_share"),
    )


def walk_delivery(chain: carriers.CarrierChain, q: carriers.CostQuery):
    """`delivery_cost`'s walk as a pass of its own: size each stage and
    track the medium mass; returns the (spec, capex, energy) flows and the
    hydrogen-equivalent tonnage leaving the chain."""
    mass_t = q.annual_h2_kt * 1000.0   # current medium mass, t/yr
    medium = "H2"
    flows = []
    for spec in chain.stages:
        if spec.role == "conversion":
            if chain.medium == "NH3":
                out_mass = mass_t * spec.conversion_efficiency * NH3_T_PER_T_H2
                basis_mass = out_mass
                medium = "NH3"
            else:   # liquefaction keeps the hydrogen mass
                out_mass = mass_t * spec.conversion_efficiency
                basis_mass = mass_t
            capex = spec.capex_value * basis_mass
            energy = spec.energy_use_mwh_per_t * basis_mass
        elif spec.role == "transport":
            basis_mass = mass_t
            if spec.capex_basis == "per_km":
                capex = spec.capex_value * q.distance_km
                energy = spec.energy_use_mwh_per_t * basis_mass * q.distance_km / 100.0
                survival = (1.0 - spec.loss_rate) ** (q.distance_km / 1000.0)
            else:   # per_asset
                fleet = carriers._transport_fleet(spec, basis_mass, q.distance_km)
                capex = spec.capex_value * fleet
                energy = spec.energy_use_mwh_per_t * basis_mass
                survival = (1.0 - spec.loss_rate) ** (q.distance_km / spec.daily_range_km)
            out_mass = mass_t * survival
        elif spec.role == "storage":
            # working buffer sized in days of throughput
            capacity_t = mass_t * spec.hold_days / 365.0
            capex = spec.capex_value * capacity_t
            energy = 0.0
            out_mass = mass_t
        else:   # reconversion
            basis_mass = mass_t
            capex = spec.capex_value * basis_mass
            energy = spec.energy_use_mwh_per_t * basis_mass
            if medium == "NH3":
                out_mass = mass_t / NH3_T_PER_T_H2 * spec.conversion_efficiency
                medium = "H2"
            else:
                out_mass = mass_t * spec.conversion_efficiency
        flows.append((spec, capex, energy))
        mass_t = out_mass

    h2_equiv_t = mass_t / NH3_T_PER_T_H2 if medium == "NH3" else mass_t
    return flows, h2_equiv_t


def delivery_two_pass(chain: carriers.CarrierChain,
                      q: carriers.CostQuery) -> carriers.CostBreakdown:
    """`delivery_cost` at a positive distance: the walk, then
    `levelize_two_pass` over its flows."""
    flows, h2_out_t = walk_delivery(chain, q)
    return levelize_two_pass(flows, h2_out_t * 1000.0, q)


def walk_storage(chain: carriers.CarrierChain, q: carriers.CostQuery):
    """`storage_cost`'s walk as a pass of its own: size each storage stage
    on the stored inventory; returns the (spec, capex, energy) flows and the
    hydrogen-equivalent tonnage recovered from storage."""
    stored_h2_t = q.annual_h2_kt * 1000.0 * q.stored_share
    if chain.medium == "NH3":
        mass_t = stored_h2_t * chain.stages[0].conversion_efficiency * NH3_T_PER_T_H2
    else:
        mass_t = stored_h2_t
    flows = []
    for spec in chain.storage_stages:
        energy = spec.energy_use_mwh_per_t * mass_t
        if spec.role != "storage":
            capex = spec.capex_value * mass_t
        else:
            if spec.capex_basis == "per_m3":
                capex = spec.capex_value * mass_t / spec.density_t_per_m3
            else:
                capex = spec.capex_value * mass_t
            if spec.energy_use_mwh_per_t > 0:   # re-condensed boil-off
                energy = spec.energy_use_mwh_per_t * (mass_t * spec.loss_rate * q.storage_days)
            else:   # vented boil-off
                energy = 0.0
                mass_t = mass_t * (1.0 - spec.loss_rate) ** q.storage_days
        flows.append((spec, capex, energy))
    h2_equiv_t = mass_t / NH3_T_PER_T_H2 if chain.medium == "NH3" else mass_t
    return flows, h2_equiv_t


def storage_two_pass(chain: carriers.CarrierChain,
                     q: carriers.CostQuery) -> carriers.CostBreakdown:
    """`storage_cost` at a positive duration: the walk, then
    `levelize_two_pass` over its flows."""
    flows, h2_out_t = walk_storage(chain, q)
    return levelize_two_pass(flows, h2_out_t * 1000.0, q)


def levelize_two_pass(flows, delivered_kg_per_yr: float,
                      q: carriers.CostQuery) -> carriers.CostBreakdown:
    """`_levelize` computing the list of stage costs first, then the records."""
    if not delivered_kg_per_yr > 0:
        raise InputError("chain delivers no hydrogen")
    annuity = carriers.annuity_factor(q.dr, q.lifetime_years)
    price = q.electricity_usd_per_mwh
    costs = [(capex / annuity + (capex * spec.fixed_opex_rate + energy * price))
             / delivered_kg_per_yr for spec, capex, energy in flows]
    stages = tuple([carriers.StageCost(spec.name, spec.role, cost)
                    for (spec, _, _), cost in zip(flows, costs)])
    return carriers.CostBreakdown(stages, sum(costs))


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise InputError(f"co-firing rate must be in [0, 1], got {rate}")


def mixed_fuel_cost(params: cofiring.CofiringParams, rate: float) -> float:
    """Energy-weighted blend price in USD/tce, linear in the rate."""
    _check_rate(rate)
    fe_am = cofiring.ammonia_fuel_price_per_tce(params)
    return fe_am * rate + params.coal_price_usd_per_tce * (1.0 - rate)


def cofired_lcoe(params: cofiring.CofiringParams, rate: float,
                 interpolate_loss: bool = False) -> float:
    """Generation cost at a given rate, USD/MWh: the fuel part at the
    blend price and the lossy consumption, plus the non-fuel part."""
    _check_rate(rate)
    loss = cofiring._efficiency_loss(params, rate, interpolate_loss)
    fc_m = params.coal_consumption_tce_per_mwh / (1.0 - loss)
    fe_m = mixed_fuel_cost(params, rate)
    return fc_m * fe_m + (1.0 - params.fuel_cost_share) * cofiring.base_lcoe(params)


def emission_intensity(params: cofiring.CofiringParams, rate: float) -> float:
    """Stack CO2 per MWh: the ammonia share burns carbon-free."""
    _check_rate(rate)
    return params.base_emission_kg_per_mwh * (1.0 - rate)


def evaluate_by_parts(params: cofiring.CofiringParams, rate: float,
                      interpolate_loss: bool = False) -> cofiring.CofiringResult:
    """`cofiring.evaluate` built from one helper per quantity."""
    fe_m = mixed_fuel_cost(params, rate)
    lcoe_m = cofired_lcoe(params, rate, interpolate_loss)
    emission = emission_intensity(params, rate)
    fe_base = params.coal_price_usd_per_tce
    lcoe_base = cofiring.base_lcoe(params)
    return cofiring.CofiringResult(
        rate=rate,
        mixed_fuel_cost_usd_per_tce=fe_m,
        lcoe_usd_per_mwh=lcoe_m,
        emission_kg_per_mwh=emission,
        fuel_cost_delta=fe_m / fe_base - 1.0,
        lcoe_delta=lcoe_m / lcoe_base - 1.0,
        emission_delta_kg_per_mwh=emission - params.base_emission_kg_per_mwh,
    )


def _check_share(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise InputError(f"{name} must be in [0, 1], got {value}")


def power_sector_demand_mt(d: scenarios.DemandAssumptions, cofire_rate: float) -> float:
    """Ammonia for co-firing a share of coal-power fuel, energy-equivalent."""
    _check_share(cofire_rate, "cofire_rate")
    coal_generation_mwh = d.thermal_gw * 1e3 * d.coal_share * d.coal_hours
    fuel_energy_gj = coal_generation_mwh * d.coal_consumption_tce_per_mwh * TCE_GJ
    return cofire_rate * fuel_energy_gj / NH3_LHV_GJ_PER_T / 1e6


def shipping_demand_mt(d: scenarios.DemandAssumptions, pr: float) -> float:
    """Ammonia replacing a share of shipping heating oil, energy-equivalent."""
    _check_share(pr, "pr")
    oil_energy_gj = d.shipping_fuel_mt * 1e6 * HEATING_OIL_LHV_GJ_PER_T
    return pr * oil_energy_gj / NH3_LHV_GJ_PER_T / 1e6


def mobility_demand_mt(d: scenarios.DemandAssumptions, ur_hrs: float) -> float:
    """Ammonia carrying the hydrogen dispensed by refilling stations.

    The sector's penetration ur_hrs is the product of the station
    utilization rate and the share of station hydrogen arriving as ammonia.
    """
    _check_share(ur_hrs, "ur_hrs")
    h2_t_per_year = d.hrs_count * d.hrs_capacity_kg_per_day * 365.0 / 1e3
    return ur_hrs * h2_t_per_year * NH3_T_PER_T_H2 / 1e6


def ammonia_sector_demand_mt(d: scenarios.DemandAssumptions, pr: float) -> float:
    """Green substitution of conventional ammonia output."""
    _check_share(pr, "pr")
    return pr * d.conventional_ammonia_mt


def demand_by_parts(d: scenarios.DemandAssumptions,
                    level: scenarios.DemandLevel) -> dict[str, float]:
    """`scenarios.demand_breakdown_mt` built from one helper per sector."""
    return {
        "power": power_sector_demand_mt(d, level.pr_power),
        "ammonia": ammonia_sector_demand_mt(d, level.pr_ammonia),
        "shipping": shipping_demand_mt(d, level.pr_shipping),
        "mobility": mobility_demand_mt(d, level.pr_mobility),
    }


def sector_demand_mt(d: scenarios.DemandAssumptions, sector: str, rate: float) -> float:
    """One sector of `scenarios.demand_breakdown_mt`, at a level that sets
    that sector's rate and leaves the other sectors at 0."""
    level = scenarios.DemandLevel(
        sector, **{f"pr_{name}": rate if name == sector else 0.0 for name in scenarios.SECTORS})
    return scenarios.demand_breakdown_mt(d, level)[sector]


def series_cagr(start_value: float, end_value: float, years: int) -> float:
    """Annual average growth rate between two points `years` apart."""
    return (end_value / start_value) ** (1.0 / years) - 1.0


def extrapolate_emission(base_value_mt: float, cagr: float, years: int) -> float:
    """Compound a base emission level forward: base * (1 + cagr)^years."""
    return base_value_mt * (1.0 + cagr) ** years


def gap_fill_emission_2019(gapfill_params) -> float:
    """Tibet's missing 2019 CO2 level (Mt).

    The provincial inventory lacks Tibet after 2014, so its 2019 level is
    extrapolated from the 2014 value with the 2014-2019 national average
    growth rate. Takes the bundled gap-fill parameter mapping.
    """
    cagr = series_cagr(gapfill_params["national_co2_2014_mt"],
                       gapfill_params["national_co2_2019_mt"], 5)
    return extrapolate_emission(gapfill_params["tibet_co2_2014_mt"], cagr, 5)


def required_renewable_share(s: scenarios.SupplyAssumptions, demand_mt: float) -> float:
    """Inverse of `scenarios.supply_capacity_mt`: the share of renewable
    generation that electrolysis needs to meet an ammonia demand."""
    generation_mwh = scenarios.renewable_generation_twh(s) * 1e6
    return demand_mt * 1e6 * s.electricity_mwh_per_t_nh3 / generation_mwh


def replaced(record, **changes):
    """A new record of `record`'s class: its fields, with `changes` applied.
    Every record class names its constructor arguments in `__slots__`."""
    return type(record)(**{**{name: getattr(record, name) for name in record.__slots__},
                           **changes})


def constructor_defaults(cls) -> dict:
    """The default value of each constructor argument that has one."""
    return {name: p.default for name, p in inspect.signature(cls).parameters.items()
            if p.default is not p.empty}
