"""Hydrogen carrier chains: levelized delivery and storage costs.

A chain moves an annual hydrogen flow through ordered stages (conversion,
transport, optional buffering, reconversion), each with its own capital
basis, fixed opex, process energy and losses. Costs are levelized over the
plant lifetime by discounting both the expense schedule and the delivered
mass, then expressed per kg of hydrogen (or hydrogen content, when the
carrier is used directly) leaving the chain.

Capital is spent in year 0 and the running cost (fixed opex plus process
energy) and the delivered mass are flat over years 1 to N, so the
discounted ratio has a closed form. With A = annuity_factor(dr, N), each
stage costs

    (capex / A + running) / delivered_kg_per_yr

which equals levelized_cost([capex] + [running] * N,
[0] + [delivered] * N, dr), the general schedule form kept as the oracle.

Each breakdown is costed in one walk: `delivery_cost` (and `storage_cost`
over the storage stages) sizes each stage on the medium mass that reaches
it, tracks that mass to the end of the chain, and hands the sized stages
to the one closed-form levelization. The earlier forms, a sizing pass of
its own and a two-pass levelization, are kept in `tests/oracles.py`, and
the walk matches them bit for bit.

Capital bases follow the parameter table: per tonne of annual throughput
for process plants, per vehicle for road transport (fleet sized to the
annual tonnage and route time), per km for pipelines, and per cubic metre
for cryogenic tanks. Road transport's per-km running costs (fuel, crew,
maintenance) are folded into its fixed-opex rate, which is therefore much
larger than the stationary plants' `fixed_opex_rate`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .errors import InputError
from .units import NH3_T_PER_T_H2

VOLUME_BRACKETS_KT = (10.0, 30.0, 50.0, 100.0)


def annuity_factor(dr: float, years: int) -> float:
    """Present value of a unit annual payment over `years` at rate `dr`."""
    if years < 1:
        raise InputError("lifetime must be at least one year")
    # (1 - (1 + dr)^-years) / dr, without the cancellation at small dr
    return -math.expm1(-years * math.log1p(dr)) / dr


def levelized_cost(annual_expense_schedule, annual_energy_schedule, dr: float) -> float:
    """Discounted expenses divided by discounted delivered mass.

    Schedules are indexed from year 0 and must have equal length. The
    result is independent of dr when both schedules are constant.
    """
    exp = list(annual_expense_schedule)
    energy = list(annual_energy_schedule)
    if not exp or len(exp) != len(energy):
        raise InputError("expense and energy schedules must have equal, nonzero length")
    if not any(e > 0 for e in energy):
        raise InputError("energy schedule must contain at least one positive entry")
    if not 0.0 <= dr < 1.0:
        raise InputError(f"discount rate must be in [0, 1), got {dr}")
    disc_exp = sum(v / (1.0 + dr) ** n for n, v in enumerate(exp))
    disc_energy = sum(v / (1.0 + dr) ** n for n, v in enumerate(energy))
    return disc_exp / disc_energy


class StageSpec:
    """One stage of a carrier chain.

    energy_use_mwh_per_t applies per tonne handled, or per tonne per 100 km
    for pipeline transport. loss_rate is a fraction per day in transit or
    storage (boil-off), or per 1000 km for pipeline leakage. payload_t and
    daily_range_km size road transport (per_asset basis); hold_days and
    density_t_per_m3 size storage.
    """

    __slots__ = ("name", "role", "capex_basis", "capex_value", "fixed_opex_rate",
                 "energy_use_mwh_per_t", "loss_rate", "conversion_efficiency",
                 "payload_t", "daily_range_km", "hold_days", "density_t_per_m3")

    def __init__(self, name: str, role: str, capex_basis: str, capex_value: float,
                 fixed_opex_rate: float, energy_use_mwh_per_t: float = 0.0,
                 loss_rate: float = 0.0, conversion_efficiency: float = 1.0,
                 payload_t: float = 0.0, daily_range_km: float = 0.0,
                 hold_days: float = 0.0, density_t_per_m3: float = 0.0):
        if capex_value < 0:
            raise InputError(f"stage {name!r}: capex must be nonnegative")
        if not (fixed_opex_rate >= 0 and energy_use_mwh_per_t >= 0):
            raise InputError(f"stage {name!r}: fixed opex rate and energy use must be "
                             f"nonnegative, got {fixed_opex_rate} and {energy_use_mwh_per_t}")
        if not 0.0 <= loss_rate < 1.0:
            raise InputError(f"stage {name!r}: loss rate must be in [0, 1)")
        if not 0.0 < conversion_efficiency <= 1.0:
            raise InputError(f"stage {name!r}: conversion efficiency must be in (0, 1]")
        if capex_basis == "per_asset" and not (payload_t > 0 and daily_range_km > 0):
            raise InputError(f"stage {name!r}: a per_asset stage needs a positive "
                             f"payload and daily range, got {payload_t} t and "
                             f"{daily_range_km} km")
        if capex_basis == "per_m3" and not density_t_per_m3 > 0:
            raise InputError(f"stage {name!r}: a per_m3 stage needs a positive "
                             f"density, got {density_t_per_m3} t/m3")
        if not hold_days >= 0:
            raise InputError(f"stage {name!r}: hold days must be nonnegative, "
                             f"got {hold_days}")
        self.name = name
        self.role = role
        self.capex_basis = capex_basis
        self.capex_value = capex_value
        self.fixed_opex_rate = fixed_opex_rate
        self.energy_use_mwh_per_t = energy_use_mwh_per_t
        self.loss_rate = loss_rate
        self.conversion_efficiency = conversion_efficiency
        self.payload_t = payload_t
        self.daily_range_km = daily_range_km
        self.hold_days = hold_days
        self.density_t_per_m3 = density_t_per_m3


class CarrierChain:
    """Ordered stages moving hydrogen via one medium: "NH3", "LH2" or
    "GH2_pipeline".

    `builtin_chains` builds every chain, and every stage, from literals:
    the medium, each stage's role and capex basis, and the stage order
    (conversion, transport, storage, reconversion; a pipeline carries
    gaseous hydrogen in one transport stage) are fixed where it is built.
    """

    __slots__ = ("medium", "stages", "storage_stages")

    def __init__(self, medium: str, stages: tuple[StageSpec, ...],
                 storage_stages: tuple[StageSpec, ...] = ()):
        self.medium = medium
        self.stages = stages
        self.storage_stages = storage_stages


class CostQuery:
    """Sizing and financial context for one cost evaluation."""

    __slots__ = ("annual_h2_kt", "distance_km", "storage_days", "dr",
                 "lifetime_years", "electricity_usd_per_mwh", "stored_share")

    def __init__(self, annual_h2_kt: float, distance_km: float, storage_days: float,
                 dr: float, lifetime_years: int, electricity_usd_per_mwh: float,
                 stored_share: float):
        if not annual_h2_kt > 0:
            raise InputError("annual hydrogen volume must be positive")
        if distance_km < 0:
            raise InputError("distance must be nonnegative")
        if storage_days < 0:
            raise InputError("storage days must be nonnegative")
        if not 0.0 < dr < 1.0:
            raise InputError("discount rate must be in (0, 1)")
        if not 0.0 < stored_share <= 1.0:
            raise InputError("stored share must be in (0, 1]")
        if not electricity_usd_per_mwh >= 0:
            raise InputError("electricity price must be nonnegative")
        self.annual_h2_kt = annual_h2_kt
        self.distance_km = distance_km
        self.storage_days = storage_days
        self.dr = dr
        self.lifetime_years = lifetime_years
        self.electricity_usd_per_mwh = electricity_usd_per_mwh
        self.stored_share = stored_share


class StageCost:
    __slots__ = ("name", "role", "usd_per_kg")

    def __init__(self, name: str, role: str, usd_per_kg: float):
        self.name = name
        self.role = role
        self.usd_per_kg = usd_per_kg


class CostBreakdown:
    """Levelized cost split by stage; stage costs sum to the total."""

    __slots__ = ("stages", "total_usd_per_kg")

    def __init__(self, stages: tuple[StageCost, ...], total_usd_per_kg: float):
        self.stages = stages
        self.total_usd_per_kg = total_usd_per_kg


def volume_bracket(volume_kt: float) -> tuple[float, bool]:
    """Nearest tabulated volume bracket and whether clamping occurred."""
    if volume_kt in VOLUME_BRACKETS_KT:
        return volume_kt, False
    nearest = min(VOLUME_BRACKETS_KT, key=lambda b: (abs(b - volume_kt), b))
    return nearest, True


def _transport_fleet(spec: StageSpec, tonnage_per_yr: float, distance_km: float) -> float:
    """Vehicles needed for an annual tonnage over a one-way distance.

    Each vehicle covers its daily range in loaded and empty legs, so it
    completes daily_range / (2 * distance) deliveries per day. Fractional
    fleets keep the levelized cost smooth in volume.
    """
    if distance_km <= 0:
        return 0.0
    deliveries_per_day = spec.daily_range_km / (2.0 * distance_km)
    per_vehicle_t = spec.payload_t * deliveries_per_day * 365.0
    if not per_vehicle_t > 0:   # 2 * distance overflowed, or the quotient underflowed
        raise InputError(f"stage {spec.name!r}: a vehicle completes no delivery "
                         f"over {distance_km} km")
    return tonnage_per_yr / per_vehicle_t


def _levelize(flows: list[tuple[StageSpec, float, float]], delivered_kg_per_yr: float,
              q: CostQuery) -> CostBreakdown:
    """Apply the closed-form cost rule stage by stage.

    Capital is spent in year 0; opex and energy run flat over the lifetime,
    as does the delivered mass, so every stage shares one denominator and
    the breakdown sums exactly to the total.
    """
    if not delivered_kg_per_yr > 0:
        raise InputError("chain delivers no hydrogen")
    annuity = annuity_factor(q.dr, q.lifetime_years)
    price = q.electricity_usd_per_mwh
    costs = []
    stages = []
    for spec, capex, energy in flows:
        # (capex / annuity + fixed opex + process energy) per delivered kg
        cost = ((capex / annuity + (capex * spec.fixed_opex_rate + energy * price))
                / delivered_kg_per_yr)
        costs.append(cost)
        stages.append(StageCost(spec.name, spec.role, cost))
    return CostBreakdown(tuple(stages), sum(costs))


def delivery_cost(chain: CarrierChain, q: CostQuery) -> CostBreakdown:
    """Levelized cost of moving the annual volume over the query distance,
    in USD per kg of hydrogen (content) leaving the chain."""
    if chain.medium == "GH2_pipeline" and q.distance_km <= 0:
        raise InputError("pipeline delivery requires a positive distance")
    mass_t = q.annual_h2_kt * 1000.0   # the medium mass reaching the stage, t/yr
    medium = "H2"
    flows = []   # (spec, capex_usd, energy_mwh_per_yr) per stage
    for spec in chain.stages:
        if spec.role == "conversion":
            if chain.medium == "NH3":   # sized on the ammonia made
                mass_t = basis_mass = mass_t * spec.conversion_efficiency * NH3_T_PER_T_H2
                medium = "NH3"
            else:   # liquefaction keeps the hydrogen mass
                basis_mass = mass_t
                mass_t = mass_t * spec.conversion_efficiency
            capex = spec.capex_value * basis_mass
            energy = spec.energy_use_mwh_per_t * basis_mass
        elif spec.role == "transport":
            if spec.capex_basis == "per_km":
                capex = spec.capex_value * q.distance_km
                energy = spec.energy_use_mwh_per_t * mass_t * q.distance_km / 100.0
                mass_t = mass_t * (1.0 - spec.loss_rate) ** (q.distance_km / 1000.0)
            else:   # per_asset
                capex = spec.capex_value * _transport_fleet(spec, mass_t, q.distance_km)
                energy = spec.energy_use_mwh_per_t * mass_t
                mass_t = mass_t * (1.0 - spec.loss_rate) ** (q.distance_km / spec.daily_range_km)
        elif spec.role == "storage":
            # working buffer sized in days of throughput
            capex = spec.capex_value * (mass_t * spec.hold_days / 365.0)
            energy = 0.0
        else:   # reconversion
            capex = spec.capex_value * mass_t
            energy = spec.energy_use_mwh_per_t * mass_t
            if medium == "NH3":
                mass_t = mass_t / NH3_T_PER_T_H2 * spec.conversion_efficiency
                medium = "H2"
            else:
                mass_t = mass_t * spec.conversion_efficiency
        flows.append((spec, capex, energy))
    h2_out_t = mass_t / NH3_T_PER_T_H2 if medium == "NH3" else mass_t
    return _levelize(flows, h2_out_t * 1000.0, q)


def storage_cost(chain: CarrierChain, q: CostQuery) -> CostBreakdown:
    """Levelized cost of holding the stored share for the query duration.

    The vessel is sized to the stored inventory, the medium is prepared
    once (cooling for ammonia, liquefaction for liquid hydrogen), and the
    holding load covers re-condensing boil-off gas. For liquid hydrogen the
    boil-off is lost instead, so long durations shrink the recovered mass.
    Costs are per kg of hydrogen content recovered from storage.
    """
    if q.storage_days <= 0:
        raise InputError("storage_days must be positive for storage costing")

    mass_t = q.annual_h2_kt * 1000.0 * q.stored_share
    if chain.medium == "NH3":   # the synthesis stage's yield is stored
        mass_t = mass_t * chain.stages[0].conversion_efficiency * NH3_T_PER_T_H2
    flows = []
    for spec in chain.storage_stages:
        if spec.role == "storage":
            if spec.capex_basis == "per_m3":
                capex = spec.capex_value * mass_t / spec.density_t_per_m3
            else:
                capex = spec.capex_value * mass_t
            if spec.energy_use_mwh_per_t > 0:
                # re-condensation duty on the boil-off stream
                boiloff_t_days = mass_t * spec.loss_rate * q.storage_days
                energy = spec.energy_use_mwh_per_t * boiloff_t_days
            else:
                # boil-off is vented: the inventory shrinks instead
                energy = 0.0
                mass_t = mass_t * (1.0 - spec.loss_rate) ** q.storage_days
        else:   # preparation before, or retrieval processing after, the hold
            capex = spec.capex_value * mass_t
            energy = spec.energy_use_mwh_per_t * mass_t
        flows.append((spec, capex, energy))
    h2_out_t = mass_t / NH3_T_PER_T_H2 if chain.medium == "NH3" else mass_t
    return _levelize(flows, h2_out_t * 1000.0, q)


def _bracket_key(stem: str, volume_kt: float) -> str:
    """The key of a capex tabulated per volume bracket, as "reformer_capex_100kt"."""
    return f"{stem}_{int(volume_kt)}kt"


# Each key that `default_query` and `builtin_chains` read, with its unit:
# every carrier parameter file is checked against it.
CARRIER_SCHEMA: dict[str, str] = {
    "wacc": "fraction",
    "lifetime_years": "yr",
    "fixed_opex_rate": "fraction_per_yr",
    "electricity_usd_per_mwh": "USD_per_MWh",
    "nh3_plant_capex_usd_per_t": "USD_per_t_yr",
    "nh3_synthesis_energy_mwh_per_t": "MWh_per_t",
    "nh3_synthesis_conversion": "fraction",
    "nh3_reform_energy_mwh_per_t": "MWh_per_t",
    "nh3_reform_conversion": "fraction",
    "nh3_cooling_energy_mwh_per_t": "MWh_per_t",
    "nh3_storage_energy_kwh_per_t_day": "kWh_per_t_day",
    "nh3_vessel_capex_usd_per_t": "USD_per_t",
    "nh3_boiloff_per_day": "fraction_per_day",
    **{_bracket_key("reformer_capex", b): "USD_per_t_yr" for b in VOLUME_BRACKETS_KT},
    "truck_capex_usd": "USD",
    "truck_payload_t": "t",
    "truck_daily_range_km": "km_per_day",
    "truck_opex_rate": "fraction_per_yr",
    "delivery_buffer_days": "days",
    **{_bracket_key("liquefier_capex", b): "USD_per_t_yr" for b in VOLUME_BRACKETS_KT},
    "lh2_liquefaction_energy_mwh_per_t": "MWh_per_t",
    "lh2_regas_energy_kwh_per_t": "kWh_per_t",
    "lh2_boiloff_per_day": "fraction_per_day",
    "lh2_density_t_per_m3": "t_per_m3",
    "lh2_truck_tank_m3": "m3",
    "cryo_tank_capex_usd_per_m3": "USD_per_m3",
    "vaporizer_capex_kusd_per_10kt": "kUSD_per_10kt_yr",
    **{_bracket_key("pipeline_capex_kusd_per_km", b): "kUSD_per_km" for b in VOLUME_BRACKETS_KT},
    "pipeline_energy_mwh_per_t_100km": "MWh_per_t_100km",
    "pipeline_leakage_per_1000km": "fraction_per_1000km",
    "stored_share": "fraction",
}


def default_query(params: Mapping[str, float], annual_h2_kt: float,
                  distance_km: float = 0.0, storage_days: float = 0.0) -> CostQuery:
    """CostQuery with financial context taken from the parameter set."""
    return CostQuery(annual_h2_kt, distance_km, storage_days, float(params["wacc"]),
                     int(float(params["lifetime_years"])),
                     float(params["electricity_usd_per_mwh"]), float(params["stored_share"]))


def builtin_chains(params: Mapping[str, float],
                   annual_h2_kt: float) -> dict[str, CarrierChain]:
    """The four standard chains, with bracketed capex resolved for a volume.

    Volumes outside the tabulated brackets use the nearest bracket
    (`volume_bracket` says which, and whether it clamped). The volume is
    checked where it is priced, by `CostQuery`.
    """
    opex = params["fixed_opex_rate"]
    bracket = volume_bracket(annual_h2_kt)[0]

    plant = StageSpec(
        name="ammonia_plant", role="conversion", capex_basis="per_t_per_yr",
        capex_value=params["nh3_plant_capex_usd_per_t"],
        fixed_opex_rate=opex,
        energy_use_mwh_per_t=params["nh3_synthesis_energy_mwh_per_t"],
        conversion_efficiency=params["nh3_synthesis_conversion"],
    )
    nh3_truck = StageSpec(
        name="truck_transport", role="transport", capex_basis="per_asset",
        capex_value=params["truck_capex_usd"],
        fixed_opex_rate=params["truck_opex_rate"],
        loss_rate=params["nh3_boiloff_per_day"],
        payload_t=params["truck_payload_t"],
        daily_range_km=params["truck_daily_range_km"],
    )
    buffer = StageSpec(
        name="terminal_buffer", role="storage", capex_basis="per_t_per_yr",
        capex_value=params["nh3_vessel_capex_usd_per_t"],
        fixed_opex_rate=opex,
        hold_days=params["delivery_buffer_days"],
    )
    cracker = StageSpec(
        name="ammonia_cracker", role="reconversion", capex_basis="per_t_per_yr",
        capex_value=params[_bracket_key("reformer_capex", bracket)], fixed_opex_rate=opex,
        energy_use_mwh_per_t=params["nh3_reform_energy_mwh_per_t"],
        conversion_efficiency=params["nh3_reform_conversion"],
    )
    nh3_storage_stages = (
        StageSpec(
            name="ammonia_cooling", role="conversion", capex_basis="per_t_per_yr",
            capex_value=0.0, fixed_opex_rate=opex,
            energy_use_mwh_per_t=params["nh3_cooling_energy_mwh_per_t"],
        ),
        StageSpec(
            name="ammonia_vessel", role="storage", capex_basis="per_t_per_yr",
            capex_value=params["nh3_vessel_capex_usd_per_t"],
            fixed_opex_rate=opex,
            energy_use_mwh_per_t=params["nh3_storage_energy_kwh_per_t_day"] / 1000.0,
            loss_rate=params["nh3_boiloff_per_day"],
        ),
    )

    liquefier = StageSpec(
        name="liquefier", role="conversion", capex_basis="per_t_per_yr",
        capex_value=params[_bracket_key("liquefier_capex", bracket)], fixed_opex_rate=opex,
        energy_use_mwh_per_t=params["lh2_liquefaction_energy_mwh_per_t"],
    )
    lh2_density = params["lh2_density_t_per_m3"]
    lh2_truck = StageSpec(
        name="cryo_truck_transport", role="transport", capex_basis="per_asset",
        capex_value=(params["truck_capex_usd"]
                     + params["cryo_tank_capex_usd_per_m3"] * params["lh2_truck_tank_m3"]),
        fixed_opex_rate=params["truck_opex_rate"],
        loss_rate=params["lh2_boiloff_per_day"],
        payload_t=params["lh2_truck_tank_m3"] * lh2_density,
        daily_range_km=params["truck_daily_range_km"],
    )
    vaporizer = StageSpec(
        name="vaporizer", role="reconversion", capex_basis="per_t_per_yr",
        capex_value=params["vaporizer_capex_kusd_per_10kt"] * 1000.0 / 10_000.0,
        fixed_opex_rate=opex,
        energy_use_mwh_per_t=params["lh2_regas_energy_kwh_per_t"] / 1000.0,
    )
    lh2_storage_stages = (
        liquefier,
        StageSpec(
            name="cryo_tank", role="storage", capex_basis="per_m3",
            capex_value=params["cryo_tank_capex_usd_per_m3"],
            fixed_opex_rate=opex,
            loss_rate=params["lh2_boiloff_per_day"],
            density_t_per_m3=lh2_density,
        ),
        vaporizer,
    )

    pipeline = StageSpec(
        name="pipeline_transport", role="transport", capex_basis="per_km",
        capex_value=params[_bracket_key("pipeline_capex_kusd_per_km", bracket)] * 1000.0,
        fixed_opex_rate=opex,
        energy_use_mwh_per_t=params["pipeline_energy_mwh_per_t_100km"],
        loss_rate=params["pipeline_leakage_per_1000km"],
    )

    return {
        "NH3_with_crack": CarrierChain(
            medium="NH3", stages=(plant, nh3_truck, buffer, cracker),
            storage_stages=nh3_storage_stages),
        "NH3_direct": CarrierChain(
            medium="NH3", stages=(plant, nh3_truck, buffer),
            storage_stages=nh3_storage_stages),
        "LH2": CarrierChain(
            medium="LH2", stages=(liquefier, lh2_truck, vaporizer),
            storage_stages=lh2_storage_stages),
        "pipeline": CarrierChain(
            medium="GH2_pipeline", stages=(pipeline,)),
    }
