"""Coal/ammonia co-firing economics: blended fuel cost, generation cost,
and emission intensity as functions of the co-firing rate.

The blend is an energy-weighted mix, so fuel prices are compared per tce.
Generation cost splits into a fuel part, which scales with the blended
fuel price and the unit's (slightly degraded) fuel consumption, and a
non-fuel part held constant at its share of the coal-only baseline.

`evaluate` computes a whole row in one pass: it checks the rate once, then
prices the blend, looks up the loss and computes the coal-only cost, the
generation cost and the emission once each. The earlier helpers, one per
quantity, each checking the rate, are kept in `tests/oracles.py`, and
`evaluate` matches them bit for bit.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import InputError, number_text
from .units import TCE_GJ

# Co-firing rates of the standard scenario ladder (base case plus five cases).
STANDARD_RATES = (0.0, 0.03, 0.05, 0.10, 0.15, 0.20)
# The key of the boiler's efficiency loss at each co-fired rate of the ladder.
_LOSS_KEYS = {rate: f"efficiency_loss_{int(rate * 100)}pct" for rate in STANDARD_RATES[1:]}


class CofiringParams:
    """Parameter bundle for the co-firing cost and emission model.

    efficiency_loss maps a co-firing rate to the boiler's fractional
    efficiency loss. `UNITS` declares each key that `from_mapping` reads,
    with its unit; the other keys of cofiring.csv are reference values.
    """

    UNITS = {
        "coal_price_usd_per_tce": "USD_per_tce",
        "ammonia_production_cost_usd_per_t": "USD_per_t",
        "gross_margin": "fraction",
        "lhv_nh3_gj_per_t": "GJ_per_t",
        "coal_consumption_tce_per_mwh": "tce_per_MWh",
        "base_emission_kg_per_mwh": "kgCO2_per_MWh",
        "fuel_cost_share": "fraction",
        **dict.fromkeys(_LOSS_KEYS.values(), "fraction"),
    }
    __slots__ = (*tuple(UNITS)[:-len(_LOSS_KEYS)], "efficiency_loss")

    def __init__(self, coal_price_usd_per_tce: float,
                 ammonia_production_cost_usd_per_t: float, gross_margin: float,
                 lhv_nh3_gj_per_t: float, coal_consumption_tce_per_mwh: float,
                 base_emission_kg_per_mwh: float, fuel_cost_share: float,
                 efficiency_loss: dict[float, float]):
        self.coal_price_usd_per_tce = coal_price_usd_per_tce
        self.ammonia_production_cost_usd_per_t = ammonia_production_cost_usd_per_t
        self.gross_margin = gross_margin
        self.lhv_nh3_gj_per_t = lhv_nh3_gj_per_t
        self.coal_consumption_tce_per_mwh = coal_consumption_tce_per_mwh
        self.base_emission_kg_per_mwh = base_emission_kg_per_mwh
        self.fuel_cost_share = fuel_cost_share
        self.efficiency_loss = efficiency_loss
        for name in ("coal_price_usd_per_tce", "ammonia_production_cost_usd_per_t",
                     "lhv_nh3_gj_per_t", "coal_consumption_tce_per_mwh",
                     "base_emission_kg_per_mwh"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive")
        if not 0.0 < fuel_cost_share < 1.0:
            raise InputError("fuel_cost_share must be in (0, 1)")
        if gross_margin < 0:
            raise InputError("gross_margin must be nonnegative")
        for rate, loss in self.efficiency_loss.items():
            if not 0.0 <= loss < 1.0:
                raise InputError(f"efficiency loss at rate {rate} must be in [0, 1)")

    @classmethod
    def from_mapping(cls, params: Mapping[str, float]) -> "CofiringParams":
        """Build the bundle from a loaded parameter set."""
        loss = {rate: params[key] for rate, key in _LOSS_KEYS.items()}
        return cls(*(params[key] for key in cls.__slots__[:-1]), loss)


class CofiringResult:
    """Costs and emission intensity at one co-firing rate, with deltas
    against the coal-only base case: fuel_cost_delta and lcoe_delta are
    relative changes, emission_delta_kg_per_mwh an absolute (negative)
    change."""

    __slots__ = ("rate", "mixed_fuel_cost_usd_per_tce", "lcoe_usd_per_mwh",
                 "emission_kg_per_mwh", "fuel_cost_delta", "lcoe_delta",
                 "emission_delta_kg_per_mwh")

    def __init__(self, rate: float, mixed_fuel_cost_usd_per_tce: float,
                 lcoe_usd_per_mwh: float, emission_kg_per_mwh: float,
                 fuel_cost_delta: float, lcoe_delta: float,
                 emission_delta_kg_per_mwh: float):
        self.rate = rate
        self.mixed_fuel_cost_usd_per_tce = mixed_fuel_cost_usd_per_tce
        self.lcoe_usd_per_mwh = lcoe_usd_per_mwh
        self.emission_kg_per_mwh = emission_kg_per_mwh
        self.fuel_cost_delta = fuel_cost_delta
        self.lcoe_delta = lcoe_delta
        self.emission_delta_kg_per_mwh = emission_delta_kg_per_mwh


def ammonia_fuel_price_per_tce(params: CofiringParams) -> float:
    """Green ammonia price per tce: (production cost + margin) / energy density."""
    tce_per_t = params.lhv_nh3_gj_per_t / TCE_GJ
    if not tce_per_t > 0:   # a positive heating value so small that this underflows
        raise InputError("lhv_nh3_gj_per_t in tce per tonne of ammonia underflows to 0")
    return params.ammonia_production_cost_usd_per_t * (1.0 + params.gross_margin) / tce_per_t


def _efficiency_loss(params: CofiringParams, rate: float, interpolate: bool) -> float:
    if rate == 0.0:
        return 0.0
    if rate in params.efficiency_loss:
        return params.efficiency_loss[rate]
    if not interpolate:
        known = ", ".join(map(number_text, sorted(params.efficiency_loss)))
        raise InputError(
            f"no efficiency-loss entry for rate {number_text(rate)}; known rates: 0, {known} "
            f"(pass --interpolate, or interpolate_loss=True, for linear interpolation)"
        )
    points = sorted([(0.0, 0.0), *params.efficiency_loss.items()])
    for (r0, l0), (r1, l1) in zip(points, points[1:]):
        if rate <= r1:    # the first segment that holds the rate
            return l0 + (l1 - l0) * (rate - r0) / (r1 - r0)
    raise InputError(f"rate {number_text(rate)} is above the tabulated range")


def base_lcoe(params: CofiringParams) -> float:
    """Coal-only generation cost implied by the fuel-cost share."""
    lcoe = (params.coal_consumption_tce_per_mwh * params.coal_price_usd_per_tce
            / params.fuel_cost_share)
    if not lcoe > 0:   # positive factors so small that their product underflows
        raise InputError("coal_consumption_tce_per_mwh * coal_price_usd_per_tce / "
                         "fuel_cost_share, the coal-only generation cost, underflows to 0")
    return lcoe


def evaluate(params: CofiringParams, rate: float,
             interpolate_loss: bool = False) -> CofiringResult:
    """All co-firing metrics at one rate, with deltas against rate 0.

    The blend price is linear in the rate. Fuel consumption rises with the
    blend's efficiency loss, and the non-fuel part of the generation cost
    stays at its baseline share. The loss applies to fuel use only: the
    stack emission falls with the ammonia share, which burns carbon-free.
    """
    if not 0.0 <= rate <= 1.0:
        raise InputError(f"co-firing rate must be in [0, 1], got {rate}")
    fe_m = ammonia_fuel_price_per_tce(params) * rate + params.coal_price_usd_per_tce * (1.0 - rate)
    loss = _efficiency_loss(params, rate, interpolate_loss)
    lcoe_base = base_lcoe(params)
    lcoe_m = (params.coal_consumption_tce_per_mwh / (1.0 - loss) * fe_m
              + (1.0 - params.fuel_cost_share) * lcoe_base)
    emission = params.base_emission_kg_per_mwh * (1.0 - rate)
    return CofiringResult(
        rate=rate,
        mixed_fuel_cost_usd_per_tce=fe_m,
        lcoe_usd_per_mwh=lcoe_m,
        emission_kg_per_mwh=emission,
        fuel_cost_delta=fe_m / params.coal_price_usd_per_tce - 1.0,
        lcoe_delta=lcoe_m / lcoe_base - 1.0,
        emission_delta_kg_per_mwh=emission - params.base_emission_kg_per_mwh,
    )
