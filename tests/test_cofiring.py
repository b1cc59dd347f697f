"""Co-firing model checks against closed-form arithmetic.

Expected values are recomputed inline from the defining formulas (energy
blend, fuel-share decomposition) rather than from the implementation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from nh3econ import cofiring, data_io
from nh3econ.errors import InputError
from oracles import constructor_defaults, evaluate_by_parts, replaced

TCE_GJ = 29.3076


@pytest.fixture(scope="module")
def params():
    return cofiring.CofiringParams.from_mapping(data_io.load_bundled_params("cofiring"))


def _fuel_cost(params, rate, interpolate_loss=False):
    return cofiring.evaluate(params, rate, interpolate_loss).mixed_fuel_cost_usd_per_tce


def _lcoe(params, rate, interpolate_loss=False):
    return cofiring.evaluate(params, rate, interpolate_loss).lcoe_usd_per_mwh


def _emission(params, rate, interpolate_loss=False):
    return cofiring.evaluate(params, rate, interpolate_loss).emission_kg_per_mwh


def _at_any_rate(params):
    """`params` with a loss tabulated up to a rate of 1, so that `evaluate`
    interpolates the loss at any rate. Neither the blend price nor the
    emission depends on the loss."""
    return replaced(params, efficiency_loss={**params.efficiency_loss, 1.0: 0.5})


def test_ammonia_fuel_price(params):
    # 820 USD/t with a 5% margin over 18.6/29.3076 tce per tonne
    expected = 820.0 * 1.05 / (18.6 / TCE_GJ)
    assert expected == pytest.approx(1356.6583, abs=1e-3)
    assert cofiring.ammonia_fuel_price_per_tce(params) == pytest.approx(expected, rel=1e-12)


def test_ammonia_fuel_price_zero_margin(params):
    p = replaced(params, gross_margin=0.0)
    expected = 820.0 / (18.6 / TCE_GJ)
    assert expected == pytest.approx(1292.0555, abs=1e-3)
    assert cofiring.ammonia_fuel_price_per_tce(p) == pytest.approx(expected, rel=1e-12)


def test_price_per_tce_identity_for_tce_equivalent_fuel(params):
    # a fuel with LHV exactly one tce per tonne prices identically per t and per tce
    p = replaced(params, coal_price_usd_per_tce=150.0,
                 ammonia_production_cost_usd_per_t=500.0,
                 gross_margin=0.0, lhv_nh3_gj_per_t=TCE_GJ)
    assert cofiring.ammonia_fuel_price_per_tce(p) == pytest.approx(500.0, rel=1e-12)


def test_mixed_fuel_cost_base_case(params):
    assert _fuel_cost(params, 0.0) == params.coal_price_usd_per_tce


def test_mixed_fuel_cost_anchors(params):
    fe_am = cofiring.ammonia_fuel_price_per_tce(params)
    fe_c = params.coal_price_usd_per_tce
    # relative increase is exactly rate * (price ratio - 1)
    delta3 = _fuel_cost(params, 0.03) / fe_c - 1.0
    assert delta3 == pytest.approx(0.03 * (fe_am / fe_c - 1.0), rel=1e-10)
    assert delta3 == pytest.approx(0.235, abs=0.235 * 0.01)
    fe5 = _fuel_cost(params, 0.05)
    assert fe5 == pytest.approx(0.05 * fe_am + 0.95 * fe_c, rel=1e-12)
    assert fe5 == pytest.approx(213.5, rel=0.01)


def test_mixed_fuel_cost_rejects_bad_rate(params):
    with pytest.raises(InputError):
        cofiring.evaluate(params, 1.5)
    with pytest.raises(InputError):
        cofiring.evaluate(params, -0.01)


def test_fuel_cost_is_affine(params):
    fe_am = cofiring.ammonia_fuel_price_per_tce(params)
    fe_c = params.coal_price_usd_per_tce
    slope = fe_am - fe_c
    for rate in (0.01, 0.1, 0.6):
        expected = fe_c + slope * rate
        fe = _fuel_cost(_at_any_rate(params), rate, interpolate_loss=True)
        assert fe == pytest.approx(expected, rel=1e-12)


def test_base_lcoe_decomposition(params):
    # base generation cost recovered from its fuel share
    expected = 0.31 * params.coal_price_usd_per_tce / 0.70
    assert cofiring.base_lcoe(params) == pytest.approx(expected, rel=1e-12)
    assert _lcoe(params, 0.0) == pytest.approx(expected, rel=1e-12)


def test_cofired_lcoe_anchors(params):
    base = cofiring.base_lcoe(params)
    fe_c = params.coal_price_usd_per_tce
    # closed form: ratio = share * (blend ratio / (1 - loss)) + (1 - share)
    blend3 = _fuel_cost(params, 0.03) / fe_c
    expected3 = base * (0.7 * blend3 / 0.99 + 0.3)
    assert _lcoe(params, 0.03) == pytest.approx(expected3, rel=1e-12)

    lcoe20 = _lcoe(params, 0.20)
    blend20 = _fuel_cost(params, 0.20) / fe_c
    assert lcoe20 == pytest.approx(base * (0.7 * blend20 / 0.94 + 0.3), rel=1e-12)
    assert lcoe20 == pytest.approx(150.3, rel=0.01)


def test_lcoe_requires_tabulated_loss(params):
    with pytest.raises(InputError) as excinfo:
        cofiring.evaluate(params, 0.07)
    assert "0.07" in str(excinfo.value)
    interpolated = _lcoe(params, 0.07, interpolate_loss=True)
    low = _lcoe(params, 0.05)
    high = _lcoe(params, 0.10)
    assert low < interpolated < high


def test_lcoe_monotone_in_rate(params):
    values = [_lcoe(params, r) for r in cofiring.STANDARD_RATES]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_emission_intensity(params):
    assert _emission(params, 0.0) == pytest.approx(838.0)
    assert 838.0 * 0.03 == pytest.approx(25.14, abs=1e-9)
    assert _emission(params, 0.03) == pytest.approx(838.0 * 0.97, rel=1e-12)
    assert _emission(params, 0.05) == pytest.approx(838.0 - 41.9, rel=1e-12)


def test_emission_is_affine_decreasing(params):
    for rate in (0.1, 0.25, 0.8):
        expected = 838.0 * (1.0 - rate)
        emission = _emission(_at_any_rate(params), rate, interpolate_loss=True)
        assert emission == pytest.approx(expected, rel=1e-12)


def test_price_ratio_cross_check(params):
    # the two published fuel-cost increases pin the same price ratio
    fe_am = cofiring.ammonia_fuel_price_per_tce(params)
    ratio = fe_am / params.coal_price_usd_per_tce
    assert ratio == pytest.approx(8.84, abs=0.02)
    delta3 = _fuel_cost(params, 0.03) / params.coal_price_usd_per_tce - 1.0
    delta5 = _fuel_cost(params, 0.05) / params.coal_price_usd_per_tce - 1.0
    assert delta3 / 0.03 == pytest.approx(delta5 / 0.05, rel=1e-10)


def test_evaluate_base_case_has_zero_deltas(params):
    result = cofiring.evaluate(params, 0.0)
    assert result.fuel_cost_delta == 0.0
    assert result.lcoe_delta == 0.0
    assert result.emission_delta_kg_per_mwh == 0.0


def test_params_validation(params):
    with pytest.raises(InputError):
        replaced(params, coal_price_usd_per_tce=-1.0)
    with pytest.raises(InputError):
        replaced(params, coal_price_usd_per_tce=150.0, fuel_cost_share=1.0)
    with pytest.raises(InputError):
        replaced(params, coal_price_usd_per_tce=150.0, efficiency_loss={0.03: 1.0})


@pytest.mark.parametrize("changes, message", [
    *(({name: 0.0}, f"{name} must be positive")
      for name in ("coal_price_usd_per_tce", "ammonia_production_cost_usd_per_t",
                   "lhv_nh3_gj_per_t", "coal_consumption_tce_per_mwh",
                   "base_emission_kg_per_mwh")),
    ({"fuel_cost_share": 0.0}, "fuel_cost_share must be in (0, 1)"),
    ({"fuel_cost_share": 1.0}, "fuel_cost_share must be in (0, 1)"),
    ({"gross_margin": -0.01}, "gross_margin must be nonnegative"),
    ({"efficiency_loss": {0.03: 1.0}}, "efficiency loss at rate 0.03 must be in [0, 1)"),
    ({"efficiency_loss": {0.05: -0.1}}, "efficiency loss at rate 0.05 must be in [0, 1)"),
])
def test_params_checks_name_the_problem(changes, message, params):
    with pytest.raises(InputError) as excinfo:
        replaced(params, **{"coal_price_usd_per_tce": 150.0, **changes})
    assert str(excinfo.value) == message


def test_params_keep_field_order_and_defaults():
    p = cofiring.CofiringParams(150.0, 800.0, 0.1, 18.0, 0.3, 800.0, 0.6, {0.03: 0.02})
    assert (p.coal_price_usd_per_tce, p.ammonia_production_cost_usd_per_t,
            p.gross_margin, p.lhv_nh3_gj_per_t, p.coal_consumption_tce_per_mwh,
            p.base_emission_kg_per_mwh, p.fuel_cost_share, p.efficiency_loss) == (
                150.0, 800.0, 0.1, 18.0, 0.3, 800.0, 0.6, {0.03: 0.02})
    # every value comes from cofiring.csv: the constructor keeps no copy
    assert constructor_defaults(cofiring.CofiringParams) == {}


@st.composite
def scaled_params(draw):
    """The bundled co-firing parameters, each scaled by 0.5-1.5, with every
    fraction kept below 1."""
    bundled = data_io.load_bundled_params("cofiring")
    scaled = {}
    for key, unit in cofiring.CofiringParams.UNITS.items():
        top = min(1.5, 0.99 / bundled[key]) if unit == "fraction" else 1.5
        scaled[key] = bundled[key] * draw(st.floats(0.5, top))
    return cofiring.CofiringParams.from_mapping(scaled)


RATES = st.one_of(
    st.sampled_from(cofiring.STANDARD_RATES),
    st.floats(0.0, 0.25),
    st.floats(max_value=0.0, exclude_max=True),
    st.floats(min_value=1.0, exclude_min=True),
    st.just(float("nan")),
)


def _outcome(function, params, rate, interpolate_loss):
    """Every field of the result as float.hex writes it, or the error text."""
    try:
        result = function(params, rate, interpolate_loss)
    except InputError as exc:
        return str(exc)
    return {name: getattr(result, name).hex() for name in cofiring.CofiringResult.__slots__}


@settings(max_examples=300, deadline=None)
@given(scaled_params(), RATES, st.booleans())
def test_evaluate_matches_one_helper_per_quantity_bit_for_bit(params, rate, interpolate_loss):
    # the earlier form checks the rate in each helper and prices the blend
    # and the coal-only cost twice; one pass must give the same bits, or
    # fail on the same check with the same message
    assert (_outcome(cofiring.evaluate, params, rate, interpolate_loss)
            == _outcome(evaluate_by_parts, params, rate, interpolate_loss))
