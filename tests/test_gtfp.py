"""Efficiency model checks: frozen scores for the bundled table, closed-form
utilities, and the structural DEA properties on randomized records."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nh3econ import data_io, gtfp, lp
from nh3econ.errors import InputError
from oracles import (ccr_envelopment_lp, enumerate_lp_minimum, extrapolate_emission,
                     gap_fill_emission_2019, random_regions, series_cagr)

# Scores for the bundled 2019 table, frozen from an independent
# interior-point solve of the same programs.
FROZEN_SCORES = {
    "North": 0.885728,
    "Northeast": 0.745158,
    "East": 1.000000,
    "Mid-South": 1.000000,
    "Southwest": 0.694742,
    "Northwest": 0.653042,
}


@pytest.fixture(scope="module")
def regions():
    return data_io.load_regions(data_io.bundled_regions_path())


@pytest.fixture(scope="module")
def report(regions):
    return gtfp.gtfp_scores(regions)


def test_bundled_scores_match_frozen_oracle(report):
    by_name = {row.name: row.gtfp for row in report}
    for name, expected in FROZEN_SCORES.items():
        assert by_name[name] == pytest.approx(expected, abs=1e-4), name


def test_efficient_flags(report):
    flags = {row.name: row.efficient for row in report}
    assert flags == {
        "North": False, "Northeast": False, "East": True,
        "Mid-South": True, "Southwest": False, "Northwest": False,
    }


def test_score_bounds_and_frontier(report):
    assert all(0.0 < row.gtfp <= 1.0 + 1e-9 for row in report)
    assert any(row.efficient for row in report)


def test_single_region_is_frontier():
    record = gtfp.RegionRecord("solo", 1.0, 2.0, 3.0, 4.0, 5.0)
    assert gtfp.dea_score([record], 0) == pytest.approx(1.0, abs=1e-9)


def test_identical_regions_are_both_frontier():
    record = gtfp.RegionRecord("a", 1.0, 2.0, 3.0, 4.0, 5.0)
    twin = gtfp.RegionRecord("b", 1.0, 2.0, 3.0, 4.0, 5.0)
    assert gtfp.dea_score([record, twin], 0) == pytest.approx(1.0, abs=1e-9)
    assert gtfp.dea_score([record, twin], 1) == pytest.approx(1.0, abs=1e-9)


def test_dea_score_matches_the_envelopment_oracle():
    rng = np.random.default_rng(1979)
    worst = 0.0
    for _ in range(25):
        records = random_regions(rng)
        for i in range(len(records)):
            ratio = gtfp.build_dea_lp(records, i)
            # mu = 0 is feasible: solve seeds every row with its slack
            assert ratio.a_eq == () and all(b > 0 for b in ratio.b_ub)
            envelopment = ccr_envelopment_lp(records, i)
            expected = enumerate_lp_minimum(envelopment.c, envelopment.a_ub,
                                            envelopment.b_ub)
            worst = max(worst, abs(gtfp.dea_score(records, i) - expected))
    assert worst <= 1e-9


def _with_value(records, k, field, value):
    """The records with region k's `field` set to `value`."""
    rows = [{name: getattr(r, name) for name in ROW} for r in records]
    rows[k][field] = value
    return [gtfp.RegionRecord(**row) for row in rows]


@pytest.mark.parametrize("field", ["energy_mtce", "labour_m", "capital_busd", "co2_mt"])
@pytest.mark.parametrize("k", range(6))
def test_an_input_of_1e308_takes_a_region_off_the_others_frontier(regions, field, k):
    records = _with_value(regions, k, field, 1e308)
    rest = records[:k] + records[k + 1:]
    for i, record in enumerate(records):
        if i != k:
            expected = gtfp.dea_score(rest, rest.index(record))
            assert gtfp.dea_score(records, i) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("k", range(6))
def test_a_gdp_of_1e308_dominates_every_other_region(regions, k):
    records = _with_value(regions, k, "gdp_busd", 1e308)
    big = records[k]
    for i, record in enumerate(records):
        # only region k, shrunk to fit inside region i's inputs, is used
        shrink = max(a / b for a, b in zip(big.inputs, record.inputs))
        expected = 1.0 if i == k else record.gdp_busd * shrink / 1e308
        assert gtfp.dea_score(records, i) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("values", [
    {(0, "energy_mtce"): 1e-307},
    {(0, "gdp_busd"): 0.5, (1, "gdp_busd"): 1e308},
    {(1, field): 5e-324 for field in ("energy_mtce", "labour_m", "capital_busd", "co2_mt")},
], ids=["input_1e-307", "gdp_0.5_beside_1e308", "inputs_5e-324"])
def test_a_ratio_outside_the_float_range_names_both_regions(regions, values):
    # Northeast's energy use over North's 1e-307, its GDP of 1e308 over
    # North's 0.5, and its inputs of 5e-324 over North's are not doubles
    records = regions
    for (k, field), value in values.items():
        records = _with_value(records, k, field, value)
    with pytest.raises(InputError) as excinfo:
        gtfp.gtfp_scores(records)
    assert str(excinfo.value) == (
        "regions 'North' and 'Northeast': an input or GDP ratio between them "
        "is outside the floating-point range")


def test_build_dea_lp_validation(regions):
    # its callers pass every i of range(len(records)); what it checks is
    # that each ratio is a double
    for i in range(len(regions)):
        program = gtfp.build_dea_lp(regions, i)
        assert (len(program.c), program.b_ub) == (len(regions), (1.0,) * 4)
    with pytest.raises(InputError) as excinfo:
        gtfp.build_dea_lp(_with_value(regions, 0, "energy_mtce", 1e-307), 0)
    assert str(excinfo.value).startswith("regions 'North' and 'Northeast': ")


def _load_row(tmp_path, row):
    """load_regions over a table holding one region row."""
    path = tmp_path / "regions.csv"
    path.write_text(",".join(data_io.REGION_COLUMNS) + "\n" + ",".join(map(str, row)) + "\n")
    return data_io.load_regions(str(path))


def test_record_requires_positive_values(tmp_path):
    # load_regions, which builds every record, checks each value
    with pytest.raises(InputError):
        _load_row(tmp_path, ("bad", 0.0, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(InputError):
        _load_row(tmp_path, ("bad", 1.0, 1.0, 1.0, 1.0, -2.0))


ROW = {"name": "bad", "energy_mtce": 1.0, "labour_m": 2.0, "capital_busd": 3.0,
       "co2_mt": 4.0, "gdp_busd": 5.0}


@pytest.mark.parametrize("field", ["energy_mtce", "labour_m", "capital_busd",
                                   "co2_mt", "gdp_busd"])
@pytest.mark.parametrize("value", [0.0, -2.0, float("nan")])
def test_record_check_names_field_and_value(field, value, tmp_path):
    with pytest.raises(InputError) as excinfo:
        _load_row(tmp_path, {**ROW, field: value}.values())
    problem = ("cannot parse 'nan' as a finite number" if math.isnan(value)
               else f"value must be positive, got {value}")
    region = "" if math.isnan(value) else " (region 'bad')"
    assert str(excinfo.value) == (
        f"{tmp_path / 'regions.csv'}: line 2{region}, column {field!r}: {problem}")


def test_record_from_keywords_matches_positional():
    by_keyword = gtfp.RegionRecord(**ROW)
    positional = gtfp.RegionRecord(*ROW.values())
    for field in ROW:
        assert getattr(by_keyword, field) == getattr(positional, field) == ROW[field]
    assert by_keyword.inputs == (1.0, 2.0, 3.0, 4.0)


def test_intensities_frozen_values(regions):
    kbtu_per_tce = 29.3076 / (1055.06 * 1e3 / 1e9)
    by_name = {r.name: r for r in regions}
    cases = {
        # (energy Mtce, co2 Mt, gdp B USD) ratios computed independently
        "Mid-South": (7.32, 0.51),
        "Northwest": (18.51, 1.51),
        "Southwest": (11.38, 0.74),
    }
    for name, (ei_expected, ci_expected) in cases.items():
        record = by_name[name]
        ei, ci = gtfp.intensities(record)
        oracle_ei = record.energy_mtce * 1e6 * kbtu_per_tce / (record.gdp_busd * 1e9)
        oracle_ci = record.co2_mt * 1e9 / (record.gdp_busd * 1e9)
        assert ei == pytest.approx(oracle_ei, rel=1e-12)
        assert ci == pytest.approx(oracle_ci, rel=1e-12)
        assert ei == pytest.approx(ei_expected, abs=0.02)
        assert ci == pytest.approx(ci_expected, abs=0.02)


# The unit conversions `intensities` made through the removed
# Quantity/convert machinery: unit -> factor to its dimension's base unit,
# applied as value * source factor / target factor.
_CONVERT_FACTORS = {"tce": 29.3076, "kBtu": 1055.06 * 1e-6, "B_USD": 1e9,
                    "USD": 1.0, "Mt": 1e6, "kg": 1e-3}


def _convert(value, source, target):
    return value * _CONVERT_FACTORS[source] / _CONVERT_FACTORS[target]


_POSITIVE = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False)


@settings(max_examples=500, deadline=None)
@given(energy=_POSITIVE, co2=_POSITIVE, gdp=_POSITIVE)
def test_intensities_match_convert_formula_bit_for_bit(energy, co2, gdp):
    record = gtfp.RegionRecord("R", energy, 1.0, 1.0, co2, gdp)
    gdp_usd = _convert(gdp, "B_USD", "USD")
    expected = (_convert(energy * 1e6, "tce", "kBtu") / gdp_usd,
                _convert(co2, "Mt", "kg") / gdp_usd)
    assert gtfp.intensities(record) == expected


def test_extrapolate_emission():
    assert extrapolate_emission(100.0, 0.0, 5) == 100.0
    assert extrapolate_emission(100.0, 0.05, 5) == pytest.approx(127.62815625)
    assert extrapolate_emission(100.0, 0.05, 0) == 100.0


def test_tibet_gap_fill_matches_ledger():
    params = data_io.load_params(Path(data_io.data_dir()) / "gapfill.csv", "gapfill")
    cagr = series_cagr(params["national_co2_2014_mt"], params["national_co2_2019_mt"], 5)
    ledger = {e.constant: e.value for e in data_io.Dataset().manifest.calibration}
    assert cagr == pytest.approx(ledger["national_co2_cagr_2014_2019"], abs=1e-9)
    estimate = gap_fill_emission_2019(params)
    assert estimate == pytest.approx(
        params["tibet_co2_2014_mt"] * (1 + ledger["national_co2_cagr_2014_2019"]) ** 5,
        rel=1e-9)


def _scores(records):
    return np.array([gtfp.dea_score(records, i) for i in range(len(records))])


def test_units_invariance_per_input():
    rng = np.random.default_rng(11)
    for _ in range(8):
        records = random_regions(rng)
        base = _scores(records)
        scale = float(rng.uniform(0.1, 25.0))
        field = rng.choice(["energy_mtce", "labour_m", "capital_busd", "co2_mt"])
        scaled = [
            gtfp.RegionRecord(
                r.name,
                r.energy_mtce * (scale if field == "energy_mtce" else 1.0),
                r.labour_m * (scale if field == "labour_m" else 1.0),
                r.capital_busd * (scale if field == "capital_busd" else 1.0),
                r.co2_mt * (scale if field == "co2_mt" else 1.0),
                r.gdp_busd,
            )
            for r in records
        ]
        assert np.allclose(_scores(scaled), base, atol=1e-8)


def test_dominance():
    rng = np.random.default_rng(12)
    for _ in range(8):
        records = random_regions(rng)
        weaker = records[int(rng.integers(len(records)))]
        dominator = gtfp.RegionRecord(
            "dominator",
            weaker.energy_mtce * float(rng.uniform(0.4, 0.95)),
            weaker.labour_m * float(rng.uniform(0.4, 0.95)),
            weaker.capital_busd * float(rng.uniform(0.4, 0.95)),
            weaker.co2_mt * float(rng.uniform(0.4, 0.95)),
            weaker.gdp_busd * float(rng.uniform(1.0, 1.5)),
        )
        extended = [*records, dominator]
        scores = _scores(extended)
        weaker_idx = records.index(weaker)
        assert scores[-1] >= scores[weaker_idx] - 1e-9


def test_clone_insensitivity():
    rng = np.random.default_rng(13)
    for _ in range(8):
        records = random_regions(rng)
        base = _scores(records)
        clone_of = records[int(rng.integers(len(records)))]
        clone = gtfp.RegionRecord("clone", clone_of.energy_mtce, clone_of.labour_m,
                                  clone_of.capital_busd, clone_of.co2_mt,
                                  clone_of.gdp_busd)
        with_clone = _scores([*records, clone])[: len(records)]
        assert np.allclose(with_clone, base, atol=1e-9)


def test_the_order_of_the_regions_changes_no_score_and_no_flag(regions):
    # the bundled table and sets with each value uniform in 0.5-10, which
    # are not near-tied: the frontier and the frame depend on the order
    rng = np.random.default_rng(14)
    sets = [regions, *(random_regions(rng) for _ in range(40)),
            *(random_regions(rng, 30) for _ in range(3))]
    for records in sets:
        base = {row.name: row for row in gtfp.gtfp_scores(records)}
        for _ in range(3):
            shuffled = [records[j] for j in rng.permutation(len(records))]
            for row in gtfp.gtfp_scores(shuffled):
                assert math.isclose(row.gtfp, base[row.name].gtfp, rel_tol=1e-9), row.name
                assert row.efficient == base[row.name].efficient, row.name


def _full_program_score(records, i):
    """Region i's score from its program over every region: the oracle for
    the frontier shortcut and the frame."""
    return 1.0 / -lp.solve(gtfp.build_dea_lp(records, i)).objective


ROW_INPUTS = ("energy_mtce", "labour_m", "capital_busd", "co2_mt")


def _ratio_frontier(records):
    """Regions with the most GDP per unit of an input whose GDP-per-input
    ratios are all finite normal doubles, found independently of gtfp."""
    frontier = set()
    for field in ROW_INPUTS:
        ratios = [r.gdp_busd / getattr(r, field) for r in records]
        if all(sys.float_info.min <= q < math.inf for q in ratios):
            frontier |= {j for j, q in enumerate(ratios) if q == max(ratios)}
    return frontier


# Few distinct values, for ties. No near-ties: on sets with values 1e-5
# apart, lp.solve can still miss the full program's optimum by far more
# than 1e-9 (by up to 3.7e-6 over 6,000 such sets, judged by an exact
# rational simplex), so it is no oracle there.
MULTIPLIERS = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.25, 4.0))


@st.composite
def region_sets(draw):
    """1-40 regions with ties, duplicate rows and, in some sets, every
    region on the frontier. Each field has one magnitude from 1e-300 to
    1e300 and multipliers within a factor of 16 of each other, so every
    pair's ratios are doubles while GDP per input may overflow or be
    subnormal."""
    scales = [10.0 ** draw(st.integers(-300, 300)) for _ in range(5)]
    rows = []
    for k in range(draw(st.integers(1, 40))):
        if rows and draw(st.integers(0, 4)) == 0:
            rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
        else:
            rows.append(draw(st.lists(MULTIPLIERS, min_size=5, max_size=5)))
    all_frontier = draw(st.booleans())    # GDP per unit of energy 1 everywhere
    records = []
    for k, row in enumerate(rows):
        values = [m * s for m, s in zip(row, scales)]
        if all_frontier:
            values[0] = values[4]
        records.append(gtfp.RegionRecord(f"r{k}", *values))
    return records


@settings(max_examples=60, deadline=None)
@given(region_sets())
def test_frontier_and_frame_match_every_full_program(records):
    report = gtfp.gtfp_scores(records)
    frontier = _ratio_frontier(records)
    for i, row in enumerate(report):
        expected = _full_program_score(records, i)
        assert row.gtfp == pytest.approx(expected, rel=1e-9)
        assert row.efficient == (expected >= 1.0 - gtfp.EFFICIENT_TOL)
        if i in frontier:
            assert row.gtfp == 1.0


def test_a_near_tie_on_the_ratio_frontier_takes_the_program():
    # b's GDP per unit of every input is 1e-7 below a's: only an exact
    # comparison keeps b off the frontier
    a = gtfp.RegionRecord("a", 1.0, 1.0, 1.0, 1.0, 1.0)
    b = gtfp.RegionRecord("b", 1.0, 1.0, 1.0, 1.0, 1.0 - 1e-7)
    assert [row.gtfp for row in gtfp.gtfp_scores([a, b])] == [
        1.0, pytest.approx(1.0 - 1e-7, rel=1e-12)]


# Values 1e-5 apart, as the random sets above leave out. With ratio ties
# decided within the absolute 1e-9, lp.solve's full program for r2 ended
# OPTIMAL at an infeasible point and scored 0.6250, 2% below its 0.6383.
NEAR_TIED_ROWS = [(3.0, 0.99999, 2.0, 0.99999, 3.0), (3.0, 0.5, 0.99999, 1.0, 2.0),
                  (3.0, 0.99999, 3.0, 0.99999, 2.0), (3.0, 1.0, 3.5, 0.99999, 3.2),
                  (0.99999, 1.0, 2.0, 1.0, 3.0)]


def _vertex_oracle_score(records, i):
    envelopment = ccr_envelopment_lp(records, i)
    return enumerate_lp_minimum(envelopment.c, envelopment.a_ub, envelopment.b_ub)


def test_every_full_program_of_a_near_tied_set_matches_the_vertex_oracle():
    records = [gtfp.RegionRecord(f"r{k}", *row) for k, row in enumerate(NEAR_TIED_ROWS)]
    for i in range(len(records)):
        solution = lp.solve(gtfp.build_dea_lp(records, i))
        assert solution.is_optimal
        assert solution.residual <= 1e-12
        assert 1.0 / -solution.objective == pytest.approx(
            _vertex_oracle_score(records, i), rel=1e-9)


def test_a_near_tied_set_matches_the_vertex_oracle():
    records = [gtfp.RegionRecord(f"r{k}", *row) for k, row in enumerate(NEAR_TIED_ROWS)]
    report = gtfp.gtfp_scores(records)
    for i, row in enumerate(report):
        assert row.gtfp == pytest.approx(_vertex_oracle_score(records, i), rel=1e-9)
    assert [row.efficient for row in report] == [True, True, False, True, True]


@pytest.mark.parametrize("gdp, first_input", [(1e300, 1e-10), (1e-300, 1e23)],
                         ids=["overflows", "subnormal"])
def test_a_ratio_that_is_not_a_normal_double_takes_the_program(gdp, first_input):
    # GDP per unit of the first input is infinite (or subnormal) for both
    # regions and so ties, although b uses 1.2 times a's inputs for the
    # same GDP: only the program finds that b scores 1 / 1.2
    a = gtfp.RegionRecord("a", first_input, 1.0, 1.0, 1.0, gdp)
    b = gtfp.RegionRecord("b", first_input * 1.2, 1.2, 1.2, 1.2, gdp)
    assert (gdp / a.energy_mtce == gdp / b.energy_mtce
            and not sys.float_info.min <= gdp / a.energy_mtce < math.inf)
    report = gtfp.gtfp_scores([a, b])
    assert report[0].gtfp == 1.0
    assert report[1].gtfp == pytest.approx(1 / 1.2, rel=1e-12)
    assert [row.efficient for row in report] == [True, False]
