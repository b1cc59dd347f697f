"""Regional green productivity: CRS input-oriented DEA plus intensity metrics.

Each region is a decision-making unit with four inputs x_k (energy use,
labour force, capital stock, CO2 emission) and one output y (GDP). Its
efficiency score is the CCR envelopment optimum (Charnes, Cooper & Rhodes
1978): the least factor theta by which the region's input bundle can
shrink while a nonnegative combination of all regions still dominates it,

    theta_i = min theta  s.t.  sum_j lambda_j x_jk <= theta x_ik  (k = 1..4),
                               sum_j lambda_j y_j  >= y_i,  lambda >= 0.

The score is computed in the ratio form of the same program. Let
s_j = max_k x_jk / x_ik, so that region j shrunk by s_j is the largest copy
of it that uses no more of any input than region i. Substituting
mu_j = lambda_j s_j / theta gives

    1 / theta_i = max sum_j mu_j (y_j / y_i) / s_j
                  s.t. sum_j mu_j (x_jk / x_ik) / s_j <= 1  (k = 1..4), mu >= 0:

the most output, relative to region i's, that a combination of those
copies yields within region i's inputs. Any feasible (theta, lambda) maps
to a mu whose objective is at least 1 / theta, and any feasible mu with
objective v > 0 maps back through theta = 1 / v, lambda_j = mu_j theta / s_j,
so the two optima agree. The ratio form has 4 rows instead of 5 and no
theta column. Every right-hand side is 1, so mu = 0 is feasible and the
simplex starts from its slack basis with no phase 1. Every column's largest
entry is 1, which bounds the program and keeps its entries in a range the
solver's absolute tolerance can tell from zero, however far apart the
regions' magnitudes lie, as long as each ratio is a double. mu = e_i is
feasible with objective 1, so theta <= 1, and the frontier regions score
exactly 1.

`gtfp_scores` solves fewer programs than regions. A region with the most
GDP per unit of some input k scores 1 with none: x_jk >= y_j x_ik / y_i for
all j, so any lambda with sum_j lambda_j y_j >= y_i uses x_ik of input k or
more. Ratios are compared as computed, so only where each y / x_k is a
normal double: one that overflows or is subnormal can tie untied regions.
A region scored below 1 is a combination of the others, so later programs
can leave its column out and no score changes (the frame of Ali 1993 and
Dula 2011). Regions are scored in table order, frontier first in the
frame, and a region leaves it when scored below 1 - _FRAME_TOL: more than
the solver's error seen in frame programs on near-tied data (7e-6). A
larger error in a dropped region's score would carry to later regions.

Energy and carbon intensities are simple ratios of the same table; the
energy intensity is reported in kBtu/USD (dividing the raw units gives
thousands of Btu per dollar, not Btu as sometimes labelled). The table's
units become base units through the named factors of `units`, each
applied as value * source factor / target factor.
"""

from __future__ import annotations

import sys
from math import inf

from . import lp
from .errors import InputError, SolverError
from .units import KBTU_GJ, TCE_GJ

EFFICIENT_TOL = 1e-6
_FRAME_TOL = 1e-4    # a score below 1 - _FRAME_TOL drops a region from the frame

_INPUT_FIELDS = ("energy_mtce", "labour_m", "capital_busd", "co2_mt")


class RegionRecord:
    """One region's annual inputs and output for the efficiency model, each
    strictly positive: `data_io.load_regions` checks them, naming line and column."""

    __slots__ = ("name", *_INPUT_FIELDS, "gdp_busd")

    def __init__(self, name: str, energy_mtce: float, labour_m: float,
                 capital_busd: float, co2_mt: float, gdp_busd: float):
        self.name = name
        self.energy_mtce = energy_mtce
        self.labour_m = labour_m
        self.capital_busd = capital_busd
        self.co2_mt = co2_mt
        self.gdp_busd = gdp_busd

    @property
    def inputs(self) -> tuple[float, ...]:
        return (self.energy_mtce, self.labour_m, self.capital_busd, self.co2_mt)


class RegionEfficiency:
    """Scored row: efficiency in (0, 1], intensities per dollar of GDP."""

    __slots__ = ("name", "gtfp", "energy_intensity_kbtu_per_usd",
                 "carbon_intensity_kg_per_usd", "efficient")

    def __init__(self, name: str, gtfp: float, energy_intensity_kbtu_per_usd: float,
                 carbon_intensity_kg_per_usd: float, efficient: bool):
        self.name = name
        self.gtfp = gtfp
        self.energy_intensity_kbtu_per_usd = energy_intensity_kbtu_per_usd
        self.carbon_intensity_kg_per_usd = carbon_intensity_kg_per_usd
        self.efficient = efficient


def build_dea_lp(records: list[RegionRecord], i: int) -> lp.LinearProgram:
    """Ratio-form LP for region i: min -sum_j mu_j (y_j / y_i) / s_j.

    Row k demands sum_j mu_j (x_jk / x_ik) / s_j <= 1, where s_j is the
    largest ratio x_jk / x_ik of region j; the optimum is -1 / theta_i (see
    the module docstring for the derivation from the envelopment form).
    There is no equality row and every b_ub entry is 1, so `lp.solve` seeds
    each row with its slack and never runs phase 1. A ratio x_jk / x_ik or
    y_j / y_i that overflows (or a column whose ratios all underflow to 0)
    is an InputError naming regions i and j; `_check_every_pair` bounds
    these same ratios, so a change to them changes it too.
    """
    x_i = records[i].inputs
    y_i = records[i].gdp_busd
    c = []
    columns = []
    for r in records:
        ratios = [x / base for x, base in zip(r.inputs, x_i)]
        scale = max(ratios)
        cost = -r.gdp_busd / y_i / scale if 0 < scale < inf else -inf
        if not cost > -inf:
            raise InputError(
                f"regions {records[i].name!r} and {r.name!r}: an input or GDP "
                "ratio between them is outside the floating-point range")
        c.append(cost)
        columns.append([ratio / scale for ratio in ratios])
    return lp.LinearProgram(c=c, a_ub=list(zip(*columns)), b_ub=[1.0] * len(x_i))


def dea_score(records: list[RegionRecord], i: int) -> float:
    """Efficiency score theta for one region."""
    solution = lp.solve(build_dea_lp(records, i))
    if not solution.is_optimal:
        raise SolverError(
            f"DEA program for region {records[i].name!r} ended "
            f"{solution.status.value}"
        )
    return 1.0 / -solution.objective


def intensities(record: RegionRecord) -> tuple[float, float]:
    """(energy intensity kBtu/USD, carbon intensity kg CO2/USD)."""
    energy_kbtu = record.energy_mtce * 1e6 * TCE_GJ / KBTU_GJ
    gdp_usd = record.gdp_busd * 1e9
    co2_kg = record.co2_mt * 1e6 / 1e-3     # not * 1e9: the last bit differs
    return energy_kbtu / gdp_usd, co2_kg / gdp_usd


def _check_every_pair(records: list[RegionRecord]) -> None:
    """Raise build_dea_lp's InputError for the first pair of regions whose
    ratios are not doubles, before any region is scored. Division rounds
    monotonically, so per-input extremes bound every pair's ratios; only
    where those bounds fail is every region's program built in turn."""
    gdp = [r.gdp_busd for r in records]
    columns = list(zip(*(r.inputs for r in records)))
    low = max(min(c) / max(c) for c in columns)
    if not (0 < low and all(max(c) / min(c) < inf for c in columns)
            and max(gdp) / min(gdp) / low < inf):
        for i in range(len(records)):
            build_dea_lp(records, i)


def _ratio_frontier(records: list[RegionRecord]) -> set[int]:
    """Indices of the regions the frontier lemma scores 1."""
    gdp = [r.gdp_busd for r in records]
    frontier = set()
    for column in zip(*(r.inputs for r in records)):
        ratios = [y / x for y, x in zip(gdp, column)]
        if all(sys.float_info.min <= q < inf for q in ratios):
            best = max(ratios)
            frontier.update(j for j, q in enumerate(ratios) if q == best)
    return frontier


def gtfp_scores(records: list[RegionRecord]) -> list[RegionEfficiency]:
    """Score every region and attach its intensity metrics."""
    if records:
        _check_every_pair(records)
    frontier = _ratio_frontier(records)
    # frontier columns first, so that Bland's rule tries them first
    frame = [records[j] for j in sorted(range(len(records)), key=lambda j: j not in frontier)]
    report = []
    for i, record in enumerate(records):
        if i in frontier:
            theta = 1.0
        else:
            try:
                theta = dea_score(frame, frame.index(record))
            except SolverError as exc:
                raise SolverError(f"region {record.name!r}: {exc}") from exc
            if theta < 1.0 - _FRAME_TOL:
                frame.remove(record)
        ei, ci = intensities(record)
        report.append(RegionEfficiency(
            name=record.name,
            gtfp=theta,
            energy_intensity_kbtu_per_usd=ei,
            carbon_intensity_kg_per_usd=ci,
            efficient=theta >= 1.0 - EFFICIENT_TOL,
        ))
    return report
