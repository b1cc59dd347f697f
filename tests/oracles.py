"""Independent oracles shared by the module and acceptance tests.

The LP oracle enumerates every basic solution of the slack form, so it
shares no code path with the simplex implementation it checks. The DEA
oracle states the CCR model in its envelopment form, which `gtfp` scores
through the equivalent ratio form. The carrier
oracles are the earlier forms of `carriers.default_query` (one checked
lookup per key) and `carriers._levelize` (a list of costs, then a second
pass for the stage records), which the current code must match bit for
bit.
"""

from itertools import combinations

import numpy as np

from nh3econ import carriers, lp
from nh3econ.errors import InputError
from nh3econ.gtfp import RegionRecord

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


def levelize_two_pass(flows, delivered_kg_per_yr: float, delivered_fraction: float,
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
    return carriers.CostBreakdown(stages, sum(costs), delivered_fraction)
