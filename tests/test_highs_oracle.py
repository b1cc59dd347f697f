"""Cross-check of the simplex solver and the CCR DEA model against an
independent solver: scipy's HiGHS (Huangfu & Hall 2018). scipy is in the
`test` extra, not a dependency of the package, so these checks skip where
it is missing."""

import numpy as np
import pytest

from nh3econ import gtfp
from nh3econ.lp import LinearProgram, LpStatus, solve
from oracles import random_bounded_lp, random_regions

optimize = pytest.importorskip("scipy.optimize")

AGREEMENT = 1e-7


def _highs_minimum(c, a_ub, b_ub) -> float:
    result = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None),
                              method="highs")
    assert result.status == 0, result.message
    return float(result.fun)


def test_random_programs_match_highs():
    rng = np.random.default_rng(2018)
    for _ in range(200):
        c, a, b = random_bounded_lp(rng)
        sol = solve(LinearProgram(c=c, a_ub=a, b_ub=b))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(_highs_minimum(c, a, b), abs=AGREEMENT)


def _ccr_input_oriented(records, i) -> float:
    """min theta s.t. X^T lambda <= theta x_i, Y lambda >= y_i, built here
    from the records, apart from gtfp.build_dea_lp."""
    x = np.array([[r.energy_mtce, r.labour_m, r.capital_busd, r.co2_mt]
                  for r in records])
    y = np.array([r.gdp_busd for r in records])
    m = len(records)
    c = np.r_[1.0, np.zeros(m)]
    a_ub = np.vstack([np.column_stack([-x[i], x.T]), np.r_[0.0, -y]])
    b_ub = np.r_[np.zeros(x.shape[1]), -y[i]]
    return _highs_minimum(c, a_ub, b_ub)


def test_dea_scores_match_highs():
    rng = np.random.default_rng(1978)
    for count in [None] * 20 + [100]:   # 20 sets of 3-8 regions, one of 100
        records = random_regions(rng, count)
        for i, row in enumerate(gtfp.gtfp_scores(records)):
            assert row.gtfp == pytest.approx(_ccr_input_oriented(records, i),
                                             abs=AGREEMENT)
