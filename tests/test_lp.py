"""Simplex solver checks: textbook cases, certificates, determinism, and
agreement with exhaustive basic-solution enumeration."""

import numpy as np
import pytest

from nh3econ import lp as lp_module
from nh3econ.errors import InputError, SolverError
from nh3econ.lp import LinearProgram, LpStatus, solve
from oracles import enumerate_lp_minimum, random_bounded_lp


def test_single_variable():
    # min x s.t. -x <= -1  ->  x = 1
    lp = LinearProgram(c=[1.0], a_ub=[[-1.0]], b_ub=[-1.0])
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_textbook_facet():
    # min -x - y s.t. x + y <= 1  ->  objective -1 anywhere on the facet
    lp = LinearProgram(c=[-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    assert sum(sol.x) == pytest.approx(1.0, abs=1e-9)


def test_equality_constraints():
    # min x + 2y s.t. x + y == 2 -> (2, 0)
    lp = LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[2.0])
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.x == pytest.approx([2.0, 0.0], abs=1e-9)


def test_infeasible():
    # x <= -1 with x >= 0 is empty
    lp = LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0])
    assert solve(lp).status is LpStatus.INFEASIBLE


def test_unbounded():
    lp = LinearProgram(c=[-1.0], a_ub=[[-1.0]], b_ub=[0.0])
    assert solve(lp).status is LpStatus.UNBOUNDED


def test_no_constraints():
    assert solve(LinearProgram(c=[1.0, 0.0])).objective == 0.0
    assert solve(LinearProgram(c=[-1.0])).status is LpStatus.UNBOUNDED


def test_degenerate_problem_terminates():
    # multiple redundant rows through the origin force degenerate pivots
    lp = LinearProgram(
        c=[-1.0, -1.0, -1.0],
        a_ub=[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 1.0, 0.0], [0.5, 0.5, 0.0]],
        b_ub=[1.0, 2.0, 0.0, 0.0],
    )
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_input_validation():
    with pytest.raises(InputError):
        LinearProgram(c=[1.0], a_ub=[[1.0, 2.0]], b_ub=[1.0])   # width mismatch
    with pytest.raises(InputError):
        LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0])   # rhs length
    with pytest.raises(InputError):
        LinearProgram(c=[np.nan])
    with pytest.raises(InputError):
        LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0], [1.0]], b_ub=[1.0, 1.0])  # ragged
    with pytest.raises(InputError):
        LinearProgram(c=[1.0, 1.0], a_ub=[1.0, 1.0], b_ub=[1.0])   # 1-d a_ub
    with pytest.raises(InputError):
        LinearProgram(c=[1.0, 1.0], a_ub=np.ones(2), b_ub=[1.0])   # 1-d array
    with pytest.raises(InputError):
        LinearProgram(c=[1.0, 1.0], a_ub=["12"], b_ub=[1.0])       # text row
    with pytest.raises(InputError):
        LinearProgram(c=[1.0], a_eq=[[np.inf]], b_eq=[1.0])
    with pytest.raises(InputError):
        LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[np.nan])


@pytest.mark.parametrize("kwargs, message", [
    ({"c": []}, "objective must have at least one coefficient"),
    ({"c": "12"}, "c must be a sequence of numbers"),
    ({"c": [np.nan]}, "c contains non-finite entries"),
    ({"c": [1.0], "a_ub": [[1.0, 2.0]], "b_ub": [1.0]}, "a_ub must be a 2-d array with 1 columns"),
    ({"c": [1.0], "a_ub": [[1.0]], "b_ub": [1.0, 2.0]}, "b_ub length 2 does not match 1 rows"),
    ({"c": [1.0], "a_ub": [[1.0]], "b_ub": [np.nan]}, "b_ub contains non-finite entries"),
    ({"c": [1.0], "a_eq": [[np.inf]], "b_eq": [1.0]}, "a_eq contains non-finite entries"),
    ({"c": [1.0], "a_eq": [[1.0]]}, "b_eq length 0 does not match 1 rows"),
])
def test_input_checks_name_the_problem(kwargs, message):
    with pytest.raises(InputError) as excinfo:
        LinearProgram(**kwargs)
    assert str(excinfo.value) == message


def test_arrays_are_stored_as_tuples_of_floats():
    lp = LinearProgram(np.array([1.0, 2.0]), np.eye(2), np.ones(2), b_eq=None)
    assert lp.c == (1.0, 2.0) and type(lp.c[0]) is float
    assert lp.a_ub == ((1.0, 0.0), (0.0, 1.0)) and type(lp.a_ub[1]) is tuple
    assert lp.b_ub == (1.0, 1.0)
    assert lp.a_eq == () and lp.b_eq == ()
    assert lp.n == 2


def test_pivot_guard_raises(monkeypatch):
    lp = LinearProgram(c=[-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    monkeypatch.setattr(lp_module, "MAX_PIVOTS", 0)
    with pytest.raises(SolverError, match="pivot limit 0 exceeded"):
        solve(lp)


def test_deterministic_repeat():
    rng = np.random.default_rng(7)
    c, a, b = random_bounded_lp(rng)
    lp = LinearProgram(c=c, a_ub=a, b_ub=b)
    first = solve(lp)
    second = solve(lp)
    assert first.objective == second.objective
    assert first.x == second.x
    assert first.iterations == second.iterations


def test_feasibility_certificate_and_oracle_agreement():
    rng = np.random.default_rng(42)
    for _ in range(40):
        c, a, b = random_bounded_lp(rng)
        lp = LinearProgram(c=c, a_ub=a, b_ub=b)
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.residual <= 1e-9 + 1e-12
        assert min(sol.x) >= -1e-9
        assert sol.iterations < 10_000
        expected = enumerate_lp_minimum(c, a, b)
        assert sol.objective == pytest.approx(expected, abs=1e-8)
