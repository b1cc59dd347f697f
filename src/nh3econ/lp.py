"""Two-phase simplex solver for small linear programs.

Problems are stated in the standard form

    minimize    c . x
    subject to  A_ub . x <= b_ub
                A_eq . x == b_eq
                x >= 0

The instances this toolkit produces are tiny (a handful of variables and
rows), so the implementation favours robustness and determinism over
speed: a dense tableau of double-precision floats held in plain lists,
Bland's rule for both the entering and the leaving variable (ties broken
by lowest index), which guarantees termination and makes the pivot
sequence identical across platforms.

Pivot and reduced-cost tests use the absolute tolerance `TOL`, so whether a
program solves depends on its units: callers scale theirs (as `gtfp` does).
The ratio test is relative: two ratios tie within `TOL` times the lower.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import mul

from .errors import InputError, SolverError

TOL = 1e-9
MAX_PIVOTS = 10_000


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _floats(v, name: str, shape_error: str) -> tuple[float, ...]:
    """v as a tuple of finite floats; anything but a flat sequence of
    numbers raises InputError(shape_error)."""
    try:
        if isinstance(v, (str, bytes)):
            raise TypeError
        values = tuple(map(float, v))
    except (TypeError, ValueError):
        raise InputError(shape_error) from None
    if not all(map(math.isfinite, values)):
        raise InputError(f"{name} contains non-finite entries")
    return values


def _as_matrix(a, name: str, n: int) -> tuple[tuple[float, ...], ...]:
    error = f"{name} must be a 2-d array with {n} columns"
    try:
        rows = () if a is None else tuple(a)
    except TypeError:
        raise InputError(error) from None
    rows = tuple(_floats(row, name, error) for row in rows)
    if any(len(row) != n for row in rows):
        raise InputError(error)
    return rows


def _as_vector(b, name: str, m: int) -> tuple[float, ...]:
    values = () if b is None else _floats(b, name, f"{name} must be a sequence of numbers")
    if len(values) != m:
        raise InputError(f"{name} length {len(values)} does not match {m} rows")
    return values


class LinearProgram:
    """Container for one standard-form minimization problem.

    Accepts any sequences of numbers (lists, tuples, arrays) and stores
    them as tuples of floats, the matrices as tuples of rows.
    """

    __slots__ = ("c", "a_ub", "b_ub", "a_eq", "b_eq")

    def __init__(self, c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
        c = _floats(c, "c", "c must be a sequence of numbers")
        if not c:
            raise InputError("objective must have at least one coefficient")
        n = len(c)
        self.c = c
        self.a_ub = _as_matrix(a_ub, "a_ub", n)
        self.b_ub = _as_vector(b_ub, "b_ub", len(self.a_ub))
        self.a_eq = _as_matrix(a_eq, "a_eq", n)
        self.b_eq = _as_vector(b_eq, "b_eq", len(self.a_eq))

    @property
    def n(self) -> int:
        return len(self.c)


class LpSolution:
    __slots__ = ("status", "x", "objective", "residual", "iterations")

    def __init__(self, status: LpStatus, x: tuple[float, ...] | None = None,
                 objective: float = float("nan"), residual: float = float("nan"),
                 iterations: int = 0):
        self.status = status
        self.x = x
        self.objective = objective
        self.residual = residual
        self.iterations = iterations

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


def _pivot(tableau: list[list[float]], basis: list[int], row: int, col: int) -> None:
    """Divide the pivot row by the pivot, then subtract from every other row
    its pivot-column entry times the new pivot row. Adding 0.0 turns the
    pivot row's -0.0 entries into 0.0, as eliminating it with factor 0.0
    would, so zeros (and zero-valued x entries) carry the signs of the
    rank-one update `T -= outer(pivot column, pivot row)`."""
    pivot = tableau[row][col]
    prow = tableau[row] = [v / pivot + 0.0 for v in tableau[row]]
    for i, r in enumerate(tableau):
        if i != row:
            f = r[col]
            tableau[i] = [v - f * p for v, p in zip(r, prow)]
    basis[row] = col


def _run_simplex(tableau: list[list[float]], basis: list[int],
                 start_iter: int) -> tuple[int, bool]:
    """Iterate Bland pivots on a tableau whose last row holds reduced costs.

    Returns (iterations used, bounded). Row operations keep the last row's
    final entry equal to the negated objective value.
    """
    tol = TOL
    m = len(tableau) - 1
    n_cols = len(tableau[-1]) - 1
    iterations = start_iter
    while True:
        if iterations >= MAX_PIVOTS:
            raise SolverError(f"pivot limit {MAX_PIVOTS} exceeded (cycling guard)")
        reduced = tableau[-1]
        entering = -1
        for j in range(n_cols):  # Bland: lowest eligible index enters
            if reduced[j] < -tol and j not in basis:
                entering = j
                break
        if entering < 0:
            return iterations, True
        best_ratio = math.inf
        leaving = -1
        for i in range(m):
            col = tableau[i][entering]
            if col > tol:
                ratio = tableau[i][-1] / col
                # lowest ratio; a relative tie goes to the lowest basic index
                if leaving < 0 or ratio < best_ratio - tol * abs(best_ratio) or (
                    ratio <= best_ratio + tol * abs(best_ratio)
                    and basis[i] < basis[leaving]
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return iterations, False
        _pivot(tableau, basis, leaving, entering)
        iterations += 1


def solve(lp: LinearProgram) -> LpSolution:
    """Solve a linear program with the two-phase simplex method.

    Deterministic for identical inputs. Raises SolverError if the pivot
    guard trips; returns statuses INFEASIBLE/UNBOUNDED instead of raising
    for well-posed but unsolvable programs.
    """
    n = lp.n
    m_ub = len(lp.a_ub)
    m = m_ub + len(lp.a_eq)

    if m == 0:
        # only x >= 0 constrains the problem
        if all(v >= -TOL for v in lp.c):
            return LpSolution(LpStatus.OPTIMAL, (0.0,) * n, 0.0, 0.0, 0)
        return LpSolution(LpStatus.UNBOUNDED)

    # Equality rows with slack columns for the inequalities.
    n_slack = n + m_ub
    a = [[*row, *(1.0 if k == i else 0.0 for k in range(m_ub))]
         for i, row in enumerate(lp.a_ub)]
    a += [[*row, *[0.0] * m_ub] for row in lp.a_eq]
    b = [*lp.b_ub, *lp.b_eq]

    # Normalize to b >= 0 (flips slack signs for the affected rows). A
    # slack column can seed the basis when its row kept b >= 0.
    basis = [-1] * m
    needs_artificial = []
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
            needs_artificial.append(i)
        elif i < m_ub:
            basis[i] = n + i
        else:
            needs_artificial.append(i)

    # Artificial variables n_slack, n_slack + 1, ... seed the other rows.
    # Only structural and slack columns may enter, so an artificial never
    # re-enters the basis and no step reads its column: the tableau leaves
    # those columns out (every column is updated on its own).
    tableau = [[*a[i], b[i]] for i in range(m)]
    tableau.append([0.0] * (n_slack + 1))
    for k, i in enumerate(needs_artificial):
        basis[i] = n_slack + k

    iterations = 0
    if needs_artificial:
        # Phase 1: minimize the sum of artificials.
        for i in needs_artificial:
            tableau[-1] = [o - v for o, v in zip(tableau[-1], tableau[i])]
        iterations, _ = _run_simplex(tableau, basis, 0)
        phase1_obj = -tableau[-1][-1]
        if phase1_obj > TOL * max(1.0, *map(abs, b)):
            return LpSolution(LpStatus.INFEASIBLE, iterations=iterations)
        # Drive leftover zero-valued artificials out of the basis.
        keep_rows = [True] * m
        for i in range(m):
            if basis[i] >= n_slack:
                j = next((j for j in range(n_slack) if abs(tableau[i][j]) > TOL), -1)
                if j >= 0:
                    _pivot(tableau, basis, i, j)
                else:
                    keep_rows[i] = False  # redundant constraint
        tableau = [r for r, keep in zip(tableau, keep_rows) if keep] + tableau[-1:]
        basis = [col for col, keep in zip(basis, keep_rows) if keep]
        m = len(basis)

    # Phase 2 objective row: reduced costs of the original objective.
    tableau[-1] = [*lp.c, *[0.0] * (n_slack - n + 1)]
    for i in range(m):
        f = tableau[-1][basis[i]]
        if f != 0.0:
            tableau[-1] = [o - f * v for o, v in zip(tableau[-1], tableau[i])]

    iterations, bounded = _run_simplex(tableau, basis, iterations)
    if not bounded:
        return LpSolution(LpStatus.UNBOUNDED, iterations=iterations)

    values = dict(zip(basis, (r[-1] for r in tableau)))
    x = tuple(values.get(j, 0.0) for j in range(n))
    residual = _max_violation(lp, x)
    return LpSolution(LpStatus.OPTIMAL, x, _dot(lp.c, x), residual, iterations)


def _dot(u, v) -> float:
    return math.fsum(map(mul, u, v))


def _max_violation(lp: LinearProgram, x: tuple[float, ...]) -> float:
    """Largest constraint violation of x, including negativity of x."""
    worst = max(0.0, -min(x))
    for row, b in zip(lp.a_ub, lp.b_ub):
        worst = max(worst, _dot(row, x) - b)
    for row, b in zip(lp.a_eq, lp.b_eq):
        worst = max(worst, abs(_dot(row, x) - b))
    return worst
