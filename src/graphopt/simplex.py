"""Dense two-phase bounded-variable simplex with dual values.

The solver works on a :class:`~graphopt.standard_form.StandardFormProblem`.
Every column is moved to a lower bound of zero: shifted by a finite lower
bound, reflected about its upper bound when only that one is finite, or
split in two when it is free.  A column with ``lower == upper`` is
substituted out.  A finite width ``u = upper - lower`` stays data and never
becomes a row: this is the upper-bounding technique (Dantzig 1955; Chvatal,
*Linear Programming*, ch. 8).  A nonbasic column at its upper bound is stored
complemented, ``x -> u - x``, so that every nonbasic column reads zero.  The
ratio test stops a basic column at zero or at its upper bound; when the
entering column's own bound binds first, the column just flips to its
complement and no pivot is made.

The reduced costs are carried as one extra tableau row that every pivot
updates like any other row, and the rank-1 update only touches rows with a
nonzero entry in the pivot column.  Phase I minimizes the sum of the
artificials, Phase II the true objective.  Dantzig pricing is used until the
iteration count stalls on degenerate pivots, after which Bland's rule takes
over so the method cannot cycle.

Dual convention: the reported dual of a row is the sensitivity of the
optimal value to that row's right-hand side, `y_i = dV/db_i`.  For a
minimization with "le" rows this makes duals nonpositive.  Reduced costs
are reported as `c - A'y` over the rows as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalBreakdownError
from .standard_form import StandardFormProblem

_RC_TOL = 1e-9          # entering threshold on reduced costs
_PIVOT_TOL = 1e-11      # smallest usable pivot element, relative to its column
_PIVOT_GOOD = 1e-9      # pivots below this count toward numerical breakdown
_FEAS_TOL = 1e-7        # Phase I residual treated as infeasible above this
_DEGEN_STALL = 60       # degenerate pivots before Bland's rule engages
_BREAKDOWN_STALL = 50   # consecutive tiny pivots before giving up


@dataclass
class SolveResult:
    """Outcome of one LP or MILP solve.

    ``duals`` and ``reduced_costs`` follow the sensitivity convention of the
    module docstring and are ``None`` for MILP solves.  ``iterations`` counts
    simplex pivots plus bound flips (summed over the nodes of a MILP).
    """

    status: str                       # optimal | infeasible | unbounded | iteration_limit
    objective: float = math.nan
    primal: Optional[np.ndarray] = None
    duals: Optional[np.ndarray] = None
    reduced_costs: Optional[np.ndarray] = None
    iterations: int = 0
    nodes_explored: int = 0
    mip_gap: float = 0.0

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


@dataclass
class _Tableau:
    rows: np.ndarray          # (m + 1, n_total + 1): rows, then reduced costs; rhs last
    basis: np.ndarray         # basic column per row
    upper: np.ndarray         # width of each column, inf when unbounded above
    row_upper: np.ndarray     # width of each row's basic column
    flipped: np.ndarray       # bool mask: column stored complemented, x -> upper - x
    iterations: int = 0
    tiny_pivots: int = 0
    degenerate: int = 0
    bland: bool = False


def _pivot(t: _Tableau, row: int, col: int) -> None:
    piv = t.rows[row, col]
    if abs(piv) < _PIVOT_TOL:
        raise NumericalBreakdownError(f"pivot {piv:.3e} below tolerance")
    if abs(piv) < _PIVOT_GOOD:
        t.tiny_pivots += 1
        if t.tiny_pivots > _BREAKDOWN_STALL:
            raise NumericalBreakdownError("persistent near-singular pivots")
    else:
        t.tiny_pivots = 0
    pivot_row = t.rows[row] / piv
    # rows with an exact zero in the pivot column are left as they are
    touched = t.rows[:, col].nonzero()[0]
    t.rows[touched] -= np.multiply.outer(t.rows[touched, col], pivot_row)
    t.rows[row] = pivot_row
    t.basis[row] = col
    t.row_upper[row] = t.upper[col]
    t.iterations += 1


def _flip(t: _Tableau, col: int) -> None:
    """Move a nonbasic column to its other bound by complementing it."""
    t.rows[:, -1] -= t.upper[col] * t.rows[:, col]
    t.rows[:, col] *= -1.0
    t.flipped[col] = not t.flipped[col]
    t.iterations += 1


def _complement_basic(t: _Tableau, row: int) -> None:
    """Complement the basic column of ``row`` so it can leave at its upper bound."""
    j = t.basis[row]
    t.rows[row] *= -1.0
    t.rows[row, j] = 1.0
    t.rows[row, -1] += t.upper[j]
    t.flipped[j] = not t.flipped[j]


def _run_phase(t: _Tableau, n_price: int, max_iterations: int) -> str:
    """Drive the tableau to optimality over the reduced-cost row.

    Only the first ``n_price`` columns may enter.  Returns "optimal",
    "unbounded", or "iteration_limit".
    """
    m = t.basis.size
    rc = t.rows[m, :n_price]
    rhs = t.rows[:m, -1]
    no_ratio = np.full(m, np.inf)
    while True:
        if t.iterations > max_iterations:
            return "iteration_limit"
        if t.bland:
            candidates = (rc < -_RC_TOL).nonzero()[0]
            if candidates.size == 0:
                return "optimal"
            entering = int(candidates[0])
        else:
            entering = int(rc.argmin())
            if rc[entering] >= -_RC_TOL:
                return "optimal"
        col = t.rows[:m, entering]
        # entries this small next to the column's largest are rounding noise
        tol = _PIVOT_TOL * np.maximum.reduce(np.abs(col), initial=1.0)
        down = col > tol            # basic column falls toward zero
        up = col < -tol             # basic column rises toward its upper bound
        ratios = np.divide(np.where(down, rhs, rhs - t.row_upper), col,
                           out=no_ratio.copy(), where=down | up)
        best = np.minimum.reduce(ratios, initial=np.inf)
        width = t.upper[entering]
        if width <= best:
            if width == np.inf:
                return "unbounded"
            _flip(t, entering)
            t.degenerate = 0
            continue
        ties = (ratios <= best + 1e-12).nonzero()[0]
        # smallest basic-variable index among ties keeps the walk deterministic
        # and is the Bland-compatible choice
        leaving = int(ties[0]) if ties.size == 1 else int(ties[np.argmin(t.basis[ties])])
        if best < 1e-12:
            t.degenerate += 1
            if t.degenerate > _DEGEN_STALL:
                t.bland = True
        else:
            t.degenerate = 0
        if col[leaving] < 0.0:
            _complement_basic(t, leaving)
        _pivot(t, leaving, entering)


def solve_lp(problem: StandardFormProblem, *, max_iterations: Optional[int] = None) -> SolveResult:
    """Solve the LP relaxation of ``problem`` (integrality is ignored)."""
    lo, hi = problem.lower, problem.upper
    if np.any(lo > hi + 1e-12):
        return SolveResult(status="infeasible", iterations=0)
    m = problem.n_rows
    a_given = problem.dense_rows()
    c_given = np.asarray(problem.objective, dtype=float)

    # --- column transforms to reach 0 <= t <= width ------------------------
    has_lo = np.isfinite(lo)
    has_hi = np.isfinite(hi)
    width = np.full(lo.size, np.inf)
    width[has_lo] = hi[has_lo] - lo[has_lo]
    offset = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    sign = np.where(has_lo | ~has_hi, 1.0, -1.0)
    kept = np.flatnonzero(width > 0.0)  # fixed columns stay at their offset
    free = np.flatnonzero(~(has_lo | has_hi))  # split: the negative part comes last
    cols = np.concatenate([kept, free])
    col_sign = np.concatenate([sign[kept], -np.ones(free.size)])
    n_struct = cols.size

    # --- rows: "ge" becomes "le", then each row is signed so its rhs is >= 0
    senses = np.array(problem.senses, dtype=str)
    eq = senses == "eq"
    given_sign = np.where(senses == "ge", -1.0, 1.0)
    b_le = given_sign * (problem.rhs - a_given @ offset)
    row_sign = np.where(b_le < 0.0, -1.0, 1.0)
    sign_of_row = given_sign * row_sign
    slack_rows = np.flatnonzero(~eq)
    art_rows = np.flatnonzero(eq | (row_sign < 0.0))
    n_free = n_struct + slack_rows.size   # columns allowed to enter in Phase II
    n_total = n_free + art_rows.size
    slack_cols = np.arange(n_struct, n_free)
    art_cols = np.arange(n_free, n_total)

    rows = np.zeros((m + 1, n_total + 1))
    rows[:m, :n_struct] = a_given[:, cols] * col_sign * sign_of_row[:, None]
    rows[slack_rows, slack_cols] = row_sign[slack_rows]
    rows[art_rows, art_cols] = 1.0
    rows[:m, -1] = row_sign * b_le
    basis = np.zeros(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols
    init_col = basis.copy()  # identity column each row started with
    # per tableau column; the rhs column never flips
    upper = np.concatenate([width[kept], np.full(n_total + 1 - kept.size, np.inf)])

    t = _Tableau(rows=rows, basis=basis, upper=upper, row_upper=np.full(m, np.inf),
                 flipped=np.zeros(n_total + 1, dtype=bool))
    if max_iterations is None:
        max_iterations = max(5000, 50 * (m + n_total))

    # --- Phase I: minimize the artificials ----------------------------------
    if art_rows.size:
        rows[m] = -rows[art_rows].sum(axis=0)
        rows[m, art_cols] = 0.0
        status = _run_phase(t, n_total, max_iterations)
        if status == "iteration_limit":
            return SolveResult(status="iteration_limit", iterations=t.iterations)
        if status == "unbounded":  # pragma: no cover - Phase I is bounded below
            raise NumericalBreakdownError("phase I reported unbounded")
        # decide from the artificials' values, not the carried objective entry
        if rows[:m, -1][t.basis >= n_free].sum() > _FEAS_TOL:
            return SolveResult(status="infeasible", iterations=t.iterations)
        # drive leftover artificials out of the basis where possible
        for i in np.flatnonzero(t.basis >= n_free):
            nz = np.flatnonzero(np.abs(rows[i, :n_free]) > _PIVOT_GOOD)
            if nz.size:
                _pivot(t, i, int(nz[0]))
            # an all-zero row is redundant; its artificial stays basic at 0

    # --- Phase II: the true objective over the complemented columns ---------
    c_int = np.zeros(n_total + 1)
    c_int[:n_struct] = c_given[cols] * col_sign
    cost = np.where(t.flipped, -c_int, c_int)
    rows[m] = cost - cost[t.basis] @ rows[:m]
    t.bland = False
    t.degenerate = 0
    # with every column fixed and no slack, nothing can enter
    status = _run_phase(t, n_free, max_iterations) if n_free else "optimal"
    if status != "optimal":
        return SolveResult(status=status, iterations=t.iterations)

    # --- recover primal, duals, reduced costs -------------------------------
    x_int = np.zeros(n_total + 1)
    x_int[t.basis] = rows[:m, -1]
    x_int[t.flipped] = upper[t.flipped] - x_int[t.flipped]
    x = offset.copy()
    x[kept] += sign[kept] * x_int[:kept.size]
    x[free] -= x_int[kept.size:n_struct]

    # y = c_B B^-1, priced afresh under the final complementing; slacks and
    # artificials cost nothing
    cost = np.where(t.flipped, -c_int, c_int)
    y = (cost[t.basis] @ rows[:m, init_col]) * sign_of_row
    reduced = c_given - a_given.T @ y

    objective = float(c_given @ x) + problem.objective_constant
    return SolveResult(
        status="optimal",
        objective=objective,
        primal=x,
        duals=y,
        reduced_costs=reduced,
        iterations=t.iterations,
    )
