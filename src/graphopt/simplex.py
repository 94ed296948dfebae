"""Dense bounded-variable simplex, primal and dual, with dual values.

The solver works on a :class:`~graphopt.standard_form.StandardFormProblem`.
Every column stays one column in its own units: a nonbasic column rests at
one of its bounds, or at zero when it is free, and the tableau reads each
column's distance from where it rests (Koberstein, *The dual simplex
method*, 2005, ch. 3).  A finite width ``u = upper - lower`` stays data and
never becomes a row: this is the upper-bounding technique (Dantzig 1955;
Chvatal, *Linear Programming*, ch. 8).  A fixed column stays in the tableau
at zero width and never enters.  A column at its upper bound, or with only
an upper bound, is stored complemented, ``x -> u - x``.  A basic free
column may take either sign and never leaves; a nonbasic one is negated at
zero distance to enter downward, which counts as no iteration.  The ratio
test stops a basic column at its bounds; when the entering column's own
bound binds first, the column just flips to its complement and no pivot is
made.

One layout (:class:`_Frame`) serves every solve of one matrix and its row
signs, whatever the bounds: the structural columns, one logical column per
row (the slacks of the inequality rows, then a zero-width column for each
equality row) and the rhs.  The reduced costs are one extra tableau row
that every pivot updates like any other row, and the rank-1 update only
touches rows with a nonzero in the pivot column and columns with one in the
pivot row.  Dantzig pricing is used until the iteration count stalls on
degenerate pivots (60 in a row; in the dual simplex, as many as there are
rows, if more), after which Bland's rule takes over so the method cannot
cycle.

Every solve takes one path (Koberstein 2005, ch. 4).  In its start tableau
nonbasic boxed columns go to the bound their reduced cost favours and free
ones face the way their cost falls.  A column unbounded above whose reduced
cost is still negative has its cost shifted to read zero, so that the start
is dual feasible, and a bounded dual simplex restores primal feasibility.
The true costs are then priced back in, and primal Phase II finishes.  An
infeasible verdict is the dual simplex's certificate, which holds whatever
the costs (see :func:`_run_dual`).

The start.  A problem may carry a :class:`~graphopt.standard_form.Basis`
hint, such as its parent's final basis in branch-and-bound.  Every optimal
solve keeps its final tableau privately on the basis it returns, and
nothing writes to it again.  B^-1 [A | I] depends on none of the bounds,
right-hand sides or costs, and the logical columns read B^-1.  So when the
hint keeps a tableau over the same matrix object and row signs, the tableau
is copied and each column rests where it rested, or, where that bound is
now infinite, at its other bound or zero.  The rhs column ``B^-1 (b - A_N
x_N)`` is then one matrix-vector product and the reduced costs ``c - c_B
B^-1 A`` one vector-matrix product, priced afresh even under the same
objective: the re-solve of a branch-and-bound child, of a Benders stage
whose copies are pinned or unpinned, and of a Lagrangian step.  Rows the
matrix gained below the kept ones, such as a Benders stage's cuts, join the
copy with their logicals basic, as ``a - a_B B^-1 [A | I]``: the bordered
inverse ``[B^-1 0; -a_B B^-1 1]``.  Otherwise the hint's basic columns are
pivoted into the all-logical tableau by Gauss-Jordan elimination, counted as
no iteration; rows past the hint's keep their logicals basic.  Without a
usable hint (the wrong size, or singular) the start is the all-logical
tableau itself.  A kept start on which the dual simplex finds a row it can
neither repair nor prove infeasible, or could repair only by pivoting on
rounding noise, is rebuilt once by Gauss-Jordan elimination, since the kept
pivots may hold the rounding at fault.  Any other hinted start that fails
so starts once more from the all-logical tableau; there the same failure
raises :class:`NumericalBreakdownError`.  The optimum is read from ``B^-1
b'``, refined by one step of iterative refinement (see :func:`_optimal`).

Dual convention: the reported dual of a row is the sensitivity of the
optimal value to that row's right-hand side, `y_i = dV/db_i`.  For a
minimization with "le" rows this makes duals nonpositive.  Reduced costs
are reported as `c - A'y` over the rows as given.  An optimal result holds
its duals, reduced costs and basis status codes as plain arrays, worked out
once when the solve ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalBreakdownError
from .standard_form import (
    AT_LOWER, AT_UPPER, BASIC, FREE_ZERO, NONBASIC, Basis, StandardFormProblem,
)

_RC_TOL = 1e-9          # entering threshold on reduced costs
_PIVOT_TOL = 1e-11      # smallest usable pivot element, relative to its column
_PIVOT_GOOD = 1e-9      # pivots below this count toward numerical breakdown
_PRIMAL_TOL = 1e-9      # a basic column this far outside its bounds must leave (dual simplex)
_ROUNDING = 1e-12       # rounding noise per unit of the data a value is summed from
_DEGEN_STALL = 60       # degenerate pivots before Bland's rule engages
_BREAKDOWN_STALL = 50   # consecutive tiny pivots before giving up
_NO_COLUMNS = np.zeros(0, dtype=np.intp)


@dataclass
class SolveResult:
    """Outcome of one LP or MILP solve.

    ``duals`` and ``reduced_costs`` follow the sensitivity convention of the
    module docstring and are ``None`` for MILP solves.  ``iterations`` counts
    primal and dual simplex pivots and bound flips, nothing else (summed over
    the nodes of a MILP).  ``basis`` is the final basis of an optimal LP
    solve, in the problem's own columns and rows, and for an optimal MILP
    solve that of its root relaxation, whose result is ``relaxation``;
    handed back as ``problem.basis``, it starts the simplex there, from a
    copy of the tableau it keeps (see the module docstring).
    """

    status: str                       # optimal | infeasible | unbounded | iteration_limit
    objective: float = math.nan
    primal: Optional[np.ndarray] = None
    duals: Optional[np.ndarray] = None
    reduced_costs: Optional[np.ndarray] = None
    iterations: int = 0
    nodes_explored: int = 0
    basis: Optional[Basis] = None
    relaxation: Optional["SolveResult"] = None


@dataclass(eq=False)
class _Tableau:
    """A solve's tableau; an optimal solve keeps its final one on its basis, never written to again.

    It is made with every column resting at a finite bound, or at zero when
    free: one resting at an infinite bound is complemented, which moves no
    value, since its offset is the same either way.  A basic one's row is
    negated too, which restores its unit entry.
    """

    frame: _Frame             # the layout of the columns and rows
    rows: np.ndarray          # (m + 1, n_total + 1): rows, then reduced costs; rhs last
    basis: np.ndarray         # basic column per row
    columns: _Columns         # this solve's bounds
    flipped: np.ndarray       # bool mask: column stored complemented, at its upper bound or negated
    upper: np.ndarray = field(init=False)      # columns.upper
    free: np.ndarray = field(init=False)       # columns.free
    row_upper: np.ndarray = field(init=False)  # width of each row's basic column
    row_lower: np.ndarray = field(init=False)  # 0, or -inf where the basic column is free
    iterations: int = 0
    tiny_pivots: int = 0
    degenerate: int = 0
    bland: bool = False

    def __post_init__(self) -> None:
        self.upper, self.free = self.columns.upper, self.columns.free
        stray = (self.upper == np.inf) & (self.columns.lower == 0.0) & (self.flipped != self.columns.reflect)
        if stray.any():
            _negate(self, stray)
            self.rows[:-1][stray[self.basis]] *= -1.0
        self.row_upper = self.upper[self.basis]
        self.row_lower = self.columns.lower[self.basis]


class _Columns(NamedTuple):
    """One solve's bounds over the tableau columns: where each rests and how far it runs."""

    offset: np.ndarray        # per structural column: its finite lower bound, else its upper bound, else 0
    upper: np.ndarray         # the width of each column, inf when unbounded; the rhs last
    lower: np.ndarray         # 0, or -inf for a free column, whose value takes any sign
    free: np.ndarray          # the free columns
    reflect: np.ndarray       # bool mask: a column with only an upper bound, which rests there

    @staticmethod
    def read(lo: np.ndarray, hi: np.ndarray, tail: np.ndarray) -> _Columns:
        has_lo = np.isfinite(lo)
        reflect = np.zeros(lo.size + tail.size, dtype=bool)
        if has_lo.all():  # the common case: every column rests at its lower bound
            offset, free = lo, _NO_COLUMNS
            width = np.maximum(hi - lo, 0.0)
        else:
            has_hi = np.isfinite(hi)
            width = np.full(lo.size, np.inf)
            width[has_lo] = np.maximum(hi[has_lo] - lo[has_lo], 0.0)
            offset = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
            free = (~(has_lo | has_hi)).nonzero()[0]
            reflect[:lo.size] = has_hi & ~has_lo
        upper = np.concatenate((width, tail))
        lower = np.zeros(upper.size)
        lower[free] = -np.inf
        return _Columns(offset, upper, lower, free, reflect)


@dataclass(frozen=True, eq=False)
class _Frame:
    """The layout of one matrix and one set of row senses, whatever the bounds.

    Problems that share their rows through
    :meth:`StandardFormProblem.with_changes` share one frame (see
    :meth:`StandardFormProblem.memo`), which a kept tableau carries to the
    next re-solve; :meth:`holds` says whether a kept tableau can start a
    solve over another frame.
    """

    a: np.ndarray             # the dense matrix, compared by identity
    eq: np.ndarray            # the equality rows
    given_sign: np.ndarray    # -1 on "ge" rows
    logical: np.ndarray       # row i's logical column: inequality slacks first, then equality rows
    order: np.ndarray         # the rows in the order of their logical columns
    n_price: int              # the columns before the equality rows' logicals, which never enter
    tail: np.ndarray          # widths past the structural columns: logicals, rhs

    @staticmethod
    def build(a: np.ndarray, eq: np.ndarray, given_sign: np.ndarray) -> _Frame:
        n = a.shape[1]
        order = np.argsort(eq, kind="stable")  # the rows in the order of their logicals
        logical = np.empty(eq.size, dtype=np.intp)
        logical[order] = np.arange(n, n + eq.size)
        return _Frame(a=a, eq=eq, given_sign=given_sign, logical=logical, order=order,
                      n_price=n + eq.size - np.count_nonzero(eq),
                      tail=np.concatenate([np.where(eq[order], 0.0, np.inf), [np.inf]]))

    def holds(self, kept: _Frame) -> bool:
        """Can ``kept``'s tableau start a solve here: ``kept``'s matrix object, or rows appended to it?"""
        m = kept.eq.size
        return self is kept or (np.array_equal(self.eq[:m], kept.eq)
                                and np.array_equal(self.given_sign[:m], kept.given_sign)
                                and (self.a is kept.a or self.eq.size > m and np.array_equal(self.a[:m], kept.a)))


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
    # rows with an exact zero in the pivot column, and columns with one in the
    # pivot row (every basic column but this row's), are left as they are
    touched, cols = t.rows[:, col].nonzero()[0], pivot_row.nonzero()[0]
    t.rows[touched[:, None], cols] -= np.multiply.outer(t.rows[touched, col], pivot_row[cols])
    t.rows[row] = pivot_row
    t.basis[row] = col
    t.row_upper[row] = t.upper[col]
    t.row_lower[row] = t.columns.lower[col]
    t.iterations += 1


def _flip(t: _Tableau, cols: np.ndarray | list[int]) -> None:
    """Move nonbasic columns to their other bound by complementing them; each counts as an iteration."""
    if len(cols):
        t.rows[:, -1] -= t.rows[:, cols] @ t.upper[cols]
        _negate(t, cols)
        t.iterations += len(cols)


def _negate(t: _Tableau, cols: np.ndarray | list[int]) -> None:
    """Complement columns where they rest, moving no value: a nonbasic free column turns to enter downward."""
    t.rows[:, cols] *= -1.0
    t.flipped[cols] = ~t.flipped[cols]


def _price(t: _Tableau, c_int: np.ndarray) -> None:
    """Write the reduced costs ``c - c_B B^-1 A``, with ``c`` under the tableau's complementing."""
    m = t.basis.size
    cost = np.where(t.flipped, -c_int, c_int)
    t.rows[m] = cost - cost[t.basis] @ t.rows[:m]


def _complement_basic(t: _Tableau, row: int) -> None:
    """Complement the basic column of ``row`` so it can leave at its upper bound."""
    j = t.basis[row]
    t.rows[row] *= -1.0
    t.rows[row, j] = 1.0
    t.rows[row, -1] += t.upper[j]
    t.flipped[j] = not t.flipped[j]


def _run_phase(t: _Tableau, n_price: int, max_iterations: int,
               can_enter: Optional[np.ndarray] = None) -> str:
    """Drive the tableau to optimality over the reduced-cost row.

    Only the first ``n_price`` columns may enter, and of those only those
    that ``can_enter`` marks, if given.  Returns "optimal", "unbounded", or
    "iteration_limit".
    """
    m = t.basis.size
    reduced = t.rows[m, :n_price]
    rhs = t.rows[:m, -1]
    no_ratio = np.full(m, np.inf)
    while True:
        if t.iterations > max_iterations:
            return "iteration_limit"
        if t.free.size:  # a nonbasic free column enters either way
            _negate(t, t.free[reduced[t.free] > _RC_TOL])
        rc = reduced if can_enter is None else np.where(can_enter, reduced, 0.0)
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
        ratios = np.divide(np.where(down, rhs - t.row_lower, rhs - t.row_upper), col,
                           out=no_ratio.copy(), where=down | up)
        best = np.minimum.reduce(ratios, initial=np.inf)
        width = t.upper[entering]
        if width <= best:
            if width == np.inf:
                return "unbounded"
            _flip(t, [entering])
            t.degenerate = 0
            continue
        ties = (ratios <= best + 1e-12).nonzero()[0]
        # smallest basic-variable index among ties keeps the walk deterministic
        # and is the Bland-compatible choice
        leaving = int(ties[0]) if ties.size == 1 else int(ties[np.argmin(t.basis[ties])])
        _count_degenerate(t, best)
        if col[leaving] < 0.0:
            _complement_basic(t, leaving)
        _pivot(t, leaving, entering)


def _run_dual(t: _Tableau, can_enter: np.ndarray, max_iterations: int, b: np.ndarray) -> str:
    """Bounded dual simplex from a tableau whose reduced costs are nonnegative.

    The basic column farthest outside its bounds leaves (the lowest-indexed
    one under Bland's rule); one above its upper bound is complemented first,
    so that it leaves at that bound.  A basic free column never leaves.  Only
    ``can_enter`` columns may enter; a free one is turned to enter downward
    only when none can as it stands, since its zero dual step would take it
    at any pivot size.  Returns "optimal", "infeasible", or "iteration_limit".

    A leaving row with no entering column is not yet proof of infeasibility:
    its value may be rounding that the pivots left behind.  The rhs column is
    then recomputed from B^-1 and ``b`` (see :func:`_rhs_column`) and the
    row tested again.  "infeasible" needs a violation that no boxed column,
    not even one whose entry is below the pivot tolerance, can lift back, and
    that exceeds ``_PRIMAL_TOL + _ROUNDING * max|B^-1_i| * sum|b'_j|`` over
    the ``j`` with ``B^-1_ij != 0``: the entries of B^-1 carry rounding too,
    which a product with ``|B^-1_i|`` would miss.  An entry below the pivot
    tolerance on a column unbounded above is that rounding, and lifts
    nothing.  Otherwise the run raises :class:`NumericalBreakdownError`, so
    this bound errs wide.  A row that is merely within it still leaves when a
    column can enter: accepting it would return values outside their bounds,
    by as much as 1e-3 on rows that a -1e9 bound reaches.  An entry below
    ``_PIVOT_GOOD`` times the row's largest is no pivot while a larger one
    can enter: a pivot of -1.2e-10 on a row whose largest entry is 2 left
    entries near 1e10 in B^-1 and a feasible LP called infeasible.  Where
    only such entries can enter, the run raises too.
    """
    m = t.basis.size
    rhs = t.rows[:m, -1]
    rc = t.rows[m, :-1]
    # zero dual steps are the rule on large dual-degenerate re-solves; Bland's
    # rule engaged after 60 of them crawls (4,198 pivots instead of 513 on a
    # 601-row storage stage), so the run it takes grows with the row count
    stall = max(_DEGEN_STALL, m)
    fresh = None  # b' of a rhs column recomputed since the last pivot
    if not m:
        return "optimal"  # no basic column to repair
    while True:
        if t.iterations > max_iterations:
            return "iteration_limit"
        excess = np.maximum(t.row_lower - rhs, rhs - t.row_upper)
        if t.bland:
            outside = (excess > _PRIMAL_TOL).nonzero()[0]
            if outside.size == 0:
                return "optimal"
            leaving = int(outside[np.argmin(t.basis[outside])])
        else:
            leaving = int(excess.argmax())
            if excess[leaving] <= _PRIMAL_TOL:
                return "optimal"
        if rhs[leaving] > 0.0:
            _complement_basic(t, leaving)
        row = t.rows[leaving, :-1]
        largest = np.maximum.reduce(np.abs(row), initial=1.0)
        candidates = ((row < -_PIVOT_TOL * largest) & can_enter).nonzero()[0]
        if not candidates.size and t.free.size:
            candidates = t.free[row[t.free] > _PIVOT_TOL * largest]
            _negate(t, candidates)
        if candidates.size:
            usable = candidates[row[candidates] < -_PIVOT_GOOD * largest]
            if usable.size == 0:
                raise NumericalBreakdownError(f"tableau row {leaving}: only pivots below "
                                              f"{_PIVOT_GOOD:g} of its largest entry can repair it")
            candidates = usable
        else:
            if fresh is None:
                rhs[:], fresh = _rhs_column(t, b)
                continue
            # no pivot lifts the leaving column to its bound; proven only if
            # every column taken to its far bound falls short too
            boxed = (row < 0.0) & can_enter & (t.upper[:-1] < np.inf)
            lift = np.where(boxed, t.upper[:-1], 0.0) @ -np.minimum(row, 0.0)
            inverse_row = np.abs(t.rows[leaving, t.frame.logical])  # |B^-1_i|
            reach = np.abs(fresh[inverse_row != 0.0]).sum()  # the rows B^-1_i mixes in
            noise = _ROUNDING * np.maximum.reduce(inverse_row) * reach
            if -rhs[leaving] > _PRIMAL_TOL + noise + lift:
                return "infeasible"
            raise NumericalBreakdownError(f"tableau row {leaving}: no column can repair it, and "
                                          f"rounding may account for its violation {-rhs[leaving]:.3e}")
        # a reduced cost a hair below zero is rounding noise, not a negative step
        ratios = np.maximum(rc[candidates], 0.0) / -row[candidates]
        best = ratios.min()
        ties = candidates[ratios <= best + 1e-12]
        if t.bland or ties.size == 1:
            entering = int(ties[0])
        else:  # the largest pivot among equals
            entering = int(ties[np.argmin(row[ties])])
        _count_degenerate(t, best, stall)
        _pivot(t, leaving, entering)
        fresh = None


def _count_degenerate(t: _Tableau, step: float, stall: int = _DEGEN_STALL) -> None:
    """Switch to Bland's rule after a run of more than ``stall`` zero-length steps."""
    if step < 1e-12:
        t.degenerate += 1
        if t.degenerate > stall:
            t.bland = True
    else:
        t.degenerate = 0


def solve_lp(problem: StandardFormProblem, *, max_iterations: Optional[int] = None) -> SolveResult:
    """Solve the LP relaxation of ``problem`` (integrality is ignored).

    When ``problem.basis`` is set the solve starts from that basis if it can
    (see the module docstring).  ``max_iterations=-1`` returns
    ``iteration_limit`` right after the tableau is built.
    """
    lo, hi = problem.lower, problem.upper
    if (lo > hi + 1e-12).any():
        return SolveResult(status="infeasible", iterations=0)
    frame = problem.memo(_Frame, lambda: _Frame.build(problem.matrix, *problem.row_signs()))
    hint = problem.basis
    kept = None if hint is None else hint._tableau
    cols = _Columns.read(lo, hi, frame.tail)
    b = frame.given_sign * (problem.rhs - frame.a @ cols.offset)
    c_int = np.concatenate((problem.objective, np.zeros(frame.tail.size)))
    if max_iterations is None:
        max_iterations = max(5000, 50 * (cols.upper.size - 1 + b.size))
    start = None
    if kept is not None and frame.holds(kept.frame):
        start = _from_kept(kept, frame, cols, c_int, b)
        try:
            return _solve_from(problem, start, cols.offset, c_int, b, max_iterations)
        except NumericalBreakdownError:
            start = _rebuilt(hint, frame, cols, c_int, b)  # the kept tableau's rounding may be at fault
    elif hint is not None:
        start = _from_crash(hint, frame, cols, c_int, b)
    if start is not None:
        try:
            return _solve_from(problem, start, cols.offset, c_int, b, max_iterations)
        except NumericalBreakdownError:
            pass  # the hinted basis is unreliable: start over from the all-logical one
    return _solve_from(problem, _from_logical(frame, cols, c_int, b), cols.offset, c_int, b, max_iterations)


def _solve_from(problem: StandardFormProblem, t: _Tableau, offset: np.ndarray, c_int: np.ndarray,
                b: np.ndarray, max_iterations: int) -> SolveResult:
    """The dual simplex under shifted costs, then primal Phase II under the true ones.

    Phase II enters the columns whose cost the dual run shifted, and repairs
    reduced costs that rounding left a hair below zero.
    """
    if max_iterations < 0:
        return SolveResult(status="iteration_limit")
    m = b.size
    can_enter = t.upper[:-1] != 0.0  # fixed columns and equality rows' logicals never enter
    if t.free.size:  # a free column faces the way its cost falls
        _negate(t, t.free[t.rows[m, t.free] > _RC_TOL])
    wrong_side = (t.rows[m, :-1] < -_RC_TOL) & can_enter
    boxed = wrong_side & (t.upper[:-1] < np.inf)
    _flip(t, boxed.nonzero()[0])  # to the bound their reduced cost favours
    # a column unbounded above has no such bound: its cost is shifted so that
    # its reduced cost reads zero, and the start is dual feasible
    shifted = (wrong_side & ~boxed).nonzero()[0]
    t.rows[m, shifted] = 0.0
    status = _run_dual(t, can_enter, max_iterations, b)
    if status == "optimal":
        if shifted.size:  # the true costs, priced back in
            _price(t, c_int)
        t.bland = False
        t.degenerate = 0
        n_price = t.frame.n_price
        status = _run_phase(t, n_price, max_iterations,
                            None if can_enter[:n_price].all() else can_enter[:n_price])
    if status != "optimal":
        return SolveResult(status=status, iterations=t.iterations)
    return _optimal(problem, t, offset, c_int, b)


def _from_kept(kept: _Tableau, frame: _Frame, cols: _Columns, c_int: np.ndarray, b: np.ndarray) -> _Tableau:
    """A copy of a kept final tableau, bordered with the rows the matrix gained, each column at rest.

    The rhs column (see :func:`_rhs_column`) and the reduced costs (see :func:`_price`) are worked out afresh.
    """
    if frame.eq.size > kept.basis.size:
        rows, basis, flipped = _bordered(kept, frame)
    else:
        rows, basis, flipped = kept.rows.copy(), kept.basis.copy(), kept.flipped.copy()
    t = _Tableau(frame, rows, basis, cols, flipped)
    t.rows[:b.size, -1] = _rhs_column(t, b)[0]
    _price(t, c_int)
    return t


def _bordered(kept: _Tableau, frame: _Frame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, basis and complementing of ``kept`` over ``frame``, whose matrix has rows appended.

    Each new row ``a`` joins with its logical basic, as ``a - a_B B^-1 [A | I]``: the
    logical block then reads the bordered inverse ``[B^-1 0; -a_B B^-1 1]``.
    """
    m, grown = kept.basis.size, frame.eq.size
    n = frame.a.shape[1]
    width = n + grown + 1
    place = np.concatenate([np.arange(n), frame.logical[kept.frame.order], [width - 1]])
    rows = np.zeros((grown + 1, width))
    rows[:m, place] = kept.rows[:m]
    flipped = np.zeros(width, dtype=bool)
    flipped[place] = kept.flipped
    basis = np.concatenate([place[kept.basis], frame.logical[m:]])
    new = rows[m:grown]
    new[:, :n] = frame.a[m:] * frame.given_sign[m:, None]
    new[:, flipped] *= -1.0
    new[np.arange(grown - m), frame.logical[m:]] = 1.0
    a_b = new[:, basis[:m]]
    held = a_b.any(axis=0).nonzero()[0]  # the basic columns that the new rows hold
    new -= a_b[:, held] @ rows[held]
    return rows, basis, flipped


def _rhs_column(t: _Tableau, b: np.ndarray):
    """``(B^-1 b', b')``: the rhs column of a warm tableau, from its logical columns.

    ``b'`` is ``b`` less each column complemented at a finite width, at that width.
    """
    frame = t.frame
    n = frame.a.shape[1]  # the structural columns; logicals have width 0 or none
    at_upper = (t.flipped[:n] & (t.upper[:n] < np.inf)).nonzero()[0]
    if at_upper.size:
        b = b - frame.a[:, at_upper] @ t.upper[at_upper] * frame.given_sign
    return _inverse_times(t, b), b


def _inverse_times(t: _Tableau, v: np.ndarray) -> np.ndarray:
    """``B^-1 v`` for ``v`` over the rows.

    The logical columns, the block before the rhs, read B^-1 over the rows in
    the frame's order, each negated where its logical is complemented.
    """
    m = v.size
    v = v[t.frame.order]
    return t.rows[:m, -1 - m:-1] @ np.where(t.flipped[-1 - m:-1], -v, v)


def _all_logical(frame: _Frame, cols: _Columns, c_int: np.ndarray, b: np.ndarray) -> _Tableau:
    """``[A | I | b]`` under the costs ``c_int``, every logical basic and every other column at rest."""
    a = frame.a
    m, n = a.shape
    rows = np.zeros((m + 1, n + frame.tail.size))
    rows[:m, :n] = a * frame.given_sign[:, None]
    rows[np.arange(m), frame.logical] = 1.0
    rows[:m, -1] = b
    rows[m] = c_int
    return _Tableau(frame, rows, frame.logical.copy(), cols, np.zeros(rows.shape[1], dtype=bool))


def _from_logical(frame: _Frame, cols: _Columns, c_int: np.ndarray, b: np.ndarray) -> _Tableau:
    """The all-logical tableau, every other column at rest: the start without a usable hint."""
    return _all_logical(frame, cols, c_int, b)


def _from_crash(hint: Basis, frame: _Frame, cols: _Columns, c_int: np.ndarray,
                b: np.ndarray) -> Optional[_Tableau]:
    """The tableau of ``hint`` built from the all-logical one.

    Rows past the hint's, such as cut rows added since, keep their logical
    basic.  ``None`` when the hint has the wrong size or number of basic
    entries, or is singular.
    """
    m, n = frame.a.shape
    hint_rows = np.concatenate([hint.rows, np.full(max(m - np.size(hint.rows), 0), BASIC)])
    if np.shape(hint.columns) != (n,) or hint_rows.shape != (m,):
        return None
    if np.count_nonzero(hint.columns == BASIC) + np.count_nonzero(hint_rows == BASIC) != m:
        return None
    t = _all_logical(frame, cols, c_int, b)
    width = cols.upper[:n]
    _flip(t, np.flatnonzero((hint.columns == AT_UPPER) & (width > 0.0) & (width < np.inf)))

    # B^-1 [A | I | b], and the reduced costs, by Gauss-Jordan elimination with
    # partial pivoting; rows whose logical stays basic take no pivot.  np.linalg,
    # whose first calls fault in library pages, stays off the warm-start path
    rows = t.rows
    open_rows = np.ones(m)
    open_rows[hint_rows == BASIC] = 0.0
    basic_cols = np.flatnonzero(hint.columns == BASIC)
    small = _PIVOT_GOOD * np.maximum.reduce(np.abs(rows[:m, basic_cols]), axis=None, initial=1.0)
    for j in basic_cols:
        reach = np.abs(rows[:m, j]) * open_rows
        p = int(reach.argmax())
        if reach[p] < small:
            return None  # singular
        open_rows[p] = 0.0
        _pivot(t, p, j)
    t.iterations = 0  # building the start is no simplex step
    return t


def _rebuilt(hint: Basis, frame: _Frame, cols: _Columns, c_int: np.ndarray,
             b: np.ndarray) -> Optional[_Tableau]:
    """:func:`_from_crash`, once a start from the hint's kept tableau broke down."""
    return _from_crash(hint, frame, cols, c_int, b)


def _optimal(problem: StandardFormProblem, t: _Tableau, offset: np.ndarray, c_int: np.ndarray,
             b: np.ndarray) -> SolveResult:
    """The result of an optimal tableau, which its basis keeps for re-solves.

    The primal point and the objective are worked out here, from basic
    values recomputed as ``B^-1 b'`` (the pivoted rhs column carries the
    rounding of every pivot) and refined once in the problem's own columns:
    ``x_B += B^-1 r`` for the residual ``r = sign (rhs - A x) - s`` of the
    rows, ``s`` their logicals' values.  ``b'`` mixes every bound's shift,
    such as a -1e9 one, into each basic value, and a value shifted by 1e9
    holds no more than 1e-7 of it; ``r`` and the step hold neither.  The
    duals, the reduced costs and the basis status codes are worked out here
    too, as plain arrays.
    """
    frame, rows, m = t.frame, t.rows, t.basis.size
    c, n = problem.objective, problem.n_cols

    # each column's value less its offset: a complemented one's is its width, or 0, less its tableau value
    x_int = np.zeros(rows.shape[1])
    x_int[t.basis] = _rhs_column(t, b)[0]
    width = t.upper[t.flipped]
    x_int[t.flipped] = np.where(width < np.inf, width, 0.0) - x_int[t.flipped]
    x = offset + x_int[:n]
    step = np.zeros(rows.shape[1])
    step[t.basis] = _inverse_times(t, frame.given_sign * (problem.rhs - frame.a @ x) - x_int[frame.logical])
    x += np.where(t.flipped[:n], -step[:n], step[:n])

    # y = c_B B^-1, priced afresh under the final complementing; the logical
    # columns read B^-1, negated where a logical is complemented
    cost = np.where(t.flipped, -c_int, c_int)
    sign = np.where(t.flipped[frame.logical], -frame.given_sign, frame.given_sign)
    duals = (cost[t.basis] @ rows[:m, -1 - m:-1])[frame.logical - n] * sign

    in_basis = np.zeros(rows.shape[1], dtype=bool)
    in_basis[t.basis] = True
    columns = np.where(in_basis[:n], BASIC, np.where(t.flipped[:n], AT_UPPER, AT_LOWER)).astype(np.int8)
    columns[t.free[~in_basis[t.free]]] = FREE_ZERO
    return SolveResult(
        status="optimal",
        objective=float(c @ x) + problem.objective_constant,
        primal=x,
        duals=duals,
        reduced_costs=c - frame.a.T @ duals,
        iterations=t.iterations,
        basis=Basis(columns, np.where(in_basis[frame.logical], BASIC, NONBASIC).astype(np.int8), t),
    )
