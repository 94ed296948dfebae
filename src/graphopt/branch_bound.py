"""Best-first branch-and-bound for mixed-integer problems.

Nodes are LP relaxations with tightened bounds, explored in order of their
relaxation value.  Ties go to the newest node, so among equal bounds the
search plunges depth-first; each parent pushes its down child and then its
up child, so the plunge follows the up child.  The order is fixed, so runs
are repeatable.  Branching picks the integer column whose value sits
farthest from an integer; ties go to the lowest column index.  Each child
starts its LP from its parent's final basis, which stays dual feasible when
one bound tightens, so a few dual simplex pivots re-solve it.  Every node's
LP, the root's included, keeps its final tableau, and its children copy that
tableau instead of rebuilding it.  The root starts from ``problem.basis``
when one is given, such as the root basis of the previous solve, which the
result returns.

Rounding.  Before it branches, a node rounds its LP point at no LP solve
(simple rounding: Achterberg 2007, Berthold 2006).  An equality row locks
each integer column it holds both ways, and a ``le`` row (a ``ge`` row
negated) locks a positive entry up and a negative one down: moving the
column that way can break the row.  The locks depend only on the matrix,
its row signs and the integer columns, so they are found once per
matrix (:meth:`StandardFormProblem.memo`) and shared by every MILP over
it, such as a Benders stage's solves.  Each fractional column moves to the
next integer in a way that no row locks and the node's bounds allow, the
cheaper way where both do, or the node makes no attempt.  The point becomes
the incumbent if its price, the bound plus the change in objective, beats
the incumbent by more than 1e-9, and it is integral and meets every bound
and row to the simplex's primal tolerance.  Where every node ties with the
root, as when a zero-cost column sits fractional for free, rounding closes
the search at the root instead of a dive of a node per fractional column.
Pruning uses proven bounds only: with the default zero gap the result is
exactly optimal.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional

import numpy as np

from .errors import NodeLimitError
from .simplex import _PRIMAL_TOL, SolveResult, solve_lp
from .standard_form import Basis, StandardFormProblem, lp_relaxation

INT_TOL = 1e-6


def _unlocked(relaxed: StandardFormProblem, int_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per integer column: may it rise, and may it fall, with no row locking it that way?"""
    eq, sign = relaxed.row_signs()
    a = relaxed.dense_rows()[:, int_cols] * sign[:, None]
    both = eq @ (a != 0)
    return ~(both | (a > 0).any(axis=0)), ~(both | (a < 0).any(axis=0))


def _rounded(x: np.ndarray, dist: np.ndarray, lo: np.ndarray, hi: np.ndarray, int_cols: np.ndarray,
             unlocked: tuple[np.ndarray, np.ndarray], cost: np.ndarray) -> Optional[np.ndarray]:
    """The integer columns' values ``x``, ``dist`` from an integer, rounded; ``None`` if one cannot move."""
    r = np.rint(x)
    for k in (dist > INT_TOL).nonzero()[0].tolist():
        j = int_cols[k]
        down = math.floor(x[k])
        can_down = unlocked[1][k] and down >= lo[j]
        can_up = unlocked[0][k] and down + 1 <= hi[j]
        if not (can_down or can_up):
            return None
        r[k] = down + 1 if can_up and (cost[k] < 0 or not can_down) else down
    return r


def _feasible(relaxed: StandardFormProblem, int_cols: np.ndarray, x: np.ndarray) -> bool:
    """Is ``x`` integral on ``int_cols`` and within every bound and row, to ``_PRIMAL_TOL``?"""
    xi = x[int_cols]
    eq, sign = relaxed.row_signs()
    excess = sign * (relaxed.dense_rows() @ x - relaxed.rhs)
    # counting costs less than any() on short arrays
    return not (np.count_nonzero(np.abs(xi - np.rint(xi)) > _PRIMAL_TOL)
                or np.count_nonzero(x < relaxed.lower - _PRIMAL_TOL)
                or np.count_nonzero(x > relaxed.upper + _PRIMAL_TOL)
                or np.count_nonzero(np.where(eq, np.abs(excess), excess) > _PRIMAL_TOL))


def solve_milp(
    problem: StandardFormProblem,
    *,
    node_limit: int = 20000,
    mip_gap: float = 0.0,
    solve_lp_fn=solve_lp,
) -> SolveResult:
    """Solve ``problem`` to proven optimality (within ``mip_gap``).

    Nodes are taken best bound first, the newest of equal bounds first.
    Raises :class:`NodeLimitError` if the node budget runs out first.  A node
    LP that stops at its iteration limit stops the search too: the result's
    status is then ``iteration_limit``, with the nodes and pivots so far.
    Pure-LP input is passed straight to the LP solver.  An optimal result's
    ``relaxation`` is its root relaxation's result, and its ``basis`` that
    relaxation's final basis; every result's ``starts`` are the root's.
    """
    int_cols = np.array(problem.integer_columns(), dtype=np.intp)
    relaxed = lp_relaxation(problem)
    if not int_cols.size:
        return solve_lp_fn(relaxed)

    root = solve_lp_fn(relaxed)
    if root.status in ("infeasible", "unbounded", "iteration_limit"):
        return SolveResult(status=root.status, iterations=root.iterations, starts=root.starts)

    # a node is (bound, minus its creation order, lower, upper, its parent's
    # basis, its LP result if solved): the root's LP is reused as node 1.
    # Nodes share bound arrays, which are never written to, and solve_lp never
    # writes to the rest of ``relaxed``.
    counter = itertools.count()
    heap: list[tuple[float, int, np.ndarray, np.ndarray, Basis | None, SolveResult | None]] = [
        (root.objective, -next(counter), relaxed.lower, relaxed.upper, None, root)
    ]

    incumbent: Optional[SolveResult] = None
    unlocked = None  # read at the first rounding; found once per matrix
    cost = relaxed.objective[int_cols]
    nodes = 1  # the root
    lp_iterations = root.iterations

    def gap_closed(bound: float) -> bool:
        assert incumbent is not None
        return incumbent.objective - bound <= mip_gap * max(1.0, abs(incumbent.objective)) + 1e-9

    while heap:
        bound, _, lo, hi, basis, res = heapq.heappop(heap)
        if incumbent is not None and gap_closed(bound):
            break
        if res is None:
            nodes += 1
            if nodes > node_limit:
                raise NodeLimitError(f"exceeded {node_limit} branch-and-bound nodes")
            res = solve_lp_fn(relaxed.with_changes(lower=lo, upper=hi, basis=basis))
            lp_iterations += res.iterations
        if res.status == "iteration_limit":
            return SolveResult(status=res.status, iterations=lp_iterations, nodes_explored=nodes,
                               starts=root.starts)
        if res.status != "optimal":
            continue  # infeasible branch (unbounded cannot appear below a bounded root)
        if incumbent is not None and incumbent.objective - res.objective <= 1e-9:
            continue
        x = res.primal[int_cols]
        dist = np.abs(x - np.rint(x))
        k = int(dist.argmax())  # the first of equals: the lowest column index
        if dist[k] <= INT_TOL:
            point = res.primal.copy()
            point[int_cols] = np.clip(np.rint(x), lo[int_cols], hi[int_cols])
            objective = float(problem.objective @ point) + problem.objective_constant
            incumbent = SolveResult(
                status="optimal", objective=objective, primal=point, iterations=res.iterations
            )
            continue
        if unlocked is None:
            unlocked = relaxed.memo(("unlocked", int_cols.tobytes()), lambda: _unlocked(relaxed, int_cols))
        r = _rounded(x, dist, lo, hi, int_cols, unlocked, cost)
        if r is not None and (incumbent is None
                              or res.objective + cost @ (r - x) < incumbent.objective - 1e-9):
            point = res.primal.copy()
            point[int_cols] = r
            if _feasible(relaxed, int_cols, point):
                objective = float(problem.objective @ point) + problem.objective_constant
                incumbent = SolveResult(status="optimal", objective=objective, primal=point)
        branch_col = int(int_cols[k])
        value = res.primal[branch_col]
        down_hi = hi.copy()
        down_hi[branch_col] = math.floor(value)
        up_lo = lo.copy()
        up_lo[branch_col] = math.ceil(value)
        if down_hi[branch_col] >= lo[branch_col]:
            heapq.heappush(heap, (res.objective, -next(counter), lo, down_hi, res.basis, None))
        if up_lo[branch_col] <= hi[branch_col]:
            heapq.heappush(heap, (res.objective, -next(counter), up_lo, hi, res.basis, None))

    if incumbent is None:
        return SolveResult(status="infeasible", iterations=lp_iterations, nodes_explored=nodes,
                           starts=root.starts)
    incumbent.nodes_explored = nodes
    incumbent.iterations = lp_iterations
    incumbent.basis = root.basis
    incumbent.relaxation = root
    incumbent.starts = root.starts
    return incumbent
