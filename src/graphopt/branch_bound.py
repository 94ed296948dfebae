"""Best-first branch-and-bound for mixed-integer problems.

Nodes are LP relaxations with tightened bounds, explored in order of their
relaxation value.  Ties go to the newest node, so among equal bounds the
search plunges depth-first; each parent pushes its down child and then its
up child, so the plunge follows the up child.  When the relaxation is
already as tight as the integer optimum, every node ties and one dive of a
node per fractional column reaches an integer point that closes the
search, where taking the oldest first would also solve the down children
on the way.  The order is fixed, so runs are repeatable.
Branching picks the integer column whose value sits farthest from an
integer; ties go to the lowest column index.  Each child starts its LP
from its parent's final basis, which stays dual feasible when one bound
tightens, so a few dual simplex pivots re-solve it.  Every node's LP,
the root's included, keeps its final tableau, and its children copy that
tableau instead of rebuilding it.  The root starts from ``problem.basis``
when one is given, such as the root basis of the previous solve, which the
result returns.

A MIP start.  ``problem.start``, such as the previous solve's optimum when
only the objective has moved since, becomes the first incumbent if it is
integral and meets every bound and row to the simplex's primal tolerance;
otherwise it is ignored.  Its objective value then prunes from the first
node on, where the search would otherwise have to find an integer point
first.  Every node the search explores with it, it explores without it.
With the default zero gap the returned incumbent is exactly optimal.
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


def _fractional_column(x: np.ndarray, int_cols: np.ndarray) -> int | None:
    frac = np.abs(x[int_cols] - np.round(x[int_cols]))
    k = int(frac.argmax())  # the first of equals: the lowest column index
    return int(int_cols[k]) if frac[k] > INT_TOL else None


def _start_incumbent(relaxed: StandardFormProblem, int_cols: np.ndarray) -> Optional[SolveResult]:
    """``relaxed.start``, its integer columns rounded, if it is a feasible integer point; else ``None``.

    Integrality, bounds and rows must hold to ``_PRIMAL_TOL``.
    """
    x = relaxed.start
    if x is None or np.shape(x) != (relaxed.n_cols,):
        return None
    x = np.array(x, dtype=float)
    rounded = np.round(x[int_cols])
    if (np.abs(x[int_cols] - rounded) > _PRIMAL_TOL).any():
        return None
    x[int_cols] = rounded
    if (x < relaxed.lower - _PRIMAL_TOL).any() or (x > relaxed.upper + _PRIMAL_TOL).any():
        return None
    eq, sign = relaxed.row_signs()
    excess = sign * (relaxed.dense_rows() @ x - relaxed.rhs)
    if (np.where(eq, np.abs(excess), excess) > _PRIMAL_TOL).any():
        return None
    objective = float(relaxed.objective @ x) + relaxed.objective_constant
    return SolveResult(status="optimal", objective=objective, primal=x)


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
    relaxation's final basis.  A feasible
    ``problem.start`` is the first incumbent, and is returned when no node
    improves on it; the root counts as a node even when the start's value
    closes the search there.
    """
    int_cols = np.array(problem.integer_columns(), dtype=np.intp)
    relaxed = lp_relaxation(problem)
    if not int_cols.size:
        return solve_lp_fn(relaxed)

    relaxed.keep_dense_rows()  # every node shares the matrix
    root = solve_lp_fn(relaxed)
    if root.status in ("infeasible", "unbounded", "iteration_limit"):
        return SolveResult(status=root.status, iterations=root.iterations)

    # a node is (bound, minus its creation order, lower, upper, its parent's
    # basis, its LP result if solved): the root's LP is reused as node 1.
    # Nodes share bound arrays, which are never written to, and solve_lp never
    # writes to the rest of ``relaxed``.
    counter = itertools.count()
    heap: list[tuple[float, int, np.ndarray, np.ndarray, Basis | None, SolveResult | None]] = [
        (root.objective, -next(counter), relaxed.lower, relaxed.upper, None, root)
    ]

    incumbent = _start_incumbent(relaxed, int_cols)
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
            return SolveResult(status=res.status, iterations=lp_iterations, nodes_explored=nodes)
        if res.status != "optimal":
            continue  # infeasible branch (unbounded cannot appear below a bounded root)
        if incumbent is not None and incumbent.objective - res.objective <= 1e-9:
            continue
        branch_col = _fractional_column(res.primal, int_cols)
        if branch_col is None:
            x = res.primal.copy()
            x[int_cols] = np.clip(np.round(x[int_cols]), lo[int_cols], hi[int_cols])
            objective = float(problem.objective @ x) + problem.objective_constant
            incumbent = SolveResult(
                status="optimal", objective=objective, primal=x, iterations=res.iterations
            )
            continue
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
        return SolveResult(status="infeasible", iterations=lp_iterations, nodes_explored=nodes)
    incumbent.nodes_explored = nodes
    incumbent.iterations = lp_iterations
    incumbent.basis = root.basis
    incumbent.relaxation = root
    return incumbent
