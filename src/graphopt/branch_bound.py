"""Best-first branch-and-bound for mixed-integer problems.

Nodes are LP relaxations with tightened bounds, explored in order of their
relaxation value (ties broken by creation order, so runs are repeatable).
Branching picks the integer column whose value sits farthest from an
integer; ties go to the lowest column index.  With the default zero gap
the returned incumbent is exactly optimal.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import replace

import numpy as np

from .errors import NodeLimitError
from .simplex import SolveResult, solve_lp
from .standard_form import StandardFormProblem, lp_relaxation

INT_TOL = 1e-6


def _fractional_column(x: np.ndarray, int_cols: list[int]) -> int | None:
    worst_j, worst_frac = None, INT_TOL
    for j in int_cols:
        frac = abs(x[j] - round(x[j]))
        if frac > worst_frac:
            worst_j, worst_frac = j, frac
    return worst_j


def solve_milp(
    problem: StandardFormProblem,
    *,
    node_limit: int = 20000,
    mip_gap: float = 0.0,
    solve_lp_fn=solve_lp,
) -> SolveResult:
    """Solve ``problem`` to proven optimality (within ``mip_gap``).

    Raises :class:`NodeLimitError` if the node budget runs out first.
    Pure-LP input is passed straight to the LP solver.
    """
    int_cols = problem.integer_columns()
    relaxed = lp_relaxation(problem)
    if not int_cols:
        return solve_lp_fn(relaxed)

    root = solve_lp_fn(relaxed)
    if root.status in ("infeasible", "unbounded", "iteration_limit"):
        return SolveResult(status=root.status, iterations=root.iterations)

    # a node is (bound, creation order, lower, upper, its LP result if solved):
    # the root's LP is reused as node 1.  Nodes share bound arrays, which are
    # never written to, and solve_lp never writes to the rest of ``relaxed``.
    counter = itertools.count()
    heap: list[tuple[float, int, np.ndarray, np.ndarray, SolveResult | None]] = [
        (root.objective, next(counter), relaxed.lower, relaxed.upper, root)
    ]

    incumbent: SolveResult | None = None
    nodes = 0
    lp_iterations = root.iterations

    def gap_closed(bound: float) -> bool:
        assert incumbent is not None
        return incumbent.objective - bound <= mip_gap * max(1.0, abs(incumbent.objective)) + 1e-9

    while heap:
        bound, _, lo, hi, res = heapq.heappop(heap)
        if incumbent is not None and gap_closed(bound):
            break
        nodes += 1
        if nodes > node_limit:
            raise NodeLimitError(f"exceeded {node_limit} branch-and-bound nodes")

        if res is None:
            res = solve_lp_fn(replace(relaxed, lower=lo, upper=hi))
            lp_iterations += res.iterations
        if res.status != "optimal":
            continue  # infeasible branch (unbounded cannot appear below a bounded root)
        if incumbent is not None and incumbent.objective - res.objective <= 1e-9:
            continue
        branch_col = _fractional_column(res.primal, int_cols)
        if branch_col is None:
            x = res.primal.copy()
            for j in int_cols:
                x[j] = min(max(round(x[j]), lo[j]), hi[j])
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
            heapq.heappush(heap, (res.objective, next(counter), lo, down_hi, None))
        if up_lo[branch_col] <= hi[branch_col]:
            heapq.heappush(heap, (res.objective, next(counter), up_lo, hi, None))

    if incumbent is None:
        return SolveResult(status="infeasible", iterations=lp_iterations, nodes_explored=nodes)
    incumbent.nodes_explored = nodes
    incumbent.iterations = lp_iterations
    return incumbent
