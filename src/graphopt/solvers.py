"""Solver entry points and the pluggable backend contract.

The built-in backend couples the tableau simplex with branch-and-bound.
Anything matching :class:`LinearSolver` can stand in for it — the rest of
the library only calls ``solve_lp`` / ``solve_milp`` and inspects the
returned :class:`SolveResult`.  :func:`solve` is the one place that picks
between the two: MILP when the problem has an integral column, LP otherwise.
"""

from __future__ import annotations

from typing import Collection, Optional, Protocol

from .branch_bound import solve_milp
from .errors import GraphOptError, IterationLimitError, UnboundedError
from .simplex import SolveResult, solve_lp
from .standard_form import StandardFormProblem

__all__ = [
    "SolveResult",
    "LinearSolver",
    "SimplexSolver",
    "default_solver",
    "solve",
    "solve_lp",
    "solve_milp",
    "require_status",
]


class LinearSolver(Protocol):
    """Contract a replacement backend must satisfy."""

    def solve_lp(self, problem: StandardFormProblem) -> SolveResult: ...

    def solve_milp(self, problem: StandardFormProblem) -> SolveResult: ...


class SimplexSolver:
    """Built-in deterministic backend (dense simplex + branch-and-bound)."""

    def __init__(self, *, node_limit: int = 20000, mip_gap: float = 0.0):
        self.node_limit = node_limit
        self.mip_gap = mip_gap

    def solve_lp(self, problem: StandardFormProblem) -> SolveResult:
        return solve_lp(problem)

    def solve_milp(self, problem: StandardFormProblem) -> SolveResult:
        return solve_milp(problem, node_limit=self.node_limit, mip_gap=self.mip_gap)


def default_solver() -> SimplexSolver:
    return SimplexSolver()


def solve(problem: StandardFormProblem, solver: Optional[LinearSolver] = None) -> SolveResult:
    """MILP when any column is integral, plain LP otherwise."""
    solver = solver or default_solver()
    if problem.integer_columns():
        return solver.solve_milp(problem)
    return solver.solve_lp(problem)


def require_status(result: SolveResult, accepted: Collection[str], infeasible_error: type[GraphOptError],
                   what: str, during: str = "", hint: str = "") -> SolveResult:
    """``result`` if its status is in ``accepted``; otherwise raise the error that its status names.

    The message reads ``what``, the status, then ``during <during>`` when
    given.  An infeasible solve raises ``infeasible_error`` with ``hint``
    appended, an unbounded one :class:`UnboundedError`, and one that stopped
    without a verdict (at its iteration limit) :class:`IterationLimitError`.
    """
    if result.status in accepted:
        return result
    message = f"{what} {result.status}" + (f" during {during}" if during else "")
    if result.status == "infeasible":
        raise infeasible_error(message + hint)
    if result.status == "unbounded":
        raise UnboundedError(message)
    raise IterationLimitError(message)
