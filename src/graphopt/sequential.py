"""Ordered stage-by-stage solution paths and the matching relaxation bound.

``sequential_solve`` walks the first-level subgraphs in a fixed order; each
linking row is enforced in the *last* of its subgraphs to be visited, with
the earlier subgraphs' variables frozen at their solved values.  The summed
stage costs are an upper bound on the monolithic optimum (a feasible point
when no elastic slack ends up active).

``relaxed_parallel_bound`` drops every parent-level edge and solves the
subgraphs independently; the summed optima are a lower bound.

Both walk the stages in one pass.  An unbounded stage ends it, and makes
the result ``unbounded`` with an objective of minus infinity; an infeasible
stage raises :class:`~graphopt.errors.SubproblemInfeasibleError`, and one
that ends at the iteration limit :class:`~graphopt.errors.IterationLimitError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import SubproblemInfeasibleError, UsageError
from .model import Constraint, Graph, VariableRef
from .solvers import LinearSolver, require_status
from .standard_form import check_solution
from .subproblem import StageProblem
from .transform import first_level_topology, links_to_last

_INF = float("inf")


@dataclass
class SequentialResult:
    status: str
    objective: float
    solution: dict[VariableRef, float]
    stage_costs: list[tuple[str, float]]
    order: list[str]
    max_violation: float


def sequential_solve(
    graph: Graph,
    order: Optional[Sequence[str]] = None,
    *,
    add_slacks: bool = False,
    slack_penalty: float = 1e6,
    solver: Optional[LinearSolver] = None,
) -> SequentialResult:
    topo = first_level_topology(graph)
    subs = graph.local_subgraphs()
    by_id = {s.id: s for s in subs}
    order = list(order) if order is not None else [s.id for s in subs]
    if sorted(order) != sorted(by_id):
        raise UsageError(
            f"order {order} is not a permutation of the subgraphs {sorted(by_id)}"
        )
    if not slack_penalty > 0:  # NaN too
        raise UsageError("slack_penalty must be positive")
    if slack_penalty == _INF:
        raise UsageError("slack_penalty must be finite")
    stages = [(gid, by_id[gid], rows) for gid, rows in links_to_last(graph, topo, order).items()]
    return _stage_pass(graph, stages, solver, "the sequential pass", "", add_slacks=add_slacks,
                       slack_penalty=slack_penalty)


def relaxed_parallel_bound(
    graph: Graph,
    *,
    solver: Optional[LinearSolver] = None,
) -> SequentialResult:
    """Lower bound from solving each subgraph with all parent edges dropped."""
    first_level_topology(graph)
    return _stage_pass(graph, [(sub.id, sub, ()) for sub in graph.local_subgraphs()], solver,
                       "the relaxed bound", "; the full problem is infeasible too")


def _stage_pass(graph: Graph, stages: Sequence[tuple[str, Graph, Sequence[Constraint]]],
                solver: Optional[LinearSolver], during: str, hint: str, **options) -> SequentialResult:
    """Solve each ``(id, subgraph, relocated rows)`` in turn, pinned to the values of the stages before it."""
    values: dict[VariableRef, float] = {}
    stage_costs: list[tuple[str, float]] = []
    order = [gid for gid, _, _ in stages]
    total = 0.0
    for gid, sub, relocated in stages:
        prob = StageProblem(sub, relocated, **options)
        prob.set_fixed_values(values[ref] for ref in prob.fixed_refs)
        res = require_status(prob.solve(solver), ("optimal", "unbounded"), SubproblemInfeasibleError,
                             f"stage {gid!r}", during, prob.infeasible_hint + hint)
        if res.status == "unbounded":  # later stages have no values to fix
            stage_costs.append((gid, -_INF))
            return SequentialResult(status="unbounded", objective=-_INF, solution=values,
                                    stage_costs=stage_costs, order=order, max_violation=_INF)
        values.update(prob.own_solution(res))
        cost = prob.true_cost(res)
        total += cost
        stage_costs.append((gid, cost))
    return SequentialResult(status="optimal", objective=total, solution=values, stage_costs=stage_costs,
                            order=order, max_violation=check_solution(graph, values))
