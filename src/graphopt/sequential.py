"""Ordered stage-by-stage solution paths and the matching relaxation bound.

``sequential_solve`` walks the first-level subgraphs in a fixed order; each
linking row is enforced in the *last* of its subgraphs to be visited, with
the earlier subgraphs' variables frozen at their solved values.  The summed
stage costs are an upper bound on the monolithic optimum (a feasible point
when no elastic slack ends up active).

``relaxed_parallel_bound`` drops every parent-level edge and solves the
subgraphs independently; the summed optima are a lower bound.

An unbounded stage makes either result ``unbounded`` with an objective of
minus infinity; a stage solve that ends at the iteration limit raises
:class:`~graphopt.errors.IterationLimitError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import SubproblemInfeasibleError, UsageError
from .model import Constraint, Graph, VariableRef
from .solvers import LinearSolver, require_status
from .standard_form import check_solution
from .subproblem import StageProblem
from .transform import first_level_topology

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
    position = {gid: i for i, gid in enumerate(order)}

    relocated: dict[str, list[Constraint]] = {gid: [] for gid in order}
    for edge in graph.local_edges():
        last = max((topo.owner[nid] for nid in edge.incident_nodes), key=position.__getitem__)
        relocated[last].extend(edge.constraints)

    values: dict[VariableRef, float] = {}
    stage_costs: list[tuple[str, float]] = []
    total = 0.0
    for gid in order:
        prob = StageProblem(
            by_id[gid],
            relocated[gid],
            add_slacks=add_slacks,
            slack_penalty=slack_penalty,
        )
        prob.set_fixed_values(values[ref] for ref in prob.fixed_refs)
        res = require_status(prob.solve(solver), ("optimal", "unbounded"), SubproblemInfeasibleError,
                             f"stage {gid!r}", "the sequential pass", prob.infeasible_hint)
        if res.status == "unbounded":  # later stages have no values to fix
            stage_costs.append((gid, -_INF))
            return SequentialResult(status="unbounded", objective=-_INF, solution=values,
                                    stage_costs=stage_costs, order=order, max_violation=_INF)
        values.update(prob.own_solution(res))
        cost = prob.true_cost(res)
        total += cost
        stage_costs.append((gid, cost))

    return SequentialResult(
        status="optimal",
        objective=total,
        solution=values,
        stage_costs=stage_costs,
        order=order,
        max_violation=check_solution(graph, values),
    )


def relaxed_parallel_bound(
    graph: Graph,
    *,
    solver: Optional[LinearSolver] = None,
) -> SequentialResult:
    """Lower bound from solving each subgraph with all parent edges dropped."""
    first_level_topology(graph)
    subs = graph.local_subgraphs()
    values: dict[VariableRef, float] = {}
    stage_costs: list[tuple[str, float]] = []
    total = 0.0
    status = "optimal"
    for sub in subs:
        prob = StageProblem(sub)
        res = require_status(prob.solve(solver), ("optimal", "infeasible", "unbounded"),
                             SubproblemInfeasibleError, f"stage {sub.id!r}", "the relaxed bound")
        if res.status == "infeasible":
            raise SubproblemInfeasibleError(
                f"subgraph {sub.id!r} is infeasible on its own; the full problem is too"
            )
        if res.status == "unbounded":
            status = "unbounded"
            total = -_INF
            stage_costs.append((sub.id, -_INF))
            continue
        cost = prob.true_cost(res)
        values.update(prob.own_solution(res))
        total += cost
        stage_costs.append((sub.id, cost))

    complete = status == "optimal" and values
    return SequentialResult(
        status=status,
        objective=total,
        solution=values,
        stage_costs=stage_costs,
        order=[s.id for s in subs],
        max_violation=check_solution(graph, values) if complete else _INF,
    )
