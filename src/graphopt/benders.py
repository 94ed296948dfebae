"""Nested decomposition over the subgraph tree.

The first subgraph layer is collapsed into a quotient graph; when that
quotient is a connected tree, each subgraph becomes a stage.  The root stage
approximates its children's value functions with cutting planes; a forward
pass fixes each child's copy variables to the parent iterate, and a backward
pass turns child sensitivities into new cuts.

Bounds follow the usual pattern: the root objective (value-function columns
included) is a lower bound, and the summed stage costs of any forward pass
are an upper bound.  Iteration stops when the relative gap closes, or
as "stalled" when an iteration adds no cut and so would repeat itself.

Two kinds of stage solve are skipped, since the run already holds their
answer; both skips are exact.  A tight relaxation is its own cut: a MIP
stage whose forward MILP's root relaxation, with no cut added since,
reaches the MILP value v* takes its Lagrangian or strengthened cut from
that relaxation, and no ascent runs (see :meth:`_Decomposition._child_cut`
for why that is the ascent's own cut).  An unchanged stage returns its last
result: a forward solve at its last solve's pins, with no cut added since
and its basis still that result's, would only find the same tableau
optimal again (see :meth:`StageProblem.solve`).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CyclicStructureError,
    DisconnectedError,
    HyperedgeSpanError,
    RelaxationInfeasibleError,
    RootNotFoundError,
    SubproblemInfeasibleError,
)
from .model import Constraint, Graph, VariableRef
from .simplex import SolveResult
from .solvers import LinearSolver, default_solver, require_status
from .standard_form import check_solution, flatten, lp_relaxation
from .subproblem import CutData, StageProblem
from .transform import CondensedTopology, condensed_topology, first_level_topology

_INF = float("inf")
_OPTIMAL = ("optimal",)


def validate_structure(graph: Graph) -> CondensedTopology:
    """Check that the first subgraph layer supports stage decomposition.

    Requirements: at least one subgraph, no nodes owned directly by the
    root, no shared nodes, every parent-level edge spanning exactly two
    subgraphs, and a connected, acyclic quotient.
    """
    topo = first_level_topology(graph)
    if topo.orphan_edges:
        bad = [e.id for e in topo.orphan_edges]
        raise HyperedgeSpanError(
            f"edges {bad} do not span exactly two subgraphs; reroute or repartition first"
        )
    if not topo.is_connected():
        raise DisconnectedError("the subgraph quotient is not connected")
    if not topo.is_acyclic():
        raise CyclicStructureError(
            "the subgraph quotient has a cycle; reroute a linking edge to break it"
        )
    return topo


@dataclass
class Stage:
    id: str
    subgraph: Graph
    level: int  # root = 1
    parent: Optional[str]
    children: list[str] = field(default_factory=list)
    relocated: list[Constraint] = field(default_factory=list)


class BendersTree:
    """Stages in breadth-first order from a chosen root subgraph."""

    def __init__(self, graph: Graph, root: Optional[str] = None, topology: Optional[CondensedTopology] = None):
        subs = graph.local_subgraphs()
        by_id = {s.id: s for s in subs}
        if root is None:
            root = subs[0].id
        if root not in by_id:
            raise RootNotFoundError(f"no first-level subgraph named {root!r}")
        topo = topology or condensed_topology(graph)

        adjacency = {
            s.id: [t.id for t in subs if t.id != s.id and frozenset({s.id, t.id}) in topo.adjacency]
            for s in subs
        }
        self.root = root
        self.stages: dict[str, Stage] = {root: Stage(root, by_id[root], 1, None)}
        self.order: list[str] = [root]
        queue = deque([root])
        while queue:
            gid = queue.popleft()
            for nxt in adjacency[gid]:
                if nxt in self.stages:
                    continue
                self.stages[nxt] = Stage(nxt, by_id[nxt], self.stages[gid].level + 1, gid)
                self.stages[gid].children.append(nxt)
                self.order.append(nxt)
                queue.append(nxt)

        for edge in graph.local_edges():
            pair = {topo.owner[nid] for nid in edge.incident_nodes}
            a, b = sorted(pair, key=lambda g: self.stages[g].level)
            if self.stages[b].parent == a:
                self.stages[b].relocated.extend(edge.constraints)

        self.n_levels = max(st.level for st in self.stages.values())

    def descendants(self, gid: str) -> list[str]:
        out = [gid]
        i = 0
        while i < len(out):
            out.extend(self.stages[out[i]].children)
            i += 1
        return out


@dataclass
class BendersConfig:
    max_iters: int = 100
    tol: float = 1e-6
    multicut: bool = False
    strengthened: bool = False
    lagrangian: bool = False
    lagrangian_iters: int = 50
    add_slacks: bool = False
    slack_penalty: float = 1e6
    warm_start_cuts: bool = False
    theta_lb: float = -1e9

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol > 0:  # NaN too
            raise ValueError("tol must be positive")
        if self.lagrangian_iters < 1:
            raise ValueError("lagrangian_iters must be at least 1")
        if not self.slack_penalty > 0:  # NaN too
            raise ValueError("slack_penalty must be positive")
        if self.slack_penalty == math.inf:
            raise ValueError("slack_penalty must be finite")
        if not math.isfinite(self.theta_lb):
            raise ValueError("theta_lb must be finite")


@dataclass
class IterationRecord:
    iteration: int
    lower_bound: float
    upper_bound: float       # best seen so far
    iteration_cost: float    # this iteration's forward-pass cost
    gap: float
    cuts_added: int = 0
    wall_time: float = 0.0


@dataclass
class BendersResult:
    status: str  # "converged" | "max_iterations" | "stalled"
    objective: float
    lower_bound: float
    upper_bound: float
    gap: float
    iterations: int
    best_iteration: int
    solution: dict[VariableRef, float]
    lb_history: list[float]
    ub_history: list[float]
    trace: list[IterationRecord]
    cuts: list[CutData]
    flags: dict[str, bool]
    max_violation: float
    config: BendersConfig
    tree: BendersTree
    message: str = ""  # why a stalled run stopped

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _relative_gap(upper: float, lower: float) -> float:
    if not math.isfinite(upper) or not math.isfinite(lower):
        return _INF
    if lower == 0.0:
        return upper - lower
    return (upper - lower) / abs(lower)


def _reaches(value: float, target: float) -> bool:
    """Is ``value`` at ``target``, or within 1e-9 of it (relative, at least absolute)?"""
    return value >= target - 1e-9 * max(1.0, abs(target))


def _lagrangian_ascent(
    prob: StageProblem,
    lam: np.ndarray,
    anchor: np.ndarray,
    target: float,
    steps: int,
    solver: LinearSolver,
) -> Optional[tuple[float, np.ndarray]]:
    """Polyak subgradient ascent on the multipliers of the copy constraints ``z = anchor``.

    ``target`` is the stage's MILP optimum v* at the anchor, or a lower
    estimate of it; v* bounds the Lagrangian dual from above.  The ascent
    starts from the pinned copies' reduced costs and steps
    ``mu += (target - L(mu)) / |g|^2 * g`` toward it, one
    :meth:`StageProblem.solve_lagrangian` per step.  It stops once ``L(mu)``
    reaches the target (to 1e-9 relative), on a zero subgradient, on a
    pricing problem without an optimum, or after ``steps`` steps.  Returns
    the best ``(L, mu)`` seen, or ``None`` when no step had an optimum.
    """
    mu = lam.astype(float)
    best_val, best_mu = -_INF, mu
    for _ in range(steps):
        res = prob.solve_lagrangian(mu, anchor, solver)
        if res.status != "optimal":
            break
        if res.objective > best_val:
            best_val, best_mu = res.objective, mu
        if _reaches(res.objective, target):
            break
        subgrad = anchor - prob.values_for(prob.fixed_refs, res)
        if float(np.max(np.abs(subgrad), initial=0.0)) <= 1e-12:
            break
        mu = mu + (target - res.objective) / float(subgrad @ subgrad) * subgrad
    if not math.isfinite(best_val):
        return None
    return best_val, best_mu


def _combine_cuts(parent_values: dict[VariableRef, float], parts: list[CutData], iteration: int) -> CutData:
    """Sum per-child cuts into one row for a single value-function column."""
    refs: list[VariableRef] = []
    for part in parts:
        for ref in part.refs:
            if ref not in refs:
                refs.append(ref)
    index = {ref: j for j, ref in enumerate(refs)}
    pi = np.zeros(len(refs))
    phi = 0.0
    for part in parts:
        phi += part.phi
        for ref, coef in zip(part.refs, part.pi):
            pi[index[ref]] += coef
    anchor = np.array([parent_values[ref] for ref in refs])
    kinds = {part.kind for part in parts}
    kind = kinds.pop() if len(kinds) == 1 else "mixed"
    child_id = "+".join(part.child_id for part in parts)
    return CutData(child_id, tuple(refs), pi, phi, anchor, kind, iteration, parts[0].theta_index)


class _Decomposition:
    def __init__(self, graph: Graph, root: Optional[str], config: BendersConfig, solver: LinearSolver):
        self.graph = graph
        self.config = config
        self.solver = solver
        topo = validate_structure(graph)
        self.tree = BendersTree(graph, root, topo)
        self.problems: dict[str, StageProblem] = {}
        self.theta_index: dict[str, int] = {}
        for gid in self.tree.order:
            st = self.tree.stages[gid]
            theta_count = len(st.children) if config.multicut else (1 if st.children else 0)
            self.problems[gid] = StageProblem(
                st.subgraph,
                st.relocated,
                theta_count=theta_count,
                theta_lb=config.theta_lb,
                add_slacks=config.add_slacks,
                slack_penalty=config.slack_penalty,
            )
            for i, child in enumerate(st.children):
                self.theta_index[child] = i if config.multicut else 0
        self.cuts: list[CutData] = []

    # -- cut management ----------------------------------------------------

    def _install_cuts(self, parent_id: str, parts: list[CutData], iteration: int) -> int:
        """Attach per-child cut components to a parent, dedup included."""
        if not parts:
            return 0
        target = self.problems[parent_id]
        if self.config.multicut:
            candidates = parts
        else:
            parent_values = {}
            for part in parts:
                for ref, val in zip(part.refs, part.anchor):
                    parent_values[ref] = float(val)
            candidates = [_combine_cuts(parent_values, parts, iteration)]
        added = 0
        for cut in candidates:
            if target.has_equivalent_cut(cut):
                continue
            target.add_cut(cut)
            self.cuts.append(cut)
            added += 1
        return added

    def _child_cut(self, gid: str, result: SolveResult, target: float, iteration: int,
                   own_relaxation: bool) -> CutData:
        """Build this stage's contribution to its parent's cuts.

        ``result`` is the stage's LP at the pins, and ``target`` its
        forward-pass value, where a MIP stage's Lagrangian ascent stops; a
        strengthened cut is that ascent's first step, from ``result``'s duals
        λ.  A tight relaxation is its own cut: when ``result`` is the forward
        MILP's own root relaxation (``own_relaxation``: no cut added since),
        the target is v* itself, and where ``result`` reaches it the cut is
        ``(result.objective, λ)`` and no ascent runs.  That is exact: weak
        duality gives L(λ) <= v*, and LP duality at λ gives L(λ) >= v_LP, so
        the ascent's first step would stop at once with the same slope λ and a
        value L(λ) within its stopping tolerance (1e-9 relative) of v_LP.
        After a fresh cut the target is only a lower estimate of v*, so the
        ascent runs.
        """
        prob = self.problems[gid]
        anchor = prob.fixed_values()
        lam = prob.fixing_duals(result)
        phi = result.objective
        kind = "benders"
        if prob.is_mip and (self.config.lagrangian or self.config.strengthened):
            family = "lagrangian" if self.config.lagrangian else "strengthened"
            if own_relaxation and _reaches(phi, target):
                kind = family
            else:
                steps = self.config.lagrangian_iters if self.config.lagrangian else 1
                best = _lagrangian_ascent(prob, lam, anchor, target, steps, self.solver)
                if best is not None:
                    phi, lam = best
                    kind = family
        return CutData(
            gid, tuple(prob.fixed_refs), lam.astype(float), float(phi), anchor, kind,
            iteration, self.theta_index[gid],
        )

    # -- passes --------------------------------------------------------------

    def forward(self, root_result: SolveResult) -> dict[str, SolveResult]:
        """Pin each stage to its parent's iterate and solve it, root first.

        A stage whose pins and rows are those of its last solve, and whose
        basis is still that solve's, returns that solve's result without a
        solve (see :meth:`StageProblem.solve`); on a MIP stage the same
        relaxation then certifies its cut again.
        """
        results: dict[str, SolveResult] = {self.tree.root: root_result}
        for gid in self.tree.order[1:]:
            prob = self.problems[gid]
            parent = self.tree.stages[gid].parent
            anchor = self.problems[parent].values_for(prob.fixed_refs, results[parent])
            prob.set_fixed_values(anchor)
            results[gid] = require_status(prob.solve(self.solver), _OPTIMAL, SubproblemInfeasibleError,
                                          f"stage {gid!r}", "the forward pass", prob.infeasible_hint)
        return results

    def backward(self, results: dict[str, SolveResult], iteration: int) -> int:
        """Harvest sensitivities leaves-first and install cuts on parents.

        A stage's cut comes from the LP at its pins: a MIP stage's forward
        MILP's own root relaxation while no cut has been added to it since,
        else a fresh relaxation solve.  A MIP stage's own relaxation that
        reaches the forward value v* is its own Lagrangian or strengthened
        cut, so no ascent runs for it (:meth:`_child_cut`).
        """
        pending: dict[str, list[CutData]] = {}
        fresh: dict[str, int] = {gid: 0 for gid in self.tree.order}
        added = 0
        # tree.order is breadth-first, so this walk reaches every stage after
        # its children, and the root last: each stage's cuts are all pending
        for gid in reversed(self.tree.order):
            if pending.get(gid):
                n = self._install_cuts(gid, pending.pop(gid), iteration)
                fresh[gid] += n
                added += n
            if gid == self.tree.root:
                continue
            prob = self.problems[gid]
            # a MIP stage's cut comes from its MILP's root relaxation, the
            # LP at the same pins, unless a cut has been added since
            res = results[gid].relaxation if prob.is_mip else results[gid]
            own = not fresh[gid] and res is not None
            if not own:
                res = require_status(prob.solve(self.solver, relax=True), _OPTIMAL, SubproblemInfeasibleError,
                                     f"stage {gid!r}", "the backward pass", prob.infeasible_hint)
            # the forward-pass value is the stage's own value at the pins, or
            # a lower estimate of it once a cut has been added since
            pending.setdefault(self.tree.stages[gid].parent, []).append(
                self._child_cut(gid, res, results[gid].objective, iteration, own)
            )
        return added

    def warm_start(self) -> int:
        """Seed cuts from one monolithic relaxation solve.

        Each stage's share of the relaxation objective, paired with the
        relaxation duals of its relocated rows, gives a supporting cut at the
        relaxation iterate.  For a pure LP this makes the first lower bound
        exact.
        """
        base = flatten(self.graph)
        res = require_status(self.solver.solve_lp(lp_relaxation(base)), _OPTIMAL, RelaxationInfeasibleError,
                             "the monolithic relaxation for warm-start cuts is")
        assert res.primal is not None and res.duals is not None
        rows = base.dense_rows()
        row_of_uid = {uid: r for r, uid in base.row_provenance.items()}
        values = {ref: float(res.primal[j]) for ref, j in base.var_index.items()}

        pending: dict[str, list[CutData]] = {}
        for gid in self.tree.order[1:]:
            st = self.tree.stages[gid]
            prob = self.problems[gid]
            phi = 0.0
            for sid in self.tree.descendants(gid):
                phi += self.tree.stages[sid].subgraph.effective_objective().evaluate(values)
            refs = prob.fixed_refs
            pi = np.zeros(len(refs))
            for con in st.relocated:
                r = row_of_uid[con.uid]
                for j, ref in enumerate(refs):
                    pi[j] -= res.duals[r] * rows[r, base.var_index[ref]]
            anchor = np.array([values[ref] for ref in refs])
            pending.setdefault(st.parent, []).append(
                CutData(gid, tuple(refs), pi, phi, anchor, "warm_start", 0, self.theta_index[gid])
            )
        added = 0
        for gid, parts in pending.items():
            added += self._install_cuts(gid, parts, 0)
        return added

    # -- main loop -------------------------------------------------------

    def run(self) -> BendersResult:
        config = self.config
        tree = self.tree
        root_prob = self.problems[tree.root]

        warm_cuts = self.warm_start() if config.warm_start_cuts else 0

        best_ub = _INF
        best_iteration = 0
        best_solution: dict[VariableRef, float] = {}
        best_slack = 0.0
        lb_history: list[float] = []
        ub_history: list[float] = []
        trace: list[IterationRecord] = []
        status = "max_iterations"
        message = ""
        final_results: dict[str, SolveResult] = {}

        for k in range(1, config.max_iters + 1):
            started = time.perf_counter()
            root_res = require_status(root_prob.solve(self.solver), _OPTIMAL, SubproblemInfeasibleError,
                                      f"stage {tree.root!r}", "the root solve", root_prob.infeasible_hint)
            lower = root_res.objective

            results = self.forward(root_res)
            final_results = results

            iteration_cost = 0.0
            for gid in tree.order:
                iteration_cost += self.problems[gid].true_cost(results[gid])
            if iteration_cost < best_ub:
                best_ub = iteration_cost
                best_iteration = k
                best_solution = {}
                for gid in tree.order:
                    best_solution.update(self.problems[gid].own_solution(results[gid]))
                best_slack = max(
                    (self.problems[gid].slack_activity(results[gid]) for gid in tree.order),
                    default=0.0,
                )

            lb_history.append(lower)
            ub_history.append(best_ub)
            gap = _relative_gap(best_ub, lower)
            record = IterationRecord(
                k, lower, best_ub, iteration_cost, gap,
                cuts_added=warm_cuts if k == 1 else 0,
            )
            trace.append(record)
            if gap <= config.tol:
                status = "converged"
                record.wall_time = time.perf_counter() - started
                break
            if k < config.max_iters:
                added = self.backward(results, k)
                record.cuts_added += added
                # with no new cut the root problem is unchanged, and so is its iterate
                if added == 0:
                    status = "stalled"
                    message = self._stall_message(k)
                    record.wall_time = time.perf_counter() - started
                    break
            record.wall_time = time.perf_counter() - started

        theta_at_bound = False
        for gid in tree.order:
            prob = self.problems[gid]
            res = final_results.get(gid)
            if res is not None and res.primal is not None and prob.theta_cols:
                thetas = prob.theta_values(res)
                if thetas.size and float(thetas.min()) <= config.theta_lb + 1e-6:
                    theta_at_bound = True
        flags = {
            "theta_lower_bound_active": theta_at_bound,
            "slacks_active": best_slack > 1e-7,
        }
        violation = check_solution(self.graph, best_solution) if best_solution else _INF

        return BendersResult(
            status=status,
            objective=best_ub,
            lower_bound=lb_history[-1] if lb_history else -_INF,
            upper_bound=best_ub,
            gap=trace[-1].gap if trace else _INF,
            iterations=len(trace),
            best_iteration=best_iteration,
            solution=best_solution,
            lb_history=lb_history,
            ub_history=ub_history,
            trace=trace,
            cuts=list(self.cuts),
            flags=flags,
            max_violation=violation,
            config=config,
            tree=tree,
            message=message,
        )

    def _stall_message(self, k: int) -> str:
        config = self.config
        text = f"iteration {k} added no cut, so every later iteration would repeat it"
        mip = [gid for gid in self.tree.order[1:] if self.problems[gid].is_mip]
        if mip and not config.lagrangian:
            families = "lagrangian" if config.strengthened else "strengthened or lagrangian"
            text += (f"; stages {mip} are MIPs, where cuts from LP duals need not support"
                     f" the value function; try {families} cuts")
        return text


def run_decomposition(
    graph: Graph,
    root: Optional[str] = None,
    config: Optional[BendersConfig] = None,
    solver: Optional[LinearSolver] = None,
) -> BendersResult:
    """Solve a hierarchical graph by tree decomposition with cutting planes."""
    return _Decomposition(graph, root, config or BendersConfig(), solver or default_solver()).run()
