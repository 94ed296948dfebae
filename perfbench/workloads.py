"""Workload specs, the four solve modes and their correctness checks.

A mode call takes a prepared :class:`Instance` and a solver (``None`` for
the library default, or a tracing proxy) and returns the library's own
result object.  :func:`outcome` reduces that result to what the gate needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from graphopt import (
    BendersConfig,
    apply_partition,
    check_solution,
    flatten,
    relaxed_parallel_bound,
    run_decomposition,
    sequential_solve,
    solve_lp,
    solve_milp,
)

import generators as gen
from gate import Outcome, check_bound, check_exact, check_sequential, reference_optimum

MODES = ("monolithic", "benders", "sequential", "bound")


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    data: Callable
    build: Callable
    root: str
    config: BendersConfig
    # Data for a smaller model that the monolithic mode solves instead of the
    # full one, where the full dense LP takes too long for a run.
    mono_data: Callable[[dict], dict] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "storage_lp", {"T": 80}, gen.storage_lp_data, gen.storage_lp_build, "design",
            BendersConfig(add_slacks=True),
        ),
        Workload(
            "cem_star", {"S": 16, "P": 24}, gen.cem_star_data, gen.cem_star_build, "planning",
            BendersConfig(multicut=True),
            mono_data=lambda data: gen.cem_star_slice(data, 4),
        ),
        Workload(
            "pcm_milp", {"periods": 12, "block": 4}, gen.pcm_milp_data, gen.pcm_milp_build, "b2",
            BendersConfig(lagrangian=True, lagrangian_iters=15, add_slacks=True),
        ),
    )
}


@dataclass
class Instance:
    """One seeded model, built and partitioned, with its reference values."""

    workload: Workload
    data: dict
    graph: object = None
    mono_graph: object = None
    build_s: list[float] = field(default_factory=list)
    partition_s: list[float] = field(default_factory=list)
    ref: float = float("nan")        # HiGHS optimum of the full model
    mono_ref: float = float("nan")   # HiGHS optimum of the monolithic mode's model
    lower: float = float("nan")      # relaxed parallel bound, for the sequential check
    sizes: dict = field(default_factory=dict)

    def set_up(self) -> None:
        """Build and partition the graph once, timing each step.

        The first graph built is the one every mode solves; later builds
        only add set-up samples, so that whatever a solve leaves on the
        graph (a future cache, say) stays for the next solve, as it would
        for a user who builds once and solves many times.
        """
        t0 = time.perf_counter()
        graph, membership = self.workload.build(self.data)
        t1 = time.perf_counter()
        apply_partition(graph, membership)
        t2 = time.perf_counter()
        self.build_s.append(t1 - t0)
        self.partition_s.append(t2 - t1)
        if self.graph is None:
            self.graph = graph

    def prepare_reference(self) -> None:
        """Untimed: monolithic model, HiGHS optima, relaxed bound and sizes."""
        if self.workload.mono_data is None:
            self.mono_graph = self.graph
        else:
            graph, membership = self.workload.build(self.workload.mono_data(self.data))
            apply_partition(graph, membership)
            self.mono_graph = graph
        flat = flatten(self.graph)
        self.ref = reference_optimum(flat)
        self.mono_ref = (
            self.ref if self.mono_graph is self.graph else reference_optimum(flatten(self.mono_graph))
        )
        self.lower = relaxed_parallel_bound(self.graph).objective
        mono_flat = flatten(self.mono_graph)
        self.sizes = {
            "rows": flat.n_rows, "cols": flat.n_cols, "integers": len(flat.integer_columns()),
            "monolithic_rows": mono_flat.n_rows, "monolithic_cols": mono_flat.n_cols,
        }


def make_instance(workload: Workload, seed: int, index: int) -> Instance:
    rng = np.random.default_rng([seed, index])
    return Instance(workload, workload.data(rng, **workload.sizes))


# -- the four modes --------------------------------------------------------


def run_monolithic(inst: Instance, solver, tracer=None):
    if tracer is None:
        problem = flatten(inst.mono_graph)
    else:
        with tracer.span("standard_form.flatten"):
            problem = flatten(inst.mono_graph)
    if solver is None:
        res = solve_milp(problem) if problem.integer_columns() else solve_lp(problem)
    else:
        res = solver.solve_milp(problem) if problem.integer_columns() else solver.solve_lp(problem)
    return problem, res


def run_benders(inst: Instance, solver, tracer=None):
    return run_decomposition(inst.graph, inst.workload.root, inst.workload.config, solver=solver)


def run_sequential(inst: Instance, solver, tracer=None):
    return sequential_solve(inst.graph, add_slacks=True, solver=solver)


def run_bound(inst: Instance, solver, tracer=None):
    return relaxed_parallel_bound(inst.graph, solver=solver)


RUNNERS = {
    "monolithic": run_monolithic,
    "benders": run_benders,
    "sequential": run_sequential,
    "bound": run_bound,
}


def outcome(mode: str, inst: Instance, result) -> Outcome:
    if mode == "monolithic":
        problem, res = result
        violation = float("inf")
        if res.primal is not None:
            violation = check_solution(inst.mono_graph, problem.values_by_ref(res.primal))
        return Outcome(res.status, res.objective, violation)
    if mode == "benders":
        return Outcome(result.status, result.objective, result.max_violation)
    if mode == "sequential":
        model_cost = inst.graph.effective_objective().evaluate(result.solution)
        return Outcome(result.status, result.objective, result.max_violation,
                       slack_cost=result.objective - model_cost)
    return Outcome(result.status, result.objective, result.max_violation)


def check(mode: str, inst: Instance, result) -> str | None:
    """``None`` when the result passes the gate, else the reason it fails."""
    out = outcome(mode, inst, result)
    if mode == "monolithic":
        return check_exact(out, inst.mono_ref)
    if mode == "benders":
        return check_exact(out, inst.ref)
    if mode == "sequential":
        return check_sequential(out, inst.ref, inst.lower)
    return check_bound(out, inst.ref)


def signature(mode: str, result) -> dict:
    """Counts and objective a traced call must reproduce exactly."""
    if mode == "monolithic":
        _, res = result
        return {"objective": res.objective, "pivots": res.iterations, "nodes": res.nodes_explored}
    if mode == "benders":
        return {"objective": result.objective, "iterations": result.iterations,
                "cuts": len(result.cuts)}
    return {"objective": result.objective}
