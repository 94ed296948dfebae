"""Command-line driver.

Exit codes: 0 solved/converged, 2 stopped early (an iteration limit, or a
Benders stall), 3 infeasible, 4 usage or structure errors, 5 unbounded,
6 solver failure (numerical breakdown or the branch-and-bound node limit).
When ``--output`` is given a JSON run report is written no matter how the
run ends.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Optional

from .benders import BendersConfig, run_decomposition
from .errors import (
    GraphOptError,
    IterationLimitError,
    NodeLimitError,
    NumericalBreakdownError,
    RelaxationInfeasibleError,
    SubproblemInfeasibleError,
    UnboundedError,
    UsageError,
)
from .fixtures import FIXTURE_NAMES, generate_fixture
from .model import Graph
from .sequential import SequentialResult, relaxed_parallel_bound, sequential_solve
from .serialize import RunReport, load_instance, parse_membership, solution_by_name, write_report
from .solvers import solve
from .standard_form import check_solution, flatten
from .transform import apply_partition

EXIT_OK = 0
EXIT_ITER_LIMIT = 2
EXIT_INFEASIBLE = 3
EXIT_USAGE = 4
EXIT_UNBOUNDED = 5
EXIT_SOLVER_FAILURE = 6

_EXIT_OF_STATUS = {
    "optimal": EXIT_OK,
    "iteration_limit": EXIT_ITER_LIMIT,
    "infeasible": EXIT_INFEASIBLE,
    "unbounded": EXIT_UNBOUNDED,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphopt", description="Hierarchical graph optimization driver")
    source = parser.add_argument_group("model source")
    source.add_argument("--instance", help="path to an instance JSON file")
    source.add_argument("--fixture", choices=FIXTURE_NAMES, help="built-in example model")
    parser.add_argument(
        "--mode",
        choices=("monolithic", "benders", "sequential", "bound"),
        default="monolithic",
    )
    parser.add_argument("--root", help="root subgraph id for benders mode")
    parser.add_argument("--partition", help="membership file: 'node_id block' per line")
    parser.add_argument("--max-iters", type=int, default=100)
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--multicut", action="store_true")
    parser.add_argument("--strengthened", action="store_true")
    parser.add_argument("--lagrangian", action="store_true")
    parser.add_argument("--slacks", action="store_true")
    parser.add_argument("--slack-penalty", type=float, default=1e6)
    parser.add_argument("--warm-start-cuts", action="store_true")
    parser.add_argument("--order", help="comma-separated subgraph ids for sequential mode")
    parser.add_argument("--output", help="write a JSON run report here")
    return parser


def _load_graph(args: argparse.Namespace) -> Graph:
    if bool(args.instance) == bool(args.fixture):
        raise UsageError("give exactly one of --instance or --fixture")
    graph = load_instance(args.instance) if args.instance else generate_fixture(args.fixture)
    if args.partition:
        apply_partition(graph, parse_membership(args.partition))
    return graph


def _config_echo(args: argparse.Namespace) -> dict:
    return {
        "mode": args.mode,
        "root": args.root,
        "max_iters": args.max_iters,
        "tol": args.tol,
        "multicut": args.multicut,
        "strengthened": args.strengthened,
        "lagrangian": args.lagrangian,
        "slacks": args.slacks,
        "slack_penalty": args.slack_penalty,
        "warm_start_cuts": args.warm_start_cuts,
        "order": args.order,
    }


def _run_monolithic(graph: Graph, args: argparse.Namespace, report: RunReport) -> int:
    problem = flatten(graph)
    result = solve(problem)
    report.status = result.status
    if result.status != "optimal":
        return _EXIT_OF_STATUS[result.status]
    report.objective = result.objective
    solution = problem.values_by_ref(result.primal)
    report.solution = solution_by_name(solution)
    report.max_violation = check_solution(graph, solution)
    return EXIT_OK


def _run_benders(graph: Graph, args: argparse.Namespace, report: RunReport) -> int:
    try:
        config = BendersConfig(
            max_iters=args.max_iters,
            tol=args.tol,
            multicut=args.multicut,
            strengthened=args.strengthened,
            lagrangian=args.lagrangian,
            add_slacks=args.slacks,
            slack_penalty=args.slack_penalty,
            warm_start_cuts=args.warm_start_cuts,
        )
    except ValueError as exc:  # a value out of its range
        raise UsageError(str(exc)) from exc
    result = run_decomposition(graph, root=args.root, config=config)
    report.status = result.status
    report.objective = result.objective
    report.solution = solution_by_name(result.solution)
    report.max_violation = result.max_violation
    report.flags = dict(result.flags)
    report.bounds_per_iteration = [
        {
            "iteration": rec.iteration,
            "lower": rec.lower_bound,
            "upper": rec.upper_bound,
            "gap": rec.gap,
            "cuts_added": rec.cuts_added,
        }
        for rec in result.trace
    ]
    if result.message:
        print(f"{result.status}: {result.message}", file=sys.stderr)
    return EXIT_OK if result.converged else EXIT_ITER_LIMIT


def _report_stages(result: SequentialResult, report: RunReport) -> int:
    report.status = result.status
    report.objective = result.objective
    report.solution = solution_by_name(result.solution)
    report.max_violation = result.max_violation
    report.bounds_per_iteration = [
        {"stage": gid, "cost": cost} for gid, cost in result.stage_costs
    ]
    return _EXIT_OF_STATUS[result.status]


def _run_sequential(graph: Graph, args: argparse.Namespace, report: RunReport) -> int:
    order = args.order.split(",") if args.order else None
    result = sequential_solve(
        graph, order, add_slacks=args.slacks, slack_penalty=args.slack_penalty
    )
    return _report_stages(result, report)


def _run_bound(graph: Graph, args: argparse.Namespace, report: RunReport) -> int:
    return _report_stages(relaxed_parallel_bound(graph), report)


def _print_summary(report: RunReport) -> None:
    line = f"mode: {report.mode}  status: {report.status}"
    if math.isfinite(report.objective):
        line += f"  objective: {report.objective:.10g}"
    print(line)
    per_iter = report.bounds_per_iteration
    if per_iter and "lower" in per_iter[-1]:
        last = per_iter[-1]
        print(
            f"iterations: {len(per_iter)}  lower: {last['lower']:.10g}"
            f"  upper: {last['upper']:.10g}  gap: {last['gap']:.3g}"
        )
    if math.isfinite(report.max_violation) and report.solution:
        print(f"max violation: {report.max_violation:.3g}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = RunReport(
        mode="", status="error", objective=float("nan"), wall_clock=0.0
    )
    started = time.perf_counter()
    code = EXIT_USAGE
    try:
        report.mode = args.mode
        report.config = _config_echo(args)
        graph = _load_graph(args)
        runner = {
            "monolithic": _run_monolithic,
            "benders": _run_benders,
            "sequential": _run_sequential,
            "bound": _run_bound,
        }[args.mode]
        code = runner(graph, args, report)
    except (SubproblemInfeasibleError, RelaxationInfeasibleError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        report.status = "infeasible"
        code = EXIT_INFEASIBLE
    except UnboundedError as exc:
        print(f"unbounded: {exc}", file=sys.stderr)
        report.status = "unbounded"
        code = EXIT_UNBOUNDED
    except IterationLimitError as exc:
        print(f"iteration limit: {exc}", file=sys.stderr)
        report.status = "iteration_limit"
        code = EXIT_ITER_LIMIT
    except (NumericalBreakdownError, NodeLimitError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        report.status = "solver_failure"
        code = EXIT_SOLVER_FAILURE
    except GraphOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        report.status = "error"
        code = EXIT_USAGE
    finally:
        report.wall_clock = time.perf_counter() - started
        if getattr(args, "output", None):
            write_report(report, args.output)
    _print_summary(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
