"""The solver entry points, and the hooks the benchmark's tracer relies on."""

import inspect

import pytest

import graphopt
from graphopt import StageProblem
from graphopt.branch_bound import solve_milp
from graphopt.solvers import SimplexSolver, default_solver, solve

from conftest import make_problem


def tiny_problem(integrality: str):
    """min -x - y  s.t.  x + y <= 1.5,  0 <= x, y <= 1."""
    return make_problem([-1, -1], [[1, 1]], ["le"], [1.5], [0, 0], [1, 1], [integrality] * 2)


class CountingSolver:
    def __init__(self):
        self.calls = []
        self.inner = default_solver()

    def solve_lp(self, problem):
        self.calls.append("lp")
        return self.inner.solve_lp(problem)

    def solve_milp(self, problem):
        self.calls.append("milp")
        return self.inner.solve_milp(problem)


class TestSolve:
    @pytest.mark.parametrize(
        "integrality, call, objective",
        [("continuous", "lp", -1.5), ("binary", "milp", -1.0), ("integer", "milp", -1.0)],
    )
    def test_dispatches_once_on_integrality(self, integrality, call, objective):
        proxy = CountingSolver()
        res = solve(tiny_problem(integrality), solver=proxy)
        assert proxy.calls == [call]
        assert res.objective == pytest.approx(objective)

    def test_defaults_to_the_built_in_backend(self):
        assert solve(tiny_problem("binary")).objective == pytest.approx(-1.0)

    def test_is_exported_from_the_package(self):
        assert graphopt.solve is solve


class TestBenchmarkHooks:
    """What the benchmark's tracing proxy and method wrappers use."""

    def test_simplex_solver_exposes_its_milp_settings(self):
        solver = SimplexSolver()
        assert solver.node_limit == 20000
        assert solver.mip_gap == 0.0
        assert callable(solver.solve_lp) and callable(solver.solve_milp)

    def test_wrapped_stage_methods_are_defined_on_the_class(self):
        for name in ("__init__", "problem", "lagrangian_problem", "level_set_problem",
                     "has_equivalent_cut", "add_cut"):
            assert name in StageProblem.__dict__, name

    def test_branch_and_bound_takes_an_lp_callback(self):
        params = inspect.signature(solve_milp).parameters
        assert {"node_limit", "mip_gap", "solve_lp_fn"} <= set(params)

    def test_package_keeps_the_plain_entry_points(self):
        for name in ("solve_lp", "solve_milp", "SimplexSolver", "default_solver"):
            assert hasattr(graphopt, name), name
