"""Branch-and-bound: enumeration agreement, bounds, limits."""

import numpy as np
import pytest

from graphopt import NodeLimitError
from graphopt.branch_bound import solve_milp
from graphopt.simplex import solve_lp
from graphopt.standard_form import lp_relaxation

from conftest import binary_enumeration_milp, make_problem, random_milp


def knapsack(values, weights, budget):
    n = len(values)
    return make_problem(
        [-v for v in values],
        [list(weights)],
        ["le"],
        [budget],
        [0.0] * n,
        [1.0] * n,
        integrality=["binary"] * n,
    )


class TestBranchAndBound:
    def test_small_knapsack(self):
        prob = knapsack([6.0, 5.0, 4.0], [3.0, 2.0, 2.0], 4.0)
        res = solve_milp(prob)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-9.0)  # items 2 and 3
        np.testing.assert_allclose(res.primal, [0.0, 1.0, 1.0], atol=1e-9)

    def test_integral_relaxation_skips_branching(self):
        prob = knapsack([1.0, 1.0], [1.0, 1.0], 2.0)
        res = solve_milp(prob)
        assert res.objective == pytest.approx(-2.0)
        assert res.nodes_explored <= 1

    def test_pure_lp_passes_through(self):
        prob = make_problem([1.0], [[1.0]], ["ge"], [0.5], [0.0], [2.0])
        res = solve_milp(prob)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.5)
        assert res.duals is not None  # the LP path keeps sensitivity data

    def test_milp_results_carry_no_duals(self):
        prob = knapsack([6.0, 5.0, 4.0], [3.0, 2.0, 2.0], 4.0)
        res = solve_milp(prob)
        assert res.duals is None and res.reduced_costs is None

    def test_infeasible_milp(self):
        prob = make_problem(
            [1.0, 1.0],
            [[1.0, 1.0], [1.0, 1.0]],
            ["ge", "le"],
            [1.6, 0.4],
            [0.0, 0.0],
            [1.0, 1.0],
            integrality=["binary", "binary"],
        )
        assert solve_milp(prob).status == "infeasible"

    def test_node_limit_raises(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            prob = random_milp(rng)
            base = solve_milp(prob)
            if base.status == "optimal" and base.nodes_explored > 2:
                with pytest.raises(NodeLimitError):
                    solve_milp(prob, node_limit=1)
                return
        pytest.fail("no instance needed branching")

    def test_mip_gap_allows_early_stop(self):
        prob = knapsack([6.0, 5.0, 4.0, 3.0], [3.0, 2.0, 2.0, 1.0], 5.0)
        exact = solve_milp(prob)
        loose = solve_milp(prob, mip_gap=0.5)
        assert loose.status == "optimal"
        assert loose.objective <= exact.objective * (1 - 0.5) + 1e-9  # within 50% of optimum
        assert loose.nodes_explored <= exact.nodes_explored

    def test_relaxation_bounds_the_milp_from_below(self, rng):
        checked = 0
        for _ in range(25):
            prob = random_milp(rng, pure_binary=bool(rng.integers(0, 2)))
            res = solve_milp(prob)
            if res.status != "optimal":
                continue
            checked += 1
            relaxed = solve_lp(lp_relaxation(prob))
            assert relaxed.status == "optimal"
            assert relaxed.objective <= res.objective + 1e-8
        assert checked >= 10

    def test_agreement_with_binary_enumeration(self, rng):
        optimal = infeasible = 0
        for k in range(40):
            prob = random_milp(rng, pure_binary=(k % 3 != 0))
            status, obj, _ = binary_enumeration_milp(prob)
            res = solve_milp(prob)
            assert res.status == status
            if status == "optimal":
                optimal += 1
                assert res.objective == pytest.approx(obj, abs=1e-9)
            else:
                infeasible += 1
        assert optimal >= 15

    def test_repeat_solves_are_identical(self, rng):
        prob = random_milp(rng)
        a, b = solve_milp(prob), solve_milp(prob)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.objective == b.objective
            assert a.nodes_explored == b.nodes_explored
            np.testing.assert_array_equal(a.primal, b.primal)

    def test_each_node_solves_one_lp_and_the_root_is_node_one(self, rng):
        branched = 0
        for _ in range(25):
            prob = random_milp(rng, pure_binary=bool(rng.integers(0, 2)))
            lp_iterations = []

            def counting_solve_lp(p):
                res = solve_lp(p)
                lp_iterations.append(res.iterations)
                return res

            res = solve_milp(prob, solve_lp_fn=counting_solve_lp)
            if res.nodes_explored == 0:  # the root relaxation was infeasible
                continue
            branched += res.nodes_explored > 1
            assert len(lp_iterations) == res.nodes_explored
            assert res.iterations == sum(lp_iterations)
        assert branched >= 5
