"""Two-phase simplex: toys, dual conventions, and random-instance agreement."""

import numpy as np
import pytest

from graphopt.simplex import solve_lp

from conftest import make_problem, random_feasible_lp, random_lp, vertex_enumeration_lp


def dual_objective(problem, res) -> float:
    """y'b plus the bound terms of the dual, using the library's conventions.

    Reduced costs are priced at the bound the variable rests on: a positive
    reduced cost pushes the variable to its lower bound, a negative one to
    its upper bound.
    """
    val = float(res.duals @ problem.rhs) + problem.objective_constant
    for j in range(problem.n_cols):
        rc = res.reduced_costs[j]
        if rc > 0:
            val += rc * problem.lower[j]
        elif rc < 0:
            val += rc * problem.upper[j]
    return val


class TestToys:
    def test_two_variable_optimum(self):
        prob = make_problem(
            [-1.0, -2.0],
            [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            ["le", "le", "le"],
            [4.0, 3.0, 2.0],
            [0.0, 0.0],
            [10.0, 10.0],
        )
        res = solve_lp(prob)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-6.0)
        np.testing.assert_allclose(res.primal, [2.0, 2.0], atol=1e-9)

    def test_equality_row(self):
        prob = make_problem([1.0, 1.0], [[1.0, 1.0]], ["eq"], [2.0], [0.0, 0.0], [5.0, 5.0])
        res = solve_lp(prob)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0)

    def test_objective_constant_is_carried(self):
        prob = make_problem([1.0], [], [], [], [1.0], [3.0], constant=7.5)
        res = solve_lp(prob)
        assert res.objective == pytest.approx(8.5)

    def test_negative_lower_bounds(self):
        prob = make_problem([1.0, 1.0], [[1.0, 1.0]], ["ge"], [-3.0], [-5.0, -5.0], [0.0, 0.0])
        res = solve_lp(prob)
        assert res.objective == pytest.approx(-3.0)

    def test_unbounded(self):
        prob = make_problem(
            [-1.0], [], [], [], [0.0], [np.inf]
        )
        assert solve_lp(prob).status == "unbounded"

    def test_infeasible(self):
        prob = make_problem([1.0], [[1.0]], ["le"], [-1.0], [0.0], [5.0])
        assert solve_lp(prob).status == "infeasible"

    def test_iteration_limit_status(self):
        rng = np.random.default_rng(3)
        prob = random_feasible_lp(rng)
        res = solve_lp(prob, max_iterations=1)
        assert res.status in ("iteration_limit", "optimal")
        capped = solve_lp(prob, max_iterations=0)
        assert capped.status == "iteration_limit"


class TestDuals:
    def test_le_row_dual_is_nonpositive(self):
        # min -x s.t. x <= 1: V(b) = -b, so dV/db = -1
        prob = make_problem([-1.0], [[1.0]], ["le"], [1.0], [0.0], [10.0])
        res = solve_lp(prob)
        assert res.duals[0] == pytest.approx(-1.0)

    def test_ge_row_dual_follows_the_stored_row(self):
        # min x s.t. x >= 1: raising the requirement raises the optimum
        prob = make_problem([1.0], [[1.0]], ["ge"], [1.0], [0.0], [10.0])
        res = solve_lp(prob)
        assert res.objective == pytest.approx(1.0)
        assert res.duals[0] == pytest.approx(1.0)

    def test_reduced_cost_of_a_variable_at_its_lower_bound(self):
        prob = make_problem([2.0, 1.0], [[1.0, 1.0]], ["ge"], [1.0], [0.0, 0.0], [5.0, 5.0])
        res = solve_lp(prob)
        # y covers the row; x0 stays at 0 with reduced cost 2 - y >= 0
        assert res.primal[0] == pytest.approx(0.0)
        assert res.reduced_costs[0] == pytest.approx(1.0)

    def test_strong_duality_and_complementary_slackness_on_random_lps(self, rng):
        checked = 0
        for _ in range(60):
            prob = random_lp(rng)
            res = solve_lp(prob)
            if res.status != "optimal":
                continue
            checked += 1
            assert dual_objective(prob, res) == pytest.approx(res.objective, abs=1e-7)
            a = prob.dense_rows()
            slack = prob.rhs - a @ res.primal
            for i, sense in enumerate(prob.senses):
                if sense == "eq":
                    assert abs(slack[i]) <= 1e-7
                else:
                    assert abs(res.duals[i] * slack[i]) <= 1e-6
            for j in range(prob.n_cols):
                rc = res.reduced_costs[j]
                if rc > 1e-7:
                    assert res.primal[j] == pytest.approx(prob.lower[j], abs=1e-7)
                elif rc < -1e-7:
                    assert res.primal[j] == pytest.approx(prob.upper[j], abs=1e-7)
        assert checked >= 20

    def test_duals_are_subgradients_of_the_value_function(self, rng):
        """V(b) is convex in the rhs, so V(b') >= V(b) + y'(b' - b)."""
        checked = 0
        for _ in range(25):
            prob = random_feasible_lp(rng)
            res = solve_lp(prob)
            if res.status != "optimal":
                continue
            for _ in range(4):
                shifted = prob.copy()
                delta = rng.uniform(-0.25, 0.25, size=prob.n_rows)
                shifted.rhs = prob.rhs + delta
                res2 = solve_lp(shifted)
                if res2.status != "optimal":
                    continue
                checked += 1
                bound = res.objective + float(res.duals @ delta)
                assert res2.objective >= bound - 1e-6 * max(1.0, abs(bound))
        assert checked >= 30

    def test_finite_difference_matches_the_dual_on_a_tight_row(self):
        prob = make_problem(
            [-2.0, -3.0],
            [[1.0, 2.0], [3.0, 1.0]],
            ["le", "le"],
            [6.0, 9.0],
            [0.0, 0.0],
            [10.0, 10.0],
        )
        base = solve_lp(prob)
        eps = 1e-6
        for i in range(2):
            bumped = prob.copy()
            bumped.rhs = prob.rhs.copy()
            bumped.rhs[i] += eps
            fd = (solve_lp(bumped).objective - base.objective) / eps
            assert fd == pytest.approx(base.duals[i], abs=1e-4)


class TestAgainstVertexEnumeration:
    def test_random_lps_match_the_oracle(self, rng):
        optimal = infeasible = 0
        for _ in range(80):
            prob = random_lp(rng)
            status, obj, _ = vertex_enumeration_lp(prob)
            res = solve_lp(prob)
            assert res.status == status
            if status == "optimal":
                optimal += 1
                assert res.objective == pytest.approx(obj, abs=1e-7 * max(1, abs(obj)))
            else:
                infeasible += 1
        assert optimal >= 20 and infeasible >= 5  # both branches exercised


class TestDeterminism:
    def test_repeat_solves_are_bitwise_identical(self, rng):
        prob = random_feasible_lp(rng)
        first = solve_lp(prob)
        second = solve_lp(prob)
        assert first.objective == second.objective
        assert first.iterations == second.iterations
        np.testing.assert_array_equal(first.primal, second.primal)
        np.testing.assert_array_equal(first.duals, second.duals)


class TestBoundedVariables:
    """Paths of the upper-bounding technique: flips, complemented columns, bound kinds."""

    def box_lp(self):
        # no rows: every column with a negative cost flips to its upper bound
        c = [-2.0, 3.0, -0.5, 0.0, -4.0]
        return make_problem(c, [], [], [], [-1.0, -2.0, 0.5, 0.0, -3.0], [2.0, 1.0, 4.0, 1.0, -1.0])

    def test_row_less_box_reaches_the_optimum_by_flips_alone(self):
        prob = self.box_lp()
        res = solve_lp(prob)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.primal, [2.0, -2.0, 4.0, 0.0, -1.0])
        assert res.objective == pytest.approx(-4.0 - 6.0 - 2.0 + 4.0)
        assert res.iterations == 3  # one flip per negative cost, no pivot
        np.testing.assert_array_equal(res.reduced_costs, prob.objective)
        assert (res.reduced_costs[[0, 2, 4]] < 0).all()  # columns at their upper bounds
        assert dual_objective(prob, res) == pytest.approx(res.objective, abs=1e-12)

    def test_max_iterations_caps_pivots_plus_flips(self):
        prob = self.box_lp()
        assert solve_lp(prob, max_iterations=3).status == "optimal"
        capped = solve_lp(prob, max_iterations=2)
        assert capped.status == "iteration_limit"
        assert capped.iterations == 3

    def test_a_basic_column_leaves_at_its_upper_bound(self):
        # x1 = x0 + 1 is basic; raising x0 stops where x1 reaches its bound 3
        prob = make_problem([-1.0, 0.0], [[1.0, -1.0]], ["eq"], [-1.0], [0.0, 0.0], [5.0, 3.0])
        res = solve_lp(prob)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.primal, [2.0, 3.0], atol=1e-12)
        assert res.duals[0] == pytest.approx(-1.0)
        np.testing.assert_allclose(res.reduced_costs, [0.0, -1.0], atol=1e-12)
        assert dual_objective(prob, res) == pytest.approx(res.objective, abs=1e-12)

    def test_fixed_columns_match_their_substitution(self, rng):
        checked = 0
        for _ in range(40):
            prob = random_feasible_lp(rng)
            j = int(rng.integers(prob.n_cols))
            fixed = prob.copy()
            fixed.lower = prob.lower.copy()
            fixed.upper = prob.upper.copy()
            value = float(rng.uniform(prob.lower[j], prob.upper[j]))
            fixed.lower[j] = fixed.upper[j] = value
            # the same LP with column j substituted into the right-hand side
            a = prob.dense_rows()
            keep = [k for k in range(prob.n_cols) if k != j]
            sub = make_problem(
                prob.objective[keep], a[:, keep], prob.senses, prob.rhs - a[:, j] * value,
                prob.lower[keep], prob.upper[keep], constant=prob.objective[j] * value,
            )
            res, ref = solve_lp(fixed), solve_lp(sub)
            assert res.status == ref.status
            if ref.status != "optimal":
                continue
            checked += 1
            assert res.primal[j] == value
            assert res.objective == pytest.approx(ref.objective, abs=1e-9)
            assert dual_objective(fixed, res) == pytest.approx(res.objective, abs=1e-7)
            assert res.reduced_costs[j] == pytest.approx(
                prob.objective[j] - a[:, j] @ res.duals, abs=1e-12
            )
        assert checked >= 20

    def test_every_column_fixed(self):
        # only equality rows: no column, slack or not, is left to enter
        prob = make_problem([1.0, 2.0], [[1.0, 1.0]], ["eq"], [3.0], [1.0, 2.0], [1.0, 2.0])
        res = solve_lp(prob)
        assert res.status == "optimal"
        assert res.objective == 5.0
        np.testing.assert_array_equal(res.primal, [1.0, 2.0])
        prob.rhs = np.array([4.0])
        assert solve_lp(prob).status == "infeasible"

    def test_upper_only_columns(self):
        # both columns rest at their upper bounds with reduced cost -1
        prob = make_problem(
            [-1.0, -1.0], [[1.0, 1.0]], ["le"], [10.0], [-np.inf, -np.inf], [3.0, 4.0]
        )
        res = solve_lp(prob)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.primal, [3.0, 4.0])
        np.testing.assert_allclose(res.reduced_costs, [-1.0, -1.0])
        assert dual_objective(prob, res) == pytest.approx(-7.0)
        # a ge row holds the column up from below
        prob = make_problem([1.0], [[1.0]], ["ge"], [-2.0], [-np.inf], [5.0])
        res = solve_lp(prob)
        assert res.objective == pytest.approx(-2.0)
        assert res.duals[0] == pytest.approx(1.0)
        # nothing holds it: its cost pushes it to minus infinity
        assert solve_lp(make_problem([1.0], [], [], [], [-np.inf], [5.0])).status == "unbounded"

    def test_free_columns(self):
        prob = make_problem(
            [1.0, 1.0], [[1.0, -1.0], [1.0, 1.0]], ["eq", "ge"], [1.0, 3.0],
            [-np.inf, -np.inf], [np.inf, np.inf],
        )
        res = solve_lp(prob)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.primal, [2.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(res.duals, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(res.reduced_costs, [0.0, 0.0], atol=1e-12)
        assert solve_lp(make_problem([-1.0], [], [], [], [-np.inf], [np.inf])).status == "unbounded"

    def test_mixed_magnitudes_come_out_feasible_and_optimal(self):
        # theta >= -1e9 as a Benders root carries it, under cuts with O(1) to
        # 1e6 coefficients: the 1e9 shift lands in the right-hand side
        prob = make_problem(
            [1.0, 1e3, 0.0],
            [[1.0, 1e6, 0.0], [1.0, 1.0, 0.0], [0.0, 1e6, -1.0], [0.0, 2.0, 1.0]],
            ["ge", "ge", "le", "eq"],
            [5e5, 2.0, 1e6, 3.0],
            [-1e9, 0.0, -10.0],
            [np.inf, 1.0, 10.0],
        )
        res = solve_lp(prob)
        assert res.status == "optimal"
        x = (5e5 - 2.0) / (1e6 - 1.0)  # where the two cuts cross
        # theta comes back through the 1e9 shift, one ulp of which is 1.2e-7
        np.testing.assert_allclose(res.primal, [2.0 - x, x, 3.0 - 2.0 * x], rtol=1e-9, atol=1e-6)
        assert res.objective == pytest.approx(2.0 + 999.0 * x, rel=1e-9)
        assert dual_objective(prob, res) == pytest.approx(res.objective, rel=1e-9)


def test_solve_lp_never_writes_to_its_input(rng):
    """Branch-and-bound shares one problem's arrays between its nodes."""
    for _ in range(30):
        prob = random_lp(rng)
        prob.lower[0], prob.upper[1] = -np.inf, np.inf
        prob.senses[0] = "ge"
        before = prob.copy()
        solve_lp(prob)
        for name in ("objective", "rhs", "lower", "upper"):
            np.testing.assert_array_equal(getattr(prob, name), getattr(before, name))
        assert prob.triplets == before.triplets
        assert prob.senses == before.senses
