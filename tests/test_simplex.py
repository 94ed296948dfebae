"""Simplex: toys, dual conventions, warm starts, and random-instance agreement."""

import gc
import pickle
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from graphopt import simplex
from graphopt.branch_bound import solve_milp
from graphopt.errors import NumericalBreakdownError
from graphopt.fixtures import generate_fixture
from graphopt.simplex import solve_lp
from graphopt.standard_form import AT_LOWER, AT_UPPER, BASIC, FREE_ZERO, NONBASIC, Basis, flatten

from conftest import (
    assert_strong_duality,
    make_problem,
    random_feasible_lp,
    random_lp,
    random_milp,
    vertex_enumeration_lp,
)


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
        prob = replace(prob, senses=("ge", *prob.senses[1:]))
        before = prob.copy()
        solve_lp(prob)
        for name in ("objective", "rhs", "lower", "upper"):
            np.testing.assert_array_equal(getattr(prob, name), getattr(before, name))
        assert prob.triplets == before.triplets
        assert prob.senses == before.senses


def mixed_bound_feasible_lp(rng):
    """A feasible LP whose columns are boxed, lower-only, upper-only or free."""
    prob = random_feasible_lp(rng, n_max=7, m_max=6)
    kind = rng.choice(["box", "lower", "upper", "free"], size=prob.n_cols, p=[0.55, 0.2, 0.15, 0.1])
    prob.lower[(kind == "upper") | (kind == "free")] = -np.inf
    prob.upper[(kind == "lower") | (kind == "free")] = np.inf
    return prob


def with_bounds(prob, lower, upper):
    return replace(prob, lower=lower, upper=upper)


def changed_child(rng, prob, parent, change):
    """``prob`` with bounds (or costs) changed the way a re-solve would see them."""
    lo, hi, x = prob.lower.copy(), prob.upper.copy(), parent.primal
    basic = np.flatnonzero(parent.basis.columns == BASIC)
    pool = basic if basic.size else np.arange(prob.n_cols)
    if change == "new_costs":  # the basis stays primal feasible
        return replace(prob, objective=prob.objective + rng.uniform(-3.0, 3.0, prob.n_cols))
    if change == "infeasible":
        # fix every column of one row where the row misses its rhs by 1
        i = int(rng.integers(prob.n_rows))
        a = prob.dense_rows()[i]
        miss = -1.0 if prob.senses[i] == "ge" else 1.0
        target = x + (prob.rhs[i] + miss - a @ x) / (a @ a) * a
        cols = np.flatnonzero(a)
        lo[cols] = hi[cols] = target[cols]
        return with_bounds(prob, lo, hi)
    for j in rng.choice(pool, size=min(pool.size, int(rng.integers(1, 3))), replace=False):
        if change == "fix_basic":  # a branch on a binary fixes it
            v = np.floor(x[j]) if rng.random() < 0.5 else np.ceil(x[j])
            lo[j] = hi[j] = float(np.clip(v, lo[j], hi[j]))
        elif rng.random() < 0.5:  # "past_bound": the bound crosses the current value
            lo[j] = x[j] + rng.uniform(0.1, 2.0)
            hi[j] = max(hi[j], lo[j])
        else:
            hi[j] = x[j] - rng.uniform(0.1, 2.0)
            lo[j] = min(lo[j], hi[j])
    return with_bounds(prob, lo, hi)


def assert_primal_feasible(prob, res, tol=1e-7):
    x = res.primal
    assert (x >= prob.lower - tol).all() and (x <= prob.upper + tol).all()
    lhs = prob.dense_rows() @ x
    for i, sense in enumerate(prob.senses):
        scale = tol * max(1.0, abs(prob.rhs[i]))
        if sense != "ge":
            assert lhs[i] <= prob.rhs[i] + scale
        if sense != "le":
            assert lhs[i] >= prob.rhs[i] - scale


class TestWarmStart:
    """Re-solves from a given basis agree with cold solves."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        change=st.sampled_from(["fix_basic", "past_bound", "infeasible", "new_costs"]),
    )
    def test_warm_and_cold_re_solves_agree(self, seed, change):
        rng = np.random.default_rng(seed)
        for _ in range(50):  # the first optimal parent this seed draws
            prob = mixed_bound_feasible_lp(rng)
            parent = solve_lp(prob)
            if parent.status == "optimal":
                break
        else:
            pytest.skip("no bounded parent drawn")
        child = changed_child(rng, prob, parent, change)
        cold = solve_lp(child)
        warm = solve_lp(replace(child, basis=parent.basis))
        assert warm.status == cold.status
        if change == "infeasible":
            assert warm.status == "infeasible"
        if cold.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            assert_strong_duality(child, warm)
            assert_primal_feasible(child, warm)

    def test_the_basis_describes_the_optimum(self, rng):
        checked = 0
        for _ in range(60):
            prob = mixed_bound_feasible_lp(rng)
            res = solve_lp(prob)
            if res.status != "optimal":
                continue
            checked += 1
            cols, rows = res.basis.columns, res.basis.rows
            assert (cols == BASIC).sum() + (rows == BASIC).sum() == prob.n_rows
            x = res.primal
            np.testing.assert_allclose(x[cols == AT_LOWER], prob.lower[cols == AT_LOWER], atol=1e-9)
            np.testing.assert_allclose(x[cols == AT_UPPER], prob.upper[cols == AT_UPPER], atol=1e-9)
            np.testing.assert_array_equal(x[cols == FREE_ZERO], 0.0)
            tight = rows == NONBASIC
            np.testing.assert_allclose((prob.dense_rows() @ x)[tight], prob.rhs[tight], atol=1e-9)
        assert checked >= 30

    def test_a_child_re_solve_takes_one_dual_pivot(self):
        # max 6a + 5b + 3c s.t. 3a + 2b + 2c <= 4: b = 1 and a = 2/3 at the root
        prob = make_problem([-6.0, -5.0, -3.0], [[3.0, 2.0, 2.0]], ["le"], [4.0], [0.0] * 3, [1.0] * 3)
        root = solve_lp(prob)
        np.testing.assert_allclose(root.primal, [2.0 / 3.0, 1.0, 0.0])
        for a_fixed, objective in [(0.0, -8.0), (1.0, -8.5)]:
            lo, hi = prob.lower.copy(), prob.upper.copy()
            lo[0] = hi[0] = a_fixed
            child = with_bounds(prob, lo, hi)
            cold = solve_lp(child)
            warm = solve_lp(replace(child, basis=root.basis))
            assert warm.objective == cold.objective == pytest.approx(objective)
            assert_strong_duality(child, warm)
            assert warm.iterations == 1

    def test_a_complemented_equality_logical_keeps_its_dual_sign(self):
        # min x s.t. x = 2: the row's zero-width logical starts basic at 2,
        # above its bound, so the dual simplex complements it before x enters
        prob = make_problem([1.0], [[1.0]], ["eq"], [2.0], [0.0], [5.0])
        cold = solve_lp(prob)
        warm = solve_lp(replace(prob, basis=Basis(np.array([AT_LOWER]), np.array([BASIC]))))
        assert warm.starts == ("crash",) and warm.iterations == 1
        assert warm.objective == cold.objective == pytest.approx(2.0)
        np.testing.assert_allclose(warm.duals, [1.0])
        np.testing.assert_allclose(warm.reduced_costs, [0.0])
        np.testing.assert_array_equal(warm.duals, cold.duals)
        assert_strong_duality(prob, warm)

    def test_rounding_noise_on_an_unbounded_column_lifts_no_row(self):
        # instance 27 of the acceptance stream: the row that proves it
        # infeasible keeps a -6.9e-18 entry on a slack, unbounded above
        rng = np.random.default_rng(20250803)
        for _ in range(28):
            prob = random_lp(rng, n_max=6, m_max=8)
        assert vertex_enumeration_lp(prob)[0] == "infeasible"
        hint = Basis(np.full(prob.n_cols, AT_LOWER), np.full(prob.n_rows, BASIC))
        res = solve_lp(replace(prob, basis=hint))
        assert res.status == "infeasible" and res.starts == ("crash",)

    def test_a_row_less_lp_re_solves_from_its_own_basis(self):
        prob = make_problem([-1.0, 2.0, -0.5], np.zeros((0, 3)), [], [], [0.0, -1.0, -np.inf], [2.5, 3.0, 4.0])
        cold = solve_lp(prob)
        assert cold.status == "optimal" and cold.objective == pytest.approx(-6.5)
        for hint in (cold.basis, Basis(cold.basis.columns, cold.basis.rows)):  # kept, then rebuilt
            warm = solve_lp(replace(prob, basis=hint))
            assert warm.status == "optimal" and warm.iterations == 0
            np.testing.assert_array_equal(warm.primal, cold.primal)
            assert warm.duals.size == 0

    def unusable_hint_lp(self):
        # columns 0 and 1 share their coefficients; the all-slack basis is
        # primal infeasible (x2 >= 1) and dual infeasible (x2's cost)
        return make_problem(
            [-1.0, -2.0, -1.0],
            [[1.0, 1.0, 1.0], [2.0, 2.0, 0.0], [0.0, 0.0, -1.0]],
            ["le", "le", "le"],
            [4.0, 6.0, -1.0],
            [0.0] * 3,
            [np.inf] * 3,
        )

    @pytest.mark.parametrize("hint", [
        Basis(np.array([BASIC, AT_LOWER, AT_LOWER, AT_LOWER]), np.array([BASIC, BASIC, NONBASIC])),
        Basis(np.array([BASIC, AT_LOWER, AT_LOWER]), np.array([BASIC, BASIC])),
        Basis(np.array([BASIC, BASIC, BASIC]), np.array([BASIC, NONBASIC, NONBASIC])),  # 4 basic
        Basis(np.array([BASIC, BASIC, AT_LOWER]), np.array([NONBASIC, NONBASIC, BASIC])),  # singular
        Basis(np.array([AT_LOWER] * 3), np.array([BASIC] * 3)),  # all slack
    ], ids=["long-columns", "short-rows", "too-many-basic", "singular", "all-slack"])
    def test_unusable_hints_fall_back_to_the_cold_start(self, hint):
        prob = self.unusable_hint_lp()
        cold = solve_lp(prob)
        assert cold.objective == pytest.approx(-7.0)
        res = solve_lp(replace(prob, basis=hint))
        assert res.status == cold.status == "optimal"
        assert res.objective == cold.objective
        assert res.iterations == cold.iterations  # the cold path, pivot for pivot
        np.testing.assert_array_equal(res.primal, cold.primal)
        np.testing.assert_array_equal(res.duals, cold.duals)

    def test_max_iterations_minus_one_returns_after_the_build(self):
        """The benchmark's set-up probe relies on this, with and without a hint."""
        prob = self.unusable_hint_lp()
        usable = solve_lp(prob).basis
        lo, hi = prob.lower.copy(), prob.upper.copy()
        hi[1] = 2.5
        child = with_bounds(prob, lo, hi)
        assert solve_lp(replace(child, basis=usable)).iterations >= 1
        unusable = Basis(np.array([AT_LOWER] * 3), np.array([BASIC] * 3))
        for basis in (None, usable, unusable):
            res = solve_lp(replace(child, basis=basis), max_iterations=-1)
            assert res.status == "iteration_limit"
            assert res.iterations == 0


def kept_parent(rng):
    """A solved LP over a kept matrix whose basis keeps its final tableau, or ``None``."""
    for _ in range(50):
        prob = mixed_bound_feasible_lp(rng)
        cold = solve_lp(prob)
        if cold.status == "optimal":
            # a re-solve from its own basis takes the warm path, which keeps the tableau
            return prob, solve_lp(replace(prob, basis=cold.basis))
    return None


def kind_keeping_change(rng, prob, parent, change):
    """New rhs, bounds or costs that keep which bounds of each column are finite."""
    if change == "objective":  # a Lagrangian step moves the costs only
        return replace(prob, objective=prob.objective + rng.uniform(-3.0, 3.0, prob.n_cols))
    child = prob
    if change in ("rhs", "rhs_and_bounds"):
        child = replace(child, rhs=prob.rhs + rng.uniform(-1.0, 1.0, prob.n_rows))
    if change == "rhs":
        return child
    lo, hi, x = prob.lower.copy(), prob.upper.copy(), parent.primal
    if change == "fix_basic":  # a column keeps its shift when its lower bound stays finite
        pool = np.flatnonzero(np.isfinite(lo))
        basic = pool[parent.basis.columns[pool] == BASIC]
        pool = basic if basic.size else pool
    else:  # free columns stay free
        pool = np.flatnonzero(np.isfinite(lo) | np.isfinite(hi))
    for j in rng.choice(pool, size=min(pool.size, int(rng.integers(1, 3))), replace=False):
        if change == "fix_basic":  # a branch on a binary fixes it
            lo[j] = hi[j] = float(np.clip(np.round(x[j]), lo[j], hi[j]))
        elif np.isfinite(lo[j]):  # the lower bound rises past the current value
            lo[j] = min(x[j] + rng.uniform(0.1, 2.0), hi[j])
        else:
            hi[j] = x[j] - rng.uniform(0.1, 2.0)
    return with_bounds(child, lo, hi)


def test_a_result_names_every_start_its_solve_tried():
    """A probe with ``max_iterations=-1`` names the same starts: the last is the one it built."""
    prob = make_problem([-1.0, -2.0, 0.5], [[1.0, 1.0, 1.0], [1.0, -1.0, 2.0]], ["le", "ge"],
                        [4.0, -2.0], [0.0] * 3, [3.0] * 3)
    cold = solve_lp(prob)
    assert cold.starts == ("logical",)
    codes = Basis(cold.basis.columns, cold.basis.rows)
    cut = prob.with_rows([({0: 1.0, 1: 1.0}, "le", 1.5, "cut")])
    wrong_size = Basis(np.full(4, AT_LOWER), np.full(2, BASIC))
    for problem, starts in [
        (prob, ("logical",)),
        (replace(prob, rhs=np.array([3.5, -1.0]), basis=cold.basis), ("kept",)),
        (cut.with_changes(basis=cold.basis), ("bordered",)),
        (replace(prob, basis=codes), ("crash",)),
        (replace(prob, basis=wrong_size), ("crash", "logical")),
    ]:
        res = solve_lp(problem)
        assert res.status == "optimal" and res.starts == starts
        probe = solve_lp(problem, max_iterations=-1)
        assert (probe.status, probe.starts) == ("iteration_limit", starts)
    infeasible_bounds = with_bounds(prob, np.array([1.0, 0.0, 0.0]), np.array([0.0, 3.0, 3.0]))
    assert solve_lp(infeasible_bounds).starts == ()  # no start is built


class TestAllLogicalStart:
    """Verdicts the dual simplex reaches, or gives up on, from the all-logical tableau."""

    @staticmethod
    def starts(prob):
        """The problem without a hint, and with the all-logical basis as its hint."""
        hint = Basis(np.full(prob.n_cols, AT_LOWER), np.full(prob.n_rows, BASIC))
        return prob, replace(prob, basis=hint)

    def test_a_large_rhs_no_pivot_mixes_in_leaves_an_infeasible_row_infeasible(self):
        # x <= -1e-4 beside y <= 1e9: x's row of B^-1 never reaches y's row,
        # so the 1e9 adds nothing to the rounding allowed on x's row
        prob = make_problem([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], ["le", "le"], [-1e-4, 1e9],
                            [0.0, 0.0], [np.inf, np.inf])
        for start in self.starts(prob):
            assert solve_lp(start).status == "infeasible"

    @pytest.mark.parametrize("prob, message", [
        # y >= 1e9 and x + y <= 1e9 - 1e-5: the pivot that lifts y mixes the
        # 1e9 into the second row, whose violation is then within rounding
        (make_problem([0.0, 0.0], [[0.0, 1.0], [1.0, 1.0]], ["ge", "le"], [1e9, 1e9 - 1e-5],
                      [0.0, 0.0], [np.inf, np.inf]), "tableau row 1: no column can repair it"),
        # 1e-10 x >= 1e-4 holds at x >= 1e6, but only a pivot below
        # _PIVOT_GOOD of the row's largest entry could get there
        (make_problem([1.0], [[1e-10]], ["ge"], [1e-4], [0.0], [np.inf]),
         "tableau row 0: only pivots below"),
    ])
    def test_a_row_it_can_neither_repair_nor_prove_infeasible_raises(self, prob, message):
        with pytest.raises(NumericalBreakdownError, match=message):
            solve_lp(prob)
        # a hinted start tries once more from the all-logical tableau, no more
        with mock.patch.object(simplex, "_solve_from", wraps=simplex._solve_from) as spy:
            with pytest.raises(NumericalBreakdownError, match=message):
                solve_lp(self.starts(prob)[1])
        assert spy.call_count == 2  # the crash build, then the all-logical tableau


class TestKeptTableau:
    """Re-solves that start from the previous warm solve's final tableau."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        change=st.sampled_from(["rhs", "tighten", "fix_basic", "rhs_and_bounds", "objective"]),
    )
    def test_kept_crash_and_cold_re_solves_agree(self, seed, change):
        rng = np.random.default_rng(seed)
        drawn = kept_parent(rng)
        if drawn is None:
            pytest.skip("no bounded parent drawn")
        prob, parent = drawn
        assert parent.basis._tableau is not None
        child = kind_keeping_change(rng, prob, parent, change)
        kept = solve_lp(replace(child, basis=parent.basis))
        assert kept.starts == ("kept",)
        crash = solve_lp(replace(child, basis=Basis(parent.basis.columns, parent.basis.rows)))
        cold = solve_lp(child)
        assert kept.status == crash.status == cold.status
        if cold.status == "optimal":
            assert kept.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            assert crash.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            assert_strong_duality(child, kept)
            assert_primal_feasible(child, kept)

    def test_repeat_solves_and_a_probe_leave_the_kept_tableau_alone(self, rng):
        """The benchmark's tracer solves each LP twice, the second time as a set-up probe."""
        checked = 0
        for _ in range(30):
            drawn = kept_parent(rng)
            if drawn is None:
                continue
            prob, parent = drawn
            kept = parent.basis._tableau
            before = [kept.rows.copy(), kept.basis.copy(), kept.flipped.copy()]
            child = replace(prob, rhs=prob.rhs + rng.uniform(-1.0, 1.0, prob.n_rows), basis=parent.basis)
            first = solve_lp(child)
            probe = solve_lp(child, max_iterations=-1)
            assert probe.status == "iteration_limit" and probe.iterations == 0
            second = solve_lp(child)
            assert (first.status, first.iterations) == (second.status, second.iterations)
            if first.status == "optimal":
                checked += 1
                assert first.objective == second.objective
                np.testing.assert_array_equal(first.primal, second.primal)
                np.testing.assert_array_equal(first.duals, second.duals)
            for old, now in zip(before, [kept.rows, kept.basis, kept.flipped]):
                np.testing.assert_array_equal(old, now)
        assert checked >= 10

    def test_a_dropped_result_frees_its_tableau_without_the_cycle_collector(self):
        """The kept tableau and the closures that read it form no reference cycle."""
        gc.disable()
        try:
            res = solve_lp(flatten(generate_fixture("storage")))
            assert res.status == "optimal"
            rows = weakref.ref(res.basis._tableau.rows)
            del res
            assert rows() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("hand_back", ["with_changes", "replace"])
    def test_a_problem_re_solves_from_its_own_basis_with_no_other_call(self, hand_back):
        """A flattened problem's matrix is the one its result's tableau keeps: no build, no pivot."""
        problem = flatten(generate_fixture("storage"))
        first = solve_lp(problem)
        assert first.status == "optimal"
        if hand_back == "with_changes":
            again = problem.with_changes(basis=first.basis)
        else:
            again = replace(problem, basis=first.basis)
        res = solve_lp(again)
        assert (res.status, res.starts, res.iterations) == ("optimal", ("kept",), 0)
        assert res.objective == first.objective

    def test_an_unpickled_basis_re_solves_from_its_kept_tableau(self):
        """Its tableau's matrix is a copy with equal entries, which starts a solve as the original does."""
        problem = flatten(generate_fixture("storage"))
        first = solve_lp(problem)
        copy = pickle.loads(pickle.dumps(first.basis))
        assert copy._tableau.frame.a is not problem.dense_rows()
        res = solve_lp(problem.with_changes(basis=copy))
        assert (res.status, res.starts, res.iterations) == ("optimal", ("kept",), 0)
        assert res.objective == first.objective

    def boxed_lp(self):
        return make_problem([-1.0, -2.0, 0.5], [[1.0, 1.0, 1.0], [1.0, -1.0, 2.0]], ["le", "ge"],
                            [4.0, -2.0], [0.0] * 3, [3.0] * 3)

    @pytest.mark.parametrize("change", [None, "copy", "matrix", "upper_only"])
    def test_a_different_matrix_rebuilds_and_a_new_bound_pattern_does_not(self, change):
        prob = self.boxed_lp()
        parent = solve_lp(replace(prob, basis=solve_lp(prob).basis))
        child = replace(prob, rhs=np.array([3.5, -1.0]))
        if change == "copy":  # equal entries, another matrix object
            child = child.copy()
        elif change == "matrix":  # one entry differs
            child = replace(child, matrix=np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 2.5]]))
        elif change == "upper_only":  # column 0 loses its lower bound, and rests at its upper one
            child = with_bounds(child, np.array([-np.inf, 0.0, 0.0]), child.upper)
        res = solve_lp(replace(child, basis=parent.basis))
        assert res.starts == (("crash",) if change == "matrix" else ("kept",))
        rebuilt = solve_lp(replace(child, basis=Basis(parent.basis.columns, parent.basis.rows)))
        cold = solve_lp(child)
        assert res.status == rebuilt.status == cold.status == "optimal"
        assert res.objective == pytest.approx(cold.objective, rel=1e-12)
        if change == "matrix":  # the same Gauss-Jordan build, pivot for pivot
            assert res.iterations == rebuilt.iterations
            np.testing.assert_array_equal(res.primal, rebuilt.primal)

    def test_a_kept_start_that_breaks_down_is_rebuilt_from_its_basis(self):
        prob = self.boxed_lp()
        parent = solve_lp(replace(prob, basis=solve_lp(prob).basis))
        child = replace(prob, rhs=np.array([3.5, -1.0]), basis=parent.basis)
        solve_from, starts = simplex._solve_from, []

        def breaks_down_once(problem, t, *args):
            starts.append(t)
            if len(starts) == 1:
                raise NumericalBreakdownError("rounding in the kept tableau")
            return solve_from(problem, t, *args)

        with mock.patch.object(simplex, "_solve_from", breaks_down_once):
            res = solve_lp(child)
        assert (len(starts), res.starts) == (2, ("kept", "rebuilt"))
        cold = solve_lp(replace(child, basis=None))
        assert res.status == cold.status == "optimal"
        assert res.objective == pytest.approx(cold.objective, rel=1e-12)


class TestBorderedRows:
    """Rows appended to a kept matrix join its kept tableau, each with its logical basic."""

    @pytest.mark.parametrize("k", [1, 4])
    def test_a_bordered_re_solve_matches_a_gauss_jordan_build(self, rng, k):
        checked = 0
        for _ in range(100):
            drawn = kept_parent(rng)
            if drawn is None:
                continue
            prob, parent = drawn
            rows = []
            for _ in range(k):  # an "le" row cuts the parent's point off, an "eq" row holds there
                a = np.round(rng.uniform(-3.0, 3.0, prob.n_cols), 2) * (rng.random(prob.n_cols) < 0.7)
                sense, cut = ("eq", 0.0) if rng.random() < 0.2 else ("le", rng.uniform(0.0, 0.3))
                rows.append(({j: a[j] for j in np.flatnonzero(a)}, sense, a @ parent.primal - cut, "cut"))
            grown = prob.with_rows(rows)
            np.testing.assert_array_equal(grown.dense_rows(), grown.copy().dense_rows())  # no rebuild needed
            bordered = solve_lp(grown.with_changes(basis=parent.basis))
            assert bordered.starts == ("bordered",)
            codes = Basis(parent.basis.columns, np.concatenate([parent.basis.rows, np.full(k, BASIC, np.int8)]))
            rebuilt = solve_lp(grown.with_changes(basis=codes))
            assert rebuilt.starts == ("crash",)
            assert bordered.status == rebuilt.status
            if bordered.status != "optimal":
                continue
            checked += 1
            assert bordered.objective == pytest.approx(rebuilt.objective, rel=1e-9, abs=1e-9)
            for got, want in [(bordered.primal, rebuilt.primal), (bordered.duals, rebuilt.duals)]:
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
            np.testing.assert_array_equal(bordered.basis.columns, rebuilt.basis.columns)
            np.testing.assert_array_equal(bordered.basis.rows, rebuilt.basis.rows)
            assert_strong_duality(grown, bordered)
        assert checked >= 10


def dispatch_lp(rng, periods):
    """One scenario stage of a capacity expansion model, as Benders hands it out.

    Per period, thermal, wind and shed columns meet a demand near 12 (an
    "eq" row), thermal stays below the thermal capacity and wind below its
    availability times the wind capacity ("le" rows); thermal emissions stay
    below a budget.  The three capacities are copies pinned by the last
    three ("eq") rows, whose right-hand sides the parent iterate sets.
    """
    n = 3 * periods + 3
    cap_th, cap_w, budget = n - 3, n - 2, n - 1
    hours = np.arange(periods)
    demand = np.round((12.0 + 6.0 * np.sin(2 * np.pi * (hours - 6) / periods)) * rng.uniform(0.95, 1.05, periods), 3)
    avail = np.round(np.clip((0.5 + 0.3 * np.cos(2 * np.pi * hours / periods)) * rng.uniform(0.8, 1.2, periods), 0.05, 1.0), 3)
    rows = np.zeros((3 * periods + 4, n))
    for p in range(periods):
        rows[3 * p, 3 * p:3 * p + 3] = 1.0
        rows[3 * p + 1, [3 * p, cap_th]] = [1.0, -1.0]
        rows[3 * p + 2, [3 * p + 1, cap_w]] = [1.0, -avail[p]]
    rows[-4, 0:3 * periods:3] = 2.0
    rows[-4, budget] = -1.0
    rows[np.arange(-3, 0), [cap_th, cap_w, budget]] = 1.0
    senses = ["eq", "le", "le"] * periods + ["le", "eq", "eq", "eq"]
    rhs = np.zeros(3 * periods + 4)
    rhs[0:3 * periods:3] = demand
    c = np.zeros(n)
    c[0:3 * periods:3], c[1:3 * periods:3], c[2:3 * periods:3] = 5.0, 0.5, 250.0
    return make_problem(c, rows, senses, rhs, np.zeros(n), np.full(n, np.inf))


class TestLargeRightHandSides:
    """Pinned capacities from 1 to 1e6 next to O(1) coefficients."""

    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=26)  # its sixth re-solve is feasible; an absolute dual tolerance called it infeasible
    @example(seed=13743)  # read from the pivoted rhs column, its sixth optimum broke a row by 1.5e-8
    def test_a_warm_re_solve_has_the_status_of_a_cold_one(self, seed):
        rng = np.random.default_rng(seed)
        prob = dispatch_lp(rng, int(rng.integers(4, 25)))
        basis = None
        for _ in range(6):
            rhs = prob.rhs.copy()
            rhs[-3:] = np.where(rng.random(3) < 0.4, 0.0, 10.0 ** rng.uniform(0.0, 6.0, 3))
            child = replace(prob, rhs=rhs)
            cold = solve_lp(child)
            if basis is None:  # a warm solve keeps its tableau for the next one
                warm = solve_lp(replace(child, basis=cold.basis))
            else:
                warm = solve_lp(replace(child, basis=basis))
                assert warm.status == cold.status
            if cold.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
                assert_strong_duality(child, warm, tol=1e-7)
                basis = warm.basis


def test_a_pickled_result_keeps_its_duals_and_codes(rng):
    """Duals, reduced costs and basis codes are plain arrays, a MILP's relaxation's included.

    Later re-solves from a result's basis copy its tableau and never write
    to it; a MILP's unpickled basis, handed back, re-solves to its optimum.
    """
    def sensitivities(res):
        return res.duals, res.reduced_costs, res.basis.columns, res.basis.rows

    drawn = kept_parent(rng)
    assert drawn is not None
    prob, parent = drawn
    res = solve_lp(replace(prob, basis=parent.basis))
    expected = [a.copy() for a in sensitivities(res)]
    solve_lp(replace(prob, rhs=prob.rhs + 1.0, basis=res.basis))
    for got in (res, pickle.loads(pickle.dumps(res))):
        for value, want in zip(sensitivities(got), expected):
            np.testing.assert_array_equal(value, want)

    solved = 0
    for _ in range(40):
        prob = random_milp(rng)
        milp = solve_milp(prob)
        if milp.status != "optimal":
            continue
        copy = pickle.loads(pickle.dumps(milp))
        assert copy.duals is None and copy.reduced_costs is None
        for got, want in zip(sensitivities(copy.relaxation), sensitivities(milp.relaxation)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(copy.basis.columns, milp.basis.columns)
        again = solve_milp(replace(prob, basis=copy.basis))
        assert again.status == "optimal" and again.starts == ("kept",)
        assert again.objective == pytest.approx(milp.objective, rel=1e-9, abs=1e-9)
        solved += 1
    assert solved >= 10
