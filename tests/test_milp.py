"""Branch-and-bound: enumeration agreement, bounds, limits."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from graphopt import BendersConfig, NodeLimitError, branch_bound, run_decomposition, simplex
from graphopt.branch_bound import _rounded as branch_bound_rounded, solve_milp
from graphopt.fixtures import mini_pcm_fixture, storage_fixture, storage_membership
from graphopt.simplex import SolveResult, solve_lp
from graphopt.solvers import SimplexSolver
from graphopt.standard_form import AT_LOWER, AT_UPPER, BASIC, Basis, StandardFormProblem, lp_relaxation
from graphopt.transform import apply_partition

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


def tight_relaxation_milp(k, slack=False):
    """Pairs ``p_t - 15 u_t <= 0``, ``p_t = 7 + t`` with cost on ``p`` alone.

    They leave the relaxation as tight as the MILP, at a fractional ``u_t``.
    Rounding ``u_t`` up breaks no row, so rounding closes the search at the
    root.  With ``slack`` each cap row is the equality ``p_t - 15 u_t + s_t
    = 0`` with a continuous ``s_t >= 0`` instead, which locks ``u_t`` both
    ways, so rounding never applies.
    """
    n = 3 * k if slack else 2 * k
    rows, senses, rhs = [], [], []
    for t in range(k):
        cap = np.zeros(n)
        cap[t], cap[k + t] = 1.0, -15.0
        if slack:
            cap[2 * k + t] = 1.0
        meet = np.zeros(n)
        meet[t] = 1.0
        rows += [cap, meet]
        senses += ["eq" if slack else "le", "eq"]
        rhs += [0.0, 7.0 + t]
    kinds = ["continuous"] * k + ["binary"] * k + ["continuous"] * (n - 2 * k)
    return make_problem(
        [1.0] * k + [0.0] * (n - k), rows, senses, rhs, [0.0] * n,
        [20.0] * k + [1.0] * k + [np.inf] * (n - 2 * k), integrality=kinds,
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

    def test_a_node_lp_at_the_iteration_limit_stops_the_search(self, rng):
        """It is no verdict on the node, so the search reports the limit, not infeasibility."""
        for _ in range(20):
            prob = random_milp(rng)
            if solve_milp(prob).nodes_explored < 2:
                continue
            calls = []

            def first_child_stops(p):
                calls.append(p)
                if len(calls) == 2:
                    return SolveResult(status="iteration_limit", iterations=7)
                return solve_lp(p)

            root = solve_lp(lp_relaxation(prob))
            res = solve_milp(prob, solve_lp_fn=first_child_stops)
            assert res.status == "iteration_limit"
            assert res.nodes_explored == 2
            assert res.iterations == root.iterations + 7
            assert res.primal is None
            return
        pytest.fail("no instance needed branching")

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_a_tight_relaxation_plunges_down_its_up_children(self, k):
        """Every node ties with the root, so the newest-first tie-break dives.

        Equality cap rows lock each ``u_t`` both ways, so no node can round
        its point.  Each node after the root fixes one more ``u`` at one,
        and the k-th reaches the integer optimum, which closes the search.
        """
        prob = tight_relaxation_milp(k, slack=True)
        fixed_on = []

        def spy_solve_lp(p):
            fixed_on.append(int(np.count_nonzero(p.lower[k:2 * k] == 1.0)))
            return solve_lp(p)

        res = solve_milp(prob, solve_lp_fn=spy_solve_lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(sum(7.0 + t for t in range(k)))
        assert res.nodes_explored == k + 1
        assert fixed_on == list(range(k + 1))
        np.testing.assert_allclose(res.primal[k:2 * k], 1.0)

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

    def test_children_start_from_their_parents_basis(self, rng):
        branched = 0
        for _ in range(25):
            prob = random_milp(rng, pure_binary=bool(rng.integers(0, 2)))
            seen = []

            def spy_solve_lp(p):
                res = solve_lp(p)
                seen.append((p, res))
                return res

            solve_milp(prob, solve_lp_fn=spy_solve_lp)
            if len(seen) < 2:
                continue
            branched += 1
            root_problem, root = seen[0]
            assert root_problem.basis is None
            bases = [id(r.basis) for _, r in seen]
            matrix = root_problem.dense_rows()
            for p, _ in seen[1:]:
                assert p.basis is not None and id(p.basis) in bases  # some solved node's basis
                assert p.dense_rows() is matrix  # built once for the whole tree
        assert branched >= 5

    def test_only_the_roots_children_build_a_tableau(self, rng):
        """The root is solved cold; every later node re-solves its parent's kept tableau."""
        deep = 0
        for k in range(25):
            prob = random_milp(rng, pure_binary=(k % 3 != 0))
            with mock.patch.object(simplex, "_from_crash", wraps=simplex._from_crash) as spy:
                res = solve_milp(prob)
            assert spy.call_count <= 2
            deep += res.nodes_explored > 3
        assert deep >= 5

    def test_no_node_builds_a_tableau(self, rng):
        """The cold root keeps its tableau too, so every node re-solves a kept one."""
        deep = 0
        for k in range(25):
            prob = random_milp(rng, pure_binary=(k % 3 != 0))
            with mock.patch.object(simplex, "_from_crash", wraps=simplex._from_crash) as spy:
                res = solve_milp(prob)
            assert spy.call_count == 0
            deep += res.nodes_explored > 3
        assert deep >= 5

    def test_a_milp_without_rows(self):
        prob = make_problem([-1.0], np.zeros((0, 1)), [], [], [0.0], [2.5], integrality=["integer"])
        res = solve_milp(prob)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-2.0)
        np.testing.assert_allclose(res.primal, [2.0])

    def test_the_result_basis_is_the_root_relaxations(self, rng):
        """Handed back, it re-solves the root from its kept tableau without a pivot."""
        checked = 0
        for k in range(25):
            prob = random_milp(rng, pure_binary=(k % 3 != 0))
            res = solve_milp(prob)
            if res.status != "optimal":
                assert res.basis is None
                continue
            root = solve_lp(lp_relaxation(prob))
            np.testing.assert_array_equal(res.basis.columns, root.basis.columns)
            np.testing.assert_array_equal(res.basis.rows, root.basis.rows)
            again = solve_milp(replace(prob, basis=res.basis))
            assert again.objective == pytest.approx(res.objective, abs=1e-9)
            warm_root = solve_lp(replace(lp_relaxation(prob), basis=res.basis))
            assert warm_root.iterations == 0
            assert again.basis._tableau is not None  # so the next root starts from it
            checked += 1
        assert checked >= 10

    def test_warm_and_cold_trees_agree_and_warm_pivots_less(self, rng):
        def cold_solve_lp(p):
            return solve_lp(replace(p, basis=None))

        warm_pivots = cold_pivots = optimal = 0
        for k in range(40):
            prob = random_milp(rng, pure_binary=(k % 3 != 0))
            warm = solve_milp(prob)
            cold = solve_milp(prob, solve_lp_fn=cold_solve_lp)
            assert warm.status == cold.status
            if warm.status == "optimal":
                optimal += 1
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            warm_pivots += warm.iterations
            cold_pivots += cold.iterations
        assert optimal >= 15
        assert warm_pivots < cold_pivots


class TestKeptDenseRows:
    def problem(self):
        return make_problem([1.0, 1.0], [[1.0, 2.0], [0.0, 3.0]], ["le", "le"], [4.0, 6.0],
                            [0.0, 0.0], [5.0, 5.0])

    def test_nodes_share_one_read_only_matrix(self):
        prob = self.problem()
        kept = prob.dense_rows()
        assert not kept.flags.writeable
        assert replace(prob, lower=np.ones(2)).dense_rows() is kept

    def test_a_memo_is_worked_out_once_per_kept_matrix(self):
        prob = self.problem()
        made = []

        def make():
            made.append(len(made) + 1)
            return made[-1]

        assert prob.memo("k", make) == 1
        assert not prob.dense_rows().flags.writeable  # the memo keeps the matrix first
        assert lp_relaxation(prob).memo("k", make) == 1  # shares the kept matrix
        assert prob.with_changes(lower=np.ones(2)).memo("k", make) == 1
        assert prob.memo("other", make) == 2
        assert prob.with_rows([({0: 1.0}, "le", 1.0, "cut")]).memo("k", make) == 3  # a new matrix
        assert prob.copy().memo("k", make) == 4  # a copy keeps no matrix
        assert replace(prob, senses=["le", "eq"]).memo("k", make) == 5  # new row signs
        assert prob.memo("k", make) == 1


def assert_same_result(res, ref):
    assert (res.status, res.objective, res.nodes_explored, res.iterations) == (
        ref.status, ref.objective, ref.nodes_explored, ref.iterations)
    np.testing.assert_array_equal(res.primal, ref.primal)


def with_flag_column(prob, row=None):
    """``prob`` plus a zero-cost binary column, held by no row or by ``row = (sense, rhs)`` alone."""
    n = prob.n_cols
    a = np.hstack([prob.dense_rows(), np.zeros((prob.n_rows, 1))])
    senses, rhs = list(prob.senses), list(prob.rhs)
    if row is not None:
        a = np.vstack([a, np.eye(1, n + 1, n)])
        senses.append(row[0])
        rhs.append(row[1])
    return make_problem(np.append(prob.objective, 0.0), a, senses, rhs, np.append(prob.lower, 0.0),
                        np.append(prob.upper, 1.0), integrality=prob.integrality + ["binary"])


class TestRounding:
    """A fractional node tries its LP point rounded where no row locks the way, before it branches."""

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_rounding_closes_a_tight_relaxation_at_the_root(self, k):
        """Where every node ties, the search would otherwise dive k nodes to prove it."""
        calls = []

        def counting_solve_lp(p):
            calls.append(p)
            return solve_lp(p)

        res = solve_milp(tight_relaxation_milp(k), solve_lp_fn=counting_solve_lp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(sum(7.0 + t for t in range(k)))
        assert res.nodes_explored == len(calls) == 1
        np.testing.assert_array_equal(res.primal[k:], 1.0)  # rounded up: only that breaks no row

    def test_rows_lock_by_sense_and_a_free_column_rounds_the_cheaper_way(self):
        # x0 in an equality row, x1 (x4) positive (negative) in a le row, x2 positive in a ge row, x3 in none
        prob = make_problem([0.0] * 5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, -1], [0, 0, 1, 0, 0]],
                            ["eq", "le", "ge"], [1.0, 2.0, 1.0], [0.0] * 5, [3.0] * 5,
                            integrality=["integer"] * 5)
        cols = np.arange(5)
        up, down = branch_bound._unlocked(prob, cols)
        assert up.tolist() == [False, False, True, True, True]
        assert down.tolist() == [False, True, False, True, False]
        x = np.array([1.0, 0.5, 0.5, 1.5, 2.5])
        dist = np.abs(x - np.round(x))
        lo, hi = prob.lower, prob.upper
        for c3, x3 in ((1.0, 1.0), (-1.0, 2.0), (0.0, 1.0)):
            cost = np.array([0.0, 1.0, 1.0, c3, 1.0])
            r = branch_bound_rounded(x, dist, lo, hi, cols, (up, down), cost)
            assert r.tolist() == [1.0, 0.0, 1.0, x3, 3.0]
        assert branch_bound_rounded(x, dist, lo, np.array([3.0, 3, 3, 3, 2]), cols, (up, down), cost) is None
        x[0] = 0.5  # fractional in an equality row: no way to move
        assert branch_bound_rounded(x, np.abs(x - np.round(x)), lo, hi, cols, (up, down), cost) is None

    def test_a_rounded_point_is_integral_and_within_its_nodes_bounds(self, rng, monkeypatch):
        seen = []

        def spy(x, dist, lo, hi, int_cols, unlocked, cost):
            r = branch_bound_rounded(x, dist, lo, hi, int_cols, unlocked, cost)
            if r is not None:
                seen.append((r, lo[int_cols], hi[int_cols]))
            return r

        monkeypatch.setattr(branch_bound, "_rounded", spy)
        for k in range(40):
            solve_milp(random_milp(rng, pure_binary=(k % 3 != 0)))
        # an integer column whose bound is not integral: its only rounding is down
        solve_milp(make_problem([-1.0, 0.0], [[1.0, -1.0]], ["le"], [0.0], [0.0, 0.0], [2.5, 2.5],
                                integrality=["integer", "continuous"]))
        assert len(seen) >= 20
        for r, lo, hi in seen:
            np.testing.assert_array_equal(r, np.round(r))
            assert (lo <= r).all() and (r <= hi).all()

    @pytest.mark.parametrize("flaw, row, good, bad", [
        ("bound", None, 0.0, 2.0),
        ("fractional", None, 0.0, 0.5),
        ("eq_row", ("eq", 0.0), 0.0, 1.0),
        ("ge_row", ("ge", 1.0), 1.0, 0.0),
    ])
    def test_a_flawed_rounded_point_never_becomes_the_incumbent(self, rng, monkeypatch, flaw, row,
                                                                 good, bad):
        """A huge gap returns the first incumbent: the rounded optimum if it passes, else another.

        The rounding is replaced by the optimum of a pure-binary MILP plus a
        flag column; the flag's value alone gives the point its flaw.
        """
        checked = 0
        for _ in range(60):
            monkeypatch.setattr(branch_bound, "_rounded", branch_bound_rounded)
            base = random_milp(rng)
            optimum = solve_milp(base)
            if optimum.status != "optimal":
                continue
            prob = with_flag_column(base, row)
            calls = []

            def rounded_to(value):
                def fake(*args):
                    calls.append(value)
                    return None if value is None else np.append(optimum.primal, value)
                return fake

            monkeypatch.setattr(branch_bound, "_rounded", rounded_to(good))
            passed = solve_milp(prob, mip_gap=1e9)
            if not calls:
                continue  # the root LP was integral: no rounding
            np.testing.assert_array_equal(passed.primal, np.append(optimum.primal, good))
            assert passed.nodes_explored == 1
            monkeypatch.setattr(branch_bound, "_rounded", rounded_to(bad))
            flawed = solve_milp(prob, mip_gap=1e9)
            monkeypatch.setattr(branch_bound, "_rounded", rounded_to(None))
            assert_same_result(flawed, solve_milp(prob, mip_gap=1e9))
            assert calls.count(bad) >= 1
            checked += 1
        assert checked >= 10


class RecordingSolver(SimplexSolver):
    """The built-in solver, recording each MILP result's status, objective, nodes, pivots and point."""

    def __init__(self):
        super().__init__()
        self.results = []

    def solve_milp(self, problem):
        res = super().solve_milp(problem)
        self.results.append((res.status, res.objective, res.nodes_explored, res.iterations,
                             None if res.primal is None else res.primal.tobytes()))
        return res


def test_rounding_finds_the_locks_once_per_kept_matrix(monkeypatch):
    """mini_pcm from ``b2``: 470 lock computations over 14 kept stage matrices without the memo."""
    found = []
    unlocked = branch_bound._unlocked
    monkeypatch.setattr(branch_bound, "_unlocked",
                        lambda relaxed, cols: found.append(relaxed.dense_rows()) or unlocked(relaxed, cols))

    def run():
        solver = RecordingSolver()
        res = run_decomposition(mini_pcm_fixture(), "b2", BendersConfig(lagrangian=True, add_slacks=True),
                                solver=solver)
        assert (res.status, res.iterations) == ("converged", 12)
        return solver.results

    kept = run()
    assert len(found) == len({id(a) for a in found}) == 14  # ``found`` holds each matrix, so ids are not reused
    with monkeypatch.context() as patch:
        patch.setattr(StandardFormProblem, "memo", lambda self, key, make: make())
        every = run()
    assert len(found) == 14 + 470
    assert kept == every  # bit for bit, node counts included


def c_b_b_inverse(problem, basis):
    """``c_B B^-1`` over the rows as given, by a dense solve with ``B = [A_J | I_R]``."""
    m = problem.n_rows
    cols = np.flatnonzero(basis.columns == BASIC)
    slack_rows = np.flatnonzero(basis.rows == BASIC)
    b_matrix = np.hstack([problem.dense_rows()[:, cols], np.eye(m)[:, slack_rows]])
    c_b = np.concatenate([problem.objective[cols], np.zeros(slack_rows.size)])
    return np.linalg.solve(b_matrix.T, c_b)


def assert_eager_sensitivities(problem, res):
    """Duals, reduced costs and basis codes, read after later solves, match ``c_B B^-1`` from the codes."""
    y = c_b_b_inverse(problem, res.basis)
    scale = max(1.0, float(np.abs(y).max(initial=0.0)))
    np.testing.assert_allclose(res.duals, y, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(res.reduced_costs, problem.objective - problem.dense_rows().T @ y,
                               rtol=0.0, atol=1e-12 * scale)
    x, codes = res.primal, res.basis.columns
    assert np.count_nonzero(codes == BASIC) + np.count_nonzero(res.basis.rows == BASIC) == problem.n_rows
    np.testing.assert_allclose(x[codes == AT_LOWER], problem.lower[codes == AT_LOWER], atol=1e-9)
    np.testing.assert_allclose(x[codes == AT_UPPER], problem.upper[codes == AT_UPPER], atol=1e-9)


class TestNodeEquivalence:
    """A node re-solved from its parent's kept tableau matches one rebuilt by Gauss-Jordan elimination."""

    def test_every_node_matches_a_fresh_crash_and_keeps_its_sensitivities(self, rng):
        trees = nodes = 0
        for k in range(200):
            prob = random_milp(rng, pure_binary=(k % 3 != 0))
            seen = []

            def spy_solve_lp(p):
                res = solve_lp(p)
                seen.append((p, res))
                return res

            milp = solve_milp(prob, solve_lp_fn=spy_solve_lp)
            if len(seen) < 3:
                continue
            trees += 1
            # read only now, after every later node has re-solved from the kept tableaux
            for p, res in seen:
                if p.basis is not None:
                    fresh = solve_lp(p.with_changes(basis=Basis(p.basis.columns, p.basis.rows)))
                    assert res.status == fresh.status
                    if res.status == "optimal":
                        assert res.objective == pytest.approx(fresh.objective, rel=1e-9, abs=1e-9)
                        np.testing.assert_allclose(res.primal, fresh.primal, rtol=1e-9, atol=1e-9)
                    nodes += 1
                if res.status == "optimal":
                    assert_eager_sensitivities(p, res)
            if milp.status == "optimal":  # the root basis, handed back
                _, root = seen[0]
                np.testing.assert_array_equal(milp.basis.columns, root.basis.columns)
                np.testing.assert_array_equal(milp.basis.rows, root.basis.rows)
            if trees == 25:
                break
        assert trees == 25 and nodes >= 100

    def test_lp_stage_duals_read_after_later_re_solves_are_the_eager_ones(self):
        """Benders stages re-solve from kept tableaux, which later re-solves copy, never write."""
        solved = []

        class Spy:
            def solve_lp(self, problem):
                res = solve_lp(problem)
                solved.append((problem, res))
                return res

            def solve_milp(self, problem):
                return solve_milp(problem, solve_lp_fn=self.solve_lp)

        graph = apply_partition(storage_fixture(), storage_membership())
        run_decomposition(graph, root="design", config=BendersConfig(add_slacks=True), solver=Spy())
        warm = [(p, res) for p, res in solved if p.basis is not None and res.status == "optimal"]
        assert len(warm) >= 4
        for problem, res in solved:
            if res.status == "optimal":
                assert_eager_sensitivities(problem, res)
