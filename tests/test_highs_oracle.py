"""Agreement with scipy's HiGHS beyond the sizes enumeration can reach.

HiGHS is a test-only oracle: numpy stays the library's one runtime
dependency, and this module is skipped where scipy is missing.
"""

import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

optimize = pytest.importorskip("scipy.optimize")

from graphopt import (
    BendersConfig, apply_partition, branch_bound, flatten, run_decomposition, simplex, solve,
)
from graphopt.benders import BendersTree
from graphopt.branch_bound import solve_milp
from graphopt.errors import NumericalBreakdownError
from graphopt.fixtures import mini_pcm_fixture, storage_fixture, storage_membership
from graphopt.simplex import solve_lp
from graphopt.standard_form import AT_LOWER, BASIC, Basis
from graphopt.subproblem import StageProblem

from conftest import assert_strong_duality, make_problem, random_milp

# the benchmark's seeded model generators, which build through the public API
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import generators  # noqa: E402

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs_lp(problem):
    """(status, objective) of the LP relaxation, solved by HiGHS."""
    a = problem.dense_rows()
    senses = np.array(problem.senses)
    sign = np.where(senses == "ge", -1.0, 1.0)[senses != "eq"]
    ub, eq = senses != "eq", senses == "eq"
    res = optimize.linprog(
        problem.objective,
        A_ub=a[ub] * sign[:, None] if ub.any() else None,
        b_ub=problem.rhs[ub] * sign if ub.any() else None,
        A_eq=a[eq] if eq.any() else None,
        b_eq=problem.rhs[eq] if eq.any() else None,
        bounds=list(zip(problem.lower, problem.upper)),
        method="highs",
    )
    return _STATUS[res.status], (res.fun + problem.objective_constant if res.status == 0 else None)


def mixed_bound_lp(rng, m=60, n=80, kind="bounded"):
    """Sparse LP whose columns mix two-sided, lower-only, upper-only, free and fixed bounds.

    ``kind`` picks what the instance is built to be: ``"bounded"`` (feasible,
    with costs that keep it bounded), ``"infeasible"`` (two rows contradict
    each other) or ``"random"`` (feasible, with costs that may leave it
    unbounded).
    """
    bound = rng.choice(["box", "lower", "upper", "free", "fixed"], size=n, p=[0.4, 0.2, 0.15, 0.1, 0.15])
    lo = np.round(rng.uniform(-5.0, 0.0, n), 2)
    hi = lo + np.round(rng.uniform(0.5, 5.0, n), 2)
    x0 = lo + rng.uniform(0.1, 0.9, n) * (hi - lo)  # an interior point of every kind
    hi[bound == "fixed"] = x0[bound == "fixed"] = lo[bound == "fixed"]
    lo[(bound == "upper") | (bound == "free")] = -np.inf
    hi[(bound == "lower") | (bound == "free")] = np.inf

    a = np.round(rng.uniform(-3.0, 3.0, (m, n)) * (rng.random((m, n)) < 0.15), 2)
    empty = ~a.any(axis=1)
    a[empty, rng.integers(0, n, empty.sum())] = 1.0
    senses = rng.choice(["le", "ge", "eq"], size=m, p=[0.6, 0.25, 0.15])
    gap = rng.uniform(0.1, 2.0, m)
    rhs = a @ x0 + np.select([senses == "le", senses == "ge"], [gap, -gap], 0.0)

    if kind == "random":
        c = np.round(rng.uniform(-5.0, 5.0, n), 2)
    else:
        # c = A'y + r with y and r dual feasible, so the LP is bounded below
        y = rng.uniform(0.0, 2.0, m) * np.select([senses == "le", senses == "ge"], [-1.0, 1.0], 0.0)
        y[senses == "eq"] = rng.uniform(-2.0, 2.0, (senses == "eq").sum())
        r = rng.uniform(-3.0, 3.0, n)
        r[bound == "lower"] = np.abs(r[bound == "lower"])
        r[bound == "upper"] = -np.abs(r[bound == "upper"])
        r[bound == "free"] = 0.0
        c = a.T @ y + r
    if kind == "infeasible":
        i = int(rng.integers(m))
        a = np.vstack([a, a[i]])
        senses = np.append(senses, "ge" if senses[i] != "ge" else "le")
        rhs = np.append(rhs, rhs[i] + (3.0 if senses[-1] == "ge" else -3.0))
    return make_problem(c, a, list(senses), rhs, lo, hi)


def test_mixed_bound_lps_match_highs():
    rng = np.random.default_rng(20250102)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for kind in ["bounded"] * 12 + ["infeasible"] * 4 + ["random"] * 8:
        problem = mixed_bound_lp(rng, kind=kind)
        status, objective = highs_lp(problem)
        res = solve_lp(problem)
        assert res.status == status, kind
        seen[status] += 1
        if status == "optimal":
            assert res.objective == pytest.approx(objective, rel=1e-7, abs=1e-7)
            assert_strong_duality(problem, res)
    assert min(seen.values()) >= 3, seen


def test_rounding_noise_is_not_taken_for_a_pivot():
    # an absolute 1e-11 pivot tolerance took an entry of 1.01e-11, in a column
    # whose largest entry is 117, for a pivot, and reported this unbounded LP
    # as optimal at -6.9e16
    rng = np.random.default_rng(16)
    for kind in ["bounded"] * 3 + ["infeasible", "random"]:
        problem = mixed_bound_lp(rng, kind=kind)
    assert highs_lp(problem)[0] == "unbounded"
    assert solve_lp(problem).status == "unbounded"


def test_a_dual_pivot_below_the_good_pivot_size_is_not_taken():
    # from the all-slack basis the dual simplex took -1.16e-10 for a pivot on
    # a row whose largest entry is 2; B^-1 then reached 1e10 and this
    # feasible LP was reported infeasible
    problem = make_problem(
        [0.0, 0.0, 1.0],
        [[-899999.9999999999, 1e6, -1.0], [899999.9999999998, -1e6, -1.0]],
        ["le", "le"],
        [2e7, -20.0],
        [0.0, 0.0, -1e9],
        [5.0, 20.0, np.inf],
    )
    status, objective = highs_lp(problem)
    assert status == "optimal"
    all_slack = Basis(np.full(3, AT_LOWER), np.full(2, BASIC))
    for res in (solve_lp(problem), solve_lp(replace(problem, basis=all_slack))):
        assert res.status == "optimal"
        assert res.objective == pytest.approx(objective, rel=1e-9)


# Finding K2: the root relaxation of the last level-set MILP that level-set
# regularization (since removed) built at stage b2 of pcm_milp (seed 1, model
# 0) under the workload's Benders config.  Rows 0-14 are the stage's own, rows
# 15-17 its cuts on theta (column 32, bounded below at -1e9), and row 18 caps
# the stage's objective; the objective is zero.  Triplets (row, column, value).
_K2_ROWS = [
    (0, 0, 1.0), (0, 2, -15.0),
    (1, 1, 1.0), (1, 3, -14.0),
    (2, 0, 1.0), (2, 1, 1.0), (2, 4, -1.0), (2, 5, 1.0), (2, 7, 1.0),
    (3, 8, 1.0), (3, 10, -15.0),
    (4, 9, 1.0), (4, 11, -14.0),
    (5, 8, 1.0), (5, 9, 1.0), (5, 12, -1.0), (5, 13, 1.0), (5, 15, 1.0),
    (6, 16, 1.0), (6, 18, -15.0),
    (7, 17, 1.0), (7, 19, -14.0),
    (8, 16, 1.0), (8, 17, 1.0), (8, 20, -1.0), (8, 21, 1.0), (8, 23, 1.0),
    (9, 24, 1.0), (9, 26, -15.0),
    (10, 25, 1.0), (10, 27, -14.0),
    (11, 24, 1.0), (11, 25, 1.0), (11, 28, -1.0), (11, 29, 1.0), (11, 31, 1.0),
    (12, 6, -1.0), (12, 12, -0.9), (12, 13, 1.0), (12, 14, 1.0),
    (13, 14, -1.0), (13, 20, -0.9), (13, 21, 1.0), (13, 22, 1.0),
    (14, 22, -1.0), (14, 28, -0.9), (14, 29, 1.0), (14, 30, 1.0),
    (15, 4, -1.0), (15, 5, 1.1111111111111112), (15, 6, 1.1111111111111112), (15, 30, -1.0),
    (15, 32, -1.0),
    (16, 4, 900000.0), (16, 5, -1000000.0), (16, 6, -1000000.0), (16, 30, -1.0), (16, 32, -1.0),
    (17, 4, -0.9), (17, 5, 1.0), (17, 6, 1.0), (17, 30, -1.0), (17, 32, -1.0),
    (18, 0, 1.0), (18, 1, 8.0), (18, 3, 4.0), (18, 7, 500.0), (18, 8, 1.0), (18, 9, 8.0),
    (18, 11, 4.0), (18, 15, 500.0), (18, 16, 1.0), (18, 17, 8.0), (18, 19, 4.0), (18, 23, 500.0),
    (18, 24, 1.0), (18, 25, 8.0), (18, 27, 4.0), (18, 31, 500.0), (18, 32, 1.0),
]
_K2_SENSES = "le le eq le le eq le le eq le le eq eq eq eq le le le le".split()
_K2_RHS = [0.0, 0.0, 12.406, 0.0, 0.0, 14.456, 0.0, 0.0, 15.703, 0.0, 0.0, 13.451, 0.0, 0.0, 0.0,
           -39.01188888888888, -40.123000000137836, -40.123, 96.20844444444444]
_K2_LOWER = [0.0] * 32 + [-1e9]
_K2_UPPER = [15.0, 14.0, 1.0, 1.0, 5.0, 5.0, 20.0, np.inf] * 4 + [np.inf]


@pytest.mark.xfail(strict=True, raises=NumericalBreakdownError, reason="ROADMAP item 2, finding K2")
def test_a_cap_row_over_big_cut_slopes_solves_from_the_all_logical_start():
    """The all-logical start raises ``tableau row 8: only pivots below 1e-09 ...``; HiGHS finds 0.0."""
    a = np.zeros((19, 33))
    for i, j, value in _K2_ROWS:
        a[i, j] = value
    problem = make_problem(np.zeros(33), a, _K2_SENSES, _K2_RHS, _K2_LOWER, _K2_UPPER)
    assert highs_lp(problem) == ("optimal", 0.0)
    res = solve_lp(problem)
    assert res.status == "optimal" and res.objective == 0.0


def test_a_cold_result_re_solves_from_its_own_tableau():
    """Fixed, free and upper-only columns, equality rows and negative rhs: the cold tableau is the warm one."""
    rng = np.random.default_rng(20261019)
    for _ in range(12):
        problem = mixed_bound_lp(rng)
        problem.keep_dense_rows()
        cold = solve_lp(problem)
        assert cold.status == "optimal"
        with mock.patch.object(simplex, "_from_crash", wraps=simplex._from_crash) as spy:
            warm = solve_lp(replace(problem, basis=cold.basis))
        assert spy.call_count == 0
        assert warm.status == "optimal" and warm.iterations == 0
        np.testing.assert_allclose(warm.duals, cold.duals, rtol=1e-9, atol=1e-9)


@given(seed=st.integers(0, 2**32 - 1))
def test_a_new_bound_pattern_re_solves_from_the_kept_tableau(seed):
    """Columns move between box, lower, upper, free and fixed bounds over the same matrix object.

    Bounds are drawn around the cold optimum, and may cut it off.  The duals
    are read from the cold solve's B^-1, which carries its pivots' rounding:
    a basic column's reduced cost reads up to 5e-9 over 10,000 draws at this
    size (and 6.8e-8 at 60 x 80), so strong duality is checked to 1e-7.
    """
    rng = np.random.default_rng(seed)
    problem = mixed_bound_lp(rng, m=30, n=40)
    problem.keep_dense_rows()
    cold = solve_lp(problem)
    assert cold.status == "optimal"
    moved = rng.choice(problem.n_cols, size=int(rng.integers(1, 12)), replace=False)
    kinds = rng.choice(["box", "lower", "upper", "free", "fixed"], size=moved.size)
    below = np.round(cold.primal[moved] - rng.uniform(-0.5, 3.0, moved.size), 2)
    above = below + np.round(rng.uniform(0.0, 4.0, moved.size), 2)
    lo, hi = problem.lower.copy(), problem.upper.copy()
    lo[moved] = np.where(np.isin(kinds, ["box", "lower", "fixed"]), below, -np.inf)
    hi[moved] = np.select([np.isin(kinds, ["box", "upper"]), kinds == "fixed"], [above, below], np.inf)
    child = problem.with_changes(lower=lo, upper=hi, basis=cold.basis)
    assert child.dense_rows() is problem.dense_rows()
    status, objective = highs_lp(child)
    with mock.patch.object(simplex, "_from_crash", wraps=simplex._from_crash) as builds:
        warm = solve_lp(child)
    assert builds.call_count == 0
    assert warm.status == status
    if status == "optimal":
        assert warm.objective == pytest.approx(objective, rel=1e-7, abs=1e-7)
        assert_strong_duality(child, warm, tol=1e-7)


def test_storage_fixture_matches_highs():
    problem = flatten(storage_fixture())
    status, objective = highs_lp(problem)
    res = solve_lp(problem)
    assert res.status == status == "optimal"
    assert res.objective == pytest.approx(objective, rel=1e-7)
    assert_strong_duality(problem, res)


def test_storage_at_t200_matches_highs_monolithic_and_by_benders():
    """600 x 801: ten times the rows of the default storage fixture."""
    graph = apply_partition(storage_fixture(T=200), storage_membership(T=200))
    problem = flatten(graph)
    assert (problem.n_rows, problem.n_cols) == (600, 801)
    status, objective = highs_lp(problem)
    assert status == "optimal"
    mono = solve(problem)
    assert mono.status == "optimal"
    assert mono.objective == pytest.approx(objective, rel=1e-6)
    benders = run_decomposition(graph, root="design", config=BendersConfig(add_slacks=True))
    assert benders.status == "converged"
    assert benders.objective == pytest.approx(objective, rel=1e-6)
    assert not benders.flags["slacks_active"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cem_star_by_multicut_benders_matches_highs(seed):
    """Scenario stages pin capacities up to ~1e5 next to O(1) coefficients."""
    graph, membership = generators.cem_star_build(
        generators.cem_star_data(np.random.default_rng(seed), S=2))
    apply_partition(graph, membership)
    status, objective = highs_lp(flatten(graph))
    assert status == "optimal"
    res = run_decomposition(graph, root="planning", config=BendersConfig(multicut=True))
    assert res.status == "converged"
    assert res.objective == pytest.approx(objective, rel=1e-6)


def test_duals_match_highs_marginals_at_non_degenerate_optima():
    """``y_i = dV/db_i`` for the row as given: HiGHS's marginals, negated on "ge" rows.

    A "ge" row reaches ``linprog`` negated, as an upper-bound row.  Only an
    optimum whose basic columns and basic slacks all sit strictly inside
    their bounds is compared, since only there are the duals unique.
    """
    rng = np.random.default_rng(20261018)
    checked = 0
    for _ in range(30):
        problem = mixed_bound_lp(rng, m=30, n=40)
        res = solve_lp(problem)
        assert res.status == "optimal"
        x, basic = res.primal, res.basis.columns == BASIC
        activity = problem.dense_rows() @ x
        inside = min(np.min(x[basic] - problem.lower[basic], initial=np.inf),
                     np.min(problem.upper[basic] - x[basic], initial=np.inf),
                     np.min(np.abs(activity - problem.rhs)[res.basis.rows == BASIC], initial=np.inf))
        if inside < 1e-6:
            continue
        senses = np.array(problem.senses)
        a, ub, eq = problem.dense_rows(), senses != "eq", senses == "eq"
        sign = np.where(senses == "ge", -1.0, 1.0)
        highs = optimize.linprog(
            problem.objective, A_ub=a[ub] * sign[ub, None], b_ub=problem.rhs[ub] * sign[ub],
            A_eq=a[eq], b_eq=problem.rhs[eq], bounds=list(zip(problem.lower, problem.upper)),
            method="highs")
        assert highs.status == 0
        marginals = np.zeros(problem.n_rows)
        marginals[ub] = highs.ineqlin.marginals * sign[ub]
        marginals[eq] = highs.eqlin.marginals
        np.testing.assert_allclose(res.duals, marginals, rtol=1e-7, atol=1e-7)
        checked += 1
    assert checked >= 20, checked


def _non_degenerate(problem, res):
    """The filter of the test above: every basic column and slack strictly inside its bounds."""
    x, basic = res.primal, res.basis.columns == BASIC
    activity = problem.dense_rows() @ x
    inside = min(np.min(x[basic] - problem.lower[basic], initial=np.inf),
                 np.min(problem.upper[basic] - x[basic], initial=np.inf),
                 np.min(np.abs(activity - problem.rhs)[res.basis.rows == BASIC], initial=np.inf))
    return inside >= 1e-6


def _pinned_by_rows_marginals(stage, anchor):
    """HiGHS's ``eqlin`` marginals of ``z = anchor`` rows that pin the stage's free copies ``z``."""
    problem = stage.problem()
    copies = [stage.copy_col[ref] for ref in stage.fixed_refs]
    pin = np.zeros((len(copies), problem.n_cols))
    pin[np.arange(len(copies)), copies] = 1.0
    a, senses = problem.dense_rows(), np.array(problem.senses)
    ub, eq = senses != "eq", senses == "eq"
    sign = np.where(senses == "ge", -1.0, 1.0)
    bounds = list(zip(problem.lower, problem.upper))
    for col in copies:
        bounds[col] = (None, None)
    highs = optimize.linprog(
        problem.objective, A_ub=a[ub] * sign[ub, None], b_ub=problem.rhs[ub] * sign[ub],
        A_eq=np.vstack([a[eq], pin]), b_eq=np.concatenate([problem.rhs[eq], anchor]),
        bounds=bounds, method="highs")
    assert highs.status == 0
    return highs.eqlin.marginals[-len(copies):]


def _stage_anchors():
    """LP stages with copies, each at anchors a Benders run would pin them to."""
    graph = apply_partition(storage_fixture(T=20), storage_membership(T=20))
    design = BendersTree(graph, root="operations").stages["design"]
    rng = np.random.default_rng(20261018)
    for _ in range(10):  # the design stage pins the 20 states of charge
        yield "storage", StageProblem(design.subgraph, design.relocated), rng.uniform(0.0, 100.0, 20)
    for seed in (1, 2):
        graph, membership = generators.cem_star_build(
            generators.cem_star_data(np.random.default_rng(seed), S=2))
        apply_partition(graph, membership)
        res = run_decomposition(graph, root="planning", config=BendersConfig(multicut=True))
        for cut in res.cuts:  # the iterates the run visited
            st = res.tree.stages[cut.child_id]
            stage = StageProblem(st.subgraph, st.relocated)
            assert tuple(stage.fixed_refs) == cut.refs
            yield "cem_star", stage, cut.anchor


def test_copy_reduced_costs_match_highs_marginals_of_fixing_rows():
    """A copy pinned by its bounds has the sensitivity that a ``z = a`` row would report."""
    checked = Counter()
    for name, stage, anchor in _stage_anchors():
        stage.set_fixed_values(anchor)
        res = stage.solve()
        assert res.status == "optimal"
        if not _non_degenerate(stage.problem(), res):
            continue
        np.testing.assert_allclose(stage.fixing_duals(res), _pinned_by_rows_marginals(stage, anchor),
                                   rtol=1e-7, atol=1e-7)
        checked[name] += 1
    assert checked["storage"] >= 5 and checked["cem_star"] >= 20, checked


def seeded_milp(rng, n_int=25, n_cont=8, m=12, parity_row=False):
    """Binaries, small general integers and bounded continuous columns under mixed rows.

    With ``parity_row`` two binaries must sum to one half, so the relaxation
    stays feasible while no integer point is.
    """
    n = n_int + n_cont
    a = np.round(rng.uniform(-2.0, 5.0, (m, n)) * (rng.random((m, n)) < 0.4), 1)
    senses = rng.choice(["le", "ge", "eq"], size=m, p=[0.6, 0.3, 0.1])
    lo = np.concatenate([np.zeros(n_int), -rng.uniform(0.0, 2.0, n_cont)])
    hi = np.concatenate([rng.choice([1.0, 3.0], n_int), rng.uniform(1.0, 4.0, n_cont)])
    x0 = lo + (hi - lo) * rng.uniform(0.2, 0.8, n)
    rhs = np.round(a @ x0 + np.select([senses == "le", senses == "ge"], [1.0, -1.0], 0.0)
                   * rng.uniform(0.0, 2.0, m), 1)
    integrality = ["binary" if h == 1.0 else "integer" for h in hi[:n_int]] + ["continuous"] * n_cont
    if parity_row:
        binaries = [j for j in range(n_int) if integrality[j] == "binary"][:2]
        row = np.zeros(n)
        row[binaries] = 2.0
        a, senses, rhs = np.vstack([a, row]), np.append(senses, "eq"), np.append(rhs, 1.0)
    c = np.round(rng.uniform(-5.0, 3.0, n), 2)
    return make_problem(c, a, list(senses), rhs, lo, hi, integrality=integrality)


def highs_milp(problem):
    """(status, objective) of the MILP, solved by HiGHS."""
    senses = np.array(problem.senses)
    integrality = np.array([kind != "continuous" for kind in problem.integrality], dtype=int)
    res = optimize.milp(
        problem.objective,
        constraints=optimize.LinearConstraint(
            problem.dense_rows(),
            np.where(senses != "le", problem.rhs, -np.inf),
            np.where(senses != "ge", problem.rhs, np.inf),
        ),
        bounds=optimize.Bounds(problem.lower, problem.upper),
        integrality=integrality,
        options={"mip_rel_gap": 1e-10},
    )
    return _STATUS[res.status], (res.fun + problem.objective_constant if res.status == 0 else None)


def test_seeded_milps_match_highs():
    """Branch-and-bound, whose children re-solve from their parents' bases."""
    rng = np.random.default_rng(20251018)
    seen = {"optimal": 0, "infeasible": 0}
    for k in range(10):
        problem = seeded_milp(rng, parity_row=(k % 5 == 4))
        status, objective = highs_milp(problem)
        res = solve_milp(problem)
        assert res.status == status
        seen[status] += 1
        if status == "optimal":
            assert res.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)
    assert seen["optimal"] >= 6 and seen["infeasible"] >= 2, seen


def test_mini_pcm_fixture_matches_highs_milp():
    problem = flatten(mini_pcm_fixture())
    status, objective = highs_milp(problem)
    assert status == "optimal"
    res = solve_milp(problem)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(objective, rel=1e-7)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pcm_milp_monolithic_and_by_lagrangian_benders_match_highs(seed):
    """Tight relaxations at fractional commitments: every B&B tree ties."""
    graph, membership = generators.pcm_milp_build(
        generators.pcm_milp_data(np.random.default_rng(seed)))
    apply_partition(graph, membership)
    problem = flatten(graph)
    status, objective = highs_milp(problem)
    assert status == "optimal"
    mono = solve_milp(problem)
    assert mono.status == "optimal"
    assert mono.objective == pytest.approx(objective, rel=1e-6)
    config = BendersConfig(lagrangian=True, lagrangian_iters=15, add_slacks=True)
    res = run_decomposition(graph, root="b2", config=config)
    assert res.status == "converged"
    assert res.objective == pytest.approx(objective, rel=1e-6)


class CountingSolver:
    """The built-in backend, counting B&B nodes."""

    def __init__(self):
        self.nodes = 0

    def solve_lp(self, problem):
        return solve_lp(problem)

    def solve_milp(self, problem):
        res = solve_milp(problem)
        self.nodes += res.nodes_explored
        return res


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pcm_milp_rounding_saves_nodes_and_changes_no_bound(seed, monkeypatch):
    """Rounding each node's LP point closes most searches at the root; Benders takes the same steps."""
    def benders():
        graph, membership = generators.pcm_milp_build(
            generators.pcm_milp_data(np.random.default_rng(seed)))
        apply_partition(graph, membership)
        solver = CountingSolver()
        config = BendersConfig(lagrangian=True, lagrangian_iters=15, add_slacks=True)
        return run_decomposition(graph, root="b2", config=config, solver=solver), solver.nodes

    with monkeypatch.context() as m:
        m.setattr(branch_bound, "_rounded", lambda *args: None)
        plain, plain_nodes = benders()
    rounded, rounded_nodes = benders()
    assert rounded.iterations == plain.iterations
    assert len(rounded.cuts) == len(plain.cuts)
    np.testing.assert_allclose(rounded.lb_history, plain.lb_history, rtol=1e-9)
    np.testing.assert_allclose(rounded.ub_history, plain.ub_history, rtol=1e-9)
    assert rounded_nodes < plain_nodes


def test_random_milps_match_highs(rng):
    """Small binary and mixed MILPs: the same status and optimum as HiGHS."""
    seen = Counter()
    for k in range(40):
        problem = random_milp(rng, pure_binary=(k % 3 != 0))
        status, objective = highs_milp(problem)
        res = solve_milp(problem)
        assert res.status == status
        seen[status] += 1
        if status == "optimal":
            assert res.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)
    assert seen["optimal"] >= 15, seen
