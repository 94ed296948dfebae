"""Agreement with scipy's HiGHS beyond the sizes enumeration can reach.

HiGHS is a test-only oracle: numpy stays the library's one runtime
dependency, and this module is skipped where scipy is missing.
"""

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")

from graphopt import flatten
from graphopt.branch_bound import solve_milp
from graphopt.fixtures import mini_pcm_fixture, storage_fixture
from graphopt.simplex import solve_lp

from conftest import make_problem

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


def assert_strong_duality(problem, res, tol=1e-9):
    """Dual feasibility of the library's duals, and a dual value equal to the optimum."""
    y, rc = res.duals, res.reduced_costs
    senses = np.array(problem.senses)
    assert (y[senses == "le"] <= tol).all() and (y[senses == "ge"] >= -tol).all()
    at_lower, at_upper = rc > tol, rc < -tol
    assert np.isfinite(problem.lower[at_lower]).all()
    assert np.isfinite(problem.upper[at_upper]).all()
    dual = (
        y @ problem.rhs
        + problem.objective_constant
        + rc[at_lower] @ problem.lower[at_lower]
        + rc[at_upper] @ problem.upper[at_upper]
    )
    assert dual == pytest.approx(res.objective, rel=1e-7, abs=1e-7)


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


def test_storage_fixture_matches_highs():
    problem = flatten(storage_fixture())
    status, objective = highs_lp(problem)
    res = solve_lp(problem)
    assert res.status == status == "optimal"
    assert res.objective == pytest.approx(objective, rel=1e-7)
    assert_strong_duality(problem, res)


def test_mini_pcm_fixture_matches_highs_milp():
    problem = flatten(mini_pcm_fixture())
    integrality = np.array([kind != "continuous" for kind in problem.integrality], dtype=int)
    senses = np.array(problem.senses)
    ref = optimize.milp(
        problem.objective,
        constraints=optimize.LinearConstraint(
            problem.dense_rows(), np.where(senses == "eq", problem.rhs, -np.inf), problem.rhs
        ),
        bounds=optimize.Bounds(problem.lower, problem.upper),
        integrality=integrality,
        options={"mip_rel_gap": 1e-10},
    )
    assert ref.status == 0
    res = solve_milp(problem)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun + problem.objective_constant, rel=1e-7)
