"""Acceptance gate: one test per shipped guarantee.

Each test pins an end-to-end behaviour of the library at a stated tolerance,
so ``pytest -v tests/test_acceptance.py`` reads as a checklist.  Everything
here is checked against an independent oracle (vertex enumeration, binary
enumeration, or a monolithic solve) rather than against the code under test.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from graphopt.benders import (
    BendersConfig,
    BendersTree,
    _lagrangian_ascent,
    run_decomposition,
    validate_structure,
)
from graphopt.errors import CyclicStructureError
from graphopt.fixtures import (
    chain3_fixture,
    mini_cem_fixture,
    mini_pcm_fixture,
    storage_fixture,
    storage_membership,
)
from graphopt.model import Graph
from graphopt.sequential import relaxed_parallel_bound, sequential_solve
from graphopt.solvers import default_solver, solve_lp, solve_milp
from graphopt.standard_form import flatten
from graphopt.subproblem import StageProblem
from graphopt.transform import (
    aggregate,
    aggregate_to_depth,
    apply_partition,
    reroute_link,
)

from conftest import (
    binary_enumeration_milp,
    downstream_model_value,
    random_graph_instance,
    random_lp,
    random_milp,
    rebuild_stage_problem,
    solve_flat,
    vertex_enumeration_lp,
)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _check_histories(res) -> None:
    """Lower bounds never decrease, best upper bounds never increase, LB <= UB.

    The value-function columns start at a -1e9 floor, which leaves ~1e-7
    absolute noise in root objectives, hence the scaled tolerances.
    """
    lbs, ubs = res.lb_history, res.ub_history
    assert len(lbs) == len(ubs) == res.iterations
    for prev, cur in zip(lbs, lbs[1:]):
        assert cur >= prev - 1e-7 * max(1.0, abs(prev))
    finite = [u for u in ubs if math.isfinite(u)]
    for prev, cur in zip(finite, finite[1:]):
        assert cur <= prev + 1e-7 * max(1.0, abs(prev))
    for lb, ub in zip(lbs, ubs):
        if math.isfinite(ub):
            assert lb <= ub + 1e-7 * max(1.0, abs(ub))


def _probe_point(refs, rng) -> np.ndarray:
    """A random point in the box of ``refs``, capping unbounded sides."""
    return np.array(
        [
            rng.uniform(r.lower, r.upper if np.isfinite(r.upper) else r.lower + 5.0)
            for r in refs
        ]
    )


def random_triangle(rng) -> Graph:
    """Three single-variable subgraphs, pairwise linked: a cyclic quotient."""
    g = Graph("tri")
    refs = []
    for name in ("a", "b", "c"):
        sub = Graph(name)
        node = sub.add_node(f"{name}0")
        lo = float(np.round(rng.uniform(-2.0, 0.0), 2))
        hi = lo + float(np.round(rng.uniform(0.5, 3.0), 2))
        ref = node.add_variable("x", lower=lo, upper=hi)
        node.set_objective(float(np.round(rng.uniform(-3.0, 3.0), 2)) * ref)
        refs.append(ref)
        g.add_subgraph(sub)
    mid = {r: (r.lower + r.upper) / 2.0 for r in refs}
    for i, j in ((0, 1), (1, 2), (0, 2)):
        expr = refs[i] + refs[j]
        rhs = expr.evaluate(mid) + float(rng.uniform(0.3, 2.0))
        g.add_link_constraint(expr, "le", rhs)  # midpoint stays feasible
    return g


def test_criterion_01_storage_decomposition_matches_monolithic():
    graph = apply_partition(storage_fixture(), storage_membership())
    mono, _ = solve_flat(graph)
    assert mono.status == "optimal"

    start = time.monotonic()
    res = run_decomposition(graph, "design", BendersConfig(add_slacks=True))
    elapsed = time.monotonic() - start

    assert res.converged
    assert res.iterations <= 25
    assert elapsed < 5.0
    assert abs(res.objective - mono.objective) <= 1e-6 * abs(mono.objective)
    _check_histories(res)


def test_criterion_02_chain_decomposition_reaches_enumeration_optimum():
    graph = chain3_fixture()
    prob = flatten(graph)
    # The continuous columns are unbounded above; cap them for the oracle and
    # verify afterwards that the cap never binds at the optimum.
    capped = replace(prob, upper=np.minimum(prob.upper, 10.0))
    status, enum_obj, enum_x = binary_enumeration_milp(capped)
    assert status == "optimal"
    assert float(np.max(enum_x)) <= 9.0

    start = time.monotonic()
    res = run_decomposition(
        graph, "g2", BendersConfig(multicut=True, strengthened=True)
    )
    elapsed = time.monotonic() - start

    assert elapsed < 2.0
    assert abs(res.objective - enum_obj) <= 1e-7 * abs(enum_obj)
    assert res.upper_bound == pytest.approx(res.objective)
    _check_histories(res)


def test_criterion_03_simplex_agrees_with_vertex_enumeration_on_200_lps():
    rng = np.random.default_rng(20250803)
    n_optimal = n_infeasible = 0
    for k in range(200):
        prob = random_lp(rng, n_max=6, m_max=8)
        oracle_status, oracle_obj, _ = vertex_enumeration_lp(prob)
        res = solve_lp(prob)
        assert res.status == oracle_status, f"instance {k}"
        if oracle_status == "infeasible":
            n_infeasible += 1
            continue
        n_optimal += 1
        assert abs(res.objective - oracle_obj) <= 1e-7, f"instance {k}"

        # strong duality: dual objective equals primal objective
        dual = float(res.duals @ prob.rhs) + prob.objective_constant
        for j in range(prob.n_cols):
            rc = float(res.reduced_costs[j])
            if rc > 0:
                dual += rc * prob.lower[j]
            elif rc < 0:
                dual += rc * prob.upper[j]
        assert abs(dual - res.objective) <= 1e-7 * max(1.0, abs(res.objective))

        # complementary slackness on rows and bounds
        a = prob.dense_rows()
        for i, sense in enumerate(prob.senses):
            slack = float(prob.rhs[i] - a[i] @ res.primal)
            if sense == "eq":
                assert abs(slack) <= 1e-7
            else:
                assert abs(res.duals[i] * slack) <= 1e-6
        for j in range(prob.n_cols):
            rc = float(res.reduced_costs[j])
            if rc > 1e-9:
                assert res.primal[j] <= prob.lower[j] + 1e-7
            elif rc < -1e-9:
                assert res.primal[j] >= prob.upper[j] - 1e-7
    assert n_optimal >= 60 and n_infeasible >= 20


def test_criterion_04_branch_and_bound_matches_binary_enumeration_exactly():
    """Every binary program agrees bit-for-bit with exhaustive enumeration.

    Both sides of the comparison are evaluated with the same ``np.dot``
    expression, so "exactly" really means exact float equality rather than a
    tolerance in disguise.
    """

    def enumerate_best(prob, tol=1e-9):
        a = prob.dense_rows()
        best = math.inf
        feasible = False
        for bits in itertools.product((0.0, 1.0), repeat=prob.n_cols):
            x = np.array(bits)
            if np.any(x < prob.lower - tol) or np.any(x > prob.upper + tol):
                continue
            ok = True
            for i, sense in enumerate(prob.senses):
                lhs = float(np.dot(a[i], x))
                if sense == "eq" and abs(lhs - prob.rhs[i]) > tol:
                    ok = False
                    break
                if sense == "le" and lhs > prob.rhs[i] + tol:
                    ok = False
                    break
                if sense == "ge" and lhs < prob.rhs[i] - tol:
                    ok = False
                    break
            if not ok:
                continue
            feasible = True
            val = float(np.dot(prob.objective, x)) + prob.objective_constant
            best = min(best, val)
        return feasible, best

    rng = np.random.default_rng(20240814)
    n_optimal = 0
    for k in range(50):
        prob = random_milp(rng, pure_binary=True)
        feasible, best = enumerate_best(prob)
        res = solve_milp(prob)
        if not feasible:
            assert res.status == "infeasible", f"instance {k}"
            continue
        assert res.status == "optimal", f"instance {k}"
        n_optimal += 1
        xhat = np.round(res.primal)
        a = prob.dense_rows()
        for i, sense in enumerate(prob.senses):
            lhs = float(np.dot(a[i], xhat))
            if sense == "eq":
                assert abs(lhs - prob.rhs[i]) <= 1e-9
            elif sense == "le":
                assert lhs <= prob.rhs[i] + 1e-9
            else:
                assert lhs >= prob.rhs[i] - 1e-9
        value = float(np.dot(prob.objective, xhat)) + prob.objective_constant
        assert value == best, f"instance {k}: {value!r} != {best!r}"
    assert n_optimal >= 15


def test_criterion_05_transforms_preserve_the_optimum():
    rng = np.random.default_rng(20250814)
    for k in range(100):
        g = random_graph_instance(rng)
        base, _ = solve_flat(g)
        assert base.status == "optimal", f"instance {k}"
        scale = max(1.0, abs(base.objective))

        ids = [n.id for n in g.local_nodes()]
        rng.shuffle(ids)
        n_blocks = int(rng.integers(2, min(3, len(ids)) + 1))
        membership = {nid: f"blk{i % n_blocks}" for i, nid in enumerate(ids)}
        apply_partition(g, membership)
        agg_graph, _ = aggregate(g)
        depth_graph, _ = aggregate_to_depth(g, 0)
        for variant in (g, agg_graph, depth_graph):
            res, _ = solve_flat(variant)
            assert res.status == "optimal", f"instance {k}"
            assert abs(res.objective - base.objective) <= 1e-8 * scale, f"instance {k}"

        # a pairwise-linked triangle is cyclic until one chord is rerouted
        tri = random_triangle(rng)
        tri_base, _ = solve_flat(tri)
        assert tri_base.status == "optimal", f"instance {k}"
        with pytest.raises(CyclicStructureError):
            validate_structure(tri)
        chord = next(
            e for e in tri.local_edges() if e.incident_nodes == frozenset(("a0", "c0"))
        )
        reroute_link(tri, chord, tri.find_subgraph("b"))
        validate_structure(tri)
        after, _ = solve_flat(tri)
        assert abs(after.objective - tri_base.objective) <= 1e-8 * max(
            1.0, abs(tri_base.objective)
        ), f"instance {k}"


def test_criterion_06_cut_families_valid_tangent_and_ordered():
    pcm = mini_pcm_fixture()
    chain = chain3_fixture()
    runs = {
        "pcm": run_decomposition(pcm, "b1", BendersConfig(add_slacks=True, max_iters=15)),
        "chain": run_decomposition(
            chain, "g1", BendersConfig(strengthened=True, lagrangian=True, max_iters=20)
        ),
    }
    rng = np.random.default_rng(11)

    # every cut is a valid underestimator of its children's model value,
    # probed at 100 feasible boundary points per fixture
    for name, res in runs.items():
        assert res.cuts, name
        checked = 0
        for attempt in range(2000):
            cut = res.cuts[attempt % len(res.cuts)]
            probe = _probe_point(cut.refs, rng)
            value = downstream_model_value(res, cut, dict(zip(cut.refs, probe)))
            if value is None:
                continue  # children infeasible there: the cut promises nothing
            predicted = cut.predicted_value(probe)
            assert predicted <= value + 1e-7 * max(1.0, abs(value)), (name, attempt)
            checked += 1
            if checked >= 100:
                break
        assert checked >= 100, name

    # classic cuts are tangent: at their own anchor they meet the child's
    # relaxation value exactly (leaf children have no deeper value terms)
    tangent = 0
    for res in runs.values():
        for cut in res.cuts:
            if cut.kind != "benders" or "+" in cut.child_id:
                continue
            if res.tree.stages[cut.child_id].children:
                continue
            leaf = rebuild_stage_problem(res, cut.child_id)
            leaf.set_fixed_values(cut.anchor)
            sol = leaf.solve(relax=True)
            assert sol.status == "optimal"
            assert abs(cut.phi - sol.objective) <= 1e-7 * max(1.0, abs(sol.objective))
            tangent += 1
    assert tangent >= 2

    # at a shared anchor the three families are ordered:
    # classic <= strengthened <= dual-ascent, on both fixtures
    solver = default_solver()
    cfg = BendersConfig()
    for graph, root, child in ((pcm, "b1", "b2"), (chain, "g1", "g3")):
        tree = BendersTree(graph, root=root)
        st = tree.stages[child]
        prob = StageProblem(st.subgraph, st.relocated)
        ordered = 0
        for _ in range(6):
            anchor = _probe_point(prob.fixed_refs, rng)
            prob.set_fixed_values(anchor)
            relaxed = prob.solve(solver, relax=True)
            if relaxed.status != "optimal":
                continue
            phi_b = relaxed.objective
            lam = prob.fixing_duals(relaxed)
            strengthened = solve_milp(prob.lagrangian_problem(lam, anchor))
            if strengthened.status != "optimal":
                continue
            phi_s = strengthened.objective
            v_star = prob.solve(solver).objective
            phi_l, _ = _lagrangian_ascent(prob, lam, anchor, v_star, cfg.lagrangian_iters, solver)
            assert phi_b <= phi_s + 1e-9 <= phi_l + 2e-9
            assert phi_l <= v_star + 1e-9 * max(1.0, abs(v_star))
            ordered += 1
            if ordered >= 3:
                break
        assert ordered >= 3, child


def test_criterion_07_bound_histories_monotone_and_regularization_consistent():
    storage = apply_partition(storage_fixture(), storage_membership())
    cem = mini_cem_fixture()
    runs = [
        run_decomposition(storage, "design", BendersConfig(add_slacks=True)),
        run_decomposition(chain3_fixture(), "g1", BendersConfig(lagrangian=True, strengthened=True)),
        run_decomposition(chain3_fixture(), "g2", BendersConfig(multicut=True, max_iters=8)),
        run_decomposition(mini_pcm_fixture(), "b1", BendersConfig(add_slacks=True, max_iters=10)),
        run_decomposition(cem, "planning", BendersConfig(max_iters=3)),
    ]
    plain = run_decomposition(cem, "planning", BendersConfig())
    regularized = run_decomposition(
        cem, "planning", BendersConfig(regularize=True, alpha=0.5)
    )
    runs += [plain, regularized]
    for res in runs:
        _check_histories(res)

    assert plain.converged and regularized.converged
    assert _rel(regularized.objective, plain.objective) <= 1e-6
    # every regularized iterate satisfied its level-set row when one was active
    assert regularized.level_set_audit
    for _, lhs, level in regularized.level_set_audit:
        assert lhs <= level + 1e-6 * max(1.0, abs(level))


def test_criterion_08_bound_ordering_across_solution_modes():
    fixtures = [
        apply_partition(storage_fixture(), storage_membership()),
        chain3_fixture(),
        mini_cem_fixture(),
        mini_pcm_fixture(),
    ]
    for graph in fixtures:
        mono, _ = solve_flat(graph)
        assert mono.status == "optimal", graph.id
        tree = BendersTree(graph)
        seq = sequential_solve(graph, tree.order, add_slacks=True)
        bound = relaxed_parallel_bound(graph)
        scale = max(1.0, abs(mono.objective))
        assert bound.objective <= mono.objective + 1e-9 * scale, graph.id
        assert mono.objective <= seq.objective + 1e-9 * scale, graph.id

        # one cut-free forward pass is exactly the sequential heuristic
        one = run_decomposition(
            graph, config=BendersConfig(max_iters=1, add_slacks=True)
        )
        assert one.status == "max_iterations"
        assert one.trace[0].iteration_cost == seq.objective, graph.id


def test_criterion_09_objective_invariant_under_root_choice():
    results = {
        root: run_decomposition(
            mini_pcm_fixture(milp=False), root, BendersConfig(add_slacks=True)
        )
        for root in ("b1", "b2", "b3")
    }
    for root, res in results.items():
        assert res.converged, root
        _check_histories(res)
    objectives = [res.objective for res in results.values()]
    for val in objectives[1:]:
        assert abs(val - objectives[0]) <= 1e-6 * abs(objectives[0])
