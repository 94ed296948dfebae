"""Graph-based Benders decomposition: structure, cuts, convergence."""

import math
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from graphopt import (
    CyclicStructureError,
    DisconnectedError,
    Graph,
    HyperedgeSpanError,
    IterationLimitError,
    LocalNodesAtRootError,
    NoSubgraphsError,
    OverlapUnsupportedError,
    RelaxationInfeasibleError,
    RootNotFoundError,
    SubproblemInfeasibleError,
    UnboundedError,
    check_solution,
    flatten,
)
from graphopt.benders import (
    BendersConfig,
    BendersTree,
    _Decomposition,
    _lagrangian_ascent,
    _relative_gap,
    run_decomposition,
    validate_structure,
)
from graphopt.fixtures import (
    chain3_fixture,
    mini_cem_fixture,
    mini_pcm_fixture,
    storage_fixture,
    storage_membership,
)
from graphopt import benders, simplex
from graphopt.simplex import SolveResult
from graphopt.solvers import SimplexSolver, default_solver, solve_milp
from graphopt.subproblem import CutData, StageProblem
from graphopt.transform import apply_partition

from conftest import (
    StartRecorder, downstream_model_value, rebuild_stage_problem, solve_flat, unbounded_stage_graph,
)

# the benchmark's seeded model generators, which build through the public API
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import generators  # noqa: E402


def toy_two_stage():
    """Parent holds x in [0,1] at zero cost; child pays y >= 1 - x."""
    g = Graph("toy")
    parent = Graph("p")
    x = parent.add_node("pn").add_variable("x", lower=0.0, upper=1.0)
    g.add_subgraph(parent)
    child = Graph("c")
    cn = child.add_node("cn")
    y = cn.add_variable("y", lower=0.0)
    cn.set_objective(y)
    g.add_subgraph(child)
    g.add_link_constraint(x + y, "ge", 1.0)
    return g, x, y


def partitioned_storage():
    g = storage_fixture()
    return apply_partition(g, storage_membership())


def assert_bound_histories(result):
    """Lower bounds never decrease; best upper bounds never increase."""
    for prev, cur in zip(result.lb_history, result.lb_history[1:]):
        assert cur >= prev - 1e-7 * max(1.0, abs(prev))
    finite = [u for u in result.ub_history if math.isfinite(u)]
    for prev, cur in zip(finite, finite[1:]):
        assert cur <= prev + 1e-9 * max(1.0, abs(prev))
    for rec in result.trace:
        if math.isfinite(rec.upper_bound):
            assert rec.lower_bound <= rec.upper_bound + 1e-7 * max(1.0, abs(rec.upper_bound))


class TestStructureValidation:
    def test_flat_graph_is_rejected(self):
        g = Graph("flat")
        g.add_node("n").add_variable("x")
        with pytest.raises(NoSubgraphsError):
            validate_structure(g)

    def test_root_local_nodes_are_rejected(self):
        g, x, y = toy_two_stage()
        g.add_node("loose").add_variable("z", lower=0, upper=1)
        with pytest.raises(LocalNodesAtRootError):
            validate_structure(g)

    def test_hyperedges_are_rejected(self):
        g = Graph("g")
        refs = []
        for name in ("a", "b", "c"):
            sub = Graph(name)
            refs.append(sub.add_node(f"{name}0").add_variable("x", lower=0, upper=1))
            g.add_subgraph(sub)
        g.add_link_constraint(refs[0] + refs[1], "le", 1.0)
        g.add_link_constraint(refs[1] + refs[2], "le", 1.0)
        g.add_link_constraint(refs[0] + refs[1] + refs[2], "le", 2.0)
        with pytest.raises(HyperedgeSpanError):
            validate_structure(g)

    def test_disconnected_quotient_is_rejected(self):
        g = Graph("g")
        for name in ("a", "b"):
            sub = Graph(name)
            sub.add_node(f"{name}0").add_variable("x", lower=0, upper=1)
            g.add_subgraph(sub)
        with pytest.raises(DisconnectedError):
            validate_structure(g)

    def test_cycles_are_rejected(self):
        g = Graph("g")
        refs = []
        for name in ("a", "b", "c"):
            sub = Graph(name)
            refs.append(sub.add_node(f"{name}0").add_variable("x", lower=0, upper=1))
            g.add_subgraph(sub)
        g.add_link_constraint(refs[0] + refs[1], "le", 1.0)
        g.add_link_constraint(refs[1] + refs[2], "le", 1.0)
        g.add_link_constraint(refs[0] + refs[2], "le", 1.0)
        with pytest.raises(CyclicStructureError):
            validate_structure(g)

    def test_overlapping_subgraphs_are_rejected(self):
        g = Graph("g", allow_overlap=True)
        shared_holder = Graph("a")
        shared = shared_holder.add_node("s")
        shared.add_variable("x", lower=0, upper=1)
        g.add_subgraph(shared_holder)
        twin = Graph("b")
        twin.attach_node(shared)
        other = twin.add_node("b0")
        xb = other.add_variable("x", lower=0, upper=1)
        g.add_subgraph(twin)
        g.add_link_constraint(shared.var("x") + xb, "le", 1.0)
        with pytest.raises(OverlapUnsupportedError):
            validate_structure(g)

    def test_unknown_root_is_rejected(self):
        g, _, _ = toy_two_stage()
        with pytest.raises(RootNotFoundError):
            run_decomposition(g, root="nowhere")

    def test_singleton_layer_is_trivially_valid(self):
        g = Graph("g")
        sub = Graph("only")
        a = sub.add_node("a")
        x = a.add_variable("x", lower=1.0, upper=4.0)
        a.set_objective(x)
        b = sub.add_node("b")
        yv = b.add_variable("y", lower=0.0, upper=4.0)
        b.set_objective(yv)
        sub.add_link_constraint(x + yv, "ge", 3.0)
        g.add_subgraph(sub)
        topo = validate_structure(g)
        assert topo.vertices == ["only"]
        res = run_decomposition(g)
        assert res.status == "converged"
        assert res.iterations == 1
        assert res.objective == pytest.approx(3.0)


class TestTree:
    def test_breadth_first_levels_from_the_root(self, cem_graph):
        tree = BendersTree(cem_graph, root="planning")
        assert tree.order[0] == "planning"
        assert tree.n_levels == 2
        assert sorted(tree.stages["planning"].children) == ["ops1", "ops2", "ops3"]
        for ops in ("ops1", "ops2", "ops3"):
            assert tree.stages[ops].level == 2
            assert tree.stages[ops].parent == "planning"

    def test_non_central_root_makes_a_deeper_tree(self, cem_graph):
        tree = BendersTree(cem_graph, root="ops1")
        assert tree.stages["planning"].level == 2
        assert tree.stages["ops2"].level == 3
        assert tree.n_levels == 3

    def test_parent_edges_relocate_into_the_child(self, chain3_graph):
        tree = BendersTree(chain3_graph, root="g1")
        assert [c.uid for c in tree.stages["g1"].relocated] == []
        assert len(tree.stages["g2"].relocated) == 1
        assert len(tree.stages["g3"].relocated) == 1

    def test_descendants(self, cem_graph):
        tree = BendersTree(cem_graph, root="ops1")
        assert set(tree.descendants("planning")) == {"planning", "ops2", "ops3"}

    @pytest.mark.parametrize("links, error", [
        ([(0, 1), (1, 2), (0, 2)], CyclicStructureError),  # no stage tree holds all three links
        ([(0, 1), (0, 1, 2)], HyperedgeSpanError),
    ], ids=["triangle", "hyperedge"])
    def test_the_tree_validates_its_graph(self, links, error):
        """Single-node subgraphs s0, s1, s2, one link per tuple of their indices."""
        g = Graph("g")
        refs = []
        for i in range(3):
            sub = Graph(f"s{i}")
            refs.append(sub.add_node(f"n{i}").add_variable("x", lower=0.0, upper=1.0))
            g.add_subgraph(sub)
        for link in links:
            g.add_link_constraint(sum((refs[i] for i in link[1:]), 1.0 * refs[link[0]]), "le", 2.0)
        with pytest.raises(error):
            BendersTree(g, "s0")


class TestStageProblem:
    def test_copy_columns_and_fixing_rows(self, chain3_graph):
        tree = BendersTree(chain3_graph, root="g1")
        st = tree.stages["g2"]
        prob = StageProblem(st.subgraph, st.relocated)
        assert [r.qualified_name for r in prob.fixed_refs] == ["n1.x"]
        copy_col = prob.copy_col[prob.fixed_refs[0]]
        unpinned = prob.lagrangian_problem(np.zeros(1), np.zeros(1))
        assert unpinned.lower[copy_col] == 0.0  # bounds inherited from the parent variable
        assert unpinned.upper[copy_col] == 1.0
        prob.set_fixed_values([0.5])
        np.testing.assert_allclose(prob.fixed_values(), [0.5])

    def test_theta_columns_sit_last_with_unit_cost(self, cem_graph):
        tree = BendersTree(cem_graph, root="planning")
        st = tree.stages["planning"]
        prob = StageProblem(st.subgraph, st.relocated, theta_count=3)
        flat = prob.problem()
        assert prob.theta_cols == [flat.n_cols - 3, flat.n_cols - 2, flat.n_cols - 1]
        for col in prob.theta_cols:
            assert flat.objective[col] == 1.0
            assert flat.lower[col] == -1e9

    def test_true_cost_excludes_value_function_columns(self):
        g, x, y = toy_two_stage()
        tree = BendersTree(g, root="p")
        prob = StageProblem(tree.stages["p"].subgraph, theta_count=1)
        res = prob.solve()
        assert prob.true_cost(res) == pytest.approx(0.0)

    def test_cut_rows_and_deduplication(self):
        g, x, y = toy_two_stage()
        tree = BendersTree(g, root="p")
        prob = StageProblem(tree.stages["p"].subgraph, theta_count=1)
        cut = CutData("c", (x,), np.array([-1.0]), 1.0, np.array([0.0]), "benders", 1, 0)
        prob.add_cut(cut)
        # same hyperplane expressed from a different anchor: theta >= 1 - x
        assert prob.has_equivalent_cut(
            CutData("c", (x,), np.array([-1.0]), 0.5, np.array([0.5]), "benders", 2, 0)
        )
        assert not prob.has_equivalent_cut(
            CutData("c", (x,), np.array([-1.0]), 1.25, np.array([0.0]), "benders", 2, 0)
        )
        res = prob.solve()
        assert res.objective == pytest.approx(0.0)  # theta >= 1 - x forces x to 1

    def test_deduplication_is_relative_to_the_scale_of_the_cut(self):
        g, x, y = toy_two_stage()
        tree = BendersTree(g, root="p")
        prob = StageProblem(tree.stages["p"].subgraph, theta_count=1)

        def cut(pi, phi):  # anchored at 0, so its row reads pi x - theta <= -phi
            return CutData("c", (x,), np.array([pi]), phi, np.array([0.0]), "benders", 1, 0)

        prob.add_cut(cut(-1e6, 1e6))
        assert prob.has_equivalent_cut(cut(-1e6 * (1 + 1e-10), 1e6 * (1 - 1e-10)))
        assert not prob.has_equivalent_cut(cut(-1e6 * (1 + 1e-6), 1e6))
        assert not prob.has_equivalent_cut(cut(-1e6, 1e6 * (1 + 1e-6)))

    def test_handed_out_problems_keep_their_rows_after_a_cut(self):
        g, x, y = toy_two_stage()
        tree = BendersTree(g, root="p")
        prob = StageProblem(tree.stages["p"].subgraph, theta_count=1)
        handed = [prob.problem(), prob.level_set_problem(5.0)]
        before = [(list(p.triplets), p.rhs.copy(), dict(p.row_provenance), p.dense_rows().copy())
                  for p in handed]
        kept = handed[0].dense_rows()
        prob.add_cut(CutData("c", (x,), np.array([-1.0]), 1.0, np.array([0.0]), "benders", 1, 0))
        prob.add_cut(CutData("c", (x,), np.array([-2.0]), 1.0, np.array([0.5]), "benders", 2, 0))
        for p, (triplets, rhs, provenance, matrix) in zip(handed, before):
            assert p.triplets == triplets
            np.testing.assert_array_equal(p.rhs, rhs)
            assert p.row_provenance == provenance
            np.testing.assert_array_equal(p.dense_rows(), matrix)
        assert handed[0].dense_rows() is kept
        now = prob.problem()
        assert now.n_rows == handed[0].n_rows + 2
        assert "level_set" not in now.row_provenance.values()
        assert prob.problem().dense_rows() is now.dense_rows()  # built once for both cuts

    def test_every_problem_holds_read_only_rows(self, chain3_graph):
        """A problem's matrix and row signs are made once; no problem that shares them can write to them."""
        tree = BendersTree(chain3_graph, root="g1")
        st = tree.stages["g2"]
        stage = StageProblem(st.subgraph, st.relocated, theta_count=1, add_slacks=True)
        flat = flatten(chain3_graph)
        grown = flat.with_rows([({0: 1.0}, "ge", 0.0, "cut")])
        for problem in (flat, grown, stage.problem(), stage.problem(relax=True),
                        stage.lagrangian_problem(np.zeros(1), np.zeros(1))):
            for array in (problem.matrix, *problem.row_signs()):
                assert not array.flags.writeable
        assert grown.row_signs()[1][-1] == -1.0  # a "ge" row keeps its sense
        with pytest.raises(TypeError, match="keeps the rows"):
            flat.with_changes(senses=grown.senses)

    def test_elastic_slacks_keep_relocated_rows_feasible(self, chain3_graph):
        tree = BendersTree(chain3_graph, root="g1")
        st = tree.stages["g2"]
        strict = StageProblem(st.subgraph, st.relocated)
        strict.set_fixed_values([0.0])  # x1 = 0 makes x1 + y2 >= 1 need y2 >= 1: feasible
        assert strict.solve().status == "optimal"
        soft = StageProblem(st.subgraph, st.relocated, add_slacks=True, slack_penalty=100.0)
        soft.set_fixed_values([0.0])
        res = soft.solve()
        assert res.status == "optimal"
        assert soft.slack_activity(res) == pytest.approx(0.0, abs=1e-9)

    def test_the_assembled_problem_follows_fixed_values_and_cuts(self):
        g, x, y = toy_two_stage()
        tree = BendersTree(g, root="p")
        child = StageProblem(tree.stages["c"].subgraph, tree.stages["c"].relocated)
        first = child.problem()
        child.set_fixed_values([0.25])
        second = child.problem()
        copy = child.copy_col[x]
        assert second.lower[copy] == second.upper[copy] == 0.25
        assert first.lower[copy] == first.upper[copy] == 0.0  # handed-out problems keep their bounds
        assert second.dense_rows() is first.dense_rows()  # one kept matrix
        parent = StageProblem(tree.stages["p"].subgraph, theta_count=1)
        before = parent.problem()
        parent.add_cut(CutData("c", (x,), np.array([-1.0]), 1.0, np.array([0.0]), "benders", 1, 0))
        after = parent.problem()
        assert after.n_rows == before.n_rows + 1
        assert after.dense_rows() is not before.dense_rows()

    def test_the_lagrangian_problem_unpins_the_copies_of_the_kept_problem(self, chain3_graph):
        tree = BendersTree(chain3_graph, root="g1")
        st = tree.stages["g2"]
        prob = StageProblem(st.subgraph, st.relocated, theta_count=1)
        (x1,) = prob.fixed_refs
        copy = prob.copy_col[x1]
        prob.set_fixed_values([1.0])
        unpinned = prob.lagrangian_problem(np.array([2.0]), np.array([1.0]))
        assert unpinned.dense_rows() is prob.problem().dense_rows()  # until a cut adds a row
        assert (unpinned.lower[copy], unpinned.upper[copy]) == (x1.lower, x1.upper)
        assert unpinned.objective[copy] == -2.0
        assert unpinned.objective_constant == prob.objective_constant + 2.0
        assert prob.problem().lower[copy] == prob.problem().upper[copy] == 1.0  # still pinned
        g3 = tree.stages["g3"]
        refs = tuple(StageProblem(g3.subgraph, g3.relocated).fixed_refs)
        prob.add_cut(CutData("g3", refs, np.ones(len(refs)), 0.0, np.zeros(len(refs)), "benders", 1, 0))
        after = prob.lagrangian_problem(np.array([2.0]), np.array([1.0]))
        assert after.dense_rows() is not unpinned.dense_rows()
        assert after.dense_rows() is prob.problem().dense_rows()

    @pytest.mark.parametrize("horizon", [20, 200])
    def test_forward_passes_re_solve_from_the_last_basis(self, horizon):
        """The storage operations stage at five storage sizes, as forward passes see it."""
        graph = apply_partition(storage_fixture(T=horizon), storage_membership(T=horizon))
        tree = BendersTree(graph, root="design")
        st = tree.stages["operations"]
        prob = StageProblem(st.subgraph, st.relocated, add_slacks=True)
        warm_pivots = cold_pivots = 0
        for size in [0.0, 1000.0, 10.0, 92.0, 100.0]:  # the sizes Benders visits at T=200
            prob.set_fixed_values([size])
            cold = default_solver().solve_lp(prob.problem())
            warm = prob.solve()
            assert warm.status == cold.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
            warm_pivots += warm.iterations
            cold_pivots += cold.iterations
        assert warm_pivots < cold_pivots / 2

    def test_a_re_solve_after_a_cut_matches_a_cold_solve(self):
        g, x, y = toy_two_stage()
        tree = BendersTree(g, root="p")
        prob = StageProblem(tree.stages["p"].subgraph, theta_count=1)
        assert prob.solve().objective == pytest.approx(-1e9)
        prob.add_cut(CutData("c", (x,), np.array([-1.0]), 1.0, np.array([0.0]), "benders", 1, 0))
        warm = prob.solve()  # the kept basis plus a basic slack on the cut row
        cold = default_solver().solve_lp(prob.problem())
        assert warm.objective == pytest.approx(cold.objective) == pytest.approx(0.0)
        np.testing.assert_allclose(warm.primal, cold.primal)

    def test_infeasible_subproblem_error_suggests_slacks(self):
        g = Graph("g")
        parent = Graph("p")
        x = parent.add_node("pn").add_variable("x", lower=0.0, upper=1.0)
        g.add_subgraph(parent)
        child = Graph("c")
        y = child.add_node("cn").add_variable("y", lower=0.0, upper=0.25)
        g.add_subgraph(child)
        g.add_link_constraint(y - x, "eq", 0.0)  # infeasible once x > 0.25... and x ends at 0
        g.add_link_constraint(y + x, "ge", 2.0)  # unsatisfiable: 1.25 max
        with pytest.raises(SubproblemInfeasibleError, match="slack"):
            run_decomposition(g, root="p")

    @pytest.mark.parametrize("free_in, context", [("c", "the forward pass"), ("p", "the root solve")])
    def test_an_unbounded_stage_raises_an_error_naming_it(self, free_in, context):
        with pytest.raises(UnboundedError, match=f"stage '{free_in}' unbounded during {context}"):
            run_decomposition(unbounded_stage_graph(free_in), root="p")


class TestKeptLagrangianProblem:
    """Ascent steps re-solve one kept problem whose objective alone moves."""

    def test_it_matches_a_freshly_assembled_problem(self):
        # rooted at b1, stage b2 has fixing rows from b1 and a theta for b3
        tree = BendersTree(mini_pcm_fixture(), root="b1")
        st = tree.stages["b2"]

        def make():
            return StageProblem(st.subgraph, st.relocated, theta_count=1, add_slacks=True)

        kept = make()
        rng = np.random.default_rng(7)
        anchor = np.array([8.0])
        b3 = tree.stages["b3"]
        refs = tuple(StageProblem(b3.subgraph, b3.relocated).fixed_refs)  # b2's state of charge
        cut = CutData("b3", refs, np.full(len(refs), -3.0), 40.0, np.full(len(refs), 5.0), "lagrangian", 1, 0)
        for step in range(8):
            if step == 4:  # a cut adds a row, so the kept problem is rebuilt
                kept.add_cut(cut)
            mu = rng.uniform(-20.0, 20.0, len(kept.fixed_refs))
            fresh = make()
            for old in kept.cuts:
                fresh.add_cut(old)
            expected = fresh.lagrangian_problem(mu, anchor)
            problem = kept.lagrangian_problem(mu, anchor)
            np.testing.assert_array_equal(problem.objective, expected.objective)
            assert problem.objective_constant == expected.objective_constant
            np.testing.assert_array_equal(problem.dense_rows(), expected.dense_rows())
            res = kept.solve_lagrangian(mu, anchor)  # from the last step's root basis
            assert res.status == "optimal"
            assert res.objective == pytest.approx(solve_milp(expected).objective, rel=1e-9, abs=1e-9)

    def test_no_lagrangian_step_starts_cold(self, monkeypatch):
        cold_starts, steps = Counter(), []
        solve_lagrangian = StageProblem.solve_lagrangian

        def counted(prob, mu, anchor, solver=None):
            before = len(recorder.starts)
            res = solve_lagrangian(prob, mu, anchor, solver)
            cold_starts[prob.graph.id, len(prob.cuts)] += recorder.counts(before)["logical"]
            steps.append(prob.graph.id)
            return res

        monkeypatch.setattr(StageProblem, "solve_lagrangian", counted)
        recorder = StartRecorder()
        res = run_decomposition(mini_pcm_fixture(), root="b2",
                                config=BendersConfig(lagrangian=True, add_slacks=True), solver=recorder)
        assert res.status == "converged"
        assert not any(cold_starts.values())  # a stage's first step starts from its forward solve's basis
        assert len(steps) >= 10 * len(cold_starts)


def free_state_chain():
    """mini_pcm's shape over 6 periods in 3 blocks, whose state of charge has no lower bound.

    A row keeps each state at or above 0, so a stage's copy of its parent's
    state unpins, in a Lagrangian step, to ``(-inf, 20]``: a column with an
    upper bound only, which rests complemented there, where a pinned copy
    rests at its lower bound.
    """
    graph, nodes = Graph("free_state"), []
    for t, demand in enumerate([4.0, 9.0, 16.0, 22.0, 12.0, 6.0], 1):
        node = graph.add_node(f"t{t}")
        p, on = node.add_variable("p", 0.0, 10.0), node.add_variable("on", 0.0, 1.0, "binary")
        charge, discharge = node.add_variable("charge", 0.0, 5.0), node.add_variable("discharge", 0.0, 5.0)
        soc, shed = node.add_variable("soc", upper=20.0), node.add_variable("shed", 0.0)
        node.add_constraint(1.0 * soc, "ge", 0.0)
        node.add_constraint(p - 10.0 * on, "le", 0.0)
        node.add_constraint(p + discharge - charge + shed, "eq", demand)
        node.set_objective(p + 2.0 * on + 500.0 * shed)
        nodes.append(node)
    nodes[0].add_constraint(1.0 * nodes[0].var("soc"), "eq", 10.0)
    for prev, node in zip(nodes, nodes[1:]):
        graph.add_link_constraint(node.var("soc") - prev.var("soc") - 0.9 * node.var("charge")
                                  + node.var("discharge"), "eq", 0.0)
    apply_partition(graph, {f"t{t}": f"b{(t + 1) // 2}" for t in range(1, 7)})
    return graph


def pcm_milp_run(seed=1):
    """The benchmark's ``pcm_milp`` model built from ``default_rng(seed)``, as Benders runs it."""
    graph, membership = generators.pcm_milp_build(generators.pcm_milp_data(np.random.default_rng(seed)))
    apply_partition(graph, membership)
    return graph, "b2", BendersConfig(lagrangian=True, lagrangian_iters=15, add_slacks=True, theta_lb=-1e9)


def gated_model(workload, seed, index):
    """Model ``index`` of a gated benchmark workload at ``seed``, with the benchmark's root and config."""
    data, build, root, config = {
        "storage_lp": (generators.storage_lp_data, generators.storage_lp_build, "design",
                       BendersConfig(add_slacks=True)),
        "pcm_milp": (generators.pcm_milp_data, generators.pcm_milp_build, "b2",
                     BendersConfig(lagrangian=True, lagrangian_iters=15, add_slacks=True)),
    }[workload]
    graph, membership = build(data(np.random.default_rng([seed, index])))
    return apply_partition(graph, membership), root, config


GATED = [(w, seed, index) for w in ("storage_lp", "pcm_milp") for seed in (1, 2, 3) for index in range(4)]


class TestOneKeptBasisPerStage:
    """Every solve of a stage starts from its last optimal basis, bordered with the cuts added since."""

    @pytest.mark.parametrize("model", [
        lambda: (partitioned_storage(), "design", BendersConfig(add_slacks=True)),
        lambda: (mini_pcm_fixture(), "b2", BendersConfig(lagrangian=True, add_slacks=True)),
        pcm_milp_run,
    ], ids=["storage", "mini_pcm", "pcm_milp"])
    def test_a_benders_call_builds_no_tableau_by_gauss_jordan(self, model):
        """Only a start from a kept tableau that broke down is rebuilt (mini_pcm has some)."""
        graph, root, config = model()
        recorder = StartRecorder()
        res = run_decomposition(graph, root, config, solver=recorder)
        assert res.status == "converged"
        starts = recorder.counts()
        assert starts["crash"] == 0
        assert starts["bordered"] >= 1

    def test_a_copy_with_no_lower_bound_re_solves_from_the_kept_tableau(self):
        """Pinning and unpinning a copy moves where it rests, not the tableau's layout: no build."""
        recorder = StartRecorder()
        res = run_decomposition(free_state_chain(), "b1", BendersConfig(lagrangian=True, add_slacks=True),
                                solver=recorder)
        assert res.status == "converged"
        assert res.objective == pytest.approx(solve_flat(free_state_chain())[0].objective, rel=1e-9)
        starts = recorder.counts()
        assert starts["crash"] == 0
        assert starts["logical"] <= 3

    def test_a_cut_after_a_lagrangian_step_re_solves_from_the_kept_tableau(self):
        st = BendersTree(free_state_chain(), root="b1").stages["b2"]
        prob = StageProblem(st.subgraph, st.relocated, theta_count=1, add_slacks=True)
        prob.set_fixed_values([10.0])
        assert prob.solve().status == "optimal"
        assert prob.solve_lagrangian(np.array([1.5]), np.array([10.0])).status == "optimal"
        refs = tuple(r for r in prob.columns if r.qualified_name == "t4.soc")  # b3's copy reads it
        prob.add_cut(CutData("b3", refs, np.array([-40.0]), 50.0, np.array([5.0]), "lagrangian", 1, 0))
        recorder = StartRecorder()
        res = prob.solve(recorder)  # from the Lagrangian step's tableau, bordered with the cut
        assert res.starts == ("bordered",)
        assert set(recorder.counts()) <= {"kept", "bordered"}
        assert res.objective == pytest.approx(solve_milp(prob.problem()).objective, rel=1e-9)

    def test_every_lp_optimum_of_a_pcm_milp_run_meets_its_rows(self, monkeypatch):
        """``theta_lb = -1e9`` reaches every basic value through B^-1 b'; the refined optimum keeps none of it."""
        worst = []
        optimal = simplex._optimal

        def checked(problem, *args):
            res = optimal(problem, *args)
            _, sign = problem.row_signs()
            excess = sign * (problem.dense_rows() @ res.primal - problem.rhs)
            eq = np.array([sense == "eq" for sense in problem.senses], dtype=bool)
            worst.append(float(np.max(np.where(eq, np.abs(excess), excess), initial=0.0)))
            return res

        monkeypatch.setattr(simplex, "_optimal", checked)
        for seed in (1, 2, 3):  # a run reaches only 9 LP optima once the skipped solves are gone
            graph, root, config = pcm_milp_run(seed)
            assert run_decomposition(graph, root, config).status == "converged"
        assert len(worst) >= 10
        assert max(worst) <= 1e-9

    def test_a_stage_dedups_a_cut_only_against_its_own_child_and_theta(self):
        g, x, _ = toy_two_stage()
        prob = StageProblem(BendersTree(g, root="p").stages["p"].subgraph, theta_count=2)

        def cut(child, theta, phi, anchor=0.0):
            return CutData(child, (x,), np.array([-1.0]), phi, np.array([anchor]), "benders", 1, theta)

        for phi in (1.0, 2.0, 3.0):
            prob.add_cut(cut("c", 0, phi))
            prob.add_cut(cut("d", 1, phi))
        with mock.patch.object(CutData, "same_hyperplane", autospec=True,
                               side_effect=CutData.same_hyperplane) as compared:
            assert prob.has_equivalent_cut(cut("c", 0, 0.0, anchor=1.0))  # the first cut, anchored elsewhere
            assert not prob.has_equivalent_cut(cut("c", 0, 4.0))
            assert not prob.has_equivalent_cut(cut("c", 1, 1.0))  # no cut on theta 1 from child c
        assert compared.call_count == 1 + 3 + 0


class TestLagrangianAscent:
    """Polyak steps toward the stage's forward-pass value, stopped when they reach it."""

    def test_pcm_milp_makes_no_ascent_and_no_lagrangian_solve(self, monkeypatch):
        # every pcm_milp stage's root relaxation reaches v*, so each cut is certified by its relaxation
        ascents, steps = [], []
        ascent, solve_lagrangian = benders._lagrangian_ascent, StageProblem.solve_lagrangian

        def counted_ascent(prob, lam, anchor, target, max_steps, solver):
            ascents.append(max_steps)
            return ascent(prob, lam, anchor, target, max_steps, solver)

        def counted_step(prob, mu, anchor, solver=None):
            steps.append(prob.graph.id)
            return solve_lagrangian(prob, mu, anchor, solver)

        monkeypatch.setattr(benders, "_lagrangian_ascent", counted_ascent)
        monkeypatch.setattr(StageProblem, "solve_lagrangian", counted_step)
        graph, root, config = pcm_milp_run()
        res = run_decomposition(graph, root=root, config=config)
        assert res.status == "converged"
        assert {cut.kind for cut in res.cuts} == {"lagrangian"}
        assert (ascents, steps) == ([], [])

    def test_an_ascent_that_reaches_its_target_stops_there(self, chain3_graph, monkeypatch):
        st = BendersTree(chain3_graph, root="g1").stages["g3"]
        prob = StageProblem(st.subgraph, st.relocated)
        anchor = np.array([1.0])
        prob.set_fixed_values(anchor)
        lam = prob.fixing_duals(prob.solve(relax=True))
        first = solve_milp(prob.lagrangian_problem(lam, anchor)).objective  # L(lam) = 2.3, v* = 2.6
        steps = []
        solve_lagrangian = StageProblem.solve_lagrangian
        monkeypatch.setattr(StageProblem, "solve_lagrangian",
                            lambda p, mu, a, solver=None: steps.append(mu) or solve_lagrangian(p, mu, a, solver))
        phi, mu = _lagrangian_ascent(prob, lam, anchor, first, 15, default_solver())
        assert (phi, len(steps)) == (pytest.approx(first, rel=1e-9), 1)
        np.testing.assert_array_equal(mu, lam)
        phi, _ = _lagrangian_ascent(prob, lam, anchor, prob.solve().objective, 15, default_solver())
        assert len(steps) > 2 and phi == pytest.approx(2.6)  # a target above L(lam) takes more steps

    def test_mini_pcm_from_b1_converges(self):
        mono, _ = solve_flat(mini_pcm_fixture())
        assert mono.objective == pytest.approx(339.5556, rel=1e-6)  # HiGHS's optimum
        res = run_decomposition(mini_pcm_fixture(), "b1",
                                BendersConfig(lagrangian=True, add_slacks=True, max_iters=20))
        assert res.status == "converged"
        assert res.objective == pytest.approx(mono.objective, rel=1e-6)
        assert_bound_histories(res)

    def test_a_strengthened_cut_is_one_lagrangian_step(self, chain3_graph):
        res = run_decomposition(chain3_graph, root="g1", config=BendersConfig(strengthened=True, max_iters=5))
        leaf_cuts = [cut for cut in res.cuts if cut.child_id == "g3"]
        assert leaf_cuts and {cut.kind for cut in leaf_cuts} == {"strengthened"}
        leaf = rebuild_stage_problem(res, "g3")
        for cut in leaf_cuts:  # its value is one Lagrangian MILP at its own multipliers
            value = solve_milp(leaf.lagrangian_problem(cut.pi, cut.anchor)).objective
            assert cut.phi == pytest.approx(value, rel=1e-9, abs=1e-9)


class CountingSolver(SimplexSolver):
    """The built-in solver, counting its LP and MILP solves and the MILPs' nodes."""

    def __init__(self):
        super().__init__()
        self.lps = self.milps = self.nodes = 0

    def solve_lp(self, problem):
        self.lps += 1
        return super().solve_lp(problem)

    def solve_milp(self, problem):
        res = super().solve_milp(problem)
        self.milps += 1
        self.nodes += res.nodes_explored
        return res


def without_skips(monkeypatch):
    """Patch both skips out: every stage solve runs, and every MIP stage's ascent runs."""
    solve, child_cut = StageProblem.solve, _Decomposition._child_cut

    def every_solve(prob, solver=None, relax=False):
        prob._last.clear()
        return solve(prob, solver, relax)

    monkeypatch.setattr(StageProblem, "solve", every_solve)
    monkeypatch.setattr(_Decomposition, "_child_cut",
                        lambda dec, gid, result, target, iteration, own: child_cut(dec, gid, result, target,
                                                                                   iteration, False))


class TestSkippedStageSolves:
    """A tight MIP relaxation is its own Lagrangian cut, and an unchanged stage keeps its last result."""

    def test_an_unchanged_stage_returns_its_last_result(self, chain3_graph):
        st = BendersTree(chain3_graph, root="g1").stages["g2"]  # a MIP stage with a child
        prob = StageProblem(st.subgraph, st.relocated, theta_count=1)
        solver = CountingSolver()
        prob.set_fixed_values([0.0])
        first = prob.solve(solver)
        prob.set_fixed_values([0.0])
        assert prob.solve(solver) is first and solver.milps == 1
        assert prob.solve(solver, relax=True) is first.relaxation  # the MILP's root relaxation, kept with it
        assert prob.solve(solver) is first and solver.milps == 1
        prob.set_fixed_values([-0.0])  # the same value, but not the same bits
        again = prob.solve(solver)
        assert again is not first and solver.milps == 2
        assert prob.solve_lagrangian(np.array([1.0]), np.array([0.0]), solver).status == "optimal"
        assert prob.solve(solver) is not again and solver.milps == 4  # the kept basis moved
        refs = tuple(r for r in prob.columns if r.qualified_name == "n2.x")
        prob.add_cut(CutData("g3", refs, np.array([-1.0]), 2.0, np.array([0.0]), "benders", 1, 0))
        after = prob.solve(solver)
        assert solver.milps == 5
        assert after.objective == pytest.approx(solve_milp(prob.problem()).objective, rel=1e-9)

    def test_a_milp_keeps_its_root_relaxation_as_the_stage_s_lp(self, chain3_graph):
        st = BendersTree(chain3_graph, root="g1").stages["g2"]  # a MIP stage with a child
        prob = StageProblem(st.subgraph, st.relocated, theta_count=1)
        solver = CountingSolver()
        prob.set_fixed_values([0.0])
        milp = prob.solve(solver)
        assert prob.solve(solver, relax=True) is milp.relaxation and (solver.lps, solver.milps) == (0, 1)
        refs = tuple(r for r in prob.columns if r.qualified_name == "n2.x")
        changes = {
            "new pins": lambda: prob.set_fixed_values([1.0]),
            "a cut": lambda: prob.add_cut(CutData("g3", refs, np.array([-1.0]), 2.0, np.array([0.0]),
                                                  "benders", 1, 0)),
            "a Lagrangian step": lambda: prob.solve_lagrangian(np.array([1.0]), np.array([1.0]), solver),
        }
        for k, (change, make) in enumerate(changes.items(), start=1):
            milp = prob.solve(solver)
            make()
            relaxed = prob.solve(solver, relax=True)
            assert relaxed is not milp.relaxation and solver.lps == k, change
            assert prob.solve(solver, relax=True) is relaxed and solver.lps == k, change

    def test_an_lp_stage_is_its_own_relaxation(self):
        g, _, _ = toy_two_stage()
        st = BendersTree(g, root="p").stages["c"]
        prob = StageProblem(st.subgraph, st.relocated)
        solver = CountingSolver()
        prob.set_fixed_values([0.25])
        forward = prob.solve(solver)
        assert not prob.is_mip and forward.relaxation is None
        assert prob.solve(solver, relax=True) is forward and solver.lps == 1

    def test_a_pcm_milp_call_solves_each_stage_milp_once_per_change(self):
        graph, root, config = pcm_milp_run()
        solver = CountingSolver()
        res = run_decomposition(graph, root, config, solver=solver)
        assert (res.status, res.iterations, len(res.cuts)) == ("converged", 4, 3)
        # 4 root and 8 forward MILPs, less 3 forward solves at the previous pins; no Lagrangian MILP
        assert (solver.milps, solver.nodes) == (9, 9)

    @pytest.mark.parametrize("seed, index", [(seed, index) for seed in (1, 2, 3) for index in range(4)])
    def test_every_certified_cut_is_the_ascent_s_own(self, monkeypatch, seed, index):
        """Where a relaxation certifies a cut, the ascent at the same point returns that cut."""
        ascent, child_cut = benders._lagrangian_ascent, _Decomposition._child_cut
        ascents, certified = [], []

        def checked(dec, gid, result, target, iteration, own):
            cut = child_cut(dec, gid, result, target, iteration, own)
            prob = dec.problems[gid]
            kept = prob._basis  # the ascent moves the stage's basis; the run must not see that
            phi, mu = ascent(prob, cut.pi, cut.anchor, target, 15, dec.solver)
            prob._basis = kept
            assert phi == pytest.approx(cut.phi, rel=1e-9)
            np.testing.assert_array_equal(mu, cut.pi)
            certified.append(cut.kind)
            return cut

        monkeypatch.setattr(benders, "_lagrangian_ascent", lambda *args: ascents.append(args) or ascent(*args))
        monkeypatch.setattr(_Decomposition, "_child_cut", checked)
        graph, root, config = gated_model("pcm_milp", seed, index)
        res = run_decomposition(graph, root, config)
        assert res.status == "converged"
        assert ascents == [] and certified == ["lagrangian"] * 6

    @pytest.mark.parametrize("model", [
        *[lambda w=w, seed=seed, index=index: gated_model(w, seed, index) for w, seed, index in GATED],
        lambda: (mini_pcm_fixture(), "b1", BendersConfig(lagrangian=True, add_slacks=True, max_iters=20)),
        lambda: (mini_pcm_fixture(), "b2", BendersConfig(lagrangian=True, add_slacks=True)),
        lambda: (chain3_fixture(), "g1", BendersConfig(strengthened=True)),
    ], ids=[f"{w}-{seed}-{index}" for w, seed, index in GATED] + ["mini_pcm-b1", "mini_pcm-b2", "chain3"])
    def test_a_run_without_the_skips_is_the_same_run(self, monkeypatch, model):
        res = run_decomposition(*model())
        with monkeypatch.context() as patch:
            without_skips(patch)
            every = run_decomposition(*model())
        assert (res.status, res.iterations, len(res.cuts)) == (every.status, every.iterations, len(every.cuts))
        np.testing.assert_allclose(res.lb_history, every.lb_history, rtol=1e-9)
        np.testing.assert_allclose(res.ub_history, every.ub_history, rtol=1e-9)
        assert [cut.kind for cut in res.cuts] == [cut.kind for cut in every.cuts]


class TestCuts:
    def test_textbook_cut_on_the_toy(self):
        g, x, y = toy_two_stage()
        res = run_decomposition(g, root="p")
        assert res.status == "converged"
        assert res.iterations == 2
        assert res.objective == pytest.approx(0.0)
        cut = res.cuts[0]
        assert cut.kind == "benders"
        assert [r.qualified_name for r in cut.refs] == ["pn.x"]
        np.testing.assert_allclose(cut.pi, [-1.0])
        assert cut.phi == pytest.approx(1.0 - cut.anchor[0])
        for probe in (0.0, 0.3, 1.0):
            assert cut.predicted_value(np.array([probe])) == pytest.approx(1.0 - probe)

    def test_cuts_are_tangent_at_their_anchors_for_lp_children(self, cem_graph):
        res = run_decomposition(
            cem_graph, root="planning", config=BendersConfig(multicut=True)
        )
        tree = res.tree
        checked = 0
        for cut in res.cuts:
            if "+" in cut.child_id:
                continue  # combined cuts are sums, not single evaluations
            st = tree.stages[cut.child_id]
            prob = StageProblem(st.subgraph, st.relocated)
            order = {ref: k for k, ref in enumerate(cut.refs)}
            prob.set_fixed_values([cut.anchor[order[r]] for r in prob.fixed_refs])
            value = prob.solve(relax=True).objective
            assert cut.phi == pytest.approx(value, rel=1e-7, abs=1e-7)
            checked += 1
        assert checked >= 3

    def test_a_mip_stage_takes_its_cut_from_the_milp_root_relaxation(self, chain3_graph, monkeypatch):
        """Without a cut added since the forward pass, the stage answers the backward pass with no solve."""
        dec = _Decomposition(chain3_graph, "g1", BendersConfig(), default_solver())
        results = dec.forward(dec.problems["g1"].solve())
        leaf = dec.problems["g3"]
        assert leaf.is_mip and not leaf.theta_cols
        answers = {}
        stage_solve = StageProblem.solve

        def recorded(prob, solver=None, relax=False):
            answers[prob.graph.id] = stage_solve(prob, solver, relax)
            return answers[prob.graph.id]

        monkeypatch.setattr(StageProblem, "solve", recorded)
        assert dec.backward(results, 1) == 2
        assert list(answers) == ["g3", "g2"]  # the backward pass asks every stage below the root
        assert answers["g3"] is results["g3"].relaxation  # the forward MILP's own, with no solve
        assert answers["g2"] is not results["g2"].relaxation  # g2 got g3's cut, so it solved afresh
        cut = dec.cuts[0]
        assert cut.child_id == "g3"
        relaxed = stage_solve(leaf, relax=True)
        np.testing.assert_array_equal(cut.pi, leaf.fixing_duals(relaxed))
        assert cut.phi == relaxed.objective

    def test_cut_family_dominance_on_a_mip_child(self, chain3_graph):
        tree = BendersTree(chain3_graph, root="g1")
        st = tree.stages["g3"]
        prob = StageProblem(st.subgraph, st.relocated)
        anchor = np.array([1.0])
        prob.set_fixed_values(anchor)
        relaxed = prob.solve(relax=True)
        phi_b = relaxed.objective
        lam = prob.fixing_duals(relaxed)
        phi_s = solve_milp(prob.lagrangian_problem(lam, anchor)).objective
        exact = prob.solve().objective
        phi_l, _ = _lagrangian_ascent(prob, lam, anchor, exact, BendersConfig().lagrangian_iters, default_solver())
        assert phi_b == pytest.approx(2.3)
        assert phi_s == pytest.approx(2.3)
        assert phi_l == pytest.approx(2.6)
        assert phi_b <= phi_s + 1e-9 <= phi_l + 2e-9
        assert phi_l <= exact + 1e-9  # the Lagrangian bound never overshoots

    def test_strengthened_cuts_stay_valid_underestimators(self, chain3_graph):
        config = BendersConfig(lagrangian=True, max_iters=20)
        res = run_decomposition(chain3_graph, root="g1", config=config)
        kinds = {cut.kind for cut in res.cuts}
        assert "lagrangian" in kinds or "strengthened" in kinds
        rng = np.random.default_rng(5)
        checked = 0
        for cut in res.cuts:
            for _ in range(10):
                probe = np.array(
                    [rng.uniform(r.lower, min(r.upper, 3.0)) for r in cut.refs]
                )
                by_ref = dict(zip(cut.refs, probe))
                value = downstream_model_value(res, cut, by_ref)
                if value is None:
                    continue
                assert cut.predicted_value(probe) <= value + 1e-7 * max(1.0, abs(value))
                checked += 1
        assert checked >= 20

    def test_multicut_gets_one_theta_per_child(self, cem_graph):
        res = run_decomposition(
            cem_graph, root="planning", config=BendersConfig(multicut=True)
        )
        assert res.status == "converged"
        indices = {cut.theta_index for cut in res.cuts}
        assert indices == {0, 1, 2}

    def test_aggregated_cuts_combine_all_children(self, cem_graph):
        res = run_decomposition(cem_graph, root="planning")
        assert all(cut.theta_index == 0 for cut in res.cuts)
        assert any(cut.child_id.count("+") == 2 for cut in res.cuts)

    def test_multicut_and_aggregated_reach_the_same_optimum(self, cem_graph):
        agg = run_decomposition(cem_graph, root="planning")
        mc = run_decomposition(
            mini_cem_fixture(), root="planning", config=BendersConfig(multicut=True)
        )
        assert agg.status == mc.status == "converged"
        assert mc.objective == pytest.approx(agg.objective, rel=1e-6)
        # the per-child model needs no more iterations on this fixture
        assert mc.iterations <= agg.iterations
        assert_bound_histories(agg)
        assert_bound_histories(mc)


class TestConvergence:
    def test_storage_needs_elastic_slacks(self):
        g = partitioned_storage()
        with pytest.raises(SubproblemInfeasibleError):
            run_decomposition(g, root="design")

    def test_storage_converges_with_slacks(self):
        g = partitioned_storage()
        mono, _ = solve_flat(g)
        res = run_decomposition(g, root="design", config=BendersConfig(add_slacks=True))
        assert res.status == "converged"
        assert res.objective == pytest.approx(mono.objective, rel=1e-6)
        assert res.iterations <= 25
        assert not res.flags["slacks_active"]
        assert not res.flags["theta_lower_bound_active"]
        assert_bound_histories(res)

    def test_three_level_chain_converges(self, chain3_graph):
        res = run_decomposition(
            chain3_graph, root="g1", config=BendersConfig(lagrangian=True)
        )
        assert res.status == "converged"
        assert res.objective == pytest.approx(5.8)
        assert res.tree.n_levels == 3
        assert_bound_histories(res)

    def test_root_choice_does_not_change_the_optimum(self, cem_graph):
        objectives = []
        for root in ("planning", "ops1", "ops3"):
            res = run_decomposition(mini_cem_fixture(), root=root)
            assert res.status == "converged", root
            objectives.append(res.objective)
            assert_bound_histories(res)
        assert objectives[1] == pytest.approx(objectives[0], rel=1e-6)
        assert objectives[2] == pytest.approx(objectives[0], rel=1e-6)

    def test_max_iterations_status(self, cem_graph):
        res = run_decomposition(cem_graph, root="planning", config=BendersConfig(max_iters=2))
        assert res.status == "max_iterations"
        assert res.iterations == 2
        assert math.isfinite(res.upper_bound)

    def test_best_iterate_is_kept_not_the_last(self, cem_graph):
        res = run_decomposition(cem_graph, root="planning")
        costs = [rec.iteration_cost for rec in res.trace]
        assert res.upper_bound == pytest.approx(min(costs))
        assert res.best_iteration == costs.index(min(costs)) + 1
        assert res.objective == res.upper_bound
        assert res.max_violation <= 1e-6

    @pytest.mark.parametrize("model", [
        lambda: (partitioned_storage(), "design", BendersConfig(add_slacks=True)),
        pcm_milp_run,
    ], ids=["storage", "pcm_milp"])
    def test_the_best_solution_is_built_once(self, model, monkeypatch):
        """From the best iteration's stage results, after the loop: one ``own_solution`` call per stage."""
        graph, root, config = model()
        calls = Counter()
        own_solution = StageProblem.own_solution

        def counted(prob, result):
            calls[prob.graph.id] += 1
            return own_solution(prob, result)

        monkeypatch.setattr(StageProblem, "own_solution", counted)
        res = run_decomposition(graph, root, config)
        assert res.status == "converged"
        assert calls == Counter(res.tree.order)
        assert set(res.solution) == set(graph.all_variables())
        assert res.max_violation == check_solution(graph, res.solution) <= 1e-6
        assert not res.flags["slacks_active"]

    def test_solution_covers_every_variable(self, cem_graph):
        res = run_decomposition(cem_graph, root="planning")
        missing = [r for r in mini_cem_fixture().all_variables() if r not in res.solution]
        assert not missing

    def test_warm_start_on_a_pure_lp_reaches_the_monolithic_bound_immediately(self):
        g = partitioned_storage()
        mono, _ = solve_flat(g)
        res = run_decomposition(
            g, root="design", config=BendersConfig(add_slacks=True, warm_start_cuts=True)
        )
        assert res.lb_history[0] == pytest.approx(mono.objective, rel=1e-6)
        assert res.status == "converged"

    def test_warm_start_never_hurts_the_first_bound_on_a_mip(self, chain3_graph):
        plain = run_decomposition(
            chain3_fixture(), root="g1", config=BendersConfig(max_iters=1)
        )
        warm = run_decomposition(
            chain3_graph,
            root="g1",
            config=BendersConfig(max_iters=1, warm_start_cuts=True),
        )
        assert warm.lb_history[0] >= plain.lb_history[0] - 1e-9


class TestStall:
    """An iteration that adds no cut would repeat itself forever: the run stops."""

    def test_lp_cuts_on_mip_children_stall(self, chain3_graph):
        res = run_decomposition(
            chain3_graph, root="g2", config=BendersConfig(multicut=True, strengthened=True)
        )
        assert res.status == "stalled"
        assert [rec.cuts_added for rec in res.trace] == [2, 0]
        assert len(res.cuts) == 2
        assert res.objective == pytest.approx(5.8)
        assert res.lower_bound < res.objective - 0.1
        assert "MIPs" in res.message and "try lagrangian cuts" in res.message

    def test_mini_pcm_from_b1_stalls(self):
        res = run_decomposition(mini_pcm_fixture(), root="b1")
        assert res.status == "stalled"
        # the stall is found within a few iterations, not after a 100-iteration spin
        assert res.trace[-1].cuts_added == 0 and len(res.trace) <= 5
        assert_bound_histories(res)
        assert "strengthened or lagrangian" in res.message
        assert res.max_violation <= 1e-6

    def test_the_first_iteration_without_a_cut_ends_the_run(self):
        # with no new cut the root problem, and so its iterate, is unchanged
        res = run_decomposition(chain3_fixture(), root="g2", config=BendersConfig())
        assert res.status == "stalled"
        assert [rec.cuts_added for rec in res.trace] == [1, 0]
        assert res.message.startswith("iteration 2 added no cut, so every later iteration would repeat it;")
        assert res.objective == pytest.approx(5.8)
        assert res.lower_bound == pytest.approx(5.5)
        assert_bound_histories(res)


class TestIterationLimit:
    """A stage solve that stops without a verdict is an error, never a result."""

    @pytest.mark.parametrize(
        "real_solves, stage, context",
        [(0, "design", "the root solve"), (1, "operations", "the forward pass")],
    )
    def test_a_stage_at_the_iteration_limit_raises(self, real_solves, stage, context):
        class StopsLater:
            """The built-in solver for ``real_solves`` calls, then out of iterations."""

            calls = 0

            def solve_lp(self, problem):
                self.calls += 1
                if self.calls > real_solves:
                    return SolveResult(status="iteration_limit", iterations=7)
                return default_solver().solve_lp(problem)

            solve_milp = solve_lp

        with pytest.raises(IterationLimitError, match=f"stage '{stage}'.*iteration_limit.*{context}"):
            run_decomposition(partitioned_storage(), root="design", solver=StopsLater())

    @pytest.mark.parametrize(
        "status, error", [("iteration_limit", IterationLimitError), ("infeasible", RelaxationInfeasibleError)]
    )
    def test_the_warm_start_relaxation_raises_what_its_status_says(self, status, error):
        """Only an infeasible relaxation is reported as infeasible (CLI exit 3); a limit exits 2."""

        class Stops:
            def solve_lp(self, problem):
                return SolveResult(status=status, iterations=7)

            solve_milp = solve_lp

        with pytest.raises(error, match=f"monolithic relaxation.*{status}"):
            run_decomposition(partitioned_storage(), root="design",
                              config=BendersConfig(add_slacks=True, warm_start_cuts=True), solver=Stops())


class TestConfigAndGap:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BendersConfig(max_iters=0)
        with pytest.raises(ValueError):
            BendersConfig(tol=0.0)
        # a penalty that rewards slack, or a theta with no floor, gives a wrong
        # optimum or an unbounded root, never the problem's own optimum
        for penalty in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="slack_penalty must be positive"):
                BendersConfig(add_slacks=True, slack_penalty=penalty)
        with pytest.raises(ValueError, match="slack_penalty must be finite"):
            BendersConfig(add_slacks=True, slack_penalty=math.inf)
        with pytest.raises(ValueError, match="tol must be positive"):
            BendersConfig(tol=math.nan)  # a NaN gap test never converges, and the run only stalls
        for floor in (-math.inf, math.nan):
            with pytest.raises(ValueError, match="theta_lb must be finite"):
                BendersConfig(theta_lb=floor)

    def test_a_lagrangian_ascent_takes_at_least_one_step(self):
        # with no step, every Lagrangian or strengthened cut would silently be a plain one
        with pytest.raises(ValueError, match="lagrangian_iters"):
            BendersConfig(lagrangian_iters=0)
        assert BendersConfig(lagrangian_iters=1).lagrangian_iters == 1

    def test_relative_gap_conventions(self):
        assert _relative_gap(math.inf, 1.0) == math.inf
        assert _relative_gap(1.0, -math.inf) == math.inf
        assert _relative_gap(1.0, 0.0) == 1.0  # absolute fallback at zero
        assert _relative_gap(11.0, 10.0) == pytest.approx(0.1)
        assert _relative_gap(-9.0, -10.0) == pytest.approx(0.1)
