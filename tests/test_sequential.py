"""Sequential stage-by-stage solves and the parallel relaxation bound."""

import math

import pytest

from graphopt import (
    Graph,
    IterationLimitError,
    LocalNodesAtRootError,
    NoSubgraphsError,
    SolveResult,
    SubproblemInfeasibleError,
    UsageError,
)
from graphopt.benders import BendersTree
from graphopt.fixtures import mini_pcm_fixture, storage_fixture, storage_membership
from graphopt.sequential import relaxed_parallel_bound, sequential_solve
from graphopt.transform import apply_partition

from conftest import solve_flat


def triangle():
    g = Graph("tri")
    refs = {}
    for name in ("a", "b", "c"):
        sub = Graph(name)
        node = sub.add_node(f"{name}0")
        refs[name] = node.add_variable("x", lower=0.0, upper=2.0)
        node.set_objective(refs[name])
        g.add_subgraph(sub)
    g.add_link_constraint(refs["a"] + refs["b"], "ge", 1.0)
    g.add_link_constraint(refs["b"] + refs["c"], "ge", 1.0)
    g.add_link_constraint(refs["a"] + refs["c"], "ge", 1.0)
    return g


class TestSequentialSolve:
    def test_follows_the_given_order(self, chain3_graph):
        res = sequential_solve(chain3_graph, ["g1", "g2", "g3"])
        assert res.status == "optimal"
        assert res.order == ["g1", "g2", "g3"]
        assert [gid for gid, _ in res.stage_costs] == ["g1", "g2", "g3"]
        assert res.objective == pytest.approx(sum(c for _, c in res.stage_costs))
        assert res.max_violation <= 1e-9

    def test_default_order_is_declaration_order(self, chain3_graph):
        assert sequential_solve(chain3_graph).order == ["g1", "g2", "g3"]

    def test_never_beats_the_monolithic_optimum(self, chain3_graph):
        mono, _ = solve_flat(chain3_graph)
        res = sequential_solve(chain3_graph)
        assert res.objective >= mono.objective - 1e-9

    def test_earlier_stages_are_frozen(self, chain3_graph):
        res = sequential_solve(chain3_graph)
        solo, _ = solve_flat(chain3_graph.find_subgraph("g1"))
        x1 = chain3_graph.find_node("n1").var("x")
        y1 = chain3_graph.find_node("n1").var("y")
        assert res.stage_costs[0][1] == pytest.approx(solo.objective)
        assert solo.primal is not None
        assert res.solution[x1] * 1 + res.solution[y1] * 2 + res.solution[x1] * 0 >= 0  # present
        assert res.solution[x1] + res.solution[y1] >= 1.3 - 1e-9

    def test_cyclic_topology_is_fine_here(self):
        g = triangle()
        mono, _ = solve_flat(g)
        res = sequential_solve(g)
        assert mono.objective == pytest.approx(1.5)
        assert res.objective == pytest.approx(2.0)  # myopic stages pay for it

    def test_reversed_order_can_fail_without_slacks(self, chain3_graph):
        # g2 inherits x2 + y3 >= 2 with y3 already frozen small: x2 <= 1 cannot cover it
        with pytest.raises(SubproblemInfeasibleError, match="slack"):
            sequential_solve(chain3_graph, ["g3", "g2", "g1"])

    def test_reversed_order_survives_with_slacks(self, chain3_graph):
        mono, _ = solve_flat(chain3_graph)
        res = sequential_solve(chain3_graph, ["g3", "g2", "g1"], add_slacks=True)
        assert res.status == "optimal"
        assert res.objective >= mono.objective  # slack penalty keeps it above
        assert res.max_violation > 1e-6  # the stitched point is honestly infeasible

    def test_hyperedge_is_enforced_at_the_latest_stage(self):
        g = Graph("g")
        refs = []
        for name in ("a", "b", "c"):
            sub = Graph(name)
            node = sub.add_node(f"{name}0")
            refs.append(node.add_variable("x", lower=0.0, upper=2.0))
            node.set_objective(refs[-1])
            g.add_subgraph(sub)
        g.add_link_constraint(refs[0] + refs[1] + refs[2], "ge", 3.0)
        with pytest.raises(SubproblemInfeasibleError):
            sequential_solve(g)  # the last stage alone cannot reach 3
        soft = sequential_solve(g, add_slacks=True)
        assert soft.solution[refs[2]] == pytest.approx(2.0)
        assert soft.objective > 100.0  # slack penalty dominates

    def test_bad_orders_are_rejected(self, chain3_graph):
        with pytest.raises(UsageError):
            sequential_solve(chain3_graph, ["g1", "g2"])
        with pytest.raises(UsageError):
            sequential_solve(chain3_graph, ["g1", "g2", "g2"])
        with pytest.raises(UsageError):
            sequential_solve(chain3_graph, ["g1", "g2", "g3", "g4"])

    @pytest.mark.parametrize("penalty", [0.0, -1.0, math.nan])
    def test_a_penalty_that_does_not_charge_slack_is_rejected(self, chain3_graph, penalty):
        # a free or rewarded slack would relax every relocated edge away
        with pytest.raises(UsageError, match="slack_penalty must be positive"):
            sequential_solve(chain3_graph, add_slacks=True, slack_penalty=penalty)

    def test_flat_graph_is_rejected(self):
        g = Graph("flat")
        g.add_node("n").add_variable("x")
        with pytest.raises(NoSubgraphsError):
            sequential_solve(g)

    def test_root_local_nodes_are_rejected(self, chain3_graph):
        chain3_graph.add_node("loose").add_variable("z", lower=0, upper=1)
        with pytest.raises(LocalNodesAtRootError):
            sequential_solve(chain3_graph)

    def test_single_subgraph_equals_monolithic(self):
        g = Graph("g")
        sub = Graph("only")
        n = sub.add_node("n")
        x = n.add_variable("x", lower=1.0, upper=5.0)
        n.set_objective(2 * x)
        g.add_subgraph(sub)
        mono, _ = solve_flat(g)
        res = sequential_solve(g)
        assert res.objective == pytest.approx(mono.objective)
        assert res.max_violation <= 1e-12

    def test_storage_sequential_pins(self):
        g = apply_partition(storage_fixture(), storage_membership())
        mono, _ = solve_flat(g)
        res = sequential_solve(g, add_slacks=True)
        assert res.objective >= mono.objective - 1e-9
        # design first means zero storage, so operations pay the slack penalty
        assert res.stage_costs[0][0] == "design"

    def test_pcm_sequential_matches_the_pinned_value(self, pcm_graph):
        res = sequential_solve(pcm_graph, add_slacks=True)
        assert res.objective == pytest.approx(430.5555555556, rel=1e-9)
        assert res.max_violation <= 1e-9

    def test_benders_forward_order_reproduces_sequential(self, pcm_graph):
        tree = BendersTree(pcm_graph, root="b1")
        res = sequential_solve(mini_pcm_fixture(), tree.order, add_slacks=True)
        assert res.order == ["b1", "b2", "b3"]
        assert res.status == "optimal"


class TestRelaxedParallelBound:
    def test_bounds_the_monolithic_optimum_from_below(self, pcm_graph):
        mono, _ = solve_flat(pcm_graph)
        bound = relaxed_parallel_bound(pcm_graph)
        assert bound.status == "optimal"
        assert bound.objective <= mono.objective + 1e-9
        assert bound.objective == pytest.approx(232.0)

    def test_reports_violations_of_the_dropped_edges(self, pcm_graph):
        bound = relaxed_parallel_bound(pcm_graph)
        assert bound.max_violation == pytest.approx(20.0)

    def test_infeasible_stage_means_infeasible_problem(self):
        g = Graph("g")
        bad = Graph("bad")
        n = bad.add_node("n")
        x = n.add_variable("x", lower=0.0, upper=1.0)
        n.add_constraint(x, "ge", 2.0)
        g.add_subgraph(bad)
        ok = Graph("ok")
        ok.add_node("m").add_variable("y", lower=0.0, upper=1.0)
        g.add_subgraph(ok)
        with pytest.raises(SubproblemInfeasibleError):
            relaxed_parallel_bound(g)

    def test_unbounded_stage_gives_minus_infinity(self):
        g = Graph("g")
        wild = Graph("wild")
        n = wild.add_node("n")
        x = n.add_variable("x", lower=0.0)  # no upper bound
        n.set_objective(-1.0 * x)
        g.add_subgraph(wild)
        tame = Graph("tame")
        tame.add_node("m").add_variable("y", lower=0.0, upper=1.0)
        g.add_subgraph(tame)
        bound = relaxed_parallel_bound(g)
        assert bound.status == "unbounded"
        assert bound.objective == -math.inf


class TestStagesWithoutAnOptimum:
    """A stage that is unbounded or stops at the iteration limit."""

    def graph(self):
        # the first stage minimizes a variable with no lower bound
        g = Graph("g")
        wild = Graph("wild")
        n = wild.add_node("n")
        x = n.add_variable("x", upper=1.0)
        n.set_objective(1.0 * x)
        g.add_subgraph(wild)
        tame = Graph("tame")
        y = tame.add_node("m").add_variable("y", lower=0.0, upper=1.0)
        g.add_subgraph(tame)
        g.add_link_constraint(x + y, "le", 1.0)
        return g

    def test_an_unbounded_stage_makes_the_sequential_pass_unbounded(self):
        res = sequential_solve(self.graph(), ["wild", "tame"])
        assert res.status == "unbounded"
        assert res.objective == -math.inf
        assert res.stage_costs == [("wild", -math.inf)]

    @pytest.mark.parametrize("mode", ["sequential", "bound"])
    def test_a_stage_at_the_iteration_limit_raises(self, mode):
        class Stopping:
            def solve_lp(self, problem):
                return SolveResult(status="iteration_limit")

            solve_milp = solve_lp

        with pytest.raises(IterationLimitError, match="iteration_limit"):
            if mode == "sequential":
                sequential_solve(self.graph(), ["tame", "wild"], solver=Stopping())
            else:
                relaxed_parallel_bound(self.graph(), solver=Stopping())
