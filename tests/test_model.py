"""Graph/node/edge modelling layer and flattening."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphopt import (
    CycleInNestingError,
    DuplicateNameError,
    EmptyModelError,
    ForeignVariableError,
    Graph,
    IdCollisionError,
    InvalidBoundsError,
    LinearExpression,
    NotOwnedError,
    SingleNodeError,
    check_solution,
    flatten,
    linear,
)
from graphopt.solvers import solve_lp

from conftest import random_graph_instance, solve_flat


def two_node_graph():
    g = Graph("g")
    a = g.add_node("a")
    b = g.add_node("b")
    x = a.add_variable("x", lower=0.0, upper=2.0)
    y = b.add_variable("y", lower=0.0, upper=2.0)
    return g, a, b, x, y


class TestModelBuilding:
    def test_variables_and_constraints_register_on_the_node(self):
        g, a, b, x, y = two_node_graph()
        a.add_constraint(2 * x, "le", 3.0)
        a.set_objective(x)
        assert a.var("x") is x
        assert [v.name for v in a.variables] == ["x"]
        assert len(a.constraints) == 1
        assert a.constraints[0].sense == "le"

    def test_links_with_the_same_node_set_share_one_edge(self):
        g, a, b, x, y = two_node_graph()
        e1 = g.add_link_constraint(x + y, "le", 3.0)
        e2 = g.add_link_constraint(x - y, "eq", 0.0)
        assert e1 is e2
        assert len(g.local_edges()) == 1
        assert len(e1.constraints) == 2

    def test_links_with_different_node_sets_get_distinct_edges(self):
        g, a, b, x, y = two_node_graph()
        c = g.add_node("c")
        z = c.add_variable("z", lower=0.0, upper=1.0)
        g.add_link_constraint(x + y, "le", 3.0)
        g.add_link_constraint(y + z, "le", 3.0)
        g.add_link_constraint(x + y + z, "le", 4.0)
        assert len(g.local_edges()) == 3

    def test_nested_hierarchy_counts(self):
        root = Graph("root")
        g1, g2 = Graph("g1"), Graph("g2")
        root.add_subgraph(g1)
        root.add_subgraph(g2)
        for parent, count in ((g1, 2), (g2, 4)):
            for i in range(count):
                sub = Graph(f"{parent.id}_{i}")
                for k in range(3):
                    sub.add_node(f"{parent.id}_{i}_n{k}").add_variable("v", lower=0, upper=1)
                parent.add_subgraph(sub)
        assert len(root.all_nodes()) == 18
        assert len(root.all_subgraphs()) == 8
        assert root.local_nodes() == []
        assert root.depth() == 2

    def test_edge_ownership_follows_the_spanning_level(self):
        root = Graph("root")
        inner = Graph("inner")
        root.add_subgraph(inner)
        p = inner.add_node("p")
        q = inner.add_node("q")
        xp = p.add_variable("x")
        xq = q.add_variable("x")
        out = root.add_node("out")
        xo = out.add_variable("x")
        inner.add_link_constraint(xp + xq, "eq", 1.0)
        root.add_link_constraint(xp + xo, "le", 2.0)
        assert len(inner.local_edges()) == 1
        assert len(root.local_edges()) == 1
        assert len(root.all_edges()) == 2

    def test_effective_objective_defaults_to_node_sum(self):
        g, a, b, x, y = two_node_graph()
        a.set_objective(3 * x)
        b.set_objective(y + 1.0)
        eff = g.effective_objective()
        assert eff.terms[x] == 3.0
        assert eff.terms[y] == 1.0
        assert eff.constant == 1.0

    def test_explicit_graph_objective_overrides_node_sum(self):
        g, a, b, x, y = two_node_graph()
        a.set_objective(3 * x)
        g.set_objective(x - y)
        eff = g.effective_objective()
        assert eff.terms == {x: 1.0, y: -1.0}

    def test_find_helpers_and_qualified_lookup(self):
        g, a, b, x, y = two_node_graph()
        assert g.find_node("b") is b
        assert g.variable_by_qualified_name("a.x") is x


class TestModelErrors:
    def test_duplicate_variable_name(self):
        g = Graph("g")
        n = g.add_node("n")
        n.add_variable("x")
        with pytest.raises(DuplicateNameError):
            n.add_variable("x")

    def test_invalid_bounds(self):
        n = Graph("g").add_node("n")
        with pytest.raises(InvalidBoundsError):
            n.add_variable("x", lower=2.0, upper=1.0)
        with pytest.raises(InvalidBoundsError):
            n.add_variable("y", lower=math.nan)

    def test_binary_bounds_outside_unit_interval(self):
        n = Graph("g").add_node("n")
        with pytest.raises(InvalidBoundsError):
            n.add_variable("x", lower=2.0, upper=3.0, integrality="binary")

    def test_node_constraint_rejects_foreign_variable(self):
        g, a, b, x, y = two_node_graph()
        with pytest.raises(ForeignVariableError):
            a.add_constraint(x + y, "le", 1.0)

    def test_link_rejects_variable_outside_the_graph(self):
        g, a, b, x, y = two_node_graph()
        other = Graph("other")
        z = other.add_node("m").add_variable("z")
        with pytest.raises(NotOwnedError):
            g.add_link_constraint(x + z, "le", 1.0)

    def test_link_over_a_single_node_is_rejected(self):
        g, a, b, x, y = two_node_graph()
        with pytest.raises(SingleNodeError):
            g.add_link_constraint(2 * x, "le", 1.0)

    def test_nesting_cycles_are_rejected(self):
        g1, g2 = Graph("g1"), Graph("g2")
        g1.add_subgraph(g2)
        with pytest.raises(CycleInNestingError):
            g2.add_subgraph(g1)
        with pytest.raises(CycleInNestingError):
            g1.add_subgraph(g1)

    def test_id_collisions_are_rejected(self):
        root = Graph("root")
        root.add_subgraph(Graph("sub"))
        with pytest.raises(IdCollisionError):
            root.add_subgraph(Graph("sub"))
        root.add_node("n")
        clash = Graph("sub2")
        clash.add_node("n")
        with pytest.raises(IdCollisionError):
            root.add_subgraph(clash)

    def test_flatten_of_an_empty_graph_fails(self):
        with pytest.raises(EmptyModelError):
            flatten(Graph("empty"))

    def test_shared_node_requires_overlap_flag(self):
        plain = Graph("plain")
        node = plain.add_node("dup")
        twin = Graph("twin")
        twin.attach_node(node)  # legal while twin floats free
        with pytest.raises(IdCollisionError):
            plain.add_subgraph(twin)  # nesting would duplicate "dup" without opt-in

        tolerant = Graph("tolerant", allow_overlap=True)
        shared = tolerant.add_node("dup")
        shared.add_variable("x", lower=0, upper=1)
        sub = Graph("sub")
        sub.attach_node(shared)
        tolerant.add_subgraph(sub)  # same Node object in two places, opted in
        assert len(tolerant.all_nodes()) == 1  # deduplicated by identity


class TestFlatten:
    def test_storage_instance_dimensions(self, storage_graph):
        prob = flatten(storage_graph)
        assert len(storage_graph.all_nodes()) == 21
        assert prob.n_cols == 81
        assert prob.n_rows == 60
        assert len(storage_graph.all_edges()) == 39

    def test_chain_instance_dimensions(self, chain3_graph):
        prob = flatten(chain3_graph)
        assert prob.n_cols == 6
        assert prob.n_rows == 5
        assert len(chain3_graph.all_subgraphs()) == 3
        assert len(chain3_graph.local_edges()) == 2

    def test_column_order_is_depth_first_and_reproducible(self, chain3_graph):
        prob = flatten(chain3_graph)
        names = [ref.qualified_name for ref in prob.columns]
        assert names == ["n1.x", "n1.y", "n2.x", "n2.y", "n3.x", "n3.y"]
        again = flatten(chain3_graph)
        assert [r.qualified_name for r in again.columns] == names
        assert again.senses == prob.senses
        np.testing.assert_array_equal(again.rhs, prob.rhs)

    def test_ge_rows_are_negated_into_le(self):
        g = Graph("g")
        n = g.add_node("n")
        x = n.add_variable("x", lower=0, upper=10)
        m = g.add_node("m")
        y = m.add_variable("y", lower=0, upper=10)
        g.add_link_constraint(x + y, "ge", 3.0)
        prob = flatten(g)
        assert set(prob.senses) == {"le"}
        a = prob.dense_rows()
        assert a[0, 0] == -1.0 and prob.rhs[0] == -3.0

    def test_dense_rows_sums_triplets_like_the_loop(self, storage_graph):
        prob = flatten(storage_graph)
        # repeated (i, j) entries add up, in triplet order
        prob.triplets = prob.triplets + [(0, 0, 0.1), (0, 0, 0.2), (prob.n_rows - 1, 3, -1.5)]
        expected = np.zeros((prob.n_rows, prob.n_cols))
        for i, j, v in prob.triplets:
            expected[i, j] += v
        np.testing.assert_array_equal(prob.dense_rows(), expected)
        prob.triplets = []
        np.testing.assert_array_equal(prob.dense_rows(), np.zeros((prob.n_rows, prob.n_cols)))

    def test_row_provenance_names_every_row(self, storage_graph):
        prob = flatten(storage_graph)
        assert sorted(prob.row_provenance) == list(range(prob.n_rows))

    def test_check_solution_reports_worst_violation(self, chain3_graph):
        values = {ref: 0.0 for ref in flatten(chain3_graph).columns}
        worst = check_solution(chain3_graph, values)
        assert worst == pytest.approx(2.0)  # x2 + y3 >= 2 is the most violated row
        res, prob = solve_flat(chain3_graph)
        assert check_solution(chain3_graph, prob.values_by_ref(res.primal)) <= 1e-9


class TestExpressions:
    coef = st.floats(min_value=-10, max_value=10, allow_nan=False, width=32)

    @given(st.lists(coef, min_size=1, max_size=6), coef)
    def test_expression_arithmetic_matches_numpy(self, coefs, constant):
        node = Graph("g").add_node("n")
        refs = [node.add_variable(f"x{i}") for i in range(len(coefs))]
        expr = linear(zip(refs, coefs), constant)
        point = {ref: float(i + 1) for i, ref in enumerate(refs)}
        expected = float(np.dot(coefs, [point[r] for r in refs])) + constant
        assert expr.evaluate(point) == pytest.approx(expected, abs=1e-9)
        doubled = expr + expr
        assert doubled.evaluate(point) == pytest.approx(2 * expected, abs=1e-9)
        negated = -expr
        assert negated.evaluate(point) == pytest.approx(-expected, abs=1e-9)

    @given(coef, coef)
    def test_zero_coefficients_are_dropped(self, a, b):
        node = Graph("g").add_node("n")
        x = node.add_variable("x")
        y = node.add_variable("y")
        expr = a * x + b * y - a * x
        assert x not in expr.terms or expr.terms[x] == pytest.approx(0.0, abs=1e-12)
        expr2 = (x + y) - (x + y)
        assert expr2.is_empty()

    def test_sorted_terms_are_deterministic(self):
        node = Graph("g").add_node("n")
        z = node.add_variable("z")
        a = node.add_variable("a")
        expr = z + a
        assert [r.name for r, _ in expr.sorted_terms()] == ["a", "z"]

    def test_substitute_rewrites_references(self):
        g, a, b, x, y = two_node_graph()
        expr = 2 * x + 3 * y
        swapped = expr.substitute({x: y})
        assert swapped.terms == {y: 5.0}


class TestFlattenFidelity:
    """Re-nesting nodes into subgraphs must not change the optimum."""

    def test_random_regroupings_preserve_the_optimum(self, rng):
        from graphopt.transform import apply_partition, validate_partition

        for trial in range(20):
            g = random_graph_instance(rng)
            base, _ = solve_flat(g)
            nodes = [n.id for n in g.local_nodes()]
            if len(nodes) < 2:
                continue
            k = int(rng.integers(2, len(nodes) + 1))
            membership = {nid: f"b{rng.integers(0, k)}" for nid in nodes}
            if len(set(membership.values())) < 2:
                membership[nodes[0]] = "b_solo"
            partition = validate_partition(g, membership)
            nested = apply_partition(g, partition, mode="assemble_new")
            renested, _ = solve_flat(nested)
            assert renested.status == base.status
            if base.status == "optimal":
                assert renested.objective == pytest.approx(base.objective, abs=1e-8)
