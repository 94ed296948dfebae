"""Graph/node/edge modelling layer and flattening."""

import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphopt
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
    VariableRef,
    check_solution,
    flatten,
    linear,
    validate_graph,
)
from graphopt.fixtures import storage_fixture, storage_membership
from graphopt.solvers import solve_lp
from graphopt.transform import apply_partition

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

    def test_effective_objective_matches_folding_the_node_objectives(self, rng):
        """Same terms, same order, same floats as ``total = total + node.objective``."""

        def folded(graph):
            total = LinearExpression()
            for node in graph.all_nodes():
                total = total + node.objective
            return total

        g, a, b, x, y = two_node_graph()
        inner = Graph("inner")
        c = inner.add_node("c")
        z = c.add_variable("z")
        g.add_subgraph(inner)
        # assigned directly, past the ownership check, so that nodes share refs:
        # x cancels after b and comes back after c, y sums to a value near zero
        a.objective = LinearExpression({x: 2.0, y: 0.1}, 1.5)
        b.objective = LinearExpression({x: -2.0, z: 1.0, y: 0.2}, -0.25)
        c.objective = LinearExpression({y: -0.3, x: 4.0}, 0.1)
        graphs = [g] + [random_graph_instance(rng) for _ in range(5)]
        for graph in graphs:
            got, want = graph.effective_objective(), folded(graph)
            assert list(got.terms.items()) == list(want.terms.items())
            assert got.constant == want.constant
        assert list(g.effective_objective().terms) == [y, z, x]

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

    def test_a_node_cannot_be_attached_twice_to_one_graph(self):
        g = Graph("g", allow_overlap=True)
        a = g.add_node("a")
        g.add_node("b")
        with pytest.raises(IdCollisionError):
            g.attach_node(a)
        assert [n.id for n in g.local_nodes()] == ["a", "b"]

    def test_validate_graph_rejects_an_overlap_without_the_flag(self):
        g = Graph("g", allow_overlap=True)
        holder, twin = Graph("a"), Graph("b")
        shared = holder.add_node("s")
        shared.add_variable("x", lower=0, upper=1)
        g.add_subgraph(holder)
        twin.attach_node(shared)
        g.add_subgraph(twin)
        validate_graph(g)  # opted in
        g.allow_overlap = False
        with pytest.raises(IdCollisionError, match=r"\['s'\]"):
            validate_graph(g)

    def test_validate_graph_passes_a_built_fixture(self):
        g = storage_fixture()
        validate_graph(g)
        apply_partition(g, storage_membership())
        validate_graph(g)

    def test_set_to_node_objectives_restores_the_sum_of_node_objectives(self):
        g, a, b, x, y = two_node_graph()
        a.set_objective(2 * x)
        b.set_objective(3 * y + 1.0)
        g.set_objective(x - y)
        assert g.effective_objective().terms == {x: 1.0, y: -1.0}
        g.set_to_node_objectives()
        total = a.objective + b.objective
        assert g.effective_objective().terms == total.terms == {x: 2.0, y: 3.0}
        assert g.effective_objective().constant == total.constant == 1.0


class TestFlatten:
    def test_storage_instance_dimensions(self, storage_graph):
        prob = flatten(storage_graph)
        assert len(storage_graph.all_nodes()) == 21
        assert prob.n_cols == 81
        assert prob.n_rows == 60
        assert len(storage_graph.all_edges()) == 39

    def test_a_longer_storage_horizon_repeats_the_price_pattern(self):
        graph = storage_fixture(T=45)
        prob = flatten(graph)
        assert (len(graph.all_nodes()), prob.n_cols, prob.n_rows) == (46, 181, 135)
        nodes = {node.id: node for node in graph.all_nodes()}
        sell = [prob.objective[prob.var_index[nodes[f"ops{t}"].var("y_sell")]] for t in range(1, 46)]
        assert sell[:20] == sell[20:40] == [-5.0] * 7 + [-20.0] * 3 + [-5.0] * 5 + [-50.0] * 5
        assert sell[40:] == sell[:5]
        apply_partition(graph, storage_membership(T=45))
        assert sorted(sub.id for sub in graph.local_subgraphs()) == ["design", "operations"]

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

    weights = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 1e-300, -1e-300])
    forms = st.lists(st.tuples(st.integers(0, 4), weights), max_size=6)

    @given(forms, forms, weights, weights)
    def test_operators_match_folding_into_a_dict_and_dropping_zeros(self, left, right, c1, c2):
        """``+``, ``-``, ``*`` and unary ``-`` give the terms, order and bits of the plain fold."""
        node = Graph("g").add_node("n")
        refs = [node.add_variable(f"x{i}") for i in range(5)]

        def fold(*parts):
            # each part is (terms, constant, scale): scale the part, keep its nonzero
            # terms, and add them up in order, dropping zeros only at the end
            merged, constant = {}, None
            for terms, const, scale in parts:
                for ref, coef in terms:
                    value = coef * scale
                    if value != 0.0:
                        merged[ref] = merged[ref] + value if ref in merged else value
                constant = const * scale if constant is None else constant + const * scale
            return [(r, c) for r, c in merged.items() if c != 0.0], constant

        def bits(expr):
            return [(r, c.hex()) for r, c in expr.terms.items()], expr.constant.hex()

        a, b = linear([(refs[i], w) for i, w in left], c1), linear([(refs[i], w) for i, w in right], c2)
        terms_a, terms_b = list(a.terms.items()), list(b.terms.items())
        for got, want in [
            (a + b, fold((terms_a, c1, 1.0), (terms_b, c2, 1.0))),
            (a - b, fold((terms_a, c1, 1.0), (terms_b, c2, -1.0))),
            (a - b, fold((terms_a, c1, 1.0), (list((-1.0 * b).terms.items()), -c2, 1.0))),
            (a * c2, fold((terms_a, c1, c2))),
            (-a, fold((terms_a, c1, -1.0))),
            (a - c2, fold((terms_a, c1, 1.0), ([], -c2, 1.0))),
            (a - refs[0], fold((terms_a, c1, 1.0), ([(refs[0], 1.0)], 0.0, -1.0))),
            (refs[0] - a, fold(([(refs[0], 1.0)], 0.0, 1.0), (terms_a, c1, -1.0))),
            (c2 - refs[0], fold(([(refs[0], 1.0)], -c2, -1.0))),
        ]:
            assert bits(got) == ([(r, c.hex()) for r, c in want[0]], want[1].hex())

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


class TestBuildCost:
    WALKERS = ("all_nodes", "find_node", "all_subgraphs", "_graphs")

    @staticmethod
    def build_chain(n):
        """``n`` linked nodes in five blocks, with a graph objective, partitioned in place."""
        g = Graph("chain")
        refs = []
        for i in range(n):
            node = g.add_node(f"n{i}")
            x = node.add_variable("x", lower=0.0, upper=10.0)
            node.add_constraint(2.0 * x, "le", 15.0)
            node.set_objective(-1.0 * x)
            refs.append(x)
        for left, right in zip(refs, refs[1:]):
            g.add_link_constraint(right - left, "le", 1.0)
        g.set_objective(linear((x, -1.0) for x in refs))
        apply_partition(g, {f"n{i}": f"b{5 * i // n}" for i in range(n)})
        return g

    def test_building_does_not_walk_the_graph_per_call(self, monkeypatch):
        counts = dict.fromkeys(self.WALKERS, 0)

        def spy(name):
            original = getattr(Graph, name)

            def counted(self, *args, **kwargs):
                counts[name] += 1
                return original(self, *args, **kwargs)

            return counted

        for name in self.WALKERS:
            monkeypatch.setattr(Graph, name, spy(name))
        seen = []
        for n in (50, 400):
            counts.update(dict.fromkeys(self.WALKERS, 0))
            g = self.build_chain(n)
            seen.append(dict(counts))
            assert len(g.local_subgraphs()) == 5 and len(g.local_edges()) == 4
        assert seen[0] == seen[1]


class TestRefHashing:
    def test_a_pickled_ref_is_found_under_another_hash_seed(self):
        script = (
            "import pickle, sys\n"
            "from graphopt import Graph\n"
            "node = Graph('g').add_node('n')\n"
            "x, y = node.add_variable('x', lower=0.0), node.add_variable('y')\n"
            "sys.stdout.buffer.write(pickle.dumps((x, {x: 1.0, y: 2.0}, 3 * x - y + 1)))\n"
        )
        src = os.path.dirname(os.path.dirname(graphopt.__file__))
        env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=60
        ).stdout
        ref, by_ref, expr = pickle.loads(out)
        node = Graph("g").add_node("n")
        x, y = node.add_variable("x"), node.add_variable("y")
        assert hash(ref) == hash(("n", "x")) and ref == x and ref.lower == 0.0
        assert by_ref[x] == 1.0 and by_ref[y] == 2.0
        assert expr.terms[x] == 3.0 and expr.terms[y] == -1.0 and expr.constant == 1.0
        assert {x: "found"}[ref] == "found"

    def test_copies_keep_the_hash_of_their_pair(self):
        x = Graph("g").add_node("n").add_variable("x", lower=0.0, upper=2.0)
        for twin in (copy.copy(x), copy.deepcopy(x), dataclasses.replace(x, upper=5.0)):
            assert hash(twin) == hash(("n", "x")) == hash(x)
            assert twin == x and {x: 1}[twin] == 1
            assert dataclasses.fields(twin) == dataclasses.fields(x)
        assert [f.name for f in dataclasses.fields(x)] == ["node_id", "name", "lower", "upper", "integrality"]

    def test_refs_that_differ_only_in_bounds_are_equal(self):
        a = VariableRef("n", "x", 0.0, 1.0, "binary")
        b = VariableRef("n", "x")
        assert a == b and hash(a) == hash(b) and a.sort_key() == b.sort_key()
        assert a != VariableRef("n", "y") and a != VariableRef("m", "x")
