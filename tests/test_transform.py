"""Partitioning, aggregation, condensed topology, and link rerouting."""

import numpy as np
import pytest

from graphopt import (
    EmptyBlockError,
    Graph,
    IdCollisionError,
    LevelOutOfRangeError,
    LocalNodesAtRootError,
    NoSubgraphsError,
    NotCoveringError,
    NotDisjointError,
    NotParentEdgeError,
    OverlapUnsupportedError,
    PartitionError,
    SubgraphNotAdjacentError,
    flatten,
)
from graphopt.benders import BendersTree, validate_structure
from graphopt.fixtures import storage_fixture, storage_membership
from graphopt.sequential import relaxed_parallel_bound, sequential_solve
from graphopt.serialize import load_instance, save_instance
from graphopt.solvers import solve
from graphopt.transform import (
    Partition,
    PartitionBlock,
    aggregate,
    aggregate_to_depth,
    apply_partition,
    condensed_topology,
    first_level_topology,
    reroute_link,
    validate_partition,
)

from conftest import random_graph_instance, solve_flat


def four_cycle():
    """Four nodes in a ring: links n0-n1, n1-n2, n2-n3, n3-n0."""
    g = Graph("cyc")
    refs = []
    for i in range(4):
        node = g.add_node(f"n{i}")
        refs.append(node.add_variable("x", lower=0.0, upper=3.0))
        node.set_objective((1.0 + i) * refs[-1])
    for i in range(4):
        g.add_link_constraint(refs[i] + refs[(i + 1) % 4], "ge", 2.0)
    return g, refs


def triangle():
    """Three single-node subgraphs, pairwise linked."""
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
    return g, refs


class TestValidatePartition:
    def test_mapping_with_integer_keys(self):
        g, _ = four_cycle()
        part = validate_partition(g, {"n0": 1, "n1": 1, "n2": 2, "n3": 2})
        assert [b.id for b in part.blocks] == ["block1", "block2"]
        assert part.blocks[0].node_ids == ("n0", "n1")

    def test_mapping_with_string_keys(self):
        g, _ = four_cycle()
        part = validate_partition(g, {"n0": "top", "n1": "top", "n2": "low", "n3": "low"})
        assert sorted(b.id for b in part.blocks) == ["low", "top"]

    def test_iterable_of_groups(self):
        g, _ = four_cycle()
        part = validate_partition(g, [["n0", "n3"], ["n1", "n2"]])
        assert [b.id for b in part.blocks] == ["block1", "block2"]

    def test_existing_partition_is_revalidated(self):
        g, _ = four_cycle()
        part = Partition([PartitionBlock("p", ("n0", "n1", "n2", "n3"))])
        assert validate_partition(g, part).blocks[0].id == "p"

    def test_missing_node_is_rejected(self):
        g, _ = four_cycle()
        with pytest.raises(NotCoveringError):
            validate_partition(g, {"n0": 1, "n1": 1, "n2": 2})

    def test_unknown_node_is_rejected(self):
        g, _ = four_cycle()
        with pytest.raises(NotCoveringError):
            validate_partition(g, {"n0": 1, "n1": 1, "n2": 2, "n3": 2, "ghost": 2})

    def test_duplicated_node_is_rejected(self):
        g, _ = four_cycle()
        with pytest.raises(NotDisjointError):
            validate_partition(g, [["n0", "n1"], ["n1", "n2", "n3"]])

    def test_empty_block_is_rejected(self):
        g, _ = four_cycle()
        with pytest.raises(EmptyBlockError):
            validate_partition(g, [["n0", "n1", "n2", "n3"], []])


class TestApplyPartition:
    def test_edges_follow_a_block_only_when_fully_inside(self):
        g, _ = four_cycle()
        apply_partition(g, {"n0": 1, "n1": 1, "n2": 2, "n3": 2})
        assert g.local_nodes() == []
        assert [s.id for s in g.local_subgraphs()] == ["block1", "block2"]
        assert len(g.local_edges()) == 2  # the two ring edges that cross blocks
        for sub in g.local_subgraphs():
            assert len(sub.local_edges()) == 1

    def test_hyperedge_stays_at_the_parent(self):
        g, refs = four_cycle()
        g.add_link_constraint(refs[0] + refs[1] + refs[2], "le", 9.0)
        apply_partition(g, {"n0": 1, "n1": 1, "n2": 2, "n3": 2})
        assert len(g.local_edges()) == 3

    def test_assemble_new_leaves_the_original_alone(self):
        g, _ = four_cycle()
        before, _ = solve_flat(g)
        nested = apply_partition(g, [["n0", "n1"], ["n2", "n3"]], mode="assemble_new")
        assert len(g.local_nodes()) == 4 and not g.local_subgraphs()
        assert nested is not g
        after, _ = solve_flat(nested)
        assert after.objective == pytest.approx(before.objective, abs=1e-9)

    def test_in_place_returns_the_same_object(self):
        g, _ = four_cycle()
        assert apply_partition(g, [["n0", "n1"], ["n2", "n3"]]) is g

    def test_partitioning_twice_is_rejected(self):
        g, _ = four_cycle()
        apply_partition(g, [["n0", "n1"], ["n2", "n3"]])
        with pytest.raises(PartitionError):
            apply_partition(g, [["block1", "block2"]])

    @pytest.mark.parametrize("membership", [
        {"n0": "cyc", "n1": "cyc", "n2": "b", "n3": "b"},  # the graph's own id
        {"n0": 1, "n1": 1, "n2": "block1", "n3": "block1"},  # two blocks named block1
    ])
    def test_a_clashing_block_id_raises_before_the_graph_changes(self, membership):
        g, _ = four_cycle()
        before = flatten(g)
        with pytest.raises(IdCollisionError, match="already exists in this hierarchy"):
            apply_partition(g, membership)
        assert [n.id for n in g.all_nodes()] == ["n0", "n1", "n2", "n3"]
        assert [sorted(e.incident_nodes) for e in g.all_edges()] == [
            ["n0", "n1"], ["n1", "n2"], ["n2", "n3"], ["n0", "n3"]]
        assert not g.local_subgraphs()
        after = flatten(g)
        assert (after.n_rows, after.n_cols) == (before.n_rows, before.n_cols)
        np.testing.assert_array_equal(after.dense_rows(), before.dense_rows())

    @pytest.mark.parametrize("left, error", [
        ([PartitionBlock("l0", ("n0",)), PartitionBlock("l1", ("n1", "n9"))], NotCoveringError),
        ([PartitionBlock("cyc", ("n0",)), PartitionBlock("l1", ("n1",))], IdCollisionError),
        ([PartitionBlock("right", ("n0",)), PartitionBlock("l1", ("n1",))], IdCollisionError),
    ])
    def test_a_bad_sub_partition_raises_before_the_graph_changes(self, left, error):
        g, _ = four_cycle()
        part = Partition(
            blocks=[PartitionBlock("left", ("n0", "n1")), PartitionBlock("right", ("n2", "n3"))],
            sub_partitions={"left": Partition(left)},
        )
        with pytest.raises(error):
            apply_partition(g, part)
        assert not g.local_subgraphs()
        assert [n.id for n in g.local_nodes()] == ["n0", "n1", "n2", "n3"]
        assert len(g.local_edges()) == 4

    def test_unknown_mode_is_rejected(self):
        g, _ = four_cycle()
        with pytest.raises(ValueError):
            apply_partition(g, [["n0", "n1", "n2", "n3"]], mode="copy")

    def test_recursive_sub_partitions(self):
        g, _ = four_cycle()
        part = Partition(
            blocks=[PartitionBlock("left", ("n0", "n1")), PartitionBlock("right", ("n2", "n3"))],
            sub_partitions={
                "left": Partition([PartitionBlock("l0", ("n0",)), PartitionBlock("l1", ("n1",))])
            },
        )
        before, _ = solve_flat(g)
        nested = apply_partition(g, part, mode="assemble_new")
        left = nested.find_subgraph("left")
        assert [s.id for s in left.local_subgraphs()] == ["l0", "l1"]
        assert nested.depth() == 2
        after, _ = solve_flat(nested)
        assert after.objective == pytest.approx(before.objective, abs=1e-9)

    def test_partition_preserves_the_optimum_on_random_instances(self, rng):
        for _ in range(10):
            g = random_graph_instance(rng)
            base, _ = solve_flat(g)
            ids = [n.id for n in g.local_nodes()]
            groups = [ids[: len(ids) // 2] or ids[:1], ids[len(ids) // 2 :] or ids[-1:]]
            if not groups[0] or not groups[1]:
                continue
            nested = apply_partition(g, groups, mode="assemble_new")
            res, _ = solve_flat(nested)
            assert res.status == base.status
            if base.status == "optimal":
                assert res.objective == pytest.approx(base.objective, abs=1e-8)


class TestAggregate:
    def test_whole_graph_collapses_to_one_node(self, storage_graph):
        base, _ = solve_flat(storage_graph)
        agg, ref_map = aggregate(storage_graph)
        assert len(agg.all_nodes()) == 1
        assert not agg.all_edges()
        node = agg.all_nodes()[0]
        assert len(node.variables) == 81
        assert len(node.constraints) == 60
        assert len(ref_map) == 81
        res, _ = solve_flat(agg)
        assert res.objective == pytest.approx(base.objective, rel=1e-9)

    def test_qualified_names_survive_aggregation(self, chain3_graph):
        agg, ref_map = aggregate(chain3_graph, node_id="all")
        node = agg.all_nodes()[0]
        assert node.id == "all"
        names = {v.name for v in node.variables}
        assert {"n1.x", "n1.y", "n3.y"} <= names

    def test_aggregation_keeps_integrality(self, chain3_graph):
        agg, _ = aggregate(chain3_graph)
        prob = flatten(agg)
        assert len(prob.integer_columns()) == 3
        res = solve(prob)
        assert res.objective == pytest.approx(5.8)

    def test_aggregate_to_depth_zero_collapses_first_level(self, chain3_graph):
        base, _ = solve_flat(chain3_graph)
        shallow, _ = aggregate_to_depth(chain3_graph, 0)
        assert [n.id for n in shallow.all_nodes()] == ["g1", "g2", "g3"]
        assert shallow.depth() == 0
        assert len(shallow.local_edges()) == 2
        res, _ = solve_flat(shallow)
        assert res.objective == pytest.approx(base.objective, rel=1e-9)

    def test_aggregate_to_depth_keeps_upper_layers(self):
        g, _ = four_cycle()
        part = Partition(
            blocks=[PartitionBlock("left", ("n0", "n1")), PartitionBlock("right", ("n2", "n3"))],
            sub_partitions={
                "left": Partition([PartitionBlock("l0", ("n0",)), PartitionBlock("l1", ("n1",))])
            },
        )
        nested = apply_partition(g, part, mode="assemble_new")
        base, _ = solve_flat(nested)
        shallow, _ = aggregate_to_depth(nested, 1)
        assert shallow.depth() == 1
        left = shallow.find_subgraph("left")
        assert sorted(n.id for n in left.local_nodes()) == ["l0", "l1"]
        assert not left.local_subgraphs()
        res, _ = solve_flat(shallow)
        assert res.objective == pytest.approx(base.objective, abs=1e-9)

    def test_aggregate_to_depth_rejects_a_shared_node(self):
        """A node in two subgraphs would be copied into both aggregated nodes, with its objective twice."""
        g = Graph("g", allow_overlap=True)
        a, b = Graph("a"), Graph("b")
        s = a.add_node("s")
        x = s.add_variable("x", lower=0.0, upper=5.0)
        s.set_objective(-1.0 * x)
        g.add_subgraph(a)
        b.attach_node(s)
        y = b.add_node("o").add_variable("y", lower=0.0, upper=5.0)
        g.add_subgraph(b)
        g.add_link_constraint(x + y, "le", 4.0)
        assert solve_flat(g)[0].objective == pytest.approx(-4.0)
        assert solve_flat(aggregate(g)[0])[0].objective == pytest.approx(-4.0)
        with pytest.raises(OverlapUnsupportedError, match=r"shared nodes \['s'\]"):
            aggregate_to_depth(g, 0)

    def test_level_out_of_range(self, chain3_graph):
        with pytest.raises(LevelOutOfRangeError):
            aggregate_to_depth(chain3_graph, 1)  # depth is 1, valid levels are {0}
        with pytest.raises(LevelOutOfRangeError):
            aggregate_to_depth(chain3_graph, -1)


class TestCondensedTopology:
    def test_requires_subgraphs(self):
        g, _ = four_cycle()
        with pytest.raises(NoSubgraphsError):
            condensed_topology(g)

    def test_parallel_cross_edges_are_counted(self):
        g, _ = four_cycle()
        apply_partition(g, {"n0": 1, "n1": 1, "n2": 2, "n3": 2})
        topo = condensed_topology(g)
        assert topo.vertices == ["block1", "block2"]
        assert topo.adjacency == {frozenset(("block1", "block2")): 2}
        assert topo.neighbors("block1") == ["block2"]
        assert topo.is_connected()
        assert topo.is_acyclic()  # parallel edges collapse to one

    def test_triangle_is_cyclic(self):
        g, _ = triangle()
        topo = condensed_topology(g)
        assert topo.is_connected()
        assert not topo.is_acyclic()

    def test_disconnected_quotient(self):
        g = Graph("g")
        for name in ("a", "b", "c", "d"):
            sub = Graph(name)
            sub.add_node(f"{name}0").add_variable("x", lower=0, upper=1)
            g.add_subgraph(sub)
        xa = g.find_node("a0").var("x")
        xb = g.find_node("b0").var("x")
        g.add_link_constraint(xa + xb, "le", 1.0)
        topo = condensed_topology(g)
        assert not topo.is_connected()
        assert topo.is_acyclic()  # forest with two singleton components

    def test_hyperedges_and_local_nodes_become_orphans(self):
        g, refs = triangle()
        g.add_link_constraint(refs["a"] + refs["b"] + refs["c"], "le", 5.0)
        loose = g.add_node("loose")
        y = loose.add_variable("y", lower=0, upper=1)
        g.add_link_constraint(y + refs["a"], "le", 2.0)
        topo = condensed_topology(g)
        assert len(topo.orphan_edges) == 2

    def test_dot_output(self):
        g, _ = four_cycle()
        apply_partition(g, {"n0": 1, "n1": 1, "n2": 2, "n3": 2})
        dot = condensed_topology(g).to_dot()
        assert dot.startswith("graph condensed {")
        assert '"block1" -- "block2" [label="2"];' in dot


def flat_graph():
    g = Graph("flat")
    g.add_node("n").add_variable("x", lower=0, upper=1)
    return g


def root_local_graph():
    g, _ = triangle()
    g.add_node("loose").add_variable("z", lower=0, upper=1)
    return g


def shared_node_graph():
    """Node ``s`` sits in both subgraphs ``a`` and ``b``."""
    g = Graph("g", allow_overlap=True)
    holder = Graph("a")
    shared = holder.add_node("s")
    shared.add_variable("x", lower=0, upper=1)
    g.add_subgraph(holder)
    twin = Graph("b")
    twin.attach_node(shared)
    xb = twin.add_node("b0").add_variable("x", lower=0, upper=1)
    g.add_subgraph(twin)
    g.add_link_constraint(shared.var("x") + xb, "le", 1.0)
    return g


class TestFirstLevelTopology:
    def test_owner_maps_nested_nodes_to_their_first_level_subgraph(self):
        g, _ = four_cycle()
        part = Partition(
            blocks=[PartitionBlock("left", ("n0", "n1")), PartitionBlock("right", ("n2", "n3"))],
            sub_partitions={
                "left": Partition([PartitionBlock("l0", ("n0",)), PartitionBlock("l1", ("n1",))])
            },
        )
        apply_partition(g, part)
        topo = first_level_topology(g)
        assert topo.owner == {"n0": "left", "n1": "left", "n2": "right", "n3": "right"}
        assert topo.adjacency == {frozenset(("left", "right")): 2}

    @pytest.mark.parametrize(
        "entry", [first_level_topology, validate_structure, BendersTree, sequential_solve, relaxed_parallel_bound]
    )
    @pytest.mark.parametrize(
        "build, error",
        [
            (flat_graph, NoSubgraphsError),
            (root_local_graph, LocalNodesAtRootError),
            (shared_node_graph, OverlapUnsupportedError),
        ],
    )
    def test_every_stage_wise_entry_point_rejects_the_same_graphs(self, entry, build, error):
        with pytest.raises(error):
            entry(build())


class TestRerouteLink:
    def test_reroute_breaks_the_triangle(self):
        g, refs = triangle()
        base, _ = solve_flat(g)
        cols_before = flatten(g).n_cols
        chord = next(e for e in g.local_edges() if e.incident_nodes == frozenset(("a0", "c0")))
        reroute_link(g, chord, g.find_subgraph("b"))
        topo = condensed_topology(g)
        assert topo.is_acyclic()
        assert flatten(g).n_cols == cols_before + 1  # one copy variable on b
        res, _ = solve_flat(g)
        assert res.objective == pytest.approx(base.objective, abs=1e-9)

    def test_reroute_adds_one_pin_row_per_copied_variable(self):
        g, refs = triangle()
        rows_before = flatten(g).n_rows
        chord = next(e for e in g.local_edges() if e.incident_nodes == frozenset(("a0", "c0")))
        reroute_link(g, chord, g.find_subgraph("b"))
        assert flatten(g).n_rows == rows_before + 1

    def test_foreign_edge_is_rejected(self):
        g, _ = triangle()
        other, _ = triangle()
        foreign = other.local_edges()[0]
        with pytest.raises(NotParentEdgeError):
            reroute_link(g, foreign, g.find_subgraph("b"))

    def test_edge_touching_a_parent_local_node_is_rejected(self):
        g, refs = triangle()
        loose = g.add_node("loose")
        y = loose.add_variable("y", lower=0, upper=1)
        bad = g.add_link_constraint(y + refs["a"], "le", 2.0)
        with pytest.raises(NotParentEdgeError):
            reroute_link(g, bad, g.find_subgraph("b"))

    def test_detour_through_an_endpoint_is_rejected(self):
        g, _ = triangle()
        chord = next(e for e in g.local_edges() if e.incident_nodes == frozenset(("a0", "c0")))
        with pytest.raises(SubgraphNotAdjacentError):
            reroute_link(g, chord, g.find_subgraph("a"))

    def test_detour_through_a_stranger_is_rejected(self):
        g, _ = triangle()
        outsider = Graph("far")
        outsider.add_node("far0").add_variable("x")
        g.add_subgraph(outsider)
        chord = next(e for e in g.local_edges() if e.incident_nodes == frozenset(("a0", "c0")))
        with pytest.raises(SubgraphNotAdjacentError):
            reroute_link(g, chord, outsider)


def assert_indexes_current(graph):
    """Each graph's node, subgraph and edge indexes agree with a fresh walk of it."""
    for g in [graph] + graph.all_subgraphs():
        walked = {n.id: n for n in g.all_nodes()}
        assert g._node_index.keys() == walked.keys()
        assert all(g._node_index[nid] is node for nid, node in walked.items())
        subs = {s.id: s for s in g.all_subgraphs()}
        assert g._subgraph_index.keys() == subs.keys()
        assert all(g._subgraph_index[sid] is sub for sid, sub in subs.items())
        assert len(g._edge_index) == len(g.local_edges())
        assert all(g._edge_index[e.incident_nodes] is e for e in g.local_edges())


class TestIndexes:
    def test_in_place_partition(self):
        g, refs = four_cycle()
        g.add_link_constraint(refs[0] + refs[1] + refs[2], "le", 9.0)
        moved = next(e for e in g.local_edges() if e.incident_nodes == frozenset(("n0", "n1")))
        apply_partition(g, {"n0": 1, "n1": 1, "n2": 2, "n3": 2})
        assert_indexes_current(g)
        assert moved in g.find_subgraph("block1").local_edges()
        # a link over an edge that moved into a child makes a new parent-level edge
        edge = g.add_link_constraint(refs[0] - refs[1], "le", 1.0)
        assert edge is not moved and edge.id == "cyc.e5" and len(moved.constraints) == 1
        assert edge in g.local_edges() and len(g.local_edges()) == 4
        assert_indexes_current(g)

    def test_assemble_new(self):
        g, _ = four_cycle()
        nested = apply_partition(g, [["n0", "n1"], ["n2", "n3"]], mode="assemble_new")
        assert_indexes_current(g)
        assert_indexes_current(nested)

    @pytest.mark.parametrize("mode", ["in_place", "assemble_new"])
    def test_sub_partitions(self, mode):
        g, _ = four_cycle()
        part = Partition(
            blocks=[PartitionBlock("left", ("n0", "n1")), PartitionBlock("right", ("n2", "n3"))],
            sub_partitions={
                "left": Partition([PartitionBlock("l0", ("n0",)), PartitionBlock("l1", ("n1",))])
            },
        )
        nested = apply_partition(g, part, mode=mode)
        assert nested.find_node("n0") is g.find_node("n0")
        assert_indexes_current(nested)
        assert_indexes_current(g)

    def test_partitioning_a_graph_that_shares_a_node_with_its_sibling(self):
        g = shared_node_graph()
        holder = g.find_subgraph("a")
        holder.add_node("a1").add_variable("x", lower=0, upper=1)
        apply_partition(holder, [["s"], ["a1"]])
        assert_indexes_current(g)
        assert g.find_node("s") is g.find_subgraph("b").find_node("s")

    def test_a_node_that_leaves_one_graph_stays_indexed_where_it_is_still_held(self):
        g = shared_node_graph()
        holder = g.find_subgraph("a")
        holder._replace_local(nodes=[])
        assert_indexes_current(g)
        assert "s" not in holder._node_index and g.find_node("s") is g.find_subgraph("b").find_node("s")

    def test_reroute_link(self):
        g, _ = triangle()
        chord = next(e for e in g.local_edges() if e.incident_nodes == frozenset(("a0", "c0")))
        reroute_link(g, chord, g.find_subgraph("b"))
        assert chord not in g.local_edges()
        assert_indexes_current(g)

    def test_aggregation(self, chain3_graph):
        agg, _ = aggregate(chain3_graph)
        assert_indexes_current(agg)
        shallow, _ = aggregate_to_depth(chain3_graph, 0)
        assert_indexes_current(shallow)

    def test_loading(self, tmp_path):
        nested, _ = four_cycle()
        apply_partition(nested, Partition(
            blocks=[PartitionBlock("left", ("n0", "n1")), PartitionBlock("right", ("n2", "n3"))],
            sub_partitions={
                "left": Partition([PartitionBlock("l0", ("n0",)), PartitionBlock("l1", ("n1",))])
            },
        ))
        storage = apply_partition(storage_fixture(), storage_membership())
        for graph in (storage, shared_node_graph(), nested):
            path = tmp_path / f"{graph.id}.json"
            save_instance(graph, str(path))
            assert_indexes_current(load_instance(str(path)))
