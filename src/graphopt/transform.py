"""Restructuring operations: partitioning, aggregation, edge rerouting.

These rearrange *structure* only — every operation preserves the flattened
problem up to variable renaming, so optimal values are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    EmptyBlockError,
    EmptyModelError,
    GraphOptError,
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
)
from .model import Constraint, Edge, Graph, LinearExpression, Node, VariableRef


@dataclass(frozen=True)
class PartitionBlock:
    id: str
    node_ids: tuple[str, ...]


@dataclass
class Partition:
    blocks: list[PartitionBlock]
    sub_partitions: Optional[dict[str, "Partition"]] = None


@dataclass
class CondensedTopology:
    """Quotient view of a graph's first subgraph layer.

    ``adjacency`` counts parent-level edges between each subgraph pair.
    ``orphan_edges`` are parent-level edges that do not connect exactly two
    subgraphs (they span three or more, or touch a parent-local node).
    ``owner`` maps each node id below the first layer to its subgraph id.
    """

    vertices: list[str]
    adjacency: dict[frozenset[str], int]
    orphan_edges: list[Edge]
    owner: dict[str, str]

    def neighbors(self, graph_id: str) -> list[str]:
        out = []
        for pair in self.adjacency:
            if graph_id in pair:
                out.extend(v for v in pair if v != graph_id)
        return sorted(set(out))

    def _components(self) -> int:
        """The number of connected components of the quotient graph."""
        unseen = set(self.vertices)
        count = 0
        while unseen:
            count += 1
            stack = [unseen.pop()]
            while stack:
                for w in self.neighbors(stack.pop()):
                    if w in unseen:
                        unseen.discard(w)
                        stack.append(w)
        return count

    def is_connected(self) -> bool:
        return self._components() == 1

    def is_acyclic(self) -> bool:
        """True when the simple quotient graph (parallel edges collapsed) is a forest.

        A forest has as many edges as it has vertices less components.
        """
        return len(self.adjacency) == len(self.vertices) - self._components()

    def to_dot(self) -> str:
        lines = ["graph condensed {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for pair, count in sorted(self.adjacency.items(), key=lambda kv: sorted(kv[0])):
            a, b = sorted(pair)
            label = f' [label="{count}"]' if count > 1 else ""
            lines.append(f'  "{a}" -- "{b}"{label};')
        for edge in self.orphan_edges:
            lines.append(f'  // orphan edge {edge.id} over {sorted(edge.incident_nodes)}')
        lines.append("}")
        return "\n".join(lines)


MembershipLike = Union[Mapping[str, object], Iterable[Iterable[str]], Partition]


def _block_id(key: object) -> str:
    if isinstance(key, str):
        return key
    return f"block{key}"


def validate_partition(graph: Graph, membership: MembershipLike) -> Partition:
    """Check that a node->block assignment covers the local layer exactly.

    ``membership`` can be a map from node id to block key, an iterable of
    node-id groups, or an existing :class:`Partition` to re-validate.  Each
    sub-partition must cover its block's nodes in the same way; one whose
    key names no block is dropped, as it would never be applied.
    """
    return _validated({node.id for node in graph.local_nodes()}, membership)


def _validated(local_ids: set[str], membership: MembershipLike) -> Partition:
    if isinstance(membership, Partition):
        blocks = [(b.id, list(b.node_ids)) for b in membership.blocks]
        subs = membership.sub_partitions
    elif isinstance(membership, Mapping):
        grouped: dict[object, list[str]] = {}
        for node_id, key in membership.items():
            grouped.setdefault(key, []).append(node_id)
        keys = sorted(grouped, key=lambda k: (str(type(k)), k))  # type: ignore[arg-type]
        blocks = [(_block_id(k), grouped[k]) for k in keys]
        subs = None
    else:
        blocks = [(f"block{i}", list(group)) for i, group in enumerate(membership, start=1)]
        subs = None

    seen: set[str] = set()
    for bid, ids in blocks:
        if not ids:
            raise EmptyBlockError(f"partition block {bid!r} is empty")
        for nid in ids:
            if nid not in local_ids:
                raise NotCoveringError(f"partition names unknown node {nid!r}")
            if nid in seen:
                raise NotDisjointError(f"node {nid!r} appears in more than one block")
            seen.add(nid)
    missing = local_ids - seen
    if missing:
        raise NotCoveringError(f"partition misses nodes {sorted(missing)}")
    members = dict(blocks)
    return Partition(
        blocks=[PartitionBlock(bid, tuple(ids)) for bid, ids in blocks],
        sub_partitions=subs and {bid: _validated(set(members[bid]), sub)
                                 for bid, sub in subs.items() if bid in members},
    )


def _split_into_blocks(graph: Graph, partition: Partition) -> tuple[list[Graph], list[Edge]]:
    """One child graph per block, holding its nodes and the edges within it; and the edges left over."""
    nodes_by_id = {node.id: node for node in graph.local_nodes()}
    block_of = {nid: i for i, block in enumerate(partition.blocks) for nid in block.node_ids}
    members = [set(block.node_ids) for block in partition.blocks]
    inside: list[list[Edge]] = [[] for _ in partition.blocks]
    left: list[Edge] = []
    for edge in graph.local_edges():
        # the only block that can hold the edge is the block of any one of its nodes
        home = block_of[next(iter(edge.incident_nodes))]
        (inside[home] if edge.incident_nodes <= members[home] else left).append(edge)
    children = []
    for block, edges in zip(partition.blocks, inside):
        child = Graph(block.id)
        child._replace_local(nodes=[nodes_by_id[nid] for nid in block.node_ids], edges=edges)
        children.append(child)
    return children, left


def _claim_block_ids(partition: Partition, taken: set[str]) -> None:
    """Add every block id of the partition tree to ``taken``; raise on one already there."""
    for block in partition.blocks:
        if block.id in taken:
            raise IdCollisionError(f"subgraph id {block.id!r} already exists in this hierarchy")
        taken.add(block.id)
    for sub in (partition.sub_partitions or {}).values():
        _claim_block_ids(sub, taken)


def apply_partition(graph: Graph, partition: MembershipLike, mode: str = "in_place") -> Graph:
    """Move local nodes into one subgraph per block.

    An edge follows a block only when *all* of its incident nodes are in
    that block; every other edge stays at the parent level.
    """
    if mode not in ("in_place", "assemble_new"):
        raise ValueError(f"unknown mode {mode!r}")
    if graph.local_subgraphs():
        raise PartitionError(
            f"graph {graph.id!r} already has subgraphs; partitions apply to the local layer"
        )
    # the whole partition tree is checked before any write, so that a bad
    # block at any level leaves the graph whole
    partition = validate_partition(graph, partition)
    if mode == "in_place":
        root = graph.root()
        _claim_block_ids(partition, {root.id, *root._subgraph_index})

    children, left = _split_into_blocks(graph, partition)
    if mode == "assemble_new":
        target = Graph(graph.id, allow_overlap=graph.allow_overlap)
        target.objective_mode = graph.objective_mode
        target._explicit_objective = graph._explicit_objective
        target._replace_local(edges=left)
    else:
        target = graph
        graph._replace_local(nodes=[], edges=left)
    for child in children:
        target.add_subgraph(child)

    if partition.sub_partitions:
        for child in target.local_subgraphs():
            sub = partition.sub_partitions.get(child.id)
            if sub is not None:
                apply_partition(child, sub, mode="in_place")
    return target


def _aggregate_into_node(
    source: Graph, node_id: str, ref_map: dict[VariableRef, VariableRef]
) -> Node:
    """Build one node holding a full copy of ``source``'s problem."""
    node = Node(node_id)
    for old_node in source.all_nodes():
        for ref in old_node.variables:
            new_ref = node.add_variable(
                f"{ref.node_id}.{ref.name}", ref.lower, ref.upper, ref.integrality
            )
            ref_map[ref] = new_ref
    objective = LinearExpression()
    for old_node in source.all_nodes():
        for con in old_node.constraints:
            node.add_constraint(con.expr.substitute(ref_map), con.sense, con.rhs)
        objective = objective + old_node.objective.substitute(ref_map)
    for edge in source.all_edges():
        for con in edge.constraints:
            node.add_constraint(con.expr.substitute(ref_map), con.sense, con.rhs)
    node.set_objective(objective)
    return node


def aggregate(graph: Graph, node_id: Optional[str] = None) -> tuple[Graph, dict[VariableRef, VariableRef]]:
    """Collapse the whole hierarchy into a new single-node graph."""
    if not graph.all_variables():
        raise EmptyModelError(f"graph {graph.id!r} has nothing to aggregate")
    ref_map: dict[VariableRef, VariableRef] = {}
    out = Graph(graph.id)
    node = _aggregate_into_node(graph, node_id or f"{graph.id}.agg", ref_map)
    out.attach_node(node)
    if graph.objective_mode == "explicit":
        out.set_objective(graph.effective_objective().substitute(ref_map))
    return out, ref_map


def aggregate_to_depth(graph: Graph, level: int) -> tuple[Graph, dict[VariableRef, VariableRef]]:
    """Rebuild the graph with everything below ``level`` collapsed.

    ``level`` counts subgraph layers from the root: 0 turns each first-level
    subgraph into a single node, 1 keeps the first layer and collapses the
    second, and so on.  Must be smaller than the graph depth.  A node shared
    between subgraphs would be copied into each, so it is rejected.
    """
    depth = graph.depth()
    if level < 0 or level >= depth:
        raise LevelOutOfRangeError(f"level {level} out of range for graph of depth {depth}")
    _reject_shared_nodes(graph)
    ref_map: dict[VariableRef, VariableRef] = {}

    def clone(g: Graph, remaining: int) -> Graph:
        out = Graph(g.id, allow_overlap=g.allow_overlap)
        for node in g.local_nodes():
            new_node = out.add_node(node.id)
            for ref in node.variables:
                ref_map[ref] = new_node.add_variable(ref.name, ref.lower, ref.upper, ref.integrality)
            for con in node.constraints:
                new_node.add_constraint(con.expr.substitute(ref_map), con.sense, con.rhs)
            new_node.set_objective(node.objective.substitute(ref_map))
        if remaining == 0:
            for sub in g.local_subgraphs():
                taken = {n.id for n in out.local_nodes()}
                node_id = sub.id if sub.id not in taken else f"{sub.id}.agg"
                out.attach_node(_aggregate_into_node(sub, node_id, ref_map))
        else:
            for sub in g.local_subgraphs():
                out.add_subgraph(clone(sub, remaining - 1))
        for edge in g.local_edges():
            for con in edge.constraints:
                expr = con.expr.substitute(ref_map)
                touched = {ref.node_id for ref in expr.terms}
                if len(touched) == 1:
                    out.find_node(next(iter(touched))).add_constraint(expr, con.sense, con.rhs)
                else:
                    out.add_link_constraint(expr, con.sense, con.rhs)
        return out

    out = clone(graph, level)
    if graph.objective_mode == "explicit":
        out.set_objective(graph.effective_objective().substitute(ref_map))
    return out, ref_map


def condensed_topology(graph: Graph) -> CondensedTopology:
    """Quotient adjacency of the first subgraph layer."""
    subs = graph.local_subgraphs()
    if not subs:
        raise NoSubgraphsError(f"graph {graph.id!r} has no subgraphs")
    owner: dict[str, str] = {}
    for sub in subs:
        for node in sub.all_nodes():
            owner[node.id] = sub.id
    adjacency: dict[frozenset[str], int] = {}
    orphans: list[Edge] = []
    for edge in graph.local_edges():
        touched = {owner.get(nid) for nid in edge.incident_nodes}
        if None in touched or len(touched) != 2:
            orphans.append(edge)
            continue
        pair = frozenset(touched)  # type: ignore[arg-type]
        adjacency[pair] = adjacency.get(pair, 0) + 1
    return CondensedTopology([s.id for s in subs], adjacency, orphans, owner)


def first_level_topology(graph: Graph) -> CondensedTopology:
    """Quotient of a first subgraph layer whose subgraphs can be solved one by one.

    Rejects graphs with no subgraphs, with nodes directly on ``graph``, or
    with nodes shared between subgraphs.
    """
    topo = condensed_topology(graph)
    if graph.local_nodes():
        names = [n.id for n in graph.local_nodes()]
        raise LocalNodesAtRootError(
            f"nodes {names} sit directly on {graph.id!r}; move them into a subgraph"
        )
    _reject_shared_nodes(graph)
    return topo


def _reject_shared_nodes(graph: Graph) -> None:
    ids = [n.id for g in [graph] + graph.all_subgraphs() for n in g.local_nodes()]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise OverlapUnsupportedError(f"shared nodes {dupes} are not supported; lift them first")


def links_to_last(graph: Graph, topo: CondensedTopology, order: Sequence[str]) -> dict[str, list[Constraint]]:
    """The rows of each parent-level link, under whichever of its subgraphs comes last in ``order``.

    ``order`` lists each subgraph of ``topo``, the graph's :func:`first_level_topology`, once.
    """
    position = {gid: i for i, gid in enumerate(order)}
    rows: dict[str, list[Constraint]] = {gid: [] for gid in order}
    for edge in graph.local_edges():
        last = max((topo.owner[nid] for nid in edge.incident_nodes), key=position.__getitem__)
        rows[last].extend(edge.constraints)
    return rows


def reroute_link(graph: Graph, edge: Edge, via: Graph) -> Graph:
    """Detour a two-subgraph edge through a third, adjacent subgraph.

    Copy variables are created on the first node of ``via``, pinned to one
    side of the edge by new equality links, and the edge's rows are
    rewritten over the copies.  The original edge disappears; the optimal
    value of the flattened problem is unchanged.
    """
    if edge not in graph.local_edges():
        raise NotParentEdgeError(f"edge {edge.id} is not a parent-level edge of {graph.id!r}")
    subs = graph.local_subgraphs()
    topo = condensed_topology(graph)
    by_id = {sub.id: sub for sub in subs}
    sides: list[Graph] = []
    for nid in edge.incident_nodes:
        if nid not in topo.owner:
            raise NotParentEdgeError(f"edge {edge.id} touches parent-local node {nid!r}")
        side = by_id[topo.owner[nid]]
        if side not in sides:
            sides.append(side)
    if len(sides) != 2:
        raise NotParentEdgeError(f"edge {edge.id} must span exactly two subgraphs")
    sides.sort(key=subs.index)
    if via in sides:
        raise SubgraphNotAdjacentError("the detour subgraph must be a third subgraph")
    if via not in subs:
        raise SubgraphNotAdjacentError(f"{via.id!r} is not a first-level subgraph of {graph.id!r}")

    adjacent = set(topo.neighbors(via.id))
    chosen = next((s for s in sides if s.id in adjacent), None)
    if chosen is None:
        raise SubgraphNotAdjacentError(
            f"{via.id!r} shares no edge with either side of {edge.id}"
        )

    hosts = via.all_nodes()
    if not hosts:
        raise GraphOptError(f"subgraph {via.id!r} has no node to host copy variables")
    host = hosts[0]

    side_ids = {n.id for n in chosen.all_nodes()}
    moved: list[VariableRef] = []
    for con in edge.constraints:
        for ref, _ in con.expr.sorted_terms():
            if ref.node_id in side_ids and ref not in moved:
                moved.append(ref)

    copies: dict[VariableRef, VariableRef] = {}
    for ref in moved:
        base = f"{ref.node_id}.{ref.name}"
        name = base
        k = 2
        while name in host._by_name:
            name = f"{base}~{k}"
            k += 1
        copies[ref] = host.add_variable(name, ref.lower, ref.upper, ref.integrality)

    graph._replace_local(edges=[e for e in graph.local_edges() if e is not edge])
    for ref, copy in copies.items():
        graph.add_link_constraint(copy - ref, "eq", 0.0)
    for con in edge.constraints:
        graph.add_link_constraint(con.expr.substitute(copies), con.sense, con.rhs)
    return graph
