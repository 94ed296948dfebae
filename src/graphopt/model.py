"""Hierarchical graph model for linear and mixed-integer problems.

A :class:`Graph` holds nodes, edges, and nested subgraphs.  Each
:class:`Node` owns variables, constraints over its own variables, and a
linear objective.  An :class:`Edge` couples two or more nodes through
linking constraints and is owned by the graph whose node set spans it.
Subgraphs nest to arbitrary depth; ``local_*`` accessors list one layer,
``all_*`` accessors walk the hierarchy depth-first (a flattened problem's
column order is that walk's node order).

Each graph keeps three indexes, so that a model-building call costs its own
size and not a walk of the hierarchy: ``_node_index`` (node id -> node, for
every node at any depth beneath the graph), ``_subgraph_index`` (graph id ->
subgraph, likewise) and ``_edge_index`` (incident node set -> local edge).
:meth:`Graph.attach_node` and :meth:`Graph.add_subgraph` enter what they add
in the indexes of the graph and of each ancestor, and
:meth:`Graph.add_link_constraint` enters a new edge.  Restructuring
(``transform.py``) rewrites a layer only through
:meth:`Graph._replace_local`, which takes out what leaves it.  Collision
checks, ``find_node``, ``find_subgraph``, link ownership and
``set_objective`` read the indexes.

Everything is a minimization.  Senses are the strings ``"le"``, ``"eq"``,
``"ge"``; integrality is ``"continuous"``, ``"binary"``, or ``"integer"``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Literal, Mapping, Optional, Union

from .errors import (
    CycleInNestingError,
    DuplicateNameError,
    ForeignVariableError,
    IdCollisionError,
    InvalidBoundsError,
    NotOwnedError,
    SingleNodeError,
)

Sense = Literal["le", "eq", "ge"]
Integrality = Literal["continuous", "binary", "integer"]

SENSES = ("le", "eq", "ge")
INTEGRALITIES = ("continuous", "binary", "integer")

_graph_counter = itertools.count(1)
_node_counter = itertools.count(1)


@dataclass(frozen=True)
class VariableRef:
    """Handle to one variable.  Identity is the pair ``(node_id, name)``.

    Bounds and integrality ride along for convenience but do not take part
    in equality or hashing, so a ref can be used as a dictionary key.  The
    pair and its hash are computed once, on construction; string hashes
    differ between processes, so pickling and copying rebuild the ref from
    its fields rather than carry the hash along.
    """

    node_id: str
    name: str
    lower: float = field(default=-math.inf, compare=False)
    upper: float = field(default=math.inf, compare=False)
    integrality: Integrality = field(default="continuous", compare=False)

    def __post_init__(self) -> None:
        key = (self.node_id, self.name)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (VariableRef, (self.node_id, self.name, self.lower, self.upper, self.integrality))

    @property
    def qualified_name(self) -> str:
        return f"{self.node_id}.{self.name}"

    def sort_key(self) -> tuple[str, str]:
        return self._key

    # Small amount of operator sugar so model-building code reads naturally.
    def __mul__(self, coef: float) -> "LinearExpression":
        return LinearExpression({self: float(coef)})

    __rmul__ = __mul__

    def __neg__(self) -> "LinearExpression":
        return LinearExpression._make({self: -1.0}, 0.0)

    def __add__(self, other) -> "LinearExpression":
        return LinearExpression._make({self: 1.0}, 0.0)._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other) -> "LinearExpression":
        return LinearExpression._make({self: 1.0}, 0.0)._combine(other, -1.0)

    def __rsub__(self, other) -> "LinearExpression":
        return -(self - other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VariableRef({self.qualified_name})"


class LinearExpression:
    """Immutable-ish linear form ``sum(coef * var) + constant``.

    Zero coefficients are dropped on construction; iteration over
    :meth:`sorted_terms` is deterministic (ordered by node id, then name).
    """

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Optional[Mapping[VariableRef, float]] = None, constant: float = 0.0):
        clean: dict[VariableRef, float] = {}
        if terms:
            for ref, coef in terms.items():
                coef = float(coef)
                if coef != 0.0:
                    clean[ref] = coef
        self.terms = clean
        self.constant = float(constant)

    @classmethod
    def _make(cls, terms: dict[VariableRef, float], constant: float) -> "LinearExpression":
        """An expression over ``terms`` as given: float coefficients, none of them zero."""
        expr = object.__new__(cls)
        expr.terms = terms
        expr.constant = constant
        return expr

    def sorted_terms(self) -> list[tuple[VariableRef, float]]:
        return sorted(self.terms.items(), key=lambda item: item[0]._key)

    def variables(self) -> set[VariableRef]:
        return set(self.terms)

    def evaluate(self, values: Mapping[VariableRef, float]) -> float:
        return self.constant + sum(coef * values[ref] for ref, coef in self.terms.items())

    def substitute(self, mapping: Mapping[VariableRef, VariableRef]) -> "LinearExpression":
        """Rewrite the expression over replacement refs (used by restructuring)."""
        out: dict[VariableRef, float] = {}
        for ref, coef in self.terms.items():
            new = mapping.get(ref, ref)
            out[new] = out.get(new, 0.0) + coef
        return LinearExpression(out, self.constant)

    def is_empty(self) -> bool:
        return not self.terms

    # arithmetic -----------------------------------------------------------
    @staticmethod
    def _coerce(value) -> "LinearExpression":
        if isinstance(value, LinearExpression):
            return value
        if isinstance(value, VariableRef):
            return LinearExpression({value: 1.0})
        if isinstance(value, (int, float)):
            return LinearExpression({}, float(value))
        raise TypeError(f"cannot build a linear expression from {value!r}")

    def _combine(self, other, sign: float) -> "LinearExpression":
        """``self + sign * other`` in one dict, dropping a term the moment it cancels."""
        if isinstance(other, VariableRef):
            items, constant = ((other, 1.0),), 0.0
        else:
            other = self._coerce(other)
            items, constant = other.terms.items(), other.constant
        merged = dict(self.terms)
        for ref, coef in items:
            value = merged.get(ref, 0.0) + coef * sign
            if value:
                merged[ref] = value
            else:
                merged.pop(ref, None)
        return LinearExpression._make(merged, self.constant + constant * sign)

    def __add__(self, other) -> "LinearExpression":
        return self._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other) -> "LinearExpression":
        return self._combine(other, -1.0)

    def __rsub__(self, other) -> "LinearExpression":
        return self._coerce(other) - self

    def __mul__(self, coef: float) -> "LinearExpression":
        coef = float(coef)
        terms = {}
        for ref, c in self.terms.items():
            value = c * coef
            if value:
                terms[ref] = value
        return LinearExpression._make(terms, self.constant * coef)

    __rmul__ = __mul__

    def __neg__(self) -> "LinearExpression":
        return self * -1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{coef:+g}*{ref.qualified_name}" for ref, coef in self.sorted_terms()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


ExprLike = Union[LinearExpression, VariableRef]


@dataclass
class Constraint:
    """One linear row: ``expr (sense) rhs``, owned by a node or an edge."""

    expr: LinearExpression
    sense: Sense
    rhs: float
    owner: str
    uid: str

    def violation(self, values: Mapping[VariableRef, float]) -> float:
        lhs = self.expr.evaluate(values)
        if self.sense == "le":
            return max(0.0, lhs - self.rhs)
        if self.sense == "ge":
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)


def _check_expr(expr: ExprLike) -> LinearExpression:
    expr = LinearExpression._coerce(expr)
    if expr.is_empty():
        raise SingleNodeError("constraint expression has no variables")
    return expr


def _check_sense(sense: str) -> Sense:
    if sense not in SENSES:
        raise ValueError(f"sense must be one of {SENSES}, got {sense!r}")
    return sense  # type: ignore[return-value]


def _check_rhs(rhs: float) -> float:
    rhs = float(rhs)
    if not math.isfinite(rhs):
        raise InvalidBoundsError("constraint right-hand side must be finite")
    return rhs


class Node:
    """A problem block: variables, constraints over them, and an objective."""

    def __init__(self, node_id: Optional[str] = None):
        self.id = node_id if node_id is not None else f"n{next(_node_counter)}"
        self.variables: list[VariableRef] = []
        self._by_name: dict[str, VariableRef] = {}
        self.constraints: list[Constraint] = []
        self.objective = LinearExpression()

    def add_variable(
        self,
        name: str,
        lower: float = -math.inf,
        upper: float = math.inf,
        integrality: Integrality = "continuous",
    ) -> VariableRef:
        if name in self._by_name:
            raise DuplicateNameError(f"node {self.id!r} already has a variable {name!r}")
        lower, upper = float(lower), float(upper)
        if math.isnan(lower) or math.isnan(upper) or lower > upper:
            raise InvalidBoundsError(f"bad bounds [{lower}, {upper}] for {self.id}.{name}")
        if integrality not in INTEGRALITIES:
            raise ValueError(f"integrality must be one of {INTEGRALITIES}")
        if integrality == "binary":
            # binary implies an effective domain inside [0, 1]
            lower, upper = max(lower, 0.0), min(upper, 1.0)
            if lower > upper:
                raise InvalidBoundsError(f"binary bounds for {self.id}.{name} exclude [0, 1]")
        ref = VariableRef(self.id, name, lower, upper, integrality)
        self.variables.append(ref)
        self._by_name[name] = ref
        return ref

    def var(self, name: str) -> VariableRef:
        return self._by_name[name]

    def _owns_all(self, expr: LinearExpression) -> None:
        for ref in expr.terms:
            if self._by_name.get(ref.name) != ref or ref.node_id != self.id:
                raise ForeignVariableError(
                    f"{ref.qualified_name} does not belong to node {self.id!r}"
                )

    def add_constraint(self, expr: ExprLike, sense: Sense, rhs: float) -> Constraint:
        expr = _check_expr(expr)
        self._owns_all(expr)
        con = Constraint(
            expr, _check_sense(sense), _check_rhs(rhs), self.id, f"{self.id}#c{len(self.constraints)}"
        )
        self.constraints.append(con)
        return con

    def set_objective(self, expr: ExprLike) -> None:
        expr = LinearExpression._coerce(expr)
        self._owns_all(expr)
        self.objective = expr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.id}, {len(self.variables)} vars)"


class Edge:
    """Linking constraints over a fixed set of at least two nodes."""

    def __init__(self, edge_id: str, incident_nodes: frozenset[str]):
        self.id = edge_id
        self.incident_nodes = incident_nodes
        self.constraints: list[Constraint] = []

    def add(self, expr: LinearExpression, sense: Sense, rhs: float) -> Constraint:
        con = Constraint(expr, sense, rhs, self.id, f"{self.id}#c{len(self.constraints)}")
        self.constraints.append(con)
        return con

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Edge({self.id}, nodes={sorted(self.incident_nodes)})"


class Graph:
    """A hierarchical model: local nodes and edges plus nested subgraphs.

    The objective is either the sum of all node objectives (the default,
    and what :meth:`set_to_node_objectives` pins down explicitly) or a
    single explicit expression set with :meth:`set_objective`.
    """

    def __init__(self, graph_id: Optional[str] = None, *, allow_overlap: bool = False):
        self.id = graph_id if graph_id is not None else f"g{next(_graph_counter)}"
        self.allow_overlap = allow_overlap
        self._nodes: list[Node] = []
        self._edges: list[Edge] = []
        self._subgraphs: list[Graph] = []
        self._parent: Optional[Graph] = None
        self._edge_counter = 0
        self.objective_mode: Literal["node_objectives", "explicit"] = "node_objectives"
        self._explicit_objective: Optional[LinearExpression] = None
        # indexes; see the module docstring for the methods that keep them current
        self._node_index: dict[str, Node] = {}
        self._subgraph_index: dict[str, Graph] = {}
        self._edge_index: dict[frozenset[str], Edge] = {}

    # -- enumeration -------------------------------------------------------
    def local_nodes(self) -> list[Node]:
        return list(self._nodes)

    def local_edges(self) -> list[Edge]:
        return list(self._edges)

    def local_subgraphs(self) -> list["Graph"]:
        return list(self._subgraphs)

    def _graphs(self) -> list["Graph"]:
        """This graph and every subgraph beneath it, depth-first (parents before children)."""
        out: list[Graph] = []
        stack = [self]
        while stack:
            g = stack.pop()
            out.append(g)
            stack.extend(reversed(g._subgraphs))
        return out

    def all_nodes(self) -> list[Node]:
        """All nodes at any depth, depth-first, deduplicated by identity."""
        seen: dict[str, Node] = {}
        for g in self._graphs():
            for node in g._nodes:
                seen.setdefault(node.id, node)
        return list(seen.values())

    def all_edges(self) -> list[Edge]:
        return [edge for g in self._graphs() for edge in g._edges]

    def all_subgraphs(self) -> list["Graph"]:
        return self._graphs()[1:]

    def depth(self) -> int:
        if not self._subgraphs:
            return 0
        return 1 + max(sub.depth() for sub in self._subgraphs)

    def root(self) -> "Graph":
        g = self
        while g._parent is not None:
            g = g._parent
        return g

    def find_node(self, node_id: str) -> Node:
        node = self._node_index.get(node_id)
        if node is None:
            raise KeyError(f"no node {node_id!r} in graph {self.id!r}")
        return node

    def find_subgraph(self, graph_id: str) -> "Graph":
        sub = self._subgraph_index.get(graph_id)
        if sub is None:
            raise KeyError(f"no subgraph {graph_id!r} in graph {self.id!r}")
        return sub

    # -- construction ------------------------------------------------------
    def add_node(self, node_id: Optional[str] = None) -> Node:
        node = Node(node_id)
        self.attach_node(node)
        return node

    def attach_node(self, node: Node) -> Node:
        root = self.root()
        clash = root._node_index.get(node.id)
        # a node may be shared between graphs with the overlap flag, but not listed twice in one
        if clash is not None and (
            clash is not node or not root.allow_overlap or any(n is node for n in self._nodes)
        ):
            raise IdCollisionError(f"node id {node.id!r} already exists in this hierarchy")
        self._nodes.append(node)
        self._index_nodes((node,))
        return node

    def add_subgraph(self, child: "Graph") -> "Graph":
        g: Optional[Graph] = self
        while g is not None:
            if g is child:
                raise CycleInNestingError("a graph cannot contain itself or an ancestor")
            g = g._parent
        if child._parent is not None:
            raise IdCollisionError(f"graph {child.id!r} is already nested elsewhere")
        root = self.root()

        def graph_clash(g: Graph) -> bool:
            return g.id == root.id or g.id in root._subgraph_index

        overlap = root.allow_overlap or self.allow_overlap

        def node_clash(node: Node) -> bool:
            clash = root._node_index.get(node.id)
            return clash is not None and not (clash is node and overlap)

        # the indexes tell whether anything clashes; the walk names the first clash, depth-first
        if graph_clash(child) or any(graph_clash(g) for g in child._subgraph_index.values()):
            first = next(g for g in child._graphs() if graph_clash(g))
            raise IdCollisionError(f"subgraph id {first.id!r} already exists in this hierarchy")
        shared = child._node_index.keys() & root._node_index.keys()
        if any(node_clash(child._node_index[node_id]) for node_id in shared):
            first_node = next(n for g in child._graphs() for n in g._nodes if node_clash(n))
            raise IdCollisionError(f"node id {first_node.id!r} already exists in this hierarchy")
        self._subgraphs.append(child)
        child._parent = self
        g = self
        while g is not None:
            g._node_index.update(child._node_index)
            g._subgraph_index[child.id] = child
            g._subgraph_index.update(child._subgraph_index)
            g = g._parent
        return child

    def add_link_constraint(self, expr: ExprLike, sense: Sense, rhs: float) -> Edge:
        expr = _check_expr(expr)
        sense = _check_sense(sense)
        rhs = _check_rhs(rhs)
        owned = self._node_index
        incident: set[str] = set()
        for ref in expr.terms:
            node = owned.get(ref.node_id)
            if node is None:
                raise NotOwnedError(
                    f"{ref.qualified_name} lies outside graph {self.id!r}; "
                    "add the link on a graph that contains every referenced node"
                )
            if node._by_name.get(ref.name) != ref:
                raise NotOwnedError(f"{ref.qualified_name} is not a declared variable")
            incident.add(ref.node_id)
        if len(incident) < 2:
            raise SingleNodeError("a link constraint must couple at least two nodes")
        key = frozenset(incident)
        edge = self._edge_index.get(key)
        if edge is None:
            edge = Edge(f"{self.id}.e{self._edge_counter}", key)
            self._edge_counter += 1
            self._edges.append(edge)
            self._edge_index[key] = edge
        edge.add(expr, sense, rhs)
        return edge

    # -- index upkeep ------------------------------------------------------
    def _index_nodes(self, nodes: Iterable[Node]) -> None:
        """Enter ``nodes`` in the node index of this graph and of each ancestor."""
        entries = {node.id: node for node in nodes}
        g: Optional[Graph] = self
        while g is not None:
            g._node_index.update(entries)
            g = g._parent

    def _holds(self, node: Node) -> bool:
        """Whether ``node`` is local here or indexed by one of the local subgraphs."""
        return any(n is node for n in self._nodes) or any(
            sub._node_index.get(node.id) is node for sub in self._subgraphs
        )

    def _replace_local(
        self, nodes: Optional[Iterable[Node]] = None, edges: Optional[Iterable[Edge]] = None
    ) -> None:
        """Replace the local nodes and/or the local edges, keeping every index current.

        Restructuring (``transform.py``) rewrites a layer only through this
        method.  A node that leaves the layer also leaves the node index of
        this graph and of each ancestor that holds it nowhere else.  Makes no
        collision check: the caller re-nests what it moves.
        """
        if edges is not None:
            self._edges = list(edges)
            self._edge_index = {}
            for edge in self._edges:
                self._edge_index.setdefault(edge.incident_nodes, edge)
        if nodes is not None:
            old, self._nodes = self._nodes, list(nodes)
            staying = {id(node) for node in self._nodes}
            gone = [node for node in old if id(node) not in staying]
            g: Optional[Graph] = self
            while g is not None and gone:
                if g._nodes or g._subgraphs:
                    gone = [node for node in gone if not g._holds(node)]
                for node in gone:
                    del g._node_index[node.id]
                g = g._parent
            self._index_nodes(self._nodes)

    # -- objectives --------------------------------------------------------
    def set_to_node_objectives(self) -> None:
        self.objective_mode = "node_objectives"
        self._explicit_objective = None

    def set_objective(self, expr: ExprLike) -> None:
        expr = LinearExpression._coerce(expr)
        owned = self._node_index
        for ref in expr.terms:
            node = owned.get(ref.node_id)
            if node is None or node._by_name.get(ref.name) != ref:
                raise NotOwnedError(f"objective references {ref.qualified_name} outside the graph")
        self.objective_mode = "explicit"
        self._explicit_objective = expr

    def effective_objective(self) -> LinearExpression:
        if self.objective_mode == "explicit":
            assert self._explicit_objective is not None
            return self._explicit_objective
        # one pass, summing in node order and dropping a term the moment it
        # cancels, exactly as folding ``total + node.objective`` would
        terms: dict[VariableRef, float] = {}
        constant = 0.0
        for node in self.all_nodes():
            constant += node.objective.constant
            for ref, coef in node.objective.terms.items():
                value = terms.get(ref, 0.0) + coef
                if value:
                    terms[ref] = value
                else:
                    terms.pop(ref, None)
        return LinearExpression._make(terms, constant)

    # -- queries used throughout the library -------------------------------
    def all_variables(self) -> list[VariableRef]:
        out: list[VariableRef] = []
        for node in self.all_nodes():
            out.extend(node.variables)
        return out

    def variable_by_qualified_name(self, qualified: str) -> VariableRef:
        node_id, _, name = qualified.rpartition(".")
        node = self.find_node(node_id)
        return node.var(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph({self.id}, nodes={len(self._nodes)}, edges={len(self._edges)}, "
            f"subgraphs={len(self._subgraphs)})"
        )


def validate_graph(graph: Graph) -> None:
    """Re-check the structural invariants of a built graph.

    Raises the matching construction error if node sets are not disjoint
    (without the overlap flag), edge incidences drift from their constraint
    expressions, or an edge references nodes outside its owner.
    """
    ids_seen: set[str] = set()
    for sub in [graph] + graph.all_subgraphs():
        local_ids = {n.id for n in sub.local_nodes()}
        overlap = ids_seen & local_ids
        if overlap and not graph.allow_overlap:
            raise IdCollisionError(f"nodes {sorted(overlap)} appear in more than one graph")
        ids_seen |= local_ids
    for sub in [graph] + graph.all_subgraphs():
        contained = {n.id for n in sub.all_nodes()}
        for edge in sub.local_edges():
            if not edge.incident_nodes <= contained:
                raise NotOwnedError(f"edge {edge.id} references nodes outside graph {sub.id!r}")
            touched: set[str] = set()
            for con in edge.constraints:
                touched |= {ref.node_id for ref in con.expr.terms}
            if touched != set(edge.incident_nodes):
                raise NotOwnedError(f"edge {edge.id} incidence drifted from its constraints")


def linear(terms: Iterable[tuple[VariableRef, float]], constant: float = 0.0) -> LinearExpression:
    """Convenience constructor used by fixtures and tests."""
    acc: dict[VariableRef, float] = {}
    for ref, coef in terms:
        acc[ref] = acc.get(ref, 0.0) + float(coef)
    return LinearExpression(acc, constant)
