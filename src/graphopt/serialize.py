"""Instance files, run reports, and membership files.

Instances are JSON with a recursive graph tree (nodes carry their variables
and local constraints) and a flat list of linking constraints, each naming
its owning graph and using ``node.var`` qualified terms.  Output is
canonical: sorted keys, two-space indent, ``"inf"`` / ``"-inf"`` strings for
unbounded values.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from .errors import ParseError, SchemaVersionError, UnknownVariableError
from .model import Graph, LinearExpression, Node, VariableRef, INTEGRALITIES
from .standard_form import check_solution

SCHEMA_VERSION = "1"


def _encode_bound(value: float) -> Any:
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


def _decode_bound(value: Any) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if isinstance(value, (int, float)):
        return float(value)
    raise ParseError(f"bad bound value {value!r}")


def _expr_payload(expr: LinearExpression, qualified: bool) -> dict[str, Any]:
    terms = {}
    for ref, coef in expr.sorted_terms():
        key = ref.qualified_name if qualified else ref.name
        terms[key] = coef
    return {"terms": terms, "constant": expr.constant}


def _node_payload(node: Node) -> dict[str, Any]:
    objective = {ref: coef for ref, coef in node.objective.terms.items()}
    variables = []
    for ref in node.variables:
        entry: dict[str, Any] = {
            "name": ref.name,
            "lb": _encode_bound(ref.lower),
            "ub": _encode_bound(ref.upper),
            "integrality": ref.integrality,
        }
        coef = objective.get(ref, 0.0)
        if coef:
            entry["objective"] = coef
        variables.append(entry)
    constraints = []
    for con in node.constraints:
        constraints.append(
            {
                "terms": {ref.name: coef for ref, coef in con.expr.sorted_terms()},
                "sense": con.sense,
                "rhs": con.rhs - con.expr.constant,
            }
        )
    payload: dict[str, Any] = {"id": node.id, "variables": variables, "constraints": constraints}
    if node.objective.constant:
        payload["objective_constant"] = node.objective.constant
    return payload


def _graph_payload(graph: Graph) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "id": graph.id,
        "nodes": [_node_payload(n) for n in graph.local_nodes()],
        "subgraphs": [_graph_payload(s) for s in graph.local_subgraphs()],
    }
    if graph.objective_mode == "explicit":
        payload["objective_mode"] = "explicit"
        payload["objective"] = _expr_payload(graph._explicit_objective, qualified=True)
    return payload


def _link_payloads(graph: Graph) -> list[dict[str, Any]]:
    out = []

    def walk(g: Graph) -> None:
        for edge in g.local_edges():
            for con in edge.constraints:
                out.append(
                    {
                        "owner": g.id,
                        "terms": {
                            ref.qualified_name: coef for ref, coef in con.expr.sorted_terms()
                        },
                        "sense": con.sense,
                        "rhs": con.rhs - con.expr.constant,
                    }
                )
        for sub in g.local_subgraphs():
            walk(sub)

    walk(graph)
    return out


def instance_to_dict(graph: Graph) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "allow_overlap": graph.allow_overlap,
        "graph": _graph_payload(graph),
        "link_constraints": _link_payloads(graph),
    }


def save_instance(graph: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(graph), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_node(graph: Graph, payload: dict[str, Any], built: dict[str, Node]) -> None:
    shared = built.get(payload["id"])
    if shared is not None:
        # a node listed under several graphs (``allow_overlap``) is one node, built once
        graph.attach_node(shared)
        return
    node = graph.add_node(payload["id"])
    built[node.id] = node
    objective_terms: dict[VariableRef, float] = {}
    for var in payload.get("variables", ()):
        integrality = var.get("integrality", "continuous")
        if integrality not in INTEGRALITIES:
            raise ParseError(f"unknown integrality {integrality!r} on {node.id}.{var.get('name')}")
        ref = node.add_variable(
            var["name"],
            _decode_bound(var.get("lb", "-inf")),
            _decode_bound(var.get("ub", "inf")),
            integrality,
        )
        coef = var.get("objective", 0.0)
        if coef:
            objective_terms[ref] = float(coef)
    for con in payload.get("constraints", ()):
        terms = {node.var(name): float(coef) for name, coef in con["terms"].items()}
        node.add_constraint(LinearExpression(terms), con["sense"], float(con["rhs"]))
    node.set_objective(
        LinearExpression(objective_terms, float(payload.get("objective_constant", 0.0)))
    )


def _build_graph(payload: dict[str, Any], allow_overlap: bool, built: dict[str, Node]) -> Graph:
    graph = Graph(payload["id"], allow_overlap=allow_overlap)
    for node_payload in payload.get("nodes", ()):
        _build_node(graph, node_payload, built)
    for sub_payload in payload.get("subgraphs", ()):
        graph.add_subgraph(_build_graph(sub_payload, allow_overlap, built))
    return graph


def _qualified_expr(graph: Graph, terms: dict[str, float], constant: float = 0.0) -> LinearExpression:
    out: dict[VariableRef, float] = {}
    for name, coef in terms.items():
        try:
            ref = graph.variable_by_qualified_name(name)
        except KeyError:
            raise UnknownVariableError(f"no variable named {name!r} in graph {graph.id!r}") from None
        out[ref] = out.get(ref, 0.0) + float(coef)
    return LinearExpression(out, constant)


def _apply_objectives(graph: Graph, payload: dict[str, Any], root: Graph) -> None:
    if payload.get("objective_mode") == "explicit":
        objective = payload.get("objective", {"terms": {}, "constant": 0.0})
        graph.set_objective(
            _qualified_expr(root, objective.get("terms", {}), float(objective.get("constant", 0.0)))
        )
    for sub, sub_payload in zip(graph.local_subgraphs(), payload.get("subgraphs", ())):
        _apply_objectives(sub, sub_payload, root)


def instance_from_dict(data: dict[str, Any]) -> Graph:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION!r})")
    try:
        graph = _build_graph(data["graph"], bool(data.get("allow_overlap", False)), {})
        owners = {graph.id: graph}
        for sub in graph.all_subgraphs():
            owners[sub.id] = sub
        for link in data.get("link_constraints", ()):
            owner = owners.get(link.get("owner"))
            if owner is None:
                raise ParseError(f"link constraint owner {link.get('owner')!r} is not a graph id")
            expr = _qualified_expr(graph, link["terms"])
            owner.add_link_constraint(expr, link["sense"], float(link["rhs"]))
        _apply_objectives(graph, data["graph"], graph)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed instance file: {exc}") from exc
    return graph


def load_instance(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"instance file {path} must hold a JSON object")
    return instance_from_dict(data)


# -- run reports -------------------------------------------------------------


@dataclass
class RunReport:
    mode: str
    status: str
    objective: float
    wall_clock: float
    solution: dict[str, float] = field(default_factory=dict)
    max_violation: float = 0.0
    config: dict[str, Any] = field(default_factory=dict)
    bounds_per_iteration: list[dict[str, Any]] = field(default_factory=list)
    flags: dict[str, bool] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["objective"] = _encode_bound(self.objective)
        data["max_violation"] = _encode_bound(self.max_violation)
        for row in data["bounds_per_iteration"]:
            for key in ("lower", "upper", "gap"):
                if key in row:
                    row[key] = _encode_bound(row[key])
        return data


def write_report(report: RunReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def solution_by_name(solution: dict[VariableRef, float]) -> dict[str, float]:
    return {ref.qualified_name: val for ref, val in sorted(solution.items(), key=lambda kv: kv[0].sort_key())}


# -- membership files ---------------------------------------------------------


def parse_membership(path: str) -> dict[str, str]:
    """Read ``node_id block`` lines; ``#`` starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'node_id block', got {raw.strip()!r}")
            node_id, block = parts
            if node_id in out:
                raise ParseError(f"{path}:{lineno}: node {node_id!r} assigned twice")
            out[node_id] = block
    if not out:
        raise ParseError(f"{path}: no assignments found")
    return out
