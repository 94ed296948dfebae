"""Flattening a graph into a single matrix-form problem.

The standard form is a minimization over one dense column space:

    min  c'x + c0
    s.t. rows with sense "le" or "eq"   (every "ge" row is negated here)
         lower <= x <= upper, per-column integrality

Column order follows the depth-first node order of the graph and variable
insertion order inside each node, so it is reproducible.  Every row carries
a provenance string naming the constraint it came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

import numpy as np

from .errors import EmptyModelError
from .model import Constraint, Graph, LinearExpression, VariableRef


@dataclass
class StandardFormProblem:
    columns: list[VariableRef]
    var_index: dict[VariableRef, int]
    objective: np.ndarray
    objective_constant: float
    triplets: list[tuple[int, int, float]]
    senses: list[str]                  # "le" or "eq" only
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: list[str]
    row_provenance: dict[int, str] = field(default_factory=dict)

    @property
    def n_cols(self) -> int:
        # ``columns`` maps model variables; assembled stage problems may carry
        # extra internal columns (copies, slacks, value-function terms).
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.senses)

    def dense_rows(self) -> np.ndarray:
        m, n = self.n_rows, self.n_cols
        if not self.triplets:
            return np.zeros((m, n))
        ijv = np.array(self.triplets, dtype=float)
        # bincount sums repeated (i, j) entries in triplet order
        flat = ijv[:, 0].astype(np.intp) * n + ijv[:, 1].astype(np.intp)
        return np.bincount(flat, weights=ijv[:, 2], minlength=m * n).reshape(m, n)

    def integer_columns(self) -> list[int]:
        return [j for j, kind in enumerate(self.integrality) if kind != "continuous"]

    def copy(self) -> "StandardFormProblem":
        return replace(
            self,
            columns=list(self.columns),
            var_index=dict(self.var_index),
            objective=self.objective.copy(),
            triplets=list(self.triplets),
            senses=list(self.senses),
            rhs=self.rhs.copy(),
            lower=self.lower.copy(),
            upper=self.upper.copy(),
            integrality=list(self.integrality),
            row_provenance=dict(self.row_provenance),
        )

    def values_by_ref(self, x: np.ndarray) -> dict[VariableRef, float]:
        return {ref: float(x[j]) for ref, j in self.var_index.items()}


def flatten(graph: Graph) -> StandardFormProblem:
    """Collapse the whole hierarchy into one StandardFormProblem."""
    nodes = graph.all_nodes()
    columns: list[VariableRef] = []
    for node in nodes:
        columns.extend(node.variables)
    if not columns:
        raise EmptyModelError(f"graph {graph.id!r} declares no variables")
    var_index = {ref: j for j, ref in enumerate(columns)}

    objective = np.zeros(len(columns))
    obj_expr = graph.effective_objective()
    for ref, coef in obj_expr.terms.items():
        objective[var_index[ref]] += coef
    constant = obj_expr.constant

    triplets: list[tuple[int, int, float]] = []
    senses: list[str] = []
    rhs: list[float] = []
    provenance: dict[int, str] = {}

    def emit(con: Constraint) -> None:
        row = len(senses)
        sign = -1.0 if con.sense == "ge" else 1.0
        for ref, coef in con.expr.sorted_terms():
            triplets.append((row, var_index[ref], sign * coef))
        senses.append("eq" if con.sense == "eq" else "le")
        rhs.append(sign * (con.rhs - con.expr.constant))
        provenance[row] = con.uid

    for node in nodes:
        for con in node.constraints:
            emit(con)
    for edge in graph.all_edges():
        for con in edge.constraints:
            emit(con)

    lower = np.array([ref.lower for ref in columns], dtype=float)
    upper = np.array([ref.upper for ref in columns], dtype=float)
    integrality = [ref.integrality for ref in columns]

    return StandardFormProblem(
        columns=columns,
        var_index=var_index,
        objective=objective,
        objective_constant=constant,
        triplets=triplets,
        senses=senses,
        rhs=np.array(rhs, dtype=float),
        lower=lower,
        upper=upper,
        integrality=integrality,
        row_provenance=provenance,
    )


def lp_relaxation(problem: StandardFormProblem) -> StandardFormProblem:
    """Drop integrality; binary columns keep their [0, 1] domain."""
    relaxed = problem.copy()
    for j, kind in enumerate(problem.integrality):
        if kind == "binary":
            relaxed.lower[j] = max(relaxed.lower[j], 0.0)
            relaxed.upper[j] = min(relaxed.upper[j], 1.0)
    relaxed.integrality = ["continuous"] * problem.n_cols
    return relaxed


def check_solution(
    graph: Graph,
    values: Mapping[VariableRef, float],
    *,
    integrality_tol: float = 1e-6,
) -> float:
    """Worst violation of the graph's rows, bounds, and integrality."""
    worst = 0.0
    for node in graph.all_nodes():
        for ref in node.variables:
            v = values[ref]
            worst = max(worst, ref.lower - v, v - ref.upper)
            if ref.integrality != "continuous":
                worst = max(worst, abs(v - round(v)) - integrality_tol)
        for con in node.constraints:
            worst = max(worst, con.violation(values))
    for edge in graph.all_edges():
        for con in edge.constraints:
            worst = max(worst, con.violation(values))
    return max(worst, 0.0)


def objective_value(graph: Graph, values: Mapping[VariableRef, float]) -> float:
    return graph.effective_objective().evaluate(values)


def expression_over_columns(
    problem: StandardFormProblem, expr: LinearExpression
) -> tuple[np.ndarray, float]:
    """Dense coefficient vector of an expression in the problem's columns."""
    coefs = np.zeros(problem.n_cols)
    for ref, coef in expr.terms.items():
        coefs[problem.var_index[ref]] += coef
    return coefs, expr.constant
