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
from typing import Any, Callable, Hashable, Mapping, Optional

import numpy as np

from .errors import EmptyModelError
from .model import Constraint, Graph, VariableRef

# Basis status codes, as Gurobi's VBasis / CBasis attributes use them
BASIC = 0
AT_LOWER = -1      # a nonbasic column at its lower bound; for a row: nonbasic, held tight
AT_UPPER = -2
FREE_ZERO = -3     # a nonbasic free column, resting at zero
NONBASIC = AT_LOWER


class Deferred:
    """A dataclass field that may be given a function of no arguments instead of its value.

    The function runs on the first read, and its value replaces it.  A field
    given a plain value, ``None`` by default, reads as that value.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the default, as ``dataclass`` reads it
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.slot] = value

    @staticmethod
    def state(obj) -> dict:
        """``obj.__dict__`` with every deferred field worked out: a pickled state."""
        state = dict(obj.__dict__)
        for name, attr in vars(type(obj)).items():
            if isinstance(attr, Deferred):
                state[attr.slot] = getattr(obj, name)
        return state


@dataclass(frozen=True, eq=False)
class Basis:
    """A simplex basis, stated over the problem's own columns and rows.

    ``columns[j]`` is :data:`BASIC`, :data:`AT_LOWER`, :data:`AT_UPPER` or
    :data:`FREE_ZERO`; ``rows[i]`` is :data:`BASIC` when row ``i``'s slack is
    basic and :data:`NONBASIC` when the row is held at its right-hand side.
    Exactly ``len(rows)`` entries are basic.  A basis returned by an optimal
    solve also keeps that solve's final tableau privately, so that the next
    re-solve of the same matrix can start from it (see :mod:`graphopt.simplex`);
    such a re-solve reads no status code, so a basis that keeps a tableau
    works its codes out from it on first read (see :class:`Deferred`).
    """

    columns: np.ndarray = Deferred()
    rows: np.ndarray = Deferred()
    _tableau: Optional[object] = field(default=None, repr=False)

    __getstate__ = Deferred.state


@dataclass
class StandardFormProblem:
    """One problem in standard form (see the module docstring), with an optional hint.

    ``basis`` is a starting basis for the simplex to try first.
    """

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
    basis: Optional[Basis] = None
    # (triplets, their count, read-only matrix, senses, their count, row signs,
    # what memo() worked out from them) once keep_dense_rows() has run
    _dense: Optional[tuple] = field(default=None, repr=False, compare=False)

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
        kept = self._dense
        if (kept is not None and kept[0] is self.triplets
                and kept[1] == len(self.triplets) and kept[2].shape == (m, n)):
            return kept[2]
        if not self.triplets:
            return np.zeros((m, n))
        ijv = np.array(self.triplets, dtype=float)
        # bincount sums repeated (i, j) entries in triplet order
        flat = ijv[:, 0].astype(np.intp) * n + ijv[:, 1].astype(np.intp)
        return np.bincount(flat, weights=ijv[:, 2], minlength=m * n).reshape(m, n)

    def keep_dense_rows(self) -> None:
        """Build the dense matrix once and share it with every ``replace()`` of this problem.

        The kept matrix is read-only, and so are the row signs kept with it.
        The matrix is rebuilt when ``triplets`` is replaced or grows, the signs
        when ``senses`` is, and ``copy()`` carries neither over.  While both
        are current, another call changes nothing.
        """
        a = self.dense_rows()
        if self._dense is None or self._dense[2] is not a or self._dense[5] is not self.row_signs():
            self._keep(a)

    def _keep(self, a: np.ndarray) -> None:
        signs = self.row_signs()
        for array in (a, *signs):
            array.flags.writeable = False
        self._dense = (self.triplets, len(self.triplets), a, self.senses, len(self.senses), signs, {})

    def memo(self, key: Hashable, make: Callable[[], Any]) -> Any:
        """``make()``, worked out once per kept matrix and row signs, under ``key``.

        Keeps the matrix first (see :meth:`keep_dense_rows`); every problem
        that shares it then shares the value.  ``make`` may read nothing but
        the matrix, the row signs and what ``key`` names.
        """
        self.keep_dense_rows()
        memo = self._dense[6]
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def row_signs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(eq, sign)``: a mask of the equality rows, and -1 on "ge" rows, 1 elsewhere."""
        kept = self._dense
        if kept is not None and kept[3] is self.senses and kept[4] == len(self.senses):
            return kept[5]
        senses = np.array(self.senses, dtype=str)
        return senses == "eq", np.where(senses == "ge", -1.0, 1.0)

    def with_changes(self, **changes) -> "StandardFormProblem":
        """A shallow copy with ``changes`` set: ``dataclasses.replace`` at the cost of a dict copy.

        Branch-and-bound makes one per node.
        """
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **changes)
        return new

    def with_rows(self, rows: list[tuple[Mapping[int, float], str, float, str]],
                  **changes) -> "StandardFormProblem":
        """This problem plus each row ``(coefs, sense, rhs, provenance)``, with ``changes`` set.

        A row reads ``sum coefs[j] x_j (sense) rhs``.  The row lists are new
        ones, so a problem that shares this one's rows keeps them.  The new
        problem keeps this one's matrix with the rows appended, so nothing is
        rebuilt from the triplets; every other field is shared, as in
        :meth:`with_changes`.
        """
        m = self.n_rows
        coefs, senses, rhs, provenance = zip(*rows)
        block = np.zeros((len(rows), self.n_cols))
        for i, row in enumerate(coefs):
            block[i, list(row)] = list(row.values())
        new = self.with_changes(
            triplets=self.triplets + [(m + i, j, v) for i, row in enumerate(coefs) for j, v in row.items()],
            senses=self.senses + list(senses),
            rhs=np.append(self.rhs, rhs),
            row_provenance={**self.row_provenance, **dict(enumerate(provenance, m))},
            **changes,
        )
        new._keep(np.vstack([self.dense_rows(), block]))
        return new

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
            _dense=None,
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
    """Drop integrality; binary columns keep their [0, 1] domain.

    The relaxation has its own bounds and shares everything else, the kept
    matrix included, so that a basis it returns can re-solve ``problem``.
    """
    binary = np.array([kind == "binary" for kind in problem.integrality], dtype=bool)
    return problem.with_changes(
        lower=np.where(binary, np.maximum(problem.lower, 0.0), problem.lower),
        upper=np.where(binary, np.minimum(problem.upper, 1.0), problem.upper),
        integrality=["continuous"] * problem.n_cols,
    )


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
