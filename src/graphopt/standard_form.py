"""Flattening a graph into a single matrix-form problem.

The standard form is a minimization over one dense column space:

    min  c'x + c0
    s.t. rows with sense "le", "eq" or "ge"
         lower <= x <= upper, per-column integrality

:func:`flatten` negates every "ge" row of the model into a "le" row, so it
emits "le" and "eq" rows only; a "ge" row given directly is accepted, and
its row sign is -1 (see :meth:`StandardFormProblem.row_signs`).

Column order follows the depth-first node order of the graph and variable
insertion order inside each node, so it is reproducible.  Every row carries
a provenance string naming the constraint it came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Hashable, Mapping, Optional, Sequence

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

    The problem takes ``matrix`` over and makes it read-only, and works out
    its row signs once: every problem that shares them (see
    :meth:`with_changes`) shares :meth:`memo` too.  ``basis`` is a starting
    basis for the simplex to try first.
    """

    columns: list[VariableRef]
    var_index: dict[VariableRef, int]
    objective: np.ndarray
    objective_constant: float
    matrix: np.ndarray                 # the rows, dense: (n_rows, n_cols)
    senses: tuple[str, ...]            # "le", "eq" or "ge"; flatten() emits "le" and "eq" only
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: list[str]
    row_provenance: dict[int, str] = field(default_factory=dict)
    basis: Optional[Basis] = None

    def __post_init__(self) -> None:
        self.senses = tuple(self.senses)
        senses = np.array(self.senses, dtype=str)
        self._signs = (senses == "eq", np.where(senses == "ge", -1.0, 1.0))
        for array in (self.matrix, *self._signs):
            array.flags.writeable = False
        self._memo: dict[Hashable, Any] = {}

    @property
    def n_cols(self) -> int:
        # ``columns`` maps model variables; assembled stage problems may carry
        # extra internal columns (copies, slacks, value-function terms).
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.senses)

    @property
    def triplets(self) -> list[tuple[int, int, float]]:
        """The nonzero entries ``(i, j, value)`` of ``matrix``, row by row."""
        i, j = self.matrix.nonzero()
        return list(zip(i.tolist(), j.tolist(), self.matrix[i, j].tolist()))

    def dense_rows(self) -> np.ndarray:
        return self.matrix

    def row_signs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(eq, sign)``, read-only: a mask of the equality rows, and -1 on "ge" rows, 1 elsewhere."""
        return self._signs

    def memo(self, key: Hashable, make: Callable[[], Any]) -> Any:
        """``make()``, worked out once under ``key`` for every problem that shares these rows.

        ``make`` may read nothing but the matrix, the row signs and what
        ``key`` names.
        """
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def with_changes(self, **changes) -> "StandardFormProblem":
        """A shallow copy with ``changes`` set: ``dataclasses.replace`` at the cost of a dict copy.

        The copy shares the rows, their signs and :meth:`memo`, so ``changes``
        may set neither ``matrix`` nor ``senses``.  Branch-and-bound makes one
        per node.
        """
        if "matrix" in changes or "senses" in changes:
            raise TypeError("with_changes() keeps the rows; replace() or with_rows() makes new ones")
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **changes)
        return new

    def with_rows(self, rows: list[tuple[Mapping[int, float], str, float, str]],
                  **changes) -> "StandardFormProblem":
        """This problem plus each row ``(coefs, sense, rhs, provenance)``, with ``changes`` set.

        A row reads ``sum coefs[j] x_j (sense) rhs``.  The new problem's
        matrix is this one's with the rows stacked below it; every other field
        is shared, as in :meth:`with_changes`.
        """
        m = self.n_rows
        coefs, senses, rhs, provenance = zip(*rows)
        block = np.zeros((len(rows), self.n_cols))
        for i, row in enumerate(coefs):
            block[i, list(row)] = list(row.values())
        return replace(self, matrix=np.vstack([self.matrix, block]), senses=self.senses + senses,
                       rhs=np.append(self.rhs, rhs),
                       row_provenance={**self.row_provenance, **dict(enumerate(provenance, m))}, **changes)

    def integer_columns(self) -> list[int]:
        return [j for j, kind in enumerate(self.integrality) if kind != "continuous"]

    def copy(self) -> "StandardFormProblem":
        return replace(
            self,
            columns=list(self.columns),
            var_index=dict(self.var_index),
            objective=self.objective.copy(),
            matrix=self.matrix.copy(),
            rhs=self.rhs.copy(),
            lower=self.lower.copy(),
            upper=self.upper.copy(),
            integrality=list(self.integrality),
            row_provenance=dict(self.row_provenance),
        )

    def values_by_ref(self, x: np.ndarray) -> dict[VariableRef, float]:
        return {ref: float(x[j]) for ref, j in self.var_index.items()}


@dataclass
class _Rows:
    """Rows written one constraint at a time, each "ge" one negated into "le", then made dense once."""

    entries: list[tuple[int, int, float]] = field(default_factory=list)  # (row, column, value), each once
    senses: list[str] = field(default_factory=list)
    rhs: list[float] = field(default_factory=list)
    provenance: dict[int, str] = field(default_factory=dict)

    def add(self, con: Constraint, column: Mapping[VariableRef, int], provenance: str,
            extra: Sequence[tuple[int, float]] = ()) -> None:
        """``con`` as a row: each term at ``column[ref]``, in any order, then the ``extra`` pairs."""
        row = len(self.senses)
        sign = -1.0 if con.sense == "ge" else 1.0
        self.entries += [(row, column[ref], sign * coef) for ref, coef in con.expr.terms.items()]
        self.entries += [(row, j, sign * v) for j, v in extra]
        self.senses.append("eq" if con.sense == "eq" else "le")
        self.rhs.append(sign * (con.rhs - con.expr.constant))
        self.provenance[row] = provenance

    def fields(self, n: int) -> dict[str, Any]:
        """The row fields of a problem over ``n`` columns."""
        m = len(self.senses)
        ijv = np.array(self.entries, dtype=float).reshape(-1, 3)
        # no (i, j) repeats, so bincount only scatters the entries; given none, it returns integer zeros
        flat = ijv[:, 0].astype(np.intp) * n + ijv[:, 1].astype(np.intp)
        matrix = np.bincount(flat, weights=ijv[:, 2], minlength=m * n).astype(float, copy=False)
        return dict(matrix=matrix.reshape(m, n), senses=self.senses, rhs=np.array(self.rhs, dtype=float),
                    row_provenance=self.provenance)


def flatten(graph: Graph) -> StandardFormProblem:
    """Collapse the whole hierarchy into one StandardFormProblem."""
    base, rows = _flat(graph)
    return replace(base, **rows.fields(base.n_cols))


def _flat(graph: Graph) -> tuple[StandardFormProblem, _Rows]:
    """``graph``'s columns as a problem with no rows, and its rows, written but not yet dense."""
    nodes = graph.all_nodes()
    columns = [ref for node in nodes for ref in node.variables]
    if not columns:
        raise EmptyModelError(f"graph {graph.id!r} declares no variables")
    var_index = {ref: j for j, ref in enumerate(columns)}

    objective = np.zeros(len(columns))
    obj_expr = graph.effective_objective()
    for ref, coef in obj_expr.terms.items():
        objective[var_index[ref]] += coef

    rows = _Rows()
    for part in (*nodes, *graph.all_edges()):
        for con in part.constraints:
            rows.add(con, var_index, con.uid)

    return StandardFormProblem(
        columns=columns,
        var_index=var_index,
        objective=objective,
        objective_constant=obj_expr.constant,
        matrix=np.zeros((0, len(columns))),
        senses=(),
        rhs=np.zeros(0),
        lower=np.array([ref.lower for ref in columns], dtype=float),
        upper=np.array([ref.upper for ref in columns], dtype=float),
        integrality=[ref.integrality for ref in columns],
    ), rows


def lp_relaxation(problem: StandardFormProblem) -> StandardFormProblem:
    """Drop integrality; binary columns keep their [0, 1] domain.

    The relaxation has its own bounds and shares everything else, the
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
