"""Per-stage problems: a subgraph plus relocated linking rows.

A stage owns its subgraph's variables and rows.  Linking rows handed to it
from the parent level are rewritten over *copy variables*, one per foreign
variable, which are pinned to the parent's iterate by setting both of their
bounds to it.  A pinned copy's reduced cost is the stage's sensitivity to
that value, and a Lagrangian step unpins the copies back to the bounds of
the variables they copy.  Optional elastic slacks keep relocated rows
feasible for any parent iterate; optional value-function columns (theta)
and cut rows support the decomposition loop.

Column layout is fixed as ``[own variables][copies][slacks][thetas]`` so a
stage built without thetas produces exactly the same pivot sequence as one
whose theta columns simply never enter the basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import IterationLimitError, SubproblemInfeasibleError, UnboundedError
from .model import Constraint, Graph, VariableRef
from .solvers import LinearSolver, solve
from .simplex import SolveResult
from .standard_form import BASIC, Basis, StandardFormProblem, flatten, lp_relaxation

_INF = float("inf")


@dataclass
class _Row:
    coefs: dict[int, float]
    sense: str  # "le" | "eq"
    rhs: float
    tag: str


@dataclass
class CutData:
    """One optimality cut: theta >= phi + pi' (x - anchor)."""

    child_id: str
    refs: tuple[VariableRef, ...]
    pi: np.ndarray
    phi: float
    anchor: np.ndarray
    kind: str = "benders"  # "benders" | "strengthened" | "lagrangian" | "warm_start"
    iteration: int = 0
    theta_index: int = 0

    def predicted_value(self, x: np.ndarray) -> float:
        return self.phi + float(self.pi @ (x - self.anchor))

    def same_hyperplane(self, other: "CutData", tol: float = 1e-12) -> bool:
        """True when both describe the same row, whatever anchor expresses it."""
        if self.child_id != other.child_id or self.refs != other.refs:
            return False
        if self.theta_index != other.theta_index or self.pi.shape != other.pi.shape:
            return False
        if float(np.max(np.abs(self.pi - other.pi), initial=0.0)) > tol:
            return False
        rhs_self = float(self.pi @ self.anchor) - self.phi
        rhs_other = float(other.pi @ other.anchor) - other.phi
        return abs(rhs_self - rhs_other) <= tol


def _extended(basis: Optional[Basis], n_rows: int) -> Optional[Basis]:
    """``basis`` with a basic slack on every row appended since it was taken."""
    if basis is None or basis.rows.size == n_rows:
        return basis
    rows = np.concatenate([basis.rows, np.full(n_rows - basis.rows.size, BASIC, np.int8)])
    return Basis(basis.columns, rows)


class StageProblem:
    """Solvable form of one subgraph with relocated rows, pinned copies and cuts."""

    def __init__(
        self,
        subgraph: Graph,
        relocated: Sequence[Constraint] = (),
        *,
        theta_count: int = 0,
        theta_lb: float = -1e9,
        add_slacks: bool = False,
        slack_penalty: float = 1e6,
    ):
        base = flatten(subgraph)
        self.graph = subgraph
        self.columns: list[VariableRef] = list(base.columns)
        self.var_index: dict[VariableRef, int] = dict(base.var_index)
        self.n_own = len(self.columns)
        self._objective: list[float] = [float(c) for c in base.objective]
        self.objective_constant = float(base.objective_constant)
        self._lower: list[float] = [float(v) for v in base.lower]
        self._upper: list[float] = [float(v) for v in base.upper]
        self._integrality: list[str] = list(base.integrality)
        self.theta_lb = float(theta_lb)
        self.slack_penalty = float(slack_penalty)

        self._rows: list[_Row] = []
        dense = {}
        for r, c, v in base.triplets:
            dense.setdefault(r, {})[c] = dense.setdefault(r, {}).get(c, 0.0) + v
        for r in range(base.n_rows):
            self._rows.append(
                _Row(dense.get(r, {}), base.senses[r], float(base.rhs[r]), f"own:{base.row_provenance[r]}")
            )

        # Copy columns for foreign variables, in first-seen order over the
        # relocated rows, pinned at zero until set_fixed_values moves them.
        # Copies stay continuous, since their bounds pin them anyway; only
        # a Lagrangian step frees them, within the original's bounds.
        self.fixed_refs: list[VariableRef] = []
        self.copy_col: dict[VariableRef, int] = {}
        for con in relocated:
            for ref, _ in con.expr.sorted_terms():
                if ref in self.var_index or ref in self.copy_col:
                    continue
                self.copy_col[ref] = self._new_column(0.0, 0.0, 0.0, "continuous")
                self.fixed_refs.append(ref)
        self._copies = np.array([self.copy_col[ref] for ref in self.fixed_refs], dtype=np.intp)
        self._inherited = (np.array([ref.lower for ref in self.fixed_refs], dtype=float),
                           np.array([ref.upper for ref in self.fixed_refs], dtype=float))

        self.slack_cols: list[int] = []
        for con in relocated:
            coefs: dict[int, float] = {}
            for ref, coef in con.expr.sorted_terms():
                col = self.var_index.get(ref, self.copy_col.get(ref))
                coefs[col] = coefs.get(col, 0.0) + coef
            rhs = con.rhs - con.expr.constant
            sense = con.sense
            if add_slacks:
                if sense in ("le", "eq"):
                    up = self._new_column(self.slack_penalty, 0.0, _INF, "continuous")
                    self.slack_cols.append(up)
                    coefs[up] = -1.0
                if sense in ("ge", "eq"):
                    dn = self._new_column(self.slack_penalty, 0.0, _INF, "continuous")
                    self.slack_cols.append(dn)
                    coefs[dn] = 1.0
            if sense == "ge":
                coefs = {c: -v for c, v in coefs.items()}
                rhs = -rhs
                sense = "le"
            self._rows.append(_Row(coefs, sense, float(rhs), f"link:{con.uid}"))

        self.theta_cols: list[int] = []
        for k in range(theta_count):
            self.theta_cols.append(self._new_column(1.0, self.theta_lb, _INF, "continuous"))

        self.cuts: list[CutData] = []
        # the assembled problem with its kept matrix, until a cut adds a row
        self._assembled: Optional[StandardFormProblem] = None
        # the last optimal solve's basis (a MILP's root basis), and the last
        # Lagrangian solve's: the next solve of each starts there.  The last
        # optimal Lagrangian point is the next Lagrangian MILP's start.
        self._basis: Optional[Basis] = None
        self._lagrangian_basis: Optional[Basis] = None
        self._lagrangian_point: Optional[np.ndarray] = None

    def _new_column(self, cost: float, lower: float, upper: float, integrality: str) -> int:
        self._objective.append(cost)
        self._lower.append(lower)
        self._upper.append(upper)
        self._integrality.append(integrality)
        return len(self._objective) - 1

    @property
    def is_mip(self) -> bool:
        return any(kind != "continuous" for kind in self._integrality)

    def fixed_values(self) -> np.ndarray:
        return np.array(self._lower, dtype=float)[self._copies]

    # -- iterate plumbing ------------------------------------------------

    def set_fixed_values(self, values: Iterable[float]) -> None:
        vals = list(values)
        if len(vals) != len(self.fixed_refs):
            raise ValueError(
                f"expected {len(self.fixed_refs)} fixed values, got {len(vals)}"
            )
        for col, val in zip(self._copies, vals):
            self._lower[col] = self._upper[col] = float(val)
            if self._assembled is not None:
                self._assembled.lower[col] = self._assembled.upper[col] = float(val)

    def add_cut(self, cut: CutData) -> None:
        if not 0 <= cut.theta_index < len(self.theta_cols):
            raise ValueError(f"no theta column {cut.theta_index}")
        coefs: dict[int, float] = {self.theta_cols[cut.theta_index]: -1.0}
        for ref, coef in zip(cut.refs, cut.pi):
            col = self.var_index.get(ref)
            if col is None:
                raise ValueError(f"cut references non-stage variable {ref.qualified_name}")
            if coef:
                coefs[col] = coefs.get(col, 0.0) + float(coef)
        rhs = float(cut.pi @ cut.anchor) - cut.phi
        self._rows.append(_Row(coefs, "le", rhs, f"cut:{cut.child_id}:{cut.kind}:{cut.iteration}"))
        self.cuts.append(cut)
        self._assembled = None

    def has_equivalent_cut(self, cut: CutData, tol: float = 1e-12) -> bool:
        return any(cut.same_hyperplane(old, tol) for old in self.cuts)

    # -- problem assembly ------------------------------------------------

    def _assemble(
        self,
        rows: Sequence[_Row],
        objective: Sequence[float],
        constant: float,
        integrality: Sequence[str],
    ) -> StandardFormProblem:
        triplets = []
        for r, row in enumerate(rows):
            for c, v in sorted(row.coefs.items()):
                if v:
                    triplets.append((r, c, v))
        return StandardFormProblem(
            columns=list(self.columns),
            var_index=dict(self.var_index),
            objective=np.array(objective, dtype=float),
            objective_constant=float(constant),
            triplets=triplets,
            senses=[row.sense for row in rows],
            rhs=np.array([row.rhs for row in rows], dtype=float),
            lower=np.array(self._lower, dtype=float),
            upper=np.array(self._upper, dtype=float),
            integrality=list(integrality),
            row_provenance={r: row.tag for r, row in enumerate(rows)},
        )

    def _kept(self) -> StandardFormProblem:
        """The assembled stage, whose matrix is built once per set of cuts."""
        if self._assembled is None:
            self._assembled = self._assemble(self._rows, self._objective, self.objective_constant,
                                             self._integrality)
            self._assembled.keep_dense_rows()
        return self._assembled

    def problem(self, relax: bool = False) -> StandardFormProblem:
        """The stage as it stands, sharing the kept matrix and row lists; its arrays are its own."""
        kept = self._kept()
        prob = replace(kept, objective=kept.objective.copy(), rhs=kept.rhs.copy(),
                       lower=kept.lower.copy(), upper=kept.upper.copy())
        return lp_relaxation(prob) if relax else prob

    def lagrangian_problem(self, mu: np.ndarray, anchor: np.ndarray) -> StandardFormProblem:
        """The copies unpinned to the bounds they inherit; their deviation priced into the objective.

        min  c'y + theta - mu' (z - anchor)  over every row of the stage.

        Only the objective and the copies' bounds differ from :meth:`problem`,
        whose kept matrix and row lists every call shares until a cut adds a row.
        """
        kept = self._kept()
        objective = kept.objective.copy()
        objective[self._copies] -= mu
        lower, upper = kept.lower.copy(), kept.upper.copy()
        lower[self._copies], upper[self._copies] = self._inherited
        constant = self.objective_constant + float(mu @ anchor)
        return kept.with_changes(objective=objective, objective_constant=constant, lower=lower, upper=upper)

    def level_set_problem(self, level: float) -> StandardFormProblem:
        """Zero objective plus a cap on the original objective value."""
        cap = _Row(
            {c: v for c, v in enumerate(self._objective) if v},
            "le",
            float(level) - self.objective_constant,
            "level_set",
        )
        zeros = [0.0] * len(self._objective)
        return self._assemble(list(self._rows) + [cap], zeros, 0.0, self._integrality)

    # -- solving and extraction -------------------------------------------

    def solve(self, solver: Optional[LinearSolver] = None, relax: bool = False) -> SolveResult:
        """Solve the stage, starting from the last optimal solve's basis.

        That is the final basis of an LP solve or the root basis of a MILP
        solve; a MIP stage's relaxation and its MILP share it, since the
        MILP's root is that relaxation.  Between forward passes only the
        pinned copies' bounds move, so the basis stays dual feasible; a cut
        added since gets a basic slack.
        """
        problem = self.problem(relax=relax)
        problem.basis = _extended(self._basis, problem.n_rows)
        result = solve(problem, solver)
        if result.basis is not None:  # only optimal solves return one
            self._basis = result.basis
        return result

    def solve_lagrangian(self, mu: np.ndarray, anchor: np.ndarray,
                         solver: Optional[LinearSolver] = None) -> SolveResult:
        """Solve :meth:`lagrangian_problem`, starting from the last such solve's root basis and point.

        Successive multipliers change only the objective, so the MILP root
        re-prices the kept tableau of the last root and primal Phase II
        finishes it, and the last optimal point is still feasible: it is the
        search's first incumbent (``problem.start``).  After :meth:`add_cut`
        the MILP checks that the point meets the new row, and ignores it if
        it does not.
        """
        problem = self.lagrangian_problem(mu, anchor)
        problem.basis = _extended(self._lagrangian_basis, problem.n_rows)
        problem.start = self._lagrangian_point
        result = solve(problem, solver)
        if result.basis is not None:  # only optimal solves return one
            self._lagrangian_basis = result.basis
            self._lagrangian_point = result.primal
        return result

    def fixing_duals(self, result: SolveResult) -> np.ndarray:
        """The pinned copies' reduced costs: the sensitivity of the stage's value to each pin."""
        if result.reduced_costs is None:
            raise ValueError("solve result carries no duals")
        return np.asarray(result.reduced_costs, dtype=float)[self._copies]

    def theta_values(self, result: SolveResult) -> np.ndarray:
        assert result.primal is not None
        return np.array([result.primal[c] for c in self.theta_cols], dtype=float)

    def true_cost(self, result: SolveResult) -> float:
        """Objective value excluding value-function columns (slacks included)."""
        assert result.primal is not None
        n = len(self._objective) - len(self.theta_cols)
        obj = np.array(self._objective[:n], dtype=float)
        return float(np.dot(obj, result.primal[:n]) + self.objective_constant)

    def full_objective_value(self, result: SolveResult) -> float:
        """Objective value including value-function columns (for level-set audits)."""
        assert result.primal is not None
        obj = np.array(self._objective, dtype=float)
        return float(np.dot(obj, result.primal) + self.objective_constant)

    def slack_activity(self, result: SolveResult) -> float:
        if not self.slack_cols or result.primal is None:
            return 0.0
        return float(max(result.primal[c] for c in self.slack_cols))

    def own_solution(self, result: SolveResult) -> dict[VariableRef, float]:
        assert result.primal is not None
        return {ref: float(result.primal[j]) for j, ref in enumerate(self.columns)}

    def values_for(self, refs: Sequence[VariableRef], result: SolveResult) -> np.ndarray:
        assert result.primal is not None
        out = np.empty(len(refs))
        for j, ref in enumerate(refs):
            col = self.var_index.get(ref)
            if col is None:
                col = self.copy_col[ref]
            out[j] = result.primal[col]
        return out

    def require_verdict(self, result: SolveResult, context: str) -> SolveResult:
        """``result`` if it is optimal, infeasible or unbounded; otherwise raise."""
        if result.status not in ("optimal", "infeasible", "unbounded"):
            raise IterationLimitError(
                f"stage {self.graph.id!r} stopped as {result.status!r} without a verdict "
                f"during {context}"
            )
        return result

    def require_feasible(self, result: SolveResult, context: str) -> SolveResult:
        """``result`` unless it is infeasible or has no verdict; then raise."""
        self.require_verdict(result, context)
        if result.status == "infeasible":
            hint = "" if self.slack_cols else " (consider enabling elastic slacks)"
            raise SubproblemInfeasibleError(
                f"stage {self.graph.id!r} infeasible during {context}{hint}"
            )
        return result

    def require_optimal(self, result: SolveResult, context: str) -> SolveResult:
        """``result`` if it is optimal; otherwise raise the error that its status names."""
        self.require_feasible(result, context)
        if result.status == "unbounded":
            raise UnboundedError(f"stage {self.graph.id!r} unbounded during {context}")
        return result
