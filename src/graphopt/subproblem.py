"""Per-stage problems: a subgraph plus relocated linking rows.

A stage is one :class:`StandardFormProblem`: its subgraph's flattened
columns and rows, extended by the columns and rows below.  Linking rows
handed to it from the parent level are rewritten over *copy variables*, one
per foreign variable, which are pinned to the parent's iterate by setting
both of their bounds to it.  A pinned copy's reduced cost is the stage's
sensitivity to that value, and a Lagrangian step unpins the copies back to
the bounds of the variables they copy.  Optional elastic slacks keep
relocated rows feasible for any parent iterate; optional value-function
columns (theta) and cut rows support the decomposition loop.  A cut's row
waits until the stage is next assembled; then every row added since joins
a new problem that stacks them below the stage's matrix and shares everything
else, so a problem handed out earlier keeps its rows and its matrix.  The
stage keeps one basis, its last optimal solve's, and every solve of it
starts there: forward, backward and each Lagrangian step.  The simplex
borders that basis's kept tableau with the cut rows added since (see
:mod:`graphopt.simplex`).  The stage also keeps its last solve's result,
and a MILP's root relaxation with it, until new pins, a cut or a solve from
another basis changes what a solve would start from, and answers an
unchanged stage's solve with it.

Column layout is fixed as ``[own variables][copies][slacks][thetas]`` so a
stage built without thetas produces exactly the same pivot sequence as one
whose theta columns simply never enter the basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import Constraint, Graph, VariableRef
from .solvers import LinearSolver, solve
from .simplex import SolveResult
from .standard_form import Basis, StandardFormProblem, _flat, lp_relaxation

_INF = float("inf")
_SAME = 1e-9  # relative tolerance of two cuts' slopes and right-hand sides


@dataclass
class CutData:
    """One optimality cut: theta >= phi + pi' (x - anchor)."""

    child_id: str
    refs: tuple[VariableRef, ...]
    pi: np.ndarray
    phi: float
    anchor: np.ndarray
    kind: str = "benders"  # "benders" | "strengthened" | "lagrangian" | "warm_start" | "mixed"
    iteration: int = 0
    theta_index: int = 0

    def predicted_value(self, x: np.ndarray) -> float:
        return self.phi + float(self.pi @ (x - self.anchor))

    def same_hyperplane(self, other: "CutData") -> bool:
        """True when both describe the same row, whatever anchor expresses it.

        Slopes agree within 1e-9 of the larger slope (at least 1), and
        right-hand sides within 1e-9 of the larger one (at least 1).
        """
        if self.child_id != other.child_id or self.refs != other.refs:
            return False
        if self.theta_index != other.theta_index or self.pi.shape != other.pi.shape:
            return False
        scale = max(1.0, float(np.max(np.abs(self.pi), initial=0.0)),
                    float(np.max(np.abs(other.pi), initial=0.0)))
        if float(np.max(np.abs(self.pi - other.pi), initial=0.0)) > _SAME * scale:
            return False
        rhs_self = float(self.pi @ self.anchor) - self.phi
        rhs_other = float(other.pi @ other.anchor) - other.phi
        return abs(rhs_self - rhs_other) <= _SAME * max(1.0, abs(rhs_self), abs(rhs_other))


class StageProblem:
    """Solvable form of one subgraph with relocated rows, pinned copies and cuts.

    :meth:`solve` returns the last result again while the stage is unchanged,
    and after a MILP its root relaxation for ``relax=True``:
    :meth:`set_fixed_values` with new values and :meth:`add_cut` drop both,
    and a Lagrangian step moves the kept basis away from them.
    """

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
        base, rows = _flat(subgraph)
        self.graph = subgraph
        self.columns: list[VariableRef] = base.columns
        self.var_index: dict[VariableRef, int] = base.var_index
        self.objective_constant = float(base.objective_constant)
        self.theta_lb = float(theta_lb)
        self.slack_penalty = float(slack_penalty)
        self.is_mip = bool(base.integer_columns())

        # Copy columns for foreign variables, in first-seen order over the
        # relocated rows, pinned at zero until set_fixed_values moves them.
        # Copies stay continuous, since their bounds pin them anyway; only
        # a Lagrangian step frees them, within the original's bounds.
        self.fixed_refs: list[VariableRef] = list(dict.fromkeys(
            ref for con in relocated for ref, _ in con.expr.sorted_terms() if ref not in self.var_index
        ))
        self.copy_col: dict[VariableRef, int] = {ref: base.n_cols + k for k, ref in enumerate(self.fixed_refs)}
        self._copies = np.arange(base.n_cols, base.n_cols + len(self.fixed_refs))
        self._inherited = (np.array([ref.lower for ref in self.fixed_refs], dtype=float),
                           np.array([ref.upper for ref in self.fixed_refs], dtype=float))

        # relocated rows over own columns and copies; slack columns follow the copies
        rows.provenance = {r: f"own:{uid}" for r, uid in rows.provenance.items()}
        self.slack_cols: list[int] = []
        first_slack = base.n_cols + len(self.fixed_refs)
        column = {**self.var_index, **self.copy_col}
        for con in relocated:
            slacks = []
            if add_slacks:
                for sense, coef in (("le", -1.0), ("ge", 1.0)):
                    if con.sense in (sense, "eq"):
                        col = first_slack + len(self.slack_cols)
                        self.slack_cols.append(col)
                        slacks.append((col, coef))
            rows.add(con, column, f"link:{con.uid}", slacks)

        # what an error on an infeasible solve of the stage suggests: slacks help only relocated rows
        self.infeasible_hint = " (consider enabling elastic slacks)" if relocated and not self.slack_cols else ""

        k, s = len(self.fixed_refs), len(self.slack_cols)
        self.theta_cols: list[int] = list(range(first_slack + s, first_slack + s + theta_count))
        self._problem = replace(
            base,
            objective=np.concatenate([base.objective, np.zeros(k), np.full(s, self.slack_penalty),
                                      np.ones(theta_count)]),
            objective_constant=self.objective_constant,
            lower=np.concatenate([base.lower, np.zeros(k + s), np.full(theta_count, self.theta_lb)]),
            upper=np.concatenate([base.upper, np.zeros(k), np.full(s + theta_count, _INF)]),
            integrality=base.integrality + ["continuous"] * (k + s + theta_count),
            **rows.fields(first_slack + s + theta_count),
        )

        self.cuts: list[CutData] = []
        self._cuts_by_key: dict[tuple[str, int], list[CutData]] = {}  # by (child_id, theta_index)
        self._new_rows: list[tuple[dict[int, float], str, float, str]] = []  # cut rows not yet in _problem
        # the last optimal solve's basis (a MILP's root basis); every solve starts there
        self._basis: Optional[Basis] = None
        # the last solve's result by ``relax``, a MILP's root relaxation under True, until new pins or a cut
        self._last: dict[bool, SolveResult] = {}

    def fixed_values(self) -> np.ndarray:
        return self._problem.lower[self._copies]

    # -- iterate plumbing ------------------------------------------------

    def set_fixed_values(self, values: Iterable[float]) -> None:
        vals = np.array(list(values), dtype=float)
        if vals.size != len(self.fixed_refs):
            raise ValueError(
                f"expected {len(self.fixed_refs)} fixed values, got {vals.size}"
            )
        if vals.tobytes() != self.fixed_values().tobytes():
            self._last = {}
        self._problem.lower[self._copies] = self._problem.upper[self._copies] = vals

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
        self._new_rows.append((coefs, "le", rhs, f"cut:{cut.child_id}:{cut.kind}:{cut.iteration}"))
        self._last = {}
        self.cuts.append(cut)
        self._cuts_by_key.setdefault((cut.child_id, cut.theta_index), []).append(cut)

    def has_equivalent_cut(self, cut: CutData) -> bool:
        # a cut can only equal an installed one of its own child and theta column
        return any(cut.same_hyperplane(old) for old in self._cuts_by_key.get((cut.child_id, cut.theta_index), ()))

    # -- problem assembly ------------------------------------------------

    def _kept(self) -> StandardFormProblem:
        """The stage's problem with the rows added since joined; a basis with no tableau then goes."""
        if self._new_rows:
            self._problem = self._problem.with_rows(self._new_rows)
            self._new_rows = []
            if self._basis is not None and self._basis._tableau is None:
                self._basis = None
        return self._problem

    def problem(self, relax: bool = False) -> StandardFormProblem:
        """The stage as it stands, sharing the stage's matrix and senses; its arrays are its own."""
        kept = self._kept()
        prob = kept.with_changes(objective=kept.objective.copy(), rhs=kept.rhs.copy(),
                                 lower=kept.lower.copy(), upper=kept.upper.copy())
        return lp_relaxation(prob) if relax else prob

    def lagrangian_problem(self, mu: np.ndarray, anchor: np.ndarray) -> StandardFormProblem:
        """The copies unpinned to the bounds they inherit; their deviation priced into the objective.

        min  c'y + theta - mu' (z - anchor)  over every row of the stage.

        Only the objective and the copies' bounds differ from :meth:`problem`,
        whose matrix and senses every call shares until a cut adds a row.
        """
        kept = self._kept()
        objective = kept.objective.copy()
        objective[self._copies] -= mu
        lower, upper = kept.lower.copy(), kept.upper.copy()
        lower[self._copies], upper[self._copies] = self._inherited
        constant = self.objective_constant + float(mu @ anchor)
        return kept.with_changes(objective=objective, objective_constant=constant, lower=lower, upper=upper)

    # no library caller; perfbench/tracing.py still wraps it by name, so it goes with that file's next change
    def level_set_problem(self, level: float) -> StandardFormProblem:
        """Zero objective plus a cap on the original objective value."""
        prob = self._kept()
        cap = {int(c): float(prob.objective[c]) for c in np.flatnonzero(prob.objective)}
        return prob.with_rows([(cap, "le", float(level) - self.objective_constant, "level_set")],
                              objective=np.zeros(prob.n_cols), objective_constant=0.0,
                              lower=prob.lower.copy(), upper=prob.upper.copy())

    # -- solving and extraction -------------------------------------------

    def solve(self, solver: Optional[LinearSolver] = None, relax: bool = False) -> SolveResult:
        """Solve the stage from its basis: a MIP stage's relaxation and MILP share it.

        That basis may be a Lagrangian step's, under other costs and with the
        copies unpinned; the simplex starts from any basis (see
        :mod:`graphopt.simplex`).  An LP stage is its own relaxation.  An
        unchanged stage returns its last result instead: the same ``relax``,
        pins equal to that solve's bit for bit, no cut added since, and that
        result's basis still the kept one.  A MILP's root relaxation is the
        LP at the same pins, so it answers ``relax=True`` likewise.  This is
        exact: a re-solve would start from that basis's own tableau under the
        same bounds, rows and costs, so it could only return the same result.
        """
        relax = relax and self.is_mip
        last = self._last.get(relax)
        if last is not None and last.basis is self._basis:
            return last
        result = self._solve(self.problem(relax=relax), solver)
        self._last = {relax: result} if result.basis is not None else {}  # only optimal solves have a basis
        if result.relaxation is not None:  # an optimal MILP's root relaxation, the LP at the same pins
            self._last[True] = result.relaxation
        return result

    def solve_lagrangian(self, mu: np.ndarray, anchor: np.ndarray,
                         solver: Optional[LinearSolver] = None) -> SolveResult:
        """Solve :meth:`lagrangian_problem` from the stage's basis.

        Its optimum is the Lagrangian value L(mu) at the anchor: one step of
        a Lagrangian ascent, and the whole of a strengthened cut.
        """
        return self._solve(self.lagrangian_problem(mu, anchor), solver)

    def _solve(self, problem: StandardFormProblem, solver: Optional[LinearSolver]) -> SolveResult:
        problem.basis = self._basis
        result = solve(problem, solver)
        if result.basis is not None:  # only optimal solves return one
            self._basis = result.basis
        return result

    def fixing_duals(self, result: SolveResult) -> np.ndarray:
        """The pinned copies' reduced costs: the sensitivity of the stage's value to each pin.

        A copy that a solve from a Lagrangian step's basis leaves basic at its
        pin reads 0, a degenerate but valid slope: any optimal duals give one.
        """
        if result.reduced_costs is None:
            raise ValueError("solve result carries no duals")
        return np.asarray(result.reduced_costs, dtype=float)[self._copies]

    def theta_values(self, result: SolveResult) -> np.ndarray:
        assert result.primal is not None
        return np.array([result.primal[c] for c in self.theta_cols], dtype=float)

    def true_cost(self, result: SolveResult) -> float:
        """Objective value excluding value-function columns (slacks included)."""
        assert result.primal is not None
        n = self._problem.n_cols - len(self.theta_cols)
        return float(np.dot(self._problem.objective[:n], result.primal[:n]) + self.objective_constant)

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
