"""Correctness gate: every timed solve is checked against a HiGHS optimum.

The reference comes from ``scipy.optimize.linprog`` / ``milp`` (HiGHS) over
``flatten(graph)``, computed once per model outside every timed region.
Each check returns ``None`` on a pass and a one-line reason on a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-6          # relative tolerance on objectives
MAX_VIOLATION = 1e-6  # absolute tolerance on rows, bounds and integrality


@dataclass
class Outcome:
    """What one solve call returned, reduced to what the gate needs."""

    status: str
    objective: float
    max_violation: float = math.inf
    slack_cost: float = 0.0  # objective share paid to elastic slacks (sequential)


def reference_optimum(problem) -> float:
    """Optimal objective of a ``StandardFormProblem``, solved by HiGHS."""
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp

    a = problem.dense_rows()
    eq = np.array([s == "eq" for s in problem.senses], dtype=bool)
    bounds = list(zip(problem.lower, problem.upper))
    integrality = np.array([kind != "continuous" for kind in problem.integrality], dtype=int)
    if integrality.any():
        res = milp(
            problem.objective,
            constraints=LinearConstraint(a, np.where(eq, problem.rhs, -np.inf), problem.rhs),
            bounds=Bounds(problem.lower, problem.upper),
            integrality=integrality,
            options={"mip_rel_gap": 1e-10},
        )
    else:
        res = linprog(
            problem.objective,
            A_ub=a[~eq] if (~eq).any() else None,
            b_ub=problem.rhs[~eq] if (~eq).any() else None,
            A_eq=a[eq] if eq.any() else None,
            b_eq=problem.rhs[eq] if eq.any() else None,
            bounds=bounds,
            method="highs",
        )
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return float(res.fun) + problem.objective_constant


def _tol(ref: float) -> float:
    return TOL * max(1.0, abs(ref))


def check_exact(outcome: Outcome, ref: float) -> str | None:
    """Monolithic and decomposition: optimal, at the reference, feasible."""
    if outcome.status not in ("optimal", "converged"):
        return f"status {outcome.status}"
    if not abs(outcome.objective - ref) <= _tol(ref):
        return f"objective {outcome.objective!r} differs from reference {ref!r}"
    if not outcome.max_violation <= MAX_VIOLATION:
        return f"max violation {outcome.max_violation:.3e}"
    return None


def check_bound(outcome: Outcome, ref: float) -> str | None:
    """Relaxed bound: must not exceed the optimum."""
    if not outcome.objective <= ref + _tol(ref):
        return f"bound {outcome.objective!r} exceeds reference {ref!r}"
    return None


def check_sequential(outcome: Outcome, ref: float, lower: float) -> str | None:
    """Sequential pass: at or above the relaxed bound; without active
    slacks also a feasible point, so at or above the optimum.

    The objective is not compared for equality: it depends on which of
    several optima an earlier stage picks.
    """
    if not lower - _tol(ref) <= outcome.objective:
        return f"objective {outcome.objective!r} below relaxed bound {lower!r}"
    if outcome.slack_cost <= _tol(ref):
        if not outcome.objective >= ref - _tol(ref):
            return f"slack-free objective {outcome.objective!r} below reference {ref!r}"
        if not outcome.max_violation <= MAX_VIOLATION:
            return f"slack-free max violation {outcome.max_violation:.3e}"
    return None
