"""Shared fixtures, random-instance generators, and brute-force oracles.

The oracles deliberately avoid the library's own solvers.  LPs are checked
by enumerating every basic (vertex) solution of the constraint system and
MILPs by enumerating every binary assignment, so agreement with the simplex
and branch-and-bound code is meaningful evidence of correctness rather than
a tautology.  Both are exponential and only suitable for the small random
instances generated here.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Optional

import numpy as np
import pytest
from hypothesis import settings

from graphopt import (
    Graph,
    StandardFormProblem,
    VariableRef,
    flatten,
    solve_lp,
    solve_milp,
)

settings.register_profile("suite", deadline=None, max_examples=40, print_blob=True)
# a long run of the property tests: pytest -m hypothesis --hypothesis-profile sweep
settings.register_profile("sweep", settings.get_profile("suite"), max_examples=2000)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# building raw standard-form problems without the graph layer
# ---------------------------------------------------------------------------


def make_problem(
    c,
    rows,
    senses,
    rhs,
    lower,
    upper,
    integrality: Optional[list[str]] = None,
    constant: float = 0.0,
) -> StandardFormProblem:
    """Assemble a StandardFormProblem from dense pieces (for solver tests)."""
    c = np.asarray(c, dtype=float)
    # a copy: the problem makes its matrix read-only
    a = np.atleast_2d(np.array(rows, dtype=float)) if len(senses) else np.zeros((0, c.size))
    n = c.size
    refs = [VariableRef("t", f"x{j}") for j in range(n)]
    return StandardFormProblem(
        columns=refs,
        var_index={ref: j for j, ref in enumerate(refs)},
        objective=c,
        objective_constant=float(constant),
        matrix=a,
        senses=senses,
        rhs=np.asarray(rhs, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        integrality=list(integrality) if integrality else ["continuous"] * n,
    )


class StartRecorder:
    """The built-in backend, keeping the ``starts`` of every LP it solves, branch-and-bound nodes included."""

    def __init__(self) -> None:
        self.starts: list[tuple[str, ...]] = []

    def solve_lp(self, problem: StandardFormProblem):
        res = solve_lp(problem)
        self.starts.append(res.starts)
        return res

    def solve_milp(self, problem: StandardFormProblem):
        return solve_milp(problem, solve_lp_fn=self.solve_lp)

    def counts(self, since: int = 0) -> Counter:
        """Every start tried by the LP solves from the ``since``-th on, by name."""
        return Counter(name for starts in self.starts[since:] for name in starts)


# ---------------------------------------------------------------------------
# vertex-enumeration LP oracle
# ---------------------------------------------------------------------------


def _as_le_eq(problem: StandardFormProblem):
    """Rows as (A_le, b_le, A_eq, b_eq) with every 'ge' negated into a 'le'."""
    a = problem.dense_rows()
    le_rows, le_rhs, eq_rows, eq_rhs = [], [], [], []
    for i, sense in enumerate(problem.senses):
        if sense == "eq":
            eq_rows.append(a[i])
            eq_rhs.append(problem.rhs[i])
        elif sense == "ge":
            le_rows.append(-a[i])
            le_rhs.append(-problem.rhs[i])
        else:
            le_rows.append(a[i])
            le_rhs.append(problem.rhs[i])
    n = problem.n_cols
    pack = lambda rows, rhs: (
        np.array(rows).reshape(len(rows), n),
        np.array(rhs, dtype=float),
    )
    return pack(le_rows, le_rhs) + pack(eq_rows, eq_rhs)


def vertex_enumeration_lp(problem: StandardFormProblem, tol: float = 1e-7):
    """Brute-force optimum of a box-bounded LP.

    Enumerates every choice of ``n`` active constraints (equalities always
    active, the rest drawn from inequality rows and finite bounds), solves the
    square systems in one batched call, and keeps the feasible solutions.
    Returns ``(status, objective, x)`` with status ``optimal`` or
    ``infeasible``.  All bounds must be finite so the feasible set is a
    polytope and the optimum (when one exists) sits on a vertex.
    """
    n = problem.n_cols
    assert np.all(np.isfinite(problem.lower)) and np.all(np.isfinite(problem.upper)), (
        "vertex oracle needs a bounded box"
    )
    a_le, b_le, a_eq, b_eq = _as_le_eq(problem)

    # candidate active rows: every inequality plus both bounds of each column
    cand_rows = [a_le, np.eye(n), -np.eye(n)]
    cand_rhs = [b_le, problem.upper, -problem.lower]
    cand_a = np.vstack(cand_rows)
    cand_b = np.concatenate(cand_rhs)

    m_eq = a_eq.shape[0]
    need = n - m_eq
    if need < 0:
        return "infeasible", None, None
    combos = list(itertools.combinations(range(cand_a.shape[0]), need))
    idx = np.array(combos, dtype=int).reshape(len(combos), need)

    mats = np.broadcast_to(a_eq, (len(combos), m_eq, n)).copy() if m_eq else np.zeros((len(combos), 0, n))
    mats = np.concatenate([mats, cand_a[idx]], axis=1)
    rhs = np.concatenate(
        [np.broadcast_to(b_eq, (len(combos), m_eq)).copy() if m_eq else np.zeros((len(combos), 0)), cand_b[idx]],
        axis=1,
    )

    dets = np.abs(np.linalg.det(mats))
    keep = dets > 1e-9 * np.maximum(1.0, np.abs(mats).max(axis=(1, 2)) ** n)
    if not keep.any():
        return "infeasible", None, None
    points = np.linalg.solve(mats[keep], rhs[keep][..., None])[..., 0]

    feas = np.ones(points.shape[0], dtype=bool)
    feas &= np.all(points >= problem.lower - tol, axis=1)
    feas &= np.all(points <= problem.upper + tol, axis=1)
    if a_le.shape[0]:
        feas &= np.all(points @ a_le.T <= b_le + tol * np.maximum(1.0, np.abs(b_le)), axis=1)
    if m_eq:
        feas &= np.all(np.abs(points @ a_eq.T - b_eq) <= tol * np.maximum(1.0, np.abs(b_eq)), axis=1)
    if not feas.any():
        return "infeasible", None, None

    objs = points[feas] @ problem.objective + problem.objective_constant
    best = int(np.argmin(objs))
    return "optimal", float(objs[best]), points[feas][best]


def assert_strong_duality(problem, res, tol=1e-9):
    """Dual feasibility of the library's duals, and a dual value equal to the optimum."""
    y, rc = res.duals, res.reduced_costs
    senses = np.array(problem.senses)
    assert (y[senses == "le"] <= tol).all() and (y[senses == "ge"] >= -tol).all()
    at_lower, at_upper = rc > tol, rc < -tol
    assert np.isfinite(problem.lower[at_lower]).all()
    assert np.isfinite(problem.upper[at_upper]).all()
    dual = (
        y @ problem.rhs
        + problem.objective_constant
        + rc[at_lower] @ problem.lower[at_lower]
        + rc[at_upper] @ problem.upper[at_upper]
    )
    assert dual == pytest.approx(res.objective, rel=1e-7, abs=1e-7)


# ---------------------------------------------------------------------------
# binary-enumeration MILP oracle
# ---------------------------------------------------------------------------


def binary_enumeration_milp(problem: StandardFormProblem, tol: float = 1e-9):
    """Brute-force optimum of a MILP whose integer columns are all binary.

    Pure-binary problems are checked with one vectorised feasibility pass
    over all ``2^k`` assignments.  Problems with continuous columns fall back
    to the vertex oracle on the LP left after fixing each assignment.
    """
    int_cols = problem.integer_columns()
    cont_cols = [j for j in range(problem.n_cols) if j not in int_cols]
    a = problem.dense_rows()
    senses = problem.senses

    grids = []
    for j in int_cols:
        lo = max(0.0, math.ceil(problem.lower[j] - tol))
        hi = min(1.0, math.floor(problem.upper[j] + tol))
        if lo > hi:
            return "infeasible", None, None
        grids.append([lo] if lo == hi else [0.0, 1.0])
    assignments = np.array(list(itertools.product(*grids)), dtype=float)

    if not cont_cols:
        lhs = assignments @ a[:, int_cols].T
        feas = np.ones(assignments.shape[0], dtype=bool)
        for i, sense in enumerate(senses):
            if sense == "eq":
                feas &= np.abs(lhs[:, i] - problem.rhs[i]) <= tol
            elif sense == "ge":
                feas &= lhs[:, i] >= problem.rhs[i] - tol
            else:
                feas &= lhs[:, i] <= problem.rhs[i] + tol
        if not feas.any():
            return "infeasible", None, None
        objs = assignments[feas] @ problem.objective[int_cols] + problem.objective_constant
        best = int(np.argmin(objs))
        x = np.zeros(problem.n_cols)
        x[int_cols] = assignments[feas][best]
        return "optimal", float(objs[best]), x

    best_obj, best_x = math.inf, None
    for assign in assignments:
        shifted_rhs = problem.rhs - a[:, int_cols] @ assign
        sub = make_problem(
            problem.objective[cont_cols],
            a[:, cont_cols],
            senses,
            shifted_rhs,
            problem.lower[cont_cols],
            problem.upper[cont_cols],
            constant=problem.objective_constant + float(problem.objective[int_cols] @ assign),
        )
        status, obj, x_cont = vertex_enumeration_lp(sub)
        if status == "optimal" and obj < best_obj:
            best_obj = obj
            best_x = np.zeros(problem.n_cols)
            best_x[int_cols] = assign
            best_x[cont_cols] = x_cont
    if best_x is None:
        return "infeasible", None, None
    return "optimal", best_obj, best_x


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------


def random_lp(rng: np.random.Generator, n_max: int = 5, m_max: int = 6) -> StandardFormProblem:
    """Box-bounded LP with mixed row senses; may be infeasible."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    a = np.round(rng.uniform(-4, 4, size=(m, n)) * rng.integers(0, 2, size=(m, n)), 2)
    for i in range(m):  # no empty rows
        if not a[i].any():
            a[i, rng.integers(0, n)] = 1.0
    senses = [str(rng.choice(["le", "le", "le", "ge", "eq"])) for _ in range(m)]
    if sum(s == "eq" for s in senses) > n - 1:  # keep equalities from pinning every column
        senses = ["le"] * m
    return make_problem(
        np.round(rng.uniform(-5, 5, size=n), 2),
        a,
        senses,
        np.round(rng.uniform(-6, 6, size=m), 2),
        np.round(rng.uniform(-3.0, 0.0, size=n), 2),
        np.round(rng.uniform(0.5, 4.0, size=n), 2),
    )


def random_feasible_lp(rng: np.random.Generator, n_max: int = 5, m_max: int = 6) -> StandardFormProblem:
    """Box-bounded LP anchored on an interior point, so always feasible."""
    prob = random_lp(rng, n_max, m_max)
    n = prob.n_cols
    x0 = prob.lower + rng.uniform(0.2, 0.8, size=n) * (prob.upper - prob.lower)
    a = prob.dense_rows()
    for i, sense in enumerate(prob.senses):
        at = float(a[i] @ x0)
        if sense == "le":
            prob.rhs[i] = at + float(rng.uniform(0.1, 2.0))
        elif sense == "ge":
            prob.rhs[i] = at - float(rng.uniform(0.1, 2.0))
        else:
            prob.rhs[i] = at
    return prob


def random_milp(rng: np.random.Generator, pure_binary: bool = True) -> StandardFormProblem:
    """MILP with at most ten binaries and (optionally) a couple of continuous columns."""
    n_bin = int(rng.integers(2, 11))
    n_cont = 0 if pure_binary else int(rng.integers(1, 3))
    n = n_bin + n_cont
    m = int(rng.integers(1, 5))
    a = np.round(rng.uniform(-3, 3, size=(m, n)), 1)
    senses = [str(rng.choice(["le", "le", "ge"])) for _ in range(m)]
    rhs = np.round(rng.uniform(-2, n, size=m), 1)
    lower = np.concatenate([np.zeros(n_bin), np.full(n_cont, -2.0)])
    upper = np.concatenate([np.ones(n_bin), np.full(n_cont, 3.0)])
    return make_problem(
        np.round(rng.uniform(-4, 4, size=n), 2),
        a,
        senses,
        rhs,
        lower,
        upper,
        integrality=["binary"] * n_bin + ["continuous"] * n_cont,
    )


def random_graph_instance(rng: np.random.Generator, max_nodes: int = 5) -> Graph:
    """Small feasible multi-node instance with node rows and linking rows.

    Rows are anchored on a random interior point of the variable box, so the
    flattened problem always has a feasible point; finite bounds keep it
    bounded.
    """
    g = Graph("g")
    refs, anchor = [], {}
    n_nodes = int(rng.integers(2, max_nodes + 1))
    for i in range(n_nodes):
        node = g.add_node(f"n{i}")
        for k in range(int(rng.integers(1, 3))):
            lo = float(np.round(rng.uniform(-2, 0), 2))
            hi = float(np.round(rng.uniform(0.5, 3), 2))
            ref = node.add_variable(f"v{k}", lower=lo, upper=hi)
            refs.append(ref)
            anchor[ref] = lo + float(rng.uniform(0.2, 0.8)) * (hi - lo)
        node.set_objective(
            sum((float(np.round(rng.uniform(-3, 3), 2)) * r for r in node.variables), 0.0)
        )

    def anchored_row(pool):
        chosen = [pool[j] for j in rng.choice(len(pool), size=min(len(pool), 2), replace=False)]
        expr = sum((float(np.round(rng.uniform(-2, 2), 1)) or 1.0) * r for r in chosen)
        at = expr.evaluate(anchor)
        sense = str(rng.choice(["le", "ge", "eq"]))
        margin = float(rng.uniform(0.1, 1.5))
        rhs = at + margin if sense == "le" else at - margin if sense == "ge" else at
        return expr, sense, rhs

    for node in g.local_nodes():
        if rng.random() < 0.7:
            g_expr, sense, rhs = anchored_row(node.variables)
            node.add_constraint(g_expr, sense, rhs)
    for _ in range(int(rng.integers(1, n_nodes))):
        pair = rng.choice(n_nodes, size=2, replace=False)
        pool = [r for r in refs if r.node_id in (f"n{pair[0]}", f"n{pair[1]}")]
        g_expr, sense, rhs = anchored_row(pool)
        if len(g_expr.variables()) < 2 or len({r.node_id for r in g_expr.variables()}) < 2:
            r0 = next(r for r in refs if r.node_id == f"n{pair[0]}")
            r1 = next(r for r in refs if r.node_id == f"n{pair[1]}")
            g_expr = r0 + r1
            rhs = g_expr.evaluate(anchor) + 1.0
            sense = "le"
        g.add_link_constraint(g_expr, sense, rhs)
    return g


def unbounded_stage_graph(free_in: str = "c") -> Graph:
    """Parent ``p`` (x in [0, 1], cost x) and child ``c`` (y >= 0, cost y) under y - x >= 0.

    Subgraph ``free_in`` also owns a free column ``w`` that costs 1, which
    makes that stage, and the whole model, unbounded below.
    """
    g = Graph("open")
    parent, child = Graph("p"), Graph("c")
    pn, cn = parent.add_node("pn"), child.add_node("cn")
    x = pn.add_variable("x", lower=0.0, upper=1.0)
    y = cn.add_variable("y", lower=0.0)
    node = pn if free_in == "p" else cn
    w = node.add_variable("w", lower=-math.inf)
    pn.set_objective(x + w if free_in == "p" else 1.0 * x)
    cn.set_objective(y + w if free_in == "c" else 1.0 * y)
    g.add_subgraph(parent)
    g.add_subgraph(child)
    g.add_link_constraint(y - x, "ge", 0.0)
    return g


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def storage_graph() -> Graph:
    from graphopt.fixtures import storage_fixture

    return storage_fixture()


@pytest.fixture
def chain3_graph() -> Graph:
    from graphopt.fixtures import chain3_fixture

    return chain3_fixture()


@pytest.fixture
def cem_graph() -> Graph:
    from graphopt.fixtures import mini_cem_fixture

    return mini_cem_fixture()


@pytest.fixture
def pcm_graph() -> Graph:
    from graphopt.fixtures import mini_pcm_fixture

    return mini_pcm_fixture()


def solve_flat(graph: Graph, *, relax: bool = False):
    """Monolithic solve of a graph, used all over the suite."""
    from graphopt.solvers import solve
    from graphopt.standard_form import lp_relaxation

    prob = flatten(graph)
    if relax:
        prob = lp_relaxation(prob)
    return solve(prob), prob


# ---------------------------------------------------------------------------
# cut-validity oracle for decomposition runs
# ---------------------------------------------------------------------------


def rebuild_stage_problem(result, stage_id: str):
    """Reconstruct a stage exactly as the final iteration of a run saw it.

    The returned problem carries the stage's value-function columns and every
    cut the run generated for the stage's children.  For a leaf stage this is
    just the stage itself, so its optimum at a fixed boundary point is the
    true recourse value.
    """
    from graphopt.subproblem import StageProblem

    tree, config = result.tree, result.config
    st = tree.stages[stage_id]
    theta_count = len(st.children) if config.multicut else (1 if st.children else 0)
    prob = StageProblem(
        st.subgraph,
        st.relocated,
        theta_count=theta_count,
        theta_lb=config.theta_lb,
        add_slacks=config.add_slacks and bool(st.relocated),
        slack_penalty=config.slack_penalty,
    )
    for cut in result.cuts:
        owner = cut.child_id.split("+")[0]
        if tree.stages[owner].parent == stage_id:
            prob.add_cut(cut)
    return prob


def downstream_model_value(result, cut, probe_by_ref, solver=None):
    """Value the children named by ``cut`` at a boundary point.

    Each child model includes its own final cut pool, which can only
    understate the true cost-to-go, so every valid cut must lie at or below
    the returned number.  Returns None when any child model is infeasible at
    the probe (the cut promises nothing there).
    """
    from graphopt.solvers import default_solver

    solver = solver or default_solver()
    total = 0.0
    for child_id in cut.child_id.split("+"):
        prob = rebuild_stage_problem(result, child_id)
        prob.set_fixed_values([probe_by_ref[ref] for ref in prob.fixed_refs])
        res = prob.solve(solver)
        if res.status != "optimal":
            return None
        total += res.objective
    return total
