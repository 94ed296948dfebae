"""Per-layer tracing from outside the library.

Spans are recorded only at graphopt's public entry points:

* a :class:`TracingSolver` passed through the public ``solver=`` argument
  times every LP (``simplex.solve_lp``) and MILP (``branch_bound.solve_milp``);
* :func:`traced_stage_problem` wraps ``StageProblem``'s public methods for
  the duration of one traced call and restores them afterwards;
* the benchmark itself opens the mode's root span around the call.

Spans stay in memory (name, start, end, parent, solve id, attributes) and
are written out when the run ends.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from graphopt import SimplexSolver, StageProblem
from graphopt.branch_bound import solve_milp as bb_solve_milp
from graphopt.simplex import solve_lp as simplex_solve_lp

PROBE = "trace.probe"  # setup-only re-solves; excluded from every layer


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    solve_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.solve_id = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                   self.solve_id, attrs)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


class TracingSolver:
    """``LinearSolver`` proxy that records a span per LP and MILP solve.

    Each LP is solved a second time with ``max_iterations=-1``, which
    returns right after the tableau is built; that probe's time is the
    LP's set-up estimate and is kept out of every layer's time.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        defaults = SimplexSolver()
        self.node_limit = defaults.node_limit
        self.mip_gap = defaults.mip_gap

    def capability(self):
        return SimplexSolver().capability()

    def solve_lp(self, problem):
        with self.tracer.span("simplex.solve_lp", rows=problem.n_rows, cols=problem.n_cols) as sp:
            res = simplex_solve_lp(problem)
        with self.tracer.span(PROBE) as probe:
            simplex_solve_lp(problem, max_iterations=-1)
        sp.attrs.update(status=res.status, pivots=res.iterations, setup_s=probe.duration)
        return res

    def solve_milp(self, problem):
        with self.tracer.span("branch_bound.solve_milp") as sp:
            res = bb_solve_milp(
                problem, node_limit=self.node_limit, mip_gap=self.mip_gap, solve_lp_fn=self.solve_lp
            )
        sp.attrs.update(status=res.status, nodes=res.nodes_explored, pivots=res.iterations)
        return res


_STAGE_METHODS = {
    "__init__": "subproblem.build",
    "problem": "subproblem.assemble",
    "lagrangian_problem": "subproblem.assemble",
    "level_set_problem": "subproblem.assemble",
    "has_equivalent_cut": "subproblem.dedup",
    "add_cut": "subproblem.add_cut",
}


@contextmanager
def traced_stage_problem(tracer: Tracer):
    """Record a span around each public ``StageProblem`` method while active."""
    originals = {name: StageProblem.__dict__[name] for name in _STAGE_METHODS}

    def wrap(method, span_name):
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                return method(*args, **kwargs)
        return wrapper

    for name, span_name in _STAGE_METHODS.items():
        setattr(StageProblem, name, wrap(originals[name], span_name))
    try:
        yield
    finally:
        for name, method in originals.items():
            setattr(StageProblem, name, method)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], mode: str) -> dict[str, float]:
    """Per-layer numbers of one traced mode call, named ``<mode>.<module>.<metric>``.

    ``spans`` holds that call's spans only; the first is the mode's root.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    lps = [spans[i] for i in by_name.get("simplex.solve_lp", [])]
    milps = by_name.get("branch_bound.solve_milp", [])

    pivots = sum(s.attrs["pivots"] for s in lps)
    busy = sum(s.duration for s in lps)
    setup = sum(s.attrs["setup_s"] for s in lps)
    out = {
        "simplex.lp_solves": len(lps),
        "simplex.pivots": pivots,
        "simplex.busy_s": busy,
        "simplex.setup_s": setup,
        "simplex.us_per_pivot": _ratio(busy - setup, pivots) * 1e6,
        "simplex.mean_rows": _ratio(sum(s.attrs["rows"] for s in lps), len(lps)),
        "simplex.mean_cols": _ratio(sum(s.attrs["cols"] for s in lps), len(lps)),
        "simplex.nonoptimal_frac": _ratio(sum(s.attrs["status"] != "optimal" for s in lps), len(lps)),
    }

    # B&B: the first LP under a MILP span is its root relaxation, the rest are nodes
    nodes = sum(spans[i].attrs.get("nodes", 0) for i in milps)
    milp_set = set(milps)
    first_child: set[int] = set()
    bb_lps, bb_pivots, bad_nodes = 0, 0, 0
    for s in lps:
        if s.parent in milp_set:
            bb_lps += 1
            bb_pivots += s.attrs["pivots"]
            if s.parent not in first_child:
                first_child.add(s.parent)
            elif s.attrs["status"] != "optimal":
                bad_nodes += 1
    out.update({
        "branch_bound.milp_solves": len(milps),
        "branch_bound.nodes": nodes,
        "branch_bound.self_s": sum(own[i] for i in milps),
        "branch_bound.pivots_per_node": _ratio(bb_pivots, bb_lps),
        "branch_bound.infeasible_node_frac": _ratio(bad_nodes, nodes),
    })

    if mode != "monolithic":
        builds = by_name.get("subproblem.build", [])
        assembles = by_name.get("subproblem.assemble", [])
        out.update({
            "subproblem.stage_builds": len(builds),
            "subproblem.build_s": sum(own[i] for i in builds),
            "subproblem.assembles": len(assembles),
            "subproblem.assemble_s": sum(own[i] for i in assembles),
        })
    if mode == "benders":
        dedup = by_name.get("subproblem.dedup", [])
        out["subproblem.dedup_s"] = sum(own[i] for i in dedup)
        out["subproblem.cut_accept_ratio"] = _ratio(len(by_name.get("subproblem.add_cut", [])), len(dedup))
        out["benders.self_s"] = own[0]
    elif mode in ("sequential", "bound"):
        out["sequential.self_s"] = own[0]
    else:
        out["standard_form.flatten_s"] = sum(spans[i].duration for i in by_name["standard_form.flatten"])
    return {f"{mode}.{key}": value for key, value in out.items()}
