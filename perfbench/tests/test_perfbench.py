"""Tests of the benchmark itself: generators, correctness gate, tracing.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import run
from gate import Outcome, check_bound, check_exact, check_sequential
from graphopt import flatten
from tracing import Span, Tracer, self_times
from workloads import MODES, RUNNERS, WORKLOADS, check, make_instance, run_monolithic

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _flat(inst):
    p = flatten(inst.graph)
    return (p.triplets, p.senses, p.rhs.tolist(), p.objective.tolist(),
            p.lower.tolist(), p.upper.tolist(), p.integrality)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    w = WORKLOADS[name]
    a, b, other = make_instance(w, 7, 0), make_instance(w, 7, 0), make_instance(w, 8, 0)
    for inst in (a, b, other):
        inst.set_up()
    assert _flat(a) == _flat(b)
    assert _flat(a) != _flat(other)


def test_generator_sizes_match_their_docstrings():
    sizes = {}
    for name, w in WORKLOADS.items():
        inst = make_instance(w, 1, 0)
        inst.set_up()
        p = flatten(inst.graph)
        sizes[name] = (p.n_rows, p.n_cols, len(p.integer_columns()))
    assert sizes == {"storage_lp": (240, 321, 0), "cem_star": (1169, 1170, 0),
                     "pcm_milp": (48, 96, 24)}


@pytest.fixture(scope="module")
def pcm():
    inst = make_instance(WORKLOADS["pcm_milp"], 1, 0)
    inst.set_up()
    inst.prepare_reference()
    return inst


def test_gate_passes_the_library_results(pcm):
    for mode in MODES:
        assert check(mode, pcm, RUNNERS[mode](pcm, None)) is None, mode


def test_gate_fails_a_perturbed_objective(pcm):
    problem, res = run_monolithic(pcm, None)
    res.objective = pcm.mono_ref * (1 + 1e-5) + 1e-5
    assert "objective" in check("monolithic", pcm, (problem, res))
    assert check_exact(Outcome("converged", pcm.ref * (1 - 1e-5) - 1e-5, 0.0), pcm.ref)
    assert check_exact(Outcome("converged", pcm.ref, 0.0), pcm.ref) is None
    assert check_exact(Outcome("max_iterations", pcm.ref, 0.0), pcm.ref) == "status max_iterations"


def test_gate_fails_a_violated_row(pcm):
    problem, res = run_monolithic(pcm, None)
    # shift one period's shedding: its demand balance row no longer holds
    res.primal[problem.var_index[pcm.graph.find_node("t3").var("shed")]] += 0.5
    assert "violation" in check("monolithic", pcm, (problem, res))


def test_bound_and_sequential_checks():
    ref = 100.0
    assert check_bound(Outcome("optimal", 99.0), ref) is None
    assert check_bound(Outcome("optimal", 100.01), ref)
    # above the optimum, slack-free and feasible: passes
    assert check_sequential(Outcome("optimal", 101.0, 0.0), ref, lower=90.0) is None
    # below the relaxed bound
    assert check_sequential(Outcome("optimal", 80.0, 0.0), ref, lower=90.0)
    # slack-free but below the optimum, or infeasible
    assert check_sequential(Outcome("optimal", 95.0, 0.0), ref, lower=90.0)
    assert check_sequential(Outcome("optimal", 101.0, 1e-3), ref, lower=90.0)
    # with active slacks only the bound applies
    assert check_sequential(Outcome("optimal", 5e6, 3.0, slack_cost=4.9e6), ref, lower=90.0) is None


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("a.inner", 2.0, 3.0, 1, 1),
        Span("b", 5.0, 7.0, 0, 1),
        Span("other_root", 20.0, 21.5, -1, 2),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 4.0, -1, 1), Span("c1", 1.0, 3.0, 0, 1), Span("c2", 2.0, 5.0, 0, 1)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_links_parents():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.spans[0].start <= tracer.spans[1].start <= tracer.spans[1].end <= tracer.spans[0].end


def test_traced_round_reproduces_the_untraced_run(pcm):
    ledger = run.Ledger()
    stats, mismatches, spans = run.measure_layers(pcm, 0.0, ledger)
    assert mismatches == [] and ledger.failures == []
    assert stats["monolithic.simplex.lp_solves"]["median"] >= 1
    assert stats["benders.branch_bound.nodes"]["median"] >= 1
    assert set(stats) <= set(run.PER_LAYER)
    assert all(math.isfinite(s["median"]) for s in stats.values())
    assert set(spans) == set(MODES)
    assert all(trace[0].parent == -1 for trace in spans.values())


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.JSON_PER_LAYER
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    # cem_star runs on request but is not gated; see the README
    assert [w["name"] for w in spec["workloads"]] == ["storage_lp", "pcm_milp"]


def test_summary_reports_a_tail_only_with_ten_samples_beyond_it():
    assert set(run.summary([1.0] * 39)) == {"median", "n"}
    assert "p75" in run.summary([1.0] * 40)
    assert "p90" in run.summary(list(np.arange(100.0)))
