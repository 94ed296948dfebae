"""graphopt benchmark: four solve modes on seeded workloads, one process, closed loop.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload storage_lp --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py                  # every workload, default seed

``--trace 0`` times the user-facing calls (``flatten`` + ``solve_lp`` /
``solve_milp``, ``run_decomposition``, ``sequential_solve``,
``relaxed_parallel_bound``) and prints the end-to-end metrics.  ``--trace 1``
runs the same calls once untraced and once traced per round and prints the
per-layer metrics.  Every result is checked against a HiGHS optimum.  The
last line of standard output is one JSON object; the full result, with an
environment stamp, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One caller, one solve at a time: BLAS stays single-threaded.  main() sets
# these before numpy is first imported, so that they take effect.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOAD_NAMES = ("storage_lp", "cem_star", "pcm_milp")

INSTANCES = 4         # seeded models per untraced run; a traced run uses the first
SETUP_PER_TURN = 5    # builds timed for setup_s in each turn, spread over the run
TURN_MODE_S = 1.0     # measured time per mode per turn, reached by repeating short calls
TURN_MODE_REPS = 50   # cap on the calls of one mode in one turn

END_TO_END = {
    "setup_s": "s",
    "monolithic_s": "s",
    "benders_s": "s",
    "sequential_s": "s",
    "bound_s": "s",
    "peak_rss_mb": "MB",
}

_SIMPLEX = {"lp_solves": "count", "pivots": "count", "busy_s": "s", "setup_s": "s",
            "us_per_pivot": "us", "mean_rows": "count", "mean_cols": "count",
            "nonoptimal_frac": "ratio"}
_BRANCH_BOUND = {"milp_solves": "count", "nodes": "count", "self_s": "s",
                 "pivots_per_node": "count", "infeasible_node_frac": "ratio"}
_SUBPROBLEM = {"stage_builds": "count", "build_s": "s", "assembles": "count", "assemble_s": "s"}


def _per_layer() -> dict[str, str]:
    names = {"setup.model.build_s": "s", "setup.transform.partition_s": "s",
             "monolithic.standard_form.flatten_s": "s"}
    for mode in ("monolithic", "benders", "sequential", "bound"):
        names.update({f"{mode}.simplex.{k}": u for k, u in _SIMPLEX.items()})
        names.update({f"{mode}.branch_bound.{k}": u for k, u in _BRANCH_BOUND.items()})
        if mode != "monolithic":
            names.update({f"{mode}.subproblem.{k}": u for k, u in _SUBPROBLEM.items()})
    names.update({
        "benders.subproblem.dedup_s": "s", "benders.subproblem.cut_accept_ratio": "ratio",
        "benders.benders.iterations": "count", "benders.benders.cuts": "count",
        "benders.benders.self_s": "s", "benders.benders.pivots_per_iter": "count",
        "benders.benders.productive_iter_frac": "ratio",
        "benders.benders.lagrangian_fallbacks": "count",
        "sequential.sequential.self_s": "s", "bound.sequential.self_s": "s",
    })
    names.update({f"{mode}.trace.overhead_frac": "ratio"
                  for mode in ("monolithic", "benders", "sequential", "bound")})
    return names


PER_LAYER = _per_layer()
# Branch-and-bound self time reads 0.0 on every run of an LP workload, and a
# time in the final JSON line must vary from run to run; it is printed and
# kept in the result file only.  The B&B counts stay in the JSON line.
JSON_PER_LAYER = {name: unit for name, unit in PER_LAYER.items()
                  if not name.endswith(".branch_bound.self_s")}


def _import_library():
    """Put the checkout's ``src`` and this directory on the path; fail without them."""
    src = ROOT / "src"
    if not (src / "graphopt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no graphopt sources at {src}; run from a source checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import graphopt

    if Path(graphopt.__file__).resolve().parent != (src / "graphopt").resolve():
        raise SystemExit(f"perfbench: imported graphopt from {graphopt.__file__}, not {src}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment_stamp(args, workload, instances) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": len(instances),
        "workload": workload.name,
        "workload_args": workload.sizes,
        "model_sizes": [inst.sizes for inst in instances],
    }


def summary(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75):
        beyond = len(ordered) * (100 - pct) / 100
        if beyond >= 10:
            out[f"p{pct}"] = ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
            break
    return out


class Ledger:
    """Attempted solves, failed checks and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{label}: {reason}")


def _checked(mode, inst, ledger, label, solver=None, tracer=None):
    """Run one mode call and feed its check into the ledger; exceptions fail."""
    from workloads import RUNNERS, check

    t0 = time.perf_counter()
    try:
        result = RUNNERS[mode](inst, solver, tracer)
    except Exception as exc:  # a failed solve is a measured outcome, not a crash
        ledger.record(label, f"{type(exc).__name__}: {exc}")
        return None, time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    ledger.record(label, check(mode, inst, result))
    return result, elapsed


def measure_end_to_end(instances, seconds, ledger) -> tuple[dict, dict]:
    """Take turns over the models; in each turn set up and solve every mode on one model.

    Each mode is first called once untimed, so that first-call costs,
    which a user pays once per process, stay out of the samples.  In a
    turn the model is built ``SETUP_PER_TURN`` more times for ``setup_s``,
    then the modes are called in rotation, each until its samples add up
    to ``TURN_MODE_S`` (at most ``TURN_MODE_REPS`` calls), so that short
    calls get as much measured time as long ones.  The rotation spreads
    every metric's samples over the whole run, so that a slow spell of a
    shared host lands on all metrics alike.  Turns go on until every
    model has had one and the next turn would end after ``seconds``,
    counted from the warm-up.

    Returns the statistics and the raw samples per metric.
    """
    from workloads import MODES

    samples = {f"{mode}_s": [] for mode in MODES}
    start = time.perf_counter()
    for mode in MODES:
        _checked(mode, instances[0], ledger, f"{mode}[warm-up]")
    for inst in instances:
        inst.build_s.clear()
        inst.partition_s.clear()
    turn = 0
    while True:
        turn_start = time.perf_counter()
        k = turn % len(instances)
        for _ in range(SETUP_PER_TURN):
            instances[k].set_up()
        spent = dict.fromkeys(MODES, 0.0)
        calls = dict.fromkeys(MODES, 0)
        while pending := [m for m in MODES if spent[m] < TURN_MODE_S and calls[m] < TURN_MODE_REPS]:
            for mode in pending:
                _, elapsed = _checked(mode, instances[k], ledger, f"{mode}[{k}]")
                samples[f"{mode}_s"].append(elapsed)
                spent[mode] += elapsed
                calls[mode] += 1
        turn += 1
        now = time.perf_counter()
        if turn >= len(instances) and now - start + (now - turn_start) > seconds:
            break
    samples["setup_s"] = [b + p for inst in instances for b, p in zip(inst.build_s, inst.partition_s)]
    stats = {name: summary(values) for name, values in samples.items()}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stats["peak_rss_mb"] = {"median": peak_kb / 1024.0, "n": 1}
    return stats, samples


def _benders_counts(result, layers: dict) -> dict:
    iterations = result.iterations
    fallbacks = 0
    if result.config.lagrangian:
        fallbacks = sum(cut.kind != "lagrangian" for cut in result.cuts)
    return {
        "benders.benders.iterations": iterations,
        "benders.benders.cuts": len(result.cuts),
        "benders.benders.pivots_per_iter": layers["benders.simplex.pivots"] / iterations,
        "benders.benders.productive_iter_frac":
            sum(rec.cuts_added > 0 for rec in result.trace) / len(result.trace),
        "benders.benders.lagrangian_fallbacks": fallbacks,
    }


def _counts_against_result(mode: str, layers: dict, result) -> list[str]:
    """Traced counts that the untraced result also reports must agree with it."""
    if mode != "monolithic":
        return []  # the Benders counts are taken from the result itself
    _, res = result
    expected = {"monolithic.simplex.pivots": res.iterations,
                "monolithic.branch_bound.nodes": res.nodes_explored}
    return [f"{name}: traced {layers[name]} != untraced result {value}"
            for name, value in expected.items() if layers[name] != value]


def _is_count(name: str) -> bool:
    return not name.endswith("_s") and not name.endswith("us_per_pivot") \
        and not name.endswith("overhead_frac")


def measure_layers(inst, seconds, ledger) -> tuple[dict, list[str], dict]:
    """Untraced then traced call per mode, in rounds; per-layer medians.

    Returns the per-layer statistics, any reproduction mismatches, and the
    first round's spans per mode.
    """
    from tracing import Tracer, TracingSolver, layer_metrics, traced_stage_problem
    from workloads import MODES, signature

    rounds: list[dict] = []
    walls = {mode: ([], []) for mode in MODES}
    mismatches: list[str] = []
    first_spans: dict[str, list] = {}
    start = time.perf_counter()
    solve_id = 0
    while True:
        round_start = time.perf_counter()
        for _ in range(SETUP_PER_TURN):
            inst.set_up()
        values: dict[str, float] = {}
        for mode in MODES:
            plain, plain_s = _checked(mode, inst, ledger, f"{mode}[untraced]")
            tracer = Tracer()
            solve_id += 1
            tracer.solve_id = solve_id
            with traced_stage_problem(tracer):
                with tracer.span(mode) as root:
                    traced, _ = _checked(mode, inst, ledger, f"{mode}[traced]",
                                         TracingSolver(tracer), tracer)
            if plain is None or traced is None:
                continue
            if signature(mode, plain) != signature(mode, traced):
                mismatches.append(f"{mode}: traced {signature(mode, traced)} "
                                  f"!= untraced {signature(mode, plain)}")
            walls[mode][0].append(plain_s)
            walls[mode][1].append(root.duration)
            layers = layer_metrics(tracer.spans, mode)
            if mode == "benders":
                layers.update(_benders_counts(traced, layers))
            mismatches.extend(_counts_against_result(mode, layers, plain))
            values.update(layers)
            if not rounds:
                first_spans[mode] = tracer.spans
        if rounds:
            for name, value in values.items():
                if _is_count(name) and rounds[0].get(name) != value:
                    mismatches.append(f"{name}: {value} in a later round, {rounds[0].get(name)} first")
        rounds.append(values)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break

    stats = {
        "setup.model.build_s": summary(inst.build_s),
        "setup.transform.partition_s": summary(inst.partition_s),
    }
    for name in PER_LAYER:
        series = [r[name] for r in rounds if name in r]
        if series:
            stats[name] = {"median": statistics.median(series), "n": len(series)}
    for mode, (plain, traced) in walls.items():
        if plain:
            stats[f"{mode}.trace.overhead_frac"] = {
                "median": statistics.median(traced) / statistics.median(plain) - 1.0,
                "n": len(plain),
            }
    return stats, mismatches, first_spans


def run_all(args) -> int:
    """Run every workload in a fresh process of its own, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="the workload to run; without it every workload runs, "
                             "each in a fresh process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)

    for var in BLAS_VARS:
        os.environ[var] = "1"
    _import_library()
    from workloads import WORKLOADS, make_instance

    workload = WORKLOADS[args.workload]
    count = INSTANCES if args.trace == 0 else 1
    instances = [make_instance(workload, args.seed, k) for k in range(count)]
    for inst in instances:
        inst.set_up()
    for inst in instances:
        inst.prepare_reference()

    ledger = Ledger()
    mismatches: list[str] = []
    spans: dict = {}
    samples: dict = {}
    if args.trace == 0:
        stats, samples = measure_end_to_end(instances, args.seconds, ledger)
        units = json_units = END_TO_END
    else:
        stats, mismatches, spans = measure_layers(instances[0], args.seconds, ledger)
        units, json_units = PER_LAYER, JSON_PER_LAYER
    metrics = {name: {"value": stats[name]["median"] if name in stats else 0.0, "unit": unit}
               for name, unit in json_units.items()}
    failed = len(ledger.failures)
    correct = failed == 0 and not mismatches

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "environment": environment_stamp(args, workload, instances),
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": failed,
        "error_rate": failed / ledger.attempted,
        "failures": ledger.failures,
        "trace_mismatches": mismatches,
        "stats": stats,
        "samples": samples,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans:
        rows = {mode: [[s.name, s.start, s.end, s.parent, s.solve_id, s.attrs] for s in trace]
                for mode, trace in spans.items()}
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(rows) + "\n")

    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"instances={len(instances)} sizes={instances[0].sizes}")
    for name, unit in units.items():
        st = stats.get(name)
        if st is None:
            print(f"{name:44s} {'-':>14s} {unit:6s} (not exercised)")
            continue
        tail = "".join(f"  {k}={v:.6g}" for k, v in st.items() if k.startswith("p"))
        print(f"{name:44s} {st['median']:14.6g} {unit:6s} n={st['n']}{tail}")
    print(f"{'error_rate':44s} {failed / ledger.attempted:14.6g} ratio  "
          f"({failed} of {ledger.attempted} solves failed a check)")
    for line in ledger.failures[:20] + mismatches[:20]:
        print(f"! {line}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
