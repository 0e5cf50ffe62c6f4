#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload route_grid --seed 0 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json; ``--trace 1``
runs half the rounds untraced and then traced, and prints every per-layer
metric. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1 if
any op returned a result that fails its check, and 2 if the benchmark cannot
run here (for example without the package sources next to it).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# numpy links a threaded OpenBLAS; pin it to one thread before numpy loads so
# that timings measure the program, not the scheduler. Set-up children
# inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
# Stop before an op that would start this late, so a run ends in bounded time.
ABORT_AFTER_S = 150.0
# About the seconds one round of a workload took when the benchmark was
# written, on a 2-vCPU x86-64 VM. A run has seconds / ROUND_SECONDS rounds
# whatever the speed of the code under test, so its ops, and every count it
# reports, are fixed by (workload, seed, seconds).
ROUND_SECONDS = {"agg_coupled": 7.0, "route_grid": 7.5, "cli_batch": 2.5}
# On a 2-vCPU x86-64 VM with shared cores, identical route_grid runs took
# 27.7 to 40.3 s, as the VM slowed by up to 1.5x in phases lasting seconds
# to minutes. So the end-to-end latencies are scaled to the speed at which
# speed_probe() takes REFERENCE_S, its time on that VM when quiet; each op
# is scaled by the probes taken just before and just after it.
REFERENCE_S = 0.0045


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class OpRecord:
    label: str
    seconds: float
    ok: bool
    detail: str
    iterations: int
    p_err: float | None
    output_bytes: int
    probe: float


def n_rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for the set-up samples)")
    return parser.parse_args(argv)


def load_spec() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return spec


def import_program():
    """Import the package from the sources of this checkout, never an installed copy."""
    if not (SRC / "incentive_dynamics" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import incentive_dynamics
    if Path(incentive_dynamics.__file__).resolve().parent != SRC / "incentive_dynamics":
        raise BenchError(f"imported incentive_dynamics from {incentive_dynamics.__file__}")
    import workloads
    return workloads


def timed_setup(args, rounds: int, workdir: Path) -> tuple:
    """Import the package and build the workload's inputs and models: (seconds, rounds of ops)."""
    t0 = time.perf_counter()
    workloads = import_program()
    ops = workloads.WORKLOADS[args.workload](args.seed, rounds, workdir)
    return time.perf_counter() - t0, ops


def setup_sample(args) -> float:
    """Set-up time measured in a fresh interpreter, so the import counts again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_ops(rounds, checks, tracer=None, deadline=None) -> list:
    """Run the ops in order; each record keeps the mean speed probe taken
    just before and just after its op."""
    records = []
    before = speed_probe()
    for ops in rounds:
        for op in ops:
            if deadline is not None and time.perf_counter() > deadline:
                raise BenchError("run exceeded its time limit")
            if op.prepare:
                op.prepare()
            if tracer is not None:
                tracer.current_op = len(records)
            t0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                result, error = None, exc
            seconds = time.perf_counter() - t0
            if error is None:
                if tracer is not None:
                    tracer.enabled = False
                try:
                    verdict = op.check(result)
                except checks.WrongResult as exc:
                    verdict = checks.Verdict(False, f"WRONG RESULT: {exc}")
                finally:
                    if tracer is not None:
                        tracer.enabled = True
            else:
                gap = getattr(error, "gap", None)
                verdict = checks.Verdict(False, f"{type(error).__name__}: {error}"
                                         + (f" (gap {gap:.3g})" if gap is not None else ""))
            after = speed_probe()
            records.append(OpRecord(op.label, seconds, verdict.ok, verdict.detail,
                                    verdict.iterations, verdict.p_err, verdict.output_bytes,
                                    0.5 * (before + after)))
            before = after
    return records


def speed_probe() -> float:
    """Seconds a fixed loop of scalar polyval calls takes: the faster of two runs.

    Scalar numpy calls from Python loops are most of the program's work, so
    the loop slows down with the machine as the program does.
    """
    import numpy as np
    coeffs = (1.0, 2.0, 0.0, 0.0, 0.05)
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        for i in range(1500):
            np.polynomial.polynomial.polyval(0.001 * i, coeffs)
        best = min(best, time.perf_counter() - t0)
    return best


def reference_seconds(record: OpRecord) -> float:
    """The op's latency at the speed where speed_probe() takes REFERENCE_S."""
    return record.seconds * REFERENCE_S / record.probe


def tail(samples) -> tuple:
    """The highest percentile with at least ten samples above it: (value, percentile)."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def end_to_end(records, setup_s: float) -> tuple:
    times = [reference_seconds(r) for r in records]
    value, pct = tail(times)
    failed = sum(not r.ok for r in records)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * value,
        "ok_ratio": (len(records) - failed) / len(records),
        "outer_iters": sum(r.iterations for r in records),
        "p_err_max": max((r.p_err for r in records if r.p_err is not None), default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = [r.seconds for r in records]
    notes = [f"op_tail_ms is p{pct:.1f} of {len(times)} op latencies",
             f"unscaled: wall {sum(raw):.4f} s, op p50 {1e3 * statistics.median(raw):.4f} ms, "
             f"op tail {1e3 * tail(raw)[0]:.4f} ms; median speed probe "
             f"{1e3 * statistics.median(r.probe for r in records):.4f} ms "
             f"(reference {1e3 * REFERENCE_S:g} ms)"]
    return metrics, notes


LISTED_SELF = (
    "routing.latency", "routing.latency_deriv", "routing.beckmann_potential",
    "routing.wardrop_equilibrium", "routing.system_optimum", "routing.run_toll_adaptation",
    "routing.nondegeneracy_check", "dynamics.run_coupled", "dynamics.strategy_target",
    "dynamics.externality", "dynamics.record", "aggregative.nash_closed_form",
    "aggregative.social_grad", "aggregative.social", "aggregative.loss_grad",
    "games.solve_equilibrium_atomic", "games.best_response_atomic",
    "analysis.reproduce_counterexample", "analysis.verify_fixed_point_optimality",
    "analysis.multistart_uniqueness_probe", "analysis.ode_probe_slow_dynamics",
    "cli.run_experiment", "cli.run_analysis", "cli.output",
)


def per_layer(setup_spans: dict, timed: dict, traced, untraced) -> tuple:
    spans = timed["spans"]
    wall = sum(r.seconds for r in traced)
    metrics = {f"{name}.self_s": spans[name]["self_s"] for name in LISTED_SELF}
    for name in ("routing.latency", "routing.wardrop_equilibrium", "dynamics.strategy_target",
                 "games.solve_equilibrium_atomic", "games.certify_nash_atomic"):
        metrics[f"{name}.calls"] = spans[name]["calls"]
    for name in ("routing.wardrop_equilibrium", "games.solve_equilibrium_atomic"):
        metrics[f"{name}.fails"] = spans[name]["fails"]
    solves = sum(spans[n]["calls"] - spans[n]["fails"]
                 for n in ("routing.wardrop_equilibrium", "routing.system_optimum"))
    metrics["routing.latency_evals_per_solve"] = (
        spans["routing.latency"]["calls"] / solves if solves else 0.0)
    iters = spans["dynamics.run_coupled"]["iterations"]
    metrics["dynamics.iter_us"] = (
        1e6 * spans["dynamics.run_coupled"]["self_s"] / iters if iters else 0.0)
    metrics["routing.network_init_s"] = setup_spans["routing.network_init"]["total_s"]
    metrics["aggregative.spec_init_s"] = setup_spans["aggregative.spec_init"]["total_s"]
    metrics["cli.output_bytes"] = sum(r.output_bytes for r in traced)
    metrics["trace_overhead"] = wall / sum(r.seconds for r in untraced)
    unattributed = wall - timed["top_level_s"]
    listed = sum(metrics[f"{name}.self_s"] for name in LISTED_SELF)
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.other_self_s"] = sum(v["self_s"] for name, v in spans.items()
                                        if name not in LISTED_SELF)
    closure = listed + metrics["trace.other_self_s"] + unattributed - wall
    notes = [f"self times {listed:.4f} s + other spans {metrics['trace.other_self_s']:.4f} s "
             f"+ unattributed {unattributed:.4f} s = traced wall {wall:.4f} s "
             f"(closure error {closure:.2e} s)"]
    ok = unattributed >= -1e-6 and abs(closure) <= 1e-6 * max(1.0, wall)
    return metrics, notes, ok


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {sorted(names)}")
    start = time.perf_counter()
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, spec, start, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spec, start, workdir) -> int:
    rounds = n_rounds(args.workload, args.seconds)
    if args.trace:
        # half the rounds, run untraced and then traced
        rounds = max(1, math.ceil(rounds / 2))
    setup_s, ops = timed_setup(args, rounds, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import checks
    deadline = start + ABORT_AFTER_S
    notes = []
    if not args.trace:
        samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        records = run_ops(ops, checks, deadline=deadline)
        metrics, notes = end_to_end(records, statistics.median(samples))
        notes.append("setup_s samples: " + ", ".join(f"{s:.4f}" for s in samples))
        wanted = spec["end_to_end"]
        spans_ok = True
    else:
        import tracing
        untraced = run_ops(ops, checks, deadline=deadline)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, ops = timed_setup(args, rounds, workdir)
            first = len(tracer)
            records = run_ops(ops, checks, tracer=tracer, deadline=deadline)
            last = len(tracer)
        finally:
            tracer.uninstall()
        setup_spans = tracer.summarize(0, first)["spans"]
        metrics, notes, spans_ok = per_layer(setup_spans, tracer.summarize(first, last),
                                             records, untraced)
        records = untraced + records
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-spans.npz"
        tracer.write(spans_path)
        notes.append(f"{last} spans ({last - first} timed) written to {spans_path.relative_to(ROOT)}")
        wanted = spec["per_layer"]

    wrong = [r for r in records if r.detail.startswith("WRONG RESULT")]
    failed = [r for r in records if not r.ok]
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(records)} ops "
          f"in {rounds} round(s)")
    print("environment " + json.dumps(env))
    for m in wanted:
        print(f"  {m['name']:42s} {metrics[m['name']]:.6g} {m['unit']}")
    for line in notes:
        print("  " + line)
    for r in failed:
        print(f"  FAILED {r.label}: {r.detail}")
    correct = not wrong and spans_ok
    result = {
        "correct": correct, "attempted": len(records), "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, notes=notes,
                  ops=[vars(r) for r in records])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
