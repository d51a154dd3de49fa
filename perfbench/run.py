#!/usr/bin/env python3
"""Benchmark of the vqa_poisson package: one workload per run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload bfgs-exact --seed 42 --seconds 25 --trace 0

The package is imported from ``src/`` of the same checkout; nothing needs
installing.  The run sets itself up several times (``setup_s``), repeats
passes of the workload for ``--seconds``, checks the outputs and prints, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Timings are reported at reference speed (see speed.py);
the raw wall times are in the ``report`` line.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` spends half the time
untraced and half traced and reports the per-layer metrics, the micro-table
and the tracing overhead.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
package source is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: with the default two, one grad_cost call at n = 7 once
# read 32 ms against 2.4 ms on the next pass.  Set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
SETUP_KERNEL_SAMPLES = 20  # reference-kernel samples before each set-up repeat
MIN_PASSES = 3  # for the median, also when one pass is longer than a third of --seconds
# Per half of a traced run: two traced passes let the count-repeat check
# compare tracer counts, and the overhead compares medians of two.
TRACED_MIN_PASSES = 2

TRACE_TARGETS = [
    ("states", "prepare_ansatz_state"),
    ("cost", "cost_from_state"),
    ("gradient", "grad_cost"),
    ("gradient", "term_gradient"),
    ("gradient", "grad_numerator"),
    ("sampling", "sample_term"),
    ("sampling", "sample_cost_estimates"),
    ("sampling", "sampled_gradient"),
    ("optimize", "minimize"),
    ("classical", "solve"),
    ("classical", "trace_distance"),
    ("operators", "decompose"),
    ("operators", "build_matrix"),
]
PASS_SPANS = ["states.prepare_ansatz_state", "cost.cost_from_state", "gradient.grad_cost",
              "gradient.term_gradient", "gradient.grad_numerator", "sampling.sample_term",
              "classical.trace_distance"]
STATUSES = ["converged", "max_iterations", "line_search_failed", "aborted"]

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import vqa_poisson; print(time.perf_counter() - t)")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def environment(args, workload):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "blas_env": BLAS_ENV, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_sha": git_sha(),
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": workload.inputs(), "op": workload.op,
    }


def import_seconds(probe) -> float:
    """Median over fresh interpreters of the time ``import vqa_poisson`` takes."""
    env = {**os.environ, **BLAS_ENV}
    samples = []
    for _ in range(SETUP_REPEATS):
        probe.sample(SETUP_KERNEL_SAMPLES)
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def run_passes(workload, seconds, min_passes, probe, tracer=None):
    """Repeat passes until the next one would overrun ``seconds``, at least ``min_passes``.

    Each pass's ``speed`` is the probe's factor over the kernel samples taken
    during it.  With a tracer, each pass's span range is stored in ``result.data``.
    """
    results, spent = [], 0.0
    with probe.ticking():
        while len(results) < min_passes or spent + spent / len(results) <= seconds:
            mark = tracer.mark() if tracer else 0
            first_sample = probe.mark()
            start = time.perf_counter()
            result = workload.run_pass()
            result.wall_s = time.perf_counter() - start
            if probe.mark() == first_sample:  # a pass shorter than one tick
                probe.sample()
            result.speed = probe.factor(first_sample)
            if tracer:
                result.data["spans"] = (mark, tracer.mark())
            spent += result.wall_s
            results.append(result)
    return results


def at_ref_speed(passes) -> tuple[float, float]:
    """Median pass time and median op latency, each sample scaled by its pass's speed."""
    pass_s = statistics.median(p.wall_s * p.speed for p in passes)
    op_ms = statistics.median(ms * p.speed for p in passes for ms in p.op_ms)
    return pass_s, op_ms


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds, from a wrapped builtin against the bare one."""
    wrapped = Tracer().wrap("probe", abs)
    start = time.perf_counter()
    for _ in range(calls):
        abs(1)
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped(1)
    return max(time.perf_counter() - start - bare, 0.0) / calls


def layer_metrics(traced, tracer, setup_range, micro, overhead):
    """Per-layer metrics of one traced run, and whether every count repeated.

    Counts are per pass; seconds are a mean over the traced passes.
    """
    summaries = [tracer.summary(*p.data["spans"]) for p in traced]
    setup = tracer.summary(*setup_range)
    out, consistent = {}, True

    def self_s(name):
        return sum(s.get(name, {}).get("self_s", 0.0) for s in summaries) / len(summaries)

    def calls(name):
        per_pass = [s.get(name, {}).get("calls", 0) for s in summaries]
        nonlocal consistent
        consistent &= len(set(per_pass)) == 1
        return per_pass[0]

    for name in PASS_SPANS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["gradient.batch_bytes_n10"] = (10 * 6 + 1) * (1 << 10) * 16  # computed: P + 1 states

    counts = traced[0].counts
    trials = calls("optimize.minimize")
    cost_evals = [tracer.count_children("optimize.minimize", "cost.cost_from_state", *p.data["spans"])
                  for p in traced]
    grad_evals = [tracer.count_children("optimize.minimize", "gradient.grad_cost", *p.data["spans"])
                  for p in traced]
    consistent &= len(set(cost_evals)) == 1 and len(set(grad_evals)) == 1
    iterations = counts.get("iterations", 0)
    out["optimize.iterations"] = iterations
    out["optimize.cost_evals"] = cost_evals[0]
    out["optimize.grad_evals"] = grad_evals[0]
    out["optimize.line_search_trials"] = max(cost_evals[0] - trials, 0)
    out["optimize.circuits"] = counts.get("circuits", 0)
    for status in STATUSES:
        out[f"optimize.status.{status}"] = counts.get(f"status.{status}", 0)
    out["optimize.status.other"] = sum(v for k, v in counts.items()
                                       if k.startswith("status.") and k[7:] not in STATUSES)
    out["optimize.useful_eval_frac"] = iterations / cost_evals[0] if cost_evals[0] else 0.0
    out["optimize.minimize.self_s"] = self_s("optimize.minimize")

    out["sampling.shots"] = counts.get("shots", 0)
    estimates = traced[0].attempted if "shots" in counts else 0
    out["sampling.unstable_frac"] = counts.get("unstable", 0) / estimates if estimates else 0.0

    out["classical.solve.calls"] = setup.get("classical.solve", {}).get("calls", 0)
    for name in ("classical.solve", "operators.decompose", "operators.build_matrix"):
        out[f"{name}.self_s"] = setup.get(name, {}).get("self_s", 0.0)
    out.update(micro)
    out["trace.overhead_frac"] = overhead
    return out, consistent


def main(argv=None) -> int:
    if not (SRC / "vqa_poisson" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import vqa_poisson
    if Path(vqa_poisson.__file__).resolve().parent != (SRC / "vqa_poisson").resolve():
        print(f"error: imported {vqa_poisson.__file__}, not the checkout's source", file=sys.stderr)
        return 2
    from speed import REF_MS, SpeedProbe
    from workloads import WORKLOADS, micro_table

    args = parse_args(argv, WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](args.seed)
    env = environment(args, workload)

    probe = SpeedProbe()
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        probe.sample(SETUP_KERNEL_SAMPLES)
        start = time.perf_counter()
        workload.setup()
        setup_samples.append(time.perf_counter() - start)
    import_s = import_seconds(probe)
    setup_speed = probe.factor()
    setup_s = (import_s + statistics.median(setup_samples)) * setup_speed

    if args.trace:
        micro = micro_table(args.seed)
        untraced = run_passes(workload, args.seconds / 2, TRACED_MIN_PASSES, probe)
        tracer = Tracer()
        tracer.install(TRACE_TARGETS)
        try:
            mark = tracer.mark()
            workload.setup()
            setup_range = (mark, tracer.mark())
            traced = run_passes(workload, args.seconds / 2, TRACED_MIN_PASSES, probe, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        overhead = at_ref_speed(traced)[0] / at_ref_speed(untraced)[0] - 1.0
        metrics, counts_repeat = layer_metrics(traced, tracer, setup_range, micro, overhead)
        spans = traced[0].data["spans"][1] - traced[0].data["spans"][0]
        trace_report = {
            "absent_spans": tracer.absent, "spans_per_pass": spans,
            "trace_overhead_computed_frac":
                spans * span_cost_s() / statistics.median(p.wall_s for p in untraced),
        }
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        passes = run_passes(workload, args.seconds, MIN_PASSES, probe)
        counts_repeat, trace_report = True, {}
        pass_s, op_ms = at_ref_speed(passes)
        metrics = {
            "setup_s": setup_s,
            "pass_s_norm": pass_s,
            "ops_per_s_norm": passes[0].ops / pass_s,
            "op_ms_norm": op_ms,
        }
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    failures, extras = workload.check(passes[0])
    first = passes[0]
    if not counts_repeat or any(p.signature != first.signature or p.counts != first.counts
                                for p in passes):
        failures.append("outputs or counts differ between passes of one seed")
    attempted = sum(p.attempted for p in passes) + extras.pop("checks") + 1
    failed = sum(p.failed for p in passes) + len(failures)
    if sorted(metrics) != sorted(names):
        print(f"error: metrics {sorted(set(metrics) ^ set(names))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    latencies = [ms for p in passes for ms in p.op_ms]
    report = {
        "environment": env,
        "setup": {"import_s": import_s, "problem_build_s": setup_samples, "speed": setup_speed},
        "passes": len(passes), "pass_wall_s": [p.wall_s for p in passes],
        "pass_speed": [p.speed for p in passes], "kernel_ref_ms": REF_MS,
        "latency_samples": len(latencies), "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": statistics.quantiles(latencies, n=10)[8],
        "pass_s_p50": statistics.median(p.wall_s for p in passes),
        "ops_per_pass": first.ops,
        "counts_per_pass": first.counts, **trace_report,
        "fail_frac": failed / attempted, "failures": failures, **extras,
    }
    if "shots" in first.counts:
        report["shots_per_s"] = first.counts["shots"] / statistics.median(p.wall_s for p in passes)
    print("report " + json.dumps(report, default=float))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
