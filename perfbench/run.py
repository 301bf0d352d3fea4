"""Run one gridflex benchmark workload and print its metrics.

    python3 perfbench/run.py --workload export-lattice --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root (any directory works; paths resolve from
this file).  The package is imported from ``src/`` without installing it.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end figures; with ``--trace 1`` they are the
per-layer figures of one traced pass, plus the tracing overhead.

A run repeats passes over the seed's inputs until ``--seconds`` have
elapsed, and makes at least the workload's ``min_passes``.  See
``perfbench/README.md`` for the metrics, the workloads and why each exists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "units_per_s": "1/s",
    "unit_p50_ms": "ms",
    "unit_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
WORKLOAD_NAMES = ("export-lattice", "neighbor-maxdev", "shadow-oracle",
                  "cli-commands")


def tail_latency(samples):
    """``(value, percentile, beyond)`` of the tail of ``samples``.

    The tail is the highest percentile with at least ten samples beyond
    it, taken by nearest rank: the value with exactly ten larger ranks.
    It must not fall below the median, so below 20 samples no percentile
    qualifies and the maximum is reported with ``beyond == 0``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def measure_setup(cases: list[str]) -> list[float]:
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *cases]
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(probe, capture_output=True, text=True,
                             timeout=120, check=True).stdout
        samples.append(float(out.strip().splitlines()[-1]))
    return samples


def run_pass(workload, in_process=False):
    units = []
    started = time.perf_counter()
    workload.run_pass(lambda name, seconds, error:
                      units.append((name, seconds, error)), in_process)
    return time.perf_counter() - started, units


def end_to_end(passes, setup_samples, peak_rss_mb):
    """End-to-end metrics of a run's untraced passes.

    Unit latencies are summarised per pass, and the median over the passes
    is reported.  Every pass runs the same units, so the sample count and
    the tail percentile stay fixed however many passes fit in the run.
    """
    walls = [wall for wall, _ in passes]
    per_pass = [[seconds for _, seconds, _ in units] for _, units in passes]
    tails = [tail_latency(latencies) for latencies in per_pass]
    units = [u for _, us in passes for u in us]
    passed = sum(1 for *_, err in units if err is None)
    _, pct, beyond = tails[0]
    metrics = {
        "wall_s": statistics.median(walls),
        "units_per_s": passed / sum(walls),
        "unit_p50_ms": 1000.0 * statistics.median(
            statistics.median(latencies) for latencies in per_pass),
        "unit_tail_ms": 1000.0 * statistics.median(t for t, _, _ in tails),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": passed / len(units),
    }
    notes = [f"unit_tail_ms is p{pct:.2f} of the {len(per_pass[0])} unit "
             f"samples of a pass ({beyond} beyond it), median over "
             f"{len(passes)} pass(es)"
             + ("; fewer than 20 samples, so the maximum" if beyond == 0 else "")]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridflex" / "__init__.py").is_file():
        print(f"error: gridflex sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy, so only after the thread caps

    WORK.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, WORK)
    workload.setup()

    passes = []
    if args.trace:
        import tracing

        # The CLI workload calls gridflex.cli.main in-process on both
        # sides, so the difference is the wrappers' cost alone.
        in_process = args.workload == "cli-commands"
        passes.append(run_pass(workload, in_process))
        tracer = tracing.Tracer()
        with tracer:
            t0 = time.perf_counter()
            passes.append(run_pass(workload, in_process))
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = passes[1][0] - passes[0][0]
        metric_units = {**tracing.LAYER_METRICS, "trace.overhead_s": "s"}
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump(tracing.spans_to_json(tracer.spans, t0), fh)
        notes = [f"{len(tracer.spans)} spans written to {trace_path}",
                 f"untraced pass {passes[0][0]:.3f} s, traced pass "
                 f"{passes[1][0]:.3f} s"]
    else:
        started = time.perf_counter()
        while (len(passes) < workload.min_passes
               or time.perf_counter() - started < args.seconds):
            passes.append(run_pass(workload))
        # Read the peak before the set-up probes run: on cli-commands it is
        # the largest child so far, and only the CLI processes count.
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli-commands"
               else resource.RUSAGE_SELF)
        peak = resource.getrusage(who).ru_maxrss / 1024.0
        setup_samples = measure_setup(workload.setup_cases())
        metrics, notes = end_to_end(passes, setup_samples, peak)
        metric_units = END_TO_END

    all_units = [u for _, us in passes for u in us]
    failed = [u for u in all_units if u[2] is not None]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} pass(es), {nproc} BLAS threads, inputs "
          f"{json.dumps(workload.inputs())[:200]}")
    for wall, us in passes:
        print(f"  pass {wall:.3f} s, {len(us)} units")
    for name, _, err in failed:
        print(f"  FAILED {name}: {err}")
    print(f"  fail_ratio {len(failed)}/{len(all_units)}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": not failed,
        "attempted": len(all_units),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
