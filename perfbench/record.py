"""Record the benchmark's reference outputs, baseline and seed spread.

    python3 perfbench/record.py reference   # -> perfbench/reference.json
    python3 perfbench/record.py baseline    # -> perfbench/baseline.json
    python3 perfbench/record.py spread --seeds 1-10 [--workload NAME ...]
                                            # -> perfbench/spread.json

``reference`` stores the default seed's per-set exported-flexibility
totals and per-bus deviation bounds; the workloads check their outputs
against it within 1e-6.  Regenerate it only when a change is meant to
alter outputs.  ``baseline`` runs every workload once untraced and once
traced at the default seed, plus a few single-purpose probes, and
records the machine it ran on.  ``spread`` runs each workload once per
seed and reports the quartile spread of every end-to-end metric as a
share of its median, as the acceptance rule for a benchmark computes it.
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

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"


def _run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec() -> dict:
    return json.loads(SPEC.read_text())


def record_reference() -> None:
    import gridflex as gf
    import workloads

    seed = workloads.DEFAULT_SEED
    el = workloads.make("export-lattice", seed, HERE / ".work")
    el.setup()
    full = gf.ReserveConfig(mode="full")
    lattice = {}
    for lv in el.levels:
        lattice[workloads._key(lv)] = {
            f"{a}/{s}": gf.exported_flexibility(gf.external_polytope(
                el.cases[lv], gf.FlexibilitySpec(a, s, full))).total
            for a, s in workloads.SETS}
    nd = workloads.make("neighbor-maxdev", seed, HERE / ".work")
    nd.setup()
    bounds = {
        workloads._key(f): [list(row) for row in gf.nodal_deviation_report(
            nd.case, reserve_fraction=f, security="n",
            include_neighbor_security=True).rows]
        for f in nd.fractions}
    record = {"seed": seed, "export-lattice": lattice, "neighbor-maxdev": bounds}
    (HERE / "reference.json").write_text(json.dumps(record, indent=1) + "\n")


def _machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS")}


def _probes() -> dict:
    """The single-purpose figures quoted when the benchmark was defined."""
    import numpy as np

    import gridflex as gf
    import gridflex.lp
    import tracing

    rts = gf.load_case(str(SRC / "gridflex" / "data" / "rts96_2area.json"))
    out = {}
    with tracing.Tracer() as tracer:
        started = time.perf_counter()
        gf.external_polytope(rts, gf.FlexibilitySpec(
            "active", "n1", gf.ReserveConfig(mode="full")))
        wall = time.perf_counter() - started
    m = tracing.layer_metrics(tracer.spans)
    out["active_n1_peak"] = {"wall_s": wall, "lp_calls": m["lp.calls"],
                             "lp_s": m["lp.s"]}
    with tracing.Tracer() as tracer:
        started = time.perf_counter()
        gf.nodal_deviation_report(rts, reserve_fraction=0.05, security="n",
                                  include_neighbor_security=True)
        wall = time.perf_counter() - started
    m = tracing.layer_metrics(tracer.spans)
    out["neighbor_report_0.05"] = {"wall_s": wall, "lp_calls": m["lp.calls"],
                                   "lp_s": m["lp.s"]}
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(15, 2)), np.ones(15)
    gridflex.lp.maximize(np.ones(2), a, b)
    times = []
    for _ in range(300):
        started = time.perf_counter()
        gridflex.lp.maximize(rng.normal(size=2), a, b)
        times.append(time.perf_counter() - started)
    out["tiny_lp_15x2_ms"] = 1000.0 * statistics.median(times)
    imports = []
    for _ in range(5):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               str(SRC)], capture_output=True, text=True,
                              check=True, timeout=120)
        imports.append(float(proc.stdout.strip().splitlines()[-1]))
    out["import_gridflex_s"] = statistics.median(imports)
    return out


def record_baseline() -> None:
    import workloads

    spec = _spec()
    seed = workloads.DEFAULT_SEED
    record = {"seed": seed, "run_seconds": spec["run_seconds"],
              "machine": _machine(), "workloads": {}}
    for w in spec["workloads"]:
        record["workloads"][w["name"]] = {
            f"trace{t}": _run(w["name"], seed, t, spec["run_seconds"])
            for t in (0, 1)}
    record["probes"] = _probes()
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")


def record_spread(seeds: list[int], names: list[str]) -> None:
    spec = _spec()
    path = HERE / "spread.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    record["machine"] = _machine()
    for name in names or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seeds:
            started = time.perf_counter()
            result = _run(name, seed, 0, spec["run_seconds"])
            runs.append({"seed": seed, "run_s": time.perf_counter() - started,
                         "failed": result["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {"median": median,
                                       "spread": (q3 - q1) / median,
                                       "bound": metric["bound"]}
            print(f"{name:16s} {metric['name']:13s} median {median:12.4f} "
                  f"spread {(q3 - q1) / median:6.3f} bound {metric['bound']}")
        record[name] = {"seeds": seeds, "summary": summary, "runs": runs}
        path.write_text(json.dumps(record, indent=1) + "\n")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("reference", "baseline", "spread"))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workload", action="append", default=[])
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE), str(SRC)]
    import run

    run.cap_threads()  # as in a benchmark run, before numpy is imported
    if args.what == "reference":
        record_reference()
    elif args.what == "baseline":
        record_baseline()
    else:
        record_spread(args.seeds, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
