"""Tests of the benchmark's own machinery, not of gridflex.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    first = workloads.make(name, 7, tmp_path).inputs()
    again = workloads.make(name, 7, tmp_path).inputs()
    other = workloads.make(name, 8, tmp_path).inputs()
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)


def test_export_lattice_keeps_the_paper_levels(tmp_path):
    for seed in range(20):
        levels = workloads.make("export-lattice", seed, tmp_path).levels
        assert levels[:2] == (1.0, 0.7)
        assert all(0.5 <= lv <= 0.9 for lv in levels[2:])


def test_self_time_subtracts_covered_part_once():
    # root [0, 10] with children a [1, 4] and b [3, 6] overlapping on
    # [3, 4]; a has child c [2, 3]; d [9, 12] sticks out of the root.
    spans = [Span(0, None, "analysis.root", 0.0, 10.0),
             Span(1, 0, "polytope.a", 1.0, 4.0),
             Span(2, 0, "polytope.b", 3.0, 6.0),
             Span(3, 1, "lp.c", 2.0, 3.0),
             Span(4, 0, "lp.d", 9.0, 12.0)]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_count_nested_calls_once():
    spans = [Span(0, None, "polytope.project", 0.0, 4.0),
             Span(1, 0, "polytope.remove_redundant", 0.5, 2.0,
                  {"rows_in": 10, "rows_out": 6}),
             Span(2, 1, "lp.maximize", 0.6, 0.8, {"cells": 20, "status": "optimal"}),
             Span(3, 2, "lp.linprog", 0.65, 0.75, {"nit": 3}),
             Span(4, 1, "lp.maximize", 0.9, 1.0, {"cells": 20, "status": "unbounded"}),
             Span(5, 0, "polytope.project", 2.5, 3.0),
             Span(6, None, "lp.maximize", 5.0, 5.3, {"error": 1})]
    m = tracing.layer_metrics(spans)
    assert m["polytope.project.s"] == pytest.approx(4.0)
    assert m["polytope.project.calls"] == 2
    assert m["lp.calls"] == 3
    assert m["lp.s"] == pytest.approx(0.6)
    assert m["lp.ms_per_call"] == pytest.approx(200.0)
    assert m["lp.iterations"] == 3
    assert (m["lp.nonoptimal"], m["lp.errors"]) == (1, 1)
    assert m["polytope.remove_redundant.dropped_per_lp"] == pytest.approx(2.0)
    assert m["cli.self_s"] == 0.0


def test_tail_percentile_rule():
    assert run.tail_latency(range(1, 20)) == (19, 100.0, 0)
    assert run.tail_latency(range(1, 21)) == (10, 50.0, 10)
    value, pct, beyond = run.tail_latency(list(range(100, 0, -1)))
    assert (value, pct, beyond) == (90, 90.0, 10)
    assert sum(1 for v in range(1, 101) if v > value) == beyond


def test_tail_does_not_depend_on_the_number_of_passes():
    units = [(f"u{k}", 0.01 * (k % 7 + 1), None) for k in range(30)]
    one = run.end_to_end([(2.0, units)], [0.5], 80.0)[0]
    two = run.end_to_end([(2.0, units), (2.0, list(units))], [0.5], 80.0)[0]
    for name in ("unit_p50_ms", "unit_tail_ms", "wall_s", "units_per_s"):
        assert one[name] == pytest.approx(two[name])


def test_constraints_rows_count_each_assembled_row_once():
    import gridflex as gf
    from gridflex.analysis import assemble_constraints

    case = gf.load_case(str(workloads.RTS))
    spec = gf.FlexibilitySpec("active", "n1", gf.ReserveConfig(mode="full"))
    with tracing.Tracer() as tracer:
        block, _ = assemble_constraints(case, spec)
    assert any(s.name == "constraints.stack_n1" for s in tracer.spans)
    m = tracing.layer_metrics(tracer.spans)
    assert m["constraints.rows"] == block.nrows


def _bindings():
    snapshot = {}
    for mod_name, module in sorted(sys.modules.items()):
        if module is not None and (mod_name == "gridflex"
                                   or mod_name.startswith("gridflex.")):
            for attr, obj in vars(module).items():
                snapshot[(mod_name, attr)] = obj
    main = sys.modules["gridflex.cli"].main
    for name, command in main.commands.items():
        snapshot[("cli-command", name)] = command.callback
    return snapshot


def test_wrap_then_unwrap_restores_every_binding():
    import gridflex
    import gridflex.cli  # noqa: F401
    import gridflex.lp

    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        wrapped = sys.modules["gridflex.lp"].maximize
        assert wrapped is not before[("gridflex.lp", "maximize")]
        assert sys.modules["gridflex.polytope"].maximize is wrapped
        assert sys.modules["gridflex.analysis"].maximize is wrapped
        assert gridflex.bounding_box is sys.modules["gridflex.polytope"].bounding_box
        box = gridflex.HPolytope(np.vstack([np.eye(2), -np.eye(2)]),
                                 np.ones(4), ("x", "y"))
        gridflex.bounding_box(box)
    names = [s.name for s in tracer.spans]
    assert names[0] == "polytope.bounding_box"
    assert names.count("lp.maximize") == 4 and names.count("lp.linprog") == 4
    assert all(s.parent == 0 for s in tracer.spans if s.name == "lp.maximize")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **tracing.LAYER_METRICS, "trace.overhead_s": "s"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
