import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gridflex import (CaseError, FlexibilitySpec, HPolytope, NetworkCase,
                      ReserveConfig, case_from_dict, external_polytope, lp)
from gridflex.cli import main

from conftest import data_path


@pytest.fixture
def runner():
    return CliRunner()


def _toy():
    return data_path("toy_hexagon.json")


def test_validate_ok(runner):
    result = runner.invoke(main, ["validate", "--case", _toy()])
    assert result.exit_code == 0, result.output
    assert "case is valid" in result.output
    assert "2 ties" in result.output


def test_missing_case_file_exits_2(runner):
    result = runner.invoke(main, ["validate", "--case", "/nope/missing.json"])
    assert result.exit_code == 2
    assert "not found" in result.output


def test_malformed_case_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    result = runner.invoke(main, ["validate", "--case", str(bad)])
    assert result.exit_code == 2


def test_bad_scale_exits_2(runner):
    result = runner.invoke(main, ["build", "--case", _toy(), "--scale", "1.5"])
    assert result.exit_code == 2


def test_row_cap_exhaustion_exits_1(runner, tmp_path):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "--row-cap", "3",
        "build", "--case", _toy()])
    assert result.exit_code == 1
    assert "row" in result.output.lower()


def test_build_artifacts(runner, tmp_path):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "build", "--case", _toy(),
        "--approach", "active", "--security", "n"])
    assert result.exit_code == 0, result.output
    poly = json.loads((tmp_path / "external_polytope.json").read_text())
    assert poly["labels"] == ["tie:1-2_1", "tie:1-2_2"]
    assert "config_hash" in poly["meta"] and "case_hash" in poly["meta"]
    block = json.loads((tmp_path / "flexibility_set.json").read_text())
    assert len(block["labels"]) == len(block["b"])


def test_build_passive_stays_balanced(runner, tmp_path):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "build", "--case", _toy(),
        "--approach", "passive", "--security", "n"])
    assert result.exit_code == 0, result.output
    raw = json.loads((tmp_path / "external_polytope.json").read_text())
    poly = HPolytope.from_json_dict(raw)
    # Every feasible point satisfies both balance half-spaces.
    for pt in ([0.5, -0.5], [-1.0, 1.0]):
        assert poly.contains_points(np.array(pt), tol=1e-9)[0]
    assert not poly.contains_points(np.array([0.5, 0.0]), tol=1e-9)[0]


def test_metrics_total(runner, tmp_path):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "metrics", "--case", _toy()])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "exported_flexibility.json").read_text())
    assert report["total_pu2"] == pytest.approx(3.0, abs=1e-9)


def test_plotdata_emits_hexagon(runner, tmp_path):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "plotdata", "--case", _toy()])
    assert result.exit_code == 0, result.output
    csv = (tmp_path / "proj_tie_1-2_1__tie_1-2_2.csv").read_text()
    rows = [l for l in csv.strip().split("\n") if not l.startswith("#")]
    assert rows[0] == "tie:1-2_1,tie:1-2_2"
    assert len(rows) == 1 + 6  # header plus six hexagon vertices


def test_atc_comparison(runner, tmp_path):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "atc", "--case", _toy()])
    assert result.exit_code == 0, result.output
    record = json.loads((tmp_path / "atc_comparison.json").read_text())
    assert record["active_within_atc"] is False
    assert record["atc_within_active"] is True
    assert record["witness_active_only"] is not None


def test_atc_without_values_exits_2(runner, tmp_path):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "atc", "--case",
        _case_without_atc(tmp_path)])
    assert result.exit_code == 2
    assert "transfer capacities" in result.output


def _case_without_atc(tmp_path):
    raw = json.loads(open(_toy()).read())
    del raw["atc"]
    case_path = tmp_path / "no_atc.json"
    case_path.write_text(json.dumps(raw))
    return str(case_path)


def test_maxdev_without_atc_values_exits_2(runner, tmp_path):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "maxdev", "--case",
        _case_without_atc(tmp_path)])
    assert result.exit_code == 2
    assert "transfer capacities" in result.output


def test_maxdev_unknown_mode_exits_2(runner, tmp_path):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "maxdev", "--case", _toy(),
        "--modes", "passive,bogus"])
    assert result.exit_code == 2
    assert "bogus" in result.output
    assert "passive, active, atc" in result.output
    assert not (tmp_path / "max_deviations.csv").exists()


@pytest.mark.parametrize("flag", ["--gen-outages", "--line-outages"])
def test_unknown_outage_ids_exit_2(runner, tmp_path, flag):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "build", "--case", _toy(),
        "--security", "n1", flag, "NOPE"])
    assert result.exit_code == 2
    assert "NOPE" in result.output


def _config_hash(runner, out_dir, *global_opts):
    result = runner.invoke(main, [
        "--out-dir", str(out_dir), *global_opts, "metrics", "--case", _toy()])
    assert result.exit_code == 0, result.output
    report = json.loads((out_dir / "exported_flexibility.json").read_text())
    return report["meta"]["config_hash"]


def test_config_hash_covers_tolerances(runner, tmp_path):
    first = _config_hash(runner, tmp_path / "a", "--feas-tol", "1e-8")
    assert _config_hash(runner, tmp_path / "b", "--feas-tol", "1e-8") == first
    assert _config_hash(runner, tmp_path / "c", "--feas-tol", "1e-3") != first
    assert _config_hash(runner, tmp_path / "d",
                        "--contain-tol", "1e-5") != first


def test_feas_tol_stays_inside_one_invocation(runner, tmp_path):
    # x <= -1e-5 and x >= 0 is feasible only within a loose tolerance.
    def solve():
        return lp.maximize([0.0], [[1.0]], [-1e-5], bounds=[(0.0, None)]).status

    with lp.feasibility_tolerance(1e-3):
        assert solve() == "optimal"
    assert solve() == "infeasible"
    _config_hash(runner, tmp_path, "--feas-tol", "1e-3")
    assert solve() == "infeasible"


def _assert_rejected(result, out_dir, error):
    """Exit 2 with one error line starting with ``error``, no traceback and
    nothing written."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [l for l in result.output.splitlines() if "error" in l.lower()]
    assert len(errors) == 1 and errors[0].startswith(error), result.output
    assert "Traceback" not in result.output
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("option, value", [
    *((opt, v) for opt in ("--feas-tol", "--redund-tol", "--contain-tol")
      for v in ("nan", "inf", "0", "-1")),
    ("--row-cap", "0"), ("--row-cap", "-1"),
])
def test_bad_global_option_exits_2(runner, tmp_path, option, value):
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, [
        "--out-dir", str(out), option, value, "atc", "--case", _toy()])
    _assert_rejected(result, out, f"Error: Invalid value for '{option}'")


@pytest.mark.parametrize("args, message", [
    (["atc", "--atc-ab", "nan"], "transfer capacities must be finite"),
    (["atc", "--atc-ab", "-1"], "transfer capacities must be finite"),
    (["maxdev", "--atc-ab", "nan"], "transfer capacities must be finite"),
    (["maxdev", "--reserve-pct", "nan"], "reserve fraction must be finite"),
    (["metrics", "--reserves", "fraction", "--reserve-fraction", "nan"],
     "reserve fraction must be finite"),
    (["maxdev", "--modes", ","], "no deviation mode given"),
], ids=["atc-nan", "atc-negative", "maxdev-atc-nan", "maxdev-reserve-nan",
        "metrics-fraction-nan", "maxdev-no-modes"])
def test_bad_command_number_exits_2(runner, tmp_path, args, message):
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, [
        "--out-dir", str(out), *args, "--case", _toy()])
    _assert_rejected(result, out, f"error: {message}")


@pytest.mark.parametrize("value", ["", ","], ids=["empty", "comma"])
@pytest.mark.parametrize("flag", ["--gen-outages", "--line-outages",
                                  "--reserve-units"])
def test_empty_id_list_exits_2(runner, tmp_path, flag, value):
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, [
        "--out-dir", str(out), "build", "--case", _toy(), "--security", "n1",
        flag, value])
    _assert_rejected(result, out, f"error: {flag} names no id")


def test_maxdev_honours_row_cap(runner, tmp_path):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "--row-cap", "3",
        "maxdev", "--case", _toy()])
    assert result.exit_code == 1
    assert "cap 3" in result.output
    assert not (tmp_path / "max_deviations.csv").exists()


def test_maxdev_unknown_reserve_unit_exits_2(runner, tmp_path):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "maxdev", "--case", _toy(),
        "--reserve-units", "NOPE"])
    assert result.exit_code == 2
    assert "NOPE" in result.output
    assert not (tmp_path / "max_deviations.csv").exists()


def test_maxdev_csv(runner, tmp_path):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "maxdev", "--case", _toy(),
        "--reserve-pct", "0.05"])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "max_deviations.csv").read_text().strip().split("\n")
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "bus,mode,max_up_pu,max_dn_pu"
    assert len(data) == 1 + 3  # one neighbor bus, three modes


def test_repeated_runs_are_byte_identical(runner, tmp_path):
    for d in ("a", "b"):
        for cmd in (["build"], ["metrics"], ["plotdata"],
                    ["atc"], ["maxdev", "--reserve-pct", "0.05"]):
            result = runner.invoke(main, [
                "--out-dir", str(tmp_path / d), *cmd, "--case", _toy()])
            assert result.exit_code == 0, result.output
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes(), fa.name


def test_out_dir_env_override(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("GRIDFLEX_OUT_DIR", str(tmp_path / "env_out"))
    result = runner.invoke(main, ["metrics", "--case", _toy()])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "env_out" / "exported_flexibility.json").exists()


def _set(path, value):
    """Case mutator: ``path`` is a key chain into the toy case JSON."""
    def mutate(raw):
        *head, last = path
        target = raw
        for key in head:
            target = target[key]
        target[last] = value
    return mutate


@pytest.mark.parametrize("mutate, record, key", [
    (_set(("generators", 0, "res_up_pu"), "lots"), "generator #0", "res_up_pu"),
    (_set(("atc", "a_to_b_pu"), "high"), "atc", "a_to_b_pu"),
    (_set(("reference_bus",), "one"), "case", "reference_bus"),
    (_set(("mva_base",), "100 MVA"), "case", "mva_base"),
    (_set(("areas",), 2), "case", "areas"),
    (_set(("atc",), [0.5, 0.5]), "case", "atc"),
    (lambda raw: raw.update(buses={str(b["id"]): b for b in raw["buses"]}),
     "case", "buses"),
    (_set(("buses", 0, "id"), 1.7), "bus #0", "id"),
], ids=["str-res-up", "str-atc", "str-reference-bus", "str-mva-base",
        "int-areas", "list-atc", "object-buses", "fractional-bus-id"])
def test_malformed_case_file_exits_2(runner, tmp_path, mutate, record, key):
    raw = json.loads(open(_toy()).read())
    mutate(raw)
    with pytest.raises(CaseError, match=rf"^{record}: key '{key}' "):
        case_from_dict(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    result = runner.invoke(main, ["validate", "--case", str(bad)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    context = str(bad) if record == "case" else record
    assert f"error: {context}: key '{key}' " in result.output
    assert "Traceback" not in result.output


def _rts():
    return data_path("rts96_2area.json")


def test_plotdata_cuts_of_three_tie_set(runner, tmp_path, rts_case):
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "plotdata", "--case", _rts(),
        "--reserves", "full", "--security", "n", "--slice-at", "0.1"])
    assert result.exit_code == 0, result.output
    fe = external_polytope(rts_case, FlexibilitySpec(
        "active", "n", ReserveConfig(mode="full")))
    labels = fe.labels
    assert len(labels) == 3
    for k, fixed in enumerate(labels):
        lines = (tmp_path / f"cut_{fixed.replace(':', '_')}.csv").read_text()
        meta = [l for l in lines.splitlines() if l.startswith("#")]
        rows = [l for l in lines.splitlines() if not l.startswith("#")]
        assert "# kind=cut" in meta and f"# fixed={fixed}" in meta
        assert "# value=0.1" in meta
        others = labels[:k] + labels[k + 1:]
        assert rows[0] == ",".join(others)
        cut = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert len(cut) >= 3
        points = np.insert(cut, k, 0.1, axis=1)
        assert fe.poly.contains_points(points, tol=1e-7).all()


def test_plotdata_slice_outside_a_tie_range_exits_2(runner, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, [
        "--out-dir", str(out), "plotdata", "--case", _rts(),
        "--reserves", "full", "--security", "n", "--slice-at", "5"])
    assert result.exit_code == 2, result.output
    assert "error: --slice-at 5 lies outside the range" in result.output
    assert "tie:" in result.output
    assert list(out.iterdir()) == []


def test_maxdev_hashes_each_case_once(runner, tmp_path, monkeypatch):
    # One hash for the loaded case and one for the exporter's
    # reserve-configured copy.
    calls = []
    to_dict = NetworkCase.to_dict
    monkeypatch.setattr(NetworkCase, "to_dict",
                        lambda case: calls.append(case) or to_dict(case))
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "maxdev", "--case", _rts()])
    assert result.exit_code == 0, result.output
    assert len(calls) == 2


def test_a_flat_set_projects_alike_below_the_hull_slack(runner, tmp_path):
    """A passive set lies in the balance plane; with a facet slack below
    the LP noise off that plane it still comes out flat and bounded."""
    polys = []
    for tol in ("1e-7", "1e-16"):
        out = tmp_path / tol
        result = runner.invoke(main, [
            "--out-dir", str(out), "--redund-tol", tol, "build", "--case",
            _rts(), "--approach", "passive"])
        assert result.exit_code == 0, result.output
        polys.append(json.loads((out / "external_polytope.json").read_text()))
    assert polys[1]["A"] == polys[0]["A"] and polys[1]["b"] == polys[0]["b"]


LEAN_RUN = """
import sys
import gridflex.cli
from gridflex import (FlexibilitySpec, exported_flexibility, external_polytope,
                      load_case, lp)
fe = external_polytope(load_case(sys.argv[1]), FlexibilitySpec("active"))
assert exported_flexibility(fe).total > 0
print(sorted(m for m in ("scipy.optimize", "scipy.spatial") if m in sys.modules))
print(lp._backend is lp._solve_highs)
from scipy.optimize._highspy import _core
print(_core is lp._highs, lp.linprog([-1.0], A_ub=[[1.0]], b_ub=[2.0]).fun)
"""


@pytest.mark.skipif(lp._highs is None,
                    reason="this scipy has no bundled HiGHS bindings")
def test_a_run_loads_neither_scipy_optimize_nor_scipy_spatial():
    """Import, a projection and a metric in a fresh process leave
    scipy.optimize and scipy.spatial unloaded; the HiGHS bindings solve
    every LP, and a later ``import scipy.optimize`` reuses them."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", LEAN_RUN, _toy()], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "True", "True -2.0"]
