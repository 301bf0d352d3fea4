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
from gridflex.analysis import Study
from gridflex.cli import main

import band_reference
from conftest import data_path, triangle_tie_dict


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


def _assert_one_line_exit_2(result, line):
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [line]


def test_case_path_that_is_a_directory_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["validate", "--case", str(tmp_path)])
    _assert_one_line_exit_2(
        result, f"error: cannot read case file {tmp_path}: Is a directory")


def test_unreadable_case_file_exits_2(runner, monkeypatch):
    import gridflex.network

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    # Patched rather than chmod-ed, because a superuser reads any file.
    monkeypatch.setattr(gridflex.network, "open", denied, raising=False)
    result = runner.invoke(main, ["validate", "--case", _toy()])
    _assert_one_line_exit_2(
        result, f"error: cannot read case file {_toy()}: Permission denied")


def test_case_file_that_is_not_utf8_exits_2(runner, tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    result = runner.invoke(main, ["validate", "--case", str(bad)])
    _assert_one_line_exit_2(result, f"error: case file is not UTF-8 text: "
                                    f"{bad} (invalid start byte at byte 0)")


@pytest.mark.parametrize("under, reason", [
    (False, "File exists"), (True, "Not a directory")],
    ids=["file", "under-file"])
def test_out_dir_that_is_a_file_exits_2(runner, tmp_path, under, reason):
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = blocker / "sub" if under else blocker
    result = runner.invoke(main, [
        "--out-dir", str(out), "metrics", "--case", _toy()])
    _assert_one_line_exit_2(
        result, f"error: cannot create output directory {out}: {reason}")
    assert blocker.read_text() == "keep"


def test_out_dir_under_a_file_exits_2_before_any_lp(runner, tmp_path,
                                                   monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran before the output directory was checked")

    monkeypatch.setattr(lp, "maximize", no_lp)
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = blocker / "sub"
    result = runner.invoke(main, [
        "--out-dir", str(out), "maxdev", "--case", _toy(), "--reserve-pct", "0.1"])
    _assert_one_line_exit_2(
        result, f"error: cannot create output directory {out}: Not a directory")
    assert sorted(tmp_path.iterdir()) == [blocker]


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


def test_build_pins_the_toy_flexibility_set(runner, tmp_path):
    """One internal column (the source at bus 1), two ties, no internal
    line and a flat schedule: unit rows on each tie and each source with
    1 pu margins, then the balance pair at +0.0.  Negated rows carry -0.0
    coefficients; ``repr`` keeps the sign of every zero."""
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), "build", "--case", _toy()])
    assert result.exit_code == 0, result.output
    block = json.loads((tmp_path / "flexibility_set.json").read_text())
    assert repr(block["C_i"]) == repr([
        [0.0], [0.0], [-0.0], [-0.0],
        [1.0], [0.0], [0.0], [-1.0], [-0.0], [-0.0],
        [1.0], [-1.0]])
    assert repr(block["C_e"]) == repr([
        [1.0, 0.0], [0.0, 1.0], [-1.0, -0.0], [-0.0, -1.0],
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
        [-0.0, -0.0], [-1.0, -0.0], [-0.0, -1.0],
        [1.0, 1.0], [-1.0, -1.0]])
    assert repr(block["b"]) == repr([1.0] * 10 + [0.0, 0.0])
    assert block["labels"] == [
        "N:line:1-2_1:up", "N:line:1-2_2:up",
        "N:line:1-2_1:dn", "N:line:1-2_2:dn",
        "N:bus:1:up", "N:ext:1-2_1:up", "N:ext:1-2_2:up",
        "N:bus:1:dn", "N:ext:1-2_1:dn", "N:ext:1-2_2:dn",
        "N:balance:up", "N:balance:dn"]


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


def test_maxdev_repeated_mode_exits_2(runner, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, [
        "--out-dir", str(out), "maxdev", "--case", _toy(),
        "--modes", "active,passive,active"])
    _assert_rejected(result, out,
                     "error: deviation mode 'active' is given more than once")


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
        return lp.maximize([0.0], [[1.0], [-1.0]], [-1e-5, 0.0]).status

    with lp.feasibility_tolerance(1e-3):
        assert solve() == "optimal"
    assert solve() == "infeasible"
    _config_hash(runner, tmp_path, "--feas-tol", "1e-3")
    assert solve() == "infeasible"


@pytest.mark.parametrize("given, expected", [(("--feas-tol", "1e-8"), 1e-8),
                                             ((), 1e-7)])
def test_every_lp_solves_at_the_feas_tol_given(runner, tmp_path, monkeypatch,
                                               given, expected):
    """An explicit ``--feas-tol 1e-8`` reaches HiGHS, and so does the
    default, HiGHS's own 1e-7: every cold LP runs under it, and every LP
    system (the projection's support LPs) is built under it, which is
    the tolerance its solves keep."""
    seen, solve, build = [], lp.maximize, lp.LPSystem.__init__

    def recording(*args):
        seen.append(lp._OPTIONS.get())
        return solve(*args)

    def built(system, *args):
        seen.append(lp._OPTIONS.get())
        build(system, *args)

    monkeypatch.setattr(lp, "maximize", recording)
    monkeypatch.setattr(lp.LPSystem, "__init__", built)
    _config_hash(runner, tmp_path, *given)
    assert seen
    assert all(opts == {"primal_feasibility_tolerance": expected,
                        "dual_feasibility_tolerance": expected} for opts in seen)


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


@pytest.mark.parametrize("command", [
    ["build", "--security", "n1"],
    ["metrics", "--security", "n1", "--gen-outages", "g1"],
    ["maxdev", "--reserve-pct", "0.2", "--neighbor-security"],
], ids=["build-n1", "metrics-gen-outage", "maxdev-neighbor-security"])
def test_generator_outage_in_a_one_unit_area_exits_2(runner, tmp_path,
                                                     monkeypatch, command):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran before the case was rejected")

    monkeypatch.setattr(lp, "maximize", no_lp)
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, [
        "--out-dir", str(out), command[0], "--case", _toy(), *command[1:]])
    _assert_rejected(result, out, "error: area ")


def test_a_bridge_named_as_a_line_outage_exits_2_before_any_lp(runner, tmp_path,
                                                              monkeypatch):
    """Tie 3-4 is the only link to area B, so it cannot be outaged."""
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran before the case was rejected")

    monkeypatch.setattr(lp, "maximize", no_lp)
    case = tmp_path / "triangle.json"
    case.write_text(json.dumps(triangle_tie_dict()))
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, [
        "--out-dir", str(out), "build", "--case", str(case),
        "--security", "n1", "--line-outages", "3-4"])
    _assert_rejected(result, out, "error: line 3-4 is a bridge and cannot be "
                                  "a security outage")


@pytest.mark.parametrize("command", ["build", "metrics", "atc", "plotdata"])
def test_each_command_builds_one_study_and_assembles_once(runner, tmp_path,
                                                          monkeypatch, command):
    builds, assembles = [], []
    build, assemble = Study.build.__func__, Study.assemble

    def counted_build(cls, *args, **kwargs):
        builds.append(args)
        return build(cls, *args, **kwargs)

    def counted_assemble(self, spec):
        assembles.append(spec)
        return assemble(self, spec)

    monkeypatch.setattr(Study, "build", classmethod(counted_build))
    monkeypatch.setattr(Study, "assemble", counted_assemble)
    result = runner.invoke(main, [
        "--out-dir", str(tmp_path), command, "--case", _toy()])
    assert result.exit_code == 0, result.output
    assert len(builds) == 1
    assert len(assembles) == 1


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


def test_a_shuffled_case_file_writes_the_same_bytes(runner, tmp_path):
    """One case hash, one set of bytes: RTS-96 with its buses, lines and
    generators shuffled writes the artifacts of the original file."""
    raw = json.loads(Path(_rts()).read_text())
    rng = np.random.default_rng(12)
    for key in ("buses", "lines", "generators"):
        raw[key] = [raw[key][k] for k in rng.permutation(len(raw[key]))]
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(raw))
    for name, case in (("original", _rts()), ("shuffled", str(shuffled))):
        for cmd in (["build", "--security", "n1"],
                    ["maxdev", "--reserve-pct", "0.1", "--neighbor-security"]):
            result = runner.invoke(main, [
                "--out-dir", str(tmp_path / name), *cmd, "--case", case])
            assert result.exit_code == 0, result.output
    files = sorted(p.name for p in (tmp_path / "original").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "shuffled").iterdir())
    assert "max_deviations.csv" in files and "flexibility_set.json" in files
    for name in files:
        assert ((tmp_path / "original" / name).read_bytes()
                == (tmp_path / "shuffled" / name).read_bytes()), name


def test_build_with_strict_line_outages_keeps_every_strict_row(runner, tmp_path,
                                                               rts_case):
    """``--strict-line-outages`` bounds each post-outage flow on its own
    row: RTS-96 keeps all 3,190 of them, where the default keeps at most
    two per outage."""
    counts = {}
    for flag in ((), ("--strict-line-outages",)):
        out = tmp_path / ("strict" if flag else "default")
        result = runner.invoke(main, [
            "--out-dir", str(out), "build", "--case", _rts(), "--security",
            "n1", *flag])
        assert result.exit_code == 0, result.output
        block = json.loads((out / "flexibility_set.json").read_text())
        counts[bool(flag)] = sum(l.startswith("L:") for l in block["labels"])
        assert f"assembled constraints{len(block['b']):>15}" in result.output
    study = Study.build(rts_case, ReserveConfig())
    full = band_reference.line_outage_bands(
        study.view, study.ptdf, study.lodf, study.limits, study.flows,
        strict=True)
    assert counts[True] == full.nrows == 3190
    assert counts[False] <= 2 * len(study.lodf.outage_ids)


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


def test_plotdata_writes_no_cut_of_a_four_tie_set(runner, tmp_path):
    """A 4-bus ring with one tie per bus: six pair projections, and no cut,
    because fixing one tie of a 4-tie set leaves a 3-D set."""
    def line(i, j, limit=10.0):
        return {"id": f"{i}-{j}", "from_bus": i, "to_bus": j,
                "reactance_pu": 0.1, "flow_limit_pu": limit}

    raw = {
        "name": "four-tie-ring", "areas": ["A", "B"], "reference_bus": 1,
        "buses": [{"id": b, "area_id": "A", "load_pu": 0.0} for b in (1, 2, 3, 4)]
        + [{"id": b, "area_id": "B", "load_pu": 1.0} for b in (5, 6)],
        "lines": [line(1, 2), line(2, 3), line(3, 4), line(1, 4), line(5, 6)]
        + [line(a, b, 1.0) for a, b in ((1, 5), (2, 5), (3, 6), (4, 6))],
        "generators": [
            {"id": f"g{b}", "bus": b, "p_sched_pu": 0.5, "p_min_pu": 0.0,
             "p_max_pu": 1.0, "res_up_pu": 0.3, "res_dn_pu": 0.3}
            for b in (1, 2, 3, 4)],
    }
    case = tmp_path / "four_ties.json"
    case.write_text(json.dumps(raw))
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "--out-dir", str(out), "plotdata", "--case", str(case),
        "--slice-at", "5"])
    assert result.exit_code == 0, result.output
    names = sorted(p.name for p in out.iterdir())
    assert len(names) == 6
    assert all(n.startswith("proj_tie_") for n in names)


def test_plotdata_on_a_one_tie_set_exits_2_before_any_lp(runner, tmp_path,
                                                         monkeypatch):
    """A one-tie set has no tie pair to project and no cut."""
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran before the case was rejected")

    monkeypatch.setattr(lp, "maximize", no_lp)
    case = tmp_path / "one_tie.json"
    case.write_text(json.dumps(
        triangle_tie_dict(atc={"a_to_b_pu": 0.5, "b_to_a_pu": 0.5})))
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, [
        "--out-dir", str(out), "plotdata", "--case", str(case)])
    _assert_rejected(result, out, "error: plotdata needs at least two ties; "
                                  "the study area has one, 3-4")


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


CLI_RUN = """
import runpy
import sys
sys.argv = ["gridflex.cli", *sys.argv[1:]]
try:
    runpy.run_module("gridflex.cli", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    print("exit", stop.code)
print("numpy.ma" in sys.modules)
"""


def _fresh_cli(*args):
    """Run ``python -m gridflex.cli *args`` in a fresh process; its last
    two lines of output are the exit code and whether ``numpy.ma`` was
    imported."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", CLI_RUN, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_atc_leaves_numpy_ma_unloaded(tmp_path):
    """``python -m gridflex.cli atc`` enumerates vertices and 2-D hulls
    without importing ``numpy.ma``, which ``np.unique(..., axis=0)``
    imports on its first call."""
    result = _fresh_cli("--out-dir", str(tmp_path), "atc", "--case", _toy())
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["exit 0", "False"]
    assert (tmp_path / "atc_comparison.json").is_file()


def test_neighbor_security_maxdev_leaves_numpy_ma_unloaded(tmp_path):
    """The neighbor's assemblers pick the lines they monitor without
    ``np.isin``, which on RTS-96's line count sorts with ``np.unique`` and
    so imports ``numpy.ma``."""
    result = _fresh_cli("--out-dir", str(tmp_path), "maxdev", "--case", _rts(),
                        "--reserve-pct", "0.1", "--neighbor-security")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["exit 0", "False"]
    assert (tmp_path / "max_deviations.csv").is_file()
