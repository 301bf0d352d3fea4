import importlib.util
import json
from pathlib import Path

import pytest

from gridflex import (CaseError, ReserveConfig, case_from_dict,
                      configure_reserves, load_case, partition, scale_load)

from conftest import data_path, triangle_tie_dict


def test_load_rts_case(rts_case):
    assert len(rts_case.buses) == 48
    assert {b.area_id for b in rts_case.buses} == {"A", "B"}
    assert all(b.area_id == ("A" if b.id < 200 else "B") for b in rts_case.buses)
    assert len(rts_case.tie_lines()) == 3
    assert rts_case.atc_a_to_b_pu == pytest.approx(1.2)


def test_missing_file_raises():
    with pytest.raises(CaseError, match="not found"):
        load_case("/nonexistent/case.json")


def test_malformed_json_raises(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(CaseError, match="not valid JSON"):
        load_case(str(path))


def test_single_area_case_rejected(tmp_path):
    """A case whose buses all sit in one area has no tie and is refused."""
    raw = triangle_tie_dict()
    raw["buses"] = raw["buses"][:3]
    raw["lines"] = raw["lines"][:3]
    for g in raw["generators"]:
        g.update(p_sched_pu=0.0, res_up_pu=0.0, res_dn_pu=0.0)
    path = tmp_path / "triangle3.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(CaseError, match="tie-line"):
        load_case(str(path))


def test_setpoint_above_capacity_rejected():
    raw = triangle_tie_dict()
    raw["generators"][1]["p_sched_pu"] = 1.1 * raw["generators"][1]["p_max_pu"]
    with pytest.raises(CaseError, match="g2"):
        case_from_dict(raw)


def test_duplicate_ids_rejected():
    raw = triangle_tie_dict()
    raw["buses"].append({"id": 1, "area_id": "A", "load_pu": 0.0})
    with pytest.raises(CaseError, match="duplicate bus"):
        case_from_dict(raw)


def test_unbalanced_dispatch_rejected():
    raw = triangle_tie_dict()
    raw["generators"][0]["p_sched_pu"] = 1.2
    with pytest.raises(CaseError, match="unbalanced"):
        case_from_dict(raw)


def test_disconnected_area_rejected():
    raw = triangle_tie_dict()
    raw["buses"].append({"id": 5, "area_id": "A", "load_pu": 0.0})
    with pytest.raises(CaseError, match="not connected"):
        case_from_dict(raw)


def test_reference_bus_must_be_in_study_area():
    raw = triangle_tie_dict(reference_bus=4)
    with pytest.raises(CaseError, match="reference bus"):
        case_from_dict(raw)


def test_scheduled_overload_rejected():
    raw = triangle_tie_dict()
    raw["lines"][3]["flow_limit_pu"] = 1.0  # the tie carries 1.5
    with pytest.raises(CaseError, match="exceeds limit"):
        case_from_dict(raw)


def test_reserve_band_must_fit_inside_capacity():
    raw = triangle_tie_dict()
    raw["generators"][0]["res_up_pu"] = 1.5  # sched 1.0 + 1.5 > pmax 2.0
    with pytest.raises(CaseError, match="g1"):
        case_from_dict(raw)


def test_scale_load_identity(triangle_tie_case):
    scaled = scale_load(triangle_tie_case, 1.0)
    assert scaled.to_dict() == triangle_tie_case.to_dict()


def test_scale_load_rts_peak_to_offpeak(rts_case):
    assert rts_case.total_load() == pytest.approx(57.0, abs=1e-9)
    scaled = scale_load(rts_case, 0.7)
    assert scaled.total_load() == pytest.approx(39.90, abs=1e-9)
    assert abs(scaled.total_generation() - scaled.total_load()) <= 1e-6


def test_scale_load_keeps_balance(triangle_tie_case):
    scaled = scale_load(triangle_tie_case, 0.5)
    assert abs(scaled.total_generation() - scaled.total_load()) <= 1e-6


def test_scale_load_bound_violation_names_generator():
    raw = triangle_tie_dict()
    # Valid at base (0.5 - 0.25 >= 0.2) but not once scaled to 0.35.
    raw["generators"][1]["p_min_pu"] = 0.2
    case = case_from_dict(raw)
    with pytest.raises(CaseError, match="g2"):
        scale_load(case, 0.7)


def test_scale_load_rejects_nonpositive_factor(triangle_tie_case):
    with pytest.raises(CaseError, match="positive"):
        scale_load(triangle_tie_case, 0.0)


def test_partition_counts(rts_case, triangle_tie_case):
    assert partition(rts_case).n_e == 3
    assert partition(triangle_tie_case).n_e == 1


def test_partition_is_deterministic():
    a = partition(case_from_dict(triangle_tie_dict()))
    b = partition(case_from_dict(triangle_tie_dict()))
    assert a.labels == b.labels
    assert a.line_ids == b.line_ids
    assert a.source_buses == b.source_buses


def test_partition_rts_deterministic_across_loads(rts_case):
    again = load_case(data_path("rts96_2area.json"))
    assert partition(rts_case).labels == partition(again).labels
    assert partition(rts_case).line_ids == partition(again).line_ids


def test_intra_area_line_is_never_a_tie(triangle_tie_case):
    view = partition(triangle_tie_case)
    assert [t.line.id for t in view.ties] == ["3-4"]
    assert all(not ln.is_tie for ln in view.internal_lines)


def test_tie_identification_matches_enumeration(rts_case):
    areas = {b.id: b.area_id for b in rts_case.buses}
    expected = {ln.id for ln in rts_case.lines
                if areas[ln.from_bus] != areas[ln.to_bus]}
    assert {ln.id for ln in rts_case.tie_lines()} == expected
    assert expected == {"107-203", "113-215", "123-217"}


def test_sources_require_nonzero_reserve_band(rts_case):
    assert partition(rts_case).n_i == 0  # file bands are all zero
    full = configure_reserves(rts_case, ReserveConfig(mode="full"))
    assert partition(full).n_i == 10  # one source per generator bus


def test_configure_reserves_fraction_clips_to_capacity(rts_case):
    conf = configure_reserves(rts_case, ReserveConfig(mode="fraction",
                                                      fraction=0.25))
    for g in conf.generators:
        assert g.p_sched_pu + g.res_up_pu <= g.p_max_pu + 1e-12
        assert g.p_sched_pu - g.res_dn_pu >= g.p_min_pu - 1e-12
        assert g.res_up_pu <= 0.25 * g.p_sched_pu + 1e-12


def test_configure_reserves_unit_filter(toy_case):
    conf = configure_reserves(toy_case, ReserveConfig(mode="full",
                                                      units=("g1",)))
    bands = {g.id: g.res_up_pu + g.res_dn_pu for g in conf.generators}
    assert bands["g1"] > 0 and bands["g2"] == 0


def test_configure_reserves_unknown_unit(toy_case):
    with pytest.raises(CaseError, match="unknown generator"):
        configure_reserves(toy_case, ReserveConfig(mode="full", units=("nope",)))


def test_case_hash_changes_with_content(triangle_tie_case):
    scaled = scale_load(triangle_tie_case, 0.5)
    assert triangle_tie_case.case_hash() != scaled.case_hash()
    assert triangle_tie_case.case_hash() == \
        case_from_dict(triangle_tie_dict()).case_hash()


def test_bundled_rts96_case_matches_its_generator():
    """The shipped RTS-96 file is exactly what its build tool writes."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "build_rts96_case.py"
    spec = importlib.util.spec_from_file_location("build_rts96_case", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text = json.dumps(module.build_case(), indent=1, sort_keys=True) + "\n"
    assert text.encode() == Path(data_path("rts96_2area.json")).read_bytes()
