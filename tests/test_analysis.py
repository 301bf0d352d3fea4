from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from gridflex import (FlexibilitySpec, GridflexError, HPolytope,
                      InfeasibleSetError, ReserveConfig, area_2d,
                      build_atc_polytope, compare_utilization,
                      compute_dc_flows, compute_delta_limits, contains,
                      exported_flexibility, external_polytope, is_feasible,
                      nodal_deviation_report, prepare, project,
                      scale_load, vertices_2d)
from gridflex import analysis, lp, polytope, sensitivity
from gridflex.analysis import ExternalPolytope, Study, _NeighborModel

from conftest import triangle_tie_dict
from fm_reference import fourier_motzkin, remove_redundant
from gridflex import case_from_dict


def _fe_from_poly(poly):
    return ExternalPolytope(poly=poly, provenance={"case_hash": "synthetic"})


def _flex(case, spec):
    """Unprojected flexibility set of ``spec``, as a study exports it."""
    study = Study.build(case, spec.reserves)
    return study.flexibility_set(study.assemble(spec), spec)


def _bus_bounds(case, bus, mode, fe, fraction, security=False):
    """``(max_up, max_dn)`` of one neighbor bus at a reserve fraction."""
    study = Study.build(case, ReserveConfig(mode="fraction", fraction=fraction),
                        case.neighbor_area)
    return _NeighborModel(study, include_security=security).solve(
        mode, fe, (bus,))[0]


def test_active_set_is_the_expected_cube_slice(toy_case):
    """One source with a unit band, two ties with unit margins, balance."""
    flex = _flex(toy_case, FlexibilitySpec("active", "n"))
    assert flex.labels == ("bus:1", "tie:1-2_1", "tie:1-2_2")
    minimal = remove_redundant(flex)
    expected = HPolytope(
        np.vstack([np.eye(3), -np.eye(3),
                   np.ones((1, 3)), -np.ones((1, 3))]),
        np.concatenate([np.ones(6), [0.0, 0.0]]),
        flex.labels)
    assert contains(minimal, expected, tol=1e-9).contained
    assert contains(expected, minimal, tol=1e-9).contained


def test_toy_projection_is_hexagon(toy_case):
    fe = external_polytope(toy_case, FlexibilitySpec("active", "n"))
    verts = vertices_2d(fe.poly)
    assert len(verts) == 6
    assert area_2d(fe.poly) == pytest.approx(3.0, abs=1e-9)


def test_passive_set_lives_in_balance_hyperplane(toy_case):
    flex = _flex(toy_case, FlexibilitySpec("passive", "n"))
    assert flex.labels == ("tie:1-2_1", "tie:1-2_2")
    ok, witness = is_feasible(flex)
    assert ok and abs(witness.sum()) <= 1e-8
    # Both extreme exchanges swap one tie against the other.
    fe = external_polytope(toy_case, FlexibilitySpec("passive", "n"))
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    blo, bhi = fe.vertices.min(axis=0), fe.vertices.max(axis=0)
    assert np.allclose(blo, lo, atol=1e-9) and np.allclose(bhi, hi, atol=1e-9)


def test_origin_in_all_four_toy_sets(toy_case):
    # The toy has one generator per area, so generator outages cannot be
    # secured (nothing remains to pick up the slack); parallel-tie outages
    # still can.
    for approach in ("active", "passive"):
        for security in ("n", "n1"):
            spec = FlexibilitySpec(approach, security, gen_outages=())
            fe = external_polytope(toy_case, spec)
            assert np.all(fe.poly.b >= -1e-9), (approach, security)


def test_infeasible_schedule_reports_rows():
    raw = triangle_tie_dict()
    # Congest line 1-2 at the schedule so a generator outage overloads it.
    raw["lines"][0]["flow_limit_pu"] = 0.35
    case = case_from_dict(raw)
    with pytest.raises(InfeasibleSetError) as err:
        _flex(case, FlexibilitySpec("active", "n1"))
    assert any("line:1-2" in r for r in err.value.rows)


def test_export_checks_origin_and_boundedness(toy_case):
    spec = FlexibilitySpec("active", "n")
    fe = Study.build(toy_case, spec.reserves).export(spec)
    assert fe.provenance["case_hash"] == toy_case.case_hash()
    assert fe.provenance["spec"] == spec.describe()


def test_study_refuses_a_spec_for_other_reserves(toy_case):
    """A set exported by a study carries the study's reserves, so a spec
    naming other reserves is refused rather than mislabelled."""
    study = Study.build(toy_case, ReserveConfig(mode="full"))
    spec = FlexibilitySpec("active", "n", ReserveConfig(mode="file"))
    with pytest.raises(GridflexError, match="spec reserves file differ from "
                                            "the study's full"):
        study.export(spec)
    fe = study.export(replace(spec, reserves=ReserveConfig(mode="full")))
    assert fe.provenance["spec"] == "active/n/full"


def test_export_and_metric_run_no_lp_past_the_projection(toy_case, monkeypatch):
    """The projection has already proved the set bounded, so the export
    runs no LP past it; neither does the metric, whose vertex enumeration
    proves boundedness from the rows, nor the transfer-capacity comparison,
    whose containment reads the vertices."""
    calls = []
    solve, project = lp.maximize, analysis.project

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    def projected(*args, **kwargs):
        result = project(*args, **kwargs)
        calls.clear()
        return result

    monkeypatch.setattr(lp, "maximize", counted)
    monkeypatch.setattr(analysis, "project", projected)
    fe = external_polytope(toy_case, FlexibilitySpec("active", "n"))
    assert calls == []
    report = exported_flexibility(fe)
    assert report.total == pytest.approx(3.0, abs=1e-9)
    assert calls == []
    atc_fe = Study.build(toy_case, ReserveConfig()).atc_polytope()
    comparison = compare_utilization(fe, atc_fe)
    assert not comparison.active_within_atc and comparison.atc_within_active
    assert calls == []


def test_exported_flexibility_cube():
    cube = HPolytope(
        np.vstack([np.eye(3), -np.eye(3)]), np.ones(6),
        ("tie:a", "tie:b", "tie:c"))
    report = exported_flexibility(_fe_from_poly(cube))
    areas = {(x, y): a for x, y, a in report.pair_areas}
    assert all(a == pytest.approx(4.0, abs=1e-9) for a in areas.values())
    assert report.total == pytest.approx(12.0, abs=1e-9)


def test_exported_flexibility_hexagon_with_free_tie():
    a = np.vstack([
        np.eye(3), -np.eye(3),
        [[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]],
    ])
    b = np.concatenate([np.ones(6), [1.0, 1.0]])
    poly = HPolytope(a, b, ("tie:a", "tie:b", "tie:c"))
    report = exported_flexibility(_fe_from_poly(poly))
    areas = {frozenset((x, y)): v for x, y, v in report.pair_areas}
    assert areas[frozenset(("tie:a", "tie:b"))] == pytest.approx(3.0, abs=1e-9)
    assert areas[frozenset(("tie:a", "tie:c"))] == pytest.approx(4.0, abs=1e-9)
    assert areas[frozenset(("tie:b", "tie:c"))] == pytest.approx(4.0, abs=1e-9)
    assert report.total == pytest.approx(11.0, abs=1e-9)


def test_exported_flexibility_single_tie_is_interval_length(triangle_tie_case):
    fe = external_polytope(triangle_tie_case, FlexibilitySpec("active", "n"))
    report = exported_flexibility(fe)
    assert report.pair_areas == ()
    # Import bounded by the reserve band (1.0 down-shift of both units
    # exceeds the band): widest import = res_dn sum, export = res_up sum.
    assert report.total == pytest.approx(1.5, abs=1e-6)


def test_monotone_total_under_inclusion(toy_case):
    fe_active = external_polytope(toy_case, FlexibilitySpec("active", "n"))
    fe_passive = external_polytope(toy_case, FlexibilitySpec("passive", "n"))
    t_active = exported_flexibility(fe_active).total
    t_passive = exported_flexibility(fe_passive).total
    assert contains(fe_active.poly, fe_passive.poly, tol=1e-6).contained
    assert t_passive <= t_active + 1e-6


def test_atc_polytope_shape(toy_case):
    spec = FlexibilitySpec("active", "n")
    configured, view = prepare(toy_case, spec)
    flows = compute_dc_flows(configured)
    limits = compute_delta_limits(configured, view, flows)
    atc = build_atc_polytope(view, limits, 0.5, 0.5)
    assert atc.labels == ("tie:1-2_1", "tie:1-2_2")
    # slab cuts the corners of the unit box
    assert atc.poly.contains_points(np.array([0.25, 0.25]))[0]
    assert not atc.poly.contains_points(np.array([0.4, 0.4]))[0]

    # zero transfer capacity pins the sum to zero
    zero = build_atc_polytope(view, limits, 0.0, 0.0)
    ok, witness = is_feasible(zero.poly)
    assert ok and abs(witness.sum()) <= 1e-8

    # a slab wider than the box changes nothing
    wide = build_atc_polytope(view, limits, 10.0, 10.0)
    minimal = remove_redundant(wide.poly)
    assert minimal.nrows == 4


def test_atc_polytope_rejects_negative_values(toy_case):
    spec = FlexibilitySpec("active", "n")
    configured, view = prepare(toy_case, spec)
    flows = compute_dc_flows(configured)
    limits = compute_delta_limits(configured, view, flows)
    with pytest.raises(GridflexError):
        build_atc_polytope(view, limits, -0.1, 0.5)


def test_compare_utilization_identical_sets(toy_case):
    spec = FlexibilitySpec("active", "n")
    configured, view = prepare(toy_case, spec)
    flows = compute_dc_flows(configured)
    limits = compute_delta_limits(configured, view, flows)
    atc = build_atc_polytope(view, limits, 0.5, 0.5)
    cmp = compare_utilization(atc, atc)
    assert cmp.active_within_atc and cmp.atc_within_active
    assert cmp.witness_active_only is None and cmp.witness_atc_only is None


def test_compare_utilization_witnesses(toy_case):
    fe = external_polytope(toy_case, FlexibilitySpec("active", "n"))
    spec = FlexibilitySpec("active", "n")
    configured, view = prepare(toy_case, spec)
    flows = compute_dc_flows(configured)
    limits = compute_delta_limits(configured, view, flows)
    atc = build_atc_polytope(view, limits, 0.5, 0.5)
    cmp = compare_utilization(fe, atc)
    # The hexagon allows a net exchange of 1.0, past the 0.5 slab.
    assert not cmp.active_within_atc
    w = cmp.witness_active_only
    assert w is not None and abs(w.sum()) > 0.5
    assert cmp.atc_within_active
    assert cmp.total_active == pytest.approx(3.0, abs=1e-6)


def test_max_nodal_deviation_zero_everything():
    """No reserves anywhere and a point passive set pin the bus deviation."""
    raw = triangle_tie_dict()
    for g in raw["generators"]:
        g.update(res_up_pu=0.0, res_dn_pu=0.0)
    case = case_from_dict(raw)
    fe = external_polytope(case, FlexibilitySpec("passive", "n"))
    up, dn = _bus_bounds(case, 4, "passive", fe, 0.0)
    assert up == pytest.approx(0.0, abs=1e-8)
    assert dn == pytest.approx(0.0, abs=1e-8)


def test_max_nodal_deviation_hand_solved_minimum(toy_case):
    """Bound is the smaller of local reserves plus the tie-set allowance."""
    fe = external_polytope(toy_case, FlexibilitySpec("active", "n"))
    up, dn = _bus_bounds(toy_case, 2, "active", fe, 0.05)
    # 5% of the 1.0 pu setpoint locally, plus 1.0 pu net import through
    # the hexagon (its widest balanced exchange).
    assert up == pytest.approx(1.05, abs=1e-8)
    assert dn == pytest.approx(-1.05, abs=1e-8)


def test_max_nodal_deviation_validates_inputs(toy_case):
    fe = external_polytope(toy_case, FlexibilitySpec("active", "n"))
    from gridflex import CaseError
    with pytest.raises(CaseError):
        _bus_bounds(toy_case, 1, "active", fe, 0.1)


def test_nodal_report_modes_and_monotonicity(toy_case):
    rep5 = nodal_deviation_report(toy_case, reserve_fraction=0.05)
    rep25 = nodal_deviation_report(toy_case, reserve_fraction=0.25)
    for rep in (rep5, rep25):
        for bus, mode, up, dn in rep.rows:
            assert up >= -1e-9 >= -abs(dn) if dn <= 0 else dn <= 1e-9
    u5, d5 = rep5.bounds(2, "active")
    u25, d25 = rep25.bounds(2, "active")
    assert u25 >= u5 - 1e-9 and abs(d25) >= abs(d5) - 1e-9
    pu, pd = rep5.bounds(2, "passive")
    au, ad = rep5.bounds(2, "active")
    tu, td = rep5.bounds(2, "atc")
    assert au >= tu - 1e-9 >= pu - 2e-9
    assert abs(ad) >= abs(td) - 1e-9 >= abs(pd) - 2e-9


def test_passive_mode_respects_balance_hyperplane(toy_case):
    """With zero local reserves the passive bound collapses to zero."""
    fe = external_polytope(toy_case, FlexibilitySpec("passive", "n"))
    up, dn = _bus_bounds(toy_case, 2, "passive", fe, 0.0)
    assert abs(up) <= 1e-8 and abs(dn) <= 1e-8
    # With reserves, the bound equals them exactly: the passive set pins
    # the net tie import to zero, so no help crosses the border.
    up, dn = _bus_bounds(toy_case, 2, "passive", fe, 0.1)
    assert up == pytest.approx(0.1, abs=1e-8)
    assert dn == pytest.approx(-0.1, abs=1e-8)


def test_neighbor_security_only_tightens(rts_case):
    fe = external_polytope(rts_case, FlexibilitySpec(
        "active", "n", ReserveConfig(mode="full")))
    base_up, base_dn = _bus_bounds(rts_case, 203, "active", fe, 0.05)
    sec_up, sec_dn = _bus_bounds(rts_case, 203, "active", fe, 0.05,
                                 security=True)
    assert sec_up <= base_up + 1e-9
    assert abs(sec_dn) <= abs(base_dn) + 1e-9


# Neighbor-security bounds on RTS-96 at 10% neighbor reserves, recorded
# with the original per-bus neighbor model (exporter security ``n``).
NEIGHBOR_SECURITY_BOUNDS = {
    (203, "passive"): (2.0801634544268413, -2.634615384615387),
    (203, "active"): (3.4083475930260025, -5.416616296366816),
    (203, "atc"): (3.398312213277889, -3.8346153846153865),
    (206, "passive"): (1.4051261357600593, -0.7052802314410448),
    (206, "active"): (1.5079060373671818, -0.7294786436160057),
    (206, "atc"): (1.5050247852905467, -0.7269043955299376),
    (214, "passive"): (2.7584587953560633, -2.634615384615385),
    (214, "active"): (3.1958108903919213, -3.0132707678104875),
    (214, "atc"): (3.1941708977674725, -3.0132707678104875),
    (224, "passive"): (1.3673914451647493, -2.6346153846153837),
    (224, "active"): (2.1519050362566383, -5.092070911701704),
    (224, "atc"): (2.1519050362566388, -3.834615384615383),
}


def test_neighbor_security_report_pinned(rts_case):
    rep = nodal_deviation_report(rts_case, reserve_fraction=0.1,
                                 include_neighbor_security=True)
    assert len(rep.rows) == 24 * 3
    for (bus, mode), (up, dn) in NEIGHBOR_SECURITY_BOUNDS.items():
        got_up, got_dn = rep.bounds(bus, mode)
        assert got_up == pytest.approx(up, abs=1e-9), (bus, mode)
        assert got_dn == pytest.approx(dn, abs=1e-9), (bus, mode)


def test_report_rejects_unknown_mode_before_solving(toy_case):
    with pytest.raises(GridflexError, match="valid modes"):
        nodal_deviation_report(toy_case, reserve_fraction=0.05,
                               modes=("passive", "bogus"))


def test_report_rejects_a_repeated_mode_before_solving(toy_case, monkeypatch):
    from gridflex import CaseError, analysis
    monkeypatch.setattr(analysis.Study, "build", None)  # no study is built
    with pytest.raises(CaseError, match="'active' is given more than once"):
        nodal_deviation_report(toy_case, reserve_fraction=0.05,
                               modes=("active", "active"))


def test_unknown_outage_ids_are_case_errors(toy_case):
    from gridflex import CaseError
    for spec in (FlexibilitySpec("active", "n1", gen_outages=("NOPE",)),
                 FlexibilitySpec("active", "n1", gen_outages=(),
                                 line_outages=("NOPE",))):
        with pytest.raises(CaseError, match="NOPE"):
            _flex(toy_case, spec)


def test_report_csv_output(tmp_path, toy_case):
    rep = nodal_deviation_report(toy_case, reserve_fraction=0.05,
                                 modes=("passive", "active"))
    path = tmp_path / "dev.csv"
    rep.to_csv(str(path), meta={"config_hash": "x"})
    lines = path.read_text().strip().split("\n")
    assert any(l.startswith("# config_hash=") for l in lines)
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "bus,mode,max_up_pu,max_dn_pu"
    assert len(lines) == header_at + 1 + 2  # one bus, two modes


@pytest.fixture(scope="module")
def rts_imported(rts_case):
    """The exporter's communicated sets on RTS-96 (full reserves, ``n``)."""
    exporter = Study.build(rts_case, ReserveConfig(mode="full"))
    imported = {approach: exporter.export(FlexibilitySpec(
        approach, "n", ReserveConfig(mode="full")))
        for approach in ("passive", "active")}
    imported["atc"] = analysis._with_unit_range(exporter, exporter.atc_polytope())
    return imported


@pytest.mark.parametrize("fraction", [0.02, 0.1, 0.3])
def test_lazy_neighbor_rows_match_the_full_stack(rts_case, rts_imported,
                                                 fraction, monkeypatch):
    """Every lazily solved neighbor LP equals one solve on the model's full
    row stack plus the imported facets."""
    study = Study.build(rts_case, ReserveConfig(mode="fraction", fraction=fraction),
                        rts_case.neighbor_area)
    a_all, b_all, nominal = analysis._neighbor_stack(study, include_security=True)
    model = _NeighborModel(study, include_security=True)
    n_own, view, start = len(model.b_ub), study.view, model.working.copy()
    n_int, n_b, n_bus = len(view.internal_lines), view.n_i, len(model.buses)
    # The assembled block, before the merge: the line band, the reserve
    # bands and the balance pair, then the outage rows.
    n_nominal = 2 * (n_int + n_b + 1)
    assert nominal[:n_nominal].all() and not nominal[n_nominal:].any()
    band = np.hstack([np.zeros((n_b, n_bus)), np.eye(n_b),
                      np.zeros((n_b, view.n_e))])
    balance = np.concatenate([np.ones(n_bus + n_b), -np.ones(view.n_e)])
    np.testing.assert_array_equal(a_all[2 * n_int:n_nominal],
                                  np.vstack([band, -band, balance, -balance]))
    np.testing.assert_array_equal(
        b_all[2 * n_int:n_nominal],
        np.concatenate([study.limits.bus_up, -study.limits.bus_dn, [0.0, 0.0]]))
    checked, probed, warm = [], [], lp.LPSystem.maximize

    def warm_then_full(system, c, free):
        # One stack under every mode: [delta per bus, p_B, p_e], the model's
        # own rows and then the imported facets, with the kept nominal rows
        # working from the first solve.
        assert system.a_ub.shape[1] == n_bus + view.n_i + view.n_e
        np.testing.assert_array_equal(system.a_ub[:n_own], model.a_ub)
        assert system.working[:n_own][start].all()
        # One shape under every mode: [delta, p_B, p_e], the objective on
        # the one free delta column.
        free = list(free)
        assert len(free) == 1 + view.n_i + view.n_e
        assert free[1:] == list(range(n_bus, n_bus + view.n_i + view.n_e))
        assert free[0] < n_bus
        assert np.flatnonzero(c).tolist() == [free[0]]
        probed.append((free[0], c[free[0]]))
        res = warm(system, c, free)
        full = lp.maximize(np.asarray(c)[free], system.a_ub[:, free], system.b_ub)
        assert res.optimal and full.optimal
        assert abs(res.value - full.value) <= 1e-9
        checked.append(system.working.sum())
        return res

    monkeypatch.setattr(lp.LPSystem, "maximize", warm_then_full)
    for mode, imported in rts_imported.items():
        model.solve(mode, imported, model.buses)
    assert len(checked) == 2 * 3 * len(model.buses)
    assert max(checked) < n_own
    # In every mode, every bus in turn up, then every bus in turn down.
    assert probed == [(k, sign) for _ in range(3) for sign in (1.0, -1.0)
                      for k in range(n_bus)]


@pytest.mark.parametrize("security", [False, True], ids=["n", "neighbor-n1"])
def test_merged_neighbor_stack_is_the_assembled_one(rts_case, security):
    """The model keeps assembled rows, one per direction, and every dropped
    row is a positive multiple of a kept row that is no tighter."""
    study = Study.build(rts_case, ReserveConfig(mode="fraction", fraction=0.1),
                        rts_case.neighbor_area)
    a_all, b_all, _ = analysis._neighbor_stack(study, security)
    model = _NeighborModel(study, include_security=security)
    assembled = {np.append(row, off).tobytes() for row, off in zip(a_all, b_all)}
    for row, off in zip(model.a_ub, model.b_ub):
        assert np.append(row, off).tobytes() in assembled
    unit_kept, off_kept = polytope._unit_rows(model.a_ub, model.b_ub)
    keys = [polytope._direction_key(row).tobytes() for row in unit_kept]
    assert len(set(keys)) == len(keys)
    kept_at = {key: k for k, key in enumerate(keys)}
    unit_all, off_all = polytope._unit_rows(a_all, b_all)
    for row, off in zip(unit_all, off_all):
        k = kept_at[polytope._direction_key(row).tobytes()]
        np.testing.assert_allclose(row, unit_kept[k], atol=1e-9)
        assert off >= off_kept[k] - 1e-15
    # RTS-96's parallel line pairs share their band rows, and with security
    # each outage's rows fall to few directions.
    assert (len(b_all), len(model.b_ub)) == ((4890, 906) if security else (98, 90))


def test_merged_neighbor_bounds_match_the_assembled_rows(rts_case, rts_imported):
    """On a few buses in every mode, the bounds on the merged rows equal
    cold solves on every assembled row plus the imported facets."""
    study = Study.build(rts_case, ReserveConfig(mode="fraction", fraction=0.1),
                        rts_case.neighbor_area)
    a_all, b_all, _ = analysis._neighbor_stack(study, include_security=True)
    model = _NeighborModel(study, include_security=True)
    n_bus, n_col = len(model.buses), a_all.shape[1]
    cols = list(range(n_bus, n_col))
    buses = model.buses[::8]
    for mode, imported in rts_imported.items():
        facets = imported.poly
        a = np.vstack([a_all, np.hstack([np.zeros((facets.nrows, n_col - facets.dim)),
                                         facets.A])])
        b = np.concatenate([b_all, facets.b])
        for bus, bounds in zip(buses, model.solve(mode, imported, buses)):
            a_bus = a[:, [model.buses.index(bus)] + cols]
            for sign, bound in zip((1.0, -1.0), bounds):
                c = np.zeros(a_bus.shape[1])
                c[0] = sign
                res = lp.maximize(c, a_bus, b)
                assert res.optimal
                assert sign * res.value == pytest.approx(bound, abs=1e-9)


def test_a_zero_row_with_a_negative_offset_survives_the_merge(toy_case,
                                                               monkeypatch):
    """All zero rows share one direction, and the one that breaks at the
    origin stays, so the study is infeasible."""
    stack = analysis._neighbor_stack

    def with_zero_rows(study, include_security):
        a, b, nominal = stack(study, include_security)
        zero = np.zeros((3, a.shape[1]))
        return (np.vstack([a, zero]), np.append(b, [1.0, -1e-3, 2.0]),
                np.append(nominal, [False] * 3))

    monkeypatch.setattr(analysis, "_neighbor_stack", with_zero_rows)
    study = Study.build(toy_case, ReserveConfig(mode="fraction", fraction=0.05),
                        toy_case.neighbor_area)
    model = _NeighborModel(study)
    zero = ~model.a_ub.any(axis=1)
    assert model.b_ub[zero].tolist() == [-1e-3]
    fe = external_polytope(toy_case, FlexibilitySpec("active", "n"))
    with pytest.raises(InfeasibleSetError, match="deviation study infeasible"):
        model.solve("active", fe, model.buses)


@pytest.mark.parametrize("security", [False, True], ids=["n", "neighbor-n1"])
def test_atc_unit_rows_match_one_column_per_exporter_unit(rts_case, security):
    """The two tie-sum rows of the exporter's units give the ATC bounds of
    the formulation that keeps one column per exporter unit, bounded by
    ``[p_min - p_sched, p_max - p_sched]``, coupled by
    ``sum(p_e) + sum(p_A) = 0``, and solved by ``linprog`` on the model's
    line and outage rows with the reserve bands as column bounds and the
    neighbor's balance as an equality, so the report's row encoding of
    both is checked too."""
    rep = nodal_deviation_report(rts_case, reserve_fraction=0.1, modes=("atc",),
                                 include_neighbor_security=security)
    atc = Study.build(rts_case, ReserveConfig(mode="full")).atc_polytope()
    study = Study.build(rts_case, ReserveConfig(mode="fraction", fraction=0.1),
                        rts_case.neighbor_area)
    model = _NeighborModel(study, include_security=security)
    buses = (203, 206, 214, 224)
    got = [rep.bounds(bus, "atc") for bus in buses]

    units = sorted(rts_case.area_generators(rts_case.study_area),
                   key=lambda g: (g.bus, g.id))
    limits, n_e = study.limits, study.view.n_e
    n_bus, n_b, n_a = len(model.buses), study.view.n_i, len(units)
    # Drop the reserve bands (one p_B coefficient) and the balance pair.
    a_ub = model.a_ub
    band = (np.count_nonzero(a_ub, axis=1) == 1) & a_ub[:, n_bus:n_bus + n_b].any(axis=1)
    row = np.concatenate([np.ones(n_bus + n_b), -np.ones(n_e)])
    balance = (a_ub == row).all(axis=1) | (a_ub == -row).all(axis=1)
    assert (band.sum(), balance.sum()) == (2 * n_b, 2)
    lines = ~(band | balance)
    a_own, b_own = model.a_ub[lines], model.b_ub[lines]
    n_var = 1 + n_b + n_e + n_a
    a_eq = np.zeros((2, n_var))
    a_eq[0, :1 + n_b], a_eq[0, 1 + n_b:1 + n_b + n_e] = 1.0, -1.0
    a_eq[1, 1 + n_b:] = 1.0
    bounds = ([(None, None)] + list(zip(limits.bus_dn, limits.bus_up))
              + [(None, None)] * n_e
              + [(g.p_min_pu - g.p_sched_pu, g.p_max_pu - g.p_sched_pu)
                 for g in units])
    b = np.concatenate([b_own, atc.poly.b])
    for bus, (up, dn) in zip(buses, got):
        a = np.vstack([
            np.hstack([a_own[:, [model.buses.index(bus)]],
                       a_own[:, n_bus:], np.zeros((len(b_own), n_a))]),
            np.hstack([np.zeros((atc.poly.nrows, 1 + n_b)), atc.poly.A,
                       np.zeros((atc.poly.nrows, n_a))])])
        for sign, value in ((1.0, up), (-1.0, dn)):
            c = np.zeros(n_var)
            c[0] = sign
            ref = linprog(-c, A_ub=a, b_ub=b, A_eq=a_eq, b_eq=np.zeros(2),
                          bounds=bounds, method="highs")
            assert ref.status == 0
            assert value == pytest.approx(-sign * ref.fun, abs=1e-9), (bus, sign)


def _neighbor_lp_rows(case, monkeypatch, include_security):
    """Per neighbor solve, the working rows of its LP system before and
    after the solve and the system's row count; and the model's own row
    count.  Only the solves inside ``_NeighborModel.solve`` count: the
    exports' projections solve on systems of their own."""
    rows, solve, inside = [], lp.LPSystem.maximize, []

    def counted(system, c, free):
        before = system.working.sum()
        res = solve(system, c, free)
        if inside:
            rows.append((before, system.working.sum(), system.b_ub.size))
        return res

    monkeypatch.setattr(lp.LPSystem, "maximize", counted)
    model_init, model_solve, n_own = (_NeighborModel.__init__,
                                      _NeighborModel.solve, [])

    def init(model, *args, **kwargs):
        model_init(model, *args, **kwargs)
        n_own.append(len(model.b_ub))

    def neighbor_solve(model, *args, **kwargs):
        inside.append(model)
        try:
            return model_solve(model, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(_NeighborModel, "__init__", init)
    monkeypatch.setattr(_NeighborModel, "solve", neighbor_solve)
    nodal_deviation_report(case, reserve_fraction=0.1,
                           include_neighbor_security=include_security)
    return rows, n_own


def test_neighbor_security_lps_stay_small(rts_case, monkeypatch):
    rows, (n_own,) = _neighbor_lp_rows(rts_case, monkeypatch, True)
    assert len(rows) == 2 * 3 * 24  # directions × modes × buses
    assert max(after for _, after, _ in rows) <= 1000
    assert max(after for _, after, _ in rows) < n_own


def test_neighbor_lps_without_security_use_every_row(rts_case, rts_imported,
                                                     monkeypatch):
    rows, _ = _neighbor_lp_rows(rts_case, monkeypatch, False)
    study = Study.build(rts_case, ReserveConfig(mode="fraction", fraction=0.1),
                        rts_case.neighbor_area)
    # The nominal block, one row per direction: RTS-96's parallel line
    # pairs share their band rows.
    a, b, _ = analysis._neighbor_stack(study, include_security=False)
    n_own = len({polytope._direction_key(row).tobytes()
                 for row in polytope._unit_rows(a, b)[0]})
    assert n_own < len(b)
    expected = [n_own + rts_imported[mode].poly.nrows
                for mode in ("passive", "active", "atc")
                for _ in range(24 * 2)]  # buses × directions
    assert rows == [(n, n, n) for n in expected]


@pytest.mark.parametrize("level", [1.0, 0.7])
def test_rts_projections_match_fm(rts_case, level):
    """Hull refinement and Fourier-Motzkin give the same RTS-96 sets."""
    case = rts_case if level == 1.0 else scale_load(rts_case, level)
    study = Study.build(case, ReserveConfig(mode="full"))
    keep = study.view.external_labels
    for approach in ("passive", "active"):
        for security in ("n", "n1"):
            spec = FlexibilitySpec(approach, security, ReserveConfig(mode="full"))
            flex = study.flexibility_set(study.assemble(spec), spec)
            hr, fm = project(flex, keep), fourier_motzkin(flex, keep)
            assert contains(hr, fm, tol=1e-7).contained, spec.describe()
            assert contains(fm, hr, tol=1e-7).contained, spec.describe()
            totals = [exported_flexibility(_fe_from_poly(p)).total for p in (hr, fm)]
            assert totals[0] == pytest.approx(totals[1], abs=1e-9), spec.describe()


def test_rts_active_n1_export_lps_stay_small(rts_case, monkeypatch):
    """No LP of the RTS-96 active N-1 export sees the whole 5,686-row stack:
    neither a support LP on the projection's system, whose working rows
    stay few after every solve, nor a cold one (the full-stack solve after
    an unbounded working set)."""
    working, cold, warm, solve = [], [], lp.LPSystem.maximize, lp.maximize

    def warm_counted(system, c, free):
        res = warm(system, c, free)
        working.append(int(system.working.sum()))
        return res

    def cold_counted(c, a_ub, b_ub, *args, **kwargs):
        cold.append(np.shape(a_ub)[0])
        return solve(c, a_ub, b_ub, *args, **kwargs)

    monkeypatch.setattr(lp.LPSystem, "maximize", warm_counted)
    monkeypatch.setattr(lp, "maximize", cold_counted)
    spec = FlexibilitySpec("active", "n1", ReserveConfig(mode="full"))
    external_polytope(rts_case, spec)
    assert len(working) >= 2 * 3
    assert max(working) <= 200
    assert max(cold, default=0) <= 200


def test_study_solves_one_full_network_shift(rts_case, monkeypatch):
    """One RTS-96 study plus an N-1 assembly: one full-network and one
    area shift matrix."""
    contexts, nodal_ptdf = [], sensitivity._nodal_ptdf

    def counted(bus_ids, lines, reference, context="network"):
        contexts.append(context)
        return nodal_ptdf(bus_ids, lines, reference, context)

    monkeypatch.setattr(sensitivity, "_nodal_ptdf", counted)
    study = Study.build(rts_case, ReserveConfig(mode="full"))
    study.assemble(FlexibilitySpec("active", "n1", ReserveConfig(mode="full")))
    assert sorted(contexts) == sorted(["full network", f"area {study.view.area}"])
