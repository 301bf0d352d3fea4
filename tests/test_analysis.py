import numpy as np
import pytest

from gridflex import (FlexibilitySpec, GridflexError, HPolytope,
                      InfeasibleSetError, ReserveConfig, area_2d,
                      build_atc_polytope, build_flexibility_set,
                      compare_utilization, compute_dc_flows,
                      compute_delta_limits, contains, export_polytope,
                      exported_flexibility, external_polytope, is_feasible,
                      nodal_deviation_report, partition, polytope_from_block,
                      prepare, project, scale_load, vertices_2d)
from gridflex import analysis, lp, polytope, sensitivity
from gridflex.analysis import ExternalPolytope, Study, _NeighborModel

from conftest import triangle_tie_dict
from fm_reference import fourier_motzkin, remove_redundant
from gridflex import case_from_dict


def _fe_from_poly(poly):
    return ExternalPolytope(poly=poly, provenance={"case_hash": "synthetic"})


def _bus_bounds(case, bus, mode, fe, fraction, security=False):
    """``(max_up, max_dn)`` of one neighbor bus at a reserve fraction."""
    study = Study.build(case, ReserveConfig(mode="fraction", fraction=fraction),
                        case.neighbor_area)
    return _NeighborModel(study, include_security=security).solve(
        mode, fe, (bus,))[0]


def test_active_set_is_the_expected_cube_slice(toy_case):
    """One source with a unit band, two ties with unit margins, balance."""
    flex = build_flexibility_set(toy_case, FlexibilitySpec("active", "n"))
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
    flex = build_flexibility_set(toy_case, FlexibilitySpec("passive", "n"))
    assert flex.labels == ("tie:1-2_1", "tie:1-2_2")
    ok, witness = is_feasible(flex)
    assert ok and abs(witness.sum()) <= 1e-8
    # Both extreme exchanges swap one tie against the other.
    fe = export_polytope(flex, prepare(toy_case,
                                       FlexibilitySpec("passive", "n"))[1])
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    from gridflex import bounding_box
    blo, bhi = bounding_box(fe.poly)
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
        build_flexibility_set(case, FlexibilitySpec("active", "n1"))
    assert any("line:1-2" in r for r in err.value.rows)


def test_export_checks_origin_and_boundedness(toy_case):
    spec = FlexibilitySpec("active", "n")
    flex = build_flexibility_set(toy_case, spec)
    _, view = prepare(toy_case, spec)
    fe = export_polytope(flex, view, spec)
    assert fe.provenance["case_hash"] == toy_case.case_hash()
    assert fe.provenance["spec"] == spec.describe()


def test_export_and_metric_share_one_boundedness_check(toy_case, monkeypatch):
    """The export runs no LP past the projection, which has already
    proved the set bounded; the metric runs the ``2 * dim`` support LPs
    of one vertex enumeration."""
    from gridflex import analysis, polytope

    calls = []
    solve, project = polytope.maximize, analysis.project

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    def projected(*args, **kwargs):
        result = project(*args, **kwargs)
        calls.clear()
        return result

    monkeypatch.setattr(polytope, "maximize", counted)
    monkeypatch.setattr(analysis, "project", projected)
    fe = external_polytope(toy_case, FlexibilitySpec("active", "n"))
    assert calls == []
    report = exported_flexibility(fe)
    assert report.total == pytest.approx(3.0, abs=1e-9)
    assert len(calls) == 2 * len(fe.labels)


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


def test_unknown_outage_ids_are_case_errors(toy_case):
    from gridflex import CaseError
    for spec in (FlexibilitySpec("active", "n1", gen_outages=("NOPE",)),
                 FlexibilitySpec("active", "n1", gen_outages=(),
                                 line_outages=("NOPE",))):
        with pytest.raises(CaseError, match="NOPE"):
            build_flexibility_set(toy_case, spec)


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
    imported["atc"] = exporter.atc_polytope()
    return imported


@pytest.mark.parametrize("fraction", [0.02, 0.1, 0.3])
def test_lazy_neighbor_rows_match_the_full_stack(rts_case, rts_imported,
                                                 fraction, monkeypatch):
    """Every lazily solved neighbor LP equals one solve on the model's full
    row stack plus the imported facets."""
    study = Study.build(rts_case, ReserveConfig(mode="fraction", fraction=fraction),
                        rts_case.neighbor_area)
    model = _NeighborModel(study, include_security=True)
    n_own, n_cols = model.a_ub.shape
    checked = []

    def lazy_then_full(c, a_ub, b_ub, working, a_eq, b_eq, bounds, columns,
                       solve):
        res = lp.maximize_lazy(c, a_ub, b_ub, working, a_eq, b_eq, bounds,
                               columns=columns, solve=solve)
        facets = imported.poly
        n_a = a_ub.shape[1] - n_cols
        full_a = np.vstack([
            np.hstack([model.a_ub, np.zeros((n_own, n_a))]),
            np.hstack([np.zeros((facets.nrows, n_cols - facets.A.shape[1])),
                       facets.A, np.zeros((facets.nrows, n_a))])])
        full_b = np.concatenate([model.b_ub, facets.b])
        full = lp.maximize(c, full_a[:, columns], full_b, a_eq, b_eq, bounds)
        assert res.optimal and full.optimal
        assert abs(res.value - full.value) <= 1e-9
        checked.append(working.sum())
        return res

    monkeypatch.setattr(analysis, "maximize_lazy", lazy_then_full)
    for mode, imported in rts_imported.items():
        model.solve(mode, imported, model.buses)
    assert len(checked) == 2 * 3 * len(model.buses)
    assert max(checked) < n_own


def _neighbor_lp_rows(case, monkeypatch, include_security):
    rows = []

    def counted(c, a_ub, b_ub, *args, **kwargs):
        rows.append(np.shape(a_ub)[0])
        return lp.maximize(c, a_ub, b_ub, *args, **kwargs)

    monkeypatch.setattr(analysis, "maximize", counted)
    nodal_deviation_report(case, reserve_fraction=0.1,
                           include_neighbor_security=include_security)
    return rows


def test_neighbor_security_lps_stay_small(rts_case, monkeypatch):
    rows = _neighbor_lp_rows(rts_case, monkeypatch, True)
    assert len(rows) >= 144
    assert max(rows) <= 1000


def test_neighbor_lps_without_security_use_every_row(rts_case, rts_imported,
                                                     monkeypatch):
    rows = _neighbor_lp_rows(rts_case, monkeypatch, False)
    n_int = len(partition(rts_case, rts_case.neighbor_area).internal_lines)
    expected = [2 * n_int + rts_imported[mode].poly.nrows
                for mode in ("passive", "active", "atc")
                for _ in range(24 * 2)]  # buses × directions
    assert rows == expected


@pytest.mark.parametrize("level", [1.0, 0.7])
def test_rts_projections_match_fm(rts_case, level):
    """Hull refinement and Fourier-Motzkin give the same RTS-96 sets."""
    case = rts_case if level == 1.0 else scale_load(rts_case, level)
    study = Study.build(case, ReserveConfig(mode="full"))
    keep = study.view.external_labels
    for approach in ("passive", "active"):
        for security in ("n", "n1"):
            spec = FlexibilitySpec(approach, security, ReserveConfig(mode="full"))
            flex = polytope_from_block(study.assemble(spec), study.view, approach)
            hr, fm = project(flex, keep), fourier_motzkin(flex, keep)
            assert contains(hr, fm, tol=1e-7).contained, spec.describe()
            assert contains(fm, hr, tol=1e-7).contained, spec.describe()
            totals = [exported_flexibility(_fe_from_poly(p)).total for p in (hr, fm)]
            assert totals[0] == pytest.approx(totals[1], abs=1e-9), spec.describe()


def test_rts_active_n1_export_lps_stay_small(rts_case, monkeypatch):
    """No LP of the RTS-96 active N-1 export sees the whole 5,686-row stack."""
    rows, solve = [], lp.maximize

    def counted(c, a_ub, b_ub, *args, **kwargs):
        rows.append(np.shape(a_ub)[0])
        return solve(c, a_ub, b_ub, *args, **kwargs)

    monkeypatch.setattr(lp, "maximize", counted)
    monkeypatch.setattr(polytope, "maximize", counted)
    spec = FlexibilitySpec("active", "n1", ReserveConfig(mode="full"))
    external_polytope(rts_case, spec)
    assert len(rows) >= 2 * 3
    assert max(rows) <= 200


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
