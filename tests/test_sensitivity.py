import numpy as np
import pytest

from gridflex import (GridflexError, ReserveConfig, case_from_dict,
                      configure_reserves, compute_dc_flows, compute_ggdf,
                      compute_lodf, compute_ptdf, partition)
from gridflex.errors import CaseError
from gridflex.network import BALANCE_TOL, validate_case
from gridflex.sensitivity import _nodal_ptdf

from conftest import triangle_tie_dict
from fm_reference import verify_nodal_balance


def test_triangle_ptdf_matches_hand_solution(triangle_tie_case):
    """Unit injection at bus 2 with withdrawal at bus 1 splits 2/3 : 1/3."""
    view = partition(triangle_tie_case)
    ptdf = compute_ptdf(view)
    col = ptdf.h_i[:, list(ptdf.source_buses).index(2)]
    # Internal rows are 1-2, 1-3, 2-3.
    assert np.allclose(col[:3], [-2.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0], atol=1e-10)


def test_reference_bus_column_is_zero(triangle_tie_case):
    view = partition(triangle_tie_case)
    ptdf = compute_ptdf(view)
    assert np.allclose(ptdf.nodal[:, ptdf.bus_index[view.reference_bus]], 0.0,
                       atol=1e-14)


def test_ptdf_entries_bounded(rts_case):
    view = partition(configure_reserves(rts_case, ReserveConfig(mode="full")))
    ptdf = compute_ptdf(view)
    assert np.all(np.abs(ptdf.matrix) <= 1.0 + 1e-9)


def test_ptdf_tie_rows_are_unit_rows(triangle_tie_case, rts_case):
    """``nodal`` has one row per line and a zero row per tie; ``h_i`` and
    ``h_e`` are its columns of the sources and the boundary buses, ``h_e``
    plus the identity on the tie rows."""
    full = ReserveConfig(mode="full")
    for case in (triangle_tie_case, configure_reserves(rts_case, full)):
        view = partition(case)
        ptdf = compute_ptdf(view)
        n_int, index = len(view.internal_lines), ptdf.bus_index
        assert ptdf.nodal.shape == (len(view.line_ids), len(view.buses))
        assert not np.any(ptdf.nodal[n_int:])
        assert np.allclose(ptdf.h_i[n_int:], 0.0)
        assert np.allclose(ptdf.h_e[n_int:], np.eye(view.n_e))
        sources = [index[b] for b in view.source_buses]
        boundary = [index[t.boundary_bus] for t in view.ties]
        assert np.array_equal(ptdf.h_i[:n_int], ptdf.nodal[:n_int, sources])
        assert np.array_equal(ptdf.h_e[:n_int], ptdf.nodal[:n_int, boundary])


def test_ptdf_linearity(rts_case):
    view = partition(configure_reserves(rts_case, ReserveConfig(mode="full")))
    ptdf = compute_ptdf(view)
    rng = np.random.default_rng(7)
    x = rng.normal(size=ptdf.matrix.shape[1])
    y = rng.normal(size=ptdf.matrix.shape[1])
    m = ptdf.matrix
    assert np.allclose(m @ (2.5 * x), 2.5 * (m @ x), atol=1e-12)
    assert np.allclose(m @ (x + y), m @ x + m @ y, atol=1e-12)


def test_kirchhoff_voltage_law_around_cycles(rts_case):
    """Reactance-weighted flow sums vanish around every fundamental cycle."""
    view = partition(rts_case)
    ptdf = compute_ptdf(view)
    lines = view.internal_lines
    # Spanning tree via BFS, then one cycle per chord.
    adj = {}
    for k, ln in enumerate(lines):
        adj.setdefault(ln.from_bus, []).append((ln.to_bus, k, 1.0))
        adj.setdefault(ln.to_bus, []).append((ln.from_bus, k, -1.0))
    root = view.buses[0].id
    parent = {root: None}
    order = [root]
    for node in order:
        for nb, k, sgn in adj[node]:
            if nb not in parent:
                parent[nb] = (node, k, sgn)
                order.append(nb)
    tree_edges = {parent[n][1] for n in parent if parent[n] is not None}

    def path_to_root(bus):
        hops = []
        while parent[bus] is not None:
            prev, k, sgn = parent[bus]
            hops.append((k, sgn))
            bus = prev
        return hops

    for col in range(ptdf.matrix.shape[1]):
        flows = ptdf.matrix[:len(lines), col]
        for k, ln in enumerate(lines):
            if k in tree_edges:
                continue
            # Angle drops: chord from->to, then tree paths to->root->from.
            total = lines[k].reactance_pu * flows[k]
            for kk, sgn in path_to_root(ln.to_bus):
                total -= sgn * lines[kk].reactance_pu * flows[kk]
            for kk, sgn in path_to_root(ln.from_bus):
                total += sgn * lines[kk].reactance_pu * flows[kk]
            assert abs(total) < 1e-9


def test_disconnected_area_is_reported():
    raw = triangle_tie_dict()
    raw["buses"].append({"id": 5, "area_id": "A", "load_pu": 0.0})
    from gridflex.errors import CaseError, SingularNetworkError
    with pytest.raises((CaseError, SingularNetworkError)):
        case_from_dict(raw)


def test_dc_flows_zero_injections():
    raw = triangle_tie_dict()
    for b in raw["buses"]:
        b["load_pu"] = 0.0
    for g in raw["generators"]:
        g.update(p_sched_pu=0.0, res_up_pu=0.0, res_dn_pu=0.0)
    flows = compute_dc_flows(case_from_dict(raw))
    assert np.allclose(flows.p_line_pu, 0.0, atol=1e-12)


def test_dc_flows_single_path(toy_case):
    """1 pu from bus 1 to bus 2 splits evenly over the two equal ties."""
    raw_flows = compute_dc_flows(toy_case)
    assert np.allclose(raw_flows.p_line_pu, [0.0, 0.0], atol=1e-12)
    # Shift the load to make the path carry power.
    import dataclasses
    case = dataclasses.replace(
        toy_case,
        buses=(dataclasses.replace(toy_case.buses[0], load_pu=0.0),
               dataclasses.replace(toy_case.buses[1], load_pu=2.0)))
    flows = compute_dc_flows(case)
    assert np.allclose(flows.p_line_pu, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("factor", [1.1, 0.9])
def test_flows_and_validation_share_one_balance_tolerance(toy_case, factor):
    """A case unbalanced by just over ``BALANCE_TOL`` is rejected by both
    the case check and the flow solve; just under it, by neither."""
    import dataclasses
    bus = toy_case.buses[0]
    case = dataclasses.replace(toy_case, buses=(
        dataclasses.replace(bus, load_pu=bus.load_pu + factor * BALANCE_TOL),
        *toy_case.buses[1:]))
    if factor > 1:
        for check in (validate_case, compute_dc_flows):
            with pytest.raises(CaseError, match=r"unbalanced .*tolerance 1e-06"):
                check(case)
    else:
        validate_case(case)
        compute_dc_flows(case)


def test_dc_flows_nodal_balance(rts_case):
    flows = compute_dc_flows(rts_case)
    assert verify_nodal_balance(rts_case, flows) <= 1e-8


def test_rts_flows_within_limits(rts_case):
    flows = compute_dc_flows(rts_case)
    limits = {ln.id: ln.flow_limit_pu for ln in rts_case.lines}
    for lid, f in zip(flows.line_ids, flows.p_line_pu):
        assert abs(f) <= limits[lid] + 1e-9


def test_ggdf_two_generator_substitution(triangle_tie_case):
    """With the survivor at the reference bus, the column is minus the outaged one."""
    view = partition(triangle_tie_case)
    ptdf = compute_ptdf(view)
    ggdf = compute_ggdf(view, ptdf)
    col = ggdf.column("g2")
    assert np.allclose(col, -ptdf.nodal[:, ptdf.bus_index[2]], atol=1e-12)


def test_ggdf_weights_sum_to_one(rts_case):
    view = partition(configure_reserves(rts_case, ReserveConfig(mode="full")))
    ggdf = compute_ggdf(view, compute_ptdf(view))
    for share in ggdf.weights:
        assert abs(sum(share.values()) - 1.0) < 1e-12


def test_ggdf_equal_capacity_weights():
    raw = triangle_tie_dict()
    raw["generators"] = [
        {"id": f"g{i}", "bus": i, "p_sched_pu": 0.5, "p_min_pu": 0.0,
         "p_max_pu": 1.0, "res_up_pu": 0.1, "res_dn_pu": 0.1}
        for i in (1, 2, 3)
    ]
    case = case_from_dict(raw)
    view = partition(case)
    ggdf = compute_ggdf(view, compute_ptdf(view))
    for share in ggdf.weights:
        assert all(abs(w - 0.5) < 1e-12 for w in share.values())


def test_ggdf_matches_injection_change_oracle(rts_case):
    """Column equals the shift matrix applied to the redistribution vector."""
    view = partition(configure_reserves(rts_case, ReserveConfig(mode="full")))
    ptdf = compute_ptdf(view)
    ggdf = compute_ggdf(view, ptdf)
    for j, uid in enumerate(ggdf.unit_ids[:6]):
        share = ggdf.weights[j]
        units = {g.id: g for g in view.units}
        change = -ptdf.nodal[:, ptdf.bus_index[units[uid].bus]]
        for mid, w in share.items():
            change = change + w * ptdf.nodal[:, ptdf.bus_index[units[mid].bus]]
        assert np.allclose(ggdf.matrix[:, j], change, atol=1e-10)


@pytest.mark.parametrize("mode", ["file", "full"])
@pytest.mark.parametrize("neighbor", [False, True], ids=["study", "neighbor"])
def test_ggdf_keeps_the_bits_of_the_unit_by_unit_sum(rts_case, mode, neighbor):
    """Every factor and share equals, to the bit, the loop that adds the
    surviving units' shares one after another in area order."""
    case = configure_reserves(rts_case, ReserveConfig(mode=mode))
    view = partition(case, case.neighbor_area if neighbor else None)
    ptdf = compute_ptdf(view)
    ggdf = compute_ggdf(view, ptdf, units=view.units)
    nodal, index = ptdf.nodal, ptdf.bus_index
    for j, unit in enumerate(view.units):
        rest = [m for m in view.units if m.id != unit.id]
        total = sum(m.capacity_pu for m in rest)
        share = {m.id: m.capacity_pu / total for m in rest}
        col = -nodal[:, index[unit.bus]]
        for m in rest:
            col = col + share[m.id] * nodal[:, index[m.bus]]
        assert ggdf.matrix[:, j].tobytes() == col.tobytes(), unit.id
        assert ggdf.weights[j] == share


def test_ggdf_requires_two_generators():
    raw = triangle_tie_dict()
    raw["generators"] = [
        {"id": "g1", "bus": 1, "p_sched_pu": 1.5, "p_min_pu": 0.0,
         "p_max_pu": 2.0, "res_up_pu": 0.5, "res_dn_pu": 0.5}]
    case = case_from_dict(raw)
    view = partition(case)
    with pytest.raises(GridflexError, match="two generators"):
        compute_ggdf(view, compute_ptdf(view))


def test_ggdf_no_remaining_capacity():
    raw = triangle_tie_dict()
    raw["generators"] = [
        {"id": "g1", "bus": 1, "p_sched_pu": 1.5, "p_min_pu": 0.0,
         "p_max_pu": 2.0, "res_up_pu": 0.5, "res_dn_pu": 0.5},
        {"id": "g0", "bus": 2, "p_sched_pu": 0.0, "p_min_pu": 0.0,
         "p_max_pu": 0.0, "res_up_pu": 0.0, "res_dn_pu": 0.0}]
    case = case_from_dict(raw)
    view = partition(case)
    ptdf = compute_ptdf(view)
    units = tuple(g for g in view.units if g.id == "g1")
    with pytest.raises(GridflexError, match="remaining capacity"):
        compute_ggdf(view, ptdf, units=units)


def test_lodf_triangle_outage(triangle_tie_case):
    """Losing one triangle edge reroutes its flow over the other two."""
    view = partition(triangle_tie_case)
    lodf = compute_lodf(view)
    mask, col = lodf.column("1-3")
    rows = dict(zip(view.line_ids, col))
    assert rows["1-2"] == pytest.approx(1.0, abs=1e-10)
    assert rows["2-3"] == pytest.approx(1.0, abs=1e-10)
    assert not mask[view.line_ids.index("1-3")]


def test_lodf_flags_radial_spur():
    raw = triangle_tie_dict()
    raw["buses"].append({"id": 5, "area_id": "A", "load_pu": 0.0})
    raw["lines"].append({"id": "3-5", "from_bus": 3, "to_bus": 5,
                         "reactance_pu": 0.1, "flow_limit_pu": 10.0})
    case = case_from_dict(raw)
    lodf = compute_lodf(partition(case))
    assert "3-5" in lodf.bridges
    assert "3-5" not in lodf.outage_ids
    # The single tie is a bridge of the full network as well.
    assert "3-4" in lodf.bridges


def test_lodf_rebuild_oracle(rts_case):
    """Factor predictions match flows re-solved on the reduced network."""
    case = rts_case
    lines = tuple(sorted(case.lines, key=lambda l: (l.from_bus, l.to_bus, l.id)))
    bus_ids = [b.id for b in case.buses]
    injection = np.zeros(len(bus_ids))
    index = {b: i for i, b in enumerate(bus_ids)}
    for b in case.buses:
        injection[index[b.id]] -= b.load_pu
    for g in case.generators:
        injection[index[g.bus]] += g.p_sched_pu
    base_nodal, _ = _nodal_ptdf(bus_ids, lines, case.reference_bus)
    base = base_nodal @ injection

    view = partition(case)
    orient = np.ones(len(view.line_ids))
    for j, tie in enumerate(view.ties):
        orient[len(view.internal_lines) + j] = tie.import_sign
    row_pos = {lid: k for k, lid in enumerate(tuple(ln.id for ln in lines))}
    lodf = compute_lodf(view, outages=tuple(ln.id for ln in lines))

    for oid in lodf.outage_ids[:12]:
        mask, col = lodf.column(oid)
        h = row_pos[oid]
        survivors = tuple(ln for ln in lines if ln.id != oid)
        nodal, _ = _nodal_ptdf(bus_ids, survivors, case.reference_bus)
        resolved = nodal @ injection
        resolved_of = dict(zip((ln.id for ln in survivors), resolved))
        predicted = orient * base[[row_pos[l] for l in view.line_ids]] \
            + col * base[h]
        for k, lid in enumerate(view.line_ids):
            if lid == oid:
                continue
            assert predicted[k] == pytest.approx(
                orient[k] * resolved_of[lid], abs=1e-8)

