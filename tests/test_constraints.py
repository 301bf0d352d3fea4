import numpy as np
import pytest

from gridflex import (CaseError, ConstraintBlock, FlexibilitySpec, GridflexError,
                      InfeasibleSetError, ReserveConfig, assemble_generator_outages,
                      assemble_line_outages, assemble_nominal, case_from_dict,
                      compute_dc_flows, compute_delta_limits, compute_ggdf,
                      compute_lodf, compute_ptdf, partition, scale_load,
                      stack_n1)
from gridflex.analysis import Study
from gridflex.network import AreaView, TieAttachment, TransmissionLine
from gridflex.polytope import _direction_key, _unit_rows, normalize_rows
from gridflex.sensitivity import PtdfMatrix, ScheduledFlows

import band_reference as ref
from conftest import triangle_tie_dict


@pytest.fixture
def triangle_parts(triangle_tie_case):
    case = triangle_tie_case
    view = partition(case)
    flows = compute_dc_flows(case)
    limits = compute_delta_limits(case, view, flows)
    ptdf = compute_ptdf(view)
    return case, view, flows, limits, ptdf


def test_delta_limits_basic_arithmetic(triangle_parts):
    case, view, flows, limits, _ = triangle_parts
    # Tie 3-4 carries 1.5 pu toward B; import margin is -(limit) - (-1.5).
    k = view.line_ids.index("3-4")
    assert limits.line_up[k] == pytest.approx(10.0 + 1.5)
    assert limits.line_dn[k] == pytest.approx(-10.0 + 1.5)
    assert np.all(limits.line_up >= 0.0)
    assert np.all(limits.line_dn <= 0.0)


def test_delta_limits_schedule_margin_example():
    """Limit 2.0 with 0.5 scheduled leaves (-2.5, +1.5)."""
    raw = triangle_tie_dict()
    raw["lines"][0]["flow_limit_pu"] = 2.0  # line 1-2
    case = case_from_dict(raw)
    view = partition(case)
    flows = compute_dc_flows(case)
    limits = compute_delta_limits(case, view, flows)
    k = view.line_ids.index("1-2")
    sched = flows.flow("1-2")
    assert limits.line_up[k] == pytest.approx(2.0 - sched)
    assert limits.line_dn[k] == pytest.approx(-2.0 - sched)


def test_delta_limits_unloaded_line_symmetric():
    raw = triangle_tie_dict()
    for b in raw["buses"]:
        b["load_pu"] = 0.0
    for g in raw["generators"]:
        g.update(p_sched_pu=0.0, res_dn_pu=0.0)
    raw["lines"][0]["flow_limit_pu"] = 1.0
    case = case_from_dict(raw)
    view = partition(case)
    limits = compute_delta_limits(case, view, compute_dc_flows(case))
    k = view.line_ids.index("1-2")
    assert limits.line_up[k] == pytest.approx(1.0)
    assert limits.line_dn[k] == pytest.approx(-1.0)


def test_delta_limits_frozen_source():
    raw = triangle_tie_dict()
    raw["generators"][1].update(res_up_pu=0.0, res_dn_pu=0.0)
    case = case_from_dict(raw)
    view = partition(case)
    limits = compute_delta_limits(case, view, compute_dc_flows(case))
    assert view.source_buses == (1,)  # bus 2 has no band left
    assert limits.bus_up[0] == pytest.approx(0.5)
    assert limits.bus_dn[0] == pytest.approx(-0.25)


def test_delta_limits_rejects_overloaded_schedule(triangle_parts):
    case, view, flows, _, _ = triangle_parts
    bad = ScheduledFlows(
        line_ids=flows.line_ids,
        p_line_pu=np.where(np.array(flows.line_ids) == "1-2", 99.0,
                           flows.p_line_pu))
    with pytest.raises(CaseError, match="1-2"):
        compute_delta_limits(case, view, bad)


def _toy_view_and_ptdf():
    """Synthetic one-line view: one internal source, one tie, H row (0.5, 0.5)."""
    line = TransmissionLine("L", 1, 2, 0.1, 1.0)
    tie = TransmissionLine("T", 2, 9, 0.1, 1.0, is_tie=True)
    view = AreaView(
        case=None, area="A", neighbor="B",
        buses=(), internal_lines=(line,),
        ties=(TieAttachment(tie, boundary_bus=2, import_sign=-1.0),),
        source_buses=(1,), reference_bus=1)
    ptdf = PtdfMatrix(
        source_buses=(1,),
        h_i=np.array([[0.5], [0.0]]), h_e=np.array([[0.5], [1.0]]),
        nodal=np.array([[0.5, 0.5], [0.0, 0.0]]), bus_index={1: 0, 2: 1})
    return view, ptdf


def test_nominal_rows_match_hand_substitution():
    from gridflex.constraints import DeltaLimits

    view, ptdf = _toy_view_and_ptdf()
    limits = DeltaLimits(
        line_up=np.array([0.8, 1.0]), line_dn=np.array([-1.2, -1.0]),
        bus_up=np.array([0.4]), bus_dn=np.array([-0.3]))
    block = assemble_nominal(view, ptdf, limits)
    rows = dict(zip(block.labels, block.a))
    offs = dict(zip(block.labels, block.b))
    assert np.allclose(rows["N:line:L:up"], [0.5, 0.5])
    assert offs["N:line:L:up"] == pytest.approx(0.8)
    assert np.allclose(rows["N:line:L:dn"], [-0.5, -0.5])
    assert offs["N:line:L:dn"] == pytest.approx(1.2)
    assert np.allclose(rows["N:balance:up"], [1.0, 1.0])
    assert np.allclose(rows["N:balance:dn"], [-1.0, -1.0])
    assert offs["N:balance:up"] == 0.0 and offs["N:balance:dn"] == 0.0


def test_nominal_rows_over_a_widened_h_i():
    """Extra internal columns, like the neighbor study's bus columns, keep
    the labels and offsets; the source and tie bands stay the plain ones
    with zeros on the extra columns."""
    from dataclasses import replace

    from gridflex.constraints import DeltaLimits

    view, ptdf = _toy_view_and_ptdf()
    limits = DeltaLimits(
        line_up=np.array([0.8, 1.0]), line_dn=np.array([-1.2, -1.0]),
        bus_up=np.array([0.4]), bus_dn=np.array([-0.3]))
    wide = replace(ptdf, h_i=np.hstack([ptdf.h_i, [[0.3, -0.2], [0.0, 0.0]]]))
    plain = assemble_nominal(view, ptdf, limits)
    block = assemble_nominal(view, wide, limits)
    assert block.labels == plain.labels
    assert np.array_equal(block.b, plain.b)
    assert (block.n_i, block.n_e) == (3, 1)
    bands = [k for k, l in enumerate(block.labels)
             if l.startswith(("N:bus:", "N:ext:"))]
    assert len(bands) == 4
    for k in bands:
        assert np.array_equal(block.a[k, 1:3], [0.0, 0.0])
        assert np.array_equal(np.delete(block.a[k], [1, 2]), plain.a[k])


def test_nominal_origin_feasible(triangle_parts):
    _, view, _, limits, ptdf = triangle_parts
    block = assemble_nominal(view, ptdf, limits)
    assert np.all(block.b >= 0.0)
    p = np.zeros(view.n_i + view.n_e)
    assert np.all(block.a @ p <= block.b)


def test_generator_outage_empty_set(triangle_parts):
    _, view, _, limits, ptdf = triangle_parts
    ggdf = compute_ggdf(view, ptdf)
    block = assemble_generator_outages(view, ptdf, ggdf, limits, units=())
    assert block.nrows == 0


def test_generator_outage_dead_column(triangle_parts):
    """The outaged source's own deviations lose their transmission effect."""
    _, view, _, limits, ptdf = triangle_parts
    ggdf = compute_ggdf(view, ptdf)
    block = assemble_generator_outages(view, ptdf, ggdf, limits, units=("g2",))
    col = view.source_buses.index(2)
    q_rows = [r for l, r in zip(block.labels, block.a) if ":up" in l]
    # Q column for bus 2 is H(:,2) + G = H(:,2) - H(:,2) = 0.
    assert np.allclose(np.array(q_rows)[:, col], 0.0, atol=1e-12)


def test_generator_outage_offsets_follow_band_pattern(triangle_parts):
    _, view, _, limits, ptdf = triangle_parts
    ggdf = compute_ggdf(view, ptdf)
    block = assemble_generator_outages(view, ptdf, ggdf, limits, units=("g2",))
    j = ggdf.unit_ids.index("g2")
    shift = ggdf.matrix[:, j] * ggdf.p_gen_pu[j]
    offs = dict(zip(block.labels, block.b))
    for k, lid in enumerate(view.line_ids):
        up_label = f"G:g2:line:{lid}:up"
        dn_label = f"G:g2:line:{lid}:dn"
        if up_label in offs:
            assert offs[up_label] == pytest.approx(limits.line_up[k] - shift[k])
        if dn_label in offs:
            assert offs[dn_label] == pytest.approx(-limits.line_dn[k] - shift[k])


def test_generator_outage_rows_equal_direct_band_evaluation(triangle_parts):
    """Row satisfaction matches the two-sided band checked directly."""
    _, view, _, limits, ptdf = triangle_parts
    ggdf = compute_ggdf(view, ptdf)
    block = assemble_generator_outages(view, ptdf, ggdf, limits, units=("g2",))
    j = ggdf.unit_ids.index("g2")
    g_shift = ggdf.matrix[:, j] * ggdf.p_gen_pu[j]
    q = np.hstack([ptdf.h_i, ptdf.h_e])
    q[:, view.source_buses.index(2)] += ggdf.matrix[:, j]
    rng = np.random.default_rng(9)
    rows = block.a
    for _ in range(50):
        p = rng.uniform(-1.5, 1.5, size=view.n_i + view.n_e)
        by_rows = bool(np.all(rows @ p <= block.b + 1e-12))
        flow = q @ p
        direct = bool(np.all(flow + g_shift <= limits.line_up + 1e-12)
                      and np.all(flow - g_shift >= limits.line_dn - 1e-12))
        assert by_rows == direct


def test_line_outage_empty_set(triangle_parts):
    _, view, flows, limits, ptdf = triangle_parts
    lodf = compute_lodf(view)
    block = assemble_line_outages(view, ptdf, lodf, limits, flows, outages=())
    assert block.nrows == 0


def _tightest_of_full_band(block, full):
    """Each row of ``full`` is a positive multiple of a row of ``block``
    that is no looser: ``block`` keeps one row per direction."""
    unit_kept, off_kept = _unit_rows(block.a, block.b)
    keys = [_direction_key(row).tobytes() for row in unit_kept]
    assert len(set(keys)) == len(keys)
    kept_at = {key: k for k, key in enumerate(keys)}
    for row, off in zip(*_unit_rows(full.a, full.b)):
        k = kept_at[_direction_key(row).tobytes()]
        assert off >= off_kept[k] - 1e-15


def test_line_outage_unloaded_line_keeps_nominal_margins():
    raw = triangle_tie_dict()
    for b in raw["buses"]:
        b["load_pu"] = 0.0
    for g in raw["generators"]:
        g.update(p_sched_pu=0.0, res_dn_pu=0.0)
    case = case_from_dict(raw)
    view = partition(case)
    flows = compute_dc_flows(case)
    limits = compute_delta_limits(case, view, flows)
    ptdf = compute_ptdf(view)
    lodf = compute_lodf(view)
    block = assemble_line_outages(view, ptdf, lodf, limits, flows,
                                  outages=("1-3",))
    full = ref.line_outage_bands(view, ptdf, lodf, limits, flows,
                                 outages=("1-3",))
    margins = {}
    for k, lid in enumerate(view.line_ids):
        margins[f"L:1-3:line:{lid}:up"] = limits.line_up[k]
        margins[f"L:1-3:line:{lid}:dn"] = -limits.line_dn[k]
    # With nothing scheduled the outage moves no margin: every row of the
    # full band, and so every kept row, has its line's nominal margin.
    assert {f"L:1-3:line:{lid}:{side}" for lid in ("1-2", "2-3")
            for side in ("up", "dn")} <= set(full.labels)
    for rows in (full, block):
        for label, off in zip(rows.labels, rows.b):
            assert off == pytest.approx(margins[label])
    assert block.nrows == 2 and set(block.labels) <= set(full.labels)
    _tightest_of_full_band(block, full)


def test_line_outage_constants_match_rerouted_flow(triangle_parts):
    """Offsets shift by the rerouted scheduled flow of the tripped line,
    and of the full band the tightest row of each direction stays."""
    _, view, flows, limits, ptdf = triangle_parts
    lodf = compute_lodf(view)
    block = assemble_line_outages(view, ptdf, lodf, limits, flows,
                                  outages=("1-3",))
    full = ref.line_outage_bands(view, ptdf, lodf, limits, flows,
                                 outages=("1-3",))
    _, col = lodf.column("1-3")
    sched = flows.flow("1-3")
    expected = {}
    for k, lid in enumerate(view.line_ids):
        expected[f"L:1-3:line:{lid}:up"] = limits.line_up[k] - col[k] * sched
        expected[f"L:1-3:line:{lid}:dn"] = -limits.line_dn[k] - col[k] * sched
    assert full.nrows > block.nrows > 0
    for rows in (full, block):
        for label, off in zip(rows.labels, rows.b):
            assert "L:1-3:line:1-3:" not in label
            assert off == pytest.approx(expected[label])
    _tightest_of_full_band(block, full)


def test_line_outage_bridge_is_rejected(triangle_parts):
    _, view, flows, limits, ptdf = triangle_parts
    lodf = compute_lodf(view)
    with pytest.raises(GridflexError, match="bridge"):
        assemble_line_outages(view, ptdf, lodf, limits, flows,
                              outages=("3-4",))


def test_strict_mode_keeps_origin_feasible_and_differs(triangle_parts):
    _, view, flows, limits, ptdf = triangle_parts
    lodf = compute_lodf(view)
    loose = ref.line_outage_bands(view, ptdf, lodf, limits, flows)
    strict = assemble_line_outages(view, ptdf, lodf, limits, flows, strict=True)
    assert np.all(strict.b >= -1e-9)
    label = "L:1-3:line:1-2:up"
    row_loose = dict(zip(loose.labels, loose.a))
    row_strict = dict(zip(strict.labels, strict.a))
    # Strict rows carry the base deviation term on top of the rerouted one.
    k = view.line_ids.index("1-2")
    base = np.concatenate([ptdf.h_i[k], ptdf.h_e[k]])
    assert np.allclose(row_strict[label] - row_loose[label], base, atol=1e-12)
    # Strict rows are not parallel: every one of the full band stays.
    full = ref.line_outage_bands(view, ptdf, lodf, limits, flows, strict=True)
    assert strict.labels == full.labels
    assert np.array_equal(strict.a, full.a) and np.array_equal(strict.b, full.b)


def test_stack_preserves_order_and_labels(triangle_parts):
    _, view, flows, limits, ptdf = triangle_parts
    nominal = assemble_nominal(view, ptdf, limits)
    ggdf = compute_ggdf(view, ptdf)
    gen_block = assemble_generator_outages(view, ptdf, ggdf, limits)
    lodf = compute_lodf(view)
    line_block = assemble_line_outages(view, ptdf, lodf, limits, flows)
    stacked = stack_n1(nominal, gen_block, line_block)
    assert stacked.labels == nominal.labels + gen_block.labels + line_block.labels
    assert stacked.nrows == nominal.nrows + gen_block.nrows + line_block.nrows


def test_stack_empty_contingencies_is_nominal(triangle_parts):
    _, view, _, limits, ptdf = triangle_parts
    nominal = assemble_nominal(view, ptdf, limits)
    empty = ConstraintBlock.empty(view.n_i, view.n_e)
    stacked = stack_n1(nominal, empty, empty)
    assert stacked.labels == nominal.labels
    assert np.allclose(stacked.b, nominal.b)


def test_stack_row_count_formula(triangle_parts):
    """Each outage contributes a band per surviving line (self rows excluded,
    rows with no coefficients and slack offsets dropped at assembly)."""
    _, view, flows, limits, ptdf = triangle_parts
    ggdf = compute_ggdf(view, ptdf)
    gen_block = assemble_generator_outages(view, ptdf, ggdf, limits)
    n_lines = len(view.line_ids)
    # Outage of g1 (at the reference) redistributes everything onto bus 2:
    # all rows real.  Both columns nonzero on internal lines; tie rows of
    # the shift are zero with slack offsets, hence dropped.
    assert gen_block.nrows <= 2 * n_lines * len(ggdf.unit_ids)
    lodf = compute_lodf(view)
    line_block = assemble_line_outages(view, ptdf, lodf, limits, flows)
    assert line_block.nrows <= 2 * (n_lines - 1) * len(lodf.outage_ids)


def test_dimension_mismatch_rejected(triangle_parts):
    _, view, _, limits, ptdf = triangle_parts
    nominal = assemble_nominal(view, ptdf, limits)
    wrong = ConstraintBlock.empty(view.n_i + 1, view.n_e)
    with pytest.raises(GridflexError, match="column counts"):
        stack_n1(nominal, wrong, wrong)



# Studies the outage blocks are checked on against the full bands.
_STUDIES = [("triangle", "file"), ("rts", "file"), ("rts", "full"),
            ("rts@0.7", "full")]


def _study(request, name: str, reserves: str) -> Study:
    if name == "triangle":
        case = case_from_dict(triangle_tie_dict())
    else:
        case = request.getfixturevalue("rts_case")
        if "@" in name:
            case = scale_load(case, float(name.split("@")[1]))
    return Study.build(case, ReserveConfig(mode=reserves))


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@pytest.mark.parametrize("name,reserves", _STUDIES)
def test_outage_rows_are_rows_of_the_full_bands(request, name, reserves, strict):
    """Every assembled row is a row of the full bands, to the byte and with
    its label, in the full bands' order; strict bands keep every row."""
    study = _study(request, name, reserves)
    spec = FlexibilitySpec("active", "n1", study.reserves,
                           strict_line_outages=strict)
    block, full = study.assemble(spec), ref.full_stack(study, spec)
    position = {label: k for k, label in enumerate(full.labels)}
    assert len(position) == full.nrows
    at = [position[label] for label in block.labels]
    assert at == sorted(at)
    assert np.array_equal(block.a, full.a[at]) and np.array_equal(block.b, full.b[at])
    assert block.a.tobytes() == full.a[at].tobytes()
    line_rows = [l for l in full.labels if l.startswith("L:")]
    kept = [l for l in block.labels if l.startswith("L:")]
    if strict:
        assert kept == line_rows
    else:
        assert len(kept) <= 2 * len(study.lodf.outage_ids) < len(line_rows)


@pytest.mark.parametrize("approach", ["active", "passive"])
@pytest.mark.parametrize("name,reserves", _STUDIES)
def test_merged_rows_match_the_full_bands(request, name, reserves, approach):
    """``normalize_rows`` keeps the same rows, to the bit, from the
    assembled stack as from the full bands."""
    study = _study(request, name, reserves)
    spec = FlexibilitySpec(approach, "n1", study.reserves)
    merged, merged_full = (
        normalize_rows(study.flexibility_set(block, spec))
        for block in (study.assemble(spec), ref.full_stack(study, spec)))
    assert merged.A.tobytes() == merged_full.A.tobytes()
    assert merged.b.tobytes() == merged_full.b.tobytes()


@pytest.mark.parametrize("name,reserves", _STUDIES[:3])
def test_broken_outage_rows_are_named_as_in_the_full_bands(request, name,
                                                           reserves):
    """A schedule that breaks outage rows raises InfeasibleSetError naming
    every broken row of the full bands, in their order."""
    study = _study(request, name, reserves)
    raw = study.case.to_dict()
    # Every line's limit just above its scheduled flow: the schedule stays
    # feasible, but an outage that moves flow onto a line breaks its rows.
    for line in raw["lines"]:
        line["flow_limit_pu"] = abs(study.flows.flow(line["id"])) + 1e-3
    tight = Study.build(case_from_dict(raw), study.reserves)
    spec = FlexibilitySpec("active", "n1", tight.reserves)
    full = ref.full_stack(tight, spec)
    broken = tuple(l for l, off in zip(full.labels, full.b) if off < -1e-9)
    assert any(l.startswith("L:") for l in broken)
    with pytest.raises(InfeasibleSetError) as info:
        tight.assemble(spec)
    assert info.value.rows == broken


def test_rts_file_reserves_assemble_only_rows_that_can_bind(rts_case):
    """With file reserves no RTS-96 area unit has a source column, so the
    generator outages keep at most one row per line and side, and every
    line outage at most one row per side."""
    study = Study.build(rts_case, ReserveConfig(mode="file"))
    view = study.view
    assert view.n_i == 0
    block = study.assemble(FlexibilitySpec("active", "n1", study.reserves))
    nominal = assemble_nominal(view, study.ptdf, study.limits)
    assert block.nrows <= (nominal.nrows + 2 * len(view.line_ids)
                           + 2 * len(study.lodf.outage_ids))


def test_monitored_lines_limit_every_band(triangle_parts):
    """Monitoring a subset of lines keeps exactly the rows of those lines;
    an unknown line is refused."""
    case, view, flows, limits, ptdf = triangle_parts
    ggdf, lodf = compute_ggdf(view, ptdf), compute_lodf(view)
    internal = tuple(ln.id for ln in view.internal_lines)
    blocks = [
        (assemble_nominal(view, ptdf, limits),
         assemble_nominal(view, ptdf, limits, monitored=internal)),
        (assemble_generator_outages(view, ptdf, ggdf, limits),
         assemble_generator_outages(view, ptdf, ggdf, limits, monitored=internal)),
    ]
    for every, some in blocks:
        assert some.labels == tuple(l for l in every.labels
                                    if not l.endswith((":3-4:up", ":3-4:dn")))
    line_rows = assemble_line_outages(view, ptdf, lodf, limits, flows,
                                      monitored=("2-3",))
    assert line_rows.nrows and all(":line:2-3:" in l for l in line_rows.labels)
    with pytest.raises(GridflexError, match="9-9"):
        assemble_nominal(view, ptdf, limits, monitored=("9-9",))
