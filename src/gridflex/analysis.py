"""Flexibility sets and the metrics derived from them.

The pipeline is: configure reserves, partition the study area, compute
sensitivities and margins (together one :class:`Study`, built once per
case, reserves and area), stack the constraint blocks, then project
onto the tie dimensions.  The projected set ``G p_e <= g`` is the
artifact one operator hands its neighbor: it bounds every feasible
combination of tie import deviations without revealing internal data.

Approaches
----------
active
    Internal sources may be redispatched in reaction to tie deviations;
    the set lives over ``(p_i, p_e)`` and is projected onto ``p_e``.
passive
    Internal sources stay put (``p_i = 0``): the same rows restricted
    to their external columns, projected like the active ones.

Either flavor exists in a base-case (``n``) and a security (``n1``)
version that adds one row band per generator and line outage.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import lp
from .constraints import (ConstraintBlock, DeltaLimits, assemble_generator_outages,
                          assemble_line_outages, assemble_nominal,
                          compute_delta_limits, stack_n1)
from .errors import (CaseError, GridflexError, InfeasibleSetError,
                     UnboundedSetError)
from .network import (AreaView, NetworkCase, ReserveConfig, configure_reserves,
                      partition)
from .polytope import (CONTAIN_TOL, DEFAULT_ROW_CAP, REDUNDANCY_TOL, HPolytope,
                       contains, hull_2d, polygon_area, project, tightest_rows,
                       vertices)
from .sensitivity import (GgdfMatrix, LodfMatrix, NetworkShift, PtdfMatrix,
                          ScheduledFlows, compute_dc_flows, compute_ggdf,
                          compute_lodf, compute_ptdf, network_shift)

_ORIGIN_TOL = 1e-9


@dataclass(frozen=True)
class FlexibilitySpec:
    """What to build: approach, security level, outage sets, reserves."""

    approach: str
    security: str = "n"
    reserves: ReserveConfig = field(default_factory=ReserveConfig)
    gen_outages: tuple[str, ...] | None = None
    line_outages: tuple[str, ...] | None = None
    strict_line_outages: bool = False

    def __post_init__(self):
        if self.approach not in ("active", "passive"):
            raise GridflexError(f"unknown approach '{self.approach}'")
        if self.security not in ("n", "n1"):
            raise GridflexError(f"unknown security level '{self.security}'")

    def describe(self) -> str:
        parts = [self.approach, self.security, self.reserves.describe()]
        if self.gen_outages is not None:
            parts.append("gen_outages=" + ",".join(self.gen_outages))
        if self.line_outages is not None:
            parts.append("line_outages=" + ",".join(self.line_outages))
        if self.strict_line_outages:
            parts.append("strict")
        return "/".join(parts)


def prepare(case: NetworkCase, spec: FlexibilitySpec):
    """Apply the reserve configuration and partition the study area."""
    configured = configure_reserves(case, spec.reserves)
    return configured, partition(configured)


@dataclass(frozen=True)
class Study:
    """One area's analysis inputs, built once per (case, reserves, area).

    ``case`` is the case configured with ``reserves`` and ``view`` its
    partition for the area; flows, margins and the PTDF follow from
    them.  The outage factors are computed on first use: ``ggdf`` covers
    every unit of the area, ``lodf`` every line of the area.  The flows
    and the ``lodf`` share one full-network ``shift``.  Every set it
    exports comes from :meth:`project_block`.
    """

    case: NetworkCase
    reserves: ReserveConfig
    view: AreaView
    flows: ScheduledFlows
    limits: DeltaLimits
    ptdf: PtdfMatrix
    shift: NetworkShift

    @classmethod
    def build(cls, case: NetworkCase, reserves: ReserveConfig,
              area: str | None = None) -> "Study":
        configured = configure_reserves(case, reserves)
        view = partition(configured, area)
        shift = network_shift(configured)
        flows = compute_dc_flows(configured, shift)
        limits = compute_delta_limits(configured, view, flows)
        return cls(configured, reserves, view, flows, limits,
                   compute_ptdf(view), shift)

    @property
    def dispatched(self) -> tuple[str, ...]:
        """Default generator outages: every dispatched unit of the area."""
        return tuple(g.id for g in self.view.units if g.p_sched_pu > 0.0)

    @cached_property
    def ggdf(self) -> GgdfMatrix:
        return compute_ggdf(self.view, self.ptdf, units=self.view.units)

    @cached_property
    def lodf(self) -> LodfMatrix:
        return compute_lodf(self.view, shift=self.shift)

    def assemble(self, spec: FlexibilitySpec) -> ConstraintBlock:
        """Stacked constraint block of the flexibility set ``spec``."""
        if spec.reserves != self.reserves:
            raise GridflexError(f"spec reserves {spec.reserves.describe()} differ "
                                f"from the study's {self.reserves.describe()}")
        for kind, ids, known in (
                ("units", spec.gen_outages, [g.id for g in self.view.units]),
                ("lines", spec.line_outages, self.view.line_ids)):
            missing = [i for i in ids or () if i not in known]
            if missing:
                raise CaseError(f"outage {kind} not in area {self.view.area}: "
                                f"{', '.join(missing)}")
        units = self.dispatched if spec.gen_outages is None else spec.gen_outages
        view, ptdf, limits = self.view, self.ptdf, self.limits
        block = assemble_nominal(view, ptdf, limits)
        if spec.security == "n1":
            gen_block = (assemble_generator_outages(view, ptdf, self.ggdf,
                                                    limits, units=units)
                         if units else ConstraintBlock.empty(view.n_i, view.n_e))
            line_block = assemble_line_outages(
                view, ptdf, self.lodf, limits, self.flows,
                outages=spec.line_outages, strict=spec.strict_line_outages)
            block = stack_n1(block, gen_block, line_block)

        bad = block.b < -_ORIGIN_TOL
        if np.any(bad):
            raise InfeasibleSetError(
                "the scheduled operating point violates security rows",
                rows=tuple(l for l, v in zip(block.labels, bad) if v))
        return block

    def flexibility_set(self, block: ConstraintBlock,
                        spec: FlexibilitySpec) -> HPolytope:
        """Turn the assembled block of ``spec`` into its polytope.

        Active sets span ``(p_i, p_e)``; passive sets keep the same rows
        and offsets but drop the internal columns (the internal sources
        are pinned to their schedule, not merely bounded at zero).
        """
        view = self.view
        if spec.approach == "active":
            return HPolytope(block.a, block.b, view.labels)
        return HPolytope(block.a[:, block.n_i:], block.b, view.external_labels)

    def project_block(self, block: ConstraintBlock, spec: FlexibilitySpec,
                      tol: float = REDUNDANCY_TOL,
                      row_cap: int = DEFAULT_ROW_CAP) -> "ExternalPolytope":
        """Project the assembled block of ``spec`` onto the tie dimensions.

        :func:`project` proves the result nonempty and bounded, as every
        well-formed flexibility set is (tie capacities bound it); here it
        is also checked to contain the origin.
        """
        projected = project(self.flexibility_set(block, spec),
                            self.view.external_labels, tol=tol, row_cap=row_cap)
        if np.any(projected.b < -_ORIGIN_TOL):
            raise InfeasibleSetError("projected set does not contain the origin")
        return ExternalPolytope(poly=projected, provenance={
            "case_hash": self.case.case_hash(), "spec": spec.describe()})

    def export(self, spec: FlexibilitySpec, tol: float = REDUNDANCY_TOL,
               row_cap: int = DEFAULT_ROW_CAP) -> "ExternalPolytope":
        """Build the flexibility set ``spec`` asks for and project it."""
        return self.project_block(self.assemble(spec), spec, tol=tol,
                                  row_cap=row_cap)

    def atc_polytope(self, atc_ab: float | None = None,
                     atc_ba: float | None = None) -> "ExternalPolytope":
        """Transfer-capacity polytope; capacities default to the case's."""
        ab = self.case.atc_a_to_b_pu if atc_ab is None else atc_ab
        ba = self.case.atc_b_to_a_pu if atc_ba is None else atc_ba
        if ab is None or ba is None:
            raise CaseError("transfer capacities are neither in the case "
                            "nor given explicitly")
        return build_atc_polytope(self.view, self.limits, ab, ba)


def assemble_constraints(case: NetworkCase,
                         spec: FlexibilitySpec) -> tuple[ConstraintBlock, AreaView]:
    """Stacked constraint block of the requested flexibility set."""
    study = Study.build(case, spec.reserves)
    return study.assemble(spec), study.view


@dataclass(frozen=True)
class ExternalPolytope:
    """Projected tie-deviation set ``G p_e <= g`` plus provenance."""

    poly: HPolytope
    provenance: dict

    @property
    def labels(self) -> tuple[str, ...]:
        return self.poly.labels

    @cached_property
    def vertices(self) -> np.ndarray:
        """Vertices of the set, enumerated once and read-only; raises if unbounded."""
        verts = vertices(self.poly)
        verts.flags.writeable = False
        return verts

    def to_json_dict(self) -> dict:
        record = {"meta": dict(self.provenance)}
        record.update(self.poly.to_json_dict())
        return record


def external_polytope(case: NetworkCase, spec: FlexibilitySpec,
                      tol: float = REDUNDANCY_TOL,
                      row_cap: int = DEFAULT_ROW_CAP) -> ExternalPolytope:
    """Build and project in one call."""
    return Study.build(case, spec.reserves).export(spec, tol=tol, row_cap=row_cap)


@dataclass(frozen=True)
class ExportedFlexibilityReport:
    """Areas of all two-tie projections; their sum is the headline metric."""

    pair_areas: tuple[tuple[str, str, float], ...]
    total: float
    provenance: dict

    def to_json_dict(self) -> dict:
        return {
            "meta": dict(self.provenance),
            "pairs": [
                {"x": x, "y": y, "area_pu2": a} for x, y, a in self.pair_areas
            ],
            "total_pu2": self.total,
        }


def exported_flexibility(fe: ExternalPolytope) -> ExportedFlexibilityReport:
    """Sum of the areas of every projection onto a pair of tie axes.

    Each projection is the hull of two columns of the set's vertices.
    With a single tie there are no pairs; the metric degrades to the
    length of the feasible import interval (in pu rather than pu^2).
    """
    labels = fe.labels
    if len(labels) < 1:
        raise GridflexError("external polytope has no tie dimensions")
    verts = fe.vertices
    pairs = tuple((labels[i], labels[j], polygon_area(hull_2d(verts[:, [i, j]])))
                  for i, j in itertools.combinations(range(len(labels)), 2))
    total = float(np.ptp(verts)) if len(labels) == 1 else 0.0
    for *_, area in pairs:
        total += area
    return ExportedFlexibilityReport(pair_areas=pairs, total=float(total),
                                     provenance=dict(fe.provenance))


def build_atc_polytope(view: AreaView, limits: DeltaLimits,
                       atc_ab: float, atc_ba: float) -> ExternalPolytope:
    """Transfer-capacity polytope over the tie deviations.

    The net deviation is held inside ``[-atc_ba, atc_ab]`` while each
    tie stays inside its remaining capacity.  Spatial information plays
    no role here, which is exactly what makes the comparison with the
    projected sets interesting.
    """
    if not all(math.isfinite(v) and v >= 0 for v in (atc_ab, atc_ba)):
        raise CaseError(f"transfer capacities must be finite and nonnegative, "
                        f"got {atc_ab:g} and {atc_ba:g}")
    n_e, n_int = view.n_e, len(view.internal_lines)
    ones = np.ones((1, n_e))
    a = np.vstack([ones, -ones, np.eye(n_e), -np.eye(n_e)])
    b = np.concatenate([[atc_ab, atc_ba], limits.line_up[n_int:],
                        -limits.line_dn[n_int:]])
    return ExternalPolytope(
        poly=HPolytope(a, b, view.external_labels),
        provenance={
            "case_hash": view.case.case_hash(),
            "spec": f"atc/ab={atc_ab:g}/ba={atc_ba:g}",
        })


@dataclass(frozen=True)
class UtilizationComparison:
    """Mutual containment of the active set and the transfer-capacity set."""

    active_within_atc: bool
    atc_within_active: bool
    witness_active_only: np.ndarray | None
    witness_atc_only: np.ndarray | None
    max_violation_active_only: float
    max_violation_atc_only: float
    pair_areas_active: tuple[tuple[str, str, float], ...]
    pair_areas_atc: tuple[tuple[str, str, float], ...]
    total_active: float
    total_atc: float

    def to_json_dict(self) -> dict:
        def point(p):
            return None if p is None else [float(v) for v in p]

        return {
            "active_within_atc": bool(self.active_within_atc),
            "atc_within_active": bool(self.atc_within_active),
            "witness_active_only": point(self.witness_active_only),
            "witness_atc_only": point(self.witness_atc_only),
            "max_violation_active_only": self.max_violation_active_only,
            "max_violation_atc_only": self.max_violation_atc_only,
            "pair_areas_active": [
                {"x": x, "y": y, "area_pu2": a} for x, y, a in self.pair_areas_active],
            "pair_areas_atc": [
                {"x": x, "y": y, "area_pu2": a} for x, y, a in self.pair_areas_atc],
            "total_active_pu2": self.total_active,
            "total_atc_pu2": self.total_atc,
        }


def compare_utilization(active_fe: ExternalPolytope, atc_fe: ExternalPolytope,
                        tol: float = CONTAIN_TOL) -> UtilizationComparison:
    """Compare tie usage allowed by the active set against the ATC box.

    A witness in one difference set is a tie deviation combination that
    one rulebook admits and the other forbids.
    """
    if active_fe.labels != atc_fe.labels:
        raise GridflexError("polytopes compare only over identical tie labels")
    in_atc = contains(atc_fe.poly, active_fe.poly, tol)
    in_active = contains(active_fe.poly, atc_fe.poly, tol)
    rep_active = exported_flexibility(active_fe)
    rep_atc = exported_flexibility(atc_fe)
    return UtilizationComparison(
        active_within_atc=in_atc.contained,
        atc_within_active=in_active.contained,
        witness_active_only=None if in_atc.contained else in_atc.witness,
        witness_atc_only=None if in_active.contained else in_active.witness,
        max_violation_active_only=in_atc.max_violation,
        max_violation_atc_only=in_active.max_violation,
        pair_areas_active=rep_active.pair_areas,
        pair_areas_atc=rep_atc.pair_areas,
        total_active=rep_active.total,
        total_atc=rep_atc.total,
    )


def _neighbor_stack(study: Study, include_security: bool):
    """The neighbor's assembled rows ``(a_ub, b_ub, nominal)`` over the
    columns ``[delta per bus..., p_B..., p_e...]``, before any merge;
    ``nominal`` marks the rows of :func:`assemble_nominal`.

    The rows are built once, over a PTDF whose internal columns are
    extended by ``nodal``, one bus column per neighbor bus.  The tie line
    and tie source bands are dropped by their label, since the imported
    facets bound the ties; the tie columns are flipped into the exporter's
    convention, and the line outages are pinned to internal lines.
    """
    view, ptdf, limits = study.view, study.ptdf, study.limits
    ext = replace(ptdf, h_i=np.hstack([ptdf.h_i, ptdf.nodal]))
    block = assemble_nominal(view, ext, limits)
    if include_security:
        internal = tuple(ln.id for ln in view.internal_lines)
        outages = tuple(o for o in study.lodf.outage_ids if o in internal)
        block = stack_n1(
            block,
            assemble_generator_outages(view, ext, study.ggdf, limits,
                                       study.dispatched),
            assemble_line_outages(view, ext, study.lodf, limits,
                                  study.flows, outages=outages))
    tie_rows = tuple(f":{kind}:{t.line.id}:{side}" for t in view.ties
                     for kind in ("line", "ext") for side in ("up", "dn"))
    keep = [not label.endswith(tie_rows) for label in block.labels]
    a, n_b, n_i = block.a[keep], view.n_i, block.n_i
    nominal = np.array([label.startswith("N:") for label, k
                        in zip(block.labels, keep) if k], dtype=bool)
    return (np.hstack([a[:, n_b:n_i], a[:, :n_b], -a[:, n_i:]]),
            block.b[keep], nominal)


class _NeighborModel:
    """Per-bus deviation LPs in the neighbor area.

    Variables are ``[delta, p_B..., p_e...]``: the probed bus disturbance,
    the neighbor's own reserve deviations (one per source bus) and the tie
    imports in the exporter's convention.  Every row comes from the
    exporter's assemblers, minus the tie rows (:func:`_neighbor_stack`):
    :func:`assemble_nominal`'s internal line band, reserve bands and
    balance ``delta + sum(p_B) + sum(p_e) = 0`` (ties in the neighbor's
    convention), with security the outage bands, then the imported facets
    over ``p_e`` in every mode.

    Of the assembled rows, one per direction stays, picked by
    :func:`polytope.tightest_rows` as :func:`polytope.normalize_rows`
    picks it; the kept rows stay as assembled, unscaled and in their
    order.  With neighbor security on RTS-96 that leaves 906 of 4,890
    rows.  All zero rows share one direction, so one with a negative
    offset stays and makes every LP infeasible.  Each mode solves on one :class:`lp.LPSystem` over the
    kept rows plus the imported facets, freeing the probed bus's ``delta``
    column with ``p_B`` and ``p_e``; its working rows start from the kept
    nominal ones and carry over from one mode to the next.
    """

    def __init__(self, study: Study, include_security: bool = False):
        self.view = study.view
        self.buses = tuple(b.id for b in study.view.buses)
        a, b, nominal = _neighbor_stack(study, include_security)
        kept = tightest_rows(a, b)
        self.a_ub, self.b_ub = a[kept], b[kept]
        # Working rows of the lazy solves: the kept nominal rows first,
        # grown by each solve.
        self.working = nominal[kept]

    def solve(self, mode: str, imported: ExternalPolytope, buses) -> list:
        """``(max_up, max_dn)`` of every bus in ``buses``, in that order;
        ``mode`` only names the imported set in error messages.

        Every requested bus is probed up, in :attr:`buses` order, and then
        every one down: a down LP's objective is the negation of its up
        LP's, so the previous up optimum is a poor start for it, while the
        next bus's up LP starts near it.
        """
        view = self.view
        for bus in buses:
            if bus not in self.buses:
                raise CaseError(f"bus {bus} is not in area {view.area}", bus)
        if tuple(imported.labels) != view.external_labels:
            raise GridflexError("imported polytope labels do not match the ties")
        n_bus, n_col, facets = len(self.buses), self.a_ub.shape[1], imported.poly
        pad = np.zeros((facets.nrows, n_col - view.n_e))
        # The imported facets are always working rows.
        system = lp.LPSystem(
            np.vstack([self.a_ub, np.hstack([pad, facets.A])]),
            np.concatenate([self.b_ub, facets.b]),
            np.concatenate([self.working, np.ones(facets.nrows, dtype=bool)]))
        rest = list(range(n_bus, n_col))
        probed = sorted({self.buses.index(bus) for bus in buses})
        value = {}
        for sign in (1.0, -1.0):
            for k in probed:
                c = np.zeros(n_col)
                c[k] = sign
                res = system.maximize(c, [k] + rest)
                if res.status == "infeasible":
                    raise InfeasibleSetError(f"deviation study infeasible at "
                                             f"bus {self.buses[k]} (mode {mode})")
                if res.status == "unbounded":
                    raise UnboundedSetError(
                        f"deviation study unbounded at bus {self.buses[k]} "
                        f"(mode {mode}); a bound is missing")
                value[k, sign] = float(sign * res.value)
        self.working = system.working[:len(self.b_ub)]
        return [(value[k, 1.0], value[k, -1.0])
                for k in map(self.buses.index, buses)]


def _with_unit_range(exporter: Study, fe: ExternalPolytope) -> ExternalPolytope:
    """``fe`` plus the exact shadow of the exporter's units on the tie sum:
    they balance the ties, ``sum(p_e) = -sum(p_A)``, each ``p_A`` inside
    ``[p_min - p_sched, p_max - p_sched]``."""
    units, ones = exporter.view.units, np.ones((1, len(fe.labels)))
    b = [sum(g.p_sched_pu - g.p_min_pu for g in units),
         sum(g.p_max_pu - g.p_sched_pu for g in units)]
    return replace(fe, poly=HPolytope(np.vstack([fe.poly.A, ones, -ones]),
                                      np.append(fe.poly.b, b), fe.labels))


_DEVIATION_MODES = ("passive", "active", "atc")


def _check_modes(modes) -> None:
    if not modes:
        raise CaseError("no deviation mode given; valid modes are "
                        f"{', '.join(_DEVIATION_MODES)}")
    bad = [m for m in modes if m not in _DEVIATION_MODES]
    if bad:
        raise CaseError(f"unknown deviation mode '{bad[0]}'; valid modes "
                        f"are {', '.join(_DEVIATION_MODES)}")
    repeated = [m for k, m in enumerate(modes) if m in modes[:k]]
    if repeated:
        raise CaseError(f"deviation mode '{repeated[0]}' is given more than once")


@dataclass(frozen=True)
class NodalDeviationReport:
    """Per-bus deviation bounds for one reserve setting, several modes."""

    reserve_fraction: float
    rows: tuple[tuple[int, str, float, float], ...]
    provenance: dict

    def to_csv(self, path: str, meta: dict | None = None) -> None:
        with open(path, "w") as fh:
            merged = dict(self.provenance)
            if meta:
                merged.update(meta)
            for key in sorted(merged):
                fh.write(f"# {key}={merged[key]}\n")
            fh.write("bus,mode,max_up_pu,max_dn_pu\n")
            for bus, mode, up, dn in self.rows:
                fh.write(f"{bus},{mode},{up!r},{dn!r}\n")

    def bounds(self, bus: int, mode: str) -> tuple[float, float]:
        for b, m, up, dn in self.rows:
            if b == bus and m == mode:
                return up, dn
        raise KeyError((bus, mode))


def nodal_deviation_report(case: NetworkCase, *, reserve_fraction: float,
                           modes=("passive", "active", "atc"),
                           exporter_reserves: ReserveConfig | None = None,
                           security: str = "n",
                           atc_ab: float | None = None,
                           atc_ba: float | None = None,
                           include_neighbor_security: bool = False,
                           tol: float = REDUNDANCY_TOL,
                           row_cap: int = DEFAULT_ROW_CAP) -> NodalDeviationReport:
    """Deviation bounds for every neighbor bus under the chosen modes.

    The exporter's communicated sets are built once: the passive and
    active sets at the requested security level (exporter reserves
    default to full redispatch), and the transfer-capacity polytope
    from the case ATC values unless overridden, with the range of the
    exporter's units on the tie sum.
    """
    _check_modes(modes)
    neighbor_reserves = ReserveConfig(mode="fraction", fraction=reserve_fraction)
    model = _NeighborModel(
        Study.build(case, neighbor_reserves, case.neighbor_area),
        include_security=include_neighbor_security)
    if exporter_reserves is None:
        exporter_reserves = ReserveConfig(mode="full")
    exporter = Study.build(case, exporter_reserves)
    imported: dict[str, ExternalPolytope] = {}
    if "atc" in modes:
        imported["atc"] = _with_unit_range(exporter,
                                           exporter.atc_polytope(atc_ab, atc_ba))
    for approach in ("passive", "active"):
        if approach in modes:
            imported[approach] = exporter.export(
                FlexibilitySpec(approach, security, exporter_reserves),
                tol=tol, row_cap=row_cap)

    bounds = {mode: model.solve(mode, imported[mode], model.buses)
              for mode in modes}
    rows = [(b, mode, *bounds[mode][k])
            for k, b in enumerate(model.buses) for mode in modes]
    return NodalDeviationReport(
        reserve_fraction=reserve_fraction,
        rows=tuple(rows),
        provenance={
            "case_hash": case.case_hash(),
            "reserve_fraction": f"{reserve_fraction:g}",
            "security": security,
        })
