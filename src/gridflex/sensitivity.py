"""DC power-flow sensitivities: PTDF, generation and line outage factors.

Two network models appear here on purpose.

* Scheduled flows and line-outage factors live on the *full two-area
  network*: a tripped line redistributes its flow over every parallel
  path, including the remaining ties, which is what the interconnected
  system physically does.
* The deviation sensitivities (:func:`compute_ptdf`) live on the
  *study-area subnetwork* with each tie replaced by a controllable
  injection at its boundary bus: tie deviations are inputs chosen by
  the neighbor, not a network response.  A tie row therefore responds
  one-to-one to its own import deviation and not at all to internal
  redispatch.

Every matrix uses the row order of :attr:`AreaView.line_ids` (internal
lines, then ties) and tie rows are oriented import-positive.  No
matrix stores its row ids: they are the view's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CaseError, SingularNetworkError
from .network import (BALANCE_TOL, AreaView, Generator, NetworkCase,
                      TransmissionLine, _line_key)

BRIDGE_TOL = 1e-6


def _nodal_ptdf(bus_ids, lines, reference, context="network"):
    """Injection-shift matrix (lines x buses) with withdrawal at ``reference``.

    Column ``b`` holds the flow response to one per-unit injected at bus
    ``b`` and extracted at the reference bus; the reference column is
    identically zero.
    """
    index = {b: i for i, b in enumerate(bus_ids)}
    if reference not in index:
        raise SingularNetworkError(f"{context}: reference bus {reference} not present")
    n_bus, n_line = len(bus_ids), len(lines)
    incidence = np.zeros((n_line, n_bus))
    susceptance = np.zeros(n_line)
    for k, ln in enumerate(lines):
        incidence[k, index[ln.from_bus]] = 1.0
        incidence[k, index[ln.to_bus]] = -1.0
        susceptance[k] = 1.0 / ln.reactance_pu
    weighted = susceptance[:, None] * incidence
    b_bus = incidence.T @ weighted
    keep = [i for i in range(n_bus) if i != index[reference]]
    matrix = np.zeros((n_line, n_bus))
    if keep:
        reduced = b_bus[np.ix_(keep, keep)]
        try:
            sol = np.linalg.solve(reduced, weighted[:, keep].T)
        except np.linalg.LinAlgError:
            raise SingularNetworkError(
                f"{context}: reduced susceptance system is singular "
                "(disconnected subnetwork)")
        residual = reduced @ sol - weighted[:, keep].T
        if residual.size and np.max(np.abs(residual)) > 1e-6:
            raise SingularNetworkError(
                f"{context}: reduced susceptance system is ill-conditioned")
        matrix[:, keep] = sol.T
    return matrix, index


@dataclass(frozen=True)
class PtdfMatrix:
    """Deviation sensitivities of study-area line flows.

    Rows follow :attr:`AreaView.line_ids`.  ``nodal`` is the per-bus
    shift matrix of the area subnetwork, one column per bus as
    ``bus_index`` maps them; its tie rows are zero because tie flows
    are controlled inputs, so column ``bus_index[b]`` is the flow
    response of every row to one pu injected at bus ``b``.  ``h_i``
    holds its columns of the internal sources, ``h_e`` those of the tie
    boundary buses plus the identity on the tie rows; together they are
    ``matrix``.
    """

    source_buses: tuple[int, ...]
    h_i: np.ndarray
    h_e: np.ndarray
    nodal: np.ndarray
    bus_index: dict[int, int]

    @property
    def matrix(self) -> np.ndarray:
        return np.hstack([self.h_i, self.h_e])


def compute_ptdf(view: AreaView) -> PtdfMatrix:
    """Build the deviation PTDF of the study area.

    Ties are modeled as injections at their boundary buses balanced at
    the area reference bus, so a tie column equals the boundary bus
    column of the subnetwork shift matrix, and each appended tie row is
    a unit row on its own import variable.
    """
    bus_ids = [b.id for b in view.buses]
    internal, index = _nodal_ptdf(bus_ids, view.internal_lines,
                                  view.reference_bus, context=f"area {view.area}")
    nodal = np.vstack([internal, np.zeros((view.n_e, len(bus_ids)))])
    h_e = nodal[:, [index[t.boundary_bus] for t in view.ties]]
    h_e[len(view.internal_lines):] += np.eye(view.n_e)
    return PtdfMatrix(
        source_buses=view.source_buses,
        h_i=nodal[:, [index[b] for b in view.source_buses]],
        h_e=h_e, nodal=nodal, bus_index=index,
    )


@dataclass(frozen=True)
class NetworkShift:
    """Injection-shift matrix of the full two-area network.

    Rows follow ``lines`` (sorted by line key), columns the buses of the
    case as ``bus_index`` maps them.  Scheduled flows and line-outage
    factors of one case both read it, so it is solved once per case.
    """

    lines: tuple[TransmissionLine, ...]
    nodal: np.ndarray
    bus_index: dict[int, int]


def network_shift(case: NetworkCase) -> NetworkShift:
    """Solve the full-network injection-shift matrix of ``case``."""
    lines = tuple(sorted(case.lines, key=_line_key))
    nodal, index = _nodal_ptdf([b.id for b in case.buses], lines,
                               case.reference_bus, context="full network")
    return NetworkShift(lines, nodal, index)


@dataclass(frozen=True)
class ScheduledFlows:
    """DC flows of the full two-area network at the scheduled dispatch."""

    line_ids: tuple[str, ...]
    p_line_pu: np.ndarray

    def flow(self, line_id: str) -> float:
        return float(self.p_line_pu[self.line_ids.index(line_id)])


def compute_dc_flows(case: NetworkCase,
                     shift: NetworkShift | None = None) -> ScheduledFlows:
    """Solve the full-network DC flows for the scheduled injections.

    ``shift`` is the case's :func:`network_shift`, solved here when not
    given.  Raises :class:`CaseError` when generation and load disagree
    by more than the balance tolerance; the solution would silently dump
    the mismatch on the reference bus otherwise.
    """
    imbalance = case.total_generation() - case.total_load()
    if abs(imbalance) > BALANCE_TOL:
        raise CaseError(
            f"dispatch is unbalanced by {imbalance:+.3e} pu (tolerance "
            f"{BALANCE_TOL:g}); flows undefined")
    shift = network_shift(case) if shift is None else shift
    index = shift.bus_index
    injection = np.zeros(len(index))
    for b in case.buses:
        injection[index[b.id]] -= b.load_pu
    for g in case.generators:
        injection[index[g.bus]] += g.p_sched_pu
    return ScheduledFlows(line_ids=tuple(ln.id for ln in shift.lines),
                          p_line_pu=shift.nodal @ injection)


@dataclass(frozen=True)
class GgdfMatrix:
    """Per-unit-outage flow sensitivities with capacity-weighted pickup.

    Column ``k`` scaled by the lost output ``p_gen_pu[k]`` is the flow
    change on every study-area line (rows in :attr:`AreaView.line_ids`
    order) when unit ``k`` trips and the remaining area units pick up
    the slack in proportion to capacity.
    ``weights[k]`` maps each surviving unit id to its pickup share.
    """

    unit_ids: tuple[str, ...]
    unit_buses: tuple[int, ...]
    matrix: np.ndarray
    p_gen_pu: np.ndarray
    weights: tuple[dict[str, float], ...]

    def column(self, unit_id: str) -> np.ndarray:
        return self.matrix[:, self.unit_ids.index(unit_id)]


def compute_ggdf(view: AreaView, ptdf: PtdfMatrix,
                 units: tuple[Generator, ...] | None = None) -> GgdfMatrix:
    """Build outage distribution columns for the given units.

    ``units`` defaults to every dispatched generator of the area, in
    :attr:`AreaView.units` order.  The replacement power is spread over
    the remaining area units proportionally to their capacity; an area
    with fewer than two units, or no remaining capacity for some outage,
    cannot absorb it and raises :class:`CaseError`.
    """
    area_units = view.units
    if len(area_units) < 2:
        raise CaseError(
            f"area {view.area} needs at least two generators for outage factors")
    if units is None:
        units = tuple(g for g in area_units if g.p_sched_pu > 0.0)
    nodal, index = ptdf.nodal, ptdf.bus_index
    columns = np.zeros((nodal.shape[0], len(units)))
    weight_maps = []
    for j, unit in enumerate(units):
        rest = [m for m in area_units if m.id != unit.id]
        total_cap = sum(m.capacity_pu for m in rest)
        if total_cap <= 0.0:
            raise CaseError(
                f"no remaining capacity to absorb the outage of unit {unit.id}")
        share = {m.id: m.capacity_pu / total_cap for m in rest}
        col = -nodal[:, index[unit.bus]]
        for m in rest:
            col = col + share[m.id] * nodal[:, index[m.bus]]
        columns[:, j] = col
        weight_maps.append(share)
    return GgdfMatrix(
        unit_ids=tuple(u.id for u in units),
        unit_buses=tuple(u.bus for u in units),
        matrix=columns,
        p_gen_pu=np.array([u.p_sched_pu for u in units]),
        weights=tuple(weight_maps),
    )


@dataclass(frozen=True)
class LodfMatrix:
    """Line-outage distribution factors on the full two-area network.

    Rows follow :attr:`AreaView.line_ids`, re-oriented so that tie rows
    measure import into the study area.  Columns cover the non-bridge
    outage candidates; the self row of each column is NaN (the tripped
    line has no post-outage flow of its own).  Bridge candidates are
    excluded and listed in ``bridges``.
    """

    outage_ids: tuple[str, ...]
    matrix: np.ndarray
    bridges: tuple[str, ...]

    def column(self, outage_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(mask, factors)``; ``mask`` is False on the self row."""
        col = self.matrix[:, self.outage_ids.index(outage_id)]
        mask = ~np.isnan(col)
        return mask, np.where(mask, col, 0.0)


def compute_lodf(view: AreaView, outages: tuple[str, ...] | None = None,
                 shift: NetworkShift | None = None) -> LodfMatrix:
    """Distribution factors for single line outages.

    For outage candidate ``h`` the factor on surviving line ``j`` is
    ``phi_jh / (1 - phi_hh)`` where ``phi_.h`` is the full-network shift
    column of a unit transfer from ``from(h)`` to ``to(h)``.  Candidates
    whose removal would split the network (``phi_hh`` at 1) are flagged
    as bridges rather than failed.

    ``outages`` defaults to every study-area line including the ties;
    any line id of the full network is accepted, which lets tests sweep
    the neighbor area as well.  ``shift`` is the :func:`network_shift`
    of ``view.case``, solved here when not given.
    """
    shift = network_shift(view.case) if shift is None else shift
    lines, nodal, index = shift.lines, shift.nodal, shift.bus_index
    line_pos = {ln.id: k for k, ln in enumerate(lines)}
    if outages is None:
        outages = view.line_ids
    for oid in outages:
        if oid not in line_pos:
            raise CaseError("unknown outage line id", oid)

    row_pos = np.array([line_pos[lid] for lid in view.line_ids])
    orient = np.array(view.line_signs)

    kept_cols = []
    kept_ids = []
    bridges = []
    for oid in outages:
        h = line_pos[oid]
        ln = lines[h]
        phi = nodal[:, index[ln.from_bus]] - nodal[:, index[ln.to_bus]]
        denom = 1.0 - phi[h]
        if abs(denom) < BRIDGE_TOL:
            bridges.append(oid)
            continue
        col = orient * (phi[row_pos] / denom)
        if oid in view.line_ids:
            col[view.line_ids.index(oid)] = np.nan
        kept_cols.append(col)
        kept_ids.append(oid)
    matrix = (np.column_stack(kept_cols) if kept_cols
              else np.zeros((len(view.line_ids), 0)))
    return LodfMatrix(outage_ids=tuple(kept_ids), matrix=matrix,
                      bridges=tuple(bridges))
