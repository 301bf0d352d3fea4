"""Deviation limits and stacked inequality blocks over (p_i, p_e).

Every constraint is linear in the deviation vector ``p = (p_i, p_e)``:
internal source deviations (per source bus, ascending id) followed by
tie import deviations.  Blocks carry a label per row recording its
provenance (line, source bound, balance, or outage), which survives
serialization and makes infeasibility reports actionable.

Security rows follow the band pattern

    lower + shift <= M p <= upper - shift

for an outage-induced ``shift``, i.e. the outage constant tightens the
band from both sides.  A stricter variant for line outages that also
tracks the base-case deviation flow is available behind a flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CaseError, GridflexError
from .network import AreaView, NetworkCase
from .sensitivity import GgdfMatrix, LodfMatrix, PtdfMatrix, ScheduledFlows

COEF_ZERO_TOL = 1e-10
_LIMIT_TOL = 1e-9


@dataclass(frozen=True)
class DeltaLimits:
    """Remaining margins around the scheduled operating point.

    Line margins follow the view row order (internal lines then ties;
    tie rows import-oriented).  Source margins are the reserve bands of
    the internal sources and the remaining tie capacities for the
    external ones.  Lower margins are nonpositive, upper margins
    nonnegative, because the schedule itself is feasible.
    """

    line_ids: tuple[str, ...]
    line_up: np.ndarray
    line_dn: np.ndarray
    source_buses: tuple[int, ...]
    bus_up: np.ndarray
    bus_dn: np.ndarray
    tie_ids: tuple[str, ...]
    ext_up: np.ndarray
    ext_dn: np.ndarray


def compute_delta_limits(case: NetworkCase, view: AreaView,
                         flows: ScheduledFlows) -> DeltaLimits:
    """Margins to the line limits and source bounds at the current schedule."""
    flow_of = dict(zip(flows.line_ids, flows.p_line_pu))
    up, dn = [], []
    for ln in view.internal_lines:
        sched = flow_of[ln.id]
        if abs(sched) > ln.flow_limit_pu + _LIMIT_TOL:
            raise CaseError(
                f"scheduled flow {sched:+.4f} pu exceeds limit "
                f"{ln.flow_limit_pu:.4f} pu", ln.id)
        up.append(ln.flow_limit_pu - sched)
        dn.append(-ln.flow_limit_pu - sched)
    ext_up, ext_dn = [], []
    for tie in view.ties:
        sched = tie.import_sign * flow_of[tie.line.id]
        cap = tie.line.flow_limit_pu
        if abs(sched) > cap + _LIMIT_TOL:
            raise CaseError(
                f"scheduled flow {sched:+.4f} pu exceeds limit {cap:.4f} pu",
                tie.line.id)
        ext_up.append(cap - sched)
        ext_dn.append(-cap - sched)
        up.append(cap - sched)
        dn.append(-cap - sched)

    band_up = {b: 0.0 for b in view.source_buses}
    band_dn = {b: 0.0 for b in view.source_buses}
    for g in view.area_generators():
        if g.bus in band_up:
            band_up[g.bus] += g.res_up_pu
            band_dn[g.bus] += g.res_dn_pu
    return DeltaLimits(
        line_ids=view.line_ids,
        line_up=np.array(up),
        line_dn=np.array(dn),
        source_buses=view.source_buses,
        bus_up=np.array([band_up[b] for b in view.source_buses]),
        bus_dn=np.array([-band_dn[b] for b in view.source_buses]),
        tie_ids=tuple(t.line.id for t in view.ties),
        ext_up=np.array(ext_up),
        ext_dn=np.array(ext_dn),
    )


@dataclass(frozen=True)
class ConstraintBlock:
    """Rows ``c_i p_i + c_e p_e <= b`` with per-row provenance labels."""

    c_i: np.ndarray
    c_e: np.ndarray
    b: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        ci = np.atleast_2d(np.asarray(self.c_i, dtype=float))
        ce = np.atleast_2d(np.asarray(self.c_e, dtype=float))
        vec = np.asarray(self.b, dtype=float).reshape(-1)
        rows = vec.shape[0]
        if ci.size == 0:
            ci = ci.reshape(rows, ci.shape[1] if ci.ndim == 2 else 0)
        if ce.size == 0:
            ce = ce.reshape(rows, ce.shape[1] if ce.ndim == 2 else 0)
        if ci.shape[0] != rows or ce.shape[0] != rows or len(self.labels) != rows:
            raise GridflexError("constraint block row counts disagree")
        object.__setattr__(self, "c_i", ci)
        object.__setattr__(self, "c_e", ce)
        object.__setattr__(self, "b", vec)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def nrows(self) -> int:
        return self.b.shape[0]

    @property
    def n_i(self) -> int:
        return self.c_i.shape[1]

    @property
    def n_e(self) -> int:
        return self.c_e.shape[1]

    @classmethod
    def empty(cls, n_i: int, n_e: int) -> "ConstraintBlock":
        return cls(np.zeros((0, n_i)), np.zeros((0, n_e)), np.zeros(0), ())

    def to_json_dict(self) -> dict:
        return {
            "C_i": [[float(v) for v in row] for row in self.c_i],
            "C_e": [[float(v) for v in row] for row in self.c_e],
            "b": [float(v) for v in self.b],
            "labels": list(self.labels),
        }


def _drop_vacuous(c_i, c_e, b, labels):
    """Drop rows with (numerically) no coefficients and a nonnegative offset."""
    stacked = np.hstack([c_i, c_e]) if c_i.shape[1] + c_e.shape[1] else c_i
    vacuous = (np.max(np.abs(stacked), axis=1, initial=0.0) <= COEF_ZERO_TOL) & (b >= 0)
    keep = ~vacuous
    return (c_i[keep], c_e[keep], b[keep],
            tuple(l for l, k in zip(labels, keep) if k))


def _band_rows(m_i, m_e, upper, lower, up_labels, dn_labels):
    """Emit ``M p <= upper`` and ``-M p <= -lower`` row pairs."""
    c_i = np.vstack([m_i, -m_i])
    c_e = np.vstack([m_e, -m_e])
    b = np.concatenate([upper, -lower])
    return c_i, c_e, b, tuple(up_labels) + tuple(dn_labels)


def assemble_nominal(view: AreaView, ptdf: PtdfMatrix,
                     limits: DeltaLimits) -> ConstraintBlock:
    """Base-case block: line bands, source bands, and the balance pair.

    Row order is fixed: upper line rows, lower line rows, upper source
    rows, lower source rows, then the two balance rows encoding
    ``sum(p) = 0`` as an inequality pair.
    """
    n_i, n_e = view.n_i, view.n_e
    line_ci, line_ce, line_b, line_labels = _band_rows(
        ptdf.h_i, ptdf.h_e, limits.line_up, limits.line_dn,
        (f"N:line:{l}:up" for l in limits.line_ids),
        (f"N:line:{l}:dn" for l in limits.line_ids))

    bus_upper = np.concatenate([limits.bus_up, limits.ext_up])
    bus_lower = np.concatenate([limits.bus_dn, limits.ext_dn])
    eye = np.eye(n_i + n_e)
    bus_ci, bus_ce, bus_b, bus_labels = _band_rows(
        eye[:, :n_i], eye[:, n_i:], bus_upper, bus_lower,
        [f"N:bus:{b}:up" for b in limits.source_buses]
        + [f"N:ext:{t}:up" for t in limits.tie_ids],
        [f"N:bus:{b}:dn" for b in limits.source_buses]
        + [f"N:ext:{t}:dn" for t in limits.tie_ids])

    bal_ci = np.vstack([np.ones((1, n_i)), -np.ones((1, n_i))])
    bal_ce = np.vstack([np.ones((1, n_e)), -np.ones((1, n_e))])
    bal_b = np.zeros(2)

    c_i = np.vstack([line_ci, bus_ci, bal_ci])
    c_e = np.vstack([line_ce, bus_ce, bal_ce])
    b = np.concatenate([line_b, bus_b, bal_b])
    labels = line_labels + bus_labels + ("N:balance:up", "N:balance:dn")
    return ConstraintBlock(*_drop_vacuous(c_i, c_e, b, labels))


def assemble_generator_outages(view: AreaView, ptdf: PtdfMatrix,
                               ggdf: GgdfMatrix, limits: DeltaLimits,
                               units: tuple[str, ...] | None = None) -> ConstraintBlock:
    """Security rows for every generator outage.

    For outage ``k`` the deviation sensitivities are the PTDF with the
    outaged source's column shifted by the outage distribution column:
    a deviation ordered from the dead unit's bus is redistributed like
    its lost output.  The outage constant ``G_k * Pgen_k`` tightens both
    band sides.
    """
    if units is None:
        units = ggdf.unit_ids
    blocks = []
    source_index = {b: j for j, b in enumerate(view.source_buses)}
    for uid in units:
        if uid not in ggdf.unit_ids:
            raise GridflexError(f"no outage column for generator {uid}")
        j = ggdf.unit_ids.index(uid)
        g_col = ggdf.matrix[:, j]
        shift = g_col * ggdf.p_gen_pu[j]
        q_i = ptdf.h_i.copy()
        bus = ggdf.unit_buses[j]
        if bus in source_index:
            q_i[:, source_index[bus]] += g_col
        c_i, c_e, b, labels = _band_rows(
            q_i, ptdf.h_e, limits.line_up - shift, limits.line_dn + shift,
            (f"G:{uid}:line:{l}:up" for l in limits.line_ids),
            (f"G:{uid}:line:{l}:dn" for l in limits.line_ids))
        blocks.append(_drop_vacuous(c_i, c_e, b, labels))
    return _concat_blocks(blocks, ptdf.h_i.shape[1], view.n_e)


def assemble_line_outages(view: AreaView, ptdf: PtdfMatrix, lodf: LodfMatrix,
                          limits: DeltaLimits, flows: ScheduledFlows,
                          outages: tuple[str, ...] | None = None,
                          strict: bool = False) -> ConstraintBlock:
    """Security rows for every line outage in the candidate set.

    Non-strict rows bound the redistributed flow ``L_j (row_j . p)``
    against the margins tightened by ``L_j * sched_j`` on both sides.
    The strict variant instead bounds the physical post-outage flow,
    adding the base deviation term and flipping the lower-side constant.
    Bridges must have been excluded upstream.  The internal columns are
    those of ``ptdf.h_i``, which may carry more than the view's sources.
    """
    if outages is None:
        outages = lodf.outage_ids
    flow_of = dict(zip(flows.line_ids, flows.p_line_pu))
    n_i = ptdf.h_i.shape[1]
    n_rows = len(view.line_ids)
    orient = np.ones(n_rows)
    for j, tie in enumerate(view.ties):
        orient[len(view.internal_lines) + j] = tie.import_sign
    blocks = []
    for oid in outages:
        if oid in lodf.bridges:
            raise GridflexError(
                f"line {oid} is a bridge and cannot be a security outage")
        if oid not in lodf.outage_ids:
            raise GridflexError(f"no outage column for line {oid}")
        mask, l_col = lodf.column(oid)
        if oid in view.line_ids:
            k = view.line_ids.index(oid)
            row = orient[k] * np.concatenate([ptdf.h_i[k], ptdf.h_e[k]])
        else:
            row = np.zeros(n_i + view.n_e)
        sched = flow_of[oid]
        r = np.outer(l_col, row)
        shift = l_col * sched
        if strict:
            m_i = ptdf.h_i + r[:, :n_i]
            m_e = ptdf.h_e + r[:, n_i:]
            upper = limits.line_up - shift
            lower = limits.line_dn - shift
        else:
            m_i, m_e = r[:, :n_i], r[:, n_i:]
            upper = limits.line_up - shift
            lower = limits.line_dn + shift
        c_i, c_e, b, labels = _band_rows(
            m_i[mask], m_e[mask], upper[mask], lower[mask],
            (f"L:{oid}:line:{l}:up" for l, m in zip(limits.line_ids, mask) if m),
            (f"L:{oid}:line:{l}:dn" for l, m in zip(limits.line_ids, mask) if m))
        blocks.append(_drop_vacuous(c_i, c_e, b, labels))
    return _concat_blocks(blocks, n_i, view.n_e)


def _concat_blocks(blocks, n_i, n_e) -> ConstraintBlock:
    if not blocks:
        return ConstraintBlock.empty(n_i, n_e)
    c_i = np.vstack([blk[0] for blk in blocks])
    c_e = np.vstack([blk[1] for blk in blocks])
    b = np.concatenate([blk[2] for blk in blocks])
    labels = tuple(l for blk in blocks for l in blk[3])
    return ConstraintBlock(c_i, c_e, b, labels)


def stack_n1(nominal: ConstraintBlock, gen_block: ConstraintBlock,
             line_block: ConstraintBlock) -> ConstraintBlock:
    """Vertical concatenation: nominal rows, then generator, then line outages."""
    for blk in (gen_block, line_block):
        if blk.n_i != nominal.n_i or blk.n_e != nominal.n_e:
            raise GridflexError("constraint blocks have mismatched column counts")
    return ConstraintBlock(
        np.vstack([nominal.c_i, gen_block.c_i, line_block.c_i]),
        np.vstack([nominal.c_e, gen_block.c_e, line_block.c_e]),
        np.concatenate([nominal.b, gen_block.b, line_block.b]),
        nominal.labels + gen_block.labels + line_block.labels,
    )
