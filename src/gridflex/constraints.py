"""Deviation limits and stacked inequality blocks over (p_i, p_e).

Every constraint is linear in the deviation vector ``p = (p_i, p_e)``:
internal source deviations (per source bus, ascending id) followed by
tie import deviations.  A block is one row matrix over both, internal
columns first; only its JSON record splits it into ``C_i`` and ``C_e``.
Blocks carry a label per row recording its provenance (line, source
bound, balance, or outage), which survives serialization and makes
infeasibility reports actionable.

Every assembler reads the row and column ids from the :class:`AreaView`.
The PTDF's ``h_i`` may carry more internal columns than the view has
sources: the neighbor study appends ``nodal``, one column per bus.  The
extra columns follow the sources, and the source band then covers the
view's sources and ties only.

Security rows follow the band pattern

    lower + shift <= M p <= upper - shift

for an outage-induced ``shift``.  The shift is signed: where it is
positive it narrows the band from both sides, where it is negative it
widens it (on RTS-96 with full reserves, 474 of the 1,064 nonzero
generator-outage shifts and 794 of the 1,640 line-outage ones are
negative).  A stricter variant for line outages that also
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

    Line margins follow :attr:`AreaView.line_ids` (internal lines then
    ties; tie rows import-oriented), so the tie margins, the remaining
    tie capacities, are their tie rows.  Source margins are the reserve
    bands of the internal sources in :attr:`AreaView.source_buses`
    order.  Lower margins are nonpositive, upper margins nonnegative,
    because the schedule itself is feasible.
    """

    line_up: np.ndarray
    line_dn: np.ndarray
    bus_up: np.ndarray
    bus_dn: np.ndarray


def compute_delta_limits(case: NetworkCase, view: AreaView,
                         flows: ScheduledFlows) -> DeltaLimits:
    """Margins to the line limits and source bounds at the current schedule.

    ``case`` is not read: the view carries its case.  The parameter
    stays for the callers that pass it.
    """
    up, dn = [], []
    for ln, sign in zip(view.internal_lines + tuple(t.line for t in view.ties),
                        view.line_signs):
        sched = sign * flows.flow(ln.id)
        if abs(sched) > ln.flow_limit_pu + _LIMIT_TOL:
            raise CaseError(
                f"scheduled flow {sched:+.4f} pu exceeds limit "
                f"{ln.flow_limit_pu:.4f} pu", ln.id)
        up.append(ln.flow_limit_pu - sched)
        dn.append(-ln.flow_limit_pu - sched)

    band_up = {b: 0.0 for b in view.source_buses}
    band_dn = {b: 0.0 for b in view.source_buses}
    for g in view.units:
        if g.bus in band_up:
            band_up[g.bus] += g.res_up_pu
            band_dn[g.bus] += g.res_dn_pu
    return DeltaLimits(
        line_up=np.array(up),
        line_dn=np.array(dn),
        bus_up=np.array([band_up[b] for b in view.source_buses]),
        bus_dn=np.array([-band_dn[b] for b in view.source_buses]),
    )


@dataclass(frozen=True)
class ConstraintBlock:
    """Rows ``a p <= b`` over ``p = (p_i, p_e)`` with per-row provenance labels.

    The first ``n_i`` columns of ``a`` are the internal deviations, the
    remaining ``n_e`` the tie imports.
    """

    a: np.ndarray
    b: np.ndarray
    labels: tuple[str, ...]
    n_i: int

    def __post_init__(self):
        mat = np.asarray(self.a, dtype=float)
        vec = np.asarray(self.b, dtype=float).reshape(-1)
        if (mat.ndim != 2 or mat.shape[0] != vec.shape[0]
                or len(self.labels) != vec.shape[0]
                or not 0 <= self.n_i <= mat.shape[1]):
            raise GridflexError("constraint block rows or columns disagree")
        object.__setattr__(self, "a", mat)
        object.__setattr__(self, "b", vec)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def nrows(self) -> int:
        return self.b.shape[0]

    @property
    def n_e(self) -> int:
        return self.a.shape[1] - self.n_i

    @classmethod
    def empty(cls, n_i: int, n_e: int) -> "ConstraintBlock":
        return cls(np.zeros((0, n_i + n_e)), np.zeros(0), (), n_i)

    def to_json_dict(self) -> dict:
        return {
            "C_i": [[float(v) for v in row] for row in self.a[:, :self.n_i]],
            "C_e": [[float(v) for v in row] for row in self.a[:, self.n_i:]],
            "b": [float(v) for v in self.b],
            "labels": list(self.labels),
        }


def _band_rows(m, upper, lower, names, n_i: int) -> ConstraintBlock:
    """Rows ``M p <= upper`` then ``-M p <= -lower``, labelled ``name:up``
    and ``name:dn``.  Vacuous rows, with (numerically) no coefficients
    and a nonnegative offset, are dropped."""
    a = np.vstack([m, -m])
    b = np.concatenate([upper, -lower])
    labels = [f"{n}:up" for n in names] + [f"{n}:dn" for n in names]
    keep = ~((np.max(np.abs(a), axis=1, initial=0.0) <= COEF_ZERO_TOL) & (b >= 0))
    return ConstraintBlock(a[keep], b[keep],
                           tuple(l for l, k in zip(labels, keep) if k), n_i)


def _stack(blocks, n_i: int, n_e: int) -> ConstraintBlock:
    """The rows of ``blocks`` in order, all over the same ``n_i + n_e`` columns."""
    blocks = [ConstraintBlock.empty(n_i, n_e), *blocks]
    if any(blk.n_i != n_i or blk.n_e != n_e for blk in blocks):
        raise GridflexError("constraint blocks have mismatched column counts")
    return ConstraintBlock(np.vstack([blk.a for blk in blocks]),
                           np.concatenate([blk.b for blk in blocks]),
                           tuple(l for blk in blocks for l in blk.labels), n_i)


def assemble_nominal(view: AreaView, ptdf: PtdfMatrix,
                     limits: DeltaLimits) -> ConstraintBlock:
    """Base-case block: line bands, source bands, and the balance pair.

    Row order is fixed: upper line rows, lower line rows, upper source
    rows, lower source rows, then the two balance rows encoding
    ``sum(p) = 0`` as an inequality pair.  The source band covers the
    view's sources and ties; where ``ptdf.h_i`` has more columns than
    the view has sources, it is zero on the extra ones.
    """
    n_i, n_e = ptdf.h_i.shape[1], view.n_e
    line_ids, n_int = view.line_ids, len(view.internal_lines)
    eye = np.eye(n_i + n_e)
    return _stack([
        _band_rows(ptdf.matrix, limits.line_up, limits.line_dn,
                   [f"N:line:{l}" for l in line_ids], n_i),
        _band_rows(np.vstack([eye[:view.n_i], eye[n_i:]]),
                   np.concatenate([limits.bus_up, limits.line_up[n_int:]]),
                   np.concatenate([limits.bus_dn, limits.line_dn[n_int:]]),
                   [f"N:bus:{b}" for b in view.source_buses]
                   + [f"N:ext:{t}" for t in line_ids[n_int:]], n_i),
        # A lower bound of -0.0 keeps both balance offsets at +0.0.
        _band_rows(np.ones((1, n_i + n_e)), np.zeros(1), np.array([-0.0]),
                   ["N:balance"], n_i),
    ], n_i, n_e)


def assemble_generator_outages(view: AreaView, ptdf: PtdfMatrix,
                               ggdf: GgdfMatrix, limits: DeltaLimits,
                               units: tuple[str, ...] | None = None) -> ConstraintBlock:
    """Security rows for every generator outage.

    For outage ``k`` the deviation sensitivities are the PTDF with the
    outaged source's column shifted by the outage distribution column:
    a deviation ordered from the dead unit's bus is redistributed like
    its lost output.  The outage constant ``G_k * Pgen_k`` moves both
    band sides by its value: inward where it is positive, outward where
    it is negative.
    """
    if units is None:
        units = ggdf.unit_ids
    n_i, h, line_ids = ptdf.h_i.shape[1], ptdf.matrix, view.line_ids
    source_index = {b: j for j, b in enumerate(view.source_buses)}
    blocks = []
    for uid in units:
        if uid not in ggdf.unit_ids:
            raise GridflexError(f"no outage column for generator {uid}")
        j = ggdf.unit_ids.index(uid)
        g_col = ggdf.matrix[:, j]
        shift = g_col * ggdf.p_gen_pu[j]
        q = h.copy()
        bus = ggdf.unit_buses[j]
        if bus in source_index:
            q[:, source_index[bus]] += g_col
        blocks.append(_band_rows(
            q, limits.line_up - shift, limits.line_dn + shift,
            [f"G:{uid}:line:{l}" for l in line_ids], n_i))
    return _stack(blocks, n_i, view.n_e)


def assemble_line_outages(view: AreaView, ptdf: PtdfMatrix, lodf: LodfMatrix,
                          limits: DeltaLimits, flows: ScheduledFlows,
                          outages: tuple[str, ...] | None = None,
                          strict: bool = False) -> ConstraintBlock:
    """Security rows for every line outage in the candidate set.

    Non-strict rows bound the redistributed flow ``L_j (row_j . p)``
    against the margins moved by ``L_j * sched_j`` on both sides: inward
    where that shift is positive, outward where it is negative.
    The strict variant instead bounds the physical post-outage flow,
    adding the base deviation term and flipping the lower-side constant.
    Bridges must have been excluded upstream.  The internal columns are
    those of ``ptdf.h_i``, which may carry more than the view's sources.
    """
    if outages is None:
        outages = lodf.outage_ids
    n_i, h, line_ids = ptdf.h_i.shape[1], ptdf.matrix, view.line_ids
    orient = view.line_signs
    blocks = []
    for oid in outages:
        if oid in lodf.bridges:
            raise CaseError(
                f"line {oid} is a bridge and cannot be a security outage")
        if oid not in lodf.outage_ids:
            raise GridflexError(f"no outage column for line {oid}")
        mask, l_col = lodf.column(oid)
        if oid in line_ids:
            k = line_ids.index(oid)
            row = orient[k] * h[k]
        else:
            row = np.zeros(h.shape[1])
        r = np.outer(l_col, row)
        shift = l_col * flows.flow(oid)
        m = h + r if strict else r
        lower = limits.line_dn - shift if strict else limits.line_dn + shift
        blocks.append(_band_rows(
            m[mask], (limits.line_up - shift)[mask], lower[mask],
            [f"L:{oid}:line:{l}" for l, k in zip(line_ids, mask) if k],
            n_i))
    return _stack(blocks, n_i, view.n_e)


def stack_n1(nominal: ConstraintBlock, gen_block: ConstraintBlock,
             line_block: ConstraintBlock) -> ConstraintBlock:
    """Vertical concatenation: nominal rows, then generator, then line outages."""
    return _stack((nominal, gen_block, line_block), nominal.n_i, nominal.n_e)
