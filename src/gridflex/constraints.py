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

An outage block emits only the rows that can bind.  Of rows that are
positive multiples of one another it keeps the one
:func:`polytope.normalize_rows` would keep, as assembled and with its
label: per non-strict line outage one row per sign, and per line and
side one row for all units at buses without a source column.  On
RTS-96 (active ``n1``) that keeps 82 of 3,280 line-outage rows, and 82
of 2,296 generator-outage rows with file reserves, where no area unit
has a source column; with full reserves every dispatched unit has one,
and all 2,296 stay.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import CaseError, GridflexError
from .network import AreaView, NetworkCase
from .sensitivity import GgdfMatrix, LodfMatrix, PtdfMatrix, ScheduledFlows

COEF_ZERO_TOL = 1e-10
# A row whose offset lies below -ORIGIN_TOL excludes the scheduled point.
ORIGIN_TOL = 1e-9
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
                           tuple(chain.from_iterable(blk.labels for blk in blocks)),
                           n_i)


def _watched(view: AreaView, monitored) -> np.ndarray:
    """Mask over :attr:`AreaView.line_ids` of the lines in ``monitored``,
    every line when it is ``None``."""
    if monitored is None:
        return np.ones(len(view.line_ids), dtype=bool)
    watch = set(monitored)
    unknown = watch.difference(view.line_ids)
    if unknown:
        raise GridflexError(f"monitored lines not in area {view.area}: "
                            f"{', '.join(sorted(unknown))}")
    # Not np.isin: on these sizes it sorts with np.unique, which imports
    # numpy.ma on its first call.
    return np.array([l in watch for l in view.line_ids], dtype=bool)


def _first_least(score: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Index of the first entry of least ``score`` in each ``group``."""
    size = group.max(initial=-1) + 1
    least = np.full(size, np.inf)
    np.minimum.at(least, group, score)
    tied = np.flatnonzero(score == least[group])
    first = np.full(size, len(score))
    np.minimum.at(first, group[tied], tied)
    return first[first < len(score)]


def _outage_block(names, line_ids, a, upper, lower, rows, group,
                  n_i: int) -> ConstraintBlock:
    """Rows ``a[k, l] p <= upper[k, l]`` and ``-a[k, l] p <= -lower[k, l]``
    of outage ``k`` and monitored line ``l`` where ``rows[k, l]``, in
    order of outage, side (up, dn) and line, labelled
    ``<names[k]>:line:<l>:up`` and ``:dn``.

    ``group[k, side, l]`` numbers the rows that are positive multiples of
    one another.  Of the rows of one group with a coefficient above
    ``COEF_ZERO_TOL``, only the first of least offset over row norm
    stays: the one :func:`polytope.normalize_rows` keeps, unless two
    offsets lie within its 1e-15 tie tolerance.  Every row
    with an offset below ``-ORIGIN_TOL`` stays too, as does every row of
    no coefficient but a negative offset; the other rows of no
    coefficient are vacuous and go.
    """
    offset = np.stack([upper, -lower], axis=1)
    coef = np.max(np.abs(a), axis=2, initial=0.0)[:, None, :]
    rows = np.broadcast_to(rows[:, None, :], offset.shape)
    keep = rows & ((offset < -ORIGIN_TOL)
                   | ((coef <= COEF_ZERO_TOL) & (offset < 0)))
    live = np.flatnonzero(rows & (coef > COEF_ZERO_TOL))
    norm = np.broadcast_to(np.linalg.norm(a, axis=2)[:, None, :], offset.shape)
    tight = _first_least(offset.reshape(-1)[live] / norm.reshape(-1)[live],
                         group.reshape(-1)[live])
    keep = keep.reshape(-1)
    keep[live[tight]] = True
    k, side, l = np.unravel_index(np.flatnonzero(keep), offset.shape)
    coefs = a[k, l]
    coefs[side == 1] *= -1.0
    tails = [[f":line:{line}:{name}" for line in line_ids] for name in ("up", "dn")]
    return ConstraintBlock(coefs, offset[k, side, l], [
        names[i] + tails[s][j]
        for i, s, j in zip(k.tolist(), side.tolist(), l.tolist())], n_i)


def assemble_nominal(view: AreaView, ptdf: PtdfMatrix, limits: DeltaLimits,
                     monitored: tuple[str, ...] | None = None) -> ConstraintBlock:
    """Base-case block: line bands, source bands, and the balance pair.

    Row order is fixed: upper line rows, lower line rows, upper source
    rows, lower source rows, then the two balance rows encoding
    ``sum(p) = 0`` as an inequality pair.  The source band covers the
    view's sources and ties; where ``ptdf.h_i`` has more columns than
    the view has sources, it is zero on the extra ones.  Only the lines
    in ``monitored`` (default: every line) get a band; a tie left out
    loses its source band too, which is the same row.
    """
    n_i, n_e = ptdf.h_i.shape[1], view.n_e
    line_ids, n_int = view.line_ids, len(view.internal_lines)
    watch = _watched(view, monitored)
    ties = watch[n_int:]
    eye = np.eye(n_i + n_e)
    return _stack([
        _band_rows(ptdf.matrix[watch], limits.line_up[watch],
                   limits.line_dn[watch],
                   [f"N:line:{l}" for l, w in zip(line_ids, watch) if w], n_i),
        _band_rows(np.vstack([eye[:view.n_i], eye[n_i:][ties]]),
                   np.concatenate([limits.bus_up, limits.line_up[n_int:][ties]]),
                   np.concatenate([limits.bus_dn, limits.line_dn[n_int:][ties]]),
                   [f"N:bus:{b}" for b in view.source_buses]
                   + [f"N:ext:{t}" for t, w in zip(line_ids[n_int:], ties) if w],
                   n_i),
        # A lower bound of -0.0 keeps both balance offsets at +0.0.
        _band_rows(np.ones((1, n_i + n_e)), np.zeros(1), np.array([-0.0]),
                   ["N:balance"], n_i),
    ], n_i, n_e)


def assemble_generator_outages(view: AreaView, ptdf: PtdfMatrix,
                               ggdf: GgdfMatrix, limits: DeltaLimits,
                               units: tuple[str, ...] | None = None,
                               monitored: tuple[str, ...] | None = None
                               ) -> ConstraintBlock:
    """Security rows for every generator outage.

    For outage ``k`` the deviation sensitivities are the PTDF with the
    outaged source's column shifted by the outage distribution column:
    a deviation ordered from the dead unit's bus is redistributed like
    its lost output.  The outage constant ``G_k * Pgen_k`` moves both
    band sides by its value: inward where it is positive, outward where
    it is negative.  A unit at a bus with no source column keeps the
    PTDF rows as they are, so the rows of all such units on one line
    and side differ only in their offsets: of those, only the tightest
    stays (:func:`_outage_block`), labelled with its unit.  Only the
    lines in ``monitored`` (default: every line) get rows.
    """
    if units is None:
        units = ggdf.unit_ids
    for uid in units:
        if uid not in ggdf.unit_ids:
            raise GridflexError(f"no outage column for generator {uid}")
    n_i, h, line_ids = ptdf.h_i.shape[1], ptdf.matrix, view.line_ids
    cols = [ggdf.unit_ids.index(uid) for uid in units]
    g = ggdf.matrix[:, cols].T
    shift = g * ggdf.p_gen_pu[cols][:, None]
    source_index = {b: j for j, b in enumerate(view.source_buses)}
    source = np.array([source_index.get(ggdf.unit_buses[j], -1) for j in cols],
                      dtype=np.intp)
    shifted = np.flatnonzero(source >= 0)
    q = np.repeat(h[None], len(cols), axis=0)
    q[shifted, :, source[shifted]] += g[shifted]
    n_l = len(line_ids)
    # Units with a source column: a group per row.  The others share one
    # group per line and side.
    group = np.arange(2 * n_l * len(cols)).reshape(len(cols), 2, n_l) + 2 * n_l
    group[source < 0] = np.arange(2 * n_l).reshape(2, n_l)
    return _outage_block(
        [f"G:{uid}" for uid in units], line_ids, q, limits.line_up - shift,
        limits.line_dn + shift,
        np.broadcast_to(_watched(view, monitored), shift.shape), group, n_i)


def assemble_line_outages(view: AreaView, ptdf: PtdfMatrix, lodf: LodfMatrix,
                          limits: DeltaLimits, flows: ScheduledFlows,
                          outages: tuple[str, ...] | None = None,
                          strict: bool = False,
                          monitored: tuple[str, ...] | None = None
                          ) -> ConstraintBlock:
    """Security rows for every line outage in the candidate set.

    Non-strict rows bound the redistributed flow ``L_j (row_j . p)``
    against the margins moved by ``L_j * sched_j`` on both sides: inward
    where that shift is positive, outward where it is negative.  Every
    such row of outage ``j`` is a multiple of the outaged line's own row
    ``row_j``, so together they keep ``row_j . p`` inside one interval:
    per outage only the tightest row of each sign stays
    (:func:`_outage_block`), labelled with its monitored line.
    The strict variant instead bounds the physical post-outage flow,
    adding the base deviation term and flipping the lower-side constant;
    its rows are not parallel, and all of them stay.
    Bridges must have been excluded upstream.  The internal columns are
    those of ``ptdf.h_i``, which may carry more than the view's sources.
    Only the lines in ``monitored`` (default: every line) get rows.
    """
    if outages is None:
        outages = lodf.outage_ids
    for oid in outages:
        if oid in lodf.bridges:
            raise CaseError(
                f"line {oid} is a bridge and cannot be a security outage")
        if oid not in lodf.outage_ids:
            raise GridflexError(f"no outage column for line {oid}")
    n_i, h, line_ids = ptdf.h_i.shape[1], ptdf.matrix, view.line_ids
    factors = np.ascontiguousarray(
        lodf.matrix[:, [lodf.outage_ids.index(o) for o in outages]].T)
    own = np.isnan(factors)
    factors[own] = 0.0
    # Each outaged line's row, import-oriented; zero outside the area.
    row = np.zeros((len(outages), h.shape[1]))
    at = [(k, line_ids.index(o)) for k, o in enumerate(outages) if o in line_ids]
    if at:
        k, j = np.array(at).T
        row[k] = np.array(view.line_signs)[j, None] * h[j]
    shift = factors * np.array([flows.flow(o) for o in outages])[:, None]
    m = factors[:, :, None] * row[:, None, :]
    n_l = len(line_ids)
    if strict:
        m = h + m
        group = np.arange(2 * n_l * len(outages)).reshape(len(outages), 2, n_l)
    else:
        # One group per outage and sign of the multiple of ``row``.
        negative = np.sign(factors)[:, None, :] * np.array([[1.0], [-1.0]]) < 0
        group = 2 * np.arange(len(outages))[:, None, None] + negative
    lower = limits.line_dn - shift if strict else limits.line_dn + shift
    return _outage_block([f"L:{oid}" for oid in outages], line_ids, m,
                         limits.line_up - shift, lower,
                         ~own & _watched(view, monitored), group, n_i)


def stack_n1(nominal: ConstraintBlock, gen_block: ConstraintBlock,
             line_block: ConstraintBlock) -> ConstraintBlock:
    """Vertical concatenation: nominal rows, then generator, then line outages."""
    return _stack((nominal, gen_block, line_block), nominal.n_i, nominal.n_e)
