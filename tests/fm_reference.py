"""Reference oracles the tests check gridflex against.

Fourier-Motzkin elimination (:func:`fourier_motzkin`) projects a
polytope by pairing rows, one variable at a time, with LP redundancy
removal after every step.  It shares no algorithm with
:func:`gridflex.polytope.project` (hull refinement), so the two
cross-check each other.  :func:`verify_nodal_balance` checks Kirchhoff's
current law on a set of scheduled flows.

Pytest does not collect this module; tests import it by name, as they do
``conftest``.
"""

from __future__ import annotations

import numpy as np

from gridflex.errors import (GridflexError, InfeasibleSetError,
                             ProjectionSizeError)
from gridflex.lp import FEASIBILITY_TOL, maximize
from gridflex.network import NetworkCase
from gridflex.polytope import (DEFAULT_ROW_CAP, REDUNDANCY_TOL, _ZERO_ROW_TOL,
                               HPolytope, _checked_keep, is_feasible,
                               normalize_rows)
from gridflex.sensitivity import ScheduledFlows

_KCL_TOL = 1e-8


def _bounds_from_rows(a: np.ndarray, b: np.ndarray):
    """Per-variable bounds implied by single-coefficient rows.

    Only rows of the system itself are used, so any pruning decision
    based on these bounds stays valid while those rows are present.
    """
    dim = a.shape[1]
    lo = np.full(dim, -np.inf)
    hi = np.full(dim, np.inf)
    if a.shape[0] == 0:
        return lo, hi
    support = np.abs(a) > 1e-12
    single = support.sum(axis=1) == 1
    for i in np.nonzero(single)[0]:
        j = int(np.argmax(support[i]))
        coef = a[i, j]
        if coef > 0:
            hi[j] = min(hi[j], b[i] / coef)
        else:
            lo[j] = max(lo[j], b[i] / coef)
    return lo, hi


def _box_redundant(a: np.ndarray, b: np.ndarray, lo, hi, tol: float):
    """Rows whose maximum over the row-implied box stays below ``b - tol``."""
    pos = np.clip(a, 0.0, None)
    neg = np.clip(a, None, 0.0)
    box_max = pos @ np.where(np.isfinite(hi), hi, 0.0) + \
        neg @ np.where(np.isfinite(lo), lo, 0.0)
    support = (a != 0.0).astype(float)
    unbounded = (~np.isfinite(hi) | ~np.isfinite(lo)).astype(float)
    touches_unbounded = (support @ unbounded) > 0.5
    return (~touches_unbounded) & (box_max <= b - tol)


def remove_redundant(poly: HPolytope, tol: float = REDUNDANCY_TOL) -> HPolytope:
    """Drop the rows redundant by more than ``tol``; the set is unchanged.

    A row is dropped when maximizing its left-hand side over the
    remaining rows cannot exceed its offset minus ``tol``, so a row that
    touches the set without being a facet stays.  Cheap filters run
    first: duplicate merging during normalization, then a box filter
    against the single-variable bound rows of the system.  The LP pass
    keeps a cloud of feasible points collected from LP optima; any row
    already tight at a cloud point is provably needed and skips its LP.
    """
    p = normalize_rows(poly)
    feasible, witness = is_feasible(p)
    if not feasible:
        raise InfeasibleSetError("cannot reduce an empty polytope")
    if p.nrows <= 1:
        return p

    a, b = p.A, p.b
    keep = np.ones(p.nrows, dtype=bool)
    lo, hi = _bounds_from_rows(a, b)
    keep[_box_redundant(a, b, lo, hi, tol)] = False

    cloud = [witness]
    for i in range(p.nrows):
        if not keep[i]:
            continue
        scores = np.array([float(a[i] @ w) for w in cloud])
        if np.any(scores > b[i] - tol):
            continue
        others = keep.copy()
        others[i] = False
        if not np.any(others):
            continue
        res = maximize(a[i], a[others], b[others])
        if res.status == "unbounded":
            continue
        if not res.optimal:
            raise InfeasibleSetError("row subsystem unexpectedly infeasible")
        if res.value <= b[i] - tol:
            keep[i] = False
        elif np.all(a[keep] @ res.x <= b[keep] + FEASIBILITY_TOL):
            cloud.append(res.x)
    return HPolytope(a[keep], b[keep], p.labels)


def eliminate_variable(poly: HPolytope, var: str) -> HPolytope:
    """One exact Fourier-Motzkin step: project out dimension ``var``.

    Every positive-coefficient row pairs with every negative one; rows
    not involving the variable pass through.  No pruning happens here;
    :func:`fourier_motzkin` interleaves elimination with redundancy removal.
    """
    k = poly.column(var)
    a, b = poly.A, poly.b
    col = a[:, k] if a.size else np.zeros(0)
    pos = col > _ZERO_ROW_TOL
    neg = col < -_ZERO_ROW_TOL
    zero = ~(pos | neg)
    rest = np.delete(a, k, axis=1)
    labels = poly.labels[:k] + poly.labels[k + 1:]

    blocks_a = [rest[zero]]
    blocks_b = [b[zero]]
    if np.any(pos) and np.any(neg):
        cp = col[pos]
        cn = -col[neg]
        ap, bp = rest[pos], b[pos]
        an, bn = rest[neg], b[neg]
        new_a = cp[:, None, None] * an[None, :, :] + cn[None, :, None] * ap[:, None, :]
        new_b = cp[:, None] * bn[None, :] + cn[None, :] * bp[:, None]
        blocks_a.append(new_a.reshape(-1, rest.shape[1]))
        blocks_b.append(new_b.reshape(-1))
    combined = HPolytope(np.vstack(blocks_a), np.concatenate(blocks_b), labels)
    return normalize_rows(combined)


def _pair_cost(poly: HPolytope, label: str) -> int:
    col = poly.A[:, poly.column(label)]
    pos = int(np.sum(col > _ZERO_ROW_TOL))
    neg = int(np.sum(col < -_ZERO_ROW_TOL))
    return pos * neg


def fourier_motzkin(poly: HPolytope, keep, tol: float = REDUNDANCY_TOL,
                    row_cap: int = DEFAULT_ROW_CAP) -> HPolytope:
    """Exact projection onto ``keep`` by Fourier-Motzkin elimination.

    The reference method :func:`gridflex.polytope.project` is tested
    against.  Variables are eliminated one at a time, cheapest first
    (smallest positive-times-negative row product), with
    :func:`remove_redundant` after every step, so rows that only touch
    the result may stay.  When a step would generate more rows than
    ``row_cap`` a :class:`ProjectionSizeError` is raised instead of
    thrashing.
    """
    keep = _checked_keep(poly, keep)
    current = remove_redundant(poly, tol)
    while True:
        extra = [l for l in current.labels if l not in keep]
        if not extra:
            break
        label = min(extra, key=lambda l: (_pair_cost(current, l), l))
        col = current.A[:, current.column(label)]
        pos = int(np.sum(col > _ZERO_ROW_TOL))
        neg = int(np.sum(col < -_ZERO_ROW_TOL))
        predicted = current.nrows - pos - neg + pos * neg
        if predicted > row_cap:
            raise ProjectionSizeError(
                f"eliminating '{label}' would create {predicted} rows "
                f"(cap {row_cap}); retry with a coarser redundancy tolerance "
                "or a larger row cap")
        current = remove_redundant(eliminate_variable(current, label), tol)
    order = [current.column(l) for l in keep]
    return HPolytope(current.A[:, order], current.b, tuple(keep))


def verify_nodal_balance(case: NetworkCase, flows: ScheduledFlows,
                         tol: float = _KCL_TOL) -> float:
    """Largest nodal mismatch between incident flows and net injection."""
    lines = {ln.id: ln for ln in case.lines}
    net = {b.id: -b.load_pu for b in case.buses}
    for g in case.generators:
        net[g.bus] += g.p_sched_pu
    for lid, f in zip(flows.line_ids, flows.p_line_pu):
        ln = lines[lid]
        net[ln.from_bus] -= f
        net[ln.to_bus] += f
    worst = max(abs(v) for v in net.values())
    if worst > tol:
        raise GridflexError(f"nodal balance violated by {worst:.2e} pu")
    return worst
