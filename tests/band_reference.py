"""Reference builder of the full outage bands the tests check gridflex against.

:func:`generator_outage_bands` and :func:`line_outage_bands` emit, per
outage, the whole two-sided band over every line, one outage at a time:
no row is left out but the outaged line's own and the vacuous ones (no
coefficient above ``COEF_ZERO_TOL`` and a nonnegative offset).  The
package's assemblers keep only the rows that can bind, so each of their
rows must be one of these, to the byte and with the same label, and
:func:`gridflex.polytope.normalize_rows` must keep the same rows from
either stack.  :func:`full_stack` stacks the bands of one flexibility
set as ``Study.assemble`` does, and :func:`full_neighbor_stack` builds
the neighbor's rows the way the package once did: every band over
every line, with the tie rows dropped by their label afterwards.

Pytest does not collect this module; tests import it by name, as they do
``conftest``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from gridflex.constraints import (COEF_ZERO_TOL, ConstraintBlock,
                                  assemble_nominal)


def _band(m, upper, lower, names, n_i: int) -> ConstraintBlock:
    """Rows ``M p <= upper`` then ``-M p <= -lower``, vacuous rows dropped."""
    a = np.vstack([m, -m])
    b = np.concatenate([upper, -lower])
    labels = [f"{n}:up" for n in names] + [f"{n}:dn" for n in names]
    keep = ~((np.max(np.abs(a), axis=1, initial=0.0) <= COEF_ZERO_TOL) & (b >= 0))
    return ConstraintBlock(a[keep], b[keep],
                           [l for l, k in zip(labels, keep) if k], n_i)


def _join(blocks, n_i: int, n_e: int) -> ConstraintBlock:
    blocks = [ConstraintBlock.empty(n_i, n_e), *blocks]
    return ConstraintBlock(np.vstack([blk.a for blk in blocks]),
                           np.concatenate([blk.b for blk in blocks]),
                           [l for blk in blocks for l in blk.labels], n_i)


def generator_outage_bands(view, ptdf, ggdf, limits, units=None) -> ConstraintBlock:
    """Every unit's band ``lower + shift <= Q_k p <= upper - shift`` over
    every line, ``Q_k`` the PTDF with the unit's source column (if any)
    shifted by its outage column."""
    units = ggdf.unit_ids if units is None else units
    n_i, h = ptdf.h_i.shape[1], ptdf.matrix
    blocks = []
    for uid in units:
        j = ggdf.unit_ids.index(uid)
        g_col = ggdf.matrix[:, j]
        shift = g_col * ggdf.p_gen_pu[j]
        q = h.copy()
        if ggdf.unit_buses[j] in view.source_buses:
            q[:, view.source_buses.index(ggdf.unit_buses[j])] += g_col
        blocks.append(_band(q, limits.line_up - shift, limits.line_dn + shift,
                            [f"G:{uid}:line:{l}" for l in view.line_ids], n_i))
    return _join(blocks, n_i, view.n_e)


def line_outage_bands(view, ptdf, lodf, limits, flows, outages=None,
                      strict=False) -> ConstraintBlock:
    """Every outage's band over every surviving line: the redistributed
    flow ``L_j (row_j . p)`` against the margins moved by ``L_j sched_j``,
    or with ``strict`` the post-outage flow ``(h + L_j row_j) . p``."""
    outages = lodf.outage_ids if outages is None else outages
    n_i, h, line_ids = ptdf.h_i.shape[1], ptdf.matrix, view.line_ids
    blocks = []
    for oid in outages:
        mask, l_col = lodf.column(oid)
        row = np.zeros(h.shape[1])
        if oid in line_ids:
            k = line_ids.index(oid)
            row = view.line_signs[k] * h[k]
        r = np.outer(l_col, row)
        shift = l_col * flows.flow(oid)
        m = h + r if strict else r
        lower = limits.line_dn - shift if strict else limits.line_dn + shift
        blocks.append(_band(
            m[mask], (limits.line_up - shift)[mask], lower[mask],
            [f"L:{oid}:line:{l}" for l, k in zip(line_ids, mask) if k], n_i))
    return _join(blocks, n_i, view.n_e)


def full_stack(study, spec) -> ConstraintBlock:
    """The rows ``Study.assemble(spec)`` would stack from the full bands."""
    view, ptdf, limits = study.view, study.ptdf, study.limits
    blocks = [assemble_nominal(view, ptdf, limits)]
    if spec.security == "n1":
        units = study.dispatched if spec.gen_outages is None else spec.gen_outages
        blocks += [generator_outage_bands(view, ptdf, study.ggdf, limits, units),
                   line_outage_bands(view, ptdf, study.lodf, limits, study.flows,
                                     spec.line_outages, spec.strict_line_outages)]
    return _join(blocks, view.n_i, view.n_e)


def full_neighbor_stack(study, include_security: bool):
    """``(a_ub, b_ub)`` of the neighbor's rows over ``[delta, p_B, p_e]``
    from the full bands over every line, the tie rows then dropped by
    their label."""
    view, limits = study.view, study.limits
    ext = replace(study.ptdf, h_i=np.hstack([study.ptdf.h_i, study.ptdf.nodal]))
    blocks = [assemble_nominal(view, ext, limits)]
    if include_security:
        internal = tuple(ln.id for ln in view.internal_lines)
        blocks += [
            generator_outage_bands(view, ext, study.ggdf, limits, study.dispatched),
            line_outage_bands(view, ext, study.lodf, limits, study.flows,
                              tuple(o for o in study.lodf.outage_ids
                                    if o in internal))]
    block = _join(blocks, ext.h_i.shape[1], view.n_e)
    ties = tuple(f":{kind}:{t.line.id}:{side}" for t in view.ties
                 for kind in ("line", "ext") for side in ("up", "dn"))
    keep = [not label.endswith(ties) for label in block.labels]
    a, n_b, n_i = block.a[keep], view.n_i, block.n_i
    return np.hstack([a[:, n_b:n_i], a[:, :n_b], -a[:, n_i:]]), block.b[keep]
