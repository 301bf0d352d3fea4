"""Row generation solved the plain way, as an oracle for ``LPSystem``.

:func:`maximize_lazy` runs Kelley's cutting planes with one cold
:func:`gridflex.lp.maximize` per round on the working rows, and picks its
cuts with the rule :class:`gridflex.lp.LPSystem` uses (``lp._cuts``), so a
system and this oracle grow the same working mask on the same LPs.

Pytest does not collect this module; tests import it by name, as they do
``fm_reference``.
"""

from __future__ import annotations

import numpy as np

from gridflex.lp import LPResult, _cuts, maximize


def maximize_lazy(c, a_ub, b_ub, working) -> LPResult:
    """:func:`maximize` on the rows the boolean mask ``working`` selects,
    adding the worst full-stack rows the optimum violates until it violates
    none (Kelley's cutting planes); ``working`` grows in place.
    "Infeasible" on the working rows is final; "unbounded" falls back to one
    solve on the full stack."""
    a_ub, b_ub = np.asarray(a_ub, dtype=float), np.asarray(b_ub, dtype=float)
    while True:
        res = maximize(c, a_ub[working], b_ub[working])
        if res.status == "unbounded" and not working.all():
            return maximize(c, a_ub, b_ub)
        if not res.optimal:
            return res
        cuts = _cuts(a_ub, b_ub, working, res.x)
        if not cuts.size:
            return res
        working[cuts] = True
