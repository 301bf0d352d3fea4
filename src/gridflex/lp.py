"""Thin linear-programming layer.

Everything geometric in this package funnels through :func:`maximize`:
solve ``max c.x`` subject to ``A x <= b`` with free variables (optional
equalities and bounds for the deviation programs).  Any backend with
that contract could be swapped in; the implementation wraps
``scipy.optimize.linprog`` (HiGHS), which is deterministic for fixed
inputs.

The backend runs with its own default options unless a
:func:`feasibility_tolerance` block is open in the calling context.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import LPSolverError

FEASIBILITY_TOL = 1e-8
_LAZY_BATCH, _LAZY_TOL = 20, 1e-9  # rows added per round; violation threshold

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
_OPTIONS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "gridflex_lp_options", default=None)


@contextlib.contextmanager
def feasibility_tolerance(tol: float):
    """Solve every LP inside the block with primal and dual feasibility
    tolerance ``tol``; the previous setting returns when the block ends."""
    if not (math.isfinite(tol) and tol > 0):
        raise LPSolverError(
            f"feasibility tolerance must be finite and positive, got {tol}")
    token = _OPTIONS.set({"primal_feasibility_tolerance": tol,
                          "dual_feasibility_tolerance": tol})
    try:
        yield
    finally:
        _OPTIONS.reset(token)


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None
    value: float | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def maximize(c, a_ub, b_ub, a_eq=None, b_eq=None, bounds=None) -> LPResult:
    """Solve ``max c.x  s.t.  a_ub x <= b_ub`` (plus optional equalities).

    Variables are free unless ``bounds`` (a list of ``(lo, hi)`` pairs,
    ``None`` meaning unbounded) says otherwise.
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    if a_ub.ndim != 2 or a_ub.shape[0] != b_ub.shape[0]:
        raise LPSolverError("inequality system shapes disagree")
    if bounds is None:
        bounds = (None, None)
    res = linprog(-c, A_ub=a_ub if a_ub.size else None,
                  b_ub=b_ub if a_ub.size else None,
                  A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs",
                  options=_OPTIONS.get())
    status = _STATUS.get(res.status)
    if status is None:
        raise LPSolverError(f"LP backend failed: {res.message}")
    # HiGHS presolve reports some unbounded LPs as infeasible.
    if status == "infeasible" and np.any(c) and maximize(
            np.zeros_like(c), a_ub, b_ub, a_eq, b_eq, bounds).optimal:
        status = "unbounded"
    if status != "optimal":
        return LPResult(status=status, x=None, value=None)
    return LPResult(status="optimal", x=np.asarray(res.x), value=float(-res.fun))


def maximize_lazy(c, a_ub, b_ub, working, a_eq=None, b_eq=None, bounds=None,
                  columns=None, solve=None) -> LPResult:
    """``solve`` (default :func:`maximize`) on the rows the boolean mask
    ``working`` selects, adding the worst full-stack rows the optimum violates
    until it violates none (Kelley's cutting planes); ``working`` grows in
    place.  ``columns`` picks the columns of ``a_ub`` the variables use.
    "Infeasible" on the working rows is final; "unbounded" falls back to one
    solve on the full stack."""
    solve = solve or maximize
    a_ub, b_ub = np.asarray(a_ub, dtype=float), np.asarray(b_ub, dtype=float)
    cols = slice(None) if columns is None else columns
    while True:
        res = solve(c, a_ub[working][:, cols], b_ub[working], a_eq, b_eq, bounds)
        if res.status == "unbounded" and not working.all():
            return solve(c, a_ub[:, cols], b_ub, a_eq, b_eq, bounds)
        if not res.optimal:
            return res
        x = np.zeros(a_ub.shape[1])
        x[cols] = res.x
        excess = np.where(working, -np.inf, a_ub @ x - b_ub)
        violated = np.flatnonzero(excess > _LAZY_TOL)
        if not violated.size:
            return res
        worst = np.argsort(-excess[violated], kind="stable")[:_LAZY_BATCH]
        working[violated[worst]] = True
