"""Thin linear-programming layer.

Everything geometric in this package funnels through :func:`maximize`:
solve ``max c.x`` subject to ``A x <= b`` with free variables (optional
equalities and bounds for the deviation programs).

The backend is the HiGHS dual simplex that scipy bundles, which is
deterministic for fixed inputs.  :func:`maximize` hands it the model
directly through ``scipy.optimize._highspy._core``, with the options and
the model ``scipy.optimize.linprog(method="highs")`` would build for the
same inputs, so both give the same answers; it skips ``linprog``'s
per-call input cleaning, option checks and sparse conversion, which cost
more than the solve on the small LPs here.  As ``linprog`` does, it
rejects an "optimal" point that breaks a bound, a row or an equality by
more than ``sqrt(1e-9) * 10``.  That module is private to scipy.  It is
loaded from its file, found through scipy's package location, under its own
name, so ``scipy.optimize`` is never imported unless the fallback runs (a
later ``import scipy.optimize`` gets the same module); it is checked on the
first solve against a tiny LP with a known optimum.  If the file is missing,
fails to load or fails the check, every LP goes through ``linprog``, which
is imported on its first call.

HiGHS keeps its own feasibility tolerances unless a
:func:`feasibility_tolerance` block is open in the calling context.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import LPSolverError

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _highs_file() -> str | None:
    """Path of scipy's HiGHS extension module, or None when there is none.
    ``find_spec`` on the top-level package runs no scipy code."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    folder = os.path.join(spec.submodule_search_locations[0],
                          "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _load_highs():
    """scipy's HiGHS bindings, loaded from their file without importing
    ``scipy.optimize``, or None when the file is missing or fails to load.
    The module is registered under its own name, so the bindings are never
    initialized twice: a later ``import scipy.optimize`` reuses the module,
    and loading it again returns the one already in ``sys.modules``."""
    path = _highs_file()
    if path is None:
        return None
    spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    sys.modules[_HIGHS_MODULE] = module
    return module


_highs = _load_highs()
try:
    _HIGHS_STATUS = {_highs.HighsModelStatus.kOptimal: "optimal",
                     _highs.HighsModelStatus.kInfeasible: "infeasible",
                     _highs.HighsModelStatus.kUnbounded: "unbounded"}
except AttributeError:  # no bindings, or bindings of another layout
    _highs, _HIGHS_STATUS = None, {}

FEASIBILITY_TOL = 1e-8
_LAZY_BATCH, _LAZY_TOL = 20, 1e-9  # rows added per round; violation threshold
# linprog's _check_result slack on an "optimal" point: sqrt(tol) * 10, tol 1e-9.
_CHECK_TOL = math.sqrt(1e-9) * 10

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}  # linprog's codes
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
    ``None`` or an infinity meaning unbounded) says otherwise.  Raises
    :class:`LPSolverError` when the shapes disagree, when the other data
    hold NaN or an infinity, or when the backend fails.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    if a_ub.ndim != 2 or b_ub.ndim != 1 or a_ub.shape[0] != b_ub.shape[0]:
        raise LPSolverError("inequality system shapes disagree")
    if not a_ub.shape[0]:
        a_ub = np.zeros((0, n))
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    if (c.ndim != 1 or not n or a_ub.shape[1] != n or a_eq.ndim != 2
            or a_eq.shape != (b_eq.size, n) or b_eq.ndim != 1):
        raise LPSolverError("LP shapes disagree with the objective")
    for name, data in (("c", c), ("a_ub", a_ub), ("b_ub", b_ub),
                       ("a_eq", a_eq), ("b_eq", b_eq)):
        if not np.isfinite(data).all():
            raise LPSolverError(f"LP data {name} holds a non-finite value")
    lims = np.atleast_2d(np.array((None, None) if bounds is None else bounds,
                                  dtype=float))  # None reads as nan
    if lims.shape == (1, 2):
        lims = np.repeat(lims, n, axis=0)
    if lims.shape != (n, 2):
        raise LPSolverError("bounds must give one (lo, hi) pair per variable")
    lims = np.where(np.isnan(lims), [-np.inf, np.inf], lims)

    status, x, fun = (_backend or _choose_backend())(
        -c, a_ub, b_ub, a_eq, b_eq, lims)
    # HiGHS presolve reports some unbounded LPs as infeasible.
    if status == "infeasible" and np.any(c) and maximize(
            np.zeros_like(c), a_ub, b_ub, a_eq, b_eq, lims).optimal:
        status = "unbounded"
    if status != "optimal":
        return LPResult(status=status, x=None, value=None)
    return LPResult(status="optimal", x=np.asarray(x), value=float(-fun))


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: only the
    fallback backend needs it."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def _solve_linprog(c, a_ub, b_ub, a_eq, b_eq, bounds):
    """``min c.x`` through ``linprog``; returns ``(status, x, fun)``."""
    res = linprog(c, A_ub=a_ub if a_ub.size else None,
                  b_ub=b_ub if a_ub.size else None,
                  A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs",
                  options=_OPTIONS.get())
    status = _STATUS.get(res.status)
    if status is None:
        raise LPSolverError(f"LP backend failed: {res.message}")
    return status, res.x, res.fun


@functools.lru_cache(maxsize=8)
def _highs_options(tol: float | None):
    """The options ``linprog(method="highs")`` passes by default, plus
    primal and dual feasibility tolerance ``tol`` unless it is None."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = (
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    opts.output_flag = opts.log_to_console = False
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    if tol is not None:
        opts.primal_feasibility_tolerance = opts.dual_feasibility_tolerance = tol
    return opts


def _solve_highs(c, a_ub, b_ub, a_eq, b_eq, bounds):
    """``min c.x`` on a HiGHS model built as ``linprog`` builds it, with
    ``linprog``'s check of the optimum; returns ``(status, x, fun)``."""
    n, m_ub, inf = c.size, b_ub.size, _highs.kHighsInf
    # Columns in CSC order with exact zeros dropped, as csc_array stores them.
    a_t = np.vstack([a_ub, a_eq]).T
    col, row = np.nonzero(a_t)
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=n), out=start[1:])
    model = _highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = m_ub + b_eq.size
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = row.astype(np.int32)
    model.a_matrix_.value_ = a_t[col, row]
    model.col_cost_ = c
    model.col_lower_, model.col_upper_ = np.clip(bounds, -inf, inf).T
    model.row_lower_ = np.concatenate([np.full(m_ub, -inf), b_eq])
    model.row_upper_ = np.concatenate([b_ub, b_eq])

    opts = _OPTIONS.get()
    solver = _highs._Highs()
    error = _highs.HighsStatus.kError
    if (solver.passOptions(_highs_options(
            opts and opts["primal_feasibility_tolerance"])) == error
            or solver.passModel(model) == error):
        raise LPSolverError("LP backend rejected the model")
    solver.run()
    model_status = solver.getModelStatus()
    status = _HIGHS_STATUS.get(model_status)
    if status is None:
        raise LPSolverError(
            f"LP backend failed: {solver.modelStatusToString(model_status)}")
    if status != "optimal":
        return status, None, None
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    fun = solver.getInfo().objective_function_value
    rows = np.array(solution.row_value)
    if not (np.isfinite(fun)
            and np.all(x >= bounds[:, 0] - _CHECK_TOL)
            and np.all(x <= bounds[:, 1] + _CHECK_TOL)
            and np.all(b_ub - rows[:m_ub] >= -_CHECK_TOL)
            and np.all(np.abs(b_eq - rows[m_ub:]) <= _CHECK_TOL)):
        raise LPSolverError(
            "LP backend failed: its optimum breaks the constraints by more "
            f"than {_CHECK_TOL:.2E}")
    return status, x, fun


def _self_check() -> bool:
    """Whether the direct backend solves a tiny LP to its known optimum:
    ``max x + 2y + z`` with ``x + y <= 1.5``, ``y <= 1``, ``z = 0.25`` and
    ``0 <= z <= 1`` has ``x, y, z = 0.5, 1, 0.25`` and value 2.75."""
    try:
        status, x, fun = _solve_highs(
            np.array([-1.0, -2.0, -1.0]),
            np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]), np.array([1.5, 1.0]),
            np.array([[0.0, 0.0, 1.0]]), np.array([0.25]),
            np.array([[-np.inf, np.inf], [-np.inf, np.inf], [0.0, 1.0]]))
    except (AttributeError, TypeError, ValueError, RuntimeError, LPSolverError):
        return False
    return (status == "optimal" and abs(fun + 2.75) <= 1e-9
            and np.allclose(x, [0.5, 1.0, 0.25], rtol=0, atol=1e-9))


_backend = None  # the solve function, chosen on the first LP


def _choose_backend():
    global _backend
    _backend = (_solve_highs if _highs is not None and _self_check()
                else _solve_linprog)
    return _backend


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
