"""Thin linear-programming layer.

Every LP in this package has one form, ``max c.x`` subject to
``A x <= b`` over free variables, and is solved here: one at a time by
:func:`maximize`, or as one of many LPs on a fixed row stack by an
:class:`LPSystem`, which solves each over a subset of the stack's columns
with the others held at zero.  The support LPs of a projection and the
neighbor deviation LPs run on systems; every other LP runs through
:func:`maximize`.  Callers write an equality as a row pair and a variable's
bounds as rows of their own.

The backend is the HiGHS dual simplex that scipy bundles, which is
deterministic for fixed inputs.  :func:`maximize` hands it the model
directly through ``scipy.optimize._highspy._core``, with the options and
the model ``scipy.optimize.linprog(method="highs")`` would build for the
same inputs, so both give the same answers; it skips ``linprog``'s
per-call input cleaning, option checks and sparse conversion, which cost
more than the solve on the small LPs here.  As ``linprog`` does, it
rejects an "optimal" point that breaks a row by more than
``sqrt(1e-9) * 10``.  That module is private to scipy.  It is
loaded from its file, found through scipy's package location, under its own
name, so ``scipy.optimize`` is never imported unless the fallback runs (a
later ``import scipy.optimize`` gets the same module); it is checked on the
first solve against a tiny LP with a known optimum.  If the file is missing,
fails to load or fails the check (bindings without the plain-array
``passModel`` fail it), every LP goes through ``linprog``, which is imported
on its first call.

Every :func:`maximize` reuses one ``_Highs`` instance per bindings module,
built on the first solve, never at import; the model goes in as plain
arrays.  Reuse is
safe: ``passOptions`` replaces every option the instance holds, and
``passModel`` clears the previous model, basis and solution, so each LP
gives the bytes a fresh instance gives it.  A fresh instance and its first
``run`` cost about as much as a small LP's solve.  When the dual simplex
ends in ``Unknown`` (seen on a free unbounded LP, with presolve on or off),
the direct path runs the same model once more with the primal simplex and
maps that result; it raises :class:`LPSolverError` only when the retry is
not conclusive either.  The ``linprog`` fallback has no such retry: its
``highs``, ``highs-ds`` and ``highs-ipm`` all report that LP as status 4.

On the direct backend an :class:`LPSystem` owns a ``_Highs`` instance, so
the shared one above never sees its model and still gives each LP the
bytes of a fresh instance.  The system's model stays loaded between
solves: only costs and column bounds change, and violated rows are
appended, so each solve starts from the previous basis and, once there is
one, skips presolve.  The last digits of a system's optimum can therefore
depend on the solves it ran before, so those of a projection's facets and
of a neighbor bound depend on the order of their LPs.  Every row of the
stack with one coefficient is a column bound of the model, not a row, so
a column is boxed where it would be free: after a change of costs the
dual simplex would meet free columns that are dual infeasible, which only
its phase 1 repairs, while boxed ones flip to their other bound.  And as
a change of costs keeps the previous optimum primal feasible, a system
re-solves with the primal simplex, with the dual as the retry after
``Unknown``.  That takes one seed-0 pass of the neighbor-maxdev benchmark
from 4,479 simplex iterations to 2,860, and one of export-lattice from
916 to 468 (``tools/lp_digest.py``).  No instance, shared or owned, may
be used by two threads at once; nothing in the package starts a thread.

HiGHS keeps its own feasibility tolerances unless a
:func:`feasibility_tolerance` block is open in the calling context; an
:class:`LPSystem` reads the block once, when it is built.
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
# HiGHS's infinite_bound: it reads a bound of this magnitude as infinite.
_INFINITE_BOUND = 1e20
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


def maximize(c, a_ub, b_ub) -> LPResult:
    """Solve ``max c.x  s.t.  a_ub x <= b_ub`` over free variables.

    Raises :class:`LPSolverError` when the shapes disagree, when the data
    hold NaN or an infinity, or when the backend fails.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub, b_ub = _stack(a_ub, b_ub)
    if not a_ub.shape[0]:
        a_ub = np.zeros((0, n))
    if c.ndim != 1 or not n or a_ub.shape[1] != n:
        raise LPSolverError("LP shapes disagree with the objective")
    _finite(c=c, a_ub=a_ub, b_ub=b_ub)

    status, x, fun = (_backend or _choose_backend())(-c, a_ub, b_ub)
    # HiGHS presolve reports some unbounded LPs as infeasible.
    if status == "infeasible" and np.any(c) and maximize(
            np.zeros_like(c), a_ub, b_ub).optimal:
        status = "unbounded"
    if status != "optimal":
        return LPResult(status=status, x=None, value=None)
    return LPResult(status="optimal", x=np.asarray(x), value=float(-fun))


def _stack(a_ub, b_ub):
    """``a_ub`` and ``b_ub`` as float arrays, checked to hold one offset per
    row."""
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    if a_ub.ndim != 2 or b_ub.ndim != 1 or a_ub.shape[0] != b_ub.shape[0]:
        raise LPSolverError("inequality system shapes disagree")
    return a_ub, b_ub


def _finite(**data):
    for name, values in data.items():
        if not np.isfinite(values).all():
            raise LPSolverError(f"LP data {name} holds a non-finite value")


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: only the
    fallback backend needs it."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def _solve_linprog(c, a_ub, b_ub):
    """``min c.x`` over free variables through ``linprog``, whose own
    default bounds are ``(0, None)``; returns ``(status, x, fun)``."""
    res = linprog(c, A_ub=a_ub if a_ub.size else None,
                  b_ub=b_ub if a_ub.size else None,
                  bounds=(None, None), method="highs", options=_OPTIONS.get())
    status = _STATUS.get(res.status)
    if status is None:
        raise LPSolverError(f"LP backend failed: {res.message}")
    return status, res.x, res.fun


@functools.lru_cache(maxsize=8)
def _highs_options(tol: float | None, primal: bool = False):
    """The options ``linprog(method="highs")`` passes by default, plus
    primal and dual feasibility tolerance ``tol`` unless it is None; with
    ``primal`` the primal simplex replaces the dual."""
    strategies = _highs.simplex_constants.SimplexStrategy
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = (strategies.kSimplexStrategyPrimal if primal
                             else strategies.kSimplexStrategyDual)
    opts.output_flag = opts.log_to_console = False
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    if tol is not None:
        opts.primal_feasibility_tolerance = opts.dual_feasibility_tolerance = tol
    return opts


_instance = (None, None)  # (bindings module, its _Highs), built on first use


def _solver():
    """The one ``_Highs`` instance of the current bindings module, built on
    the first solve.  A new module (a test patching ``_highs``) gets a new
    instance.  Solves share it, so two threads must not solve at once."""
    global _instance
    if _instance[0] is not _highs:
        _instance = (_highs, _highs._Highs())
    return _instance[1]


def _solve_highs(c, a_ub, b_ub):
    """``min c.x`` over free variables on a HiGHS model built as
    ``linprog`` builds it, with ``linprog``'s check of the optimum;
    returns ``(status, x, fun)``.

    The model goes to :func:`_solver`'s instance as plain arrays, and the
    options and model are passed afresh on every solve, so nothing carries
    over from the previous one.  An ``Unknown`` from the dual simplex gets
    one more run with the primal; the next solve's options restore the
    dual."""
    n, m, inf = c.size, b_ub.size, _highs.kHighsInf
    start, index, value = _compressed(a_ub.T)
    # passModel's array overload: sizes, format, sense, offset, costs, column
    # and row bounds, CSC arrays, integrality.  An empty integrality array
    # makes it return kError, so every column is marked continuous.
    model = (n, m, index.size, _highs.MatrixFormat.kColwise,
             _highs.ObjSense.kMinimize, 0.0, c, np.full(n, -inf),
             np.full(n, inf), np.full(m, -inf), b_ub, start, index, value,
             np.zeros(n, dtype=np.int32))

    tol = _tolerance()
    solver = _solver()
    for primal in (False, True):  # the primal simplex only after Unknown
        _accepted(solver.passOptions(_highs_options(tol, primal)),
                  solver.passModel(*model))
        solver.run()
        if solver.getModelStatus() != _highs.HighsModelStatus.kUnknown:
            break
    return _outcome(solver, b_ub)


def _compressed(a):
    """``(start, index, value)`` of the rows of ``a`` in compressed form
    with exact zeros dropped, as ``csc_array`` stores them: the CSR arrays
    of ``a``, or the CSC arrays of ``a.T``."""
    row, col = np.nonzero(a)
    start = np.zeros(a.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=a.shape[0]), out=start[1:])
    return start, col.astype(np.int32), a[row, col]


def _tolerance() -> float | None:
    """The tolerance of the open :func:`feasibility_tolerance` block, if any."""
    opts = _OPTIONS.get()
    return opts and opts["primal_feasibility_tolerance"]


def _accepted(*statuses) -> None:
    if _highs.HighsStatus.kError in statuses:
        raise LPSolverError("LP backend rejected the model")


def _outcome(solver, b_ub, folded=None):
    """``(status, x, fun)`` of ``solver``'s last run on rows with upper
    bounds ``b_ub``, with ``linprog``'s check of an optimum; ``folded``,
    ``(column, coefficient, offset)`` arrays of rows the model holds as
    column bounds, puts those rows under the same check."""
    model_status = solver.getModelStatus()
    status = _HIGHS_STATUS.get(model_status)
    if status is None:
        raise LPSolverError(
            f"LP backend failed: {solver.modelStatusToString(model_status)}")
    if status != "optimal":
        return status, None, None
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    fun = solver.getObjectiveValue()
    feasible = np.isfinite(fun) and np.all(
        b_ub - np.array(solution.row_value) >= -_CHECK_TOL)
    if feasible and folded is not None:
        column, coefficient, offset = folded
        feasible = np.all(offset - coefficient * x[column] >= -_CHECK_TOL)
    if not feasible:
        raise LPSolverError(
            "LP backend failed: its optimum breaks the constraints by more "
            f"than {_CHECK_TOL:.2E}")
    return status, x, fun


def _self_check() -> bool:
    """Whether the direct backend solves a tiny LP to its known optimum:
    ``max x + 2y + z`` with ``x + y <= 1.5``, ``y <= 1``, ``z = 0.25`` (a
    row pair) and ``0 <= z <= 1`` has ``x, y, z = 0.5, 1, 0.25`` and value
    2.75."""
    try:
        status, x, fun = _solve_highs(
            np.array([-1.0, -2.0, -1.0]),
            np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                      [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
            np.array([1.5, 1.0, 0.25, -0.25, 1.0, 0.0]))
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


def _cuts(a_ub, b_ub, working, x):
    """The rows outside ``working`` that ``x`` violates by more than
    ``_LAZY_TOL``, worst first, at most ``_LAZY_BATCH`` of them."""
    excess = np.where(working, -np.inf, a_ub @ x - b_ub)
    violated = np.flatnonzero(excess > _LAZY_TOL)
    if not violated.size:
        return violated
    worst = np.argsort(-excess[violated], kind="stable")[:_LAZY_BATCH]
    return violated[worst]


def _folded_bounds(a_ub, b_ub):
    """The rows of ``a_ub x <= b_ub`` with one coefficient as column bounds:
    ``(rows, (column, coefficient, offset), lower, upper)``, with the
    tightest bound per column and side in ``lower`` and ``upper``.  A row
    whose bound ``b_i / a_ij`` HiGHS would read as infinite is left out."""
    rows = np.flatnonzero(np.count_nonzero(a_ub, axis=1) == 1)
    column = np.argmax(a_ub[rows] != 0, axis=1)
    coefficient = a_ub[rows, column]
    with np.errstate(over="ignore"):
        bound = b_ub[rows] / coefficient
    finite = np.abs(bound) < _INFINITE_BOUND
    rows, column, coefficient, bound = (
        rows[finite], column[finite], coefficient[finite], bound[finite])
    n = a_ub.shape[1]
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    up = coefficient > 0
    np.minimum.at(upper, column[up], bound[up])
    np.maximum.at(lower, column[~up], bound[~up])
    return rows, (column, coefficient, b_ub[rows]), lower, upper


class LPSystem:
    """Many LPs on one row stack: :meth:`maximize` solves ``max c.x  s.t.
    a_ub x <= b_ub`` over the columns in ``free``, every other column held
    at zero, by Kelley's cutting planes on the row mask ``working``, which
    grows in place and is kept as :attr:`working`.

    One loop serves both backends.  Each step maximizes over the working
    rows, with :func:`maximize`'s statuses, and the worst rows its optimum
    violates (:func:`_cuts`) join the working set, until it violates none.
    "Infeasible" on the working rows is final; "unbounded" falls back to
    one :func:`maximize` on the full stack.  Only the step differs.  On the
    direct backend it runs the system's own warm model over every column.
    Each row of the stack with one coefficient ``a_ij`` becomes the bound
    ``b_i / a_ij`` of column ``j``, the tightest per side, and joins the
    working set when the system is built; a row whose bound HiGHS would
    read as infinite stays a row.  The other first working rows are the
    model's rows.  A free column takes its folded bounds, a held one the
    folded interval cut to ``[0, 0]``, which is the LP of the sliced
    columns: empty, and the LP infeasible, when a folded row fails at
    zero.  The model re-solves with the primal simplex, since a change of
    costs keeps the previous optimum primal feasible, and retries with the
    dual after ``Unknown``.  On the ``linprog`` fallback the step is
    :func:`maximize` on the working rows of the column slice, every row
    a row.  Every LP of a system runs with the
    :func:`feasibility_tolerance` in force when the system was built.

    The stack is checked once and ``c`` on every solve; failures raise
    :class:`LPSolverError` as in :func:`maximize`.
    """

    def __init__(self, a_ub, b_ub, working):
        a_ub, b_ub = _stack(a_ub, b_ub)
        if (not isinstance(working, np.ndarray) or working.dtype != bool
                or working.shape != b_ub.shape):
            raise LPSolverError("working mask disagrees with the rows")
        _finite(a_ub=a_ub, b_ub=b_ub)
        self.a_ub, self.b_ub, self.working = a_ub, b_ub, working
        self._opts = _OPTIONS.get()
        self._solver = None
        if (_backend or _choose_backend()) is _solve_highs:
            self._load()

    def _load(self) -> None:
        a, b = self.a_ub, self.b_ub
        n, inf = a.shape[1], _highs.kHighsInf
        folded, self._folded, self._lower, self._upper = _folded_bounds(a, b)
        model = self.working.copy()  # the model's rows
        model[folded] = False
        self.working[folded] = True
        rows = np.flatnonzero(model)
        self._offsets = b[rows]  # of the model's rows, in order
        self._held = None  # the held-column mask the model's bounds are for
        self._columns = np.arange(n, dtype=np.int32)
        tol = _tolerance()
        self._options = [_highs_options(tol, primal) for primal in (True, False)]
        start, index, value = _compressed(a[rows].T)
        m, zeros = rows.size, np.zeros(n)
        self._solver = _highs._Highs()
        _accepted(self._solver.passOptions(self._options[0]),
                  self._solver.passModel(
                      n, m, index.size, _highs.MatrixFormat.kColwise,
                      _highs.ObjSense.kMinimize, 0.0, zeros, zeros, zeros,
                      np.full(m, -inf), self._offsets, start, index, value,
                      np.zeros(n, dtype=np.int32)))

    def maximize(self, c, free) -> LPResult:
        """``max c.x`` over the columns ``free`` selects (indices or a
        boolean mask); ``x`` holds those columns in that order."""
        c = np.asarray(c, dtype=float)
        n = self.a_ub.shape[1]
        held = np.ones(n, dtype=bool)
        held[free] = False
        if c.shape != (n,) or held.all():
            raise LPSolverError("LP shapes disagree with the objective")
        _finite(c=c)
        if self._solver is not None and not np.array_equal(held, self._held):
            inf = _highs.kHighsInf
            _accepted(self._solver.changeColsBounds(
                n, self._columns,
                np.maximum(self._lower, np.where(held, 0.0, -inf)),
                np.minimum(self._upper, np.where(held, 0.0, inf))))
            self._held = held
        while True:
            status, x, value = self._step(c, free, held)
            if status == "unbounded" and not self.working.all():
                return self._cold(maximize, c[free], self.a_ub[:, free],
                                  self.b_ub)
            if status != "optimal":
                return LPResult(status=status, x=None, value=None)
            # A held column that is basic may sit within HiGHS's tolerance
            # of zero; the rows are checked at the sliced LP's point.
            x[held] = 0.0
            cuts = _cuts(self.a_ub, self.b_ub, self.working, x)
            if not cuts.size:
                return LPResult(status="optimal", x=x[free], value=value)
            self.working[cuts] = True
            if self._solver is not None:
                self._add(cuts)

    def _step(self, c, free, held):
        """``(status, x, value)`` of ``max c.x`` over the free columns and
        the working rows, as :func:`maximize` gives them; ``x`` spans every
        column."""
        if self._solver is None:
            res = self._cold(maximize, c[free],
                             self.a_ub[np.ix_(self.working, free)],
                             self.b_ub[self.working])
            x = np.zeros(c.size)
            if res.optimal:
                x[free] = res.x
            return res.status, x, res.value
        cost = np.where(held, 0.0, -c)
        status, x, fun = self._run(cost)
        if status == "optimal":
            return status, x, float(-fun)
        # As in maximize: "infeasible" is re-checked with a zero objective.
        if (status == "infeasible" and np.any(cost)
                and self._run(np.zeros(c.size))[0] == "optimal"):
            status = "unbounded"
        return status, None, None

    def _cold(self, solve, *args) -> LPResult:
        """``solve(*args)`` under the options the system was built with."""
        token = _OPTIONS.set(self._opts)
        try:
            return solve(*args)
        finally:
            _OPTIONS.reset(token)

    def _run(self, cost):
        """``(status, x, fun)`` of ``min cost.x`` on the model as it stands,
        with the dual simplex after an ``Unknown`` from the primal."""
        solver = self._solver
        _accepted(solver.changeColsCost(cost.size, self._columns, cost))
        solver.run()
        if solver.getModelStatus() == _highs.HighsModelStatus.kUnknown:
            _accepted(solver.passOptions(self._options[1]))
            solver.run()
            _accepted(solver.passOptions(self._options[0]))
        return _outcome(solver, self._offsets, self._folded)

    def _add(self, rows) -> None:
        start, index, value = _compressed(self.a_ub[rows])
        offsets = self.b_ub[rows]
        _accepted(self._solver.addRows(
            rows.size, np.full(rows.size, -_highs.kHighsInf), offsets,
            index.size, start[:-1], index, value))
        self._offsets = np.concatenate([self._offsets, offsets])
