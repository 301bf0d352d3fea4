"""The LP seam: the direct HiGHS backend against the `linprog` fallback, the
fallback itself, input checks, and row generation (`maximize_lazy`) against
one solve on the full stack."""

import contextlib
import sys
import types

import numpy as np
import pytest

from gridflex import lp
from gridflex.errors import LPSolverError
from gridflex.lp import maximize, maximize_lazy


def _bounded_stack(rng, n_rows=300, n_var=5):
    """Random rows around the origin: bounded, with the origin inside."""
    a = rng.normal(size=(n_rows, n_var))
    b = rng.uniform(0.5, 2.0, size=n_rows)
    return a, b


def _mask(n_rows, n_working):
    working = np.zeros(n_rows, dtype=bool)
    working[:n_working] = True
    return working


def _neighbor_shaped():
    """Rows, two equalities and per-column bounds, as in the deviation LPs."""
    rng = np.random.default_rng(11)
    a, b = _bounded_stack(rng, n_rows=60, n_var=7)
    a_eq = np.array([[1.0, 1.0, 1.0, -1.0, -1.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]])
    bounds = ([(None, None)] + [(-0.3, 0.4)] * 3 + [(None, np.inf)]
              + [(-np.inf, 0.5), (-0.2, None)])
    return dict(c=rng.normal(size=7), a_ub=a, b_ub=b, a_eq=a_eq,
                b_eq=np.zeros(2), bounds=bounds)


def _bounded():
    a, b = _bounded_stack(np.random.default_rng(0), n_rows=40, n_var=3)
    return dict(c=[1.0, -2.0, 0.5], a_ub=a, b_ub=b)


def _infeasible():
    a, b = _bounded_stack(np.random.default_rng(1), n_rows=40, n_var=3)
    # x0 <= -5 and x0 >= 5
    return dict(c=[1.0, 1.0, 1.0],
                a_ub=np.vstack([a, np.eye(3)[:1], -np.eye(3)[:1]]),
                b_ub=np.concatenate([b, [-5.0, -5.0]]))


def _unbounded():
    a, b = _bounded_stack(np.random.default_rng(4), n_rows=40, n_var=3)
    a[:, 0] = 0.0
    return dict(c=[1.0, 0.0, 0.0], a_ub=a, b_ub=b)


# name -> (LP, feasibility tolerance or None, expected status)
BATTERY = {
    "bounded": (_bounded, None, "optimal"),
    "infeasible": (_infeasible, None, "infeasible"),
    "unbounded": (_unbounded, None, "unbounded"),
    "no-rows-with-cost": (lambda: dict(c=[1.0, 0.0], a_ub=np.zeros((0, 2)),
                                       b_ub=np.zeros(0)), None, "unbounded"),
    "no-rows-zero-cost": (lambda: dict(c=[0.0, 0.0], a_ub=np.zeros((0, 2)),
                                       b_ub=np.zeros(0)), None, "optimal"),
    "zero-row-negative-offset": (lambda: dict(c=[1.0, 0.0],
                                              a_ub=[[0.0, 0.0], [1.0, 0.0]],
                                              b_ub=[-1.0, 1.0]),
                                 None, "infeasible"),
    "neighbor-shaped": (_neighbor_shaped, None, "optimal"),
    "bounded-at-tol-1e-6": (_bounded, 1e-6, "optimal"),
}
direct_only = pytest.mark.skipif(lp._highs is None,
                                 reason="this scipy has no bundled HiGHS bindings")


def _run(case):
    build, tol, _ = BATTERY[case]
    with lp.feasibility_tolerance(tol) if tol else contextlib.nullcontext():
        return maximize(**build())


def _same(res, ref):
    assert res.status == ref.status
    if ref.optimal:
        assert res.value == pytest.approx(ref.value, abs=1e-9)
        np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=1e-9)


def _no_linprog(*args, **kwargs):
    raise AssertionError("linprog was called")


@direct_only
@pytest.mark.parametrize("case", BATTERY)
def test_direct_backend_matches_linprog(case, monkeypatch):
    monkeypatch.setattr(lp, "_backend", lp._solve_highs)
    direct = _run(case)
    monkeypatch.setattr(lp, "_backend", lp._solve_linprog)
    fallback = _run(case)
    assert direct.status == BATTERY[case][2]
    _same(direct, fallback)


@direct_only
def test_direct_backend_is_chosen_and_calls_no_linprog(monkeypatch):
    monkeypatch.setattr(lp, "_backend", None)
    monkeypatch.setattr(lp, "linprog", _no_linprog)
    for case, (_, _, status) in BATTERY.items():
        assert _run(case).status == status
    assert lp._backend is lp._solve_highs


def _wrong_optimum(*args):
    return "optimal", np.zeros(3), 0.0


def _api_changed(*args):
    raise AttributeError("module has no attribute 'HighsLp'")


@direct_only
@pytest.mark.parametrize("failure", ["wrong-optimum", "api-changed", "no-module",
                                     "no-core-file"])
def test_failed_self_check_falls_back_to_linprog(failure, monkeypatch):
    expected = {case: _run(case) for case in BATTERY}
    calls = []
    real = lp.linprog
    monkeypatch.setattr(lp, "linprog",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    monkeypatch.setattr(lp, "_backend", None)
    if failure == "no-module":
        monkeypatch.setattr(lp, "_highs", None)
    elif failure == "no-core-file":
        monkeypatch.setattr(lp, "_highs_file", lambda: None)
        monkeypatch.setattr(lp, "_highs", lp._load_highs())
        assert lp._highs is None
    else:
        monkeypatch.setattr(lp, "_solve_highs", {"wrong-optimum": _wrong_optimum,
                                                 "api-changed": _api_changed}[failure])
    for case, ref in expected.items():
        _same(_run(case), ref)
    assert lp._backend is lp._solve_linprog
    assert len(calls) >= len(BATTERY)


@direct_only
def test_the_bindings_are_loaded_once():
    """Loading again returns the module already registered, so gridflex
    and a ``scipy.optimize`` imported before it share one module."""
    assert lp._load_highs() is lp._highs
    assert sys.modules[lp._HIGHS_MODULE] is lp._highs


@direct_only
@pytest.mark.parametrize("drift, fails", [(1e-5, False), (1e-3, True)])
def test_direct_backend_checks_the_optimum_it_is_given(drift, fails, monkeypatch):
    """An "optimal" point whose rows overshoot by more than linprog's
    post-solve slack, sqrt(1e-9) * 10, is a backend failure."""
    real = lp._highs

    class Drifting:
        def __init__(self):
            self._inner = real._Highs()

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def getSolution(self):
            solution = self._inner.getSolution()
            solution.row_value = list(np.array(solution.row_value) + drift)
            return solution

    monkeypatch.setattr(lp, "_highs", types.SimpleNamespace(
        **{**vars(real), "_Highs": Drifting}))
    monkeypatch.setattr(lp, "_backend", lp._solve_highs)
    if fails:
        with pytest.raises(LPSolverError, match="breaks the constraints"):
            _run("bounded")
    else:
        assert _run("bounded").optimal


@pytest.mark.parametrize("backend", ["direct", "linprog"])
@pytest.mark.parametrize("name", ["c", "a_ub", "b_ub", "a_eq", "b_eq"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_lp_data_fails_at_the_seam(backend, name, bad, monkeypatch):
    if backend == "direct" and lp._highs is None:
        pytest.skip("this scipy has no bundled HiGHS bindings")
    monkeypatch.setattr(lp, "_backend", {"direct": lp._solve_highs,
                                         "linprog": lp._solve_linprog}[backend])
    data = _neighbor_shaped()
    data[name] = np.array(data[name], dtype=float)
    data[name].flat[1] = bad
    with pytest.raises(LPSolverError, match=f"LP data {name} holds"):
        maximize(**data)


@pytest.mark.parametrize("seed", range(5))
def test_lazy_optimum_matches_the_full_stack(seed):
    rng = np.random.default_rng(seed)
    a, b = _bounded_stack(rng)
    for _ in range(4):
        c = rng.normal(size=a.shape[1])
        full = maximize(c, a, b)
        lazy = maximize_lazy(c, a, b, _mask(len(b), 40))
        assert full.optimal and lazy.optimal
        assert lazy.value == pytest.approx(full.value, abs=1e-9)
        assert np.all(a @ lazy.x - b <= 1e-9)


def test_lazy_columns_hold_the_others_at_zero():
    rng = np.random.default_rng(7)
    a, b = _bounded_stack(rng, n_var=8)
    columns = [5, 0, 2, 7]
    c = rng.normal(size=len(columns))
    full = maximize(c, a[:, columns], b)
    lazy = maximize_lazy(c, a, b, _mask(len(b), 30), columns=columns)
    assert lazy.value == pytest.approx(full.value, abs=1e-9)
    assert np.all(a[:, columns] @ lazy.x - b <= 1e-9)


def test_lazy_with_equalities_and_bounds():
    rng = np.random.default_rng(3)
    a, b = _bounded_stack(rng, n_var=6)
    a_eq, b_eq = np.ones((1, 6)), np.zeros(1)
    bounds = [(-0.3, 0.4)] * 3 + [(None, None)] * 3
    c = rng.normal(size=6)
    full = maximize(c, a, b, a_eq, b_eq, bounds)
    lazy = maximize_lazy(c, a, b, _mask(len(b), 10), a_eq, b_eq, bounds)
    assert lazy.value == pytest.approx(full.value, abs=1e-9)


def test_infeasible_full_stack_stays_infeasible():
    rng = np.random.default_rng(1)
    a, b = _bounded_stack(rng)
    # x0 <= -5 and x0 >= 5 sit outside the first working rows.
    a = np.vstack([a, np.eye(5)[:1], -np.eye(5)[:1]])
    b = np.concatenate([b, [-5.0, -5.0]])
    assert maximize(np.ones(5), a, b).status == "infeasible"
    assert maximize_lazy(np.ones(5), a, b, _mask(len(b), 20)).status == "infeasible"


def test_unbounded_working_set_falls_back_to_the_full_stack():
    rng = np.random.default_rng(2)
    a, b = _bounded_stack(rng)
    c = rng.normal(size=5)
    working = _mask(len(b), 1)
    assert maximize(c, a[working], b[working]).status == "unbounded"
    full = maximize(c, a, b)
    lazy = maximize_lazy(c, a, b, working)
    assert lazy.optimal
    assert lazy.value == pytest.approx(full.value, abs=1e-9)


def test_unbounded_full_stack_is_reported():
    rng = np.random.default_rng(4)
    a, b = _bounded_stack(rng)
    a[:, 0] = 0.0  # nothing bounds x0
    c = np.eye(5)[0]
    assert maximize(c, a, b).status == "unbounded"
    assert maximize_lazy(c, a, b, _mask(len(b), 20)).status == "unbounded"
    assert maximize_lazy(c, a, b, _mask(len(b), len(b))).status == "unbounded"


def test_mask_only_grows_and_is_deterministic():
    rng = np.random.default_rng(5)
    a, b = _bounded_stack(rng)
    costs = rng.normal(size=(6, a.shape[1]))
    runs = []
    for _ in range(2):
        working = _mask(len(b), 40)
        for c in costs:
            before = working.copy()
            res = maximize_lazy(c, a, b, working)
            assert res.optimal
            assert np.all(working[before])
        runs.append(working)
    assert runs[0].sum() > 40
    assert np.array_equal(runs[0], runs[1])
