"""The LP seam: the direct HiGHS backend against the `linprog` fallback, the
fallback itself, input checks, and row generation (the `LPSystem` on either
backend, and the `maximize_lazy` oracle of `lazy_reference`) against one
solve on the full stack."""

import contextlib
import sys
import types

import numpy as np
import pytest

from gridflex import lp
from gridflex.errors import LPSolverError
from gridflex.lp import LPSystem, maximize
from lazy_reference import maximize_lazy


def _bounded_stack(rng, n_rows=300, n_var=5):
    """Random rows around the origin: bounded, with the origin inside."""
    a = rng.normal(size=(n_rows, n_var))
    b = rng.uniform(0.5, 2.0, size=n_rows)
    return a, b


def _mask(n_rows, n_working):
    working = np.zeros(n_rows, dtype=bool)
    working[:n_working] = True
    return working


def _rows(a, b, a_eq, bounds):
    """``a x <= b`` plus each equality ``a_eq x = 0`` as a row pair and each
    finite bound in ``bounds`` (one ``(lo, hi)`` pair per column, None for
    none) as a row."""
    eye = np.eye(a.shape[1])
    a_rows, b_rows = [a, a_eq, -a_eq], [b, np.zeros(2 * len(a_eq))]
    for j, (lo, hi) in enumerate(bounds):
        for sign, lim in ((1.0, hi), (-1.0, lo)):
            if lim is not None:
                a_rows.append(sign * eye[j:j + 1])
                b_rows.append([sign * lim])
    return np.vstack(a_rows), np.concatenate(b_rows)


def _neighbor_shaped():
    """Rows, two equalities as row pairs and per-column bands as rows, as in
    the deviation LPs."""
    rng = np.random.default_rng(11)
    a, b = _bounded_stack(rng, n_rows=60, n_var=7)
    a_eq = np.array([[1.0, 1.0, 1.0, -1.0, -1.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]])
    bounds = ([(None, None)] + [(-0.3, 0.4)] * 3 + [(None, None)]
              + [(None, 0.5), (-0.2, None)])
    a, b = _rows(a, b, a_eq, bounds)
    return dict(c=rng.normal(size=7), a_ub=a, b_ub=b)


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


def _use_backend(backend, monkeypatch):
    """Solve on ``backend``, "direct" or "linprog"; the direct one is
    skipped when this scipy has no bundled HiGHS bindings."""
    if backend == "direct" and lp._highs is None:
        pytest.skip("this scipy has no bundled HiGHS bindings")
    monkeypatch.setattr(lp, "_backend", {"direct": lp._solve_highs,
                                         "linprog": lp._solve_linprog}[backend])


def _on_both_backends(values):
    """``(value, backend)`` parameters over both backends; the direct ones
    keep the test ids of ``value`` alone."""
    return ([pytest.param(v, "direct", id=str(v)) for v in values]
            + [pytest.param(v, "linprog", id=f"linprog-{v}") for v in values])


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
    post-solve slack, sqrt(1e-9) * 10, is a backend failure, in
    ``maximize`` and in an ``LPSystem``, also where the system holds the
    rows as column bounds."""
    real = lp._highs

    class Drifting:
        def __init__(self):
            self._inner = real._Highs()

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def getSolution(self):
            solution = self._inner.getSolution()
            solution.row_value = list(np.array(solution.row_value) + drift)
            solution.col_value = list(np.array(solution.col_value) + drift)
            return solution

    monkeypatch.setattr(lp, "_highs", types.SimpleNamespace(
        **{**vars(real), "_Highs": Drifting}))
    monkeypatch.setattr(lp, "_backend", lp._solve_highs)
    data = _bounded()
    working = np.ones(len(data["b_ub"]), dtype=bool)
    # The unit box, every row of one coefficient: the model has no rows.
    box = np.vstack([np.eye(3), -np.eye(3)]), np.ones(6), np.ones(6, dtype=bool)
    for solve in (lambda: _run("bounded"),
                  lambda: LPSystem(data["a_ub"], data["b_ub"], working).maximize(
                      data["c"], range(3)),
                  lambda: LPSystem(*box).maximize(np.ones(3), range(3))):
        if fails:
            with pytest.raises(LPSolverError, match="breaks the constraints"):
                solve()
        else:
            assert solve().optimal


@direct_only
def test_missing_array_overload_falls_back_to_linprog(monkeypatch):
    """Bindings whose ``passModel`` takes no plain arrays fail the self-check,
    and every LP goes through ``linprog``."""
    expected = {case: _run(case) for case in BATTERY}
    real = lp._highs

    class NoArrays:
        def __init__(self):
            self._inner = real._Highs()

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def passModel(self, *args):
            if len(args) != 1:
                raise TypeError("passModel(): incompatible function arguments")
            return self._inner.passModel(*args)

    monkeypatch.setattr(lp, "_highs", types.SimpleNamespace(
        **{**vars(real), "_Highs": NoArrays}))
    monkeypatch.setattr(lp, "_backend", None)
    assert not lp._self_check()
    for case, ref in expected.items():
        _same(_run(case), ref)
    assert lp._backend is lp._solve_linprog


def _unknown_on_dual():
    """A free unbounded LP (5 columns, 10 rows) on which the HiGHS dual
    simplex ends in ``Unknown``, with presolve on or off."""
    rng = np.random.default_rng(1)
    for k in range(575):
        n = rng.integers(2, 6)
        m = rng.integers(n + 1, 40)
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m) + (0.5 if k % 3 else -0.2)
        c = rng.normal(size=n) * (k % 5 != 0)
    return dict(c=c, a_ub=a, b_ub=b)


@direct_only
def test_unknown_is_retried_with_the_primal_simplex(monkeypatch):
    monkeypatch.setattr(lp, "_backend", lp._solve_highs)
    data = _unknown_on_dual()
    assert maximize(**data).status == "unbounded"
    assert maximize(**{**data, "c": np.zeros(5)}).status == "optimal"


def _tolerance_sensitive():
    """``x0 <= 1`` and ``x0 >= 1 + 5e-7``: infeasible at HiGHS's own
    tolerance, feasible at 1e-6."""
    return dict(c=[1.0, 1.0], a_ub=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                                    [0.0, -1.0]], b_ub=[1.0, -1.0 - 5e-7, 1.0, 1.0])


def _mixed_sequence():
    """Seeded LPs of every status, with and without equalities and bounds
    written as rows, plus a tie, the ``Unknown`` LP and a
    tolerance-sensitive one."""
    rng = np.random.default_rng(19)
    lps = []
    for k in range(24):
        n = int(rng.integers(2, 6))
        a, b = _bounded_stack(rng, n_rows=int(rng.integers(n + 1, 30)), n_var=n)
        data = dict(c=rng.normal(size=n), a_ub=a, b_ub=b)
        if k % 4 == 1:
            data["a_ub"] = np.vstack([a, np.eye(n)[:1], -np.eye(n)[:1]])
            data["b_ub"] = np.concatenate([b, [-5.0, -5.0]])
        elif k % 4 == 2:
            data["a_ub"][:, 0] = 0.0
            data["c"] = np.eye(n)[0]
        elif k % 4 == 3:
            data["a_ub"], data["b_ub"] = _rows(
                a, b, np.ones((1, n)), [(-0.3, 0.4)] * (n - 1) + [(None, None)])
        lps.append(data)
    # max x + y on the unit square cut by x + y <= 1 (twice): every point
    # of an edge is optimal, and four rows meet at each of its ends.
    lps.append(dict(c=[1.0, 1.0], a_ub=[[1.0, 1.0], [1.0, 0.0], [0.0, 1.0],
                                        [-1.0, 0.0], [0.0, -1.0], [2.0, 2.0]],
                    b_ub=[1.0, 1.0, 1.0, 0.0, 0.0, 2.0]))
    lps += [_unknown_on_dual(), _tolerance_sensitive(), _neighbor_shaped()]
    return lps


def _bits(res):
    return (res.status, None if res.x is None else res.x.tobytes(),
            None if res.value is None else np.float64(res.value).tobytes())


@direct_only
def test_the_reused_instance_carries_nothing_between_solves(monkeypatch):
    """Each LP gives the bytes a fresh ``_Highs()`` gives it, in any order."""
    monkeypatch.setattr(lp, "_backend", lp._solve_highs)
    lps = _mixed_sequence()
    with monkeypatch.context() as fresh:
        fresh.setattr(lp, "_solver", lambda: lp._highs._Highs())
        expected = [_bits(maximize(**data)) for data in lps]
    assert {status for status, _, _ in expected} == {
        "optimal", "infeasible", "unbounded"}
    order = np.random.default_rng(5).permutation(len(lps))
    for indices in (range(len(lps)), order):
        for i in indices:
            assert _bits(maximize(**lps[i])) == expected[i], i


@direct_only
def test_options_do_not_outlive_their_block(monkeypatch):
    monkeypatch.setattr(lp, "_backend", lp._solve_highs)
    data = _tolerance_sensitive()
    before = _bits(maximize(**data))
    assert before[0] == "infeasible"
    with lp.feasibility_tolerance(1e-6):
        assert maximize(**data).optimal
    assert _bits(maximize(**data)) == before
    for other in _mixed_sequence():
        with lp.feasibility_tolerance(1e-6):
            maximize(**other)
        assert _bits(maximize(**data)) == before


@pytest.mark.parametrize("backend", ["direct", "linprog"])
@pytest.mark.parametrize("name", ["c", "a_ub", "b_ub"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_lp_data_fails_at_the_seam(backend, name, bad, monkeypatch):
    _use_backend(backend, monkeypatch)
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


def test_lazy_with_equalities_and_bounds():
    """An equality and bounds written as rows behind the working rows: the
    lazy solve adds the ones it needs and reaches the full optimum."""
    rng = np.random.default_rng(3)
    a, b = _bounded_stack(rng, n_var=6)
    a, b = _rows(a, b, np.ones((1, 6)), [(-0.3, 0.4)] * 3 + [(None, None)] * 3)
    c = rng.normal(size=6)
    full = maximize(c, a, b)
    working = _mask(len(b), 40)
    lazy = maximize_lazy(c, a, b, working)
    assert full.optimal and lazy.optimal
    assert lazy.value == pytest.approx(full.value, abs=1e-9)
    assert working[300:302].any()  # a row of the equality pair was added


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


def _free_sets(rng, n_var, count):
    """``count`` seeded column subsets of ``range(n_var)``, each of at least
    two columns, sorted."""
    return [np.sort(rng.choice(n_var, size=int(rng.integers(2, n_var + 1)),
                               replace=False)) for _ in range(count)]


@pytest.mark.parametrize("seed", range(5))
def test_system_optimum_matches_the_full_stack(seed):
    rng = np.random.default_rng(seed)
    a, b = _bounded_stack(rng)
    system = LPSystem(a, b, _mask(len(b), 40))
    for _ in range(4):
        c = rng.normal(size=a.shape[1])
        full = maximize(c, a, b)
        res = system.maximize(c, range(a.shape[1]))
        assert full.optimal and res.optimal
        assert res.value == pytest.approx(full.value, abs=1e-9)
        assert np.all(a @ res.x - b <= 1e-9)


@pytest.mark.parametrize("seed, backend", _on_both_backends(range(3)))
def test_system_free_columns_are_the_column_slice(seed, backend, monkeypatch):
    """Holding the other columns at zero solves the LP of the sliced
    columns: the same status, value and point, in the order of ``free``."""
    _use_backend(backend, monkeypatch)
    rng = np.random.default_rng(seed)
    a, b = _bounded_stack(rng, n_var=7)
    system = LPSystem(a, b, _mask(len(b), 30))
    for free in _free_sets(rng, 7, 6) + [[5, 0, 3]]:
        c = rng.normal(size=7)
        sliced = maximize(c[free], a[:, free], b)
        res = system.maximize(c, free)
        assert res.optimal and sliced.optimal
        assert res.value == pytest.approx(sliced.value, abs=1e-9)
        np.testing.assert_allclose(res.x, sliced.x, rtol=0, atol=1e-9)
        # A boolean mask frees the same columns.
        mask = np.zeros(7, dtype=bool)
        mask[free] = True
        assert system.maximize(c, mask).value == pytest.approx(
            maximize(c[mask], a[:, mask], b).value, abs=1e-9)


def _status_cases():
    """(name, c, a, b, working) whose lazy status is known: an infeasible
    stack, an unbounded one (on a few and on every working row), a working
    set that is unbounded on a bounded stack, an unbounded row pair that
    HiGHS presolve calls infeasible, the ``Unknown`` LP, and a bounded stack
    with many rows of one coefficient, in and out of the working set."""
    rng = np.random.default_rng(1)
    a, b = _bounded_stack(rng)
    a_inf = np.vstack([a, np.eye(5)[:1], -np.eye(5)[:1]])
    b_inf = np.concatenate([b, [-5.0, -5.0]])
    a_unb, b_unb = _bounded_stack(np.random.default_rng(4))
    a_unb[:, 0] = 0.0
    rng = np.random.default_rng(2)
    a_one, b_one = _bounded_stack(rng)
    c_one = rng.normal(size=5)
    unknown = _unknown_on_dual()
    n_unknown = len(unknown["b_ub"])
    a_single, b_single, c_single = _single_coefficient_heavy()
    return [
        ("infeasible", np.ones(5), a_inf, b_inf, _mask(len(b_inf), 20)),
        ("unbounded", np.eye(5)[0], a_unb, b_unb, _mask(len(b_unb), 20)),
        ("unbounded-all-working", np.eye(5)[0], a_unb, b_unb,
         _mask(len(b_unb), len(b_unb))),
        ("unbounded-working-set", c_one, a_one, b_one, _mask(len(b_one), 1)),
        ("presolve-says-infeasible", np.array([2.0, -1.0, 2.0, 0.0]),
         np.array([[-2.0, 2.0, 2.0, 1.0], [2.0, -2.0, -2.0, -1.0]]),
         np.array([1.0, 2.0]), _mask(2, 2)),
        ("unknown-on-dual", unknown["c"], unknown["a_ub"], unknown["b_ub"],
         _mask(n_unknown, n_unknown)),
        ("single-coefficient-heavy", c_single, a_single, b_single,
         _mask(len(b_single), 12)),
    ]


def _single_coefficient_heavy():
    """``(a, b, c)``: a bounded stack with, on each of its first four
    columns, two rows of one coefficient per side at random scales, half of
    them before the other rows and half after."""
    rng = np.random.default_rng(3)
    a, b = _bounded_stack(rng, n_rows=60)
    rows, offsets = [], []
    for j in range(4):
        for sign in (1.0, 1.0, -1.0, -1.0):
            scale, limit = rng.uniform(0.5, 3.0), rng.uniform(0.05, 0.5)
            rows.append(sign * scale * np.eye(5)[j])
            offsets.append(scale * limit)
    rows, offsets = np.array(rows), np.array(offsets)
    return (np.vstack([rows[::2], a, rows[1::2]]),
            np.concatenate([offsets[::2], b, offsets[1::2]]),
            rng.normal(size=5))


@pytest.mark.parametrize("case, backend", _on_both_backends(range(7)))
def test_system_statuses_match_maximize_lazy(case, backend, monkeypatch):
    _use_backend(backend, monkeypatch)
    name, c, a, b, working = _status_cases()[case]
    if backend == "linprog" and name == "unknown-on-dual":
        # linprog has no primal retry: the oracle and the system both fail.
        with pytest.raises(LPSolverError, match="LP backend failed"):
            maximize_lazy(c, a, b, working.copy())
        with pytest.raises(LPSolverError, match="LP backend failed"):
            LPSystem(a, b, working.copy()).maximize(c, range(a.shape[1]))
        return
    lazy = maximize_lazy(c, a, b, working.copy())
    res = LPSystem(a, b, working.copy()).maximize(c, range(a.shape[1]))
    assert res.status == lazy.status, name
    if lazy.optimal:
        assert res.value == pytest.approx(lazy.value, abs=1e-9)
    assert {"infeasible": "infeasible", "unbounded-working-set": "optimal",
            "single-coefficient-heavy": "optimal"}.get(
        name, "unbounded") == res.status
    if name == "unbounded-working-set":
        assert maximize(c, a[working], b[working]).status == "unbounded"


@pytest.mark.parametrize("n_working", [0, 4])
@pytest.mark.parametrize("backend", ["direct", "linprog"])
def test_system_held_column_keeps_its_single_coefficient_rows(
        backend, n_working, monkeypatch):
    """A held column sits at zero, so a row of one coefficient that zero
    breaks makes the LP infeasible, as on the sliced columns; freed, the
    column takes the row as its bound."""
    _use_backend(backend, monkeypatch)
    # -1 <= x0 <= 1 and x1 >= 1, each a row of one coefficient, and
    # x0 + x1 <= 5.
    a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0, -1.0, 5.0])
    c = np.array([1.0, 0.0])
    assert maximize_lazy(c[[0]], a[:, [0]], b,
                         _mask(4, n_working)).status == "infeasible"
    system = LPSystem(a, b, _mask(4, n_working))
    assert system.maximize(c, [0]).status == "infeasible"
    res = system.maximize(np.array([1.0, 1.0]), [0, 1])
    assert res.optimal and res.value == pytest.approx(5.0, abs=1e-9)
    assert res.x[1] >= 1.0 - 1e-9
    assert system.maximize(c, [0]).status == "infeasible"


@pytest.mark.parametrize("backend", ["direct", "linprog"])
def test_system_tighter_single_coefficient_row_holds(backend, monkeypatch):
    """Of two rows of one coefficient on one side of a column, in either
    order, the tighter one bounds it."""
    _use_backend(backend, monkeypatch)
    # x0 <= 3 and x0 <= 2 (as 2 x0 <= 4); x0 >= -1 and x0 >= -0.5 (as
    # -4 x0 <= 2); -1 <= x1 <= 1.
    a = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-4.0, 0.0],
                  [0.0, 1.0], [0.0, -1.0]])
    b = np.array([3.0, 4.0, 1.0, 2.0, 1.0, 1.0])
    for order in ([0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 4, 5]):
        system = LPSystem(a[order], b[order], _mask(6, 0))
        for sign, value in ((1.0, 2.0), (-1.0, 0.5)):
            res = system.maximize(np.array([sign, 0.0]), [0, 1])
            assert res.optimal
            assert res.value == pytest.approx(value, abs=1e-9)


@direct_only
def test_system_keeps_a_row_whose_bound_highs_reads_as_infinite(monkeypatch):
    """HiGHS reads a bound of 1e20 or more as infinite, so such a row stays
    a row of the model; the other rows of one coefficient fold into column
    bounds and join the working set."""
    monkeypatch.setattr(lp, "_backend", lp._solve_highs)
    # x0 <= 1e21 as 1e-9 x0 <= 1e12, x0 <= 1e20 as 1e-8 x0 <= 1e12, and
    # the box -1 <= x <= 1.
    a = np.vstack([[1e-9, 0.0], [1e-8, 0.0], np.eye(2), -np.eye(2)])
    b = np.array([1e12, 1e12, 1.0, 1.0, 1.0, 1.0])
    working = np.array([True, True, False, False, False, False])
    system = LPSystem(a, b, working)
    assert working.all()
    assert system._solver.getNumRow() == 2
    res = system.maximize(np.array([1.0, 1.0]), [0, 1])
    assert res.optimal and res.value == pytest.approx(2.0, abs=1e-9)
    working = np.zeros(6, dtype=bool)
    system = LPSystem(a, b, working)
    assert working.tolist() == [False, False, True, True, True, True]
    assert system._solver.getNumRow() == 0
    assert system.maximize(np.array([1.0, 1.0]), [0, 1]).value == pytest.approx(
        2.0, abs=1e-9)


def test_system_mask_only_grows_and_is_deterministic():
    rng = np.random.default_rng(5)
    a, b = _bounded_stack(rng, n_var=6)
    costs = rng.normal(size=(6, a.shape[1]))
    frees = _free_sets(rng, 6, 6)
    runs = []
    for _ in range(2):
        working = _mask(len(b), 40)
        system = LPSystem(a, b, working)
        values = []
        for c, free in zip(costs, frees):
            before = working.copy()
            res = system.maximize(c, free)
            assert res.optimal
            assert np.all(working[before])
            values.append(_bits(res))
        assert system.working is working
        runs.append((working, values))
    assert runs[0][0].sum() > 40
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("backend", ["direct", "linprog"])
@pytest.mark.parametrize("name", ["c", "a_ub", "b_ub"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_system_rejects_non_finite_data(backend, name, bad, monkeypatch):
    """The stack is checked when the system is built, ``c`` on each solve."""
    _use_backend(backend, monkeypatch)
    data = _neighbor_shaped()
    data[name] = np.array(data[name], dtype=float)
    data[name].flat[1] = bad
    working = _mask(len(data["b_ub"]), 10)
    with pytest.raises(LPSolverError, match=f"LP data {name} holds"):
        LPSystem(data["a_ub"], data["b_ub"], working).maximize(data["c"], range(7))


def test_system_rejects_shapes_that_disagree():
    data = _neighbor_shaped()
    a, b, c = data["a_ub"], data["b_ub"], data["c"]
    working = _mask(len(b), 10)
    for args in ((a, b[:-1], working), (a[0], b, working),
                 (a, b, working[:-1]), (a, b, working.astype(int))):
        with pytest.raises(LPSolverError, match="disagree"):
            LPSystem(*args)
    system = LPSystem(a, b, working)
    for cost, free in ((c[:-1], range(7)), (c[None, :], range(7)), (c, [])):
        with pytest.raises(LPSolverError, match="disagree"):
            system.maximize(cost, free)


@pytest.mark.parametrize("backend", ["direct", "linprog"])
def test_system_keeps_the_tolerance_it_was_built_with(backend, monkeypatch):
    _use_backend(backend, monkeypatch)
    data = _tolerance_sensitive()
    working = np.ones(len(data["b_ub"]), dtype=bool)
    assert LPSystem(data["a_ub"], data["b_ub"], working).maximize(
        data["c"], [0, 1]).status == "infeasible"
    with lp.feasibility_tolerance(1e-6):
        system = LPSystem(data["a_ub"], data["b_ub"], working)
        assert system.maximize(data["c"], [0, 1]).optimal
    assert system.maximize(data["c"], [0, 1]).optimal
    with lp.feasibility_tolerance(1e-6):
        system = LPSystem(data["a_ub"], data["b_ub"], working)
    assert system.maximize(data["c"], [0, 1]).optimal
    # A block opened after the system was built does not reach it either.
    system = LPSystem(data["a_ub"], data["b_ub"], working)
    with lp.feasibility_tolerance(1e-6):
        assert system.maximize(data["c"], [0, 1]).status == "infeasible"
    # Nor the full-stack solve after an unbounded working set.
    with lp.feasibility_tolerance(1e-6):
        system = LPSystem(data["a_ub"], data["b_ub"],
                          np.array([True, False, False, False]))
    assert system.maximize(data["c"], [0, 1]).optimal


def test_system_on_the_fallback_is_maximize_lazy_on_the_slice(monkeypatch):
    calls, real = [], lp.linprog
    monkeypatch.setattr(lp, "linprog",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    rng = np.random.default_rng(7)
    a, b = _bounded_stack(rng, n_var=6)
    free, c = [0, 2, 3, 5], rng.normal(size=6)
    expected_mask = _mask(len(b), 30)
    expected = maximize_lazy(c[free], a[:, free], b, expected_mask)
    calls.clear()
    monkeypatch.setattr(lp, "_backend", lp._solve_linprog)
    working = _mask(len(b), 30)
    res = LPSystem(a, b, working).maximize(c, free)
    assert calls
    assert res.value == pytest.approx(expected.value, abs=1e-9)
    np.testing.assert_allclose(res.x, expected.x, rtol=0, atol=1e-9)
    assert np.array_equal(working, expected_mask)


@direct_only
def test_a_system_leaves_the_shared_instance_alone(monkeypatch):
    """A system solves on its own ``_Highs``: the shared instance gives
    every LP the same bytes before and after a system has run."""
    monkeypatch.setattr(lp, "_backend", lp._solve_highs)
    lps = _mixed_sequence()
    before = [_bits(maximize(**data)) for data in lps]
    shared = lp._solver()
    rng = np.random.default_rng(3)
    a, b = _bounded_stack(rng, n_var=6)
    system = LPSystem(a, b, _mask(len(b), 20))
    for free in _free_sets(rng, 6, 5):
        assert system.maximize(rng.normal(size=6), free).optimal
    assert system._solver is not shared
    assert lp._solver() is shared
    assert [_bits(maximize(**data)) for data in lps] == before
