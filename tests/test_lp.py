"""Row generation (`maximize_lazy`) against one solve on the full stack."""

import numpy as np
import pytest

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
