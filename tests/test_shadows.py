"""Hull-refinement projection and the vertex path for 2-D shadows, both
against Fourier-Motzkin and LP oracles."""

import itertools

import numpy as np
import pytest

from gridflex import (ExternalPolytope, FlexibilitySpec, HPolytope,
                      InfeasibleSetError, ProjectionSizeError,
                      UnboundedSetError, area_2d, exported_flexibility,
                      external_polytope, project, vertices_2d)
from gridflex.lp import maximize
from gridflex.polytope import (CONTAIN_TOL, contains, hull_2d, normalize_rows,
                               polygon_area, vertices)

from fm_reference import fourier_motzkin

TOL = 1e-7


def random_polytope(rng, flat, n_extra=5, dim=3):
    """Box plus random cuts around the origin; ``flat`` adds a balance pair."""
    labels = tuple(f"t{k}" for k in range(dim))
    blocks_a = [np.eye(dim), -np.eye(dim), rng.normal(size=(n_extra, dim))]
    blocks_b = [0.5 + rng.random(dim), 0.5 + rng.random(dim),
                np.abs(rng.normal(size=n_extra)) + 0.3]
    if flat:
        blocks_a.append(np.vstack([np.ones(dim), -np.ones(dim)]))
        blocks_b.append(np.zeros(2))
    return HPolytope(np.vstack(blocks_a), np.concatenate(blocks_b), labels)


@pytest.mark.parametrize("flat", [False, True])
def test_vertex_shadows_match_fm(flat):
    rng = np.random.default_rng(11 if flat else 5)
    for trial in range(20):
        poly = random_polytope(rng, flat)
        verts = vertices(poly)
        for i, j in itertools.combinations(range(poly.dim), 2):
            fm = fourier_motzkin(poly, [poly.labels[i], poly.labels[j]])
            hull = hull_2d(verts[:, [i, j]])
            tag = (flat, trial, i, j)
            # Every hull vertex lies in the FM shadow ...
            assert np.all(hull @ fm.A.T <= fm.b + TOL), tag
            # ... and every FM row is attained by some hull vertex.
            attained = np.max(hull @ fm.A.T - fm.b, axis=0)
            assert np.all(attained >= -TOL), tag
            assert polygon_area(hull) == pytest.approx(area_2d(fm), abs=1e-9), tag


def assert_same_set(p, q, tol=TOL):
    """Mutual containment of two H-polytopes over the same labels."""
    assert contains(p, q, tol=tol).contained
    assert contains(q, p, tol=tol).contained


def lp_overshoot(outer, inner):
    """Containment by LPs: each unit row of ``outer`` is pushed as far as
    ``inner`` allows, and the overshoot is the largest excess, or 0.0."""
    p = normalize_rows(outer)
    worst = 0.0
    for n, h in zip(p.A, p.b):
        res = maximize(n, inner.A, inner.b)
        assert res.optimal
        worst = max(worst, res.value - h)
    return worst


@pytest.mark.parametrize("dim", [2, 3])
def test_contains_matches_the_per_row_lp_oracle(dim):
    """Random pairs, every third inner set flat, each outer set scaled and
    carrying two redundant rows: a looser parallel copy and a row sum."""
    rng = np.random.default_rng(40 + dim)
    verdicts = set()
    for trial in range(30):
        inner = random_polytope(rng, flat=trial % 3 == 0, dim=dim)
        outer = random_polytope(rng, flat=False, dim=dim)
        a, b = outer.A, outer.b * rng.uniform(0.8, 3.0)
        outer = HPolytope(np.vstack([a, 2 * a[0], a[1] + a[-1]]),
                          np.concatenate([b, [2 * b[0] + 0.5, b[1] + b[-1]]]),
                          outer.labels)
        result, worst = contains(outer, inner), lp_overshoot(outer, inner)
        tag = (dim, trial)
        assert result.contained == (worst <= CONTAIN_TOL), tag
        assert result.max_violation == pytest.approx(worst, abs=1e-8), tag
        verdicts.add(result.contained)
        if result.witness is None:
            assert result.max_violation == 0.0, tag
            continue
        assert any(np.array_equal(result.witness, v) for v in vertices(inner)), tag
        p = normalize_rows(outer)
        assert np.max(p.A @ result.witness - p.b) == pytest.approx(
            result.max_violation, abs=1e-9), tag
    assert verdicts == {False, True}


@pytest.mark.parametrize("flat", [False, True])
def test_hull_refinement_matches_fm(flat):
    rng = np.random.default_rng(11 if flat else 5)
    for trial in range(20):
        poly = random_polytope(rng, flat)
        for keep in itertools.combinations(poly.labels, 2):
            hr, fm = project(poly, keep), fourier_motzkin(poly, keep)
            assert_same_set(hr, fm)
            assert area_2d(hr) == pytest.approx(area_2d(fm), abs=1e-9), (trial, keep)


def test_project_single_kept_dimension_is_an_interval():
    poly = random_polytope(np.random.default_rng(8), flat=False)
    hr = project(poly, ["t1"])
    assert hr.nrows == 2 and hr.labels == ("t1",)
    assert_same_set(hr, fourier_motzkin(poly, ["t1"]))


def test_project_flat_shadow():
    """The kept pair is tied to ``e0 + e1 = 0``: the shadow is a segment."""
    a = np.vstack([np.eye(3), -np.eye(3), [[0.0, 1.0, 1.0], [0.0, -1.0, -1.0],
                                           [1.0, 1.0, 0.0]]])
    b = np.concatenate([np.ones(6), [0.0, 0.0, 0.5]])
    poly = HPolytope(a, b, ("i", "e0", "e1"))
    hr = project(poly, ["e0", "e1"])
    assert_same_set(hr, fourier_motzkin(poly, ["e0", "e1"]))
    assert np.allclose(vertices(hr), [[-1.0, 1.0], [1.0, -1.0]])
    assert area_2d(hr) == 0.0


def test_project_single_point():
    a = np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0]]])
    b = np.array([1.0, 0.25, -0.5, 1.0, -0.25, 0.5, 2.0])
    poly = HPolytope(a, b, ("i", "e0", "e1"))
    hr = project(poly, ["e0", "e1"])
    assert hr.nrows == 4
    assert np.allclose(vertices(hr), [[0.25, -0.5]])


def test_project_empty_set_raises():
    a = np.vstack([np.eye(3), -np.eye(3)])
    b = np.array([1.0, 1.0, 1.0, -2.0, 1.0, 1.0])
    with pytest.raises(InfeasibleSetError):
        project(HPolytope(a, b, ("i", "e0", "e1")), ["e0", "e1"])


def test_project_unbounded_set_raises():
    a = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                  [0.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
    poly = HPolytope(a, np.ones(5), ("i", "e0", "e1"))
    with pytest.raises(UnboundedSetError):
        project(poly, ["e0", "e1"])


SQUARE = [[1, 0], [-1, 0], [0, 1], [0, -1]]


@pytest.mark.parametrize("rows, b, row_cap, expected", [
    (SQUARE + [[1, 1]], [1, 1, 1, 1, 2], 100, 4),
    ([[1, 0], [-1, 0], [0, -1]], [1, 1, 0], 100, UnboundedSetError),
    (SQUARE + [[1, 1], [1, -1], [-1, 1], [-1, -1]], [1] * 4 + [1.5] * 4, 4,
     ProjectionSizeError),
], ids=["row-touching-a-corner", "half-strip", "octagon-over-cap"])
def test_project_keeping_every_column(rows, b, row_cap, expected):
    """Keeping every column refines the hull like any other projection: a
    row that only touches the set goes, and boundedness and the row cap
    are checked."""
    poly = HPolytope(np.array(rows, float), np.array(b, float), ("x", "y"))
    if isinstance(expected, type):
        with pytest.raises(expected):
            project(poly, ["x", "y"], row_cap=row_cap)
        return
    hr = project(poly, ["x", "y"], row_cap=row_cap)
    assert hr.nrows == expected
    assert_same_set(hr, poly)


def test_project_when_axis_optima_give_two_points():
    """Instance 12 of the shadow-oracle generator (seed 0): the four
    support LPs along the kept axes end at only two distinct points, so
    the hull needs the LP pair along the missing direction first."""
    rng = np.random.default_rng((0, 3))
    for k in range(13):
        n_i = 1 + k % 3
        dim = n_i + 2
        hi, lo = 0.5 + rng.random(dim), -(0.5 + rng.random(dim))
        a = np.vstack([np.eye(dim), -np.eye(dim), np.ones((1, dim)),
                       -np.ones((1, dim)), rng.normal(size=(5, dim))])
        b = np.concatenate([hi, -lo, np.zeros(2),
                            np.abs(rng.normal(size=5)) + 0.3])
        rng.uniform(-1.6, 1.6, size=(30, 2))
    poly = HPolytope(a, b, ("i0", "e0", "e1"))
    optima = []
    for c in ([0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]):
        optima.append(maximize(np.array(c, float), a, b).x[1:])
    assert len(np.unique(np.round(optima, 9), axis=0)) == 2
    hr = project(poly, ["e0", "e1"])
    fm = fourier_motzkin(poly, ["e0", "e1"])
    assert_same_set(hr, fm)
    assert area_2d(hr) == pytest.approx(area_2d(fm), abs=1e-9)
    assert area_2d(hr) > 0.1


def test_metric_equals_fm_pair_areas():
    rng = np.random.default_rng(3)
    for flat in (False, True):
        poly = random_polytope(rng, flat)
        report = exported_flexibility(ExternalPolytope(poly, {}))
        for x, y, area in report.pair_areas:
            assert area == pytest.approx(area_2d(fourier_motzkin(poly, [x, y])),
                                         abs=1e-9)


def test_single_tie_metric_is_interval_length():
    poly = HPolytope(np.array([[1.0], [-1.0], [2.0]]),
                     np.array([1.0, 0.5, 4.0]), ("tie:a",))
    assert np.allclose(vertices(poly), [[-0.5], [1.0]])
    report = exported_flexibility(ExternalPolytope(poly, {}))
    assert report.pair_areas == ()
    assert report.total == pytest.approx(1.5, abs=1e-12)


def test_toy_passive_set_is_a_segment(toy_case):
    fe = external_polytope(toy_case, FlexibilitySpec("passive", "n"))
    assert np.array_equal(vertices_2d(fe.poly), [[-1.0, 1.0], [1.0, -1.0]])
    assert exported_flexibility(fe).total == 0.0


def test_single_point():
    a = np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]])
    point = HPolytope(a, np.array([1.0, 2.0, -1.0, -2.0, 3.0]), ("x", "y"))
    assert np.array_equal(vertices_2d(point), [[1.0, 2.0]])
    assert area_2d(point) == 0.0


def test_hull_drops_interior_and_collinear_points():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    extra = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0 + 1e-10], [2.0, 2.0]])
    hull = hull_2d(np.vstack([extra, square[::-1]]))
    assert np.array_equal(hull, square)


def test_empty_set_raises():
    empty = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                      np.array([-1.0, -1.0, 1.0, 1.0]), ("x", "y"))
    with pytest.raises(InfeasibleSetError):
        vertices_2d(empty)
    with pytest.raises(InfeasibleSetError):
        exported_flexibility(ExternalPolytope(empty, {}))


def test_unbounded_set_raises():
    half = HPolytope(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                               [0.0, 0.0, 1.0]]), np.ones(3), ("a", "b", "c"))
    with pytest.raises(UnboundedSetError):
        vertices(half)
    with pytest.raises(UnboundedSetError):
        exported_flexibility(ExternalPolytope(half, {}))


def test_unbounded_lp_reported_as_infeasible_by_presolve():
    """A criterion-2 style instance on which HiGHS presolve calls an
    unbounded redundancy LP infeasible; its shadow must still project
    and agree with the per-point LP oracle."""
    rng = np.random.default_rng(1)
    for _ in range(23):
        n_i = int(rng.integers(1, 4))
        dim = n_i + 2
        hi, lo = 0.5 + rng.random(dim), -(0.5 + rng.random(dim))
        a = np.vstack([np.eye(dim), -np.eye(dim), np.ones((1, dim)),
                       -np.ones((1, dim)), rng.normal(size=(5, dim))])
        b = np.concatenate([hi, -lo, np.zeros(2),
                            np.abs(rng.normal(size=5)) + 0.3])
    assert n_i == 2
    labels = tuple(f"i{k}" for k in range(n_i)) + ("e0", "e1")
    shadow = project(HPolytope(a, b, labels), ["e0", "e1"])
    disagreements = 0
    axis = np.linspace(-1.6, 1.6, 41)
    for x in axis:
        for y in axis:
            point = np.array([x, y])
            margin = float(np.min(shadow.b - shadow.A @ point))
            if abs(margin) <= 1e-6:
                continue
            rhs = b - a[:, n_i:] @ point
            oracle = maximize(np.zeros(n_i), a[:, :n_i], rhs + 1e-9).optimal
            disagreements += (margin > 0) != oracle
    assert disagreements == 0
