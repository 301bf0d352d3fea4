import itertools
import json
import math

import numpy as np
import pytest

from gridflex import (GridflexError, HPolytope, InfeasibleSetError,
                      ProjectionSizeError, UnboundedSetError, area_2d, contains,
                      exported_flexibility, is_feasible, project, vertices_2d,
                      write_vertices_csv)
from gridflex import lp, polytope
from gridflex.analysis import ExternalPolytope
from gridflex.lp import maximize
from gridflex.polytope import normalize_rows, tightest_rows

from fm_reference import eliminate_variable, remove_redundant


def box(bounds, labels=None):
    """Axis-aligned box from (lo, hi) pairs."""
    d = len(bounds)
    labels = labels or tuple(f"x{i}" for i in range(d))
    a = np.vstack([np.eye(d), -np.eye(d)])
    b = np.concatenate([[hi for _, hi in bounds], [-lo for lo, _ in bounds]])
    return HPolytope(a, b, labels)


def hexagon():
    return HPolytope(
        A=np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]]),
        b=np.ones(6), labels=("x", "y"))


def lp_membership_oracle(poly, internal_cols, point, tol=1e-8):
    """A point is in the shadow iff some completion satisfies every row."""
    a_int = poly.A[:, internal_cols]
    external_cols = [j for j in range(poly.dim) if j not in internal_cols]
    rhs = poly.b - poly.A[:, external_cols] @ point
    res = maximize(np.zeros(len(internal_cols)), a_int, rhs + tol)
    return res.optimal


def test_feasible_interval():
    p = HPolytope(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]), ("x",))
    ok, witness = is_feasible(p)
    assert ok and 0.0 - 1e-9 <= witness[0] <= 1.0 + 1e-9


def test_infeasible_interval():
    p = HPolytope(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]), ("x",))
    ok, witness = is_feasible(p)
    assert not ok and witness is None


def test_feasible_flat_set_has_boundary_witness():
    a = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [-1.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0, 1.0])
    ok, witness = is_feasible(HPolytope(a, b, ("x", "y")))
    assert ok
    assert abs(witness.sum()) <= 1e-8


def test_feasible_unbounded_set():
    p = HPolytope(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.zeros(2), ("x", "y"))
    ok, witness = is_feasible(p)
    assert ok and witness is not None


def test_normalize_merges_duplicates_and_unit_norms():
    a = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    b = np.array([4.0, 2.0, 6.0])
    p = normalize_rows(HPolytope(a, b, ("x", "y")))
    assert p.nrows == 2
    assert np.allclose(np.linalg.norm(p.A, axis=1), 1.0)
    # Normals that round to 0.0 and to -0.0 are one direction.
    a = np.array([[1.0, 1e-13], [1.0, -1e-13]])
    p = normalize_rows(HPolytope(a, np.array([2.0, 1.0]), ("x", "y")))
    assert p.nrows == 1 and p.b[0] == pytest.approx(1.0)
    # A system left with no rows keeps its width, also a width of zero.
    for a, labels in ((np.zeros((0, 0)), ()), (np.zeros((1, 2)), ("x", "y"))):
        p = normalize_rows(HPolytope(a, np.ones(len(a)), labels))
        assert p.A.shape == (0, len(labels)) and p.labels == labels


def test_tightest_rows_keep_one_row_per_direction():
    """Parallel rows keep the least scaled offset, a later row replacing
    the kept one only when more than 1e-15 below it, and rows of norm at
    most ``_ZERO_ROW_TOL`` share the zero direction with their offsets as
    given."""
    a = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 3.0],
                  [0.0, 0.0], [1e-13, 0.0]])
    b = np.array([1.0, 1.0, 2.0, 6.0 - 1.5e-15, 1.0, -1.0])
    np.testing.assert_array_equal(tightest_rows(a, b), [1, 2, 5])


def test_remove_redundant_drops_dominated_row():
    p = HPolytope(np.array([[1.0], [1.0], [-1.0]]),
                  np.array([1.0, 2.0, 0.0]), ("x",))
    r = remove_redundant(p)
    assert r.nrows == 2
    assert sorted(zip(r.A[:, 0], r.b)) == [(-1.0, 0.0), (1.0, 1.0)]


def test_remove_redundant_duplicate_square():
    p = box([(-1, 1), (-1, 1)])
    doubled = HPolytope(np.vstack([p.A, p.A]), np.concatenate([p.b, p.b]),
                        p.labels)
    assert remove_redundant(doubled).nrows == 4


def test_remove_redundant_preserves_membership_sampling():
    rng = np.random.default_rng(11)
    dim = 5
    a = rng.normal(size=(60, dim))
    b = np.abs(rng.normal(size=60)) + 0.2  # origin stays inside
    p = HPolytope(a, b, tuple(f"x{i}" for i in range(dim)))
    r = remove_redundant(p)
    assert r.nrows < p.nrows
    pts = rng.normal(scale=0.8, size=(1000, dim))
    before = p.contains_points(pts, tol=1e-7)
    after = r.contains_points(pts, tol=1e-7)
    assert np.array_equal(before, after)


def test_remove_redundant_idempotent():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 3))
    b = np.abs(rng.normal(size=40)) + 0.1
    r1 = remove_redundant(HPolytope(a, b, ("x", "y", "z")))
    r2 = remove_redundant(r1)
    assert r1.nrows == r2.nrows
    assert np.allclose(np.sort(r1.b), np.sort(r2.b))


def test_remove_redundant_rejects_empty():
    p = HPolytope(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]), ("x",))
    with pytest.raises(InfeasibleSetError):
        remove_redundant(p)


def test_eliminate_variable_hand_example():
    p = HPolytope(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                  np.array([1.0, 0.0, 0.0]), ("x", "y"))
    q = eliminate_variable(p, "y")
    assert q.labels == ("x",)
    rows = sorted(zip(q.A[:, 0], q.b))
    assert rows == [(-1.0, 0.0), (1.0, 1.0)]


def test_eliminate_variable_without_occurrences():
    p = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]),
                  ("x", "y"))
    q = eliminate_variable(p, "y")
    assert q.labels == ("x",)
    assert q.nrows == 2


def test_eliminate_cube_face():
    q = eliminate_variable(box([(-1, 1)] * 3), "x2")
    r = remove_redundant(q)
    assert r.labels == ("x0", "x1")
    assert r.nrows == 4
    assert np.allclose(np.sort(r.b), 1.0)


def _toy_hexagon():
    """The toy hexagon as a flat 3-D set: the unit box cut by the balance
    row pair ``i + e0 + e1 = 0``, whose shadow on ``(e0, e1)`` is the
    hexagon."""
    balance = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
    return HPolytope(np.vstack([np.eye(3), -np.eye(3), balance]),
                     np.concatenate([np.ones(6), np.zeros(2)]),
                     ("i", "e0", "e1"))


def test_project_hexagon():
    shadow = project(_toy_hexagon(), ["e0", "e1"])
    expected = HPolytope(hexagon().A, hexagon().b, ("e0", "e1"))
    assert contains(shadow, expected, tol=1e-9).contained
    assert contains(expected, shadow, tol=1e-9).contained
    assert area_2d(shadow) == pytest.approx(3.0, abs=1e-9)


def test_project_identity_is_minimal():
    p = box([(-1, 1), (-2, 2)])
    doubled = HPolytope(np.vstack([p.A, p.A]),
                        np.concatenate([p.b, p.b]), p.labels)
    r = project(doubled, ["x0", "x1"])
    assert r.nrows == 4 and r.labels == ("x0", "x1")


def test_project_solves_no_direction_twice(monkeypatch):
    """A hull facet along a start direction ``-e_j`` reuses its LP value."""
    solve, directions = lp.LPSystem.maximize, []

    def recording(system, c, free):
        directions.append(tuple(c.tolist()))
        return solve(system, c, free)

    monkeypatch.setattr(lp.LPSystem, "maximize", recording)
    r = project(box([(0, 1)] * 3), ["x0", "x2"])
    assert directions
    assert len(directions) == len(set(directions))
    assert np.allclose(vertices_2d(r).min(axis=0), 0.0)
    assert np.allclose(vertices_2d(r).max(axis=0), 1.0)
    assert area_2d(r) == pytest.approx(1.0, abs=1e-9)


def _shadow_instances(seed, count=6):
    """Seeded sets shaped like the shadow-oracle benchmark's: a box, the
    balance row pair and five random rows over 1-3 internal columns and
    the kept ``e0``, ``e1``."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n_i = 1 + k % 3
        dim = n_i + 2
        hi, lo = 0.5 + rng.random(dim), -(0.5 + rng.random(dim))
        a = np.vstack([np.eye(dim), -np.eye(dim), np.ones((1, dim)),
                       -np.ones((1, dim)), rng.normal(size=(5, dim))])
        b = np.concatenate([hi, -lo, np.zeros(2),
                            np.abs(rng.normal(size=5)) + 0.3])
        yield HPolytope(a, b, tuple(f"i{j}" for j in range(n_i)) + ("e0", "e1"))


@pytest.mark.parametrize("source", ["hexagon", 0, 1, 2])
def test_project_on_the_fallback_matches_the_direct_backend(source, monkeypatch):
    """On the ``linprog`` fallback the projection's system solves every
    support LP cold; it finds the same facets as the warm direct backend."""
    polys = [_toy_hexagon()] if source == "hexagon" else list(
        _shadow_instances(source))
    for poly in polys:
        monkeypatch.setattr(lp, "_backend", lp._solve_highs)
        direct = project(poly, ["e0", "e1"])
        monkeypatch.setattr(lp, "_backend", lp._solve_linprog)
        fallback = project(poly, ["e0", "e1"])
        assert fallback.nrows == direct.nrows
        assert contains(direct, fallback, tol=1e-9).contained
        assert contains(fallback, direct, tol=1e-9).contained


@pytest.mark.parametrize("backend", ["_solve_highs", "_solve_linprog"])
def test_project_builds_one_system_per_call(backend, monkeypatch):
    """Every support LP of one projection solves on one ``LPSystem``; on
    the direct backend, a set its box rows bound needs no cold LP."""
    systems, cold, build, solve = [], [], lp.LPSystem.__init__, lp.maximize

    def counted(system, *args):
        systems.append(system)
        build(system, *args)

    def recorded(*args):
        cold.append(1)
        return solve(*args)

    monkeypatch.setattr(lp, "_backend", getattr(lp, backend))
    monkeypatch.setattr(lp.LPSystem, "__init__", counted)
    monkeypatch.setattr(lp, "maximize", recorded)
    for poly in [_toy_hexagon(), *_shadow_instances(0)]:
        systems.clear()
        cold.clear()
        project(poly, ["e0", "e1"])
        assert len(systems) == 1
        if backend == "_solve_highs":
            assert cold == []
        else:
            assert cold


def test_project_reorders_columns():
    p = box([(-1, 1), (-2, 2)])
    r = project(p, ["x1", "x0"])
    assert r.labels == ("x1", "x0")
    verts = vertices_2d(r)
    assert np.allclose(verts.max(axis=0), [2.0, 1.0])


def test_project_onto_no_dimension_is_refused():
    with pytest.raises(GridflexError, match="keep is empty"):
        project(box([(-1, 1), (-2, 2)]), [])


def test_project_row_cap():
    rng = np.random.default_rng(5)
    a = np.vstack([rng.normal(size=(30, 4)), np.eye(4), -np.eye(4)])
    b = np.concatenate([np.abs(rng.normal(size=30)) + 0.5, np.ones(8)])
    p = HPolytope(a, b, ("a", "b", "c", "d"))
    with pytest.raises(ProjectionSizeError):
        project(p, ["a", "b"], row_cap=5)


def test_projection_agrees_with_lp_oracle():
    """Grid membership in the shadow matches single-point feasibility LPs."""
    rng = np.random.default_rng(17)
    for trial in range(5):
        n_i = int(rng.integers(1, 4))
        dim = n_i + 2
        labels = tuple(f"i{k}" for k in range(n_i)) + ("e0", "e1")
        bounds = [(-(0.5 + rng.random()), 0.5 + rng.random())
                  for _ in range(dim)]
        a = [np.eye(dim), -np.eye(dim),
             np.ones((1, dim)), -np.ones((1, dim))]
        b = [np.array([hi for _, hi in bounds]),
             np.array([-lo for lo, _ in bounds]),
             np.zeros(1), np.zeros(1)]
        extra = rng.normal(size=(5, dim))
        a.append(extra)
        b.append(np.abs(rng.normal(size=5)) + 0.3)
        p = HPolytope(np.vstack(a), np.concatenate(b), labels)
        shadow = project(p, ["e0", "e1"])

        grid = np.linspace(-1.6, 1.6, 21)
        internal_cols = list(range(n_i))
        for x in grid:
            for y in grid:
                point = np.array([x, y])
                margin = np.min(shadow.b - shadow.A @ point)
                if abs(margin) <= 1e-6:
                    continue  # boundary band
                in_shadow = margin > 0
                in_oracle = lp_membership_oracle(p, internal_cols, point)
                assert in_shadow == in_oracle, (trial, point)


def test_eliminate_preserves_shadow_by_sampling():
    rng = np.random.default_rng(23)
    a = np.vstack([rng.normal(size=(12, 3)), np.eye(3), -np.eye(3)])
    b = np.concatenate([np.abs(rng.normal(size=12)) + 0.3, np.ones(6)])
    p = HPolytope(a, b, ("x", "y", "z"))
    q = eliminate_variable(p, "z")
    pts = rng.uniform(-1.2, 1.2, size=(1000, 2))
    member_q = q.contains_points(pts, tol=1e-9)
    for pt, expected in zip(pts, member_q):
        got = lp_membership_oracle(p, [2], pt)
        assert got == expected


def test_contains_nested_boxes():
    inner = box([(-1, 1), (-1, 1)])
    outer = box([(-2, 2), (-2, 2)])
    assert contains(outer, inner).contained
    r = contains(inner, outer)
    assert not r.contained
    assert r.max_violation == pytest.approx(1.0, abs=1e-9)
    assert r.witness is not None


def test_contains_requires_matching_labels():
    with pytest.raises(ValueError):
        contains(box([(-1, 1)]), box([(-1, 1)], labels=("other",)))


def test_contains_rejects_empty_inner():
    inner = HPolytope(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]), ("x0",))
    with pytest.raises(InfeasibleSetError):
        contains(box([(-1, 1)]), inner)


@pytest.mark.parametrize("rows, witness", [
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0]),
    ([[0.0, 1.0], [1.0, 0.0]], [-1.0, 1.0])], ids=["x-first", "y-first"])
def test_contains_witness_is_the_first_vertex_of_the_first_worst_row(rows, witness):
    """Both rows overshoot by 0.5 at two vertices each: the first row wins,
    and of its vertices the first in ``vertices`` order."""
    outer = HPolytope(np.array(rows), np.array([0.5, 0.5]), ("x0", "x1"))
    r = contains(outer, box([(-1, 1), (-1, 1)]))
    assert not r.contained and r.max_violation == 0.5
    assert r.witness.tolist() == witness


def test_contains_rejects_unbounded_inner():
    half = HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]), ("x0", "x1"))
    with pytest.raises(UnboundedSetError):
        contains(box([(-1, 1), (-1, 1)]), half)


def test_contains_partial_order_on_samples():
    rng = np.random.default_rng(31)
    sizes = sorted(rng.uniform(0.5, 2.0, size=3))
    small, mid, big = (box([(-s, s), (-s, s)]) for s in sizes)
    assert contains(big, mid).contained and contains(mid, small).contained
    assert contains(big, small).contained  # transitivity
    assert contains(small, small).contained  # reflexivity
    assert not contains(small, big).contained  # antisymmetry


def test_vertices_unit_square():
    verts = vertices_2d(box([(0, 1), (0, 1)]))
    assert len(verts) == 4
    assert area_2d(box([(0, 1), (0, 1)])) == pytest.approx(1.0, abs=1e-12)


def test_vertices_hexagon():
    verts = vertices_2d(hexagon())
    assert len(verts) == 6
    expected = {(-1.0, 0.0), (-1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
                (1.0, -1.0), (0.0, -1.0)}
    assert {tuple(v) for v in np.round(verts, 9)} == expected
    assert area_2d(hexagon()) == pytest.approx(3.0, abs=1e-9)
    # Counterclockwise: positive cross products all the way around.
    for k in range(6):
        a, b, c = verts[k - 1], verts[k], verts[(k + 1) % 6]
        u, v = b - a, c - b
        assert u[0] * v[1] - u[1] * v[0] > 0


def test_area_triangle():
    p = HPolytope(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                  np.array([0.0, 0.0, 2.0]), ("x", "y"))
    assert area_2d(p) == pytest.approx(2.0, abs=1e-12)


def test_area_invariant_under_quarter_turn():
    p = hexagon()
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    q = HPolytope(p.A @ rot.T, p.b, p.labels)
    assert area_2d(q) == pytest.approx(area_2d(p), abs=1e-12)


def test_area_invariant_under_relabeling():
    p = hexagon()
    q = HPolytope(p.A[:, ::-1], p.b, ("y", "x"))
    assert area_2d(q) == pytest.approx(area_2d(p), abs=1e-12)


def test_vertices_rejects_unbounded():
    p = HPolytope(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.zeros(2),
                  ("x", "y"))
    with pytest.raises(UnboundedSetError):
        vertices_2d(p)


@pytest.mark.parametrize("a, b, error", [
    ([[1.0, 0.0]], [1.0], UnboundedSetError),
    ([[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]], [3.0, 1.0, 4.0],
     UnboundedSetError),
    # Its unit normals lie on one plane off the origin.
    ([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]],
     [1.0] * 4, UnboundedSetError),
    ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.0, -1.0, 1.0, 1.0],
     InfeasibleSetError),
], ids=["half-plane", "cone-with-apex", "pyramid-cone", "empty"])
def test_vertices_without_a_vertex_description(a, b, error):
    labels = tuple(f"x{j}" for j in range(len(a[0])))
    with pytest.raises(error):
        polytope.vertices(HPolytope(np.array(a), np.array(b), labels))


def test_vertices_reject_non_finite_data():
    p = HPolytope(np.array([[1.0], [-1.0]]), np.array([np.inf, 1.0]), ("x",))
    with pytest.raises(GridflexError):
        polytope.vertices(p)


def test_vertices_of_a_set_empty_by_less_than_the_tolerance():
    """``x <= 0``, ``x >= 5e-8`` is empty, but both of its vertices lie
    within the vertex tolerance of every row, so both are returned."""
    p = HPolytope(np.array([[1.0], [-1.0]]), np.array([0.0, -5e-8]), ("x",))
    assert polytope.vertices(p).tolist() == [[0.0], [5e-08]]


@pytest.mark.parametrize("n_rows", [0, 1, 12, 16, 17, 40, 300])
def test_unique_rows_are_numpys_to_the_sign_of_zero(n_rows):
    """The dedup of ``vertices`` and ``hull_2d`` gives the bytes of
    ``np.unique(a, axis=0)``, also where rows differ only in the sign of
    a zero, past the 16 rows below which numpy's sort is stable."""
    rng = np.random.default_rng(n_rows)
    for n_col in (1, 2, 3):
        for _ in range(20):
            a = rng.integers(-2, 3, size=(n_rows, n_col)).astype(float)
            a[(a == 0) & (rng.random(a.shape) < 0.5)] = -0.0
            got, want = polytope._unique_rows(a), np.unique(a, axis=0)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_no_lp_runs_on_a_bounded_nonempty_set(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(lp, "maximize", no_lp)
    assert len(vertices_2d(hexagon())) == 6
    assert area_2d(hexagon()) == pytest.approx(3.0, abs=1e-12)
    cube = box([(-1, 1)] * 3, ("tie:a", "tie:b", "tie:c"))
    report = exported_flexibility(ExternalPolytope(cube, {}))
    assert report.total == pytest.approx(12.0, abs=1e-12)


def test_polytope_json_roundtrip():
    p = hexagon()
    q = HPolytope.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
    assert q.labels == p.labels
    assert np.allclose(q.A, p.A) and np.allclose(q.b, p.b)


def test_vertex_csv_format(tmp_path):
    path = tmp_path / "verts.csv"
    write_vertices_csv(str(path), np.array([[0.0, 1.0], [1.0, 0.0]]),
                       meta={"kind": "test"})
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# kind=test"
    assert lines[1] == "x,y"
    assert len(lines) == 4


def _cube(d):
    return np.array(list(itertools.product([0.0, 1.0], repeat=d)))


def _hull_cloud(name):
    """(points, the points whose Qhull hull is the reference).  Jitter of
    1e-13 lies below the hull's facet tolerance, so near-duplicates must
    give the facets of the clean cloud."""
    rng = np.random.default_rng(7)
    if name.startswith("random"):
        d, n = {"random-2d": (2, 12), "random-3d": (3, 24),
                "random-4d": (4, 20)}[name]
        z = rng.normal(size=(n, d))
    elif name == "duplicated":
        z = np.vstack([rng.normal(size=(10, 3))] * 3)
    elif name == "near-duplicates":
        clean = rng.normal(size=(10, 3))
        jitter = clean + rng.uniform(-1e-13, 1e-13, size=clean.shape)
        return np.vstack([clean, jitter]), clean
    elif name == "cube":
        z = _cube(3)
    elif name == "cube-edges-faces-interior":
        corners = _cube(3)
        pairs = (corners[:, None] + corners[None]) / 2
        z = np.vstack([np.unique(pairs.reshape(-1, 3), axis=0),
                       rng.uniform(0.2, 0.8, size=(5, 3))])
    elif name == "tesseract":
        z = 2.0 * _cube(4) - 1.0
    elif name == "hexagon-midpoints":
        angles = np.arange(6) * np.pi / 3
        corners = np.column_stack([np.cos(angles), np.sin(angles)])
        midpoints = (corners + np.roll(corners, 1, axis=0)) / 2
        z = np.vstack([corners, midpoints, [[0.0, 0.0], [0.2, -0.1]]])
    return z, z


def _facet_set(rows):
    return {tuple(r) for r in np.round(rows, 8) + 0.0}


def _qhull_facet_rows(z):
    from scipy.spatial import ConvexHull
    eq = ConvexHull(z).equations
    return np.column_stack([eq[:, :-1], -eq[:, -1]])


@pytest.mark.parametrize("name", [
    "random-2d", "random-3d", "random-4d", "duplicated", "near-duplicates",
    "cube", "cube-edges-faces-interior", "tesseract", "hexagon-midpoints"])
def test_hull_facets_match_qhull(name):
    """The numpy hull has one row per facet of Qhull's hull (Qhull's
    triangulated facets merged), up to rounding."""
    z, reference = _hull_cloud(name)
    rows = polytope._hull_facets(z)
    np.testing.assert_allclose(np.linalg.norm(rows[:, :-1], axis=1), 1.0)
    assert len(_facet_set(rows)) == len(rows)
    assert _facet_set(rows) == _facet_set(_qhull_facet_rows(reference))


def test_hull_facets_past_the_subset_threshold_use_qhull(monkeypatch):
    def no_enumeration(z):
        raise AssertionError("subsets enumerated past the threshold")

    monkeypatch.setattr(polytope, "_facet_planes", no_enumeration)
    angles = np.linspace(0.0, 2.0 * np.pi, 600, endpoint=False)
    z = np.column_stack([np.cos(angles), np.sin(angles)])
    assert math.comb(len(z), 2) > polytope._QHULL_SUBSETS
    rows = polytope._hull_facets(z)
    assert len(rows) == 600
    assert _facet_set(rows) == _facet_set(_qhull_facet_rows(z))
