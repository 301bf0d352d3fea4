import itertools
import json
import math

import numpy as np
import pytest

from gridflex import (HPolytope, InfeasibleSetError, ProjectionSizeError,
                      UnboundedSetError, area_2d, bounding_box, contains,
                      is_feasible, project, vertices_2d, write_vertices_csv)
from gridflex import polytope
from gridflex.lp import maximize
from gridflex.polytope import normalize_rows

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


def test_project_hexagon():
    balance = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
    a = np.vstack([np.eye(3), -np.eye(3), balance])
    b = np.concatenate([np.ones(6), np.zeros(2)])
    p = HPolytope(a, b, ("i", "e1", "e2"))
    shadow = project(p, ["e1", "e2"])
    expected = HPolytope(hexagon().A, hexagon().b, ("e1", "e2"))
    assert contains(shadow, expected, tol=1e-9).contained
    assert contains(expected, shadow, tol=1e-9).contained
    assert area_2d(shadow) == pytest.approx(3.0, abs=1e-9)


def test_project_identity_is_minimal():
    p = box([(-1, 1), (-2, 2)])
    doubled = HPolytope(np.vstack([p.A, p.A]),
                        np.concatenate([p.b, p.b]), p.labels)
    r = project(doubled, ["x0", "x1"])
    assert r.nrows == 4 and r.labels == ("x0", "x1")


def test_project_reorders_columns():
    p = box([(-1, 1), (-2, 2)])
    r = project(p, ["x1", "x0"])
    assert r.labels == ("x1", "x0")
    lo, hi = bounding_box(r)
    assert np.allclose(hi, [2.0, 1.0])


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
