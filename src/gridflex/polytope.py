"""H-polytope machinery: feasibility, projection, containment, 2-D geometry.

A polytope is the set ``{x : A x <= b}`` with named dimensions.  The
operations here are exact up to LP tolerances.  :func:`project` is
output-sensitive: it refines an inner hull of support-LP optima until
an LP confirms every hull facet (the convex-hull method of Lassez &
Lassez), so its LP count follows the facets of the projection, not the
rows of the system.  The support LPs of one projection share one warm
:class:`lp.LPSystem`: a working set of rows that grows only by the rows
an optimum violates, each LP starting from the previous one's basis.
Keeping every column takes the same path.  The facets of the inner hull
come from numpy: every ``d``-subset of the optima spans a hyperplane,
and the ones with all optima on one side are the facets (Qhull,
imported only when the subsets are too many, does it for large point
sets).

Equality constraints are always encoded as inequality pairs, so flat
sets (no interior) are first-class citizens throughout.
:func:`vertices` proves a set bounded from its rows with the same hull,
and :func:`contains` reads vertices, so no LP runs past the projection;
every 2-D shadow is the hull of two columns of its vertices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import (GridflexError, InfeasibleSetError, LPSolverError,
                     ProjectionSizeError, UnboundedSetError)

REDUNDANCY_TOL = 1e-7
DEFAULT_ROW_CAP = 200_000
CONTAIN_TOL = 1e-6
VERTEX_TOL = 1e-7  # slack of a vertex on every row; decides emptiness too
_ZERO_ROW_TOL = 1e-12
_DUP_DECIMALS = 9
_HULL_TOL = 1e-8
_HULL_EPS = 1e-10  # off-hyperplane slack of a hull facet, per unit of extent
# Past this many d-subsets Qhull is cheaper, its import included: on a 2-core
# host importing scipy.spatial took 0.40-0.51 s, and _facet_planes took
# 0.9 us a subset (3-D, 115 points) to 3 us (2-D, 500 points), so break-even
# lies at 150,000-500,000 subsets; this is its low end.  Projections of the
# bundled cases see at most C(24, 3) = 2,024.
_QHULL_SUBSETS = 150_000


@dataclass(frozen=True)
class HPolytope:
    """Inequality description ``A x <= b`` with labeled dimensions."""

    A: np.ndarray
    b: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        if a.size == 0:
            a = a.reshape(0, len(self.labels))
        vec = np.asarray(self.b, dtype=float).reshape(-1)
        if a.shape[0] != vec.shape[0]:
            raise ValueError("row counts of A and b disagree")
        if a.shape[1] != len(self.labels):
            raise ValueError("column count of A disagrees with labels")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", vec)
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def nrows(self) -> int:
        return self.A.shape[0]

    def column(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown dimension label '{label}'")

    def contains_points(self, points: np.ndarray, tol: float = lp.FEASIBILITY_TOL):
        """Boolean membership for an array of points (last axis = dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all(pts @ self.A.T <= self.b + tol, axis=-1)

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "A": [[float(v) for v in row] for row in self.A],
            "b": [float(v) for v in self.b],
        }

    @classmethod
    def from_json_dict(cls, raw: dict) -> "HPolytope":
        return cls(A=np.array(raw["A"], dtype=float),
                   b=np.array(raw["b"], dtype=float),
                   labels=tuple(raw["labels"]))


def _empty(labels) -> HPolytope:
    """Canonical empty polytope: the unsatisfiable row 0.x <= -1."""
    d = len(labels)
    return HPolytope(np.zeros((1, d)), np.array([-1.0]), tuple(labels))


def _direction_key(a: np.ndarray) -> np.ndarray:
    """``a`` rounded to ``_DUP_DECIMALS``, with -0.0 read as 0.0, so that
    directions equal in value have equal bytes."""
    key = np.round(a, _DUP_DECIMALS)
    key += 0.0  # in place: no second array of keys
    return key


def _unit_rows(a: np.ndarray, b: np.ndarray):
    """``a`` and ``b`` with every row scaled to unit norm.  A row of norm
    at most ``_ZERO_ROW_TOL`` becomes the zero row and keeps its offset."""
    norms = np.linalg.norm(a, axis=1)
    zero = norms <= _ZERO_ROW_TOL
    # A row divided by inf is the zero row.
    return (a / np.where(zero, np.inf, norms)[:, None],
            b / np.where(zero, 1.0, norms))


def tightest_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows ``a x <= b`` kept when parallel rows
    merge: :func:`_tightest` of the rows scaled to unit norm."""
    return _tightest(*_unit_rows(a, b))


def _tightest(unit: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Ascending indices of the unit rows ``unit x <= offset`` kept when
    parallel rows merge, one per :func:`_direction_key` (all zero rows
    share the zero key).

    Walking the rows in lexsort order of their keys, the first row of a
    key is kept until a row of that key has an offset more than 1e-15
    below the kept one's.
    """
    key = _direction_key(unit)
    # Python floats compare and subtract as float64 do, at a lower cost.
    offset = offset.tolist()
    best: dict[bytes, int] = {}
    # lexsort needs a key; rows of no columns all share the empty one.
    order = np.lexsort(key.T[::-1]) if key.shape[1] else np.arange(len(key))
    for i in order.tolist():
        tag = key[i].tobytes()
        if tag not in best or offset[i] < offset[best[tag]] - 1e-15:
            best[tag] = i
    return np.array(sorted(best.values()), dtype=np.intp)


def normalize_rows(poly: HPolytope) -> HPolytope:
    """Scale every row to unit norm; drop vacuous rows; merge duplicates.

    Zero rows with nonnegative offsets hold everywhere and disappear; a
    zero row with a negative offset makes the set empty and collapses
    the description to the canonical empty system.  Rows sharing one
    normal direction keep only the tightest offset, as
    :func:`tightest_rows` picks it, in their original order.
    """
    # The same rows scale to the same bits whatever their memory layout:
    # row norms of a Fortran-ordered array can differ in the last bits.
    a, b = _unit_rows(np.ascontiguousarray(poly.A), poly.b)
    zero = ~a.any(axis=1)
    if np.any(zero & (b < -_ZERO_ROW_TOL)):
        return _empty(poly.labels)
    a, b = a[~zero], b[~zero]
    keep = _tightest(a, b)
    return HPolytope(a[keep], b[keep], poly.labels)


def is_feasible(poly: HPolytope):
    """Whether the set is nonempty, plus a point of it (``None`` when it
    is empty), both from one zero-objective LP."""
    res = lp.maximize(np.zeros(poly.dim), poly.A, poly.b)
    return res.optimal, res.x


def _checked_keep(poly: HPolytope, keep) -> list[str]:
    keep = [str(l) for l in keep]
    for label in keep:
        if label not in poly.labels:
            raise KeyError(f"unknown dimension label '{label}'")
    return keep


def _complement(rows: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal rows spanning the complement of the span of ``rows``."""
    if not len(rows):
        return np.eye(dim)
    _, s, vt = np.linalg.svd(rows)
    return vt[int(np.sum(s > 1e-9)):]


def _subsets(n: int, k: int):
    """The ``k``-subsets of ``range(n)`` (``k >= 1``) in lexicographic
    order, as integer arrays of at most 4096 rows, one subset per row."""
    combos = itertools.combinations(range(n), k)
    while len(idx := np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, 4096)),
            dtype=np.intp).reshape(-1, k)):
        yield idx


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices; closed form up to 2x2,
    where it is much cheaper than LAPACK's LU on small stacks."""
    if m.shape[-1] == 1:
        return m[..., 0, 0]
    if m.shape[-1] == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return np.linalg.det(m)


def _hull_slack(z: np.ndarray) -> float:
    """How far off a hyperplane a point of ``z`` may lie and still count
    as on it: ``_HULL_EPS`` per unit of the points' extent."""
    return _HULL_EPS * max(1.0, float(np.abs(z).max()))


def _facet_planes(z: np.ndarray):
    """Outward unit normals ``w`` and offsets ``h`` of the hyperplanes
    through ``d`` of the points ``z`` that hold every point on one side
    and ``d`` affinely independent points, one per such ``d``-subset."""
    n, d = z.shape
    eps = _hull_slack(z)
    # Cofactor k of the d - 1 edge vectors drops column k (the generalized
    # cross product): the normal of the hyperplane through the subset.
    minors = [[j for j in range(d) if j != k] for k in range(d)]
    signs = (-1.0) ** np.arange(d)
    ws, hs = [np.zeros((0, d))], [np.zeros(0)]
    for idx in _subsets(n, d):
        corners = z[idx]
        edges = corners[:, 1:] - corners[:, :1]
        w = signs * _det(edges[:, :, minors].transpose(0, 2, 1, 3))
        norm = np.linalg.norm(w, axis=1)
        w /= np.where(norm > 0, norm, np.inf)[:, None]
        h = np.einsum("ki,ki->k", w, corners[:, 0])
        dist = z @ w.T - h  # one column per subset
        below = dist.max(axis=0) <= eps
        side = (norm > 0) & (below | (dist.min(axis=0) >= -eps))
        flip = np.where(below[side], 1.0, -1.0)
        w, h = flip[:, None] * w[side], flip * h[side]
        # The points on a facet span d - 1 directions; a subset of (nearly)
        # repeated or collinear points spans fewer and its plane is noise.
        on = np.abs(dist[:, side].T) <= eps
        mean = on @ z / on.sum(axis=1)[:, None]
        centred = (z - mean[:, None, :]) * on[..., None]
        wide = np.linalg.svd(centred, compute_uv=False)[:, d - 2] > eps
        ws.append(w[wide])
        hs.append(h[wide])
    return np.vstack(ws), np.concatenate(hs)


def _hull_facets(z: np.ndarray) -> np.ndarray:
    """Rows ``[w, h]`` with ``w . z <= h`` on every facet of the hull of the
    full-dimensional point set ``z``; ``w`` has unit norm.

    The facets come from every ``d``-subset of the points
    (:func:`_facet_planes`); past ``_QHULL_SUBSETS`` subsets Qhull is
    cheaper, import included, and computes them instead."""
    n, d = z.shape
    if d == 0:
        return np.zeros((0, 1))
    if d == 1:
        return np.array([[1.0, z.max()], [-1.0, -z.min()]])
    if math.comb(n, d) > _QHULL_SUBSETS:
        from scipy.spatial import ConvexHull
        eq = ConvexHull(z).equations
        w, h = eq[:, :-1], -eq[:, -1]
    else:
        w, h = _facet_planes(z)
    # Subsets (or Qhull's simplices) on one facet share its normal.
    first = np.unique(np.round(w, _DUP_DECIMALS), axis=0,
                      return_index=True)[1]
    first = np.sort(first)
    return np.column_stack([w[first], h[first]])


def project(poly: HPolytope, keep, tol: float = REDUNDANCY_TOL,
            row_cap: int = DEFAULT_ROW_CAP) -> HPolytope:
    """Exact projection onto the ``keep`` dimensions, by hull refinement.

    The rows are normalized first, so parallel rows (a rank-one outage
    band, duplicates) merge before any LP.  Support LPs ``max n.y`` over
    the kept coordinates ``y`` start from the directions ``+-e_j``; then
    every facet of the hull of their optima gets one LP.  A facet is
    confirmed when its LP value is at most the facet's offset plus
    ``tol``; otherwise the optimum joins the points.  The projection is
    the confirmed facets, each at its LP value, once no facet is left
    unconfirmed.  When the optima span less than the kept space, the LP
    pair along each missing direction either finds new points or shows
    the set flat there (the two values within ``tol``); a flat direction
    becomes a row pair and the refinement runs inside the affine hull.

    Every LP solves on one :class:`lp.LPSystem`, built once per call
    under the :func:`lp.feasibility_tolerance` in force, whose working set
    of rows starts at the single-coefficient (box) rows and grows by the
    rows an optimum violates, so no LP needs the whole system.  Each LP
    starts from the previous one's basis, so the last digits of a value
    can depend on the order of the LPs.  The rows come out
    normalized and sorted, one per facet (a flat set adds its affine
    hull's row pairs), also when every column is kept.  A hull with more
    than ``row_cap`` facets raises :class:`ProjectionSizeError`; an empty
    set raises :class:`InfeasibleSetError` and an unbounded projection
    :class:`UnboundedSetError`.  An empty ``keep`` raises
    :class:`GridflexError`: there is no space to project onto.
    """
    keep = _checked_keep(poly, keep)
    if not keep:
        raise GridflexError("cannot project onto no dimensions: keep is empty")
    poly = normalize_rows(poly)
    cols = [poly.column(l) for l in keep]
    dim = len(cols)
    system = lp.LPSystem(poly.A, poly.b,
                         np.count_nonzero(poly.A, axis=1) == 1)
    every = np.ones(poly.dim, dtype=bool)
    values: dict[bytes, float] = {}  # support value per solved direction

    def key(normal):
        return _direction_key(normal).tobytes()

    def support(normal):
        c = np.zeros(poly.dim)
        c[cols] = normal
        res = system.maximize(c, every)
        if res.status == "infeasible":
            raise InfeasibleSetError("cannot project an empty polytope")
        if res.status == "unbounded":
            raise UnboundedSetError("the projection is unbounded")
        values[key(normal)] = res.value
        return res.value, res.x[cols]

    points = [support(s * e)[1] for e in np.eye(dim) for s in (1.0, -1.0)]
    flat = np.zeros((0, dim))
    rows = []
    # Each pass finds a flat direction or widens the points' span, so
    # the affine hull is settled within dim + 1 passes.
    for _ in range(dim + 1):
        free = _complement(flat, dim)
        if not len(free):
            break
        z = (np.array(points) - points[0]) @ free.T
        # The hull resolves no thickness below its own slack, so a
        # direction thinner than that is flat whatever ``tol`` says.
        thin = max(tol, _hull_slack(z))
        vt = np.linalg.svd(z)[2]
        missing = vt[np.ptp(z @ vt.T, axis=0) <= thin]
        if not len(missing):
            break
        u = missing[0] @ free
        hi, y_hi = support(u)
        lo, y_lo = support(-u)
        if hi + lo <= thin:
            flat = np.vstack([flat, u])
            rows += [(u, hi), (-u, lo)]
        else:
            points += [y_hi, y_lo]

    free = _complement(flat, dim)
    origin = points[0]
    while True:
        facets = _hull_facets((np.array(points) - origin) @ free.T)
        if len(facets) > row_cap:
            raise ProjectionSizeError(
                f"the projection's hull has {len(facets)} facets, more rows "
                f"than the cap {row_cap}; retry with a coarser redundancy "
                "tolerance or a larger row cap")
        normals = facets[:, :-1] @ free
        offsets = facets[:, -1] + normals @ origin
        found = []
        for n, h in zip(normals, offsets):
            # A solved direction's optimum is already one of the points.
            if key(n) not in values:
                v, y = support(n)
                if v > h + tol:
                    found.append(y)
        if not found:
            break
        points += found
    rows += [(n, values[key(n)]) for n in normals]

    a = np.array([n for n, _ in rows]).reshape(-1, dim)
    b = np.array([v for _, v in rows])
    out = normalize_rows(HPolytope(a, b, tuple(keep)))
    order = np.lexsort(np.round(out.A, _DUP_DECIMALS).T[::-1])
    a = out.A[order]
    a[np.abs(a) < _ZERO_ROW_TOL] = 0.0
    return HPolytope(a, out.b[order], tuple(keep))


@dataclass(frozen=True)
class ContainmentResult:
    contained: bool
    max_violation: float
    witness: np.ndarray | None

    def __bool__(self) -> bool:
        return self.contained


def contains(outer: HPolytope, inner: HPolytope,
             tol: float = CONTAIN_TOL) -> ContainmentResult:
    """Whether ``inner`` is a subset of ``outer`` (both over the same labels).

    No LP runs: a row peaks over a bounded set at a vertex.  The
    overshoot is the largest excess ``n.v - h`` of a vertex ``v`` of
    ``inner`` over a unit row ``n.x <= h`` of ``outer`` as written, or
    0.0; the witness is the first vertex, in :func:`vertices` order, to
    attain it on the first row that does (``None`` with no excess).
    ``inner`` must be bounded, and nonempty rather than vacuously inside.
    """
    if outer.labels != inner.labels:
        raise ValueError("containment requires identical dimension labels")
    verts = vertices(inner)
    p = normalize_rows(outer)
    excess = verts @ p.A.T - p.b
    worst, witness = 0.0, None
    if excess.max(initial=0.0) > 0:
        row = np.argmax(excess.max(axis=0))
        first = np.argmax(excess[:, row])
        worst, witness = float(excess[first, row]), verts[first]
    return ContainmentResult(bool(worst <= tol), worst, witness)


def vertices(poly: HPolytope) -> np.ndarray:
    """Vertices of a bounded polytope: rounded, deduplicated, sorted rows.

    Every regular ``dim``-row subsystem of the normalized rows meets in
    one point; the vertices are those points within ``VERTEX_TOL`` of
    all rows.  A nonempty set is bounded exactly when its unit normals
    surround the origin (Gordan's alternative): they span the space and
    the origin lies strictly inside their hull.  One feasibility LP runs
    only when no vertex is found, to tell an empty set from an unbounded
    one.  NaN or infinite data raise :class:`LPSolverError`, as at the
    LP seam.
    """
    if not (np.isfinite(poly.A).all() and np.isfinite(poly.b).all()):
        raise LPSolverError("polytope data hold a non-finite value")
    p = normalize_rows(poly)
    found = [np.zeros((0, p.dim))]
    for idx in _subsets(p.nrows, p.dim):
        idx = idx[np.abs(np.linalg.det(p.A[idx])) >= 1e-12]
        v = np.linalg.solve(p.A[idx], p.b[idx][..., None])[..., 0]
        found.append(v[np.all(v @ p.A.T <= p.b + VERTEX_TOL, axis=1)])
    verts = _unique_rows(np.round(np.vstack(found), _DUP_DECIMALS))
    if not len(verts) and not is_feasible(p)[0]:
        raise InfeasibleSetError("cannot enumerate the vertices of an empty polytope")
    if not (len(verts) and p.nrows > p.dim
            and np.linalg.matrix_rank(p.A[1:] - p.A[0]) == p.dim
            and np.all(_hull_facets(p.A)[:, -1] > _HULL_EPS)):
        raise UnboundedSetError("polytope is unbounded; no vertex description")
    return verts


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of ``a``, sorted: ``np.unique(a, axis=0)``, which
    in numpy 2.4 imports ``numpy.ma`` on its first call.  The rows are
    sorted as that call sorts them, one structured value per row by the
    same unstable sort, so of rows equal but for the sign of a zero the
    same one stays."""
    a = np.ascontiguousarray(a)
    rows = np.sort(a.view([(f"f{i}", a.dtype) for i in range(a.shape[1])])[:, 0])
    keep = np.ones(rows.size, dtype=bool)
    keep[1:] = rows[1:] != rows[:-1]
    return rows[keep].view(a.dtype).reshape(-1, a.shape[1])


def hull_2d(points: np.ndarray) -> np.ndarray:
    """Convex hull of 2-D points (Andrew's monotone chain), counterclockwise
    from the lexicographically smallest point.  A point within ``_HULL_TOL``
    of the chord between its neighbours is no vertex."""
    pts = _unique_rows(np.asarray(points, dtype=float).reshape(-1, 2))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for c in seq:
            while len(out) > 1:
                u, w = out[-1] - out[-2], c - out[-2]
                if u[0] * w[1] - u[1] * w[0] > _HULL_TOL * np.hypot(*w):
                    break
                out.pop()
            out.append(c)
        return out[:-1]

    return np.array(half(pts) + half(pts[::-1]))


def polygon_area(verts: np.ndarray) -> float:
    """Shoelace area of polygon vertices given in order."""
    if len(verts) < 3:
        return 0.0
    x, y = verts[:, 0], verts[:, 1]
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def vertices_2d(poly: HPolytope) -> np.ndarray:
    """Vertices of a bounded 2-D polytope in :func:`hull_2d` order."""
    if poly.dim != 2:
        raise ValueError("vertex enumeration is implemented for 2-D only")
    return hull_2d(vertices(poly))


def area_2d(poly: HPolytope) -> float:
    """Polygon area by the shoelace formula over :func:`vertices_2d`."""
    return polygon_area(vertices_2d(poly))


def write_vertices_csv(path: str, vertices: np.ndarray,
                       header: str = "x,y", meta: dict | None = None) -> None:
    """Write vertex rows as CSV, with metadata as leading comments."""
    with open(path, "w") as fh:
        if meta:
            for key in sorted(meta):
                fh.write(f"# {key}={meta[key]}\n")
        fh.write(header + "\n")
        for row in np.atleast_2d(vertices):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
