"""Geometric foundations: point clouds, triangle meshes, rigid transforms,
spatial queries, surface sampling and local differential estimates.

All coordinates are in model units; the CLI and reports treat them as
millimeters. ``PointCloud``, ``TriangleMesh`` and ``RigidTransform`` are
frozen.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import TypeAlias

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

Vec3: TypeAlias = NDArray[np.float64]    # shape (3,)
Points: TypeAlias = NDArray[np.float64]  # shape (N, 3)
Mat3: TypeAlias = NDArray[np.float64]    # shape (3, 3)

UNIT_TOL = 1e-6
ORTHO_TOL = 1e-9


class DegenerateNeighborhoodWarning(UserWarning):
    """Raised when a point neighborhood carries no usable surface information."""


def as_points(a) -> Points:
    """Coerce array-like input to a contiguous float64 (N, 3) array."""
    pts = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if pts.ndim == 1:
        if pts.size != 3:
            raise ValueError(f"expected 3 coordinates, got {pts.size}")
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array, got shape {pts.shape}")
    return pts


def as_vec3(a) -> Vec3:
    v = np.asarray(a, dtype=np.float64).reshape(3)
    return v


def unit(v) -> Vec3:
    v = as_vec3(v)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def canonical_sign(v) -> NDArray[np.float64]:
    """Flip ``v``, or each row of it, so its first nonzero component in
    (z, y, x) order is positive; ``-0.0`` and NaN count as zero."""
    v = np.asarray(v, dtype=np.float64)
    zyx = v[..., ::-1]
    first = np.argmax((zyx > 0.0) | (zyx < 0.0), axis=-1)
    return np.where(np.take_along_axis(zyx, first[..., None], axis=-1) < 0.0, -v, v)


def rms(values) -> float:
    """Root mean square: the one form of every RMS the report and the fits
    read (global error, fit residuals, ICP's point-to-plane residual)."""
    return float(np.sqrt(np.mean(values * values)))


# ---------------------------------------------------------------------------
# Core carriers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PointCloud:
    """Ordered 3D points with optional per-point channels.

    Optional channels must match the point count. Normals are unit length.
    ``neighbors`` is the scan's k-nearest-neighbor index table, one row per
    point, nearest first: ``remove_outliers`` makes it with its own query,
    and the normals are estimated from it. ``spacing`` is the median
    distance from a point to its nearest other point, which
    ``estimate_normals_and_curvature`` reads off the table. Both describe
    this cloud's points, so a sub-cloud carries neither; a rigid motion
    keeps them.
    """

    points: Points
    normals: Points | None = None
    curvatures: NDArray[np.float64] | None = None
    neighbors: NDArray[np.intp] | None = None
    spacing: float | None = None

    def __post_init__(self):
        pts = as_points(self.points)
        if len(pts) == 0:
            raise ValueError("point cloud is empty")
        if not np.isfinite(pts).all():
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)
        n = len(pts)
        if self.normals is not None:
            nrm = as_points(self.normals)
            if len(nrm) != n:
                raise ValueError("normals length does not match point count")
            lengths = np.linalg.norm(nrm, axis=1)
            if np.abs(lengths - 1.0).max() > UNIT_TOL:
                raise ValueError("normals must be unit length")
            object.__setattr__(self, "normals", nrm)
        if self.curvatures is not None:
            cur = np.asarray(self.curvatures, dtype=np.float64).reshape(-1)
            if len(cur) != n:
                raise ValueError("curvatures length does not match point count")
            if (cur < 0).any():
                raise ValueError("curvatures must be non-negative")
            object.__setattr__(self, "curvatures", cur)
        if self.neighbors is not None:
            nb = np.asarray(self.neighbors)
            if nb.ndim != 2 or len(nb) != n or nb.dtype.kind not in "iu":
                raise ValueError("neighbors must be an integer table with one row per point")
            if nb.size and (nb.min() < 0 or nb.max() >= n):
                raise ValueError("neighbor index out of range")
            object.__setattr__(self, "neighbors", nb)
        if self.spacing is not None and not 0.0 <= self.spacing < np.inf:
            raise ValueError("spacing must be finite and non-negative")

    def __len__(self) -> int:
        return len(self.points)

    def select(self, which) -> "PointCloud":
        """Sub-cloud for an index array or boolean mask, keeping the normals
        and curvatures; the neighbor table and spacing are dropped."""
        return PointCloud(
            points=self.points[which],
            normals=None if self.normals is None else self.normals[which],
            curvatures=None if self.curvatures is None else self.curvatures[which],
        )

    def transformed(self, t: "RigidTransform") -> "PointCloud":
        return replace(
            self,
            points=t.apply(self.points),
            normals=None if self.normals is None else t.apply_directions(self.normals),
        )


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Indexed triangle mesh used as the reference CAD geometry.

    Construction measures every triangle once and keeps its area and its unit
    normal, oriented by the winding (``areas()``, ``normals()``).
    """

    vertices: Points
    triangles: NDArray[np.int64]

    def __post_init__(self):
        vertices = as_points(self.vertices)
        tris = np.asarray(self.triangles, dtype=np.int64)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError(f"expected (T, 3) triangle indices, got {tris.shape}")
        if len(tris) == 0:
            raise ValueError("mesh has no triangles")
        if tris.min() < 0 or tris.max() >= len(vertices):
            raise ValueError("triangle index out of range")
        cross = _triangle_cross(vertices, tris)
        lengths = np.linalg.norm(cross, axis=1)
        areas = 0.5 * lengths
        if (areas == 0.0).any():
            raise ValueError("mesh contains degenerate (zero-area) triangles")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "_areas", areas)
        object.__setattr__(self, "_normals", cross / lengths[:, None])

    def __len__(self) -> int:
        return len(self.triangles)

    @property
    def triangle_vertices(self) -> NDArray[np.float64]:
        """Per-triangle corner coordinates, shape (T, 3, 3)."""
        return self.vertices[self.triangles]

    def areas(self) -> NDArray[np.float64]:
        """Per-triangle areas, shape (T,)."""
        return self._areas

    def normals(self) -> NDArray[np.float64]:
        """Per-triangle unit normals, oriented by the winding, shape (T, 3)."""
        return self._normals


def _triangle_cross(vertices: Points, triangles: NDArray[np.int64]) -> NDArray[np.float64]:
    """Each triangle's edge cross product: its normal times twice its area."""
    tv = vertices[triangles]
    return np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])


def clean_triangles(vertices: Points, triangles) -> NDArray[np.int64]:
    """Drop index-degenerate and zero-area triangles, which ``TriangleMesh``
    rejects; used by all loaders."""
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    ok = (
        (tris[:, 0] != tris[:, 1])
        & (tris[:, 1] != tris[:, 2])
        & (tris[:, 0] != tris[:, 2])
    )
    tris = tris[ok]
    if len(tris) == 0:
        return tris
    areas = 0.5 * np.linalg.norm(_triangle_cross(as_points(vertices), tris), axis=1)
    return tris[areas > 0.0]


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Proper rigid motion: x -> R x + t with R orthonormal, det(R) = +1."""

    rotation: Mat3
    translation: Vec3

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = as_vec3(self.translation)
        if np.abs(r.T @ r - np.eye(3)).max() > ORTHO_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(float(np.linalg.det(r)) - 1.0) > ORTHO_TOL:
            raise ValueError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points) -> Points:
        return as_points(points) @ self.rotation.T + self.translation

    def apply_directions(self, dirs) -> Points:
        return as_points(dirs) @ self.rotation.T

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform applying ``other`` first, then ``self``."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def as_matrix(self) -> NDArray[np.float64]:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @staticmethod
    def from_matrix(m) -> "RigidTransform":
        m = np.asarray(m, dtype=np.float64).reshape(4, 4)
        return RigidTransform(m[:3, :3], m[:3, 3])


# ---------------------------------------------------------------------------
# Spatial queries
# ---------------------------------------------------------------------------

def median_spacing(points) -> float:
    """Median nearest-neighbor distance; the cloud's intrinsic resolution."""
    pts = as_points(points)
    if len(pts) < 2:
        return 0.0
    d, _ = cKDTree(pts).query(pts, k=2)
    return float(np.median(d[:, 1]))


def strided_indices(n: int, cap: int) -> NDArray[np.int64]:
    """Every ``ceil(n / cap)``-th index of ``range(n)``, so at most ``cap`` of
    them; all of them when ``n <= cap``. A ``cap`` below 1 raises
    ``ValueError``."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    stride = int(np.ceil(n / cap)) if n > cap else 1
    return np.arange(0, n, stride)


def distinct_rows(rows: NDArray[np.float64]) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """The index of each distinct row's first copy, in input order, and each
    row's position among them. Rows are compared as raw bytes, about twice
    as fast as ``np.unique(axis=0)``; adding 0.0 first makes -0.0 equal 0.0,
    as it is there."""
    rows = np.ascontiguousarray(rows + 0.0)
    as_bytes = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(as_bytes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def components(graph, min_size: int = 1) -> list[NDArray[np.int64]]:
    """The connected components of at least ``min_size`` nodes of the
    undirected graph whose scipy sparse (n, n) adjacency matrix is ``graph``
    (an entry in either triangle joins its row and column): ascending index
    arrays, ordered by their lowest index."""
    # Imported here: scipy.sparse.csgraph costs milliseconds to import.
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    starts = np.concatenate([[0], np.cumsum(sizes)])
    kept = np.flatnonzero(sizes >= min_size)
    # The stable sort puts each component's lowest index first.
    kept = kept[np.argsort(order[starts[kept]])]
    return [order[starts[c]:starts[c + 1]] for c in kept]


# ---------------------------------------------------------------------------
# Mesh sampling and exact surface distance
# ---------------------------------------------------------------------------

def sample_mesh(mesh: TriangleMesh, count: int, seed: int) -> PointCloud:
    """Sample ``count`` points uniformly by area over the mesh surface.

    Each sample carries the unit normal of the triangle it lies on, oriented
    by the triangle's winding, in the ``normals`` channel. Deterministic for
    a fixed seed: identical calls return identical clouds.
    """
    if count < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    areas = mesh.areas()
    tri_idx = rng.choice(len(mesh), size=count, p=areas / areas.sum())
    tv = mesh.vertices[mesh.triangles[tri_idx]]
    # Square-root reparameterization gives a uniform density over each triangle.
    r = np.sqrt(rng.random(count))
    s = rng.random(count)
    a = (1.0 - r)[:, None]
    b = (r * (1.0 - s))[:, None]
    c = (r * s)[:, None]
    pts = a * tv[:, 0] + b * tv[:, 1] + c * tv[:, 2]
    return PointCloud(points=pts, normals=mesh.normals()[tri_idx])


def _closest_on_triangles(p, a, b, c):
    """Closest points on triangles (a, b, c) to query points ``p``.

    All arguments broadcast against each other with a trailing axis of 3.
    Implements the standard seven-region case analysis, applied in reverse
    priority order so earlier regions win.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = (ab * ap).sum(-1)
    d2 = (ac * ap).sum(-1)
    bp = p - b
    d3 = (ab * bp).sum(-1)
    d4 = (ac * bp).sum(-1)
    cp = p - c
    d5 = (ab * cp).sum(-1)
    d6 = (ac * cp).sum(-1)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def safe_div(num, den):
        den = np.where(den == 0.0, 1.0, den)
        return num / den

    # Face interior (lowest priority).
    denom = safe_div(np.ones_like(va), va + vb + vc)
    v = vb * denom
    w = vc * denom
    closest = a + ab * v[..., None] + ac * w[..., None]
    # Edge BC.
    t = safe_div(d4 - d3, (d4 - d3) + (d5 - d6))
    m = (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
    closest = np.where(m[..., None], b + (c - b) * t[..., None], closest)
    # Edge AC.
    t = safe_div(d2, d2 - d6)
    m = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    closest = np.where(m[..., None], a + ac * t[..., None], closest)
    # Vertex C.
    m = (d6 >= 0) & (d5 <= d6)
    closest = np.where(m[..., None], c, closest)
    # Edge AB.
    t = safe_div(d1, d1 - d3)
    m = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    closest = np.where(m[..., None], a + ab * t[..., None], closest)
    # Vertex B.
    m = (d3 >= 0) & (d4 <= d3)
    closest = np.where(m[..., None], b, closest)
    # Vertex A (highest priority).
    m = (d1 <= 0) & (d2 <= 0)
    closest = np.where(m[..., None], a, closest)
    return closest


# Points per block of the pruned search. A block's (point, piece) rows are the
# query's working set: plate's blocks hold about 70 rows a point (36k rows of
# 24 bytes), and its whole query peaks at about 3 MB traced. One block of a
# whole 12k-point cloud peaks at 26 MB. Smaller blocks pay more Python and
# tree set-up per point; larger ones spread one radius over more surface.
_QUERY_BLOCK = 512
_MAX_PIECES = 400_000


class MeshDistance:
    """Exact point-to-surface distance with a centroid kd-tree accelerator.

    The mesh is held as pieces: oversized triangles are split (same surface,
    finer pieces) so that one large facet cannot widen every search. Every
    point of a piece ``t`` lies inside its axis-aligned box and within
    ``r_t``, its largest corner-to-centroid distance, of its centroid ``c_t``
    (distance to ``c_t`` is convex, so it peaks at a corner); let ``rmax`` be
    the largest ``r_t``.

    For a query point ``p``, the piece under its nearest centroid gives an
    exact distance ``b``, an upper bound on the true one. A piece at distance
    ``d_t < b`` has ``|p - c_t| <= d_t + r_t < b + rmax``, so a range search
    of radius ``b + rmax`` finds every piece that could beat ``b``. Two lower
    bounds on ``d_t`` prune what it finds: the sphere bound ``|p - c_t| -
    r_t`` and the distance from ``p`` to the piece's box (Ericson, Real-Time
    Collision Detection, 2004, ch. 5). The box bound is the tighter one on
    slivers, such as the cells of a plate's face around its holes, whose
    spheres overlap. The exact test runs only where both bounds lie below
    ``b`` plus a rounding margin of ``1e-9 * rmax``, and never again on the
    piece that gave ``b``. The winning piece always passes both bounds, and a
    minimum does not depend on which losers were tested or in what order, so
    the result is bit for bit the minimum over every piece.

    The range search is one two-tree search per block of ``_QUERY_BLOCK``
    points (Gray & Moore, "N-body problems in statistical learning", NIPS
    2000), at the block's largest ``b`` plus ``rmax``. Points are sorted into
    blocks by ``b`` in steps of ``rmax / 4``, then by their leaf order in a
    k-d tree of the cloud. So a block is compact in space and its points
    share one radius: a far outlier widens only a block of other far points.

    Query a whole cloud once with ``query`` and index the result: the global
    RMSE and every per-patch mean read the same distance array.
    """

    def __init__(self, mesh: TriangleMesh):
        self._tri = _subdivide_for_queries(mesh.triangle_vertices)
        self._radii = _triangle_radii(self._tri)
        self._rmax = float(self._radii.max())
        self._lo = self._tri.min(axis=1)
        self._hi = self._tri.max(axis=1)
        self._tree = cKDTree(self._tri.mean(axis=1))

    def query(self, points) -> NDArray[np.float64]:
        """Distance from each point to the surface."""
        pts = as_points(points)
        n = len(pts)
        best = np.empty(n)
        nearest = np.empty(n, dtype=np.intp)
        for lo in range(0, n, _QUERY_BLOCK):
            block = slice(lo, lo + _QUERY_BLOCK)
            _, nearest[block] = self._tree.query(pts[block])
            best[block] = self._distances(pts[block], nearest[block])
        leaf_rank = np.empty(n, dtype=np.intp)
        leaf_rank[cKDTree(pts).indices] = np.arange(n)
        order = np.lexsort((leaf_rank, np.floor(best / (0.25 * self._rmax))))
        for lo in range(0, n, _QUERY_BLOCK):
            block = order[lo:lo + _QUERY_BLOCK]
            best[block] = self._improve(pts[block], best[block], nearest[block])
        return best

    def _improve(self, pts: Points, best: NDArray[np.float64],
                 nearest: NDArray[np.intp]) -> NDArray[np.float64]:
        """Lower each point's ``best`` to its exact distance (one block)."""
        rows = cKDTree(pts).sparse_distance_matrix(
            self._tree, best.max() + self._rmax, output_type="ndarray")
        owner, tris = rows["i"], rows["j"]
        bound = best[owner] + 1e-9 * self._rmax
        live = (rows["v"] - self._radii[tris] < bound) & (tris != nearest[owner])
        owner, tris, bound = owner[live], tris[live], bound[live]
        p = pts[owner]
        gap = np.maximum(np.maximum(self._lo[tris] - p, p - self._hi[tris]), 0.0)
        live = np.einsum("ij,ij->i", gap, gap) < bound * bound
        owner, tris = owner[live], tris[live]
        np.minimum.at(best, owner, self._distances(pts[owner], tris))
        return best

    def _distances(self, pts: Points, tris: NDArray[np.intp]) -> NDArray[np.float64]:
        """Exact distance from each point to its paired triangle piece."""
        t = self._tri[tris]
        cp = _closest_on_triangles(pts, t[:, 0], t[:, 1], t[:, 2])
        return np.linalg.norm(cp - pts, axis=-1)


def _triangle_radii(tri: NDArray[np.float64]) -> NDArray[np.float64]:
    """Largest corner-to-centroid distance of each (T, 3, 3) triangle."""
    cent = tri.mean(axis=1)
    return np.linalg.norm(tri - cent[:, None, :], axis=2).max(axis=1)


def _subdivide_for_queries(tri: NDArray[np.float64]) -> NDArray[np.float64]:
    """Longest-edge bisection of oversized triangles (acceleration only).

    A triangle is oversized when its radius exceeds 4x the median radius.
    Each round halves every oversized triangle across its longest edge, until
    none is left or the pieces would pass ``_MAX_PIECES``.
    """
    limit = 4.0 * float(np.median(_triangle_radii(tri)))
    pieces = []
    while len(tri):
        big = _triangle_radii(tri) > limit
        pieces.append(tri[~big])
        tri = tri[big]
        if sum(map(len, pieces)) + 2 * len(tri) > _MAX_PIECES:
            break
        # Edge e runs from corner e to e + 1. Lengths come from a BLAS dot (as
        # np.linalg.norm of one edge); summed squares can flip exact ties.
        edges = np.roll(tri, -1, axis=1) - tri
        e = np.sqrt(edges[..., None, :] @ edges[..., None])[..., 0, 0].argmax(axis=1)
        rows = np.arange(len(tri))
        a, b, other = (tri[rows, (e + k) % 3] for k in range(3))
        mid = 0.5 * (a + b)
        tri = np.concatenate([np.stack([a, mid, other], axis=1),
                              np.stack([mid, b, other], axis=1)])
    pieces.append(tri)
    return np.concatenate(pieces)


# ---------------------------------------------------------------------------
# Closed-form eigenproblems of symmetric 3x3 matrices
# ---------------------------------------------------------------------------

# The six distinct entries of a symmetric 3x3 matrix, in the order the
# solvers below take them: xx, yy, zz, xy, xz, yz.
SYM3_ENTRIES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))

# The gap lam1 - lam0, over max|lam|, below which a row's smallest
# eigenvector is left to LAPACK. The closed-form vector's error grows as
# 1e-16 / gap^2 radians (the trigonometric lam0 loses accuracy as lam1 nears
# it), so it stays within 1e-10 of LAPACK's above this gap.
_FALLBACK_GAP = 1e-3


def sym3_eigvalsh(entries: NDArray[np.float64]) -> NDArray[np.float64]:
    """The (m, 3) ascending eigenvalues of m symmetric 3x3 matrices, given
    as the (6, m) array of their ``SYM3_ENTRIES``, in closed form.

    The trigonometric solution (Smith, CACM 4(4), 1961) costs a few passes
    over the entries instead of one LAPACK call per matrix. Each eigenvalue
    is within about 1e-14 * max|lam| of LAPACK's where the spectrum is
    separated; the two of a (near-)double eigenvalue come from arccos near
    +-1 and hold only about 1e-8 * max|lam|. Their sum, the trace less the
    third, keeps full accuracy. A zero matrix gives zeros.
    """
    # With q the mean eigenvalue and B = (A - qI) / p scaled to unit spread,
    # det(B) / 2 = cos(3 phi) and the eigenvalues are q + 2p cos(phi + 2k pi/3).
    # The middle one is the trace's remainder.
    a00, a11, a22, a01, a02, a12 = entries
    trace = a00 + a11 + a22
    q = trace / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    # p = 0 only where B is 0, so the floor makes det(B) 0 there, not NaN.
    s = 1.0 / np.maximum(p, np.finfo(float).tiny)
    b00, b11, b22, b01, b02, b12 = b00 * s, b11 * s, b22 * s, a01 * s, a02 * s, a12 * s
    half_det = 0.5 * (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
                      + b02 * (b01 * b12 - b11 * b02))
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    lam = np.empty((len(q), 3))
    lam[:, 2] = q + 2.0 * p * np.cos(phi)
    lam[:, 0] = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    lam[:, 1] = np.clip(trace - lam[:, 0] - lam[:, 2], lam[:, 0], lam[:, 2])
    return lam


def sym3_eigh(entries: NDArray[np.float64]
              ) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.intp]]:
    """The ascending eigenvalues and the smallest eigenvalue's unit
    eigenvector of m symmetric 3x3 matrices given as in ``sym3_eigvalsh``,
    and the rows solved by LAPACK instead.

    The eigenvector is the largest of the three cross products of two rows
    of A - lam0 I, each of which is orthogonal to it (the hybrid of Kopp,
    Int. J. Mod. Phys. C 19, 2008). Rows whose relative gap lam1 - lam0 is
    at most ``_FALLBACK_GAP`` times max|lam| go to ``np.linalg.eigh``
    instead, and their eigenvalues and vector are LAPACK's bit for bit:
    there lam0 is a (near-)double eigenvalue, as for a rank-1, isotropic or
    zero matrix, and its eigenvector is not unique. (Kopp's own test, the
    angle between the two rows, misses a near-double lam0: at a gap of 1e-6
    some rows pass it 1e-5 rad off.) Elsewhere the vector is within about
    1e-16 / gap^2 rad of LAPACK's, 1e-10 at worst; its sign is arbitrary,
    as LAPACK's is.
    """
    a00, a11, a22, a01, a02, a12 = entries
    lam = sym3_eigvalsh(entries)
    lam0 = lam[:, 0]
    d00, d11, d22 = a00 - lam0, a11 - lam0, a22 - lam0
    crosses = ((a01 * a12 - a02 * d11, a02 * a01 - d00 * a12, d00 * d11 - a01 * a01),
               (a01 * d22 - a02 * a12, a02 * a02 - d00 * d22, d00 * a12 - a01 * a02),
               (d11 * d22 - a12 * a12, a12 * a02 - a01 * d22, a01 * a12 - d11 * a02))
    vec = crosses[0]
    sq = vec[0] * vec[0] + vec[1] * vec[1] + vec[2] * vec[2]
    for cross in crosses[1:]:
        cross_sq = cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2]
        larger = cross_sq > sq
        vec = [np.where(larger, c, v) for c, v in zip(cross, vec)]
        sq = np.where(larger, cross_sq, sq)
    big = np.maximum(np.abs(lam0), np.abs(lam[:, 2]))
    ok = lam[:, 1] - lam0 > _FALLBACK_GAP * big
    inv = 1.0 / np.sqrt(np.where(ok, sq, 1.0))
    vectors = np.empty((len(lam0), 3))
    for axis, v in enumerate(vec):
        vectors[:, axis] = v * inv
    fallback = np.flatnonzero(~ok)
    if len(fallback):
        lam[fallback], evecs = np.linalg.eigh(sym3_matrices(np.asarray(entries)[:, fallback]))
        vectors[fallback] = evecs[:, :, 0]
    return lam, vectors, fallback


def sym3_matrices(entries: NDArray[np.float64]) -> NDArray[np.float64]:
    """The (m, 3, 3) symmetric matrices given as the (6, m) array of their
    ``SYM3_ENTRIES``, for the solvers that take whole matrices."""
    entries = np.asarray(entries)
    mats = np.empty((entries.shape[1], 3, 3))
    for entry, (a, b) in zip(entries, SYM3_ENTRIES):
        mats[:, a, b] = mats[:, b, a] = entry
    return mats


# ---------------------------------------------------------------------------
# Local surface estimates and pre-filtering
# ---------------------------------------------------------------------------

# Rows per block of the outlier filter's k-NN query and of the normals'
# covariances. A block's temporaries take about 1 KB a row at k = 16, so the
# working set stays near 4 MB whatever the scan's size; each row's result
# does not depend on the block it falls in.
_ROW_BLOCK = 4096


def estimate_normals_and_curvature(cloud: PointCloud, k: int) -> PointCloud:
    """Attach PCA normals, surface-variation curvature and the spacing to a
    cloud.

    The normal at a point is the smallest-eigenvalue direction of its
    (k+1)-neighborhood covariance; curvature is lam_min / (lam1+lam2+lam3),
    a scale-free measure of how far the neighborhood departs from a plane.
    Normals are unoriented, with the sign their eigenvector came with: every
    consumer reads them up to sign (region growing compares ``|n_i . n_j|``,
    the cylinder axis comes from their second moment and the cone apex from
    tangent planes). The neighborhoods are the rows of the cloud's (n, k+1)
    ``neighbors`` table, the one ``remove_outliers`` made; a cloud without
    one is queried here, and the table it gets is kept: region growing joins
    points over the same neighborhoods. ``spacing`` is the median distance
    to the table's column 1, the nearest other point, which is
    ``median_spacing`` of the points.

    Each block of ``_ROW_BLOCK`` rows gathers its neighborhoods' coordinate
    columns, centres them and forms the six covariance entries, which
    ``sym3_eigh`` solves in closed form. Rows whose two smallest eigenvalues
    differ by at most ``_FALLBACK_GAP`` times the largest go to LAPACK:
    collinear, coincident and isotropic neighborhoods among them, so the
    degenerate flags below are LAPACK's. Elsewhere the normals are within
    1e-10 rad of LAPACK's (1e-14 on the benchmark scenes, where no row falls
    back) and the eigenvalues within about 1e-14 of the largest, so a
    curvature moves by under 1e-15. Every row's result depends on that row
    alone, not on the block it falls in.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    pts = cloud.points
    n = len(pts)
    if n < k + 1:
        raise ValueError(f"cloud must have at least k+1 = {k + 1} points")
    idx = cloud.neighbors
    if idx is None:
        _, idx = cKDTree(pts).query(pts, k=k + 1)
    elif idx.shape[1] != k + 1:
        raise ValueError(f"the neighbor table has {idx.shape[1]} columns; k = {k} needs k+1")
    evals = np.empty((n, 3))
    normals = np.empty((n, 3))
    columns = pts.T.copy()
    for lo in range(0, n, _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        rows = idx[block]
        centered = []
        for column in columns:
            nb = column[rows]
            nb -= nb.mean(axis=1, keepdims=True)
            centered.append(nb)
        cov = np.empty((len(SYM3_ENTRIES), len(rows)))
        for entry, (a, b) in zip(cov, SYM3_ENTRIES):
            np.einsum("ij,ij->i", centered[a], centered[b], out=entry)
        cov /= k + 1
        evals[block], normals[block], _ = sym3_eigh(cov)
    np.clip(evals, 0.0, None, out=evals)
    total = evals.sum(axis=1)

    curv = np.zeros(n)
    ok = total > 0.0
    curv[ok] = evals[ok, 0] / total[ok]

    # Degenerate neighborhoods: coincident points (no extent) or collinear
    # points (no unique normal). Curvature 0, placeholder +z normal.
    collinear = evals[:, 1] <= 1e-12 * np.maximum(evals[:, 2], np.finfo(float).tiny)
    degenerate = (~ok) | collinear
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} degenerate neighborhoods; "
            "normals set to +z, curvature to 0",
            DegenerateNeighborhoodWarning,
            stacklevel=2,
        )
        normals[degenerate] = (0.0, 0.0, 1.0)
        curv[degenerate] = 0.0

    spacing = float(np.median(np.linalg.norm(pts[idx[:, 1]] - pts, axis=1)))
    return replace(cloud, normals=normals, curvatures=curv, neighbors=idx, spacing=spacing)


def remove_outliers(cloud: PointCloud, k: int, stddev_mult: float,
                    normals_k: int) -> tuple[PointCloud, int]:
    """Statistical outlier removal by mean k-NN distance thresholding.

    Drops every point whose mean distance to its k nearest neighbors exceeds
    the global mean by more than ``stddev_mult`` standard deviations; an
    infinite multiple keeps every point. Returns the filtered cloud and the
    number of removed points.

    The one query that measures those distances reaches ``normals_k``
    neighbors too, and the filtered cloud carries its (m, normals_k + 1)
    ``neighbors`` table, the one ``estimate_normals_and_curvature`` reads.
    A row that names a dropped point is queried again among the kept ones.
    With ``normals_k`` kept points or fewer there is no full table, and the
    cloud carries none.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not stddev_mult >= 0:
        raise ValueError(f"stddev_mult must be at least 0, got {stddev_mult}")
    n = len(cloud)
    if n <= 1:
        return cloud, 0
    pts = cloud.points
    tree = cKDTree(pts)
    reach = min(max(k, normals_k), n - 1) + 1
    width = min(normals_k + 1, reach)
    mean_d = np.empty(n)
    cols = np.empty((n, width), dtype=np.intp)
    for lo in range(0, n, _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        d, idx = tree.query(pts[block], k=reach)
        mean_d[block] = d[:, 1:k + 1].mean(axis=1)
        cols[block] = idx[:, :width]
    keep = np.ones(n, dtype=bool)
    if np.isfinite(stddev_mult):
        threshold = mean_d.mean() + stddev_mult * mean_d.std()
        # Guard against float jitter expelling points from perfectly regular data.
        keep = mean_d <= threshold + 1e-12 * max(threshold, 1.0)
    kept = cloud.select(keep)
    if len(kept) > normals_k:
        # Kept rows move up in place (a row never moves down), and their
        # entries become kept indices.
        rank = np.cumsum(keep) - 1
        stale = np.empty(len(kept), dtype=bool)
        m = 0
        for lo in range(0, n, _ROW_BLOCK):
            rows = cols[lo:lo + _ROW_BLOCK][keep[lo:lo + _ROW_BLOCK]]
            stale[m:m + len(rows)] = ~keep[rows].all(axis=1)
            cols[m:m + len(rows)] = rank[rows]
            m += len(rows)
        table = cols[:m]
        if stale.any():
            _, table[stale] = cKDTree(kept.points).query(kept.points[stale], k=normals_k + 1)
        kept = replace(kept, neighbors=table)
    return kept, int(n - len(kept))
