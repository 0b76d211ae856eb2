"""Geometric foundations: point clouds, triangle meshes, rigid transforms,
spatial queries, surface sampling and local differential estimates.

All coordinates are in model units; the CLI and reports treat them as
millimeters. ``PointCloud`` and ``RigidTransform`` are frozen. ``TriangleMesh``
is not: it builds its ``MeshDistance`` index on first use and caches it, so
share a mesh across threads only after calling ``distance_index()``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import chain
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


# ---------------------------------------------------------------------------
# Core carriers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PointCloud:
    """Ordered 3D points with optional per-point channels.

    Optional channels must match the point count. Normals are unit length.
    """

    points: Points
    normals: Points | None = None
    curvatures: NDArray[np.float64] | None = None

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

    def __len__(self) -> int:
        return len(self.points)

    def select(self, which) -> "PointCloud":
        """Sub-cloud for an index array or boolean mask, keeping all channels."""
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


@dataclass(eq=False)
class TriangleMesh:
    """Indexed triangle mesh used as the reference CAD geometry."""

    vertices: Points
    triangles: NDArray[np.int64]

    def __post_init__(self):
        self.vertices = as_points(self.vertices)
        tris = np.asarray(self.triangles, dtype=np.int64)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError(f"expected (T, 3) triangle indices, got {tris.shape}")
        if len(tris) == 0:
            raise ValueError("mesh has no triangles")
        if tris.min() < 0 or tris.max() >= len(self.vertices):
            raise ValueError("triangle index out of range")
        areas = _triangle_areas(self.vertices, tris)
        if (areas == 0.0).any():
            raise ValueError("mesh contains degenerate (zero-area) triangles")
        self.triangles = tris
        self._distance_index: MeshDistance | None = None

    def __len__(self) -> int:
        return len(self.triangles)

    @property
    def triangle_vertices(self) -> NDArray[np.float64]:
        """Per-triangle corner coordinates, shape (T, 3, 3)."""
        return self.vertices[self.triangles]

    def areas(self) -> NDArray[np.float64]:
        return _triangle_areas(self.vertices, self.triangles)

    def distance_index(self) -> "MeshDistance":
        """Lazy shared acceleration structure for exact surface distances."""
        if self._distance_index is None:
            self._distance_index = MeshDistance(self)
        return self._distance_index


def _triangle_areas(vertices: Points, triangles: NDArray[np.int64]) -> NDArray[np.float64]:
    tv = vertices[triangles]
    cross = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def clean_triangles(vertices: Points, triangles) -> NDArray[np.int64]:
    """Drop index-degenerate and zero-area triangles; used by all loaders."""
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    ok = (
        (tris[:, 0] != tris[:, 1])
        & (tris[:, 1] != tris[:, 2])
        & (tris[:, 0] != tris[:, 2])
    )
    tris = tris[ok]
    if len(tris) == 0:
        return tris
    areas = _triangle_areas(as_points(vertices), tris)
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
    them; all of them when ``n <= cap`` or ``cap <= 0``."""
    stride = int(np.ceil(n / cap)) if n > cap > 0 else 1
    return np.arange(0, n, stride)


# ---------------------------------------------------------------------------
# Mesh sampling and exact surface distance
# ---------------------------------------------------------------------------

def sample_mesh(mesh: TriangleMesh, count: int, seed: int) -> PointCloud:
    """Sample ``count`` points uniformly by area over the mesh surface.

    Deterministic for a fixed seed: identical calls return identical clouds.
    """
    if count < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    areas = mesh.areas()
    tri_idx = rng.choice(len(mesh), size=count, p=areas / areas.sum())
    tv = mesh.triangle_vertices[tri_idx]
    # Square-root reparameterization gives a uniform density over each triangle.
    r = np.sqrt(rng.random(count))
    s = rng.random(count)
    a = (1.0 - r)[:, None]
    b = (r * (1.0 - s))[:, None]
    c = (r * s)[:, None]
    pts = a * tv[:, 0] + b * tv[:, 1] + c * tv[:, 2]
    return PointCloud(points=pts)


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


# Points per query block. The block's (point, triangle) pairs are the query's
# working set: with 128 points a plate query's traced peak is about 8 MB, and
# 1,000-point blocks raise collage's peak RSS from 96 to 121 MB.
_QUERY_BLOCK = 128
_MAX_PIECES = 400_000


class MeshDistance:
    """Exact point-to-surface distance with a centroid kd-tree accelerator.

    Every point of a triangle ``t`` lies within ``r_t``, its largest
    corner-to-centroid distance, of its centroid ``c_t`` (distance to ``c_t``
    is convex, so it peaks at a corner); let ``rmax`` be the largest ``r_t``.
    For a query point ``p``, the triangle under its nearest centroid gives an
    exact distance ``b``, an upper bound on the true one. A triangle at
    distance ``d_t < b`` has ``|p - c_t| <= d_t + r_t < b + rmax``, so one
    ball query of radius ``b + rmax`` returns every triangle that could beat
    ``b``, and no ball is empty: the nearest centroid lies within
    ``b + r_near``. Oversized triangles are split (same surface, finer pieces)
    so one large facet cannot inflate ``rmax`` and with it every ball.

    Query a whole cloud once with ``query`` and index the result: the global
    RMSE and every per-patch mean read the same distance array.
    """

    def __init__(self, mesh: TriangleMesh):
        self._tri = _subdivide_for_queries(mesh.triangle_vertices)
        self._rmax = float(_triangle_radii(self._tri).max())
        self._tree = cKDTree(self._tri.mean(axis=1))

    def query(self, points, chunk: int = _QUERY_BLOCK) -> NDArray[np.float64]:
        """Distance from each point to the surface, ``chunk`` points at a time."""
        pts = as_points(points)
        out = np.empty(len(pts))
        for lo in range(0, len(pts), chunk):
            out[lo:lo + chunk] = self._query_block(pts[lo:lo + chunk])
        return out

    def _query_block(self, pts: Points) -> NDArray[np.float64]:
        _, nearest = self._tree.query(pts)
        best = self._distances(pts, nearest)
        balls = self._tree.query_ball_point(pts, best + self._rmax, return_sorted=False)
        sizes = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
        tris = np.fromiter(chain.from_iterable(balls), dtype=np.intp, count=int(sizes.sum()))
        owner = np.repeat(np.arange(len(pts)), sizes)
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
# Local surface estimates and pre-filtering
# ---------------------------------------------------------------------------

def estimate_normals_and_curvature(cloud: PointCloud, k: int) -> PointCloud:
    """Attach PCA normals and surface-variation curvature to a cloud.

    The normal at a point is the smallest-eigenvalue direction of its
    (k+1)-neighborhood covariance; curvature is lam_min / (lam1+lam2+lam3),
    a scale-free measure of how far the neighborhood departs from a plane.
    Normals are unoriented, with the sign their eigenvector came with: every
    consumer reads them up to sign (region growing compares ``|n_i . n_j|``,
    the cylinder axis comes from their second moment and the cone apex from
    tangent planes).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    pts = cloud.points
    n = len(pts)
    if n < k + 1:
        raise ValueError(f"cloud must have at least k+1 = {k + 1} points")
    tree = cKDTree(pts)
    _, idx = tree.query(pts, k=k + 1)
    nb = pts[idx]
    centered = nb - nb.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / (k + 1)
    evals, evecs = np.linalg.eigh(cov)
    evals = np.clip(evals, 0.0, None)
    total = evals.sum(axis=1)

    normals = np.ascontiguousarray(evecs[:, :, 0])
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

    return replace(cloud, normals=normals, curvatures=curv)


def remove_outliers(cloud: PointCloud, k: int,
                    stddev_mult: float) -> tuple[PointCloud, int]:
    """Statistical outlier removal by mean k-NN distance thresholding.

    Drops every point whose mean distance to its k nearest neighbors exceeds
    the global mean by more than ``stddev_mult`` standard deviations. Returns
    the filtered cloud and the number of removed points.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(cloud)
    if n <= 1 or not np.isfinite(stddev_mult):
        return cloud, 0
    kk = min(k, n - 1)
    d, _ = cKDTree(cloud.points).query(cloud.points, k=kk + 1)
    mean_d = d[:, 1:].mean(axis=1)
    threshold = mean_d.mean() + stddev_mult * mean_d.std()
    # Guard against float jitter expelling points from perfectly regular data.
    keep = mean_d <= threshold + 1e-12 * max(threshold, 1.0)
    if keep.all():
        return cloud, 0
    return cloud.select(keep), int(n - keep.sum())
