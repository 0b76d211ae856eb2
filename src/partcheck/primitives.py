"""Part-level analysis: analytic primitive fitting, curvature-driven region
growing, and energy-guided split/merge refinement of the segmentation.

Region growing joins two points when one is among the other's normal
neighbors, both are flatter than ``region_curv_thresh`` and their normals
are within ``region_angle_deg``. Its regions are the connected components
of that symmetric graph, ordered by their flattest point, members ascending.
Each region tries the kinds plane, sphere, cylinder, cone, with the cylinder
before the sphere when its normals lie near a great circle of the Gauss
image, and stops at the first that fits it adequately. The sphere, cylinder
and cone fits are least-squares polishes with analytic Jacobians (Lukács,
Marshall & Martin, "Faithful least-squares fitting of spheres, cylinders,
cones and tori for reliable segmentation", ECCV 1998), and the cone races
its three start axes for a few evaluations before finishing one.

A configuration of primitives is scored by a weighted energy with three
terms: fidelity (mean inlier-to-surface distance), simplicity (primitive
count relative to the maximum supportable count) and completeness (fraction
of points left unassigned). Refinement applies the split or merge operation
with the largest energy decrease until no operation helps. Splits and merges
refit cold by region growing's rule, which tries every kind (``_best_kind_fit``),
so they may change a kind, and any two adjacent primitives may merge. A split
adds a primitive and its halves keep subsets of the inliers, so it can lower
the energy by at most ``omega_f * S / A - omega_s / max_primitives``, with S
the primitive's inlier distance sum and A the assigned count; refinement
tries only the splits this bound leaves room for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, TypeAlias, Union

import numpy as np
import scipy.linalg
from numpy.typing import NDArray
from scipy.optimize import least_squares
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .config import PipelineConfig
from .geometry import (PointCloud, Points, Vec3, as_points, canonical_sign, components, rms,
                       strided_indices, unit)


class FitError(RuntimeError):
    """Primitive fitting failed (insufficient or degenerate data)."""


class PrimitiveKind(str, Enum):
    PLANE = "plane"
    SPHERE = "sphere"
    CYLINDER = "cylinder"
    CONE = "cone"


MIN_SAMPLE = {
    PrimitiveKind.PLANE: 3,
    PrimitiveKind.SPHERE: 4,
    PrimitiveKind.CYLINDER: 6,
    PrimitiveKind.CONE: 6,
}

# Fits whose size parameters exceed this multiple of the data extent are
# treated as degenerate (a plane masquerading as a giant sphere/cylinder).
_SIZE_LIMIT_FACTOR = 10.0


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Plane:
    normal: Vec3
    offset: float

    kind = PrimitiveKind.PLANE

    def distance(self, points) -> NDArray[np.float64]:
        return np.abs(as_points(points) @ self.normal - self.offset)


@dataclass(frozen=True, eq=False)
class Sphere:
    center: Vec3
    radius: float

    kind = PrimitiveKind.SPHERE

    def distance(self, points) -> NDArray[np.float64]:
        return np.abs(np.linalg.norm(as_points(points) - self.center, axis=1) - self.radius)


@dataclass(frozen=True, eq=False)
class Cylinder:
    point: Vec3      # anchor on the axis
    axis: Vec3       # unit direction
    radius: float

    kind = PrimitiveKind.CYLINDER

    def distance(self, points) -> NDArray[np.float64]:
        u = as_points(points) - self.point
        h = u @ self.axis
        radial = np.linalg.norm(u - h[:, None] * self.axis, axis=1)
        return np.abs(radial - self.radius)


@dataclass(frozen=True, eq=False)
class Cone:
    apex: Vec3
    axis: Vec3       # unit direction, pointing into the opening
    half_angle: float

    kind = PrimitiveKind.CONE

    def distance(self, points) -> NDArray[np.float64]:
        u = as_points(points) - self.apex
        h = u @ self.axis
        rho = np.linalg.norm(u - h[:, None] * self.axis, axis=1)
        sin_a = np.sin(self.half_angle)
        cos_a = np.cos(self.half_angle)
        along = rho * sin_a + h * cos_a
        # Behind the apex the nearest surface point is the apex itself.
        perp = np.abs(rho * cos_a - h * sin_a)
        return np.where(along <= 0.0, np.sqrt(rho * rho + h * h), perp)


Shape: TypeAlias = Union[Plane, Sphere, Cylinder, Cone]


@dataclass(frozen=True, eq=False)
class Primitive:
    """A fitted shape together with its inlier indices into the host cloud;
    every consumer measures distances from the shape, so no residual is kept."""

    shape: Shape
    inliers: NDArray[np.int64]

    @property
    def kind(self) -> PrimitiveKind:
        return self.shape.kind

    def __post_init__(self):
        object.__setattr__(self, "inliers", np.asarray(self.inliers, dtype=np.int64).reshape(-1))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _max_nfev(n_params: int) -> int:
    # Every fit passes an analytic Jacobian, so least_squares' nfev counts
    # residual evaluations only, one per trial step, and each accepted step
    # takes one Jacobian evaluation more (njev). This allows
    # 50 * (n_params + 1) trial steps (350 for a cone). A cone start on the
    # dented bracket converges after 273, so a tighter cap would change
    # which fits succeed.
    return 50 * (n_params + 1)


def _polish(fun, jac, x0, bounds=None, max_nfev=None):
    kwargs = {"method": "trf", "jac": jac, "max_nfev": max_nfev or _max_nfev(len(x0))}
    if bounds is not None:
        kwargs["bounds"] = bounds
    result = least_squares(fun, np.asarray(x0, dtype=np.float64), **kwargs)
    return result.x, rms(result.fun), result.status != 0


def _unit_rows(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Each row over its length; a zero row, where the gradient of a length
    is undefined, stays zero."""
    length = np.linalg.norm(v, axis=1)
    return v / np.where(length > 0.0, length, 1.0)[:, None]


def _ortho_basis(w: Vec3):
    ref = np.eye(3)[np.argmin(np.abs(w))]
    u = unit(np.cross(w, ref))
    v = np.cross(w, u)
    return u, v


def _fit_plane(pts: Points):
    centroid = pts.mean(axis=0)
    x = pts - centroid
    cov = x.T @ x
    _, evecs = np.linalg.eigh(cov)
    normal = canonical_sign(evecs[:, 0])
    shape = Plane(normal, float(normal @ centroid))
    return shape, rms(shape.distance(pts))


def _fit_sphere(pts: Points):
    extent = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    # Algebraic fit: |p|^2 = 2 c.p + (r^2 - |c|^2), linear in (c, t).
    a = np.column_stack([2.0 * pts, np.ones(len(pts))])
    b = (pts * pts).sum(axis=1)
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 4:
        # Coplanar points: the center can move off their plane unopposed, and
        # the polish would start on the saddle where the Jacobian leaves it.
        raise FitError("degenerate sphere (coplanar points)")
    center = sol[:3]
    r2 = sol[3] + center @ center
    if not np.isfinite(r2) or r2 <= 0:
        raise FitError("degenerate sphere (algebraic fit collapsed)")
    x0 = np.append(center, np.sqrt(r2))

    def residual(x):
        return np.linalg.norm(pts - x[:3], axis=1) - x[3]

    def jac(x):
        # d|p - c| / dc is minus the unit vector from c to p; d/dr is -1.
        return np.column_stack([-_unit_rows(pts - x[:3]), np.full(len(pts), -1.0)])

    x, rms, converged = _polish(residual, jac, x0)
    shape = Sphere(x[:3].copy(), float(x[3]))
    if not converged:
        raise FitError("sphere fit did not converge")
    if shape.radius <= 0 or shape.radius > _SIZE_LIMIT_FACTOR * max(extent, 1e-12):
        raise FitError("degenerate sphere (radius out of range)")
    return shape, rms


def _pratt_circle_2d(xy: NDArray[np.float64]) -> tuple[float, float, float]:
    """Algebraic circle fit minimizing the Pratt-normalized residual.

    Pratt, "Direct least-squares fitting of algebraic surfaces" (SIGGRAPH
    1987). Unlike the Kasa fit it is not biased toward small radii on short
    arcs, so it seeds both the cylinder and the feature-level circle fits.
    """
    x = xy[:, 0]
    y = xy[:, 1]
    z = x * x + y * y
    d = np.column_stack([z, x, y, np.ones(len(xy))])
    # Exact or nearly exact data: take the null direction directly. Only V is
    # needed: a full U would hold len(xy)^2 floats (32 MB at 2,000 points),
    # so it is asked for only below 4 points, where the null row needs it.
    _, svals, vt = np.linalg.svd(d, full_matrices=len(xy) < 4)
    if len(svals) < 4 or svals[-1] < 1e-12 * svals[0]:
        coef = vt[-1]
    else:
        scatter = (d.T @ d) / len(xy)
        constraint = np.array([
            [0.0, 0.0, 0.0, -2.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [-2.0, 0.0, 0.0, 0.0],
        ])
        evals, evecs = scipy.linalg.eig(scatter, constraint)
        real = np.isfinite(evals.real) & (np.abs(evals.imag) < 1e-8 * (1 + np.abs(evals.real)))
        candidates = np.nonzero(real & (evals.real > -1e-12))[0]
        if len(candidates) == 0:
            raise FitError("degenerate circle (no algebraic solution)")
        coef = evecs[:, candidates[np.argmin(evals.real[candidates])]].real
    a0, b1, c1, d1 = coef
    if abs(a0) < 1e-14 * max(1.0, abs(b1), abs(c1)):
        raise FitError("degenerate circle (fit collapsed to a line)")
    cx = -b1 / (2.0 * a0)
    cy = -c1 / (2.0 * a0)
    r2 = (b1 * b1 + c1 * c1 - 4.0 * a0 * d1) / (4.0 * a0 * a0)
    if not np.isfinite(r2) or r2 <= 0:
        raise FitError("degenerate circle (non-positive radius)")
    return float(cx), float(cy), float(np.sqrt(r2))


def _normal_moments(normals: Points | None) -> NDArray[np.float64]:
    """Second moment of the unoriented normals; the cylinder and cone fits
    read their axis from it."""
    if normals is None:
        raise FitError("cylinder and cone fits need point normals")
    return normals.T @ normals / len(normals)


def _fit_cylinder(pts: Points, normals: Points | None):
    extent = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    centroid = pts.mean(axis=0)
    # Cylinder surface normals are orthogonal to the axis, so the axis is the
    # direction in which the normals' second moment vanishes.
    _, evecs = np.linalg.eigh(_normal_moments(normals))
    w0 = unit(evecs[:, 0])
    u0, v0 = _ortho_basis(w0)
    xy = np.column_stack([(pts - centroid) @ u0, (pts - centroid) @ v0])
    try:
        cx, cy, r0 = _pratt_circle_2d(xy)
    except FitError:
        cx = cy = 0.0
        r0 = float(np.linalg.norm(xy, axis=1).mean())
    x0 = np.array([cx, cy, 0.0, 0.0, max(r0, 1e-9)])

    def radial(x):
        """The axis' unnormalized length, each point's height along the axis
        and its radial vector from it."""
        raw = w0 + x[2] * u0 + x[3] * v0
        w = unit(raw)
        u = pts - (centroid + x[0] * u0 + x[1] * v0)
        h = u @ w
        return float(np.linalg.norm(raw)), h, u - h[:, None] * w

    def residual(x):
        return np.linalg.norm(radial(x)[2], axis=1) - x[4]

    def jac(x):
        # With q^ the radial direction: moving the anchor by dc changes |q|
        # by -q^.dc, and turning the axis by dw changes it by -h q^.dw. A
        # step in x[2] turns w by the part of u0 normal to w over |raw|, and
        # q^ is normal to w, so q^.dw = q^.u0 / |raw| (v0 likewise for x[3]).
        length, h, q = radial(x)
        qu, qv = (_unit_rows(q) @ np.column_stack([u0, v0])).T
        return np.column_stack([-qu, -qv, -h * qu / length, -h * qv / length,
                                np.full(len(pts), -1.0)])

    lower = np.array([-np.inf, -np.inf, -np.inf, -np.inf, 1e-12])
    x, rms, converged = _polish(residual, jac, x0, bounds=(lower, np.inf))
    w = unit(w0 + x[2] * u0 + x[3] * v0)
    c = centroid + x[0] * u0 + x[1] * v0
    anchor = c + ((centroid - c) @ w) * w
    shape = Cylinder(anchor, canonical_sign(w), float(x[4]))
    if not converged:
        raise FitError("cylinder fit did not converge")
    if shape.radius > _SIZE_LIMIT_FACTOR * max(extent, 1e-12):
        raise FitError("degenerate cylinder (radius out of range)")
    return shape, rms


def _cone_from_params(w0, u0, v0, x) -> Cone:
    w = unit(w0 + x[3] * u0 + x[4] * v0)
    return Cone(np.asarray(x[:3], dtype=float).copy(), w, float(x[5]))


def _fit_cone_once(pts: Points, normals: Points, w0: Vec3, max_nfev: int | None = None):
    """Least-squares cone with ``w0`` as the initial axis and, as the initial
    apex, the point nearest every tangent plane, run for at most ``max_nfev``
    residual evaluations (default ``_max_nfev``); returns ``(shape, rms,
    converged)``."""
    # Every tangent plane of a cone passes through the apex.
    b = (normals * pts).sum(axis=1)
    apex0, *_ = np.linalg.lstsq(normals, b, rcond=None)
    if not np.isfinite(apex0).all():
        raise FitError("degenerate cone (apex estimate failed)")
    if float(np.mean((pts - apex0) @ w0)) < 0.0:
        w0 = -w0
    sin_a = float(np.clip(np.abs(normals @ w0).mean(), 0.02, 0.999))
    alpha0 = float(np.arcsin(sin_a))
    x0 = np.array([apex0[0], apex0[1], apex0[2], 0.0, 0.0, alpha0])
    u0, v0 = _ortho_basis(w0)
    turns = np.column_stack([u0, v0])

    def residual(x):
        return _cone_from_params(w0, u0, v0, x).distance(pts)

    def jac(x):
        # In front of the apex the residual is |g|, g = rho cos(a) - h sin(a),
        # with rho the radial distance and h the height along the axis w.
        # Moving the apex by dc changes rho by -q^.dc (q^ the radial
        # direction) and h by -w.dc. Turning w by dw changes rho by -h q^.dw
        # and h by q.dw; a step in x[3] or x[4] turns w by the part of u0 or
        # v0 normal to w over |raw|. And dg/da = -(rho sin(a) + h cos(a)).
        # Behind the apex the residual is |u|, the distance to the apex.
        raw = w0 + x[3] * u0 + x[4] * v0
        length = float(np.linalg.norm(raw))
        w = raw / length
        u = pts - x[:3]
        h = u @ w
        q = u - h[:, None] * w
        rho = np.linalg.norm(q, axis=1)
        sin_x, cos_x = np.sin(x[5]), np.cos(x[5])
        along = rho * sin_x + h * cos_x
        q_hat = _unit_rows(q)
        d_turn = -(cos_x * h[:, None] * (q_hat @ turns) + sin_x * (q @ turns)) / length
        front = np.column_stack([sin_x * w - cos_x * q_hat, d_turn, -along])
        front *= np.sign(rho * cos_x - h * sin_x)[:, None]
        behind = np.column_stack([-_unit_rows(u), np.zeros((len(pts), 3))])
        return np.where((along <= 0.0)[:, None], behind, front)

    lower = np.array([-np.inf] * 5 + [0.01])
    upper = np.array([np.inf] * 5 + [np.pi / 2 - 0.01])
    x, rms, converged = _polish(residual, jac, x0, bounds=(lower, upper), max_nfev=max_nfev)
    return _cone_from_params(w0, u0, v0, x), rms, converged


def _fit_cone(pts: Points, normals: Points | None, adequate_rms: float = 0.0):
    """Cone fit with each eigenvector of the normal moment as the initial
    axis, smallest eigenvalue first: the axis is the smallest for shallow
    cones and the largest for steep ones.

    Each start first runs for ``_CONE_RACE_NFEV`` residual evaluations, and
    one that converges within them to an RMS at or below ``adequate_rms``,
    with its apex within the size limit, ends the trials. Otherwise only
    the start with the lowest RMS after the race is finished: run again to
    ``_max_nfev`` unless it has already converged. It wins unless it does
    not converge or its apex lies farther than the size limit from the
    data, which makes a cylinder or a plane in disguise; then the next start
    is finished, if its raced RMS is within ``_CONE_RACE_TIE`` times the
    lowest, and so on. The fit fails when no start so finished wins."""
    extent = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    reach = _SIZE_LIMIT_FACTOR * max(extent, 1e-12)
    centroid = pts.mean(axis=0)

    def in_range(shape: Cone) -> bool:
        return float(np.linalg.norm(shape.apex - centroid)) <= reach

    _, evecs = np.linalg.eigh(_normal_moments(normals))
    raced = []
    for col in range(3):
        w0 = unit(evecs[:, col])
        shape, rms, converged = _fit_cone_once(pts, normals, w0, _CONE_RACE_NFEV)
        if converged and rms <= adequate_rms and in_range(shape):
            return shape, rms
        raced.append((rms, w0, shape, converged))
    raced.sort(key=lambda start: start[0])
    for rms, w0, shape, converged in raced:
        if rms > _CONE_RACE_TIE * raced[0][0]:
            break
        if not converged:
            shape, rms, converged = _fit_cone_once(pts, normals, w0)
        if not converged:
            error = FitError("cone fit did not converge")
        elif not in_range(shape):
            error = FitError("degenerate cone (apex out of range)")
        else:
            return shape, rms
    raise error


def _fit_shape(kind: PrimitiveKind, pts: Points, normals: Points | None = None,
               adequate_rms: float = 0.0):
    if len(pts) < MIN_SAMPLE[kind]:
        raise FitError(f"{kind.value} needs at least {MIN_SAMPLE[kind]} points, got {len(pts)}")
    if kind is PrimitiveKind.PLANE:
        return _fit_plane(pts)
    if kind is PrimitiveKind.SPHERE:
        return _fit_sphere(pts)
    if kind is PrimitiveKind.CYLINDER:
        return _fit_cylinder(pts, normals)
    if kind is PrimitiveKind.CONE:
        return _fit_cone(pts, normals, adequate_rms=adequate_rms)
    raise ValueError(f"unknown primitive kind {kind!r}")


# ---------------------------------------------------------------------------
# Configurations and the segmentation energy
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Configuration:
    """A set of primitives with disjoint inlier index sets over one cloud.

    ``tunables`` is the record the set was grown under: ``energy`` reads its
    weights, ``split`` and ``merge`` its inlier band, and every primitive
    holds at least its ``min_points`` inliers.
    """

    points: Points
    primitives: list[Primitive]
    tunables: PipelineConfig = PipelineConfig()
    normals: Points | None = None

    def __post_init__(self):
        self.points = as_points(self.points)
        if self.normals is not None:
            self.normals = as_points(self.normals)
        n = len(self.points)
        all_inliers = np.concatenate([p.inliers for p in self.primitives]) \
            if self.primitives else np.empty(0, dtype=np.int64)
        if len(all_inliers) and (all_inliers.min() < 0 or all_inliers.max() >= n):
            raise ValueError("inlier index out of range")
        if len(all_inliers) and np.bincount(all_inliers).max() > 1:
            raise ValueError("inlier sets of distinct primitives must be disjoint")
        for p in self.primitives:
            if len(p.inliers) < self.tunables.min_points:
                raise ValueError("every primitive needs at least min_points inliers")
        if self.max_primitives < len(self.primitives):
            raise ValueError("more primitives than n // min_points allows")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def n_assigned(self) -> int:
        return int(sum(len(p.inliers) for p in self.primitives))

    @property
    def max_primitives(self) -> int:
        return self.n // self.tunables.min_points

    def labels(self) -> NDArray[np.int64]:
        out = np.full(self.n, -1, dtype=np.int64)
        for i, p in enumerate(self.primitives):
            out[p.inliers] = i
        return out


class EnergyTerms(NamedTuple):
    total: float
    fidelity: float
    simplicity: float
    completeness: float


def _distance_sums(config: Configuration) -> list[float]:
    """Each primitive's sum of inlier distances to its shape."""
    return [float(p.shape.distance(config.points[p.inliers]).sum()) for p in config.primitives]


def energy(config: Configuration) -> EnergyTerms:
    """Weighted fidelity + simplicity + completeness score of a configuration."""
    dist_sum = sum(_distance_sums(config))
    n_assigned = config.n_assigned
    n_max = config.max_primitives
    fidelity = dist_sum / n_assigned if n_assigned else 0.0
    simplicity = len(config.primitives) / n_max if n_max else 0.0
    completeness = 1.0 - n_assigned / config.n
    t = config.tunables
    total = t.omega_f * fidelity + t.omega_s * simplicity + t.omega_c * completeness
    return EnergyTerms(total, fidelity, simplicity, completeness)


# ---------------------------------------------------------------------------
# Region growing
# ---------------------------------------------------------------------------

def region_grow(cloud: PointCloud, config: PipelineConfig = PipelineConfig()) -> Configuration:
    """Coarse segmentation: the connected components of the join graph.

    Points i and j are joined when j is among the neighbors i's normal was
    estimated from (``cloud.neighbors`` past its first column, the point
    itself), both curvatures are below ``region_curv_thresh`` and the
    normals are within ``region_angle_deg`` up to sign. The rule is
    symmetric, so no visit order shapes the regions. Those below
    ``min_points`` are dropped unfitted; the rest come ordered by their
    flattest point (its rank in a stable curvature sort), members
    ascending. Each region is fitted with the kinds in the order plane,
    sphere, cylinder, cone, or plane, cylinder, sphere, cone when its normals
    lie near a great circle of the Gauss image, stopping at the first that
    fits it to within ``inlier_eps / 4`` RMS, and takes the best of those
    fitted (see ``_best_kind_fit``). All values come from ``config``;
    ``min_points`` is a plain count, 30 by default, whatever the scan's size.
    """
    if cloud.normals is None or cloud.curvatures is None or cloud.neighbors is None:
        raise ValueError("region_grow needs normals, curvatures and their neighbor table")
    pts = cloud.points
    n = len(pts)
    normals = cloud.normals
    curv = cloud.curvatures

    near = cloud.neighbors[:, 1:]
    flat = curv < config.region_curv_thresh
    joined = flat[:, None] & flat[near]
    cos_thresh = np.cos(np.deg2rad(config.region_angle_deg))
    # One neighbor column at a time, so temporaries stay (n, 3); a stacked
    # 1x3 @ 3x1 product rounds as ``normals[i] @ normals[j]``.
    for c, column in enumerate(near.T):
        cos = (normals[:, None, :] @ normals[column][:, :, None])[:, 0, 0]
        joined[:, c] &= np.abs(cos) >= cos_thresh
    # The join graph as a CSR matrix straight off the table: row i holds the
    # neighbors it joins, in table order.
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(joined.sum(axis=1), out=indptr[1:])
    graph = csr_matrix((np.ones(indptr[-1]), near[joined].astype(np.int32), indptr),
                       shape=(n, n))
    regions = components(graph, config.min_points)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(curv, kind="stable")] = np.arange(n)
    regions.sort(key=lambda members: rank[members].min())

    fitted = (_band_fit(pts, normals, members, config.inlier_eps, config.min_points)
              for members in regions)
    return Configuration(
        points=pts,
        primitives=[p for p in fitted if p is not None],
        tunables=config,
        normals=normals,
    )


_FIT_SAMPLE_CAP = 2000

# A region that one kind fits to within this fraction of the inlier band
# needs no later kind. On the benchmark scenes each region's own kind
# reaches at most 0.11 eps and every earlier kind at least 0.68 eps; at
# eps / 4, Gaussian residuals of that RMS stay inside the band out to 4
# sigma. On every region of the plate, bracket and collage workloads, each
# kind fitted after an adequate one either failed (spheres and cylinders on
# planes: radius out of range) or lost (collage's sphere region: sphere
# 0.0101, cylinder 0.276).
_ADEQUATE_RMS_FRACTION = 0.25

# The normals of a cylinder lie on a great circle of the Gauss image: their
# second moment (``_normal_moments``) has one eigenvalue near 0 and a middle
# one that grows with the arc they span, 0.5 for a whole turn. A region whose
# smallest eigenvalue is at most the first bound and whose middle one is at
# least the second tries the cylinder before the sphere (Chaperon & Goulette,
# "Extracting cylinders in full 3D data using a random sampling method and
# the Gaussian image", VMV 2001). On the benchmark parts' fit subsets the
# smallest and middle eigenvalues read 0.0008-0.0045 and 0.49-0.50 on
# plate's bores and 0.0013 and 0.50 on collage's cylinder; at most 0.0005
# and 0.0007 on planes; 0.16-0.18 and 0.41 on collage's cones and 0.31 and
# 0.31 on its sphere. A 20-degree sphere cap reads 0.030 and 0.030.
_GREAT_CIRCLE_SMALLEST = 0.01
_GREAT_CIRCLE_MIDDLE = 0.1

# A cone start that does not end adequate within this many residual
# evaluations races the other starts for as many, and only the lowest RMS
# then runs on to ``_max_nfev``. After the race the starts read RMS 0.166,
# 0.890 and 0.069 on the dented bracket's sheet region (1,163 points) and
# 1.81, 2.92 and 0.128 on the dented plate's top face (1,984 points). Run to
# the end they take 52, 273 and 17 evaluations on the bracket and 350 (the
# cap), 350 and 21 on the plate, and in both only the third keeps its apex
# within the size limit. Collage's cones end adequate on their first start
# after 5. A race cannot tell apart starts whose RMS is within
# ``_CONE_RACE_TIE`` times the lowest, so each of those is finished in turn
# while the ones before it fail. Two planes meeting at a 16-degree ridge
# read 0.0231, 0.0281 and 0.088 after the race: the first runs off to an
# apex 30 extents away, and the second converges to the cone. The starts
# above read 2.4 times the lowest or more.
_CONE_RACE_NFEV = 10
_CONE_RACE_TIE = 1.5


def _fit_subset(pts: Points, normals: Points | None):
    """Evenly strided subsample in the points' order, for a region their
    index (scan) order; parameter fits do not need every point."""
    idx = strided_indices(len(pts), _FIT_SAMPLE_CAP)
    return pts[idx], None if normals is None else normals[idx]


def _kind_order(normals: Points | None) -> tuple[PrimitiveKind, ...]:
    """Plane, sphere, cylinder, cone; the cylinder before the sphere when the
    normals lie near a great circle (see ``_GREAT_CIRCLE_SMALLEST``)."""
    kinds = tuple(PrimitiveKind)
    if normals is None or len(normals) == 0:
        return kinds
    smallest, middle, _ = np.linalg.eigvalsh(_normal_moments(normals))
    if smallest <= _GREAT_CIRCLE_SMALLEST and middle >= _GREAT_CIRCLE_MIDDLE:
        plane, sphere, cylinder, cone = kinds
        return plane, cylinder, sphere, cone
    return kinds


def _best_kind_fit(pts: Points, normals: Points | None, inlier_eps: float):
    """Fit each kind and keep the lowest geometric RMS, with a 5% plane edge;
    returns ``(shape, distance of every point)`` or None if none fits. Region
    growing, ``split`` and ``merge`` all choose their kinds by this rule.

    The kinds are tried in the order plane, sphere, cylinder, cone, except
    that the cylinder comes before the sphere when the normals lie near a
    great circle of the Gauss image, as a cylinder's do (``_kind_order``).
    No kind is tried once an earlier one leaves an RMS at or below
    ``inlier_eps / 4`` (Schnabel, Wahl & Klein, "Efficient RANSAC for
    Point-Cloud Shape Detection", CGF 2007: the cheapest adequate kind). So
    a bore's adequate cylinder ends its trials before any sphere is fitted,
    and a curved surface that an earlier kind fits to within
    ``inlier_eps / 4`` takes the earlier kind:

    - a cone shallow enough for a cylinder to fit it is labelled a cylinder:
      over a length l, a half-angle below about ``0.87 * inlier_eps / l``
      rad, against the cone fit's own lower bound of 0.01 rad;
    - a cylindrical strip of chord l and radius R sags by l^2 / (8 R), and
      its best plane leaves about 0.3 of that sag, so it is labelled a plane
      from about ``R = 0.15 * l**2 / inlier_eps`` up, unless the size limit
      (``_SIZE_LIMIT_FACTOR``) rejects the cylinder first;
    - a square strip of that cylinder, as long along its axis as across it,
      is fitted by a sphere of radius about 2 R to 0.7 of the plane's RMS,
      so it is labelled a sphere from about ``R = 0.11 * l**2 / inlier_eps``
      up until the plane takes it, unless the size limit rejects the sphere
      first.

    A strip whose normals span less than about 65 degrees of arc has a
    middle eigenvalue below 0.1 and keeps the sphere before the cylinder.
    If the scan's noise exceeds ``inlier_eps / 4``, every kind is always
    tried. The same rule holds within the cone fit: its axis trials stop at
    the first that fits the subsample to within ``inlier_eps / 4`` (see
    ``_fit_cone``). ``normals`` may carry either sign at each point: the
    cylinder and cone fits read them only up to sign.
    """
    fit_pts, fit_normals = _fit_subset(pts, normals)
    fits: dict[PrimitiveKind, tuple[Shape, NDArray[np.float64]]] = {}
    fit_rms: dict[PrimitiveKind, float] = {}
    adequate = _ADEQUATE_RMS_FRACTION * inlier_eps
    for kind in _kind_order(fit_normals):
        if len(fit_pts) < MIN_SAMPLE[kind]:
            continue
        if fit_rms and min(fit_rms.values()) <= adequate:
            break
        try:
            shape, _ = _fit_shape(kind, fit_pts, fit_normals, adequate_rms=adequate)
        except FitError:
            continue
        fits[kind] = (shape, shape.distance(pts))
        fit_rms[kind] = rms(fits[kind][1])
    if not fits:
        return None
    best = min(fit_rms, key=fit_rms.get)
    if PrimitiveKind.PLANE in fit_rms and fit_rms[PrimitiveKind.PLANE] <= 1.05 * fit_rms[best]:
        best = PrimitiveKind.PLANE
    return fits[best]


def _band_fit(points: Points, normals: Points | None, indices: NDArray[np.int64],
              inlier_eps: float, min_points: int) -> Primitive | None:
    """Fit the best kind to ``points[indices]`` and keep the points within
    ``inlier_eps`` of it; None if fewer than ``min_points`` remain."""
    if len(indices) < min_points:
        return None
    fitted = _best_kind_fit(points[indices], None if normals is None else normals[indices],
                            inlier_eps)
    if fitted is None:
        return None
    shape, dist = fitted
    keep = dist <= inlier_eps
    if keep.sum() < min_points:
        return None
    return Primitive(shape, indices[keep])


# ---------------------------------------------------------------------------
# Split and merge
# ---------------------------------------------------------------------------

def _adjacent(config: Configuration, a: Primitive, b: Primitive,
              gap: float | None = None) -> bool:
    """Whether an inlier of ``a`` lies within ``gap`` of one of ``b``
    (default ``2 * inlier_eps``, the gap ``refine``'s merges use).

    That default lies below the benchmark parts' point spacing, so none of
    their merges passes here; the crease filter's gap of
    ``tensor_radius_factor`` spacings left their reports as they are but
    sent every bore-face pair of the plate on to ``_band_fit``, and
    ``refine`` took seconds there instead of hundredths."""
    pa = config.points[a.inliers]
    pb = config.points[b.inliers]
    if len(pa) > len(pb):
        pa, pb = pb, pa
    if gap is None:
        gap = 2.0 * config.tunables.inlier_eps
    # The distance between the two bounding boxes bounds every pair's from
    # below, so boxes farther apart than ``gap`` need no tree.
    lo = np.maximum(pa.min(axis=0), pb.min(axis=0))
    hi = np.minimum(pa.max(axis=0), pb.max(axis=0))
    box = np.maximum(lo - hi, 0.0)
    if box @ box > gap * gap:
        return False
    d, _ = cKDTree(pa).query(pb, k=1, distance_upper_bound=gap)
    return bool(np.isfinite(d).any())


def split(config: Configuration, prim_index: int) -> tuple[Configuration, bool]:
    """Divide one primitive in two; returns (config, applied).

    Each side is refitted cold with the kind that fits it best
    (``_band_fit``), which may differ from the primitive's, and keeps its
    points within ``inlier_eps`` of the fit, a subset of the primitive's
    inliers; so a split lowers the energy by at most ``omega_f * S / A -
    omega_s / max_primitives`` (see ``refine``). The original configuration
    is returned unchanged with ``applied=False`` when the primitive is too
    small or either side loses its support.
    """
    prim = config.primitives[prim_index]
    if len(prim.inliers) < 2 * config.tunables.min_points:
        return config, False
    pts = config.points[prim.inliers]
    centered = pts - pts.mean(axis=0)
    _, evecs = np.linalg.eigh(centered.T @ centered)
    along = centered @ evecs[:, 2]
    # Approximate farthest pair: the extremes along the principal direction.
    pa = pts[np.argmin(along)]
    pb = pts[np.argmax(along)]
    to_a = np.linalg.norm(pts - pa, axis=1) <= np.linalg.norm(pts - pb, axis=1)
    halves = [_band_fit(config.points, config.normals, group, config.tunables.inlier_eps,
                        config.tunables.min_points)
              for group in (prim.inliers[to_a], prim.inliers[~to_a])]
    if any(half is None for half in halves):
        return config, False
    prims = list(config.primitives)
    prims[prim_index:prim_index + 1] = halves
    return replace(config, primitives=prims), True


def merge(config: Configuration, i: int, j: int) -> tuple[Configuration, bool]:
    """Fuse two adjacent primitives of any kinds, refitted cold with the kind
    that fits their joined inliers best (``_band_fit``); returns (config,
    applied)."""
    if i == j:
        raise ValueError("cannot merge a primitive with itself")
    a, b = config.primitives[i], config.primitives[j]
    if not _adjacent(config, a, b):
        return config, False
    merged = _band_fit(config.points, config.normals, np.concatenate([a.inliers, b.inliers]),
                       config.tunables.inlier_eps, config.tunables.min_points)
    if merged is None:
        return config, False
    lo, hi = sorted((i, j))
    prims = list(config.primitives)
    del prims[hi]
    prims[lo] = merged
    return replace(config, primitives=prims), True


# ---------------------------------------------------------------------------
# Refinement by exploration
# ---------------------------------------------------------------------------

_MIN_GAIN = 1e-12


def refine(config: Configuration, on_apply=None) -> Configuration:
    """Apply the best energy-decreasing split/merge until none remains.

    Each round tries ``split`` on every primitive whose split the energy
    allows, then ``merge`` on every pair i < j, scores each applied result
    with ``energy``, and keeps the lowest (ties go to the first in that
    order). A split puts its two halves in place of the primitive; a merge
    puts the merged primitive at the lower index. ``on_apply(op, e_before,
    e_after)`` sees every applied operation. When nothing lowers the energy
    the input object itself is returned. Every applied operation strictly
    decreases the energy, which bounds the run; a cap of ``20 * n + 200``
    operations on n input primitives is a hard safety net.

    Splitting primitive i adds a primitive, and its halves keep subsets of
    its inliers, at distances of 0 or more. With S_i its inlier distance sum
    and A the assigned count, the fidelity term falls by at most ``omega_f *
    S_i / A``, the simplicity term rises by ``omega_s / max_primitives``, and
    the completeness term cannot fall. So a split is tried only when
    ``omega_f * S_i / A > omega_s / max_primitives - _MIN_GAIN``: no other
    split could lower the energy, and skipping them leaves the result as it
    would be with every split tried.
    """
    cap = 20 * max(1, len(config.primitives)) + 200
    t = config.tunables
    current = energy(config).total
    for applied in itertools.count():
        n = len(config.primitives)
        # With no primitive there is nothing to try, and max_primitives may be 0.
        tried = [("split", split(config, i)) for i, s in enumerate(_distance_sums(config))
                 if t.omega_f * s / config.n_assigned
                 > t.omega_s / config.max_primitives - _MIN_GAIN]
        tried += [("merge", merge(config, i, j)) for i, j in itertools.combinations(range(n), 2)]
        scored = [(energy(after).total, op, after) for op, (after, ok) in tried if ok]
        e_after, op, after = min(scored, key=lambda item: item[0], default=(current, None, None))
        if e_after >= current - _MIN_GAIN:
            return config
        if applied >= cap:
            raise RuntimeError("refine exceeded the operation cap")
        if on_apply is not None:
            on_apply(op, current, e_after)
        config, current = after, e_after


# ---------------------------------------------------------------------------
# Part-level error
# ---------------------------------------------------------------------------

def patch_distances(config: Configuration,
                    surface_dist: NDArray[np.float64]) -> NDArray[np.float64]:
    """Per-primitive mean distance to the CAD surface.

    ``surface_dist`` holds one point-to-surface distance per point of the
    cloud the configuration indexes (``MeshDistance.query`` over the whole
    cloud), so the patch means reuse the global stage's distances.
    """
    return np.array([surface_dist[prim.inliers].mean() for prim in config.primitives])


def part_level_error(patch_dists: NDArray[np.float64]) -> tuple[float, float] | None:
    """Average and maximum of the ``patch_distances``; None with no patch."""
    if len(patch_dists) == 0:
        return None
    return float(patch_dists.mean()), float(patch_dists.max())
