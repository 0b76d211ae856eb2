"""Part-level analysis: analytic primitive fitting, curvature-driven region
growing, and energy-guided split/merge refinement of the segmentation.

A configuration of primitives is scored by a weighted energy with three
terms: fidelity (mean inlier-to-surface distance), simplicity (primitive
count relative to the maximum supportable count) and completeness (fraction
of points left unassigned). Refinement applies the split or merge operation
with the largest energy decrease until no operation helps; each round
rescores every candidate from refits cached by the primitives it involves.
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
from scipy.spatial import cKDTree

from .geometry import (
    PointCloud,
    Points,
    RigidTransform,
    Vec3,
    as_points,
    canonical_sign,
    estimate_normals_and_curvature,
    strided_indices,
    unit,
)


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

    def transformed(self, t: RigidTransform) -> "Plane":
        n = t.apply_directions(self.normal.reshape(1, 3))[0]
        offset = self.offset + float(n @ t.translation)
        n2 = canonical_sign(n)
        if float(n2 @ n) < 0:
            offset = -offset
        return Plane(n2, offset)


@dataclass(frozen=True, eq=False)
class Sphere:
    center: Vec3
    radius: float

    kind = PrimitiveKind.SPHERE

    def distance(self, points) -> NDArray[np.float64]:
        return np.abs(np.linalg.norm(as_points(points) - self.center, axis=1) - self.radius)

    def transformed(self, t: RigidTransform) -> "Sphere":
        return Sphere(t.apply(self.center.reshape(1, 3))[0], self.radius)


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

    def transformed(self, t: RigidTransform) -> "Cylinder":
        return Cylinder(
            t.apply(self.point.reshape(1, 3))[0],
            canonical_sign(t.apply_directions(self.axis.reshape(1, 3))[0]),
            self.radius,
        )


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

    def transformed(self, t: RigidTransform) -> "Cone":
        return Cone(
            t.apply(self.apex.reshape(1, 3))[0],
            t.apply_directions(self.axis.reshape(1, 3))[0],
            self.half_angle,
        )


Shape: TypeAlias = Union[Plane, Sphere, Cylinder, Cone]


@dataclass(frozen=True, eq=False)
class Primitive:
    """A fitted shape together with its inlier indices into the host cloud."""

    shape: Shape
    inliers: NDArray[np.int64]
    fit_rms: float

    @property
    def kind(self) -> PrimitiveKind:
        return self.shape.kind

    def __post_init__(self):
        object.__setattr__(self, "inliers", np.asarray(self.inliers, dtype=np.int64).reshape(-1))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _max_nfev(n_params: int) -> int:
    # least_squares' nfev leaves out the calls of its 2-point Jacobian, so
    # this allows about 50 * (n_params + 1) trial steps (350 for a cone),
    # each costing n_params more residual calls when its Jacobian is taken.
    # Converging cone fits take up to about 290 Jacobians, so a tighter cap
    # would change which fits succeed.
    return 50 * (n_params + 1)


def _rms(residuals: NDArray[np.float64]) -> float:
    return float(np.sqrt(np.mean(residuals * residuals)))


def _polish(fun, x0, bounds=None):
    kwargs = {"method": "trf", "max_nfev": _max_nfev(len(x0))}
    if bounds is not None:
        kwargs["bounds"] = bounds
    result = least_squares(fun, np.asarray(x0, dtype=np.float64), **kwargs)
    return result.x, _rms(result.fun), result.status != 0


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
    return shape, _rms(shape.distance(pts))


def _fit_sphere(pts: Points, init: Sphere | None = None):
    extent = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    if init is None:
        # Algebraic fit: |p|^2 = 2 c.p + (r^2 - |c|^2), linear in (c, t).
        a = np.column_stack([2.0 * pts, np.ones(len(pts))])
        b = (pts * pts).sum(axis=1)
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        center = sol[:3]
        r2 = sol[3] + center @ center
        if not np.isfinite(r2) or r2 <= 0:
            raise FitError("degenerate sphere (algebraic fit collapsed)")
        x0 = np.append(center, np.sqrt(r2))
    else:
        x0 = np.append(init.center, init.radius)

    def residual(x):
        return np.linalg.norm(pts - x[:3], axis=1) - x[3]

    x, rms, converged = _polish(residual, x0)
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


def _normal_moments(pts: Points, normals: Points | None):
    if normals is None:
        cloud = PointCloud(points=pts)
        normals = estimate_normals_and_curvature(cloud, k=min(10, len(pts) - 1)).normals
    m = normals.T @ normals / len(normals)
    return normals, m


def _fit_cylinder(pts: Points, normals: Points | None, init: Cylinder | None = None):
    extent = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    centroid = pts.mean(axis=0)
    if init is None:
        # Cylinder surface normals are orthogonal to the axis, so the axis is
        # the direction in which the normals' second moment vanishes.
        _, m = _normal_moments(pts, normals)
        evals, evecs = np.linalg.eigh(m)
        w0 = unit(evecs[:, 0])
        u0, v0 = _ortho_basis(w0)
        xy = np.column_stack([(pts - centroid) @ u0, (pts - centroid) @ v0])
        try:
            cx, cy, r0 = _pratt_circle_2d(xy)
        except FitError:
            cx = cy = 0.0
            r0 = float(np.linalg.norm(xy, axis=1).mean())
        x0 = np.array([cx, cy, 0.0, 0.0, max(r0, 1e-9)])
    else:
        w0 = unit(init.axis)
        u0, v0 = _ortho_basis(w0)
        rel = init.point - centroid
        x0 = np.array([rel @ u0, rel @ v0, 0.0, 0.0, max(init.radius, 1e-9)])

    def residual(x):
        w = unit(w0 + x[2] * u0 + x[3] * v0)
        c = centroid + x[0] * u0 + x[1] * v0
        u = pts - c
        h = u @ w
        return np.linalg.norm(u - h[:, None] * w, axis=1) - x[4]

    lower = np.array([-np.inf, -np.inf, -np.inf, -np.inf, 1e-12])
    x, rms, converged = _polish(residual, x0, bounds=(lower, np.inf))
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


def _polish_cone(pts: Points, w0: Vec3, x0: NDArray[np.float64]):
    """Least-squares cone from x0 = (apex, two axis tilts, half-angle).

    Fresh fits and refits alike reject an apex farther than the size limit
    from the data: such a cone is a cylinder or a plane in disguise.
    """
    u0, v0 = _ortho_basis(w0)

    def residual(x):
        return _cone_from_params(w0, u0, v0, x).distance(pts)

    lower = np.array([-np.inf] * 5 + [0.01])
    upper = np.array([np.inf] * 5 + [np.pi / 2 - 0.01])
    x, rms, converged = _polish(residual, x0, bounds=(lower, upper))
    if not converged:
        raise FitError("cone fit did not converge")
    shape = _cone_from_params(w0, u0, v0, x)
    extent = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    centroid = pts.mean(axis=0)
    if float(np.linalg.norm(shape.apex - centroid)) > _SIZE_LIMIT_FACTOR * max(extent, 1e-12):
        raise FitError("degenerate cone (apex out of range)")
    return shape, rms


def _fit_cone_once(pts: Points, normals: Points, w0: Vec3):
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
    return _polish_cone(pts, w0, x0)


def _fit_cone(pts: Points, normals: Points | None, init: Cone | None = None):
    if init is not None:
        x0 = np.array([*init.apex, 0.0, 0.0,
                       float(np.clip(init.half_angle, 0.011, np.pi / 2 - 0.011))])
        return _polish_cone(pts, unit(init.axis), x0)

    normals_, m = _normal_moments(pts, normals)
    evals, evecs = np.linalg.eigh(m)
    # The axis direction is ambiguous for steep cones; try each moment
    # eigenvector and keep the best converged fit.
    best = None
    last_err: FitError | None = None
    for col in range(3):
        try:
            shape, rms = _fit_cone_once(pts, normals_, unit(evecs[:, col]))
        except FitError as exc:
            last_err = exc
            continue
        if best is None or rms < best[1]:
            best = (shape, rms)
    if best is None:
        raise last_err if last_err is not None else FitError("cone fit failed")
    return best


def _fit_shape(kind: PrimitiveKind, pts: Points, normals: Points | None = None,
               init: Shape | None = None):
    if len(pts) < MIN_SAMPLE[kind]:
        raise FitError(f"{kind.value} needs at least {MIN_SAMPLE[kind]} points, got {len(pts)}")
    if kind is PrimitiveKind.PLANE:
        return _fit_plane(pts)
    if kind is PrimitiveKind.SPHERE:
        return _fit_sphere(pts, init=init if isinstance(init, Sphere) else None)
    if kind is PrimitiveKind.CYLINDER:
        return _fit_cylinder(pts, normals, init=init if isinstance(init, Cylinder) else None)
    if kind is PrimitiveKind.CONE:
        return _fit_cone(pts, normals, init=init if isinstance(init, Cone) else None)
    raise ValueError(f"unknown primitive kind {kind!r}")


def fit_primitive(kind: PrimitiveKind, points, normals=None) -> Primitive:
    """Least-squares fit of one primitive kind to a point subset.

    Raises FitError on insufficient or degenerate data, or when the
    geometric refinement exhausts its step budget.
    """
    pts = as_points(points)
    nrm = None if normals is None else as_points(normals)
    shape, rms = _fit_shape(kind, pts, nrm)
    return Primitive(shape, np.arange(len(pts)), rms)


# ---------------------------------------------------------------------------
# Configurations and the segmentation energy
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Configuration:
    """A set of primitives with disjoint inlier index sets over one cloud."""

    points: Points
    primitives: list[Primitive]
    min_points: int
    weights: tuple[float, float, float] = (0.6, 0.25, 0.15)
    inlier_eps: float = 0.1
    normals: Points | None = None

    def __post_init__(self):
        self.points = as_points(self.points)
        if self.normals is not None:
            self.normals = as_points(self.normals)
        if self.min_points < 1:
            raise ValueError("min_points must be >= 1")
        if self.inlier_eps <= 0:
            raise ValueError("inlier_eps must be positive")
        w = np.asarray(self.weights, dtype=float)
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        self.weights = (float(w[0]), float(w[1]), float(w[2]))
        n = len(self.points)
        all_inliers = np.concatenate([p.inliers for p in self.primitives]) \
            if self.primitives else np.empty(0, dtype=np.int64)
        if len(all_inliers) and (all_inliers.min() < 0 or all_inliers.max() >= n):
            raise ValueError("inlier index out of range")
        if len(np.unique(all_inliers)) != len(all_inliers):
            raise ValueError("inlier sets of distinct primitives must be disjoint")
        for p in self.primitives:
            if len(p.inliers) < self.min_points:
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
        return self.n // self.min_points

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


def energy(config: Configuration) -> EnergyTerms:
    """Weighted fidelity + simplicity + completeness score of a configuration."""
    dist_total = sum(_dist_sum(config.points, p) for p in config.primitives)
    return _energy_terms(
        dist_total, config.n_assigned, len(config.primitives),
        config.n, config.max_primitives, config.weights,
    )


def _dist_sum(points: Points, prim: Primitive) -> float:
    return float(prim.shape.distance(points[prim.inliers]).sum())


def _energy_terms(dist_sum, n_assigned, count, n, n_max, weights) -> EnergyTerms:
    fidelity = dist_sum / n_assigned if n_assigned else 0.0
    simplicity = count / n_max if n_max else 0.0
    completeness = 1.0 - n_assigned / n
    wf, ws, wc = weights
    total = wf * fidelity + ws * simplicity + wc * completeness
    return EnergyTerms(total, fidelity, simplicity, completeness)


# ---------------------------------------------------------------------------
# Region growing
# ---------------------------------------------------------------------------

def region_grow(
    cloud: PointCloud,
    k: int = 16,
    angle_thresh: float = 0.35,
    curv_thresh: float = 0.04,
    min_points: int | None = None,
    weights: tuple[float, float, float] = (0.6, 0.25, 0.15),
    inlier_eps: float = 0.1,
) -> Configuration:
    """Coarse segmentation by curvature-seeded region growing.

    Seeds are visited in ascending curvature order; a neighbor joins when its
    normal is within ``angle_thresh`` of the current point's and its own
    curvature is below ``curv_thresh``. Each surviving region is fitted with
    whichever primitive kind explains it best, trying plane, sphere and
    cylinder first and the cone only when none of them fits the region to
    within ``inlier_eps / 4`` RMS (see ``_best_kind_fit``).
    """
    if cloud.normals is None or cloud.curvatures is None:
        raise ValueError("region_grow needs normals and curvatures")
    pts = cloud.points
    n = len(pts)
    if min_points is None:
        min_points = max(30, n // 500)
    _, idx = cKDTree(pts).query(pts, k=min(k, n - 1) + 1)
    normals = cloud.normals
    curv = cloud.curvatures
    cos_thresh = np.cos(angle_thresh)

    assigned = np.full(n, -1, dtype=np.int64)
    regions: list[np.ndarray] = []
    for seed in np.argsort(curv, kind="stable"):
        if assigned[seed] >= 0:
            continue
        rid = len(regions)
        assigned[seed] = rid
        members = [int(seed)]
        stack = [int(seed)]
        while stack:
            i = stack.pop()
            ni = normals[i]
            for j in idx[i, 1:]:
                if assigned[j] >= 0:
                    continue
                if curv[j] < curv_thresh and abs(float(ni @ normals[j])) >= cos_thresh:
                    assigned[j] = rid
                    members.append(int(j))
                    stack.append(int(j))
        regions.append(np.asarray(members, dtype=np.int64))

    primitives: list[Primitive] = []
    for members in regions:
        if len(members) < min_points:
            continue
        fitted = _best_kind_fit(pts[members], normals[members], inlier_eps)
        if fitted is None:
            continue
        shape, _ = fitted
        keep = shape.distance(pts[members]) <= inlier_eps
        if keep.sum() < min_points:
            continue
        inliers = members[keep]
        rms = _rms(shape.distance(pts[inliers]))
        primitives.append(Primitive(shape, inliers, rms))

    return Configuration(
        points=pts,
        primitives=primitives,
        min_points=min_points,
        weights=weights,
        inlier_eps=inlier_eps,
        normals=normals,
    )


_FIT_SAMPLE_CAP = 2000

# A region that a plane, sphere or cylinder fits to within this fraction of
# the inlier band needs no cone fit. On the benchmark scenes the winning
# simpler kind reaches at most 0.11 eps and the cone regions' best simpler
# kind at least 0.68 eps; at eps / 4, Gaussian residuals of that RMS stay
# inside the band out to 4 sigma.
_ADEQUATE_RMS_FRACTION = 0.25


def _fit_subset(pts: Points, normals: Points | None):
    """Evenly strided subsample; parameter fits do not need every point."""
    idx = strided_indices(len(pts), _FIT_SAMPLE_CAP)
    return pts[idx], None if normals is None else normals[idx]


def _best_kind_fit(pts: Points, normals: Points | None, inlier_eps: float):
    """Keep the fitted kind with the lowest geometric RMS, with a 5% plane edge.

    Plane, sphere and cylinder are fitted first. The cone, the costliest fit,
    is tried only when none of them succeeds or the best leaves an RMS above
    ``inlier_eps / 4`` (Schnabel, Wahl & Klein, "Efficient RANSAC for
    Point-Cloud Shape Detection", CGF 2007: the cheapest adequate kind).
    So a cone shallow enough for a cylinder to fit within ``inlier_eps / 4``
    is labelled a cylinder: over a length l, a half-angle below about
    ``0.87 * inlier_eps / l`` rad, against the cone fit's own lower bound of
    0.01 rad. If the scan's noise exceeds ``inlier_eps / 4``, the cone is
    always tried.
    """
    fit_pts, fit_normals = _fit_subset(pts, normals)
    results: dict[PrimitiveKind, tuple[Shape, float]] = {}
    adequate = _ADEQUATE_RMS_FRACTION * inlier_eps
    for kind in PrimitiveKind:  # declared plane, sphere, cylinder, cone
        if kind is PrimitiveKind.CONE and results and min(
                rms for _, rms in results.values()) <= adequate:
            break
        if len(fit_pts) < MIN_SAMPLE[kind]:
            continue
        try:
            shape, _ = _fit_shape(kind, fit_pts, fit_normals)
        except FitError:
            continue
        results[kind] = (shape, _rms(shape.distance(pts)))
    if not results:
        return None
    best_kind = min(results, key=lambda k: results[k][1])
    if PrimitiveKind.PLANE in results:
        plane_rms = results[PrimitiveKind.PLANE][1]
        if plane_rms <= 1.05 * results[best_kind][1]:
            best_kind = PrimitiveKind.PLANE
    return results[best_kind]


# ---------------------------------------------------------------------------
# Split and merge
# ---------------------------------------------------------------------------

def _refit_group(config: Configuration, kind: PrimitiveKind,
                 indices: NDArray[np.int64], init: Shape) -> Primitive | None:
    """Fit ``kind`` to the index group, filter inliers to the eps band."""
    if len(indices) < MIN_SAMPLE[kind]:
        return None
    pts = config.points[indices]
    nrm = None if config.normals is None else config.normals[indices]
    fit_pts, fit_nrm = _fit_subset(pts, nrm)
    try:
        shape, _ = _fit_shape(kind, fit_pts, fit_nrm, init=init)
    except FitError:
        return None
    keep = shape.distance(pts) <= config.inlier_eps
    if keep.sum() < config.min_points:
        return None
    inliers = indices[keep]
    return Primitive(shape, inliers, _rms(shape.distance(config.points[inliers])))


def _split_primitive(config: Configuration, prim: Primitive) -> tuple[Primitive, Primitive] | None:
    if len(prim.inliers) < 2 * config.min_points:
        return None
    pts = config.points[prim.inliers]
    centered = pts - pts.mean(axis=0)
    _, evecs = np.linalg.eigh(centered.T @ centered)
    along = centered @ evecs[:, 2]
    # Approximate farthest pair: the extremes along the principal direction.
    pa = pts[np.argmin(along)]
    pb = pts[np.argmax(along)]
    to_a = np.linalg.norm(pts - pa, axis=1) <= np.linalg.norm(pts - pb, axis=1)
    group_a = prim.inliers[to_a]
    group_b = prim.inliers[~to_a]
    fitted_a = _refit_group(config, prim.kind, group_a, prim.shape)
    fitted_b = _refit_group(config, prim.kind, group_b, prim.shape)
    if fitted_a is None or fitted_b is None:
        return None
    return fitted_a, fitted_b


def _adjacent(config: Configuration, a: Primitive, b: Primitive,
              gap: float | None = None) -> bool:
    """Whether an inlier of ``a`` lies within ``gap`` of one of ``b``
    (default ``2 * inlier_eps``, the gap ``refine``'s merges use)."""
    pa = config.points[a.inliers]
    pb = config.points[b.inliers]
    if len(pa) > len(pb):
        pa, pb = pb, pa
    if gap is None:
        gap = 2.0 * config.inlier_eps
    d, _ = cKDTree(pa).query(pb, k=1, distance_upper_bound=gap)
    return bool(np.isfinite(d).any())


def _merge_primitives(config: Configuration, a: Primitive, b: Primitive) -> Primitive | None:
    if a.kind != b.kind or not _adjacent(config, a, b):
        return None
    union = np.concatenate([a.inliers, b.inliers])
    init = a.shape if len(a.inliers) >= len(b.inliers) else b.shape
    return _refit_group(config, a.kind, union, init)


def split(config: Configuration, prim_index: int) -> tuple[Configuration, bool]:
    """Divide one primitive in two; returns (config, applied).

    The original configuration is returned unchanged with ``applied=False``
    when the primitive is too small or either side loses its support.
    """
    prim = config.primitives[prim_index]
    result = _split_primitive(config, prim)
    if result is None:
        return config, False
    prims = list(config.primitives)
    prims[prim_index:prim_index + 1] = list(result)
    return replace(config, primitives=prims), True


def merge(config: Configuration, i: int, j: int) -> tuple[Configuration, bool]:
    """Fuse two same-kind adjacent primitives; returns (config, applied)."""
    if i == j:
        raise ValueError("cannot merge a primitive with itself")
    merged = _merge_primitives(config, config.primitives[i], config.primitives[j])
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


def refine(config: Configuration, on_apply=None, max_ops: int | None = None) -> Configuration:
    """Apply the best energy-decreasing split/merge until none remains.

    Each round scores every candidate, a split of each primitive and a merge
    of each same-kind pair, from refits cached by the primitives they
    involve, and applies the one with the largest energy decrease (ties go to
    the first in that order). Surviving primitives keep their order and new
    ones are appended. Every applied operation strictly decreases the
    energy, which bounds the run; ``max_ops`` is a hard safety cap.
    """
    if max_ops is None:
        max_ops = 20 * max(1, len(config.primitives)) + 200
    ids = itertools.count()
    live = {next(ids): p for p in config.primitives}
    dist = {uid: _dist_sum(config.points, p) for uid, p in live.items()}
    # (primitive ids) -> None, or (new primitives, their distance sums).
    refits: dict[tuple[int, ...], tuple | None] = {}

    def total_energy(dist_sum: float, n_assigned: int, count: int) -> float:
        return _energy_terms(dist_sum, n_assigned, count, config.n,
                             config.max_primitives, config.weights).total

    applied = 0
    while True:
        dist_sum = sum(dist.values())
        n_assigned = sum(len(p.inliers) for p in live.values())
        e_before = total_energy(dist_sum, n_assigned, len(live))
        best_gain, best_key = _MIN_GAIN, None
        pairs = [(a, b) for a, b in itertools.combinations(live, 2)
                 if live[a].kind == live[b].kind]
        for key in [(uid,) for uid in live] + pairs:
            if key not in refits:
                refits[key] = _refit_candidate(config, [live[u] for u in key])
            if refits[key] is None:
                continue
            new, new_dists = refits[key]
            e_after = total_energy(
                dist_sum - sum(dist[u] for u in key) + sum(new_dists),
                n_assigned - sum(len(live[u].inliers) for u in key)
                + sum(len(p.inliers) for p in new),
                len(live) - len(key) + len(new),
            )
            if e_before - e_after > best_gain:
                best_gain, best_key = e_before - e_after, key
        if best_key is None:
            break
        if applied >= max_ops:
            raise RuntimeError("refine exceeded the operation cap")
        new, new_dists = refits[best_key]
        for uid in best_key:
            del live[uid], dist[uid]
        for p, d in zip(new, new_dists):
            uid = next(ids)
            live[uid], dist[uid] = p, d
        applied += 1
        refits = {k: v for k, v in refits.items() if all(u in live for u in k)}
        e_after = total_energy(sum(dist.values()),
                               sum(len(p.inliers) for p in live.values()), len(live))
        recomputed = energy(replace(config, primitives=list(live.values()))).total
        if abs(recomputed - e_after) > 1e-9:
            raise AssertionError(
                f"incremental energy {e_after} disagrees with recomputed {recomputed}"
            )
        if e_after >= e_before:
            raise AssertionError("applied operation did not decrease the energy")
        if on_apply is not None:
            on_apply("split" if len(best_key) == 1 else "merge", e_before, e_after)
    return replace(config, primitives=list(live.values()))


def _refit_candidate(config: Configuration, prims: list[Primitive]):
    """Split one primitive or merge two: (new primitives, distance sums) or None."""
    if len(prims) == 1:
        new = _split_primitive(config, prims[0])
    else:
        merged = _merge_primitives(config, *prims)
        new = None if merged is None else (merged,)
    if new is None:
        return None
    return new, [_dist_sum(config.points, p) for p in new]


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


def part_level_error(config: Configuration,
                     surface_dist: NDArray[np.float64]) -> tuple[float, float]:
    """Average and maximum patch-to-CAD distance over all primitives."""
    if not config.primitives:
        raise ValueError("empty configuration")
    dists = patch_distances(config, surface_dist)
    return float(dists.mean()), float(dists.max())
