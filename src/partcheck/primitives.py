"""Part-level analysis: analytic primitive fitting, curvature-driven region
growing, and energy-guided split/merge refinement of the segmentation.

A configuration of primitives is scored by a weighted energy with three
terms: fidelity (mean inlier-to-surface distance), simplicity (primitive
count relative to the maximum supportable count) and completeness (fraction
of points left unassigned). Refinement applies the split or merge operation
with the largest energy decrease until no operation helps.
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

from .config import PipelineConfig
from .geometry import PointCloud, Points, Vec3, as_points, canonical_sign, strided_indices, unit


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


def _normal_moments(normals: Points | None) -> NDArray[np.float64]:
    """Second moment of the unoriented normals; the cylinder and cone fits
    read their axis from it."""
    if normals is None:
        raise FitError("cylinder and cone fits need point normals")
    return normals.T @ normals / len(normals)


def _fit_cylinder(pts: Points, normals: Points | None, init: Cylinder | None = None):
    extent = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    centroid = pts.mean(axis=0)
    if init is None:
        # Cylinder surface normals are orthogonal to the axis, so the axis is
        # the direction in which the normals' second moment vanishes.
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

    _, evecs = np.linalg.eigh(_normal_moments(normals))
    # The axis direction is ambiguous for steep cones; try each moment
    # eigenvector and keep the best converged fit.
    best = None
    last_err: FitError | None = None
    for col in range(3):
        try:
            shape, rms = _fit_cone_once(pts, normals, unit(evecs[:, col]))
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


# ---------------------------------------------------------------------------
# Configurations and the segmentation energy
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Configuration:
    """A set of primitives with disjoint inlier index sets over one cloud.

    ``tunables`` is the record the set was grown under: ``energy`` reads its
    weights, and ``split`` and ``merge`` its inlier band. ``min_points`` is
    the least primitive size, resolved from ``tunables.min_points``.
    """

    points: Points
    primitives: list[Primitive]
    min_points: int
    tunables: PipelineConfig = PipelineConfig()
    normals: Points | None = None

    def __post_init__(self):
        self.points = as_points(self.points)
        if self.normals is not None:
            self.normals = as_points(self.normals)
        if self.min_points < 1:
            raise ValueError("min_points must be >= 1")
        n = len(self.points)
        all_inliers = np.concatenate([p.inliers for p in self.primitives]) \
            if self.primitives else np.empty(0, dtype=np.int64)
        if len(all_inliers) and (all_inliers.min() < 0 or all_inliers.max() >= n):
            raise ValueError("inlier index out of range")
        if len(all_inliers) and np.bincount(all_inliers).max() > 1:
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
    dist_sum = sum(float(p.shape.distance(config.points[p.inliers]).sum())
                   for p in config.primitives)
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
    """Coarse segmentation by curvature-seeded region growing.

    Seeds are visited in ascending curvature order; of each point's
    ``region_k`` neighbors, one joins when its normal is within
    ``region_angle_deg`` of the point's and its curvature is below
    ``region_curv_thresh``. Each region is fitted with whichever primitive
    kind explains it best, trying plane, sphere and cylinder first and the
    cone only when none of them fits the region to within ``inlier_eps / 4``
    RMS (see ``_best_kind_fit``). All values come from ``config``; a
    ``min_points`` of 0 there means max(30, n / 500).
    """
    if cloud.normals is None or cloud.curvatures is None:
        raise ValueError("region_grow needs normals and curvatures")
    pts = cloud.points
    n = len(pts)
    min_points = config.min_points or max(30, n // 500)
    _, idx = cKDTree(pts).query(pts, k=min(config.region_k, n - 1) + 1)
    normals = cloud.normals
    curv = cloud.curvatures
    cos_thresh = np.cos(np.deg2rad(config.region_angle_deg))
    curv_thresh = config.region_curv_thresh

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

    kinds = tuple(PrimitiveKind)
    fitted = (_band_fit(pts, normals, members, config.inlier_eps, min_points, kinds)
              for members in regions)
    return Configuration(
        points=pts,
        primitives=[p for p in fitted if p is not None],
        min_points=min_points,
        tunables=config,
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


def _best_kind_fit(pts: Points, normals: Points | None, inlier_eps: float,
                   kinds: tuple[PrimitiveKind, ...], init: Shape | None = None):
    """Fit each of ``kinds`` and keep the lowest geometric RMS, with a 5% plane
    edge; returns ``(shape, distance of every point)`` or None if none fits.

    ``kinds`` are tried in declared order (plane, sphere, cylinder, cone),
    whatever order they come in. The cone, the costliest fit, is tried only
    when no earlier kind succeeds or the best leaves an RMS above
    ``inlier_eps / 4`` (Schnabel, Wahl & Klein, "Efficient RANSAC for
    Point-Cloud Shape Detection", CGF 2007: the cheapest adequate kind). So a
    cone shallow enough for a cylinder to fit within ``inlier_eps / 4`` is
    labelled a cylinder: over a length l, a half-angle below about
    ``0.87 * inlier_eps / l`` rad, against the cone fit's own lower bound of
    0.01 rad. If the scan's noise exceeds ``inlier_eps / 4``, the cone is
    always tried. ``init`` warm-starts the fit of its own kind. ``normals``
    may carry either sign at each point: the cylinder and cone fits read them
    only up to sign.
    """
    fit_pts, fit_normals = _fit_subset(pts, normals)
    fits: dict[PrimitiveKind, tuple[Shape, NDArray[np.float64]]] = {}
    rms: dict[PrimitiveKind, float] = {}
    adequate = _ADEQUATE_RMS_FRACTION * inlier_eps
    for kind in PrimitiveKind:  # declared plane, sphere, cylinder, cone
        if kind not in kinds or len(fit_pts) < MIN_SAMPLE[kind]:
            continue
        if kind is PrimitiveKind.CONE and rms and min(rms.values()) <= adequate:
            break
        try:
            shape, _ = _fit_shape(kind, fit_pts, fit_normals, init=init)
        except FitError:
            continue
        fits[kind] = (shape, shape.distance(pts))
        rms[kind] = _rms(fits[kind][1])
    if not fits:
        return None
    best = min(rms, key=rms.get)
    if PrimitiveKind.PLANE in rms and rms[PrimitiveKind.PLANE] <= 1.05 * rms[best]:
        best = PrimitiveKind.PLANE
    return fits[best]


def _band_fit(points: Points, normals: Points | None, indices: NDArray[np.int64],
              inlier_eps: float, min_points: int, kinds: tuple[PrimitiveKind, ...],
              init: Shape | None = None) -> Primitive | None:
    """Fit the best of ``kinds`` to ``points[indices]`` and keep the points
    within ``inlier_eps`` of it; None if fewer than ``min_points`` remain."""
    if len(indices) < min_points:
        return None
    fitted = _best_kind_fit(points[indices], None if normals is None else normals[indices],
                            inlier_eps, kinds, init)
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
    (default ``2 * inlier_eps``, the gap ``refine``'s merges use)."""
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

    Each side is refitted with the primitive's kind, warm-started from its
    shape. The original configuration is returned unchanged with
    ``applied=False`` when the primitive is too small or either side loses
    its support.
    """
    prim = config.primitives[prim_index]
    if len(prim.inliers) < 2 * config.min_points:
        return config, False
    pts = config.points[prim.inliers]
    centered = pts - pts.mean(axis=0)
    _, evecs = np.linalg.eigh(centered.T @ centered)
    along = centered @ evecs[:, 2]
    # Approximate farthest pair: the extremes along the principal direction.
    pa = pts[np.argmin(along)]
    pb = pts[np.argmax(along)]
    to_a = np.linalg.norm(pts - pa, axis=1) <= np.linalg.norm(pts - pb, axis=1)
    # The warm start is for speed: refitted cold, halves and merges give the
    # same reports on the benchmark's plate, bracket and collage scenes, but
    # collage's refine takes about 40 times as long (1.3-1.6 s against
    # 0.03-0.04 s, unscaled, on a shared 2-core machine).
    halves = [_band_fit(config.points, config.normals, group, config.tunables.inlier_eps,
                        config.min_points, (prim.kind,), prim.shape)
              for group in (prim.inliers[to_a], prim.inliers[~to_a])]
    if any(half is None for half in halves):
        return config, False
    prims = list(config.primitives)
    prims[prim_index:prim_index + 1] = halves
    return replace(config, primitives=prims), True


def merge(config: Configuration, i: int, j: int) -> tuple[Configuration, bool]:
    """Fuse two same-kind adjacent primitives; returns (config, applied)."""
    if i == j:
        raise ValueError("cannot merge a primitive with itself")
    a, b = config.primitives[i], config.primitives[j]
    if a.kind != b.kind or not _adjacent(config, a, b):
        return config, False
    # Warm-started from the larger side's shape, for speed (see ``split``).
    init = a.shape if len(a.inliers) >= len(b.inliers) else b.shape
    merged = _band_fit(config.points, config.normals, np.concatenate([a.inliers, b.inliers]),
                       config.tunables.inlier_eps, config.min_points, (a.kind,), init)
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

    Each round tries ``split`` on every primitive, then ``merge`` on every
    pair i < j, scores each applied result with ``energy``, and keeps the
    lowest (ties go to the first in that order). A split puts its two halves
    in place of the primitive; a merge puts the merged primitive at the lower
    index. ``on_apply(op, e_before, e_after)`` sees every applied operation.
    When nothing lowers the energy the input object itself is returned.
    Every applied operation strictly decreases the energy, which bounds the
    run; a cap of ``20 * n + 200`` operations on n input primitives is a
    hard safety net.
    """
    cap = 20 * max(1, len(config.primitives)) + 200
    current = energy(config).total
    for applied in itertools.count():
        n = len(config.primitives)
        tried = [("split", split(config, i)) for i in range(n)]
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
