"""Coarse-to-fine rigid alignment of a scanned cloud to the CAD frame.

Coarse alignment matches centroids and principal axes, disambiguating axis
signs by nearest-neighbor cost; the fine stage is trimmed point-to-point ICP
with a closed-form SVD pose update.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import PointCloud, Points, RigidTransform, strided_indices


class NoCorrespondencesError(RuntimeError):
    """Every candidate correspondence was rejected by the trim rule."""


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    rmse: float
    iterations: int
    converged: bool


def kabsch(source: Points, target: Points) -> RigidTransform:
    """Least-squares rigid motion mapping paired source points onto target."""
    if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 3:
        raise ValueError("paired point arrays must both have shape (N, 3)")
    cs = source.mean(axis=0)
    ct = target.mean(axis=0)
    h = (source - cs).T @ (target - ct)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(r, ct - r @ cs)


def _principal_axes(points: Points):
    centroid = points.mean(axis=0)
    cov = np.cov((points - centroid).T)
    evals, evecs = np.linalg.eigh(cov)
    # Descending order; enforce a proper (det=+1) frame.
    axes = evecs[:, ::-1]
    if np.linalg.det(axes) < 0:
        axes = axes.copy()
        axes[:, 2] = -axes[:, 2]
    return centroid, axes, evals[::-1]


_SIGN_COMBOS = (
    np.diag([1.0, 1.0, 1.0]),
    np.diag([1.0, -1.0, -1.0]),
    np.diag([-1.0, 1.0, -1.0]),
    np.diag([-1.0, -1.0, 1.0]),
)


def _axis_rotation(axis: int, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    i, j = [(1, 2), (2, 0), (0, 1)][axis]
    m = np.eye(3)
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -s
    m[j, i] = s
    return m


def coarse_candidates(source: PointCloud, target: PointCloud,
                      count: int = 3) -> list[RigidTransform]:
    """The best few coarse alignments, ranked by nearest-neighbor cost.

    Centroids and principal axes are matched under the four proper axis
    sign assignments, plus in-plane spins where near-equal eigenvalues leave
    the frame free. Near-symmetric parts can fool the coarse cost (a flipped
    pose of a plate scores almost identically when the scan misses one
    face), so ``register`` runs the fine stage from each candidate.
    A rank-deficient covariance warns and yields the centroid translation.
    """
    ps, pt = source.points, target.points
    cs, axes_s, evals_s = _principal_axes(ps)
    ct, axes_t, evals_t = _principal_axes(pt)
    scale = max(evals_s[0], evals_t[0], np.finfo(float).tiny)
    if len(ps) < 4 or len(pt) < 4 or min(evals_s[2], evals_t[2]) < 1e-12 * scale:
        warnings.warn(
            "degenerate covariance in coarse registration; "
            "falling back to centroid translation",
            stacklevel=2,
        )
        return [RigidTransform(np.eye(3), ct - cs)]
    ranked = _ranked_candidates(ps, pt, cs, ct, axes_s, axes_t, evals_s, evals_t)
    # Keep rotations that genuinely differ from better-ranked ones.
    distinct: list[RigidTransform] = []
    for cand in ranked:
        if all(_rotation_gap(cand.rotation, kept.rotation) > np.deg2rad(10.0)
               for kept in distinct):
            distinct.append(cand)
        if len(distinct) >= count:
            break
    return distinct


def _rotation_gap(r1: np.ndarray, r2: np.ndarray) -> float:
    c = (np.trace(r1 @ r2.T) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def _capped_cost(tree: cKDTree, points: Points) -> float:
    """Mean nearest-neighbor distance to the tree's points, each distance
    capped at 5% of their bounding-box diagonal so hopeless poses saturate
    instead of paying for exact lookups far from the target."""
    cap = max(0.05 * float(np.linalg.norm(tree.maxes - tree.mins)), 1e-9)
    d, _ = tree.query(points, distance_upper_bound=cap)
    return float(np.minimum(d, cap).mean())


def _ranked_candidates(ps, pt, cs, ct, axes_s, axes_t, evals_s, evals_t):
    spins: list[np.ndarray] = [np.eye(3)]
    for axis, (a, b) in ((0, (1, 2)), (1, (0, 2)), (2, (0, 1))):
        lo = min(evals_s[b], evals_t[b])
        hi = max(evals_s[a], evals_t[a]) or np.finfo(float).tiny
        if lo / hi > 0.75:
            # Small distinctive features (hole rims) give the fine stage a
            # narrow pull-in range, so the free angle is sampled densely.
            spins.extend(_axis_rotation(axis, np.deg2rad(deg))
                         for deg in np.arange(2.0, 360.0, 2.0))

    # Score candidates on an evenly strided subsample for speed; choosing
    # among rigid candidates does not need every point.
    stride = max(1, len(ps) // 2000)
    probe = ps[::stride]
    tree = cKDTree(pt)
    scored: list[tuple[float, int, RigidTransform]] = []
    for si, signs in enumerate(_SIGN_COMBOS):
        for pi, spin in enumerate(spins):
            # The spin acts inside the target's eigenframe, whose axes are
            # sorted by descending eigenvalue as indexed above.
            r = axes_t @ spin @ signs @ axes_s.T
            candidate = RigidTransform(r, ct - r @ cs)
            cost = _capped_cost(tree, candidate.apply(probe))
            scored.append((cost, si * len(spins) + pi, candidate))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [item[2] for item in scored]


def icp_refine(
    source: PointCloud,
    target: PointCloud,
    init: RigidTransform | None = None,
    max_iter: int = 100,
    tol: float = 1e-6,
    target_tree: cKDTree | None = None,
) -> RegistrationResult:
    """Trimmed point-to-point ICP starting from ``init``.

    Correspondence pairs farther than 3x the median pair distance are
    rejected each iteration. The reported RMSE sequence is non-increasing:
    a step that would raise it is rolled back and iteration stops. A
    prebuilt ``target_tree`` may be shared across calls.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    src = source.points
    tree = cKDTree(target.points) if target_tree is None else target_tree
    transform = RigidTransform.identity() if init is None else init

    prev_rmse = np.inf
    prev_transform = transform
    rmse = np.inf
    iterations = 0
    converged = False
    span = target.points.max(axis=0) - target.points.min(axis=0)
    bound = max(0.5 * float(np.linalg.norm(span)), 1e-9)
    n_target = len(target.points)
    for _ in range(max_iter):
        iterations += 1
        moved = transform.apply(src)
        # Pairs beyond twice the trim threshold can never survive; bounding
        # the search keeps far-from-convergence queries cheap.
        d, idx = tree.query(moved, distance_upper_bound=bound)
        valid = idx < n_target
        if valid.sum() < 3:
            raise NoCorrespondencesError("no correspondences")
        med = float(np.median(d[valid]))
        keep = valid & (d <= 3.0 * med)
        bound = max(6.0 * med, 1e-12)
        if keep.sum() < 3:
            raise NoCorrespondencesError("no correspondences")
        kept = d[keep]
        rmse = float(np.sqrt(np.mean(kept * kept)))
        if rmse > prev_rmse:
            transform = prev_transform
            rmse = prev_rmse
            iterations -= 1
            converged = True
            break
        if rmse < 1e-12 or prev_rmse - rmse < tol:
            converged = True
            break
        prev_rmse = rmse
        prev_transform = transform
        step = kabsch(moved[keep], target.points[idx[keep]])
        transform = step.compose(transform)
    return RegistrationResult(transform, rmse, iterations, converged)


def registration_error(registered: PointCloud, cad_samples: PointCloud,
                       target_tree: cKDTree | None = None) -> float:
    """Mean nearest-neighbor distance from the registered scan to the CAD samples."""
    tree = cKDTree(cad_samples.points) if target_tree is None else target_tree
    d, _ = tree.query(registered.points)
    return float(d.mean())


def register(source: PointCloud, target: PointCloud, subsample: int = 30000,
             max_iter: int = 100, tol: float = 1e-6,
             ) -> tuple[RegistrationResult, PointCloud, float]:
    """Coarse-to-fine registration of ``source`` onto the ``target`` samples.

    ICP runs on at most ``subsample`` evenly strided source points from each
    coarse candidate. Returns the winning result, the whole source moved by
    it, and its ``registration_error``.
    """
    icp_source = source.select(strided_indices(len(source), subsample))
    tree = cKDTree(target.points)
    # Partial scans of near-symmetric parts can tie the coarse cost for very
    # different poses, and the trimmed ICP RMSE is equally blind (the trim
    # rejects exactly the tell-tale mismatched feature points), so completed
    # candidates are compared by untrimmed mean NN distance.
    best = None
    best_cost = np.inf
    for candidate in coarse_candidates(source, target, count=3):
        attempt = icp_refine(icp_source, target, init=candidate, max_iter=max_iter,
                             tol=tol, target_tree=tree)
        cost = _capped_cost(tree, attempt.transform.apply(icp_source.points))
        if best is None or cost < best_cost:
            best = attempt
            best_cost = cost
    registered = source.transformed(best.transform)
    return best, registered, registration_error(registered, target, target_tree=tree)
