"""Feature-level analysis: curvature-weighted tensor voting for edge points
and a hypothesize-and-clusterize scheme that fits multiple circles to them.

Edge detection accumulates, per point, neighbor-weighted projector tensors
whose eigenvalue ratio flags curvature transitions. The feature level runs
after the part level and reads its fitted shapes. Edge points on a straight
crease between two fitted planes cannot lie on a circle and are dropped
(``off_crease_mask``). Each fitted cylinder that meets a plane normal to its
axis predicts that rim exactly (``part_level_rims``), and the rims come
first: each one the edge points support claims its edge band. MCFS fits the
edge points left over. Its circle candidates are generated from random
3-point samples and compressed by mean shift. A greedy set cover over the
modes' inliers clusters the points: each mode it takes seeds a fit with
iterative outlier rejection, and plain least-squares refits of that fit's
support among the unclaimed points center it on the rim. A second run of the
same cover, over the fitted circles, finally prunes them.

The samples are drawn as arrays of triples, so the random stream depends on
the seed alone; their circumcircles are the rows ``[cx, cy, cz, nx, ny, nz,
r]`` (center, unit normal, radius) of one array, and only the mean-shift
representatives become ``Circle3D``. Modes that meet reach identical
coordinates, so each mean-shift step queries each distinct mode once, and
the converged modes are grouped over their distinct values alone. A
mean-shift step reads the balls of each block of nearby modes as one array
of (query, data) index pairs. Grouping finds the distinct modes that have a
neighbour with one nearest-neighbour query and reads only their balls. Both
read balls in blocks of rows, which bounds the memory they take.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import least_squares, linear_sum_assignment
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree

from . import geometry
from .config import PipelineConfig
from .geometry import (SYM3_ENTRIES, PointCloud, Points, Vec3, as_points, canonical_sign,
                       components, distinct_rows, strided_indices, unit)
from .primitives import (Configuration, FitError, PrimitiveKind, _adjacent, _ortho_basis,
                         _pratt_circle_2d, _unit_rows)

# Nearest neighbors a hypothesis draws its second and third point from.
NEIGHBOR_POOL = 768


# ---------------------------------------------------------------------------
# Tensor voting
# ---------------------------------------------------------------------------

# Voting pairs per block of the accumulation. A block's temporaries take
# about 110 bytes a pair, under 2 MB beside the pair list and the sums,
# whatever the scan's size.
_VOTE_BLOCK = 16_384


def tensor_vote(cloud: PointCloud, radius: float, sigma: float) -> NDArray[np.float64]:
    """Accumulate curvature-difference weighted projector votes per point.

    Each neighbor j of point i contributes
    ``exp(-|q|/sigma^2) * |k_i - k_j| * (I - q q^T / |q|^2)`` with
    q the offset vector between the two points. The projector is symmetric in
    q, so each unordered pair of points within ``radius`` casts one vote,
    computed once and credited to both of its points. The pair list is read
    in blocks of ``_VOTE_BLOCK`` pairs, each block row-major, so every
    point's sum runs over its pairs in pair order, whatever the block size.
    Each pair's offset and its square length are formed on coordinate
    columns (``qx*qx + qy*qy + qz*qz``), and coincident pairs are dropped.
    Returns the (6, n) sums in ``geometry.SYM3_ENTRIES`` order, the entries
    of n symmetric positive semi-definite tensors.

    ``sigma`` enters as ``exp(-|q| / sigma^2)``, a length over a squared
    length, so it is the one length parameter that does not scale with the
    part: a part drawn 10 times larger with every other length scaled keeps
    its edge set only with ``sigma`` scaled by sqrt(10).
    """
    if cloud.curvatures is None:
        raise ValueError("tensor voting needs per-point curvatures")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    curv = cloud.curvatures
    columns = cloud.points.T.copy()
    pairs = cKDTree(cloud.points).query_pairs(radius, output_type="ndarray")
    sums = np.zeros((len(SYM3_ENTRIES), len(cloud.points)))
    for lo in range(0, len(pairs), _VOTE_BLOCK):
        block = pairs[lo:lo + _VOTE_BLOCK]
        pi, pj = block.T
        q = [column[pi] - column[pj] for column in columns]
        q2 = q[0] * q[0] + q[1] * q[1] + q[2] * q[2]
        ok = q2 > 1e-24
        if not ok.all():
            block, q2 = block[ok], q2[ok]
            pi, pj = block.T
            q = [qa[ok] for qa in q]
        w = np.exp(-np.sqrt(q2) / (sigma * sigma)) * np.abs(curv[pi] - curv[pj])
        f = w / q2
        at = block.ravel()
        for row, (a, b) in zip(sums, SYM3_ENTRIES):
            value = -f * q[a] * q[b]
            if a == b:
                value += w
            np.add.at(row, at, np.repeat(value, 2))
    return sums


def edge_scores(sums: NDArray[np.float64]) -> NDArray[np.float64]:
    """Per-point (lam2 + lam3) / lam1 ratio of the (6, n) ``tensor_vote``
    sums, lam1 the largest eigenvalue; NaN where the tensor vanishes.

    The eigenvalues are clamped at 0, since round-off can push a PSD
    tensor's smallest one below. They come from ``geometry.sym3_eigvalsh``
    in closed form, on ``geometry._ROW_BLOCK`` columns of the sums at a
    time, with no row falling back to LAPACK: the score only needs lam1 and
    the trace. lam1 holds to about 1e-14 relative where it stands apart from
    lam2; where the two agree to within about 1e-4, it holds to about 1e-8,
    and so does the score. On the benchmark scenes the scores agree with
    LAPACK's to 6e-14 relative and the edge sets are equal.
    """
    n = sums.shape[1]
    out = np.full(n, np.nan)
    for lo in range(0, n, geometry._ROW_BLOCK):
        lam = geometry.sym3_eigvalsh(sums[:, lo:lo + geometry._ROW_BLOCK])
        np.clip(lam, 0.0, None, out=lam)
        ok = lam[:, 2] > 0.0
        out[lo:lo + geometry._ROW_BLOCK][ok] = (lam[ok, 1] + lam[ok, 0]) / lam[ok, 2]
    return out


def detect_edge_points(cloud: PointCloud, radius: float,
                       config: PipelineConfig = PipelineConfig()) -> NDArray[np.int64]:
    """Indices of points whose edge score is defined and at least
    ``config.edge_threshold``, voting over ``radius`` with
    ``config.tensor_sigma``."""
    scores = edge_scores(tensor_vote(cloud, radius, config.tensor_sigma))
    with np.errstate(invalid="ignore"):
        mask = ~np.isnan(scores) & (scores >= config.edge_threshold)
    return np.nonzero(mask)[0].astype(np.int64)


def off_crease_mask(points, config: Configuration, radius: float,
                    min_angle: float) -> NDArray[np.bool_]:
    """Mask of the points that lie on no straight crease between two planes.

    A crease is the intersection line of two fitted planes of ``config``
    that are adjacent (inliers within ``radius`` of each other) and whose
    normals differ by more than ``min_angle`` radians; region growing joins
    shallower pairs. The line is clipped to the overlap of the two inlier
    sets' extents along it, widened by ``radius`` at both ends, and every
    point within ``radius`` of that segment is masked out. A straight crease
    cannot carry a circle. A plane meeting a cylinder or cone makes a
    circular rim, so only plane pairs count.
    """
    pts = as_points(points)
    keep = np.ones(len(pts), dtype=bool)
    planes = [p for p in config.primitives if p.kind is PrimitiveKind.PLANE]
    for a, b in itertools.combinations(planes, 2):
        na, nb = a.shape.normal, b.shape.normal
        if abs(float(na @ nb)) >= np.cos(min_angle) or not _adjacent(config, a, b, radius):
            continue
        direction = unit(np.cross(na, nb))
        origin = np.linalg.solve(np.stack([na, nb, direction]),
                                 [a.shape.offset, b.shape.offset, 0.0])
        ta = (config.points[a.inliers] - origin) @ direction
        tb = (config.points[b.inliers] - origin) @ direction
        # Adjacency puts an inlier of each within ``radius`` of the other,
        # so the widened overlap is never empty.
        lo = max(ta.min(), tb.min()) - radius
        hi = min(ta.max(), tb.max()) + radius
        rel = pts - origin
        along = np.clip(rel @ direction, lo, hi)
        keep &= np.linalg.norm(rel - along[:, None] * direction, axis=1) > radius
    return keep


# ---------------------------------------------------------------------------
# Circles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Circle3D:
    """Circle in space: center, radius, and a sign-canonicalized unit normal."""

    center: Vec3
    radius: float
    normal: Vec3

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("circle radius must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64).reshape(3))
        object.__setattr__(self, "normal", canonical_sign(unit(self.normal)))

    def distance(self, points) -> NDArray[np.float64]:
        u = as_points(points) - self.center
        h = u @ self.normal
        g = np.abs(np.linalg.norm(u - h[:, None] * self.normal, axis=1) - self.radius)
        return np.sqrt(h * h + g * g)

    def ring(self, segments: int = 64) -> tuple[Points, NDArray[np.int64]]:
        """Polyline approximation for visualization exports."""
        u, v = _ortho_basis(self.normal)
        t = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
        pts = self.center + self.radius * (np.outer(np.cos(t), u) + np.outer(np.sin(t), v))
        edges = np.column_stack([np.arange(segments), (np.arange(segments) + 1) % segments])
        return pts, edges.astype(np.int64)


@dataclass(eq=False)
class CircleLabeling:
    """Per-point circle assignment (-1 = outlier) plus the fitted circles."""

    labels: NDArray[np.int64]
    circles: list[Circle3D] = field(default_factory=list)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if len(self.labels) and self.labels.max(initial=-1) >= len(self.circles):
            raise ValueError("label references a missing circle")


def _circumcircles(a: Points, b: Points, c: Points):
    """Circumcircles of the row-wise triples ``(a[i], b[i], c[i])``.

    Returns ``(centers, radii, normals, collinear)``. The normals are the raw
    cross products ``(b - a) x (c - a)``; ``Circle3D`` normalizes them. A row
    is collinear when its triangle's area is at most ``1e-9`` times its
    longest side squared; its center and radius are then meaningless.
    """
    ab = b - a
    ac = c - a
    cr = np.cross(ab, ac)
    n2, ab2, ac2, bc2 = (np.einsum("ij,ij->i", v, v) for v in (cr, ab, ac, c - b))
    collinear = np.sqrt(n2) / 2.0 <= 1e-9 * np.maximum(np.maximum(ab2, ac2), bc2)
    with np.errstate(divide="ignore", invalid="ignore"):
        centers = a + (ac2[:, None] * np.cross(cr, ab)
                       + ab2[:, None] * np.cross(ac, cr)) / (2.0 * n2[:, None])
    radii = np.linalg.norm(centers - a, axis=1)
    return centers, radii, cr, collinear


def generate_hypotheses(edge_points, count: int, seed: int) -> NDArray[np.float64]:
    """Draw ``count`` random non-collinear triples and their circumcircles.

    Returns a ``(count, 7)`` array of rows ``[cx, cy, cz, nx, ny, nz, r]``
    whose normals are unit and signed by ``canonical_sign``, as in ``Circle3D``.

    Sampling is locality-biased: the first point is uniform, its two
    companions come from a randomly sized prefix of its nearest neighbors.
    Points of one structure are spatial neighbors, so this raises the share
    of all-one-circle triples by orders of magnitude over uniform triples
    while still reaching every scale up to ``NEIGHBOR_POOL`` neighbors (all
    ``n - 1`` others on a smaller set).

    The triples are drawn as arrays, one block at a time, so the random
    stream is fixed by the seed alone. Each block holds as many triples as
    circles are still missing; a triple that repeats an index or is
    collinear is dropped and replaced by a further block. After ``100 *
    count`` triples the set counts as degenerate.
    """
    pts = as_points(edge_points)
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 edge points")
    centered = pts - pts.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[1] <= 1e-12 * max(svals[0], np.finfo(float).tiny):
        raise ValueError("degenerate edge set")

    rng = np.random.default_rng(seed)
    pool = min(NEIGHBOR_POOL, n - 1)
    _, neighbors = cKDTree(pts).query(pts, k=pool + 1)
    log_lo, log_hi = np.log(16.0), np.log(max(pool, 17))

    out = np.empty((0, 7))
    attempts = 0
    limit = 100 * max(count, 1)
    while len(out) < count:
        m = min(count - len(out), limit - attempts)
        if m == 0:
            raise ValueError("degenerate edge set")
        attempts += m
        i = rng.integers(n, size=m)
        prefix = np.exp(rng.uniform(log_lo, log_hi, size=m)).astype(np.int64)
        prefix = np.clip(prefix, 2, pool)
        # A uniform pair of distinct prefix positions: b skips over a.
        a = rng.integers(prefix)
        b = rng.integers(prefix - 1)
        b += b >= a
        j, k = neighbors[i, 1 + a], neighbors[i, 1 + b]
        # Duplicate points can put another index than i in column 0, so a
        # companion can be i itself.
        distinct = (i != j) & (i != k) & (j != k)
        centers, radii, normals, collinear = _circumcircles(
            pts[i[distinct]], pts[j[distinct]], pts[k[distinct]])
        keep = ~collinear
        normals = normals[keep] / np.linalg.norm(normals[keep], axis=1)[:, None]
        rows = np.column_stack([centers[keep], canonical_sign(normals), radii[keep]])
        out = np.vstack([out, rows])
    return out


# ---------------------------------------------------------------------------
# Hypothesis reduction by mean shift
# ---------------------------------------------------------------------------

# Ball queries run this many query rows at a time: the hypotheses of one rim
# converge together, so the balls of a whole set of modes can hold millions
# of pairs.
_BALL_BLOCK = 256


def _group_modes(modes: NDArray[np.float64], radius: float) -> NDArray[np.int64]:
    """Group id per mode, numbered in order of each group's first mode.

    Greedy in index order: each mode not yet assigned opens a group and takes
    every unassigned mode within ``radius`` of it. Equal modes always share a
    group, so the pass runs over the distinct modes alone.

    A mode with no neighbour within ``radius`` opens its own group, so only
    the modes that have one are visited one by one, their balls read in
    blocks of rows; then each mode's group is numbered by counting the
    groups opened before its own.
    """
    first, inverse = distinct_rows(modes)
    distinct = modes[first]
    tree = cKDTree(distinct)
    # The nearest other mode of each; the query's bound is strict, and the
    # balls below are exact, so any bound above ``radius`` serves.
    nearest, _ = tree.query(distinct, k=2, distance_upper_bound=2.0 * radius)
    linked = np.flatnonzero(np.isfinite(nearest[:, 1]))
    # The mode that opened each mode's group.
    owner = np.arange(len(distinct))
    for lo in range(0, len(linked), _BALL_BLOCK):
        rows = linked[lo:lo + _BALL_BLOCK]
        for i, ball in zip(rows, tree.query_ball_point(distinct[rows], radius)):
            # Every earlier mode is settled: an unassigned one in i's ball
            # would have opened a group and taken i.
            if owner[i] == i:
                ball = np.asarray(ball, dtype=np.int64)
                ball = ball[owner[ball] == ball]
                owner[ball] = i
    opens = owner == np.arange(len(distinct))
    return (np.cumsum(opens) - 1)[owner][inverse]


def _ball_means(tree: cKDTree, data: NDArray[np.float64], queries: NDArray[np.float64],
                radius: float) -> NDArray[np.float64]:
    """Mean of the ``data`` rows (indexed by ``tree``) within ``radius`` of
    each query row, or the query row itself where none is. Each ball is
    summed in ascending data index.

    Each block of queries reads its balls as one array of (query, data)
    pairs from a two-tree search. The blocks follow the leaf order of a tree
    over the queries, so each holds nearby queries and its search stays
    short.
    """
    out = queries.copy()
    order = cKDTree(queries).indices
    for lo in range(0, len(queries), _BALL_BLOCK):
        rows = order[lo:lo + _BALL_BLOCK]
        pairs = cKDTree(queries[rows]).sparse_distance_matrix(tree, radius, output_type="ndarray")
        if len(pairs):
            pairs = pairs[np.argsort(pairs["i"] * tree.n + pairs["j"])]
            starts = np.flatnonzero(np.diff(pairs["i"], prepend=-1))
            counts = np.diff(starts, append=len(pairs))
            sums = np.add.reduceat(data[pairs["j"]], starts, axis=0)
            out[rows[pairs["i"][starts]]] = sums / counts[:, None]
    return out


def reduce_hypotheses(
    hyps: NDArray[np.float64],
    bandwidth: float,
    *,
    scale: float,
    max_modes: int,
) -> list[Circle3D]:
    """Mean shift with a flat kernel over the 7-d circle parameter space.

    ``hyps`` holds ``generate_hypotheses`` rows ``[cx, cy, cz, nx, ny, nz, r]``;
    center and radius are divided by ``scale`` (``mcfs`` passes the diagonal
    of the edge points' bounding box) so the bandwidth is unitless. Returns
    the circle of the hypothesis nearest to each of the ``max_modes`` most
    populated modes.
    """
    if len(hyps) == 0:
        raise ValueError("no hypotheses to reduce")
    data = hyps / [scale, scale, scale, 1.0, 1.0, 1.0, scale]
    tree = cKDTree(data)
    modes = data.copy()
    moving = np.ones(len(modes), dtype=bool)
    for _ in range(100):
        if not moving.any():
            break
        idx = np.nonzero(moving)[0]
        # Modes that have met sit at identical coordinates: step each once.
        first, inverse = distinct_rows(modes[idx])
        targets = _ball_means(tree, data, modes[idx[first]], bandwidth)[inverse]
        shift = np.linalg.norm(targets - modes[idx], axis=1)
        modes[idx] = targets
        settled = idx[shift < 1e-2 * bandwidth]
        moving[settled] = False

    # Group converged modes and keep one representative hypothesis each.
    assigned = _group_modes(modes, bandwidth / 2.0)
    populations = np.bincount(assigned)
    order = np.argsort(-populations, kind="stable")[:max_modes]
    out = []
    for gi in order:
        members = np.nonzero(assigned == gi)[0]
        mode_mean = modes[members].mean(axis=0)
        nearest = members[np.argmin(np.linalg.norm(data[members] - mode_mean, axis=1))]
        out.append(Circle3D(hyps[nearest, :3], float(hyps[nearest, 6]), hyps[nearest, 3:6]))
    return out


# ---------------------------------------------------------------------------
# Residuals and the greedy cover
# ---------------------------------------------------------------------------

def residual_matrix(edge_points, hyps: list[Circle3D]) -> NDArray[np.float64]:
    """Point-to-hypothesis distances, one row per point, one column per circle."""
    pts = as_points(edge_points)
    if not hyps:
        raise ValueError("no hypotheses")
    return np.column_stack([h.distance(pts) for h in hyps])


def cluster_labels(
    cover: NDArray[np.bool_],
    min_cluster: int,
    take: Callable[[int, NDArray[np.bool_]], NDArray[np.bool_]] | None = None,
) -> tuple[list[int], NDArray[np.int64]]:
    """Greedy set cover over the columns of a (points, candidates) inlier
    matrix.

    Repeatedly takes the column with the most rows not yet covered, the
    first on ties, while that gain is positive and at least
    ``min_cluster``. The taken column's new rows are labeled with its index
    in take order. The rows then counted as covered are the column's own,
    or with ``take`` the mask ``take(column, new)`` returns for the mask
    ``new`` of its new rows; that mask must hold ``new``. Returns the taken
    columns in order and one label per row (-1 for rows no taken column
    labeled).
    """
    cover = np.asarray(cover, dtype=bool)
    labels = np.full(len(cover), -1, dtype=np.int64)
    covered = np.zeros(len(cover), dtype=bool)
    chosen: list[int] = []
    while cover.shape[1]:
        gains = np.count_nonzero(cover[~covered], axis=0)
        column = int(np.argmax(gains))
        if gains[column] < max(min_cluster, 1):
            break
        new = cover[:, column] & ~covered
        labels[new] = len(chosen)
        chosen.append(column)
        covered |= cover[:, column] if take is None else take(column, new)
    return chosen, labels


# ---------------------------------------------------------------------------
# Circle fitting
# ---------------------------------------------------------------------------

def fit_circle_lsq(points) -> Circle3D:
    """Plane-projected least-squares circle (algebraic seed + geometric polish).

    The polish is MINPACK's Levenberg-Marquardt with the analytic Jacobian
    (``lmder``), whose default cap of 100 * 3 = 300 residual evaluations
    applies; with finite differences it would be 100 * 3 * 4 = 1,200.
    """
    pts = as_points(points)
    if len(pts) < 3:
        raise FitError("need at least 3 points for a circle")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    normal = vt[2]
    u = unit(vt[0])
    v = np.cross(normal, u)
    v = unit(v)
    xy = np.column_stack([centered @ u, centered @ v])
    cx, cy, r = _pratt_circle_2d(xy)

    def residual(p):
        return np.hypot(xy[:, 0] - p[0], xy[:, 1] - p[1]) - p[2]

    def jac(p):
        # Minus the unit vector from the center to each point, and -1.
        return np.column_stack([-_unit_rows(xy - p[:2]), np.full(len(xy), -1.0)])

    if len(pts) > 3:
        result = least_squares(residual, np.array([cx, cy, r]), jac=jac, method="lm")
        cx, cy, r = result.x
    if r <= 0:
        raise FitError("degenerate circle (non-positive radius)")
    center = centroid + cx * u + cy * v
    return Circle3D(center, float(r), normal)


def _parameter_change(a: Circle3D, b: Circle3D) -> float:
    d_center = float(np.linalg.norm(a.center - b.center))
    d_radius = abs(a.radius - b.radius)
    cos_angle = float(np.clip(abs(a.normal @ b.normal), -1.0, 1.0))
    d_angle = float(np.arccos(cos_angle)) * max(a.radius, b.radius)
    return max(d_center, d_radius, d_angle)


_CIRCLE_MAX_ITER = 150


def fit_circle_iterative(
    points,
    config: PipelineConfig = PipelineConfig(),
) -> tuple[Circle3D, NDArray[np.int64]]:
    """Circle fit with iterative outlier rejection.

    Fits on the current inlier set, discards points farther than
    ``config.inlier_eps`` from the circle, and repeats until the parameter
    change drops below ``config.eta`` or ``_CIRCLE_MAX_ITER`` (150) fits are
    made. The inlier set never grows back.
    """
    eps, eta = config.inlier_eps, config.eta
    pts = as_points(points)
    active = np.arange(len(pts), dtype=np.int64)
    previous: Circle3D | None = None
    circle: Circle3D | None = None
    for _ in range(_CIRCLE_MAX_ITER):
        if len(active) < 3:
            raise FitError("circle collapsed (fewer than 3 inliers)")
        circle = fit_circle_lsq(pts[active])
        d = circle.distance(pts[active])
        keep = d <= eps
        if keep.all():
            break
        if previous is not None and _parameter_change(previous, circle) < eta:
            break
        if keep.sum() < 3:
            # A heavily biased fit can push everything outside eps at once;
            # shed only the worst quarter so the iteration keeps its footing.
            order = np.argsort(d, kind="stable")
            keep = np.zeros(len(active), dtype=bool)
            keep[order[:max(3, 3 * len(active) // 4)]] = True
        active = active[keep]
        previous = circle
    assert circle is not None
    inliers = active[circle.distance(pts[active]) <= eps]
    if len(inliers) < 3:
        raise FitError("circle collapsed (fewer than 3 inliers)")
    return circle, inliers


# ---------------------------------------------------------------------------
# Set-cover refinement and the full multi-circle scheme
# ---------------------------------------------------------------------------

def _same_feature(a: Circle3D, b: Circle3D, tol: float) -> bool:
    """Whether the two circles' centers and radii agree within ``tol``, so
    that ``mcfs`` reads them as one hole."""
    return bool(np.linalg.norm(a.center - b.center) <= tol and abs(a.radius - b.radius) <= tol)


def refine_coverage(
    circles: list[Circle3D],
    edge_points,
    config: PipelineConfig = PipelineConfig(),
) -> CircleLabeling:
    """``cluster_labels``' greedy set cover over the fitted circles.

    A circle covers the edge points within ``inlier_eps`` of it, and the
    cover stops at a gain below ``min_cluster``; both values come from
    ``config``. The taken circles are returned in take order, and each point
    is labeled with the first of them that covers it. Duplicate circles
    never reach the cover: ``mcfs`` rejects them when they are fitted.
    """
    pts = as_points(edge_points)
    if not circles:
        return CircleLabeling(np.full(len(pts), -1, dtype=np.int64), [])
    chosen, labels = cluster_labels(residual_matrix(pts, circles) <= config.inlier_eps,
                                    config.min_cluster)
    return CircleLabeling(labels, [circles[c] for c in chosen])


def _settle_circle(seed_points: Points, field_points: Points,
                   config: PipelineConfig) -> Circle3D | None:
    """Fit a circle to the seed set, then let it center itself on the field.

    The seed is often a skewed subset of the structure, so its fit rejects
    outliers. Refitting the fit's support among all field points (within
    ``inlier_eps``) with ``fit_circle_lsq`` slides the support arc onto the
    full rim; at most six such rounds run, until the circle moves less than
    ``eta``, and the circle they end on is returned."""
    try:
        circle, _ = fit_circle_iterative(seed_points, config)
        for _ in range(6):
            support = circle.distance(field_points) <= config.inlier_eps
            if support.sum() < 3:
                break
            updated = fit_circle_lsq(field_points[support])
            done = _parameter_change(updated, circle) < config.eta
            circle = updated
            if done:
                break
    except FitError:
        return None
    return circle


def _leftover_components(points: Points, radius: float, min_size: int):
    """Index arrays of the connected components of the proximity graph with
    at least ``min_size`` points, ordered by their lowest index."""
    n = len(points)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return components(graph, min_size)


# A plane is a cylinder's face when its normal is within this angle of the
# cylinder's axis.
_RIM_PLANE_DEG = 5.0


def part_level_rims(config: Configuration) -> list[Circle3D]:
    """The rim circles the part level predicts, in primitive order.

    For each fitted cylinder and each fitted plane whose normal is within
    ``_RIM_PLANE_DEG`` of the cylinder's axis, the circle centered where the
    axis meets the plane, with the cylinder's radius and the axis as its
    normal. Whether a face really carries the rim is for the edge points to
    say: ``mcfs`` keeps only the rims they support.
    """
    planes = [p.shape for p in config.primitives if p.kind is PrimitiveKind.PLANE]
    cos_min = np.cos(np.deg2rad(_RIM_PLANE_DEG))
    rims = []
    for cylinder in (p.shape for p in config.primitives if p.kind is PrimitiveKind.CYLINDER):
        for plane in planes:
            cos = float(plane.normal @ cylinder.axis)
            if abs(cos) >= cos_min:
                t = (plane.offset - plane.normal @ cylinder.point) / cos
                rims.append(Circle3D(cylinder.point + t * cylinder.axis, cylinder.radius,
                                     cylinder.axis))
    return rims


_MAX_ROUNDS = 16
_MAX_RADIUS_FACTOR = 2.0
_MAX_MODELS = 64
_HYPOTHESES_PER_POINT = 20
_MAX_HYPOTHESES = 5000
_CLUSTER_CAP = 4000
# Accepted circles must carry at least this fraction of the inlier count a
# fully sampled rim of their size would have; rejects sparse apparent circles
# assembled from scattered outliers.
_MIN_ARC_DENSITY = 0.4
# ... and their support must occupy at least this fraction of the angular bins
# around the circle; rejects circles that merely graze a dense arc.
_MIN_ARC_COVERAGE = 0.6
_COVERAGE_BINS = 24


def mcfs(edge_points, config: PipelineConfig = PipelineConfig(),
         rims: Sequence[Circle3D] = ()) -> CircleLabeling:
    """Detect all circles among the edge points.

    The rims the part level predicts (``part_level_rims``) come first, in
    order. An accepted circle claims the points of its edge band, those
    within ``max(inlier_eps, 2 * spacing)`` of it, where spacing is the edge
    points' median spacing. A rim is accepted when the unclaimed points in
    its band pass the density and angular-coverage test that every circle
    passes; tensor voting marks a band that straddles the rim and the bore,
    so few of those points may lie within ``inlier_eps`` of the exact rim.

    MCFS then fits the points the rims leave. Each round runs hypothesis
    generation and mean shift on the still-unclaimed points, and stops once
    a round contributes no new circle. The round's modes go through
    ``cluster_labels``' greedy cover: each mode it takes settles its new
    inliers into a circle on the unclaimed points, and an admitted circle
    claims its band at once; the band's points count as covered, and so do
    a turned-down mode's own inliers. A round draws
    ``_HYPOTHESES_PER_POINT`` hypotheses per unclaimed point, at most
    ``_MAX_HYPOTHESES``, and its cover reads at most ``_CLUSTER_CAP`` of the
    points, picked by ``strided_indices``. Without an accepted rim, round 0
    raises ``ValueError`` on a degenerate point set; with one, a remainder
    too small or degenerate to draw from just ends the rounds. A recovery
    sweep then fits the dense components the rounds left.

    One rule decides when two circles are the same hole: their centers and
    radii agree within ``max(inlier_eps, 3 * spacing)``. An MCFS circle that
    duplicates a circle already admitted, an accepted rim or an earlier
    MCFS circle, is rejected when it is fitted and claims no band. The same
    greedy cover (``refine_coverage``) over the points the rims leave picks
    among the MCFS circles. In the labeling the rims come first, each
    labeling its band points, then the set cover's circles. ``config``
    supplies ``inlier_eps``, ``eta``, ``bandwidth``, ``min_cluster`` and the
    hypotheses' ``seed``.
    """
    pts = as_points(edge_points)
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 edge points")
    diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    max_radius = _MAX_RADIUS_FACTOR * max(diag, np.finfo(float).tiny)
    # Looked up in its module, so that a wrapper installed there sees it.
    spacing = geometry.median_spacing(pts)
    eps = config.inlier_eps
    min_cluster = config.min_cluster

    def sufficient_support(circle: Circle3D, supporters: Points) -> bool:
        count = len(supporters)
        if count < min_cluster:
            return False
        if spacing > 0:
            expected = 2.0 * np.pi * circle.radius / spacing
            if count < _MIN_ARC_DENSITY * expected:
                return False
        u, v = _ortho_basis(circle.normal)
        rel = supporters - circle.center
        angles = np.arctan2(rel @ v, rel @ u)
        bins = ((angles + np.pi) / (2 * np.pi) * _COVERAGE_BINS).astype(int)
        occupied = len(np.unique(np.clip(bins, 0, _COVERAGE_BINS - 1)))
        return occupied >= _MIN_ARC_COVERAGE * _COVERAGE_BINS

    # Points this close to an accepted circle belong to its edge band and are
    # considered explained; pruning the whole band keeps later rounds focused
    # on structures not yet found.
    band = max(eps, 2.0 * spacing)
    # A thick edge band carries circles stacked on one rim, whose cover sets
    # barely overlap although they describe one hole.
    duplicate_tol = max(eps, 3.0 * spacing)
    labels = np.full(n, -1, dtype=np.int64)
    accepted_rims: list[Circle3D] = []
    circles: list[Circle3D] = []

    def accept(seed: Points, field: Points) -> Circle3D | None:
        """Admit the circle settled from ``seed`` on ``field`` to ``circles``
        and return it, if ``field`` supports it and no admitted circle is
        the same hole."""
        circle = _settle_circle(seed, field, config)
        if circle is None or circle.radius > max_radius:
            return None
        if any(_same_feature(circle, other, duplicate_tol)
               for other in itertools.chain(accepted_rims, circles)):
            return None
        if not sufficient_support(circle, field[circle.distance(field) <= eps]):
            return None
        circles.append(circle)
        return circle

    for rim in rims:
        unclaimed = np.flatnonzero(labels < 0)
        in_band = unclaimed[rim.distance(pts[unclaimed]) <= band]
        if sufficient_support(rim, pts[in_band]):
            labels[in_band] = len(accepted_rims)
            accepted_rims.append(rim)

    left = np.flatnonzero(labels < 0)
    remaining = left
    for round_no in range(_MAX_ROUNDS):
        if len(remaining) < max(3, min_cluster):
            break
        subset = pts[remaining]
        count = min(_HYPOTHESES_PER_POINT * len(remaining), _MAX_HYPOTHESES)
        try:
            hyps = generate_hypotheses(subset, count, seed=config.seed + 7919 * round_no)
        except ValueError:
            if round_no == 0 and not accepted_rims:
                raise
            break
        hyps = reduce_hypotheses(hyps, config.bandwidth, scale=max(diag, 1e-12),
                                 max_modes=_MAX_MODELS)

        sample = strided_indices(len(remaining), _CLUSTER_CAP)
        claimed = np.zeros(len(remaining), dtype=bool)

        def take(mode: int, new: NDArray[np.bool_]) -> NDArray[np.bool_]:
            """Settle the mode's new inliers into a circle; an admitted one
            claims its edge band at once, so a weaker mode cannot ride on
            support that a better circle already explains. A turned-down
            mode still covers its own inliers."""
            field = subset[~claimed]
            if len(field) >= min_cluster:
                circle = accept(subset[sample[new]], field)
                if circle is not None:
                    claimed[circle.distance(subset) <= band] = True
            return new | claimed[sample]

        cluster_labels(residual_matrix(subset[sample], hyps) <= eps, min_cluster, take)
        # An accepted circle claims at least its supporters. The earlier
        # rounds' bands are already gone from ``remaining``.
        if not claimed.any():
            break
        remaining = remaining[~claimed]

    # Recovery sweep: a structure the rounds' covers kept missing is
    # still present as a dense leftover component; fit those directly.
    if len(remaining) >= min_cluster:
        field = pts[remaining]
        for component in _leftover_components(field, 2.5 * spacing, min_cluster):
            accept(field[component], field)

    covered = refine_coverage(circles, pts[left], config)
    labels[left] = np.where(covered.labels >= 0, covered.labels + len(accepted_rims), -1)
    return CircleLabeling(labels, accepted_rims + covered.circles)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def match_circles(
    fitted: list[Circle3D],
    reference: list[Circle3D],
    match_tol: float,
) -> list[tuple[int, int]]:
    """The largest one-to-one set of admissible (fitted, reference) pairs,
    with the least total centroid offset among sets of that size.

    A pair is admissible when both its centroid offset and its radius
    difference are within ``match_tol``. The pairs solve one assignment
    problem (Kuhn, "The Hungarian method for the assignment problem", 1955).
    """
    if match_tol <= 0:
        raise ValueError("match_tol must be positive")
    if not fitted or not reference:
        return []
    fc = np.array([c.center for c in fitted])
    rc = np.array([c.center for c in reference])
    offset = np.linalg.norm(fc[:, None, :] - rc[None, :, :], axis=2)
    dr = np.abs(np.array([c.radius for c in fitted])[:, None]
                - np.array([c.radius for c in reference])[None, :])
    admissible = (offset <= match_tol) & (dr <= match_tol)
    # An inadmissible pair costs more than any full set of admissible ones,
    # so the assignment maximizes the number of admissible pairs first.
    penalty = 1.0 + match_tol * min(len(fitted), len(reference))
    rows, cols = linear_sum_assignment(np.where(admissible, offset, penalty))
    return [(int(i), int(j)) for i, j in zip(rows, cols) if admissible[i, j]]


def score_circles(
    fitted: list[Circle3D],
    reference: list[Circle3D],
    match_tol: float,
) -> tuple[int, int, tuple[float, float, float, float] | None]:
    """Score the fitted circles against the reference circles.

    Returns the missed reference circles (f_n), the spurious fitted circles
    (f_p), and (radius_avg, radius_max, centroid_avg, centroid_max) over the
    matched pairs, or None when nothing matched. The pairs are
    ``match_circles``': the most pairs whose centroid offset and radius
    difference are both within ``match_tol``, and among those the least
    total centroid offset.
    """
    pairs = match_circles(fitted, reference, match_tol)
    f_n, f_p = len(reference) - len(pairs), len(fitted) - len(pairs)
    if not pairs:
        return f_n, f_p, None
    dr = np.array([abs(fitted[i].radius - reference[j].radius) for i, j in pairs])
    dc = np.array([np.linalg.norm(fitted[i].center - reference[j].center) for i, j in pairs])
    return f_n, f_p, (float(dr.mean()), float(dr.max()), float(dc.mean()), float(dc.max()))
