"""Feature-level analysis: curvature-weighted tensor voting for edge points
and a hypothesize-and-clusterize scheme that fits multiple circles to them.

Edge detection accumulates, per point, neighbor-weighted projector tensors
whose eigenvalue ratio flags curvature transitions. The feature level runs
after the part level and reads its fitted planes: edge points on a straight
crease between two of them cannot lie on a circle and are dropped
(``off_crease_mask``). Circle candidates are generated from random 3-point
samples of the rest, compressed by mean shift, clustered by the similarity
of their preference sets, fitted with iterative outlier rejection, and
finally pruned by a greedy set cover.

The samples are drawn one triple at a time, so the random stream depends on
the seed alone; their circumcircles are computed in vectorized blocks as the
rows ``[cx, cy, cz, nx, ny, nz, r]`` (center, unit normal, radius) of one
array, and only the mean-shift representatives become ``Circle3D``. The
converged modes are grouped through one k-d tree. Mean shift and grouping
query their balls in blocks of rows, which bounds the memory the neighbor
lists take.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import least_squares, linear_sum_assignment
from scipy.spatial import cKDTree

from .config import PipelineConfig
from .geometry import PointCloud, Points, Vec3, as_points, canonical_sign, median_spacing, unit
from .primitives import (Configuration, FitError, PrimitiveKind, _adjacent, _ortho_basis,
                         _pratt_circle_2d)

# Nearest neighbors a hypothesis draws its second and third point from.
NEIGHBOR_POOL = 768


# ---------------------------------------------------------------------------
# Tensor voting
# ---------------------------------------------------------------------------

def tensor_vote(cloud: PointCloud, radius: float, sigma: float) -> NDArray[np.float64]:
    """Accumulate curvature-difference weighted projector votes per point.

    Each neighbor j of point i contributes
    ``exp(-|q|/sigma^2) * |k_i - k_j| * (I - q q^T / |q|^2)`` with
    q the offset vector between the two points. The projector is symmetric in
    q, so each unordered pair is evaluated once and credited to both ends.
    Returns the (n, 3, 3) array of symmetric positive semi-definite tensors.
    """
    if cloud.curvatures is None:
        raise ValueError("tensor voting needs per-point curvatures")
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = cloud.points
    curv = cloud.curvatures
    n = len(pts)
    tensors = np.zeros((n, 3, 3))
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")

    chunk = 2_000_000
    upper = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    for lo in range(0, len(pairs), chunk):
        pi = pairs[lo:lo + chunk, 0]
        pj = pairs[lo:lo + chunk, 1]
        q = pts[pi] - pts[pj]
        q2 = (q * q).sum(axis=1)
        ok = q2 > 1e-24
        pi, pj, q, q2 = pi[ok], pj[ok], q[ok], q2[ok]
        qn = np.sqrt(q2)
        w = np.exp(-qn / (sigma * sigma)) * np.abs(curv[pi] - curv[pj])
        f = w / q2
        both = np.concatenate([pi, pj])
        for a, b in upper:
            value = -f * q[:, a] * q[:, b]
            if a == b:
                value = value + w
            acc = np.bincount(both, weights=np.concatenate([value, value]), minlength=n)
            tensors[:, a, b] += acc
            if a != b:
                tensors[:, b, a] += acc

    return tensors


def edge_scores(tensors: NDArray[np.float64]) -> NDArray[np.float64]:
    """Per-point (lam2 + lam3) / lam1 ratio; NaN where the tensor vanishes.

    The eigenvalues of each ``tensor_vote`` tensor are sorted descending and
    clamped at 0, since round-off can push a PSD tensor's smallest one below.
    """
    lam = np.clip(np.linalg.eigvalsh(tensors)[:, ::-1], 0.0, None)
    out = np.full(len(tensors), np.nan)
    ok = lam[:, 0] > 0.0
    out[ok] = (lam[ok, 1] + lam[ok, 2]) / lam[ok, 0]
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

    The draws stay scalar, one triple at a time, so the random stream is
    fixed by the seed alone; the circumcircles are fitted in blocks. Each
    block holds as many triples as circles are still missing, so it never
    draws past the one that completes ``count``, and collinear triples are
    replaced by a further block.
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
        triples: list[tuple[int, int, int]] = []
        while len(triples) < count - len(out):
            attempts += 1
            if attempts > limit:
                raise ValueError("degenerate edge set")
            i = int(rng.integers(n))
            prefix = int(np.exp(rng.uniform(log_lo, log_hi)))
            prefix = min(max(prefix, 2), pool)
            j, k = (int(neighbors[i, 1 + v])
                    for v in rng.choice(prefix, size=2, replace=False))
            if j == k or i in (j, k):
                continue
            triples.append((i, j, k))
        a, b, c = pts[np.array(triples).T]
        centers, radii, normals, collinear = _circumcircles(a, b, c)
        keep = ~collinear
        normals = normals[keep] / np.linalg.norm(normals[keep], axis=1)[:, None]
        rows = np.column_stack([centers[keep], canonical_sign(normals), radii[keep]])
        out = np.vstack([out, rows])
    return out


# ---------------------------------------------------------------------------
# Hypothesis reduction by mean shift
# ---------------------------------------------------------------------------

# Ball queries run this many rows at a time: their neighbor lists are Python
# lists of Python ints, about 36 bytes an entry, and the hypotheses of one
# rim converge together, so a whole-set query can hold tens of megabytes.
_BALL_BLOCK = 256


def _group_modes(modes: NDArray[np.float64], radius: float) -> NDArray[np.int64]:
    """Group id per mode, numbered in order of each group's first mode.

    Greedy in index order: each mode not yet assigned opens a group and takes
    every unassigned mode within ``radius`` of it.
    """
    assigned = np.full(len(modes), -1, dtype=np.int64)
    groups = 0
    tree = cKDTree(modes)
    for lo in range(0, len(modes), _BALL_BLOCK):
        block = tree.query_ball_point(modes[lo:lo + _BALL_BLOCK], radius)
        for i, near in enumerate(block, start=lo):
            if assigned[i] >= 0:
                continue
            near = np.asarray(near, dtype=np.int64)
            assigned[near[assigned[near] < 0]] = groups
            groups += 1
    return assigned


def _ball_means(tree: cKDTree, data: NDArray[np.float64], queries: NDArray[np.float64],
                radius: float) -> NDArray[np.float64]:
    """Mean of the ``data`` rows (indexed by ``tree``) within ``radius`` of
    each query row, or the query row itself where none is."""
    out = queries.copy()
    for lo in range(0, len(queries), _BALL_BLOCK):
        near = tree.query_ball_point(queries[lo:lo + _BALL_BLOCK], radius)
        counts = np.fromiter(map(len, near), dtype=np.int64, count=len(near))
        nonempty = counts > 0
        if not nonempty.any():
            continue
        flat = np.fromiter(itertools.chain.from_iterable(near), dtype=np.int64,
                           count=int(counts.sum()))
        starts = np.cumsum(counts) - counts
        sums = np.add.reduceat(data[flat], starts[nonempty], axis=0)
        out[lo:lo + len(near)][nonempty] = sums / counts[nonempty, None]
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
        targets = _ball_means(tree, data, modes[idx], bandwidth)
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
# Residuals and preference clustering
# ---------------------------------------------------------------------------

def residual_matrix(edge_points, hyps: list[Circle3D]) -> NDArray[np.float64]:
    """Point-to-hypothesis distances, one row per point, one column per circle."""
    pts = as_points(edge_points)
    if not hyps:
        raise ValueError("no hypotheses")
    return np.column_stack([h.distance(pts) for h in hyps])


def cluster_labels(
    residuals: NDArray[np.float64],
    inlier_eps: float,
    min_cluster: int,
) -> NDArray[np.int64]:
    """Agglomerate points whose preference sets overlap (J-linkage style).

    A point prefers every hypothesis within ``inlier_eps``; clusters carry the
    intersection of their members' preferences and merge greedily by smallest
    Jaccard distance until every remaining pair is disjoint. Returns one label
    per residual row: clusters smaller than ``min_cluster`` become outliers
    (-1), and survivors are numbered by falling size, ties broken by their
    lowest row.
    """
    prefs = np.asarray(residuals, dtype=np.float64) <= inlier_eps
    labels = np.full(len(prefs), -1, dtype=np.int64)
    active = np.nonzero(prefs.any(axis=1))[0]
    if len(active) == 0:
        return labels

    # Collapse identical preference rows first; they merge immediately anyway.
    uniq, inverse = np.unique(prefs[active], axis=0, return_inverse=True)
    members: list[list[int]] = [[] for _ in range(len(uniq))]
    for point, group in zip(active, inverse):
        members[group].append(int(point))
    cluster_ps = uniq.astype(np.float64)
    merged = _jlinkage_merge(cluster_ps, members)

    clusters = [mem for mem in merged if len(mem) >= min_cluster]
    clusters.sort(key=lambda mem: (-len(mem), min(mem)))
    for ci, mem in enumerate(clusters):
        labels[mem] = ci
    return labels


def _jlinkage_merge(ps: NDArray[np.float64], members: list[list[int]]) -> list[list[int]]:
    """Greedy smallest-Jaccard merging; mutates and returns member lists."""
    import heapq

    alive = np.ones(len(members), dtype=bool)
    sizes = ps.sum(axis=1)
    stamp = np.zeros(len(members), dtype=np.int64)
    heap: list = []

    def push(i: int) -> None:
        """Queue row ``i`` with its nearest live partner, the first on ties."""
        others = np.nonzero(alive)[0]
        others = others[others != i]
        if len(others) == 0:
            return
        inter = ps[others] @ ps[i]
        union = sizes[others] + sizes[i] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            dist = 1.0 - np.where(union > 0, inter / union, 0.0)
        k = int(np.argmin(dist))
        j = int(others[k])
        heapq.heappush(heap, (float(dist[k]), i, j, stamp[i], stamp[j]))

    for i in range(len(members)):
        push(i)
    while heap:
        dist, i, j, si, sj = heapq.heappop(heap)
        if not alive[i] or not alive[j] or stamp[i] != si or stamp[j] != sj:
            if alive[i] and stamp[i] == si:
                push(i)
            continue
        if dist >= 1.0 - 1e-12:
            break
        # Merge j into i: preferences intersect, members concatenate.
        ps[i] = ps[i] * ps[j]
        sizes[i] = ps[i].sum()
        members[i].extend(members[j])
        alive[j] = False
        stamp[i] += 1
        push(i)
    return [members[i] for i in np.nonzero(alive)[0]]


# ---------------------------------------------------------------------------
# Circle fitting
# ---------------------------------------------------------------------------

def fit_circle_lsq(points) -> Circle3D:
    """Plane-projected least-squares circle (algebraic seed + geometric polish)."""
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

    if len(pts) > 3:
        result = least_squares(residual, np.array([cx, cy, r]), method="lm")
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


def fit_circle_iterative(
    points,
    config: PipelineConfig = PipelineConfig(),
) -> tuple[Circle3D, NDArray[np.int64]]:
    """Circle fit with iterative outlier rejection.

    Fits on the current inlier set, discards points farther than
    ``config.inlier_eps`` from the circle, and repeats until the parameter
    change drops below ``config.eta`` or ``config.circle_max_iter`` fits are
    made. The inlier set never grows back.
    """
    eps, eta = config.inlier_eps, config.eta
    pts = as_points(points)
    active = np.arange(len(pts), dtype=np.int64)
    previous: Circle3D | None = None
    circle: Circle3D | None = None
    for _ in range(config.circle_max_iter):
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

def refine_coverage(
    circles: list[Circle3D],
    edge_points,
    config: PipelineConfig = PipelineConfig(),
) -> CircleLabeling:
    """Greedy set cover over the fitted circles, dropping redundant ones.

    Circles are selected in order of how many still-uncovered edge points
    they explain (within ``inlier_eps``); a selection adding fewer than
    ``min_cluster`` new points stops the process. A later circle is discarded
    as a duplicate when its covered set is >= 80% contained in an earlier
    selection, or when its parameters agree with an earlier circle within the
    edge band thickness (``inlier_eps`` or three point spacings, whichever is
    larger). The latter catches the stacked rim circles a thick edge band
    produces, whose cover sets barely overlap even though they describe one
    physical feature. Both values come from ``config``.
    """
    inlier_eps, min_cluster = config.inlier_eps, config.min_cluster
    pts = as_points(edge_points)
    n = len(pts)
    labels = np.full(n, -1, dtype=np.int64)
    if not circles:
        return CircleLabeling(labels, [])
    duplicate_tol = max(inlier_eps, 3.0 * median_spacing(pts))
    cover = np.column_stack([c.distance(pts) <= inlier_eps for c in circles])

    chosen: list[int] = []
    covered = np.zeros(n, dtype=bool)
    available = list(range(len(circles)))
    while available:
        gains = np.array([np.count_nonzero(cover[:, c] & ~covered) for c in available])
        at = int(np.argmax(gains))
        if gains[at] < min_cluster:
            break
        c = available.pop(at)
        chosen.append(c)
        covered |= cover[:, c]

    kept: list[int] = []
    for c in chosen:
        total = int(cover[:, c].sum())
        circle = circles[c]
        redundant = False
        for b in kept:
            if int((cover[:, c] & cover[:, b]).sum()) >= 0.8 * total:
                redundant = True
                break
            other = circles[b]
            if (np.linalg.norm(circle.center - other.center) <= duplicate_tol
                    and abs(circle.radius - other.radius) <= duplicate_tol):
                redundant = True
                break
        if not redundant:
            kept.append(c)

    assigned = np.zeros(n, dtype=bool)
    for new_id, c in enumerate(kept):
        take = cover[:, c] & ~assigned
        labels[take] = new_id
        assigned |= take
    return CircleLabeling(labels, [circles[c] for c in kept])


def _settle_circle(seed_points: Points, field_points: Points,
                   config: PipelineConfig) -> Circle3D | None:
    """Fit a circle to the seed set, then let it center itself on the field.

    The seed is often a skewed subset of the structure; alternating between
    collecting the fit's support among all field points and refitting slides
    the support arc onto the full rim.
    """
    try:
        circle, _ = fit_circle_iterative(seed_points, config)
        best = circle
        best_support = int((circle.distance(field_points) <= config.inlier_eps).sum())
        for _ in range(6):
            support = circle.distance(field_points) <= config.inlier_eps
            if support.sum() < 3:
                break
            updated, _ = fit_circle_iterative(field_points[support], config)
            count = int((updated.distance(field_points) <= config.inlier_eps).sum())
            if count > best_support:
                best, best_support = updated, count
            done = _parameter_change(updated, circle) < config.eta
            circle = updated
            if done:
                break
    except FitError:
        return None
    return best


def _leftover_components(points: Points, radius: float, min_size: int):
    """Index arrays of the connected components of the proximity graph."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(points)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    if len(pairs) == 0:
        return
    graph = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    for comp in np.unique(labels):
        members = np.nonzero(labels == comp)[0]
        if len(members) >= min_size:
            yield members


_MAX_ROUNDS = 16
_MAX_RADIUS_FACTOR = 2.0
_MAX_MODELS = 64
# Accepted circles must carry at least this fraction of the inlier count a
# fully sampled rim of their size would have; rejects sparse apparent circles
# assembled from scattered outliers.
_MIN_ARC_DENSITY = 0.4
# ... and their support must occupy at least this fraction of the angular bins
# around the circle; rejects circles that merely graze a dense arc.
_MIN_ARC_COVERAGE = 0.6
_COVERAGE_BINS = 24


def mcfs(edge_points, config: PipelineConfig = PipelineConfig()) -> CircleLabeling:
    """Detect all circles among the edge points.

    Each round runs hypothesis generation, residual calculation, preference
    clustering and outlier-rejecting fits on the still-unlabeled points, and
    stops once a round contributes no new circle. A final greedy set cover
    removes near-duplicate circles and produces the labeling. ``config``
    supplies ``inlier_eps``, ``eta``, ``circle_max_iter``, the hypothesis
    budget, ``bandwidth``, ``min_cluster``, ``cluster_cap`` and ``seed``.
    """
    pts = as_points(edge_points)
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 edge points")
    diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    max_radius = _MAX_RADIUS_FACTOR * max(diag, np.finfo(float).tiny)
    spacing = median_spacing(pts)
    eps = config.inlier_eps
    min_cluster = config.min_cluster
    rng = np.random.default_rng(config.seed)

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

    def accept(seed: Points, field: Points) -> Circle3D | None:
        """The circle settled from ``seed`` on ``field``, if ``field`` supports it."""
        circle = _settle_circle(seed, field, config)
        if circle is None or circle.radius > max_radius:
            return None
        supporters = field[circle.distance(field) <= eps]
        return circle if sufficient_support(circle, supporters) else None

    circles: list[Circle3D] = []
    remaining = np.arange(n, dtype=np.int64)
    # Points this close to an accepted circle belong to its edge band and are
    # considered explained; pruning the whole band keeps later rounds focused
    # on structures not yet found.
    band = max(eps, 2.0 * spacing)
    for round_no in range(_MAX_ROUNDS):
        if len(remaining) < max(3, min_cluster):
            break
        subset = pts[remaining]
        count = min(config.hypotheses_per_point * len(remaining), config.max_hypotheses)
        try:
            hyps = generate_hypotheses(subset, count, seed=config.seed + 7919 * round_no)
        except ValueError:
            if round_no == 0:
                raise
            break
        hyps = reduce_hypotheses(hyps, config.bandwidth, scale=max(diag, 1e-12),
                                 max_modes=_MAX_MODELS)

        cluster_idx = remaining
        if len(remaining) > config.cluster_cap:
            pick = rng.choice(len(remaining), size=config.cluster_cap, replace=False)
            cluster_idx = remaining[np.sort(pick)]
        labels = cluster_labels(residual_matrix(pts[cluster_idx], hyps), eps, min_cluster)

        # Clusters come ordered by size; accepted circles immediately claim
        # their edge band so a weaker candidate cannot ride on support that a
        # better circle already explains.
        claimed = np.zeros(len(remaining), dtype=bool)
        for ci in range(labels.max(initial=-1) + 1):
            field = subset[~claimed]
            if len(field) < min_cluster:
                break
            circle = accept(pts[cluster_idx[labels == ci]], field)
            if circle is not None:
                circles.append(circle)
                claimed |= circle.distance(subset) <= band
        # An accepted circle claims at least its supporters. The earlier
        # rounds' bands are already gone from ``remaining``.
        if not claimed.any():
            break
        remaining = remaining[~claimed]

    # Recovery sweep: a structure the preference clustering kept missing is
    # still present as a dense leftover component; fit those directly.
    if len(remaining) >= min_cluster:
        field = pts[remaining]
        for component in _leftover_components(field, 2.5 * spacing, min_cluster):
            circle = accept(field[component], field)
            if circle is not None:
                circles.append(circle)

    return refine_coverage(circles, pts, config)


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


def misclassification_error(labels, truth_labels) -> float:
    """Percentage of points mislabeled under the best cluster-id mapping.

    The mapping between predicted and true cluster ids is one-to-one and
    chosen by Hungarian assignment on the agreement counts; the outlier id -1
    only ever maps to itself.
    """
    pred = np.asarray(labels.labels if isinstance(labels, CircleLabeling) else labels,
                      dtype=np.int64)
    true = np.asarray(truth_labels, dtype=np.int64)
    if pred.shape != true.shape:
        raise ValueError("label arrays must have the same length")
    n = len(pred)
    if n == 0:
        return 0.0
    pred_ids = np.unique(pred[pred >= 0])
    true_ids = np.unique(true[true >= 0])
    correct = int(((pred == -1) & (true == -1)).sum())
    if len(pred_ids) and len(true_ids):
        agreement = np.zeros((len(pred_ids), len(true_ids)), dtype=np.int64)
        for a, pid in enumerate(pred_ids):
            sel = pred == pid
            for b, tid in enumerate(true_ids):
                agreement[a, b] = int((sel & (true == tid)).sum())
        rows, cols = linear_sum_assignment(-agreement)
        correct += int(agreement[rows, cols].sum())
    return 100.0 * (1.0 - correct / n)
