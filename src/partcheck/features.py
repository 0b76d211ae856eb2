"""Feature-level analysis: curvature-weighted tensor voting for edge points
and a hypothesize-and-clusterize scheme that fits multiple circles to them.

Edge detection accumulates, per point, neighbor-weighted projector tensors
whose eigenvalue ratio flags curvature transitions. Circle candidates are
generated from random 3-point samples, compressed by mean shift, clustered
by the similarity of their preference sets, fitted with iterative outlier
rejection, and finally pruned by a greedy set cover.

The samples are drawn one triple at a time, so the random stream depends on
the seed alone; their circumcircles are computed in vectorized blocks, and
the converged mean-shift modes are grouped with one k-d tree query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import least_squares, linear_sum_assignment
from scipy.spatial import cKDTree

from .geometry import PointCloud, Points, Vec3, as_points, canonical_sign, median_spacing, unit
from .primitives import FitError, _pratt_circle_2d

TENSOR_SIGMA = 0.5
EDGE_SCORE_THRESHOLD = 1.05
# Nearest neighbors a hypothesis draws its second and third point from.
NEIGHBOR_POOL = 768


# ---------------------------------------------------------------------------
# Tensor voting
# ---------------------------------------------------------------------------

def tensor_vote(cloud: PointCloud, radius: float,
                sigma: float = TENSOR_SIGMA) -> NDArray[np.float64]:
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


def detect_edge_points(
    cloud: PointCloud,
    radius: float | None = None,
    threshold: float = EDGE_SCORE_THRESHOLD,
    sigma: float = TENSOR_SIGMA,
) -> NDArray[np.int64]:
    """Indices of points whose edge score is defined and >= threshold."""
    if radius is None:
        radius = 4.0 * median_spacing(cloud.points)
    scores = edge_scores(tensor_vote(cloud, radius, sigma=sigma))
    with np.errstate(invalid="ignore"):
        mask = ~np.isnan(scores) & (scores >= threshold)
    return np.nonzero(mask)[0].astype(np.int64)


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
        u = unit(np.cross(self.normal, np.eye(3)[np.argmin(np.abs(self.normal))]))
        v = np.cross(self.normal, u)
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


def circumcircle(a, b, c) -> Circle3D:
    """The unique circle through three non-collinear points."""
    a, b, c = (np.asarray(x, dtype=np.float64).reshape(1, 3) for x in (a, b, c))
    centers, radii, normals, collinear = _circumcircles(a, b, c)
    if collinear[0]:
        raise FitError("collinear sample")
    return Circle3D(centers[0], float(radii[0]), normals[0])


def generate_hypotheses(edge_points, count: int, seed: int = 0) -> list[Circle3D]:
    """Draw ``count`` random non-collinear triples and their circumcircles.

    Sampling is locality-biased: the first point is uniform, its two
    companions come from a randomly sized prefix of its nearest neighbors.
    Points of one structure are spatial neighbors, so this raises the share
    of all-one-circle triples by orders of magnitude over uniform triples
    while still reaching every scale up to ``NEIGHBOR_POOL`` neighbors.

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
    neighbors = None
    if n > 32:
        _, neighbors = cKDTree(pts).query(pts, k=pool + 1)
    log_lo, log_hi = np.log(16.0), np.log(max(pool, 17))

    out: list[Circle3D] = []
    attempts = 0
    limit = 100 * max(count, 1)
    while len(out) < count:
        triples: list[tuple[int, int, int]] = []
        while len(triples) < count - len(out):
            attempts += 1
            if attempts > limit:
                raise ValueError("degenerate edge set")
            if neighbors is None:
                i, j, k = (int(v) for v in rng.choice(n, size=3, replace=False))
            else:
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
        out.extend(Circle3D(centers[r], float(radii[r]), normals[r])
                   for r in np.nonzero(~collinear)[0])
    return out


# ---------------------------------------------------------------------------
# Hypothesis reduction by mean shift
# ---------------------------------------------------------------------------

def _embed_hypotheses(hyps: list[Circle3D], scale: float) -> NDArray[np.float64]:
    centers = np.stack([h.center for h in hyps])
    normals = np.stack([h.normal for h in hyps])
    radii = np.array([h.radius for h in hyps])
    return np.column_stack([centers / scale, normals, radii / scale])


def _group_modes(modes: NDArray[np.float64], radius: float) -> NDArray[np.int64]:
    """Group id per mode, numbered in order of each group's first mode.

    Greedy in index order: each mode not yet assigned opens a group and takes
    every unassigned mode within ``radius`` of it.
    """
    assigned = np.full(len(modes), -1, dtype=np.int64)
    groups = 0
    for i, near in enumerate(cKDTree(modes).query_ball_point(modes, radius)):
        if assigned[i] >= 0:
            continue
        near = np.asarray(near, dtype=np.int64)
        assigned[near[assigned[near] < 0]] = groups
        groups += 1
    return assigned


def reduce_hypotheses(
    hyps: list[Circle3D],
    bandwidth: float = 0.05,
    *,
    scale: float,
    max_modes: int | None = None,
) -> list[Circle3D]:
    """Mean shift with a flat kernel over the 7-d circle parameter space.

    Center and radius coordinates are divided by ``scale`` (``mcfs`` passes
    the diagonal of the edge points' bounding box) so the bandwidth is
    unitless. Returns the hypothesis nearest to each surviving mode; when
    ``max_modes`` is set, only the most populated modes survive.
    """
    if not hyps:
        raise ValueError("no hypotheses to reduce")
    if len(hyps) == 1:
        return list(hyps)
    data = _embed_hypotheses(hyps, scale)
    tree = cKDTree(data)
    modes = data.copy()
    moving = np.ones(len(modes), dtype=bool)
    for _ in range(100):
        if not moving.any():
            break
        idx = np.nonzero(moving)[0]
        neighborhoods = tree.query_ball_point(modes[idx], bandwidth)
        counts = np.array([len(nb) for nb in neighborhoods])
        flat = np.concatenate([np.asarray(nb, dtype=np.int64) for nb in neighborhoods]) \
            if counts.sum() else np.empty(0, dtype=np.int64)
        targets = modes[idx].copy()
        if len(flat):
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            nonempty = counts > 0
            sums = np.add.reduceat(data[flat], starts[nonempty], axis=0)
            targets[nonempty] = sums / counts[nonempty, None]
        shift = np.linalg.norm(targets - modes[idx], axis=1)
        modes[idx] = targets
        settled = idx[shift < 1e-2 * bandwidth]
        moving[settled] = False

    # Group converged modes and keep one representative hypothesis each.
    assigned = _group_modes(modes, bandwidth / 2.0)
    populations = np.bincount(assigned)
    order = np.argsort(-populations, kind="stable")
    if max_modes is not None:
        order = order[:max_modes]
    out = []
    for gi in order:
        members = np.nonzero(assigned == gi)[0]
        mode_mean = modes[members].mean(axis=0)
        nearest = members[np.argmin(np.linalg.norm(data[members] - mode_mean, axis=1))]
        out.append(hyps[int(nearest)])
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
    hyps: list[Circle3D],
    inlier_eps: float,
    min_cluster: int,
) -> CircleLabeling:
    """Agglomerate points whose preference sets overlap (J-linkage style).

    A point prefers every hypothesis within ``inlier_eps``; clusters carry the
    intersection of their members' preferences and merge greedily by smallest
    Jaccard distance until every remaining pair is disjoint. Clusters smaller
    than ``min_cluster`` become outliers; survivors take the hypothesis that
    covers most of their members.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    n, m = residuals.shape
    if m != len(hyps):
        raise ValueError("residual matrix width must match hypothesis count")
    prefs = residuals <= inlier_eps
    labels = np.full(n, -1, dtype=np.int64)
    active = np.nonzero(prefs.any(axis=1))[0]
    if len(active) == 0:
        return CircleLabeling(labels, [])

    # Collapse identical preference rows first; they merge immediately anyway.
    uniq, inverse = np.unique(prefs[active], axis=0, return_inverse=True)
    members: list[list[int]] = [[] for _ in range(len(uniq))]
    for point, group in zip(active, inverse):
        members[group].append(int(point))
    cluster_ps = uniq.astype(np.float64)
    merged = _jlinkage_merge(cluster_ps, members)

    clusters = [mem for mem in merged if len(mem) >= min_cluster]
    clusters.sort(key=lambda mem: (-len(mem), min(mem)))
    circles: list[Circle3D] = []
    for ci, mem in enumerate(clusters):
        rows = prefs[mem]
        coverage = rows.sum(axis=0)
        best = np.nonzero(coverage == coverage.max())[0]
        if len(best) > 1:
            mean_res = residuals[np.ix_(mem, best)].mean(axis=0)
            best = best[np.argsort(mean_res, kind="stable")]
        j = int(best[0])
        circles.append(hyps[j])
        labels[mem] = ci
    return CircleLabeling(labels, circles)


def _jlinkage_merge(ps: NDArray[np.float64], members: list[list[int]]) -> list[list[int]]:
    """Greedy smallest-Jaccard merging; mutates and returns member lists."""
    import heapq

    alive = np.ones(len(members), dtype=bool)
    sizes = ps.sum(axis=1)
    stamp = np.zeros(len(members), dtype=np.int64)
    heap: list = []

    def row_best(i: int):
        others = np.nonzero(alive)[0]
        others = others[others != i]
        if len(others) == 0:
            return None
        inter = ps[others] @ ps[i]
        union = sizes[others] + sizes[i] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            dist = 1.0 - np.where(union > 0, inter / union, 0.0)
        j = int(np.argmin(dist))
        return float(dist[j]), int(others[j])

    # Seed the queue with each row's best partner in one matrix product.
    c = len(members)
    if c > 1:
        inter = ps @ ps.T
        union = sizes[:, None] + sizes[None, :] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            dist = 1.0 - np.where(union > 0, inter / union, 0.0)
        np.fill_diagonal(dist, np.inf)
        best_j = np.argmin(dist, axis=1)
        for i in range(c):
            j = int(best_j[i])
            heapq.heappush(heap, (float(dist[i, j]), i, j, stamp[i], stamp[j]))
        del inter, union, dist

    while heap:
        dist, i, j, si, sj = heapq.heappop(heap)
        if not alive[i] or not alive[j] or stamp[i] != si or stamp[j] != sj:
            if alive[i] and stamp[i] == si:
                best = row_best(i)
                if best is not None:
                    heapq.heappush(heap, (best[0], i, best[1], stamp[i], stamp[best[1]]))
            continue
        if dist >= 1.0 - 1e-12:
            break
        # Merge j into i: preferences intersect, members concatenate.
        ps[i] = ps[i] * ps[j]
        sizes[i] = ps[i].sum()
        members[i].extend(members[j])
        alive[j] = False
        stamp[i] += 1
        best = row_best(i)
        if best is not None:
            heapq.heappush(heap, (best[0], i, best[1], stamp[i], stamp[best[1]]))
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
    eps: float = 0.1,
    eta: float = 0.03,
    max_iter: int = 150,
) -> tuple[Circle3D, NDArray[np.int64]]:
    """Circle fit with iterative outlier rejection.

    Fits on the current inlier set, discards points farther than ``eps`` from
    the circle, and repeats until the parameter change drops below ``eta`` or
    ``max_iter`` is reached. The inlier set never grows back.
    """
    pts = as_points(points)
    active = np.arange(len(pts), dtype=np.int64)
    previous: Circle3D | None = None
    circle: Circle3D | None = None
    for _ in range(max_iter):
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
    labeling: CircleLabeling,
    edge_points,
    inlier_eps: float,
    min_cluster: int = 10,
) -> CircleLabeling:
    """Greedy set cover over the fitted circles, dropping redundant ones.

    Circles are selected in order of how many still-uncovered edge points
    they explain; a selection adding fewer than ``min_cluster`` new points
    stops the process. A later circle is discarded as a duplicate when its
    covered set is >= 80% contained in an earlier selection, or when its
    parameters agree with an earlier circle within the edge band thickness
    (``inlier_eps`` or three point spacings, whichever is larger). The latter
    catches the stacked rim circles a thick edge band produces, whose cover
    sets barely overlap even though they describe one physical feature.
    """
    pts = as_points(edge_points)
    n = len(pts)
    labels = np.full(n, -1, dtype=np.int64)
    if not labeling.circles:
        return CircleLabeling(labels, [])
    duplicate_tol = max(inlier_eps, 3.0 * median_spacing(pts))
    cover = np.column_stack([c.distance(pts) <= inlier_eps for c in labeling.circles])

    chosen: list[int] = []
    covered = np.zeros(n, dtype=bool)
    available = list(range(len(labeling.circles)))
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
        circle = labeling.circles[c]
        redundant = False
        for b in kept:
            if int((cover[:, c] & cover[:, b]).sum()) >= 0.8 * total:
                redundant = True
                break
            other = labeling.circles[b]
            if (np.linalg.norm(circle.center - other.center) <= duplicate_tol
                    and abs(circle.radius - other.radius) <= duplicate_tol):
                redundant = True
                break
        if not redundant:
            kept.append(c)

    assigned = np.zeros(n, dtype=bool)
    circles: list[Circle3D] = []
    for new_id, c in enumerate(kept):
        take = cover[:, c] & ~assigned
        labels[take] = new_id
        assigned |= take
        circles.append(labeling.circles[c])
    return CircleLabeling(labels, circles)


def _trimmed_circle_seed(points: Points, eps: float, max_iter: int = 25) -> Points:
    """Shrink a point set onto one circle by dropping the worst quarter.

    A band holding two stacked rows defeats the plain discard rule (the mean
    circle is equidistant from both rows and everything exceeds eps at once);
    trimming the farthest fraction breaks that tie and locks onto one row.
    """
    active = points
    for _ in range(max_iter):
        if len(active) < 3:
            raise FitError("circle collapsed (fewer than 3 inliers)")
        circle = fit_circle_lsq(active)
        d = circle.distance(active)
        if d.max() <= eps:
            return active
        cut = max(eps, float(np.quantile(d, 0.75)))
        keep = d <= cut
        if keep.all():
            keep = d <= float(np.quantile(d, 0.75))
        active = active[keep]
    return active


def _settle_circle(seed_points: Points, field_points: Points,
                   params: "MCFSParams") -> Circle3D | None:
    """Fit a circle to the seed set, then let it center itself on the field.

    The seed is often a skewed subset of the structure; alternating between
    collecting the fit's support among all field points and refitting slides
    the support arc onto the full rim.
    """
    try:
        trimmed = _trimmed_circle_seed(seed_points, params.inlier_eps)
        circle, _ = fit_circle_iterative(
            trimmed, eps=params.inlier_eps,
            eta=params.eta, max_iter=params.max_fit_iter,
        )
        best = circle
        best_support = int((circle.distance(field_points) <= params.inlier_eps).sum())
        for _ in range(6):
            support = circle.distance(field_points) <= params.inlier_eps
            if support.sum() < 3:
                break
            updated, _ = fit_circle_iterative(
                field_points[support], eps=params.inlier_eps,
                eta=params.eta, max_iter=params.max_fit_iter,
            )
            count = int((updated.distance(field_points) <= params.inlier_eps).sum())
            if count > best_support:
                best, best_support = updated, count
            done = _parameter_change(updated, circle) < params.eta
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


@dataclass(frozen=True)
class MCFSParams:
    """Tunables for the multi-circle fitting scheme."""

    inlier_eps: float = 0.1
    eta: float = 0.03
    max_fit_iter: int = 150
    hypotheses_per_point: int = 20
    max_hypotheses: int = 5000
    bandwidth: float = 0.05
    min_cluster: int = 10
    cluster_cap: int = 4000
    seed: int = 0


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


def mcfs(edge_points, params: MCFSParams = MCFSParams()) -> CircleLabeling:
    """Detect all circles among the edge points.

    Each round runs hypothesis generation, residual calculation, preference
    clustering and outlier-rejecting fits on the still-unlabeled points, and
    stops once a round contributes no new circle. A final greedy set cover
    removes near-duplicate circles and produces the labeling.
    """
    pts = as_points(edge_points)
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 edge points")
    diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    max_radius = _MAX_RADIUS_FACTOR * max(diag, np.finfo(float).tiny)
    spacing = median_spacing(pts)
    rng = np.random.default_rng(params.seed)

    def sufficient_support(circle: Circle3D, supporters: Points) -> bool:
        count = len(supporters)
        if count < params.min_cluster:
            return False
        if spacing > 0:
            expected = 2.0 * np.pi * circle.radius / spacing
            if count < _MIN_ARC_DENSITY * expected:
                return False
        u = unit(np.cross(circle.normal, np.eye(3)[int(np.argmin(np.abs(circle.normal)))]))
        v = np.cross(circle.normal, u)
        rel = supporters - circle.center
        angles = np.arctan2(rel @ v, rel @ u)
        bins = ((angles + np.pi) / (2 * np.pi) * _COVERAGE_BINS).astype(int)
        occupied = len(np.unique(np.clip(bins, 0, _COVERAGE_BINS - 1)))
        return occupied >= _MIN_ARC_COVERAGE * _COVERAGE_BINS

    circles: list[Circle3D] = []
    remaining = np.arange(n, dtype=np.int64)
    # Points this close to an accepted circle belong to its edge band and are
    # considered explained; pruning the whole band keeps later rounds focused
    # on structures not yet found.
    band = max(params.inlier_eps, 2.0 * spacing)
    idle_rounds = 0
    for round_no in range(_MAX_ROUNDS):
        if len(remaining) < max(3, params.min_cluster):
            break
        subset = pts[remaining]
        count = min(params.hypotheses_per_point * len(remaining), params.max_hypotheses)
        try:
            hyps = generate_hypotheses(subset, count, seed=params.seed + 7919 * round_no)
        except ValueError:
            if round_no == 0:
                raise
            break
        hyps = reduce_hypotheses(hyps, params.bandwidth, scale=max(diag, 1e-12),
                                 max_modes=_MAX_MODELS)

        cluster_idx = remaining
        if len(remaining) > params.cluster_cap:
            pick = rng.choice(len(remaining), size=params.cluster_cap, replace=False)
            cluster_idx = remaining[np.sort(pick)]
        residuals = residual_matrix(pts[cluster_idx], hyps)
        provisional = cluster_labels(residuals, hyps, params.inlier_eps, params.min_cluster)

        # Clusters come ordered by size; accepted circles immediately claim
        # their edge band so a weaker candidate cannot ride on support that a
        # better circle already explains.
        added = 0
        claimed = np.zeros(len(remaining), dtype=bool)
        for ci in range(len(provisional.circles)):
            member_idx = cluster_idx[provisional.labels == ci]
            if len(member_idx) < params.min_cluster:
                continue
            field = pts[remaining][~claimed]
            if len(field) < params.min_cluster:
                break
            circle = _settle_circle(pts[member_idx], field, params)
            if circle is None or circle.radius > max_radius:
                continue
            supporters = field[circle.distance(field) <= params.inlier_eps]
            if not sufficient_support(circle, supporters):
                continue
            circles.append(circle)
            claimed |= circle.distance(pts[remaining]) <= band
            added += 1
        if added == 0:
            # The hypothesis/subsample draw can miss a structure; allow one
            # retry with fresh seeds before concluding there is nothing left.
            idle_rounds += 1
            if idle_rounds >= 3:
                break
            continue
        idle_rounds = 0
        keep_mask = np.ones(len(remaining), dtype=bool)
        for circle in circles:
            keep_mask &= circle.distance(pts[remaining]) > band
        remaining = remaining[keep_mask]

    # Recovery sweep: a structure the preference clustering kept missing is
    # still present as a dense leftover component; fit those directly.
    if len(remaining) >= params.min_cluster:
        for component in _leftover_components(pts[remaining], 2.5 * spacing,
                                              params.min_cluster):
            circle = _settle_circle(pts[remaining][component], pts[remaining], params)
            if circle is None or circle.radius > max_radius:
                continue
            supporters = pts[remaining][circle.distance(pts[remaining]) <= params.inlier_eps]
            if sufficient_support(circle, supporters):
                circles.append(circle)

    provisional = CircleLabeling(np.full(n, -1, dtype=np.int64), circles)
    return refine_coverage(provisional, pts, params.inlier_eps, params.min_cluster)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def match_circles(
    fitted: list[Circle3D],
    truth: list[Circle3D],
    match_tol: float | None = None,
) -> list[tuple[int, int]]:
    """Greedy one-to-one pairing by centroid distance, optionally gated.

    With a tolerance, a pair only matches when both the centroid offset and
    the radius difference stay within ``match_tol``.
    """
    pairs = []
    for i, f in enumerate(fitted):
        for j, t in enumerate(truth):
            d = float(np.linalg.norm(f.center - t.center))
            if match_tol is not None:
                if d > match_tol or abs(f.radius - t.radius) > match_tol:
                    continue
            pairs.append((d, i, j))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    used_f: set[int] = set()
    used_t: set[int] = set()
    out: list[tuple[int, int]] = []
    for _, i, j in pairs:
        if i in used_f or j in used_t:
            continue
        used_f.add(i)
        used_t.add(j)
        out.append((i, j))
    return out


def feature_level_error(
    fitted: list[Circle3D],
    truth: list[Circle3D],
    match_tol: float | None = None,
) -> tuple[float, float, float, float]:
    """(radius_avg, radius_max, centroid_avg, centroid_max) over matched pairs."""
    matches = match_circles(fitted, truth, match_tol)
    if not matches:
        raise ValueError("no matched circle pairs")
    dr = np.array([abs(fitted[i].radius - truth[j].radius) for i, j in matches])
    dc = np.array([np.linalg.norm(fitted[i].center - truth[j].center) for i, j in matches])
    return float(dr.mean()), float(dr.max()), float(dc.mean()), float(dc.max())


def fn_fp_counts(
    fitted: list[Circle3D],
    truth: list[Circle3D],
    match_tol: float,
) -> tuple[int, int]:
    """Missed true circles (f_n) and spurious fitted circles (f_p)."""
    if match_tol <= 0:
        raise ValueError("match_tol must be positive")
    matches = match_circles(fitted, truth, match_tol)
    return len(truth) - len(matches), len(fitted) - len(matches)


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
