"""Core geometry: spatial queries, mesh distance, sampling, local estimates."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.stats import chisquare

from partcheck import geometry
from partcheck.geometry import (
    DegenerateNeighborhoodWarning,
    MeshDistance,
    PointCloud,
    RigidTransform,
    TriangleMesh,
    clean_triangles,
    components,
    distinct_rows,
    estimate_normals_and_curvature,
    median_spacing,
    remove_outliers,
    sample_mesh,
    strided_indices,
)
from partcheck.synth import _ring_to_rect_mesh, plate_scene


def random_rigid(rng) -> RigidTransform:
    m = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(m)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return RigidTransform(q, rng.uniform(-5, 5, 3))


# ---------------------------------------------------------------------------
# Reference implementations (kept independent of the library code paths)
# ---------------------------------------------------------------------------

def reference_triangle_distance(p, a, b, c) -> float:
    """Distance via explicit candidate enumeration: face, edges, vertices."""
    p, a, b, c = (np.asarray(v, dtype=float) for v in (p, a, b, c))
    candidates = [a, b, c]
    for u, v in ((a, b), (b, c), (c, a)):
        t = np.clip((p - u) @ (v - u) / ((v - u) @ (v - u)), 0.0, 1.0)
        candidates.append(u + t * (v - u))
    n = np.cross(b - a, c - a)
    n2 = n @ n
    if n2 > 0:
        # Barycentric coordinates of the in-plane projection.
        proj = p - ((p - a) @ n / n2) * n
        area = np.linalg.norm(n)
        w0 = np.linalg.norm(np.cross(b - proj, c - proj)) / area
        w1 = np.linalg.norm(np.cross(c - proj, a - proj)) / area
        w2 = np.linalg.norm(np.cross(a - proj, b - proj)) / area
        if abs(w0 + w1 + w2 - 1.0) < 1e-9:
            candidates.append(proj)
    return min(np.linalg.norm(p - q) for q in candidates)


def reference_mesh_distance(p, mesh) -> float:
    tv = mesh.triangle_vertices
    return min(reference_triangle_distance(p, *tv[i]) for i in range(len(tv)))


def make_random_mesh(rng, n_tris=100) -> TriangleMesh:
    verts = []
    tris = []
    for i in range(n_tris):
        base = rng.uniform(-5, 5, 3)
        tri = base + rng.uniform(-1, 1, (3, 3))
        while np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) < 1e-3:
            tri = base + rng.uniform(-1, 1, (3, 3))
        verts.extend(tri)
        tris.append((3 * i, 3 * i + 1, 3 * i + 2))
    return TriangleMesh(vertices=np.asarray(verts), triangles=np.asarray(tris))


UNIT_SQUARE = TriangleMesh(
    vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]]),
    triangles=np.array([[0, 1, 2], [1, 3, 2]]),
)


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------

class TestCarriers:
    def test_point_cloud_validation(self):
        with pytest.raises(ValueError):
            PointCloud(points=np.array([[0, 0, np.inf]]))
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros((2, 3)), normals=np.array([[0, 0, 1.0]]))
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros((1, 3)), normals=np.array([[0, 0, 2.0]]))
        cloud = PointCloud(points=np.zeros((2, 3)),
                           normals=np.array([[0, 0, 1], [0, 1, 0.0]]))
        assert len(cloud) == 2

    @pytest.mark.parametrize("table", [[[0, 1]], [[0, 1], [1, 2]], [[0, -1], [1, 0]],
                                       [0, 1], [[0.0, 1.0], [1.0, 0.0]]])
    def test_neighbor_table_validation(self, table):
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros((2, 3)), neighbors=np.array(table))

    def test_sub_cloud_drops_the_neighbor_table(self):
        cloud = PointCloud(points=np.arange(9.0).reshape(3, 3),
                           neighbors=np.array([[0, 1], [1, 0], [2, 1]]), spacing=5.0)
        assert cloud.select([0, 2]).neighbors is None
        assert cloud.select([0, 2]).spacing is None

    @pytest.mark.parametrize("spacing", [-1.0, np.nan, np.inf])
    def test_spacing_validation(self, spacing):
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros((2, 3)), spacing=spacing)

    def test_rigid_transform_validation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(reflection, np.zeros(3))

    def test_rigid_transform_compose_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t1 = random_rigid(rng)
            t2 = random_rigid(rng)
            pts = rng.normal(size=(20, 3))
            chained = t1.compose(t2).apply(pts)
            assert np.allclose(chained, t1.apply(t2.apply(pts)), atol=1e-9)
            assert np.allclose(t1.inverse().apply(t1.apply(pts)), pts, atol=1e-9)
            assert np.allclose(
                RigidTransform.from_matrix(t1.as_matrix()).as_matrix(),
                t1.as_matrix(),
            )

    def test_mesh_validation(self):
        with pytest.raises(ValueError):
            TriangleMesh(vertices=np.zeros((3, 3)), triangles=np.empty((0, 3), dtype=int))
        with pytest.raises(ValueError):
            TriangleMesh(vertices=np.zeros((2, 3)), triangles=np.array([[0, 1, 2]]))

    def test_clean_triangles_drops_degenerate(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0.0]])
        tris = np.array([[0, 1, 2], [0, 1, 1], [0, 1, 3]])  # repeated idx + collinear
        cleaned = clean_triangles(verts, tris)
        assert cleaned.shape == (1, 3)


# ---------------------------------------------------------------------------
# Spatial index
# ---------------------------------------------------------------------------

class TestSpatialIndex:
    def test_median_spacing_grid(self):
        xs = np.arange(10) * 0.5
        grid = np.array([(x, y, 0.0) for x in xs for y in xs])
        assert median_spacing(grid) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Mesh distance
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def outlier_plate():
    # 3,465 points, 2% of them gross outliers, against 4,418 pieces.
    return plate_scene(width=30, height=30, holes=4, spacing=0.9, outlier_frac=0.02, seed=1)


class TestMeshDistance:
    def test_perpendicular_drop(self):
        d = UNIT_SQUARE.distance_index().query((0.5, 0.5, 2.0))
        assert d[0] == pytest.approx(2.0)

    def test_vertex_on_mesh(self):
        d = UNIT_SQUARE.distance_index().query((0.0, 0.0, 0.0))
        assert d[0] == pytest.approx(0.0)

    def test_against_brute_force(self):
        rng = np.random.default_rng(3)
        mesh = make_random_mesh(rng, n_tris=100)
        queries = rng.uniform(-7, 7, size=(200, 3))
        got = mesh.distance_index().query(queries)
        for i, q in enumerate(queries):
            assert got[i] == pytest.approx(reference_mesh_distance(q, mesh), abs=1e-12)

    def test_zero_iff_on_surface(self):
        rng = np.random.default_rng(4)
        mesh = make_random_mesh(rng, n_tris=30)
        on_surface = sample_mesh(mesh, 300, seed=1).points
        d = mesh.distance_index().query(on_surface)
        assert d.max() < 1e-9
        off = on_surface + np.array([0.0, 0.0, 50.0])
        assert mesh.distance_index().query(off).min() > 1.0

    def test_mixed_triangle_sizes(self):
        # One giant facet next to tiny ones must not break exactness.
        rng = np.random.default_rng(5)
        verts = [[0, 0, 0], [100, 0, 0], [0, 100, 0]]
        tris = [[0, 1, 2]]
        small = make_random_mesh(rng, n_tris=40)
        offset = len(verts)
        verts = np.vstack([np.asarray(verts, dtype=float), small.vertices + (0, 0, 5)])
        tris = np.vstack([np.asarray(tris), small.triangles + offset])
        mesh = TriangleMesh(vertices=verts, triangles=tris)
        queries = rng.uniform(-3, 10, size=(100, 3))
        got = mesh.distance_index().query(queries)
        for i, q in enumerate(queries):
            assert got[i] == pytest.approx(reference_mesh_distance(q, mesh), abs=1e-12)

    def test_bound_pruning_is_exact_on_ties(self, monkeypatch):
        # A 64-gon hole in a square, flat at z = 0: points on shared
        # vertices, over shared edges and at the hole's centre are as far
        # from several triangles, and the pruned query must still return
        # bit for bit the minimum over every triangle in the ball.
        verts, tris = _ring_to_rect_mesh((0.0, 0.0), (-5.0, -5.0), (5.0, 5.0), 2.0, 0.0)
        index = TriangleMesh(vertices=verts, triangles=tris).distance_index()
        a, b = verts[tris[:, 0]], verts[tris[:, 1]]
        lift = np.array([0.0, 0.0, 0.3])
        pts = np.vstack([verts, verts + lift, 0.5 * (a + b), 0.5 * (a + b) + lift,
                         [[0.0, 0.0, 0.0], [0.0, 0.0, 0.7]],
                         [[0.0, 0.0, 1e3], [1e3, -1e3, 50.0], [-40.0, 3.0, -20.0]]])

        _, nearest = index._tree.query(pts)
        unpruned = index._distances(pts, nearest)
        balls = index._tree.query_ball_point(pts, unpruned + index._rmax)
        owner = np.repeat(np.arange(len(pts)), [len(ball) for ball in balls])
        tris_all = np.concatenate(balls).astype(np.intp)
        np.minimum.at(unpruned, owner, index._distances(pts[owner], tris_all))

        tested = []
        distances = index._distances
        monkeypatch.setattr(index, "_distances",
                            lambda p, t: tested.append(len(t)) or distances(p, t))
        assert np.array_equal(index.query(pts), unpruned)
        assert sum(tested) < len(pts) + len(tris_all)

    def test_bound_pruning_keeps_a_tight_winner(self):
        # p lies beyond the corner (1, 0, 0) of a triangle, on the ray from
        # its centroid, so that triangle's bound |p - c| - r equals its
        # distance, 0.5. A tiny facet 0.501 above p has the nearer centroid
        # and sets the first best; the triangle must survive the pruning.
        corner, centroid = np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]) / 3.0
        p = corner + 0.5 * (corner - centroid) / np.linalg.norm(corner - centroid)
        facet = p + [[1e-3, 0.0, 0.501], [-1e-3, 1e-3, 0.501], [-1e-3, -1e-3, 0.501]]
        mesh = TriangleMesh(vertices=np.vstack([[[0.0, 0, 0], corner, [0, 1, 0]], facet]),
                            triangles=np.array([[0, 1, 2], [3, 4, 5]]))
        index = mesh.distance_index()
        _, nearest = index._tree.query(p)
        assert nearest == 1
        assert index.query(p)[0] == pytest.approx(0.5, abs=1e-12)

    def test_query_memory_is_bounded(self):
        # Points are queried in small blocks, so the working set of (point,
        # triangle) pairs does not grow with the cloud: about 2.1 MB here,
        # where one block of the whole cloud takes 26 MB.
        scene = plate_scene(width=50, height=40, holes=4, spacing=0.6, seed=0)
        pts = scene.cloud.points
        index = scene.mesh.distance_index()
        tracemalloc.start()
        try:
            index.query(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pts) >= 10_000
        assert peak < 17_000_000

    def test_point_order_does_not_change_a_distance(self, outlier_plate):
        # A permutation can change the blocks (the cloud's k-d tree breaks
        # ties by index), but not a single distance.
        pts = outlier_plate.cloud.points
        perm = np.random.default_rng(6).permutation(len(pts))
        index = outlier_plate.mesh.distance_index()
        assert len(pts) > 4 * geometry._QUERY_BLOCK
        assert np.array_equal(index.query(pts[perm]), index.query(pts)[perm])

    def test_equals_the_unpruned_minimum(self, outlier_plate):
        # Every piece through the exact test, for a strided subset of the
        # points and every outlier: the pruned query must equal the
        # minimum bit for bit.
        pts = outlier_plate.cloud.points
        index = outlier_plate.mesh.distance_index()
        got = index.query(pts)
        outliers = np.flatnonzero(outlier_plate.truth.labels == -1)
        which = np.union1d(strided_indices(len(pts), 100), outliers)
        pieces = np.arange(len(index._tri))
        unpruned = [index._distances(np.broadcast_to(pts[i], (len(pieces), 3)), pieces).min()
                    for i in which]
        assert len(outliers) > 50
        assert np.array_equal(got[which], unpruned)

    def test_box_bound_prunes_slivers(self, outlier_plate, monkeypatch):
        # The face cells around the holes are slivers whose bounding
        # spheres overlap; the sphere bound alone leaves about 12 exact
        # tests a point here, the box bound about 4.
        index = outlier_plate.mesh.distance_index()
        tested = []
        distances = index._distances
        monkeypatch.setattr(index, "_distances",
                            lambda p, t: tested.append(len(t)) or distances(p, t))
        pts = outlier_plate.cloud.points
        index.query(pts)
        assert sum(tested) <= 7 * len(pts)

    def test_empty_and_non_finite_queries(self):
        index = UNIT_SQUARE.distance_index()
        assert index.query(np.empty((0, 3))).shape == (0,)
        with pytest.raises(ValueError):
            index.query([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])

    def test_subdivision_tiles_the_surface(self):
        # The mesh of test_mixed_triangle_sizes: one giant facet, 40 small ones.
        rng = np.random.default_rng(5)
        small = make_random_mesh(rng, n_tris=40)
        verts = np.vstack([[[0.0, 0, 0], [100, 0, 0], [0, 100, 0]], small.vertices + (0, 0, 5)])
        tris = np.vstack([[[0, 1, 2]], small.triangles + 3])
        tv = TriangleMesh(vertices=verts, triangles=tris).triangle_vertices

        def areas(t):
            return 0.5 * np.linalg.norm(np.cross(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]), axis=1)

        def radii(t):
            return np.linalg.norm(t - t.mean(axis=1, keepdims=True), axis=2).max(axis=1)

        pieces = geometry._subdivide_for_queries(tv)
        assert len(pieces) > len(tv)
        assert areas(pieces).sum() == pytest.approx(areas(tv).sum(), rel=1e-9)
        assert radii(pieces).max() <= 4.0 * np.median(radii(tv))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

class TestStridedIndices:
    @given(st.integers(0, 50_000), st.integers(1, 50_000))
    def test_evenly_spaced_from_zero_and_capped(self, n, cap):
        idx = strided_indices(n, cap)
        if n <= cap:
            assert np.array_equal(idx, np.arange(n))
            return
        # More than half the cap survives, so the stride does not overshoot.
        assert cap / 2 < len(idx) <= cap
        stride = idx[1] if len(idx) > 1 else n
        assert np.array_equal(idx, np.arange(0, n, stride))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match="cap"):
            strided_indices(10, cap)


class TestDistinctRows:
    def test_first_copies_in_input_order(self):
        # Row 3 repeats row 1, and row 4 is row 0 with -0.0 for 0.0.
        rows = np.array([[0.0, 1.0, 2.0], [5.0, 4.0, 3.0], [1.0, 1.0, 1.0],
                         [5.0, 4.0, 3.0], [-0.0, 1.0, 2.0], [-1.0, 0.0, 0.0]])
        first, inverse = distinct_rows(rows)
        assert first.tolist() == [0, 1, 2, 5]
        assert inverse.tolist() == [0, 1, 2, 1, 0, 3]
        _, reference = np.unique(rows, axis=0, return_index=True)
        assert np.array_equal(first, np.sort(reference))

    @given(st.lists(st.tuples(*[st.sampled_from([-1.0, -0.0, 0.0, 2.5])] * 3), max_size=40))
    def test_matches_unique_rows(self, table):
        rows = np.array(table, dtype=np.float64).reshape(-1, 3)
        first, inverse = distinct_rows(rows)
        _, reference = np.unique(rows, axis=0, return_index=True)
        assert np.array_equal(first, np.sort(reference))
        assert np.array_equal(rows[first][inverse], rows)


def bfs_components(n: int, pairs) -> list[list[int]]:
    """Connected components by breadth-first search from each unvisited
    node in index order, members ascending."""
    adjacent = [set() for _ in range(n)]
    for a, b in pairs:
        adjacent[a].add(b)
        adjacent[b].add(a)
    visited = [False] * n
    out = []
    for start in range(n):
        if visited[start]:
            continue
        visited[start] = True
        members, queue = [start], [start]
        while queue:
            for j in adjacent[queue.pop(0)]:
                if not visited[j]:
                    visited[j] = True
                    members.append(j)
                    queue.append(j)
        out.append(sorted(members))
    return out


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=60))


class TestComponents:
    @given(graphs(), st.integers(1, 4))
    def test_matches_breadth_first_search(self, graph, min_size):
        # Edge lists with self-loops and repeated rows, in either direction.
        n, pairs = graph
        got = components(n, np.array(pairs, dtype=np.int64).reshape(-1, 2), min_size)
        want = [c for c in bfs_components(n, pairs) if len(c) >= min_size]
        assert [c.tolist() for c in got] == want

    @pytest.mark.parametrize("n", [1, 4])
    def test_no_pairs_leaves_every_node_alone(self, n):
        got = components(n, np.empty((0, 2), dtype=np.int64))
        assert [c.tolist() for c in got] == [[i] for i in range(n)]
        assert components(n, np.empty((0, 2), dtype=np.int64), min_size=2) == []

    def test_ascending_members_ordered_by_lowest_index(self):
        pairs = np.array([[5, 1], [6, 3], [3, 0], [6, 6], [4, 2], [2, 4]])
        got = components(7, pairs)
        assert [c.tolist() for c in got] == [[0, 3, 6], [1, 5], [2, 4]]


class TestSampleMesh:
    def test_monte_carlo_mean(self):
        cloud = sample_mesh(UNIT_SQUARE, 10000, seed=11)
        assert np.linalg.norm(cloud.points.mean(axis=0) - (0.5, 0.5, 0.0)) < 0.02

    def test_single_triangle_membership(self):
        tri = TriangleMesh(vertices=np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0.0]]),
                           triangles=np.array([[0, 1, 2]]))
        cloud = sample_mesh(tri, 1, seed=2)
        p = cloud.points[0]
        assert reference_triangle_distance(p, *tri.triangle_vertices[0]) < 1e-9

    def test_deterministic(self):
        a = sample_mesh(UNIT_SQUARE, 500, seed=9)
        b = sample_mesh(UNIT_SQUARE, 500, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_mesh(UNIT_SQUARE, 0, seed=0)

    @staticmethod
    def drawn_triangles_and_points(mesh, count, seed):
        # The sampler's draws and arithmetic, spelled out: triangles by area,
        # then square-root barycentric weights.
        rng = np.random.default_rng(seed)
        areas = mesh.areas()
        tri_idx = rng.choice(len(mesh), size=count, p=areas / areas.sum())
        tv = mesh.triangle_vertices[tri_idx]
        r = np.sqrt(rng.random(count))
        s = rng.random(count)
        pts = ((1.0 - r)[:, None] * tv[:, 0] + (r * (1.0 - s))[:, None] * tv[:, 1]
               + (r * s)[:, None] * tv[:, 2])
        return tri_idx, pts

    def test_normals_are_unit_triangle_normals(self):
        mesh = plate_scene(width=50, height=40, holes=4, spacing=0.6, seed=0).mesh
        cloud = sample_mesh(mesh, 5000, seed=3)
        tri_idx, _ = self.drawn_triangles_and_points(mesh, 5000, 3)
        assert np.abs(np.linalg.norm(cloud.normals, axis=1) - 1.0).max() < 1e-12
        tv = mesh.triangle_vertices[tri_idx]
        for i, j in ((0, 1), (1, 2), (2, 0)):
            edge = tv[:, j] - tv[:, i]
            edge /= np.linalg.norm(edge, axis=1, keepdims=True)
            assert np.abs((cloud.normals * edge).sum(axis=1)).max() < 1e-12

    def test_points_unchanged_by_the_normals(self):
        # The normals draw nothing from the generator, so the points are the
        # same, bit for bit, as from the sampler without them.
        mesh = plate_scene(width=50, height=40, holes=4, spacing=0.6, seed=0).mesh
        _, expected = self.drawn_triangles_and_points(mesh, 5000, 3)
        assert np.array_equal(sample_mesh(mesh, 5000, seed=3).points, expected)

    def test_area_proportional_selection(self):
        # Two triangles with a 3:1 area ratio share the plane z=0.
        mesh = TriangleMesh(
            vertices=np.array([
                [0, 0, 0], [3, 0, 0], [0, 2, 0],    # area 3
                [10, 0, 0], [11, 0, 0], [10, 2, 0],  # area 1
            ], dtype=float),
            triangles=np.array([[0, 1, 2], [3, 4, 5]]),
        )
        cloud = sample_mesh(mesh, 8000, seed=5)
        in_big = cloud.points[:, 0] < 5.0
        counts = [int(in_big.sum()), int((~in_big).sum())]
        result = chisquare(counts, f_exp=[6000, 2000])
        assert result.pvalue > 0.01


# ---------------------------------------------------------------------------
# Normals and curvature
# ---------------------------------------------------------------------------

def sphere_cloud(rng, n=2000, radius=1.0):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return PointCloud(points=radius * v)


def fibonacci_sphere(n=2000, radius=1.0) -> PointCloud:
    i = np.arange(n)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    pts = radius * np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return PointCloud(points=pts)


class TestNormalsCurvature:
    def test_flat_grid(self):
        xs = np.arange(20) * 0.1
        pts = np.array([(x, y, 0.0) for x in xs for y in xs])
        cloud = estimate_normals_and_curvature(PointCloud(points=pts), k=8)
        assert cloud.curvatures.max() < 1e-6
        assert np.abs(np.abs(cloud.normals[:, 2]) - 1.0).max() < 1e-9

    def test_sphere_curvature(self):
        k = 20
        cloud = estimate_normals_and_curvature(fibonacci_sphere(n=2000), k=k)
        curv = cloud.curvatures
        assert (curv > 0).all()
        assert curv.std() / curv.mean() < 0.3
        # Independent check: covariance eigenvalues of an ideal spherical cap
        # holding the same point share, evaluated by dense quadrature.
        cap_angle = np.arccos(1.0 - 2.0 * (k + 1) / 2000.0)
        thetas = np.linspace(0, cap_angle, 400)
        weights = np.sin(thetas)
        ring = np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=1)
        # Rotational symmetry: E[x^2] = E[y^2] = E[sin^2]/2, E[z^2] about mean.
        w = weights / weights.sum()
        ez = (w * ring[:, 2]).sum()
        var_xy = (w * ring[:, 0] ** 2).sum() / 2.0
        var_z = (w * (ring[:, 2] - ez) ** 2).sum()
        expected = min(var_z, var_xy) / (2 * var_xy + var_z)
        assert abs(curv.mean() - expected) / expected < 0.4

    def test_degenerate_neighborhood_warns(self):
        pts = np.vstack([np.zeros((12, 3)), np.array([[5.0, 0.0, 0.0]])])
        with pytest.warns(DegenerateNeighborhoodWarning):
            cloud = estimate_normals_and_curvature(PointCloud(points=pts), k=5)
        assert cloud.curvatures[0] == 0.0
        assert np.allclose(cloud.normals[0], (0, 0, 1))

    def test_collinear_neighborhood_degenerate(self):
        pts = np.array([(float(i), 0.0, 0.0) for i in range(12)])
        with pytest.warns(DegenerateNeighborhoodWarning):
            cloud = estimate_normals_and_curvature(PointCloud(points=pts), k=3)
        assert cloud.curvatures.max() == 0.0

    def test_rigid_invariance(self):
        rng = np.random.default_rng(31)
        cloud = sphere_cloud(rng, n=600)
        base = estimate_normals_and_curvature(cloud, k=12)
        moved = estimate_normals_and_curvature(cloud.transformed(random_rigid(rng)), k=12)
        assert np.abs(base.curvatures - moved.curvatures).max() < 1e-9

    def test_keeps_the_neighbor_table(self):
        # Region growing walks the neighborhoods the normals came from.
        cloud = sphere_cloud(np.random.default_rng(32), n=300)
        enriched = estimate_normals_and_curvature(cloud, k=12)
        expected = cKDTree(cloud.points).query(cloud.points, k=13)[1]
        assert np.array_equal(enriched.neighbors, expected)

    def test_reads_the_table_it_is_given(self):
        # Every row names the same 13 points, so every normal is theirs.
        cloud = sphere_cloud(np.random.default_rng(33), n=300)
        table = np.tile(np.arange(13), (300, 1))
        enriched = estimate_normals_and_curvature(replace(cloud, neighbors=table), k=12)
        assert np.array_equal(enriched.neighbors, table)
        assert np.abs(np.abs(enriched.normals @ enriched.normals[0]) - 1.0).max() < 1e-12
        with pytest.raises(ValueError, match="13 columns"):
            estimate_normals_and_curvature(replace(cloud, neighbors=table), k=8)

    def test_spacing_is_the_median_spacing(self):
        cloud = sphere_cloud(np.random.default_rng(34), n=500)
        assert estimate_normals_and_curvature(cloud, k=12).spacing == median_spacing(cloud.points)

    def test_preconditions(self):
        cloud = PointCloud(points=np.random.default_rng(0).normal(size=(10, 3)))
        with pytest.raises(ValueError):
            estimate_normals_and_curvature(cloud, k=2)
        with pytest.raises(ValueError):
            estimate_normals_and_curvature(cloud, k=10)


# ---------------------------------------------------------------------------
# Outlier removal
# ---------------------------------------------------------------------------

class TestRemoveOutliers:
    def test_far_point_removed(self):
        rng = np.random.default_rng(17)
        plane = rng.uniform(0, 1, size=(400, 3))
        plane[:, 2] = 0.0
        pts = np.vstack([plane, [[50.0, 50.0, 100.0]]])
        cloud, removed = remove_outliers(PointCloud(points=pts), k=8, stddev_mult=2.0, normals_k=16)
        assert removed == 1
        assert len(cloud) == 400
        # Brute-force recomputation of the rule agrees.
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        mean_k = np.sort(d, axis=1)[:, :8].mean(axis=1)
        expect = mean_k > mean_k.mean() + 2.0 * mean_k.std()
        assert expect.sum() == 1 and expect[-1]

    def test_uniform_ring_keeps_all(self):
        t = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        ring = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
        _, removed = remove_outliers(PointCloud(points=ring), k=4, stddev_mult=2.0, normals_k=16)
        assert removed == 0

    def test_infinite_mult_is_identity(self):
        rng = np.random.default_rng(23)
        cloud = PointCloud(points=rng.normal(size=(100, 3)))
        out, removed = remove_outliers(cloud, k=8, stddev_mult=np.inf, normals_k=16)
        assert removed == 0
        assert np.array_equal(out.points, cloud.points)

    @pytest.mark.parametrize("n, stddev_mult", [
        (300, 2.0), (300, np.inf), (17, np.inf), (16, np.inf), (17, 2.0)])
    def test_kept_cloud_carries_the_normals_table(self, n, stddev_mult):
        # The filter's one query makes the table the normals read. A row that
        # named a dropped point is queried again, and a cloud left with
        # normals_k points or fewer gets no table, where cKDTree would fill
        # the missing columns with the index n.
        pts = np.random.default_rng(37).normal(size=(n, 3))
        pts[-1] = 50.0  # a far point, dropped at a finite multiple
        out, removed = remove_outliers(PointCloud(points=pts), k=8,
                                       stddev_mult=stddev_mult, normals_k=16)
        assert len(out) == n - removed
        if len(out) <= 16:
            assert out.neighbors is None
            return
        assert np.array_equal(out.neighbors, cKDTree(out.points).query(out.points, k=17)[1])
        fresh = estimate_normals_and_curvature(PointCloud(points=out.points), k=16)
        assert np.array_equal(estimate_normals_and_curvature(out, k=16).normals, fresh.normals)
