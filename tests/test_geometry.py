"""Core geometry: spatial queries, mesh distance, sampling, local estimates."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

from partcheck import geometry
from partcheck.geometry import (
    DegenerateNeighborhoodWarning,
    MeshDistance,
    PointCloud,
    RigidTransform,
    TriangleMesh,
    clean_triangles,
    estimate_normals_and_curvature,
    median_spacing,
    remove_outliers,
    sample_mesh,
)
from partcheck.synth import plate_scene


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

    def test_query_memory_is_bounded(self):
        # Points are queried in small blocks, so the working set of (point,
        # triangle) pairs does not grow with the cloud: about 8.5 MB here,
        # where 20,000-point blocks take 73 MB.
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
        cloud, removed = remove_outliers(PointCloud(points=pts), k=8, stddev_mult=2.0)
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
        _, removed = remove_outliers(PointCloud(points=ring), k=4, stddev_mult=2.0)
        assert removed == 0

    def test_infinite_mult_is_identity(self):
        rng = np.random.default_rng(23)
        cloud = PointCloud(points=rng.normal(size=(100, 3)))
        out, removed = remove_outliers(cloud, k=8, stddev_mult=np.inf)
        assert removed == 0
        assert np.array_equal(out.points, cloud.points)
