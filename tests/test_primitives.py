"""Primitive fitting, region growing, the segmentation energy, split/merge
refinement and the part-level error."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative

from partcheck import geometry, primitives
from partcheck.config import PipelineConfig
from partcheck.geometry import (
    MeshDistance,
    PointCloud,
    RigidTransform,
    TriangleMesh,
    estimate_normals_and_curvature,
)
from partcheck.primitives import (
    Cone,
    Configuration,
    FitError,
    Primitive,
    PrimitiveKind,
    _adjacent,
    _fit_shape,
    energy,
    merge,
    part_level_error,
    patch_distances,
    refine,
    region_grow,
    split,
)
from partcheck.synth import generate_synthetic_scene, plate_scene


def random_rigid(rng) -> RigidTransform:
    m = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(m)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return RigidTransform(q, rng.uniform(-3, 3, 3))


# ---------------------------------------------------------------------------
# Synthetic surface generators (exact, independent of the fitters)
# ---------------------------------------------------------------------------

def cylinder_points(rng, radius=2.0, n=200, z_range=(-2, 2)):
    t = rng.uniform(0, 2 * np.pi, n)
    z = rng.uniform(*z_range, n)
    return np.column_stack([radius * np.cos(t), radius * np.sin(t), z])


def cone_points(rng, half_angle=np.pi / 6, n=300, h_range=(1.0, 3.0)):
    h = rng.uniform(*h_range, n)
    t = rng.uniform(0, 2 * np.pi, n)
    r = h * np.tan(half_angle)
    return np.column_stack([r * np.cos(t), r * np.sin(t), h])


def sphere_points(rng, radius=1.5, n=300):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return radius * v


def cylinder_strip(radius, chord, width):
    """A 40 x 60 grid over a strip of a cylinder about the y axis, with its
    exact normals: ``chord`` across the axis, ``width`` along it."""
    half = np.arcsin(chord / (2 * radius))
    t, y = np.meshgrid(np.linspace(-half, half, 40), np.linspace(0.0, width, 60))
    t, y = t.ravel(), y.ravel()
    normals = np.column_stack([np.sin(t), np.zeros_like(t), np.cos(t)])
    return radius * normals + np.column_stack([np.zeros_like(y), y, np.zeros_like(y)]), normals


def normals_of(pts):
    """PCA normals at k = 10, which the cylinder and cone fits read."""
    return estimate_normals_and_curvature(PointCloud(points=pts), k=10).normals


def plane_points(rng, n=300, extent=2.0):
    pts = rng.uniform(-extent, extent, size=(n, 3))
    pts[:, 2] = 0.0
    return pts


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

class TestFitPrimitive:
    def test_plane_exact(self):
        rng = np.random.default_rng(0)
        plane, rms = _fit_shape(PrimitiveKind.PLANE, plane_points(rng))
        assert abs(abs(plane.normal[2]) - 1.0) < 1e-12
        assert abs(plane.offset) < 1e-12
        assert rms < 1e-12

    def test_sphere_symmetric_six(self):
        pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                        [0, -1, 0], [0, 0, 1], [0, 0, -1.0]])
        sphere, _ = _fit_shape(PrimitiveKind.SPHERE, pts)
        assert np.abs(sphere.center).max() < 1e-9
        assert sphere.radius == pytest.approx(1.0, abs=1e-9)

    def test_cylinder_noiseless(self):
        rng = np.random.default_rng(1)
        pts = cylinder_points(rng)
        cyl, _ = _fit_shape(PrimitiveKind.CYLINDER, pts, normals_of(pts))
        assert cyl.radius == pytest.approx(2.0, abs=1e-6)
        assert abs(abs(cyl.axis[2]) - 1.0) < 1e-6

    def test_cone_noiseless(self):
        rng = np.random.default_rng(2)
        pts = cone_points(rng)
        cone, _ = _fit_shape(PrimitiveKind.CONE, pts, normals_of(pts))
        assert cone.half_angle == pytest.approx(np.pi / 6, abs=1e-4)
        assert np.abs(cone.apex).max() < 1e-3

    @pytest.mark.parametrize("noise, trials", [(0.0, 1), (0.5, 3)])
    def test_cone_axis_trials_stop_at_the_first_adequate_fit(self, monkeypatch, noise, trials):
        # This cone's axis is the normal moment's first eigenvector, so a
        # clean scan needs one trial. Noise above inlier_eps / 4 (here half
        # of inlier_eps) leaves every trial inadequate, so all three run.
        eps = PipelineConfig().inlier_eps
        rng = np.random.default_rng(2)
        pts = cone_points(rng)
        pts += rng.normal(scale=noise * eps, size=pts.shape)
        calls = []
        once = primitives._fit_cone_once
        monkeypatch.setattr(primitives, "_fit_cone_once",
                            lambda *a: calls.append(1) or once(*a))
        cone, _ = primitives._fit_cone(pts, normals_of(pts),
                                       adequate_rms=primitives._ADEQUATE_RMS_FRACTION * eps)
        assert isinstance(cone, Cone)
        assert len(calls) == trials

    @pytest.mark.parametrize("generator, tried", [
        (plane_points, ["plane"]),
        (sphere_points, ["plane", "sphere"]),
        (cylinder_points, ["plane", "cylinder"]),
        (cone_points, ["plane", "sphere", "cylinder", "cone"]),
    ])
    def test_no_kind_is_fitted_after_an_adequate_one(self, monkeypatch, generator, tried):
        # Noise of a tenth of inlier_eps: each surface's own kind fits it to
        # within inlier_eps / 4, and every earlier kind leaves more. The
        # cylinder's normals lie on a great circle, so it comes before the
        # sphere.
        eps = PipelineConfig().inlier_eps
        rng = np.random.default_rng(7)
        pts = generator(rng)
        pts += rng.normal(scale=0.1 * eps, size=pts.shape)
        calls = []
        fit_shape = primitives._fit_shape
        monkeypatch.setattr(primitives, "_fit_shape", lambda kind, *a, **k:
                            calls.append(kind.value) or fit_shape(kind, *a, **k))
        shape, _ = primitives._best_kind_fit(pts, normals_of(pts), eps)
        assert calls == tried
        assert shape.kind.value == tried[-1]

    @pytest.mark.parametrize("width, r_factor, kind", [
        (12.0, 0.12, PrimitiveKind.CYLINDER),
        (12.0, 0.2, PrimitiveKind.PLANE),
        (4.0, 0.09, PrimitiveKind.CYLINDER),
        (4.0, 0.14, PrimitiveKind.SPHERE),
    ])
    def test_a_shallow_strip_takes_the_first_adequate_kind(self, width, r_factor, kind):
        # A cylindrical strip of chord 4 and radius R = r_factor * 16 / eps.
        # Long along its axis (width 12), no sphere fits it, and its best
        # plane reaches inlier_eps / 4 at R = 0.15 l^2 / eps. Square (width
        # 4), a sphere fits it to 0.7 of the plane's RMS, so it reads as a
        # sphere from about R = 0.11 l^2 / eps. The cylinder fits every strip
        # exactly, but an earlier adequate kind stops it.
        eps = PipelineConfig().inlier_eps
        pts, normals = cylinder_strip(r_factor * 16.0 / eps, 4.0, width)
        shape, _ = primitives._best_kind_fit(pts, normals, eps)
        assert shape.kind is kind
        _, cylinder_rms = _fit_shape(PrimitiveKind.CYLINDER, pts, normals)
        assert cylinder_rms < 1e-6

    @pytest.mark.parametrize("seed, kind", [(0, PrimitiveKind.PLANE),
                                            (1, PrimitiveKind.CYLINDER)])
    def test_a_plane_within_five_percent_of_the_best_rms_wins(self, seed, kind):
        # A noisy strip of a cylinder, R = 100, chord 10 and length 10:
        # noise 0.12 keeps every kind inadequate, so all are fitted, and the
        # cylinder's RMS is the lowest. At seed 0 the plane's is 4.4% above
        # it and the plane is chosen; at seed 1 it is 5.4% above.
        eps = PipelineConfig().inlier_eps
        rng = np.random.default_rng(seed)
        half = np.arcsin(10.0 / (2 * 100.0))
        t, y = rng.uniform(-half, half, 3000), rng.uniform(0.0, 10.0, 3000)
        normals = np.column_stack([np.sin(t), np.zeros_like(t), np.cos(t)])
        pts = 100.0 * normals + np.column_stack([np.zeros_like(y), y, np.zeros_like(y)])
        pts += rng.normal(scale=0.12, size=pts.shape)
        rms = {}
        for only in (PrimitiveKind.PLANE, PrimitiveKind.CYLINDER):
            shape, _ = _fit_shape(only, *primitives._fit_subset(pts, normals))
            rms[only] = np.sqrt(np.mean(shape.distance(pts) ** 2))
        assert primitives._ADEQUATE_RMS_FRACTION * eps < rms[PrimitiveKind.CYLINDER]
        assert rms[PrimitiveKind.CYLINDER] < rms[PrimitiveKind.PLANE]
        assert (rms[PrimitiveKind.PLANE] <= 1.05 * rms[PrimitiveKind.CYLINDER]) == (
            kind is PrimitiveKind.PLANE)
        shape, _ = primitives._best_kind_fit(pts, normals, eps)
        assert shape.kind is kind

    def test_a_strip_plane_reaches_the_adequate_rms_where_the_docstring_says(self):
        # Best-plane RMS of a circular strip is about 0.3 of its sag
        # l^2 / (8 R), so it equals inlier_eps / 4 at R = 0.15 l^2 / eps.
        eps = PipelineConfig().inlier_eps
        chord = 4.0
        radius = 0.15 * chord ** 2 / eps
        pts, _ = cylinder_strip(radius, chord, 12.0)
        _, rms = _fit_shape(PrimitiveKind.PLANE, pts)
        assert rms / (chord ** 2 / (8 * radius)) == pytest.approx(0.3, rel=0.06)
        assert rms == pytest.approx(primitives._ADEQUATE_RMS_FRACTION * eps, rel=0.06)

    def test_steep_cone_found_on_the_last_axis(self):
        # At a 50-degree half-angle the axis is the normal moment's largest
        # eigenvector, the last one tried.
        half_angle = np.deg2rad(50.0)
        pts = cone_points(np.random.default_rng(2), half_angle=half_angle)
        normals = normals_of(pts)
        _, evecs = np.linalg.eigh(primitives._normal_moments(normals))
        assert abs(evecs[2, 2]) > 0.99
        eps = PipelineConfig().inlier_eps
        cone, _ = primitives._fit_cone(pts, normals,
                                       adequate_rms=primitives._ADEQUATE_RMS_FRACTION * eps)
        assert cone.half_angle == pytest.approx(half_angle, abs=1e-4)
        assert np.abs(cone.apex).max() < 1e-3

    def test_insufficient_points(self):
        with pytest.raises(FitError):
            _fit_shape(PrimitiveKind.CYLINDER, np.zeros((4, 3)))
        with pytest.raises(FitError):
            _fit_shape(PrimitiveKind.PLANE, np.zeros((2, 3)))

    def test_degenerate_data_raises(self):
        rng = np.random.default_rng(3)
        with pytest.raises(FitError):
            _fit_shape(PrimitiveKind.SPHERE, plane_points(rng, n=100))

    def test_cone_refit_rejects_runaway_apex(self):
        # A cylinder is a cone with its apex at infinity: the cone fit
        # rejects the far apex.
        rng = np.random.default_rng(0)
        pts = cylinder_points(rng, radius=1.0, n=600, z_range=(0, 3))
        pts += rng.normal(scale=0.005, size=pts.shape)
        with pytest.raises(FitError, match="apex out of range"):
            _fit_shape(PrimitiveKind.CONE, pts, normals_of(pts))

    def test_pratt_circle_memory_is_linear_in_points(self):
        # The fit needs only V of its SVD; a full U would be n^2 floats,
        # 32 MB at the 2,000 points a region's fit subset holds.
        rng = np.random.default_rng(6)
        t = rng.uniform(0.0, 2.0 * np.pi, 2000)
        xy = np.column_stack([3.0 + 2.0 * np.cos(t), -1.0 + 2.0 * np.sin(t)])
        xy += rng.normal(scale=1e-3, size=xy.shape)
        tracemalloc.start()
        try:
            cx, cy, r = primitives._pratt_circle_2d(xy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (cx, cy, r) == pytest.approx((3.0, -1.0, 2.0), abs=1e-3)
        assert peak < 4_000_000

    def test_pratt_circle_three_points(self):
        # Below 4 points the null row of V comes from the full SVD.
        xy = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]) * 2.0 + (0.5, -0.5)
        cx, cy, r = primitives._pratt_circle_2d(xy)
        assert (cx, cy, r) == pytest.approx((0.5, -0.5, 2.0), abs=1e-12)

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(4)
        transform = random_rigid(rng)
        cyl_pts = cylinder_points(rng, radius=1.3, n=300)
        moved_pts = transform.apply(cyl_pts)
        base, _ = _fit_shape(PrimitiveKind.CYLINDER, cyl_pts, normals_of(cyl_pts))
        moved, _ = _fit_shape(PrimitiveKind.CYLINDER, moved_pts, normals_of(moved_pts))
        assert moved.radius == pytest.approx(base.radius, abs=1e-9)
        expected_axis = transform.apply_directions(base.axis.reshape(1, 3))[0]
        assert abs(abs(expected_axis @ moved.axis) - 1.0) < 1e-9

        cone_pts = cone_points(rng, half_angle=0.5, n=300)
        moved_pts = transform.apply(cone_pts)
        base_c, _ = _fit_shape(PrimitiveKind.CONE, cone_pts, normals_of(cone_pts))
        moved_c, _ = _fit_shape(PrimitiveKind.CONE, moved_pts, normals_of(moved_pts))
        assert moved_c.half_angle == pytest.approx(base_c.half_angle, abs=1e-9)
        assert np.allclose(moved_c.apex,
                           transform.apply(base_c.apex.reshape(1, 3))[0], atol=1e-6)

    def test_model_selection_sanity(self):
        # On each kind's own noiseless surface, nothing else fits better.
        rng = np.random.default_rng(5)
        generators = {
            PrimitiveKind.PLANE: plane_points(rng),
            PrimitiveKind.SPHERE: sphere_points(rng),
            PrimitiveKind.CYLINDER: cylinder_points(rng),
            PrimitiveKind.CONE: cone_points(rng),
        }
        for true_kind, pts in generators.items():
            _, own = _fit_shape(true_kind, pts, normals_of(pts))
            for other in PrimitiveKind:
                try:
                    _, rms = _fit_shape(other, pts, normals_of(pts))
                except FitError:
                    continue
                assert own <= rms + 1e-9


def captured_problems(monkeypatch):
    """Record the (residual, Jacobian) pair of every least-squares polish."""
    problems = []
    least_squares = primitives.least_squares

    def recording(fun, x0, jac, **kwargs):
        problems.append((fun, jac))
        return least_squares(fun, x0, jac=jac, **kwargs)

    monkeypatch.setattr(primitives, "least_squares", recording)
    return problems


def assert_jacobian_matches(fun, jac, x):
    """The analytic Jacobian equals central differences within 1e-6 relative."""
    numeric = approx_derivative(fun, x, method="3-point")
    analytic = jac(x)
    assert analytic.shape == numeric.shape
    assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(numeric).max()
    return analytic


class TestAnalyticJacobians:
    # Each fit's Jacobian, taken at seeded random parameters near its own
    # solution, against scipy's 3-point differences of its residual.

    def test_sphere(self, monkeypatch):
        rng = np.random.default_rng(30)
        pts = sphere_points(rng) + rng.normal(scale=0.01, size=(300, 3))
        problems = captured_problems(monkeypatch)
        sphere, _ = _fit_shape(PrimitiveKind.SPHERE, pts)
        (fun, jac), = problems
        for _ in range(5):
            x = np.append(sphere.center, sphere.radius) + rng.normal(scale=0.3, size=4)
            assert_jacobian_matches(fun, jac, x)

    def test_cylinder(self, monkeypatch):
        rng = np.random.default_rng(31)
        pts = cylinder_points(rng) + rng.normal(scale=0.01, size=(200, 3))
        problems = captured_problems(monkeypatch)
        _fit_shape(PrimitiveKind.CYLINDER, pts, normals_of(pts))
        (fun, jac), = problems
        for _ in range(5):
            # Anchor offsets, axis turns and radius, as the fit parametrizes them.
            x = np.array([0.0, 0.0, 0.0, 0.0, 2.0]) + rng.normal(scale=[0.5, 0.5, 0.3, 0.3, 0.5])
            assert_jacobian_matches(fun, jac, x)

    def test_cone_in_front_of_and_behind_the_apex(self, monkeypatch):
        rng = np.random.default_rng(32)
        pts = cone_points(rng) + rng.normal(scale=0.01, size=(300, 3))
        problems = captured_problems(monkeypatch)
        _fit_shape(PrimitiveKind.CONE, pts, normals_of(pts))
        fun, jac = problems[0]
        for _ in range(5):
            # The apex among the points, so that some lie behind it, where
            # the residual is the distance to the apex and does not depend
            # on the axis or the half-angle.
            x = np.concatenate([pts.mean(axis=0) + rng.normal(scale=0.3, size=3),
                                rng.normal(scale=0.3, size=2), [rng.uniform(0.2, 1.2)]])
            analytic = assert_jacobian_matches(fun, jac, x)
            behind = (analytic[:, 3:] == 0.0).all(axis=1)
            assert 0 < behind.sum() < len(pts)


class TestKindOrderAndConeRace:
    def test_a_sphere_cap_is_tried_as_a_sphere_first(self, monkeypatch):
        # A 20-degree cap of radius 10: its normals' second moment reads
        # 0.030, 0.030 and 0.94. The two small eigenvalues are alike, so the
        # normals do not lie on a great circle, and the sphere keeps its
        # place before the cylinder.
        i = np.arange(2000) + 0.5
        polar = np.arccos(1 - (1 - np.cos(np.deg2rad(20.0))) * i / 2000)
        azimuth = np.pi * (1 + 5 ** 0.5) * i
        normals = np.column_stack([np.sin(polar) * np.cos(azimuth),
                                   np.sin(polar) * np.sin(azimuth), np.cos(polar)])
        rng = np.random.default_rng(33)
        pts = 10.0 * normals + rng.normal(scale=0.005, size=normals.shape)
        smallest, middle, largest = np.linalg.eigvalsh(primitives._normal_moments(normals))
        assert smallest > primitives._GREAT_CIRCLE_SMALLEST
        assert middle < primitives._GREAT_CIRCLE_MIDDLE
        calls = []
        fit_shape = primitives._fit_shape
        monkeypatch.setattr(primitives, "_fit_shape", lambda kind, *a, **k:
                            calls.append(kind.value) or fit_shape(kind, *a, **k))
        shape, _ = primitives._best_kind_fit(pts, normals, PipelineConfig().inlier_eps)
        assert calls == ["plane", "sphere"]
        assert shape.kind is PrimitiveKind.SPHERE
        assert shape.radius == pytest.approx(10.0, rel=0.005)

    def test_plate_bores_never_reach_the_sphere_fit(self, monkeypatch):
        # A bore's normals lie on a great circle, so its cylinder is tried
        # before the sphere and, being adequate, ends its trials.
        scene = generate_synthetic_scene("plate width=40 height=40 holes=4 spacing=0.8", seed=1)
        calls = []
        fit_sphere = primitives._fit_sphere
        monkeypatch.setattr(primitives, "_fit_sphere",
                            lambda *a: calls.append(1) or fit_sphere(*a))
        config = region_grow(enriched_cloud(scene.cloud.points), PipelineConfig())
        kinds = [p.kind for p in config.primitives]
        assert kinds.count(PrimitiveKind.CYLINDER) == 4
        assert set(kinds) == {PrimitiveKind.PLANE, PrimitiveKind.CYLINDER}
        assert calls == []

    def test_collage_keeps_its_six_kinds(self):
        # The benchmark's collage part: a cylinder, a sphere, two cones and
        # two planes. Only the cylinder's normals read as a great circle.
        scene = generate_synthetic_scene("collage count=6 spacing=0.15 noise=0.01", seed=1)
        config = refine(region_grow(enriched_cloud(scene.cloud.points), PipelineConfig()))
        assert sorted(p.kind.value for p in config.primitives) == sorted(scene.truth.kinds)
        assert sorted(scene.truth.kinds) == ["cone", "cone", "cylinder", "plane", "plane",
                                             "sphere"]

    def test_raced_cone_is_the_all_starts_winner(self, monkeypatch):
        # The dented bracket's sheet region: its first start is not
        # adequate, so the starts race; the one finished is the one that
        # wins when every start runs to the cap.
        scene = generate_synthetic_scene(
            "bracket a=30 b=20 c=15 spacing=0.5 noise=0.005 defect_depth=0.3 defect_radius=4",
            seed=1)
        calls = []
        fit_cone = primitives._fit_cone
        monkeypatch.setattr(primitives, "_fit_cone",
                            lambda *a, **k: calls.append((a, k)) or fit_cone(*a, **k))
        region_grow(enriched_cloud(scene.cloud.points), PipelineConfig())
        monkeypatch.undo()
        ((pts, normals), kwargs), = calls
        adequate = kwargs["adequate_rms"]

        full = []
        _, evecs = np.linalg.eigh(primitives._normal_moments(normals))
        for col in range(3):
            shape, rms, converged = primitives._fit_cone_once(pts, normals, evecs[:, col])
            extent = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
            if converged and (np.linalg.norm(shape.apex - pts.mean(axis=0))
                              <= primitives._SIZE_LIMIT_FACTOR * extent):
                full.append((rms, shape))
        assert primitives._fit_cone_once(pts, normals, evecs[:, 0])[1] > adequate
        best_rms, best = min(full, key=lambda fit: fit[0])

        budgets = []
        once = primitives._fit_cone_once
        monkeypatch.setattr(primitives, "_fit_cone_once",
                            lambda *a: budgets.append(a[3:]) or once(*a))
        cone, rms = primitives._fit_cone(pts, normals, adequate_rms=adequate)
        assert budgets.count(()) == 1   # one start run on past the race
        assert rms == pytest.approx(best_rms, rel=1e-6)
        assert np.abs(cone.apex - best.apex).max() <= 1e-6 * np.abs(best.apex).max()
        assert np.abs(cone.axis - best.axis).max() <= 1e-6
        assert cone.half_angle == pytest.approx(best.half_angle, rel=1e-6)


class TestPrimitiveDistance:
    def test_plane_and_sphere_basics(self):
        plane, _ = _fit_shape(PrimitiveKind.PLANE, plane_points(np.random.default_rng(0)))
        assert plane.distance((0.0, 0.0, 5.0))[0] == pytest.approx(5.0)
        sphere, _ = _fit_shape(PrimitiveKind.SPHERE, np.array(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1.0]]))
        assert sphere.distance((2.0, 0.0, 0.0))[0] == pytest.approx(1.0)

    def test_against_dense_sampling(self):
        # Distances agree with the minimum over a dense surface sampling.
        rng = np.random.default_rng(6)
        u = rng.uniform(0, 2 * np.pi, 1_000_000)

        pts = cylinder_points(rng, radius=1.5)
        cyl, _ = _fit_shape(PrimitiveKind.CYLINDER, pts, normals_of(pts))
        z = rng.uniform(-4, 4, len(u))
        surf = np.column_stack([1.5 * np.cos(u), 1.5 * np.sin(u), z])
        for _ in range(5):
            p = rng.uniform(-2, 2, 3)
            dense = np.linalg.norm(surf - p, axis=1).min()
            got = cyl.distance(p)[0]
            if abs(p[2]) < 3.0:   # inside the densely sampled span
                assert abs(got - dense) < 5e-3

        pts = cone_points(rng, half_angle=0.5)
        cone, _ = _fit_shape(PrimitiveKind.CONE, pts, normals_of(pts))
        h = rng.uniform(0.0, 5.0, len(u))
        r = h * np.tan(0.5)
        surf = np.column_stack([r * np.cos(u), r * np.sin(u), h])
        for _ in range(5):
            p = rng.uniform(-1, 3, 3)
            dense = np.linalg.norm(surf - p, axis=1).min()
            assert abs(cone.distance(p)[0] - dense) < 5e-3

    def test_cone_apex_clamp(self):
        pts = cone_points(np.random.default_rng(7))
        cone, _ = _fit_shape(PrimitiveKind.CONE, pts, normals_of(pts))
        # Behind the apex the nearest surface point is the apex itself.
        assert cone.distance((0, 0, -2.0))[0] == pytest.approx(2.0, abs=1e-3)


# ---------------------------------------------------------------------------
# Region growing
# ---------------------------------------------------------------------------

def enriched_cloud(points, k=16):
    return estimate_normals_and_curvature(PointCloud(points=points), k=k)


class TestRegionGrow:
    def test_two_perpendicular_planes(self):
        rng = np.random.default_rng(8)
        xs = np.linspace(0, 4, 34)
        a = np.array([(x, y, 0.0) for x in xs for y in xs])
        b = np.array([(x, 6.0, z) for x in xs for z in np.linspace(0.3, 4.3, 34)])
        pts = np.vstack([a, b]) + rng.normal(scale=0.002, size=(len(a) + len(b), 3))
        cloud = enriched_cloud(pts)
        config = region_grow(cloud, PipelineConfig(min_points=30))
        assert len(config.primitives) == 2
        assert all(p.kind is PrimitiveKind.PLANE for p in config.primitives)
        labels = config.labels()
        truth = np.concatenate([np.zeros(len(a), int), np.ones(len(b), int)])
        agreement = max(
            ((labels == 0) & (truth == 0)).sum() + ((labels == 1) & (truth == 1)).sum(),
            ((labels == 1) & (truth == 0)).sum() + ((labels == 0) & (truth == 1)).sum(),
        )
        assert agreement / len(pts) >= 0.95

    def test_single_plane(self):
        rng = np.random.default_rng(9)
        xs = np.linspace(0, 4, 40)
        pts = np.array([(x, y, 0.0) for x in xs for y in xs])
        pts += rng.normal(scale=0.001, size=pts.shape)
        config = region_grow(enriched_cloud(pts), PipelineConfig(min_points=30))
        assert len(config.primitives) == 1
        assert config.primitives[0].kind is PrimitiveKind.PLANE

    def test_pure_noise_yields_nothing(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(1500, 3))
        pts = pts[np.linalg.norm(pts, axis=1) < 1.0]
        config = region_grow(enriched_cloud(pts),
                             PipelineConfig(min_points=30, region_curv_thresh=0.04))
        assert len(config.primitives) == 0

    def test_all_four_kinds_with_one_cone_fit(self, monkeypatch):
        # Four surfaces 10 apart; only the cone region is left unexplained
        # by a plane, sphere or cylinder, so only it gets a cone fit.
        rng = np.random.default_rng(11)
        g = np.linspace(0, 4, 40)
        plane = np.array([(x, y, 0.0) for x in g for y in g])
        t, z = np.meshgrid(np.linspace(0, 2 * np.pi, 60, endpoint=False),
                           np.linspace(0, 3, 30))
        cylinder = np.column_stack([np.cos(t.ravel()), np.sin(t.ravel()), z.ravel()])
        i = np.arange(1500) + 0.5
        polar = np.arccos(1 - 2 * i / 1500)
        azimuth = np.pi * (1 + 5 ** 0.5) * i
        sphere = 1.5 * np.column_stack([np.sin(polar) * np.cos(azimuth),
                                        np.sin(polar) * np.sin(azimuth), np.cos(polar)])
        t, h = np.meshgrid(np.linspace(0, 2 * np.pi, 60, endpoint=False),
                           np.linspace(1, 3, 30))
        r = h.ravel() * np.tan(np.pi / 6)
        cone = np.column_stack([r * np.cos(t.ravel()), r * np.sin(t.ravel()), h.ravel()])
        shift = np.array([10.0, 0.0, 0.0])
        pts = np.vstack([plane, cylinder + shift, sphere + 2 * shift, cone + 3 * shift])
        pts += rng.normal(scale=0.005, size=pts.shape)

        calls = []
        fit_cone = primitives._fit_cone
        monkeypatch.setattr(primitives, "_fit_cone",
                            lambda *a, **k: calls.append(1) or fit_cone(*a, **k))
        config = region_grow(enriched_cloud(pts), PipelineConfig(min_points=30))
        assert {p.kind for p in config.primitives} == set(PrimitiveKind)
        assert len(calls) == 1

    def test_normal_signs_do_not_matter(self):
        # Normals are unoriented: flipping any of them must leave every fit,
        # the cone's and the cylinder's included, unchanged bit for bit.
        scene = generate_synthetic_scene("collage count=2 spacing=0.2 noise=0.01", seed=2)
        cloud = estimate_normals_and_curvature(scene.cloud, k=16)
        signs = np.random.default_rng(25).choice([-1.0, 1.0], size=len(cloud))
        flipped = replace(cloud, normals=cloud.normals * signs[:, None])
        base = region_grow(cloud).primitives
        other = region_grow(flipped).primitives
        assert {p.kind for p in base} == {PrimitiveKind.CONE, PrimitiveKind.CYLINDER}
        assert [p.kind for p in other] == [p.kind for p in base]
        for a, b in zip(base, other):
            assert np.array_equal(a.inliers, b.inliers)
            for name, value in vars(a.shape).items():
                assert np.array_equal(getattr(b.shape, name), value), name

    def test_requires_channels(self):
        cloud = PointCloud(points=np.random.default_rng(0).normal(size=(100, 3)))
        with pytest.raises(ValueError):
            region_grow(cloud)
        enriched = enriched_cloud(cloud.points)
        with pytest.raises(ValueError):
            region_grow(replace(enriched, neighbors=None))

    def test_walks_the_neighbors_of_the_normals(self, monkeypatch):
        # One k-NN query serves normal estimation and region growing.
        rng = np.random.default_rng(9)
        xs = np.linspace(0, 4, 40)
        pts = np.array([(x, y, 0.0) for x in xs for y in xs])
        cloud = enriched_cloud(pts + rng.normal(scale=0.001, size=pts.shape))
        monkeypatch.setattr(primitives, "cKDTree", None)
        assert len(region_grow(cloud, PipelineConfig(min_points=30)).primitives) == 1

    @pytest.mark.parametrize("spec", [
        "collage count=2 spacing=0.2 noise=0.01 rot_deg=20 trans_frac=0.1",
        "plate width=40 height=40 holes=4 spacing=0.8 rot_deg=20 trans_frac=0.1",
    ])
    def test_same_regions_as_a_join_test_per_visit(self, spec, monkeypatch):
        # The regions, their order and their members match a search that
        # tests each pair as it visits it, so the fits and their inliers
        # match bit for bit.
        cloud = enriched_cloud(generate_synthetic_scene(spec, seed=1).cloud.points)
        config = PipelineConfig()
        expected = [r for r in per_visit_regions(cloud, config) if len(r) >= config.min_points]
        fitted = (primitives._band_fit(cloud.points, cloud.normals, members, config.inlier_eps,
                                       config.min_points)
                  for members in expected)
        want = [p for p in fitted if p is not None]

        seen = record_band_fit_regions(monkeypatch)
        got = region_grow(cloud, config).primitives
        assert len(seen) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(seen, expected))
        assert len(got) == len(want) > 1
        for a, b in zip(got, want):
            assert a.kind is b.kind
            assert np.array_equal(a.inliers, b.inliers)
            for name, value in vars(a.shape).items():
                assert np.array_equal(getattr(b.shape, name), value), name

    def test_regions_do_not_depend_on_point_order(self, monkeypatch):
        # Permuting the scan permutes the regions' members and nothing else:
        # mapped back, the same sets come in the same order.
        scene = generate_synthetic_scene(
            "plate width=40 height=40 holes=4 spacing=0.8 rot_deg=20 trans_frac=0.1", seed=3)
        cloud = enriched_cloud(scene.cloud.points)
        perm = np.random.default_rng(31).permutation(len(cloud))
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        permuted = replace(cloud, points=cloud.points[perm], normals=cloud.normals[perm],
                           curvatures=cloud.curvatures[perm],
                           neighbors=inverse[cloud.neighbors[perm]])

        seen = record_band_fit_regions(monkeypatch)
        region_grow(cloud)
        base = list(seen)
        seen.clear()
        region_grow(permuted)
        assert len(base) == len(seen) > 1
        for a, b in zip(base, seen):
            assert np.array_equal(a, np.sort(perm[b]))


def record_band_fit_regions(monkeypatch) -> list[np.ndarray]:
    """The member arrays ``region_grow`` hands ``_band_fit``, in call order."""
    seen = []
    band_fit = primitives._band_fit
    monkeypatch.setattr(primitives, "_band_fit",
                        lambda pts, nrm, members, *a: seen.append(members)
                        or band_fit(pts, nrm, members, *a))
    return seen


def per_visit_regions(cloud: PointCloud, config: PipelineConfig) -> list[np.ndarray]:
    """Region growing's regions, every size, by a breadth-first search from
    each unvisited point in flattest-first order that tests each pair as it
    visits it: both points flat, either among the other's nearest
    neighbors, normals within the angle. Members ascending."""
    from collections import deque

    from scipy.spatial import cKDTree

    pts, normals, curv = cloud.points, cloud.normals, cloud.curvatures
    n = len(pts)
    _, idx = cKDTree(pts).query(pts, k=min(config.normals_k, n - 1) + 1)
    adjacent = [set() for _ in range(n)]
    for i, row in enumerate(idx[:, 1:].tolist()):
        for j in row:
            adjacent[i].add(j)
            adjacent[j].add(i)
    cos_thresh = np.cos(np.deg2rad(config.region_angle_deg))
    flat = curv < config.region_curv_thresh
    visited = np.zeros(n, dtype=bool)
    regions = []
    for seed in np.argsort(curv, kind="stable").tolist():
        if visited[seed]:
            continue
        visited[seed] = True
        members = [seed]
        queue = deque([seed])
        while queue:
            i = queue.popleft()
            for j in adjacent[i]:
                if (not visited[j] and flat[i] and flat[j]
                        and abs(float(normals[i] @ normals[j])) >= cos_thresh):
                    visited[j] = True
                    members.append(j)
                    queue.append(j)
        regions.append(np.sort(np.asarray(members, dtype=np.int64)))
    return regions


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------

def plane_config(points, groups, min_points, weights=(0.6, 0.25, 0.15), eps=0.1,
                 kind=PrimitiveKind.PLANE):
    tunables = PipelineConfig(omega_f=weights[0], omega_s=weights[1], omega_c=weights[2],
                              inlier_eps=eps, min_points=min_points)
    prims = []
    for idx in groups:
        idx = np.asarray(idx, dtype=np.int64)
        shape, _ = _fit_shape(kind, points[idx])
        prims.append(Primitive(shape, idx))
    return Configuration(points=points, primitives=prims, tunables=tunables)


class TestEnergy:
    def test_forced_arithmetic(self):
        # 100 points on two exact planes, fully covered.
        xs = np.linspace(0, 2, 50)
        a = np.array([(x, 0.0, 0.0) for x in xs])
        b = np.array([(x, 1.0, 5.0) for x in xs])
        pts = np.vstack([a, b])
        pts[:, 1] += np.concatenate([np.linspace(0, 1, 50)] * 2)  # avoid collinear
        config = plane_config(pts, [np.arange(50), np.arange(50, 100)], min_points=10)
        terms = energy(config)
        assert terms.fidelity == pytest.approx(0.0, abs=1e-12)
        assert terms.simplicity == pytest.approx(0.2)
        assert terms.completeness == pytest.approx(0.0)
        assert terms.total == pytest.approx(0.05)

    def test_empty_configuration(self):
        pts = np.random.default_rng(0).normal(size=(100, 3))
        config = Configuration(points=pts, primitives=[], tunables=PipelineConfig(min_points=10))
        terms = energy(config)
        assert terms.total == pytest.approx(0.15)
        assert terms.fidelity == 0.0
        assert terms.completeness == 1.0

    def test_against_reference_arithmetic(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(40, 120))
            pts = rng.uniform(-2, 2, size=(n, 3))
            sigma = int(rng.integers(3, 8))
            count = int(rng.integers(0, 3))
            order = rng.permutation(n)
            groups = []
            at = 0
            for _ in range(count):
                size = int(rng.integers(sigma, sigma + 10))
                if at + size > n:
                    break
                groups.append(order[at:at + size])
                at += size
            w = rng.uniform(0.1, 1.0, 3)
            w /= w.sum()
            config = plane_config(pts, groups, min_points=sigma, weights=tuple(w),
                                  eps=10.0)
            terms = energy(config)
            # Reference arithmetic, written out directly.
            total_dist = 0.0
            n_in = 0
            for prim in config.primitives:
                inl = pts[prim.inliers]
                d = np.abs(inl @ prim.shape.normal - prim.shape.offset)
                total_dist += d.sum()
                n_in += len(inl)
            e_f = total_dist / n_in if n_in else 0.0
            e_s = len(config.primitives) / (n // sigma)
            e_c = 1.0 - n_in / n
            expected = w[0] * e_f + w[1] * e_s + w[2] * e_c
            assert terms.total == pytest.approx(expected, abs=1e-12)

    def test_validation(self):
        pts = np.zeros((20, 3))
        with pytest.raises(ValueError):
            Configuration(points=pts, primitives=[],
                          tunables=PipelineConfig(omega_f=0.5, omega_s=0.5, omega_c=0.5,
                                                  min_points=10))
        plane, _ = _fit_shape(PrimitiveKind.PLANE,
                              np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]]))
        overlapping = [
            Primitive(plane, np.array([0, 1, 2])),
            Primitive(plane, np.array([2, 3, 4])),
        ]
        pts = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(ValueError, match="disjoint"):
            Configuration(points=pts, primitives=overlapping, tunables=PipelineConfig(min_points=3))


# ---------------------------------------------------------------------------
# Split / merge
# ---------------------------------------------------------------------------

def two_parallel_planes(rng, n_side=12, extent=1.0, separation=1.0):
    xs = np.linspace(0, extent, n_side)
    a = np.array([(x, y, 0.0) for x in xs for y in xs])
    b = np.array([(x, y, separation) for x in xs for y in xs])
    return np.vstack([a, b])


def scattered_cube(rng, corner, n=64, side=4.0):
    """``n`` points uniform in a cube of ``side`` from ``corner``: no kind of
    fit holds 20 of them within an ``inlier_eps`` of 0.1."""
    return rng.uniform(corner, np.add(corner, side), size=(n, 3))


def unsupported_split(case: str) -> Configuration:
    """One plane-labelled primitive whose split leaves a half without support."""
    rng = np.random.default_rng(20)
    grid = np.stack(np.meshgrid(np.linspace(0, 1, 8), np.linspace(0, 1, 8), [0.0]),
                    axis=-1).reshape(-1, 3)
    if case == "lopsided":
        # The far half holds 5 points, under min_points.
        far = np.column_stack([np.linspace(9, 10, 5), np.zeros(5), np.zeros(5)])
        pts, min_points = np.vstack([plane_points(rng, n=45, extent=0.5), far]), 20
    elif case == "scatter":
        # The far half has 64 points, but its best fit holds under 20 of them.
        pts, min_points = np.vstack([grid, scattered_cube(rng, (3.0, -1.5, -2.0))]), 20
    else:
        # Each half holds 2 points, fewer than any kind's fit needs.
        pts, min_points = np.array([[0, 0, 0], [0.1, 0, 0], [1, 0, 0], [1.1, 0, 0.0]]), 2
    return plane_config(pts, [np.arange(len(pts))], min_points=min_points)


class TestSplit:
    @pytest.mark.parametrize("case", ["lopsided", "scatter", "too small to fit"])
    def test_a_half_without_support_stops_the_split(self, case):
        config = unsupported_split(case)
        out, applied = split(config, 0)
        assert not applied
        assert out is config

    def test_separates_merged_parallel_planes(self):
        rng = np.random.default_rng(12)
        pts = two_parallel_planes(rng)
        n = len(pts)
        merged_fit, _ = _fit_shape(PrimitiveKind.PLANE, pts)
        config = Configuration(
            points=pts,
            primitives=[Primitive(merged_fit, np.arange(n))],
            tunables=PipelineConfig(min_points=20),
        )
        out, applied = split(config, 0)
        assert applied
        assert len(out.primitives) == 2
        offsets = sorted(abs(p.shape.offset) for p in out.primitives)
        assert offsets[0] == pytest.approx(0.0, abs=1e-6)
        assert offsets[1] == pytest.approx(1.0, abs=1e-6)

    def test_small_primitive_rejected(self):
        rng = np.random.default_rng(13)
        pts = plane_points(rng, n=39)
        config = plane_config(pts, [np.arange(39)], min_points=20)
        out, applied = split(config, 0)    # 39 < 2 * 20
        assert not applied
        assert out is config

    def test_genuine_plane_split_not_profitable(self):
        rng = np.random.default_rng(14)
        pts = plane_points(rng, n=400) + rng.normal(scale=0.002, size=(400, 3))
        config = plane_config(pts, [np.arange(400)], min_points=30)
        before = energy(config).total
        out, applied = split(config, 0)
        if applied:
            assert energy(out).total >= before - 1e-12
        refined = refine(config)
        assert len(refined.primitives) == 1


class TestMerge:
    def test_rejoins_over_segmented_plane(self):
        rng = np.random.default_rng(15)
        pts = plane_points(rng, n=400) + rng.normal(scale=0.002, size=(400, 3))
        left = np.nonzero(pts[:, 0] <= 0)[0]
        right = np.nonzero(pts[:, 0] > 0)[0]
        config = plane_config(pts, [left, right], min_points=30)
        def inlier_rms(prim):
            return np.sqrt(np.mean(prim.shape.distance(pts[prim.inliers]) ** 2))

        halves_rms = max(inlier_rms(p) for p in config.primitives)
        out, applied = merge(config, 0, 1)
        assert applied
        assert len(out.primitives) == 1
        assert inlier_rms(out.primitives[0]) == pytest.approx(halves_rms, abs=5e-3)

    def test_merges_primitives_of_different_kinds(self):
        # One plane in two halves, the right one labelled a cylinder of
        # radius 50 that its points lie within 0.01 of: the merge refits
        # the joined inliers over every kind, and the plane wins.
        rng = np.random.default_rng(16)
        pts = plane_points(rng, n=400) + rng.normal(scale=0.002, size=(400, 3))
        left = np.nonzero(pts[:, 0] <= 0)[0]
        right = np.nonzero(pts[:, 0] > 0)[0]
        plane_fit, _ = _fit_shape(PrimitiveKind.PLANE, pts[left])
        cylinder = primitives.Cylinder(np.array([1.0, 0.0, -50.0]), np.array([0.0, 1.0, 0.0]),
                                       50.0)
        assert cylinder.distance(pts[right]).max() < PipelineConfig().inlier_eps
        config = Configuration(points=pts, tunables=PipelineConfig(min_points=30), primitives=[
            Primitive(plane_fit, left), Primitive(cylinder, right)])
        out, applied = merge(config, 0, 1)
        assert applied
        assert [p.kind for p in out.primitives] == [PrimitiveKind.PLANE]
        assert len(out.primitives[0].inliers) == 400

    @pytest.mark.parametrize("offset, adjacent, needs_tree", [
        ((0.0, 0.0, 0.0), True, True),      # the same plane sampled twice
        ((4.15, 0.0, 0.0), True, True),     # side by side, 0.15 apart
        ((0.1, 0.1, 0.15), False, True),    # interleaved, boxes overlap: 0.206 apart
        ((4.0, 0.0, 0.5), False, False),    # beside and 0.5 above
        ((0.0, 0.0, 10.0), False, False),   # far above
    ])
    def test_adjacent_matches_pairwise_distances(self, monkeypatch, offset, adjacent,
                                                 needs_tree):
        a = np.stack(np.meshgrid(np.linspace(-2, 2, 21), np.linspace(-2, 2, 21), [0.0]),
                     axis=-1).reshape(-1, 3)
        pts = np.vstack([a, a + offset])
        config = plane_config(pts, [np.arange(441), np.arange(441, 882)], min_points=30)
        gap = 0.2
        pair = np.linalg.norm(pts[:441, None] - pts[None, 441:], axis=2).min()
        assert (pair < gap) == adjacent
        if not needs_tree:
            def no_tree(*args, **kwargs):
                raise AssertionError("the bounding boxes already rule this pair out")
            monkeypatch.setattr(primitives, "cKDTree", no_tree)
        assert _adjacent(config, *config.primitives, gap) == adjacent

    def test_adjacent_scattered_blobs_do_not_merge(self):
        # Two cubes of scatter side by side, with a point of each on either
        # side of their common face: the joined points hold no fit, so
        # neither merge nor refine changes the configuration.
        rng = np.random.default_rng(21)
        a = np.vstack([scattered_cube(rng, (0.0, 0.0, 0.0)), [3.95, 2.0, 2.0]])
        b = np.vstack([scattered_cube(rng, (4.0, 0.0, 0.0)), [4.05, 2.0, 2.0]])
        config = plane_config(np.vstack([a, b]), [np.arange(65), np.arange(65, 130)],
                              min_points=20)
        assert _adjacent(config, *config.primitives)
        out, applied = merge(config, 0, 1)
        assert not applied
        assert out is config
        ops = []
        assert refine(config, on_apply=lambda *args: ops.append(args)) is config
        assert ops == []

    def test_distant_planes_not_adjacent(self):
        rng = np.random.default_rng(17)
        a = plane_points(rng, n=150)
        b = plane_points(rng, n=150) + (0.0, 0.0, 10.0)
        pts = np.vstack([a, b])
        config = plane_config(pts, [np.arange(150), np.arange(150, 300)], min_points=30)
        _, applied = merge(config, 0, 1)
        assert not applied


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oversegmented_cube():
    """Region-grown cube faces with the first three splittable ones cut in two."""
    from partcheck.synth import cube_scene
    scene = cube_scene(side=8.0, spacing=0.28, noise=0.004, seed=3)
    cloud = estimate_normals_and_curvature(scene.cloud, k=16)
    config = region_grow(cloud, PipelineConfig(min_points=30))
    work = config
    forced = 0
    for index in range(len(config.primitives)):
        if forced >= 3:
            break
        out, applied = split(work, index)
        if applied:
            work = out
            forced += 1
    assert len(work.primitives) == 6 + forced
    return work


def ridge_under_one_cone() -> Configuration:
    """Two 2 x 2 planes meeting in a ridge at 8 degrees either side of flat,
    fitted together as one cone."""
    g = np.stack(np.meshgrid(np.linspace(0, 2, 20), np.linspace(0, 2, 20), [0.0]),
                 axis=-1).reshape(-1, 3)
    angle = np.deg2rad(8.0)
    side = np.column_stack([g[:, 0] * np.cos(angle), g[:, 1], g[:, 0] * np.sin(angle)])
    pts = np.vstack([side * [-1.0, 1.0, 1.0], side[20:]])
    pts += np.random.default_rng(0).normal(scale=0.002, size=pts.shape)
    normals = normals_of(pts)
    cone, _ = _fit_shape(PrimitiveKind.CONE, pts, normals)
    return Configuration(points=pts, primitives=[Primitive(cone, np.arange(len(pts)))],
                         tunables=PipelineConfig(min_points=20), normals=normals)


class TestKindChange:
    def test_split_turns_a_cone_over_two_planes_into_two_planes(self):
        config = ridge_under_one_cone()
        out, applied = split(config, 0)
        assert applied
        assert [p.kind for p in out.primitives] == [PrimitiveKind.PLANE] * 2
        for prim in out.primitives:
            assert len(prim.inliers) >= 380
            assert abs(prim.shape.normal[0]) == pytest.approx(np.sin(np.deg2rad(8.0)), abs=0.01)

    def test_refine_keeps_the_two_planes(self):
        # Splitting the cone into two planes lowers the energy.
        config = ridge_under_one_cone()
        refined = refine(config)
        assert [p.kind for p in refined.primitives] == [PrimitiveKind.PLANE] * 2
        assert energy(refined).total < energy(config).total


class TestRefine:
    def test_ground_truth_is_fixed_point(self):
        rng = np.random.default_rng(18)
        a = plane_points(rng, n=300) + rng.normal(scale=0.002, size=(300, 3))
        b = a.copy()
        b[:, 2] += 6.0
        pts = np.vstack([a, b])
        config = plane_config(pts, [np.arange(300), np.arange(300, 600)], min_points=30)
        ops = []
        refined = refine(config, on_apply=lambda *args: ops.append(args))
        assert ops == []
        assert len(refined.primitives) == 2
        assert all(a is b for a, b in zip(refined.primitives, config.primitives))

    def test_oversegmented_cube_recovers_six_faces(self, oversegmented_cube):
        log = []
        refined = refine(oversegmented_cube,
                         on_apply=lambda op, e0, e1: log.append((op, e0, e1)))
        assert len(refined.primitives) == 6
        assert all(e1 < e0 for _, e0, e1 in log)

    def test_applied_energies_chain(self, oversegmented_cube):
        # Each operation starts from the energy the previous one left, from the
        # input's energy to the result's.
        log = []
        refined = refine(oversegmented_cube,
                         on_apply=lambda op, e0, e1: log.append((e0, e1)))
        assert log
        assert log[0][0] == pytest.approx(energy(oversegmented_cube).total, abs=1e-12)
        for (_, prev_e1), (e0, _) in zip(log, log[1:]):
            assert e0 == pytest.approx(prev_e1, abs=1e-12)
        assert log[-1][1] == pytest.approx(energy(refined).total, abs=1e-12)

    def test_result_is_a_fixed_point(self, oversegmented_cube):
        # No split or merge that applies to the refined result lowers its energy.
        out = refine(oversegmented_cube)
        floor = energy(out).total - 1e-9
        for i in range(len(out.primitives)):
            after, applied = split(out, i)
            assert not applied or energy(after).total >= floor
            for j in range(i + 1, len(out.primitives)):
                after, applied = merge(out, i, j)
                assert not applied or energy(after).total >= floor

    def test_undersegmented_two_planes_split(self):
        rng = np.random.default_rng(19)
        pts = two_parallel_planes(rng)
        merged_fit, _ = _fit_shape(PrimitiveKind.PLANE, pts)
        config = Configuration(
            points=pts,
            primitives=[Primitive(merged_fit, np.arange(len(pts)))],
            tunables=PipelineConfig(min_points=20),
        )
        refined = refine(config)
        assert len(refined.primitives) == 2

    def test_energy_strictly_decreases(self):
        rng = np.random.default_rng(20)
        pts = plane_points(rng, n=500) + rng.normal(scale=0.003, size=(500, 3))
        thirds = np.array_split(np.argsort(pts[:, 0], kind="stable"), 3)
        config = plane_config(pts, [np.sort(g) for g in thirds], min_points=30)
        log = []
        refined = refine(config, on_apply=lambda op, e0, e1: log.append((e0, e1)))
        assert len(refined.primitives) == 1
        assert all(e1 < e0 for e0, e1 in log)
        assert energy(refined).total <= energy(config).total

    @pytest.mark.parametrize("seed", range(4))
    def test_the_splits_the_bound_skips_never_lower_the_energy(self, seed):
        config = fused_planes(seed)
        splits = []
        want = refine_trying_every_split(config, splits)
        got = refine(config)
        # Splits win here, and the bound skips others.
        assert any(after < before - primitives._MIN_GAIN for before, after, _ in splits)
        assert any(bound <= -primitives._MIN_GAIN for _, _, bound in splits)
        for before, after, bound in splits:
            assert before - after <= bound + 1e-12
            if bound <= -primitives._MIN_GAIN:
                assert after >= before
        assert len(got.primitives) == len(want.primitives) > len(config.primitives)
        for a, b in zip(got.primitives, want.primitives):
            assert a.kind is b.kind
            assert np.array_equal(a.inliers, b.inliers)
            for name, value in vars(a.shape).items():
                assert np.array_equal(getattr(b.shape, name), value), name


def fused_planes(seed) -> Configuration:
    """Planes 10 apart, each one primitive, but for a ridge of two planes and
    a pair of parallel planes, each fitted as one plane: splits win on those."""
    rng = np.random.default_rng(seed)
    g = np.stack(np.meshgrid(np.linspace(0, 1, 12), np.linspace(0, 1, 12), [0.0]),
                 axis=-1).reshape(-1, 3)
    angle = rng.uniform(0.4, 1.0)
    tilted = np.column_stack([g[:, 0] * np.cos(angle), g[:, 1], g[:, 0] * np.sin(angle)])
    ridge = np.vstack([g * [-1.0, 1.0, 1.0], tilted])
    pair = np.vstack([g, g + [0.0, 0.0, rng.uniform(1.0, 2.0)]])
    parts = [ridge, pair, *[g] * int(rng.integers(1, 3))]
    pts = np.vstack([p + [10.0 * k, 0.0, 0.0] for k, p in enumerate(parts)])
    pts += rng.normal(scale=0.002, size=pts.shape)
    ends = np.cumsum([len(p) for p in parts])
    groups = [np.arange(end - len(p), end) for p, end in zip(parts, ends)]
    return plane_config(pts, groups, min_points=20)


def refine_trying_every_split(config: Configuration, splits: list) -> Configuration:
    """``refine`` with every split tried each round; appends (energy before,
    energy after, the bound on the drop) of every applied split to ``splits``."""
    t = config.tunables
    current = energy(config).total
    while True:
        n = len(config.primitives)
        sums = primitives._distance_sums(config)
        tried = []
        for i in range(n):
            after, ok = split(config, i)
            if ok:
                bound = (t.omega_f * sums[i] / config.n_assigned
                         - t.omega_s / config.max_primitives)
                splits.append((current, energy(after).total, bound))
            tried.append((after, ok))
        tried += [merge(config, i, j) for i in range(n) for j in range(i + 1, n)]
        scored = [(energy(after).total, after) for after, ok in tried if ok]
        e_after, after = min(scored, key=lambda item: item[0], default=(current, None))
        if e_after >= current - primitives._MIN_GAIN:
            return config
        config, current = after, e_after


# ---------------------------------------------------------------------------
# Part-level error
# ---------------------------------------------------------------------------

SQUARE = TriangleMesh(
    vertices=np.array([[-10, -10, 0], [10, -10, 0], [-10, 10, 0], [10, 10, 0.0]]),
    triangles=np.array([[0, 1, 2], [1, 3, 2]]),
)


class TestPartLevelError:
    def _config_at_offsets(self, rng, offsets):
        groups = []
        chunks = []
        at = 0
        for dz in offsets:
            pts = plane_points(rng, n=60, extent=5.0)
            pts[:, 2] = dz
            chunks.append(pts)
            groups.append(np.arange(at, at + 60))
            at += 60
        pts = np.vstack(chunks)
        surface_dist = MeshDistance(SQUARE).query(pts)
        return surface_dist, plane_config(pts, groups, min_points=30, eps=1.0)

    def test_two_patch_arithmetic(self):
        rng = np.random.default_rng(21)
        surface_dist, config = self._config_at_offsets(rng, [0.1, 0.3])
        avg, worst = part_level_error(patch_distances(config, surface_dist))
        assert avg == pytest.approx(0.2, abs=1e-9)
        assert worst == pytest.approx(0.3, abs=1e-9)

    def test_on_mesh_is_zero(self):
        rng = np.random.default_rng(22)
        surface_dist, config = self._config_at_offsets(rng, [0.0, 0.0])
        avg, worst = part_level_error(patch_distances(config, surface_dist))
        assert avg == pytest.approx(0.0, abs=1e-12)
        assert worst == pytest.approx(0.0, abs=1e-12)

    def test_offset_plane(self):
        rng = np.random.default_rng(23)
        surface_dist, config = self._config_at_offsets(rng, [0.05])
        avg, worst = part_level_error(patch_distances(config, surface_dist))
        assert avg == pytest.approx(0.05, abs=1e-3)
        assert worst == pytest.approx(0.05, abs=1e-3)

    def test_no_patch_gives_none(self):
        pts = np.random.default_rng(0).normal(size=(10, 3))
        config = Configuration(points=pts, primitives=[], tunables=PipelineConfig(min_points=3))
        assert part_level_error(patch_distances(config, MeshDistance(SQUARE).query(pts))) is None

    def test_one_query_serves_every_patch(self):
        # The part level indexes one whole-cloud query by inlier; each patch
        # mean must equal a fresh query of that patch's points alone.
        scene = plate_scene(width=20, height=20, thickness=3, holes=2, hole_r_min=2,
                            hole_r_max=3, spacing=0.8, noise=0.02, seed=0)
        pts = scene.cloud.points
        groups = np.array_split(np.random.default_rng(24).permutation(len(pts)), 5)
        config = plane_config(pts, groups, min_points=30, eps=1.0)
        index = MeshDistance(scene.mesh)
        whole = index.query(pts)
        per_set = np.array([index.query(pts[g]).mean() for g in groups])
        assert len(scene.mesh) > 100 and len(pts) > 2 * geometry._QUERY_BLOCK
        assert np.abs(patch_distances(config, whole) - per_set).max() <= 1e-12
