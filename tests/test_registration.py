"""Coarse alignment, trimmed ICP, and the registration-error metric."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from partcheck import registration
from partcheck.geometry import PointCloud, RigidTransform
from partcheck.pipeline import PipelineConfig, _register
from partcheck.registration import (
    _SIGN_COMBOS,
    _axis_rotation,
    _coarse_rotations,
    _principal_axes,
    _probe,
    _rotation_gap,
    coarse_candidates,
    icp_refine,
    register,
    registration_error,
)
from partcheck.synth import generate_synthetic_scene, parse_scene_spec


def rotation_about_z(deg: float) -> np.ndarray:
    a = np.deg2rad(deg)
    return np.array([
        [np.cos(a), -np.sin(a), 0.0],
        [np.sin(a), np.cos(a), 0.0],
        [0.0, 0.0, 1.0],
    ])


def rotation_angle_deg(r: np.ndarray) -> float:
    return float(np.degrees(np.arccos(np.clip((np.trace(r) - 1) / 2, -1, 1))))


def blob_cloud(rng, n=800) -> PointCloud:
    # Anisotropic scatter gives well-separated principal axes.
    pts = rng.normal(size=(n, 3)) * (4.0, 2.0, 1.0)
    return PointCloud(points=pts)


def trimmed_rmse(moved: np.ndarray, target: PointCloud) -> float:
    # The trim rule icp_refine measures a pose by.
    d, _ = cKDTree(target.points).query(moved)
    kept = d[d <= 3.0 * np.median(d)]
    return float(np.sqrt(np.mean(kept * kept)))


class TestCoarse:
    def test_identity_for_same_cloud(self):
        rng = np.random.default_rng(0)
        cloud = blob_cloud(rng)
        t = coarse_candidates(cloud, cloud, count=1)[0]
        assert np.abs(t.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(t.translation).max() < 1e-9

    def test_recovers_known_transform(self):
        rng = np.random.default_rng(1)
        source = blob_cloud(rng)
        truth = RigidTransform(rotation_about_z(90.0), np.array([5.0, 0.0, 0.0]))
        target = PointCloud(points=truth.apply(source.points))
        t = coarse_candidates(source, target, count=1)[0]
        moved = t.apply(source.points)
        nn = np.linalg.norm(moved - target.points, axis=1)
        assert nn.mean() < 1e-6

    # "coarse_register" is the single-best call, count=1, that the removed
    # coarse_register wrapper made; "coarse_candidates" asks for the default
    # number of candidates. The fallback must give the same pose either way.
    @pytest.mark.parametrize("count", [1, None],
                             ids=["coarse_register", "coarse_candidates"])
    def test_coplanar_fallback(self, count):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]])
        source = PointCloud(points=pts)
        target = PointCloud(points=pts + (2.0, 3.0, 4.0))
        kwargs = {} if count is None else {"count": count}
        with pytest.warns(UserWarning, match="degenerate covariance"):
            t = coarse_candidates(source, target, **kwargs)[0]
        assert np.allclose(t.rotation, np.eye(3))
        assert np.allclose(t.translation, (2.0, 3.0, 4.0), atol=1e-9)

    def test_rotation_always_proper(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = PointCloud(points=rng.normal(size=(60, 3)) * rng.uniform(0.5, 3.0, 3))
            b = PointCloud(points=rng.normal(size=(60, 3)) * rng.uniform(0.5, 3.0, 3))
            t = coarse_candidates(a, b, count=1)[0]
            assert np.abs(t.rotation.T @ t.rotation - np.eye(3)).max() < 1e-9
            assert np.linalg.det(t.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_candidates_ranked_and_distinct(self):
        rng = np.random.default_rng(3)
        cloud = blob_cloud(rng)
        cands = coarse_candidates(cloud, cloud, count=3)
        assert 1 <= len(cands) <= 3
        assert np.abs(cands[0].rotation - np.eye(3)).max() < 1e-9

    def test_half_turn_spins_score_each_rotation_once(self, monkeypatch):
        # Two near-equal eigenvalues leave the third axis free to spin.
        rng = np.random.default_rng(12)
        source = PointCloud(points=rng.normal(size=(1000, 3)) * (3.0, 3.0, 1.0))
        target = PointCloud(points=RigidTransform(rotation_about_z(40.0), np.ones(3))
                            .apply(source.points))
        _, axes_s, evals_s = _principal_axes(source.points)
        _, axes_t, evals_t = _principal_axes(target.points)
        # Oracle: the full turn of spins, each rotation listed twice.
        spins = [np.eye(3)]
        for axis, (a, b) in ((0, (1, 2)), (1, (0, 2)), (2, (0, 1))):
            if min(evals_s[b], evals_t[b]) / max(evals_s[a], evals_t[a]) > 0.75:
                spins.extend(_axis_rotation(axis, np.deg2rad(deg))
                             for deg in np.arange(2.0, 360.0, 2.0))
        full = np.array([axes_t @ spin @ signs @ axes_s.T
                         for signs in _SIGN_COMBOS for spin in spins])
        half = np.array(_coarse_rotations(axes_s, axes_t, evals_s, evals_t))
        assert (len(full), len(half)) == (720, 360)
        gap = np.abs(full[:, None] - half[None]).max(axis=(2, 3))
        assert gap.min(axis=1).max() < 1e-12
        assert gap.min(axis=0).max() < 1e-12
        self_gap = np.abs(half[:, None] - half[None]).max(axis=(2, 3))
        np.fill_diagonal(self_gap, np.inf)
        assert self_gap.min() > 1e-9

        scored = []
        real = registration._capped_cost
        monkeypatch.setattr(registration, "_capped_cost",
                            lambda tree, pts: scored.append(len(pts)) or real(tree, pts))
        coarse_candidates(source, target)
        assert len(scored) == 360


class TestICP:
    def test_prealigned_identical(self):
        rng = np.random.default_rng(4)
        cloud = blob_cloud(rng, n=300)
        result = icp_refine(cloud, cloud)
        assert result.converged
        assert result.iterations == 1
        assert result.rmse < 1e-9
        assert np.abs(result.transform.rotation - np.eye(3)).max() < 1e-9

    def test_small_perturbation_recovered(self):
        rng = np.random.default_rng(5)
        source = blob_cloud(rng, n=1500)
        truth = RigidTransform(rotation_about_z(5.0), np.array([0.1, 0.1, 0.0]))
        target = PointCloud(points=truth.apply(source.points))
        result = icp_refine(source, target)
        gap = result.transform.rotation @ truth.rotation.T
        assert rotation_angle_deg(gap) < 0.1
        moved = result.transform.apply(source.points)
        assert np.linalg.norm(moved - target.points, axis=1).max() < 1e-3

    def test_noisy_target_rmse_band(self):
        rng = np.random.default_rng(6)
        xs = np.arange(20) * 0.5
        grid = np.array([(x, y, z) for x in xs for y in xs for z in (0.0, 0.5)])
        source = PointCloud(points=grid)
        target = PointCloud(points=grid + rng.normal(scale=0.01, size=grid.shape))
        result = icp_refine(source, target)
        assert 0.008 <= result.rmse <= 0.02

    def test_rmse_never_worse_than_start(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            source = blob_cloud(rng, n=400)
            perturb = RigidTransform(rotation_about_z(rng.uniform(-10, 10)),
                                     rng.uniform(-0.3, 0.3, 3))
            target = PointCloud(points=perturb.apply(source.points)
                                + rng.normal(scale=0.01, size=source.points.shape))
            start = registration_error(source, target)
            result = icp_refine(source, target)
            end = registration_error(source.transformed(result.transform), target)
            assert end <= start + 1e-9
            assert result.iterations <= 100

    def test_frame_invariance(self):
        rng = np.random.default_rng(8)
        source = blob_cloud(rng, n=700)
        target = PointCloud(points=source.points
                            + rng.normal(scale=0.005, size=source.points.shape))
        base = icp_refine(source, target)

        m = rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(m)
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        frame = RigidTransform(q, rng.uniform(-2, 2, 3))
        moved = icp_refine(source.transformed(frame), target.transformed(frame))
        expected = frame.compose(base.transform).compose(frame.inverse())
        assert np.abs(moved.transform.rotation - expected.rotation).max() < 1e-6
        assert np.abs(moved.transform.translation - expected.translation).max() < 1e-6

    def test_out_of_iterations_returns_the_measured_pose(self):
        # The reported RMSE must be the returned pose's. Here the step after
        # the last measurement at max_iter=4 would raise it, 0.07584 to
        # 0.07600.
        rng = np.random.default_rng(25)
        dims = rng.uniform(0.5, 3.0, 3)
        source = PointCloud(points=rng.uniform(size=(300, 3)) * dims)
        target = PointCloud(points=RigidTransform(rotation_about_z(8.0), np.zeros(3))
                            .apply(rng.uniform(size=(300, 3)) * dims))
        previous = np.inf
        for max_iter in range(1, 7):
            result = icp_refine(source, target, config=PipelineConfig(icp_max_iter=max_iter))
            actual = trimmed_rmse(result.transform.apply(source.points), target)
            assert result.rmse == pytest.approx(actual, rel=1e-12, abs=0.0)
            assert actual <= previous
            previous = actual

    def test_max_iter_validated(self):
        cloud = PointCloud(points=np.random.default_rng(0).normal(size=(10, 3)))
        with pytest.raises(ValueError):
            icp_refine(cloud, cloud, config=PipelineConfig(icp_max_iter=0))


class TestRegister:
    def test_recovers_known_transform_from_subsample(self):
        rng = np.random.default_rng(10)
        source = blob_cloud(rng, n=1200)
        truth = RigidTransform(rotation_about_z(90.0), np.array([5.0, 0.0, 0.0]))
        target = PointCloud(points=truth.apply(source.points))
        result, registered, e_reg = register(source, target,
                                             PipelineConfig(registration_subsample=500))
        assert result.converged
        assert np.abs(registered.points - target.points).max() < 1e-6
        assert e_reg < 1e-6

    def test_race_on_probe_then_one_full_fit(self, monkeypatch):
        rng = np.random.default_rng(11)
        source = blob_cloud(rng, n=5000)
        truth = RigidTransform(rotation_about_z(30.0), np.array([1.0, 2.0, 0.0]))
        target = PointCloud(points=truth.apply(source.points)
                            + rng.normal(scale=0.01, size=source.points.shape))
        calls = []
        real = registration.icp_refine

        def recording(src, tgt, init=None, **kwargs):
            result = real(src, tgt, init=init, **kwargs)
            calls.append((src, init, result))
            return result

        monkeypatch.setattr(registration, "icp_refine", recording)
        result, _, _ = register(source, target)

        probe_size = len(_probe(source.points))
        assert probe_size < len(source)
        *race, (fit_source, fit_init, fit) = calls
        assert [len(src) for src, _, _ in race] == [probe_size] * len(race)
        assert len(fit_source) == len(source)
        # A flipped candidate raced and lost.
        assert max(_rotation_gap(init.rotation, fit_init.rotation)
                   for _, init, _ in race) > np.deg2rad(170.0)
        tree = cKDTree(target.points)
        costs = [registration._capped_cost(tree, r.transform.apply(src.points))
                 for src, _, r in race]
        assert fit_init is race[int(np.argmin(costs))][1]
        assert result is fit
        expected = real(source, target, init=fit_init)
        assert np.array_equal(result.transform.rotation, expected.transform.rotation)
        assert np.array_equal(result.transform.translation, expected.transform.translation)
        assert (result.rmse, result.iterations, result.converged) == (
            expected.rmse, expected.iterations, expected.converged)
        gap = result.transform.rotation @ truth.rotation.T
        assert rotation_angle_deg(gap) < 0.1

    # Point-to-point ICP loses this plate's pose (rotation error 179.98
    # degrees at this spacing); a point-to-plane step from the same coarse
    # candidates finds it, so this is expected to pass once the fine stage
    # minimizes point-to-plane distances.
    @pytest.mark.xfail(reason="flipped pose of a thin square plate")
    def test_square_plate_not_flipped(self):
        scene = generate_synthetic_scene(
            parse_scene_spec("plate width=40 height=40 holes=4 spacing=1.6"), seed=1)
        fit, _, _, _ = _register(scene.cloud, scene.mesh, PipelineConfig())
        gap = fit.transform.rotation @ scene.truth.transform.rotation.T
        assert rotation_angle_deg(gap) < 1.0


class TestRegistrationError:
    def test_identical_clouds(self):
        cloud = PointCloud(points=np.random.default_rng(0).normal(size=(100, 3)))
        assert registration_error(cloud, cloud) == 0.0

    def test_offset_from_dense_plane(self):
        rng = np.random.default_rng(9)
        xs = np.arange(200) * 0.005
        plane = np.array([(x, y, 0.0) for x in xs for y in xs[:50]])
        registered = PointCloud(points=plane + (0.0, 0.0, 0.01))
        err = registration_error(registered, PointCloud(points=plane))
        assert abs(err - 0.01) / 0.01 < 0.1

    def test_two_single_points(self):
        a = PointCloud(points=np.array([[0.0, 0.0, 0.0]]))
        b = PointCloud(points=np.array([[2.0, 0.0, 0.0]]))
        assert registration_error(a, b) == pytest.approx(2.0)
