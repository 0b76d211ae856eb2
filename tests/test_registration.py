"""Coarse alignment, trimmed ICP, CAD sampling, and the registration-error
metric."""

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from partcheck import pipeline, registration
from partcheck.geometry import (
    PointCloud,
    RigidTransform,
    estimate_normals_and_curvature,
    sample_mesh,
    strided_indices,
)
from partcheck.pipeline import PipelineConfig, _register
from partcheck.registration import (
    _PROBE_POINTS,
    _ROUGH_STRIDE,
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


def with_normals(cloud: PointCloud) -> PointCloud:
    # Point-to-plane ICP reads the target's normals.
    return estimate_normals_and_curvature(cloud, 16)


def nearest_neighbor_cost(source: PointCloud, target: PointCloud) -> float:
    """Mean distance from each source point to its nearest target point."""
    return float(cKDTree(target.points).query(source.points)[0].mean())


def blob_cloud(rng, n=800) -> PointCloud:
    # Anisotropic scatter gives well-separated principal axes.
    pts = rng.normal(size=(n, 3)) * (4.0, 2.0, 1.0)
    return PointCloud(points=pts)


def spun_blob():
    # Two near-equal eigenvalues leave the third axis free to spin.
    rng = np.random.default_rng(12)
    source = PointCloud(points=rng.normal(size=(1000, 3)) * (3.0, 3.0, 1.0))
    target = PointCloud(points=RigidTransform(rotation_about_z(40.0), np.ones(3))
                        .apply(source.points))
    return source, target


def exhaustive_ranking(source: PointCloud, target: PointCloud, tree: cKDTree | None = None):
    """Oracle: every coarse candidate, its cost on the whole probe, and the
    candidate indices sorted by (cost, index). The costs read ``tree``, by
    default the one coarse_candidates scores against: a tree over the
    target's probe."""
    ps, pt = source.points, target.points
    cs, axes_s, evals_s = _principal_axes(ps)
    ct, axes_t, evals_t = _principal_axes(pt)
    tree = cKDTree(_probe(target).points) if tree is None else tree
    candidates = [RigidTransform(r, ct - r @ cs)
                  for r in _coarse_rotations(axes_s, axes_t, evals_s, evals_t)]
    costs = [registration._capped_cost(tree, c.apply(_probe(source).points)) for c in candidates]
    return candidates, costs, sorted(range(len(candidates)), key=lambda i: (costs[i], i))


def distinct_walk(candidates, order, count: int) -> list[int]:
    # The 10-degree rule of coarse_candidates, over the given order.
    kept: list[int] = []
    for i in order:
        if all(_rotation_gap(candidates[i].rotation, candidates[j].rotation) > np.deg2rad(10.0)
               for j in kept):
            kept.append(i)
        if len(kept) >= count:
            break
    return kept


def same_transforms(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.rotation, y.rotation) and np.array_equal(x.translation, y.translation)
        for x, y in zip(a, b))


def record_cost_calls(monkeypatch) -> list[tuple[int, np.ndarray]]:
    """The size of the tree and the point array of every _capped_cost call,
    in call order."""
    calls: list[tuple[int, np.ndarray]] = []
    real = registration._capped_cost
    monkeypatch.setattr(registration, "_capped_cost",
                        lambda tree, pts: calls.append((tree.n, pts)) or real(tree, pts))
    return calls


def fitted_rotation(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    # Least-squares rotation taking the paired source points onto the target
    # points (Kabsch, by SVD of the centred cross-covariance).
    h = (source - source.mean(axis=0)).T @ (target - target.mean(axis=0))
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    return vt.T @ np.diag([1.0, 1.0, d]) @ u.T


def moved_by(candidates, base: np.ndarray, moved: np.ndarray) -> int:
    # The index of the candidate whose rotation moved ``base`` to ``moved``.
    rotations = np.array([c.rotation for c in candidates])
    gaps = np.abs(rotations - fitted_rotation(base, moved)).max(axis=(1, 2))
    assert gaps.min() < 1e-9
    return int(gaps.argmin())


def trimmed_rmse(moved: np.ndarray, target: PointCloud) -> float:
    # The trim rule and point-to-plane residual icp_refine measures a pose by.
    d, idx = cKDTree(target.points).query(moved)
    keep = d <= 3.0 * np.median(d)
    residual = ((moved[keep] - target.points[idx[keep]]) * target.normals[idx[keep]]).sum(axis=1)
    return float(np.sqrt(np.mean(residual * residual)))


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
        source, target = spun_blob()
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

        calls = record_cost_calls(monkeypatch)
        coarse_candidates(source, target)
        probe = _probe(source).points
        rough = probe[::_ROUGH_STRIDE]
        # Every rotation once on the rough probe, in one stacked query, then
        # the best 32 on the whole.
        assert [pts.shape for _, pts in calls] == [(360, len(rough), 3)] + [probe.shape] * 32
        spun = [RigidTransform(r, np.zeros(3)) for r in half]
        rough_scored = [moved_by(spun, rough, pts) for pts in calls[0][1]]
        assert sorted(rough_scored) == list(range(360))

    def test_stacked_cost_is_the_cost_of_each_set(self):
        source, target = spun_blob()
        tree = cKDTree(target.points)
        rng = np.random.default_rng(3)
        stacked = source.points[:125] + rng.normal(scale=0.5, size=(40, 1, 3))
        costs = registration._capped_cost(tree, stacked)
        assert costs.shape == (40,)
        assert np.array_equal(costs, [registration._capped_cost(tree, pts) for pts in stacked])

    def test_two_pass_ranking_matches_exhaustive_on_square_plate(self):
        scene = generate_synthetic_scene(
            parse_scene_spec("plate width=40 height=40 holes=4 spacing=1.6"), seed=1)
        target = sample_mesh(scene.mesh, 20_000, seed=0)
        candidates, _, order = exhaustive_ranking(scene.cloud, target)
        assert len(candidates) == 360
        # Count 10 reaches past the rough top 32, so the re-scoring goes on.
        for count in (3, 10):
            expected = [candidates[i] for i in distinct_walk(candidates, order, count)]
            assert same_transforms(coarse_candidates(scene.cloud, target, count), expected)

    @pytest.mark.parametrize("spec", [
        "plate rot_deg=20 trans_frac=0.1",
        "collage count=2 spacing=0.2 noise=0.01 rot_deg=20 trans_frac=0.1",
    ])
    def test_probe_of_the_target_ranks_like_all_of_it(self, spec, monkeypatch):
        """Scoring against at most 2,000 strided CAD samples gives the
        candidates that scoring against all 20,000 gives. On near-symmetric
        parts (``cube rot_deg=15``, the 40 x 40 four-hole plate) rotations a
        symmetry or a 2-degree spin apart cost almost the same, so their
        order follows the sample density and the dense ranking differs
        there; those scenes are left out."""
        scene = generate_synthetic_scene(parse_scene_spec(spec), seed=1)
        target = sample_mesh(scene.mesh, 20_000, seed=0)
        candidates, _, order = exhaustive_ranking(scene.cloud, target, cKDTree(target.points))
        expected = [candidates[i] for i in distinct_walk(candidates, order, 3)]
        calls = record_cost_calls(monkeypatch)
        assert same_transforms(coarse_candidates(scene.cloud, target, count=3), expected)
        assert calls and all(n <= _PROBE_POINTS for n, _ in calls)

    def test_differs_from_exhaustive_only_below_the_last_candidate(self, monkeypatch):
        # The blob is round in its spin plane, so every wrong spin costs about
        # the same; the exhaustive ranking's third distinct candidate falls
        # outside the rough top 32, and count 3 differs from it here.
        source, target = spun_blob()
        candidates, costs, order = exhaustive_ranking(source, target)
        probe = _probe(source).points
        calls = record_cost_calls(monkeypatch)
        for count in (1, 2, 3):
            calls.clear()
            found = coarse_candidates(source, target, count)
            rescored = {moved_by(candidates, probe, pts) for _, pts in calls
                        if len(pts) == len(probe)}
            expected = [candidates[i] for i in distinct_walk(candidates, order, count)]
            if not same_transforms(found, expected):
                last = moved_by(candidates, probe, found[-1].apply(probe))
                left_out = [costs[i] for i in range(len(candidates)) if i not in rescored]
                assert min(left_out) < costs[last]
            assert same_transforms(found[:1], expected[:1])

    def test_few_rotations_skip_the_rough_pass(self, monkeypatch):
        rng = np.random.default_rng(1)
        source = blob_cloud(rng)
        target = PointCloud(points=RigidTransform(rotation_about_z(90.0), np.ones(3))
                            .apply(source.points))
        calls = record_cost_calls(monkeypatch)
        coarse_candidates(source, target)
        assert [len(pts) for _, pts in calls] == [len(_probe(source))] * 4

    def test_rescores_more_until_count_distinct(self, monkeypatch):
        source, target = spun_blob()
        candidates, costs, _ = exhaustive_ranking(source, target)
        probe = _probe(source).points
        count = 8
        calls = record_cost_calls(monkeypatch)
        found = coarse_candidates(source, target, count)
        rescored = [moved_by(candidates, probe, pts) for _, pts in calls
                    if len(pts) == len(probe)]
        # The rough top 32 hold fewer than 8 distinct rotations.
        first = sorted(rescored[:32], key=lambda i: (costs[i], i))
        assert len(distinct_walk(candidates, first, count)) < count
        assert len(rescored) > 32 and len(rescored) % 32 == 0
        assert len(found) == count
        walked = distinct_walk(candidates, sorted(rescored, key=lambda i: (costs[i], i)), count)
        assert same_transforms(found, [candidates[i] for i in walked])


@pytest.fixture(scope="module")
def cube_scan_and_samples():
    # About 2,300 noisy scan points of a 10-unit cube, in the CAD frame, and
    # 50,000 CAD samples carrying their triangles' normals.
    scene = generate_synthetic_scene(parse_scene_spec("cube spacing=0.3"), seed=1)
    points = scene.truth.transform.apply(scene.cloud.points)
    scan = PointCloud(points=points[strided_indices(len(points), 3000)])
    return scan, sample_mesh(scene.mesh, 50_000, seed=0)


class TestProbe:
    @pytest.mark.parametrize("n", [1999, 2000, 2001, 4001, 20260])
    def test_probe_is_the_strided_rows(self, n):
        points = np.arange(3.0 * n).reshape(n, 3)
        probe = _probe(PointCloud(points=points, curvatures=np.arange(float(n))))
        assert len(probe) <= 2000
        assert np.array_equal(probe.points, points[strided_indices(n, 2000)])
        assert np.array_equal(probe.curvatures, strided_indices(n, 2000))


class TestTargetTree:
    def test_answers_like_the_default_tree(self, cube_scan_and_samples):
        # The midpoint-split tree changes only the cost of building and
        # querying: every distance and index, bounded or not, and the data
        # box that caps the coarse cost equal those of scipy's default tree.
        scan, samples = cube_scan_and_samples
        rng = np.random.default_rng(3)
        far = scan.points + rng.normal(scale=2.0, size=scan.points.shape)
        queries = np.vstack([scan.points, far])
        tree, default = registration._target_tree(samples.points), cKDTree(samples.points)
        for bound in (np.inf, 0.5):
            d, idx = tree.query(queries, distance_upper_bound=bound)
            d0, idx0 = default.query(queries, distance_upper_bound=bound)
            assert np.array_equal(d, d0)
            assert np.array_equal(idx, idx0)
        assert np.array_equal(tree.maxes, default.maxes)
        assert np.array_equal(tree.mins, default.mins)


class TestICP:
    def test_prealigned_identical(self):
        rng = np.random.default_rng(4)
        cloud = with_normals(blob_cloud(rng, n=300))
        result = icp_refine(cloud, cloud)
        assert result.converged
        assert result.iterations == 1
        assert result.rmse < 1e-9
        assert np.abs(result.transform.rotation - np.eye(3)).max() < 1e-9

    def test_small_perturbation_recovered(self):
        rng = np.random.default_rng(5)
        source = blob_cloud(rng, n=1500)
        truth = RigidTransform(rotation_about_z(5.0), np.array([0.1, 0.1, 0.0]))
        target = with_normals(PointCloud(points=truth.apply(source.points)))
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
        target = with_normals(PointCloud(points=grid + rng.normal(scale=0.01, size=grid.shape)))
        result = icp_refine(source, target)
        assert 0.008 <= result.rmse <= 0.02

    def test_rmse_never_worse_than_start(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            source = blob_cloud(rng, n=400)
            perturb = RigidTransform(rotation_about_z(rng.uniform(-10, 10)),
                                     rng.uniform(-0.3, 0.3, 3))
            target = with_normals(PointCloud(points=perturb.apply(source.points)
                                             + rng.normal(scale=0.01, size=source.points.shape)))
            start = nearest_neighbor_cost(source, target)
            result = icp_refine(source, target)
            end = nearest_neighbor_cost(source.transformed(result.transform), target)
            assert end <= start + 1e-9
            assert result.iterations <= 100

    def test_frame_invariance(self):
        rng = np.random.default_rng(8)
        source = blob_cloud(rng, n=700)
        target = with_normals(PointCloud(points=source.points
                                         + rng.normal(scale=0.005, size=source.points.shape)))
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

    def test_out_of_iterations_returns_the_measured_pose(self, monkeypatch):
        # The reported RMSE must be the returned pose's. Here the step after
        # the last measurement at an iteration budget of 4 would raise it,
        # 0.04653 to 0.04668.
        rng = np.random.default_rng(25)
        dims = rng.uniform(0.5, 3.0, 3)
        source = PointCloud(points=rng.uniform(size=(300, 3)) * dims)
        target = with_normals(PointCloud(points=RigidTransform(rotation_about_z(8.0), np.zeros(3))
                                         .apply(rng.uniform(size=(300, 3)) * dims)))
        previous = np.inf
        for max_iter in range(1, 7):
            monkeypatch.setattr(registration, "_ICP_MAX_ITER", max_iter)
            result = icp_refine(source, target)
            actual = trimmed_rmse(result.transform.apply(source.points), target)
            assert result.rmse == pytest.approx(actual, rel=1e-12, abs=0.0)
            assert actual <= previous
            previous = actual

    def test_target_without_normals_rejected(self):
        cloud = blob_cloud(np.random.default_rng(4), n=300)
        with pytest.raises(ValueError, match="normals"):
            icp_refine(cloud, cloud)

    @pytest.mark.parametrize("rotvec_deg, shift", [
        ((0.8, 1.6, 2.4), (0.5, -0.3, 0.4)),
        ((3.3, -3.3, 1.7), (1.0, 0.5, -0.5)),
        ((0.0, 0.0, 4.0), (0.3, 0.3, 0.3)),
    ])
    def test_few_iterations_on_cad_samples(self, cube_scan_and_samples, rotvec_deg, shift):
        # Point-to-plane steps took 5 iterations from each of these offsets
        # (3-5 degrees) and recovered the pose to 0.008 degrees; point-to-point
        # steps took 18-25 and stopped 0.10-0.13 degrees off.
        scan, samples = cube_scan_and_samples
        offset = RigidTransform(Rotation.from_rotvec(rotvec_deg, degrees=True).as_matrix(),
                                np.array(shift))
        result = icp_refine(scan.transformed(offset), samples)
        recovered = result.transform.compose(offset)
        assert result.converged
        assert result.iterations <= 10
        assert rotation_angle_deg(recovered.rotation) < 0.02
        assert np.abs(recovered.apply(scan.points) - scan.points).max() < 0.005


class TestRegister:
    def test_recovers_known_transform_from_subsample(self, monkeypatch):
        rng = np.random.default_rng(10)
        source = blob_cloud(rng, n=1200)
        truth = RigidTransform(rotation_about_z(90.0), np.array([5.0, 0.0, 0.0]))
        target = with_normals(PointCloud(points=truth.apply(source.points)))
        monkeypatch.setattr(registration, "_ICP_POINTS", 500)
        result, registered = register(source, target)
        assert result.converged
        assert np.abs(registered.points - target.points).max() < 1e-6

    def test_race_on_probe_then_one_full_fit(self, monkeypatch):
        # One path whatever the scan's size: the 5,000-point blob races its
        # strided probe against the CAD probe, and the 500-point blob's
        # probes are both whole clouds. The race pose nearest the CAD probe
        # wins, and the fit continues from it on the subsample and all the
        # samples.
        for n in (5000, 500):
            rng = np.random.default_rng(11)
            source = blob_cloud(rng, n=n)
            truth = RigidTransform(rotation_about_z(30.0), np.array([1.0, 2.0, 0.0]))
            target = with_normals(PointCloud(points=truth.apply(source.points)
                                             + rng.normal(scale=0.01, size=source.points.shape)))
            calls = []
            real = registration.icp_refine

            def recording(src, tgt, init=None, **kwargs):
                result = real(src, tgt, init=init, **kwargs)
                calls.append((src, tgt, init, result))
                return result

            monkeypatch.setattr(registration, "icp_refine", recording)
            result, _ = register(source, target)
            monkeypatch.undo()

            probe_size = len(_probe(source))
            assert probe_size <= len(source)
            *race, (fit_source, fit_target, fit_init, fit) = calls
            assert len(race) == 3
            assert [len(src) for src, _, _, _ in race] == [probe_size] * len(race)
            target_probe = _probe(target)
            assert len(target_probe) <= _PROBE_POINTS
            for _, tgt, _, _ in race:
                assert np.array_equal(tgt.points, target_probe.points)
                assert np.array_equal(tgt.normals, target_probe.normals)
            assert len(fit_source) == len(source)
            assert fit_target is target
            tree = cKDTree(target_probe.points)
            costs = [registration._capped_cost(tree, r.transform.apply(src.points))
                     for src, _, _, r in race]
            _, _, winner_init, winner = race[int(np.argmin(costs))]
            assert fit_init is winner.transform
            # A flipped candidate raced and lost.
            assert max(_rotation_gap(init.rotation, winner_init.rotation)
                       for _, _, init, _ in race) > np.deg2rad(170.0)
            assert result is fit
            expected = real(source, target, init=fit_init)
            assert np.array_equal(result.transform.rotation, expected.transform.rotation)
            assert np.array_equal(result.transform.translation, expected.transform.translation)
            assert (result.rmse, result.iterations, result.converged) == (
                expected.rmse, expected.iterations, expected.converged)
            gap = result.transform.rotation @ truth.rotation.T
            assert rotation_angle_deg(gap) < 0.1

    def test_one_tree_over_the_target(self, monkeypatch):
        # The race's ICP and costs read one k-d tree over the target's probe,
        # the coarse ranking builds its own, and the fit builds the one tree
        # over all the samples.
        rng = np.random.default_rng(13)
        source = blob_cloud(rng, n=5000)
        target = with_normals(PointCloud(points=RigidTransform(rotation_about_z(30.0), np.ones(3))
                                         .apply(source.points)))
        built = []
        real = registration.cKDTree

        def recording(data, *args, **kwargs):
            tree = real(data, *args, **kwargs)
            built.append((data, tree))
            return tree

        icp_trees = []
        real_icp = registration.icp_refine

        def recording_icp(src, tgt, init=None, target_tree=None):
            icp_trees.append(target_tree)
            return real_icp(src, tgt, init=init, target_tree=target_tree)

        monkeypatch.setattr(registration, "cKDTree", recording)
        monkeypatch.setattr(registration, "icp_refine", recording_icp)
        cost_trees = []
        real_cost = registration._capped_cost
        monkeypatch.setattr(registration, "_capped_cost",
                            lambda tree, pts: cost_trees.append(tree) or real_cost(tree, pts))
        register(source, target)
        full = [tree for data, tree in built if np.array_equal(data, target.points)]
        probe = [tree for data, tree in built if np.array_equal(data, _probe(target).points)]
        assert len(full) == 1 and len(probe) == 2
        race_tree = icp_trees[0]
        assert icp_trees == [race_tree] * 3 + [None]
        assert race_tree in probe
        # The coarse ranking, then the three race costs.
        assert cost_trees[-3:] == [race_tree] * 3
        coarse_tree, = set(cost_trees[:-3])
        assert coarse_tree in probe and coarse_tree is not race_tree

    def test_cad_sample_count_is_fixed_by_the_part(self, monkeypatch):
        # One bracket at two scan densities, 2,878 and 25,554 filtered
        # points: the CAD is sampled at 50,000 points both times, so
        # registration's cost does not grow with the scan.
        counts = []
        real = pipeline.sample_mesh

        def recording(mesh, count, **kwargs):
            counts.append(count)
            return real(mesh, count, **kwargs)

        monkeypatch.setattr(pipeline, "sample_mesh", recording)
        filtered = []
        for spacing in (1.5, 0.5):
            scene = generate_synthetic_scene(
                parse_scene_spec(f"bracket spacing={spacing}"), seed=1)
            _, registered, _ = _register(scene.cloud, scene.mesh, PipelineConfig())
            filtered.append(len(registered))
        assert filtered[0] < 25_000 < filtered[1]
        assert counts == [50_000, 50_000]

    # The scan misses this thin plate's bottom face, so its centroid sits 1.5
    # above the CAD samples' and the centroid match starts every candidate
    # 1.5 below the part. Raced against all 50,000 samples, ICP from the
    # right rotation stopped after 2 steps 1.1 below the part, when the next
    # step raised its trimmed RMSE (capped cost 0.52 against all samples),
    # and a candidate flipped by 180 degrees won at 0.39. Against the sparser
    # CAD probe the same start converges to within 0.09 degrees and wins, at
    # capped cost 0.77 against the probe to the flipped ones' 0.94.
    def test_square_plate_not_flipped(self):
        scene = generate_synthetic_scene(
            parse_scene_spec("plate width=40 height=40 holes=4 spacing=1.6"), seed=1)
        fit, _, _ = _register(scene.cloud, scene.mesh, PipelineConfig())
        gap = fit.transform.rotation @ scene.truth.transform.rotation.T
        assert rotation_angle_deg(gap) < 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_square_plate_assessed_end_to_end(self, seed):
        # The same plate at twice the density, with its truth circles: every
        # rim is found and the global error stays near the noise (0.005).
        scene = generate_synthetic_scene(
            parse_scene_spec("plate width=40 height=40 holes=4 spacing=0.8"), seed=seed)
        report = pipeline.run_pipeline(scene.cloud, scene.mesh, PipelineConfig(),
                                       truth_circles=scene.truth.circles)
        assert report.e_global <= 5 * 0.005
        assert (report.f_n, report.f_p) == (0, 0)


class TestRegistrationError:
    def test_is_the_mean_of_the_surface_distances(self):
        d = np.random.default_rng(0).exponential(0.01, size=1000)
        assert registration_error(d) == d.mean()
