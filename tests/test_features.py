"""Tensor voting, edge detection, circle fitting, the multi-circle scheme and
the feature-level scoring."""

import functools
import importlib.util
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment
from scipy.optimize._numdiff import approx_derivative
from scipy.spatial import cKDTree

from partcheck import features
from partcheck.config import PipelineConfig
from partcheck.features import (
    Circle3D,
    CircleLabeling,
    _circumcircles,
    _group_modes,
    cluster_labels,
    detect_edge_points,
    edge_scores,
    fit_circle_iterative,
    fit_circle_lsq,
    generate_hypotheses,
    match_circles,
    mcfs,
    off_crease_mask,
    part_level_rims,
    reduce_hypotheses,
    refine_coverage,
    residual_matrix,
    score_circles,
    tensor_vote,
)
from partcheck.geometry import (SYM3_ENTRIES, PointCloud, RigidTransform, canonical_sign,
                                estimate_normals_and_curvature, median_spacing,
                                strided_indices, sym3_matrices)
from partcheck.primitives import Configuration, Cylinder, FitError, Plane, Primitive
from partcheck.synth import circles_scene, cube_scene, plate_scene


def circle_points(circle: Circle3D, n: int, rng=None, noise=0.0):
    u = np.cross(circle.normal, [1.0, 0.0, 0.0])
    if np.linalg.norm(u) < 1e-9:
        u = np.cross(circle.normal, [0.0, 1.0, 0.0])
    u /= np.linalg.norm(u)
    v = np.cross(circle.normal, u)
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    pts = circle.center + circle.radius * (np.outer(np.cos(t), u) + np.outer(np.sin(t), v))
    if noise and rng is not None:
        pts = pts + rng.normal(scale=noise, size=pts.shape)
    return pts


def as_circles(rows) -> list[Circle3D]:
    """``generate_hypotheses`` rows as circles, for ``residual_matrix``."""
    return [Circle3D(row[:3], row[6], row[3:6]) for row in rows]


def edge_radius(cloud) -> float:
    """The radius the feature stage votes over."""
    return PipelineConfig().tensor_radius_factor * median_spacing(cloud.points)


def segment_distance(points, a, b):
    """Distance from each point to the segment from ``a`` to ``b``."""
    ab = b - a
    t = np.clip((points - a) @ ab / (ab @ ab), 0.0, 1.0)
    return np.linalg.norm(points - (a + t[:, None] * ab), axis=1)


def bbox_diagonal(pts) -> float:
    """The scale ``mcfs`` passes to ``reduce_hypotheses``."""
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


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


# ---------------------------------------------------------------------------
# Tensor voting and edge detection
# ---------------------------------------------------------------------------

class TestTensorVoting:
    def test_uniform_curvature_gives_zero_tensor(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(50, 3))
        cloud = PointCloud(points=pts, curvatures=np.full(50, 0.25))
        sums = tensor_vote(cloud, radius=0.5, sigma=0.5)
        assert np.abs(sums).max() == 0.0
        assert np.isnan(edge_scores(sums)).all()

    def test_isolated_point_undefined(self):
        pts = np.array([[0, 0, 0], [10, 0, 0], [0, 10, 0.0]])
        cloud = PointCloud(points=pts, curvatures=np.array([0.1, 0.2, 0.3]))
        scores = edge_scores(tensor_vote(cloud, radius=0.5, sigma=0.5))
        assert np.isnan(scores).all()

    @staticmethod
    def hand_tensor(pts, curv, i, sigma):
        """Explicit arithmetic for point i's votes from every point not at
        its position."""
        expected = np.zeros((3, 3))
        for j in range(len(pts)):
            q = pts[i] - pts[j]
            qn = np.linalg.norm(q)
            if qn == 0.0:
                continue
            mu = np.exp(-qn / sigma ** 2)
            dk = abs(curv[i] - curv[j])
            projector = np.eye(3) - np.outer(q, q) / (qn * qn)
            expected += mu * dk * projector
        return expected

    def test_two_neighbor_hand_case(self):
        # A point with two neighbors.
        pts = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.4, 0.0]])
        curv = np.array([0.30, 0.10, 0.05])
        cloud = PointCloud(points=pts, curvatures=curv)
        sums = tensor_vote(cloud, radius=1.0, sigma=0.5)
        assert sums.shape == (len(SYM3_ENTRIES), 3)
        tensors = sym3_matrices(sums)
        assert np.abs(tensors[0] - self.hand_tensor(pts, curv, 0, 0.5)).max() < 1e-12

    def test_a_coincident_pair_casts_no_vote(self):
        # Points 0 and 1 coincide: their offset has no direction, so the
        # pair is dropped, and each twin keeps the votes of the other two.
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.4, 0.0]])
        curv = np.array([0.30, 0.20, 0.10, 0.05])
        cloud = PointCloud(points=pts, curvatures=curv)
        tensors = sym3_matrices(tensor_vote(cloud, radius=1.0, sigma=0.5))
        assert np.isfinite(tensors).all()
        for twin in (0, 1):
            want = self.hand_tensor(pts, curv, twin, 0.5)
            assert np.abs(tensors[twin] - want).max() < 1e-12

    def test_tensors_are_psd_and_reconstruct(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(200, 3))
        cloud = PointCloud(points=pts, curvatures=rng.uniform(0, 0.3, 200))
        tensors = sym3_matrices(tensor_vote(cloud, radius=0.3, sigma=0.5))
        assert np.array_equal(tensors, tensors.transpose(0, 2, 1))
        assert np.linalg.eigvalsh(tensors).min() >= -1e-12

    def test_edge_scores_agree_with_lapack_in_any_block(self, monkeypatch):
        rng = np.random.default_rng(2)
        cloud = PointCloud(points=rng.uniform(0, 1, size=(300, 3)),
                           curvatures=rng.uniform(0, 0.3, 300))
        sums = tensor_vote(cloud, radius=0.2, sigma=0.5)
        scores = edge_scores(sums)
        lam = np.clip(np.linalg.eigvalsh(sym3_matrices(sums)), 0.0, None)
        want = (lam[:, 0] + lam[:, 1]) / lam[:, 2]
        assert np.allclose(scores, want, rtol=1e-12, atol=0)
        monkeypatch.setattr(features.geometry, "_ROW_BLOCK", 7)
        assert np.array_equal(edge_scores(sums), scores)

    def test_requires_curvatures(self):
        cloud = PointCloud(points=np.zeros((5, 3)))
        with pytest.raises(ValueError):
            tensor_vote(cloud, radius=1.0, sigma=0.5)

    @pytest.mark.parametrize("radius", [np.nan, 0.0, -1.0])
    def test_rejects_a_radius_that_is_not_positive(self, radius):
        # A NaN radius would find no pair and leave every tensor zero.
        cloud = PointCloud(points=np.eye(3), curvatures=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError, match="radius must be positive"):
            tensor_vote(cloud, radius=radius, sigma=0.5)

    @pytest.mark.parametrize("sigma", [np.nan, 0.0, -0.5])
    def test_rejects_a_sigma_that_is_not_positive(self, sigma):
        # sigma = 0 would divide by zero and leave every tensor zero.
        cloud = PointCloud(points=np.eye(3), curvatures=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError, match="sigma must be positive"):
            tensor_vote(cloud, radius=2.0, sigma=sigma)


class TestDetectEdgePoints:
    def test_flat_plane_empty(self):
        rng = np.random.default_rng(2)
        xs = np.linspace(0, 10, 70)
        pts = np.array([(x, y, 0.0) for x in xs for y in xs])
        pts += rng.normal(scale=0.003, size=pts.shape)
        cloud = estimate_normals_and_curvature(PointCloud(points=pts), k=16)
        assert len(detect_edge_points(cloud, edge_radius(cloud))) == 0

    def test_plate_rim_concentration(self):
        # The scan lies in the CAD frame. The plate's sharp edges are each
        # hole's rim on the top and bottom faces and the two outer rectangles.
        side, thickness = 40.0, 5.0
        scene = plate_scene(width=side, height=side, thickness=thickness, holes=4,
                            hole_r_min=3, hole_r_max=5, spacing=0.4,
                            noise=0.004, seed=4)
        cloud = estimate_normals_and_curvature(scene.cloud, k=16)
        spacing = median_spacing(scene.cloud.points)
        idx = detect_edge_points(cloud, edge_radius(cloud))
        assert len(idx) > 100
        pts = scene.cloud.points[idx]
        rims = [*scene.truth.circles, *(Circle3D(c.center - (0.0, 0.0, thickness), c.radius,
                                                 c.normal) for c in scene.truth.circles)]
        corners = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
        sides = [segment_distance(pts, np.append(a, z), np.append(b, z))
                 for z in (0.0, thickness) for a, b in zip(corners, np.roll(corners, -1, axis=0))]
        d = np.min([rim.distance(pts) for rim in rims] + sides, axis=0)
        assert (d <= 2 * spacing).mean() >= 0.9

    def test_infinite_threshold_empty(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(300, 3))
        cloud = PointCloud(points=pts, curvatures=rng.uniform(0, 0.3, 300))
        assert len(detect_edge_points(cloud, 0.3, PipelineConfig(edge_threshold=3.0))) == 0

    def test_rigid_invariance(self):
        rng = np.random.default_rng(4)
        scene = cube_scene(side=6.0, spacing=0.25, noise=0.003, seed=5)
        cloud = estimate_normals_and_curvature(scene.cloud, k=16)
        base = detect_edge_points(cloud, radius=1.0)
        m = rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(m)
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved_cloud = cloud.transformed(RigidTransform(q, rng.uniform(-2, 2, 3)))
        moved = detect_edge_points(moved_cloud, radius=1.0)
        agree = len(np.intersect1d(base, moved)) / max(len(base), len(moved), 1)
        assert agree > 0.99


def two_plane_config(angle_deg: float) -> Configuration:
    """A 10 x 10 floor (z = 0, x in [0, 10]) and a face hinged on its y axis
    edge, turned ``angle_deg`` from the floor: the crease is x = z = 0,
    0 <= y <= 10."""
    grid = np.linspace(0.0, 10.0, 41)
    u, v = (g.ravel() for g in np.meshgrid(grid, grid))
    t = np.deg2rad(angle_deg)
    floor = np.column_stack([u, v, np.zeros_like(u)])
    face = np.column_stack([-u[u > 0] * np.cos(t), v[u > 0], u[u > 0] * np.sin(t)])
    floor_n = np.array([0.0, 0.0, 1.0])
    face_n = np.array([np.sin(t), 0.0, np.cos(t)])
    n = len(floor)
    return Configuration(
        points=np.vstack([floor, face]),
        primitives=[Primitive(Plane(floor_n, 0.0), np.arange(n)),
                    Primitive(Plane(face_n, 0.0), np.arange(n, n + len(face)))],
        tunables=PipelineConfig(min_points=10))


class TestOffCreaseMask:
    RADIUS = 1.0
    MIN_ANGLE = np.deg2rad(20.0)

    @staticmethod
    def crease_band():
        y = np.linspace(0.0, 10.0, 21)
        return np.vstack([np.column_stack([np.full_like(y, d), y, np.zeros_like(y)])
                          for d in (0.0, 0.3, 0.6)])

    def test_crease_dropped_and_rim_kept(self):
        config = two_plane_config(90.0)
        band = self.crease_band()
        rim = circle_points(Circle3D(np.array([6.0, 5.0, 0.0]), 1.5,
                                     np.array([0.0, 0.0, 1.0])), 40)
        keep = off_crease_mask(np.vstack([band, rim]), config, self.RADIUS, self.MIN_ANGLE)
        assert not keep[:len(band)].any()
        assert keep[len(band):].all()

    def test_shallow_fold_drops_nothing(self):
        config = two_plane_config(10.0)
        keep = off_crease_mask(self.crease_band(), config, self.RADIUS, self.MIN_ANGLE)
        assert keep.all()

    def test_ring_past_the_segment_end_kept(self):
        # Every point of this ring lies within the radius of the crease's
        # infinite line, but beyond the clipped segment y <= 10 + radius.
        config = two_plane_config(90.0)
        ring = circle_points(Circle3D(np.array([0.0, 13.5, 0.0]), 1.0,
                                      np.array([0.0, 0.0, 1.0])), 40)
        assert (np.hypot(ring[:, 0], ring[:, 2]) <= self.RADIUS + 1e-12).all()
        keep = off_crease_mask(ring, config, self.RADIUS, self.MIN_ANGLE)
        assert keep.all()


# ---------------------------------------------------------------------------
# Circle geometry
# ---------------------------------------------------------------------------

class TestCircleDistance:
    def test_on_circle_zero(self):
        c = Circle3D(np.zeros(3), 2.0, np.array([0.0, 0.0, 1.0]))
        assert c.distance((2.0, 0.0, 0.0))[0] == pytest.approx(0.0)

    def test_center_gives_radius(self):
        c = Circle3D(np.zeros(3), 2.0, np.array([0.0, 0.0, 1.0]))
        assert c.distance((0.0, 0.0, 0.0))[0] == pytest.approx(2.0)

    def test_against_dense_parameterization(self):
        rng = np.random.default_rng(5)
        c = Circle3D(rng.uniform(-1, 1, 3), 1.7, rng.normal(size=3))
        ring = circle_points(c, 1_000_000)
        for _ in range(8):
            p = rng.uniform(-3, 3, 3)
            dense = np.linalg.norm(ring - p, axis=1).min()
            assert c.distance(p)[0] == pytest.approx(dense, abs=1e-5)

    def test_zero_iff_on_circle(self):
        rng = np.random.default_rng(6)
        c = Circle3D(rng.uniform(-1, 1, 3), 1.2, rng.normal(size=3))
        on = circle_points(c, 64)
        assert c.distance(on).max() < 1e-9
        off = on + 0.01 * c.normal
        assert c.distance(off).min() > 1e-3


def one_circumcircle(a, b, c):
    """``_circumcircles`` on a single row: (center, radius, normal, collinear)."""
    rows = (np.asarray(p, dtype=np.float64).reshape(1, 3) for p in (a, b, c))
    return tuple(out[0] for out in _circumcircles(*rows))


class TestCircumcircle:
    def test_symmetric_triple(self):
        center, radius, normal, collinear = one_circumcircle((1, 0, 0), (0, 1, 0), (-1, 0, 0))
        c = Circle3D(center, radius, normal)
        assert not collinear
        assert np.abs(c.center).max() < 1e-12
        assert c.radius == pytest.approx(1.0)
        assert abs(abs(c.normal[2]) - 1.0) < 1e-12

    def test_collinear_rejected(self):
        assert one_circumcircle((0, 0, 0), (1, 1, 1), (2, 2, 2))[3]

    def test_coincident_points_rejected(self):
        assert one_circumcircle((1, 2, 3), (1, 2, 3), (1, 2, 3))[3]

    def test_batched_rows_pass_through_their_points(self):
        rng = np.random.default_rng(13)
        a, b, c = (rng.normal(scale=4.0, size=(2000, 3)) for _ in range(3))
        # Exactly collinear rows, one of them three coincident points, and
        # rows lifted off their line by 1e-12 or 1e-6 of its length. The
        # circumcircle of a nearly straight triple is ill-conditioned (its
        # error grows like radius * eps), so the kept near-line rows sit at
        # 1e-6, where the radius reaches about 1e5 spans.
        base, tip = rng.normal(size=(2, 60, 3))
        t = rng.uniform(0.0, 1.0, size=(60, 1))
        lift = np.cross(tip - base, rng.normal(size=(60, 3)))
        lift /= np.linalg.norm(lift, axis=1)[:, None]
        length = np.linalg.norm(tip - base, axis=1)[:, None]
        on_line = base + t * (tip - base)
        a = np.vstack([a, base, base[:1], base, base])
        b = np.vstack([b, tip, base[:1], tip, tip])
        c = np.vstack([c, on_line, base[:1], on_line + 1e-12 * length * lift,
                       on_line + 1e-6 * length * lift])
        centers, radii, normals, collinear = _circumcircles(a, b, c)
        assert collinear[2000:2121].all()
        assert not collinear[2121:].any()
        for i in np.nonzero(~collinear)[0]:
            tri = np.stack([a[i], b[i], c[i]])
            span = max(np.linalg.norm(b[i] - a[i]), np.linalg.norm(c[i] - a[i]),
                       np.linalg.norm(c[i] - b[i]))
            circle = Circle3D(centers[i], radii[i], normals[i])
            assert circle.distance(tri).max() <= 1e-9 * span


class TestGenerateHypotheses:
    def test_exact_circle_gives_identical_hypotheses(self):
        c = Circle3D(np.array([1.0, 2.0, 3.0]), 2.0, np.array([0.0, 0.0, 1.0]))
        pts = circle_points(c, 100)
        hyps = generate_hypotheses(pts, 50, seed=1)
        assert hyps.shape == (50, 7)
        for h in hyps:
            assert np.abs(h[:3] - c.center).max() < 1e-9
            assert h[6] == pytest.approx(2.0, abs=1e-9)

    def test_collinear_set_rejected(self):
        pts = np.outer(np.linspace(0, 1, 50), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="degenerate edge set"):
            generate_hypotheses(pts, 10, seed=0)

    def test_random_stream_is_pinned(self):
        # Values recorded from the array draw, one block of triples at a
        # time; a change to the draws moves every row after it and every sum.
        rng = np.random.default_rng(21)
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, 80))
        u, v = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8])
        pts = np.array([0.5, -1.0, 2.0]) + 1.5 * (np.outer(np.cos(t), u) + np.outer(np.sin(t), v))
        pts += rng.normal(scale=0.01, size=pts.shape)
        hyps = generate_hypotheses(pts, 200, seed=5)
        assert len(hyps) == 200
        rows = hyps[:, [0, 1, 2, 6]]
        expected = {
            0: [0.4854204157047976, -1.008482765401976, 1.98872069980052, 1.498376075068614],
            1: [0.4467231323728055, -0.960601489141473, 2.0516901721431196, 1.5591787699847628],
            2: [0.5425462078215291, -1.0083959746359996, 2.033170837296302, 1.4658987951361426],
            57: [0.5163198751335072, -0.7711803076349455, 1.814538836626257, 1.5281283409306932],
            123: [0.3172593462220592, -0.8048390796730573, 1.80674887276716, 1.3540437605537765],
            198: [0.43734102865815994, -1.0056076653820356, 1.881183193272663, 1.5833693069268846],
            199: [1.585152721890075, -0.08800021648523515, 1.7643168255405506, 0.9917004145061835],
        }
        for i, row in expected.items():
            np.testing.assert_allclose(rows[i], row, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            rows.sum(axis=0),
            [101.52068880691606, -182.82778113160634, 398.1629982212872, 305.76759564695305],
            rtol=0, atol=1e-9)

    def test_duplicate_points_give_finite_rows(self):
        # Each point three times over: the nearest-neighbor table can name
        # another copy of a point first, so a companion can be the first
        # point itself, and a triple can hold two copies of one point.
        c = Circle3D(np.array([1.0, 0.0, -2.0]), 1.5, np.array([0.0, 1.0, 1.0]))
        pts = np.repeat(circle_points(c, 40, rng=np.random.default_rng(4), noise=0.01), 3, axis=0)
        for seed in range(5):
            hyps = generate_hypotheses(pts, 150, seed=seed)
            assert hyps.shape == (150, 7)
            assert np.isfinite(hyps).all()

    def test_draw_limit_on_locally_collinear_set(self):
        # Two far-apart lines, each longer than the neighbor pool: every
        # triple is collinear, though the set as a whole is not.
        line = np.outer(np.arange(features.NEIGHBOR_POOL + 40, dtype=float), [1.0, 0.0, 0.0])
        pts = np.vstack([line, line + [0.0, 1e6, 0.0]])
        with pytest.raises(ValueError, match="degenerate edge set"):
            generate_hypotheses(pts, 5, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(60, 3))
        a = generate_hypotheses(pts, 40, seed=9)
        b = generate_hypotheses(pts, 40, seed=9)
        assert len(a) == len(b)
        assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(rows=arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)),
                       elements=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                          st.floats(-1e6, 1e6))),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_carry_canonical_unit_normals(self, rows, seed):
        def scalar_rule(v):
            # The one-vector rule: the first nonzero of (z, y, x) is positive.
            for c in (2, 1, 0):
                if v[c] > 0.0:
                    return v
                if v[c] < 0.0:
                    return -v
            return v

        expected = np.array([scalar_rule(v) for v in rows])
        # Bytes, so that 0.0 and -0.0 count as different.
        assert canonical_sign(rows).tobytes() == expected.tobytes()
        for v, e in zip(rows, expected):
            assert canonical_sign(v).tobytes() == e.tobytes()

        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(40, 3))
        normals = generate_hypotheses(pts, 60, seed=seed)[:, 3:6]
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=0, atol=1e-12)
        assert canonical_sign(normals).tobytes() == normals.tobytes()


class TestReduceHypotheses:
    def test_jittered_copies_collapse_to_one(self):
        rng = np.random.default_rng(8)
        c = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
        pts = circle_points(c, 60, rng=rng, noise=1e-4)
        hyps = generate_hypotheses(pts, 100, seed=3)
        modes = reduce_hypotheses(hyps, bandwidth=0.05, scale=bbox_diagonal(pts),
                                  max_modes=len(hyps))
        assert len(modes) == 1

    def test_two_separated_circles_two_modes(self):
        rng = np.random.default_rng(9)
        c1 = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
        c2 = Circle3D(np.array([8.0, 0.0, 0.0]), 1.5, np.array([0.0, 0.0, 1.0]))
        p1 = circle_points(c1, 50, rng=rng, noise=1e-4)
        p2 = circle_points(c2, 50, rng=rng, noise=1e-4)
        hyps = np.vstack([generate_hypotheses(p1, 60, seed=4), generate_hypotheses(p2, 60, seed=5)])
        modes = reduce_hypotheses(hyps, bandwidth=0.05, scale=bbox_diagonal(np.vstack([p1, p2])),
                                  max_modes=len(hyps))
        assert len(modes) == 2

    def test_single_hypothesis_is_itself(self):
        c = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
        pts = circle_points(c, 30)
        hyps = generate_hypotheses(pts, 1, seed=0)
        (mode,) = reduce_hypotheses(hyps, bandwidth=0.05, scale=bbox_diagonal(pts),
                                    max_modes=len(hyps))
        assert np.array_equal(mode.center, hyps[0, :3])
        assert np.array_equal(mode.normal, hyps[0, 3:6])
        assert mode.radius == hyps[0, 6]

    def test_neighbor_lists_stay_bounded(self):
        # 700 distinct hypotheses within a tenth of the bandwidth of one
        # circle's row all lie within one bandwidth of each other, so a
        # whole-set ball table holds 700 x 700 pairs and gathers as many 7-d
        # rows (37 MB traced); blocks of rows hold a fraction of that. Every
        # ball holds them all, so they reach one mode in one step.
        bandwidth = 0.05
        row = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        offsets = np.random.default_rng(1).uniform(-1.0, 1.0, size=(700, 7))
        hyps = row + offsets * (0.1 * bandwidth / np.sqrt(7))
        assert len(np.unique(hyps, axis=0)) == len(hyps)
        assert np.linalg.norm(hyps - row, axis=1).max() <= 0.1 * bandwidth
        tracemalloc.start()
        try:
            modes = reduce_hypotheses(hyps, bandwidth=bandwidth, scale=1.0,
                                      max_modes=len(hyps))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(modes) == 1
        assert peak < 24 * 2**20

    def test_ball_means_match_brute_force(self):
        # More than two blocks of queries, repeated queries and one query
        # whose ball is empty. Each ball is summed by one reduceat in
        # ascending data index; the sum's rounding depends on that order, so
        # a ball read in another order fails.
        rng = np.random.default_rng(21)
        data = rng.uniform(size=(2000, 7))
        queries = rng.uniform(size=(600, 7))
        queries[300:320] = queries[:20]
        queries[599] = 5.0
        radius = 0.5

        expected = queries.copy()
        sizes = []
        for q, row in zip(queries, expected):
            near = np.flatnonzero(np.linalg.norm(data - q, axis=1) <= radius)
            sizes.append(len(near))
            if len(near):
                row[:] = np.add.reduceat(data[near], [0], axis=0)[0] / len(near)
        got = features._ball_means(cKDTree(data), data, queries, radius)
        assert len(queries) > 2 * features._BALL_BLOCK
        assert sizes[599] == 0 and min(sizes[:599]) > 1
        assert np.array_equal(got, expected)

    def test_duplicate_modes_step_once(self, monkeypatch):
        # Copies of one hypothesis share every mean-shift step, so each
        # step queries each distinct mode once, and the circles are those
        # of shifting every row on its own, one ball query at a time.
        rng = np.random.default_rng(5)
        pts = np.vstack([circle_points(Circle3D(center, radius, np.array([0.0, 0.0, 1.0])),
                                       40, rng=rng, noise=0.01)
                         for center, radius in ((np.zeros(3), 1.0),
                                                (np.array([4.0, 0.0, 0.0]), 0.5))])
        base = generate_hypotheses(pts, 120, seed=6)
        hyps = np.vstack([base, base[::3], base[rng.permutation(len(base))]])
        scale, bandwidth = bbox_diagonal(pts), 0.05

        data = hyps / [scale, scale, scale, 1.0, 1.0, 1.0, scale]
        tree = cKDTree(data)
        modes = data.copy()
        for mode in modes:
            for _ in range(100):
                target = features._ball_means(tree, data, mode[None], bandwidth)[0]
                shift = np.linalg.norm(target - mode)
                mode[:] = target
                if shift < 1e-2 * bandwidth:
                    break
        groups = _group_modes(modes, bandwidth / 2.0)
        expected = []
        for group in np.argsort(-np.bincount(groups), kind="stable"):
            members = np.nonzero(groups == group)[0]
            offsets = np.linalg.norm(data[members] - modes[members].mean(axis=0), axis=1)
            expected.append(hyps[members[np.argmin(offsets)]])

        queried = []
        ball_means = features._ball_means
        monkeypatch.setattr(features, "_ball_means",
                            lambda t, d, q, r: queried.append(q) or ball_means(t, d, q, r))
        got = reduce_hypotheses(hyps, bandwidth, scale=scale, max_modes=len(hyps))
        assert all(len(np.unique(q, axis=0)) == len(q) for q in queried)
        assert len(queried[0]) == len(base)
        assert len(got) == len(expected) > 1
        for circle, want in zip(got, as_circles(expected)):
            assert np.array_equal(circle.center, want.center)
            assert np.array_equal(circle.normal, want.normal)
            assert circle.radius == want.radius

    def test_grouping_matches_pairwise_scan(self):
        rng = np.random.default_rng(17)
        chunks = [circle_points(Circle3D(center, radius, normal), 60, rng=rng, noise=0.01)
                  for center, radius, normal in (
                      (np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0])),
                      (np.array([3.0, 0.5, 0.0]), 0.6, np.array([0.0, 1.0, 1.0])),
                      (np.array([1.0, 3.0, 0.5]), 1.4, np.array([1.0, 0.0, 0.2])))]
        pts = np.vstack(chunks)
        modes = generate_hypotheses(pts, 1500, seed=2)
        modes[:, [0, 1, 2, 6]] /= bbox_diagonal(pts)
        clutter = rng.uniform(modes.min(axis=0), modes.max(axis=0), size=(300, 7))
        modes = np.vstack([modes, clutter, modes[:200:7]])
        radius = 0.025

        expected = np.full(len(modes), -1, dtype=np.int64)
        groups = 0
        for i in range(len(modes)):
            if expected[i] >= 0:
                continue
            d = np.linalg.norm(modes - modes[i], axis=1)
            expected[(expected < 0) & (d <= radius)] = groups
            groups += 1

        assigned = _group_modes(modes, radius)
        assert np.array_equal(assigned, expected)
        # Many groups take more than one mode, so the greedy order matters.
        assert 1 < groups < len(modes) - 300

    @settings(max_examples=200, deadline=None)
    @given(modes=arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)),
                        elements=st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])),
           radius=st.sampled_from([0.0, 0.5, 1.0, 4.0]))
    def test_grouping_matches_greedy_scan_on_any_set(self, modes, radius):
        # The pairwise scan above, on small sets. Halves and their squares
        # are exact, so a distance equal to the radius reads the same to the
        # tree as to the scan. Rows repeat often, 0.0 and -0.0 are the same
        # mode, and a radius of 0 leaves no distinct mode a neighbour while 4
        # spans the whole cube.
        expected = np.full(len(modes), -1, dtype=np.int64)
        groups = 0
        for i in range(len(modes)):
            if expected[i] < 0:
                d = np.linalg.norm(modes - modes[i], axis=1)
                expected[(expected < 0) & (d <= radius)] = groups
                groups += 1
        assert np.array_equal(_group_modes(modes, radius), expected)


class TestResidualMatrix:
    def test_zero_for_points_on_hypothesis(self):
        c = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
        pts = circle_points(c, 20)
        hyps = as_circles(generate_hypotheses(pts, 5, seed=1))
        r = residual_matrix(pts, hyps)
        assert r.shape == (20, 5)
        assert r.max() < 1e-9

    def test_hand_case(self):
        c1 = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
        c2 = Circle3D(np.array([5.0, 0.0, 0.0]), 2.0, np.array([0.0, 0.0, 1.0]))
        pts = np.array([[1.0, 0.0, 0.0], [5.0, 0.0, 1.0]])
        r = residual_matrix(pts, [c1, c2])
        assert r[0, 0] == pytest.approx(0.0)
        # point (1,0,0) vs c2: in plane, 4 from the center, |4 - r| = 2
        assert r[0, 1] == pytest.approx(2.0)
        # point (5,0,1) sits 1 above c2's center: axial 1, radial deviation 2
        assert r[1, 1] == pytest.approx(np.sqrt(1.0 + 4.0))

    def test_random_entries_finite_nonnegative(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-2, 2, size=(40, 3))
        c = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
        hyps = as_circles(generate_hypotheses(circle_points(c, 30), 10, seed=2))
        r = residual_matrix(pts, hyps)
        assert np.isfinite(r).all() and (r >= 0).all()


def two_clean_circles():
    # 80 noiseless points on each of two coplanar circles, and their labels.
    c1 = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
    c2 = Circle3D(np.array([6.0, 0.0, 0.0]), 1.4, np.array([0.0, 0.0, 1.0]))
    pts = np.vstack([circle_points(c1, 80), circle_points(c2, 80)])
    return pts, np.concatenate([np.zeros(80, int), np.ones(80, int)])


class TestClusterLabels:
    def test_two_clean_circles(self):
        pts, truth = two_clean_circles()
        hyps = reduce_hypotheses(generate_hypotheses(pts, 600, seed=3), 0.05,
                                 scale=bbox_diagonal(pts), max_modes=600)
        _, labels = cluster_labels(residual_matrix(pts, hyps) <= 0.1, 10)
        assert labels.max() == 1
        assert misclassification_error(labels, truth) == pytest.approx(0.0)

    def test_two_clean_circles_at_every_seed(self):
        pts, truth = two_clean_circles()
        wrong = []
        for seed in range(20):
            hyps = reduce_hypotheses(generate_hypotheses(pts, 600, seed=seed), 0.05,
                                     scale=bbox_diagonal(pts), max_modes=600)
            _, labels = cluster_labels(residual_matrix(pts, hyps) <= 0.1, 10)
            if labels.max() != 1 or misclassification_error(labels, truth) > 0.0:
                wrong.append(seed)
        assert wrong == []

    def test_outliers_unassigned(self):
        # The bare cover takes modes that only junk supports; the support
        # test mcfs runs on each mode's settled circle turns them down.
        rng = np.random.default_rng(12)
        c = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
        ring = circle_points(c, 100, rng=rng, noise=0.005)
        junk = rng.uniform(-4, 4, size=(100, 3))
        junk[:, 2] = rng.normal(scale=0.005, size=100)
        keep = c.distance(junk) > 0.15
        junk = junk[keep]
        pts = np.vstack([ring, junk])
        labels = mcfs(pts, PipelineConfig(seed=5)).labels
        predicted_outlier = labels[len(ring):] == -1
        assert predicted_outlier.mean() >= 0.9

    def test_single_circle_single_cluster(self):
        rng = np.random.default_rng(13)
        c = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
        pts = circle_points(c, 80, rng=rng, noise=0.003)
        hyps = reduce_hypotheses(generate_hypotheses(pts, 300, seed=6), 0.05,
                                 scale=bbox_diagonal(pts), max_modes=300)
        _, labels = cluster_labels(residual_matrix(pts, hyps) <= 0.1, 10)
        assert labels.max() == 0
        assert (labels == 0).mean() > 0.95

    def test_all_empty_preferences(self):
        r = np.full((20, 3), 5.0)
        chosen, labels = cluster_labels(r <= 0.1, 5)
        assert chosen == [] and (labels == -1).all()

    # Column 0 holds rows 0-3, column 1 rows 0-5, column 2 rows 4-9 and
    # column 3 rows 9-11.
    COVER = np.zeros((12, 4), dtype=bool)
    COVER[0:4, 0] = COVER[0:6, 1] = COVER[4:10, 2] = COVER[9:12, 3] = True

    def test_greedy_order_ties_and_stop(self):
        # Columns 1 and 2 tie at 6 and the first wins. Column 2 then gains
        # 4 against column 3's 3 and column 0's none. Column 3's last gain,
        # 2, is below 3.
        chosen, labels = cluster_labels(self.COVER, 3)
        assert chosen == [1, 2]
        assert labels.tolist() == [0] * 6 + [1] * 4 + [-1] * 2
        chosen, labels = cluster_labels(self.COVER, 2)
        assert chosen == [1, 2, 3]
        assert labels.tolist() == [0] * 6 + [1] * 4 + [2] * 2

    def test_take_rows_count_as_covered(self):
        # Column 1's take also covers rows 6-9, so column 2 gains nothing
        # and rows 6-9 stay unlabeled.
        calls = []

        def take(column, new):
            calls.append((column, np.flatnonzero(new).tolist()))
            return new | (np.arange(12) < 10)

        chosen, labels = cluster_labels(self.COVER, 1, take)
        assert chosen == [1, 3]
        assert calls == [(1, [0, 1, 2, 3, 4, 5]), (3, [10, 11])]
        assert labels.tolist() == [0] * 6 + [-1] * 4 + [1] * 2

        # A take that covers just the new rows acts as the default.
        chosen, labels = cluster_labels(self.COVER, 1, lambda column, new: new)
        default_chosen, default_labels = cluster_labels(self.COVER, 1)
        assert chosen == default_chosen and np.array_equal(labels, default_labels)

    def test_labels_follow_take_order(self):
        # The same sets as columns 3, 2, 1: taken as columns 1, 2, 0.
        chosen, labels = cluster_labels(self.COVER[:, [3, 2, 1]], 2)
        assert chosen == [1, 2, 0]
        assert labels.tolist() == [1] * 4 + [0] * 6 + [2] * 2


class TestIterativeCircleFit:
    def test_exact_circle_immediate(self):
        c = Circle3D(np.array([1.0, -2.0, 0.5]), 1.8, np.array([0.0, 0.0, 1.0]))
        pts = circle_points(c, 60)
        fitted, inliers = fit_circle_iterative(pts)
        assert len(inliers) == 60
        assert np.abs(fitted.center - c.center).max() < 1e-9
        assert fitted.radius == pytest.approx(1.8, abs=1e-9)

    def test_gross_outliers_rejected(self):
        rng = np.random.default_rng(14)
        c = Circle3D(np.zeros(3), 1.5, np.array([0.0, 0.0, 1.0]))
        ring = circle_points(c, 200, rng=rng, noise=0.004)
        outliers = rng.uniform(-3, 3, size=(80, 3))
        outliers[:, 2] = rng.normal(scale=0.004, size=80)
        outliers = outliers[c.distance(outliers) > 0.2][:40]
        pts = np.vstack([ring, outliers])
        fitted, inliers = fit_circle_iterative(pts, PipelineConfig(inlier_eps=0.1))
        assert np.linalg.norm(fitted.center - c.center) < 1e-3
        assert fitted.radius == pytest.approx(1.5, abs=1e-3)
        assert len(inliers) >= 0.8 * len(ring)
        kept = set(inliers.tolist())
        assert not kept.intersection(range(len(ring), len(pts)))

    def test_three_points_is_circumcircle(self):
        tri = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        fitted, inliers = fit_circle_iterative(tri)
        assert len(inliers) == 3
        assert np.abs(fitted.center).max() < 1e-9
        assert fitted.radius == pytest.approx(1.0, abs=1e-9)

    def test_collapse_raises(self):
        with pytest.raises(FitError):
            fit_circle_iterative(np.zeros((2, 3)))

    def test_inliers_never_grow(self):
        rng = np.random.default_rng(15)
        c = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
        pts = np.vstack([circle_points(c, 100, rng=rng, noise=0.01),
                         rng.uniform(-2, 2, (50, 3))])
        _, inliers = fit_circle_iterative(pts, PipelineConfig(inlier_eps=0.1))
        assert len(inliers) <= len(pts)


class TestCircleFit:
    def test_polish_jacobian_matches_central_differences(self, monkeypatch):
        # fit_circle_lsq hands MINPACK's lmder its residual's Jacobian; at
        # seeded random parameters it equals 3-point differences within
        # 1e-6 relative.
        rng = np.random.default_rng(34)
        normal = np.array([0.2, -0.1, 1.0]) / np.linalg.norm([0.2, -0.1, 1.0])
        c = Circle3D(np.array([0.5, -1.0, 2.0]), 1.3, normal)
        problems = []
        least_squares = features.least_squares

        def recording(fun, x0, jac, **kwargs):
            problems.append((fun, jac))
            return least_squares(fun, x0, jac=jac, **kwargs)

        monkeypatch.setattr(features, "least_squares", recording)
        fitted = fit_circle_lsq(circle_points(c, 80, rng=rng, noise=0.01))
        assert fitted.radius == pytest.approx(1.3, abs=0.01)
        (fun, jac), = problems
        for _ in range(5):
            # In-plane center offsets and radius, as the polish parametrizes them.
            x = np.array([0.0, 0.0, 1.3]) + rng.normal(scale=0.4, size=3)
            numeric = approx_derivative(fun, x, method="3-point")
            assert np.abs(jac(x) - numeric).max() <= 1e-6 * np.abs(numeric).max()


class TestRefineCoverage:
    def test_near_duplicates_collapse(self):
        rng = np.random.default_rng(16)
        c = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
        pts = circle_points(c, 80, rng=rng, noise=0.005)
        dup = Circle3D(c.center + (0.003, 0, 0), 1.001, c.normal)
        out = refine_coverage([c, dup], pts, PipelineConfig(inlier_eps=0.1))
        assert len(out.circles) == 1

    def test_disjoint_circles_survive(self):
        rng = np.random.default_rng(17)
        c1 = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
        c2 = Circle3D(np.array([7.0, 0.0, 0.0]), 1.2, np.array([0.0, 0.0, 1.0]))
        pts = np.vstack([circle_points(c1, 60, rng=rng, noise=0.004),
                         circle_points(c2, 60, rng=rng, noise=0.004)])
        out = refine_coverage([c1, c2], pts, PipelineConfig(inlier_eps=0.1))
        assert len(out.circles) == 2
        assert (out.labels >= 0).all()

    def test_greedy_close_to_optimal_cover(self):
        # 12 points, 3 candidate circles; compare with the exhaustive optimum.
        rng = np.random.default_rng(18)
        c1 = Circle3D(np.zeros(3), 1.0, np.array([0.0, 0.0, 1.0]))
        c2 = Circle3D(np.array([1.2, 0.0, 0.0]), 1.0, np.array([0.0, 0.0, 1.0]))
        c3 = Circle3D(np.array([0.6, 0.9, 0.0]), 1.0, np.array([0.0, 0.0, 1.0]))
        circles = [c1, c2, c3]
        pts = np.vstack([circle_points(c, 4, rng=rng, noise=0.01) for c in circles])
        out = refine_coverage(circles, pts, PipelineConfig(inlier_eps=0.1, min_cluster=2))
        covered = {i for i in range(len(pts)) if out.labels[i] >= 0}
        best_size = None
        cover_sets = [set(np.nonzero(c.distance(pts) <= 0.1)[0]) for c in circles]
        for r in range(1, 4):
            for combo in itertools.combinations(range(3), r):
                union = set().union(*(cover_sets[i] for i in combo))
                if union >= covered:
                    best_size = r
                    break
            if best_size:
                break
        assert len(out.circles) <= best_size + 1


class TestMCFS:
    def test_four_circles_with_noise_and_outliers(self):
        scene = circles_scene(circles=4, points_per=150, noise=0.02,
                              outlier_frac=0.5, seed=0)
        labeling = mcfs(scene.cloud.points, PipelineConfig(seed=100))
        assert len(labeling.circles) == 4
        fn, fp, errors = score_circles(labeling.circles, scene.truth.circles, match_tol=0.3)
        assert fn == 0 and fp == 0
        r_avg, r_max, _, _ = errors
        assert r_max < 3 * 0.02

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_sixteen_hole_plate(self, seed):
        # No part level, so no rim is predicted: MCFS finds all 16 alone.
        edges, truth = sixteen_hole_plate_edges()
        labeling = mcfs(edges, PipelineConfig(seed=seed))
        fn, fp, _ = score_circles(labeling.circles, truth, match_tol=1.0)
        assert fn == 0 and fp == 0

    def test_every_circle_settles_on_its_rim(self):
        # Half the points are outliers; each circle settles onto its rim
        # from the support its refits find among the unclaimed points.
        scene = circles_scene(circles=5, outlier_frac=0.5, seed=3)
        labeling = mcfs(scene.cloud.points, PipelineConfig(seed=0))
        truth = scene.truth.circles
        pairs = match_circles(labeling.circles, truth, 0.1)
        assert sorted(j for _, j in pairs) == list(range(len(truth)))
        for i, j in pairs:
            fitted = labeling.circles[i]
            assert abs(fitted.radius - truth[j].radius) <= 0.005
            assert np.linalg.norm(fitted.center - truth[j].center) <= 0.01

    def test_stops_at_first_idle_round(self, monkeypatch):
        # One circle: round 0 claims it, and round 1 claims nothing and ends
        # the loop.
        scene = circles_scene(circles=1, points_per=150, noise=0.01,
                              outlier_frac=0.3, seed=0)
        calls = []
        original = features.generate_hypotheses

        def counted(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return original(*args, **kwargs)

        monkeypatch.setattr(features, "generate_hypotheses", counted)
        labeling = mcfs(scene.cloud.points, PipelineConfig(seed=1))
        assert len(labeling.circles) == 1
        assert len(calls) == 2

    def test_cluster_cap_takes_the_strided_points(self, monkeypatch):
        scene = circles_scene(circles=2, points_per=150, noise=0.01,
                              outlier_frac=0.3, seed=0)
        pts = scene.cloud.points
        clustered = []
        original = features.residual_matrix

        def recording(points, hyps):
            clustered.append(points)
            return original(points, hyps)

        monkeypatch.setattr(features, "residual_matrix", recording)
        monkeypatch.setattr(features, "_CLUSTER_CAP", 50)
        mcfs(pts)
        assert len(pts) > 50
        assert np.array_equal(clustered[0], pts[strided_indices(len(pts), 50)])

    def test_seeds_one_round_settles_are_disjoint(self, monkeypatch):
        # Every mode the cover takes settles its new inliers alone. With no
        # circle admitted, a turned-down mode still covers its own inliers,
        # so no later mode settles them again.
        scene = circles_scene(circles=2, points_per=150, noise=0.01,
                              outlier_frac=0.3, seed=0)
        seeds, round_seeds = [], []
        original = features._leftover_components

        def settle(seed_points, field_points, config):
            seeds.append({tuple(p) for p in seed_points})
            return None

        def leftover(*args, **kwargs):
            round_seeds.extend(seeds)
            return original(*args, **kwargs)

        monkeypatch.setattr(features, "_settle_circle", settle)
        monkeypatch.setattr(features, "_leftover_components", leftover)
        mcfs(scene.cloud.points, PipelineConfig(seed=0))
        assert len(round_seeds) >= 2
        overlapping = [(i, j) for (i, a), (j, b)
                       in itertools.combinations(enumerate(round_seeds), 2) if a & b]
        assert overlapping == []

    def test_flat_plane_has_no_edges_to_fit(self):
        rng = np.random.default_rng(19)
        xs = np.linspace(0, 8, 60)
        pts = np.array([(x, y, 0.0) for x in xs for y in xs])
        pts += rng.normal(scale=0.002, size=pts.shape)
        cloud = estimate_normals_and_curvature(PointCloud(points=pts), k=16)
        idx = detect_edge_points(cloud, edge_radius(cloud))
        assert len(idx) == 0
        with pytest.raises(ValueError):
            mcfs(pts[idx], PipelineConfig())

    def test_deterministic(self):
        scene = circles_scene(circles=3, points_per=120, noise=0.015,
                              outlier_frac=0.3, seed=3)
        a = mcfs(scene.cloud.points, PipelineConfig(seed=42))
        b = mcfs(scene.cloud.points, PipelineConfig(seed=42))
        assert np.array_equal(a.labels, b.labels)
        assert len(a.circles) == len(b.circles)
        for ca, cb in zip(a.circles, b.circles):
            assert np.array_equal(ca.center, cb.center)
            assert ca.radius == cb.radius

    def test_leftover_sweep_needs_points_within_its_radius(self):
        # A grid of spacing 1 holds no pair within 0.5, so no component
        # reaches two points; within 1.5 the two blocks are two components.
        grid = np.array([(x, y, 0.0) for x in range(4) for y in range(3)], dtype=float)
        assert list(features._leftover_components(grid, 0.5, 2)) == []
        pts = np.vstack([grid + (10.0, 0.0, 0.0), grid])
        got = list(features._leftover_components(pts, 1.5, 2))
        assert [c.tolist() for c in got] == [list(range(12)), list(range(12, 24))]

    def test_noiseless_circles_exact(self):
        rng = np.random.default_rng(20)
        truth = []
        chunks = []
        for i in range(5):
            c = Circle3D(np.array([4.0 * i, 0.0, 0.0]), 0.8 + 0.15 * i,
                         np.array([0.0, 0.0, 1.0]))
            truth.append(c)
            chunks.append(circle_points(c, 120))
        pts = np.vstack(chunks)
        labeling = mcfs(pts, PipelineConfig(seed=11))
        assert len(labeling.circles) == 5
        _, _, (_, r_max, _, c_max) = score_circles(labeling.circles, truth, match_tol=0.2)
        assert r_max < 1e-6
        assert c_max < 1e-6
        truth_labels = np.repeat(np.arange(5), 120)
        assert misclassification_error(labeling, truth_labels) == pytest.approx(0.0)


# Each (circles, points_per, noise, outlier_frac, scene seed, config seed) of
# the circles_scene cases above.
CIRCLES_SCENES = [(4, 150, 0.02, 0.5, 0, 100), (1, 150, 0.01, 0.3, 0, 1),
                  (2, 150, 0.01, 0.3, 0, 0), (3, 120, 0.015, 0.3, 3, 42)]


def bore(cylinder: Cylinder, planes) -> Configuration:
    """A part level of one cylinder and the given planes, one inlier each."""
    shapes = [cylinder, *planes]
    return Configuration(points=np.zeros((len(shapes), 3)),
                         primitives=[Primitive(shape, [i]) for i, shape in enumerate(shapes)],
                         tunables=PipelineConfig(min_points=1))


Z = np.array([0.0, 0.0, 1.0])


class TestPartLevelRims:
    def test_rim_is_where_the_axis_meets_the_face(self):
        axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        point = np.array([1.0, -2.0, 0.5])
        top, bottom = point + 4.25 * axis, point - 3.5 * axis
        tilt = np.deg2rad(3.0)
        side = np.cross(axis, [1.0, 0.0, 0.0])
        side /= np.linalg.norm(side)
        tilted = np.cos(tilt) * axis + np.sin(tilt) * side
        planes = [Plane(axis, float(axis @ top)),
                  Plane(side, 0.0),                          # a wall along the bore
                  Plane(-axis, float(-axis @ bottom)),       # its normal points the other way
                  Plane(np.cos(0.2) * axis + np.sin(0.2) * side, 1.0),   # 11 degrees off
                  Plane(tilted, float(tilted @ top))]
        rims = part_level_rims(bore(Cylinder(point, axis, 2.5), planes))
        assert len(rims) == 3
        for rim, center in zip(rims, [top, bottom, top]):
            assert np.abs(rim.center - center).max() <= 1e-9
            assert rim.radius == 2.5
            assert np.abs(rim.normal - canonical_sign(axis)).max() <= 1e-12

    def test_band_support_keeps_a_rim_no_point_is_eps_close_to(self):
        # A ring 0.2 below the rim: beyond inlier_eps (0.1), inside the claim
        # band of two spacings (2 x 2 pi 3 / 120 = 0.31).
        rim = Circle3D(np.zeros(3), 3.0, Z)
        pts = circle_points(Circle3D(-0.2 * Z, 3.0, Z), 120)
        config = PipelineConfig()
        assert (rim.distance(pts) > config.inlier_eps).all()
        labeling = mcfs(pts, config, [rim])
        assert labeling.circles == [rim]
        assert (labeling.labels == 0).all()

    def test_face_without_a_ring_of_edge_points_gives_no_circle(self):
        # The edge points ring the bottom face; the top face's rim has only
        # an eighth of its ring, too little to support it.
        cylinder = Cylinder(np.zeros(3), Z, 3.0)
        rims = part_level_rims(bore(cylinder, [Plane(Z, 8.0), Plane(Z, 0.0)]))
        assert [rim.center[2] for rim in rims] == [8.0, 0.0]
        pts = np.vstack([circle_points(rims[1], 120), circle_points(rims[0], 120)[:15]])
        labeling = mcfs(pts, PipelineConfig(), rims)
        assert labeling.circles == [rims[1]]
        assert (labeling.labels[:120] == 0).all()
        assert (labeling.labels[120:] == -1).all()

    @pytest.mark.parametrize("extra", [
        np.array([[20.0, 0.0, 0.0], [21.0, 0.0, 0.0]]),
        np.column_stack([np.linspace(20.0, 23.0, 12), np.zeros(12), np.zeros(12)]),
    ], ids=["two points", "collinear"])
    def test_remainder_mcfs_cannot_draw_from_ends_the_rounds(self, extra):
        with pytest.raises(ValueError):
            mcfs(extra, PipelineConfig())
        rim = Circle3D(np.zeros(3), 3.0, Z)
        labeling = mcfs(np.vstack([circle_points(rim, 120), extra]), PipelineConfig(), [rim])
        assert labeling.circles == [rim]
        assert (labeling.labels[:120] == 0).all()
        assert (labeling.labels[120:] == -1).all()

    @pytest.mark.parametrize("circles, points_per, noise, outlier_frac, scene_seed, seed",
                             CIRCLES_SCENES)
    def test_no_rims_is_the_default(self, circles, points_per, noise, outlier_frac,
                                    scene_seed, seed):
        pts = circles_scene(circles=circles, points_per=points_per, noise=noise,
                            outlier_frac=outlier_frac, seed=scene_seed).cloud.points
        a = mcfs(pts, PipelineConfig(seed=seed))
        b = mcfs(pts, PipelineConfig(seed=seed), ())
        assert np.array_equal(a.labels, b.labels)
        assert len(a.circles) == len(b.circles) > 0
        for ca, cb in zip(a.circles, b.circles):
            assert np.array_equal(ca.center, cb.center)
            assert np.array_equal(ca.normal, cb.normal)
            assert ca.radius == cb.radius


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _errors(fitted, truth, match_tol=1.0):
    """(radius_avg, radius_max, centroid_avg, centroid_max) over the matched pairs."""
    return score_circles(fitted, truth, match_tol)[2]


class TestFeatureLevelError:
    def test_radius_offset(self):
        z = np.array([0.0, 0.0, 1.0])
        fitted = [Circle3D(np.zeros(3), 1.1, z)]
        truth = [Circle3D(np.zeros(3), 1.0, z)]
        r_avg, r_max, c_avg, c_max = _errors(fitted, truth)
        assert (r_avg, r_max) == (pytest.approx(0.1), pytest.approx(0.1))
        assert (c_avg, c_max) == (0.0, 0.0)

    def test_identical_sets(self):
        z = np.array([0.0, 0.0, 1.0])
        circles = [Circle3D(np.array([float(i), 0, 0]), 1.0 + 0.1 * i, z)
                   for i in range(4)]
        out = _errors(circles, circles)
        assert out == (0.0, 0.0, 0.0, 0.0)

    def test_three_pair_hand_case(self):
        z = np.array([0.0, 0.0, 1.0])
        truth = [Circle3D(np.array([0.0, 0, 0]), 1.0, z),
                 Circle3D(np.array([5.0, 0, 0]), 2.0, z),
                 Circle3D(np.array([10.0, 0, 0]), 3.0, z)]
        fitted = [Circle3D(np.array([0.1, 0, 0]), 1.2, z),
                  Circle3D(np.array([5.0, 0.2, 0]), 1.9, z),
                  Circle3D(np.array([10.0, 0, 0.3]), 3.4, z)]
        r_avg, r_max, c_avg, c_max = _errors(fitted, truth)
        assert r_avg == pytest.approx((0.2 + 0.1 + 0.4) / 3)
        assert r_max == pytest.approx(0.4)
        assert c_avg == pytest.approx((0.1 + 0.2 + 0.3) / 3)
        assert c_max == pytest.approx(0.3)

    def test_nothing_matched_gives_no_errors(self):
        z = np.array([0.0, 0.0, 1.0])
        out = score_circles([Circle3D(np.zeros(3), 1.0, z)],
                            [Circle3D(np.array([50.0, 0, 0]), 1.0, z)], match_tol=1.0)
        assert out == (1, 1, None)

    def test_matching_is_one_to_one(self):
        z = np.array([0.0, 0.0, 1.0])
        truth = [Circle3D(np.zeros(3), 1.0, z)]
        fitted = [Circle3D(np.array([0.1, 0, 0]), 1.0, z),
                  Circle3D(np.array([0.2, 0, 0]), 1.0, z)]
        pairs = match_circles(fitted, truth, match_tol=1.0)
        assert pairs == [(0, 0)]

    def test_nearest_first_would_miss_a_pair(self):
        # The two rims of a hole through a thin sheet, 0.6 apart: pairing
        # the nearest centroids first (0.1 away) leaves the other two 1.2
        # apart, past the tolerance, but both references can be matched.
        z = np.array([0.0, 0.0, 1.0])
        truth = [Circle3D(np.array([0.0, 0, 0]), 3.0, z),
                 Circle3D(np.array([0.6, 0, 0]), 3.0, z)]
        fitted = [Circle3D(np.array([0.1, 0, 0]), 3.0, z),
                  Circle3D(np.array([-0.6, 0, 0]), 3.0, z)]
        assert sorted(match_circles(fitted, truth, match_tol=1.0)) == [(0, 1), (1, 0)]
        f_n, f_p, (r_avg, r_max, c_avg, c_max) = score_circles(fitted, truth, match_tol=1.0)
        assert (f_n, f_p, r_avg, r_max) == (0, 0, 0.0, 0.0)
        assert (c_avg, c_max) == (pytest.approx(0.55), pytest.approx(0.6))


_circle_sets = st.lists(
    st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(1.0, 2.5)),
    min_size=0, max_size=4)


def _as_circles(rows):
    z = np.array([0.0, 0.0, 1.0])
    return [Circle3D(np.array([x, y, 0.0]), r, z) for x, y, r in rows]


class TestMatchCircles:
    @settings(max_examples=200, deadline=None)
    @given(_circle_sets, _circle_sets)
    def test_most_pairs_then_least_offset(self, fitted_rows, truth_rows):
        fitted, truth = _as_circles(fitted_rows), _as_circles(truth_rows)
        tol = 1.0
        offset = [[float(np.linalg.norm(f.center - t.center)) for t in truth] for f in fitted]
        ok = [[offset[i][j] <= tol and abs(f.radius - t.radius) <= tol
               for j, t in enumerate(truth)] for i, f in enumerate(fitted)]
        # Brute force: every fitted circle takes a distinct reference or none.
        best = (0, 0.0)
        for choice in itertools.product([None, *range(len(truth))], repeat=len(fitted)):
            taken = [j for j in choice if j is not None]
            if len(set(taken)) < len(taken):
                continue
            if not all(ok[i][j] for i, j in enumerate(choice) if j is not None):
                continue
            total = sum(offset[i][j] for i, j in enumerate(choice) if j is not None)
            if len(taken) > best[0] or (len(taken) == best[0] and total < best[1]):
                best = (len(taken), total)

        pairs = match_circles(fitted, truth, tol)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
        assert all(ok[i][j] for i, j in pairs)
        assert len(pairs) == best[0]
        assert sum(offset[i][j] for i, j in pairs) <= best[1] + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(_circle_sets, _circle_sets)
    def test_agrees_with_the_benchmark_scorer(self, fitted_rows, truth_rows):
        # The benchmark scores a report's circles against the truth by its
        # own copy of the rule; the two must pair the same circles.
        fitted, truth = _as_circles(fitted_rows), _as_circles(truth_rows)
        expected = _benchmark_score().match_circles(
            [(c.center, c.radius) for c in fitted], [(c.center, c.radius) for c in truth])
        assert match_circles(fitted, truth, 1.0) == expected

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="match_tol must be positive"):
            match_circles([], [], 0.0)


@functools.cache
def sixteen_hole_plate_edges():
    """The edge points of a rim-less 16-hole plate scan, and its truth circles."""
    scene = plate_scene(holes=16, spacing=0.45, noise=0.005, seed=0)
    cloud = estimate_normals_and_curvature(scene.cloud, k=16)
    idx = detect_edge_points(cloud, edge_radius(cloud))
    return cloud.points[idx], scene.truth.circles


@functools.cache
def _benchmark_score():
    """``perfbench/score.py``, loaded by path (it imports only numpy and scipy)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "score.py"
    spec = importlib.util.spec_from_file_location("perfbench_score", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMisclassificationError:
    def test_perfect(self):
        labels = np.array([0, 0, 1, 1, -1])
        assert misclassification_error(labels, labels) == 0.0

    def test_five_percent(self):
        truth = np.zeros(100, dtype=int)
        pred = truth.copy()
        pred[:5] = -1
        assert misclassification_error(pred, truth) == pytest.approx(5.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(21)
        truth = rng.integers(0, 4, 200)
        permuted = (truth + 2) % 4
        assert misclassification_error(permuted, truth) == 0.0

    def test_against_exhaustive_mapping(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(10, 50))
            k_true = int(rng.integers(1, 4))
            k_pred = int(rng.integers(1, 4))
            truth = rng.integers(-1, k_true, n)
            pred = rng.integers(-1, k_pred, n)
            got = misclassification_error(pred, truth)
            # Brute force over all one-to-one id mappings.
            pred_ids = sorted(set(pred[pred >= 0]))
            true_ids = sorted(set(truth[truth >= 0]))
            best = ((pred == -1) & (truth == -1)).sum()
            size = max(len(pred_ids), len(true_ids))
            padded_true = true_ids + [None] * (size - len(true_ids))
            best_total = 0
            for perm in itertools.permutations(padded_true, size):
                total = ((pred == -1) & (truth == -1)).sum()
                for pid, tid in zip(pred_ids, perm):
                    if tid is not None:
                        total += ((pred == pid) & (truth == tid)).sum()
                best_total = max(best_total, total)
            expected = 100.0 * (1.0 - best_total / n)
            assert got == pytest.approx(expected, abs=1e-12)


class TestFnFp:
    Z = np.array([0.0, 0.0, 1.0])

    def _ring(self, i, r=1.0):
        return Circle3D(np.array([3.0 * i, 0.0, 0.0]), r, self.Z)

    def test_all_matched(self):
        circles = [self._ring(i) for i in range(4)]
        assert score_circles(circles, circles, match_tol=0.5)[:2] == (0, 0)

    def test_missed_truth(self):
        truth = [self._ring(i) for i in range(16)]
        fitted = truth[:15]
        assert score_circles(fitted, truth, match_tol=0.5)[:2] == (1, 0)

    def test_spurious_fit(self):
        truth = [self._ring(i) for i in range(16)]
        fitted = truth + [self._ring(40)]
        assert score_circles(fitted, truth, match_tol=0.5)[:2] == (0, 1)

    def test_tolerance_gates_radius(self):
        truth = [self._ring(0, r=1.0)]
        fitted = [self._ring(0, r=2.0)]
        assert score_circles(fitted, truth, match_tol=0.5)[:2] == (1, 1)
