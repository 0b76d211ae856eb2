"""End to end: the report's round trip and the command line's exit codes."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.spatial import cKDTree

from partcheck import features, geometry, meshio
from partcheck import primitives as prim
from partcheck.features import Circle3D
from partcheck.cli import EXIT_INPUT_ERROR, EXIT_STAGE_ERROR, main
from partcheck.geometry import (MeshDistance, PointCloud, estimate_normals_and_curvature,
                                median_spacing, remove_outliers)
from partcheck.pipeline import (
    PipelineConfig,
    _feature,
    _part,
    _register,
    _render_human,
    emit_report,
    generate_synthetic_scene,
    parse_report,
    parse_scene_spec,
    read_circles_table,
    report_fields,
    run_pipeline,
)
from partcheck.synth import plate_scene

# Two primitives and 444 points: the smallest scene that runs every stage.
SPEC = "collage count=2 spacing=0.2 noise=0.01 rot_deg=20 trans_frac=0.1"


@pytest.fixture(scope="module")
def scene():
    return generate_synthetic_scene(parse_scene_spec(SPEC), seed=1)


@pytest.fixture(scope="module")
def report(scene):
    return run_pipeline(scene.cloud, scene.mesh, PipelineConfig())


@pytest.fixture(scope="module")
def scene_files(scene, tmp_path_factory):
    directory = tmp_path_factory.mktemp("scene")
    meshio.save_point_cloud(directory / "scan.ply", scene.cloud)
    meshio.save_mesh(directory / "mesh.ply", scene.mesh)
    return directory


def assess(*args):
    return CliRunner().invoke(main, ["assess", *map(str, args)])


def fit_circles(*args):
    return CliRunner().invoke(main, ["fit-circles", *map(str, args)])


def test_report_round_trips(report, tmp_path):
    path = tmp_path / "report.txt"
    emit_report(report, path)
    assert parse_report(path) == report_fields(report)


# Work budgets are constants beside their readers, not config fields.
BUDGET_KEYS = ("icp_max_iter = 100", "icp_tol = 1e-6", "registration_subsample = 30000",
               "circle_max_iter = 150", "hypotheses_per_point = 20",
               "max_hypotheses = 5000", "cluster_cap = 4000")


def test_report_is_format_5_without_budgets(report):
    fields = report_fields(report)
    assert fields["format_version"] == "5"
    config_keys = [key for key in fields if key.startswith("config.")]
    assert len(config_keys) == 18
    assert not {f"config.{line.split()[0]}" for line in BUDGET_KEYS} & set(config_keys)


def test_registration_error_is_the_mean_exact_distance(report):
    # E_reg and E_global are the mean and the RMS of the same exact surface
    # distances, so E_reg cannot exceed E_global, and it stays within twice
    # the scan's noise (0.01). The distance to the nearest CAD sample read
    # 0.0141.
    assert report.e_reg <= report.e_global
    assert report.e_reg <= 2 * 0.01


def test_no_reference_without_truth(report):
    # Without a circle table nothing is a reference: nothing can be missed
    # and every fitted circle counts as spurious.
    assert report.n_reference_circles == 0
    assert report.f_n == 0
    assert report.f_p == len(report.circle_rows)


def _comp_rows(report):
    """The values of the human table's four E_comp rows."""
    lines = _render_human(report).splitlines()
    return [line.split()[-1] for line in lines if "(E_comp_" in line]


def test_truth_circles_are_scored(scene, report):
    truth = [Circle3D(row.center, row.radius, row.normal) for row in report.circle_rows]
    truth.append(Circle3D(np.full(3, 100.0), 1.0, np.array([0.0, 0.0, 1.0])))
    scored = run_pipeline(scene.cloud, scene.mesh, PipelineConfig(), truth_circles=truth)
    assert scored.n_reference_circles == len(report.circle_rows) + 1 == 2
    assert (scored.f_n, scored.f_p) == (1, 0)
    assert scored.e_comp_radius_max == scored.e_comp_centroid_max == 0.0
    assert _comp_rows(scored) == ["0.000000"] * 4


def test_unscored_circle_errors_read_na(report):
    # No reference circle, so nothing was matched: the table must not print
    # the structured report's placeholder 0.0 as a measured error.
    assert report.f_n == report.n_reference_circles == 0
    assert _comp_rows(report) == ["n/a"] * 4


def _part_rows(report):
    """The values of the human table's two E_part rows."""
    lines = _render_human(report).splitlines()
    return [line.split()[-1] for line in lines if "(E_part_" in line]


def test_no_primitive_errors_read_na():
    # 30 points in the unit square: the outlier filter drops 2 and the other
    # 28 are fewer than min_points (30), so no primitive is found and there
    # is no patch error to print.
    pts = np.random.default_rng(0).random((30, 3))
    pts[:, 2] = 0.0
    mesh = generate_synthetic_scene(parse_scene_spec("cube spacing=0.5")).mesh
    report = run_pipeline(PointCloud(points=pts), mesh, PipelineConfig())
    assert (report.outliers_removed, report.primitive_rows) == (2, [])
    assert report.e_part_avg == report.e_part_max == 0.0
    assert _part_rows(report) == ["n/a"] * 2


def test_measured_part_errors_are_printed(report):
    assert report.primitive_rows
    assert _part_rows(report) == [f"{report.e_part_avg:.6f}", f"{report.e_part_max:.6f}"]


def test_repeated_scan_points_are_dropped(scene, report):
    # Every point twice: only the first copies are assessed, so the report
    # is the single scan's but for the loaded point count.
    doubled = PointCloud(points=np.vstack([scene.cloud.points, scene.cloud.points]))
    twice = run_pipeline(doubled, scene.mesh, PipelineConfig())
    single, again = report_fields(report), report_fields(twice)
    assert int(again.pop("scan_points")) == 2 * int(single.pop("scan_points"))
    assert ({k: v for k, v in again.items() if not k.startswith("time_")}
            == {k: v for k, v in single.items() if not k.startswith("time_")})


def test_registered_scan_carries_the_outlier_filters_table(scene):
    # One k-NN query of the scan serves the outlier filter and the normals:
    # the registered scan carries its table, bit for bit the table a fresh
    # query of the registered points gives, rows that named a dropped point
    # included.
    config = PipelineConfig()
    _, registered, removed = _register(scene.cloud, scene.mesh, config)
    k = config.normals_k + 1
    expected = cKDTree(registered.points).query(registered.points, k=k)[1]
    assert np.array_equal(registered.neighbors, expected)
    filtered, _ = remove_outliers(scene.cloud, config.outlier_k, config.outlier_stddev_mult,
                                  config.normals_k)
    whole = cKDTree(scene.cloud.points)
    _, kept = whole.query(filtered.points)
    requeried = ~np.isin(whole.query(filtered.points, k=k)[1], kept).all(axis=1)
    assert removed > 0 and requeried.any()


def test_tensor_voting_radius_comes_off_the_table(scene, monkeypatch):
    # The part level reads the spacing off the neighbor table: the radius
    # the edges are voted over is the one median_spacing's own query gives.
    seen = []
    detect = features.detect_edge_points

    def spy(cloud, radius, config):
        seen.append(radius)
        return detect(cloud, radius, config)

    monkeypatch.setattr(features, "detect_edge_points", spy)
    config = PipelineConfig()
    _, registered, _ = _register(scene.cloud, scene.mesh, config)
    surface_dist = MeshDistance(scene.mesh).query(registered.points)
    enriched, refined, _, _ = _part(registered, surface_dist, config)
    _feature(enriched, refined, None, config)
    spacing = median_spacing(enriched.points)
    assert enriched.spacing == spacing
    assert seen == [config.tensor_radius_factor * spacing]


def _per_point_stages(cloud: PointCloud, peaks: dict | None = None) -> dict:
    """The outputs of the per-point stages on ``cloud``, each stage's traced
    peak in bytes in ``peaks`` when given. ``tracemalloc`` does not see the
    array ``cKDTree.query_pairs`` returns, so ``peaks["pairs"]`` holds the
    bytes of the pair lists tensor voting asked for."""
    config = PipelineConfig()
    pair_bytes = []

    class Tree(cKDTree):
        def query_pairs(self, *args, **kwargs):
            pairs = super().query_pairs(*args, **kwargs)
            pair_bytes.append(16 * len(pairs))
            return pairs

    def run(name, fn, *args):
        if peaks is None:
            return fn(*args)
        tracemalloc.start()
        try:
            out = fn(*args)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out

    filtered, _ = run("outliers", remove_outliers, cloud, config.outlier_k,
                      config.outlier_stddev_mult, config.normals_k)
    enriched = run("normals", estimate_normals_and_curvature, filtered, config.normals_k)
    grown = run("regions", prim.region_grow, enriched, config)
    with mock.patch.object(features, "cKDTree", Tree):
        tensors = run("tensors", features.tensor_vote, enriched,
                      config.tensor_radius_factor * enriched.spacing, config.tensor_sigma)
    scores = run("edges", features.edge_scores, tensors)
    if peaks is not None:
        peaks["pairs"] = sum(pair_bytes)
    return {"kept": filtered.points, "table": filtered.neighbors, "normals": enriched.normals,
            "curvatures": enriched.curvatures, "tensors": tensors, "scores": scores,
            "regions": [p.inliers for p in grown.primitives]}


@pytest.fixture(scope="module")
def blocked_plate():
    # 11,888 points and 145,709 voting pairs: three row blocks, nine pair blocks.
    return plate_scene(width=50, height=40, holes=4, spacing=0.6, seed=0).cloud


@pytest.mark.parametrize("size", [97, 10 ** 9])
def test_block_size_changes_no_bit(blocked_plate, monkeypatch, size):
    # Each row's result comes from its row alone and each tensor entry is one
    # sum in pair order, so a small odd block and one whole block read the
    # same bits as the default blocks.
    want = _per_point_stages(blocked_plate)
    monkeypatch.setattr(geometry, "_ROW_BLOCK", size)
    monkeypatch.setattr(features, "_VOTE_BLOCK", size)
    got = _per_point_stages(blocked_plate)
    for name in ("kept", "table", "normals", "curvatures", "tensors"):
        assert np.array_equal(got[name], want[name]), name
    assert len(got["regions"]) == len(want["regions"])
    assert all(np.array_equal(a, b) for a, b in zip(got["regions"], want["regions"]))


def test_per_point_stages_hold_bounded_memory():
    # 47,185 points. Each stage works in fixed-size blocks, so its traced
    # peak reads 11, 8, 18, 5 and 1 MB (filter, normals, region growing,
    # tensor voting, edge scores); building each stage's whole (n, k) or
    # per-pair working set at once took 29, 51, 50, 70 and 2.7 MB. Tensor
    # voting also holds its 9.3 MB pair list, which the trace does not see.
    cloud = plate_scene(width=50, height=40, holes=4, spacing=0.3, seed=0).cloud
    peaks = {}
    _per_point_stages(cloud, peaks)
    peaks["tensors"] += peaks.pop("pairs")
    bounds = {"outliers": 20e6, "normals": 20e6, "regions": 30e6, "tensors": 25e6,
              "edges": 2e6}
    assert len(cloud) > 45_000
    assert all(peaks[name] < bound for name, bound in bounds.items()), peaks


def test_one_repeated_point_exits_2(scene_files, tmp_path):
    scan = tmp_path / "one.ply"
    meshio.save_point_cloud(scan, PointCloud(points=np.tile([1.0, 2.0, 3.0], (50, 1))))
    result = assess(scan, scene_files / "mesh.ply", "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "1 scan points remain after outlier removal and dropping repeated" in result.output


def test_cube_has_no_circles():
    # A hole-free cube: its twelve straight creases must not come out as
    # circles. The scan is taken into the CAD frame by the truth pose, so
    # registration is skipped.
    scene = generate_synthetic_scene(
        parse_scene_spec("cube side=4 spacing=0.25 rot_deg=15"), seed=1)
    cloud = PointCloud(points=scene.truth.transform.apply(scene.cloud.points))
    config = PipelineConfig()
    surface_dist = MeshDistance(scene.mesh).query(cloud.points)
    enriched, refined, _, _ = _part(cloud, surface_dist, config)
    assert [p.kind.value for p in refined.primitives] == ["plane"] * 6
    _, labeling, n_reference, f_n, f_p, _ = _feature(enriched, refined, None, config)
    assert (n_reference, f_n, f_p) == (0, 0, 0)
    assert labeling.circles == []
    # The whole pipeline registers the same scan, and its E_reg reads the
    # noise (0.005), where the distance to the nearest CAD sample read 0.0228.
    report = run_pipeline(scene.cloud, scene.mesh, config)
    assert report.e_reg <= report.e_global
    assert report.e_reg <= 2 * 0.005


@pytest.fixture(scope="module")
def rotated_plate():
    return generate_synthetic_scene(parse_scene_spec("plate rot_deg=20 trans_frac=0.1"), seed=1)


@pytest.mark.parametrize("seed", range(4))
def test_rims_of_the_rotated_plate(rotated_plate, seed, monkeypatch):
    # Every rim comes from its bore cylinder and the top face: centroid max
    # reads 0.0014-0.0016 and radius max 0.0003 over these seeds, where
    # MCFS alone read 0.35-0.50 and 0.025-0.27. The edge points the rims
    # leave hold only circles stacked on rims, which MCFS rejects as
    # duplicates, so its first round claims nothing and is its last. E_reg
    # reads the noise (0.005), where the nearest CAD sample read 0.198.
    calls = []
    original = features.generate_hypotheses

    def counted(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return original(*args, **kwargs)

    monkeypatch.setattr(features, "generate_hypotheses", counted)
    report = run_pipeline(rotated_plate.cloud, rotated_plate.mesh, PipelineConfig(seed=seed),
                          truth_circles=rotated_plate.truth.circles)
    assert report.n_reference_circles == 16
    assert (report.f_n, report.f_p) == (0, 0)
    assert report.e_comp_centroid_max <= 0.05
    assert report.e_comp_radius_max <= 0.05
    assert report.e_reg <= report.e_global
    assert report.e_reg <= 2 * 0.005
    assert calls == [seed]


# A 200 x 200 plate with 64 holes: its scan holds about 73,600 points, and
# the truth is 69 primitives (the top face, four sides and 64 bores) and 64
# rims.
MANY_HOLES = ("plate width=200 height=200 holes=64 spacing=0.9 noise=0.005 rot_deg=20 "
              "trans_frac=0.1")


@pytest.mark.parametrize("seed", [1, pytest.param(2, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="registers 180° off: the 2,000-point probe cannot see the holes "
           "(ROADMAP.md item 23)"))])
def test_many_hole_plate_fits_every_bore(seed):
    # min_points is a plain 30, so every bore's region is fitted and each
    # rim comes from its bore: centroid max reads 0.0063 at seed 1. A least
    # region size that grew with the scan (n / 500, 147 points here) left
    # one bore unfitted: 68 primitives, and MCFS alone put that rim 0.25
    # off. Seed 2 reads f_n = f_p = 64 and e_global 1.03.
    scene = generate_synthetic_scene(parse_scene_spec(MANY_HOLES), seed=seed)
    report = run_pipeline(scene.cloud, scene.mesh, PipelineConfig(),
                          truth_circles=scene.truth.circles)
    assert len(report.primitive_rows) == 69
    assert len(report.circle_rows) == 64
    assert (report.f_n, report.f_p) == (0, 0)
    assert report.e_comp_centroid_max <= 0.01


def test_thin_plate_top_face_is_one_plane():
    # The flat points of a 2 thick plate's top face form one component of
    # the join graph, so the face is one plane. Growth from seeds with a
    # one-way join test split it into planes of 4,753 and 5,075 inliers.
    scene = generate_synthetic_scene(parse_scene_spec(
        "plate spacing=0.9 noise=0.005 rot_deg=20 trans_frac=0.1 thickness=2"), seed=1)
    report = run_pipeline(scene.cloud, scene.mesh, PipelineConfig())
    top = []
    for row in report.primitive_rows:
        if row.kind == "plane":
            *_, nz, _, offset = row.params.split()
            if abs(float(nz)) > 0.99 and abs(abs(float(offset)) - 2.0) < 0.1:
                top.append(row.inlier_count)
    assert top == [9828]


# A 30 x 20 x 15 bracket whose clean scan reads e_global 0.0053 (seed 1).
BRACKET = "bracket a=30 b=20 c=15 spacing=0.5 noise=0.005 rot_deg=20 trans_frac=0.1"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dented_bracket_reads_only_planes(seed):
    # Region growing fits the dented sheet as one cone; refinement splits
    # it, refitting each side over every kind, and planes win.
    scene = generate_synthetic_scene(
        parse_scene_spec(BRACKET + " defect_depth=0.3 defect_radius=4"), seed=seed)
    report = run_pipeline(scene.cloud, scene.mesh, PipelineConfig())
    assert {row.kind for row in report.primitive_rows} == {"plane"}


@pytest.mark.parametrize("depth", [1, -1])
def test_dented_plate_keeps_every_rim(depth):
    # A dent (depth 1) or a bump (depth -1) of radius 20 in the top face:
    # refinement turns the face's cone back into planes, so the face's
    # rims are predicted from the bores again and every hole is matched.
    scene = generate_synthetic_scene(parse_scene_spec(
        "plate spacing=0.9 noise=0.005 rot_deg=20 trans_frac=0.1 "
        f"defect_depth={depth} defect_radius=20"), seed=1)
    report = run_pipeline(scene.cloud, scene.mesh, PipelineConfig(),
                          truth_circles=scene.truth.circles)
    assert "cone" not in {row.kind for row in report.primitive_rows}
    assert report.f_n == 0 and report.f_p == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="dented points join no primitive")
def test_dent_shows_at_the_part_level():
    # A 0.3 deep dent of radius 4 in one sheet: the global level sees it
    # (e_global 0.065), and the dented sheet reads as planes, so the kinds
    # hold; but the dented points are left unassigned, so e_part_max reads
    # 0.0043 and fails here.
    scene = generate_synthetic_scene(
        parse_scene_spec(BRACKET + " defect_depth=0.3 defect_radius=4"), seed=1)
    report = run_pipeline(scene.cloud, scene.mesh, PipelineConfig())
    assert {row.kind for row in report.primitive_rows} == {"plane"}
    assert report.e_part_max >= 0.15


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="outliers survive the statistical filter")
def test_outliers_do_not_reach_the_global_error():
    # 2% gross outliers: about a quarter survive the k-NN filter, and
    # e_global reads 0.074 against a scan noise of 0.005.
    scene = generate_synthetic_scene(parse_scene_spec(BRACKET + " outlier_frac=0.02"), seed=1)
    report = run_pipeline(scene.cloud, scene.mesh, PipelineConfig())
    assert report.e_global <= 5 * 0.005


@pytest.mark.parametrize("value", ["3", "3.0"])
def test_config_accepts_integral_ints(tmp_path, value):
    path = tmp_path / "config.txt"
    path.write_text(f"min_points = {value}\n")
    config = PipelineConfig.from_file(path)
    assert config.min_points == 3 and isinstance(config.min_points, int)


def test_config_rejects_fractional_int(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("# comment\nmin_points = 1.7\n")
    with pytest.raises(ValueError, match="line 2: 'min_points'"):
        PipelineConfig.from_file(path)


def test_missing_scan_exits_2(scene_files, tmp_path):
    result = assess(tmp_path / "absent.ply", scene_files / "mesh.ply", "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR


def test_malformed_scan_exits_2(scene_files, tmp_path):
    scan = tmp_path / "scan.xyz"
    scan.write_text("0 0 0\n1 2 three\n")
    result = assess(scan, scene_files / "mesh.ply", "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert f"input error: {scan}: line 2: could not convert" in result.output


@pytest.mark.parametrize("line", ["no_such_key = 1", "min_points 3", "min_points = 1.7",
                                  "seed = abc", "inlier_eps = nan", "omega_f = nan",
                                  "omega_f = 0.5", "region_k = 16", "mesh_samples = 0",
                                  *BUDGET_KEYS])
def test_bad_config_exits_2(scene_files, tmp_path, line):
    config = tmp_path / "config.txt"
    config.write_text(line + "\n")
    result = assess(scene_files / "scan.ply", scene_files / "mesh.ply",
                    "--config", config, "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "line 1" in result.output


@pytest.mark.parametrize("field, value", [
    ("outlier_k", 0), ("min_cluster", 0), ("normals_k", 2), ("min_points", -1), ("seed", -1),
])
def test_out_of_range_int_config_exits_2(scene_files, tmp_path, field, value):
    config = tmp_path / "config.txt"
    config.write_text(f"{field} = {value}\n")
    result = assess(scene_files / "scan.ply", scene_files / "mesh.ply",
                    "--config", config, "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert f"{field} must be at least" in result.output


@pytest.mark.parametrize("field, value, message", [
    ("tensor_radius_factor", "inf", "tensor_radius_factor must be positive and finite"),
    ("region_angle_deg", "inf", "region_angle_deg must be finite"),
    ("region_angle_deg", "200", "region_angle_deg must be in (0, 90]"),
    ("region_angle_deg", "-5", "region_angle_deg must be in (0, 90]"),
    ("region_angle_deg", "0", "region_angle_deg must be in (0, 90]"),
    ("region_curv_thresh", "-inf", "region_curv_thresh must be finite"),
    ("region_curv_thresh", "-1", "region_curv_thresh must be positive"),
    ("region_curv_thresh", "0", "region_curv_thresh must be positive"),
    ("outlier_stddev_mult", "-3", "outlier_stddev_mult must be at least 0"),
    ("outlier_stddev_mult", "-inf", "outlier_stddev_mult must be at least 0"),
])
def test_meaningless_float_config_exits_2(scene_files, tmp_path, field, value, message):
    config = tmp_path / "config.txt"
    config.write_text(f"{field} = {value}\n")
    result = assess(scene_files / "scan.ply", scene_files / "mesh.ply",
                    "--config", config, "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert f"line 1: {message}" in result.output


def test_repeated_config_key_exits_2(scene_files, tmp_path):
    config = tmp_path / "config.txt"
    config.write_text("seed = 1\n# again\nseed = 2\n")
    with pytest.raises(ValueError, match="line 3: 'seed' is already set on line 1"):
        PipelineConfig.from_file(config)
    result = assess(scene_files / "scan.ply", scene_files / "mesh.ply",
                    "--config", config, "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "line 3: 'seed' is already set on line 1" in result.output


def test_infinite_stddev_mult_is_accepted(tmp_path):
    # remove_outliers reads an infinite multiple as "keep every point".
    path = tmp_path / "config.txt"
    path.write_text("outlier_stddev_mult = inf\n")
    assert PipelineConfig.from_file(path).outlier_stddev_mult == np.inf


def test_negative_seed_option_exits_2(scene_files, tmp_path):
    result = assess(scene_files / "scan.ply", scene_files / "mesh.ply",
                    "--seed", -1, "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "seed must be at least 0" in result.output


def test_tiny_scan_exits_2(scene, scene_files, tmp_path):
    # Normals need k + 1 = 17 points, so a ten-point scan is rejected as input
    # before registration.
    scan = tmp_path / "tiny.ply"
    meshio.save_point_cloud(scan, scene.cloud.select(np.arange(0, 440, 44)))
    result = assess(scan, scene_files / "mesh.ply", "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "10 scan points remain after outlier removal" in result.output


def test_failing_stage_exits_3(scene_files, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("region growing failed")

    monkeypatch.setattr("partcheck.primitives.region_grow", fail)
    result = assess(scene_files / "scan.ply", scene_files / "mesh.ply", "--out", tmp_path)
    assert result.exit_code == EXIT_STAGE_ERROR
    assert "stage 'part'" in result.output


@pytest.mark.parametrize("row", ["0 1 2 3 x 0 0 1 0", "0 1 2 3 -1 0 0 1 0", "0 1 2 3 nan 0 0 1 0",
                                 "0 1 2 3 inf 0 0 1 0", "0 1 2 3 1 0 0"],
                         ids=["x", "-1", "nan", "inf", "seven columns"])
def test_bad_circle_table_exits_2(scene_files, tmp_path, row):
    table = tmp_path / "circles.txt"
    table.write_text(row + "\n")
    result = assess(scene_files / "scan.ply", scene_files / "mesh.ply",
                    "--truth-circles", table, "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert f"{table}: line 1:" in result.output


def test_fit_circles_writes_table(tmp_path):
    t = np.linspace(0.0, 2.0 * np.pi, 120, endpoint=False)
    ring = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
    radii = [0.8, 1.0, 1.2]
    pts = np.vstack([np.array([4.0 * i, 0.0, 0.0]) + r * ring for i, r in enumerate(radii)])
    edges = tmp_path / "edges.ply"
    meshio.save_point_cloud(edges, PointCloud(points=pts))
    table = tmp_path / "circles.txt"
    result = fit_circles(edges, "--out", table)
    assert result.exit_code == 0, result.output
    circles = read_circles_table(table)
    assert len(circles) == 3
    np.testing.assert_allclose(sorted(c.radius for c in circles), radii, atol=1e-6)


def test_fit_circles_too_few_points_exits_2(tmp_path):
    edges = tmp_path / "two.ply"
    meshio.save_point_cloud(edges, PointCloud(points=np.array([[0.0, 0, 0], [1.0, 0, 0]])))
    result = fit_circles(edges, "--out", tmp_path / "circles.txt")
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "input error" in result.output and "2 edge points" in result.output


def test_fit_circles_collinear_points_exit_3(tmp_path):
    edges = tmp_path / "line.ply"
    x = np.linspace(0.0, 10.0, 40)
    meshio.save_point_cloud(edges, PointCloud(points=np.column_stack([x, 2.0 * x, -x])))
    result = fit_circles(edges, "--out", tmp_path / "circles.txt")
    assert result.exit_code == EXIT_STAGE_ERROR
    assert "fitting failed: degenerate edge set" in result.output
    assert not (tmp_path / "circles.txt").exists()


def test_fit_circles_missing_file_exits_2(tmp_path):
    result = fit_circles(tmp_path / "absent.ply", "--out", tmp_path / "circles.txt")
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "input error" in result.output


def test_fit_circles_short_ply_header_exits_2(tmp_path):
    edges = tmp_path / "short_header.ply"
    edges.write_text("ply\nformat ascii 1.0\nelement vertex\nproperty float x\n"
                     "property float y\nproperty float z\nend_header\n0 0 0\n")
    result = fit_circles(edges, "--out", tmp_path / "circles.txt")
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "input error" in result.output and "header line 'element vertex'" in result.output


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
def test_fit_circles_bad_eps_exits_2(tmp_path, eps):
    edges = tmp_path / "edges.ply"
    t = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
    meshio.save_point_cloud(edges, PointCloud(
        points=np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])))
    result = fit_circles(edges, "--eps", eps, "--out", tmp_path / "circles.txt")
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "inlier_eps must be positive" in result.output


def test_assess_writes_every_output(scene_files, tmp_path):
    result = assess(scene_files / "scan.ply", scene_files / "mesh.ply", "--out", tmp_path,
                    "--dump-segments", "--dump-edges", "--dump-circles", "--ascii")
    assert result.exit_code == 0, result.output
    fields = parse_report(tmp_path / "report.txt")
    assert (tmp_path / "report_human.txt").read_text().startswith("Manufacturing error")
    segments = meshio.load_point_cloud(tmp_path / "segments.ply")
    assert len(segments) == int(fields["scan_points"]) - int(fields["outliers_removed"])
    assert len(meshio.load_point_cloud(tmp_path / "edges.ply")) > 0
    n_circles = int(fields["n_circles"])
    assert n_circles > 0
    assert len(read_circles_table(tmp_path / "circles.txt")) == n_circles
    assert len(meshio.load_point_cloud(tmp_path / "circles.ply")) == 64 * n_circles


def test_synth_writes_the_scene(scene, tmp_path):
    result = CliRunner().invoke(main, ["synth", SPEC, "--seed", "1", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    scan = meshio.load_point_cloud(tmp_path / "scan.ply")
    assert np.array_equal(scan.points, scene.cloud.points)


@pytest.mark.parametrize("spec", ["plate foo=1", "plate seed=3"])
def test_synth_unknown_option_exits_2(tmp_path, spec):
    result = CliRunner().invoke(main, ["synth", spec, "--out", str(tmp_path)])
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "unknown plate option" in result.output


@pytest.mark.parametrize("spec", ["plate holes=0", "plate spacing=0", "cube outlier_frac=1",
                                  "plate spacing=-1", "bracket noise=-1", "plate noise=nan",
                                  "plate holes=2.5", "plate thickness=0", "plate thickness=-2",
                                  "bracket a=-1", "plate width=-5", "cube side=0",
                                  "plate hole_r_min=5 hole_r_max=2", "plate hole_r_max=2",
                                  "circles r_min=0", "circles r_min=2 r_max=1",
                                  "bracket defect_radius=-1", "plate holes=abc"])
def test_synth_bad_option_value_exits_2(tmp_path, spec):
    result = CliRunner().invoke(main, ["synth", spec, "--out", str(tmp_path)])
    assert result.exit_code == EXIT_INPUT_ERROR, result.output
    key = spec.split()[1].split("=")[0]
    assert f"input error: {spec.split()[0]} option {key}=" in result.output


@pytest.mark.parametrize("spec, message", [("", "empty scene spec"),
                                           ("plate holes", "bad scene option 'holes'")])
def test_synth_malformed_spec_exits_2(tmp_path, spec, message):
    result = CliRunner().invoke(main, ["synth", spec, "--out", str(tmp_path)])
    assert result.exit_code == EXIT_INPUT_ERROR, result.output
    assert f"input error: {message}" in result.output
    assert not (tmp_path / "scan.ply").exists()


def test_synth_repeated_option_exits_2(tmp_path):
    result = CliRunner().invoke(main, ["synth", "plate holes=2 holes=3", "--out", str(tmp_path)])
    assert result.exit_code == EXIT_INPUT_ERROR, result.output
    assert "input error: plate option holes=3 repeats holes=2" in result.output
    assert not (tmp_path / "scan.ply").exists()


@pytest.mark.parametrize("spec", ["plate defect_radius=5 defect_depth=20",
                                  "plate thickness=2 defect_radius=5 defect_depth=2"])
def test_synth_dent_through_the_plate_exits_2(tmp_path, spec):
    result = CliRunner().invoke(main, ["synth", spec, "--out", str(tmp_path)])
    assert result.exit_code == EXIT_INPUT_ERROR, result.output
    assert "input error: plate option defect_depth=" in result.output
    assert "must be less than thickness=" in result.output
    assert not (tmp_path / "scan.ply").exists()
