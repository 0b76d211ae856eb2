"""End to end: the report's round trip and the command line's exit codes."""

import numpy as np
import pytest
from click.testing import CliRunner

from partcheck import meshio
from partcheck.features import Circle3D
from partcheck.cli import EXIT_INPUT_ERROR, EXIT_STAGE_ERROR, main
from partcheck.geometry import PointCloud
from partcheck.pipeline import (
    PipelineConfig,
    _feature,
    _part,
    _render_human,
    emit_report,
    generate_synthetic_scene,
    parse_report,
    parse_scene_spec,
    read_circles_table,
    report_fields,
    run_pipeline,
)

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
    surface_dist = scene.mesh.distance_index().query(cloud.points)
    enriched, refined, _, _ = _part(cloud, surface_dist, config)
    assert [p.kind.value for p in refined.primitives] == ["plane"] * 6
    _, labeling, n_reference, f_n, f_p, _ = _feature(enriched, refined, None, config)
    assert (n_reference, f_n, f_p) == (0, 0, 0)
    assert labeling.circles == []


# A 30 x 20 x 15 bracket whose clean scan reads e_global 0.0053 (seed 1).
BRACKET = "bracket a=30 b=20 c=15 spacing=0.5 noise=0.005 rot_deg=20 trans_frac=0.1"


@pytest.mark.xfail(strict=True, reason="dented points join no primitive")
def test_dent_shows_at_the_part_level():
    # A 0.3 deep dent of radius 4 in one sheet: the global level sees it
    # (e_global 0.065), but the dented sheet is fitted as a cone and the
    # dented points are left unassigned, so e_part_max reads 0.0056.
    scene = generate_synthetic_scene(
        parse_scene_spec(BRACKET + " defect_depth=0.3 defect_radius=4"), seed=1)
    report = run_pipeline(scene.cloud, scene.mesh, PipelineConfig())
    assert {row.kind for row in report.primitive_rows} == {"plane"}
    assert report.e_part_max >= 0.15


@pytest.mark.xfail(strict=True, reason="outliers survive the statistical filter")
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


@pytest.mark.parametrize("line", ["no_such_key = 1", "min_points = 1.7", "seed = abc",
                                  "inlier_eps = nan", "omega_f = nan", "omega_f = 0.5"])
def test_bad_config_exits_2(scene_files, tmp_path, line):
    config = tmp_path / "config.txt"
    config.write_text(line + "\n")
    result = assess(scene_files / "scan.ply", scene_files / "mesh.ply",
                    "--config", config, "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "line 1" in result.output


@pytest.mark.parametrize("field, value", [
    ("circle_max_iter", 0), ("icp_max_iter", 0), ("outlier_k", 0), ("region_k", 0),
    ("hypotheses_per_point", 0), ("max_hypotheses", 0), ("min_cluster", 0),
    ("cluster_cap", 0), ("normals_k", 2), ("min_points", -1), ("mesh_samples", -1),
    ("registration_subsample", -1), ("seed", -1),
])
def test_out_of_range_int_config_exits_2(scene_files, tmp_path, field, value):
    config = tmp_path / "config.txt"
    config.write_text(f"{field} = {value}\n")
    result = assess(scene_files / "scan.ply", scene_files / "mesh.ply",
                    "--config", config, "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert f"{field} must be at least" in result.output


@pytest.mark.parametrize("field, value, message", [
    ("icp_tol", "inf", "icp_tol must be positive and finite"),
    ("tensor_radius_factor", "inf", "tensor_radius_factor must be positive and finite"),
    ("region_angle_deg", "inf", "region_angle_deg must be finite"),
    ("region_curv_thresh", "-inf", "region_curv_thresh must be finite"),
    ("outlier_stddev_mult", "-3", "outlier_stddev_mult must be at least 0"),
    ("outlier_stddev_mult", "-inf", "outlier_stddev_mult must be at least 0"),
])
def test_meaningless_float_config_exits_2(scene_files, tmp_path, field, value, message):
    config = tmp_path / "config.txt"
    config.write_text(f"{field} = {value}\n")
    result = assess(scene_files / "scan.ply", scene_files / "mesh.ply",
                    "--config", config, "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert message in result.output


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


@pytest.mark.parametrize("radius", ["x", "-1", "nan", "inf"])
def test_bad_circle_table_exits_2(scene_files, tmp_path, radius):
    table = tmp_path / "circles.txt"
    table.write_text(f"0 1 2 3 {radius} 0 0 1 0\n")
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


def test_fit_circles_missing_file_exits_2(tmp_path):
    result = fit_circles(tmp_path / "absent.ply", "--out", tmp_path / "circles.txt")
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "input error" in result.output


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
                                  "bracket defect_radius=-1"])
def test_synth_bad_option_value_exits_2(tmp_path, spec):
    result = CliRunner().invoke(main, ["synth", spec, "--out", str(tmp_path)])
    assert result.exit_code == EXIT_INPUT_ERROR, result.output
    key = spec.split()[1].split("=")[0]
    assert f"input error: {spec.split()[0]} option {key}=" in result.output
