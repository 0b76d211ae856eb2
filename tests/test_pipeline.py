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


def test_truth_circles_are_scored(scene, report):
    truth = [Circle3D(row.center, row.radius, row.normal) for row in report.circle_rows]
    truth.append(Circle3D(np.full(3, 100.0), 1.0, np.array([0.0, 0.0, 1.0])))
    scored = run_pipeline(scene.cloud, scene.mesh, PipelineConfig(), truth_circles=truth)
    assert scored.n_reference_circles == len(report.circle_rows) + 1 == 2
    assert (scored.f_n, scored.f_p) == (1, 0)
    assert scored.e_comp_radius_max == scored.e_comp_centroid_max == 0.0


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
                                  "inlier_eps = nan", "omega_f = nan"])
def test_bad_config_exits_2(scene_files, tmp_path, line):
    config = tmp_path / "config.txt"
    config.write_text(line + "\n")
    result = assess(scene_files / "scan.ply", scene_files / "mesh.ply",
                    "--config", config, "--out", tmp_path)
    assert result.exit_code == EXIT_INPUT_ERROR
    assert "line 1" in result.output


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
