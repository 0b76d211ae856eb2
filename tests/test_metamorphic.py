"""Metamorphic tests: a scene changed in a way the report must not see.

``transformed_report`` runs ``run_pipeline`` on a changed copy of a scene and
``report_differences`` compares its ``report_fields`` with the unchanged
scene's: every count and kind exactly, every other number within 1e-8
relative, each length divided by the scale ``s`` of the change first.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from partcheck.features import Circle3D
from partcheck.geometry import PointCloud, TriangleMesh
from partcheck.pipeline import (
    PipelineConfig,
    generate_synthetic_scene,
    parse_scene_spec,
    report_fields,
    run_pipeline,
)

# Fields compared exactly: counts, and the parts of the run that are not numbers.
COUNTS = {"format_version", "scan_checksum", "mesh_checksum", "f_n", "f_p",
          "n_reference_circles", "scan_points", "outliers_removed", "registration_iterations",
          "registration_converged", "n_primitives", "n_circles"}
# Fields that are lengths, and the config fields that are.
LENGTHS = {"e_reg", "e_global", "e_part_avg", "e_part_max", "e_comp_radius_avg",
           "e_comp_radius_max", "e_comp_centroid_avg", "e_comp_centroid_max"}
LENGTH_CONFIG = ("inlier_eps", "eta", "tensor_sigma", "circle_match_tol")
# The length parameters of the primitive shapes; the rest (normal, axis,
# half_angle) have no unit.
LENGTH_PARAMS = {"offset", "center", "radius", "point", "apex"}


def _report(scan, mesh, config, truth_circles) -> dict:
    fields = report_fields(run_pipeline(scan, mesh, config, truth_circles=truth_circles))
    return {key: value for key, value in fields.items() if not key.startswith("time_")}


def transformed_report(scene, config=PipelineConfig(), order=None, s=1.0) -> dict:
    """The report of ``scene`` with its scan points taken in ``order`` and
    the scan, the mesh, the truth circles and the length config fields
    multiplied by ``s``."""
    cloud = scene.cloud if order is None else scene.cloud.select(order)
    scan = PointCloud(points=cloud.points * s, normals=cloud.normals)
    mesh = TriangleMesh(vertices=scene.mesh.vertices * s, triangles=scene.mesh.triangles)
    truth = [Circle3D(c.center * s, c.radius * s, c.normal) for c in scene.truth.circles]
    config = replace(config, **{name: getattr(config, name) * s for name in LENGTH_CONFIG})
    return _report(scan, mesh, config, truth)


def _is_length(key: str) -> bool:
    return (key in LENGTHS or key.endswith((".patch_distance", ".center", ".radius"))
            or key.removeprefix("config.") in LENGTH_CONFIG)


def report_differences(expected: dict, got: dict, s: float = 1.0) -> list[str]:
    """Every field on which ``got``, a report of the scene scaled by ``s``,
    differs from ``expected``: counts, kinds and words exactly, numbers within
    1e-8 relative (a primitive's parameters, printed to 6 digits, within
    1e-5), lengths divided by ``s``."""
    wrong = [f"{key}: {expected.get(key)} != {got.get(key)}" for key in COUNTS
             if expected.get(key) != got.get(key)]
    if wrong or list(expected) != list(got):
        return wrong or [f"keys: {list(expected)} != {list(got)}"]
    for key, want in expected.items():
        have = got[key]
        if key in COUNTS or key.endswith((".kind", ".inliers")):
            ok = have == want
        else:
            ok = len(want.split()) == len(have.split())
            scale = s if _is_length(key) else 1.0
            rel_tol = 1e-5 if key.endswith(".params") else 1e-8
            for w, h in zip(want.split(), have.split()):
                try:
                    w_value, h_value = float(w), float(h)
                except ValueError:  # a word: the name of the parameters that follow
                    ok &= w == h
                    scale = s if w in LENGTH_PARAMS else 1.0
                    continue
                ok &= math.isclose(h_value / scale, w_value, rel_tol=rel_tol, abs_tol=1e-10)
        if not ok:
            wrong.append(f"{key}: {want} != {have}")
    return wrong


# The tier-1 collage: two primitives and 444 points.
COLLAGE = "collage count=2 spacing=0.2 noise=0.01 rot_deg=20 trans_frac=0.1"
# The benchmark's plate: 21 primitives and 16 holes.
PLATE = "plate spacing=0.9 noise=0.005 rot_deg=20 trans_frac=0.1"


@pytest.fixture(scope="module")
def collage():
    scene = generate_synthetic_scene(parse_scene_spec(COLLAGE), seed=1)
    return scene, transformed_report(scene)


@pytest.fixture(scope="module")
def plate():
    scene = generate_synthetic_scene(parse_scene_spec(PLATE), seed=1)
    return scene, transformed_report(scene)


def test_the_unchanged_scene_reads_its_own_report(collage):
    scene, report = collage
    assert report_differences(report, transformed_report(scene)) == []


def test_lengths_are_compared_divided_by_s():
    # A hand-made report and its copy at s = 10: every length ten times
    # larger, the units-free numbers unchanged.
    expected = {"e_global": "0.5", "n_circles": "1", "primitive.0.kind": "cylinder",
                "primitive.0.params": "point 1 2 3 axis 0 0.6 0.8 radius 2",
                "circle.0.radius": "2", "circle.0.normal": "0 0.6 0.8", "config.eta": "0.03",
                "config.omega_f": "0.6"}
    scaled = {"e_global": "5", "n_circles": "1", "primitive.0.kind": "cylinder",
              "primitive.0.params": "point 10 20 30 axis 0 0.6 0.8 radius 20",
              "circle.0.radius": "20", "circle.0.normal": "0 0.6 0.8", "config.eta": "0.3",
              "config.omega_f": "0.6"}
    assert report_differences(expected, scaled, s=10.0) == []
    axis_scaled = "point 10 20 30 axis 0 6 8 radius 20"
    assert report_differences(expected, {**scaled, "primitive.0.params": axis_scaled}, s=10.0) \
        == [f"primitive.0.params: point 1 2 3 axis 0 0.6 0.8 radius 2 != {axis_scaled}"]
    assert report_differences(expected, {**scaled, "n_circles": "2"}, s=10.0) == [
        "n_circles: 1 != 2"]
    assert report_differences(expected, scaled) == [
        f"{key}: {expected[key]} != {scaled[key]}" for key in
        ("e_global", "primitive.0.params", "circle.0.radius", "config.eta")]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP.md item 6: the report depends on the order "
                   "of the scan's points (the collage circle's radius reads 0.83, 0.67, 0.83 "
                   "against 0.69)")
@pytest.mark.parametrize("p", range(3))
def test_point_order_leaves_the_report(collage, p):
    scene, report = collage
    order = np.random.default_rng(p).permutation(len(scene.cloud))
    assert report_differences(report, transformed_report(scene, order=order)) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP.md item 22: tensor voting weighs a pair by "
                   "exp(-|q| / tensor_sigma^2), a length over a squared length (the plate "
                   "reads 0 circles at s = 0.1 and 19 at s = 10, against 16)")
@pytest.mark.parametrize("s", [0.1, 10.0])
def test_unit_of_length_leaves_the_report(plate, s):
    scene, report = plate
    assert report_differences(report, transformed_report(scene, s=s), s=s) == []
