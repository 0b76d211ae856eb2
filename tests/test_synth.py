"""Synthetic scenes: the plate's options and the scene spec parser."""

import re

import numpy as np
import pytest

from partcheck.synth import SceneSpec, generate_synthetic_scene, parse_scene_spec

SMALL_PLATE = "plate width=20 height=20 holes=4 spacing=0.5"


def test_plate_dent_presses_the_top_in():
    # The dent draws nothing from the seed, so both scans hold the same
    # points but for the top's within defect_radius of the plate's centre,
    # which sit defect_depth lower (noise 0.005 blurs the radius).
    plain = generate_synthetic_scene(SMALL_PLATE, seed=3)
    dented = generate_synthetic_scene(f"{SMALL_PLATE} defect_depth=0.3 defect_radius=1.5",
                                      seed=3)
    before = plain.truth.transform.apply(plain.cloud.points)
    drop = before - dented.truth.transform.apply(dented.cloud.points)
    moved = np.abs(drop[:, 2] - 0.3) < 1e-9
    assert np.abs(drop[~moved]).max() < 1e-9 and np.abs(drop[moved, :2]).max() < 1e-9
    radial = np.linalg.norm(before[:, :2] - 10.0, axis=1)
    top = plain.truth.labels == 0
    assert moved.sum() > 20 and top[moved].all()
    assert radial[moved].max() < 1.5 + 0.03
    assert moved[top & (radial < 1.5 - 0.03)].all()


def test_plate_with_an_empty_cell():
    # Three holes on a 2 x 2 grid of cells: the last cell has no hole, and
    # the mesh covers it with a plain top face.
    scene = generate_synthetic_scene("plate width=30 height=30 holes=3 spacing=1 noise=0",
                                     seed=1)
    truth = scene.truth
    assert len(truth.circles) == 3
    assert truth.kinds == ["plane"] * 5 + ["cylinder"] * 3
    assert truth.primitive_count == 8
    pts = truth.transform.apply(scene.cloud.points)
    empty_cell = (truth.labels == 0) & (pts[:, 0] > 15.5) & (pts[:, 1] > 15.5)
    assert empty_cell.sum() > 150
    assert scene.mesh.distance_index().query(pts[empty_cell]).max() < 1e-9


def test_spec_read_from_a_file(tmp_path):
    path = tmp_path / "plate.spec"
    path.write_text("plate holes=2\n  spacing=2.5\n")
    assert parse_scene_spec(str(path)) == SceneSpec("plate", {"holes": 2.0, "spacing": 2.5})


@pytest.mark.parametrize("text, message", [
    ("", "empty scene spec"),
    ("  \n ", "empty scene spec"),
    ("plate holes", "bad scene option 'holes' (expected key=value)"),
    ("plate holes=2 =3 spacing", "bad scene option 'spacing' (expected key=value)"),
])
def test_malformed_spec_rejected(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_scene_spec(text)
