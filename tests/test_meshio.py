"""File round trips and malformed-input handling for PLY / OBJ / XYZ."""

import re

import numpy as np
import pytest

from partcheck.geometry import PointCloud, TriangleMesh
from partcheck.meshio import (
    MeshIOError,
    load_mesh,
    load_point_cloud,
    save_mesh,
    save_point_cloud,
    save_polylines,
)

ASCII_PLY_3 = """ply
format ascii 1.0
element vertex 3
property float x
property float y
property float z
end_header
0 0 0
1 0 0
0 1 0
"""

# Put in place of ASCII_PLY_3's end_header, it declares one face; the
# test appends the face row after the vertices.
FACE_ELEMENT = "element face 1\nproperty list uchar int vertex_indices\nend_header"

OBJ_CUBE = """
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 2 3
f 1 3 4
f 5 7 6
f 5 8 7
f 1 5 6
f 1 6 2
f 2 6 7
f 2 7 3
f 3 7 8
f 3 8 4
f 4 8 5
f 4 5 1
"""


class TestPointCloudLoading:
    def test_ascii_ply_three_vertices(self, tmp_path):
        path = tmp_path / "tri.ply"
        path.write_text(ASCII_PLY_3)
        cloud = load_point_cloud(path)
        assert len(cloud) == 3
        assert np.allclose(cloud.points, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_xyz_single_line(self, tmp_path):
        path = tmp_path / "one.xyz"
        path.write_text("1 2 3\n")
        cloud = load_point_cloud(path)
        assert len(cloud) == 1
        assert np.allclose(cloud.points[0], (1, 2, 3))

    def test_truncated_ply_errors(self, tmp_path):
        path = tmp_path / "short.ply"
        path.write_text(ASCII_PLY_3.replace("element vertex 3", "element vertex 5"))
        with pytest.raises(MeshIOError, match="5"):
            load_point_cloud(path)

    def test_nonfinite_coordinate_names_location(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0\n1 nan 0\n")
        with pytest.raises(MeshIOError, match="line 2"):
            load_point_cloud(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MeshIOError, match="not found"):
            load_point_cloud(tmp_path / "absent.ply")

    def test_xyz_with_normals(self, tmp_path):
        path = tmp_path / "n.xyz"
        path.write_text("0 0 0 0 0 1\n1 0 0 0 1 0\n")
        cloud = load_point_cloud(path)
        assert cloud.normals is not None
        assert np.allclose(cloud.normals[0], (0, 0, 1))

    def test_extra_vertex_properties_ignored(self, tmp_path):
        text = """ply
format ascii 1.0
element vertex 2
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
0 0 0 255 0 0
1 1 1 0 255 0
"""
        path = tmp_path / "colored.ply"
        path.write_text(text)
        cloud = load_point_cloud(path)
        assert len(cloud) == 2


class TestPointCloudWriting:
    def test_binary_round_trip_with_normals(self, tmp_path):
        rng = np.random.default_rng(0)
        normals = rng.normal(size=(50, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        cloud = PointCloud(points=rng.uniform(-1, 1, (50, 3)), normals=normals)
        path = tmp_path / "out.ply"
        save_point_cloud(path, cloud)
        back = load_point_cloud(path)
        assert np.allclose(back.points, cloud.points, atol=1e-12)
        assert np.allclose(back.normals, cloud.normals, atol=1e-9)

    def test_ascii_round_trip(self, tmp_path):
        cloud = PointCloud(points=np.array([[0.125, -3.5, 2.0], [1, 2, 3.0]]))
        path = tmp_path / "out.ply"
        save_point_cloud(path, cloud, ascii_mode=True)
        assert b"format ascii" in path.read_bytes()[:60]
        back = load_point_cloud(path)
        assert np.allclose(back.points, cloud.points)

    def test_binary_is_default(self, tmp_path):
        cloud = PointCloud(points=np.zeros((1, 3)))
        path = tmp_path / "out.ply"
        save_point_cloud(path, cloud)
        assert b"binary_little_endian" in path.read_bytes()[:60]

    def test_colors_round_trip(self, tmp_path):
        cloud = PointCloud(points=np.zeros((2, 3)))
        colors = np.array([[255, 0, 0], [0, 255, 0]], dtype=np.uint8)
        path = tmp_path / "colored.ply"
        save_point_cloud(path, cloud, colors=colors)
        back = load_point_cloud(path)   # colors parsed and dropped
        assert len(back) == 2

    def test_xyz_writer(self, tmp_path):
        cloud = PointCloud(points=np.array([[1.5, 2.5, 3.5]]))
        path = tmp_path / "out.xyz"
        save_point_cloud(path, cloud)
        back = load_point_cloud(path)
        assert np.allclose(back.points, cloud.points)


class TestMeshLoading:
    def test_obj_cube(self, tmp_path):
        path = tmp_path / "cube.obj"
        path.write_text(OBJ_CUBE)
        mesh = load_mesh(path)
        assert len(mesh.vertices) == 8
        assert len(mesh.triangles) == 12

    def test_obj_quad_fan_triangulated(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        mesh = load_mesh(path)
        assert len(mesh.triangles) == 2

    def test_empty_mesh_errors(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
        with pytest.raises(MeshIOError, match="empty mesh"):
            load_mesh(path)

    def test_degenerate_faces_dropped(self, tmp_path):
        path = tmp_path / "degen.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 1 2\n")
        mesh = load_mesh(path)
        assert len(mesh.triangles) == 1

    def test_obj_slash_and_negative_indices(self, tmp_path):
        path = tmp_path / "mixed.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2/2 -1\n")
        mesh = load_mesh(path)
        assert len(mesh.triangles) == 1

    def test_ply_face_naming_a_missing_vertex_errors(self, tmp_path):
        path = tmp_path / "bad_index.ply"
        path.write_text(ASCII_PLY_3.replace("end_header", FACE_ELEMENT) + "3 0 1 7\n")
        with pytest.raises(MeshIOError, match=re.escape(f"{path}: face 0 names vertex 7")):
            load_mesh(path)

    def test_obj_face_naming_a_missing_vertex_errors(self, tmp_path):
        path = tmp_path / "bad_index.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 8\n")
        with pytest.raises(MeshIOError, match=re.escape(f"{path}: face 1 names vertex 7")):
            load_mesh(path)

    def test_ply_face_with_a_bad_token_errors(self, tmp_path):
        path = tmp_path / "bad_token.ply"
        path.write_text(ASCII_PLY_3.replace("end_header", FACE_ELEMENT) + "3 0 1 x\n")
        with pytest.raises(MeshIOError, match=re.escape(f"{path}: face 0: ") + ".*'x'"):
            load_mesh(path)

    def test_ply_mesh_round_trip(self, tmp_path):
        path = tmp_path / "cube.obj"
        path.write_text(OBJ_CUBE)
        mesh = load_mesh(path)
        out = tmp_path / "cube.ply"
        save_mesh(out, mesh)
        back = load_mesh(out)
        assert np.allclose(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        out_ascii = tmp_path / "cube_ascii.ply"
        save_mesh(out_ascii, mesh, ascii_mode=True)
        back2 = load_mesh(out_ascii)
        assert np.array_equal(back2.triangles, mesh.triangles)

    def test_obj_writer_round_trip(self, tmp_path):
        mesh = TriangleMesh(vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.5]]),
                            triangles=np.array([[0, 1, 2]]))
        out = tmp_path / "tri.obj"
        save_mesh(out, mesh)
        back = load_mesh(out)
        assert np.allclose(back.vertices, mesh.vertices)


class TestPolylines:
    def test_edge_set_written(self, tmp_path):
        pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0.0]])
        edges = np.array([[0, 1], [1, 2], [2, 0]])
        path = tmp_path / "rings.ply"
        save_polylines(path, pts, edges)
        blob = path.read_bytes()
        assert b"element edge 3" in blob
        ascii_path = tmp_path / "rings_ascii.ply"
        save_polylines(ascii_path, pts, edges, ascii_mode=True)
        assert b"element edge 3" in ascii_path.read_bytes()
