"""File round trips and malformed-input handling for PLY / OBJ / XYZ."""

import re
import struct

import numpy as np
import pytest

from partcheck import meshio
from partcheck.geometry import PointCloud, TriangleMesh
from partcheck.meshio import (
    MeshIOError,
    _fan_triangulate,
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

# ASCII_PLY_3's vertex element.
TRIANGLE_VERTICES = "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"

# Put in place of ASCII_PLY_3's end_header, it declares one face; the
# test appends the face row after the vertices.
FACE_ELEMENT = "element face 1\nproperty list uchar int vertex_indices\nend_header"

# Four unit-square corners as binary doubles; the tests declare them with
# SQUARE_VERTICES and append faces or cut the body.
SQUARE_VERTICES = ("element vertex 4\nproperty double x\nproperty double y\n"
                   "property double z\n")
SQUARE_BODY = struct.pack("<12d", 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0)


def binary_ply(elements: str, body: bytes) -> bytes:
    return f"ply\nformat binary_little_endian 1.0\n{elements}end_header\n".encode() + body


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


class TestPlyHeader:
    def test_comment_naming_end_header(self, tmp_path):
        path = tmp_path / "commented.ply"
        path.write_text(ASCII_PLY_3.replace(
            "element vertex 3", "comment written before end_header was reached\nelement vertex 3"))
        assert len(load_point_cloud(path)) == 3

    @pytest.mark.parametrize("declared, malformed", [
        pytest.param("element vertex 4", "element vertex", id="short-element"),
        pytest.param("element vertex 4", "element vertex four", id="count-not-integer"),
        pytest.param("element vertex 4", "element vertex -1", id="negative-count"),
        pytest.param("property double z", "property double", id="short-property"),
        pytest.param("property double z", "property list uchar z", id="short-list"),
    ])
    def test_malformed_line_names_it(self, tmp_path, declared, malformed):
        path = tmp_path / "malformed.ply"
        path.write_bytes(binary_ply(SQUARE_VERTICES.replace(declared, malformed), SQUARE_BODY))
        with pytest.raises(MeshIOError, match=re.escape(f"header line '{malformed}'")):
            load_point_cloud(path)


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

    def test_polygons_fan_in_face_order(self):
        # sample_mesh draws triangles by index, so the order is part of the result.
        faces = [[0, 1, 2], (3, 4, 5, 6), [7, 8, 9, 10, 11], [12, 13, 14]]
        assert _fan_triangulate(faces, "m.ply").tolist() == [
            [0, 1, 2], [3, 4, 5], [3, 5, 6], [7, 8, 9], [7, 9, 10], [7, 10, 11], [12, 13, 14]]

    def test_face_with_two_vertices_errors(self, tmp_path):
        path = tmp_path / "short.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2\n")
        with pytest.raises(MeshIOError, match=re.escape(f"{path}: face 1 has fewer than 3")):
            load_mesh(path)

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

    def test_ascii_vertex_with_a_bad_token_names_its_row(self, tmp_path):
        path = tmp_path / "bad_token.ply"
        path.write_text(ASCII_PLY_3.replace("1 0 0", "1 x 0"))
        with pytest.raises(MeshIOError, match=re.escape(f"{path}: vertex 1: ") + ".*'x'"):
            load_point_cloud(path)

    def test_ply_face_with_a_bad_token_errors(self, tmp_path):
        path = tmp_path / "bad_token.ply"
        path.write_text(ASCII_PLY_3.replace("end_header", FACE_ELEMENT) + "3 0 1 x\n")
        with pytest.raises(MeshIOError, match=re.escape(f"{path}: face 0: ") + ".*'x'"):
            load_mesh(path)

    def test_binary_ply_quad_fan_triangulated(self, tmp_path):
        path = tmp_path / "quad.ply"
        face = "element face 1\nproperty list uchar int vertex_indices\n"
        path.write_bytes(binary_ply(SQUARE_VERTICES + face,
                                    SQUARE_BODY + struct.pack("<B4i", 4, 0, 1, 2, 3)))
        mesh = load_mesh(path)
        assert len(mesh.triangles) == 2

    def test_binary_ply_truncated_face_names_row(self, tmp_path):
        path = tmp_path / "cut.ply"
        faces = "element face 2\nproperty list uchar int vertex_indices\n"
        body = SQUARE_BODY + struct.pack("<B3i", 3, 0, 1, 2) + struct.pack("<B3i", 3, 0, 2, 3)
        path.write_bytes(binary_ply(SQUARE_VERTICES + faces, body[:-2]))
        with pytest.raises(MeshIOError, match="declared 2 face rows, data ends at row 1"):
            load_mesh(path)

    @pytest.mark.parametrize("ascii_mode", [False, True])
    def test_mixed_triangle_and_quad_faces_fan_in_order(self, tmp_path, ascii_mode):
        # Rows of different lengths cannot be read as one block; row by row
        # they fan in file order.
        faces = [(0, 1, 2), (0, 1, 2, 3), (1, 2, 3)]
        path = tmp_path / "mixed.ply"
        header = SQUARE_VERTICES + "element face 3\nproperty list uchar int vertex_indices\n"
        if ascii_mode:
            rows = "".join(" ".join(map(str, (len(f), *f))) + "\n" for f in faces)
            path.write_text(f"ply\nformat ascii 1.0\n{header}end_header\n"
                            "0 0 0\n1 0 0\n1 1 0\n0 1 0\n" + rows)
        else:
            path.write_bytes(binary_ply(header, SQUARE_BODY + b"".join(
                struct.pack(f"<B{len(f)}i", len(f), *f) for f in faces)))
        assert load_mesh(path).triangles.tolist() == [[0, 1, 2], [0, 1, 2], [0, 2, 3],
                                                      [1, 2, 3]]

    @pytest.mark.parametrize("ascii_mode", [False, True])
    def test_truncated_triangle_faces_name_the_row_where_data_ends(self, tmp_path, ascii_mode):
        # Three triangles declared, one and a half written.
        path = tmp_path / "cut.ply"
        header = SQUARE_VERTICES + "element face 3\nproperty list uchar int vertex_indices\n"
        if ascii_mode:
            path.write_text(f"ply\nformat ascii 1.0\n{header}end_header\n"
                            "0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2\n")
        else:
            body = SQUARE_BODY + struct.pack("<B3i", 3, 0, 1, 2) + struct.pack("<B2i", 3, 0, 2)
            path.write_bytes(binary_ply(header, body))
        with pytest.raises(MeshIOError, match="declared 3 face rows, data ends at row 1"):
            load_mesh(path)

    @pytest.mark.parametrize("ascii_mode", [False, True])
    def test_one_block_read_equals_the_row_by_row_read(self, tmp_path, monkeypatch, ascii_mode):
        # Every face has 3 corners, so each element reads as one block; with
        # that read turned off, the vertices and the faces read row by row
        # give the same arrays, and so do a cloud's normals and colors.
        rng = np.random.default_rng(35)
        mesh = TriangleMesh(vertices=rng.normal(size=(40, 3)),
                            triangles=[rng.choice(40, 3, replace=False) for _ in range(30)])
        normals = rng.normal(size=(40, 3))
        cloud = PointCloud(points=mesh.vertices,
                           normals=normals / np.linalg.norm(normals, axis=1)[:, None])
        mesh_path, cloud_path = tmp_path / "mesh.ply", tmp_path / "cloud.ply"
        save_mesh(mesh_path, mesh, ascii_mode=ascii_mode)
        save_point_cloud(cloud_path, cloud, ascii_mode=ascii_mode,
                         colors=rng.integers(0, 256, (40, 3)).astype(np.uint8))
        block, block_cloud = load_mesh(mesh_path), load_point_cloud(cloud_path)
        monkeypatch.setattr(meshio._Body, "fixed", lambda *a: None)
        rows, rows_cloud = load_mesh(mesh_path), load_point_cloud(cloud_path)
        assert block.vertices.tobytes() == rows.vertices.tobytes()
        assert block.triangles.tobytes() == rows.triangles.tobytes()
        assert block.triangles.tolist() == mesh.triangles.tolist()
        assert block_cloud.points.tobytes() == rows_cloud.points.tobytes()
        assert block_cloud.normals.tobytes() == rows_cloud.normals.tobytes()

    @pytest.mark.parametrize("ascii_mode", [False, True])
    def test_truncated_vertices_name_the_row_where_data_ends(self, tmp_path, monkeypatch,
                                                             ascii_mode):
        # Four vertices declared, two and a half written: the element has no
        # list, so the row comes from the one block read, and only the first
        # row, which gives the block its layout, is read on its own.
        path = tmp_path / "cut.ply"
        if ascii_mode:
            path.write_text(f"ply\nformat ascii 1.0\n{SQUARE_VERTICES}end_header\n"
                            "0 0 0\n1 0 0\n1 1\n")
        else:
            path.write_bytes(binary_ply(SQUARE_VERTICES, SQUARE_BODY[:8 * 8]))
        rows_read = []
        row = meshio._Body.row
        monkeypatch.setattr(meshio._Body, "row", lambda *a: rows_read.append(1) or row(*a))
        with pytest.raises(MeshIOError, match=re.escape(
                f"{path}: declared 4 vertex rows, data ends at row 2")):
            load_point_cloud(path)
        assert len(rows_read) == 1

    def test_a_missing_vertex_reads_the_same_in_both_formats(self, tmp_path):
        header = TRIANGLE_VERTICES + "element face 1\nproperty list uchar int vertex_indices\n"
        ascii_path, binary_path = tmp_path / "ascii.ply", tmp_path / "binary.ply"
        ascii_path.write_text(f"ply\nformat ascii 1.0\n{header}end_header\n"
                              "0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")
        binary_path.write_bytes(binary_ply(header, struct.pack(
            "<9fB3i", 0, 0, 0, 1, 0, 0, 0, 1, 0, 3, 0, 1, 7)))
        messages = []
        for path in (ascii_path, binary_path):
            with pytest.raises(MeshIOError) as error:
                load_mesh(path)
            messages.append(str(error.value).replace(str(path), "<path>"))
        assert messages[0] == messages[1] == (
            "<path>: face 0 names vertex 7 (counted from 0), but the file has 3 vertices")

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


# The writers' output, byte for byte: a 3-point cloud with normals and colors,
# a 1-triangle mesh and a 3-edge polyline.
GOLDEN_WRITERS = {
    "cloud": lambda path, ascii_mode: save_point_cloud(
        path, PointCloud(points=[[0.5, -1.25, 2.0], [1 / 3, 0.0, 1e-7], [-3.75, 4.5, 1234.5678]],
                         normals=[[0, 0, 1.0], [0.6, 0.8, 0], [0, -1.0, 0]]),
        ascii_mode=ascii_mode, colors=np.array([[255, 0, 0], [0, 128, 255], [1, 2, 3]], np.uint8)),
    "mesh": lambda path, ascii_mode: save_mesh(
        path, TriangleMesh(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0.5]], triangles=[[0, 1, 2]]),
        ascii_mode=ascii_mode),
    "polyline": lambda path, ascii_mode: save_polylines(
        path, np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0.0]]), np.array([[0, 1], [1, 2], [2, 0]]),
        ascii_mode=ascii_mode),
}
XYZ_PROPERTIES = "property double x\nproperty double y\nproperty double z\n"
GOLDEN_HEADERS = {
    "cloud": ("element vertex 3\n" + XYZ_PROPERTIES
              + "property double nx\nproperty double ny\nproperty double nz\n"
              "property uchar red\nproperty uchar green\nproperty uchar blue\n"),
    "mesh": ("element vertex 3\n" + XYZ_PROPERTIES
             + "element face 1\nproperty list uchar int vertex_indices\n"),
    "polyline": ("element vertex 3\n" + XYZ_PROPERTIES
                 + "element edge 3\nproperty int vertex1\nproperty int vertex2\n"),
}
GOLDEN_BODIES = {
    ("cloud", True): (b"0.5 -1.25 2 0 0 1 255 0 0\n"
                      b"0.3333333333 0 1e-07 0.6 0.8 0 0 128 255\n"
                      b"-3.75 4.5 1234.5678 0 -1 0 1 2 3\n"),
    ("mesh", True): b"0 0 0\n1 0 0\n0 1 0.5\n3 0 1 2\n",
    ("polyline", True): b"0 0 0\n1 0 0\n1 1 0\n0 1\n1 2\n2 0\n",
    # Vertex rows are little-endian doubles (x y z, then nx ny nz) and uchar
    # colors; the face row is a uchar count and int indices, edge rows two ints.
    ("cloud", False): bytes.fromhex(
        "000000000000e03f000000000000f4bf0000000000000040"
        "00000000000000000000000000000000000000000000f03f" "ff0000"
        "555555555555d53f000000000000000048afbc9af2d77a3e"
        "333333333333e33f9a9999999999e93f0000000000000000" "0080ff"
        "0000000000000ec00000000000001240adfa5c6d454a9340"
        "0000000000000000000000000000f0bf0000000000000000" "010203"),
    ("mesh", False): bytes.fromhex(
        "000000000000000000000000000000000000000000000000"
        "000000000000f03f00000000000000000000000000000000"
        "0000000000000000000000000000f03f000000000000e03f"
        "03" "000000000100000002000000"),
    ("polyline", False): bytes.fromhex(
        "000000000000000000000000000000000000000000000000"
        "000000000000f03f00000000000000000000000000000000"
        "000000000000f03f000000000000f03f0000000000000000"
        "0000000001000000" "0100000002000000" "0200000000000000"),
}


@pytest.mark.parametrize("kind, ascii_mode", sorted(GOLDEN_BODIES))
def test_writer_bytes(tmp_path, kind, ascii_mode):
    path = tmp_path / f"{kind}.ply"
    GOLDEN_WRITERS[kind](path, ascii_mode)
    fmt = "ascii" if ascii_mode else "binary_little_endian"
    header = f"ply\nformat {fmt} 1.0\n{GOLDEN_HEADERS[kind]}end_header\n".encode()
    assert path.read_bytes() == header + GOLDEN_BODIES[kind, ascii_mode]


XYZ_HEADER = "element vertex 2\n" + XYZ_PROPERTIES
REJECTED = [
    # PLY point clouds.
    ("scan.ply", b"solid cube\n", "not a PLY file (missing header)"),
    ("scan.ply", b"ply\nformat ascii 1.0\nproperty float x\nend_header\n",
     "property before any element"),
    ("scan.ply", b"ply\nformat binary_big_endian 1.0\n" + XYZ_HEADER.encode() + b"end_header\n",
     "unsupported PLY format 'binary_big_endian'"),
    ("scan.ply", b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
     b"property float y\nend_header\n0 0\n", "PLY has no vertex x/y/z properties"),
    ("scan.ply", b"ply\nformat ascii 1.0\n" + XYZ_HEADER.encode() + b"end_header\n0 0 0\n0 nan 0\n",
     "non-finite coordinate at vertex 1"),
    ("scan.ply", f"ply\nformat ascii 1.0\nelement vertex 0\n{XYZ_PROPERTIES}end_header\n".encode(),
     "empty point cloud"),
    ("scan.ply", b"ply\nformat ascii 1.0\nelement vertex 1\nvertex_count 3\nend_header\n",
     "unrecognized header line 'vertex_count 3'"),
    # XYZ point clouds.
    ("scan.xyz", b"0 0 0\n1 2\n", "line 2: expected at least 3 columns"),
    ("scan.xyz", b"0 0 0\n1 2 three\n", "line 2: could not convert string to float: 'three'"),
    ("scan.xyz", b"# a header and no rows\n\n", "empty point cloud"),
    ("scan.xyz", b"0 0 \xff\n", "can't decode byte 0xff"),
    # OBJ meshes.
    ("part.obj", None, "file not found"),
    ("part.obj", b"v 0 0 0\nv 1 0\n", "line 2: short vertex record"),
    ("part.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 c\n", "line 4: bad face index 'c'"),
    ("part.obj", b"v 0 0 0\nv 1 inf 0\n", "line 2: non-finite coordinate"),
    ("part.obj", b"# no vertices\nf 1 2 3\n", "no vertices"),
    ("part.obj", b"v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n", "empty mesh (all faces degenerate)"),
    # A PLY mesh whose face list has a negative length.
    ("part.ply", binary_ply(SQUARE_VERTICES + "element face 1\n"
                            "property list char int vertex_indices\n",
                            SQUARE_BODY + struct.pack("<b", -1)),
     "face 0: negative list length -1"),
]


@pytest.mark.parametrize("name, content, message", REJECTED)
def test_rejected_input_names_the_file(tmp_path, name, content, message):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    load = load_mesh if name.startswith("part") else load_point_cloud
    with pytest.raises(MeshIOError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        load(path)


FACES = "element face {}\nproperty list uchar int vertex_indices\n"


@pytest.mark.parametrize("elements, rows, message", [
    pytest.param(TRIANGLE_VERTICES + FACES.format(1), "3 0 1.5 2",
                 "face 0: int value 1.5 is not a whole number", id="face-index"),
    pytest.param(TRIANGLE_VERTICES + FACES.format(2), "3 0 1 2\n3 0 1.5 2",
                 "face 1: int value 1.5 is not a whole number", id="face-index-in-a-block"),
    pytest.param(TRIANGLE_VERTICES + FACES.format(2), "3 0 1 2\n2.5 0 1 2",
                 "face 1: uchar value 2.5 is not a whole number", id="list-length"),
    pytest.param(TRIANGLE_VERTICES + FACES.format(2), "3 0 1 2\n4 0 1 2 0.5",
                 "face 1: int value 0.5 is not a whole number", id="lists-of-two-lengths"),
    pytest.param(TRIANGLE_VERTICES + FACES.format(2) + "property uchar flags\n",
                 "3 0 1 2 1\n3 0 1 2 7.5", "face 1: uchar value 7.5 is not a whole number",
                 id="uchar-beside-a-list"),
    pytest.param(TRIANGLE_VERTICES + "property uchar red\n", "0 0 0 1\n1 0 0 7.5\n0 1 0 2",
                 "vertex 1: uchar value 7.5 is not a whole number", id="uchar-without-a-list"),
])
def test_ascii_integer_values_must_be_whole(tmp_path, elements, rows, message):
    # An ASCII body is read as float64 records, so a value of an integer
    # type, a list's length among them, is checked whole, with or without a
    # list in its element, and whether the element reads as one block or
    # row by row.
    path = tmp_path / "fraction.ply"
    vertices = "" if "face" not in elements else "0 0 0\n1 0 0\n0 1 0\n"
    path.write_text(f"ply\nformat ascii 1.0\n{elements}end_header\n{vertices}{rows}\n")
    load = load_mesh if "face" in elements else load_point_cloud
    with pytest.raises(MeshIOError, match=re.escape(f"{path}: {message}")):
        load(path)
