"""Readers and writers for PLY (ASCII / binary little-endian), OBJ and XYZ.

Point clouds load x/y/z plus optional nx/ny/nz; other vertex properties are
parsed and discarded. Written PLY files are binary little-endian unless
``ascii=True`` is requested.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import PointCloud, TriangleMesh, as_points, clean_triangles


class MeshIOError(Exception):
    """Unreadable, malformed or empty geometry file."""


_PLY_SCALAR = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


@dataclass
class _PlyProperty:
    name: str
    dtype: str | None            # scalar numpy code, None for list properties
    count_dtype: str | None = None
    item_dtype: str | None = None

    @property
    def is_list(self) -> bool:
        return self.dtype is None


@dataclass
class _PlyElement:
    name: str
    count: int
    properties: list[_PlyProperty]


def _parse_ply_header(blob: bytes, path: str):
    end = blob.find(b"end_header")
    if not blob.startswith(b"ply") or end < 0:
        raise MeshIOError(f"{path}: not a PLY file (missing header)")
    end = blob.index(b"\n", end) + 1
    header = blob[:end].decode("ascii", errors="replace")
    body = blob[end:]

    fmt = None
    elements: list[_PlyElement] = []
    for line in header.splitlines():
        tokens = line.strip().split()
        if not tokens or tokens[0] in ("ply", "comment", "obj_info", "end_header"):
            continue
        if tokens[0] == "format":
            fmt = tokens[1]
        elif tokens[0] == "element":
            elements.append(_PlyElement(tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise MeshIOError(f"{path}: property before any element")
            if tokens[1] == "list":
                if tokens[2] not in _PLY_SCALAR or tokens[3] not in _PLY_SCALAR:
                    raise MeshIOError(f"{path}: unsupported list types in '{line.strip()}'")
                elements[-1].properties.append(
                    _PlyProperty(tokens[4], None, _PLY_SCALAR[tokens[2]], _PLY_SCALAR[tokens[3]])
                )
            else:
                if tokens[1] not in _PLY_SCALAR:
                    raise MeshIOError(f"{path}: unsupported property type '{tokens[1]}'")
                elements[-1].properties.append(_PlyProperty(tokens[2], _PLY_SCALAR[tokens[1]]))
        else:
            raise MeshIOError(f"{path}: unrecognized header line '{line.strip()}'")
    if fmt not in ("ascii", "binary_little_endian"):
        raise MeshIOError(f"{path}: unsupported PLY format '{fmt}'")
    return fmt, elements, body


def _read_ply(path: str | Path):
    """Return {element name: {property name: array}} plus face index lists."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise MeshIOError(f"{path}: {exc}") from exc
    fmt, elements, body = _parse_ply_header(blob, str(path))

    data: dict[str, dict[str, np.ndarray]] = {}
    faces: list[list[int]] = []

    if fmt == "ascii":
        tokens = body.split()
        pos = 0
        for elem in elements:
            scalars: dict[str, list] = {p.name: [] for p in elem.properties if not p.is_list}
            for row in range(elem.count):
                for prop in elem.properties:
                    if prop.is_list:
                        if pos >= len(tokens):
                            raise MeshIOError(
                                f"{path}: declared {elem.count} {elem.name} rows, "
                                f"data ends at row {row}"
                            )
                        try:
                            n = int(tokens[pos])
                            values = [int(t) for t in tokens[pos + 1:pos + 1 + n]]
                        except ValueError as exc:
                            raise MeshIOError(f"{path}: {elem.name} {row}: {exc}") from exc
                        pos += 1 + n
                        if pos > len(tokens):
                            raise MeshIOError(f"{path}: truncated list in {elem.name} {row}")
                        if elem.name == "face":
                            faces.append(values)
                    else:
                        if pos >= len(tokens):
                            raise MeshIOError(
                                f"{path}: declared {elem.count} {elem.name} rows, "
                                f"data ends at row {row}"
                            )
                        try:
                            value = float(tokens[pos])
                        except ValueError as exc:
                            raise MeshIOError(
                                f"{path}: bad value '{tokens[pos]}' in {elem.name} {row}"
                            ) from exc
                        scalars[prop.name].append(value)
                        pos += 1
            data[elem.name] = {k: np.asarray(v) for k, v in scalars.items()}
    else:
        offset = 0
        for elem in elements:
            if all(not p.is_list for p in elem.properties):
                dtype = np.dtype([(p.name, "<" + p.dtype) for p in elem.properties])
                need = dtype.itemsize * elem.count
                if offset + need > len(body):
                    have = (len(body) - offset) // dtype.itemsize
                    raise MeshIOError(
                        f"{path}: declared {elem.count} {elem.name} rows, file holds {have}"
                    )
                rows = np.frombuffer(body, dtype=dtype, count=elem.count, offset=offset)
                offset += need
                data[elem.name] = {p.name: rows[p.name].astype(np.float64) for p in elem.properties}
            else:
                scalars = {p.name: [] for p in elem.properties if not p.is_list}
                for row in range(elem.count):
                    for prop in elem.properties:
                        if prop.is_list:
                            cdt = np.dtype("<" + prop.count_dtype)
                            if offset + cdt.itemsize > len(body):
                                raise MeshIOError(f"{path}: truncated {elem.name} {row}")
                            n = int(np.frombuffer(body, cdt, 1, offset)[0])
                            offset += cdt.itemsize
                            idt = np.dtype("<" + prop.item_dtype)
                            if offset + n * idt.itemsize > len(body):
                                raise MeshIOError(f"{path}: truncated {elem.name} {row}")
                            values = np.frombuffer(body, idt, n, offset)
                            offset += n * idt.itemsize
                            if elem.name == "face":
                                faces.append([int(v) for v in values])
                        else:
                            sdt = np.dtype("<" + prop.dtype)
                            if offset + sdt.itemsize > len(body):
                                raise MeshIOError(f"{path}: truncated {elem.name} {row}")
                            scalars[prop.name].append(float(np.frombuffer(body, sdt, 1, offset)[0]))
                            offset += sdt.itemsize
                data[elem.name] = {k: np.asarray(v) for k, v in scalars.items()}
    return data, faces


def _vertices_from_ply(data: dict, path: str) -> tuple[np.ndarray, np.ndarray | None]:
    vert = data.get("vertex")
    if not vert or any(c not in vert for c in "xyz"):
        raise MeshIOError(f"{path}: PLY has no vertex x/y/z properties")
    pts = np.column_stack([vert["x"], vert["y"], vert["z"]])
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        raise MeshIOError(f"{path}: non-finite coordinate at vertex {int(bad.argmax())}")
    normals = None
    if all(c in vert for c in ("nx", "ny", "nz")):
        normals = np.column_stack([vert["nx"], vert["ny"], vert["nz"]])
        lengths = np.linalg.norm(normals, axis=1)
        if (lengths < 1e-12).any():
            normals = None
        else:
            normals = normals / lengths[:, None]
    return pts, normals


def _fan_triangulate(faces: list[list[int]], path: str) -> np.ndarray:
    tris = []
    for i, face in enumerate(faces):
        if len(face) < 3:
            raise MeshIOError(f"{path}: face {i} has fewer than 3 vertices")
        for j in range(1, len(face) - 1):
            tris.append((face[0], face[j], face[j + 1]))
    return np.asarray(tris, dtype=np.int64).reshape(-1, 3)


def load_point_cloud(path: str | Path) -> PointCloud:
    """Load a point cloud from PLY or whitespace-delimited XYZ text."""
    path = Path(path)
    if not path.exists():
        raise MeshIOError(f"{path}: file not found")
    if path.suffix.lower() == ".ply":
        data, _ = _read_ply(path)
        pts, normals = _vertices_from_ply(data, str(path))
        if len(pts) == 0:
            raise MeshIOError(f"{path}: empty point cloud")
        return PointCloud(points=pts, normals=normals)
    return _load_xyz(path)


def _load_xyz(path: Path) -> PointCloud:
    rows = []
    normal_rows = []
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshIOError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) < 3:
            raise MeshIOError(f"{path}: line {lineno}: expected at least 3 columns")
        try:
            values = [float(t) for t in tokens]
        except ValueError as exc:
            raise MeshIOError(f"{path}: line {lineno}: {exc}") from exc
        if not np.isfinite(values[:3]).all():
            raise MeshIOError(f"{path}: line {lineno}: non-finite coordinate")
        rows.append(values[:3])
        if len(values) >= 6:
            normal_rows.append(values[3:6])
    if not rows:
        raise MeshIOError(f"{path}: empty point cloud")
    normals = None
    if len(normal_rows) == len(rows):
        normals = np.asarray(normal_rows)
        lengths = np.linalg.norm(normals, axis=1)
        normals = None if (lengths < 1e-12).any() else normals / lengths[:, None]
    return PointCloud(points=np.asarray(rows), normals=normals)


def load_mesh(path: str | Path) -> TriangleMesh:
    """Load a triangle mesh from OBJ or PLY; polygon faces are fan-triangulated."""
    path = Path(path)
    if not path.exists():
        raise MeshIOError(f"{path}: file not found")
    if path.suffix.lower() == ".obj":
        vertices, faces = _read_obj(path)
    else:
        data, faces = _read_ply(path)
        vertices, _ = _vertices_from_ply(data, str(path))
    if not faces:
        raise MeshIOError(f"{path}: empty mesh (no faces)")
    tris = _fan_triangulate(faces, str(path))
    n = len(vertices)
    if tris.min() < 0 or tris.max() >= n:
        # Every vertex of a face is a corner of one of its triangles.
        i, v = next((i, v) for i, face in enumerate(faces) for v in face if not 0 <= v < n)
        raise MeshIOError(f"{path}: face {i} names vertex {v} (counted from 0), "
                          f"but the file has {n} vertices")
    tris = clean_triangles(vertices, tris)
    if len(tris) == 0:
        raise MeshIOError(f"{path}: empty mesh (all faces degenerate)")
    return TriangleMesh(vertices=vertices, triangles=tris)


def _read_obj(path: Path) -> tuple[np.ndarray, list[list[int]]]:
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshIOError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "v":
            if len(tokens) < 4:
                raise MeshIOError(f"{path}: line {lineno}: short vertex record")
            try:
                xyz = [float(t) for t in tokens[1:4]]
            except ValueError as exc:
                raise MeshIOError(f"{path}: line {lineno}: {exc}") from exc
            if not np.isfinite(xyz).all():
                raise MeshIOError(f"{path}: line {lineno}: non-finite coordinate")
            vertices.append(xyz)
        elif tokens[0] == "f":
            face = []
            for token in tokens[1:]:
                raw = token.split("/")[0]
                try:
                    idx = int(raw)
                except ValueError as exc:
                    raise MeshIOError(f"{path}: line {lineno}: bad face index '{token}'") from exc
                # OBJ indices are 1-based; negatives count back from the end.
                face.append(idx - 1 if idx > 0 else len(vertices) + idx)
            faces.append(face)
    if not vertices:
        raise MeshIOError(f"{path}: no vertices")
    return np.asarray(vertices), faces


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _ply_header(count: int, ascii_mode: bool, with_normals: bool, with_colors: bool,
                face_count: int = 0, edge_count: int = 0) -> str:
    fmt = "ascii" if ascii_mode else "binary_little_endian"
    lines = ["ply", f"format {fmt} 1.0", f"element vertex {count}"]
    lines += ["property double x", "property double y", "property double z"]
    if with_normals:
        lines += ["property double nx", "property double ny", "property double nz"]
    if with_colors:
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    if face_count:
        lines += [f"element face {face_count}", "property list uchar int vertex_indices"]
    if edge_count:
        lines += [f"element edge {edge_count}", "property int vertex1", "property int vertex2"]
    lines.append("end_header")
    return "\n".join(lines) + "\n"


def save_point_cloud(path: str | Path, cloud: PointCloud,
                     ascii_mode: bool = False, colors: np.ndarray | None = None) -> None:
    """Write a cloud as PLY (or plain text when the suffix is .xyz)."""
    path = Path(path)
    pts = cloud.points
    if path.suffix.lower() == ".xyz":
        cols = [pts] if cloud.normals is None else [pts, cloud.normals]
        np.savetxt(path, np.hstack(cols), fmt="%.10g")
        return
    normals = cloud.normals
    header = _ply_header(len(pts), ascii_mode, normals is not None, colors is not None)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if ascii_mode:
            for i in range(len(pts)):
                row = list(pts[i]) + (list(normals[i]) if normals is not None else [])
                text = " ".join(f"{v:.10g}" for v in row)
                if colors is not None:
                    text += " " + " ".join(str(int(v)) for v in colors[i])
                fh.write((text + "\n").encode("ascii"))
        else:
            fields = [("x", "<f8"), ("y", "<f8"), ("z", "<f8")]
            if normals is not None:
                fields += [("nx", "<f8"), ("ny", "<f8"), ("nz", "<f8")]
            if colors is not None:
                fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
            rows = np.empty(len(pts), dtype=np.dtype(fields))
            rows["x"], rows["y"], rows["z"] = pts[:, 0], pts[:, 1], pts[:, 2]
            if normals is not None:
                rows["nx"], rows["ny"], rows["nz"] = normals[:, 0], normals[:, 1], normals[:, 2]
            if colors is not None:
                col = np.asarray(colors, dtype=np.uint8)
                rows["red"], rows["green"], rows["blue"] = col[:, 0], col[:, 1], col[:, 2]
            fh.write(rows.tobytes())


def save_mesh(path: str | Path, mesh: TriangleMesh, ascii_mode: bool = False) -> None:
    """Write a mesh as PLY (or OBJ when the suffix is .obj)."""
    path = Path(path)
    if path.suffix.lower() == ".obj":
        with open(path, "w") as fh:
            for v in mesh.vertices:
                fh.write(f"v {v[0]:.10g} {v[1]:.10g} {v[2]:.10g}\n")
            for t in mesh.triangles:
                fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
        return
    header = _ply_header(len(mesh.vertices), ascii_mode, False, False,
                         face_count=len(mesh.triangles))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if ascii_mode:
            for v in mesh.vertices:
                fh.write(f"{v[0]:.10g} {v[1]:.10g} {v[2]:.10g}\n".encode("ascii"))
            for t in mesh.triangles:
                fh.write(f"3 {t[0]} {t[1]} {t[2]}\n".encode("ascii"))
        else:
            fh.write(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
            for t in mesh.triangles:
                fh.write(struct.pack("<Biii", 3, int(t[0]), int(t[1]), int(t[2])))


def save_polylines(path: str | Path, points: np.ndarray, edges: np.ndarray,
                   ascii_mode: bool = False) -> None:
    """Write polyline segments (e.g. fitted circle rings) as a PLY edge set."""
    path = Path(path)
    pts = as_points(points)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    header = _ply_header(len(pts), ascii_mode, False, False, edge_count=len(edges))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if ascii_mode:
            for v in pts:
                fh.write(f"{v[0]:.10g} {v[1]:.10g} {v[2]:.10g}\n".encode("ascii"))
            for e in edges:
                fh.write(f"{e[0]} {e[1]}\n".encode("ascii"))
        else:
            fh.write(np.ascontiguousarray(pts, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(edges, dtype="<i4").tobytes())
