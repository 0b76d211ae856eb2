"""Readers and writers for PLY, OBJ and XYZ.

PLY is read and written in the ``ascii`` and ``binary_little_endian``
formats, binary unless ``ascii_mode=True``. The reader takes any elements,
every PLY scalar type and list properties with an integer length. One reader
serves both formats: an ASCII body is parsed once into float64 records and
read as a binary body whose every value is a float64, so a value of an
integer type, a list's length among them, must be a whole number. Point
clouds keep the vertex x/y/z and optional nx/ny/nz, and meshes the face
element's list property, with polygon faces fan-triangulated. Malformed
input raises ``MeshIOError`` naming the file and where the fault is.
"""

from __future__ import annotations

import io
import re
import struct
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.lib.recfunctions import structured_to_unstructured, unstructured_to_structured

from .geometry import PointCloud, TriangleMesh, as_points, clean_triangles


class MeshIOError(Exception):
    """Unreadable, malformed or empty geometry file."""


# Each PLY scalar type's two names, the first the one written, and its numpy code.
_PLY_TYPES = [("char", "int8", "i1"), ("uchar", "uint8", "u1"), ("short", "int16", "i2"),
              ("ushort", "uint16", "u2"), ("int", "int32", "i4"), ("uint", "uint32", "u4"),
              ("float", "float32", "f4"), ("double", "float64", "f8")]
# Little-endian numpy types; struct reads each by its ``char``. A list property's
# type is a (count, items) pair of these, on disk its length and then its items.
_PLY_SCALAR = {name: np.dtype("<" + code) for *names, code in _PLY_TYPES for name in names}
_PLY_TYPE_NAME = {np.dtype("<" + code).str: name for name, _, code in _PLY_TYPES}
_END_HEADER = re.compile(rb"^end_header\r?(?:\n|\Z)", re.MULTILINE)


def _parse_ply_header(blob: bytes, path: str):
    """Return the format, (name, count, [(property, type)]) per element, and the body."""
    end = _END_HEADER.search(blob)
    if not blob.startswith(b"ply") or end is None:
        raise MeshIOError(f"{path}: not a PLY file (missing header)")
    fmt = None
    elements: list[tuple[str, int, list]] = []
    for line in blob[:end.end()].decode("ascii", errors="replace").splitlines():
        line = line.strip()
        tokens = line.split()
        if not tokens or tokens[0] in ("ply", "comment", "obj_info", "end_header"):
            continue
        keyword, args = tokens[0], tokens[1:]
        malformed = f"{path}: malformed header line '{line}'"
        if keyword == "format":
            fmt = args[0] if args else None
        elif keyword == "element":
            if len(args) != 2 or not args[1].isdecimal():
                raise MeshIOError(f"{malformed}: expected a name and a count of 0 or more")
            fields: list[tuple[str, np.dtype]] = []
            elements.append((args[0], int(args[1]), fields))
        elif keyword == "property":
            if not elements:
                raise MeshIOError(f"{path}: property before any element")
            is_list = args[:1] == ["list"]
            types = [_PLY_SCALAR.get(t) for t in args[is_list:-1]]
            if (len(types) != 1 + is_list or any(t is None for t in types)
                    or (is_list and types[0].kind == "f")):
                raise MeshIOError(f"{malformed}: expected a type and a name, "
                                  "or 'list', an integer type, a type and a name")
            fields.append((args[-1], np.dtype([("count", types[0]), ("items", types[1])])
                           if is_list else types[0]))
        else:
            raise MeshIOError(f"{path}: unrecognized header line '{line}'")
    if fmt not in ("ascii", "binary_little_endian"):
        raise MeshIOError(f"{path}: unsupported PLY format '{fmt}'")
    # An element without properties holds no values.
    return fmt, [e for e in elements if e[2]], blob[end.end():]


def _ascii_records(body: bytes) -> tuple[bytes, str | None]:
    """An ASCII body's values as float64 records, in file order up to the first
    token that is not a number, and that token's error (None if there is none)."""
    tokens = body.split()
    rest = iter(tokens)
    try:
        return np.fromiter(map(float, rest), np.float64, len(tokens)).tobytes(), None
    except ValueError as exc:  # ``rest`` stops just past the token
        good = len(tokens) - len(list(rest)) - 1
        return np.fromiter(map(float, tokens[:good]), np.float64, good).tobytes(), str(exc)


def _whole(values: np.ndarray) -> bool:
    """Whether every one of ``values`` is a whole number."""
    return bool(np.isfinite(values).all() and (np.floor(values) == values).all())


class _Body(io.BytesIO):
    """The records of a PLY body, read in file order: a binary body's of the
    declared types, an ASCII body's (``_ascii_records``) each a float64, where a
    value of an integer type must be a whole number and reads as an integer."""

    def __init__(self, body: bytes, ascii_mode: bool):
        super().__init__(body)
        self.ascii = ascii_mode

    def record(self, dtype: np.dtype) -> np.dtype:
        """The type a ``dtype`` value is stored as."""
        return np.dtype("<f8") if self.ascii else dtype

    def take(self, dtype: np.dtype, k: int) -> tuple:
        fmt = f"<{k}{self.record(dtype).char}"
        values = struct.unpack(fmt, self.read(struct.calcsize(fmt)))
        if not (self.ascii and dtype.kind in "iu"):
            return values
        wrong = [v for v in values if not v.is_integer()]
        if wrong:
            raise ValueError(f"{_PLY_TYPE_NAME[dtype.str]} value {wrong[0]:g} "
                             "is not a whole number")
        return tuple(map(int, values))

    def row(self, fields: list) -> list[tuple]:
        """The next row's values, a tuple per property."""
        values = []
        for _, dt in fields:
            k = self.take(dt["count"], 1)[0] if dt.names else 1
            if k < 0:
                raise ValueError(f"negative list length {k}")
            values.append(self.take(dt["items"] if dt.names else dt, k))
        return values

    def fixed(self, fields: list, count: int) -> dict | None:
        """Up to ``count`` rows at once, as {property: column}, each list's items
        a (rows, k) array with k its length in the first row. Short where the body
        ends in an element without a list; None, nothing consumed, where it ends
        in one with a list, where a list's length is not the first row's, or
        where a value breaks ``take``'s or ``row``'s rules."""
        start = self.tell()
        try:
            lengths = [len(values) for values in self.row(fields)]
        except (struct.error, ValueError):
            return None
        finally:
            self.seek(start)
        # One row's record type, each list with its length in ``lengths``.
        rec = self.record
        dtype = np.dtype([(field, [("count", rec(dt["count"])), ("items", rec(dt["items"]), (k,))])
                          if dt.names else (field, rec(dt))
                          for (field, dt), k in zip(fields, lengths)])
        chunk = self.read(dtype.itemsize * count)
        rows = np.frombuffer(chunk, dtype, len(chunk) // dtype.itemsize)
        columns = {field: rows[field]["items"] if dt.names else rows[field] for field, dt in fields}
        integral = [field for field, dt in fields
                    if self.ascii and (dt["items"] if dt.names else dt).kind in "iu"]
        if (any(dt.names and (len(rows) < count or (rows[field]["count"] != k).any())
                for (field, dt), k in zip(fields, lengths))
                or not all(_whole(columns[field]) for field in integral)):
            self.seek(start)
            return None
        return {**columns, **{field: columns[field].astype(np.int64) for field in integral}}


def _read_ply(path: Path):
    """Return {element: {property: values}} and the face element's first list property.

    Both formats read through one ``_Body``, an ASCII body once parsed into
    float64 records (``_ascii_records``). Every element reads as one block
    (``fixed``), each list's items a (rows, length) array, except one whose
    lists change length or that holds a fault the block cannot place, which
    reads row by row (``row``), each list a sequence. Scalar columns are
    float64, integer list items integers. A list length must be a whole number
    of 0 or more and an integer-typed value whole, which only ASCII can break.
    Errors name the element and the row where the data ends, where the first
    token that is not a number stands, or where a value breaks a rule.
    """
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise MeshIOError(f"{path}: {exc}") from exc
    fmt, elements, body = _parse_ply_header(blob, str(path))
    bad_token = None
    if fmt == "ascii":
        body, bad_token = _ascii_records(body)
    reader = _Body(body, fmt == "ascii")
    data: dict[str, dict] = {}
    faces: list | np.ndarray = []
    for name, count, fields in elements:
        row = None
        try:
            columns = reader.fixed(fields, count)
            if columns is None:
                columns = {field: [] for field, _ in fields}
                for row in range(count):
                    for (field, _), values in zip(fields, reader.row(fields)):
                        columns[field].append(values)
            else:
                row = len(next(iter(columns.values())))
                if row < count:
                    raise struct.error
        except struct.error:  # the body ends in ``row``, at ``bad_token`` if there is one
            raise MeshIOError(f"{path}: {name} {row}: {bad_token}" if bad_token else
                              f"{path}: declared {count} {name} rows, data ends at row {row}") \
                from None
        except ValueError as exc:
            where = name if row is None else f"{name} {row}"
            raise MeshIOError(f"{path}: {where}: {exc}") from exc
        data[name] = {field: columns[field] if dt.names
                      else np.array(columns[field], np.float64).ravel() for field, dt in fields}
        if name == "face":
            faces = next((columns[field] for field, dt in fields if dt.names), faces)
    return data, faces


def _vertices_from_ply(data: dict, path: str) -> tuple[np.ndarray, np.ndarray | None]:
    vert = data.get("vertex")
    if not vert or any(c not in vert for c in "xyz"):
        raise MeshIOError(f"{path}: PLY has no vertex x/y/z properties")
    pts = np.column_stack([vert["x"], vert["y"], vert["z"]])
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        raise MeshIOError(f"{path}: non-finite coordinate at vertex {int(bad.argmax())}")
    if all(c in vert for c in ("nx", "ny", "nz")):
        return pts, _unit_normals(np.column_stack([vert["nx"], vert["ny"], vert["nz"]]))
    return pts, None


def _unit_normals(normals: np.ndarray) -> np.ndarray | None:
    """The file's normals scaled to unit length; None if any has length 0."""
    lengths = np.linalg.norm(normals, axis=1)
    return None if (lengths < 1e-12).any() else normals / lengths[:, None]


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshIOError(f"{path}: {exc}") from exc


def _fan_triangulate(faces: list[list[int]] | np.ndarray, path: str) -> np.ndarray:
    """Triangles ``(f[0], f[j], f[j + 1])`` for ``j = 1 .. len(f) - 2``, face by
    face in file order: ``sample_mesh`` draws triangles by index. ``faces`` is
    a sequence of faces or, all of one length, a (faces, length) array."""
    if isinstance(faces, np.ndarray):
        lengths = np.full(len(faces), faces.shape[1], dtype=np.int64)
        flat = faces.astype(np.int64).reshape(-1)
    else:
        lengths = np.fromiter(map(len, faces), np.int64, len(faces))
        flat = np.fromiter(chain.from_iterable(faces), np.int64, int(lengths.sum()))
    short = np.flatnonzero(lengths < 3)
    if len(short):
        raise MeshIOError(f"{path}: face {short[0]} has fewer than 3 vertices")
    fans = lengths - 2
    # Each triangle's face start in ``flat``, and its j.
    start = np.repeat(np.cumsum(lengths) - lengths, fans)
    j = np.arange(len(start)) - np.repeat(np.cumsum(fans) - fans, fans) + 1
    return np.column_stack([flat[start], flat[start + j], flat[start + j + 1]])


def load_point_cloud(path: str | Path) -> PointCloud:
    """Load a point cloud from PLY or whitespace-delimited XYZ text."""
    path = Path(path)
    if not path.exists():
        raise MeshIOError(f"{path}: file not found")
    if path.suffix.lower() == ".ply":
        pts, normals = _vertices_from_ply(_read_ply(path)[0], str(path))
    else:
        pts, normals = _read_xyz(path)
    if len(pts) == 0:
        raise MeshIOError(f"{path}: empty point cloud")
    return PointCloud(points=pts, normals=normals)


def _read_xyz(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    rows = []
    normal_rows = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
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
    if rows and len(normal_rows) == len(rows):
        return np.asarray(rows), _unit_normals(np.asarray(normal_rows))
    return np.asarray(rows), None


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
    if len(faces) == 0:
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
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
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

_XYZ = [("x", "<f8"), ("y", "<f8"), ("z", "<f8")]


def _records(fields: list, *columns: np.ndarray) -> np.ndarray:
    """Pack row-aligned column blocks into a structured array with ``fields``."""
    return unstructured_to_structured(np.column_stack(columns), np.dtype(fields))


def _write_ply(path: Path, elements: list[tuple[str, np.ndarray]], ascii_mode: bool) -> None:
    """Write (element name, structured array) pairs as one PLY file.

    Each field is a property of its own type; a nested (count, items) field,
    items a (k,) subarray, is a list property of k items.
    """
    lines = ["ply", f"format {'ascii' if ascii_mode else 'binary_little_endian'} 1.0"]
    for name, rows in elements:
        lines.append(f"element {name} {len(rows)}")
        for field in rows.dtype.names:
            dt = rows.dtype[field]
            types = [dt["count"], dt["items"].base] if dt.names else [dt]
            type_names = " ".join(_PLY_TYPE_NAME[t.str] for t in types)
            lines.append(f"property {'list ' if dt.names else ''}{type_names} {field}")
    lines.append("end_header\n")
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("ascii"))
        for _, rows in elements:
            if ascii_mode:
                # %.10g prints every 8-, 16- and 32-bit integer exactly too.
                table = structured_to_unstructured(rows, np.float64)
                line = " ".join(["%.10g"] * table.shape[1]) + "\n"
                fh.write("".join(line % tuple(r) for r in table.tolist()).encode("ascii"))
            else:
                fh.write(rows.tobytes())


def save_point_cloud(path: str | Path, cloud: PointCloud,
                     ascii_mode: bool = False, colors: np.ndarray | None = None) -> None:
    """Write a cloud as PLY (or plain text when the suffix is .xyz)."""
    path = Path(path)
    pts = cloud.points
    if path.suffix.lower() == ".xyz":
        cols = [pts] if cloud.normals is None else [pts, cloud.normals]
        np.savetxt(path, np.hstack(cols), fmt="%.10g")
        return
    fields, columns = list(_XYZ), [pts]
    if cloud.normals is not None:
        fields += [("nx", "<f8"), ("ny", "<f8"), ("nz", "<f8")]
        columns.append(cloud.normals)
    if colors is not None:
        fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
        columns.append(colors)
    _write_ply(path, [("vertex", _records(fields, *columns))], ascii_mode)


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
    faces = _records([("vertex_indices", [("count", "u1"), ("items", "<i4", (3,))])],
                     np.full(len(mesh.triangles), 3), mesh.triangles)
    _write_ply(path, [("vertex", _records(_XYZ, mesh.vertices)), ("face", faces)], ascii_mode)


def save_polylines(path: str | Path, points: np.ndarray, edges: np.ndarray,
                   ascii_mode: bool = False) -> None:
    """Write polyline segments (e.g. fitted circle rings) as a PLY edge set."""
    edges = _records([("vertex1", "<i4"), ("vertex2", "<i4")], np.reshape(edges, (-1, 2)))
    _write_ply(Path(path), [("vertex", _records(_XYZ, as_points(points))), ("edge", edges)],
               ascii_mode)
