"""Synthetic scene generation: parametric parts with exact ground truth.

Each scene provides a CAD-frame mesh, a simulated scan (posed, noisy, and
optionally contaminated with outliers), and a ground-truth record holding the
scan-to-CAD transform, per-point labels, rim circles and the true primitive
count. The generator is the oracle the test suite checks the pipeline
against.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import Circle3D
from .geometry import PointCloud, Points, RigidTransform, TriangleMesh, clean_triangles, unit


@dataclass
class GroundTruth:
    transform: RigidTransform                 # maps the scan into the CAD frame
    labels: np.ndarray                        # per scan point; -1 = outlier
    circles: list[Circle3D] = field(default_factory=list)
    primitive_count: int = 0
    kinds: list[str] = field(default_factory=list)


@dataclass
class SyntheticScene:
    cloud: PointCloud        # simulated scan, in the scan frame
    mesh: TriangleMesh       # reference CAD geometry, in the CAD frame
    truth: GroundTruth


@dataclass
class SceneSpec:
    kind: str
    options: dict[str, float]


def parse_scene_spec(text: str) -> SceneSpec:
    """Parse 'kind key=value ...' tokens (from a string or a spec file); a
    value that is not a number and an option given twice raise ValueError
    naming the option."""
    path = Path(text)
    if path.is_file():
        text = path.read_text()
    tokens = text.split()
    if not tokens:
        raise ValueError("empty scene spec")
    kind = tokens[0]
    options: dict[str, float] = {}
    for token in tokens[1:]:
        if "=" not in token:
            raise ValueError(f"bad scene option '{token}' (expected key=value)")
        key, value = token.split("=", 1)
        if key in options:
            raise ValueError(f"{kind} option {key}={value} repeats {key}={options[key]:g}")
        try:
            options[key] = float(value)
        except ValueError:
            raise ValueError(f"{kind} option {key}={value} must be a number") from None
    return SceneSpec(kind, options)


# What each option must be beyond finite; the others may take any finite value.
_COUNT = (lambda v: v >= 1 and v == int(v), "a whole number >= 1")
_POSITIVE = (lambda v: v > 0, "finite and positive")
_NON_NEGATIVE = (lambda v: v >= 0, "finite and at least 0")
_OPTION_RULES = {
    **dict.fromkeys(("spacing", "width", "height", "thickness", "side", "a", "b", "c",
                     "hole_r_min", "hole_r_max", "r_min", "r_max"), _POSITIVE),
    "noise": _NON_NEGATIVE,
    "defect_radius": _NON_NEGATIVE,
    "outlier_frac": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "holes": _COUNT,
    "count": _COUNT,
    "circles": _COUNT,
    "points_per": _COUNT,
}
# Radius ranges (low, high): the low end may not pass the high one.
_RANGES = (("hole_r_min", "hole_r_max"), ("r_min", "r_max"))


def generate_synthetic_scene(spec: SceneSpec | str, seed: int = 0) -> SyntheticScene:
    """Build the named scene; unknown kinds, unknown options and option values
    out of range raise ValueError."""
    if isinstance(spec, str):
        spec = parse_scene_spec(spec)
    makers = {
        "cube": cube_scene,
        "bracket": bracket_scene,
        "plate": plate_scene,
        "collage": collage_scene,
        "circles": circles_scene,
    }
    if spec.kind not in makers:
        raise ValueError(f"unknown scene kind '{spec.kind}'")
    maker = makers[spec.kind]
    defaults = {name: p.default for name, p in inspect.signature(maker).parameters.items()
                if name != "seed"}
    for key, value in spec.options.items():
        if key not in defaults:
            raise ValueError(f"unknown {spec.kind} option '{key}'; "
                             f"expected one of {', '.join(sorted(defaults))}")
        valid, wanted = _OPTION_RULES.get(key, (lambda v: True, "finite"))
        if not (np.isfinite(value) and valid(value)):
            raise ValueError(f"{spec.kind} option {key}={value:g} must be {wanted}")
    values = {**defaults, **spec.options}
    for low, high in _RANGES:
        if low in values and values[low] > values[high]:
            if low in spec.options:
                rule = f"{low}={values[low]:g} must be at most {high}={values[high]:g}"
            else:
                rule = f"{high}={values[high]:g} must be at least {low}={values[low]:g}"
            raise ValueError(f"{spec.kind} option {rule}")
    if spec.kind == "plate" and values["defect_depth"] >= values["thickness"]:
        # A dent through the plate would leave scan points below its bottom.
        raise ValueError(f"plate option defect_depth={values['defect_depth']:g} must be "
                         f"less than thickness={values['thickness']:g}")
    return maker(seed=seed, **spec.options)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _random_rotation(rng: np.random.Generator, max_deg: float) -> np.ndarray:
    if max_deg <= 0:
        return np.eye(3)
    axis = unit(rng.normal(size=3))
    angle = np.deg2rad(max_deg) * rng.random()
    k = np.array([
        [0, -axis[2], axis[1]],
        [axis[2], 0, -axis[0]],
        [-axis[1], axis[0], 0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def _assemble(
    rng: np.random.Generator,
    surfaces: list[tuple[np.ndarray, int]],
    mesh: TriangleMesh,
    noise: float,
    outlier_frac: float,
    rot_deg: float,
    trans_frac: float,
    circles: list[Circle3D] | None = None,
    kinds: list[str] | None = None,
) -> SyntheticScene:
    pts = np.vstack([s for s, _ in surfaces])
    labels = np.concatenate([np.full(len(s), lab, dtype=np.int64) for s, lab in surfaces])
    if noise > 0:
        pts = pts + rng.normal(scale=noise, size=pts.shape)
    if outlier_frac > 0:
        n_out = int(round(outlier_frac / (1.0 - outlier_frac) * len(pts)))
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        pad = 0.1 * (hi - lo + 1e-9)
        out = rng.uniform(lo - pad, hi + pad, size=(n_out, 3))
        pts = np.vstack([pts, out])
        labels = np.concatenate([labels, np.full(n_out, -1, dtype=np.int64)])

    diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    rot = _random_rotation(rng, rot_deg)
    trans = rng.uniform(-1.0, 1.0, size=3)
    norm = np.linalg.norm(trans)
    trans = trans / norm * trans_frac * diag * rng.random() if norm > 0 else trans
    to_cad = RigidTransform(rot, trans)
    scan = to_cad.inverse().apply(pts)

    n_primitives = len({lab for _, lab in surfaces})
    return SyntheticScene(
        cloud=PointCloud(points=scan),
        mesh=mesh,
        truth=GroundTruth(
            transform=to_cad,
            labels=labels,
            circles=circles or [],
            primitive_count=n_primitives,
            kinds=kinds or [],
        ),
    )


def _grid(origin, u_vec, v_vec, lu: float, lv: float, spacing: float,
          rng: np.random.Generator | None = None) -> np.ndarray:
    """Near-uniform surface samples; jitter breaks the grid regularity that a
    real scanner never produces."""
    nu = max(2, int(round(lu / spacing)) + 1)
    nv = max(2, int(round(lv / spacing)) + 1)
    su = np.linspace(0.0, lu, nu)
    sv = np.linspace(0.0, lv, nv)
    uu, vv = np.meshgrid(su, sv, indexing="ij")
    uu = uu.reshape(-1, 1)
    vv = vv.reshape(-1, 1)
    if rng is not None:
        uu = np.clip(uu + rng.uniform(-0.35, 0.35, uu.shape) * spacing, 0.0, lu)
        vv = np.clip(vv + rng.uniform(-0.35, 0.35, vv.shape) * spacing, 0.0, lv)
    origin = np.asarray(origin, dtype=float)
    return origin + uu * np.asarray(u_vec) + vv * np.asarray(v_vec)


def _grid_mesh(origin, u_vec, v_vec, lu: float, lv: float) -> tuple[np.ndarray, np.ndarray]:
    origin = np.asarray(origin, dtype=float)
    corners = np.array([
        origin,
        origin + lu * np.asarray(u_vec),
        origin + lu * np.asarray(u_vec) + lv * np.asarray(v_vec),
        origin + lv * np.asarray(v_vec),
    ])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return corners, tris


def _tube_points(center, axis_u, axis_v, axis_w, radius, h0, h1, spacing,
                 taper: float = 0.0, rng: np.random.Generator | None = None) -> np.ndarray:
    """Rings along w from h0 to h1. ``taper`` != 0 makes it a cone band."""
    center = np.asarray(center, dtype=float)
    nh = max(2, int(round((h1 - h0) / spacing)) + 1)
    rows = []
    for h in np.linspace(h0, h1, nh):
        if rng is not None:
            h = float(np.clip(h + rng.uniform(-0.35, 0.35) * spacing, h0, h1))
        r = radius + taper * h
        if r <= 0:
            continue
        na = max(8, int(round(2 * np.pi * r / spacing)))
        t = np.linspace(0.0, 2 * np.pi, na, endpoint=False)
        if rng is not None:
            t = t + rng.uniform(-0.35, 0.35, na) * (2 * np.pi / na)
        ring = center + r * (np.outer(np.cos(t), axis_u) + np.outer(np.sin(t), axis_v)) \
            + h * np.asarray(axis_w)
        rows.append(ring)
    return np.vstack(rows)


def _ring_strip(rings: int, segments: int) -> list[list[int]]:
    """Two triangles per quad between consecutive rings of ``segments`` vertices."""
    tris = []
    for i in range(rings - 1):
        for j in range(segments):
            a = i * segments + j
            b = i * segments + (j + 1) % segments
            c = (i + 1) * segments + j
            d = (i + 1) * segments + (j + 1) % segments
            tris.append([a, b, d])
            tris.append([a, d, c])
    return tris


def _revolve_mesh(center, axis_u, axis_v, axis_w, radius, h0, h1,
                  taper: float = 0.0, segments: int = 48, rings: int = 8):
    center = np.asarray(center, dtype=float)
    t = np.linspace(0.0, 2 * np.pi, segments, endpoint=False)
    verts = []
    for h in np.linspace(h0, h1, rings):
        r = max(radius + taper * h, 1e-6)
        verts.append(center + r * (np.outer(np.cos(t), axis_u) + np.outer(np.sin(t), axis_v))
                     + h * np.asarray(axis_w))
    return np.vstack(verts), np.asarray(_ring_strip(rings, segments))


def _sphere_cap_points(center, frame, radius, cap_angle, spacing,
                       rng: np.random.Generator | None = None) -> np.ndarray:
    center = np.asarray(center, dtype=float)
    u, v, w = frame
    n_theta = max(2, int(round(radius * cap_angle / spacing)) + 1)
    dtheta = cap_angle / n_theta
    rows = []
    for theta in np.linspace(dtheta, cap_angle, n_theta):
        if rng is not None:
            theta = float(np.clip(theta + rng.uniform(-0.35, 0.35) * dtheta, dtheta / 2, cap_angle))
        ring_r = radius * np.sin(theta)
        na = max(6, int(round(2 * np.pi * ring_r / spacing)))
        t = np.linspace(0.0, 2 * np.pi, na, endpoint=False)
        if rng is not None:
            t = t + rng.uniform(-0.35, 0.35, na) * (2 * np.pi / na)
        rows.append(center + ring_r * (np.outer(np.cos(t), u) + np.outer(np.sin(t), v))
                    + radius * np.cos(theta) * np.asarray(w))
    return np.vstack(rows)


def _sphere_cap_mesh(center, frame, radius, cap_angle, segments: int = 48, rings: int = 8):
    center = np.asarray(center, dtype=float)
    u, v, w = frame
    t = np.linspace(0.0, 2 * np.pi, segments, endpoint=False)
    verts = []
    for theta in np.linspace(cap_angle / rings, cap_angle, rings):
        ring_r = radius * np.sin(theta)
        verts.append(center + ring_r * (np.outer(np.cos(t), u) + np.outer(np.sin(t), v))
                     + radius * np.cos(theta) * np.asarray(w))
    verts = np.vstack(verts)
    tris = _ring_strip(rings, segments)
    apex = len(verts)
    verts = np.vstack([verts, center + radius * np.asarray(w)])
    for j in range(segments):
        tris.append([apex, j, (j + 1) % segments])
    return verts, np.asarray(tris)


def _merge_meshes(parts: list[tuple[np.ndarray, np.ndarray]]) -> TriangleMesh:
    verts = []
    tris = []
    offset = 0
    for v, t in parts:
        verts.append(v)
        tris.append(np.asarray(t, dtype=np.int64) + offset)
        offset += len(v)
    vertices = np.vstack(verts)
    triangles = clean_triangles(vertices, np.vstack(tris))
    return TriangleMesh(vertices=vertices, triangles=triangles)


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

def cube_scene(
    side: float = 10.0,
    spacing: float = 0.15,
    noise: float = 0.005,
    outlier_frac: float = 0.0,
    rot_deg: float = 0.0,
    trans_frac: float = 0.0,
    seed: int = 0,
) -> SyntheticScene:
    """Axis-aligned cube: six planar faces, twelve sharp edges."""
    rng = np.random.default_rng(seed)
    s = side
    ex, ey, ez = np.eye(3)
    faces = [
        ((0, 0, 0), ex, ey),   # bottom (z=0)
        ((0, 0, s), ex, ey),   # top
        ((0, 0, 0), ex, ez),   # y=0
        ((0, s, 0), ex, ez),   # y=s
        ((0, 0, 0), ey, ez),   # x=0
        ((s, 0, 0), ey, ez),   # x=s
    ]
    surfaces = [(_grid(o, u, v, s, s, spacing, rng=rng), i) for i, (o, u, v) in enumerate(faces)]
    mesh = _merge_meshes([_grid_mesh(o, u, v, s, s) for o, u, v in faces])
    return _assemble(rng, surfaces, mesh, noise, outlier_frac, rot_deg, trans_frac,
                     kinds=["plane"] * 6)


def bracket_scene(
    a: float = 80.0,
    b: float = 50.0,
    c: float = 30.0,
    spacing: float = 0.35,
    noise: float = 0.005,
    rot_deg: float = 0.0,
    trans_frac: float = 0.0,
    outlier_frac: float = 0.0,
    defect_depth: float = 0.0,
    defect_radius: float = 0.0,
    seed: int = 0,
) -> SyntheticScene:
    """Open-book bracket: two perpendicular rectangles with distinct extents.

    No rotational symmetry, which makes it a good registration target. An
    optional disk defect displaces part of the first sheet along its normal
    (positive = pressed in, negative = raised).
    """
    rng = np.random.default_rng(seed)
    ex, ey, ez = np.eye(3)
    sheet = _grid((0, 0, 0), ex, ey, a, b, spacing, rng=rng)
    if defect_depth != 0 and defect_radius > 0:
        dc = np.array([a * 0.6, b * 0.6])
        inside = np.linalg.norm(sheet[:, :2] - dc, axis=1) <= defect_radius
        sheet = sheet.copy()
        sheet[inside, 2] -= defect_depth
    surfaces = [
        (sheet, 0),
        (_grid((0, 0, 0), ex, ez, a, c, spacing, rng=rng), 1),
    ]
    mesh = _merge_meshes([
        _grid_mesh((0, 0, 0), ex, ey, a, b),
        _grid_mesh((0, 0, 0), ex, ez, a, c),
    ])
    return _assemble(rng, surfaces, mesh, noise, outlier_frac, rot_deg, trans_frac,
                     kinds=["plane", "plane"])


def _plate_cells(width, height, holes: int):
    cols = int(np.ceil(np.sqrt(holes)))
    rows = int(np.ceil(holes / cols))
    cw = width / cols
    ch = height / rows
    cells = []
    k = 0
    for r in range(rows):
        for col in range(cols):
            has_hole = k < holes
            cells.append(((col * cw, r * ch), (cw, ch), has_hole))
            k += 1
    return cells


def _ring_to_rect_mesh(center, rect_lo, rect_hi, radius, z, segments: int = 64):
    """Stitch a circular rim to its surrounding rectangular cell boundary."""
    cx, cy = center
    t = np.linspace(0.0, 2 * np.pi, segments, endpoint=False)
    rim = np.column_stack([cx + radius * np.cos(t), cy + radius * np.sin(t),
                           np.full(segments, z)])
    outer = []
    for angle in t:
        dx, dy = np.cos(angle), np.sin(angle)
        candidates = []
        if dx > 1e-12:
            candidates.append((rect_hi[0] - cx) / dx)
        elif dx < -1e-12:
            candidates.append((rect_lo[0] - cx) / dx)
        if dy > 1e-12:
            candidates.append((rect_hi[1] - cy) / dy)
        elif dy < -1e-12:
            candidates.append((rect_lo[1] - cy) / dy)
        s = min(c for c in candidates if c > 0)
        outer.append([cx + s * dx, cy + s * dy, z])
    verts = np.vstack([rim, np.asarray(outer)])
    tris = []
    for j in range(segments):
        jn = (j + 1) % segments
        tris.append([j, segments + j, jn])
        tris.append([jn, segments + j, segments + jn])
    return verts, np.asarray(tris)


def plate_scene(
    width: float = 100.0,
    height: float = 100.0,
    thickness: float = 8.0,
    holes: int = 16,
    hole_r_min: float = 3.0,
    hole_r_max: float = 6.0,
    spacing: float = 0.45,
    noise: float = 0.005,
    outlier_frac: float = 0.0,
    rot_deg: float = 0.0,
    trans_frac: float = 0.0,
    defect_depth: float = 0.0,
    defect_radius: float = 0.0,
    seed: int = 0,
) -> SyntheticScene:
    """Plate with circular through-holes; the staple feature-level scenario.

    The scan covers the top surface, the hole bores and the outer walls (the
    bottom face is occluded); the mesh models the full solid. Each hole's
    radius is drawn from [``hole_r_min``, ``hole_r_max``] and capped at 0.3
    times the smaller side of its cell, so a large ``hole_r_max`` gives
    holes of the cap's size. An optional disk-shaped defect presses the top
    surface down by ``defect_depth``, which must be less than ``thickness``.
    """
    holes = int(holes)
    rng = np.random.default_rng(seed)
    cells = _plate_cells(width, height, holes)
    # Holes sit off their cell centers; an asymmetric layout keeps flipped or
    # rotated poses of the plate geometrically distinguishable.
    hole_params = []
    cell_holes: list[tuple | None] = []
    for (x0, y0), (cw, ch), has_hole in cells:
        if not has_hole:
            cell_holes.append(None)
            continue
        r_cap = 0.3 * min(cw, ch)
        r = min(rng.uniform(hole_r_min, hole_r_max), r_cap)
        cx = x0 + cw / 2.0 + rng.uniform(-0.15, 0.15) * cw
        cy = y0 + ch / 2.0 + rng.uniform(-0.15, 0.15) * ch
        hole = (cx, cy, r)
        hole_params.append(hole)
        cell_holes.append(hole)

    z_top = thickness
    ex, ey, ez = np.eye(3)

    top = _grid((0, 0, z_top), ex, ey, width, height, spacing, rng=rng)
    keep = np.ones(len(top), dtype=bool)
    for cx, cy, r in hole_params:
        keep &= (top[:, 0] - cx) ** 2 + (top[:, 1] - cy) ** 2 >= r * r
    top = top[keep]
    if defect_depth != 0 and defect_radius > 0:
        # Positive depth presses the surface in, negative raises a bump.
        dc = np.array([width * 0.5, height * 0.5])
        inside = np.linalg.norm(top[:, :2] - dc, axis=1) <= defect_radius
        top = top.copy()
        top[inside, 2] -= defect_depth

    surfaces: list[tuple[np.ndarray, int]] = [(top, 0)]
    walls = [
        ((0, 0, 0), ex, ez, width, thickness),
        ((0, height, 0), ex, ez, width, thickness),
        ((0, 0, 0), ey, ez, height, thickness),
        ((width, 0, 0), ey, ez, height, thickness),
    ]
    for i, (o, u, v, lu, lv) in enumerate(walls):
        surfaces.append((_grid(o, u, v, lu, lv, spacing, rng=rng), 1 + i))
    for i, (cx, cy, r) in enumerate(hole_params):
        bore = _tube_points((cx, cy, 0.0), ex, ey, ez, r, 0.0, thickness, spacing, rng=rng)
        surfaces.append((bore, 5 + i))

    circles = [Circle3D(np.array([cx, cy, z_top]), r, ez) for cx, cy, r in hole_params]

    mesh_parts = []
    for ((x0, y0), (cw, ch), _), hole in zip(cells, cell_holes):
        for z in (0.0, z_top):
            if hole is not None:
                mesh_parts.append(_ring_to_rect_mesh(
                    (hole[0], hole[1]), (x0, y0), (x0 + cw, y0 + ch), hole[2], z))
            else:
                mesh_parts.append(_grid_mesh((x0, y0, z), ex, ey, cw, ch))
    for o, u, v, lu, lv in walls:
        mesh_parts.append(_grid_mesh(o, u, v, lu, lv))
    for cx, cy, r in hole_params:
        mesh_parts.append(_revolve_mesh((cx, cy, 0.0), ex, ey, ez, r, 0.0, thickness))
    mesh = _merge_meshes(mesh_parts)

    kinds = ["plane"] * 5 + ["cylinder"] * len(hole_params)
    return _assemble(rng, surfaces, mesh, noise, outlier_frac, rot_deg, trans_frac,
                     circles=circles, kinds=kinds)


def collage_scene(
    count: int = 4,
    spacing: float = 0.08,
    noise: float = 0.01,
    outlier_frac: float = 0.0,
    rot_deg: float = 0.0,
    trans_frac: float = 0.0,
    seed: int = 0,
) -> SyntheticScene:
    """2-8 well-separated primitive patches of mixed kinds with truth labels."""
    count = int(count)
    if not 1 <= count <= 8:
        raise ValueError("collage supports 1..8 patches")
    rng = np.random.default_rng(seed)
    pitch = 5.0
    slots = [np.array([x, y, z], dtype=float) * pitch
             for z in (0, 1) for y in (0, 1) for x in (0, 1)]
    kind_cycle = ["plane", "cylinder", "sphere", "cone"]
    kinds = [kind_cycle[rng.integers(0, 4)] for _ in range(count)]

    surfaces = []
    mesh_parts = []
    for i in range(count):
        center = slots[i]
        m = rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(m)
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        u, v, w = q[:, 0], q[:, 1], q[:, 2]
        kind = kinds[i]
        if kind == "plane":
            lu = rng.uniform(1.8, 2.6)
            lv = rng.uniform(1.8, 2.6)
            origin = center - (lu / 2) * u - (lv / 2) * v
            surfaces.append((_grid(origin, u, v, lu, lv, spacing, rng=rng), i))
            mesh_parts.append(_grid_mesh(origin, u, v, lu, lv))
        elif kind == "cylinder":
            r = rng.uniform(0.6, 1.0)
            h = rng.uniform(1.6, 2.4)
            surfaces.append((_tube_points(center, u, v, w, r, -h / 2, h / 2, spacing, rng=rng), i))
            mesh_parts.append(_revolve_mesh(center, u, v, w, r, -h / 2, h / 2))
        elif kind == "sphere":
            r = rng.uniform(0.9, 1.4)
            cap = rng.uniform(1.0, 1.4)
            surfaces.append((_sphere_cap_points(center, (u, v, w), r, cap, spacing, rng=rng), i))
            mesh_parts.append(_sphere_cap_mesh(center, (u, v, w), r, cap))
        else:  # cone
            alpha = rng.uniform(0.35, 0.6)
            taper = np.tan(alpha)
            h0 = rng.uniform(0.8, 1.2)
            h1 = h0 + rng.uniform(1.2, 1.8)
            apex = center - ((h0 + h1) / 2) * w
            surfaces.append((_tube_points(apex, u, v, w, 0.0, h0, h1, spacing, taper=taper, rng=rng), i))
            mesh_parts.append(_revolve_mesh(apex, u, v, w, 0.0, h0, h1, taper=taper))
    mesh = _merge_meshes(mesh_parts)
    return _assemble(rng, surfaces, mesh, noise, outlier_frac, rot_deg, trans_frac, kinds=kinds)


def circles_scene(
    circles: int = 4,
    points_per: int = 150,
    noise: float = 0.02,
    outlier_frac: float = 0.5,
    r_min: float = 0.8,
    r_max: float = 1.6,
    seed: int = 0,
) -> SyntheticScene:
    """Coplanar circles with Gaussian noise and uniform outliers.

    The classic multi-model fitting benchmark: the cloud is the edge-point
    set itself, ready to feed the circle fitting scheme.
    """
    circles = int(circles)
    rng = np.random.default_rng(seed)
    cols = int(np.ceil(np.sqrt(circles)))
    pitch = 2.0 * r_max + 1.5
    truth: list[Circle3D] = []
    surfaces = []
    for i in range(circles):
        cx = (i % cols) * pitch
        cy = (i // cols) * pitch
        r = rng.uniform(r_min, r_max)
        t = rng.uniform(0.0, 2 * np.pi, size=int(points_per))
        ring = np.column_stack([cx + r * np.cos(t), cy + r * np.sin(t), np.zeros(len(t))])
        surfaces.append((ring, i))
        truth.append(Circle3D(np.array([cx, cy, 0.0]), r, np.array([0.0, 0.0, 1.0])))

    all_pts = np.vstack([s for s, _ in surfaces])
    span = all_pts.max(axis=0) - all_pts.min(axis=0)
    lo = all_pts.min(axis=0) - 0.15 * span
    hi = all_pts.max(axis=0) + 0.15 * span
    mesh = _merge_meshes([_grid_mesh(
        (lo[0], lo[1], 0.0), np.eye(3)[0], np.eye(3)[1],
        hi[0] - lo[0], hi[1] - lo[1])])

    pts = all_pts + rng.normal(scale=noise, size=all_pts.shape)
    labels = np.concatenate([np.full(len(s), lab, dtype=np.int64) for s, lab in surfaces])
    if outlier_frac > 0:
        n_out = int(round(outlier_frac / (1.0 - outlier_frac) * len(pts)))
        out = rng.uniform(lo, hi, size=(n_out, 3))
        out[:, 2] = rng.normal(scale=noise, size=n_out)
        pts = np.vstack([pts, out])
        labels = np.concatenate([labels, np.full(n_out, -1, dtype=np.int64)])

    return SyntheticScene(
        cloud=PointCloud(points=pts),
        mesh=mesh,
        truth=GroundTruth(
            transform=RigidTransform.identity(),
            labels=labels,
            circles=truth,
            primitive_count=circles,
            kinds=["circle"] * circles,
        ),
    )
