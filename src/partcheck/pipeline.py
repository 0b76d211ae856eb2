"""Pipeline orchestration and the three-level assessment report.

``run_pipeline`` is a chain of stage functions: load the inputs, register
(repeat and outlier filters, CAD sampling, coarse search and ICP), the
global level (E_reg and E_global from one exact-distance array), the part
level (segmentation and patch errors), the feature level (the scan's rim
circles, found among the edge points off the part level's plane creases,
against the reference circles, which are a supplied table or, without one,
none), then the report and its output files. The rims come from the part
level first: a fitted cylinder meeting a plane normal to its axis gives its
rim exactly, where the edge points support it. MCFS fits the edge points
those rims leave. The outlier filter's k-NN query is the scan's only one:
the normals, region growing and the tensor-voting radius read its table,
which a rigid motion leaves valid. Each stage is timed, and any failure
aborts with the stage name; a scan too small to estimate normals on is
rejected as input before registration.
The report serializes to a stable key/value document or an aligned
human-readable table.

Circles are matched one-to-one (``features.match_circles``): the most pairs
whose centroid offset and radius difference are both within
``circle_match_tol``, and among those the least total centroid offset. f_n
and f_p count the circles left unmatched; ``e_comp_*`` is over the pairs.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import features as feat
from . import meshio
from . import primitives as prim
from . import registration as reg
from .config import PipelineConfig
from .geometry import (
    MeshDistance,
    PointCloud,
    TriangleMesh,
    distinct_rows,
    estimate_normals_and_curvature,
    remove_outliers,
    rms,
    sample_mesh,
)
from .synth import SyntheticScene, generate_synthetic_scene, parse_scene_spec


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PrimitiveRow:
    index: int
    kind: str
    inlier_count: int
    patch_distance: float
    params: str


@dataclass
class CircleRow:
    """One fitted circle. ``inlier_count`` is the edge points labeled to it:
    for a rim from the part level, the edge points in its claim band; for a
    circle MCFS found, those the set cover assigned it."""

    index: int
    center: np.ndarray
    radius: float
    normal: np.ndarray
    inlier_count: int


_ERROR_KEYS = (
    "e_reg", "e_global", "e_part_avg", "e_part_max",
    "e_comp_radius_avg", "e_comp_radius_max",
    "e_comp_centroid_avg", "e_comp_centroid_max",
)


@dataclass
class AssessmentReport:
    """Three-level error record plus stage timings and run provenance.
    ``e_reg`` and ``e_global`` are the mean and the RMS of the same exact
    distances, from each registered scan point to the CAD surface."""

    e_reg: float
    e_global: float
    e_part_avg: float
    e_part_max: float
    e_comp_radius_avg: float
    e_comp_radius_max: float
    e_comp_centroid_avg: float
    e_comp_centroid_max: float
    f_n: int
    f_p: int
    n_reference_circles: int
    time_registration: float
    time_global: float
    time_part: float
    time_feature: float
    time_total: float
    scan_points: int
    outliers_removed: int
    registration_iterations: int
    registration_converged: bool
    primitive_rows: list[PrimitiveRow] = field(default_factory=list)
    circle_rows: list[CircleRow] = field(default_factory=list)
    config: PipelineConfig = field(default_factory=PipelineConfig)
    scan_checksum: str = "-"
    mesh_checksum: str = "-"
    format_version: int = 5

    def __post_init__(self):
        for name in _ERROR_KEYS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.f_n < 0 or self.f_p < 0 or self.n_reference_circles < 0:
            raise ValueError("f_n / f_p / n_reference_circles must be non-negative")
        if self.f_n > self.n_reference_circles:
            raise ValueError("f_n exceeds the number of reference circles")
        stage_sum = (self.time_registration + self.time_global
                     + self.time_part + self.time_feature)
        if self.time_total < stage_sum * 0.99:
            raise ValueError("total time is below the sum of stage times")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


_TIME_KEYS = (
    "time_registration", "time_global", "time_part", "time_feature", "time_total",
)


def report_fields(report: AssessmentReport) -> OrderedDict:
    """Flatten the report into its canonical key order."""
    out: OrderedDict[str, str] = OrderedDict()
    out["format_version"] = _fmt(report.format_version)
    out["scan_checksum"] = report.scan_checksum
    out["mesh_checksum"] = report.mesh_checksum
    for key in _ERROR_KEYS:
        out[key] = _fmt(getattr(report, key))
    out["f_n"] = _fmt(report.f_n)
    out["f_p"] = _fmt(report.f_p)
    out["n_reference_circles"] = _fmt(report.n_reference_circles)
    for key in _TIME_KEYS:
        out[key] = f"{getattr(report, key):.1f}"
    out["scan_points"] = _fmt(report.scan_points)
    out["outliers_removed"] = _fmt(report.outliers_removed)
    out["registration_iterations"] = _fmt(report.registration_iterations)
    out["registration_converged"] = _fmt(report.registration_converged)
    out["n_primitives"] = _fmt(len(report.primitive_rows))
    for row in report.primitive_rows:
        prefix = f"primitive.{row.index}"
        out[f"{prefix}.kind"] = row.kind
        out[f"{prefix}.inliers"] = _fmt(row.inlier_count)
        out[f"{prefix}.patch_distance"] = _fmt(row.patch_distance)
        out[f"{prefix}.params"] = row.params
    out["n_circles"] = _fmt(len(report.circle_rows))
    for row in report.circle_rows:
        prefix = f"circle.{row.index}"
        out[f"{prefix}.center"] = " ".join(_fmt(v) for v in row.center)
        out[f"{prefix}.radius"] = _fmt(row.radius)
        out[f"{prefix}.normal"] = " ".join(_fmt(v) for v in row.normal)
        out[f"{prefix}.inliers"] = _fmt(row.inlier_count)
    for key, value in report.config.to_items().items():
        out[f"config.{key}"] = _fmt(value)
    return out


def emit_report(report: AssessmentReport, path: str | Path, fmt: str = "structured") -> None:
    """Write the report; 'structured' is machine-readable, 'human' is a table."""
    path = Path(path)
    if fmt == "structured":
        lines = [f"{key} = {value}" for key, value in report_fields(report).items()]
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "human":
        path.write_text(_render_human(report))
    else:
        raise ValueError(f"unknown report format '{fmt}'")


def parse_report(path: str | Path) -> OrderedDict:
    """Read a structured report back into its key/value fields."""
    out: OrderedDict[str, str] = OrderedDict()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _render_human(report: AssessmentReport) -> str:
    # With no primitive found, or no reference circle matched, the structured
    # report keeps 0.0 in the E_part or E_comp fields; the table says there
    # is nothing to measure.
    has_part = bool(report.primitive_rows)
    matched = report.f_n < report.n_reference_circles
    rows = [(name, f"{value:.6f}" if measured else "n/a") for name, value, measured in (
        ("Registration error (E_reg)", report.e_reg, True),
        ("Global RMSE (E_global)", report.e_global, True),
        ("Part avg (E_part_avg)", report.e_part_avg, has_part),
        ("Part max (E_part_max)", report.e_part_max, has_part),
        ("Radius avg (E_comp_radius_avg)", report.e_comp_radius_avg, matched),
        ("Radius max (E_comp_radius_max)", report.e_comp_radius_max, matched),
        ("Centroid avg (E_comp_centroid_avg)", report.e_comp_centroid_avg, matched),
        ("Centroid max (E_comp_centroid_max)", report.e_comp_centroid_max, matched),
    )]
    width = max(len(name) for name, _ in rows)
    lines = ["Manufacturing error (model units, mm by convention)", "-" * 60]
    lines += [f"{name:<{width}}  {value}" for name, value in rows]
    lines += ["", f"Reference circles: {report.n_reference_circles}   "
              f"Missed circles (f_n): {report.f_n}   Spurious circles (f_p): {report.f_p}",
              "", "Running time (seconds)", "-" * 60]
    lines += [
        f"registration {report.time_registration:.1f}  global {report.time_global:.1f}  "
        f"part {report.time_part:.1f}  feature {report.time_feature:.1f}  "
        f"total {report.time_total:.1f}",
        "", f"Primitives ({len(report.primitive_rows)})", "-" * 60,
    ]
    for row in report.primitive_rows:
        lines.append(f"{row.index:>3} {row.kind:<9} inliers {row.inlier_count:>8} "
                     f"patch-dist {row.patch_distance:.6f}  [{row.params}]")
    lines += ["", f"Circles ({len(report.circle_rows)})", "-" * 60]
    for row in report.circle_rows:
        c = row.center
        n = row.normal
        lines.append(
            f"{row.index:>3} center ({c[0]:.4f}, {c[1]:.4f}, {c[2]:.4f}) "
            f"r {row.radius:.4f} normal ({n[0]:.3f}, {n[1]:.3f}, {n[2]:.3f}) "
            f"inliers {row.inlier_count}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Circle tables (dump and truth input)
# ---------------------------------------------------------------------------

def write_circles_table(path: str | Path, circles: list[feat.Circle3D],
                        inlier_counts: list[int] | None = None) -> None:
    lines = ["# id cx cy cz radius nx ny nz inliers"]
    for i, c in enumerate(circles):
        count = inlier_counts[i] if inlier_counts else 0
        lines.append(
            f"{i} {c.center[0]:.10g} {c.center[1]:.10g} {c.center[2]:.10g} "
            f"{c.radius:.10g} {c.normal[0]:.10g} {c.normal[1]:.10g} {c.normal[2]:.10g} {count}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_circles_table(path: str | Path) -> list[feat.Circle3D]:
    circles = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) < 8:
            raise ValueError(f"{path}: line {lineno}: expected >= 8 columns")
        try:
            values = [float(t) for t in tokens[1:8]]
            if not np.isfinite(values).all():
                raise ValueError("values must be finite")
            circles.append(
                feat.Circle3D(np.array(values[0:3]), values[3], np.array(values[4:7])))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return circles


# ---------------------------------------------------------------------------
# Stage helpers
# ---------------------------------------------------------------------------

def global_error(surface_dist: np.ndarray) -> float:
    """Root mean square of the registered scan's point-to-surface distances.

    ``surface_dist`` is ``MeshDistance.query`` over every registered point;
    E_reg is its mean, and the part level takes its patch means from it.
    """
    return rms(surface_dist)


_PALETTE = np.array([
    (230, 60, 60), (60, 160, 230), (90, 200, 90), (235, 180, 50),
    (170, 90, 220), (60, 210, 200), (240, 120, 50), (140, 140, 240),
    (200, 90, 140), (120, 190, 60), (90, 120, 200), (220, 140, 190),
    (150, 200, 150), (200, 200, 90), (120, 220, 240), (230, 100, 100),
], dtype=np.uint8)


def _label_colors(labels: np.ndarray) -> np.ndarray:
    colors = np.full((len(labels), 3), 64, dtype=np.uint8)
    assigned = labels >= 0
    colors[assigned] = _PALETTE[labels[assigned] % len(_PALETTE)]
    return colors


def _checksum(path: str | Path) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"


@contextmanager
def _stage(name: str, times: dict[str, float]):
    """Record the stage's seconds in ``times[name]``; a failure inside it
    is raised as a StageError naming the stage."""
    start = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    finally:
        times[name] = time.perf_counter() - start


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

def run_pipeline(
    scan,
    mesh,
    config: PipelineConfig = PipelineConfig(),
    truth_circles: list[feat.Circle3D] | None = None,
    out_dir: str | Path | None = None,
    dump_segments: bool = False,
    dump_edges: bool = False,
    dump_circles: bool = False,
    ascii_output: bool = False,
) -> AssessmentReport:
    """Run the full assessment and return the report.

    ``scan`` and ``mesh`` may be paths or in-memory objects. The feature
    level scores the scan's circles against ``truth_circles``; without them
    there is no reference, so ``f_n`` is 0, every fitted circle counts in
    ``f_p`` and the ``e_comp_*`` fields read 0.0 (``n_reference_circles``
    says which case a report is). Output files are only written after every
    stage succeeds.
    """
    start = time.perf_counter()
    times: dict[str, float] = {}
    scan_checksum = mesh_checksum = "-"
    with _stage("input", times):
        if isinstance(scan, (str, Path)):
            scan_checksum = _checksum(scan)
            scan = meshio.load_point_cloud(scan)
        if isinstance(mesh, (str, Path)):
            mesh_checksum = _checksum(mesh)
            mesh = meshio.load_mesh(mesh)
    with _stage("registration", times):
        fit, registered, removed = _register(scan, mesh, config)
    with _stage("global", times):
        surface_dist = MeshDistance(mesh).query(registered.points)
        e_reg = reg.registration_error(surface_dist)
        e_global = global_error(surface_dist)
    with _stage("part", times):
        enriched, refined, patch_dists, e_part = _part(registered, surface_dist, config)
        del registered  # with its neighbor table, out of the feature stage (see _part)
    with _stage("feature", times):
        edge_idx, labeling, n_reference, f_n, f_p, e_comp = _feature(
            enriched, refined, truth_circles, config)

    # Nothing to measure (no primitive, or no matched circle) reads 0.0, as
    # the benchmark gate wants finite errors; the primitive rows and f_n
    # against n_reference_circles say when that is so.
    e_part = e_part or (0.0, 0.0)
    e_comp = e_comp or (0.0, 0.0, 0.0, 0.0)
    report = AssessmentReport(
        e_reg=e_reg,
        e_global=e_global,
        e_part_avg=e_part[0],
        e_part_max=e_part[1],
        e_comp_radius_avg=e_comp[0],
        e_comp_radius_max=e_comp[1],
        e_comp_centroid_avg=e_comp[2],
        e_comp_centroid_max=e_comp[3],
        f_n=f_n,
        f_p=f_p,
        n_reference_circles=n_reference,
        time_registration=times["registration"],
        time_global=times["global"],
        time_part=times["part"],
        time_feature=times["feature"],
        time_total=time.perf_counter() - start,
        scan_points=len(scan),
        outliers_removed=removed,
        registration_iterations=fit.iterations,
        registration_converged=fit.converged,
        primitive_rows=[
            PrimitiveRow(index=i, kind=p.kind.value, inlier_count=len(p.inliers),
                         patch_distance=float(patch_dists[i]), params=_shape_params(p.shape))
            for i, p in enumerate(refined.primitives)
        ],
        circle_rows=[
            CircleRow(index=i, center=c.center, radius=c.radius, normal=c.normal,
                      inlier_count=int((labeling.labels == i).sum()))
            for i, c in enumerate(labeling.circles)
        ],
        config=config,
        scan_checksum=scan_checksum,
        mesh_checksum=mesh_checksum,
    )
    if out_dir is not None:
        _write_outputs(report, Path(out_dir), enriched, refined, edge_idx, labeling,
                       dump_segments, dump_edges, dump_circles, ascii_output)
    return report


# Only the coarse probe and ICP read the CAD samples, and both choose or fit
# on a bounded subset of the scan, so the count is fixed by the part, not
# grown with the scan.
_CAD_SAMPLES = 50_000


def _register(scan: PointCloud, mesh: TriangleMesh, config: PipelineConfig):
    """Drop the scan's repeated points and outliers and register the scan
    to ``_CAD_SAMPLES`` CAD samples; returns the fit, the registered scan,
    which carries the outlier filter's neighbor table, and the outlier count.
    Only the first copy of a repeated point is kept (not counted as an
    outlier): repeats would zero the point spacing."""
    first, _ = distinct_rows(scan.points)
    if len(first) < len(scan):
        scan = scan.select(first)
    filtered, removed = remove_outliers(scan, config.outlier_k, config.outlier_stddev_mult,
                                        config.normals_k)
    if len(filtered) < config.normals_k + 1:
        raise StageError("input", ValueError(
            f"{len(filtered)} scan points remain after outlier removal and dropping "
            f"repeated points; normals need at least normals_k + 1 = {config.normals_k + 1}"))
    fit, registered = reg.register(filtered, sample_mesh(mesh, _CAD_SAMPLES, seed=config.seed))
    return fit, registered, removed


def _part(registered: PointCloud, surface_dist: np.ndarray, config: PipelineConfig):
    """Segment the registered scan into primitives and measure each patch."""
    enriched = estimate_normals_and_curvature(registered, config.normals_k)
    refined = prim.refine(prim.region_grow(enriched, config))
    # Only region growing reads the neighbor table, which the outlier filter
    # made. Dropping it here and with ``registered`` in ``run_pipeline`` keeps
    # it out of the feature stage, beside tensor voting's pair list; the
    # spacing read off it stays. Region growing (the table and its join graph
    # live) and tensor voting (the pair list live) now reach the run's peak
    # memory within about 2 MB of each other on the benchmark workloads.
    enriched = replace(enriched, neighbors=None)
    # ``enriched`` holds the registered points in the same order, so the
    # global stage's distances index directly by inlier.
    patch_dists = prim.patch_distances(refined, surface_dist)
    return enriched, refined, patch_dists, prim.part_level_error(patch_dists)


def _feature(enriched: PointCloud, refined: prim.Configuration,
             truth_circles: list[feat.Circle3D] | None, config: PipelineConfig):
    """Find the scan's rim circles and score them against the reference
    circles.

    The circles come from the tensor-voting edge points, less those on a
    straight crease between two of the part level's fitted planes
    (``refined``); the returned edge indices are the ones MCFS labels. The
    rims the part level predicts, where a fitted cylinder meets a plane
    normal to its axis, come first, and MCFS fits the edge points they
    leave.
    """
    radius = config.tensor_radius_factor * enriched.spacing
    edge_idx = feat.detect_edge_points(enriched, radius, config)
    edge_idx = edge_idx[feat.off_crease_mask(
        enriched.points[edge_idx], refined, radius, np.deg2rad(config.region_angle_deg))]
    if len(edge_idx) < 3:
        labeling = feat.CircleLabeling(np.full(len(edge_idx), -1, dtype=np.int64), [])
    else:
        labeling = feat.mcfs(enriched.points[edge_idx], config, feat.part_level_rims(refined))
    reference = _derive_reference_circles(truth_circles)
    f_n, f_p, e_comp = feat.score_circles(labeling.circles, reference, config.circle_match_tol)
    return edge_idx, labeling, len(reference), f_n, f_p, e_comp


def _write_outputs(report: AssessmentReport, out_dir: Path, enriched: PointCloud,
                   refined: prim.Configuration, edge_idx: np.ndarray,
                   labeling: feat.CircleLabeling, dump_segments: bool, dump_edges: bool,
                   dump_circles: bool, ascii_output: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_report(report, out_dir / "report.txt", "structured")
    emit_report(report, out_dir / "report_human.txt", "human")
    if dump_segments:
        meshio.save_point_cloud(out_dir / "segments.ply", enriched, ascii_mode=ascii_output,
                                colors=_label_colors(refined.labels()))
    if dump_edges and len(edge_idx):
        meshio.save_point_cloud(out_dir / "edges.ply", enriched.select(edge_idx),
                                ascii_mode=ascii_output)
    if dump_circles:
        fitted = labeling.circles
        write_circles_table(out_dir / "circles.txt", fitted,
                            [row.inlier_count for row in report.circle_rows])
        if fitted:
            pts_all = []
            edges_all = []
            offset = 0
            for c in fitted:
                ring, ring_edges = c.ring()
                pts_all.append(ring)
                edges_all.append(ring_edges + offset)
                offset += len(ring)
            meshio.save_polylines(out_dir / "circles.ply", np.vstack(pts_all),
                                  np.vstack(edges_all), ascii_mode=ascii_output)


def _shape_params(shape) -> str:
    """Each field of the shape's dataclass: its name, then its values as ``.6g``."""
    return " ".join(
        f"{f.name} " + " ".join(f"{v:.6g}" for v in np.atleast_1d(getattr(shape, f.name)))
        for f in fields(shape))


def _derive_reference_circles(
        truth_circles: list[feat.Circle3D] | None) -> list[feat.Circle3D]:
    """The reference circles: the supplied table, or none without one.

    Kept as its own function so a trace can time and count the reference
    step, and as the place for circles extracted from the mesh itself.
    """
    return truth_circles or []


# ---------------------------------------------------------------------------
# Synthetic scene output (CLI support)
# ---------------------------------------------------------------------------

def write_scene(scene: SyntheticScene, out_dir: str | Path, ascii_output: bool = False) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meshio.save_point_cloud(out_dir / "scan.ply", scene.cloud, ascii_mode=ascii_output)
    meshio.save_mesh(out_dir / "mesh.ply", scene.mesh, ascii_mode=ascii_output)
    np.savetxt(out_dir / "labels.txt", scene.truth.labels, fmt="%d")
    write_circles_table(out_dir / "truth_circles.txt", scene.truth.circles)
    np.savetxt(out_dir / "truth_transform.txt", scene.truth.transform.as_matrix(), fmt="%.12g")


__all__ = [
    "AssessmentReport",
    "PipelineConfig",
    "StageError",
    "emit_report",
    "generate_synthetic_scene",
    "global_error",
    "parse_report",
    "parse_scene_spec",
    "read_circles_table",
    "report_fields",
    "run_pipeline",
    "write_circles_table",
    "write_scene",
]
