"""Outside-in tracing of ``partcheck``: spans recorded by wrappers.

The tracer replaces public functions of the package's modules with timing
wrappers for the length of one ``with tracer.installed():`` block and puts
every original back when the block ends. The program is not edited, so a
traced run executes the same ``run_pipeline`` as a timed one.

Each span holds its name, start, end, parent and the counts read from its
result. A span's self time is its duration minus its children's durations
(calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

ROOT_SPAN = "pipeline.run"
REFERENCE_SPAN = "pipeline.reference"
LAYERS = ("meshio", "geometry", "registration", "primitives", "features", "pipeline")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


@dataclass(frozen=True)
class Hook:
    """Wrap ``module:attr.path`` as span ``span``; ``also`` lists modules
    that imported the same function by name. ``count`` maps
    (result, args, kwargs) to counts stored on the span."""

    span: str
    target: str
    also: tuple = ()
    count: Callable | None = None


_IMPORTED_BY_PIPELINE = ("partcheck.pipeline",)

HOOKS = (
    Hook("meshio.load", "partcheck.meshio:load_point_cloud"),
    Hook("meshio.load", "partcheck.meshio:load_mesh"),
    Hook("geometry.remove_outliers", "partcheck.geometry:remove_outliers",
         _IMPORTED_BY_PIPELINE,
         lambda r, a, k: {"points_in": len(_first(a, k, "cloud")), "points_out": len(r[0])}),
    Hook("geometry.sample_mesh", "partcheck.geometry:sample_mesh", _IMPORTED_BY_PIPELINE,
         lambda r, a, k: {"samples": len(r)}),
    Hook("geometry.normals", "partcheck.geometry:estimate_normals_and_curvature",
         _IMPORTED_BY_PIPELINE),
    Hook("geometry.median_spacing", "partcheck.geometry:median_spacing", _IMPORTED_BY_PIPELINE),
    Hook("geometry.mesh_distance_build", "partcheck.geometry:MeshDistance.__init__"),
    Hook("geometry.mesh_distance_query", "partcheck.geometry:MeshDistance.query",
         count=lambda r, a, k: {"points": len(r)}),
    Hook("registration.coarse", "partcheck.registration:coarse_candidates",
         count=lambda r, a, k: {"candidates": len(r)}),
    Hook("registration.icp", "partcheck.registration:icp_refine",
         count=lambda r, a, k: {"iterations": r.iterations}),
    Hook("registration.error", "partcheck.registration:registration_error"),
    Hook("primitives.region_grow", "partcheck.primitives:region_grow",
         count=lambda r, a, k: {"regions": len(r.primitives)}),
    Hook("primitives.refine", "partcheck.primitives:refine",
         count=lambda r, a, k: {
             "delta": len(r.primitives) - len(_first(a, k, "config").primitives)}),
    Hook("primitives.patch_distances", "partcheck.primitives:patch_distances"),
    Hook("features.detect_edges", "partcheck.features:detect_edge_points",
         count=lambda r, a, k: {"edge_points": len(r)}),
    Hook("features.tensor_vote", "partcheck.features:tensor_vote"),
    Hook("features.mcfs", "partcheck.features:mcfs",
         count=lambda r, a, k: {"circles": len(r.circles)}),
    Hook("features.generate_hypotheses", "partcheck.features:generate_hypotheses",
         count=lambda r, a, k: {"drawn": len(r)}),
    Hook("features.reduce_hypotheses", "partcheck.features:reduce_hypotheses",
         count=lambda r, a, k: {"kept": len(r)}),
    Hook("features.residual_matrix", "partcheck.features:residual_matrix"),
    Hook("features.cluster_labels", "partcheck.features:cluster_labels"),
    Hook("features.refine_coverage", "partcheck.features:refine_coverage"),
    Hook("features.match_circles", "partcheck.features:match_circles"),
    Hook("pipeline.global_error", "partcheck.pipeline:global_error"),
    Hook(REFERENCE_SPAN, "partcheck.pipeline:_derive_reference_circles",
         count=lambda r, a, k: {"circles": len(r)}),
    Hook(ROOT_SPAN, "partcheck.pipeline:run_pipeline"),
)

SPAN_NAMES = tuple(dict.fromkeys(h.span for h in HOOKS if h.span != ROOT_SPAN))


class Tracer:
    """Spans of one or more traced calls, in start order."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open: list[int] = []

    def _wrap(self, hook: Hook, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(hook.span, time.perf_counter(), self._open[-1] if self._open else -1)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if hook.count is not None:
                    span.counts = hook.count(result, args, kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                self._open.pop()
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every hook target, and restore all originals on exit.

        A target that no longer exists is listed in ``missing`` and skipped.
        """
        patched = []
        self.missing = []
        try:
            for hook in self.hooks:
                module_name, path = hook.target.split(":")
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                try:
                    for name in parents:
                        owner = getattr(owner, name)
                    original = owner.__dict__[attr]
                except (AttributeError, KeyError):
                    self.missing.append(hook.target)
                    continue
                wrapper = self._wrap(hook, original)
                owners = [owner] + [importlib.import_module(m) for m in hook.also]
                for target in owners:
                    if getattr(target, attr, None) is original:
                        patched.append((target, attr, original))
                        setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(patched):
                setattr(target, attr, original)

    def self_times(self) -> list[float]:
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def reference_side(self) -> list[bool]:
        """Whether each span runs inside reference-circle derivation."""
        inside = []
        for s in self.spans:
            parent = self.spans[s.parent] if s.parent >= 0 else None
            inside.append(parent is not None and (
                parent.name == REFERENCE_SPAN or inside[s.parent]))
        return inside


def layer_metrics(tracer: Tracer, report) -> dict:
    """Per-layer figures of one traced ``run_pipeline`` call.

    Named span metrics and counts cover the scan side only; spans inside
    reference derivation are counted in ``pipeline.reference_s``. Layer self
    times cover every span, so with ``pipeline.run_self_s`` they sum to
    ``pipeline.run_s``. A span that never ran, because its function was not
    called or no longer exists (see ``Tracer.missing``), reads 0.
    """
    selfs = tracer.self_times()
    ref_side = tracer.reference_side()
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    own = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    counts = Counter()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    root = None
    for span, self_s, is_ref in zip(tracer.spans, selfs, ref_side):
        if span.name == ROOT_SPAN:
            root = (span.end - span.start, self_s)
            continue
        layer_self[span.name.split(".")[0]] += self_s
        if is_ref:
            continue
        total[span.name] += span.end - span.start
        own[span.name] += self_s
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value
    if root is None:
        raise ValueError("no pipeline.run span was recorded")

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = total[name]
        out[f"{name}_self_s"] = own[name]
    points_out = counts["geometry.remove_outliers.points_out"]
    queried = counts["geometry.mesh_distance_query.points"]
    drawn = counts["features.generate_hypotheses.drawn"]
    iterations = counts["registration.icp.iterations"]
    out.update({
        "geometry.points_in": counts["geometry.remove_outliers.points_in"],
        "geometry.points_out": points_out,
        "geometry.cad_samples": counts["geometry.sample_mesh.samples"],
        "geometry.mesh_distance_points": queried,
        "geometry.mesh_distance_us_per_point": ratio(
            1e6 * total["geometry.mesh_distance_query"], queried),
        "geometry.distance_queries_per_point": ratio(queried, points_out),
        "registration.coarse_candidates": counts["registration.coarse.candidates"],
        "registration.icp_calls": calls["registration.icp"],
        "registration.icp_iterations": iterations,
        "registration.icp_ms_per_iter": ratio(1e3 * total["registration.icp"], iterations),
        "primitives.regions": counts["primitives.region_grow.regions"],
        "primitives.refine_delta": counts["primitives.refine.delta"],
        "features.edge_points": counts["features.detect_edges.edge_points"],
        "features.mcfs_rounds": calls["features.generate_hypotheses"],
        "features.hypotheses_drawn": drawn,
        "features.modes_kept": counts["features.reduce_hypotheses.kept"],
        "features.kept_ratio": ratio(counts["features.reduce_hypotheses.kept"], drawn),
        "features.circles": counts["features.mcfs.circles"],
        "pipeline.reference_circles": counts[f"{REFERENCE_SPAN}.circles"],
        "pipeline.stage.registration_s": report.time_registration,
        "pipeline.stage.global_s": report.time_global,
        "pipeline.stage.part_s": report.time_part,
        "pipeline.stage.feature_s": report.time_feature,
        "pipeline.run_s": root[0],
        "pipeline.run_self_s": root[1],
        "trace.coverage": ratio(root[0] - root[1], root[0]),
        "trace.missing_hooks": len(tracer.missing),
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
