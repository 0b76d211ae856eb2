"""Every function the benchmark's tracer wraps still exists under its name,
and the spans it reads its feature-level counts from open where it expects."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from partcheck import features, pipeline
from partcheck.config import PipelineConfig
from test_pipeline import SPEC

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    # spans.py imports only the standard library, so it loads on its own;
    # its dataclasses need the module registered while it executes.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_exists(spans):
    tracer = spans.Tracer()
    with tracer.installed():
        assert tracer.missing == []


def test_hypothesis_spans_open_under_mcfs(spans):
    # The benchmark's hypotheses-drawn and modes-kept counts are read from
    # these two spans, so both functions must stay calls that mcfs makes.
    t = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    ring = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
    pts = np.vstack([ring, np.array([5.0, 0.0, 0.0]) + 1.5 * ring])
    params = PipelineConfig(seed=3)
    tracer = spans.Tracer()
    with tracer.installed():
        labeling = features.mcfs(pts, params)
    assert len(labeling.circles) == 2

    names = [s.name for s in tracer.spans]
    for name in ("features.generate_hypotheses", "features.reduce_hypotheses"):
        inside = [s for s in tracer.spans if s.name == name]
        assert inside, names
        assert all(tracer.spans[s.parent].name == "features.mcfs" for s in inside)
    first = next(s for s in tracer.spans if s.name == "features.generate_hypotheses")
    expected = min(params.hypotheses_per_point * len(pts), params.max_hypotheses)
    assert first.counts["drawn"] == expected == 4000


def test_traced_run_reads_every_hook(spans):
    # The benchmark's count lambdas read hooked functions' arguments by
    # position or name (``refine``'s first as ``config``), so a whole traced
    # run must complete, open every stage's spans and yield every metric.
    scene = pipeline.generate_synthetic_scene(pipeline.parse_scene_spec(SPEC), seed=1)
    tracer = spans.Tracer()
    with tracer.installed():
        # Looked up in the module, where the tracer wraps it.
        report = pipeline.run_pipeline(scene.cloud, scene.mesh, PipelineConfig())
    metrics = spans.layer_metrics(tracer, report)
    assert metrics["trace.missing_hooks"] == 0
    opened = {s.name for s in tracer.spans}
    for name in ("registration.coarse", "registration.icp", "geometry.remove_outliers",
                 "primitives.region_grow", "primitives.refine", "features.detect_edges"):
        assert name in opened, name
    assert metrics["geometry.points_in"] - metrics["geometry.points_out"] == report.outliers_removed
    assert metrics["primitives.regions"] == len(report.primitive_rows)
