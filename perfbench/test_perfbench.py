"""Self-tests of the benchmark: a tiny seeded scene through both run paths.

Run from the checkout root with ``python3 -m pytest perfbench -q``.
"""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import bootstrap

import numpy as np
import pytest

import pace
import run
import score
import spans
from scenes import WORKLOADS, Workload, make_scene

TINY = Workload("tiny", "collage count=2 spacing=0.2 noise=0.01 rot_deg=20 trans_frac=0.1",
                "self-test scene")
SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def assess_once(tmp_path_factory):
    scene, paths, _ = run.setup(TINY, 3, tmp_path_factory.mktemp("scene"), repeats=1)
    return lambda: run.assess(scene, paths, score.POSE_GATE_NOISE * TINY.noise)


@pytest.fixture(scope="module")
def timed_twice(assess_once):
    return [run.timed(assess_once, seconds=0, setup_rounds=[{"total_s": 1.0}]) for _ in range(2)]


@pytest.fixture(scope="module")
def traced(assess_once):
    return run.traced(assess_once, seconds=0)


def test_end_to_end_metrics_all_named_and_positive(timed_twice):
    result, _ = timed_twice[0]
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(math.isfinite(v) and v > 0 for v in result["metrics"].values())


def test_per_layer_metrics_all_named(traced):
    result, detail = traced
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert detail["trace.missing_hooks"] == []


def test_every_metric_has_a_unit():
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["unit"]


def test_self_times_within_totals(traced):
    metrics = traced[0]["metrics"]
    for name in spans.SPAN_NAMES:
        assert 0 <= metrics[f"{name}_self_s"] <= metrics[f"{name}_s"] + 1e-9
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_sum + metrics["pipeline.run_self_s"] == pytest.approx(metrics["pipeline.run_s"])


def test_trace_covers_the_run(traced):
    assert traced[0]["metrics"]["trace.coverage"] >= 0.95


def test_accuracy_identical_across_runs(timed_twice):
    (_, first), (_, second) = timed_twice
    assert first["accuracy"] == second["accuracy"]
    assert first["accuracy_repeatable"]


def test_hooks_restored_after_trace(traced):
    for hook in spans.HOOKS:
        module_name, path = hook.target.split(":")
        owner = importlib.import_module(module_name)
        for name in path.split("."):
            owner = getattr(owner, name)
        assert not hasattr(owner, "__wrapped__"), hook.target
    from partcheck import pipeline
    assert not hasattr(pipeline.remove_outliers, "__wrapped__")


def test_missing_hook_is_listed_not_fatal():
    from partcheck.geometry import median_spacing
    tracer = spans.Tracer(hooks=(
        spans.Hook("geometry.gone", "partcheck.geometry:no_such_function"),
        spans.Hook("geometry.gone", "partcheck.geometry:MeshDistance.no_such_method"),
        spans.Hook(spans.ROOT_SPAN, "partcheck.geometry:median_spacing"),
    ))
    with tracer.installed():
        from partcheck import geometry
        geometry.median_spacing(np.random.default_rng(0).random((50, 3)))
    assert tracer.missing == ["partcheck.geometry:no_such_function",
                              "partcheck.geometry:MeshDistance.no_such_method"]
    assert [s.name for s in tracer.spans] == [spans.ROOT_SPAN]
    from partcheck import geometry
    assert geometry.median_spacing is median_spacing


def test_probe_samples_at_least_once_and_scales_wall_time():
    with pace.Probe() as probe:
        pass
    assert probe.samples and probe.kernel_s > 0
    assert probe.scale(2.0) == pytest.approx(2 * probe.scale(1.0))
    assert probe.scale(1.0) == pytest.approx(pace.REFERENCE_S / probe.kernel_s)


def test_pinned_to_one_cpu_with_one_thread():
    assert os.sched_getaffinity(0) == {bootstrap.CPU}
    assert all(os.environ[var] == "1" for var in bootstrap.THREAD_VARS)


def test_same_seed_same_scan_other_seed_other_pose():
    a = make_scene(WORKLOADS["collage"], 5)
    b = make_scene(WORKLOADS["collage"], 5)
    c = make_scene(WORKLOADS["collage"], 6)
    assert np.array_equal(a.cloud.points, b.cloud.points)
    assert not np.allclose(a.cloud.points, c.cloud.points)
    assert np.array_equal(a.mesh.vertices, c.mesh.vertices)


def test_circle_matcher_is_one_to_one_and_gated():
    truth = [(np.zeros(3), 2.0), (np.array([10.0, 0, 0]), 3.0)]
    found = [(np.array([0.1, 0, 0]), 2.05), (np.array([0.2, 0, 0]), 2.0),
             (np.array([10.0, 0, 0]), 4.5)]
    assert score.match_circles(found, truth) == [(0, 0)]


def test_score_reports_null_circle_fields_without_truth_circles():
    report = SimpleNamespace(e_global=0.01, circle_rows=[],
                             primitive_rows=[SimpleNamespace(kind="plane")] * 2)
    truth = SimpleNamespace(kinds=["plane", "cone"], primitive_count=2, circles=[])
    out = score.score(report, truth)
    assert (out["kind_err"], out["prim_count_err"], out["kind_match_frac"]) == (2, 0, 0.5)
    assert out["circle_fn"] is None and out["radius_err_max"] is None
    assert out["circle_match_frac"] == 1.0


def test_score_counts_missed_and_spurious_circles():
    row = SimpleNamespace
    report = SimpleNamespace(
        e_global=0.01, primitive_rows=[row(kind="cylinder")],
        circle_rows=[row(center=np.zeros(3), radius=2.1), row(center=np.full(3, 50.0), radius=1.0)])
    truth = SimpleNamespace(
        kinds=["cylinder"], primitive_count=1,
        circles=[row(center=np.zeros(3), radius=2.0), row(center=np.full(3, 9.0), radius=2.0),
                 row(center=np.full(3, -9.0), radius=2.0)])
    out = score.score(report, truth)
    assert (out["circle_fn"], out["circle_fp"]) == (2, 1)
    assert out["circle_match_frac"] == pytest.approx(1 / 3)
    assert out["radius_err_max"] == pytest.approx(0.1)


GATE_FIELDS = dict(e_reg=0.0, e_global=0.01, e_part_avg=0.0, e_part_max=0.0,
                   e_comp_radius_avg=0.0, e_comp_radius_max=0.0, e_comp_centroid_avg=0.0,
                   e_comp_centroid_max=0.0, time_registration=1.0, time_global=1.0,
                   time_part=1.0, time_feature=1.0, time_total=4.5,
                   primitive_rows=[object()])


def test_gate_passes_a_sound_report():
    report = SimpleNamespace(**GATE_FIELDS)
    assert score.gate(report, 5.0, {"circle_fn": 0}, e_global_max=0.025) == []
    assert score.gate(report, 5.0, {"circle_fn": None}, e_global_max=0.025) == []


def test_gate_rejects_non_finite_errors_and_empty_reports():
    report = SimpleNamespace(**{**GATE_FIELDS, "e_global": float("nan"), "primitive_rows": []})
    reasons = score.gate(report, 5.0, {"circle_fn": None}, e_global_max=0.025)
    assert reasons == ["e_global is not finite", "no primitives"]


def test_gate_rejects_wrong_pose_and_missed_circles():
    report = SimpleNamespace(**{**GATE_FIELDS, "e_global": 0.03})
    assert score.gate(report, 5.0, {"circle_fn": 2}, e_global_max=0.025) == [
        "e_global 0.03 > 0.025: wrong pose", "2 truth circles missed"]


def test_gate_rejects_stage_times_that_do_not_sum():
    report = SimpleNamespace(**{**GATE_FIELDS, "time_total": 3.0})
    assert score.gate(report, 5.0, {"circle_fn": 0}, e_global_max=0.025) == [
        "stage times do not sum to the total within the wall time"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bootstrap.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".scene-*", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
