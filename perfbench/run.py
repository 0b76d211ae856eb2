"""partcheck benchmark: seeded scenes through ``run_pipeline``, timed and scored.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plate --seed 1 --seconds 20 --trace 0

The workload's scan, placed by ``--seed`` (see ``scenes.py``), is written as
PLY; then ``run_pipeline(scan_path, mesh_path, PipelineConfig())`` runs on
the default path (no truth circles), one call at a time in this process,
pinned to one CPU. Each report is checked by a correctness gate and scored
against the scene's ``GroundTruth``. Times are scaled to a fixed CPU speed
measured while they run (see ``pace.py``); raw wall times are kept in the
full record.

Assessments run back to back while the next one, judged by the median so
far, would end within ``--seconds``; at least one runs. ``--trace 0`` reports
the end-to-end metrics. ``--trace 1`` runs untraced/traced pairs instead and
reports the per-layer metrics of the traced calls, their times scaled like
``assess_s``; ``trace.overhead`` is the traced scaled time over the untraced
one, minus 1.

Standard output carries one line with the full record (every raw sample,
accuracy with nulls where not applicable, provenance), and last the result
line ``{"correct", "attempted", "failed", "metrics"}``. The full record is
also written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bootstrap

import numpy as np
import scipy

import partcheck
from partcheck import pipeline

import pace
import score
import spans
from scenes import GEOMETRY_SEED, WORKLOADS, synthesize

SETUP_REPEATS = 5
TIME_UNITS = ("s", "ms", "us")
RESULTS = bootstrap.HERE / "results"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import partcheck.pipeline; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Package import time in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(bootstrap.SRC)})
    return float(done.stdout.strip().splitlines()[-1])


def setup(workload, seed: int, directory, repeats: int):
    """Import, synthesize and write ``repeats`` times; the last scene is used.

    Each round's ``total_s`` is its wall time scaled to the reference speed.
    """
    rounds = []
    for _ in range(repeats):
        with pace.Probe() as probe:
            imported = import_seconds()
            scene, paths, synth_s, write_s = synthesize(workload, seed, directory)
        wall = imported + synth_s + write_s
        rounds.append({"import_s": imported, "synth_s": synth_s, "write_s": write_s,
                       "wall_s": wall, "kernel_s": probe.kernel_s, "total_s": probe.scale(wall)})
    return scene, paths, rounds


def assess(scene, paths, e_global_max: float) -> dict:
    """One ``run_pipeline`` call on file paths, scored and gated.

    ``assess_s`` is the call's wall time scaled to the reference speed.
    """
    error = report = None
    with pace.Probe() as probe:
        start = time.perf_counter()
        try:
            report = pipeline.run_pipeline(str(paths[0]), str(paths[1]),
                                           pipeline.PipelineConfig())
        except Exception as exc:  # a failed assessment is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    timing = {"wall_s": wall, "kernel_s": probe.kernel_s, "assess_s": probe.scale(wall)}
    if error is not None:
        return {**timing, "ok": False, "reasons": [error], "accuracy": None, "report": None}
    accuracy = score.score(report, scene.truth)
    reasons = score.gate(report, wall, accuracy, e_global_max)
    return {**timing, "ok": not reasons, "reasons": reasons,
            "accuracy": accuracy, "report": report}


def measure(seconds: float, step) -> list:
    """Call ``step`` until the next call would end after ``seconds``; at least once."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def tail(values: list[float]):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, else None."""
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1 - p / 100) >= 10:
            return {"p": p, "value": float(np.percentile(values, p))}
    return None


def sample_record(sample: dict) -> dict:
    report = sample["report"]
    stages = None if report is None else {
        key: getattr(report, key) for key in ("time_registration", "time_global",
                                              "time_part", "time_feature", "time_total")}
    return {"assess_s": sample["assess_s"], "wall_s": sample["wall_s"],
            "kernel_s": sample["kernel_s"], "ok": sample["ok"], "reasons": sample["reasons"],
            "stages": stages, "accuracy": sample["accuracy"]}


def first_accuracy(samples: list) -> dict | None:
    return next((s["accuracy"] for s in samples if s["accuracy"] is not None), None)


def timed(assess_once, seconds: float, setup_rounds: list) -> tuple[dict, dict]:
    samples = measure(seconds, assess_once)
    times = [s["assess_s"] for s in samples]
    accuracy = first_accuracy(samples)
    failed = sum(not s["ok"] for s in samples)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "assess_s": statistics.median(times),
        "setup_s": statistics.median(r["total_s"] for r in setup_rounds),
        "peak_rss_mb": peak_mb,
        "e_global": None if accuracy is None else accuracy["e_global"],
        "kind_match_frac": None if accuracy is None else accuracy["kind_match_frac"],
        "circle_match_frac": None if accuracy is None else accuracy["circle_match_frac"],
    }
    detail = {
        "samples": [sample_record(s) for s in samples],
        "assess": {"median_s": metrics["assess_s"], "tail": tail(times), "n": len(times),
                   "wall_median_s": statistics.median(s["wall_s"] for s in samples)},
        "fail_frac": failed / len(samples),
        "accuracy": accuracy,
        "accuracy_repeatable": all(s["accuracy"] == accuracy for s in samples if s["ok"]),
    }
    return {"attempted": len(samples), "failed": failed, "metrics": metrics}, detail


def traced(assess_once, seconds: float) -> tuple[dict, dict]:
    unit_of = units()

    def pair():
        plain = assess_once()
        tracer = spans.Tracer()
        with tracer.installed():
            sample = assess_once()
        layers = None
        if sample["report"] is not None:
            factor = sample["assess_s"] / sample["wall_s"]
            layers = {key: value * factor if unit_of[key] in TIME_UNITS else value
                      for key, value in spans.layer_metrics(tracer, sample["report"]).items()}
        return plain, sample, layers, list(tracer.missing)

    pairs = measure(seconds, pair)
    samples = [s for p in pairs for s in p[:2]]
    runs = [p[2] for p in pairs if p[2] is not None]
    failed = sum(not s["ok"] for s in samples)
    metrics = {key: statistics.median(run[key] for run in runs) for key in runs[0]} if runs else {}
    if runs:
        metrics["trace.overhead"] = (statistics.median(p[1]["assess_s"] for p in pairs)
                                     / statistics.median(p[0]["assess_s"] for p in pairs) - 1.0)
    detail = {
        "samples": [sample_record(s) for s in samples],
        "traced": [i % 2 == 1 for i in range(len(samples))],
        "layer_runs": runs,
        "trace.missing_hooks": pairs[-1][3],
        "accuracy": first_accuracy(samples),
    }
    return {"attempted": len(samples), "failed": failed, "metrics": metrics}, detail


def provenance(args, workload) -> dict:
    return {
        "workload": workload.name, "spec": workload.spec, "why": workload.why,
        "seed": args.seed, "geometry_seed": GEOMETRY_SEED, "seconds": args.seconds,
        "trace": args.trace, "nproc": bootstrap.NPROC, "cpu": bootstrap.CPU,
        "pace": {"reference_s": pace.REFERENCE_S, "interval_s": pace.INTERVAL_S},
        "blas_threads": {var: os.environ[var] for var in bootstrap.THREAD_VARS},
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "partcheck": partcheck.__version__,
    }


def units() -> dict:
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    unit_of = units()

    with tempfile.TemporaryDirectory(prefix=".scene-", dir=bootstrap.HERE) as tmp:
        scene, paths, rounds = setup(workload, args.seed, Path(tmp),
                                     1 if args.trace else SETUP_REPEATS)
        e_global_max = score.POSE_GATE_NOISE * workload.noise

        def assess_once():
            return assess(scene, paths, e_global_max)

        if args.trace:
            result, detail = traced(assess_once, args.seconds)
        else:
            result, detail = timed(assess_once, args.seconds, rounds)

    record = {**provenance(args, workload), "setup": rounds, **detail, **result}
    RESULTS.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    # A NaN is not JSON; an unmeasurable value reads null and fails the run.
    metrics = {key: {"value": value if value is not None and math.isfinite(value) else None,
                     "unit": unit_of[key]}
               for key, value in result["metrics"].items()}
    correct = result["failed"] == 0 and all(v["value"] is not None for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
