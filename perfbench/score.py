"""Truth-based scoring of an assessment report, and the correctness gate.

The scoring reads only the report's rows and the scene's ``GroundTruth``; it
never trusts the report's own ``f_n``/``f_p``/``e_comp_*``, which depend on
the reference circles the pipeline derived for itself.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.optimize import linear_sum_assignment

CIRCLE_MATCH_TOL = 1.0
# With the right pose the registered scan's RMS distance to the CAD surface
# is of the order of the scan noise (1.0-3.1 times it on the three
# workloads); beyond this many times the noise the recovered pose is wrong.
POSE_GATE_NOISE = 5.0
_TIME_SLACK_S = 1e-3


def match_circles(found, truth, tol: float = CIRCLE_MATCH_TOL) -> list[tuple[int, int]]:
    """Largest one-to-one pairing, then least total centroid offset.

    A pair is admissible when both its centroid offset and its radius
    difference are within ``tol``; ``found`` and ``truth`` hold (center, radius).
    """
    if not found or not truth:
        return []
    fc = np.array([c for c, _ in found], dtype=float)
    tc = np.array([c for c, _ in truth], dtype=float)
    offset = np.linalg.norm(fc[:, None, :] - tc[None, :, :], axis=2)
    dr = np.abs(np.array([r for _, r in found])[:, None] - np.array([r for _, r in truth])[None, :])
    admissible = (offset <= tol) & (dr <= tol)
    # An inadmissible pair costs more than any full set of admissible ones,
    # so the assignment maximizes the match count first.
    penalty = 1.0 + tol * min(len(found), len(truth))
    rows, cols = linear_sum_assignment(np.where(admissible, offset, penalty))
    return [(int(i), int(j)) for i, j in zip(rows, cols) if admissible[i, j]]


def score(report, truth) -> dict:
    """Accuracy of ``report`` against ``truth``; null where not applicable."""
    kinds = Counter(row.kind for row in report.primitive_rows)
    truth_kinds = Counter(truth.kinds)
    n = len(report.primitive_rows)
    out = {
        "e_global": report.e_global,
        "n_primitives": n,
        "prim_count_err": abs(n - truth.primitive_count),
        "kind_err": sum(((kinds - truth_kinds) + (truth_kinds - kinds)).values()),
        "kind_match_frac": sum((kinds & truth_kinds).values()) / max(n, len(truth.kinds), 1),
        "n_circles": len(report.circle_rows),
        # Matched over max(found, expected): a missed and a spurious circle
        # both lower it. Truth that lists no circles cannot judge the found
        # ones (collage's tube rims are real circles it does not list): 1.0.
        "circle_match_frac": 1.0,
        "circle_fn": None,
        "circle_fp": None,
        "radius_err_max": None,
        "centroid_err_max": None,
    }
    if not truth.circles:
        return out
    found = [(row.center, row.radius) for row in report.circle_rows]
    expected = [(c.center, c.radius) for c in truth.circles]
    pairs = match_circles(found, expected)
    out["circle_fn"] = len(expected) - len(pairs)
    out["circle_fp"] = len(found) - len(pairs)
    out["circle_match_frac"] = len(pairs) / max(len(found), len(expected))
    if pairs:
        out["radius_err_max"] = max(abs(found[i][1] - expected[j][1]) for i, j in pairs)
        out["centroid_err_max"] = max(
            float(np.linalg.norm(found[i][0] - expected[j][0])) for i, j in pairs)
    return out


def gate(report, wall_s: float, accuracy: dict, e_global_max: float) -> list[str]:
    """Reasons to reject the report; empty when it passes.

    ``accuracy`` is ``score(report, truth)``; ``e_global_max`` is the
    highest global RMSE a correct pose gives on the scene.
    """
    reasons = []
    for name in ("e_reg", "e_global", "e_part_avg", "e_part_max", "e_comp_radius_avg",
                 "e_comp_radius_max", "e_comp_centroid_avg", "e_comp_centroid_max"):
        if not math.isfinite(getattr(report, name)):
            reasons.append(f"{name} is not finite")
    if not report.primitive_rows:
        reasons.append("no primitives")
    if report.e_global > e_global_max:
        reasons.append(f"e_global {report.e_global:.4g} > {e_global_max:.4g}: wrong pose")
    if accuracy["circle_fn"]:
        reasons.append(f"{accuracy['circle_fn']} truth circles missed")
    # A consistency guard on the report's timings, not an accuracy check.
    stages = (report.time_registration, report.time_global, report.time_part,
              report.time_feature)
    total = report.time_total
    if min(stages) < 0 or sum(stages) > total + _TIME_SLACK_S or total > wall_s + _TIME_SLACK_S:
        reasons.append("stage times do not sum to the total within the wall time")
    return reasons
