"""The pipeline's tunables: one frozen record, validated on construction,
read from a flat key/value file and written back in the report."""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


# Least valid value of each integer field. A 0 in min_points asks for the
# value derived from the scan. The normal estimator, whose neighborhoods
# region growing also joins over, needs a k of at least 3.
_INT_MINIMUMS = {
    "outlier_k": 1, "min_cluster": 1, "normals_k": 3, "min_points": 0, "seed": 0,
}


@dataclass(frozen=True)
class PipelineConfig:
    """The values that decide what the report says about a part, with their
    fixed defaults; every field is overridable.

    A field is a length or tolerance in model units, an angle, a threshold,
    an energy weight, a neighborhood size or the seed. How much work a solver
    spends (iterations, subsample sizes, hypothesis counts) is not a field:
    each such budget is a constant beside its one reader. Stages take this
    record, or the one field they read; no other module restates a default.
    The readers, stage by stage:

    - registration: ``pipeline._register`` (``outlier_k``,
      ``outlier_stddev_mult``, ``normals_k`` as the least scan size and as
      the width of the neighbor table that ``remove_outliers``' query makes,
      ``seed`` for CAD sampling).
    - part: ``pipeline._part`` (``normals_k``, the neighbors that normals
      are estimated from and region growing joins over),
      ``primitives.region_grow`` (``min_points``, ``region_angle_deg``,
      ``region_curv_thresh``, ``inlier_eps``); the ``Configuration`` it
      returns carries the record to ``energy`` (``omega_f``, ``omega_s``,
      ``omega_c``) and to ``split`` and ``merge`` (``inlier_eps``).
    - feature: ``pipeline._feature`` (``tensor_radius_factor``,
      ``region_angle_deg`` as the least crease angle, ``circle_match_tol``),
      ``features.detect_edge_points`` (``edge_threshold``, ``tensor_sigma``),
      ``features.mcfs`` (``inlier_eps``, ``bandwidth``, ``min_cluster``,
      ``seed``), ``fit_circle_iterative`` (``inlier_eps``, ``eta``),
      ``refine_coverage`` (``inlier_eps``, ``min_cluster``). Both ``mcfs``
      and ``refine_coverage`` pass ``min_cluster`` on to ``cluster_labels``,
      the greedy cover that clusters each MCFS round and prunes its circles.
    """

    omega_f: float = 0.6
    omega_s: float = 0.25
    omega_c: float = 0.15
    inlier_eps: float = 0.1
    eta: float = 0.03
    edge_threshold: float = 1.05
    tensor_sigma: float = 0.5
    tensor_radius_factor: float = 4.0
    min_points: int = 0                 # 0 = max(30, n / 500)
    outlier_k: int = 8
    outlier_stddev_mult: float = 2.0
    normals_k: int = 16
    region_angle_deg: float = 20.0
    region_curv_thresh: float = 0.04
    bandwidth: float = 0.05
    min_cluster: int = 10
    circle_match_tol: float = 1.0
    seed: int = 0

    def __post_init__(self):
        w = np.array([self.omega_f, self.omega_s, self.omega_c])
        if not np.isfinite(w).all() or (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("omega_f, omega_s and omega_c must be finite, non-negative and "
                             f"sum to 1, got {self.omega_f}, {self.omega_s}, {self.omega_c}")
        for name in ("inlier_eps", "eta", "edge_threshold", "tensor_sigma",
                     "tensor_radius_factor", "bandwidth", "circle_match_tol"):
            # Written so that NaN fails too.
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        # An infinite stddev multiple keeps every point; no other field has a
        # meaning at infinity.
        if not self.outlier_stddev_mult >= 0:
            raise ValueError(
                f"outlier_stddev_mult must be at least 0, got {self.outlier_stddev_mult}")
        for f in fields(self):
            if f.name != "outlier_stddev_mult" and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        # Region growing compares the cosine of unsigned normal angles, so an
        # angle outside (0, 90] restates one inside it (200 acts as 90, -5 as
        # 5). No curvature lies below a threshold of 0 or less: no region grows.
        if not 0 < self.region_angle_deg <= 90:
            raise ValueError(f"region_angle_deg must be in (0, 90], got {self.region_angle_deg}")
        if not self.region_curv_thresh > 0:
            raise ValueError(
                f"region_curv_thresh must be positive, got {self.region_curv_thresh}")
        for name, low in _INT_MINIMUMS.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")

    @staticmethod
    def from_file(path: str | Path) -> "PipelineConfig":
        """Flat key/value text; unknown and repeated keys are rejected,
        missing keys default."""
        valid = {f.name: f.type for f in fields(PipelineConfig)}
        overrides = {}
        lines = {}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in valid:
                raise ValueError(f"{path}: line {lineno}: unknown key '{key}'")
            if key in lines:
                raise ValueError(
                    f"{path}: line {lineno}: '{key}' is already set on line {lines[key]}")
            try:
                number = float(value)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: '{key}' must be a number, got '{value}'") from None
            if np.isnan(number):
                raise ValueError(f"{path}: line {lineno}: '{key}' must not be NaN")
            if valid[key] in ("int", int):
                if not number.is_integer():
                    raise ValueError(
                        f"{path}: line {lineno}: '{key}' must be an integer, got '{value}'")
                number = int(number)
            overrides[key] = number
            lines[key] = lineno
        try:
            return PipelineConfig(**overrides)
        except ValueError as exc:
            # Name the lines that set a field the range check names.
            named = [str(n) for key, n in lines.items() if re.search(rf"\b{key}\b", str(exc))]
            where = f"line {', '.join(named)}: " if named else ""
            raise ValueError(f"{path}: {where}{exc}") from None

    def to_items(self) -> OrderedDict:
        return OrderedDict((f.name, getattr(self, f.name)) for f in fields(self))
