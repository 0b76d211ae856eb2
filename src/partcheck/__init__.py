"""partcheck: hierarchical manufacturing-error assessment of scanned parts.

Registers a scanned point cloud against a reference CAD mesh and reports
deviations at three levels: global RMSE, per-primitive patch error, and
per-circular-hole feature error.
"""

from .features import (
    Circle3D,
    CircleLabeling,
    detect_edge_points,
    fit_circle_iterative,
    generate_hypotheses,
    mcfs,
    reduce_hypotheses,
    refine_coverage,
    residual_matrix,
    score_circles,
    tensor_vote,
)
from .geometry import (
    PointCloud,
    RigidTransform,
    TriangleMesh,
    estimate_normals_and_curvature,
    remove_outliers,
    sample_mesh,
)
from .meshio import load_mesh, load_point_cloud, save_mesh, save_point_cloud
from .pipeline import (
    AssessmentReport,
    PipelineConfig,
    StageError,
    emit_report,
    global_error,
    parse_report,
    run_pipeline,
)
from .primitives import (
    Configuration,
    Cone,
    Cylinder,
    Plane,
    Primitive,
    PrimitiveKind,
    Sphere,
    energy,
    merge,
    part_level_error,
    refine,
    region_grow,
    split,
)
from .registration import (
    RegistrationResult,
    icp_refine,
    registration_error,
)
from .synth import SyntheticScene, generate_synthetic_scene

__version__ = "0.1.0"
