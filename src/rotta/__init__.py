"""Rotation-augmented test-time inference for tensor-sequence predictors.

Rotate an input over uniformly sampled 3D rotations, predict, rotate each
prediction back, and aggregate the ensemble into a mean stress path with a
per-step uncertainty band; evaluate the result with relative-error, shape,
and uncertainty-correlation metrics, and map per-rotation error over the
sphere.
"""

from .voigt import (
    COMPONENT_NAMES,
    VOIGT_PAIRS,
    check_orientation_tensor,
    check_rotation,
    from_matrix,
    inverse_rotate_sym,
    rotate_sym,
    to_matrix,
    trace,
    von_mises,
    von_mises_path,
)
from .rotations import (
    FiberDirection,
    RotationStream,
    fiber_from_angles,
    identity_rotation,
    rotation_list,
    sample_orientation_tensor,
    sample_rotation,
    sample_rotations,
    sample_volume_fraction,
)
from .models import (
    EquivariantOracle,
    ExternalModel,
    ExternalModelConfig,
    ExternalModelError,
    ModelInput,
    NoisyOracle,
    OracleParams,
    predict,
)
from .tta import (
    AuditReport,
    EmptyInput,
    TTAConfig,
    TTAResult,
    aggregate_mean,
    augment,
    augment_chunks,
    numerics_audit,
    pointwise_sd,
    rotate_input,
    run_tta,
)
from .metrics import (
    AllStepsExcluded,
    DegenerateSequence,
    MetricsReport,
    ShapeRatio,
    ZeroTargetMax,
    component_error_correlation,
    evaluate_dataset,
    first_differences,
    mare,
    mere,
    mere_av,
    mere_histogram,
    pearson_r,
    percentile_of,
    sd_mere,
    shape_ratio,
    uncertainty_curves,
)
from .spheremap import (
    NonConvergence,
    ProjectedPoint,
    RasterMap,
    SpherePoint,
    cart_to_latlon,
    export_map,
    mollweide_project,
    project_rotations,
    rotation_to_sphere,
    solve_theta,
    voronoi_rasterize,
)
from .dataset import (
    InvariantViolation,
    ParseError,
    Sample,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    build_model,
    run_audit,
    run_experiment,
    run_repeats,
    run_sphere_map,
    run_sweep,
)

__version__ = "0.1.0"
