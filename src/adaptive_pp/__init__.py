"""Adaptive pole placement for discrete-time SISO plants, with audit tooling.

The package simulates an indirect adaptive controller: a projection-type
estimator identifies an incremental model of the plant, a polynomial design
equation places the closed-loop poles at every step, and the resulting
trajectories are checked against the estimator's energy inequalities, the
exact one-step state recursion, the pole-placement identity, and linear-like
gain bounds.  See the README for the command-line entry points.
"""

from .controller import (
    DesignBatch,
    SingularSylvesterError,
    TargetPolynomial,
    closed_loop_layout,
    closed_loop_matrix,
    design_residual,
    design_rhs,
    solve_diophantine_batch,
    solve_gains,
    spectral_radius,
    state_recursion_audit,
)
from .estimator import (
    AUDIT_TOL,
    EstimatorAudit,
    estimator_audit,
    project_box,
    projection_step,
)
from .exact import charpoly_fractions, exact_pole_check, solve_fraction_system
from .plant import (
    BoxSet,
    PlantParameters,
    aux_transform,
    image_box,
)
from .polynomial import (
    singularity_threshold,
    sylvester_coeffs,
    sylvester_gather,
    sylvester_margin,
    sylvester_matrix,
    sylvester_rcond,
)
from .simulation import (
    BoundReport,
    ConstantsEstimate,
    SignalSpec,
    SimConfig,
    Trajectory,
    TrajectoryFormatError,
    crude_bound_audit,
    estimate_constants,
    gain_bound_fit,
    monte_carlo_sweep,
    pole_placement_audit,
    run_audits,
    run_closed_loop,
    tracking_audit,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "sylvester_coeffs",
    "sylvester_gather",
    "sylvester_matrix",
    "sylvester_rcond",
    "singularity_threshold",
    "sylvester_margin",
    "BoxSet",
    "PlantParameters",
    "aux_transform",
    "image_box",
    "AUDIT_TOL",
    "EstimatorAudit",
    "estimator_audit",
    "project_box",
    "projection_step",
    "spectral_radius",
    "TargetPolynomial",
    "DesignBatch",
    "design_rhs",
    "SingularSylvesterError",
    "solve_gains",
    "design_residual",
    "solve_diophantine_batch",
    "closed_loop_layout",
    "closed_loop_matrix",
    "state_recursion_audit",
    "charpoly_fractions",
    "exact_pole_check",
    "solve_fraction_system",
    "SignalSpec",
    "SimConfig",
    "Trajectory",
    "TrajectoryFormatError",
    "run_closed_loop",
    "ConstantsEstimate",
    "estimate_constants",
    "crude_bound_audit",
    "pole_placement_audit",
    "BoundReport",
    "gain_bound_fit",
    "tracking_audit",
    "monte_carlo_sweep",
    "run_audits",
]
