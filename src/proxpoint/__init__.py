"""Accelerated proximal point and operator splitting methods for
finite-dimensional monotone inclusion problems, with worst-case rate
certificates and reproducible benchmark experiments."""

from .operators import (
    DenseLinearOperator,
    InnerSolverError,
    MonotonicityReport,
    Preconditioner,
    QuadraticSaddle,
    SingularSystemError,
    check_monotone,
    linear_resolvent,
    preconditioned_resolvent_map,
    saddle_resolvent_map,
    yosida,
)
from .methods import (
    Momentum,
    ResidualTrace,
    StepCoeffs,
    accelerated_ppm,
    forward_method,
    general_ppm,
    guler,
    optimal_restart_interval,
    ppm,
    restarted,
)
from .pep_cert import (
    CertificateReport,
    ConstraintMatrices,
    build_constraint_matrices,
    build_h,
    certificate_slack,
    equivalence_check,
    verify_certificate,
)
from .splitting import (
    AffineConstraint,
    InnerSolverConfig,
    ProxDescriptor,
    accelerated_prox_multipliers,
    accelerated_saddle_ppm,
    admm,
    difference_matrix,
    drs,
    fista_strongly_convex,
    operator_norm,
    pdhg,
    pdhg_preconditioner,
    soft_threshold,
)
from .problems import (
    ProblemInstance,
    SplitMix64,
    basis_pursuit_instance,
    basis_pursuit_solution,
    bilinear_game_instance,
    load_instance,
    rotation_worst_case,
    save_instance,
    strongly_monotone_toy,
    toy_saddle,
    tv_instance,
    tv_solution,
)

__version__ = "0.1.0"
