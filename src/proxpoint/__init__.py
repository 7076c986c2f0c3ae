"""Accelerated proximal point and operator splitting methods for
finite-dimensional monotone inclusion problems, with worst-case rate
certificates and reproducible benchmark experiments.

The submodules load numpy, so the names below resolve on first use
(PEP 562). ``import proxpoint`` alone loads no numpy, which lets
``proxpoint.cli`` choose the BLAS thread count before numpy starts.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "operators": (
        "DenseLinearOperator",
        "InnerSolverError",
        "QuadraticSaddle",
        "SingularSystemError",
        "linear_resolvent",
        "preconditioned_resolvent_map",
        "saddle_resolvent_map",
        "yosida",
    ),
    "methods": (
        "ResidualTrace",
        "accelerated_ppm",
        "forward_method",
        "general_ppm",
        "guler",
        "iterate",
        "optimal_restart_interval",
        "ppm",
        "restarted",
    ),
    "pep_cert": (
        "CertificateReport",
        "ConstraintMatrices",
        "build_constraint_matrices",
        "build_h",
        "certificate_slack",
        "equivalence_check",
        "verify_certificate",
    ),
    "splitting": (
        "AffineConstraint",
        "ProxDescriptor",
        "accelerated_prox_multipliers",
        "accelerated_saddle_ppm",
        "admm",
        "drs",
        "fista_strongly_convex",
        "operator_norm",
        "pdhg",
        "soft_threshold",
    ),
    "problems": (
        "SplitMix64",
        "basis_pursuit_instance",
        "basis_pursuit_solution",
        "bilinear_game_instance",
        "difference_matrix",
        "rotation_worst_case",
        "strongly_monotone_toy",
        "toy_saddle",
        "tv_instance",
        "tv_solution",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
