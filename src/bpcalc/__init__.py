"""Bochner-Phillips functional calculus for commuting semigroup generators.

Numerical library and CLI for negative Bernstein functions of several
variables, operator tuples and their n-parameter semigroups, the operator
calculus psi(A) with subordination g_t(A), joint spectra with spectral
mapping checks, and the holomorphy / moment-inequality / boundedness
verification experiments.
"""

from .bernstein import (
    Atom, BernsteinFunction, LevyMeasure, QuadratureError, RadialDensity,
    SubordinatorFamily, catalog_ids, check_absolute_monotonicity,
    cone_combine, diagonal_lift, direct_sum, eval_psi, eval_via_levy,
    fractional_power, linear, log1m, poisson,
)
from .analysis import (
    HolomorphyReport, MomentReport, boundedness_experiment,
    convergence_experiment, holomorphy_criterion, k_constant, moment_check,
    moment_checks, step_bound_check,
)
from .calculus import (
    CatalogGapError, apply_psi, apply_psi_spectral, factorization_check,
    factorization_checks, generator_limit_check, laplace_identity_error,
    subordinated, v_operator, w_operator, w_operator_bound,
)
from .semigroup import (
    DiagonalRayModel, OperatorTuple, SpectralData, TupleStack, adjoint,
    estimate_bound,
    fourier_translation_model, holomorphy_defect_ray, make_commuting_random,
    make_commuting_random_stack, make_jordan_polynomial, make_tuple,
    semigroup_apply,
)
from .spectra import (
    JointSpectrumResult, MappingReport, MappingRow, SpectrumPoint,
    joint_approximate_spectrum, joint_point_spectrum,
    joint_residual_spectrum, joint_spectrum, mapping_check, stacked_residual,
)

__all__ = [
    "Atom", "BernsteinFunction", "CatalogGapError", "DiagonalRayModel",
    "HolomorphyReport", "JointSpectrumResult", "LevyMeasure", "MappingReport",
    "MappingRow", "MomentReport", "OperatorTuple",
    "QuadratureError", "RadialDensity", "SpectralData", "SpectrumPoint",
    "SubordinatorFamily", "TupleStack", "adjoint", "apply_psi",
    "apply_psi_spectral",
    "boundedness_experiment", "catalog_ids", "check_absolute_monotonicity",
    "cone_combine", "convergence_experiment", "diagonal_lift", "direct_sum",
    "estimate_bound", "eval_psi", "eval_via_levy", "factorization_check",
    "factorization_checks",
    "fourier_translation_model", "fractional_power", "generator_limit_check",
    "holomorphy_criterion", "holomorphy_defect_ray",
    "joint_approximate_spectrum", "joint_point_spectrum",
    "joint_residual_spectrum", "joint_spectrum", "k_constant",
    "laplace_identity_error", "linear", "log1m", "make_commuting_random",
    "make_commuting_random_stack", "make_jordan_polynomial", "make_tuple",
    "mapping_check", "moment_check", "moment_checks", "poisson", "semigroup_apply", "stacked_residual", "step_bound_check",
    "subordinated", "v_operator", "w_operator",
    "w_operator_bound",
]

__version__ = "0.1.0"
