"""Fastest-decaying Fokker-Planck coefficient pairs for a prescribed Gaussian.

Given an equilibrium covariance, the package constructs the non-symmetric
drift/diffusion pair whose propagator norm decays at the best possible rate
(the largest eigenvalue of the inverse covariance) with a certified
multiplicative constant arbitrarily close to 1, and analyses arbitrary
admissible pairs and piecewise-constant-in-time schedules through exact
matrix-exponential propagator norms.
"""

from .errors import (
    EigenFailure,
    FpoptError,
    InvalidArgument,
    InvalidConstant,
    InvalidInterval,
    InvalidMatrix,
    MixedEquilibria,
    NotApplicable2D,
    NotPSD,
    NotSymmetric,
    RateTooLarge,
    TraceBudgetExceeded,
)
from .kernel import (
    RANK_TOL,
    SYM_TOL,
    expm,
    expm_stack,
    general_eigenvalues,
    kalman_rank,
)
from .equilibrium import (
    ADMISSIBILITY_TOL,
    CoefficientPair,
    Covariance,
    ValidationReport,
    baseline_envelope,
    same_equilibrium,
    spectral_gap,
    validate_pair,
)
from .construction import (
    GrowthRow,
    OptimalCertificate,
    arithmetic_weights,
    construct_optimal,
    equidistribute_basis,
    frobenius_bound,
    growth_study,
    skew_coupling,
)
from .propagator import (
    NormCurve,
    Schedule,
    ScheduleRanking,
    best_constant_2d,
    compare_schedules,
    initial_decay_rate,
    max_initial_decay,
    norm_curve,
    sharp_constant,
    tangency_time,
)

__version__ = "0.1.0"

__all__ = [
    "ADMISSIBILITY_TOL",
    "CoefficientPair",
    "Covariance",
    "EigenFailure",
    "FpoptError",
    "GrowthRow",
    "InvalidArgument",
    "InvalidConstant",
    "InvalidInterval",
    "InvalidMatrix",
    "MixedEquilibria",
    "NormCurve",
    "NotApplicable2D",
    "NotPSD",
    "NotSymmetric",
    "OptimalCertificate",
    "RANK_TOL",
    "RateTooLarge",
    "SYM_TOL",
    "Schedule",
    "ScheduleRanking",
    "TraceBudgetExceeded",
    "ValidationReport",
    "arithmetic_weights",
    "baseline_envelope",
    "best_constant_2d",
    "compare_schedules",
    "construct_optimal",
    "equidistribute_basis",
    "expm",
    "expm_stack",
    "frobenius_bound",
    "general_eigenvalues",
    "growth_study",
    "initial_decay_rate",
    "kalman_rank",
    "max_initial_decay",
    "norm_curve",
    "same_equilibrium",
    "sharp_constant",
    "skew_coupling",
    "spectral_gap",
    "tangency_time",
    "validate_pair",
]
