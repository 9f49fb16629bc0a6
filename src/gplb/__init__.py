"""Numerical laboratory for risk floors of Gaussian-process posterior means.

The package computes exact conjugate posteriors in the Gaussian white
noise sequence model, builds adversarial families of generalized additive
functions, and verifies (exactly and by Monte Carlo) the lower bounds
those families force on every Gaussian-process prior: a coordinatewise
risk floor, a polynomial no-contraction rate with explicit constants, a
one-sparse linear-minimax reduction, and a sharper floor for wavelet
series priors.  The ``gplb.harness`` subpackage adds configuration,
deterministic seeded studies, machine-readable reports, and the ``gplb``
command-line tool.
"""

from .adversarial import (
    CoefficientMatrix,
    LowerBoundConstants,
    MAX_FAMILY_SIZE,
    PyramidFamily,
    build_pyramid_family,
    compute_coefficients,
    evaluate_pyramid,
    grid_target,
    lower_bound_constants,
    mean_risk_floor,
    n_threshold,
    pyramid_norm_sq,
    risk_lower_bound,
    tk_matched_spectrum,
)
from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    QuadratureError,
    SchemaVersionError,
)
from .sequence_core import (
    GPPosterior,
    SequenceObservation,
    SparseRows,
    Spectrum,
    TruthCoefficients,
    contraction_mass,
    contraction_probability,
    exact_risk,
    exponential_spectrum,
    flat_spectrum,
    mc_risk,
    polynomial_spectrum,
    posterior_update,
    sample_observation,
)
from .sparse_linear import (
    DominationCheck,
    LinearEstimator,
    OneSparseModel,
    brute_force_minimax,
    diagonal_reduction,
    gp_mean_dominates_linear,
    linear_estimator_risk,
    linear_minimax_risk,
    reduce_to_sequence,
)
from .wavelet import (
    HaarTensorBasis,
    SawtoothSurrogate,
    WaveletPrior,
    haar_tensor_basis,
    single_function_risk_bound,
    wavelet_prior_preset,
    wavelet_prior_rate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError",
    "ContractError",
    "DomainError",
    "QuadratureError",
    "SchemaVersionError",
    "Spectrum",
    "TruthCoefficients",
    "SparseRows",
    "SequenceObservation",
    "GPPosterior",
    "sample_observation",
    "posterior_update",
    "exact_risk",
    "mc_risk",
    "contraction_mass",
    "contraction_probability",
    "polynomial_spectrum",
    "exponential_spectrum",
    "flat_spectrum",
    "PyramidFamily",
    "CoefficientMatrix",
    "LowerBoundConstants",
    "MAX_FAMILY_SIZE",
    "build_pyramid_family",
    "evaluate_pyramid",
    "pyramid_norm_sq",
    "compute_coefficients",
    "tk_matched_spectrum",
    "risk_lower_bound",
    "grid_target",
    "lower_bound_constants",
    "n_threshold",
    "mean_risk_floor",
    "OneSparseModel",
    "LinearEstimator",
    "DominationCheck",
    "reduce_to_sequence",
    "linear_estimator_risk",
    "diagonal_reduction",
    "linear_minimax_risk",
    "brute_force_minimax",
    "gp_mean_dominates_linear",
    "HaarTensorBasis",
    "haar_tensor_basis",
    "WaveletPrior",
    "wavelet_prior_preset",
    "single_function_risk_bound",
    "wavelet_prior_rate",
    "SawtoothSurrogate",
]
