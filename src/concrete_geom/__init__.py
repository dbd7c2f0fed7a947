"""Concrete and inverse Schlomilch distributions on the probability simplex.

Densities, sampling, log-ratio moments, Fisher information, the hyperbolic
information geometry of the Concrete family, Fisher-Rao distances, and the
numerical oracles that verify each closed form.
"""

from .distributions import (
    ConcreteParams,
    FROM_UNIFORM,
    InverseSchlomilchParams,
    RngState,
    TO_UNIFORM,
    concrete_log_density,
    escort_transform,
    is_log_density,
    log_norm_const,
    round_to_vertex,
    rounding_probabilities,
    sample_concrete,
    sample_is_log,
    sample_standard_gumbel,
    sufficient_statistic,
    uniform_transform,
)
from .errors import (
    BoundaryPoint,
    ConcreteGeomError,
    DimMismatch,
    DomainError,
    IndexOutOfRange,
    NonFiniteIntegrand,
    NonPositiveEntry,
    NonPositiveTemperature,
    NotNormalized,
    UnsupportedDim,
)
from .geometry import (
    DistanceResult,
    FisherFull,
    FisherReduced,
    PoincarePoint,
    categorical_fr_distance,
    curvature_length,
    fisher_full,
    fisher_reduced,
    fr_distance,
    from_poincare,
    half_space_distance,
    to_poincare,
)
from .moments import (
    lr_cov,
    lr_mean,
    lr_var,
    raw_second_moment_special,
    special_params,
)
from .oracle import (
    CheckResult,
    mc_log_ratio_moments,
    mc_score_fisher,
    mc_special_moments,
    pullback_metric_check,
    quad_fisher,
    quad_normalization,
    run_suite,
)
from .simplex import (
    LogRatioPoint,
    PositiveWeights,
    QuadratureConfig,
    SimplexPoint,
    alr_forward,
    alr_inverse,
    closure,
    integrate_simplex,
    perturb,
    power,
)
from .special import EULER_GAMMA, PI_SQ_OVER_6, digamma, log_gamma, trigamma

__version__ = "0.1.0"
