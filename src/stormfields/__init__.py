"""Max-stable random fields in space and time: simulation and dependence analytics.

The package has three layers:

* correlation models for the underlying Gaussian fields and their small-lag
  expansions (``covmodels``), sampled through a pivoted low-rank Cholesky
  factor of their correlation matrix (``gaussfield``);
* the two max-stable constructions, rescaled Gaussian maxima and the
  storm-profile simulator (``maxstable``);
* closed-form dependence quantities that validate simulation against theory
  (``extremal``), wired together by a config-driven command line (``cli``).

``__all__`` lists what the command line, its configuration loader, the
README's quick tour and the acceptance criteria use.  Everything else each
layer offers stays in that layer module's own ``__all__``.
"""

from .covmodels import (
    AnisotropicModel,
    AnisotropyTransform,
    BernsteinModel,
    CorrelationModel,
    GneitingModel,
    MaMixtureModel,
    PoweredExponential,
    SeparableModel,
    SmoothnessExpansion,
    SpaceTimeLag,
    delta,
    delta_values,
    scaling_sequences,
    scaling_sequences_from_log,
    variogram_to_covariance,
)
from .errors import (
    ConfigError,
    DomainError,
    FactorizationError,
    NotPositiveDefiniteError,
    StormFieldsError,
    UnsupportedModelError,
)
from .extremal import (
    bivariate_cdf_hr,
    bivariate_cdf_smith,
    delta_from_storm,
    exponent_measure,
    pickands,
    smith_cdf_spatial,
    smith_cdf_temporal,
    tail_dependence,
)
from .gaussfield import SpaceTimeGrid, build_covariance_matrix, low_rank_factor
from .maxstable import (
    DEFAULT_INTENSITY_FLOOR,
    MarginalKind,
    StormModelParams,
    equivalent_storm_params,
    husler_reiss_block,
    husler_reiss_field,
    rescaled_factor,
    simulate_storm_field,
    storm_block,
)

__version__ = "0.1.0"

__all__ = [
    # covmodels
    "AnisotropicModel", "AnisotropyTransform", "BernsteinModel", "CorrelationModel",
    "GneitingModel", "MaMixtureModel", "PoweredExponential", "SeparableModel",
    "SmoothnessExpansion", "SpaceTimeLag", "delta", "delta_values", "scaling_sequences",
    "scaling_sequences_from_log", "variogram_to_covariance",
    # errors
    "ConfigError", "DomainError", "FactorizationError", "NotPositiveDefiniteError",
    "StormFieldsError", "UnsupportedModelError",
    # extremal
    "bivariate_cdf_hr", "bivariate_cdf_smith", "delta_from_storm", "exponent_measure",
    "pickands", "smith_cdf_spatial", "smith_cdf_temporal", "tail_dependence",
    # gaussfield
    "SpaceTimeGrid", "build_covariance_matrix", "low_rank_factor",
    # maxstable
    "DEFAULT_INTENSITY_FLOOR", "MarginalKind", "StormModelParams", "equivalent_storm_params",
    "husler_reiss_block", "husler_reiss_field", "rescaled_factor", "simulate_storm_field",
    "storm_block",
]
