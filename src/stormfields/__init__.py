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
layer offers stays in that layer module's own ``__all__``, as do the fixed
approximations ``gaussfield.RANK_TOLERANCE`` and ``maxstable.INTENSITY_FLOOR``.
"""

from .covmodels import (
    AnisotropicModel,
    AnisotropyTransform,
    BernsteinModel,
    CorrelationModel,
    GneitingModel,
    MaMixtureModel,
    SmoothnessExpansion,
    delta_values,
    scaling_sequences,
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
from .extremal import bivariate_cdf_hr, exponent_measure, pickands, tail_dependence
from .gaussfield import SpaceTimeGrid, low_rank_factor
from .maxstable import (
    MarginalKind,
    StormModelParams,
    delta_from_storm,
    equivalent_storm_params,
    husler_reiss_block,
    rescaled_factor,
    storm_block,
)

__version__ = "0.1.0"

__all__ = [
    # covmodels
    "AnisotropicModel", "AnisotropyTransform", "BernsteinModel", "CorrelationModel",
    "GneitingModel", "MaMixtureModel", "SmoothnessExpansion",
    "delta_values", "scaling_sequences", "variogram_to_covariance",
    # errors
    "ConfigError", "DomainError", "FactorizationError", "NotPositiveDefiniteError",
    "StormFieldsError", "UnsupportedModelError",
    # extremal
    "bivariate_cdf_hr", "exponent_measure", "pickands", "tail_dependence",
    # gaussfield
    "SpaceTimeGrid", "low_rank_factor",
    # maxstable
    "MarginalKind", "StormModelParams", "delta_from_storm", "equivalent_storm_params",
    "husler_reiss_block", "rescaled_factor", "storm_block",
]
