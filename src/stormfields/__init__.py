"""Max-stable random fields in space and time: simulation and dependence analytics.

The package has three layers:

* correlation models for the underlying Gaussian fields and their small-lag
  expansions (``covmodels``), backed by exact dense Gaussian sampling
  (``gaussfield``);
* the two max-stable constructions, rescaled Gaussian maxima and the
  storm-profile simulator (``maxstable``);
* closed-form dependence quantities and empirical estimators that validate
  simulation against theory (``extremal``), wired together by a
  config-driven command line (``cli``).
"""

from .covmodels import (
    AnisotropicModel,
    AnisotropyTransform,
    BernsteinModel,
    GneitingModel,
    MaMixtureModel,
    PoweredExponential,
    SeparableModel,
    SmoothnessExpansion,
    SpaceTimeLag,
    apply_anisotropy,
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
    UndefinedEstimateError,
    UnsupportedModelError,
)
from .extremal import (
    bivariate_cdf_hr,
    bivariate_cdf_smith,
    delta_from_storm,
    empirical_tail_dependence,
    exponent_measure,
    pickands,
    smith_cdf_spatial,
    smith_cdf_temporal,
    tail_dependence,
)
from .gaussfield import (
    CholeskyFactor,
    FieldSample,
    JitterPolicy,
    SpaceTimeGrid,
    build_covariance_matrix,
    cholesky,
    sample_field,
    sample_replications,
)
from .maxstable import (
    DEFAULT_INTENSITY_FLOOR,
    MarginalKind,
    StormEvent,
    StormModelParams,
    equivalent_storm_params,
    husler_reiss_block,
    husler_reiss_field,
    normalize_maxima,
    rescaled_factor,
    simulate_storm_field,
    storm_field_from_events,
    transform_marginal,
)
from .numerics import (
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from .streams import substream

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
