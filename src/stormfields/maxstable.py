"""The two max-stable constructions in space and time.

Construction one ("rescaled Gaussian maxima"): sample n independent copies
of a stationary Gaussian field on a lag-shrunken grid, take their pointwise
maximum, push it through the chosen marginal transform and apply the
matching normalization.  The transforms are non-decreasing, so transforming
the maximum equals the maximum of the transformed copies (up to the last-ulp
caveat in ``husler_reiss_block``), at one Phi evaluation per site instead of
n.  As n grows these fields converge to a max-stable limit whose bivariate
distributions are available in closed form (module ``extremal``).

Construction two ("storm profiles"): superpose Poisson-distributed events,
each a scaled trivariate Gaussian bump in space-time, and record the
pointwise maximum.  Event intensities arrive in decreasing order, which
lets the simulation stop exactly once no future event can alter the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .covmodels import CorrelationModel, SmoothnessExpansion, scaling_sequences
from .errors import DomainError, NotPositiveDefiniteError, UnsupportedModelError
from .gaussfield import (
    CholeskyFactor,
    FieldSample,
    JitterPolicy,
    SpaceTimeGrid,
    build_covariance_matrix,
    cholesky,
    sample_replications,
)
from .numerics import std_normal_cdf
from .streams import FIELD_PURPOSE, STORM_PURPOSE, substream

__all__ = [
    "MarginalKind",
    "StormModelParams",
    "StormEvent",
    "DEFAULT_INTENSITY_FLOOR",
    "transform_marginal",
    "normalize_maxima",
    "rescaled_factor",
    "husler_reiss_block",
    "husler_reiss_field",
    "storm_field_from_events",
    "simulate_storm_field",
    "equivalent_storm_params",
]

# Clamp for Phi(z) before the marginal transforms: keeps logs finite while
# perturbing results far below Monte-Carlo test tolerances.
_P_FLOOR = 1e-300
_P_CEIL = 1.0 - 1e-16

# 1e-6 times the median of a standard Frechet variable (the marginal law of
# both constructions), i.e. 1e-6 / log(2).
DEFAULT_INTENSITY_FLOOR = 1e-6 / math.log(2.0)


class MarginalKind(str, Enum):
    """Marginal family of the max-stable limit."""

    FRECHET = "frechet"
    GUMBEL = "gumbel"
    WEIBULL = "weibull"


def transform_marginal(z, n: int, kind: MarginalKind):
    """Marginal transform of standard normal values, before normalization.

    The replication count ``n`` enters through the outer normalization
    applied after the pointwise maximum (see ``normalize_maxima``); the
    transformed value itself is

        Frechet:  -1 / log(Phi(z))
        Gumbel:   -log(-log(Phi(z)))
        Weibull:  log(Phi(z))

    with Phi clamped away from 0 and 1 at the floating-point limits.  All
    three are non-decreasing in z, so they may be applied to the pointwise
    maximum of the replications rather than to each replication.
    """
    if int(n) < 1:
        raise DomainError("n must be >= 1")
    kind = MarginalKind(kind)
    p = np.clip(std_normal_cdf(z), _P_FLOOR, _P_CEIL)
    if kind is MarginalKind.FRECHET:
        return -1.0 / np.log(p)
    if kind is MarginalKind.GUMBEL:
        return -np.log(-np.log(p))
    return np.log(p)


def normalize_maxima(max_values, n: int, kind: MarginalKind):
    """Outer normalization of the n-fold pointwise maximum."""
    if int(n) < 1:
        raise DomainError("n must be >= 1")
    kind = MarginalKind(kind)
    max_values = np.asarray(max_values, dtype=float)
    if kind is MarginalKind.FRECHET:
        return max_values / n
    if kind is MarginalKind.GUMBEL:
        return max_values - math.log(n)
    return n * max_values


def rescaled_factor(model: CorrelationModel, grid: SpaceTimeGrid, n: int,
                    policy: JitterPolicy = JitterPolicy()) -> CholeskyFactor:
    """Cholesky factor of the model correlation at lags shrunken by (s_n, t_n).

    Exposed separately so that many realizations can reuse one factorization.
    """
    if int(n) < 2:
        raise DomainError("n must be >= 2")
    scale = scaling_sequences(model.expansion(), int(n))
    return cholesky(build_covariance_matrix(model, grid, scale=scale), policy)


def husler_reiss_block(factor: CholeskyFactor, n: int, kind: MarginalKind, seed: int,
                       realizations) -> np.ndarray:
    """Values of several max-stable realizations, one row per realization.

    Row r holds the normalized, transformed pointwise maximum of the n
    replications drawn from the Philox substream keyed by
    ``(seed, realization r)``, so every row equals the single-realization
    result however the realizations are grouped into blocks.  The maximum
    is taken on the Gaussian values and the marginal transform runs once per
    site of the whole block.  This equals transforming each replication
    first as long as the computed Phi is monotone.  It is, except for 1-ulp
    wiggles between inputs a few ulps apart (seen for |z| up to about 2.4,
    none between inputs 8 ulps apart), so the two orders can differ only
    where the two largest replications at a site lie within a few ulps of
    each other.
    """
    if int(n) < 2:
        raise DomainError("n must be >= 2")
    realizations = [int(r) for r in realizations]
    maxima = np.empty((len(realizations), factor.size))
    for row, realization in enumerate(realizations):
        rng = substream(int(seed), FIELD_PURPOSE, realization)
        maxima[row] = sample_replications(factor, rng, int(n)).max(axis=0)
    return normalize_maxima(transform_marginal(maxima, int(n), kind), int(n), kind)


def husler_reiss_field(model: CorrelationModel, grid: SpaceTimeGrid, n: int,
                       kind: MarginalKind, seed: int, realization: int = 0,
                       factor: CholeskyFactor = None) -> FieldSample:
    """One max-stable field realization from n rescaled Gaussian replications.

    This is the one-row case of ``husler_reiss_block``.

    Parameters
    ----------
    model : CorrelationModel
        Correlation family with a valid small-lag expansion.
    grid : SpaceTimeGrid
    n : int
        Number of Gaussian replications entering the pointwise maximum.
    kind : MarginalKind
        Marginal family of the output field.
    seed, realization : int
        Reproducibility key; the same pair always yields the same field.
    factor : CholeskyFactor, optional
        Reuse a precomputed ``rescaled_factor(model, grid, n)``.
    """
    if int(n) < 2:
        raise DomainError("n must be >= 2")
    if factor is None:
        factor = rescaled_factor(model, grid, n)
    if factor.size != grid.size:
        raise DomainError("factor dimension does not match the grid size")
    values = husler_reiss_block(factor, n, kind, seed, [realization])[0]
    return FieldSample(grid=grid, values=values, seed_info=(int(seed), int(realization)))


@dataclass(frozen=True, eq=False)
class StormModelParams:
    """Parameters of the space-time storm-profile simulator.

    ``sigma_space`` is the 2x2 SPD covariance of the spatial storm shape and
    ``sigma_time_sq`` the variance of the temporal profile; together they
    form the block-diagonal covariance of the trivariate Gaussian bump.
    ``buffer`` extends the event domain beyond the grid's bounding box, in
    per-axis standard deviations (a bump contributes less than 3.4e-4 of
    its peak beyond four standard deviations).  ``intensity_floor`` truncates
    the event series: events with intensity below it are discarded, which
    can lower grid values by at most ``intensity_floor`` times the peak
    kernel density.
    """

    sigma_space: np.ndarray
    sigma_time_sq: float
    buffer: float = 4.0
    intensity_floor: float = DEFAULT_INTENSITY_FLOOR

    def __post_init__(self):
        sigma = np.asarray(self.sigma_space, dtype=float)
        if sigma.shape != (2, 2):
            raise DomainError("sigma_space must be a 2x2 matrix")
        if not np.all(np.isfinite(sigma)) or abs(sigma[0, 1] - sigma[1, 0]) > 1e-12 * max(
            1.0, float(np.abs(sigma).max())
        ):
            raise NotPositiveDefiniteError("sigma_space must be finite and symmetric")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("sigma_space is not positive definite") from exc
        sigma = sigma.copy()
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma_space", sigma)
        s3sq = float(self.sigma_time_sq)
        if not (math.isfinite(s3sq) and s3sq > 0.0):
            raise DomainError("sigma_time_sq must be > 0")
        object.__setattr__(self, "sigma_time_sq", s3sq)
        buffer = float(self.buffer)
        if not (math.isfinite(buffer) and buffer >= 0.0):
            raise DomainError("buffer must be >= 0")
        object.__setattr__(self, "buffer", buffer)
        floor = float(self.intensity_floor)
        if not (math.isfinite(floor) and floor > 0.0):
            raise DomainError("intensity_floor must be > 0")
        object.__setattr__(self, "intensity_floor", floor)

    @property
    def spatial_precision(self) -> np.ndarray:
        return np.linalg.inv(self.sigma_space)

    @property
    def peak_density(self) -> float:
        """Kernel value at an event's own center, the maximum of the bump."""
        det = float(np.linalg.det(self.sigma_space)) * self.sigma_time_sq
        return float((2.0 * math.pi) ** -1.5 / math.sqrt(det))


@dataclass(frozen=True)
class StormEvent:
    """One Poisson atom: intensity, spatial center, temporal peak."""

    intensity: float
    center: tuple
    peak_time: float

    def __post_init__(self):
        intensity = float(self.intensity)
        if not (math.isfinite(intensity) and intensity > 0.0):
            raise DomainError("intensity must be > 0")
        object.__setattr__(self, "intensity", intensity)
        center = tuple(float(c) for c in np.atleast_1d(self.center))
        if len(center) != 2:
            raise DomainError("center must be a 2-vector")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "peak_time", float(self.peak_time))


def _event_maxima(field, intensities, centers, peak_times, coords, times,
                  precision, inv_s3sq, norm_const):
    """Fold a batch of events into the running pointwise maximum."""
    dx = centers[:, 0][:, None] - coords[None, :, 0]
    dy = centers[:, 1][:, None] - coords[None, :, 1]
    dt = peak_times[:, None] - times[None, :]
    quad = (
        precision[0, 0] * dx * dx
        + 2.0 * precision[0, 1] * dx * dy
        + precision[1, 1] * dy * dy
        + inv_s3sq * dt * dt
    )
    with np.errstate(under="ignore"):
        contrib = intensities[:, None] * (norm_const * np.exp(-0.5 * quad))
    return np.maximum(field, contrib.max(axis=0))


def storm_field_from_events(events, grid: SpaceTimeGrid,
                            params: StormModelParams) -> FieldSample:
    """Compose the pointwise maximum field of explicitly given events."""
    if grid.dimension != 2:
        raise DomainError("the storm model is defined on a 2-d spatial domain")
    coords, times = grid.flat_coordinates()
    field = np.zeros(grid.size)
    if events:
        intensities = np.array([e.intensity for e in events])
        centers = np.array([e.center for e in events])
        peak_times = np.array([e.peak_time for e in events])
        field = _event_maxima(
            field, intensities, centers, peak_times, coords, times,
            params.spatial_precision, 1.0 / params.sigma_time_sq,
            params.peak_density,
        )
    return FieldSample(grid=grid, values=field, seed_info=None)


def simulate_storm_field(params: StormModelParams, grid: SpaceTimeGrid,
                         seed: int, realization: int = 0,
                         batch_size: int = 64) -> FieldSample:
    """Simulate one storm-profile field realization.

    Event intensities are 1/Gamma_j for the arrival times Gamma_j of a
    unit-rate Poisson process, compensated by the volume of the extended
    event domain (equivalently, intensities volume/Gamma_j); centers and
    peak times are uniform on the grid's bounding box extended by
    ``params.buffer`` standard deviations per coordinate.  Generation runs
    in decreasing intensity order and stops as soon as either

    * the next intensity times the peak kernel density cannot exceed the
      current minimum field value (no future event can change the grid;
      the result is exact), or
    * the next intensity falls below ``params.intensity_floor`` (remaining
      events are truncated; each could have contributed at most
      ``intensity_floor * params.peak_density``).
    """
    if grid.dimension != 2:
        raise DomainError("the storm model is defined on a 2-d spatial domain")
    if int(batch_size) < 1:
        raise DomainError("batch_size must be >= 1")
    rng = substream(int(seed), STORM_PURPOSE, int(realization))
    coords, times = grid.flat_coordinates()

    sds = np.sqrt(np.diag(params.sigma_space))
    s3 = math.sqrt(params.sigma_time_sq)
    lo = coords.min(axis=0) - params.buffer * sds
    hi = coords.max(axis=0) + params.buffer * sds
    t_lo = times.min() - params.buffer * s3
    t_hi = times.max() + params.buffer * s3
    volume = float(np.prod(hi - lo)) * (t_hi - t_lo)

    precision = params.spatial_precision
    inv_s3sq = 1.0 / params.sigma_time_sq
    peak = params.peak_density
    floor = params.intensity_floor

    field = np.zeros(grid.size)
    arrival_total = 0.0
    while True:
        # One uniform block per batch, four entries per event in event
        # order, so the k-th event always consumes the same stream
        # positions: the realization is independent of the batch size.
        # Folding the carried total into the first gap keeps the arrival
        # sums grouped left-to-right, hence bitwise batch-invariant too.
        block = rng.uniform(size=(batch_size, 4))
        gaps = -np.log1p(-block[:, 0])
        gaps[0] += arrival_total
        # a zero first arrival (uniform draw of exactly 0.0) would divide out
        arrivals = np.maximum(np.cumsum(gaps), np.finfo(float).tiny)
        arrival_total = float(arrivals[-1])
        intensities = volume / arrivals
        centers = lo + block[:, 1:3] * (hi - lo)
        peak_times = t_lo + block[:, 3] * (t_hi - t_lo)

        # The stopping test uses the minimum at batch start, which is
        # conservative: any event processed past the exact stopping point
        # cannot exceed the running maximum anywhere, so the field is
        # unchanged by the overshoot.
        current_min = field.min()
        stop = (intensities * peak <= current_min) | (intensities < floor)
        cut = int(np.argmax(stop)) if stop.any() else batch_size
        if cut > 0:
            field = _event_maxima(
                field, intensities[:cut], centers[:cut], peak_times[:cut],
                coords, times, precision, inv_s3sq, peak,
            )
        if stop.any():
            break

    return FieldSample(grid=grid, values=field, seed_info=(int(seed), int(realization)))


def equivalent_storm_params(expansion: SmoothnessExpansion, buffer: float = 4.0,
                            intensity_floor: float = DEFAULT_INTENSITY_FLOOR) -> StormModelParams:
    """Storm parameters whose dependence matches a quadratic expansion.

    Requires alpha_space = alpha_time = 2 with isotropic spatial behaviour;
    then sigma_space = I/(4*C1) and sigma_time_sq = 1/(4*C2) reproduce the
    limit function delta(h, u) = C1*||h||^2 + C2*u^2 exactly.
    """
    if expansion.spatial_weights is not None:
        raise UnsupportedModelError(
            "componentwise expansions cannot be represented by the storm model"
        )
    if abs(expansion.alpha_space - 2.0) > 1e-12 or abs(expansion.alpha_time - 2.0) > 1e-12:
        raise UnsupportedModelError(
            "the storm model recovers quadratic expansions only "
            "(alpha_space = alpha_time = 2)"
        )
    if expansion.c_space <= 0.0 or expansion.c_time <= 0.0:
        raise UnsupportedModelError("both expansion constants must be positive")
    sigma = np.eye(2) / (4.0 * expansion.c_space)
    return StormModelParams(
        sigma_space=sigma,
        sigma_time_sq=1.0 / (4.0 * expansion.c_time),
        buffer=buffer,
        intensity_floor=intensity_floor,
    )
