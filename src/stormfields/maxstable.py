"""The two max-stable constructions in space and time.

Construction one ("rescaled Gaussian maxima"): sample n independent copies
of a stationary Gaussian field on a lag-shrunken grid, take their pointwise
maximum, push it through the chosen marginal transform and apply the
matching normalization.  The transforms are non-decreasing, so transforming
the maximum equals the maximum of the transformed copies, at one Phi
evaluation per site instead of n.  As n grows these fields converge to a
max-stable limit whose bivariate distributions are available in closed form
(module ``extremal``).

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
    SpaceTimeGrid,
    low_rank_factor,
    sample_replications,
)
from .numerics import std_normal_cdf
from .streams import FIELD_PURPOSE, STORM_PURPOSE, substream

__all__ = [
    "MarginalKind",
    "StormModelParams",
    "DEFAULT_INTENSITY_FLOOR",
    "transform_marginal",
    "normalize_maxima",
    "rescaled_factor",
    "husler_reiss_block",
    "husler_reiss_field",
    "storm_block",
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


def transform_marginal(z, kind: MarginalKind):
    """Marginal transform of standard normal values, before normalization.

    The replication count enters through the outer normalization applied
    after the pointwise maximum (see ``normalize_maxima``); the transformed
    value itself is

        Frechet:  -1 / log(Phi(z))
        Gumbel:   -log(-log(Phi(z)))
        Weibull:  log(Phi(z))

    with Phi clamped away from 0 and 1 at the floating-point limits.  All
    three are non-decreasing in z, so they may be applied to the pointwise
    maximum of the replications rather than to each replication.
    """
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


def rescaled_factor(model: CorrelationModel, grid: SpaceTimeGrid, n: int) -> CholeskyFactor:
    """Pivoted low-rank factor of the model correlation at lags shrunken by (s_n, t_n).

    Exposed separately so that many realizations can reuse one factorization;
    see ``low_rank_factor`` for its rank and residual.
    """
    if int(n) < 2:
        raise DomainError("n must be >= 2")
    return low_rank_factor(model, grid, scale=scaling_sequences(model.expansion(), int(n)))


def husler_reiss_block(factor: CholeskyFactor, n: int, kind: MarginalKind, seed: int,
                       realizations) -> np.ndarray:
    """Values of several max-stable realizations, one row per realization.

    Row r holds the normalized, transformed pointwise maximum of the n
    replications drawn from the Philox substream keyed by
    ``(seed, realization r)``, so every row equals the single-realization
    result however the realizations are grouped into blocks.  The maximum
    is taken on the Gaussian values and the marginal transform runs once per
    site of the whole block.  The computed Phi and the transforms are
    non-decreasing, so this equals transforming each replication first.
    """
    if int(n) < 2:
        raise DomainError("n must be >= 2")
    realizations = [int(r) for r in realizations]
    maxima = np.empty((len(realizations), factor.size))
    for row, realization in enumerate(realizations):
        rng = substream(int(seed), FIELD_PURPOSE, realization)
        maxima[row] = sample_replications(factor, rng, int(n)).max(axis=0)
    return normalize_maxima(transform_marginal(maxima, kind), int(n), kind)


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


# Absolute slack on the reach threshold 2 log(I * peak / m) of
# ``_event_maxima``: far above the rounding error of the computed quadratic
# form and threshold, a few ulps of numbers below about 1.5e3.
_REACH_MARGIN = 1e-9

# The reach fold spends 50-65 us more per batch than the dense fold in
# fixed numpy calls (one BLAS thread, 2 vCPUs), so it pays only on larger
# batches.  On the six-point grid of ``validate`` (at most 384 pairs per
# batch) the dense fold takes 21-30 us per batch and the reach fold
# 59-86 us, and a realization takes 175-190 us at this threshold against
# 270 us with the reach fold on every batch.  On the 10x10x3 and 30x30x4
# grids the two folds cross at 12k-14k pairs per batch, yet whole
# realizations take the same time, within noise, at 4096 and at 12288: only
# a realization's last, cut batch falls between them.  Either fold gives
# the same bytes.
_REACH_MIN_PAIRS = 4096

# Relative padding of the x-slab half-width of ``_event_maxima``: far above
# the rounding of Sigma_xx, of the half-width and of the quadratic form,
# a few ulps times kappa = (1 + |r|) / (1 - |r|) for the precision's
# correlation r, while kappa < 1e9, that is r^2 < _SLAB_MAX_R2.
_SLAB_PAD = 1e-6
_SLAB_MAX_R2 = 1.0 - 4e-9

# Events drawn and folded per batch of one realization.  No field depends on
# it: see the batch loop of ``storm_block``.
_STORM_BATCH = 64


def _spatial_quad(precision, dx, dy):
    """``P00 dx dx + 2 P01 dx dy + P11 dy dy``, left-associated."""
    return precision[0, 0] * dx * dx + 2.0 * precision[0, 1] * dx * dy + precision[1, 1] * dy * dy


def _event_maxima(field, current_min, intensities, centers, peak_times, points, time_points,
                  precision, inv_s3sq, peak):
    """Fold a batch of events into the running pointwise maximum.

    The grid is the product of ``points`` (n_space, 2) and ``time_points``
    (n_time,), flattened time-major, so the quadratic form of event k at
    flat index ``t * n_space + s`` splits into a spatial part ``sq[k, s]``
    and a temporal part ``tq[k, t]``, and ``sq + tq`` is the left-associated
    ``P00 dx dx + 2 P01 dx dy + P11 dy dy + dt dt / s3^2`` bit for bit.
    Event k contributes ``I_k * (peak * exp(-quad / 2))`` there.

    Once the field minimum m is positive, event k can raise a value only
    inside its reach, ``quad < thr_k = 2 log(I_k peak / m) + margin``.  The
    reach fold keeps the (event, site) pairs with ``sq < reach_k = thr_k -
    min_t tq[k]``, then the (event, site, time) triples with
    ``sq + tq < thr_k``, and takes ``exp`` on those alone.  The result is
    bitwise the dense fold's: a skipped triple has a computed quad of at
    least ``2 log(I_k peak / m) + margin`` less a few ulps, so its computed
    contribution is at most ``m exp(-margin / 2) (1 + O(ulp)) < m <=
    field[j]`` and the dense maximum keeps ``field[j]`` there; every kept
    triple runs the dense formula on the same operands; and ``max`` is exact
    and independent of order.

    The fold computes ``sq`` only on the sites of each event's x-slab,
    ``|x - cx_k| <= half_k = sqrt(reach_k * Sigma_xx) (1 + _SLAB_PAD)``,
    found by ``searchsorted`` on the x-coordinates sorted once per call, and
    skips the events with ``reach_k <= 0``.  Every pair it skips fails
    ``sq < reach_k``, so it keeps the pairs the test keeps on all pairs:

    * With ``Sigma_xx = P11 / (P00 P11 - P01^2)``, the (0, 0) entry of the
      inverse of ``precision``, the exact form at any offset is
      ``q(dx, dy) = P11 (dy + P01 dx / P11)^2 + dx^2 / Sigma_xx``, so
      ``q >= dx^2 / Sigma_xx``.
    * The computed ``sq`` is q within ``4 u kappa q``, where u is the unit
      roundoff and ``kappa = (1 + |r|) / (1 - |r|)`` for the precision's
      correlation r, because its terms sum in absolute value to at most
      ``kappa q``.  So a computed ``sq`` is never negative, and every pair
      of an event with ``reach_k <= 0`` fails.
    * A pair that passes has ``dx^2 <= Sigma_xx q < Sigma_xx reach_k (1 +
      4 u kappa)``, and ``|cx_k - x| <= |dx| / (1 - u)`` for the computed
      ``dx``.  The computed ``half_k`` is within a few ulps times kappa of
      its exact value, the rounding of ``Sigma_xx`` included, and
      ``_SLAB_PAD`` exceeds all of these terms together, because the fold
      requires ``kappa < 1e9``.  So ``cx_k - half_k <= x <= cx_k +
      half_k`` holds exactly for the computed ``half_k``.
    * The slab ends are rounded too, by up to half an ulp of ``cx_k``,
      which is far more than ``half_k`` at large coordinates.  But rounding
      to nearest is monotone and x is a double, so ``fl(cx_k - half_k) <=
      x <= fl(cx_k + half_k)``, and both ``searchsorted`` bounds include
      their ends.  The slab therefore needs no padding in ulps of ``cx_k``.

    Every event is folded at every point instead while the field still has
    zeros, when the batch has fewer than ``_REACH_MIN_PAIRS`` (event, point)
    pairs, and when ``r^2 >= _SLAB_MAX_R2``: near so singular a precision the
    computed ``sq`` can be a percent below q, and a site outside the slab
    could pass.  Either fold gives the same bytes.  ``current_min`` is
    ``field.min()``, which the caller's stopping test has computed.
    """
    dt = peak_times[:, None] - time_points[None, :]
    tq = inv_s3sq * dt * dt
    with np.errstate(under="ignore"):
        if (current_min > 0.0 and len(intensities) * field.size >= _REACH_MIN_PAIRS
                and precision[0, 1] ** 2 < _SLAB_MAX_R2 * precision[0, 0] * precision[1, 1]):
            thr = 2.0 * np.log(intensities * peak / current_min) + _REACH_MARGIN
            reach = thr - tq.min(axis=1)
            live = np.flatnonzero(reach > 0.0)
            sigma_xx = precision[1, 1] / (precision[0, 0] * precision[1, 1]
                                          - precision[0, 1] * precision[0, 1])
            # each live event's slab is a run of sites in x order
            cx, cy = centers[live, 0], centers[live, 1]
            half = np.sqrt(reach[live] * sigma_xx) * (1.0 + _SLAB_PAD)
            order = np.argsort(points[:, 0], kind="stable")
            xs, ys = points[order, 0], points[order, 1]
            first = np.searchsorted(xs, cx - half, side="left")
            count = np.searchsorted(xs, cx + half, side="right") - first
            pos = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
            sq = _spatial_quad(precision, np.repeat(cx, count) - xs[pos],
                               np.repeat(cy, count) - ys[pos])
            keep = sq < np.repeat(reach[live], count)
            event, site = np.repeat(live, count)[keep], order[pos[keep]]
            quad = sq[keep][:, None] + tq[event]
            pair, t = np.nonzero(quad < thr[event][:, None])
            contrib = intensities[event[pair]] * (peak * np.exp(-0.5 * quad[pair, t]))
            folded = field.copy()
            np.maximum.at(folded, t * len(points) + site[pair], contrib)
            return folded
        sq = _spatial_quad(precision, centers[:, 0][:, None] - points[None, :, 0],
                           centers[:, 1][:, None] - points[None, :, 1])
        quad = (sq[:, None, :] + tq[:, :, None]).reshape(len(intensities), -1)
        contrib = intensities[:, None] * (peak * np.exp(-0.5 * quad))
    return np.maximum(field, contrib.max(axis=0))


def storm_block(params: StormModelParams, grid: SpaceTimeGrid, seed: int,
                realizations) -> np.ndarray:
    """Values of several storm-profile realizations, one row per realization.

    Row r is drawn from the Philox substream keyed by ``(seed, realization
    r)``, so every row equals the single-realization result however the
    realizations are grouped into blocks.  The event domain, precision and
    peak density are computed once per block.

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

    The same bound drives the fold.  Once the field minimum m is positive,
    an event of intensity I can change the grid only inside its reach, the
    ellipsoid ``quad < 2 log(I * peak_density / m)``.  In a batch of at
    least 4096 (event, point) pairs, the spatial quadratic form is evaluated
    only on the sites of each event's x-slab, the x-extent of that
    ellipsoid, and ``exp`` only inside it, bitwise as a fold at every point
    (see ``_event_maxima``).  A non-finite value in the block raises
    ``DomainError``.
    """
    if grid.dimension != 2:
        raise DomainError("the storm model is defined on a 2-d spatial domain")
    points, times = grid.spatial_points, grid.time_points

    sds = np.sqrt(np.diag(params.sigma_space))
    s3 = math.sqrt(params.sigma_time_sq)
    lo = points.min(axis=0) - params.buffer * sds
    hi = points.max(axis=0) + params.buffer * sds
    t_lo = times.min() - params.buffer * s3
    t_hi = times.max() + params.buffer * s3
    volume = float(np.prod(hi - lo)) * (t_hi - t_lo)

    precision = params.spatial_precision
    inv_s3sq = 1.0 / params.sigma_time_sq
    peak = params.peak_density
    floor = params.intensity_floor

    values = np.empty((len(realizations), grid.size))
    for row, realization in enumerate(realizations):
        rng = substream(int(seed), STORM_PURPOSE, int(realization))
        field = np.zeros(grid.size)
        arrival_total = 0.0
        while True:
            # One uniform block per batch, four entries per event in event
            # order, so the k-th event always consumes the same stream
            # positions: the realization is independent of the batch size.
            # Folding the carried total into the first gap keeps the arrival
            # sums grouped left-to-right, hence bitwise batch-invariant too.
            block = rng.uniform(size=(_STORM_BATCH, 4))
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
            cut = int(np.argmax(stop)) if stop.any() else _STORM_BATCH
            if cut > 0:
                field = _event_maxima(
                    field, current_min, intensities[:cut], centers[:cut], peak_times[:cut],
                    points, times, precision, inv_s3sq, peak,
                )
            if stop.any():
                break
        values[row] = field
    if not np.all(np.isfinite(values)):
        raise DomainError("field values must be finite")
    return values


def simulate_storm_field(params: StormModelParams, grid: SpaceTimeGrid,
                         seed: int, realization: int = 0) -> FieldSample:
    """One storm-profile field realization: the one-row case of ``storm_block``."""
    values = storm_block(params, grid, seed, [realization])[0]
    return FieldSample(grid=grid, values=values, seed_info=(int(seed), int(realization)))


def equivalent_storm_params(expansion: SmoothnessExpansion, buffer: float = 4.0,
                            intensity_floor: float = DEFAULT_INTENSITY_FLOOR) -> StormModelParams:
    """Storm parameters whose dependence matches a quadratic expansion.

    Requires alpha_space = alpha_time = 2 and no componentwise weights; then
    sigma_space = (A'A)^{-1}/(4*C1) and sigma_time_sq = 1/(4*C2) reproduce the
    limit function delta(h, u) = C1*||A h||^2 + C2*u^2 exactly, where A is the
    expansion's anisotropy (sigma_space = I/(4*C1) without one).
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
    aniso = expansion.anisotropy
    sigma = np.eye(2) if aniso is None else np.linalg.inv(aniso.matrix.T @ aniso.matrix)
    return StormModelParams(
        sigma_space=sigma / (4.0 * expansion.c_space),
        sigma_time_sq=1.0 / (4.0 * expansion.c_time),
        buffer=buffer,
        intensity_floor=intensity_floor,
    )
