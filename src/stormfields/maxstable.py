"""The two max-stable constructions in space and time.

Construction one ("rescaled Gaussian maxima"): sample n independent copies
of a stationary Gaussian field on a lag-shrunken grid, take their pointwise
maximum and push it through the chosen normalized marginal transform,
``transform_marginal``.  The transforms are non-decreasing, so transforming
the maximum equals the maximum of the transformed copies, at one Phi
evaluation per site instead of n.  As n grows these fields converge to a
max-stable limit whose bivariate distributions are available in closed form
(module ``extremal``).

Construction two ("storm profiles"): superpose Poisson-distributed events,
each a scaled trivariate Gaussian bump in space-time, and record the
pointwise maximum.  Event intensities arrive in decreasing order, which
lets the simulation stop exactly once no future event can alter the grid.
Its bivariate law is the same closed form at the dependence parameter
``delta_from_storm``, the quadratic expansion that ``equivalent_storm_params``
inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from enum import Enum

import numpy as np

from .covmodels import (AnisotropyTransform, CorrelationModel, SmoothnessExpansion, _finite,
                        _positive, scaling_sequences)
from .errors import DomainError, NotPositiveDefiniteError, UnsupportedModelError
from .gaussfield import (
    CholeskyFactor,
    SpaceTimeGrid,
    low_rank_factor,
    sample_replications,
)
from .numerics import std_normal_cdf
from .streams import FIELD_PURPOSE, STORM_PURPOSE, substream

__all__ = [
    "MarginalKind",
    "StormModelParams",
    "INTENSITY_FLOOR",
    "transform_marginal",
    "rescaled_factor",
    "husler_reiss_block",
    "storm_block",
    "equivalent_storm_params",
    "delta_from_storm",
]

# Clamp for Phi(z) before the marginal transforms: keeps logs finite while
# perturbing results far below Monte-Carlo test tolerances.
_P_FLOOR = 1e-300
_P_CEIL = 1.0 - 1e-16

# Intensity below which ``storm_block`` draws no more events, lowering a value
# by at most this times the peak kernel density: 1e-6 times the median of a
# standard Frechet variable (both constructions' marginal law), 1e-6 / log(2).
INTENSITY_FLOOR = 1e-6 / math.log(2.0)


class MarginalKind(str, Enum):
    """Marginal family of the max-stable limit."""

    FRECHET = "frechet"
    GUMBEL = "gumbel"
    WEIBULL = "weibull"


def transform_marginal(z, n: int, kind: MarginalKind):
    """Normalized marginal transform of the maximum z of n standard normal values.

    With p = Phi(z), clamped away from 0 and 1 at the floating-point limits,

        Frechet:  -1 / log(p) / n
        Gumbel:   -log(-log(p)) - log(n)
        Weibull:  n log(p)

    All three are non-decreasing in z, so they may be applied to the
    pointwise maximum of the n replications rather than to each replication.
    """
    if int(n) < 1:
        raise DomainError("n must be >= 1")
    kind = MarginalKind(kind)
    log_p = np.log(np.clip(std_normal_cdf(z), _P_FLOOR, _P_CEIL))
    if kind is MarginalKind.FRECHET:
        return -1.0 / log_p / n
    if kind is MarginalKind.GUMBEL:
        return -np.log(-log_p) - math.log(n)
    return n * log_p


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
        try:
            maxima[row] = sample_replications(factor, rng, int(n)).max(axis=0)
        except DomainError as exc:  # name the key that set the count
            raise DomainError(f"n={int(n)}: {exc}") from exc
    return transform_marginal(maxima, int(n), kind)


@dataclass(frozen=True, eq=False)
class StormModelParams:
    """Parameters of the space-time storm-profile simulator.

    ``sigma_space`` is the 2x2 SPD covariance of the spatial storm shape and
    ``sigma_time_sq`` the variance of the temporal profile; together they
    form the block-diagonal covariance of the trivariate Gaussian bump, and
    fix the simulated law.  ``buffer`` extends the event domain beyond the
    grid's (x, y, t) bounding box, in per-axis standard deviations (a bump
    contributes less than 3.4e-4 of its peak beyond four standard
    deviations).  The event series is truncated at the module's fixed
    ``INTENSITY_FLOOR``.

    ``whitening`` is W = L^-1 for the Cholesky factor L L' = ``sigma_space``,
    lower triangular and read-only: ``h' sigma_space^-1 h = |W h|^2``, so the
    whitened coordinates ``W h`` are all the storm kernel needs of Sigma.
    """

    sigma_space: np.ndarray
    sigma_time_sq: float
    buffer: float = 4.0
    whitening: np.ndarray = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        try:
            sigma = np.asarray(self.sigma_space, dtype=float)
        except OverflowError as exc:  # a Python int beyond float range
            raise DomainError("sigma_space must be finite") from exc
        if sigma.shape != (2, 2):
            raise DomainError("sigma_space must be a 2x2 matrix")
        if not np.all(np.isfinite(sigma)) or abs(sigma[0, 1] - sigma[1, 0]) > 1e-12 * max(
            1.0, float(np.abs(sigma).max())
        ):
            raise NotPositiveDefiniteError("sigma_space must be finite and symmetric")
        try:
            (l00, _), (l10, l11) = np.linalg.cholesky(sigma).tolist()
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("sigma_space is not positive definite") from exc
        w00, w11 = 1.0 / l00, 1.0 / l11
        whitening = np.array([[w00, 0.0], [-l10 * w00 * w11, w11]])
        for name, value in (("sigma_space", sigma.copy()), ("whitening", whitening)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "sigma_time_sq", _positive(self.sigma_time_sq, "sigma_time_sq"))
        buffer = _finite(self.buffer, "buffer")
        if buffer < 0.0:
            raise DomainError("buffer must be >= 0")
        object.__setattr__(self, "buffer", buffer)

    @property
    def peak_density(self) -> float:
        """Kernel value at an event's own center, the maximum of the bump.

        ``1 / sqrt(det sigma_space) = W00 W11``, which stays finite where the
        determinant itself would underflow.
        """
        w = self.whitening
        return float((2.0 * math.pi) ** -1.5 * w[0, 0] * w[1, 1] / math.sqrt(self.sigma_time_sq))


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

# Relative padding of the slab half-width of ``_event_maxima``: far above
# the few ulps by which the computed half-width, and the first whitened
# offset of a pair in reach, can exceed sqrt(reach), for any SPD Sigma.
_SLAB_PAD = 1e-6

# Events drawn and folded per batch of one realization.  No field depends on
# it: see the batch loop of ``storm_block``.
_STORM_BATCH = 64


def _whiten(w, x, y):
    """Whitened coordinates ``(a, b) = W (x, y)`` of the whitening ``w``.

    Elementwise, so that no value depends on the shape of the batch it is
    computed in, as a matrix product's can.
    """
    return x * w[0, 0], x * w[1, 0] + y * w[1, 1]


def _event_maxima(field, current_min, intensities, ca, cb, peak_times, pa, pb, time_points,
                  inv_s3sq, peak):
    """Fold a batch of events into the running pointwise maximum.

    Positions are whitened, ``(a, b) = W (x, y)``: event k is centered at
    ``(ca[k], cb[k])`` and the grid is the product of the sites ``(pa, pb)``
    (n_space,) and ``time_points`` (n_time,), flattened time-major.  So the
    quadratic form of event k at flat index ``t * n_space + s`` splits into
    a spatial part ``sq[k, s] = da da + db db``, on the offsets ``da = ca[k]
    - pa[s]`` and ``db = cb[k] - pb[s]``, and a temporal part ``tq[k, t] =
    inv_s3sq dt dt``.  Event k contributes ``I_k * (peak * exp(-quad / 2))``
    there, with ``quad = sq + tq``.

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

    The fold computes ``sq`` only on the sites of each event's slab,
    ``|pa - ca_k| <= half_k = sqrt(reach_k) (1 + _SLAB_PAD)``, found by
    ``searchsorted`` on the a-coordinates sorted once per call, and skips
    the events with ``reach_k <= 0``.  Every pair it skips fails ``sq <
    reach_k``, so it keeps the pairs the test keeps on all pairs, for any
    SPD Sigma:

    * The computed ``sq`` is a rounded sum of two computed squares, so it is
      at least 0, and every pair of an event with ``reach_k <= 0`` fails.
      Rounding is monotone, so it is also at least ``fl(da da)``.
    * A pair that passes therefore has ``fl(da da) < reach_k``, so ``|da| <
      sqrt(reach_k) (1 + u)`` for the unit roundoff u, and ``|ca_k - pa| <=
      |da| / (1 - u)`` for the computed ``da``.  The computed ``half_k`` is
      within a few ulps of its exact value, and ``_SLAB_PAD`` exceeds all of
      these terms together.  So ``ca_k - half_k <= pa <= ca_k + half_k``
      holds exactly for the computed ``half_k``.
    * The slab ends are rounded too, by up to half an ulp of ``ca_k``,
      which is far more than ``half_k`` at large coordinates.  But rounding
      to nearest is monotone and ``pa`` is a double, so ``fl(ca_k - half_k)
      <= pa <= fl(ca_k + half_k)``, and both ``searchsorted`` bounds include
      their ends.  The slab therefore needs no padding in ulps of ``ca_k``.

    Every event is folded at every point instead while the field still has
    zeros, and when the batch has fewer than ``_REACH_MIN_PAIRS`` (event,
    point) pairs.  Either fold gives the same bytes.  ``current_min`` is
    ``field.min()``, which the caller's stopping test has computed.

    The dense fold takes the events in chunks of ``max(1, _REACH_MIN_PAIRS
    // field.size)``, so it holds O(max(N, _REACH_MIN_PAIRS)) values at a
    time for N grid points, not several (events, N) arrays; a batch of fewer
    than ``_REACH_MIN_PAIRS`` pairs is one chunk.  Each chunk's
    contributions ``I_k * (peak * exp(-0.5 * quad))`` are computed in place
    on its ``quad`` array, factor by factor in that order, and its maximum
    over events is folded into the running ``np.maximum``.  The reach fold
    runs the same chain in place on its gathered ``quad`` values; a shared
    helper for the chain would cost 1-2% of a dense call on the six-point
    grid.  It frees each intermediate once nothing later reads it, but does
    not loop over chunks of pairs: chunks of 8,192 pairs held about as much
    at the widest batch (1.00 MB traced, against 1.07 MB) and made a
    30x30x4 storm row about 9% slower.  Every value keeps its operands
    and operations, and ``max`` is exact and independent of order, so
    neither changes a byte.
    """
    dt = peak_times[:, None] - time_points[None, :]
    tq = inv_s3sq * dt * dt
    with np.errstate(under="ignore"):
        if current_min > 0.0 and len(intensities) * field.size >= _REACH_MIN_PAIRS:
            thr = 2.0 * np.log(intensities * peak / current_min) + _REACH_MARGIN
            reach = thr - tq.min(axis=1)
            live = np.flatnonzero(reach > 0.0)
            # each live event's slab is a run of sites in order of a
            half = np.sqrt(reach[live]) * (1.0 + _SLAB_PAD)
            order = np.argsort(pa, kind="stable")
            sa, sb = pa[order], pb[order]
            first = np.searchsorted(sa, ca[live] - half, side="left")
            count = np.searchsorted(sa, ca[live] + half, side="right") - first
            pos = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
            da = np.repeat(ca[live], count) - sa[pos]
            db = np.repeat(cb[live], count) - sb[pos]
            da *= da
            db *= db
            sq = da + db
            del da, db
            keep = sq < np.repeat(reach[live], count)
            event, site = np.repeat(live, count)[keep], order[pos[keep]]
            quad = sq[keep][:, None] + tq[event]
            del pos, sq, keep
            pair, t = np.nonzero(quad < thr[event][:, None])
            contrib = quad[pair, t]
            del quad
            contrib *= -0.5
            np.exp(contrib, out=contrib)
            contrib *= peak
            contrib *= intensities[event[pair]]
            t *= len(pa)
            t += site[pair]
            folded = field.copy()
            np.maximum.at(folded, t, contrib)
            return folded
        step = max(1, _REACH_MIN_PAIRS // field.size)
        for start in range(0, len(intensities), step):
            part = slice(start, start + step)
            da = ca[part, None] - pa
            db = cb[part, None] - pb
            sq = da * da + db * db
            contrib = (sq[:, None, :] + tq[part, :, None]).reshape(len(sq), -1)
            contrib *= -0.5
            np.exp(contrib, out=contrib)
            contrib *= peak
            contrib *= intensities[part, None]
            field = np.maximum(field, contrib.max(axis=0))
    return field


def storm_block(params: StormModelParams, grid: SpaceTimeGrid, seed: int,
                realizations) -> np.ndarray:
    """Values of several storm-profile realizations, one row per realization.

    Row r is drawn from the Philox substream keyed by ``(seed, realization
    r)``, so every row equals the single-realization result however the
    realizations are grouped into blocks.  The event domain, the whitened
    sites ``W (x, y)`` and the peak density are computed once per block, and
    each batch's event centers are whitened once.

    The event domain is the grid's (x, y, t) bounding box extended by
    ``params.buffer`` standard deviations per coordinate; a domain of zero
    volume, or of a volume beyond float range, raises ``DomainError`` before
    any event is drawn.  Event intensities are 1/Gamma_j for the
    arrival times Gamma_j of a unit-rate Poisson process, compensated by
    the domain's volume (equivalently, volume/Gamma_j); event centers and
    peak times are uniform on the domain.  Generation runs in decreasing
    intensity order and stops as soon as either

    * the next intensity times the peak kernel density is not above the
      current minimum field value (no future event can change the grid;
      the result is exact; a NaN minimum stops too), or
    * the next intensity falls below ``INTENSITY_FLOOR`` (remaining events
      are truncated; each could have contributed at most ``INTENSITY_FLOOR
      * params.peak_density``).

    The same bound drives the fold.  Once the field minimum m is positive,
    an event of intensity I can change the grid only inside its reach, the
    ellipsoid ``quad < 2 log(I * peak_density / m)``, a ball in whitened
    coordinates.  In a batch of at least 4096 (event, point) pairs, the
    spatial quadratic form is evaluated only on the sites of each event's
    slab, the extent of that ball along the first whitened coordinate, and
    ``exp`` only inside it, bitwise as a fold at every point (see
    ``_event_maxima``).  A non-finite value in the block raises
    ``DomainError``.
    """
    if grid.dimension != 2:
        raise DomainError("the storm model is defined on a 2-d spatial domain")
    points, times = grid.spatial_points, grid.time_points

    sds = np.sqrt([*np.diag(params.sigma_space), params.sigma_time_sq])
    with np.errstate(over="ignore"):
        lo = np.append(points.min(axis=0), times.min()) - params.buffer * sds
        hi = np.append(points.max(axis=0), times.max()) + params.buffer * sds
        # Python floats: an overflowing product is inf without a numpy warning
        volume = math.prod((hi - lo).tolist())
    if not math.isfinite(volume):
        raise DomainError(f"the storm event domain's volume overflows at buffer {params.buffer}: "
                          "the grid's (x, y, t) bounding box extended by it is beyond float range")
    if not volume > 0.0:
        raise DomainError(f"the storm event domain has zero volume at buffer {params.buffer}: "
                          "the grid's (x, y, t) bounding box is flat")

    w = params.whitening
    pa, pb = _whiten(w, points[:, 0], points[:, 1])
    inv_s3sq = 1.0 / params.sigma_time_sq
    peak = params.peak_density

    realizations = [int(r) for r in realizations]
    values = np.empty((len(realizations), grid.size))
    for row, realization in enumerate(realizations):
        rng = substream(int(seed), STORM_PURPOSE, realization)
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
            # each event's center (x, y) and peak time t
            events = lo + block[:, 1:] * (hi - lo)

            # The stopping test uses the minimum at batch start, which is
            # conservative: any event processed past the exact stopping point
            # cannot exceed the running maximum anywhere, so the field is
            # unchanged by the overshoot; "not >" also stops at a NaN minimum.
            current_min = field.min()
            stop = ~(intensities * peak > current_min) | (intensities < INTENSITY_FLOOR)
            cut = int(np.argmax(stop)) if stop.any() else _STORM_BATCH
            if cut > 0:
                ca, cb = _whiten(w, events[:cut, 0], events[:cut, 1])
                field = _event_maxima(field, current_min, intensities[:cut], ca, cb,
                                      events[:cut, 2], pa, pb, times, inv_s3sq, peak)
            if stop.any():
                break
        values[row] = field
    if not np.all(np.isfinite(values)):
        raise DomainError("field values must be finite")
    return values


def equivalent_storm_params(expansion: SmoothnessExpansion) -> StormModelParams:
    """Storm parameters whose dependence matches a quadratic expansion.

    The expansion fixes the law alone, so the result has the default
    ``buffer``.  Requires alpha_space = alpha_time = 2 and no componentwise
    weights; then sigma_space = (A'A)^{-1}/(4*C1) and sigma_time_sq = 1/(4*C2) reproduce the
    limit function delta(h, u) = C1*||A h||^2 + C2*u^2 exactly, where A is the
    expansion's anisotropy (sigma_space = I/(4*C1) without one).  For
    A = diag(1/a_max, 1/a_min) R, with R the rotation by the angle (c, s) =
    (cos, sin), (A'A)^{-1} = R' diag(a_max^2, a_min^2) R, written entry by
    entry, so sigma_space is symmetric by construction; an entry beyond
    float range is not finite, which ``StormModelParams`` rejects.
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
    # the identity transform gives exactly I; Python floats overflow to inf
    # (or nan) without a warning
    aniso = expansion.anisotropy or AnisotropyTransform(1.0, 1.0, 0.0)
    c, s = math.cos(aniso.angle), math.sin(aniso.angle)
    major, minor = aniso.a_max * aniso.a_max, aniso.a_min * aniso.a_min
    cross = (major - minor) * c * s
    sigma = np.array([[major * c * c + minor * s * s, cross],
                      [cross, major * s * s + minor * c * c]])
    return StormModelParams(sigma / (4.0 * expansion.c_space), 1.0 / (4.0 * expansion.c_time))


def delta_from_storm(params: StormModelParams, h, u):
    """Dependence parameter of the storm model at lags (h, u); ``h`` has shape (..., 2).

    delta(h, u) = h' sigma_space^{-1} h / 4 + u^2 / (4 sigma_time_sq), the
    quadratic expansion that ``equivalent_storm_params`` inverts.  At this
    delta the storm model's bivariate law is ``extremal.bivariate_cdf_hr``.
    The spatial form is ``a a + b b`` at the whitened lag ``(a, b) = W h``,
    as the storm fold computes it.  Scalar lags return a Python float.
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-1:] != (2,):
        raise DomainError("h must have a last axis of length 2")
    u = np.asarray(u, dtype=float)
    a, b = _whiten(params.whitening, h[..., 0], h[..., 1])
    delta = 0.25 * (a * a + b * b) + 0.25 * u * u / params.sigma_time_sq
    return float(delta) if np.ndim(delta) == 0 else delta
