"""Sampling of stationary Gaussian fields on finite space-time grids.

A field is drawn as L z with z i.i.d. standard normal, where L L' reproduces
the correlation matrix C over the flattened grid.  ``low_rank_factor`` builds
an (N, r) factor by diagonally pivoted Cholesky without forming C: each step
calls the model once, on the rows of C of its b pivot candidates, and it
stops once every site's residual variance is at most ``RANK_TOLERANCE``.  It
needs no diagonal shift, because pivoting handles the semidefinite and
numerically singular matrices of the rescaled-maxima construction natively
(rank 1,214 of N = 3,600 on a 30 x 30 x 4 grid at n = 100, a 35 MB factor
built in 0.29-0.35 s in a fresh process with one BLAS thread, about 0.2 s
of it in the steps' (16 x r) @ (r x N) products).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covmodels import CorrelationModel
from .errors import DomainError, FactorizationError

__all__ = [
    "SpaceTimeGrid",
    "CholeskyFactor",
    "RANK_TOLERANCE",
    "low_rank_factor",
    "sample_replications",
]

# Residual variance at which ``low_rank_factor`` stops: every diagonal entry
# of C - L L' is at most this, and no pivot at or below it is accepted.
RANK_TOLERANCE = 1e-8

# Pivot candidates ``low_rank_factor`` takes per step (b).  On the shrunken
# 30 x 30 x 4 Gneiting grid (one BLAS thread, median of 5 fresh processes)
# 16 gives rank 1,214 in 0.30 s; 8 gives 1,189 in 0.37 s and 32 gives 1,252
# in 0.28 s.  Any other b pivots in another order, so it changes every
# husler_reiss output byte.
_PIVOT_BLOCK = 16


@dataclass(frozen=True, eq=False)
class SpaceTimeGrid:
    """Ordered spatial points and time points with a fixed flattening order.

    The flattened index runs time-major: entry k corresponds to time
    ``time_points[k // n_space]`` and spatial point
    ``spatial_points[k % n_space]``.  File outputs always carry explicit
    coordinates so the order is re-derivable from the data alone.
    """

    spatial_points: np.ndarray
    time_points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.spatial_points, dtype=float))
        times = np.atleast_1d(np.asarray(self.time_points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] not in (1, 2, 3):
            raise DomainError("spatial_points must be an (n, d) array with d in {1, 2, 3}")
        if times.ndim != 1 or times.size < 1:
            raise DomainError("time_points must be a non-empty 1-d array")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(times)):
            raise DomainError("grid coordinates must be finite")
        # Distinct means no two equal neighbours once sorted (-0.0 equals
        # 0.0).  Not np.unique: it imports numpy.ma (np.ma.is_masked), which
        # costs a fresh interpreter 13-16 ms and 1.3 MiB of peak RSS, and
        # every command builds a grid while it loads its config.
        sites = pts[np.lexsort(pts.T)]
        if np.any(np.all(sites[1:] == sites[:-1], axis=1)):
            raise DomainError("spatial points must be distinct")
        ordered = np.sort(times)
        if np.any(ordered[1:] == ordered[:-1]):
            raise DomainError("time points must be distinct")
        pts = pts.copy()
        times = times.copy()
        pts.setflags(write=False)
        times.setflags(write=False)
        object.__setattr__(self, "spatial_points", pts)
        object.__setattr__(self, "time_points", times)

    @property
    def dimension(self) -> int:
        return self.spatial_points.shape[1]

    @property
    def n_space(self) -> int:
        return self.spatial_points.shape[0]

    @property
    def n_time(self) -> int:
        return self.time_points.shape[0]

    @property
    def size(self) -> int:
        return self.n_space * self.n_time

    def flat_coordinates(self):
        """Return (coords, times) arrays of length ``size`` in flat order."""
        coords = np.tile(self.spatial_points, (self.n_time, 1))
        times = np.repeat(self.time_points, self.n_space)
        return coords, times

    @staticmethod
    def regular(shape, spacing=1.0, origin=0.0, times=(0.0,)) -> "SpaceTimeGrid":
        """Axis-aligned rectangular grid, row-major in space."""
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        if not shape or any(s < 1 for s in shape):
            raise DomainError(f"grid shape must be one or more entries >= 1, got shape={shape}")
        spacing, origin = np.asarray(spacing, dtype=float), np.asarray(origin, dtype=float)
        for name, value in (("spacing", spacing), ("origin", origin)):
            if value.ndim > 1 or value.size not in (1, len(shape)):
                raise DomainError(f"{name} must be one number or one per axis ({len(shape)})")
        spacing = np.broadcast_to(spacing, (len(shape),))
        origin = np.broadcast_to(origin, (len(shape),))
        axes = [origin[i] + spacing[i] * np.arange(shape[i]) for i in range(len(shape))]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        return SpaceTimeGrid(pts, np.asarray(times, dtype=float))


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """A factor ``lower`` of shape (N, rank) with ``lower @ lower.T`` close to C.

    ``low_rank_factor`` builds it; ``residual`` is the largest diagonal entry
    of C - L L', at most ``RANK_TOLERANCE``.
    """

    lower: np.ndarray
    residual: float

    @property
    def size(self) -> int:
        return self.lower.shape[0]

    @property
    def rank(self) -> int:
        return self.lower.shape[1]


def _largest(values: np.ndarray, count: int) -> np.ndarray:
    """``np.argsort(-values, kind="stable")[:count]`` without sorting them all:
    the indices of the ``count`` largest values, ties to the lowest index."""
    if values.size <= count:
        return np.argsort(-values, kind="stable")
    kth = np.partition(values, values.size - count)[values.size - count]
    candidates = np.flatnonzero(values >= kth)
    return candidates[np.argsort(-values[candidates], kind="stable")[:count]]


def low_rank_factor(model: CorrelationModel, grid: SpaceTimeGrid,
                    scale=None) -> CholeskyFactor:
    """Pivoted, rank-revealing Cholesky factor of the model correlation C.

    The (N, r) factor L leaves every residual variance, the diagonal of
    C - L L', at or below ``RANK_TOLERANCE``; its largest entry is the
    factor's ``residual``.  C is never formed (Harbrecht, Peters & Schneider
    2012, *Appl. Numer. Math.* 62).  Each step takes the ``_PIVOT_BLOCK``
    sites of largest residual variance, ties to the lowest flat index (by
    ``np.partition``, then a stable sort of the candidates it leaves),
    evaluates ``model.rho`` once on their N-long rows of C and subtracts the
    factor so far with one matrix product.  It then pivots greedily among
    those residual rows: while the largest tracked variance exceeds the
    tolerance, that candidate's row, less the columns the step has accepted
    times their entries at it, over the square root of its variance, becomes
    the next column of L, and every candidate's variance drops by the square
    of that column at it.  So ``rho`` runs on b x N values per step.
    ``scale``, an optional (s, t) pair, multiplies the spatial and temporal
    lags, so that the model is evaluated at shrunken lags (s_n h, t_n u).

    Row k of one (capacity, N) buffer holds column k of L; the buffer grows
    in place by ``ndarray.resize``, by an eighth at a time, and is cut to r
    rows at the end, so L is written once and ``lower`` is its transpose.
    Each column is computed in its row, and every step reuses one lag
    buffer, built a coordinate at a time, and one product buffer, so a step
    allocates little beyond what ``rho`` does.  The operands and their
    order are those of the plain expressions, so the bits are too.

    Raises
    ------
    FactorizationError
        If ``rho`` is not finite, or a residual variance falls below
        ``-RANK_TOLERANCE`` (C is not positive semidefinite).
    """
    if grid.dimension != model.dimension:
        raise DomainError(
            f"grid dimension {grid.dimension} does not match model dimension "
            f"{model.dimension}"
        )
    s_scale, t_scale = (1.0, 1.0) if scale is None else (float(scale[0]), float(scale[1]))
    pts, times = grid.spatial_points * s_scale, grid.time_points * t_scale
    size, block = grid.size, min(_PIVOT_BLOCK, grid.size)
    residual = np.ones(size)  # C has unit diagonal: rho(0, 0) = 1
    rows = np.empty((0, size))
    # reused by every step: the candidates' spatial lags, as the C-order
    # (pivot, time, point, axis) array ``rho`` takes, and their rows of the
    # factor so far times its transpose
    lags = np.empty((block, 1, grid.n_space, grid.dimension))
    product = np.empty((block, size))
    rank = 0
    while residual.max() > RANK_TOLERANCE:
        pivots = _largest(residual, block)
        # rows C[p, :] of the candidates, as (pivot, time, point)
        at_time, at_point = np.divmod(pivots, grid.n_space)
        for axis in range(grid.dimension):
            np.subtract(pts[:, axis], pts[at_point, axis, None], out=lags[:, 0, :, axis])
        lags_time = np.abs(times[None, :, None] - times[at_time, None, None])
        # writeable, since the step subtracts in place
        values = np.require(model.rho(lags, lags_time), dtype=float, requirements="W")
        if not np.isfinite(values).all():
            raise FactorizationError("the correlation model returned a non-finite value")
        values = values.reshape(block, size)
        np.matmul(rows[:rank, pivots].T, rows[:rank], out=product)
        values -= product
        if rank + block > len(rows):
            # no view of ``rows`` is alive here, so it may move
            rows.resize((min(size, max(rank + block, len(rows) * 9 // 8)), size),
                        refcheck=False)
        start, variances = rank, residual[pivots]
        for _ in pivots:
            best = int(np.argmax(variances))
            if not variances[best] > RANK_TOLERANCE:
                break
            # ``values`` already lacks the earlier steps' rows; take off this step's
            np.matmul(rows[start:rank, pivots[best]], rows[start:rank], out=rows[rank])
            np.subtract(values[best], rows[rank], out=rows[rank])
            rows[rank] /= math.sqrt(variances[best])
            variances -= rows[rank, pivots] ** 2
            rank += 1
        residual -= np.einsum("ij,ij->j", rows[start:rank], rows[start:rank])
        if residual.min() < -RANK_TOLERANCE:
            site = int(np.argmin(residual))
            raise FactorizationError(
                f"correlation matrix is not positive semidefinite: residual variance "
                f"{residual[site]:.6e} at site {site} after {rank} pivots"
            )
    rows.resize((rank, size), refcheck=False)
    return CholeskyFactor(rows.T, float(residual.max()))


def sample_replications(factor: CholeskyFactor, rng: np.random.Generator,
                        count: int) -> np.ndarray:
    """Draw ``count`` independent replications as rows of a (count, N) array.

    The rank x count normals z give the draw (L z)'.  When the grid has at
    least as many sites as there are replications, it is formed as z' L',
    which OpenBLAS runs 1.4-2.2x faster for a tall factor (13-14 ms against
    19-31 ms for 100 draws of the 3,600 x 1,214 factor); otherwise as the
    transposed view (L z)', whose maximum over replications then runs along
    rows ``count`` long, not N (6 us against 32 us for 1,000 draws on six
    sites).  The two orientations are bitwise equal.

    Raises
    ------
    DomainError
        If ``count`` is below 1, or numpy cannot shape or allocate the draw.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    try:
        z = rng.standard_normal((factor.rank, count))
    except (MemoryError, ValueError) as exc:  # too large to allocate, or to shape
        raise DomainError(f"cannot draw count={count} replications: numpy cannot make their "
                          f"({factor.rank}, {count}) array of normals") from exc
    if factor.size >= count:
        return z.T @ factor.lower.T
    return (factor.lower @ z).T
