"""Sampling of stationary Gaussian fields on finite space-time grids.

A field is drawn as L z with z i.i.d. standard normal, where L L' reproduces
the correlation matrix C over the flattened grid.  ``low_rank_factor`` builds
an (N, r) factor by diagonally pivoted Cholesky without forming C: it calls
the model on the pivot columns only and stops once every site's residual
variance is at most ``RANK_TOLERANCE``.  It needs no diagonal shift, because
pivoting handles the semidefinite and numerically singular matrices of the
rescaled-maxima construction natively (rank 1,214 of N = 3,600 on a
30 x 30 x 4 grid at n = 100, a 35 MB factor).  ``build_covariance_matrix``
forms C itself, as the dense reference the factor is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covmodels import CorrelationModel
from .errors import DomainError, FactorizationError

__all__ = [
    "SpaceTimeGrid",
    "FieldSample",
    "CholeskyFactor",
    "RANK_TOLERANCE",
    "build_covariance_matrix",
    "low_rank_factor",
    "sample_replications",
]

# Residual variance at which ``low_rank_factor`` stops: every diagonal entry
# of C - L L' is at most this, and no pivot at or below it is accepted.
RANK_TOLERANCE = 1e-8

# Pivot candidates ``low_rank_factor`` takes per step (b).  On the shrunken
# 30 x 30 x 4 Gneiting grid (one BLAS thread) 16 gives rank 1,214 in 0.47 s;
# 8 gives 1,189 in 0.55 s and 32 gives 1,252 in 0.44 s.
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
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(times)):
            raise DomainError("grid coordinates must be finite")
        if len(np.unique(pts, axis=0)) != len(pts):
            raise DomainError("spatial points must be distinct")
        if len(np.unique(times)) != len(times):
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
        if any(s < 1 for s in shape):
            raise DomainError("grid shape entries must be >= 1")
        spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (len(shape),))
        origin = np.broadcast_to(np.asarray(origin, dtype=float), (len(shape),))
        axes = [origin[i] + spacing[i] * np.arange(shape[i]) for i in range(len(shape))]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        return SpaceTimeGrid(pts, np.asarray(times, dtype=float))


@dataclass(frozen=True, eq=False)
class FieldSample:
    """One realized field on a grid, tagged with its reproducibility key."""

    grid: SpaceTimeGrid
    values: np.ndarray
    seed_info: tuple = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.size,):
            raise DomainError("values length must match the flattened grid size")
        if not np.all(np.isfinite(values)):
            raise DomainError("field values must be finite")
        object.__setattr__(self, "values", values)


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


def _scaled_coordinates(model: CorrelationModel, grid: SpaceTimeGrid, scale):
    """The grid's spatial points and time points times the (s, t) ``scale``."""
    if grid.dimension != model.dimension:
        raise DomainError(
            f"grid dimension {grid.dimension} does not match model dimension "
            f"{model.dimension}"
        )
    s_scale, t_scale = (1.0, 1.0) if scale is None else (float(scale[0]), float(scale[1]))
    return grid.spatial_points * s_scale, grid.time_points * t_scale


def build_covariance_matrix(model: CorrelationModel, grid: SpaceTimeGrid,
                            scale=None) -> np.ndarray:
    """Correlation matrix of the model over the flattened grid.

    Parameters
    ----------
    model : CorrelationModel
    grid : SpaceTimeGrid
    scale : (s, t) pair, optional
        Rescaling factors applied to spatial and temporal lags, so that
        the model is evaluated at shrunken lags (s_n h, t_n u).

    Returns
    -------
    ndarray, shape (N, N)
        Symmetric with unit diagonal; entries are correlations in (0, 1].
    """
    pts, times = _scaled_coordinates(model, grid, scale)
    ns, nt = grid.n_space, grid.n_time

    spatial_lags = pts[:, None, :] - pts[None, :, :]
    # One rho call on every distinct |t_i - t_j|, exact, not rounded: scaled
    # times can give 3t - 2t != t - 0 in the last bit.  rho is even in u, so
    # block (i, j) and its mirror (j, i) share one lag.
    lags, which = np.unique(np.abs(times[:, None] - times[None, :]), return_inverse=True)
    blocks = np.asarray(model.rho(spatial_lags, lags[:, None, None]), dtype=float)
    out = np.empty((grid.size, grid.size))
    for (i, j), k in zip(np.ndindex(nt, nt), which.ravel()):
        out[i * ns:(i + 1) * ns, j * ns:(j + 1) * ns] = blocks[k]
    return out


def _pivoted_block(block: np.ndarray):
    """Pivoted Cholesky of a small residual block, overwriting it.

    Takes the largest remaining diagonal entry as the next pivot while it
    exceeds ``RANK_TOLERANCE``, which the first one does.  Returns the
    accepted positions in order and the (k, k) lower-triangular factor of
    the block on them, in that order.
    """
    variances = np.diag(block).copy()
    accepted, columns = [], []
    for _ in range(len(block)):
        best = int(np.argmax(variances))
        if not variances[best] > RANK_TOLERANCE:
            break
        column = block[:, best] / math.sqrt(variances[best])
        block -= np.outer(column, column)
        variances -= column ** 2
        accepted.append(best)
        columns.append(column)
    return accepted, np.array(columns)[:, accepted].T


def low_rank_factor(model: CorrelationModel, grid: SpaceTimeGrid,
                    scale=None) -> CholeskyFactor:
    """Pivoted, rank-revealing Cholesky factor of the model correlation C.

    The (N, r) factor L leaves every residual variance, the diagonal of
    C - L L', at or below ``RANK_TOLERANCE``; its largest entry is the
    factor's ``residual``.  C is never formed (Harbrecht, Peters & Schneider
    2012, *Appl. Numer. Math.* 62).  Each step takes the ``_PIVOT_BLOCK``
    sites of largest residual variance, ties to the lowest flat index, and
    factors the residual of C on them with pivoting, accepting a pivot only
    while its residual variance exceeds the tolerance.  Then ``model.rho``
    is evaluated on the accepted pivots' N columns only, the factor so far is
    subtracted with one matrix product, and one triangular solve gives the
    new columns of L.  So ``rho`` runs on N r values plus b x b per step.
    ``scale`` is as in ``build_covariance_matrix``.

    Row k of one (capacity, N) buffer holds column k of L; the buffer grows
    in place by ``ndarray.resize``, by an eighth at a time, and is cut to r
    rows at the end, so L is written once and ``lower`` is its transpose.

    Raises
    ------
    FactorizationError
        If ``rho`` is not finite, or a residual variance falls below
        ``-RANK_TOLERANCE`` (C is not positive semidefinite).
    """
    pts, times = _scaled_coordinates(model, grid, scale)
    size = grid.size

    def correlation(h, u):
        values = np.asarray(model.rho(h, u), dtype=float)
        if not np.isfinite(values).all():
            raise FactorizationError("the correlation model returned a non-finite value")
        return values

    residual = np.ones(size)  # C has unit diagonal, as build_covariance_matrix's
    rows = np.empty((0, size))
    rank = 0
    while residual.max() > RANK_TOLERANCE:
        pivots = np.argsort(-residual, kind="stable")[:_PIVOT_BLOCK]
        at_time, at_point = np.divmod(pivots, grid.n_space)
        block = correlation(pts[at_point, None] - pts[at_point],
                            np.abs(times[at_time, None] - times[at_time]))
        block -= rows[:rank, pivots].T @ rows[:rank, pivots]
        # the tracked variances, so the first pivot, the largest, is accepted
        np.fill_diagonal(block, residual[pivots])
        accepted, triangle = _pivoted_block(block)
        pivots = pivots[accepted]
        # rows C[p, :] of the accepted pivots, as (pivot, time, point)
        at_time, at_point = np.divmod(pivots, grid.n_space)
        values = correlation(pts[None, None, :, :] - pts[at_point, None, None, :],
                             np.abs(times[None, :, None] - times[at_time, None, None]))
        values = values.reshape(len(pivots), size) - rows[:rank, pivots].T @ rows[:rank]
        if rank + len(pivots) > len(rows):
            # no view of ``rows`` is alive here, so it may move
            rows.resize((min(size, max(rank + len(pivots), len(rows) * 9 // 8)), size),
                        refcheck=False)
        for j in range(len(pivots)):
            earlier = triangle[j, :j] @ rows[rank:rank + j]
            rows[rank + j] = (values[j] - earlier) / triangle[j, j]
        residual -= np.einsum("ij,ij->j", rows[rank:rank + len(pivots)],
                              rows[rank:rank + len(pivots)])
        rank += len(pivots)
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
    """Draw ``count`` independent replications as rows of a (count, N) array."""
    if count < 1:
        raise DomainError("count must be >= 1")
    z = rng.standard_normal((factor.rank, count))
    return (factor.lower @ z).T
