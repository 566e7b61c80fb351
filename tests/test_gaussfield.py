"""The pivoted low-rank factor, checked against the dense matrix of
``dense_oracle``, and Gaussian sampling."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from stormfields import (
    AnisotropicModel,
    AnisotropyTransform,
    BernsteinModel,
    CorrelationModel,
    GneitingModel,
    MaMixtureModel,
    SpaceTimeGrid,
    low_rank_factor,
    scaling_sequences,
)
from stormfields.errors import DomainError, FactorizationError
from stormfields.gaussfield import _PIVOT_BLOCK, RANK_TOLERANCE, _largest, sample_replications
from stormfields.streams import substream
from dense_oracle import per_block_reference

GNEITING = GneitingModel(a=0.03, b=0.03, nu=1.5, gamma=1.0)

CATALOGUE = {
    "gneiting": GNEITING,
    # exp(-||h||^2 / 4 - 0.5 |u|), the Gaussian-by-Ornstein-Uhlenbeck product
    "separable": MaMixtureModel(
        atoms=((1.0, 1.0, 1.0),),
        spatial_scale=0.25, spatial_exponent=2.0,
        temporal_scale=0.5, temporal_exponent=1.0,
    ),
    "ma_mixture": MaMixtureModel(
        atoms=((0.5, 2.0, 0.3), (1.5, 0.5, 0.7)),
        spatial_scale=0.2, spatial_exponent=1.5,
        temporal_scale=0.4, temporal_exponent=1.0,
    ),
    "bernstein": BernsteinModel(
        spatial_scales=(0.5, 1.25),
        spatial_exponents=(0.8, 0.8),
        temporal_scale=0.6,
        temporal_exponent=0.5,
        atoms=((0.4, 1.0, 0.25), (1.2, 0.3, 0.75)),
    ),
    "aniso_gneiting": AnisotropicModel(
        base=GNEITING,
        transform=AnisotropyTransform(a_max=3.0, a_min=1.0, angle=math.radians(45.0)),
    ),
}


# The time lags of hr_grid's shrunken covariance: Gneiting at n = 100.
HR_GRID_SCALE = scaling_sequences(GNEITING.expansion(), 100)

# N = 1200
SHRUNKEN_GRID = SpaceTimeGrid.regular(shape=(20, 20), times=(0.0, 1.0, 2.0))


def gneiting_in(dimension, shape):
    """Gneiting in ``dimension`` spatial dimensions on ``shape`` x 3 times, at
    its own lags for n = 100."""
    model = GneitingModel(a=0.03, b=0.03, nu=1.5, gamma=1.0, dimension=dimension)
    grid = SpaceTimeGrid.regular(shape=shape, times=(0.0, 1.0, 2.0))
    return model, grid, scaling_sequences(model.expansion(), 100)


# N = 500, at unshrunken lags
UNSCALED_GRID = SpaceTimeGrid.regular(shape=(10, 10), times=(0.0, 1.0, 2.0, 3.0, 4.0))

# (model, grid, scale) for the factor-against-dense-matrix test: the
# catalogue at hr_grid's lags and unshrunken, and Gneiting on 1-d and 3-d
# spatial grids
DENSE_CASES = {
    **{name: (model, SHRUNKEN_GRID, HR_GRID_SCALE) for name, model in CATALOGUE.items()},
    **{f"unscaled-{name}": (model, UNSCALED_GRID, None) for name, model in CATALOGUE.items()},
    "1d-gneiting": gneiting_in(1, (40,)),
    "3d-gneiting": gneiting_in(3, (5, 5, 4)),
}


class CountingModel(CorrelationModel):
    """Delegates to a model and counts its rho calls and the values they return."""

    def __init__(self, base):
        self.base = base
        self.dimension = base.dimension
        self.calls = 0
        self.evaluations = 0

    def rho(self, h, u):
        self.calls += 1
        values = self.base.rho(h, u)
        self.evaluations += np.size(values)
        return values

    def expansion(self):
        return self.base.expansion()


class TestSpaceTimeGrid:
    def test_flattening_is_time_major(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0, 5.0]))
        coords, times = grid.flat_coordinates()
        assert grid.size == 4
        assert_array_equal(times, [0.0, 0.0, 5.0, 5.0])
        assert_array_equal(coords, [[0, 0], [1, 0], [0, 0], [1, 0]])

    def test_regular_constructor_row_major(self):
        grid = SpaceTimeGrid.regular(shape=(2, 3), spacing=1.0, origin=(0.0, 0.0), times=(0.0,))
        assert grid.n_space == 6
        assert_array_equal(grid.spatial_points[:3], [[0, 0], [0, 1], [0, 2]])
        assert_array_equal(grid.spatial_points[3:], [[1, 0], [1, 1], [1, 2]])
        # the default origin broadcasts to any dimension
        line = SpaceTimeGrid.regular(shape=(4,))
        assert_array_equal(line.spatial_points, [[0], [1], [2], [3]])
        cube = SpaceTimeGrid.regular(shape=(2, 1, 2), spacing=0.5)
        assert_array_equal(cube.spatial_points, [[0, 0, 0], [0, 0, 0.5], [0.5, 0, 0], [0.5, 0, 0.5]])

    @pytest.mark.parametrize("name, value", [
        ("spacing", [1.0, 2.0, 3.0]), ("origin", [0.0, 0.0, 0.0]), ("origin", [[0.0, 0.0]]),
    ])
    def test_regular_per_axis_length_checked(self, name, value):
        with pytest.raises(DomainError, match=name):
            SpaceTimeGrid.regular((3, 3), **{name: value})

    def test_regular_empty_shape_rejected(self):
        with pytest.raises(DomainError, match="shape"):
            SpaceTimeGrid.regular(shape=())

    def test_time_points_must_be_non_empty_and_1d(self):
        # an empty time axis would fail later, in numpy's reductions
        with pytest.raises(DomainError, match="time_points"):
            SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([]))
        with pytest.raises(DomainError, match="time_points"):
            SpaceTimeGrid.regular((3, 3), times=())
        with pytest.raises(DomainError, match="time_points"):
            SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([[0.0], [1.0]]))

    def test_duplicate_points_rejected(self):
        with pytest.raises(DomainError):
            SpaceTimeGrid(np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([0.0]))
        with pytest.raises(DomainError):
            SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([1.0, 1.0]))
        # apart in the input, in 1-d and 3-d, and -0.0 against 0.0
        for sites in ([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], [[0.0], [1.0], [0.0]],
                      [[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]],
                      [[-0.0, 1.0], [0.0, 1.0]]):
            with pytest.raises(DomainError, match="spatial points must be distinct"):
                SpaceTimeGrid(np.array(sites), np.array([0.0]))
        for times in ([0.0, 1.0, 0.0], [-0.0, 0.0]):
            with pytest.raises(DomainError, match="time points must be distinct"):
                SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array(times))
        # one ulp apart, or equal in one coordinate only, is distinct
        ulp = np.nextafter(1.0, 2.0)
        SpaceTimeGrid(np.array([[1.0, 0.0], [ulp, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                      np.array([1.0, 0.0, ulp]))


class TestBuildCovariance:
    """Entries of C as the library builds it: L L' of the pivoted factor."""

    @staticmethod
    def covariance(grid, scale=None):
        factor = low_rank_factor(GNEITING, grid, scale)
        return factor.lower @ factor.lower.T

    def test_single_point(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0]))
        assert_array_equal(self.covariance(grid), [[1.0]])

    def test_zero_lag_pair_gives_ones(self):
        # scaling by (0, 0) collapses every lag to the origin
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [3.0, 1.0]]), np.array([0.0]))
        assert_array_equal(self.covariance(grid, scale=(0.0, 0.0)), np.ones((2, 2)))

    def test_pure_time_lag_matches_correlation(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0, 10.0]))
        matrix = self.covariance(grid)
        assert matrix[0, 1] == pytest.approx(0.25, rel=1e-15)
        assert matrix[1, 0] == matrix[0, 1]
        # the second column of L is the square root of a rounded variance
        assert_allclose(np.diag(matrix), [1.0, 1.0], rtol=0.0, atol=np.finfo(float).eps)

    def test_rescaled_lags(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([0.0, 4.0]))
        matrix = self.covariance(grid, scale=(0.5, 0.25))
        direct = GNEITING.rho(np.array([1.0, 0.0]), 1.0)  # lags scaled to (1, 0) and u = 1
        assert matrix[0, 3] == pytest.approx(float(direct), rel=1e-15)

    def test_symmetric_unit_diagonal_in_bounds(self):
        grid = SpaceTimeGrid.regular(shape=(4, 4), times=(0.0, 1.0, 2.0))
        matrix = self.covariance(grid)
        assert_array_equal(matrix, matrix.T)
        assert_allclose(np.diag(matrix), np.ones(grid.size), rtol=0.0, atol=RANK_TOLERANCE)
        assert np.all(matrix > 0.0)
        assert np.all(matrix <= 1.0 + RANK_TOLERANCE)


class ConstantModel(CorrelationModel):
    """Correlation ``off_diagonal`` between any two distinct sites."""

    def __init__(self, off_diagonal):
        self.off_diagonal = off_diagonal

    def rho(self, h, u):
        same = (np.abs(np.asarray(h)).sum(axis=-1) == 0.0) & (np.asarray(u) == 0.0)
        return np.where(same, 1.0, self.off_diagonal)


class TestLowRankFactor:
    GRID = SHRUNKEN_GRID
    # at shrunken lags the smooth models, separable's Gaussian in space
    # among them, are numerically low-rank; ma_mixture and bernstein, whose
    # spatial exponents are below 2, keep full rank
    LOW_RANK = ("gneiting", "separable", "aniso_gneiting", "1d-gneiting", "3d-gneiting")

    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_reproduces_the_dense_matrix(self, case):
        base, grid, scale = DENSE_CASES[case]
        model = CountingModel(base)
        factor = low_rank_factor(model, grid, scale)
        size = grid.size
        matrix = per_block_reference(base, grid, scale)
        assert_array_equal(matrix, matrix.T)
        assert_array_equal(np.diag(matrix), np.ones(size))
        assert factor.lower.shape == (size, factor.rank)
        assert np.abs(factor.lower @ factor.lower.T - matrix).max() <= RANK_TOLERANCE
        residual = np.diag(matrix) - np.einsum("ij,ij->i", factor.lower, factor.lower)
        # tracked by r subtractions, each rounded at unit scale
        assert factor.residual == pytest.approx(residual.max(),
                                                abs=factor.rank * np.finfo(float).eps)
        assert factor.residual <= RANK_TOLERANCE
        if case in self.LOW_RANK:
            assert factor.rank < size
        # rho runs once per step, on the b candidates' rows, in at most
        # ceil(N / b) steps
        steps = model.calls
        assert model.evaluations == size * min(_PIVOT_BLOCK, size) * steps
        assert steps <= math.ceil(size / _PIVOT_BLOCK)

    def test_full_rank_on_the_validate_grid(self):
        # the six sites of the default validate pairs at n = 1000
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0, 1.0, 2.0]))
        scale = scaling_sequences(GNEITING.expansion(), 1000)
        factor = low_rank_factor(GNEITING, grid, scale)
        assert factor.rank == grid.size == 6
        matrix = per_block_reference(GNEITING, grid, scale)
        assert np.abs(factor.lower @ factor.lower.T - matrix).max() <= 1e-14

    def test_first_pivot_is_the_lowest_flat_index(self):
        # every residual variance starts at 1, so site 0 is the first pivot
        # and column 0 of the factor is column 0 of C
        factor = low_rank_factor(GNEITING, self.GRID, HR_GRID_SCALE)
        matrix = per_block_reference(GNEITING, self.GRID, HR_GRID_SCALE)
        assert_allclose(factor.lower[:, 0], matrix[:, 0], rtol=1e-15, atol=0.0)
        again = low_rank_factor(GNEITING, self.GRID, HR_GRID_SCALE)
        assert again.lower.tobytes() == factor.lower.tobytes()

    def test_dependent_sites_give_rank_one(self):
        # at zero scale every lag is (0, 0), so C is all ones: the first pivot
        # leaves no residual and every later candidate of its block is rejected
        grid = SpaceTimeGrid.regular(shape=(5, 5), times=(0.0, 1.0, 2.0))
        factor = low_rank_factor(GNEITING, grid, scale=(0.0, 0.0))
        assert factor.rank == 1
        assert factor.residual == 0.0
        assert_array_equal(factor.lower, np.ones((grid.size, 1)))

    def test_indefinite_raises(self):
        # three sites at correlation -0.9: C has the eigenvalue 1 - 1.8
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([0.0]))
        with pytest.raises(FactorizationError, match="not positive semidefinite"):
            low_rank_factor(ConstantModel(-0.9), grid)
        assert low_rank_factor(ConstantModel(0.5), grid).rank == 3

    def test_non_finite_correlation_raises(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0]))
        with pytest.raises(FactorizationError, match="non-finite"):
            low_rank_factor(ConstantModel(np.nan), grid)

    def test_dimension_mismatch(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0, 0.0]]), np.array([0.0]))
        with pytest.raises(DomainError):
            low_rank_factor(GNEITING, grid)

    def test_draws_rank_normals_per_replication(self):
        factor = low_rank_factor(GNEITING, self.GRID, HR_GRID_SCALE)
        draws = sample_replications(factor, substream(5, 0, 0), 3)
        z = substream(5, 0, 0).standard_normal((factor.rank, 3))
        assert draws.shape == (3, self.GRID.size)
        assert_array_equal(draws, (factor.lower @ z).T)


def reference_factor(model, grid, scale):
    """``low_rank_factor``'s algorithm in its plain form, its bitwise
    reference: a full stable argsort picks the candidates, their lags are one
    broadcast subtraction, and every product and column is a fresh array.
    Returns (lower, residual)."""
    s_scale, t_scale = scale
    pts, times = grid.spatial_points * s_scale, grid.time_points * t_scale
    size = grid.size
    residual = np.ones(size)
    rows = np.empty((0, size))
    rank = 0
    while residual.max() > RANK_TOLERANCE:
        pivots = np.argsort(-residual, kind="stable")[:_PIVOT_BLOCK]
        at_time, at_point = np.divmod(pivots, grid.n_space)
        values = np.asarray(model.rho(pts[None, None, :, :] - pts[at_point, None, None, :],
                                      np.abs(times[None, :, None] - times[at_time, None, None])),
                            dtype=float)
        values = values.reshape(len(pivots), size) - rows[:rank, pivots].T @ rows[:rank]
        if rank + len(pivots) > len(rows):
            rows.resize((min(size, max(rank + len(pivots), len(rows) * 9 // 8)), size),
                        refcheck=False)
        start, variances = rank, residual[pivots]
        for _ in pivots:
            best = int(np.argmax(variances))
            if not variances[best] > RANK_TOLERANCE:
                break
            rows[rank] = ((values[best] - rows[start:rank, pivots[best]] @ rows[start:rank])
                          / math.sqrt(variances[best]))
            variances -= rows[rank, pivots] ** 2
            rank += 1
        residual -= np.einsum("ij,ij->j", rows[start:rank], rows[start:rank])
    rows.resize((rank, size), refcheck=False)
    return rows.T, float(residual.max())


# (model, grid) pairs of at most 192 sites for the bitwise checks
SMALL_CASES = {
    "1d-gneiting": gneiting_in(1, (40,))[:2],
    "2d-gneiting": (GNEITING, SpaceTimeGrid.regular(shape=(8, 8), times=(0.0, 1.0, 2.0))),
    "3d-gneiting": gneiting_in(3, (4, 4, 3))[:2],
    **{name: (CATALOGUE[name], SpaceTimeGrid.regular(shape=(8, 8), times=(0.0, 1.0, 2.0)))
       for name in ("aniso_gneiting", "ma_mixture", "bernstein")},
}


class TestSameBits:
    """The factor's partial candidate selection, reused buffers and in-place
    columns, and the draw's two orientations, give the bits of the plain
    forms they replace."""

    @pytest.mark.parametrize("values", [
        np.random.default_rng(1).random(500),
        np.random.default_rng(2).integers(0, 4, 500).astype(float),  # many ties at the cut
        np.full(300, 0.25),
        np.array([0.0, -0.0, 1.0, -0.0, 0.0, 0.0, -1.0, 0.0] * 5),
        np.arange(7.0),                                               # fewer than count
        np.random.default_rng(3).random(_PIVOT_BLOCK),                # exactly count
    ], ids=["random", "ties", "all-equal", "signed-zeros", "short", "count"])
    def test_largest_is_the_head_of_a_stable_argsort(self, values):
        expected = np.argsort(-values, kind="stable")[:_PIVOT_BLOCK]
        assert_array_equal(_largest(values, _PIVOT_BLOCK), expected)

    @pytest.mark.parametrize("n", [3, 100, 1e8])
    @pytest.mark.parametrize("case", SMALL_CASES)
    def test_factor_matches_the_reference_loop(self, case, n):
        model, grid = SMALL_CASES[case]
        scale = scaling_sequences(model.expansion(), n)
        factor = low_rank_factor(model, grid, scale)
        lower, residual = reference_factor(model, grid, scale)
        assert factor.lower.tobytes() == np.ascontiguousarray(lower).tobytes()
        assert factor.lower.shape == lower.shape
        assert factor.residual == residual

    @pytest.mark.parametrize("count", [1, 47, 48, 49, 200])
    def test_draw_matches_lower_times_normals(self, count):
        # 48 sites: counts below, at and above the factor's size
        grid = SpaceTimeGrid.regular(shape=(4, 4), times=(0.0, 1.0, 2.0))
        factor = low_rank_factor(GNEITING, grid, HR_GRID_SCALE)
        draws = sample_replications(factor, substream(11, 0, count), count)
        z = substream(11, 0, count).standard_normal((factor.rank, count))
        assert draws.shape == (count, grid.size)
        assert draws.tobytes() == np.ascontiguousarray((factor.lower @ z).T).tobytes()

    def test_undrawable_count_is_a_domain_error(self):
        # 1e17 replications need exabytes, which no address space holds, so
        # numpy refuses at once; 1e20 is beyond its largest dimension
        grid = SpaceTimeGrid.regular(shape=(2, 2), times=(0.0,))
        factor = low_rank_factor(GNEITING, grid, HR_GRID_SCALE)
        for count in (10**17, 10**20):
            with pytest.raises(DomainError, match=f"count={count} replications"):
                sample_replications(factor, substream(1, 0, 0), count)


class TestSampling:
    def test_single_point_moments(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0]))
        factor = low_rank_factor(GNEITING, grid)
        draws = sample_replications(factor, substream(123, 0, 0), 100_000)[:, 0]
        assert abs(draws.mean()) <= 0.02
        assert 0.97 <= draws.var() <= 1.03

    def test_pair_correlation(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0, 10.0]))
        factor = low_rank_factor(GNEITING, grid)  # rho = 0.25
        draws = sample_replications(factor, substream(42, 0, 0), 100_000)
        empirical = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(empirical - 0.25) <= 0.02

    def test_determinism_same_stream(self):
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0, 1.0))
        factor = low_rank_factor(GNEITING, grid)
        for count in (1, 3):
            a = sample_replications(factor, substream(7, 0, 4), count)
            b = sample_replications(factor, substream(7, 0, 4), count)
            assert a.shape == (count, grid.size)
            assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0,))
        factor = low_rank_factor(GNEITING, grid)
        for count in (1, 3):
            a = sample_replications(factor, substream(7, 0, 0), count)
            b = sample_replications(factor, substream(7, 0, 1), count)
            c = sample_replications(factor, substream(8, 0, 0), count)
            assert not np.array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_covariance_reproduced_on_small_grid(self):
        # empirical covariance of many replications approaches the target
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 2.0]]), np.array([0.0, 1.0]))
        matrix = per_block_reference(GNEITING, grid)
        draws = sample_replications(low_rank_factor(GNEITING, grid), substream(99, 0, 0), 60_000)
        empirical = np.cov(draws.T)
        assert np.max(np.abs(empirical - matrix)) <= 0.03
