"""Covariance assembly, the pivoted low-rank factor checked against the dense
matrix, and Gaussian sampling."""

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
    PoweredExponential,
    SeparableModel,
    SpaceTimeGrid,
    build_covariance_matrix,
    low_rank_factor,
    scaling_sequences,
)
from stormfields.errors import DomainError, FactorizationError
from stormfields.gaussfield import _PIVOT_BLOCK, RANK_TOLERANCE, sample_replications
from stormfields.streams import substream

GNEITING = GneitingModel(a=0.03, b=0.03, nu=1.5, gamma=1.0)

CATALOGUE = {
    "gneiting": GNEITING,
    "separable": SeparableModel(spatial_range=4.0, temporal_decay=0.5),
    "ma_mixture": MaMixtureModel(
        atoms=((0.5, 2.0, 0.3), (1.5, 0.5, 0.7)),
        base_spatial=PoweredExponential(scale=0.2, exponent=1.5),
        base_temporal=PoweredExponential(scale=0.4, exponent=1.0),
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


def per_block_reference(model, grid, scale=(1.0, 1.0)):
    """The covariance as built before time-lag blocks were reused: one rho
    call per block of the lower block triangle, mirrored by transposition."""
    pts = grid.spatial_points * float(scale[0])
    times = grid.time_points * float(scale[1])
    ns = grid.n_space
    spatial_lags = pts[:, None, :] - pts[None, :, :]
    out = np.empty((grid.size, grid.size))
    for i in range(grid.n_time):
        for j in range(i + 1):
            block = np.asarray(model.rho(spatial_lags, times[i] - times[j]), dtype=float)
            out[i * ns:(i + 1) * ns, j * ns:(j + 1) * ns] = block
            if i != j:
                out[j * ns:(j + 1) * ns, i * ns:(i + 1) * ns] = block.T
    return out


class CountingModel(CorrelationModel):
    """Delegates to a model, records the time lags ``u`` of every rho call and
    counts the values it returns."""

    def __init__(self, base):
        self.base = base
        self.dimension = base.dimension
        self.time_lags = []
        self.evaluations = 0

    def rho(self, h, u):
        self.time_lags.append(np.array(u, dtype=float))
        values = self.base.rho(h, u)
        self.evaluations += np.size(values)
        return values

    def expansion(self):
        return self.base.expansion()


def float_time_lags(times, t_scale):
    """The distinct |t_i - t_j| of the scaled times, compared exactly."""
    scaled = np.asarray(times, dtype=float) * t_scale
    return {float(abs(a - b)) for a in scaled for b in scaled}


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

    def test_duplicate_points_rejected(self):
        with pytest.raises(DomainError):
            SpaceTimeGrid(np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([0.0]))
        with pytest.raises(DomainError):
            SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([1.0, 1.0]))


class TestBuildCovariance:
    def test_single_point(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0]))
        assert_array_equal(build_covariance_matrix(GNEITING, grid), [[1.0]])

    def test_zero_lag_pair_gives_ones(self):
        # scaling by (0, 0) collapses every lag to the origin
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [3.0, 1.0]]), np.array([0.0]))
        matrix = build_covariance_matrix(GNEITING, grid, scale=(0.0, 0.0))
        assert_array_equal(matrix, np.ones((2, 2)))

    def test_pure_time_lag_matches_correlation(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0, 10.0]))
        matrix = build_covariance_matrix(GNEITING, grid)
        assert matrix[0, 1] == pytest.approx(0.25, rel=1e-15)
        assert matrix[1, 0] == matrix[0, 1]
        assert_array_equal(np.diag(matrix), [1.0, 1.0])

    def test_rescaled_lags(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([0.0, 4.0]))
        matrix = build_covariance_matrix(GNEITING, grid, scale=(0.5, 0.25))
        direct = GNEITING.rho(np.array([1.0, 0.0]), 1.0)  # lags scaled to (1, 0) and u = 1
        assert matrix[0, 3] == pytest.approx(float(direct), rel=1e-15)

    def test_symmetric_unit_diagonal_in_bounds(self):
        grid = SpaceTimeGrid.regular(shape=(4, 4), times=(0.0, 1.0, 2.0))
        matrix = build_covariance_matrix(GNEITING, grid)
        assert_array_equal(matrix, matrix.T)
        assert_array_equal(np.diag(matrix), np.ones(grid.size))
        assert np.all(matrix > 0.0)
        assert np.all(matrix <= 1.0)

    def test_dimension_mismatch(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0, 0.0]]), np.array([0.0]))
        with pytest.raises(DomainError):
            build_covariance_matrix(GNEITING, grid)

    # Irregular times: at hr_grid's t_n some scaled differences collide in
    # floating point (so their block is reused) and some that are equal in
    # exact arithmetic do not (so each keeps its own rho call).
    IRREGULAR_TIMES = (0.0, 1.0, 2.0, 3.0, 4.5, 7.0)

    def test_irregular_times_collide_and_do_not_collide(self):
        pairs = len(self.IRREGULAR_TIMES) * (len(self.IRREGULAR_TIMES) + 1) // 2
        exact = float_time_lags(self.IRREGULAR_TIMES, 1.0)  # integers and halves: exact
        scaled = float_time_lags(self.IRREGULAR_TIMES, HR_GRID_SCALE[1])
        assert len(exact) < len(scaled) < pairs

    @pytest.mark.parametrize("scale", [(1.0, 1.0), HR_GRID_SCALE, (0.7, 0.1)],
                             ids=["unscaled", "hr_grid", "other"])
    @pytest.mark.parametrize("model", CATALOGUE.values(), ids=CATALOGUE.keys())
    def test_bitwise_equal_to_per_block_loop(self, model, scale):
        grid = SpaceTimeGrid.regular(shape=(4, 3), spacing=(1.0, 0.7),
                                     times=self.IRREGULAR_TIMES)
        matrix = build_covariance_matrix(model, grid, scale=scale)
        assert matrix.tobytes() == per_block_reference(model, grid, scale).tobytes()

    @pytest.mark.parametrize("times, scale, lags", [
        ((0.0, 1.0, 2.0, 3.0), None, 4),
        ((0.0, 1.0, 2.0, 3.0), HR_GRID_SCALE, 6),
        (IRREGULAR_TIMES, HR_GRID_SCALE, None),
        ((2.0, 0.0, 3.0, 1.0), HR_GRID_SCALE, None),
    ], ids=["unscaled", "hr_grid", "irregular", "unsorted"])
    def test_one_rho_call_per_distinct_time_lag(self, times, scale, lags):
        # one rho call, whose u holds each distinct |t_i - t_j| exactly once
        model = CountingModel(GNEITING)
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=times)
        matrix = build_covariance_matrix(model, grid, scale=scale)
        t_scale = 1.0 if scale is None else scale[1]
        [u] = model.time_lags
        assert sorted(u.ravel().tolist()) == sorted(float_time_lags(times, t_scale))
        if lags is not None:
            assert u.size == lags
        reference = per_block_reference(GNEITING, grid, (1.0, 1.0) if scale is None else scale)
        assert matrix.tobytes() == reference.tobytes()


class ConstantModel(CorrelationModel):
    """Correlation ``off_diagonal`` between any two distinct sites."""

    def __init__(self, off_diagonal):
        self.off_diagonal = off_diagonal

    def rho(self, h, u):
        same = (np.abs(np.asarray(h)).sum(axis=-1) == 0.0) & (np.asarray(u) == 0.0)
        return np.where(same, 1.0, self.off_diagonal)


class TestLowRankFactor:
    GRID = SHRUNKEN_GRID
    # at shrunken lags the smooth models are numerically low-rank; the
    # powered-exponential ones (ma_mixture, bernstein) keep full rank
    LOW_RANK = ("gneiting", "separable", "aniso_gneiting", "1d-gneiting", "3d-gneiting")

    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_reproduces_the_dense_matrix(self, case):
        base, grid, scale = DENSE_CASES[case]
        model = CountingModel(base)
        factor = low_rank_factor(model, grid, scale)
        size = grid.size
        matrix = build_covariance_matrix(base, grid, scale=scale)
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
        # rho runs on the accepted pivots' columns and a b x b block per step,
        # one call each, in at most ceil(N / b) steps
        steps = len(model.time_lags) // 2
        assert model.evaluations == size * factor.rank + _PIVOT_BLOCK ** 2 * steps
        assert steps <= math.ceil(size / _PIVOT_BLOCK)

    def test_full_rank_on_the_validate_grid(self):
        # the six sites of the default validate pairs at n = 1000
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0, 1.0, 2.0]))
        scale = scaling_sequences(GNEITING.expansion(), 1000)
        factor = low_rank_factor(GNEITING, grid, scale)
        assert factor.rank == grid.size == 6
        matrix = build_covariance_matrix(GNEITING, grid, scale=scale)
        assert np.abs(factor.lower @ factor.lower.T - matrix).max() <= 1e-14

    def test_first_pivot_is_the_lowest_flat_index(self):
        # every residual variance starts at 1, so site 0 is the first pivot
        # and column 0 of the factor is column 0 of C
        factor = low_rank_factor(GNEITING, self.GRID, HR_GRID_SCALE)
        matrix = build_covariance_matrix(GNEITING, self.GRID, scale=HR_GRID_SCALE)
        assert_allclose(factor.lower[:, 0], matrix[:, 0], rtol=1e-15, atol=0.0)
        again = low_rank_factor(GNEITING, self.GRID, HR_GRID_SCALE)
        assert again.lower.tobytes() == factor.lower.tobytes()

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
        matrix = build_covariance_matrix(GNEITING, grid)
        draws = sample_replications(low_rank_factor(GNEITING, grid), substream(99, 0, 0), 60_000)
        empirical = np.cov(draws.T)
        assert np.max(np.abs(empirical - matrix)) <= 0.03
