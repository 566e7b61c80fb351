"""Covariance assembly, the dense factor of C + 1e-12 I, the pivoted low-rank
factor, and Gaussian sampling."""

import math
import tracemalloc

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
    cholesky,
    low_rank_factor,
    scaling_sequences,
)
from stormfields.errors import DomainError, FactorizationError
from stormfields.gaussfield import (
    _PIVOT_BLOCK,
    _TILE,
    JITTER,
    RANK_TOLERANCE,
    sample_replications,
)
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


class TestCholesky:
    def test_identity(self):
        factor = cholesky(np.eye(3))
        assert_array_equal(factor.lower, math.sqrt(1.0 + 1e-12) * np.eye(3))
        assert factor.jitter_used == JITTER == 1e-12

    def test_hand_factor(self):
        # closed form of [[d, 0.25], [0.25, d]] with d = 1 + 1e-12:
        # sqrt(d), 0.25 / sqrt(d) and sqrt(d - 0.0625 / d), to 20 digits
        factor = cholesky(np.array([[1.0, 0.25], [0.25, 1.0]]))
        expected = np.array([[1.0000000000005000444, 0.0],
                             [0.24999999999987498889, 0.96824583655240294271]])
        assert_allclose(factor.lower, expected, rtol=1e-15)

    @pytest.mark.parametrize("case", ["identity", "singular", "indefinite"])
    def test_one_factorization_attempt(self, case, monkeypatch):
        if case == "singular":
            grid = SpaceTimeGrid.regular(shape=(6, 6), times=(0.0, 1.0, 2.0))
            matrix = build_covariance_matrix(GNEITING, grid, scale=(0.05, 0.05))
        else:
            matrix = {"identity": np.eye(3), "indefinite": np.diag([1.0, -1.0])}[case]
        calls = []
        factorize = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: calls.append(a.shape) or factorize(a))
        if case == "indefinite":
            with pytest.raises(FactorizationError):
                cholesky(matrix)
        else:
            assert cholesky(matrix).jitter_used == JITTER
        assert len(calls) == 1

    def test_rank_deficient_needs_jitter(self):
        factor = cholesky(np.ones((2, 2)))
        assert factor.jitter_used > 0.0
        reconstructed = factor.lower @ factor.lower.T
        assert np.max(np.abs(reconstructed - np.ones((2, 2)))) <= 1e-8 * 2

    def test_indefinite_fails_with_diagnostic(self):
        with pytest.raises(FactorizationError, match="-1.0"):
            cholesky(np.diag([1.0, -1.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            cholesky(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_jittered_factor_is_bitwise_the_added_identity(self, monkeypatch):
        grid = SpaceTimeGrid.regular(shape=(6, 6), times=(0.0, 1.0, 2.0))
        matrix = build_covariance_matrix(GNEITING, grid, scale=(0.05, 0.05))
        monkeypatch.setattr(np, "eye", None)  # cholesky must not build an identity
        factor = cholesky(matrix)
        monkeypatch.undo()
        assert factor.jitter_used > 0.0
        expected = np.linalg.cholesky(matrix + factor.jitter_used * np.eye(grid.size))
        assert_array_equal(factor.lower, expected)

    @staticmethod
    def indefinite_with_negative_zero():
        # -0.0 + JITTER - JITTER is +0.0, so only restoring the saved
        # diagonal gives the input back bit for bit
        matrix = np.diag([1.0, -0.0, -1.0, 0.7])
        diagonal = np.diag(matrix)
        assert (diagonal + JITTER - JITTER).tobytes() != diagonal.tobytes()
        return matrix

    def test_input_unchanged_after_success(self):
        grid = SpaceTimeGrid.regular(shape=(6, 6), times=(0.0, 1.0, 2.0))
        matrix = build_covariance_matrix(GNEITING, grid, scale=HR_GRID_SCALE)
        before = matrix.copy()
        cholesky(matrix)
        assert matrix.tobytes() == before.tobytes()

    def test_input_unchanged_after_factorization_error(self):
        matrix = self.indefinite_with_negative_zero()
        before = matrix.copy()
        with pytest.raises(FactorizationError, match="-1.0"):
            cholesky(matrix)
        assert matrix.tobytes() == before.tobytes()

    def test_read_only_input_factors_to_the_same_bits(self):
        grid = SpaceTimeGrid.regular(shape=(6, 6), times=(0.0, 1.0, 2.0))
        matrix = build_covariance_matrix(GNEITING, grid, scale=HR_GRID_SCALE)
        writeable = cholesky(matrix.copy()).lower
        matrix.setflags(write=False)
        assert cholesky(matrix).lower.tobytes() == writeable.tobytes()
        indefinite = self.indefinite_with_negative_zero()
        indefinite.setflags(write=False)
        with pytest.raises(FactorizationError):
            cholesky(indefinite)

    @pytest.mark.parametrize("side", ["below", "at", "above"])
    def test_symmetry_rule_in_an_off_diagonal_tile(self, side):
        size = _TILE + 44
        matrix = np.eye(size)
        matrix[5, size - 10] = matrix[size - 10, 5] = 1e3  # max|M|, strictly upper
        limit = 1e-12 * 1e3
        perturbation = {"below": np.nextafter(limit, 0.0), "at": limit,
                        "above": np.nextafter(limit, np.inf)}[side]
        # (size - 20, 20) lies in lower tile (1, 0) only
        assert size - 20 >= _TILE > 20
        matrix[size - 20, 20] = perturbation
        # the whole-matrix rule the tiles must reproduce
        rejected = np.abs(matrix - matrix.T).max() > 1e-12 * max(1.0, np.abs(matrix).max())
        assert rejected == (side == "above")
        before = matrix.copy()
        # |M_ij| = 1e3 > 1 on the diagonal, so an accepted matrix fails to factor
        with pytest.raises(DomainError if rejected else FactorizationError):
            cholesky(matrix)
        assert matrix.tobytes() == before.tobytes()

    def test_peak_memory_is_the_factor(self):
        # 20 x 20 x 3: N = 1200, 8 N^2 = 11.5 MB.  A whole-matrix symmetry
        # check and a shifted copy would each add another N x N array.
        grid = SpaceTimeGrid.regular(shape=(20, 20), times=(0.0, 1.0, 2.0))
        matrix = build_covariance_matrix(GNEITING, grid, scale=HR_GRID_SCALE)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            factor = cholesky(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor.lower.shape == (grid.size, grid.size)
        assert peak - start <= 1.1 * 8 * grid.size ** 2

    @pytest.mark.parametrize("model", CATALOGUE.values(), ids=CATALOGUE.keys())
    def test_catalogued_models_factor_with_small_jitter(self, model):
        grid = SpaceTimeGrid.regular(shape=(10, 10), times=(0.0, 1.0, 2.0, 3.0, 4.0))
        matrix = build_covariance_matrix(model, grid)
        assert_array_equal(matrix, matrix.T)
        assert_array_equal(np.diag(matrix), np.ones(grid.size))
        factor = cholesky(matrix)
        assert factor.jitter_used <= 1e-8
        reconstructed = factor.lower @ factor.lower.T
        assert np.max(np.abs(reconstructed - matrix)) <= 1e-8 * grid.size


class ConstantModel(CorrelationModel):
    """Correlation ``off_diagonal`` between any two distinct sites."""

    def __init__(self, off_diagonal):
        self.off_diagonal = off_diagonal

    def rho(self, h, u):
        same = (np.abs(np.asarray(h)).sum(axis=-1) == 0.0) & (np.asarray(u) == 0.0)
        return np.where(same, 1.0, self.off_diagonal)


class TestLowRankFactor:
    GRID = SpaceTimeGrid.regular(shape=(20, 20), times=(0.0, 1.0, 2.0))  # N = 1200
    # at hr_grid's lags the smooth models are numerically low-rank; the
    # powered-exponential ones (ma_mixture, bernstein) keep full rank
    LOW_RANK = ("gneiting", "separable", "aniso_gneiting")

    @pytest.mark.parametrize("name", CATALOGUE)
    def test_reproduces_the_dense_matrix(self, name):
        model = CountingModel(CATALOGUE[name])
        factor = low_rank_factor(model, self.GRID, HR_GRID_SCALE)
        size = self.GRID.size
        matrix = build_covariance_matrix(CATALOGUE[name], self.GRID, scale=HR_GRID_SCALE)
        assert factor.lower.shape == (size, factor.rank)
        assert np.abs(factor.lower @ factor.lower.T - matrix).max() <= RANK_TOLERANCE
        residual = np.diag(matrix) - np.einsum("ij,ij->i", factor.lower, factor.lower)
        # tracked by r subtractions, each rounded at unit scale
        assert factor.residual == pytest.approx(residual.max(),
                                                abs=factor.rank * np.finfo(float).eps)
        assert factor.residual <= RANK_TOLERANCE
        assert factor.jitter_used == 0.0
        if name in self.LOW_RANK:
            assert factor.rank < size
        # rho runs on the accepted pivots' columns and a b x b block per step
        assert model.evaluations <= size * (factor.rank + _PIVOT_BLOCK)

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
        with pytest.raises(FactorizationError):
            cholesky(build_covariance_matrix(ConstantModel(-0.9), grid))
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
        factor = cholesky(build_covariance_matrix(GNEITING, grid))
        draws = sample_replications(factor, substream(123, 0, 0), 100_000)[:, 0]
        assert abs(draws.mean()) <= 0.02
        assert 0.97 <= draws.var() <= 1.03

    def test_pair_correlation(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0, 10.0]))
        factor = cholesky(build_covariance_matrix(GNEITING, grid))  # rho = 0.25
        draws = sample_replications(factor, substream(42, 0, 0), 100_000)
        empirical = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(empirical - 0.25) <= 0.02

    def test_determinism_same_stream(self):
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0, 1.0))
        factor = cholesky(build_covariance_matrix(GNEITING, grid))
        for count in (1, 3):
            a = sample_replications(factor, substream(7, 0, 4), count)
            b = sample_replications(factor, substream(7, 0, 4), count)
            assert a.shape == (count, grid.size)
            assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0,))
        factor = cholesky(build_covariance_matrix(GNEITING, grid))
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
        draws = sample_replications(cholesky(matrix), substream(99, 0, 0), 60_000)
        empirical = np.cov(draws.T)
        assert np.max(np.abs(empirical - matrix)) <= 0.03
