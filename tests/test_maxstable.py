"""Both max-stable constructions: transforms, marginals, joints, stopping rules."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from stormfields import (
    GneitingModel,
    MarginalKind,
    SpaceTimeGrid,
    StormModelParams,
    bivariate_cdf_hr,
    delta,
    equivalent_storm_params,
    delta_from_storm,
    bivariate_cdf_smith,
    husler_reiss_block,
    husler_reiss_field,
    rescaled_factor,
    simulate_storm_field,
    storm_block,
    SmoothnessExpansion,
    SpaceTimeLag,
)
from stormfields import maxstable
from stormfields.errors import DomainError, NotPositiveDefiniteError, UnsupportedModelError
from stormfields.gaussfield import low_rank_factor, sample_replications
from stormfields.maxstable import normalize_maxima, transform_marginal
from stormfields.numerics import std_normal_quantile
from stormfields.streams import FIELD_PURPOSE, substream

GNEITING = GneitingModel(a=0.03, b=0.03, nu=1.5, gamma=1.0)
Z_E_INV = std_normal_quantile(math.exp(-1.0))  # z with Phi(z) = 1/e


def ks_distance(sample, cdf):
    """One-sample Kolmogorov-Smirnov statistic against a callable CDF."""
    x = np.sort(np.asarray(sample))
    n = len(x)
    theory = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - theory)
    lower = np.max(theory - np.arange(0, n) / n)
    return max(upper, lower)


class TestMarginalTransforms:
    def test_frechet_unit_point(self):
        assert transform_marginal(Z_E_INV, MarginalKind.FRECHET) == pytest.approx(1.0, rel=1e-12)

    def test_gumbel_zero_point(self):
        assert transform_marginal(Z_E_INV, MarginalKind.GUMBEL) == pytest.approx(0.0, abs=1e-12)

    def test_weibull_minus_one_point(self):
        assert transform_marginal(Z_E_INV, MarginalKind.WEIBULL) == pytest.approx(-1.0, rel=1e-12)

    def test_clamping_keeps_values_finite(self):
        extreme = np.array([-400.0, 400.0])
        for kind in MarginalKind:
            out = transform_marginal(extreme, kind)
            assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("kind", list(MarginalKind))
    def test_monotone_at_neighbouring_doubles(self, kind):
        # transforming the Gaussian maximum equals the maximum of the
        # transformed replications only if no step of one ulp lowers a value
        z = np.random.default_rng(20240).uniform(-8.0, 8.0, 200_000)
        up = transform_marginal(np.nextafter(z, np.inf), kind)
        assert np.all(up >= transform_marginal(z, kind))

    def test_string_kind_accepted(self):
        assert transform_marginal(Z_E_INV, "frechet") == pytest.approx(1.0, rel=1e-12)

    def test_normalization(self):
        assert normalize_maxima(5.0, 10, MarginalKind.FRECHET) == 0.5
        assert normalize_maxima(5.0, 10, MarginalKind.GUMBEL) == pytest.approx(5.0 - math.log(10))
        assert normalize_maxima(-0.5, 10, MarginalKind.WEIBULL) == -5.0

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            normalize_maxima(1.0, 0, MarginalKind.FRECHET)


class TestHuslerReissField:
    def test_determinism(self):
        grid = SpaceTimeGrid.regular(shape=(4, 4), times=(0.0, 1.0))
        factor = rescaled_factor(GNEITING, grid, 50)
        a = husler_reiss_field(GNEITING, grid, 50, MarginalKind.FRECHET, 11, 3, factor=factor)
        b = husler_reiss_field(GNEITING, grid, 50, MarginalKind.FRECHET, 11, 3, factor=factor)
        c = husler_reiss_field(GNEITING, grid, 50, MarginalKind.FRECHET, 11, 4, factor=factor)
        assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert a.seed_info == (11, 3)

    def test_factor_reuse_matches_internal_assembly(self):
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0, 1.0))
        factor = rescaled_factor(GNEITING, grid, 64)
        a = husler_reiss_field(GNEITING, grid, 64, MarginalKind.FRECHET, 5, 0, factor=factor)
        b = husler_reiss_field(GNEITING, grid, 64, MarginalKind.FRECHET, 5, 0)
        assert_array_equal(a.values, b.values)

    def test_single_site_frechet_marginal(self):
        # the single-site law is exactly standard Frechet for every n
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0]))
        factor = rescaled_factor(GNEITING, grid, 200)
        values = np.array([
            husler_reiss_field(GNEITING, grid, 200, MarginalKind.FRECHET, 21, i, factor=factor).values[0]
            for i in range(2000)
        ])
        d = ks_distance(values, lambda y: np.exp(-1.0 / y))
        assert d <= 0.04

    def test_single_site_gumbel_marginal(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0]))
        factor = rescaled_factor(GNEITING, grid, 200)
        values = np.array([
            husler_reiss_field(GNEITING, grid, 200, MarginalKind.GUMBEL, 22, i, factor=factor).values[0]
            for i in range(2000)
        ])
        d = ks_distance(values, lambda y: np.exp(-np.exp(-y)))
        assert d <= 0.04

    def test_single_site_weibull_marginal(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0]))
        factor = rescaled_factor(GNEITING, grid, 200)
        values = np.array([
            husler_reiss_field(GNEITING, grid, 200, MarginalKind.WEIBULL, 23, i, factor=factor).values[0]
            for i in range(2000)
        ])
        assert np.all(values <= 0.0)
        d = ks_distance(values, lambda y: np.exp(np.minimum(y, 0.0)))
        assert d <= 0.04

    def test_two_site_joint_against_closed_form(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([0.0]))
        n = 1000
        factor = rescaled_factor(GNEITING, grid, n)
        fields = np.array([
            husler_reiss_field(GNEITING, grid, n, MarginalKind.FRECHET, 31, i, factor=factor).values
            for i in range(3000)
        ])
        dependence = delta(GNEITING.expansion(), SpaceTimeLag((2.0, 0.0), 0.0))
        for y in (1.0, 2.0):
            empirical = np.mean((fields[:, 0] <= y) & (fields[:, 1] <= y))
            assert abs(empirical - bivariate_cdf_hr(y, y, dependence)) <= 0.04

    def test_small_n_rejected(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0]))
        with pytest.raises(DomainError):
            husler_reiss_field(GNEITING, grid, 1, MarginalKind.FRECHET, 0)

    def test_factor_grid_size_mismatch(self):
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0,))
        four_sites = low_rank_factor(GNEITING, SpaceTimeGrid.regular(shape=(2, 2), times=(0.0,)))
        with pytest.raises(DomainError):
            husler_reiss_field(GNEITING, grid, 50, MarginalKind.FRECHET, 0, factor=four_sites)

    def test_factor_peak_memory_below_one_dense_matrix(self):
        # 20 x 20 x 3: N = 1200, 8 N^2 = 11.5 MB.  The dense matrix alone is
        # that much; the pivoted factor at rank 494 is 4.7 MB.
        grid = SpaceTimeGrid.regular(shape=(20, 20), times=(0.0, 1.0, 2.0))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            factor = rescaled_factor(GNEITING, grid, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor.rank < grid.size
        assert peak - start < 8 * grid.size ** 2

    @pytest.mark.parametrize("kind", list(MarginalKind))
    @pytest.mark.parametrize("n", [2, 100, 1000])
    def test_transform_after_max_matches_transform_first(self, n, kind):
        # The field transforms the Gaussian maximum once per site; the
        # reference transforms every replication and then takes the maximum.
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0, 1.0))
        factor = rescaled_factor(GNEITING, grid, n)
        seed, k = 77, 7

        def transform_first(realization):
            rng = substream(seed, FIELD_PURPOSE, realization)
            transformed = transform_marginal(sample_replications(factor, rng, n), kind)
            return normalize_maxima(transformed.max(axis=0), n, kind)

        singles = np.array([
            husler_reiss_field(GNEITING, grid, n, kind, seed, r, factor=factor).values
            for r in range(k)
        ])
        assert_array_equal(singles, np.array([transform_first(r) for r in range(k)]))
        for cuts in ([], [1], [3], [2, 5], [1, 2, 3, 4, 5, 6]):
            edges = [0, *cuts, k]
            blocks = [
                husler_reiss_block(factor, n, kind, seed, range(a, b))
                for a, b in zip(edges[:-1], edges[1:])
            ]
            assert_array_equal(np.concatenate(blocks), singles)

    def test_block_shape_and_small_n(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0]))
        factor = rescaled_factor(GNEITING, grid, 10)
        assert husler_reiss_block(factor, 10, MarginalKind.FRECHET, 1, range(0)).shape == (0, 2)
        assert husler_reiss_block(factor, 10, MarginalKind.FRECHET, 1, [4, 2]).shape == (2, 2)
        with pytest.raises(DomainError):
            husler_reiss_block(factor, 1, MarginalKind.FRECHET, 1, [0])

    def test_peak_structure_across_marginals(self):
        # Frechet fields show isolated heavy peaks; the Gumbel field is the
        # exact pointwise log of the Frechet field (the marginal transforms
        # commute with the maximum), hence visibly flatter, and the Weibull
        # field is -1/frechet.  A quarter to a third of the Frechet
        # realizations have a peakedness below 4, so the median over 50
        # realizations is tested.
        grid = SpaceTimeGrid.regular(shape=(20, 20), times=(0.0, 1.0))
        factor = rescaled_factor(GNEITING, grid, 100)
        frechet, gumbel, weibull = (
            husler_reiss_block(factor, 100, kind, 2024, range(50))
            for kind in (MarginalKind.FRECHET, MarginalKind.GUMBEL, MarginalKind.WEIBULL)
        )
        # Gumbel subtracts log(100) where log(frechet) divides by 100 first,
        # so the two agree to a few ulps of log(100) absolutely, not
        # relatively, where the values cross zero
        np.testing.assert_allclose(gumbel, np.log(frechet), rtol=1e-12,
                                   atol=4 * np.spacing(math.log(100)))
        np.testing.assert_allclose(weibull, -1.0 / frechet, rtol=1e-12)

        def peakedness(values):
            med = np.median(values, axis=-1)
            return (values.max(axis=-1) - med) / (np.quantile(values, 0.9, axis=-1) - med)

        assert np.median(peakedness(frechet)) > 4.0
        assert np.median(peakedness(gumbel)) < 3.0


class TestStormSimulator:
    PARAMS = StormModelParams(np.eye(2), 1.0)

    @classmethod
    def fold(cls, events, grid):
        """Field of the given (intensity, (cx, cy), peak_time) events alone."""
        intensities, centers, peak_times = (np.array(c, dtype=float) for c in zip(*events))
        params = cls.PARAMS
        return maxstable._event_maxima(
            np.zeros(grid.size), 0.0, intensities, centers, peak_times, grid.spatial_points,
            grid.time_points, params.spatial_precision, 1.0 / params.sigma_time_sq,
            params.peak_density,
        )

    def test_forced_event_peak(self):
        grid = SpaceTimeGrid(np.array([[2.0, 3.0]]), np.array([5.0]))
        field = self.fold([(1.0, (2.0, 3.0), 5.0)], grid)
        assert field[0] == pytest.approx(0.063493635934240969786, rel=1e-14)

    def test_additional_event_never_decreases(self):
        grid = SpaceTimeGrid.regular(shape=(4, 4), times=(0.0, 1.0))
        first = (1.0, (1.0, 1.0), 0.0)
        second = (0.7, (2.5, 2.5), 1.0)
        one = self.fold([first], grid)
        both = self.fold([first, second], grid)
        assert np.all(both >= one)
        assert np.any(both > one)

    def test_determinism(self):
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0, 1.0))
        a = simulate_storm_field(self.PARAMS, grid, 77, 5)
        b = simulate_storm_field(self.PARAMS, grid, 77, 5)
        c = simulate_storm_field(self.PARAMS, grid, 77, 6)
        assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_batch_size_does_not_change_results(self, monkeypatch):
        # overshoot events past the stopping point are pointwise no-ops
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0,))
        monkeypatch.setattr(maxstable, "_STORM_BATCH", 16)
        a = simulate_storm_field(self.PARAMS, grid, 13, 0)
        monkeypatch.setattr(maxstable, "_STORM_BATCH", 256)
        b = simulate_storm_field(self.PARAMS, grid, 13, 0)
        assert_array_equal(a.values, b.values)

    def test_positive_values(self):
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0,))
        field = simulate_storm_field(self.PARAMS, grid, 3, 0)
        assert np.all(field.values > 0.0)

    def test_single_site_marginal_frechet(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0]))
        values = storm_block(self.PARAMS, grid, 41, range(4000))[:, 0]
        d = ks_distance(values, lambda y: np.exp(-1.0 / y))
        assert d <= 0.03

    def test_two_site_joint_against_closed_form(self):
        # spatial pair at lag (1, 0), u = 0, against the exact reduction
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0]))
        fields = storm_block(self.PARAMS, grid, 43, range(10_000))
        for y in (0.5, 1.0, 2.0):
            empirical = np.mean((fields[:, 0] <= y) & (fields[:, 1] <= y))
            theory = bivariate_cdf_smith(y, y, (1.0, 0.0), 0.0, self.PARAMS)
            assert abs(empirical - theory) <= 0.02

    def test_max_stability_smoke(self):
        # (1/m) max of m independent copies has the same law as one copy
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0]))
        m = 5
        values = storm_block(self.PARAMS, grid, 47, range(m * 10_000)).reshape(10_000, m)
        pooled = values.max(axis=1) / m
        base = np.sort(values[:, 0])
        rescaled = np.sort(pooled)
        # two-sample KS distance via the merged grid
        merged = np.concatenate([base, rescaled])
        cdf_a = np.searchsorted(base, merged, side="right") / len(base)
        cdf_b = np.searchsorted(rescaled, merged, side="right") / len(rescaled)
        assert np.max(np.abs(cdf_a - cdf_b)) < 0.03

    def test_truncation_soundness(self):
        # lowering the intensity floor tenfold moves no grid value by more
        # than floor * peak kernel density
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0,))
        coarse = StormModelParams(np.eye(2), 1.0, intensity_floor=2.0)
        fine = StormModelParams(np.eye(2), 1.0, intensity_floor=0.2)
        rough = storm_block(coarse, grid, 53, range(30))
        refined = storm_block(fine, grid, 53, range(30))
        bound = coarse.intensity_floor * coarse.peak_density
        assert np.max(np.abs(refined - rough)) <= bound
        assert np.all(refined >= rough - 1e-15)

    def test_requires_2d_grid(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0, 0.0]]), np.array([0.0]))
        with pytest.raises(DomainError):
            simulate_storm_field(self.PARAMS, grid, 0)

    def test_non_spd_sigma_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            StormModelParams(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)


def nan_event_maxima(field, *args):
    """A fold that returns NaN at every point."""
    return np.full(field.shape, np.nan)


class TestStormBlock:
    """Rows of ``storm_block`` are bitwise the one-realization fields."""

    PARAMS = StormModelParams(np.array([[1.0, 0.3], [0.3, 0.8]]), 1.5)
    GRIDS = {
        # six points: fewer than _REACH_MIN_PAIRS (event, point) pairs per batch
        "dense": SpaceTimeGrid(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]),
                               np.array([0.0, 1.0])),
        # 300 points: at least _REACH_MIN_PAIRS pairs for 14 or more events
        "reach": SpaceTimeGrid.regular(shape=(10, 10), spacing=0.5, times=(0.0, 1.0, 2.5)),
    }
    GROUPINGS = {
        "one block": [range(12)],
        "two blocks": [range(0, 5), range(5, 12)],
        "one row each": [range(r, r + 1) for r in range(12)],
        "unordered": [[7, 2, 11], [0, 9]],
    }

    @pytest.mark.parametrize("batch", [16, 64])
    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_rows_equal_single_realizations(self, grid, batch, monkeypatch):
        monkeypatch.setattr(maxstable, "_STORM_BATCH", batch)
        single = np.array([simulate_storm_field(self.PARAMS, grid, 29, r).values
                           for r in range(12)])
        for name, groups in self.GROUPINGS.items():
            for realizations in groups:
                rows = storm_block(self.PARAMS, grid, 29, realizations)
                assert rows.shape == (len(realizations), grid.size), name
                assert rows.tobytes() == single[list(realizations)].tobytes(), name

    def test_non_finite_value_raises(self, monkeypatch):
        # a floor this high stops every realization after a few dozen events
        params = StormModelParams(np.eye(2), 1.0, intensity_floor=20.0)
        monkeypatch.setattr(maxstable, "_event_maxima", nan_event_maxima)
        with pytest.raises(DomainError, match="field values must be finite"):
            storm_block(params, self.GRIDS["dense"], 3, range(4))


def dense_event_maxima(field, current_min, intensities, centers, peak_times, points,
                       time_points, precision, inv_s3sq, norm_const):
    """Reference fold: every event evaluated at every grid point; ``current_min`` is unused."""
    coords = np.tile(points, (len(time_points), 1))
    times = np.repeat(time_points, len(points))
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


@pytest.fixture(params=["default", "reach"])
def fold_choice(request, monkeypatch):
    """The default choice of fold, or the reach fold on every batch it can take."""
    if request.param == "reach":
        monkeypatch.setattr(maxstable, "_REACH_MIN_PAIRS", 0)


@pytest.mark.usefixtures("fold_choice")
class TestLocalFold:
    """The reach-limited fold is bitwise the dense fold."""

    # irregular, unsorted spatial points and unsorted time points
    POINTS = np.random.default_rng(61).uniform(-4.0, 4.0, size=(50, 2))
    TIMES = np.array([2.5, -1.0, 0.3, 1.7])

    @staticmethod
    def fold_both(params, field, intensities, centers, peak_times, points, times):
        args = (field.min(), intensities, centers, peak_times, points, times,
                params.spatial_precision, 1.0 / params.sigma_time_sq, params.peak_density)
        return maxstable._event_maxima(field, *args), dense_event_maxima(field, *args)

    @pytest.mark.parametrize("sigma, s3sq", [
        (np.eye(2), 1.0),
        (np.array([[1.0, 0.6], [0.6, 2.0]]), 1.0),
        (np.array([[0.5, -0.3], [-0.3, 0.4]]), 0.3),
        (np.array([[1.0, 0.99], [0.99, 1.0]]), 1.0),
        (np.array([[4.0, 0.0], [0.0, 0.05]]), 1.0),
    ])
    def test_random_batches_with_positive_minimum(self, sigma, s3sq):
        params = StormModelParams(sigma, s3sq)
        peak = params.peak_density
        rng = np.random.default_rng(62)
        size = len(self.POINTS) * len(self.TIMES)
        raised = 0
        for _ in range(40):
            m = float(rng.uniform(0.01, 1.0))
            field = m * (1.0 + rng.exponential(0.5, size))
            field[rng.integers(size)] = m
            k = int(rng.integers(1, 30))
            intensities = np.sort(m / peak * np.exp(rng.uniform(0.0, 6.0, k)))[::-1]
            centers = rng.uniform(-7.0, 7.0, size=(k, 2))
            peak_times = rng.uniform(-3.0, 4.5, k)
            local, dense = self.fold_both(params, field, intensities, centers, peak_times,
                                          self.POINTS, self.TIMES)
            assert local.tobytes() == dense.tobytes()
            raised += int(np.count_nonzero(dense > field))
        assert raised > 100

    def test_event_on_its_reach_boundary(self):
        # one event whose contribution at one point equals the field minimum,
        # and intensities a few ulps to a few 1e-10 either side of it
        params = StormModelParams(np.array([[1.0, 0.6], [0.6, 2.0]]), 1.0)
        m = 0.37
        field = m * (1.0 + np.random.default_rng(63).exponential(0.5, 200))
        j = 77  # time index 1, spatial index 27
        field[j] = m
        center = self.POINTS[27] + np.array([[0.7, -0.4]])
        peak_time = self.TIMES[1] + np.array([0.5])
        _, unit = self.fold_both(params, np.zeros(200), np.array([1.0]), center, peak_time,
                                 self.POINTS, self.TIMES)
        on_boundary = m / unit[j]
        for offset in (-4e-10, -2e-10, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 2e-10, 4e-10):
            intensity = np.array([on_boundary * (1.0 + offset)])
            local, dense = self.fold_both(params, field, intensity, center, peak_time,
                                          self.POINTS, self.TIMES)
            assert local.tobytes() == dense.tobytes()
            if offset >= 2e-10:
                assert dense[j] > m

    @pytest.mark.parametrize("shift", [1e6, 2.0**31])
    def test_slab_edge_at_large_coordinates(self, shift):
        # Sites near x = shift, where consecutive doubles are np.spacing(shift)
        # apart, so the slab ends cx -/+ half of the fold round.  Columns of
        # tied x sit on consecutive doubles around both edges of the event's
        # reach, each with a site at the y that minimizes the quadratic form,
        # and intensities a fraction of an ulp of reach apart sweep the edge
        # across them.
        params = StormModelParams(np.array([[1.0, 0.6], [0.6, 2.0]]), 1.0)
        p = params.spatial_precision
        sigma_xx = p[1, 1] / (p[0, 0] * p[1, 1] - p[0, 1] * p[0, 1])
        peak = params.peak_density
        cx, cy = shift + 0.25, 0.5
        ulp = float(np.spacing(cx))
        # the x-gap between the raise edge, quad = 2 log(I peak / m), and the
        # slab edge is least near this half-width: sqrt(margin / (2 pad))
        radius = 0.022
        edge = round(radius / ulp) * ulp
        offsets = [side * (edge + k * ulp) for side in (-1, 1) for k in range(-3, 4)] + [0.0]
        points = []
        for d in offsets:
            y = cy - p[0, 1] * d / p[1, 1]  # dy = cy - y = -P01 dx / P11 at dx = -d
            points += [(cx + d, y), (cx + d, y + 0.5), (cx + d, y - 0.5)]
        points = np.random.default_rng(64).permutation(np.array(points))
        times = np.array([1.0, 0.0])
        m = 0.37
        field = np.full(2 * len(points), m)
        center, peak_time = np.array([[cx, cy]]), np.array([0.0])
        step = 0.075 * ulp * radius / sigma_xx
        lows, highs, on_rounded_end = set(), set(), 0
        for j in range(-20, 21):
            log_ratio = radius ** 2 / (2.0 * sigma_xx) + j * step
            intensity = np.array([m / peak * math.exp(log_ratio)])
            local, dense = self.fold_both(params, field, intensity, center, peak_time,
                                          points, times)
            assert local.tobytes() == dense.tobytes()
            # the slab ends as ``_event_maxima`` computes them
            half = math.sqrt((2.0 * math.log(intensity[0] * peak / m) + maxstable._REACH_MARGIN)
                             * sigma_xx) * (1.0 + maxstable._SLAB_PAD)
            assert (cx + half) - cx != half
            x = points[dense[len(points):] > m, 0]  # time 0.0, the event's peak time
            lows.add(x.min())
            highs.add(x.max())
            on_rounded_end += int(x.min() == cx - half or x.max() == cx + half)
        # the edge crossed a double on each side
        assert len(lows) >= 2 and len(highs) >= 2
        if ulp > 1e-7:
            # an ulp exceeds the gap between the raise edge and the slab edge,
            # so a raised site lies on a rounded slab end
            assert on_rounded_end > 0

    def test_batch_out_of_reach_leaves_field_unchanged(self):
        # every event has reach <= 0: too weak, or peaking too far in time
        params = StormModelParams(np.array([[1.0, 0.6], [0.6, 2.0]]), 1.0)
        peak = params.peak_density
        rng = np.random.default_rng(65)
        size = len(self.POINTS) * len(self.TIMES)
        m = 0.2
        field = m * (1.0 + rng.exponential(0.5, size))
        field[rng.integers(size)] = m
        weak = m / peak * rng.uniform(0.1, 0.999, 15)
        late = m / peak * np.exp(rng.uniform(0.0, 5.0, 15))
        intensities = np.concatenate([weak, late])
        centers = rng.uniform(-4.0, 4.0, size=(30, 2))
        peak_times = np.concatenate([rng.uniform(-1.0, 2.5, 15), np.full(15, 9.0)])
        with warnings.catch_warnings():
            # no slab is computed from a negative reach
            warnings.simplefilter("error")
            local, dense = self.fold_both(params, field, intensities, centers, peak_times,
                                          self.POINTS, self.TIMES)
        assert local.tobytes() == field.tobytes()
        assert dense.tobytes() == field.tobytes()

    def test_near_singular_precision(self):
        # the precision of Sigma = [[1, r], [r, 1]] at r = 1 - 1e-14, where the
        # computed form at this site is 7.4375 and its exact value 7.5408, so
        # the site lies outside the event's x-slab yet the dense fold raises it
        precision = np.array([[50039995859672.18, -50039995859671.68],
                              [-50039995859671.68, 50039995859672.18]])
        field = np.array([0.6193479058939575])
        args = (field.min(), np.array([5.727768995697408e-05]),
                np.array([[1.8905312130944258, 1.8905197882517828]]),
                np.array([0.002278310277123108]),
                np.array([[-0.8553701568836107, -0.8553815859029701]]), np.array([0.0]),
                precision, 1.0, 449147.3379506689)
        dense = dense_event_maxima(field, *args)
        assert dense[0] > field[0]
        assert maxstable._event_maxima(field, *args).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("seed", [20240, 7919, 5])
    def test_realizations_match_dense_reference(self, seed, monkeypatch):
        params = StormModelParams(np.eye(2), 1.0)
        grid = SpaceTimeGrid.regular(shape=(30, 30), times=(0.0, 1.0, 2.0, 3.0))
        local = {}
        # the last batch size is the default, at which the dense reference runs
        for b in (1, 7, 200, 64):
            monkeypatch.setattr(maxstable, "_STORM_BATCH", b)
            local[b] = simulate_storm_field(params, grid, seed, 0).values
        monkeypatch.setattr(maxstable, "_event_maxima", dense_event_maxima)
        dense = simulate_storm_field(params, grid, seed, 0).values
        for values in local.values():
            assert values.tobytes() == dense.tobytes()


class TestEquivalentStormParams:
    def test_reference_values(self):
        params = equivalent_storm_params(SmoothnessExpansion(2.0, 2.0, 0.045, 0.03))
        np.testing.assert_allclose(np.diag(params.sigma_space), [1 / 0.18, 1 / 0.18], rtol=1e-14)
        assert params.sigma_space[0, 1] == 0.0
        assert params.sigma_time_sq == pytest.approx(1 / 0.12, rel=1e-14)
        assert abs(params.sigma_space[0, 0] - 5.5556) < 1e-4
        assert abs(params.sigma_time_sq - 8.3333) < 1e-4

    def test_delta_roundtrip(self):
        expansion = SmoothnessExpansion(2.0, 2.0, 0.045, 0.03)
        params = equivalent_storm_params(expansion)
        rng = np.random.default_rng(10)
        for _ in range(100):
            h = rng.uniform(-5.0, 5.0, 2)
            u = float(rng.uniform(-5.0, 5.0))
            direct = delta(expansion, SpaceTimeLag(tuple(h), u))
            via_storm = delta_from_storm(params, h, u)
            assert via_storm == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_non_quadratic_rejected(self):
        with pytest.raises(UnsupportedModelError):
            equivalent_storm_params(SmoothnessExpansion(1.0, 2.0, 1.0, 1.0))
        with pytest.raises(UnsupportedModelError):
            equivalent_storm_params(SmoothnessExpansion(2.0, 1.0, 1.0, 1.0))
