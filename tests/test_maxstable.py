"""Both max-stable constructions: transforms, marginals, joints, stopping rules."""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from stormfields import (
    GneitingModel,
    MarginalKind,
    SpaceTimeGrid,
    StormEvent,
    StormModelParams,
    bivariate_cdf_hr,
    delta,
    equivalent_storm_params,
    delta_from_storm,
    bivariate_cdf_smith,
    husler_reiss_block,
    husler_reiss_field,
    normalize_maxima,
    rescaled_factor,
    sample_replications,
    simulate_storm_field,
    SmoothnessExpansion,
    SpaceTimeLag,
    std_normal_quantile,
    storm_field_from_events,
    substream,
    transform_marginal,
)
from stormfields.errors import DomainError, NotPositiveDefiniteError, UnsupportedModelError
from stormfields.streams import FIELD_PURPOSE

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
        assert transform_marginal(Z_E_INV, 1, MarginalKind.FRECHET) == pytest.approx(1.0, rel=1e-12)

    def test_gumbel_zero_point(self):
        assert transform_marginal(Z_E_INV, 1, MarginalKind.GUMBEL) == pytest.approx(0.0, abs=1e-12)

    def test_weibull_minus_one_point(self):
        assert transform_marginal(Z_E_INV, 1, MarginalKind.WEIBULL) == pytest.approx(-1.0, rel=1e-12)

    def test_clamping_keeps_values_finite(self):
        extreme = np.array([-400.0, 400.0])
        for kind in MarginalKind:
            out = transform_marginal(extreme, 10, kind)
            assert np.all(np.isfinite(out))

    def test_string_kind_accepted(self):
        assert transform_marginal(Z_E_INV, 1, "frechet") == pytest.approx(1.0, rel=1e-12)

    def test_normalization(self):
        assert normalize_maxima(5.0, 10, MarginalKind.FRECHET) == 0.5
        assert normalize_maxima(5.0, 10, MarginalKind.GUMBEL) == pytest.approx(5.0 - math.log(10))
        assert normalize_maxima(-0.5, 10, MarginalKind.WEIBULL) == -5.0

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            transform_marginal(0.0, 0, MarginalKind.FRECHET)


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
            transformed = transform_marginal(sample_replications(factor, rng, n), n, kind)
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
        # field is -1/frechet.
        grid = SpaceTimeGrid.regular(shape=(20, 20), times=(0.0, 1.0))
        factor = rescaled_factor(GNEITING, grid, 100)
        frechet = husler_reiss_field(
            GNEITING, grid, 100, MarginalKind.FRECHET, 2024, 0, factor=factor
        ).values
        gumbel = husler_reiss_field(
            GNEITING, grid, 100, MarginalKind.GUMBEL, 2024, 0, factor=factor
        ).values
        weibull = husler_reiss_field(
            GNEITING, grid, 100, MarginalKind.WEIBULL, 2024, 0, factor=factor
        ).values
        np.testing.assert_allclose(gumbel, np.log(frechet), rtol=1e-12)
        np.testing.assert_allclose(weibull, -1.0 / frechet, rtol=1e-12)

        def peakedness(values):
            med = np.median(values)
            return (values.max() - med) / (np.quantile(values, 0.9) - med)

        assert peakedness(frechet) > 4.0
        assert peakedness(gumbel) < 3.0


class TestStormSimulator:
    PARAMS = StormModelParams(np.eye(2), 1.0)

    def test_forced_event_peak(self):
        grid = SpaceTimeGrid(np.array([[2.0, 3.0]]), np.array([5.0]))
        event = StormEvent(intensity=1.0, center=(2.0, 3.0), peak_time=5.0)
        field = storm_field_from_events([event], grid, self.PARAMS)
        assert field.values[0] == pytest.approx(0.063493635934240969786, rel=1e-14)

    def test_additional_event_never_decreases(self):
        grid = SpaceTimeGrid.regular(shape=(4, 4), times=(0.0, 1.0))
        first = StormEvent(1.0, (1.0, 1.0), 0.0)
        second = StormEvent(0.7, (2.5, 2.5), 1.0)
        one = storm_field_from_events([first], grid, self.PARAMS)
        both = storm_field_from_events([first, second], grid, self.PARAMS)
        assert np.all(both.values >= one.values)
        assert np.any(both.values > one.values)

    def test_determinism(self):
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0, 1.0))
        a = simulate_storm_field(self.PARAMS, grid, 77, 5)
        b = simulate_storm_field(self.PARAMS, grid, 77, 5)
        c = simulate_storm_field(self.PARAMS, grid, 77, 6)
        assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_batch_size_does_not_change_results(self):
        # overshoot events past the stopping point are pointwise no-ops
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0,))
        a = simulate_storm_field(self.PARAMS, grid, 13, 0, batch_size=16)
        b = simulate_storm_field(self.PARAMS, grid, 13, 0, batch_size=256)
        assert_array_equal(a.values, b.values)

    def test_positive_values(self):
        grid = SpaceTimeGrid.regular(shape=(3, 3), times=(0.0,))
        field = simulate_storm_field(self.PARAMS, grid, 3, 0)
        assert np.all(field.values > 0.0)

    def test_single_site_marginal_frechet(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0]))
        values = np.array([
            simulate_storm_field(self.PARAMS, grid, 41, i).values[0] for i in range(4000)
        ])
        d = ks_distance(values, lambda y: np.exp(-1.0 / y))
        assert d <= 0.03

    def test_two_site_joint_against_closed_form(self):
        # spatial pair at lag (1, 0), u = 0, against the exact reduction
        grid = SpaceTimeGrid(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0]))
        fields = np.array([
            simulate_storm_field(self.PARAMS, grid, 43, i).values for i in range(10_000)
        ])
        for y in (0.5, 1.0, 2.0):
            empirical = np.mean((fields[:, 0] <= y) & (fields[:, 1] <= y))
            theory = bivariate_cdf_smith(y, y, (1.0, 0.0), 0.0, self.PARAMS)
            assert abs(empirical - theory) <= 0.02

    def test_max_stability_smoke(self):
        # (1/m) max of m independent copies has the same law as one copy
        grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0]))
        m = 5
        values = np.array([
            simulate_storm_field(self.PARAMS, grid, 47, i).values[0] for i in range(m * 10_000)
        ]).reshape(10_000, m)
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
        for i in range(30):
            rough = simulate_storm_field(coarse, grid, 53, i)
            refined = simulate_storm_field(fine, grid, 53, i)
            bound = coarse.intensity_floor * coarse.peak_density
            assert np.max(np.abs(refined.values - rough.values)) <= bound
            assert np.all(refined.values >= rough.values - 1e-15)

    def test_requires_2d_grid(self):
        grid = SpaceTimeGrid(np.array([[0.0, 0.0, 0.0]]), np.array([0.0]))
        with pytest.raises(DomainError):
            simulate_storm_field(self.PARAMS, grid, 0)

    def test_non_spd_sigma_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            StormModelParams(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)


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
