"""Correlation-model catalogue: values, expansions, limits and invariants."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormfields import (
    AnisotropicModel,
    AnisotropyTransform,
    BernsteinModel,
    GneitingModel,
    MaMixtureModel,
    SmoothnessExpansion,
    delta_values,
    scaling_sequences,
    variogram_to_covariance,
)
from stormfields.covmodels import _squared_norm, apply_anisotropy
from stormfields.errors import DomainError, UnsupportedModelError


def separable(spatial_range, temporal_decay, dimension=2):
    """exp(-||h||^2 / spatial_range - temporal_decay * |u|), a one-atom Ma mixture."""
    return MaMixtureModel(
        atoms=((1.0, 1.0, 1.0),),
        spatial_scale=1.0 / spatial_range, spatial_exponent=2.0,
        temporal_scale=temporal_decay, temporal_exponent=1.0,
        dimension=dimension,
    )


GNEITING = GneitingModel(a=0.03, b=0.03, nu=1.5, gamma=1.0)
SEPARABLE = separable(spatial_range=1.0, temporal_decay=1.0)
MA_MIXTURE = MaMixtureModel(
    atoms=((0.5, 2.0, 0.3), (1.5, 0.5, 0.7)),
    spatial_scale=0.2, spatial_exponent=1.5,
    temporal_scale=0.4, temporal_exponent=1.0,
)
BERNSTEIN = BernsteinModel(
    spatial_scales=(0.5, 1.25),
    spatial_exponents=(0.8, 0.8),
    temporal_scale=0.6,
    temporal_exponent=0.5,
    atoms=((0.4, 1.0, 0.25), (1.2, 0.3, 0.75)),
)
ANISO_GNEITING = AnisotropicModel(
    base=GNEITING,
    transform=AnisotropyTransform(a_max=3.0, a_min=1.0, angle=math.radians(45.0)),
)

CATALOGUE = [GNEITING, SEPARABLE, MA_MIXTURE, BERNSTEIN, ANISO_GNEITING]
CATALOGUE_IDS = ["gneiting", "separable", "ma_mixture", "bernstein", "aniso_gneiting"]


def correlation(model, h, u) -> float:
    """Evaluate rho at a single space-time lag (h, u)."""
    if len(h) != model.dimension:
        raise DomainError(
            f"lag dimension {len(h)} does not match model dimension {model.dimension}"
        )
    return float(model.rho(np.asarray(h, dtype=float), u))


def random_lags(rng, dimension, count, scale=10.0):
    h = rng.uniform(-scale, scale, size=(count, dimension))
    u = rng.uniform(-scale, scale, size=count)
    return h, u


class TestCorrelationValues:
    def test_gneiting_zero_lag(self):
        assert correlation(GNEITING, (0.0, 0.0), 0.0) == 1.0

    def test_gneiting_pure_time(self):
        # psi(100)^{-d/2} with gamma = 1, d = 2: (1 + 0.03 * 100)^{-1} = 0.25
        assert correlation(GNEITING, (0.0, 0.0), 10.0) == pytest.approx(0.25, rel=1e-15)

    def test_gneiting_pure_space(self):
        # (1 + 0.03 * 25)^{-3/2} = 1.75^{-1.5}
        value = correlation(GNEITING, (3.0, 4.0), 0.0)
        assert value == pytest.approx(0.43195939772483111682, rel=1e-14)

    def test_gneiting_mixed_lag(self):
        value = correlation(GNEITING, (2.0, 0.0), 3.0)
        assert value == pytest.approx(0.68766933763819058019, rel=1e-14)

    def test_separable_e_fold(self):
        model = separable(spatial_range=4.0, temporal_decay=0.7)
        assert correlation(model, (2.0, 0.0), 0.0) == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )
        assert correlation(model, (0.0, 0.0), 1.0) == pytest.approx(
            math.exp(-0.7), rel=1e-15
        )

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_one_atom_mixture_is_the_separable_product(self, dimension):
        # the Gaussian-by-Ornstein-Uhlenbeck product is the one-atom Ma mixture
        spatial_range, temporal_decay = 4.0, 0.5
        model = separable(spatial_range, temporal_decay, dimension)
        rng = np.random.default_rng(33 + dimension)
        h, u = random_lags(rng, dimension, 20000)
        values = model.rho(h, u)
        product = np.exp(-np.sum(h * h, axis=-1) / spatial_range - temporal_decay * np.abs(u))
        kept = values > 1e-300
        assert kept.sum() > 1000
        np.testing.assert_allclose(values[kept], product[kept], rtol=1e-13, atol=0.0)
        e = model.expansion()
        assert (e.alpha_space, e.alpha_time, e.c_space, e.c_time) == (
            2.0, 1.0, 1.0 / spatial_range, temporal_decay)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            correlation(GNEITING, (1.0, 2.0, 3.0), 0.0)

    @pytest.mark.parametrize("model", CATALOGUE, ids=CATALOGUE_IDS)
    def test_basic_invariants(self, model):
        rng = np.random.default_rng(31)
        h, u = random_lags(rng, model.dimension, 1000)
        values = np.array([model.rho(h[i], u[i]) for i in range(len(u))])
        mirrored = np.array([model.rho(-h[i], -u[i]) for i in range(len(u))])
        assert correlation(model, (0.0,) * model.dimension, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert np.all(values > 0.0)
        assert np.all(values <= 1.0 + 1e-15)
        np.testing.assert_array_equal(values, mirrored)

    @pytest.mark.parametrize("model", CATALOGUE, ids=CATALOGUE_IDS)
    def test_even_in_u_bitwise(self, model):
        # low_rank_factor evaluates every row of C at |u| alone
        rng = np.random.default_rng(32)
        h, u = random_lags(rng, model.dimension, 1000)
        assert model.rho(h, u).tobytes() == model.rho(h, -u).tobytes()

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        h, u = random_lags(rng, 2, 50)
        batch = GNEITING.rho(h, u)
        single = [GNEITING.rho(h[i], u[i]) for i in range(50)]
        np.testing.assert_allclose(batch, single, rtol=1e-15)


class TestExpansions:
    def test_gneiting_constants(self):
        e = GNEITING.expansion()
        assert (e.alpha_space, e.alpha_time) == (2.0, 2.0)
        assert e.c_space == pytest.approx(0.045, rel=1e-15)
        assert e.c_time == pytest.approx(0.03, rel=1e-15)

    def test_gneiting_fractional_smoothness(self):
        e = GneitingModel(a=0.1, b=0.2, nu=2.0, gamma=0.5, beta1=0.75, beta2=0.5, dimension=3).expansion()
        assert e.alpha_space == pytest.approx(1.5)
        assert e.alpha_time == pytest.approx(1.0)
        assert e.c_space == pytest.approx(0.4)       # b * nu
        assert e.c_time == pytest.approx(0.075)      # (d/2) * a * gamma

    def test_separable_constants(self):
        e = separable(spatial_range=1.0, temporal_decay=1.0).expansion()
        assert (e.alpha_space, e.alpha_time, e.c_space, e.c_time) == (2.0, 1.0, 1.0, 1.0)

    def test_degenerate_mixture_is_base(self):
        single = MaMixtureModel(
            atoms=((1.0, 1.0, 1.0),),
            spatial_scale=0.2, spatial_exponent=1.5,
            temporal_scale=0.4, temporal_exponent=1.0,
        ).expansion()
        assert single.alpha_space == 1.5
        assert single.c_space == pytest.approx(0.2, rel=1e-15)
        assert single.alpha_time == 1.0
        assert single.c_time == pytest.approx(0.4, rel=1e-15)

    def test_ma_mixture_moment_weighting(self):
        e = MA_MIXTURE.expansion()
        m1 = 0.3 * 0.5 ** 1.5 + 0.7 * 1.5 ** 1.5
        m2 = 0.3 * 2.0 + 0.7 * 0.5
        assert e.c_space == pytest.approx(0.2 * m1, rel=1e-14)
        assert e.c_time == pytest.approx(0.4 * m2, rel=1e-14)

    def test_bernstein_componentwise_weights(self):
        e = BERNSTEIN.expansion()
        assert e.spatial_weights is not None
        assert len(e.spatial_weights) == 2
        # per-axis coefficients keep the scale ordering of the axes
        assert e.spatial_weights[1] == pytest.approx(2.5 * e.spatial_weights[0], rel=1e-12)
        assert e.c_space == pytest.approx(sum(e.spatial_weights), rel=1e-15)

    def test_bernstein_mixed_exponents_unsupported(self):
        model = BernsteinModel(
            spatial_scales=(1.0, 1.0),
            spatial_exponents=(0.5, 0.9),
            temporal_scale=1.0,
            temporal_exponent=1.0,
            atoms=((1.0, 1.0, 1.0),),
        )
        with pytest.raises(UnsupportedModelError):
            model.expansion()

    @pytest.mark.parametrize("model", CATALOGUE[:4], ids=CATALOGUE_IDS[:4])
    def test_expansion_consistency_probes(self, model):
        # (1 - rho(eps*h, 0)) / delta(eps*h, 0) -> 1 and the temporal
        # analogue, probed axis-separately to avoid the cross term in the
        # remainder; approach is monotone and within 5% at eps = 1e-4.
        expansion = model.expansion()
        h = np.full(model.dimension, 0.7)
        u = 1.3
        epsilons = (1e-2, 1e-3, 1e-4)

        spatial_ratios = [
            float((1.0 - model.rho(eps * h, 0.0)) / delta_values(expansion, eps * h, 0.0))
            for eps in epsilons
        ]
        temporal_ratios = [
            float((1.0 - model.rho(0.0 * h, eps * u)) / delta_values(expansion, 0.0 * h, eps * u))
            for eps in epsilons
        ]
        for ratios in (spatial_ratios, temporal_ratios):
            errors = [abs(r - 1.0) for r in ratios]
            # 1 - rho is ~1e-9 at the smallest probe, so the ratio carries
            # ~1e-7 of cancellation noise on top of the analytic trend.
            assert errors[0] >= errors[1] - 1e-6
            assert errors[1] >= errors[2] - 1e-6
            assert errors[2] <= 0.05

    @pytest.mark.parametrize("model", CATALOGUE, ids=CATALOGUE_IDS)
    def test_scaling_limit_small_lags(self, model):
        # log(n) * (1 - rho(s_n h, t_n u)) agrees with delta(h, u) within 1%
        # at n = 1e8.  The convergence rate is O(delta / log n), so at this n
        # the 1% regime is delta <~ 0.15; random lags are rescaled into it.
        expansion = model.expansion()
        n = 1e8
        log_n = math.log(n)
        s_n, t_n = scaling_sequences(expansion, n)
        alpha_min = min(expansion.alpha_space, expansion.alpha_time)
        rng = np.random.default_rng(77)
        h = rng.uniform(-1.0, 1.0, size=(100, model.dimension))
        u = rng.uniform(-1.0, 1.0, size=100)
        dependence = delta_values(expansion, h, u)
        shrink = np.minimum(1.0, (0.1 / dependence) ** (1.0 / alpha_min))
        h = h * shrink[:, None]
        u = u * shrink
        lhs = log_n * (1.0 - np.array([model.rho(s_n * h[i], t_n * u[i]) for i in range(100)]))
        target = delta_values(expansion, h, u)
        assert np.max(np.abs(lhs / target - 1.0)) <= 0.01

    @pytest.mark.parametrize("model", CATALOGUE[:4], ids=CATALOGUE_IDS[:4])
    def test_tightness_metric_bound(self, model):
        expansion = model.expansion()
        rng = np.random.default_rng(13)
        h, u = random_lags(rng, model.dimension, 500)
        values = delta_values(expansion, h, u)
        hnorm = np.linalg.norm(h, axis=-1)
        bound = 2.0 * max(expansion.c_space, expansion.c_time) * np.maximum(
            hnorm ** expansion.alpha_space, np.abs(u) ** expansion.alpha_time
        )
        assert np.all(values <= bound + 1e-12)


class TestDelta:
    EXPANSION = SmoothnessExpansion(2.0, 2.0, 0.045, 0.03)

    def test_zero_lag(self):
        assert delta_values(self.EXPANSION, (0.0, 0.0), 0.0) == 0.0

    def test_arithmetic(self):
        assert delta_values(self.EXPANSION, (1.0, 0.0), 1.0) == pytest.approx(0.075, rel=1e-15)

    def test_pure_rotation_matches_isotropic(self):
        # one row (h1, h2, u) per lag
        lags = np.random.default_rng(3).uniform(-5, 5, size=(20, 3))
        rotation_only = AnisotropyTransform(a_max=1.0, a_min=1.0, angle=0.83)
        rotated = dataclasses.replace(self.EXPANSION, anisotropy=rotation_only)
        assert delta_values(rotated, lags[:, :2], lags[:, 2]) == pytest.approx(
            delta_values(self.EXPANSION, lags[:, :2], lags[:, 2]), rel=1e-12
        )

    def test_positive_away_from_origin(self):
        lags = np.random.default_rng(4).uniform(-5, 5, size=(50, 3))
        away = np.linalg.norm(lags[:, :2], axis=1) + np.abs(lags[:, 2]) > 0
        assert np.all(delta_values(self.EXPANSION, lags[away, :2], lags[away, 2]) > 0.0)


class TestSquaredNorm:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_bitwise_equal_to_np_sum(self, dimension):
        # coordinates of unrelated magnitudes, 1e-150 to 1e150, where the
        # order of the additions decides the last bit; also the factor's
        # (pivot, time, point, axis) layout
        rng = np.random.default_rng(dimension)
        exponents = rng.integers(-150, 151, size=(4000, dimension))
        h = rng.uniform(-10.0, 10.0, size=(4000, dimension)) * 10.0 ** exponents
        for lags in (h, rng.uniform(-3.0, 3.0, size=(16, 1, 90, dimension)), h[0]):
            expected = np.sum(lags * lags, axis=-1)
            assert np.asarray(_squared_norm(lags)).tobytes() == np.asarray(expected).tobytes()
            assert type(_squared_norm(lags)) is type(expected)

    def test_overflowing_lag_is_infinite_without_a_warning(self):
        h = np.array([[1e200, 0.0], [3.0, 4.0], [1e160, 1e160]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(_squared_norm(h), [np.inf, 25.0, np.inf])
            model = GneitingModel(a=0.03, b=0.03, nu=1.5, gamma=1.0)
            np.testing.assert_array_equal(model.rho(h, 0.0)[[0, 2]], [0.0, 0.0])
            delta = delta_values(model.expansion(), h, 0.0)
            np.testing.assert_array_equal(delta[[0, 2]], [np.inf, np.inf])


class TestScalingSequences:
    def test_unit_log(self):
        assert scaling_sequences(TestDelta.EXPANSION, math.e) == (1.0, 1.0)

    def test_log_four(self):
        s_n, t_n = scaling_sequences(TestDelta.EXPANSION, math.exp(4.0))
        assert s_n == pytest.approx(0.5, rel=1e-15)
        assert t_n == pytest.approx(0.5, rel=1e-15)

    def test_decreasing_to_zero(self):
        e = SmoothnessExpansion(1.5, 1.0, 1.0, 1.0)
        values = [scaling_sequences(e, n) for n in (10, 10**3, 10**6, 10**12)]
        s = [v[0] for v in values]
        t = [v[1] for v in values]
        assert all(a > b for a, b in zip(s, s[1:]))
        assert all(a > b for a, b in zip(t, t[1:]))

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            scaling_sequences(TestDelta.EXPANSION, 1)


class TestAnisotropy:
    def test_identity(self):
        t = AnisotropyTransform(a_max=1.0, a_min=1.0, angle=0.0)
        np.testing.assert_allclose(apply_anisotropy(t, (3.0, 4.0)), [3.0, 4.0])

    def test_reference_parameters(self):
        # a_min = 1, a_max = 3, 45 degrees applied to (1, 0): the rotation
        # sends the 45-degree long-axis direction onto e1, so (1, 0) maps to
        # (cos45/3, -sin45); the component magnitudes are cos45/3 and sin45.
        t = AnisotropyTransform(a_max=3.0, a_min=1.0, angle=math.radians(45.0))
        out = apply_anisotropy(t, (1.0, 0.0))
        np.testing.assert_allclose(
            out, [math.cos(math.pi / 4) / 3.0, -math.sin(math.pi / 4)], rtol=1e-15
        )

    def test_angle_is_long_axis_direction(self):
        # at the same radius, dependence reaches farther along the configured
        # angle than across it by exactly the a_max/a_min ratio
        t = AnisotropyTransform(a_max=3.0, a_min=1.0, angle=math.radians(45.0))
        along = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)])
        across = np.array([-math.sin(math.pi / 4), math.cos(math.pi / 4)])
        assert np.linalg.norm(apply_anisotropy(t, along)) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert np.linalg.norm(apply_anisotropy(t, across)) == pytest.approx(1.0, rel=1e-14)

    def test_pure_rotation_preserves_norm(self):
        t = AnisotropyTransform(a_max=1.0, a_min=1.0, angle=1.1)
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = rng.uniform(-10, 10, 2)
            assert np.linalg.norm(apply_anisotropy(t, h)) == pytest.approx(
                np.linalg.norm(h), rel=1e-12
            )

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            AnisotropyTransform(a_max=1.0, a_min=2.0, angle=0.0)
        with pytest.raises(DomainError):
            apply_anisotropy(AnisotropyTransform(2.0, 1.0, 0.0), (1.0, 0.0, 0.0))

    def test_wrapped_model_evaluates_transformed_lags(self):
        h, u = (2.0, -1.0), 0.7
        direct = GNEITING.rho(apply_anisotropy(ANISO_GNEITING.transform, np.array(h)), u)
        assert correlation(ANISO_GNEITING, h, u) == pytest.approx(float(direct), rel=1e-15)

    @pytest.mark.parametrize("base", [GNEITING, BERNSTEIN], ids=["gneiting", "bernstein"])
    def test_expansion_applies_transform_bitwise(self, base):
        model = AnisotropicModel(base=base, transform=ANISO_GNEITING.transform)
        axis = np.linspace(-6.0, 6.0, 25)
        h = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
        u = np.linspace(-3.0, 3.0, 25)[:, None]
        reference = delta_values(model.base.expansion(), apply_anisotropy(model.transform, h), u)
        np.testing.assert_array_equal(delta_values(model.expansion(), h, u), reference)


class TestVariogramToCovariance:
    EXPANSION = SmoothnessExpansion(2.0, 2.0, 0.045, 0.03)

    def test_origin(self):
        origin = ((0.0, 0.0), 0.0)
        assert variogram_to_covariance(self.EXPANSION, origin, origin) == 0.0

    def test_pinned_at_origin(self):
        p = ((2.0, 1.0), 3.0)
        origin = ((0.0, 0.0), 0.0)
        # Cov(W(p), W(origin)) = delta(p) + 0 - delta(p) = 0
        assert variogram_to_covariance(self.EXPANSION, p, origin) == pytest.approx(0.0, abs=1e-15)

    def test_variance_is_twice_delta(self):
        p = ((1.0, 2.0), -1.5)
        assert variogram_to_covariance(self.EXPANSION, p, p) == pytest.approx(
            2.0 * delta_values(self.EXPANSION, *p), rel=1e-14
        )

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p1 = (tuple(rng.uniform(-5, 5, 2)), rng.uniform(0, 5))
            p2 = (tuple(rng.uniform(-5, 5, 2)), rng.uniform(0, 5))
            assert variogram_to_covariance(self.EXPANSION, p1, p2) == pytest.approx(
                variogram_to_covariance(self.EXPANSION, p2, p1), rel=1e-13, abs=1e-13
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_positive_semidefinite_on_random_points(self, seed):
        rng = np.random.default_rng(seed)
        points = [(tuple(rng.uniform(-3, 3, 2)), rng.uniform(0, 3)) for _ in range(5)]
        matrix = np.array(
            [[variogram_to_covariance(self.EXPANSION, a, b) for b in points] for a in points]
        )
        assert np.min(np.linalg.eigvalsh(matrix)) >= -1e-10


class TestValidationErrors:
    def test_bad_weights(self):
        with pytest.raises(DomainError):
            MaMixtureModel(
                atoms=((1.0, 1.0, 0.5), (1.0, 1.0, 0.4)),
                spatial_scale=1.0, spatial_exponent=1.0,
                temporal_scale=1.0, temporal_exponent=1.0,
            )

    @pytest.mark.parametrize("atom", [
        (float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0), (1.0, 1.0, float("nan")),
        (1.0, 1.0),
    ], ids=["nan-scale", "inf-scale", "nan-weight", "two-entries"])
    @pytest.mark.parametrize("model", [MA_MIXTURE, BERNSTEIN], ids=["ma_mixture", "bernstein"])
    def test_bad_atom_rejected(self, model, atom):
        # NaN passes every comparison, so each entry is checked for finiteness
        with pytest.raises(DomainError, match="atom"):
            dataclasses.replace(model, atoms=(atom,))

    @pytest.mark.parametrize("name, value", [
        ("spatial_scale", 0.0), ("temporal_scale", 0.0),
        ("spatial_exponent", 0.0), ("spatial_exponent", 2.5), ("spatial_exponent", float("nan")),
        ("temporal_exponent", 0.0), ("temporal_exponent", 2.5),
        ("temporal_exponent", float("nan")),
    ])
    def test_bad_mixture_base_rejected(self, name, value):
        with pytest.raises(DomainError, match=name):
            dataclasses.replace(MA_MIXTURE, **{name: value})
        # the exponent's upper end is allowed
        assert dataclasses.replace(MA_MIXTURE, spatial_exponent=2.0).expansion().alpha_space == 2.0

    def test_bad_exponents(self):
        with pytest.raises(DomainError):
            SmoothnessExpansion(2.5, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            SmoothnessExpansion(2.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("make, name", [
        (lambda: GneitingModel(a=10**400, b=0.03, nu=1.5, gamma=1.0), "a"),
        (lambda: AnisotropyTransform(10**400, 1.0, 0.0), "a_max"),
        (lambda: scaling_sequences(SmoothnessExpansion(2.0, 2.0, 1.0, 1.0), 10**400), "n"),
    ], ids=["gneiting", "anisotropy", "scaling_sequences"])
    def test_int_beyond_float_range_is_not_finite(self, make, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            make()

    def test_bad_gneiting_parameters(self):
        with pytest.raises(DomainError):
            GneitingModel(a=-0.1, b=0.03, nu=1.5, gamma=1.0)
        with pytest.raises(DomainError):
            GneitingModel(a=0.03, b=0.03, nu=1.5, gamma=1.5)


@settings(max_examples=200, deadline=None)
@given(
    h1=st.floats(-50, 50),
    h2=st.floats(-50, 50),
    u=st.floats(-50, 50),
)
def test_lag_symmetry_property(h1, h2, u):
    assert correlation(GNEITING, (h1, h2), u) == correlation(GNEITING, (-h1, -h2), -u)


@settings(max_examples=200, deadline=None)
@given(
    h1=st.floats(-20, 20),
    h2=st.floats(-20, 20),
    u=st.floats(-20, 20),
)
def test_delta_nonnegative_property(h1, h2, u):
    expansion = SmoothnessExpansion(2.0, 1.0, 0.045, 0.03)
    assert delta_values(expansion, (h1, h2), u) >= 0.0
