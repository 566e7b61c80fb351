"""Closed-form dependence quantities: frozen values, identities, properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormfields import (
    StormModelParams,
    bivariate_cdf_hr,
    delta_from_storm,
    exponent_measure,
    pickands,
    tail_dependence,
)
from stormfields.errors import DomainError
from stormfields.numerics import std_normal_cdf
from storm_oracles import oracle_cdf_smith, oracle_cdf_spatial, oracle_cdf_temporal

EXP_2PHI1 = 0.18587339814818439986  # exp(-2 Phi(1))
TWO_PHI1 = 1.6826894921370858972    # 2 Phi(1)


def random_spd(rng):
    a = rng.normal(size=(2, 2))
    return a @ a.T + 0.1 * np.eye(2)


class TestBivariateCdfHr:
    def test_complete_dependence(self):
        assert bivariate_cdf_hr(1.0, 2.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_independence(self):
        assert bivariate_cdf_hr(1.0, 1.0, math.inf) == pytest.approx(math.exp(-2.0), rel=1e-15)
        # sqrt(delta) beyond double precision of Phi is independence too
        assert bivariate_cdf_hr(1.0, 1.0, 1e10) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_equal_thresholds_frozen(self):
        assert bivariate_cdf_hr(1.0, 1.0, 1.0) == pytest.approx(EXP_2PHI1, rel=1e-14)
        assert abs(bivariate_cdf_hr(1.0, 1.0, 1.0) - 0.18592) < 5e-5

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(DomainError):
            bivariate_cdf_hr(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            bivariate_cdf_hr(1.0, -2.0, 1.0)
        with pytest.raises(DomainError):
            bivariate_cdf_hr(1.0, 1.0, -0.5)

    def test_monotone_in_thresholds_and_dependence(self):
        # On a (y1, y2, delta) lattice: nondecreasing in y1 and y2, and
        # ordered by dependence (nonincreasing in delta: V grows with delta).
        y_grid = np.linspace(0.2, 5.0, 20)
        deltas = np.linspace(0.0, 9.0, 10)
        values = np.array(
            [[[bivariate_cdf_hr(y1, y2, d) for d in deltas] for y2 in y_grid] for y1 in y_grid]
        )
        assert np.all(np.diff(values, axis=0) >= -1e-15)
        assert np.all(np.diff(values, axis=1) >= -1e-15)
        assert np.all(np.diff(values, axis=2) <= 1e-15)

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            y1, y2 = rng.uniform(0.1, 10.0, 2)
            d = rng.uniform(0.0, 10.0)
            a = bivariate_cdf_hr(y1, y2, d)
            b = bivariate_cdf_hr(y2, y1, d)
            assert abs(a - b) <= 1e-15

    def test_consistent_with_marginal(self):
        # letting one threshold grow recovers the Frechet marginal
        assert bivariate_cdf_hr(2.0, 1e12, 1.5) == pytest.approx(math.exp(-0.5), rel=1e-9)


class TestExponentMeasure:
    def test_equal_thresholds_value(self):
        assert exponent_measure(1.0, 1.0, 1.0) == pytest.approx(TWO_PHI1, rel=1e-14)

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            y1, y2 = rng.uniform(0.2, 5.0, 2)
            d = rng.uniform(0.01, 20.0)
            assert exponent_measure(3.0 * y1, 3.0 * y2, d) == pytest.approx(
                exponent_measure(y1, y2, d) / 3.0, rel=1e-12
            )

    def test_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            y1, y2 = rng.uniform(0.2, 5.0, 2)
            d = rng.uniform(0.0, 50.0)
            v = exponent_measure(y1, y2, d)
            assert v >= max(1.0 / y1, 1.0 / y2) - 1e-14
            assert v <= 1.0 / y1 + 1.0 / y2 + 1e-14

    def test_independence_limit(self):
        assert exponent_measure(2.0, 4.0, math.inf) == pytest.approx(0.75, rel=1e-15)

    def test_extreme_finite_thresholds(self):
        # the weight ratio 1e320 overflows a float; its logarithm does not
        for y1, y2 in ((1e-160, 1e160), (1e160, 1e-160)):
            assert exponent_measure(y1, y2, 1.0) == pytest.approx(1e160, rel=1e-15)
            assert bivariate_cdf_hr(y1, y2, 1.0) == 0.0


class TestPickands:
    def test_midpoint_identity(self):
        for d in (0.1, 1.0, 10.0):
            assert pickands(0.5, d) == pytest.approx(float(std_normal_cdf(math.sqrt(d))), rel=1e-14)

    def test_complete_dependence_boundary(self):
        for lam in (0.1, 0.31, 0.5, 0.87):
            assert pickands(lam, 0.0) == max(lam, 1.0 - lam)

    def test_independence_boundary(self):
        assert pickands(0.3, math.inf) == 1.0
        assert pickands(0.3, 1e9) == pytest.approx(1.0, abs=1e-15)

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            lam = rng.uniform(0.001, 0.999)
            d = rng.uniform(0.0, 30.0)
            a = pickands(lam, d)
            assert max(lam, 1.0 - lam) - 1e-14 <= a <= 1.0 + 1e-14
            assert a == pytest.approx(pickands(1.0 - lam, d), rel=1e-13)

    @pytest.mark.parametrize("d", [0.1, 1.0, 10.0])
    def test_convexity_on_grid(self, d):
        lams = np.linspace(0.001, 0.999, 999)
        values = np.array([pickands(l, d) for l in lams])
        second = np.diff(values, 2)
        assert np.min(second) >= -1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            pickands(0.0, 1.0)
        with pytest.raises(DomainError):
            pickands(1.0, 1.0)


class TestTailDependence:
    def test_boundaries(self):
        assert tail_dependence(0.0) == 1.0
        assert tail_dependence(math.inf) == 0.0

    def test_frozen_value(self):
        assert tail_dependence(3.8416) == pytest.approx(0.049995790296440868273, rel=1e-10)
        assert abs(tail_dependence(3.8416) - 0.050) < 1e-5

    def test_decreasing(self):
        d = np.linspace(0.0, 25.0, 200)
        values = tail_dependence(d)
        assert np.all(np.diff(values) <= 0.0)
        assert np.all((0.0 <= values) & (values <= 1.0))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            tail_dependence(-0.1)

    def test_definitional_identity_through_expansion(self):
        # chi evaluated through a model expansion is exactly the closed form
        from stormfields import GneitingModel, delta_values

        expansion = GneitingModel(a=0.03, b=0.03, nu=1.5, gamma=1.0).expansion()
        for (h, u) in (((1.0, 0.0), 1.0), ((3.0, -4.0), 2.5), ((0.0, 0.0), 7.0)):
            dep = float(delta_values(expansion, h, u))
            assert tail_dependence(dep) == 2.0 * (1.0 - std_normal_cdf(math.sqrt(dep)))


class TestStormClosedForms:
    PARAMS = StormModelParams(np.eye(2), 1.0)

    def test_zero_lag_complete_dependence(self):
        delta = delta_from_storm(self.PARAMS, (0.0, 0.0), 0.0)
        assert bivariate_cdf_hr(1.0, 3.0, delta) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_spatial_reduction_identity_sigma(self):
        # a(h) = ||h|| = 5 under the identity; the u = 0 reduction matches
        h = np.array([3.0, 4.0])
        rng = np.random.default_rng(3)
        for _ in range(50):
            y1, y2 = rng.uniform(0.1, 10.0, 2)
            general = bivariate_cdf_hr(y1, y2, delta_from_storm(self.PARAMS, h, 0.0))
            reduced = oracle_cdf_spatial(y1, y2, h, self.PARAMS)
            assert general == pytest.approx(reduced, abs=1e-15)
        expected = math.exp(
            -std_normal_cdf(2.5) * 2.0  # y1 = y2 = 1: both terms Phi(a/2)/1
        )
        delta = delta_from_storm(self.PARAMS, h, 0.0)
        assert bivariate_cdf_hr(1.0, 1.0, delta) == pytest.approx(expected, rel=1e-14)

    def test_temporal_reduction(self):
        delta = delta_from_storm(self.PARAMS, (0.0, 0.0), 2.0)
        assert bivariate_cdf_hr(1.0, 1.0, delta) == pytest.approx(EXP_2PHI1, rel=1e-14)

    def test_temporal_reduction_general_variance(self):
        params = StormModelParams(np.eye(2), 4.0)
        rng = np.random.default_rng(4)
        for _ in range(50):
            y1, y2 = rng.uniform(0.1, 10.0, 2)
            u = rng.uniform(-5.0, 5.0)
            if u == 0.0:
                continue
            general = bivariate_cdf_hr(y1, y2, delta_from_storm(params, (0.0, 0.0), u))
            reduced = oracle_cdf_temporal(y1, y2, u, params)
            assert general == pytest.approx(reduced, abs=1e-15)

    def test_delta_from_storm_values(self):
        assert delta_from_storm(self.PARAMS, (0.0, 0.0), 0.0) == 0.0
        assert delta_from_storm(self.PARAMS, (3.0, 4.0), 0.0) == pytest.approx(6.25, rel=1e-15)
        assert delta_from_storm(self.PARAMS, (0.0, 0.0), 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_correlated_sigma(self):
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        params = StormModelParams(sigma, 1.0)
        h = np.array([1.0, -1.0])
        expected = float(h @ np.linalg.inv(sigma) @ h) / 4.0
        assert delta_from_storm(params, h, 0.0) == pytest.approx(expected, rel=1e-14)


def _storm_draw(rng):
    # the parameter and threshold draws of acceptance criteria 1 and 2
    sigma = random_spd(rng)
    s3sq = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    y1, y2 = rng.uniform(0.1, 10.0, 2)
    return StormModelParams(sigma, s3sq), y1, y2


class TestStormOracles:
    def test_general_form_matches_oracle(self):
        # criterion 1's draws (seed 1001)
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(1000):
            params, y1, y2 = _storm_draw(rng)
            h = rng.uniform(-3.0, 3.0, 2)
            u = float(rng.uniform(-3.0, 3.0))
            worst = max(worst, abs(
                bivariate_cdf_hr(y1, y2, delta_from_storm(params, h, u))
                - oracle_cdf_smith(y1, y2, h, u, params)
            ))
        assert worst <= 1e-14

    def test_reductions_match_oracles(self):
        # criterion 2's draws (seed 1002)
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(1000):
            params, y1, y2 = _storm_draw(rng)
            h = rng.uniform(-3.0, 3.0, 2)
            while np.allclose(h, 0.0):
                h = rng.uniform(-3.0, 3.0, 2)
            u = float(rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0]))
            spatial = bivariate_cdf_hr(y1, y2, delta_from_storm(params, h, 0.0))
            temporal = bivariate_cdf_hr(y1, y2, delta_from_storm(params, (0.0, 0.0), u))
            worst = max(
                worst,
                abs(spatial - oracle_cdf_smith(y1, y2, h, 0.0, params)),
                abs(spatial - oracle_cdf_spatial(y1, y2, h, params)),
                abs(temporal - oracle_cdf_smith(y1, y2, (0.0, 0.0), u, params)),
                abs(temporal - oracle_cdf_temporal(y1, y2, u, params)),
            )
        assert worst <= 1e-14


class TestVectorised:
    RNG_SEED = 21

    @staticmethod
    def _draws(size=(40, 3)):
        rng = np.random.default_rng(TestVectorised.RNG_SEED)
        y1 = rng.uniform(0.1, 10.0, size)
        y2 = rng.uniform(0.1, 10.0, size)
        d = rng.uniform(0.0, 20.0, size)
        d[0, :] = 0.0   # complete dependence
        d[1, :] = 2e3   # beyond the independence cut-off
        return y1, y2, d

    @pytest.mark.parametrize("func", [exponent_measure, bivariate_cdf_hr])
    def test_threshold_functions_match_scalar_calls(self, func):
        y1, y2, d = self._draws()
        values = func(y1, y2, d)
        assert values.shape == y1.shape
        scalar = np.array([func(a, b, c) for a, b, c in zip(y1.ravel(), y2.ravel(), d.ravel())])
        assert np.array_equal(values.ravel(), scalar)

    def test_broadcasting(self):
        y1, y2, d = self._draws()
        values = bivariate_cdf_hr(y1[:, :1], y2[0], d[:, 0, None])
        expected = [[bivariate_cdf_hr(y1[i, 0], y2[0, j], d[i, 0]) for j in range(3)]
                    for i in range(len(d))]
        assert np.array_equal(values, expected)

    def test_pickands_matches_scalar_calls(self):
        _, _, d = self._draws()
        lam = np.random.default_rng(22).uniform(0.001, 0.999, d.shape)
        values = pickands(lam, d)
        scalar = np.array([pickands(l, c) for l, c in zip(lam.ravel(), d.ravel())])
        assert np.array_equal(values.ravel(), scalar)

    def test_delta_from_storm_matches_scalar_calls(self):
        rng = np.random.default_rng(23)
        params = StormModelParams(random_spd(rng), 2.5)
        h = rng.uniform(-3.0, 3.0, (7, 5, 2))
        u = rng.uniform(-3.0, 3.0, (7, 5))
        values = delta_from_storm(params, h, u)
        assert values.shape == (7, 5)
        scalar = [[delta_from_storm(params, h[i, j], u[i, j]) for j in range(5)] for i in range(7)]
        assert np.array_equal(values, scalar)

    def test_scalar_inputs_return_python_floats(self):
        params = StormModelParams(np.eye(2), 1.0)
        for value in (
            exponent_measure(1.0, 2.0, 0.5),
            bivariate_cdf_hr(np.float64(1.0), 2, 0.5),
            pickands(0.3, 0.5),
            tail_dependence(0.5),
            delta_from_storm(params, (1.0, 2.0), 0.5),
        ):
            assert type(value) is float

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_one_bad_threshold_rejected(self, bad):
        y1, y2, d = self._draws()
        y2[3, 1] = bad
        with pytest.raises(DomainError):
            bivariate_cdf_hr(y1, y2, d)
        with pytest.raises(DomainError):
            exponent_measure(y2, y1, d)

    @pytest.mark.parametrize("bad", [-0.5, np.nan])
    def test_one_bad_delta_rejected(self, bad):
        y1, y2, d = self._draws()
        d[5, 2] = bad
        with pytest.raises(DomainError):
            bivariate_cdf_hr(y1, y2, d)
        with pytest.raises(DomainError):
            pickands(np.full(d.shape, 0.4), d)
        with pytest.raises(DomainError):
            tail_dependence(d)

    def test_one_bad_lam_rejected(self):
        lam = np.full(10, 0.3)
        lam[4] = 1.0
        with pytest.raises(DomainError):
            pickands(lam, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    a1=st.floats(0.1, 5.0), a2=st.floats(0.1, 5.0),
    b1=st.floats(0.1, 5.0), b2=st.floats(0.1, 5.0),
    d=st.floats(0.0, 20.0),
)
def test_rectangle_inequality_property(a1, a2, b1, b2, d):
    x1, x2 = sorted((a1, b1))
    y1, y2 = sorted((a2, b2))
    mass = (
        bivariate_cdf_hr(x2, y2, d)
        - bivariate_cdf_hr(x1, y2, d)
        - bivariate_cdf_hr(x2, y1, d)
        + bivariate_cdf_hr(x1, y1, d)
    )
    assert mass >= -1e-12


@settings(max_examples=200, deadline=None)
@given(y1=st.floats(0.1, 10.0), y2=st.floats(0.1, 10.0), d=st.floats(0.0, 30.0))
def test_cdf_between_boundary_laws_property(y1, y2, d):
    value = bivariate_cdf_hr(y1, y2, d)
    independent = bivariate_cdf_hr(y1, y2, math.inf)
    comonotone = bivariate_cdf_hr(y1, y2, 0.0)
    assert independent - 1e-14 <= value <= comonotone + 1e-14
