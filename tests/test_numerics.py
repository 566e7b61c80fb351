"""Normal CDF and quantile tests against frozen high-precision oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stormfields.numerics import std_normal_cdf, std_normal_quantile
from stormfields.errors import DomainError

# Values computed with a 40-digit arbitrary-precision oracle and frozen.
PHI_TABLE = [
    (-8.0, 6.2209605742717841235e-16),
    (-5.5, 1.8989562465887719384e-8),
    (-3.0, 0.0013498980316300945267),
    (-1.96, 0.024997895148220434137),
    (-1.0, 0.15865525393145705141),
    (-0.5, 0.30853753872598689636),
    (-0.3, 0.38208857781104736269),
    (0.0, 0.5),
    (0.25, 0.59870632568292372424),
    (0.46875, 0.68037582848288237396),
    (1.0, 0.84134474606854294859),
    (1.5, 0.933192798731141934),
    (1.96, 0.97500210485177956586),
    (2.5, 0.99379033467422386483),
    (4.0, 0.99996832875816688008),
    (5.5, 0.99999998101043753411),
    (6.5, 0.99999999995983999416),
    (8.0, 0.9999999999999993779),
]


class TestStdNormalCdf:
    @pytest.mark.parametrize("x,expected", PHI_TABLE)
    def test_frozen_oracle(self, x, expected):
        # The far lower tail carries the rounding of the argument x/sqrt(2),
        # which amplifies by d(log erfc)/dy ~ 2y; 2e-14 covers |x| <= 8.
        assert std_normal_cdf(x) == pytest.approx(expected, rel=2e-14, abs=1e-300)

    def test_median(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_derived_value(self):
        assert abs(std_normal_cdf(1.96) - 0.9750021) < 5e-8

    def test_symmetry_identity(self):
        assert std_normal_cdf(-1.0) + std_normal_cdf(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_symmetry_on_grid(self):
        x = np.linspace(-8.0, 8.0, 10_001)
        total = std_normal_cdf(x) + std_normal_cdf(-x)
        assert np.max(np.abs(total - 1.0)) <= 1e-14

    def test_monotone_on_grid(self):
        x = np.linspace(-8.0, 8.0, 10_000)
        values = std_normal_cdf(x)
        assert np.all(np.diff(values) >= 0.0)
        # and at neighbouring doubles, where a rational approximation can
        # step down by an ulp
        z = np.random.default_rng(20240).uniform(-8.0, 8.0, 200_000)
        assert np.all(std_normal_cdf(np.nextafter(z, np.inf)) >= std_normal_cdf(z))

    def test_absolute_error_against_scipy(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        x = np.linspace(-8.0, 8.0, 40_001)
        assert np.max(np.abs(std_normal_cdf(x) - ndtr(x))) <= 1e-14

    def test_tail_saturation(self):
        assert std_normal_cdf(-40.0) == 0.0
        assert std_normal_cdf(40.0) == 1.0

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                std_normal_cdf(bad)

    def test_array_shape_preserved(self):
        x = np.zeros((3, 4))
        assert std_normal_cdf(x).shape == (3, 4)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_derived_value(self):
        assert std_normal_quantile(0.9750021048517795) == pytest.approx(1.96, abs=5e-15)

    def test_roundtrip_at_exp_minus_one(self):
        p = np.exp(-1.0)
        assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_roundtrip_probability_grid(self):
        p = np.concatenate([
            np.linspace(1e-9, 1.0 - 1e-9, 20_001),
            10.0 ** np.arange(-300.0, -9.0),
        ])
        back = std_normal_cdf(std_normal_quantile(p))
        assert np.max(np.abs(back - p)) <= 1e-12

    def test_identity_on_x_grid(self):
        # quantile(cdf(x)) = x. Above x ~ 5 the identity is limited by the
        # spacing of doubles near 1: the best reachable error is about
        # ulp(1)/(2*pdf(x)), i.e. ~9e-9 at x = 6, so the tight bound is
        # asserted only where it is representable.
        x = np.linspace(-6.0, 5.0, 12_001)
        assert np.max(np.abs(std_normal_quantile(std_normal_cdf(x)) - x)) <= 1e-10
        x_hi = np.linspace(5.0, 6.0, 2_001)
        assert np.max(np.abs(std_normal_quantile(std_normal_cdf(x_hi)) - x_hi)) <= 2e-8

    def test_against_scipy(self):
        # Near p = 1 both implementations are limited by the double spacing
        # of p: the best reachable agreement is eps(p)/pdf(x) ~ 2e-11.
        ndtri = pytest.importorskip("scipy.special").ndtri
        p = np.linspace(1e-6, 1.0 - 1e-6, 5_001)
        assert_allclose(std_normal_quantile(p), ndtri(p), rtol=0, atol=5e-11)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, np.nan])
    def test_domain_rejected(self, p):
        with pytest.raises(DomainError):
            std_normal_quantile(p)

