"""Scalar special functions: the standard normal CDF and its quantile.

Every closed-form dependence quantity in this package is built from the
standard normal CDF.  Both functions here are elementwise calls into the
standard library: ``math.erfc`` (the C library's erfc) for the CDF and
``statistics.NormalDist.inv_cdf`` (Wichura's algorithm AS 241, *Applied
Statistics* 37, 1988) for the quantile.  They accept scalars or numpy arrays
and are stateless, hence safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
]

_SQRT2 = math.sqrt(2.0)


def _as_float_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def _elementwise(func, arr):
    # a memoryview yields one Python float at a time: no object array (as
    # np.frompyfunc makes) and no list (as tolist makes) is held in memory
    values = map(func, memoryview(arr.ravel()))
    return np.fromiter(values, float, count=arr.size).reshape(arr.shape)


def std_normal_cdf(x):
    """Standard normal CDF, ``0.5 * erfc(-x / sqrt(2))`` through ``math.erfc``.

    Parameters
    ----------
    x : float or array_like
        Evaluation points; must be finite.

    Returns
    -------
    float or ndarray
        P(Z <= x) for Z standard normal, non-decreasing in x.  Underflows to
        exactly 0 (respectively rounds to exactly 1) in the far tails.
    """
    arr = _as_float_array(x, "x")
    out = 0.5 * _elementwise(math.erfc, -arr / _SQRT2)
    return float(out) if arr.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse of the standard normal CDF on the open interval (0, 1).

    Evaluates ``statistics.NormalDist().inv_cdf`` per element; the round trip
    through ``std_normal_cdf`` is exact to a few 1e-16 in probability.

    Parameters
    ----------
    p : float or array_like
        Probabilities, strictly inside (0, 1).

    Returns
    -------
    float or ndarray
        x with std_normal_cdf(x) = p.
    """
    # imported here: statistics pulls in decimal and fractions; no command needs the quantile
    from statistics import NormalDist

    arr = _as_float_array(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie strictly inside (0, 1)")
    out = _elementwise(NormalDist().inv_cdf, arr)
    return float(out) if arr.ndim == 0 else out
