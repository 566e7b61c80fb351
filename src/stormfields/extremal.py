"""Closed-form dependence quantities of the max-stable constructions.

Every closed form here is one kernel, the Huesler-Reiss exponent measure,
evaluated at a single dependence parameter delta >= 0 (delta = 0 is complete
dependence, delta -> infinity independence).  In reciprocal weights
w = 1/y and with r = sqrt(delta),

    V(w1, w2; delta) = w1 Phi(log(w1/w2)/(2r) + r) + w2 Phi(log(w2/w1)/(2r) + r).

The joint CDF is exp(-V(1/y1, 1/y2; delta)), the Pickands function is
V(lam, 1 - lam; delta) and the tail dependence coefficient is
2 - V(1, 1; delta).  Both constructions share the kernel: for rescaled
Gaussian maxima delta comes from the correlation model's small-lag
expansion (``covmodels.delta_values``), and for the storm-profile model from
``maxstable.delta_from_storm``, because Smith's storm model is Brown-Resnick
with a quadratic variogram (Kabluchko, Schlather & de Haan 2009, Ann.
Probab. 37).  The paper's form of the storm CDF, exp{-Phi(A12)/y1 -
Phi(A21)/y2} with Aij = (2 s3^2 log(yj/yi) + s3^2 a^2 + u^2) /
(2 s3 sqrt(s3^2 a^2 + u^2)), is this one, since s3^2 a^2 + u^2 = 4 s3^2 delta.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .numerics import std_normal_cdf

__all__ = [
    "bivariate_cdf_hr",
    "exponent_measure",
    "pickands",
    "tail_dependence",
]

# Phi(40) rounds to 1 in double precision with error < 1e-300, so larger
# sqrt(delta) is treated as exact independence instead of overflowing logs.
_INDEPENDENT_SQRT_DELTA = 40.0


def _float_or_array(values):
    return float(values) if np.ndim(values) == 0 else values


def _exponent_measure_w(w1, w2, delta) -> np.ndarray:
    """Exponent measure V(w1, w2; delta) in reciprocal weights w = 1/y, broadcast.

    delta = 0 gives max(w1, w2) exactly and sqrt(delta) beyond
    ``_INDEPENDENT_SQRT_DELTA`` gives w1 + w2.  Every weight must be finite
    and > 0 and every delta >= 0, or ``DomainError`` is raised.
    """
    w1, w2, delta = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (w1, w2, delta)))
    if not np.all(np.isfinite(w1) & np.isfinite(w2) & (w1 > 0.0) & (w2 > 0.0)):
        raise DomainError("thresholds must be finite and > 0")
    if np.any(np.isnan(delta) | (delta < 0.0)):
        raise DomainError("delta must be >= 0")
    root = np.sqrt(delta)
    out = np.where(delta == 0.0, np.maximum(w1, w2), w1 + w2)
    inner = (delta > 0.0) & (root <= _INDEPENDENT_SQRT_DELTA)
    if np.any(inner):
        a, b, r = w1[inner], w2[inner], root[inner]
        shift = (np.log(a) - np.log(b)) / (2.0 * r)  # a / b can overflow
        phi = std_normal_cdf(np.stack([shift + r, r - shift]))
        out[inner] = a * phi[0] + b * phi[1]
    return out


def exponent_measure(y1, y2, delta):
    """Exponent measure V(y1, y2; delta) with joint CDF exp(-V).

    V is homogeneous of order -1 and satisfies
    max(1/y1, 1/y2) <= V <= 1/y1 + 1/y2, the two bounds being the
    complete-dependence and independence cases.  Accepts scalars or arrays.
    """
    # y = 0 (or a subnormal y) becomes w = inf, which the kernel rejects
    with np.errstate(divide="ignore", over="ignore"):
        w1, w2 = 1.0 / np.asarray(y1, dtype=float), 1.0 / np.asarray(y2, dtype=float)
    return _float_or_array(_exponent_measure_w(w1, w2, delta))


def bivariate_cdf_hr(y1, y2, delta):
    """Bivariate CDF exp(-V(y1, y2; delta)) of the max-stable limit field.

    delta = 0 gives the complete-dependence boundary exp(-1/min(y1, y2));
    delta = inf (or sqrt(delta) beyond double precision) gives independence
    exp(-1/y1 - 1/y2).  Accepts scalars or arrays.
    """
    return _float_or_array(np.exp(-exponent_measure(y1, y2, delta)))


def pickands(lam, delta):
    """Pickands dependence function A(lam; delta) = V(lam, 1 - lam; delta) on 0 < lam < 1.

    Convex, symmetric about 1/2, and pinched between max(lam, 1 - lam)
    (complete dependence) and 1 (independence).  Accepts scalars or arrays.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all((0.0 < lam) & (lam < 1.0)):
        raise DomainError("lam must lie strictly inside (0, 1)")
    return _float_or_array(_exponent_measure_w(lam, 1.0 - lam, delta))


def tail_dependence(delta):
    """Tail dependence coefficient chi = 2 - V(1, 1; delta) = 2 (1 - Phi(sqrt(delta))).

    Accepts scalars or arrays; decreasing from 1 (complete dependence at
    delta = 0) to 0 (asymptotic independence as delta grows).
    """
    return _float_or_array(2.0 - _exponent_measure_w(1.0, 1.0, delta))
