"""Test-local oracles: the storm-model CDF in the paper's A_ij form and its
u = 0 and h = 0 reductions, written out independently of the library's
exponent-measure kernel so that criteria 1 and 2 and ``tests/test_extremal.py``
keep an independent check.
"""

import math

import numpy as np

from stormfields.numerics import std_normal_cdf


def _mahalanobis(params, h):
    h = np.asarray(h, dtype=float)
    return math.sqrt(h @ np.linalg.inv(params.sigma_space) @ h)


def oracle_cdf_smith(y1, y2, h, u, params):
    a = _mahalanobis(params, h)
    if a == 0.0 and u == 0.0:
        return math.exp(-1.0 / min(y1, y2))
    s3sq = params.sigma_time_sq
    s3 = math.sqrt(s3sq)
    denom = 2.0 * s3 * math.sqrt(s3sq * a * a + u * u)
    shift = s3sq * a * a + u * u
    log_ratio = math.log(y2 / y1)
    term1 = float(std_normal_cdf((2.0 * s3sq * log_ratio + shift) / denom)) / y1
    term2 = float(std_normal_cdf((-2.0 * s3sq * log_ratio + shift) / denom)) / y2
    return math.exp(-term1 - term2)


def _oracle_reduced(y1, y2, r):
    if r == 0.0:
        return math.exp(-1.0 / min(y1, y2))
    log_ratio = math.log(y2 / y1)
    term1 = float(std_normal_cdf(0.5 * r + log_ratio / r)) / y1
    term2 = float(std_normal_cdf(0.5 * r - log_ratio / r)) / y2
    return math.exp(-term1 - term2)


def oracle_cdf_spatial(y1, y2, h, params):
    return _oracle_reduced(y1, y2, _mahalanobis(params, h))


def oracle_cdf_temporal(y1, y2, u, params):
    return _oracle_reduced(y1, y2, abs(u) / math.sqrt(params.sigma_time_sq))
