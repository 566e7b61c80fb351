"""Stationary space-time correlation models and their small-lag behaviour.

The catalogue collects correlation families rho(h, u) on R^d x R that are
smooth enough near the origin to admit the expansion

    rho(h, u) = 1 - C1*||h||^a1 - C2*|u|^a2 + O(||h||^a1 * |u|^a2),

with exponents a1, a2 in (0, 2].  That expansion is what links a Gaussian
model to its max-stable limit: under the rescaling sequences
s_n = (log n)^(-1/a1), t_n = (log n)^(-1/a2) one has

    log(n) * (1 - rho(s_n*h, t_n*u))  ->  delta(h, u) = C1*||h||^a1 + C2*|u|^a2,

and delta drives every closed-form dependence quantity downstream.  An anisotropic
model's expansion carries its transform A, so delta is C1*||A h||^a1 + C2*|u|^a2.

Note the *negative* exponents in s_n and t_n: they are required for
s_n -> 0 and for the displayed limit to be finite (a positive exponent
would send both sequences to infinity and the limit to zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, UnsupportedModelError

__all__ = [
    "SpaceTimeLag",
    "SmoothnessExpansion",
    "CorrelationModel",
    "GneitingModel",
    "SeparableModel",
    "PoweredExponential",
    "MaMixtureModel",
    "BernsteinModel",
    "AnisotropyTransform",
    "AnisotropicModel",
    "apply_anisotropy",
    "delta",
    "delta_values",
    "scaling_sequences",
    "scaling_sequences_from_log",
    "variogram_to_covariance",
]


def _finite(value, name):
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite")
    return value


def _positive(value, name):
    value = _finite(value, name)
    if value <= 0.0:
        raise DomainError(f"{name} must be > 0")
    return value


@dataclass(frozen=True)
class SpaceTimeLag:
    """A spatial displacement ``h`` paired with a time displacement ``u``."""

    h: tuple
    u: float

    def __post_init__(self):
        h = tuple(_finite(c, "lag component") for c in np.atleast_1d(self.h))
        if len(h) not in (1, 2, 3):
            raise DomainError("spatial lag must have dimension 1, 2 or 3")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "u", _finite(self.u, "u"))

    @property
    def dimension(self) -> int:
        return len(self.h)

    def spatial(self) -> np.ndarray:
        return np.asarray(self.h, dtype=float)


@dataclass(frozen=True)
class SmoothnessExpansion:
    """Small-lag expansion parameters (a1, a2, C1, C2) of a correlation model.

    ``spatial_weights`` switches the spatial term from the isotropic form
    C1*||h||^a1 to the componentwise form sum_i w_i*|h_i|^a1 produced by
    per-axis (Bernstein-type) constructions; in that case ``c_space`` is
    the sum of the weights.  ``anisotropy``, when set, is the geometric
    transform A applied to spatial lags before either form is evaluated.
    """

    alpha_space: float
    alpha_time: float
    c_space: float
    c_time: float
    spatial_weights: tuple = None
    anisotropy: AnisotropyTransform = None

    def __post_init__(self):
        a1 = _finite(self.alpha_space, "alpha_space")
        a2 = _finite(self.alpha_time, "alpha_time")
        if not (0.0 < a1 <= 2.0 and 0.0 < a2 <= 2.0):
            raise DomainError("expansion exponents must lie in (0, 2]")
        object.__setattr__(self, "alpha_space", a1)
        object.__setattr__(self, "alpha_time", a2)
        if self.spatial_weights is not None:
            weights = tuple(_finite(w, "spatial weight") for w in self.spatial_weights)
            if len(weights) not in (1, 2, 3) or any(w < 0.0 for w in weights):
                raise DomainError("spatial_weights must be 1-3 nonnegative values")
            object.__setattr__(self, "spatial_weights", weights)
            object.__setattr__(self, "c_space", float(sum(weights)))
        else:
            c1 = _finite(self.c_space, "c_space")
            if c1 < 0.0:
                raise DomainError("c_space must be >= 0")
            object.__setattr__(self, "c_space", c1)
        c2 = _finite(self.c_time, "c_time")
        if c2 < 0.0:
            raise DomainError("c_time must be >= 0")
        object.__setattr__(self, "c_time", c2)
        if self.c_space == 0.0 and self.c_time == 0.0:
            raise DomainError("at least one of C1, C2 must be positive")


class CorrelationModel:
    """Common behaviour of the catalogued correlation families.

    Subclasses are immutable after construction and implement ``rho`` (the
    vectorized correlation, even in u: every family takes |u|) and
    ``expansion``.  Evaluation is pure, so models may be shared freely
    between worker processes.
    """

    dimension: int = 2

    def rho(self, h, u):
        raise NotImplementedError

    def expansion(self) -> SmoothnessExpansion:
        raise NotImplementedError


@dataclass(frozen=True)
class GneitingModel(CorrelationModel):
    """Nonseparable isotropic family psi(|u|^(2*b2))^(-d/2) * phi(||h||^(2*b1)/psi).

    The completely monotone component is phi(x) = (1 + b*x)^(-nu) (the
    Laplace transform of a gamma density with mean b*nu) and the temporal
    component is psi(x) = (1 + a*x)^gamma.  With b1 = b2 = 1 the sample
    paths of the associated Gaussian field are mean-square differentiable.
    """

    a: float
    b: float
    nu: float
    gamma: float
    beta1: float = 1.0
    beta2: float = 1.0
    dimension: int = 2

    def __post_init__(self):
        object.__setattr__(self, "a", _positive(self.a, "a"))
        object.__setattr__(self, "b", _positive(self.b, "b"))
        object.__setattr__(self, "nu", _positive(self.nu, "nu"))
        for name in ("gamma", "beta1", "beta2"):
            value = _finite(getattr(self, name), name)
            if not 0.0 < value <= 1.0:
                raise DomainError(f"{name} must lie in (0, 1]")
            object.__setattr__(self, name, value)
        if self.dimension not in (1, 2, 3):
            raise DomainError("dimension must be 1, 2 or 3")

    def rho(self, h, u):
        h = np.asarray(h, dtype=float)
        u = np.abs(np.asarray(u, dtype=float))
        hsq = np.sum(h * h, axis=-1)
        psi = (1.0 + self.a * u ** (2.0 * self.beta2)) ** self.gamma
        return psi ** (-self.dimension / 2.0) * (
            1.0 + self.b * hsq ** self.beta1 / psi
        ) ** (-self.nu)

    def expansion(self) -> SmoothnessExpansion:
        # C1 is the mean of the gamma mixing density behind phi; C2 comes
        # from psi'(0) = a*gamma, which the parameter ranges keep nonzero.
        return SmoothnessExpansion(
            alpha_space=2.0 * self.beta1,
            alpha_time=2.0 * self.beta2,
            c_space=self.b * self.nu,
            c_time=0.5 * self.dimension * self.a * self.gamma,
        )


@dataclass(frozen=True)
class SeparableModel(CorrelationModel):
    """Gaussian-in-space, exponential-in-time product model.

    rho(h, u) = exp(-||h||^2 / spatial_range - temporal_decay * |u|); the
    temporal factor is the correlation of an Ornstein-Uhlenbeck process.
    """

    spatial_range: float
    temporal_decay: float
    dimension: int = 2

    def __post_init__(self):
        object.__setattr__(self, "spatial_range", _positive(self.spatial_range, "spatial_range"))
        object.__setattr__(self, "temporal_decay", _positive(self.temporal_decay, "temporal_decay"))
        if self.dimension not in (1, 2, 3):
            raise DomainError("dimension must be 1, 2 or 3")

    def rho(self, h, u):
        h = np.asarray(h, dtype=float)
        u = np.abs(np.asarray(u, dtype=float))
        hsq = np.sum(h * h, axis=-1)
        return np.exp(-hsq / self.spatial_range - self.temporal_decay * u)

    def expansion(self) -> SmoothnessExpansion:
        return SmoothnessExpansion(
            alpha_space=2.0,
            alpha_time=1.0,
            c_space=1.0 / self.spatial_range,
            c_time=self.temporal_decay,
        )


@dataclass(frozen=True)
class PoweredExponential:
    """Radial correlation exp(-scale * r^exponent) used as a mixture base."""

    scale: float
    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "scale", _positive(self.scale, "scale"))
        exponent = _finite(self.exponent, "exponent")
        if not 0.0 < exponent <= 2.0:
            raise DomainError("exponent must lie in (0, 2]")
        object.__setattr__(self, "exponent", exponent)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.exp(-self.scale * r ** self.exponent)


def _normalized_atoms(atoms):
    cleaned = []
    for atom in atoms:
        v1, v2, w = (float(x) for x in atom)
        if v1 < 0.0 or v2 < 0.0:
            raise DomainError("mixture atom scales must be >= 0")
        if w <= 0.0:
            raise DomainError("mixture atom weights must be > 0")
        cleaned.append((v1, v2, w))
    if not cleaned:
        raise DomainError("mixture needs at least one atom")
    total = sum(w for _, _, w in cleaned)
    if abs(total - 1.0) > 1e-12:
        raise DomainError("mixture weights must sum to 1 within 1e-12")
    return tuple(cleaned)


@dataclass(frozen=True)
class MaMixtureModel(CorrelationModel):
    """Scale mixture of a separable product over a finite set of atoms.

    rho(h, u) = sum_k w_k * rho1(||h||*v1_k) * rho2(|u|*v2_k) is nonseparable
    as soon as the mixing measure has more than one atom.
    """

    atoms: tuple
    base_spatial: PoweredExponential
    base_temporal: PoweredExponential
    dimension: int = 2

    def __post_init__(self):
        object.__setattr__(self, "atoms", _normalized_atoms(self.atoms))
        if self.dimension not in (1, 2, 3):
            raise DomainError("dimension must be 1, 2 or 3")

    def rho(self, h, u):
        h = np.asarray(h, dtype=float)
        u = np.abs(np.asarray(u, dtype=float))
        hnorm = np.sqrt(np.sum(h * h, axis=-1))
        out = 0.0
        for v1, v2, w in self.atoms:
            out = out + w * self.base_spatial(hnorm * v1) * self.base_temporal(u * v2)
        return out

    def expansion(self) -> SmoothnessExpansion:
        a1 = self.base_spatial.exponent
        a2 = self.base_temporal.exponent
        m1 = sum(w * v1 ** a1 for v1, _, w in self.atoms)
        m2 = sum(w * v2 ** a2 for _, v2, w in self.atoms)
        return SmoothnessExpansion(
            alpha_space=a1,
            alpha_time=a2,
            c_space=self.base_spatial.scale * m1,
            c_time=self.base_temporal.scale * m2,
        )


@dataclass(frozen=True)
class BernsteinModel(CorrelationModel):
    """Componentwise-anisotropic family built from Bernstein functions.

    Each axis carries its own function psi_i(x) = 1 + c_i * x^(alpha_i)
    (positive with completely monotone derivative for alpha_i in (0, 1]),
    combined through a finite mixing measure:

        C(h, u) = sum_k w_k exp{ -sum_i psi_i(|h_i|) v1_k - psi_t(|u|) v2_k }.

    The psi_i are increasing, so the correlation C(h, u)/C(0, 0) decays in
    every component; the small-lag expansion is derived from this form
    directly (the sign of the psi expansion follows from psi increasing)
    and is cross-checked numerically against ``rho`` in the test suite.
    """

    spatial_scales: tuple
    spatial_exponents: tuple
    temporal_scale: float
    temporal_exponent: float
    atoms: tuple

    def __post_init__(self):
        scales = tuple(_positive(c, "spatial scale") for c in self.spatial_scales)
        if len(scales) not in (1, 2, 3):
            raise DomainError("spatial dimension must be 1, 2 or 3")
        exponents = tuple(_finite(a, "spatial exponent") for a in self.spatial_exponents)
        if len(exponents) != len(scales):
            raise DomainError("one exponent is required per spatial axis")
        if any(not 0.0 < a <= 1.0 for a in exponents):
            raise DomainError("Bernstein exponents must lie in (0, 1]")
        t_exp = _finite(self.temporal_exponent, "temporal_exponent")
        if not 0.0 < t_exp <= 1.0:
            raise DomainError("Bernstein exponents must lie in (0, 1]")
        object.__setattr__(self, "spatial_scales", scales)
        object.__setattr__(self, "spatial_exponents", exponents)
        object.__setattr__(self, "temporal_scale", _positive(self.temporal_scale, "temporal_scale"))
        object.__setattr__(self, "temporal_exponent", t_exp)
        object.__setattr__(self, "atoms", _normalized_atoms(self.atoms))

    @property
    def dimension(self) -> int:
        return len(self.spatial_scales)

    def _psi_sums(self, h, u):
        h = np.abs(np.asarray(h, dtype=float))
        u = np.abs(np.asarray(u, dtype=float))
        psi_space = float(self.dimension) + sum(
            c * h[..., i] ** a
            for i, (c, a) in enumerate(zip(self.spatial_scales, self.spatial_exponents))
        )
        psi_time = 1.0 + self.temporal_scale * u ** self.temporal_exponent
        return psi_space, psi_time

    def rho(self, h, u):
        psi_space, psi_time = self._psi_sums(h, u)
        num = 0.0
        den = 0.0
        for v1, v2, w in self.atoms:
            num = num + w * np.exp(-psi_space * v1 - psi_time * v2)
            den = den + w * math.exp(-self.dimension * v1 - v2)
        return num / den

    def expansion(self) -> SmoothnessExpansion:
        alphas = set(self.spatial_exponents)
        if len(alphas) != 1:
            raise UnsupportedModelError(
                "a single scaling sequence requires a common spatial exponent"
            )
        alpha = self.spatial_exponents[0]
        # Tilted atom moments: the normalizing constant C(0,0) redistributes
        # the mixture weights before the first-order term is read off.
        c00 = sum(w * math.exp(-self.dimension * v1 - v2) for v1, v2, w in self.atoms)
        m1 = sum(w * math.exp(-self.dimension * v1 - v2) * v1 for v1, v2, w in self.atoms) / c00
        m2 = sum(w * math.exp(-self.dimension * v1 - v2) * v2 for v1, v2, w in self.atoms) / c00
        weights = tuple(c * m1 for c in self.spatial_scales)
        return SmoothnessExpansion(
            alpha_space=alpha,
            alpha_time=self.temporal_exponent,
            c_space=sum(weights),
            c_time=self.temporal_scale * m2,
            spatial_weights=weights,
        )


@dataclass(frozen=True)
class AnisotropyTransform:
    """Geometric anisotropy A = T R for two spatial dimensions.

    ``angle`` (radians) is the direction of the longest correlation range:
    R maps that direction onto the first coordinate axis, where
    T = diag(1/a_max, 1/a_min) divides by the larger stretch factor.
    Dependence level sets are therefore ellipses elongated by a_max/a_min
    along ``angle``.
    """

    a_max: float
    a_min: float
    angle: float

    def __post_init__(self):
        a_max = _positive(self.a_max, "a_max")
        a_min = _positive(self.a_min, "a_min")
        if a_max < a_min:
            raise DomainError("a_max must be >= a_min")
        object.__setattr__(self, "a_max", a_max)
        object.__setattr__(self, "a_min", a_min)
        object.__setattr__(self, "angle", _finite(self.angle, "angle"))

    @property
    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        rotation = np.array([[c, s], [-s, c]])  # sends (cos a, sin a) to e1
        distance = np.diag([1.0 / self.a_max, 1.0 / self.a_min])
        return distance @ rotation


def apply_anisotropy(transform: AnisotropyTransform, h) -> np.ndarray:
    """Apply A = T R to one or many 2-vectors (last axis of length 2)."""
    h = np.asarray(h, dtype=float)
    if h.shape[-1] != 2:
        raise DomainError("geometric anisotropy is defined for d = 2 only")
    return h @ transform.matrix.T


@dataclass(frozen=True)
class AnisotropicModel(CorrelationModel):
    """A base model evaluated at spatial lags A h; its expansion carries the transform A."""

    base: CorrelationModel
    transform: AnisotropyTransform

    def __post_init__(self):
        if self.base.dimension != 2:
            raise DomainError("geometric anisotropy is defined for d = 2 only")

    @property
    def dimension(self) -> int:
        return 2

    def rho(self, h, u):
        return self.base.rho(apply_anisotropy(self.transform, h), u)

    def expansion(self) -> SmoothnessExpansion:
        return replace(self.base.expansion(), anisotropy=self.transform)


def delta_values(expansion: SmoothnessExpansion, h, u):
    """Vectorized limit function delta(h, u); ``h`` has the axes last."""
    h = np.asarray(h, dtype=float)
    u = np.abs(np.asarray(u, dtype=float))
    if expansion.anisotropy is not None:
        h = apply_anisotropy(expansion.anisotropy, h)
    if expansion.spatial_weights is not None:
        if h.shape[-1] != len(expansion.spatial_weights):
            raise DomainError("lag dimension does not match expansion weights")
        spatial = sum(
            w * np.abs(h[..., i]) ** expansion.alpha_space
            for i, w in enumerate(expansion.spatial_weights)
        )
    else:
        hsq = np.sum(h * h, axis=-1)
        spatial = expansion.c_space * hsq ** (expansion.alpha_space / 2.0)
    return spatial + expansion.c_time * u ** expansion.alpha_time


def delta(expansion: SmoothnessExpansion, lag: SpaceTimeLag) -> float:
    """Limit function delta at one lag: C1*||A h||^a1 + C2*|u|^a2."""
    return float(delta_values(expansion, lag.spatial(), lag.u))


def scaling_sequences_from_log(expansion: SmoothnessExpansion, log_n: float):
    """Scaling pair for a given value of log(n); test hook for exact logs."""
    log_n = _finite(log_n, "log_n")
    if log_n <= 0.0:
        raise DomainError("log_n must be positive")
    return (
        log_n ** (-1.0 / expansion.alpha_space),
        log_n ** (-1.0 / expansion.alpha_time),
    )


def scaling_sequences(expansion: SmoothnessExpansion, n) -> tuple:
    """Rescaling pair (s_n, t_n) = (log n)^(-1/a1), (log n)^(-1/a2).

    Both sequences decrease to zero, shrinking lags so that correlations
    approach one at exactly the rate the max-stable limit requires.
    """
    n = _finite(n, "n")
    if n < 2:
        raise DomainError("n must be at least 2")
    return scaling_sequences_from_log(expansion, math.log(n))


def variogram_to_covariance(expansion: SmoothnessExpansion, point1, point2) -> float:
    """Covariance of the origin-pinned Gaussian field with variogram delta.

    For space-time points p = (s, t), the field W with W(origin) = 0 and
    increment variances given by delta has

        Cov(W(p1), W(p2)) = delta(p1) + delta(p2) - delta(p1 - p2),

    which is positive semidefinite over any finite point set because delta
    is a variogram.
    """
    s1, t1 = point1
    s2, t2 = point2
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    d1 = float(delta_values(expansion, s1, t1))
    d2 = float(delta_values(expansion, s2, t2))
    d12 = float(delta_values(expansion, s1 - s2, float(t1) - float(t2)))
    return d1 + d2 - d12
