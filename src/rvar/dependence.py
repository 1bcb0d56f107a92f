"""Bivariate dependence structures: copulas, joint laws, and sampling.

Copulas: Independence (u v), Comonotone (min), Countermonotone
(max(u+v-1, 0), a valid cdf for d = 2 only), and Gumbel with parameter
theta >= 1 (theta = 1 is independence).

Sampling is seed-deterministic: a fixed seed yields a bit-identical
sample matrix. The Gumbel sampler uses the positive-stable frailty
construction with the Chambers-Mallows-Stuck generator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# smallest / largest uniforms fed to quantile functions
_U_LO = 2.0**-53
_U_HI = 1.0 - 2.0**-53


@dataclass(frozen=True)
class Independence:
    pass


@dataclass(frozen=True)
class Comonotone:
    pass


@dataclass(frozen=True)
class Countermonotone:
    pass


@dataclass(frozen=True)
class Gumbel:
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta >= 1.0):
            raise DomainError(f"Gumbel copula requires a finite theta >= 1, got {self.theta}")


COPULA_TYPES = (Independence, Comonotone, Countermonotone, Gumbel)


def copula_cdf(c, u: float, v: float) -> float:
    """C(u, v) on the closed unit square."""
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise DomainError(f"copula arguments must lie in [0,1], got ({u}, {v})")
    if isinstance(c, Independence):
        return u * v
    if isinstance(c, Comonotone):
        return min(u, v)
    if isinstance(c, Countermonotone):
        return max(u + v - 1.0, 0.0)
    if isinstance(c, Gumbel):
        if u == 0.0 or v == 0.0:
            return 0.0
        if u == 1.0:
            return v
        if v == 1.0:
            return u
        a = (-math.log(u)) ** c.theta + (-math.log(v)) ** c.theta
        return math.exp(-(a ** (1.0 / c.theta)))
    raise DomainError(f"unknown copula {c!r}")


@dataclass(frozen=True)
class BivariateModel:
    """Two marginal models coupled by a copula."""

    margin1: object
    margin2: object
    copula: object

    def joint_cdf(self, x1: float, x2: float) -> float:
        return copula_cdf(self.copula, self.margin1.cdf(x1), self.margin2.cdf(x2))

    def joint_survival(self, x1: float, x2: float) -> float:
        u = self.margin1.cdf(x1)
        v = self.margin2.cdf(x2)
        return 1.0 - u - v + copula_cdf(self.copula, u, v)

    def sample(self, n: int, seed: int):
        return sample(self, n, seed)


def _stable_frailty(rng, n: int, theta: float) -> np.ndarray:
    """Positive stable variates S with E[e^(-tS)] = e^(-t^(1/theta)).

    Chambers-Mallows-Stuck: with V ~ U(0, pi), W ~ Exp(1), a = 1/theta,
    S = [sin(aV) / sin(V)^(1/a)] * [sin((1-a)V) / W]^((1-a)/a).
    """
    a = 1.0 / theta
    v = rng.uniform(0.0, math.pi, size=n)
    w = rng.exponential(1.0, size=n)
    np.clip(v, 1e-12, math.pi - 1e-12, out=v)
    np.clip(w, 1e-300, None, out=w)
    s = (np.sin(a * v) / np.sin(v) ** (1.0 / a)) * (
        np.sin((1.0 - a) * v) / w
    ) ** ((1.0 - a) / a)
    return s


def _copula_uniforms(c, rng, n: int) -> np.ndarray:
    if isinstance(c, Independence):
        return rng.random(size=(n, 2))
    if isinstance(c, Comonotone):
        u = rng.random(size=n)
        return np.column_stack([u, u])
    if isinstance(c, Countermonotone):
        u = rng.random(size=n)
        return np.column_stack([u, 1.0 - u])
    if isinstance(c, Gumbel):
        if c.theta == 1.0:
            return rng.random(size=(n, 2))
        s = _stable_frailty(rng, n, c.theta)
        e = rng.exponential(1.0, size=(n, 2))
        return np.exp(-((e / s[:, None]) ** (1.0 / c.theta)))
    raise DomainError(f"unknown copula {c!r}")


def sample(b: BivariateModel, n: int, seed: int):
    """n iid draws from the bivariate model; deterministic per seed."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    from .empirical import SampleMatrix  # SampleMatrix lives with the estimators

    rng = np.random.default_rng(seed)
    uv = _copula_uniforms(b.copula, rng, n)
    np.clip(uv, _U_LO, _U_HI, out=uv)
    x1 = b.margin1.quantile_array(uv[:, 0])
    x2 = b.margin2.quantile_array(uv[:, 1])
    return SampleMatrix(np.column_stack([x1, x2]))
