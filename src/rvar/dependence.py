"""Bivariate dependence structures: copulas, joint laws, and sampling.

Copulas: Independence (u v), Comonotone (min), Countermonotone
(max(u+v-1, 0), a valid cdf for d = 2 only), and Gumbel with parameter
theta >= 1 (theta = 1 is independence). Each carries its ``cdf(u, v)``,
its conditional cdf ``h(a, v, neg_log_v)`` = dC(a, v)/dv given -ln v as
well as v, its lower level map ``lower_inverse(a, u)``, the v that solves
C(a, v) = u for u <= a, and its sampler of uniforms, ``uniforms(rng, n)``. Every copula here is
exchangeable, so a fixed first or second coordinate reads the same maps.
Pi, M and W also carry ``upper_inverse(a, u)``, which solves
v - C(a, v) = u - a (the joint survival reaching 1 - u); their two level
maps are affine in u and their h is piecewise constant in v.

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
    def cdf(self, u: float, v: float) -> float:
        return u * v

    def h(self, a: float, v: float, neg_log_v: float) -> float:
        return a

    def lower_inverse(self, a: float, u: float) -> float:
        return u / a

    def upper_inverse(self, a: float, u: float) -> float:
        return (u - a) / (1.0 - a)

    def uniforms(self, rng, n: int) -> np.ndarray:
        return rng.random(size=(n, 2))


@dataclass(frozen=True)
class Comonotone:
    def cdf(self, u: float, v: float) -> float:
        return min(u, v)

    def h(self, a: float, v: float, neg_log_v: float) -> float:
        return 1.0 if v <= a else 0.0

    def lower_inverse(self, a: float, u: float) -> float:
        return u

    def upper_inverse(self, a: float, u: float) -> float:
        return u

    def uniforms(self, rng, n: int) -> np.ndarray:
        u = rng.random(size=n)
        return np.column_stack([u, u])


@dataclass(frozen=True)
class Countermonotone:
    def cdf(self, u: float, v: float) -> float:
        return max(u + v - 1.0, 0.0)

    def h(self, a: float, v: float, neg_log_v: float) -> float:
        return 1.0 if v >= 1.0 - a else 0.0

    def lower_inverse(self, a: float, u: float) -> float:
        if u >= a:
            return 1.0  # C(a, v) reaches a only at v = 1, exactly
        # 1 - a is exact for a >= 1/2, so the sum rounds once
        return u + (1.0 - a)

    def upper_inverse(self, a: float, u: float) -> float:
        return u - a

    def uniforms(self, rng, n: int) -> np.ndarray:
        u = rng.random(size=n)
        return np.column_stack([u, 1.0 - u])


@dataclass(frozen=True)
class Gumbel:
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta >= 1.0):
            raise DomainError(f"Gumbel copula requires a finite theta >= 1, got {self.theta}")

    def cdf(self, u: float, v: float) -> float:
        if u == 0.0 or v == 0.0:
            return 0.0
        if u == 1.0:
            return v
        if v == 1.0:
            return u
        lu, lv = -math.log(u), -math.log(v)
        if lu < lv:  # order so that u = min(u, v)
            u, lu, lv = v, lv, lu
        # ((-ln u)^theta + (-ln v)^theta)^(1/theta) with the larger term
        # factored out, so it neither under- nor overflows at large theta
        val = math.exp(-lu * (1.0 + (lv / lu) ** self.theta) ** (1.0 / self.theta))
        # the exp(ln u) round trip can land a few ulps above the bound min(u, v)
        return val if val < u else u

    def h(self, a: float, v: float, neg_log_v: float) -> float:
        """dC(a, v)/dv = C(a, v) / v * (-ln v / S^(1/theta))^(theta - 1), for 0 < v <= 1.

        S = (-ln a)^theta + (-ln v)^theta, and ``neg_log_v`` is -ln v, which
        the caller holds more precisely than v does near v = 1 (-log1p(-s) at
        v = 1 - s). At v = 0 it is the limit from above: 1, or a at theta = 1.
        """
        if a == 0.0:
            return 0.0
        if a == 1.0 or v == 0.0:
            return a if self.theta == 1.0 else 1.0
        la, lv = -math.log(a), neg_log_v
        lo, hi = (la, lv) if la < lv else (lv, la)
        # S^(1/theta) with the larger log factored out, as in cdf
        root = hi * (1.0 + (lo / hi) ** self.theta) ** (1.0 / self.theta)
        return math.exp(lv - root) * (lv / root) ** (self.theta - 1.0)

    def lower_inverse(self, a: float, u: float) -> float:
        """v with C(a, v) = u: exp(-((-ln u)^theta - (-ln a)^theta)^(1/theta))."""
        if u <= 0.0:
            return 0.0
        if u >= a:
            return 1.0
        lu, la = -math.log(u), -math.log(a)
        # -ln u > -ln a: factor (-ln u)^theta out, as cdf does the larger log
        return math.exp(-lu * (1.0 - (la / lu) ** self.theta) ** (1.0 / self.theta))

    def uniforms(self, rng, n: int) -> np.ndarray:
        if self.theta == 1.0:
            return rng.random(size=(n, 2))
        s = _stable_frailty(rng, n, self.theta)
        e = rng.exponential(1.0, size=(n, 2))
        # exp(-(e / s)^(1/theta)), in place on e
        e /= s[:, None]
        e **= 1.0 / self.theta
        np.negative(e, out=e)
        return np.exp(e, out=e)


def copula_cdf(c, u: float, v: float) -> float:
    """C(u, v) on the closed unit square."""
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise DomainError(f"copula arguments must lie in [0,1], got ({u}, {v})")
    return c.cdf(u, v)


@dataclass(frozen=True)
class BivariateModel:
    """Two marginal models coupled by a copula."""

    margin1: object
    margin2: object
    copula: object

    def joint_cdf(self, x1: float, x2: float) -> float:
        return self.copula.cdf(self.margin1.cdf(x1), self.margin2.cdf(x2))

    def joint_survival(self, x1: float, x2: float) -> float:
        u = self.margin1.cdf(x1)
        v = self.margin2.cdf(x2)
        return 1.0 - u - v + self.copula.cdf(u, v)

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
    # the same operations in the same order, on two buffers besides v and w
    s = np.multiply(a, v)
    np.sin(s, out=s)
    sin_v = np.sin(v)
    sin_v **= 1.0 / a
    s /= sin_v
    v *= 1.0 - a
    np.sin(v, out=v)
    v /= w
    v **= (1.0 - a) / a
    s *= v
    return s


def sample(b: BivariateModel, n: int, seed: int):
    """n iid draws from the bivariate model; deterministic per seed."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    from .empirical import SampleMatrix  # SampleMatrix lives with the estimators

    rng = np.random.default_rng(seed)
    uv = b.copula.uniforms(rng, n)
    np.clip(uv, _U_LO, _U_HI, out=uv)
    # filled column by column in the sample's own column-major layout
    data = np.empty((n, 2), order="F")
    data[:, 0] = b.margin1.quantile_array(uv[:, 0])
    data[:, 1] = b.margin2.quantile_array(uv[:, 1])
    return SampleMatrix(data)
