"""Univariate distribution models and risk measures.

Models: GEV, GPD tail (peaks-over-threshold form), Weibull, Exponential,
Uniform. Measures: VaR (quantile), TVaR, RVaR, and the TVaR/VaR ratio
with its shape-driven limit.

RVaR over [a1, a2] is the average of the quantile over that level range.
GEV and GPD tails get closed forms (incomplete gamma / logarithmic
integral expressions); everything else integrates the quantile by
adaptive quadrature with a t = -ln(1-u) substitution near u = 1.

Divergent tail expectations are reported by the DIVERGES marker, a typed
singleton distinct from every float; callers test with is_divergent().
"""

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import DomainError
from .specfun import EULER_GAMMA, log_integral, upper_incomplete_gamma

# shape values within this distance of zero route to the xi = 0 formulas;
# cancellation in ((-ln p)^(-xi) - 1)/xi costs ~1e-16/|xi| relative error
XI_ZERO_TOL = 1e-8

_QUAD_OPTS = dict(epsabs=1e-10, epsrel=1e-10, limit=200)


class _Divergent:
    """Singleton marker for an infinite (diverging) tail expectation."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DIVERGES"


DIVERGES = _Divergent()


def is_divergent(value) -> bool:
    return value is DIVERGES


@dataclass(frozen=True)
class LevelRange:
    """Ordered pair of confidence levels, 0 <= alpha1 < alpha2 <= 1."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        if not (0.0 <= self.alpha1 < self.alpha2 <= 1.0):
            raise DomainError(
                f"LevelRange requires 0 <= alpha1 < alpha2 <= 1, "
                f"got ({self.alpha1}, {self.alpha2})"
            )

    @property
    def width(self) -> float:
        return self.alpha2 - self.alpha1


def _require_finite(model) -> None:
    """Raise DomainError unless every parameter of a model is finite."""
    for f in fields(model):
        value = getattr(model, f.name)
        if not math.isfinite(value):
            raise DomainError(f"{type(model).__name__} {f.name} must be finite, got {value}")


def _check_prob_open(p: float, name: str = "p"):
    if not (0.0 < p < 1.0):
        raise DomainError(f"{name} must lie in (0, 1), got {p}")


@dataclass(frozen=True)
class GEV:
    """Generalized extreme value law with location mu, scale sigma, shape xi.

    Support respects 1 + xi (x - mu) / sigma > 0; the cdf evaluates to 0
    or 1 outside.
    """

    mu: float
    sigma: float
    xi: float

    def __post_init__(self):
        _require_finite(self)
        if self.sigma <= 0:
            raise DomainError(f"GEV sigma must be > 0, got {self.sigma}")

    def cdf(self, x: float) -> float:
        t = (x - self.mu) / self.sigma
        if abs(self.xi) < XI_ZERO_TOL:
            logv = -t
        else:
            w = 1.0 + self.xi * t
            if w <= 0.0:
                return 0.0 if self.xi > 0 else 1.0
            logv = -math.log(w) / self.xi
        if logv > 36.0:  # exp(-e^36) underflows to 0 before e^logv overflows
            return 0.0
        return math.exp(-math.exp(logv))

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        return self._from_neg_log(-math.log(p))

    def sf_quantile(self, s: float) -> float:
        """Quantile at p = 1 - s, stable for s down to the underflow edge."""
        _check_prob_open(s, "s")
        return self._from_neg_log(-math.log1p(-s))

    def _from_neg_log(self, t: float) -> float:
        # t = -ln p > 0
        ln_t = math.log(t)
        if abs(self.xi) < XI_ZERO_TOL:
            return self.mu - self.sigma * ln_t
        return self.mu + self.sigma * math.expm1(-self.xi * ln_t) / self.xi

    def quantile_array(self, p: np.ndarray) -> np.ndarray:
        t = -np.log(p)
        if abs(self.xi) < XI_ZERO_TOL:
            return self.mu - self.sigma * np.log(t)
        return self.mu + self.sigma * np.expm1(-self.xi * np.log(t)) / self.xi

    def mean(self):
        if self.xi >= 1.0:
            return DIVERGES
        if abs(self.xi) < XI_ZERO_TOL:
            return self.mu + self.sigma * EULER_GAMMA
        return self.mu + self.sigma * (math.gamma(1.0 - self.xi) - 1.0) / self.xi

    def support(self):
        if self.xi > 0:
            return (self.mu - self.sigma / self.xi, math.inf)
        if self.xi < 0:
            return (-math.inf, self.mu - self.sigma / self.xi)
        return (-math.inf, math.inf)

    @property
    def typical_scale(self) -> float:
        return self.sigma


@dataclass(frozen=True)
class GPDTail:
    """Generalized Pareto model of the tail above a high threshold u.

    zeta_u = P(X > u); the model describes only x >= u, so the cdf is
    F(x) = 1 - zeta_u (1 + xi (x - u) / sigma)^(-1/xi) there and raises
    below the threshold. Quantiles exist for p >= 1 - zeta_u.
    """

    u: float
    sigma: float
    xi: float
    zeta_u: float

    def __post_init__(self):
        _require_finite(self)
        if self.sigma <= 0:
            raise DomainError(f"GPDTail sigma must be > 0, got {self.sigma}")
        if not (0.0 < self.zeta_u <= 1.0):
            raise DomainError(
                f"GPDTail zeta_u must lie in (0, 1], got {self.zeta_u}"
            )

    def cdf(self, x: float) -> float:
        if x < self.u:
            raise DomainError(
                f"GPDTail cdf defined only for x >= u = {self.u}, got {x}"
            )
        t = (x - self.u) / self.sigma
        if abs(self.xi) < XI_ZERO_TOL:
            return 1.0 - self.zeta_u * math.exp(-t)
        w = 1.0 + self.xi * t
        if w <= 0.0:  # beyond the finite endpoint (xi < 0)
            return 1.0
        return 1.0 - self.zeta_u * math.exp(-math.log(w) / self.xi)

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        return self.sf_quantile(1.0 - p)

    def sf_quantile(self, s: float) -> float:
        # a few ulps of slack so 1 - p at the exact threshold level passes
        if not (0.0 < s <= self.zeta_u * (1.0 + 1e-12)):
            raise DomainError(
                f"GPDTail quantile needs tail probability in (0, zeta_u="
                f"{self.zeta_u}], got {s} (level below tail coverage)"
            )
        log_r = math.log(min(s, self.zeta_u) / self.zeta_u)
        if abs(self.xi) < XI_ZERO_TOL:
            return self.u - self.sigma * log_r
        return self.u + self.sigma * math.expm1(-self.xi * log_r) / self.xi

    def quantile_array(self, p: np.ndarray) -> np.ndarray:
        if np.any(p < 1.0 - self.zeta_u * (1.0 + 1e-12)):
            raise DomainError("GPDTail quantile below tail coverage")
        log_r = np.log(np.minimum(1.0 - p, self.zeta_u) / self.zeta_u)
        if abs(self.xi) < XI_ZERO_TOL:
            return self.u - self.sigma * log_r
        return self.u + self.sigma * np.expm1(-self.xi * log_r) / self.xi

    def mean(self):
        raise DomainError(
            "GPDTail models only the region above the threshold; "
            "the full-distribution mean is undefined"
        )

    def support(self):
        if self.xi < 0:
            return (self.u, self.u - self.sigma / self.xi)
        return (self.u, math.inf)

    @property
    def typical_scale(self) -> float:
        return self.sigma


@dataclass(frozen=True)
class Weibull:
    """Weibull law with shape k and scale lam: F(x) = 1 - exp(-(x/lam)^k)."""

    shape: float
    scale: float

    def __post_init__(self):
        _require_finite(self)
        if self.shape <= 0 or self.scale <= 0:
            raise DomainError(
                f"Weibull shape and scale must be > 0, got "
                f"({self.shape}, {self.scale})"
            )

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return -math.expm1(-((x / self.scale) ** self.shape))

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        return self.scale * (-math.log1p(-p)) ** (1.0 / self.shape)

    def sf_quantile(self, s: float) -> float:
        _check_prob_open(s, "s")
        return self.scale * (-math.log(s)) ** (1.0 / self.shape)

    def quantile_array(self, p: np.ndarray) -> np.ndarray:
        return self.scale * (-np.log1p(-p)) ** (1.0 / self.shape)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def support(self):
        return (0.0, math.inf)

    @property
    def typical_scale(self) -> float:
        return self.scale


@dataclass(frozen=True)
class Exponential:
    """Exponential law with rate lam."""

    lam: float

    def __post_init__(self):
        _require_finite(self)
        if self.lam <= 0:
            raise DomainError(f"Exponential rate must be > 0, got {self.lam}")

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return -math.expm1(-self.lam * x)

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        return -math.log1p(-p) / self.lam

    def sf_quantile(self, s: float) -> float:
        _check_prob_open(s, "s")
        return -math.log(s) / self.lam

    def quantile_array(self, p: np.ndarray) -> np.ndarray:
        return -np.log1p(-p) / self.lam

    def mean(self) -> float:
        return 1.0 / self.lam

    def support(self):
        return (0.0, math.inf)

    @property
    def typical_scale(self) -> float:
        return 1.0 / self.lam


@dataclass(frozen=True)
class Uniform:
    """Uniform law on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        _require_finite(self)
        if not self.lo < self.hi:
            raise DomainError(f"Uniform needs lo < hi, got ({self.lo}, {self.hi})")

    def cdf(self, x: float) -> float:
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return (x - self.lo) / (self.hi - self.lo)

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        return self.lo + p * (self.hi - self.lo)

    def sf_quantile(self, s: float) -> float:
        _check_prob_open(s, "s")
        return self.hi - s * (self.hi - self.lo)

    def quantile_array(self, p: np.ndarray) -> np.ndarray:
        return self.lo + p * (self.hi - self.lo)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def support(self):
        return (self.lo, self.hi)

    @property
    def typical_scale(self) -> float:
        return self.hi - self.lo


MARGINAL_TYPES = (GEV, GPDTail, Weibull, Exponential, Uniform)


def cdf(m, x: float) -> float:
    return m.cdf(x)


def quantile(m, p: float) -> float:
    return m.quantile(p)


def mean(m):
    return m.mean()


def uni_var(m, alpha: float) -> float:
    """VaR_alpha(X) = inf{x : F(x) >= alpha}, the alpha-quantile."""
    _check_prob_open(alpha, "alpha")
    return m.quantile(alpha)


def _quantile_integral(m, a1: float, a2: float) -> float:
    """Integral of the quantile function over [a1, a2] (not averaged).

    Splits at 0.99 and substitutes t = -ln(1-u) above it, so the
    integrand is evaluated through the survival side where 1 - e^{-t}
    would round to 1.
    """
    cut = 0.99
    total = 0.0
    head_hi = min(a2, cut)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if a1 < head_hi:
            total += quad(m.quantile, a1, head_hi, **_QUAD_OPTS)[0]
        if a2 > cut or a2 == 1.0:
            ta = -math.log1p(-max(a1, cut))
            tb = math.inf if a2 >= 1.0 else -math.log1p(-a2)

            def integrand(t):
                s = math.exp(-t)
                if s <= 0.0:
                    return 0.0
                return m.sf_quantile(s) * s

            total += quad(integrand, ta, tb, **_QUAD_OPTS)[0]
    return total


def _xlnln(a: float) -> float:
    """a * ln(-ln a) with the a -> 0+ limit value 0."""
    if a == 0.0:
        return 0.0
    return a * math.log(-math.log(a))


def _gev_rvar_closed(m: GEV, a1: float, a2: float):
    if abs(m.xi) < XI_ZERO_TOL:
        if a2 >= 1.0:
            return DIVERGES  # li(x) singularity at x = 1
        width = a2 - a1
        bracket = _xlnln(a2) - _xlnln(a1) - log_integral(a2) + log_integral(a1)
        return m.mu - m.sigma / width * bracket
    if a2 >= 1.0 and m.xi >= 1.0:
        return DIVERGES
    width = a2 - a1
    g2 = upper_incomplete_gamma(1.0 - m.xi, 0.0 if a2 >= 1.0 else -math.log(a2))
    g1 = upper_incomplete_gamma(1.0 - m.xi, -math.log(a1)) if a1 > 0 else 0.0
    return m.mu - m.sigma / (m.xi * width) * (width - g2 + g1)


def _gpd_rvar_closed(m: GPDTail, a1: float, a2: float):
    if a1 < 1.0 - m.zeta_u:
        raise DomainError(
            f"GPDTail levels must reach the tail: need alpha >= "
            f"{1.0 - m.zeta_u}, got {a1}"
        )
    if a2 >= 1.0:
        if m.xi >= 1.0:
            return DIVERGES
        v1 = m.quantile(a1)
        return v1 / (1.0 - m.xi) + (m.sigma - m.xi * m.u) / (1.0 - m.xi)
    width = a2 - a1
    if abs(m.xi - 1.0) < XI_ZERO_TOL:
        # the generic form is 0/0 at xi = 1; its limit:
        return (
            m.u
            - m.sigma
            + m.sigma * m.zeta_u * math.log((1.0 - a1) / (1.0 - a2)) / width
        )
    v1 = m.quantile(a1)
    v2 = m.quantile(a2)
    return ((1.0 - a1) * v1 - (1.0 - a2) * v2) / (width * (1.0 - m.xi)) + (
        m.sigma - m.xi * m.u
    ) / (1.0 - m.xi)


def uni_rvar(m, levels: LevelRange):
    """Average of VaR_u over u in [alpha1, alpha2].

    Closed forms for GEV and GPDTail, quadrature otherwise. With
    alpha2 = 1 this is the TVaR and may return DIVERGES.
    """
    a1, a2 = levels.alpha1, levels.alpha2
    if isinstance(m, GEV):
        return _gev_rvar_closed(m, a1, a2)
    if isinstance(m, GPDTail):
        return _gpd_rvar_closed(m, a1, a2)
    return _quantile_integral(m, a1, a2) / levels.width


def uni_tvar(m, alpha: float):
    """TVaR_alpha(X): tail average of VaR; DIVERGES on infinite tails."""
    _check_prob_open(alpha, "alpha")
    return uni_rvar(m, LevelRange(alpha, 1.0))


def tvar_var_ratio(m, alpha: float) -> float:
    """TVaR_alpha / VaR_alpha for shape-parameterized tail models."""
    if isinstance(m, GEV):
        if abs(m.xi) < XI_ZERO_TOL:
            raise DomainError("TVaR/VaR ratio undefined on the GEV xi=0 branch")
    elif not isinstance(m, GPDTail):
        raise DomainError("tvar_var_ratio defined for GEV and GPDTail models")
    if m.xi >= 1.0:
        raise DomainError(f"TVaR diverges for xi >= 1 (xi={m.xi})")
    t = uni_tvar(m, alpha)
    v = uni_var(m, alpha)
    return t / v


def ratio_limit(m) -> float:
    """Limit of TVaR_alpha / VaR_alpha as alpha -> 1.

    (1 - xi)^(-1) for heavy/GPD-exponential tails, 1 for short tails.
    """
    if isinstance(m, GEV):
        if abs(m.xi) < XI_ZERO_TOL:
            raise DomainError("ratio limit undefined on the GEV xi=0 branch")
        if m.xi >= 1.0:
            raise DomainError(f"TVaR diverges for xi >= 1 (xi={m.xi})")
        return 1.0 / (1.0 - m.xi) if m.xi > 0 else 1.0
    if isinstance(m, GPDTail):
        if m.xi >= 1.0:
            raise DomainError(f"TVaR diverges for xi >= 1 (xi={m.xi})")
        return 1.0 / (1.0 - m.xi) if m.xi >= 0 else 1.0
    raise DomainError("ratio_limit defined for GEV and GPDTail models")
