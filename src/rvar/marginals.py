"""Univariate distribution models and risk measures.

Models: GEV, GPD tail (peaks-over-threshold form), Weibull, Uniform, and
Exponential(lam), a constructor for Weibull(1, 1/lam). Measures: VaR
(quantile), TVaR, RVaR, and the TVaR/VaR ratio with its shape-driven limit.

RVaR over [a1, a2] is the average of the quantile over that level range.
Every family has it in closed form (``band_mean``): incomplete gamma and
logarithmic integral expressions for GEV and Weibull, elementary ones for
the GPD tail and the uniform.

Divergent tail expectations are reported by the DIVERGES marker, a typed
singleton distinct from every float; callers test with is_divergent().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from ._quadpack import qk21
from .errors import DomainError
from .specfun import (
    EULER_GAMMA,
    LOG_BAND_ORDER,
    _lower_gamma_series,
    incomplete_gamma_band,
    log_incomplete_gamma_band,
    loglog_band,
    upper_incomplete_gamma,
)

if TYPE_CHECKING:
    import numpy as np

# shape values within this distance of zero route to the xi = 0 formulas;
# cancellation in ((-ln p)^(-xi) - 1)/xi costs ~1e-16/|xi| relative error
XI_ZERO_TOL = 1e-8

# A GEV, GPD tail or Weibull (the exponential included) band no wider than
# this fraction of its distance from levels 0 and 1 is averaged by the
# 21-point Kronrod rule: the quantile is analytic well beyond such a band,
# so the rule is exact to rounding (<= 6.1e-16 against 40-digit values),
# while a difference of antiderivatives loses up to 5e-13 on such bands for
# 0 < |xi| < 1 in the GEV, 5e-11 at xi = 1.2 on [0.5, 0.5001], 1e-8 at
# xi = 0 on [0.95, 0.95 + 1e-8], 1.3e-10 for GPDTail(10, 2, 0.25, 0.05) on
# [0.96, 0.96 + 1e-8], 2.3e-9 for Weibull(1, 1) on [0.5, 0.5 + 1e-8] and
# 7.4e-15 for Weibull(1, 1e-6) on [0.6, 0.61]
NARROW_BAND = 0.25


def _narrow(a1: float, a2: float) -> bool:
    """Whether [a1, a2] is a NARROW_BAND band, averaged by the Kronrod rule."""
    return a2 - a1 <= NARROW_BAND * min(a1, 1.0 - a2)


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


def _exp_mean(log_mean: float, family: str) -> float:
    """e^log_mean for a band mean summed as a logarithm, or DomainError past the double range."""
    try:
        return math.exp(log_mean)
    except OverflowError:
        raise DomainError(f"{family} band mean exceeds the double range") from None


def _require_finite(model) -> None:
    """Raise DomainError unless every parameter of a model is finite."""
    for f in fields(model):
        value = getattr(model, f.name)
        if not math.isfinite(value):
            raise DomainError(f"{type(model).__name__} {f.name} must be finite, got {value}")


def _log_gp(t: float, xi: float) -> float:
    """ln (1 + xi t)^(-1/xi), -t at xi = 0, the GEV and GPD log tail: off the
    support +inf below a lower endpoint (xi > 0), -inf above an upper one."""
    if abs(xi) < XI_ZERO_TOL:
        return -t
    xt = xi * t
    if xt <= -1.0:
        return math.inf if xi > 0 else -math.inf
    return -math.log1p(xt) / xi


def _gp_quantile_array(x: np.ndarray, loc: float, sigma: float, xi: float) -> np.ndarray:
    """loc + sigma expm1(-xi x) / xi, loc - sigma x at xi = 0, in place on x.

    The GEV and GPD tail quantiles, with x = ln(-ln p) and ln((1 - p) / zeta_u).
    """
    import numpy as np

    if abs(xi) < XI_ZERO_TOL:
        x *= sigma
        return np.subtract(loc, x, out=x)
    x *= -xi
    np.expm1(x, out=x)
    x *= sigma
    x /= xi
    x += loc
    return x


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
        # _log_gp inlined: the upper orthant's y-space roots call this ~3000 times per RVaR
        t = (x - self.mu) / self.sigma
        if abs(self.xi) < XI_ZERO_TOL:
            logv = -t
        else:
            xt = self.xi * t
            if xt <= -1.0:
                return 0.0 if self.xi > 0 else 1.0
            logv = -math.log1p(xt) / self.xi
        if logv > 36.0:  # exp(-e^36) underflows to 0 before e^logv overflows
            return 0.0
        return math.exp(-math.exp(logv))

    def pdf(self, x: float) -> float:
        """tau^(1 + xi) e^(-tau) / sigma at tau = -ln F(x); 0 off the support."""
        log_tau = _log_gp((x - self.mu) / self.sigma, self.xi)
        if not -math.inf < log_tau <= 36.0:
            return 0.0
        return math.exp((1.0 + self.xi) * log_tau - math.exp(log_tau)) / self.sigma

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
        try:
            return self.mu + self.sigma * math.expm1(-self.xi * ln_t) / self.xi
        except OverflowError:
            raise DomainError(f"GEV quantile at -ln p = {t} exceeds the double range") from None

    def quantile_array(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Quantiles at an array of levels, written into ``out`` if given."""
        import numpy as np

        x = np.log(p, out=out)  # ln(-ln p), in place on one buffer
        np.negative(x, out=x)
        np.log(x, out=x)
        return _gp_quantile_array(x, self.mu, self.sigma, self.xi)

    def band_mean(self, a1: float, a2: float):
        """Average quantile over [a1, a2] (the forms are listed in uni_rvar)."""
        width = a2 - a1
        if _narrow(a1, a2):
            # every difference of antiderivatives cancels on such a band
            return qk21(self.quantile, a1, a2)[0] / width
        if abs(self.xi) < XI_ZERO_TOL:
            if a2 >= 1.0:
                return DIVERGES  # li(x) singularity at x = 1
            return self.mu - self.sigma / width * loglog_band(a1, a2)
        if a2 >= 1.0 and self.xi >= 1.0:
            return DIVERGES
        t2 = 0.0 if a2 >= 1.0 else -math.log(a2)
        if self.xi >= 1.0:
            g2 = upper_incomplete_gamma(1.0 - self.xi, t2)
            g1 = upper_incomplete_gamma(1.0 - self.xi, -math.log(a1)) if a1 > 0 else 0.0
            return self.mu - self.sigma / (self.xi * width) * (width - g2 + g1)
        t1 = -math.log(a1) if a1 > 0 else math.inf
        if 1.0 - self.xi >= LOG_BAND_ORDER:
            # xi <= -49: the regularized tails underflow (and past xi = -170.6
            # Gamma(1 - xi) overflows), so sigma band / (|xi| w) comes from logs
            log_band = log_incomplete_gamma_band(1.0 - self.xi, t2, t1)
            term = _exp_mean(math.log(self.sigma / -self.xi) + log_band - math.log(width), "GEV")
            return self.mu - self.sigma / self.xi - term
        band = incomplete_gamma_band(1.0 - self.xi, t2, t1)
        return self.mu - self.sigma / (self.xi * width) * (width - band)

    def mean(self):
        if self.xi >= 1.0:
            return DIVERGES
        if abs(self.xi) < XI_ZERO_TOL:
            return self.mu + self.sigma * EULER_GAMMA
        try:
            mean = self.mu + self.sigma * (math.gamma(1.0 - self.xi) - 1.0) / self.xi
        except OverflowError:  # Gamma(1 - xi) passes the double range below xi ~ -170.6
            mean = math.inf
        if not math.isfinite(mean):  # or sigma carries a finite Gamma(1 - xi) past it
            raise DomainError(
                f"GEV mean exceeds the double range at sigma {self.sigma}, xi {self.xi}"
            )
        return mean

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
        return 1.0 - self.zeta_u * math.exp(self._log_tail(x))

    def pdf(self, x: float) -> float:
        """zeta_u (1 + xi t)^(-1/xi - 1) / sigma at t = (x - u) / sigma; below u it raises."""
        log_tail = self._log_tail(x)
        if log_tail == -math.inf:  # beyond the finite endpoint (xi < 0)
            return 0.0
        return self.zeta_u * math.exp((1.0 + self.xi) * log_tail) / self.sigma

    def _log_tail(self, x: float) -> float:
        """ln P(X > x) / zeta_u; DomainError below the threshold."""
        if x < self.u:
            raise DomainError(f"GPDTail is defined only for x >= u = {self.u}, got {x}")
        return _log_gp((x - self.u) / self.sigma, self.xi)

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

    def quantile_array(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Quantiles at an array of levels, written into ``out`` if given."""
        import numpy as np

        if np.any(p < 1.0 - self.zeta_u * (1.0 + 1e-12)):
            raise DomainError("GPDTail quantile below tail coverage")
        log_r = np.log(np.minimum(1.0 - p, self.zeta_u) / self.zeta_u, out=out)
        return _gp_quantile_array(log_r, self.u, self.sigma, self.xi)

    def band_mean(self, a1: float, a2: float):
        """Average quantile over [a1, a2], both levels in the tail."""
        if a1 < 1.0 - self.zeta_u:
            raise DomainError(
                f"GPDTail levels must reach the tail: need alpha >= "
                f"{1.0 - self.zeta_u}, got {a1}"
            )
        if _narrow(a1, a2):  # the two weighted quantiles below cancel on such a band
            return qk21(self.quantile, a1, a2)[0] / (a2 - a1)
        if a2 >= 1.0 and self.xi >= 1.0:
            return DIVERGES
        width = a2 - a1
        if a2 < 1.0 and abs(self.xi - 1.0) < XI_ZERO_TOL:
            # the generic form is 0/0 at xi = 1; its limit:
            return (
                self.u
                - self.sigma
                + self.sigma * self.zeta_u * math.log((1.0 - a1) / (1.0 - a2)) / width
            )
        shift = (self.sigma - self.xi * self.u) / (1.0 - self.xi)
        v1 = self.quantile(a1)
        if a2 >= 1.0:
            return v1 / (1.0 - self.xi) + shift
        v2 = self.quantile(a2)
        return ((1.0 - a1) * v1 - (1.0 - a2) * v2) / (width * (1.0 - self.xi)) + shift

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
        try:
            z = (x / self.scale) ** self.shape
        except OverflowError:  # shape ln(x / scale) > 709.8, where the cdf is 1
            return 1.0
        return -math.expm1(-z)

    def pdf(self, x: float) -> float:
        """shape z e^(-z) / x at the cdf's z = (x / scale)^shape; 0 below 0."""
        if x < 0 or (x == 0 and self.shape > 1.0):
            return 0.0
        if x == 0:  # the limit from above
            return 1.0 / self.scale if self.shape == 1.0 else math.inf
        try:
            z = (x / self.scale) ** self.shape
        except OverflowError:  # and e^-z underflows
            return 0.0
        return self.shape * z * math.exp(-z) / x

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        return self._from_neg_log_sf(-math.log1p(-p))

    def sf_quantile(self, s: float) -> float:
        _check_prob_open(s, "s")
        return self._from_neg_log_sf(-math.log(s))

    def _from_neg_log_sf(self, t: float) -> float:
        # t = -ln(1 - p) > 0
        try:
            return self.scale * t ** (1.0 / self.shape)
        except OverflowError:
            raise DomainError(
                f"Weibull quantile at -ln(1 - p) = {t} exceeds the double range"
            ) from None

    def quantile_array(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Quantiles at an array of levels, written into ``out`` if given."""
        import numpy as np

        return np.multiply(self.scale, (-np.log1p(-p)) ** (1.0 / self.shape), out=out)

    def band_mean(self, a1: float, a2: float) -> float:
        """Average quantile over [a1, a2]: lam (Gamma(1+1/k, t) from t2 to t1) / w.

        A NARROW_BAND band, where the incomplete gamma tails cancel, is
        averaged by the Kronrod rule instead.
        """
        if _narrow(a1, a2):
            return qk21(self.quantile, a1, a2)[0] / (a2 - a1)
        s = 1.0 + 1.0 / self.shape
        t1 = -math.log1p(-a1)
        t2 = math.inf if a2 >= 1.0 else -math.log1p(-a2)
        if t2 <= 1.0:
            # near level 0 the lower gamma t^s e^(-t) S(s, t) underflows before
            # the mean, of size t^(1/k), does: take t2^s out of the band
            lower = lambda t: math.exp(-t) * _lower_gamma_series(s, t)
            band = lower(t2) - (t1 / t2) ** s * lower(t1)
            return self.scale * t2 ** (1.0 / self.shape) * band * (t2 / (a2 - a1))
        if s < LOG_BAND_ORDER:
            return self.scale * incomplete_gamma_band(s, t1, t2) / (a2 - a1)
        # levels below 1 give t1 <= 36.7 < s, where the log form holds
        log_band = log_incomplete_gamma_band(s, t1, t2)
        return _exp_mean(math.log(self.scale) - math.log(a2 - a1) + log_band, "Weibull")

    def mean(self) -> float:
        try:
            mean = self.scale * math.gamma(1.0 + 1.0 / self.shape)
        except OverflowError:  # Gamma(1 + 1/k) passes the double range below k ~ 0.0058
            mean = math.inf
        if mean == math.inf:  # or the scale carries a finite Gamma(1 + 1/k) past it
            raise DomainError(
                f"Weibull mean exceeds the double range at shape {self.shape}, scale {self.scale}"
            )
        return mean

    def support(self):
        return (0.0, math.inf)

    @property
    def typical_scale(self) -> float:
        return self.scale


def Exponential(lam: float) -> Weibull:
    """The exponential law with rate lam, which is Weibull(1, 1/lam)."""
    if not (math.isfinite(lam) and lam > 0 and math.isfinite(1.0 / lam)):
        raise DomainError(f"Exponential rate lam and 1/lam must be finite and > 0, got {lam}")
    return Weibull(1.0, 1.0 / lam)


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

    def pdf(self, x: float) -> float:
        return 1.0 / (self.hi - self.lo) if self.lo <= x <= self.hi else 0.0

    def quantile(self, p: float) -> float:
        _check_prob_open(p)
        return self.lo + p * (self.hi - self.lo)

    def sf_quantile(self, s: float) -> float:
        _check_prob_open(s, "s")
        return self.hi - s * (self.hi - self.lo)

    def quantile_array(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Quantiles at an array of levels, written into ``out`` if given."""
        import numpy as np

        return np.add(self.lo, p * (self.hi - self.lo), out=out)

    def band_mean(self, a1: float, a2: float) -> float:
        """Average quantile over [a1, a2]: lo + (hi - lo)(a1 + a2)/2."""
        return self.lo + (self.hi - self.lo) * 0.5 * (a1 + a2)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def support(self):
        return (self.lo, self.hi)

    @property
    def typical_scale(self) -> float:
        return self.hi - self.lo


def uni_var(m, alpha: float) -> float:
    """VaR_alpha(X) = inf{x : F(x) >= alpha}, the alpha-quantile."""
    _check_prob_open(alpha, "alpha")
    return m.quantile(alpha)


def uni_rvar(m, levels: LevelRange):
    """Average of VaR_u over u in [alpha1, alpha2], in closed form.

    With w = alpha2 - alpha1 and t = -ln(1 - alpha) (t = -ln alpha for GEV):

    - GEV(mu, sigma, xi): mu - sigma/(xi w) [w - Gamma(1-xi, t2) + Gamma(1-xi, t1)];
      at xi = 0, mu - sigma/w [a ln(-ln a) - li(a)] taken from alpha1 to alpha2
    - GPDTail(u, sigma, xi, zeta_u): [(1-alpha1) VaR_alpha1 - (1-alpha2) VaR_alpha2]
      / (w (1-xi)) + (sigma - xi u)/(1-xi), for alpha1 >= 1 - zeta_u
    - Weibull(k, lam): lam [Gamma(1+1/k, t1) - Gamma(1+1/k, t2)] / w; the
      exponential with rate r is Weibull(1, 1/r), where Gamma(2, t) is
      (1+t) e^(-t)
    - Uniform(lo, hi): lo + (hi - lo)(alpha1 + alpha2)/2

    Gamma(s, t) is the upper incomplete gamma and li the logarithmic
    integral. A GEV, GPD tail or Weibull band no wider than NARROW_BAND
    times min(alpha1, 1 - alpha2) is averaged by the 21-point Kronrod rule
    instead. With alpha2 = 1 this is the TVaR and may return
    DIVERGES.
    """
    return m.band_mean(levels.alpha1, levels.alpha2)


def uni_tvar(m, alpha: float):
    """TVaR_alpha(X): tail average of VaR; DIVERGES on infinite tails."""
    _check_prob_open(alpha, "alpha")
    return uni_rvar(m, LevelRange(alpha, 1.0))


def _tail_shape(m) -> float:
    """The shape xi of a GEV or GPD tail model with a finite, shape-driven TVaR/VaR limit."""
    if not isinstance(m, (GEV, GPDTail)):
        raise DomainError("tail ratios are defined for GEV and GPDTail models")
    if isinstance(m, GEV) and abs(m.xi) < XI_ZERO_TOL:
        raise DomainError("tail ratios are undefined on the GEV xi=0 branch")
    if m.xi >= 1.0:
        raise DomainError(f"TVaR diverges for xi >= 1 (xi={m.xi})")
    return m.xi


def tvar_var_ratio(m, alpha: float) -> float:
    """TVaR_alpha / VaR_alpha for shape-parameterized tail models."""
    _tail_shape(m)
    return uni_tvar(m, alpha) / uni_var(m, alpha)


def ratio_limit(m) -> float:
    """Limit of TVaR_alpha / VaR_alpha as alpha -> 1.

    (1 - xi)^(-1) for heavy tails, 1 for short and GPD-exponential tails.
    """
    xi = _tail_shape(m)
    return 1.0 / (1.0 - xi) if xi > 0 else 1.0
