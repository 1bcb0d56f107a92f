"""Independent numerical oracles for the test suite.

Everything here is coded from first principles: quantiles are fresh
formulas or brentq inversions, level integrals use their own tail
substitution, sensitivities come from explicit epsilon-mixtures, and
the empirical estimators are re-derived by masking and sorting at every
call.  Nothing routes through the package's closed forms; only its error
types are shared, so that tests can compare which error was raised.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from rvar.errors import (
    DegenerateRangeError,
    DomainError,
    EmptyConditioningError,
    InfeasibleLevelError,
)

_QUAD = dict(epsabs=1e-12, epsrel=1e-12, limit=300)


def _quiet_quad(f, a, b, **kw):
    opts = dict(_QUAD)
    opts.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(f, a, b, **opts)
    return val


# fresh quantile formulas, written survival-side for tail precision

def gev_sf_quantile(mu, sigma, xi, s):
    t = -math.log1p(-s)
    if xi == 0.0:
        return mu - sigma * math.log(t)
    return mu + sigma * math.expm1(-xi * math.log(t)) / xi


def gev_quantile(mu, sigma, xi, p):
    return gev_sf_quantile(mu, sigma, xi, 1.0 - p)


def gpd_sf_quantile(u, sigma, xi, zeta, s):
    if xi == 0.0:
        return u + sigma * math.log(zeta / s)
    return u + sigma * math.expm1(-xi * math.log(s / zeta)) / xi


def gpd_quantile(u, sigma, xi, zeta, p):
    return gpd_sf_quantile(u, sigma, xi, zeta, 1.0 - p)


def weibull_quantile(shape, scale, p):
    return scale * (-math.log1p(-p)) ** (1.0 / shape)


def exp_quantile(lam, p):
    return -math.log1p(-p) / lam


def quantile_band_integral(sfq, a1, a2):
    """Integral of the quantile over [a1, a2] via a survival substitution.

    sfq(s) must return the quantile at probability 1 - s.  The tail beyond
    level 0.99 (or the whole band, if inside it) uses u = 1 - e^{-t} so
    heavy tails keep full precision; a2 = 1 integrates to infinity.
    """
    total = 0.0
    cut = min(a2, 0.99) if a1 < 0.99 else a1
    if cut > a1:
        total += _quiet_quad(lambda u: sfq(1.0 - u), a1, cut)
    if a2 > cut:
        t_lo = -math.log1p(-cut)
        t_hi = math.inf if a2 >= 1.0 else -math.log1p(-a2)

        def g(t):
            s = math.exp(-t)
            if s <= 0.0:
                return 0.0
            return sfq(s) * s

        total += _quiet_quad(g, t_lo, t_hi)
    return total


def rvar_from_quantile(sfq, a1, a2):
    return quantile_band_integral(sfq, a1, a2) / (a2 - a1)


# fresh copula cdfs

def pi_cdf(u, v):
    return u * v


def m_cdf(u, v):
    return min(u, v)


def w_cdf(u, v):
    return max(u + v - 1.0, 0.0)


def gumbel_cdf(u, v, theta):
    if u <= 0.0 or v <= 0.0:
        return 0.0
    if u >= 1.0:
        return v
    if v >= 1.0:
        return u
    a = (-math.log(u)) ** theta + (-math.log(v)) ** theta
    return math.exp(-a ** (1.0 / theta))


def joint_survival(cop, u, v):
    return 1.0 - u - v + cop(u, v)


def root_lower_var(cop, f_fixed_x, free_cdf, level, lo, hi):
    """Smallest y with cop(F_fixed(x), F_free(y)) = level by bracketed root."""
    return brentq(
        lambda y: cop(f_fixed_x, free_cdf(y)) - level, lo, hi, xtol=1e-13, rtol=1e-14
    )


def root_upper_var(cop, f_fixed_x, free_cdf, alpha, lo, hi):
    """y with 1 - F_fixed - F_free + cop(...) = 1 - alpha by bracketed root."""
    return brentq(
        lambda y: joint_survival(cop, f_fixed_x, free_cdf(y)) - (1.0 - alpha),
        lo,
        hi,
        xtol=1e-13,
        rtol=1e-14,
    )


def orthant_lower_rvar(cop, f_fixed_x, free_cdf, a1, a2, free_quantile, lo, hi):
    """Level-average of the lower orthant VaR by quadrature over roots."""
    b_top = cop(f_fixed_x, free_cdf(free_quantile(a2))) if a2 < 1.0 else f_fixed_x

    def var_at(u):
        return root_lower_var(cop, f_fixed_x, free_cdf, u, lo, hi)

    val = _quiet_quad(var_at, a1, b_top, epsabs=1e-10, epsrel=1e-10)
    return val / (b_top - a1)


def orthant_upper_rvar(cop, f_fixed_x, free_cdf, a1, a2, free_quantile, lo, hi):
    """Level-average of the upper orthant VaR by quadrature over roots."""
    if a1 > 0.0:
        c_bot = 1.0 - joint_survival(cop, f_fixed_x, free_cdf(free_quantile(a1)))
    else:
        c_bot = f_fixed_x

    def var_at(v):
        return root_upper_var(cop, f_fixed_x, free_cdf, v, lo, hi)

    val = _quiet_quad(var_at, c_bot, a2, epsabs=1e-10, epsrel=1e-10)
    return val / (a2 - c_bot)


# epsilon-mixture sensitivity oracles; cond_q is the base conditional
# quantile, cond_cdf the base conditional cdf, both of the free coordinate

def mixture_quantile(cond_q, cond_cdf, z, eps, w):
    c1 = (1.0 - eps) * cond_cdf(z)
    if w <= c1:
        return cond_q(w / (1.0 - eps))
    if w <= c1 + eps:
        return z
    return cond_q((w - eps) / (1.0 - eps))


def mixture_band_integral(cond_q, cond_cdf, z, eps, w1, w2):
    """Integral of the mixed conditional quantile over [w1, w2]."""
    if eps == 0.0:
        return _quiet_quad(cond_q, w1, w2)
    c1 = (1.0 - eps) * cond_cdf(z)
    c2 = c1 + eps
    total = 0.0
    lo, hi = w1, min(w2, c1)
    if hi > lo:
        total += (1.0 - eps) * _quiet_quad(cond_q, lo / (1.0 - eps), hi / (1.0 - eps))
    lo, hi = max(w1, c1), min(w2, c2)
    if hi > lo:
        total += z * (hi - lo)
    lo, hi = max(w1, c2), w2
    if hi > lo:
        total += (1.0 - eps) * _quiet_quad(
            cond_q, (lo - eps) / (1.0 - eps), (hi - eps) / (1.0 - eps)
        )
    return total


def richardson_sens(measure_of_eps):
    """Two-step extrapolated derivative of measure(eps) at eps = 0."""
    base = measure_of_eps(0.0)
    s1 = (measure_of_eps(1e-4) - base) / 1e-4
    s2 = (measure_of_eps(1e-5) - base) / 1e-5
    return (10.0 * s2 - s1) / 9.0


def sens_var_oracle(cond_q, cond_cdf, w_star, z):
    def value(eps):
        if eps == 0.0:
            return cond_q(w_star)
        return mixture_quantile(cond_q, cond_cdf, z, eps, w_star)

    return richardson_sens(value)


def sens_band_oracle(cond_q, cond_cdf, w1, w2, scale, z):
    """Mixture derivative of the band average scale * integral / (w2 - w1)."""

    def value(eps):
        return scale * mixture_band_integral(cond_q, cond_cdf, z, eps, w1, w2) / (w2 - w1)

    return richardson_sens(value)


# brute-force empirical estimators: mask the conditioned rows, then sort
# them, at every call.  These are the package's original estimator bodies,
# kept as the reference for the rank-index implementation.

_INDEX_FUZZ = 1e-9


def _conditioned_sorted(data, x_fixed, free_index, above):
    n, d = data.shape
    if not 1 <= free_index <= d:
        raise DomainError(f"free_index must be in 1..{d}, got {free_index}")
    fc = free_index - 1
    others = [c for c in range(d) if c != fc]
    x = np.asarray(x_fixed, dtype=float).reshape(-1)
    if x.size == 1:
        x = np.full(len(others), float(x[0]))
    if x.size != len(others):
        raise DomainError(f"x_fixed must supply {len(others)} pinned coordinates")
    other_data = data[:, others]
    mask = np.all(other_data > x, axis=1) if above else np.all(other_data <= x, axis=1)
    return np.sort(data[mask, fc])


def bf_marginal_quantile(data, col, p):
    n, d = data.shape
    if not 1 <= col <= d:
        raise DomainError(f"col must be in 1..{d}, got {col}")
    if not 0.0 < p <= 1.0:
        raise DomainError(f"p must lie in (0, 1], got {p}")
    vals = np.sort(data[:, col - 1])
    j = max(1, math.ceil(n * p - _INDEX_FUZZ))
    return float(vals[min(j, n) - 1])


def bf_lower_var(data, u, x_fixed, free_index=2):
    n = data.shape[0]
    if not 0.0 < u <= 1.0:
        raise DomainError(f"u must lie in (0, 1], got {u}")
    vals = _conditioned_sorted(data, x_fixed, free_index, above=False)
    if vals.size == 0:
        raise EmptyConditioningError("no observations at or below the pinned point")
    j = max(1, math.ceil(n * u - _INDEX_FUZZ))
    if j > vals.size:
        raise InfeasibleLevelError(f"level u={u:.6g} is not attained")
    return float(vals[j - 1])


def bf_upper_var(data, v, x_fixed, free_index=2):
    n = data.shape[0]
    if not 0.0 < v <= 1.0:
        raise DomainError(f"v must lie in (0, 1], got {v}")
    vals = _conditioned_sorted(data, x_fixed, free_index, above=True)
    if vals.size == 0:
        raise EmptyConditioningError("no observations strictly above the pinned point")
    k = vals.size
    j = math.ceil(k - n * (1.0 - v) - _INDEX_FUZZ)
    if j < 1:
        raise InfeasibleLevelError(f"level v={v:.6g} is met below every observation")
    return float(vals[min(j, k) - 1])


def bf_lower_rvar(data, m, a1, a2, x_fixed, free_index=2):
    n = data.shape[0]
    vals = _conditioned_sorted(data, x_fixed, free_index, above=False)
    if vals.size == 0:
        raise EmptyConditioningError("no observations at or below the pinned point")
    q2 = bf_marginal_quantile(data, free_index, a2)
    top = float(np.count_nonzero(vals <= q2)) / n
    if top <= a1 + 1e-12:
        raise DegenerateRangeError(f"empirical band top {top:.6g} does not exceed alpha1")
    step = (top - a1) / m
    u = a1 + step * np.arange(1, m + 1)
    j = np.maximum(1, np.ceil(n * u - _INDEX_FUZZ).astype(int))
    if j[-1] > vals.size:
        raise InfeasibleLevelError("level ladder exceeds the conditioned sample")
    return float(np.mean(vals[j - 1]))


def bf_upper_rvar(data, m, a1, a2, x_fixed, free_index=2):
    n = data.shape[0]
    vals = _conditioned_sorted(data, x_fixed, free_index, above=True)
    if vals.size == 0:
        raise EmptyConditioningError("no observations strictly above the pinned point")
    k = vals.size
    if a1 <= 0.0:
        bottom = 1.0 - k / n
    else:
        q1 = bf_marginal_quantile(data, free_index, a1)
        bottom = 1.0 - float(np.count_nonzero(vals > q1)) / n
    if bottom >= a2 - 1e-12:
        raise DegenerateRangeError(f"empirical band bottom {bottom:.6g} reaches alpha2")
    step = (a2 - bottom) / m
    v = bottom + step * np.arange(1, m + 1)
    j = np.ceil(k - n * (1.0 - v) - _INDEX_FUZZ).astype(int)
    if np.any(j < 1):
        raise InfeasibleLevelError("level ladder is met below the conditioned sample")
    return float(np.mean(vals[np.minimum(j, k) - 1]))
