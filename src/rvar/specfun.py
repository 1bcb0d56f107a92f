"""Special functions used by the closed-form risk measures.

All functions are real-valued and pure. Accuracy targets: 1e-12 relative
for the incomplete gamma, 1e-10 for the exponential integrals and the
logarithmic integral (away from its singularity at 1).

``scipy.special`` loads on the first special-function call, not at import:
``import scipy`` alone is cheap and resolves the submodule on first access.
"""

import math

import scipy

from .errors import DomainError

EULER_GAMMA = 0.5772156649015329


def upper_incomplete_gamma(s: float, a: float) -> float:
    """Gamma(s, a) = integral of t^(s-1) e^(-t) over [a, inf).

    Supports every real s for a > 0; a = 0 requires s > 0 (the integral
    diverges otherwise). Negative s is reached by downward recurrence
    Gamma(s, a) = (Gamma(s+1, a) - a^s e^(-a)) / s from a base order in
    (0, 1] where the regularized routine is accurate.
    """
    if a < 0:
        raise DomainError(f"upper_incomplete_gamma requires a >= 0, got a={a}")
    if a == 0:
        if s <= 0:
            raise DomainError(
                f"Gamma(s, 0) diverges for s <= 0, got s={s}"
            )
        return float(scipy.special.gamma(s))
    if s > 0:
        return float(scipy.special.gammaincc(s, a) * scipy.special.gamma(s))
    if s == int(s):
        # integer chain bottoms out at Gamma(0, a) = E1(a)
        g = float(scipy.special.exp1(a))
        order = 0.0
    else:
        order = s - math.floor(s)
        g = float(scipy.special.gammaincc(order, a) * scipy.special.gamma(order))
    while order > s:
        order -= 1.0
        g = (g - a**order * math.exp(-a)) / order
    return g


def incomplete_gamma_band(s: float, t1: float, t2: float) -> float:
    """Integral of t^(s-1) e^(-t) over [t1, t2], for s > 0, 0 <= t1 < t2 <= inf.

    Differences the regularized lower tail P(s, .) or the upper tail
    Q(s, .), whichever subtracts the smaller value, so a band near t = 0
    keeps its digits as well as one far out in the tail. For s at or above
    LOG_BAND_ORDER use log_incomplete_gamma_band: there the regularized
    tails underflow on bands whose integral does not, and past s = 171.6
    Gamma(s) itself overflows.
    """
    p2 = scipy.special.gammainc(s, t2)
    q1 = scipy.special.gammaincc(s, t1)
    if p2 <= q1:
        band = p2 - scipy.special.gammainc(s, t1)
    else:
        band = q1 - scipy.special.gammaincc(s, t2)
    return float(band * scipy.special.gamma(s))


# Gamma(50) ~ 6e62: from here on a regularized tail below 1e-308 no longer
# means an integral below 1e-245, so the band is summed as logarithms
LOG_BAND_ORDER = 50.0


def _lower_gamma_series(s: float, x: float) -> float:
    """sum_n x^n / (s (s+1) ... (s+n)), so gamma(s, x) = x^s e^(-x) times it."""
    term = total = 1.0 / s
    n = 0.0
    while term > total * 1e-17:
        n += 1.0
        term *= x / (s + n)
        total += term
    return total


def log_incomplete_gamma_band(s: float, t1: float, t2: float) -> float:
    """ln of the integral of t^(s-1) e^(-t) over [t1, t2], for s > 0, 0 <= t1 < t2 <= inf.

    Meant for large s with t1 < s: a finite band is differenced from the
    positive lower-gamma series at each end, as the ratio of the two, so a
    narrow band keeps its digits; a band to infinity is ln Gamma(s) + ln Q(s, t1).
    """
    if math.isinf(t2):
        return float(scipy.special.gammaln(s)) + math.log(scipy.special.gammaincc(s, t1))
    sum2 = _lower_gamma_series(s, t2)
    log2 = s * math.log(t2) - t2 + math.log(sum2)
    if t1 == 0:
        return log2
    # ln of gamma(s, t1) / gamma(s, t2)
    d = s * math.log(t1 / t2) + (t2 - t1) + math.log(_lower_gamma_series(s, t1) / sum2)
    return log2 + math.log(-math.expm1(d))


def log_integral(x: float) -> float:
    """li(x) = integral of dt/ln(t) over [0, x], for 0 <= x < 1.

    Monotone decreasing on (0, 1), li(0) = 0, and li(x) -> -inf as x -> 1.
    Values are refused within 1e-12 of the singularity.
    """
    if x < 0 or x > 1 - 1e-12:
        raise DomainError(f"log_integral defined on [0, 1), got x={x}")
    if x == 0:
        return 0.0
    # substitute t = e^{-w}: li(x) = -E1(-ln x)
    return float(-scipy.special.exp1(-math.log(x)))


def exp_integral_e1(x: float) -> float:
    """E1(x) = -Ei(-x) for x > 0."""
    if x <= 0:
        raise DomainError(f"E1 requires x > 0, got x={x}")
    return float(scipy.special.exp1(x))
