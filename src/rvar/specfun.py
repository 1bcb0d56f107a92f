"""Special functions used by the closed-form risk measures.

All functions are real-valued, pure and need nothing beyond the standard
library: ``math.gamma`` and ``math.lgamma`` give the complete gamma
function, and in-package series and continued fractions the rest.

- Regularized incomplete gamma P(s, x) and Q(s, x), after DiDonato &
  Morris (1986, ACM TOMS 654). For s <= 1 and x < 1.1 both come from the
  Taylor series of the lower gamma, with 1/Gamma(1 + s) - 1 summed as its
  own power series, so Q is never formed as 1 - P where that cancels.
  Otherwise P is the power series (DLMF 8.7.1) for x < s and Q the
  Legendre continued fraction (DLMF 8.9.2) from x = s on, summed by
  Steed's algorithm; the other tail is 1 minus it, at least 0.4 there.
- The prefactor x^s e^(-x) / Gamma(s) is a product of correctly rounded
  factors for s <= 100 and a Stirling form in x/s - 1 - ln(x/s) above.
- Gamma(s, a) for s <= 0 is the same continued fraction for a >= 0.5.
  Below that, downward recurrence runs from a base order in (-0.5, 0.5],
  whose value is the small-order Taylor form, which stays accurate as the
  base order goes to 0 from either side.
- E1 is its power series (DLMF 6.6.2), summed exactly, up to x = 1.5 and
  the s = 0 continued fraction beyond.

Measured against the 40-digit mpmath values in ``tests/_specfun_pins.py``
(s from -2.5 to 500, t from 1e-6 into the tail, t near s), the largest
relative errors are 7.6e-16 for P, 1.5e-15 for Q, 1.6e-15 for Gamma(s, t)
and 4.6e-16 for E1; ``scipy.special`` reaches 1.0e-13, 8.7e-14, 8.7e-14
and 1.1e-15 on the same points. The logarithmic integral inherits E1's
accuracy away from its singularity at 1.
"""

import math

from .errors import DomainError

EULER_GAMMA = 0.5772156649015329

# Taylor coefficients of 1/Gamma(1 + a) - 1 at a = 0, degrees 1 to 26
# (A&S 6.1.34, recomputed to 20 digits); the truncation error stays below
# 3e-18 on [-0.5, 1]
_RGAM1 = (
    5.7721566490153286061e-1,
    -6.5587807152025388108e-1,
    -4.2002635034095235529e-2,
    1.665386113822914895e-1,
    -4.2197734555544336748e-2,
    -9.6219715278769735621e-3,
    7.2189432466630995424e-3,
    -1.1651675918590651121e-3,
    -2.1524167411495097282e-4,
    1.2805028238811618615e-4,
    -2.0134854780788238656e-5,
    -1.2504934821426706573e-6,
    1.1330272319816958824e-6,
    -2.0563384169776071035e-7,
    6.1160951044814158179e-9,
    5.0020076444692229301e-9,
    -1.1812745704870201446e-9,
    1.0434267116911005105e-10,
    7.782263439905071254e-12,
    -3.6968056186422057082e-12,
    5.100370287454475979e-13,
    -2.0583260535665067832e-14,
    -5.3481225394230179824e-15,
    1.2267786282382607902e-15,
    -1.1812593016974587695e-16,
    1.1866922547516003326e-18,
)
_MAX_TERMS = 10_000


def _gamma(s: float) -> float:
    """Gamma(s), or inf past the overflow edge at s ~ 171.6."""
    try:
        return math.gamma(s)
    except OverflowError:
        return math.inf


def _gam1(a: float) -> float:
    """1/Gamma(1 + a) - 1 for -0.5 <= a <= 1, free of the cancellation near a = 0."""
    acc = 0.0
    for c in reversed(_RGAM1):
        acc = acc * a + c
    return acc * a


def _rlog(u: float) -> float:
    """u - 1 - ln u for u > 0, accurate near u = 1 where it is ~ (u - 1)^2 / 2."""
    r = u - 1.0
    if abs(r) > 0.5:
        return r - math.log(u)
    # ln(1 + r) = 2 atanh(y) with y = r / (2 + r), so r - ln(1 + r) = r y - 2 (y^3/3 + y^5/5 + ...)
    y = r / (2.0 + r)
    y2 = y * y
    term = y2 * y
    total = 0.0
    k = 3.0
    while True:
        add = term / k
        total += add
        if abs(add) <= 1e-17 * abs(total):
            return r * y - 2.0 * total
        term *= y2
        k += 2.0


def _regularized_prefactor(s: float, x: float) -> float:
    """x^s e^(-x) / Gamma(s) for s > 0, x > 0."""
    if s > 100.0:
        # Gamma(s) = sqrt(2 pi / s) s^s e^(-s) e^(stirlerr(s)), stirlerr by its series
        r2 = 1.0 / (s * s)
        stirlerr = (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 / 1260.0)) / s
        return math.sqrt(s / (2.0 * math.pi)) * math.exp(-s * _rlog(x / s) - stirlerr)
    if s * math.log(x) < 700.0 and x < 1400.0:
        # e^(-x) in two halves, so a normal result never passes a subnormal factor
        half = math.exp(-0.5 * x)
        return x**s * half / math.gamma(s) * half
    return math.exp(s * math.log(x) - x - math.lgamma(s))


def _lower_gamma_series(s: float, x: float) -> float:
    """sum_n x^n / (s (s+1) ... (s+n)), so gamma(s, x) = x^s e^(-x) times it."""
    term = total = 1.0 / s
    n = 0.0
    while term > total * 1e-17:
        n += 1.0
        term *= x / (s + n)
        total += term
    return total


def _upper_gamma_cf(s: float, x: float) -> float:
    """Gamma(s, x) x^(-s) e^x by the Legendre continued fraction, for x > 0.

    The even contraction 1/(x+1-s- 1(1-s)/(x+3-s- 2(2-s)/(x+5-s- ...))) is
    summed by Steed's algorithm: its increments shrink, so late terms add
    less rounding than a running product of near-1 factors would. It
    converges for every real s and takes ~100 terms at x = 1, ~15 at x = 12.
    """
    b = x + 1.0 - s
    d = 1.0 / b
    step = total = d
    for n in range(1, _MAX_TERMS):
        b += 2.0
        d = 1.0 / (b - n * (n - s) * d)
        step *= b * d - 1.0
        total += step
        if abs(step) <= 1e-17 * total:
            break
    return total


def _small_order(s: float, x: float, h: float) -> tuple[float, float]:
    """(s gamma(s, x), Q(s, x)) for 0 < s <= 1 and 0 <= x < 1.1, given h = 1/Gamma(1+s) - 1.

    From the Taylor series of the lower gamma (DiDonato & Morris 1986):
    s gamma(s, x) = x^s (1 - J) with J = -s sum_{n>=1} (-x)^n / (n! (s+n)),
    and with L = x^s - 1, Q = (x^s J - L)(1 + h) - h, every part of which is
    small where Q is; P is s gamma(s, x) (1 + h). The Q form also holds for
    -0.5 <= s < 0, as Gamma(s, x) / Gamma(s) (upper_incomplete_gamma's base order).
    """
    if x == 0.0:
        return 0.0, 1.0
    term = 1.0
    series = 0.0
    n = 0
    while True:
        n += 1
        term *= -x / n
        add = term / (s + n)
        series += add
        if abs(add) <= 1e-17 * abs(series):
            break
    j = -s * series
    xs = x**s
    return xs * (1.0 - j), (xs * j - math.expm1(s * math.log(x))) * (1.0 + h) - h


def _regularized_pq(s: float, x: float) -> tuple[float, float]:
    """(P(s, x), Q(s, x)), the regularized lower and upper incomplete gamma, s > 0, x >= 0."""
    if x == 0.0:
        return 0.0, 1.0
    if math.isinf(x):
        return 1.0, 0.0
    if s <= 1.0:
        if x < 1.1:
            h = _gam1(s)
            lower, q = _small_order(s, x, h)
            return lower * (1.0 + h), q
    elif x < s:
        p = _regularized_prefactor(s, x) * _lower_gamma_series(s, x)
        return p, 1.0 - p
    q = _regularized_prefactor(s, x) * _upper_gamma_cf(s, x)
    return 1.0 - q, q


def _exp1(x: float) -> float:
    """E1(x) for x > 0: power series up to x = 1.5, continued fraction beyond."""
    if x > 1.5:
        return _upper_gamma_cf(0.0, x) * math.exp(-x)
    # E1(x) = -gamma - ln x - sum_{k>=1} (-x)^k / (k k!), added exactly: the
    # parts cancel to E1(1.5) = 0.1 from magnitudes near 1
    parts = [-EULER_GAMMA, -math.log(x)]
    term = 1.0
    k = 0
    while abs(term) > 1e-18:
        k += 1
        term *= -x / k
        parts.append(-term / k)
    return math.fsum(parts)


def upper_incomplete_gamma(s: float, a: float) -> float:
    """Gamma(s, a) = integral of t^(s-1) e^(-t) over [a, inf).

    Supports every real s for a > 0; a = 0 requires s > 0 (the integral
    diverges otherwise). For s <= 0, a >= 0.5 takes the continued fraction,
    which holds for every real order; below that, downward recurrence
    Gamma(o, a) = (Gamma(o+1, a) - a^o e^(-a)) / o runs from the base
    order b = s + k in (-0.5, 0.5], k = floor(0.5 - s), with Gamma(0, a) =
    E1(a) and otherwise Gamma(b, a) = Q(b, a) Gamma(b) from the small-order
    form, so no step divides a cancelled difference by an order near 0.
    """
    if a < 0:
        raise DomainError(f"upper_incomplete_gamma requires a >= 0, got a={a}")
    if a == 0:
        if s <= 0:
            raise DomainError(
                f"Gamma(s, 0) diverges for s <= 0, got s={s}"
            )
        return _gamma(s)
    if s > 0:
        return _regularized_pq(s, a)[1] * _gamma(s)
    if a >= 0.5:
        return a**s * math.exp(-a) * _upper_gamma_cf(s, a)
    k = math.floor(0.5 - s)
    base = s + k
    g = _exp1(a) if base == 0.0 else _small_order(base, a, _gam1(base))[1] * _gamma(base)
    # the orders are s + i, so the last step divides by s itself
    for i in range(k - 1, -1, -1):
        order = s + i
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
    if s <= 1.0 and t2 < 1.1:
        # s gamma(s, t) is at hand: a lower-side band needs no Gamma(s), whose
        # rounding the factor sigma / (xi w) of a GEV band mean would magnify
        h = _gam1(s)
        lower1, q1 = _small_order(s, t1, h)
        lower2, q2 = _small_order(s, t2, h)
        if lower2 * (1.0 + h) <= q1:
            return (lower2 - lower1) / s
        return (q1 - q2) * _gamma(s)
    p1, q1 = _regularized_pq(s, t1)
    p2, q2 = _regularized_pq(s, t2)
    return (p2 - p1 if p2 <= q1 else q1 - q2) * _gamma(s)


# Gamma(50) ~ 6e62: from here on a regularized tail below 1e-308 no longer
# means an integral below 1e-245, so the band is summed as logarithms
LOG_BAND_ORDER = 50.0


def log_incomplete_gamma_band(s: float, t1: float, t2: float) -> float:
    """ln of the integral of t^(s-1) e^(-t) over [t1, t2], for s > 0, 0 <= t1 < t2 <= inf.

    Meant for large s with t1 < s: a finite band is differenced from the
    positive lower-gamma series at each end, as the ratio of the two, so a
    narrow band keeps its digits; a band to infinity is ln Gamma(s) + ln Q(s, t1).
    """
    if math.isinf(t2):
        return math.lgamma(s) + math.log(_regularized_pq(s, t1)[1])
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
    return -_exp1(-math.log(x))


def exp_integral_e1(x: float) -> float:
    """E1(x) = -Ei(-x) for x > 0."""
    if x <= 0:
        raise DomainError(f"E1 requires x > 0, got x={x}")
    return _exp1(x)
