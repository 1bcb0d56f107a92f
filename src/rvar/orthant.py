"""Bivariate orthant risk measures.

Lower-orthant measures condition on the joint cdf staying above a level
with one coordinate pinned; upper-orthant measures do the same through the
joint survival function.  Closed forms are provided for independent GEV
margins and for exponential margins under the three Frechet-bound copulas;
everything else goes through root-finding plus quadrature.

The band average of an orthant VaR is integrated by ``quad``, the package's
own port of QUADPACK's QAGS (``rvar._quadpack``); the GEV closed forms take
their incomplete gamma and E1 from ``specfun``, and
``comonotonic_aggregate_rvar`` bisects its total quantile in p. No measure
loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadpack import quad
from .dependence import BivariateModel, Comonotone, Countermonotone, Gumbel, Independence, sample
from .errors import (
    ComonotonicityError,
    DegenerateRangeError,
    DomainError,
    InfeasibleLevelError,
)
from .marginals import (
    DIVERGES,
    GEV,
    Exponential,
    GPDTail,
    LevelRange,
    XI_ZERO_TOL,
    is_divergent,
)
from .specfun import exp_integral_e1, upper_incomplete_gamma

CURVE_TAIL_EPS = 1e-6
DEGENERACY_TOL = 1e-12

_BISECT_TOL = 1e-10
_MAX_BISECT = 200
_MAX_EXPAND = 300
_QUAD_OPTS = dict(epsabs=1e-9, epsrel=1e-9, limit=200)
# e^-40 ~ 4e-18 of level mass left beyond the tail cutoff
_TAIL_TMAX = 40.0


def _margins(b: BivariateModel, fixed_index: int):
    """Return (fixed margin, free margin) for a 1-based fixed coordinate."""
    if fixed_index == 1:
        return b.margin1, b.margin2
    if fixed_index == 2:
        return b.margin2, b.margin1
    raise DomainError(f"fixed_index must be 1 or 2, got {fixed_index}")


def _check_x_fixed(x_fixed: float) -> None:
    if not math.isfinite(x_fixed):
        raise DomainError(f"x_fixed must be finite, got {x_fixed}")


def _joint_cdf(b: BivariateModel, fixed_index: int, x: float, y: float) -> float:
    if fixed_index == 1:
        return b.joint_cdf(x, y)
    return b.joint_cdf(y, x)


def _joint_survival(b: BivariateModel, fixed_index: int, x: float, y: float) -> float:
    if fixed_index == 1:
        return b.joint_survival(x, y)
    return b.joint_survival(y, x)


def _bisect_smallest(pred, lo: float, hi: float) -> float:
    # pred is monotone false->true in y; lo is false, hi is true
    for _ in range(_MAX_BISECT):
        if hi - lo <= _BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _bisect_root(f, lo: float, hi: float) -> float:
    """The float in [lo, hi] where increasing f is nearest zero, given f(lo) < 0 < f(hi).

    Halves the bracket down to adjacent floats (~50 steps on [1e-15, 1 - 1e-15]).
    """
    f_lo, f_hi = f(lo), f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo if -f_lo < f_hi else hi
        f_mid = f(mid)
        if f_mid < 0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def _smallest_true(pred, free, start: float) -> float:
    """Smallest y with pred(y) true, pred monotone nondecreasing in y."""
    lo_s, hi_s = free.support()
    y0 = start
    if math.isfinite(lo_s) and y0 < lo_s:
        y0 = lo_s
    if math.isfinite(hi_s) and y0 > hi_s:
        y0 = hi_s
    step = max(free.typical_scale, 1e-12)
    if pred(y0):
        hi = y0
        if math.isfinite(lo_s) and y0 <= lo_s:
            return lo_s
        lo = None
        cand = y0
        for _ in range(_MAX_EXPAND):
            cand = cand - step
            step *= 2.0
            if math.isfinite(lo_s) and cand <= lo_s:
                if pred(lo_s):
                    return lo_s
                lo = lo_s
                break
            if not pred(cand):
                lo = cand
                break
            hi = cand
        if lo is None:
            raise InfeasibleLevelError("no finite lower bracket for orthant root")
    else:
        lo = y0
        hi = None
        cand = y0
        for _ in range(_MAX_EXPAND):
            cand = cand + step
            step *= 2.0
            if math.isfinite(hi_s) and cand >= hi_s:
                if pred(hi_s):
                    hi = hi_s
                    break
                raise InfeasibleLevelError("level not attainable on the free margin support")
            if pred(cand):
                hi = cand
                break
            lo = cand
        if hi is None:
            raise InfeasibleLevelError("level not attainable at any finite point")
    return _bisect_smallest(pred, lo, hi)


def _lower_var_at(b: BivariateModel, fixed_index: int, x_fixed: float, level: float) -> float:
    fixed_m, free_m = _margins(b, fixed_index)

    def pred(y: float) -> bool:
        return _joint_cdf(b, fixed_index, x_fixed, y) >= level

    try:
        start = free_m.quantile(min(max(level, 1e-12), 1.0 - 1e-12))
    except DomainError:
        start = free_m.support()[0]
    return _smallest_true(pred, free_m, start)


def _upper_var_surv(b: BivariateModel, fixed_index: int, x_fixed: float, s_threshold: float) -> float:
    """Smallest y with joint survival at (x_fixed, y) at or below s_threshold."""
    fixed_m, free_m = _margins(b, fixed_index)

    def pred(y: float) -> bool:
        return _joint_survival(b, fixed_index, x_fixed, y) <= s_threshold

    try:
        start = free_m.sf_quantile(min(max(s_threshold, 1e-300), 1.0 - 1e-12))
    except DomainError:
        start = free_m.support()[0]
    return _smallest_true(pred, free_m, start)


def lower_var(b: BivariateModel, alpha: float, x_fixed: float, fixed_index: int = 1) -> float:
    """Smallest free-coordinate value keeping the joint cdf at or above alpha."""
    _check_x_fixed(x_fixed)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    fixed_m, _ = _margins(b, fixed_index)
    a_fixed = fixed_m.cdf(x_fixed)
    if a_fixed < alpha:
        raise InfeasibleLevelError(
            f"joint cdf is capped at {a_fixed:.6g} < alpha={alpha:.6g} for this fixed point"
        )
    return _lower_var_at(b, fixed_index, x_fixed, alpha)


def upper_var(b: BivariateModel, alpha: float, x_fixed: float, fixed_index: int = 1) -> float:
    """Smallest free-coordinate value pushing the joint survival to 1 - alpha or below."""
    _check_x_fixed(x_fixed)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    fixed_m, _ = _margins(b, fixed_index)
    a_fixed = fixed_m.cdf(x_fixed)
    if a_fixed > alpha:
        raise InfeasibleLevelError(
            f"joint survival already below 1-alpha for all y: F_fixed={a_fixed:.6g} > {alpha:.6g}"
        )
    return _upper_var_surv(b, fixed_index, x_fixed, 1.0 - alpha)


def _is_independent(copula) -> bool:
    return isinstance(copula, Independence) or (
        isinstance(copula, Gumbel) and copula.theta == 1.0
    )


def _free_tail_diverges(b: BivariateModel, free_m) -> bool:
    if isinstance(free_m, (GEV, GPDTail)) and free_m.xi >= 1.0:
        return True
    # under independence the conditional law is the free margin itself
    if (
        _is_independent(b.copula)
        and isinstance(free_m, GEV)
        and abs(free_m.xi) < XI_ZERO_TOL
    ):
        return True
    return False


def _quad(f, a: float, c: float) -> float:
    return quad(f, a, c, **_QUAD_OPTS)[0]


def lower_rvar(b: BivariateModel, levels: LevelRange, x_fixed: float, fixed_index: int = 1):
    """Average of the lower orthant VaR over a clipped level band."""
    _check_x_fixed(x_fixed)
    a1, a2 = levels.alpha1, levels.alpha2
    fixed_m, free_m = _margins(b, fixed_index)
    a_fixed = fixed_m.cdf(x_fixed)
    if a2 >= 1.0:
        if _free_tail_diverges(b, free_m):
            return DIVERGES
        b_top = a_fixed
    else:
        b_top = _joint_cdf(b, fixed_index, x_fixed, free_m.quantile(a2))
    if b_top <= a1 + DEGENERACY_TOL:
        raise DegenerateRangeError(
            f"attainable band top {b_top:.6g} does not exceed alpha1={a1:.6g}"
        )

    def f(u: float) -> float:
        return _lower_var_at(b, fixed_index, x_fixed, u)

    singular = (
        a2 >= 1.0
        and not math.isfinite(free_m.support()[1])
        and not isinstance(b.copula, Comonotone)
    )
    if singular:
        delta = min(0.5 * (b_top - a1), 1e-3)
        head = _quad(f, a1, b_top - delta)

        def tail(t: float) -> float:
            u = b_top - math.exp(-t)
            if u >= b_top:
                return 0.0
            return f(u) * math.exp(-t)

        total = head + _quad(tail, -math.log(delta), _TAIL_TMAX)
    else:
        total = _quad(f, a1, b_top)
    return total / (b_top - a1)


def upper_rvar(b: BivariateModel, levels: LevelRange, x_fixed: float, fixed_index: int = 1):
    """Average of the upper orthant VaR over a clipped level band."""
    _check_x_fixed(x_fixed)
    a1, a2 = levels.alpha1, levels.alpha2
    fixed_m, free_m = _margins(b, fixed_index)
    a_fixed = fixed_m.cdf(x_fixed)
    if a2 >= 1.0 and _free_tail_diverges(b, free_m):
        return DIVERGES
    if a1 <= 0.0:
        c_bot = a_fixed
    else:
        c_bot = 1.0 - _joint_survival(b, fixed_index, x_fixed, free_m.quantile(a1))
    if c_bot >= a2 - DEGENERACY_TOL:
        raise DegenerateRangeError(
            f"attainable band bottom {c_bot:.6g} reaches alpha2={a2:.6g}"
        )

    def g(v: float) -> float:
        return _upper_var_surv(b, fixed_index, x_fixed, 1.0 - v)

    singular = a2 >= 1.0 and not math.isfinite(free_m.support()[1])
    if singular:
        delta = min(0.5 * (1.0 - c_bot), 1e-3)
        head = _quad(g, c_bot, 1.0 - delta)

        def tail(t: float) -> float:
            s = math.exp(-t)
            if s <= 0.0:
                return 0.0
            return _upper_var_surv(b, fixed_index, x_fixed, s) * s

        total = head + _quad(tail, -math.log(delta), _TAIL_TMAX)
    else:
        total = _quad(g, c_bot, a2)
    return total / (a2 - c_bot)


def lower_tvar(b: BivariateModel, alpha: float, x_fixed: float, fixed_index: int = 1):
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return lower_rvar(b, LevelRange(alpha, 1.0), x_fixed, fixed_index)


def upper_tvar(b: BivariateModel, alpha: float, x_fixed: float, fixed_index: int = 1):
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return upper_rvar(b, LevelRange(alpha, 1.0), x_fixed, fixed_index)


def _require_gev_indep(b: BivariateModel, fixed_index: int):
    if not _is_independent(b.copula):
        raise DomainError("closed form requires the independence copula")
    fixed_m, free_m = _margins(b, fixed_index)
    if not isinstance(fixed_m, GEV) or not isinstance(free_m, GEV):
        raise DomainError("closed form requires GEV margins on both coordinates")
    return fixed_m, free_m


def _lnln(ratio: float) -> float:
    return math.log(math.log(ratio))


def closed_lower_rvar_gev_indep(
    b: BivariateModel, levels: LevelRange, x_fixed: float, fixed_index: int = 1
):
    """Closed-form lower orthant RVaR for independent GEV margins."""
    _check_x_fixed(x_fixed)
    fixed_m, free_m = _require_gev_indep(b, fixed_index)
    a1, a2 = levels.alpha1, levels.alpha2
    a_fixed = fixed_m.cdf(x_fixed)
    b_top = a_fixed * a2
    if b_top <= a1 + DEGENERACY_TOL:
        raise DegenerateRangeError(
            f"attainable band top {b_top:.6g} does not exceed alpha1={a1:.6g}"
        )
    xi, mu, sigma = free_m.xi, free_m.mu, free_m.sigma
    if a2 >= 1.0:
        if xi >= 1.0 or abs(xi) < XI_ZERO_TOL:
            return DIVERGES
    width = b_top - a1
    t1 = math.inf if a1 <= 0.0 else math.log(a_fixed / a1)
    if abs(xi) < XI_ZERO_TOL:
        t2 = math.log(a_fixed / b_top)
        e1 = 0.0 if math.isinf(t1) else exp_integral_e1(t1)
        low_term = 0.0 if a1 <= 0.0 else a1 * _lnln(a_fixed / a1)
        val = (
            b_top * _lnln(a_fixed / b_top)
            - low_term
            + a_fixed * (exp_integral_e1(t2) - e1)
        )
        return mu - sigma * val / width
    t2 = 0.0 if a2 >= 1.0 else math.log(a_fixed / b_top)
    g2 = upper_incomplete_gamma(1.0 - xi, t2)
    g1 = 0.0 if math.isinf(t1) else upper_incomplete_gamma(1.0 - xi, t1)
    return mu - (sigma / xi) * (1.0 - a_fixed * (g2 - g1) / width)


def closed_upper_rvar_gev_indep(
    b: BivariateModel, levels: LevelRange, x_fixed: float, fixed_index: int = 1
):
    """Closed-form upper orthant RVaR for independent GEV margins."""
    _check_x_fixed(x_fixed)
    fixed_m, free_m = _require_gev_indep(b, fixed_index)
    a1, a2 = levels.alpha1, levels.alpha2
    a_fixed = fixed_m.cdf(x_fixed)
    c_bot = a_fixed + a1 * (1.0 - a_fixed)
    if c_bot >= a2 - DEGENERACY_TOL:
        raise DegenerateRangeError(
            f"attainable band bottom {c_bot:.6g} reaches alpha2={a2:.6g}"
        )
    xi, mu, sigma = free_m.xi, free_m.mu, free_m.sigma
    if a2 >= 1.0 and (xi >= 1.0 or abs(xi) < XI_ZERO_TOL):
        return DIVERGES
    s_fixed = 1.0 - a_fixed
    width = a2 - c_bot
    t2 = 0.0 if a2 >= 1.0 else math.log(s_fixed / (a2 - a_fixed))
    t1 = math.inf if c_bot == a_fixed else math.log(s_fixed / (c_bot - a_fixed))
    if abs(xi) < XI_ZERO_TOL:
        term2 = (a2 - a_fixed) * _lnln(s_fixed / (a2 - a_fixed))
        term1 = 0.0 if c_bot == a_fixed else (c_bot - a_fixed) * _lnln(s_fixed / (c_bot - a_fixed))
        e2 = exp_integral_e1(t2)
        e1 = 0.0 if math.isinf(t1) else exp_integral_e1(t1)
        return mu - sigma * (term2 - term1) / width - sigma * s_fixed * (e2 - e1) / width
    g2 = upper_incomplete_gamma(1.0 - xi, t2)
    g1 = 0.0 if math.isinf(t1) else upper_incomplete_gamma(1.0 - xi, t1)
    return mu - (sigma / xi) * (1.0 - s_fixed * (g2 - g1) / width)


def _xlogx(t: float) -> float:
    return 0.0 if t <= 0.0 else t * math.log(t)


_COPULA_KINDS = {"pi": Independence, "m": Comonotone, "w": Countermonotone}


def closed_lower_rvar_exponential(
    b: BivariateModel,
    levels: LevelRange,
    x_fixed: float,
    copula_kind: str | None = None,
    fixed_index: int = 1,
) -> float:
    """Closed-form lower orthant RVaR for exponential margins under Pi, M or W."""
    _check_x_fixed(x_fixed)
    fixed_m, free_m = _margins(b, fixed_index)
    if not isinstance(fixed_m, Exponential) or not isinstance(free_m, Exponential):
        raise DomainError("closed form requires exponential margins")
    if isinstance(b.copula, Independence):
        inferred = "pi"
    elif isinstance(b.copula, Comonotone):
        inferred = "m"
    elif isinstance(b.copula, Countermonotone):
        inferred = "w"
    else:
        raise DomainError("closed form requires the Pi, M or W copula")
    if copula_kind is not None:
        wanted = copula_kind.strip().lower()
        if wanted not in _COPULA_KINDS:
            raise DomainError(f"unknown copula kind {copula_kind!r}")
        if wanted != inferred:
            raise DomainError(f"model copula is {inferred!r}, not {wanted!r}")
    a1, a2 = levels.alpha1, levels.alpha2
    ff = fixed_m.cdf(x_fixed)
    lam = free_m.lam
    if inferred == "m":
        bm = min(ff, a2)
        if bm <= a1 + DEGENERACY_TOL:
            raise DegenerateRangeError("attainable band collapses for the M copula")
        num = _xlogx(1.0 - bm) - _xlogx(1.0 - a1) + (bm - a1)
        return num / (lam * (bm - a1))
    if inferred == "pi":
        b_top = a2 * ff
        if b_top <= a1 + DEGENERACY_TOL:
            raise DegenerateRangeError("attainable band collapses for the Pi copula")
        num = ff * _xlogx(1.0 - a2) - (ff - a1) * math.log((ff - a1) / ff) + (b_top - a1)
        return num / (lam * (b_top - a1))
    b_top = ff + a2 - 1.0
    if b_top <= a1 + DEGENERACY_TOL:
        raise DegenerateRangeError("attainable band collapses for the W copula")
    num = _xlogx(1.0 - a2) - _xlogx(ff - a1) + (b_top - a1)
    return num / (lam * (b_top - a1))


@dataclass(frozen=True)
class OrthantCurve:
    kind: str
    levels: LevelRange
    fixed_index: int
    x_fixed: np.ndarray
    values: tuple


_CURVE_KINDS = (
    "lower_var",
    "upper_var",
    "lower_rvar",
    "upper_rvar",
    "lower_tvar",
    "upper_tvar",
)


def orthant_curve(
    b: BivariateModel,
    kind: str,
    levels: LevelRange,
    fixed_index: int = 1,
    grid: int = 200,
) -> OrthantCurve:
    """Sample an orthant measure over the feasible fixed-coordinate band."""
    if kind not in _CURVE_KINDS:
        raise DomainError(f"unknown curve kind {kind!r}")
    if grid < 2:
        raise DomainError("grid must have at least 2 points")
    fixed_m, free_m = _margins(b, fixed_index)
    other = 2 if fixed_index == 1 else 1
    a1, a2 = levels.alpha1, levels.alpha2
    eps = CURVE_TAIL_EPS
    if kind == "lower_var":
        lo, hi = fixed_m.quantile(a1), fixed_m.quantile(1.0 - eps)
    elif kind == "lower_tvar":
        lo, hi = fixed_m.quantile(a1), fixed_m.quantile(1.0 - eps)
    elif kind == "lower_rvar":
        band_lo = lower_var(b, a1, free_m.quantile(a2), fixed_index=other)
        lo, hi = band_lo, fixed_m.quantile(1.0 - eps)
    elif kind == "upper_var":
        lo, hi = fixed_m.quantile(eps), fixed_m.quantile(a2)
    elif kind == "upper_tvar":
        lo, hi = fixed_m.quantile(eps), fixed_m.quantile(1.0 - eps)
    else:
        band_hi = upper_var(b, a2, free_m.quantile(a1), fixed_index=other)
        lo, hi = fixed_m.quantile(eps), band_hi
    if not hi > lo:
        raise DomainError("empty fixed-coordinate band for this configuration")
    nudge = 1e-8 * (hi - lo)
    xs = np.linspace(lo + nudge, hi - nudge, grid)
    values = []
    for x in xs:
        if kind == "lower_var":
            values.append(lower_var(b, a1, float(x), fixed_index))
        elif kind == "upper_var":
            values.append(upper_var(b, a2, float(x), fixed_index))
        elif kind == "lower_rvar":
            values.append(lower_rvar(b, levels, float(x), fixed_index))
        elif kind == "upper_rvar":
            values.append(upper_rvar(b, levels, float(x), fixed_index))
        elif kind == "lower_tvar":
            values.append(lower_tvar(b, a1, float(x), fixed_index))
        else:
            values.append(upper_tvar(b, a1, float(x), fixed_index))
    return OrthantCurve(
        kind=kind,
        levels=levels,
        fixed_index=fixed_index,
        x_fixed=xs,
        values=tuple(values),
    )


def _rank_vector(a: np.ndarray) -> np.ndarray:
    return np.argsort(np.argsort(a, kind="stable"), kind="stable")


def comonotonic_aggregate_rvar(
    components,
    levels: LevelRange,
    fixed_total: float,
    fixed_index: int = 1,
    kind: str = "lower",
    seed: int = 20240817,
    check: bool = True,
):
    """Lower (or upper) orthant RVaR of sums of comonotonic components.

    Each component is a bivariate model; coordinate ``fixed_index`` across
    components must be comonotonic, and likewise the free coordinates.
    The aggregate measure at a fixed total decomposes into per-component
    measures evaluated at matching quantile points.
    """
    components = list(components)
    if not components:
        raise DomainError("need at least one component")
    if kind not in ("lower", "upper"):
        raise DomainError(f"kind must be 'lower' or 'upper', got {kind!r}")
    if check and len(components) > 1:
        ref1 = ref2 = None
        for comp in components:
            sm = sample(comp, 512, seed)
            r1 = _rank_vector(sm.data[:, 0])
            r2 = _rank_vector(sm.data[:, 1])
            if ref1 is None:
                ref1, ref2 = r1, r2
            elif not (np.array_equal(r1, ref1) and np.array_equal(r2, ref2)):
                raise ComonotonicityError(
                    "component samples are not commonly ranked; aggregation "
                    "requires comonotonic classes"
                )
    fixed_margins = [_margins(comp, fixed_index)[0] for comp in components]

    def total_quantile(p: float) -> float:
        return sum(m.quantile(p) for m in fixed_margins)

    p_lo, p_hi = 1e-15, 1.0 - 1e-15
    if not total_quantile(p_lo) < fixed_total < total_quantile(p_hi):
        raise DomainError("fixed_total is outside the attainable aggregate range")
    p_star = _bisect_root(lambda p: total_quantile(p) - fixed_total, p_lo, p_hi)
    total = 0.0
    for comp, m in zip(components, fixed_margins):
        x_i = m.quantile(p_star)
        if kind == "lower":
            part = lower_rvar(comp, levels, x_i, fixed_index)
        else:
            part = upper_rvar(comp, levels, x_i, fixed_index)
        if is_divergent(part):
            return DIVERGES
        total += part
    return total
