"""Bivariate orthant risk measures.

Lower-orthant measures condition on the joint cdf staying above a level
with one coordinate pinned; upper-orthant measures do the same through the
joint survival function.

The lower orthant is one computation on the copula's conditional cdf
h(a, v) = dC(a, v)/dv at the pinned level a = F_fixed(x_fixed). The
lower VaR at level u is the free quantile Q at ``lower_inverse(a, u)``,
and substituting u = C(a, v) turns its band average into

    lower RVaR = integral of Q(v) h(a, v) dv / (C(a, alpha2) - alpha1)

over v from ``lower_inverse(a, alpha1)`` to
``min(alpha2, lower_inverse(a, a))``; C(a, 1) = a gives the TVaR. The
integral is by ``quad``, the package's own port of QUADPACK's QAGS
(``rvar._quadpack``), at a relative tolerance only: in v up to 1/2 and in
s = 1 - v above, where Q comes from ``sf_quantile(s)`` and -ln v from
-log1p(-s), so a heavy tail keeps its mass down to s = 0. No root is
solved and no tolerance is tied to the data's scale. The upper orthant
still bisects its VaR in y on the joint survival and integrates it with a
cut-off tail.

Closed forms = ``band_mean`` on the copula's level map. Where the copula's
conditional inverse at the pinned level a is affine in the level (Pi, M
and W, see ``rvar.dependence``), the orthant RVaR is the free margin's
band average on the mapped band: for the lower orthant Pi gives
[alpha1/a, alpha2], M [alpha1, min(a, alpha2)] and W
[alpha1 + 1 - a, alpha2]. ``closed_lower_rvar_gev_indep``,
``closed_upper_rvar_gev_indep`` and ``closed_lower_rvar_exponential`` are
that map restricted to the models they name; the quadrature path stays a
separate derivation that the tests and the benchmark check them against.

``comonotonic_aggregate_rvar`` bisects its total quantile in p. No
measure loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadpack import quad
from .dependence import BivariateModel, Comonotone, Countermonotone, Gumbel, Independence
from .errors import (
    ComonotonicityError,
    DegenerateRangeError,
    DomainError,
    InfeasibleLevelError,
)
from .marginals import (
    DIVERGES,
    GEV,
    GPDTail,
    LevelRange,
    Weibull,
    XI_ZERO_TOL,
    is_divergent,
)

CURVE_TAIL_EPS = 1e-6
DEGENERACY_TOL = 1e-12

_BISECT_TOL = 1e-10
_MAX_BISECT = 200
_MAX_EXPAND = 300
_QUAD_OPTS = dict(epsabs=1e-9, epsrel=1e-9, limit=200)
# the lower core's tolerance is relative only, so it holds at any data scale
_CORE_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-12, limit=200)
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


def _joint_survival(b: BivariateModel, fixed_index: int, x: float, y: float) -> float:
    if fixed_index == 1:
        return b.joint_survival(x, y)
    return b.joint_survival(y, x)


def _band_edge(copula, a: float, levels: LevelRange, upper: bool) -> float:
    """The attainable band end at a = F_fixed(x_fixed): b_top = C(a, alpha2) on the
    lower orthant (C(a, 1) = a), c_bot = a + alpha1 - C(a, alpha1) on the upper;
    DegenerateRangeError where the band closes to within DEGENERACY_TOL."""
    a1, a2 = levels.alpha1, levels.alpha2
    if upper:
        c_bot = a + a1 - copula.cdf(a, a1)
        if c_bot >= a2 - DEGENERACY_TOL:
            raise DegenerateRangeError(f"attainable band bottom {c_bot:.6g} reaches alpha2={a2:.6g}")
        return c_bot
    b_top = copula.cdf(a, a2)
    if b_top <= a1 + DEGENERACY_TOL:
        raise DegenerateRangeError(f"attainable band top {b_top:.6g} does not exceed alpha1={a1:.6g}")
    return b_top


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
    fixed_m, free_m = _margins(b, fixed_index)
    a_fixed = fixed_m.cdf(x_fixed)
    if a_fixed < alpha:
        raise InfeasibleLevelError(
            f"joint cdf is capped at {a_fixed:.6g} < alpha={alpha:.6g} for this fixed point"
        )
    v = b.copula.lower_inverse(a_fixed, alpha)
    if v < 1.0:
        return free_m.quantile(v)
    # alpha = a: the joint cdf reaches it only at the top of the free support
    top = free_m.support()[1]
    if math.isinf(top):
        raise InfeasibleLevelError(
            f"alpha={alpha:.6g} is reached only as the free coordinate grows without bound"
        )
    return top


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


def _h_weighted_integral(copula, free_m, a: float, v_lo: float, v_hi: float) -> float:
    """Integral of Q(v) h(a, v) over [v_lo, v_hi], in s = 1 - v above v = 1/2."""
    mid = min(max(v_lo, 0.5), v_hi)
    total = 0.0
    if v_lo < mid:
        total += quad(
            lambda v: free_m.quantile(v) * copula.h(a, v, -math.log(v)),
            v_lo,
            mid,
            **_CORE_QUAD_OPTS,
        )[0]
    if mid < v_hi:
        # 1 - mid is exact for mid >= 1/2, and 1 - v_hi is 0 for a tail band
        total += quad(
            lambda s: free_m.sf_quantile(s) * copula.h(a, 1.0 - s, -math.log1p(-s)),
            1.0 - v_hi,
            1.0 - mid,
            **_CORE_QUAD_OPTS,
        )[0]
    return total


def lower_rvar(b: BivariateModel, levels: LevelRange, x_fixed: float, fixed_index: int = 1):
    """Average of the lower orthant VaR over a clipped level band.

    The integral of Q(v) h(a, v) from lower_inverse(a, alpha1) to
    min(alpha2, lower_inverse(a, a)), over the attainable band width
    C(a, alpha2) - alpha1, with a = F_fixed(x_fixed).
    """
    _check_x_fixed(x_fixed)
    a1, a2 = levels.alpha1, levels.alpha2
    fixed_m, free_m = _margins(b, fixed_index)
    if a2 >= 1.0 and _free_tail_diverges(b, free_m):
        return DIVERGES
    copula = b.copula
    a_fixed = fixed_m.cdf(x_fixed)
    b_top = _band_edge(copula, a_fixed, levels, upper=False)
    inv = copula.lower_inverse
    v_lo, v_hi = inv(a_fixed, a1), min(a2, inv(a_fixed, a_fixed))
    return _h_weighted_integral(copula, free_m, a_fixed, v_lo, v_hi) / (b_top - a1)


def upper_rvar(b: BivariateModel, levels: LevelRange, x_fixed: float, fixed_index: int = 1):
    """Average of the upper orthant VaR over a clipped level band."""
    _check_x_fixed(x_fixed)
    a2 = levels.alpha2
    fixed_m, free_m = _margins(b, fixed_index)
    a_fixed = fixed_m.cdf(x_fixed)
    if a2 >= 1.0 and _free_tail_diverges(b, free_m):
        return DIVERGES
    c_bot = _band_edge(b.copula, a_fixed, levels, upper=True)

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


def _has_affine_level_map(copula) -> bool:
    """Pi, M and W: h(a, .) is constant on the mapped band, so _band_mapped_rvar is exact."""
    return isinstance(copula, (Independence, Comonotone, Countermonotone))


def _band_mapped_rvar(
    copula, b: BivariateModel, levels: LevelRange, x_fixed: float, fixed_index: int, upper: bool
):
    """Orthant RVaR under a copula whose level maps are affine in the level.

    With a = F_fixed(x_fixed) the lower orthant VaR at level u is the free
    quantile at lower_inverse(a, u), so its average over the attainable band
    [alpha1, C(a, alpha2)] is the free margin's band mean between the mapped
    ends; the upper orthant maps [a + alpha1 - C(a, alpha1), alpha2] through
    upper_inverse. The end that would undo C is alpha2 capped where C(a, .)
    reaches a (alpha1 floored where the joint survival starts to fall): the
    round trip through C and back divides a rounding by 1 - a, up to 4e-12
    relative at a = 0.999.
    """
    _check_x_fixed(x_fixed)
    fixed_m, free_m = _margins(b, fixed_index)
    a1, a2 = levels.alpha1, levels.alpha2
    a = fixed_m.cdf(x_fixed)
    _band_edge(copula, a, levels, upper)
    if upper:
        inv = copula.upper_inverse
        return free_m.band_mean(max(a1, inv(a, a)), inv(a, a2))
    inv = copula.lower_inverse
    return free_m.band_mean(inv(a, a1), min(a2, inv(a, a)))


def _require_gev_indep(b: BivariateModel, fixed_index: int) -> None:
    if b.copula != Independence() and b.copula != Gumbel(1.0):
        raise DomainError("closed form requires the independence copula")
    fixed_m, free_m = _margins(b, fixed_index)
    if not isinstance(fixed_m, GEV) or not isinstance(free_m, GEV):
        raise DomainError("closed form requires GEV margins on both coordinates")


def closed_lower_rvar_gev_indep(
    b: BivariateModel, levels: LevelRange, x_fixed: float, fixed_index: int = 1
):
    """Closed-form lower orthant RVaR for independent GEV margins."""
    _require_gev_indep(b, fixed_index)
    return _band_mapped_rvar(Independence(), b, levels, x_fixed, fixed_index, upper=False)


def closed_upper_rvar_gev_indep(
    b: BivariateModel, levels: LevelRange, x_fixed: float, fixed_index: int = 1
):
    """Closed-form upper orthant RVaR for independent GEV margins."""
    _require_gev_indep(b, fixed_index)
    return _band_mapped_rvar(Independence(), b, levels, x_fixed, fixed_index, upper=True)


def closed_lower_rvar_exponential(
    b: BivariateModel, levels: LevelRange, x_fixed: float, fixed_index: int = 1
) -> float:
    """Closed-form lower orthant RVaR for exponential margins (shape-1 Weibull) under Pi, M or W."""
    if not all(isinstance(m, Weibull) and m.shape == 1.0 for m in _margins(b, fixed_index)):
        raise DomainError("closed form requires exponential margins, Weibull(1, 1/lam)")
    if not _has_affine_level_map(b.copula):
        raise DomainError("closed form requires the Pi, M or W copula")
    return _band_mapped_rvar(b.copula, b, levels, x_fixed, fixed_index, upper=False)


@dataclass(frozen=True, slots=True)
class OrthantCurve:
    kind: str
    levels: LevelRange
    fixed_index: int
    x_fixed: np.ndarray
    values: tuple


def _upper_rvar_band(b, lv, fixed_m, free_m, other):
    # the feasible edge first: where both ends fail, its error is the one raised
    hi = upper_var(b, lv.alpha2, free_m.quantile(lv.alpha1), fixed_index=other)
    return fixed_m.quantile(CURVE_TAIL_EPS), hi


# kind -> (measure at a fixed point, feasible fixed-coordinate band); the
# measures are looked up by name at call time, so wrappers installed on the
# module (tracing, mocking) see every call
_CURVES = {
    "lower_var": (
        lambda b, lv, x, i: lower_var(b, lv.alpha1, x, i),
        lambda b, lv, fixed_m, free_m, other: (
            fixed_m.quantile(lv.alpha1), fixed_m.quantile(1.0 - CURVE_TAIL_EPS)),
    ),
    "upper_var": (
        lambda b, lv, x, i: upper_var(b, lv.alpha2, x, i),
        lambda b, lv, fixed_m, free_m, other: (
            fixed_m.quantile(CURVE_TAIL_EPS), fixed_m.quantile(lv.alpha2)),
    ),
    "lower_rvar": (
        lambda b, lv, x, i: lower_rvar(b, lv, x, i),
        lambda b, lv, fixed_m, free_m, other: (
            lower_var(b, lv.alpha1, free_m.quantile(lv.alpha2), fixed_index=other),
            fixed_m.quantile(1.0 - CURVE_TAIL_EPS)),
    ),
    "upper_rvar": (
        lambda b, lv, x, i: upper_rvar(b, lv, x, i),
        _upper_rvar_band,
    ),
    "lower_tvar": (
        lambda b, lv, x, i: lower_tvar(b, lv.alpha1, x, i),
        lambda b, lv, fixed_m, free_m, other: (
            fixed_m.quantile(lv.alpha1), fixed_m.quantile(1.0 - CURVE_TAIL_EPS)),
    ),
    "upper_tvar": (
        lambda b, lv, x, i: upper_tvar(b, lv.alpha1, x, i),
        lambda b, lv, fixed_m, free_m, other: (
            fixed_m.quantile(CURVE_TAIL_EPS), fixed_m.quantile(1.0 - CURVE_TAIL_EPS)),
    ),
}


def orthant_curve(
    b: BivariateModel,
    kind: str,
    levels: LevelRange,
    fixed_index: int = 1,
    grid: int = 200,
) -> OrthantCurve:
    """Sample an orthant measure over the feasible fixed-coordinate band."""
    if kind not in _CURVES:
        raise DomainError(f"unknown curve kind {kind!r}")
    if grid < 2:
        raise DomainError("grid must have at least 2 points")
    measure, band = _CURVES[kind]
    fixed_m, free_m = _margins(b, fixed_index)
    lo, hi = band(b, levels, fixed_m, free_m, 2 if fixed_index == 1 else 1)
    if not hi > lo:
        raise DomainError("empty fixed-coordinate band for this configuration")
    nudge = 1e-8 * (hi - lo)
    # a copy owns its data: linspace returns a view, and the record would keep its base too
    xs = np.linspace(lo + nudge, hi - nudge, grid).copy()
    values = tuple(measure(b, levels, float(x), fixed_index) for x in xs)
    return OrthantCurve(
        kind=kind,
        levels=levels,
        fixed_index=fixed_index,
        x_fixed=xs,
        values=values,
    )


def comonotonic_aggregate_rvar(
    components,
    levels: LevelRange,
    fixed_total: float,
    fixed_index: int = 1,
    kind: str = "lower",
):
    """Lower (or upper) orthant RVaR of sums of comonotonic components.

    Each component is a bivariate model; coordinate ``fixed_index`` across
    components must be comonotonic, and likewise the free coordinates.
    The aggregate measure at a fixed total decomposes into per-component
    measures evaluated at matching quantile points. Every component must
    have the same copula, Gumbel(1) counting as Pi: each coordinate is then
    one increasing map of shared uniforms.
    """
    components = list(components)
    if not components:
        raise DomainError("need at least one component")
    if kind not in ("lower", "upper"):
        raise DomainError(f"kind must be 'lower' or 'upper', got {kind!r}")
    copulas = {Independence() if _is_independent(c.copula) else c.copula for c in components}
    if len(copulas) > 1:
        raise ComonotonicityError(
            "components have different copulas; aggregation requires comonotonic classes"
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
