"""Sensitivity of orthant risk measures to point contamination.

Each sensitivity function reports the first-order response of a measure
when the conditional law of the free coordinate (given the fixed one) is
mixed with a point mass at z.  VaR and RVaR targets have bounded, piecewise
responses; the TVaR target grows linearly in z and is unbounded.  One
function per target builds the breakpoints and the response at a fixed
point; the ``sens_*`` functions and ``sensitivity_profile`` share them
through the ``_TARGETS`` table.

Every response is read in level space at a = F_fixed(x_fixed).  A VaR
response divides by the exact conditional density times the orthant's
mass, h(a, v) f(lv) at v = lower_inverse(a, alpha) or (1 - h(a, v)) f(uv)
at v = F(uv), from the copula's ``h`` and the free margin's ``pdf``, and
raises ``ZeroDensityError`` only where that is exactly 0.  The RVaR
responses share the measures' band edges, ``orthant._band_edge``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dependence import BivariateModel
from .errors import DomainError, ZeroDensityError
from .marginals import LevelRange, is_divergent
from .orthant import _band_edge, _check_x_fixed, _margins, lower_rvar, lower_tvar, lower_var, upper_rvar, upper_var


def _var_response(bp, weight, left, right):
    """left / weight below the breakpoint, right / weight above, 0 at it; the
    weight is the conditional density at bp times the orthant's mass."""
    if weight == 0.0:
        raise ZeroDensityError(f"conditional density at y={bp:.6g} is 0")
    left, right = left / weight, right / weight
    return lambda z: left if z < bp else (right if z > bp else 0.0)


def _lower_var(b, alpha, x_fixed, fixed_index):
    fixed_m, free_m = _margins(b, fixed_index)
    a_fixed = fixed_m.cdf(x_fixed)
    lv = lower_var(b, alpha, x_fixed, fixed_index)
    v = b.copula.lower_inverse(a_fixed, alpha)
    weight = b.copula.h(a_fixed, v, -math.log(v)) * free_m.pdf(lv)
    return (lv,), _var_response(lv, weight, -(a_fixed - alpha), alpha)


def _upper_var(b, alpha, x_fixed, fixed_index):
    fixed_m, free_m = _margins(b, fixed_index)
    a_fixed = fixed_m.cdf(x_fixed)
    uv = upper_var(b, alpha, x_fixed, fixed_index)
    v = free_m.cdf(uv)  # 0 where alpha = a puts uv at the bottom of the support
    h = b.copula.h(a_fixed, v, -math.log(v) if v > 0.0 else math.inf)
    return (uv,), _var_response(uv, (1.0 - h) * free_m.pdf(uv), -(1.0 - alpha), alpha - a_fixed)


def _lower_rvar(b, levels, x_fixed, fixed_index):
    a1, a2 = levels.alpha1, levels.alpha2
    if a2 >= 1.0:
        raise DomainError("alpha2 must be below 1 here; use the tvar sensitivity")
    fixed_m, free_m = _margins(b, fixed_index)
    a_fixed = fixed_m.cdf(x_fixed)
    q2 = free_m.quantile(a2)
    lv = lower_var(b, a1, x_fixed, fixed_index)
    b_top = _band_edge(b.copula, a_fixed, levels, upper=False)
    measure = lower_rvar(b, levels, x_fixed, fixed_index)
    width = b_top - a1

    def evaluate(z):
        if z < lv:
            raw = ((a_fixed - a1) * lv - (a_fixed - b_top) * q2) / width
        elif z <= q2:
            raw = (z * a_fixed - a1 * lv - (a_fixed - b_top) * q2) / width
        else:
            raw = (b_top * q2 - a1 * lv) / width
        return raw - measure

    return (lv, q2), evaluate


def _upper_rvar(b, levels, x_fixed, fixed_index):
    a1, a2 = levels.alpha1, levels.alpha2
    if a2 >= 1.0:
        raise DomainError("alpha2 must be below 1 for the upper rvar sensitivity")
    fixed_m, free_m = _margins(b, fixed_index)
    a_fixed = fixed_m.cdf(x_fixed)
    q1 = free_m.quantile(a1) if a1 > 0.0 else free_m.support()[0]
    if not math.isfinite(q1):
        raise DomainError("alpha1 = 0 needs a free margin bounded below")
    uv2 = upper_var(b, a2, x_fixed, fixed_index)
    c_bot = _band_edge(b.copula, a_fixed, levels, upper=True)
    measure = upper_rvar(b, levels, x_fixed, fixed_index)
    width = a2 - c_bot

    def evaluate(z):
        if z < q1:
            raw = ((1.0 - c_bot) * q1 - (1.0 - a2) * uv2) / width
        elif z <= uv2:
            raw = (z * (1.0 - a_fixed) - (c_bot - a_fixed) * q1 - (1.0 - a2) * uv2) / width
        else:
            raw = ((a2 - a_fixed) * uv2 - (c_bot - a_fixed) * q1) / width
        return raw - measure

    return (q1, uv2), evaluate


def _lower_tvar(b, alpha, x_fixed, fixed_index):
    fixed_m, _ = _margins(b, fixed_index)
    a_fixed = fixed_m.cdf(x_fixed)
    lv = lower_var(b, alpha, x_fixed, fixed_index)
    measure = lower_tvar(b, alpha, x_fixed, fixed_index)
    if is_divergent(measure):
        raise DomainError("lower tvar diverges for this model; sensitivity undefined")

    def evaluate(z):
        if z < lv:
            return lv - measure
        return (z * a_fixed - alpha * lv) / (a_fixed - alpha) - measure

    return (lv,), evaluate


# target -> (the level argument it takes, breakpoints and response at a
# fixed point, bounded?)
_TARGETS = {
    "lower_var": ("alpha", _lower_var, True),
    "upper_var": ("alpha", _upper_var, True),
    "lower_rvar": ("levels", _lower_rvar, True),
    "upper_rvar": ("levels", _upper_rvar, True),
    "lower_tvar": ("alpha", _lower_tvar, False),
}


def sens_lower_var(b: BivariateModel, alpha: float, x_fixed: float, z: float, fixed_index: int = 1) -> float:
    return _lower_var(b, alpha, x_fixed, fixed_index)[1](z)


def sens_upper_var(b: BivariateModel, alpha: float, x_fixed: float, z: float, fixed_index: int = 1) -> float:
    return _upper_var(b, alpha, x_fixed, fixed_index)[1](z)


def sens_lower_rvar(b: BivariateModel, levels: LevelRange, x_fixed: float, z: float, fixed_index: int = 1) -> float:
    return _lower_rvar(b, levels, x_fixed, fixed_index)[1](z)


def sens_upper_rvar(b: BivariateModel, levels: LevelRange, x_fixed: float, z: float, fixed_index: int = 1) -> float:
    return _upper_rvar(b, levels, x_fixed, fixed_index)[1](z)


def sens_lower_tvar(b: BivariateModel, alpha: float, x_fixed: float, z: float, fixed_index: int = 1) -> float:
    return _lower_tvar(b, alpha, x_fixed, fixed_index)[1](z)


@dataclass(frozen=True, slots=True)
class SensitivityProfile:
    target: str
    z_grid: np.ndarray
    values: np.ndarray
    bounded: bool
    sup_abs: float
    breakpoints: tuple


def branch_label(target: str, z: float, breakpoints: tuple) -> str:
    """Name the piece of the sensitivity curve a given z falls on."""
    if target in ("lower_var", "upper_var"):
        (bp,) = breakpoints
        if z < bp:
            return "below"
        if z > bp:
            return "above"
        return "at"
    if target in ("lower_rvar", "upper_rvar"):
        left, right = breakpoints
        if z < left:
            return "below"
        if z > right:
            return "above"
        return "middle"
    (bp,) = breakpoints
    return "below" if z < bp else "above"


def sensitivity_profile(
    b: BivariateModel,
    target: str,
    x_fixed: float,
    alpha: float | None = None,
    levels: LevelRange | None = None,
    z_grid=None,
    fixed_index: int = 1,
) -> SensitivityProfile:
    """Evaluate a sensitivity curve on a z grid with its worst-case size.

    VaR targets need ``alpha``; RVaR targets need ``levels``; the TVaR
    target needs ``alpha`` (the upper level is 1 by definition).
    """
    if target not in _TARGETS:
        raise DomainError(f"unknown sensitivity target {target!r}")
    _check_x_fixed(x_fixed)
    _, free_m = _margins(b, fixed_index)
    arg_name, build, bounded = _TARGETS[target]
    level_arg = alpha if arg_name == "alpha" else levels
    if level_arg is None:
        raise DomainError(f"{target} sensitivity needs {arg_name}")
    breakpoints, evaluate = build(b, level_arg, x_fixed, fixed_index)
    # every bounded response is constant beyond its outer breakpoints
    sup_abs = max(abs(evaluate(-math.inf)), abs(evaluate(math.inf))) if bounded else math.inf
    if z_grid is None:
        lo = min(breakpoints) - 3.0 * free_m.typical_scale
        hi = max(breakpoints) + 3.0 * free_m.typical_scale
        z_grid = np.linspace(lo, hi, 101)
    # a copy owns its data: a linspace view would keep its base alive with the record
    z_grid = np.array(z_grid, dtype=float)
    values = np.array([evaluate(float(z)) for z in z_grid])
    return SensitivityProfile(
        target=target,
        z_grid=z_grid,
        values=values,
        bounded=bounded,
        sup_abs=sup_abs,
        breakpoints=breakpoints,
    )
