"""Acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (shown by -rP) with the measured
quantities next to the pinned tolerance.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

import _oracles as orc
from rvar.dependence import (
    BivariateModel,
    Comonotone,
    Countermonotone,
    Gumbel,
    Independence,
    sample,
)
from rvar.empirical import EstimatorConfig, consistency_experiment
from rvar.marginals import (
    DIVERGES,
    GEV,
    Exponential,
    GPDTail,
    LevelRange,
    Weibull,
    ratio_limit,
    tvar_var_ratio,
    uni_rvar,
    uni_tvar,
)
from rvar.orthant import (
    closed_lower_rvar_exponential,
    closed_lower_rvar_gev_indep,
    closed_upper_rvar_gev_indep,
    comonotonic_aggregate_rvar,
    lower_rvar,
    lower_var,
    orthant_curve,
    upper_rvar,
    upper_var,
)
from rvar.robustness import (
    sens_lower_rvar,
    sens_lower_tvar,
    sens_lower_var,
    sens_upper_rvar,
    sens_upper_var,
    sensitivity_profile,
)


def _report(num, title, ok, detail):
    print(f"AC{num:02d} {title}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"AC{num:02d} {title}: {detail}"


def _rel(got, ref):
    return abs(got - ref) / abs(ref)


FIG_MODEL = BivariateModel(Weibull(2.0, 50.0), Weibull(2.0, 150.0), Gumbel(1.5))
LEV_59 = LevelRange(0.95, 0.99)
LEV_09 = LevelRange(0.9, 0.99)


def test_ac01_univariate_closed_vs_quadrature():
    t0 = time.perf_counter()
    ranges = ((0.9, 0.95), (0.95, 0.99), (0.99, 0.999))
    tail_alphas = (0.9, 0.95, 0.99)
    worst = 0.0
    divergent = 0

    for xi in (-0.5, -0.2, -1e-9, 1e-9, 0.2, 0.5, 0.9):
        m = GEV(0.3, 1.7, xi)

        def sfq(s, xi=xi):
            return orc.gev_sf_quantile(0.3, 1.7, xi, s)

        for a1, a2 in ranges:
            worst = max(
                worst,
                _rel(uni_rvar(m, LevelRange(a1, a2)), orc.rvar_from_quantile(sfq, a1, a2)),
            )
        for a in tail_alphas:
            got = uni_tvar(m, a)
            if abs(xi) < 1e-8:
                # log-integral singularity at 1: the closed form flags it
                assert got is DIVERGES
                divergent += 1
                continue
            worst = max(worst, _rel(got, orc.rvar_from_quantile(sfq, a, 1.0)))

    for xi in (-0.5, 0.0, 0.25, 0.5, 0.9):
        m = GPDTail(5.0, 2.0, xi, 0.15)

        def sfq(s, xi=xi):
            return orc.gpd_sf_quantile(5.0, 2.0, xi, 0.15, s)

        for a1, a2 in ranges:
            worst = max(
                worst,
                _rel(uni_rvar(m, LevelRange(a1, a2)), orc.rvar_from_quantile(sfq, a1, a2)),
            )
        for a in tail_alphas:
            worst = max(worst, _rel(uni_tvar(m, a), orc.rvar_from_quantile(sfq, a, 1.0)))

    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 10.0
    _report(
        1,
        "univariate closed forms vs quadrature",
        ok,
        f"max rel dev {worst:.3g} <= 1e-08, {divergent} divergent tail cases flagged, {dt:.2f} s < 10 s",
    )


def test_ac02_tvar_var_ratio_limits():
    a = 1.0 - 1e-6
    # locations chosen so the finite-level correction term vanishes
    cases = (
        (GEV(4.0, 1.0, 0.25), 1.0 / 0.75),
        (GEV(2.0, 1.0, 0.5), 2.0),
        (GEV(0.0, 1.0, -0.5), 1.0),
        (GPDTail(8.0, 2.0, 0.25, 0.05), 1.0 / 0.75),
        (GPDTail(4.0, 2.0, 0.5, 0.05), 2.0),
        (GPDTail(10.0, 2.0, -0.5, 0.05), 1.0),
    )
    worst = 0.0
    for m, lim in cases:
        assert ratio_limit(m) == lim
        worst = max(worst, abs(tvar_var_ratio(m, a) - lim))
    ok = worst <= 1e-3
    _report(2, "tail ratio limits", ok, f"max dev from limit {worst:.3g} <= 1e-03 at alpha=1-1e-6")


def test_ac03_rvar_beyond_tvar():
    m = GPDTail(5.0, 2.0, 1.2, 0.15)
    t = uni_tvar(m, 0.99)
    got = uni_rvar(m, LevelRange(0.99, 0.999))

    def sfq(s):
        return orc.gpd_sf_quantile(5.0, 2.0, 1.2, 0.15, s)

    ref = orc.rvar_from_quantile(sfq, 0.99, 0.999)
    rel = _rel(got, ref)
    ok = t is DIVERGES and math.isfinite(got) and rel <= 1e-8
    _report(
        3,
        "finite band beyond a divergent tail",
        ok,
        f"tvar flagged divergent, rvar rel dev {rel:.3g} <= 1e-08",
    )


def test_ac04_orthant_boundary_limits():
    b = FIG_MODEL
    free = b.margin2

    low = orthant_curve(b, "lower_rvar", LEV_59, grid=2)
    d_bottom = abs(low.values[0] - free.quantile(0.99))
    d_top = abs(low.values[1] - uni_rvar(free, LEV_59))

    up = orthant_curve(b, "upper_rvar", LEV_59, grid=2)
    d_left = abs(up.values[0] - uni_rvar(free, LEV_59))
    d_right = abs(up.values[1] - free.quantile(0.95))

    worst = max(d_bottom, d_top, d_left, d_right)
    ok = worst <= 1e-4
    _report(
        4,
        "orthant band endpoint limits",
        ok,
        f"max abs dev {worst:.3g} <= 1e-04 across 4 nudged endpoints",
    )


def _mc_margin_tools(m1, m2):
    """Fresh cdf/quantile closures for the MC oracle, not the package's."""
    if m1 == Weibull(2.0, 50.0):
        f1 = lambda x: -math.expm1(-((x / 50.0) ** 2))
        f2 = lambda y: -math.expm1(-((y / 150.0) ** 2))
        q2 = lambda p: orc.weibull_quantile(2.0, 150.0, p)
        hi = 3000.0
    else:
        f1 = lambda x: -math.expm1(-x)
        f2 = lambda y: -math.expm1(-2.0 * y)
        q2 = lambda p: orc.exp_quantile(2.0, p)
        hi = 50.0
    return f1, f2, q2, hi


def test_ac05_monte_carlo_equivalence():
    t0 = time.perf_counter()
    copulas = (Independence(), Comonotone(), Gumbel(1.5))
    margin_pairs = (
        (Weibull(2.0, 50.0), Weibull(2.0, 150.0)),
        (Exponential(1.0), Exponential(2.0)),
    )
    cop_cdfs = (orc.pi_cdf, orc.m_cdf, lambda u, v: orc.gumbel_cdf(u, v, 1.5))
    a1, a2 = LEV_09.alpha1, LEV_09.alpha2
    worst = 0.0  # |closed - mc| in units of 3 standard errors
    seed = 4200
    for mi, (m1, m2) in enumerate(margin_pairs):
        f1, f2, q2, hi = _mc_margin_tools(m1, m2)
        for ci, cop in enumerate(copulas):
            b = BivariateModel(m1, m2, cop)
            cc = cop_cdfs[ci]
            sm = sample(b, 10**6, seed + 10 * mi + ci)
            xs_col, ys_col = sm.data[:, 0], sm.data[:, 1]
            for p in (0.92, 0.95, 0.97, 0.985, 0.995):
                x = m1.quantile(p)
                lv = orc.root_lower_var(cc, f1(x), f2, a1, 1e-9, hi)
                top = q2(a2)
                pick = ys_col[(xs_col <= x) & (ys_col > lv) & (ys_col <= top)]
                se = pick.std(ddof=1) / math.sqrt(pick.size)
                worst = max(worst, abs(lower_rvar(b, LEV_09, x) - pick.mean()) / (3.0 * se))
            for p in (0.3, 0.5, 0.7, 0.8, 0.85):
                x = m1.quantile(p)
                uv = orc.root_upper_var(cc, f1(x), f2, a2, 1e-9, hi)
                bot = q2(a1)
                pick = ys_col[(xs_col > x) & (ys_col > bot) & (ys_col <= uv)]
                se = pick.std(ddof=1) / math.sqrt(pick.size)
                worst = max(worst, abs(upper_rvar(b, LEV_09, x) - pick.mean()) / (3.0 * se))
    dt = time.perf_counter() - t0
    ok = worst <= 1.0 and dt < 120.0
    _report(
        5,
        "quadrature vs Monte Carlo",
        ok,
        f"max |dev|/(3 se) = {worst:.3f} <= 1 over 60 cases, {dt:.1f} s < 120 s",
    )


def test_ac06_closed_form_specializations():
    worst = 0.0

    bg = BivariateModel(GEV(0.0, 1.0, 0.2), GEV(1.0, 0.5, 0.3), Independence())
    for p in np.linspace(0.965, 0.9999, 10):
        x = bg.margin1.quantile(float(p))
        worst = max(worst, _rel(closed_lower_rvar_gev_indep(bg, LEV_59, x), lower_rvar(bg, LEV_59, x)))
    for p in np.linspace(0.05, 0.75, 10):
        x = bg.margin1.quantile(float(p))
        worst = max(worst, _rel(closed_upper_rvar_gev_indep(bg, LEV_59, x), upper_rvar(bg, LEV_59, x)))

    # feasibility floor of the fixed level differs per copula
    for cop, p_lo in ((Independence(), 0.965), (Comonotone(), 0.955), (Countermonotone(), 0.965)):
        be = BivariateModel(Exponential(1.0), Exponential(1.0), cop)
        for p in np.linspace(p_lo, 0.9995, 10):
            x = be.margin1.quantile(float(p))
            worst = max(
                worst, _rel(closed_lower_rvar_exponential(be, LEV_59, x), lower_rvar(be, LEV_59, x))
            )

    bm = BivariateModel(Exponential(1.0), Exponential(1.0), Comonotone())
    spot = closed_lower_rvar_exponential(bm, LEV_59, -math.log(0.01))
    d_spot = abs(spot - 3.5934)
    assert abs(spot - 3.593372795445465) <= 1e-9
    ok = worst <= 1e-7 and d_spot < 5e-5
    _report(
        6,
        "closed-form specializations",
        ok,
        f"max rel dev {worst:.3g} <= 1e-07 over 50 band points, spot {spot:.6f} vs 3.5934",
    )


def test_ac07_invariance_and_ordering():
    c, k = 2.5, 3.0
    devs = []

    base = uni_rvar(GEV(0.3, 1.7, 0.2), LEV_09)
    devs.append(abs(uni_rvar(GEV(0.3 + c, 1.7, 0.2), LEV_09) - (base + c)))
    devs.append(abs(uni_rvar(GEV(k * 0.3, k * 1.7, 0.2), LEV_09) - k * base))

    bg = BivariateModel(GEV(0.0, 1.0, 0.2), GEV(1.0, 0.5, 0.3), Independence())
    bg_tr = BivariateModel(GEV(0.0, 1.0, 0.2), GEV(1.0 + c, 0.5, 0.3), Independence())
    bg_sc = BivariateModel(GEV(0.0, 1.0, 0.2), GEV(k * 1.0, k * 0.5, 0.3), Independence())
    x = bg.margin1.quantile(0.97)
    v = closed_lower_rvar_gev_indep(bg, LEV_59, x)
    devs.append(abs(closed_lower_rvar_gev_indep(bg_tr, LEV_59, x) - (v + c)))
    devs.append(abs(closed_lower_rvar_gev_indep(bg_sc, LEV_59, x) - k * v))

    be = BivariateModel(Exponential(1.0), Exponential(2.0), Independence())
    be_sc = BivariateModel(Exponential(1.0), Exponential(2.0 / k), Independence())
    xe = be.margin1.quantile(0.97)
    devs.append(
        abs(
            closed_lower_rvar_exponential(be_sc, LEV_59, xe)
            - k * closed_lower_rvar_exponential(be, LEV_59, xe)
        )
    )
    worst_inv = max(devs)

    mods = {
        kind: BivariateModel(Exponential(1.0), Exponential(2.0), cop)
        for kind, cop in (("m", Comonotone()), ("pi", Independence()), ("w", Countermonotone()))
    }
    ordered = True
    for x in (2.6, 3.0, 3.5):
        lm = lower_rvar(mods["m"], LEV_09, x)
        lp = lower_rvar(mods["pi"], LEV_09, x)
        lw = lower_rvar(mods["w"], LEV_09, x)
        ordered = ordered and lm <= lp + 1e-9 and lp <= lw + 1e-9
    for x in (0.02, 0.05, 0.08):
        um = upper_rvar(mods["m"], LEV_09, x)
        up = upper_rvar(mods["pi"], LEV_09, x)
        uw = upper_rvar(mods["w"], LEV_09, x)
        ordered = ordered and um >= up - 1e-9 and up >= uw - 1e-9
    ok = worst_inv <= 1e-9 and ordered
    _report(
        7,
        "invariance and concordance ordering",
        ok,
        f"max invariance dev {worst_inv:.3g} <= 1e-09, band ordering "
        f"{'holds' if ordered else 'broken'} at 6 points",
    )


def test_ac08_comonotonic_aggregation():
    b1 = BivariateModel(Exponential(1.0), Exponential(1.0), Comonotone())
    b2 = BivariateModel(Exponential(2.0), Exponential(2.0), Comonotone())
    got = comonotonic_aggregate_rvar([b1, b2], LEV_09, 6.0)

    # the aggregate quantile 6.0 sits at p* with q1(p*) + q2(p*) = 6
    p_star = -math.expm1(-6.0 * 2.0 / 3.0)
    x1 = -math.log1p(-p_star)
    x2 = x1 / 2.0
    comp_sum = lower_rvar(b1, LEV_09, x1) + lower_rvar(b2, LEV_09, x2)
    d_sum = abs(got - comp_sum)

    bag = BivariateModel(Exponential(2.0 / 3.0), Exponential(2.0 / 3.0), Comonotone())
    d_direct = abs(got - closed_lower_rvar_exponential(bag, LEV_09, 6.0))
    assert abs(got - 4.382974505926846) <= 1e-8

    ok = d_sum <= 1e-8 and d_direct <= 1e-8
    _report(
        8,
        "comonotonic aggregation",
        ok,
        f"|aggregate - component sum| = {d_sum:.3g} <= 1e-08, direct form dev {d_direct:.3g}",
    )


def _inverse(cdf, lo=1e-9, hi=1e5):
    return lambda w: brentq(lambda y: cdf(y) - w, lo, hi, xtol=1e-13, rtol=1e-14)


def test_ac09_sensitivity_vs_mixture_oracle():
    worst = 0.0

    # var targets on the Gumbel model, oracle conditionals built from scratch
    bg = FIG_MODEL
    f2 = lambda y: -math.expm1(-((y / 150.0) ** 2))

    a95 = -math.expm1(-((95.0 / 50.0) ** 2))
    cdf_low = lambda y: orc.gumbel_cdf(a95, f2(y), 1.5) / a95
    q_low = _inverse(cdf_low)
    lv = lower_var(bg, 0.95, 95.0)
    for z in np.concatenate((np.linspace(0.3 * lv, 0.9 * lv, 5), np.linspace(1.05 * lv, 2.0 * lv, 5))):
        got = sens_lower_var(bg, 0.95, 95.0, float(z))
        ref = orc.sens_var_oracle(q_low, cdf_low, 0.95 / a95, float(z))
        worst = max(worst, _rel(got, ref))

    a60 = -math.expm1(-((60.0 / 50.0) ** 2))
    cdf_up = lambda y: (f2(y) - orc.gumbel_cdf(a60, f2(y), 1.5)) / (1.0 - a60)
    q_up = _inverse(cdf_up)
    uv = upper_var(bg, 0.95, 60.0)
    for z in np.concatenate((np.linspace(0.3 * uv, 0.9 * uv, 5), np.linspace(1.05 * uv, 2.0 * uv, 5))):
        got = sens_upper_var(bg, 0.95, 60.0, float(z))
        ref = orc.sens_var_oracle(q_up, cdf_up, (0.95 - a60) / (1.0 - a60), float(z))
        worst = max(worst, _rel(got, ref))

    # band targets on the independent exponential model, where the
    # conditional law collapses to the free margin
    be = BivariateModel(Exponential(1.0), Exponential(2.0), Independence())
    e_cdf = lambda y: -math.expm1(-2.0 * y) if y > 0 else 0.0
    e_q = lambda w: -math.log1p(-w) / 2.0
    a1, a2 = LEV_09.alpha1, LEV_09.alpha2

    a3 = -math.expm1(-3.0)
    left, right = lower_var(be, a1, 3.0), be.margin2.quantile(a2)
    span = right - left
    z_lower = np.concatenate(
        (
            np.linspace(0.2 * left, 0.9 * left, 5),
            np.linspace(left + 0.1 * span, right - 0.1 * span, 5),
            np.linspace(right + 0.1 * span, right + 2.0 * span, 5),
        )
    )
    for z in z_lower:
        got = sens_lower_rvar(be, LEV_09, 3.0, float(z))
        ref = orc.sens_band_oracle(e_q, e_cdf, a1 / a3, a2, 1.0, float(z))
        worst = max(worst, _rel(got, ref))

    a05 = -math.expm1(-0.5)
    uleft, uright = be.margin2.quantile(a1), upper_var(be, a2, 0.5)
    uspan = uright - uleft
    z_upper = np.concatenate(
        (
            np.linspace(0.2 * uleft, 0.9 * uleft, 5),
            np.linspace(uleft + 0.1 * uspan, uright - 0.1 * uspan, 5),
            np.linspace(uright + 0.1 * uspan, uright + 2.0 * uspan, 5),
        )
    )
    w2u = (a2 - a05) / (1.0 - a05)
    for z in z_upper:
        got = sens_upper_rvar(be, LEV_09, 0.5, float(z))
        ref = orc.sens_band_oracle(e_q, e_cdf, a1, w2u, 1.0, float(z))
        worst = max(worst, _rel(got, ref))

    # boundedness verdicts: sup equals the constant far-branch size
    sup_dev = 0.0
    profiles = (
        ("lower_var", bg, 95.0, dict(alpha=0.95), lambda z: sens_lower_var(bg, 0.95, 95.0, z)),
        ("upper_var", bg, 60.0, dict(alpha=0.95), lambda z: sens_upper_var(bg, 0.95, 60.0, z)),
        ("lower_rvar", be, 3.0, dict(levels=LEV_09), lambda z: sens_lower_rvar(be, LEV_09, 3.0, z)),
        ("upper_rvar", be, 0.5, dict(levels=LEV_09), lambda z: sens_upper_rvar(be, LEV_09, 0.5, z)),
    )
    for target, model, x, kw, fn in profiles:
        prof = sensitivity_profile(model, target, x, **kw)
        assert prof.bounded
        far = max(1.0, 3.0 * (max(prof.breakpoints) - min(prof.breakpoints)))
        tail = max(abs(fn(min(prof.breakpoints) - far)), abs(fn(max(prof.breakpoints) + far)))
        sup_dev = max(sup_dev, _rel(prof.sup_abs, tail))

    prof_t = sensitivity_profile(be, "lower_tvar", 3.0, alpha=a1)
    assert not prof_t.bounded and math.isinf(prof_t.sup_abs)
    bp = prof_t.breakpoints[0]
    slope = (sens_lower_tvar(be, a1, 3.0, bp + 3.0) - sens_lower_tvar(be, a1, 3.0, bp + 1.0)) / 2.0
    d_slope = abs(slope - a3 / (a3 - a1))

    ok = worst <= 1e-3 and sup_dev <= 1e-9 and d_slope <= 1e-6
    _report(
        9,
        "sensitivity closed forms vs mixture oracle",
        ok,
        f"max rel dev {worst:.3g} <= 1e-03 over 50 points, sup dev {sup_dev:.3g} <= 1e-09, "
        f"tvar slope dev {d_slope:.3g} <= 1e-06",
    )


def test_ac10_estimator_consistency_experiment():
    t0 = time.perf_counter()
    cfg = EstimatorConfig(m=250, levels=LEV_09)
    summaries = []
    ok = True
    for xi in (0.2, 0.0):
        m = GEV(0.0, 1.0, xi)
        b = BivariateModel(m, m, Independence())
        lo = lower_var(b, LEV_09.alpha1, b.margin2.quantile(LEV_09.alpha2), fixed_index=2)
        hi = b.margin1.quantile(1.0 - 1e-6)
        span = hi - lo
        grid = np.linspace(lo + 0.1 * span, hi - 0.1 * span, 21)
        big = consistency_experiment(b, 50, 4000, cfg, grid)
        small = consistency_experiment(b, 50, 500, cfg, grid)
        inner = slice(2, 19)
        mean_rel = float(np.mean(big.mean_abs_dev[inner] / np.abs(big.theoretical[inner])))
        both = np.isfinite(big.mean_abs_dev) & np.isfinite(small.mean_abs_dev)
        frac_better = float(np.mean(big.mean_abs_dev[both] < small.mean_abs_dev[both]))
        ok = ok and mean_rel <= 0.05 and frac_better >= 0.8
        summaries.append(f"xi={xi}: mean rel dev {100 * mean_rel:.2f}% <= 5%, "
                         f"better at n=4000 in {100 * frac_better:.0f}% of points")
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    _report(10, "estimator consistency experiment", ok, "; ".join(summaries) + f", {dt:.0f} s < 300 s")
