"""Sensitivity functions against explicit epsilon-mixture derivatives."""

import math

import numpy as np
import pytest

import _oracles as orc
from rvar import (
    GEV,
    BivariateModel,
    DomainError,
    Exponential,
    Gumbel,
    Independence,
    LevelRange,
    Weibull,
    ZeroDensityError,
    branch_label,
    lower_rvar,
    lower_tvar,
    lower_var,
    sens_lower_rvar,
    sens_lower_tvar,
    sens_lower_var,
    sens_upper_rvar,
    sens_upper_var,
    sensitivity_profile,
    upper_rvar,
    upper_var,
)
from rvar.robustness import _TARGETS

EXP_IND = BivariateModel(Exponential(1.0), Exponential(2.0), Independence())
WEIB_GUM = BivariateModel(Weibull(2.0, 50.0), Weibull(2.0, 150.0), Gumbel(1.5))


def _gumbel15(u, v):
    return orc.gumbel_cdf(u, v, 1.5)


def _gum_cond_lower(x):
    """Conditional cdf/quantile of the free coordinate given fixed <= x."""
    a = WEIB_GUM.margin1.cdf(x)
    f2 = WEIB_GUM.margin2.cdf

    def cdf(y):
        return _gumbel15(a, f2(y)) / a

    def quantile(w):
        from scipy.optimize import brentq
        return brentq(lambda y: cdf(y) - w, 1e-9, 1e5, xtol=1e-12, rtol=1e-15)

    return cdf, quantile, a


def _gum_cond_upper(x):
    """Conditional cdf/quantile of the free coordinate given fixed > x."""
    a = WEIB_GUM.margin1.cdf(x)
    f2 = WEIB_GUM.margin2.cdf

    def cdf(y):
        return (f2(y) - _gumbel15(a, f2(y))) / (1.0 - a)

    def quantile(w):
        from scipy.optimize import brentq
        return brentq(lambda y: cdf(y) - w, 1e-9, 1e5, xtol=1e-12, rtol=1e-15)

    return cdf, quantile, a


def test_sens_lower_var_independence_analytic():
    # with independent exponentials each conditional law is the free margin,
    # whose density 2 e^(-2y) the VaR responses divide by, exactly
    alpha, x = 0.9, 3.0
    a = 1.0 - math.exp(-x)
    lv = lower_var(EXP_IND, alpha, x)
    assert lv == pytest.approx(-math.log(1.0 - alpha / a) / 2.0, rel=1e-10)
    dens = 2.0 * math.exp(-2.0 * lv)
    assert sens_lower_var(EXP_IND, alpha, x, lv - 0.5) == pytest.approx(
        -(a - alpha) / (dens * a), rel=1e-13)
    assert sens_lower_var(EXP_IND, alpha, x, lv + 0.5) == pytest.approx(
        alpha / (dens * a), rel=1e-13)
    assert sens_lower_var(EXP_IND, alpha, x, lv) == 0.0
    x = 0.5
    a = 1.0 - math.exp(-x)
    uv = upper_var(EXP_IND, alpha, x)
    dens = 2.0 * math.exp(-2.0 * uv)
    assert sens_upper_var(EXP_IND, alpha, x, uv - 0.5) == pytest.approx(
        -(1.0 - alpha) / (dens * (1.0 - a)), rel=1e-13)
    assert sens_upper_var(EXP_IND, alpha, x, uv + 0.5) == pytest.approx(
        (alpha - a) / (dens * (1.0 - a)), rel=1e-13)
    assert sens_upper_var(EXP_IND, alpha, x, uv) == 0.0


def test_sens_upper_var_at_the_bottom_of_the_support():
    # F_fixed(ln 2) = 1/2 = alpha puts the upper VaR at y = 0, where F(y) = 0
    x = math.log(2.0)
    assert EXP_IND.margin1.cdf(x) == 0.5 and upper_var(EXP_IND, 0.5, x) == 0.0
    # weight (1 - a) f(0) = 1/2 * 2
    assert sens_upper_var(EXP_IND, 0.5, x, -1.0) == -0.5
    assert sens_upper_var(EXP_IND, 0.5, x, 1.0) == 0.0
    # under Gumbel(1.5) h(a, v) -> 1 as v -> 0: the conditional density is 0 there
    gumbel = BivariateModel(Exponential(1.0), Exponential(2.0), Gumbel(1.5))
    with pytest.raises(ZeroDensityError):
        sens_upper_var(gumbel, 0.5, x, 1.0)


@pytest.mark.parametrize("z_off", [-0.8, -0.2, 0.3, 1.0])
def test_sens_lower_var_matches_mixture(z_off):
    alpha, x = 0.9, 3.0
    a = EXP_IND.margin1.cdf(x)
    lv = lower_var(EXP_IND, alpha, x)
    z = lv + z_off
    want = orc.sens_var_oracle(EXP_IND.margin2.quantile, EXP_IND.margin2.cdf,
                               alpha / a, z)
    got = sens_lower_var(EXP_IND, alpha, x, z)
    assert got == pytest.approx(want, rel=1e-4)


@pytest.mark.parametrize("z_off", [-0.5, -0.1, 0.2, 0.8])
def test_sens_upper_var_matches_mixture(z_off):
    alpha, x = 0.9, 0.5
    a = EXP_IND.margin1.cdf(x)
    uv = upper_var(EXP_IND, alpha, x)
    z = uv + z_off
    want = orc.sens_var_oracle(EXP_IND.margin2.quantile, EXP_IND.margin2.cdf,
                               (alpha - a) / (1.0 - a), z)
    got = sens_upper_var(EXP_IND, alpha, x, z)
    assert got == pytest.approx(want, rel=1e-4)


def test_sens_var_gumbel_model_matches_mixture():
    # dependent case: the conditional quantile comes from the oracle's own
    # root-finding on an independently coded copula
    alpha = 0.95
    x = 95.0
    cdf, quantile, a = _gum_cond_lower(x)
    lv = lower_var(WEIB_GUM, alpha, x)
    for z in [lv - 60.0, lv - 10.0, lv + 15.0, lv + 80.0]:
        want = orc.sens_var_oracle(quantile, cdf, alpha / a, z)
        got = sens_lower_var(WEIB_GUM, alpha, x, z)
        assert got == pytest.approx(want, rel=2e-4)
    x = 60.0
    cdf, quantile, a = _gum_cond_upper(x)
    uv = upper_var(WEIB_GUM, alpha, x)
    for z in [uv - 50.0, uv + 40.0]:
        want = orc.sens_var_oracle(quantile, cdf, (alpha - a) / (1.0 - a), z)
        got = sens_upper_var(WEIB_GUM, alpha, x, z)
        assert got == pytest.approx(want, rel=2e-4)


@pytest.mark.parametrize("z", [0.6, 1.2, 1.8, 2.1, 2.8, 4.0])
def test_sens_lower_rvar_matches_mixture(z):
    lr = LevelRange(0.9, 0.99)
    x = 3.0
    a = EXP_IND.margin1.cdf(x)
    b_top = a * lr.alpha2
    want = orc.sens_band_oracle(EXP_IND.margin2.quantile, EXP_IND.margin2.cdf,
                                lr.alpha1 / a, b_top / a, 1.0, z)
    got = sens_lower_rvar(EXP_IND, lr, x, z)
    assert got == pytest.approx(want, rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("z", [0.4, 1.0, 1.5, 2.0, 2.6, 3.5])
def test_sens_upper_rvar_matches_mixture(z):
    lr = LevelRange(0.9, 0.99)
    x = 0.5
    a = EXP_IND.margin1.cdf(x)
    c_bot = a + (1.0 - a) * lr.alpha1  # independence: H = free margin cdf
    want = orc.sens_band_oracle(EXP_IND.margin2.quantile, EXP_IND.margin2.cdf,
                                (c_bot - a) / (1.0 - a), (lr.alpha2 - a) / (1.0 - a),
                                1.0, z)
    got = sens_upper_rvar(EXP_IND, lr, x, z)
    assert got == pytest.approx(want, rel=1e-4, abs=1e-7)


def test_sens_rvar_is_continuous_at_breakpoints():
    lr = LevelRange(0.9, 0.99)
    x = 3.0
    prof = sensitivity_profile(EXP_IND, "lower_rvar", x, levels=lr)
    lv, q2 = prof.breakpoints
    for bp in (lv, q2):
        below = sens_lower_rvar(EXP_IND, lr, x, bp - 1e-9)
        above = sens_lower_rvar(EXP_IND, lr, x, bp + 1e-9)
        assert below == pytest.approx(above, abs=1e-7)
    prof = sensitivity_profile(EXP_IND, "upper_rvar", 0.5, levels=lr)
    q1, uv2 = prof.breakpoints
    for bp in (q1, uv2):
        below = sens_upper_rvar(EXP_IND, lr, 0.5, bp - 1e-9)
        above = sens_upper_rvar(EXP_IND, lr, 0.5, bp + 1e-9)
        assert below == pytest.approx(above, abs=1e-7)


def test_sens_lower_tvar_slope_and_divergence_flag():
    alpha, x = 0.9, 3.0
    a = EXP_IND.margin1.cdf(x)
    lv = lower_var(EXP_IND, alpha, x)
    t = lower_tvar(EXP_IND, alpha, x)
    # constant below the threshold
    assert sens_lower_tvar(EXP_IND, alpha, x, lv - 1.0) == pytest.approx(
        lv - t, rel=1e-9)
    # linear above with slope A / (A - alpha)
    s1 = sens_lower_tvar(EXP_IND, alpha, x, lv + 1.0)
    s2 = sens_lower_tvar(EXP_IND, alpha, x, lv + 2.0)
    assert s2 - s1 == pytest.approx(a / (a - alpha), rel=1e-9)
    prof = sensitivity_profile(EXP_IND, "lower_tvar", x, alpha=alpha)
    assert not prof.bounded
    assert math.isinf(prof.sup_abs)


def test_sens_lower_tvar_matches_mixture():
    # mixture derivative of the tail band, upper integration limit = 1
    alpha, x = 0.9, 3.0
    a = EXP_IND.margin1.cdf(x)
    lv = lower_var(EXP_IND, alpha, x)
    for z in [lv - 0.7, lv + 0.9]:
        want = orc.sens_band_oracle(EXP_IND.margin2.quantile, EXP_IND.margin2.cdf,
                                    alpha / a, 1.0, 1.0, z)
        got = sens_lower_tvar(EXP_IND, alpha, x, z)
        assert got == pytest.approx(want, rel=1e-4)


def test_profile_var_targets_report_bounded_tails():
    prof = sensitivity_profile(EXP_IND, "lower_var", 3.0, alpha=0.9)
    (lv,) = prof.breakpoints
    assert prof.bounded
    far_left = sens_lower_var(EXP_IND, 0.9, 3.0, lv - 100.0)
    far_right = sens_lower_var(EXP_IND, 0.9, 3.0, lv + 100.0)
    assert prof.sup_abs == pytest.approx(max(abs(far_left), abs(far_right)), rel=1e-12)
    # grid values match direct evaluation
    direct = np.array([sens_lower_var(EXP_IND, 0.9, 3.0, float(z))
                       for z in prof.z_grid])
    np.testing.assert_allclose(prof.values, direct, rtol=1e-12, atol=1e-15)


def test_profile_rvar_targets_report_bounded_tails():
    lr = LevelRange(0.9, 0.99)
    prof = sensitivity_profile(EXP_IND, "lower_rvar", 3.0, levels=lr)
    lv, q2 = prof.breakpoints
    far_left = sens_lower_rvar(EXP_IND, lr, 3.0, lv - 50.0)
    far_right = sens_lower_rvar(EXP_IND, lr, 3.0, q2 + 50.0)
    assert prof.bounded
    assert prof.sup_abs == pytest.approx(max(abs(far_left), abs(far_right)), rel=1e-12)
    assert prof.z_grid[0] < lv < q2 < prof.z_grid[-1]


def test_profile_validation_errors():
    with pytest.raises(DomainError):
        sensitivity_profile(EXP_IND, "sideways", 3.0, alpha=0.9)
    with pytest.raises(DomainError):
        sensitivity_profile(EXP_IND, "lower_var", 3.0)  # alpha missing
    with pytest.raises(DomainError):
        sensitivity_profile(EXP_IND, "lower_rvar", 3.0, alpha=0.9)  # levels missing
    with pytest.raises(DomainError):
        sens_lower_rvar(EXP_IND, LevelRange(0.9, 1.0), 3.0, 2.0)
    diverging = BivariateModel(GEV(0.0, 1.0, 0.2), GEV(0.0, 1.0, 1.2),
                               Independence())
    with pytest.raises(DomainError):
        sens_lower_tvar(diverging, 0.9, 4.0, 5.0)


def test_branch_labels():
    assert branch_label("lower_var", 1.0, (2.0,)) == "below"
    assert branch_label("lower_var", 2.0, (2.0,)) == "at"
    assert branch_label("lower_var", 3.0, (2.0,)) == "above"
    assert branch_label("lower_rvar", 0.5, (1.0, 2.0)) == "below"
    assert branch_label("upper_rvar", 1.5, (1.0, 2.0)) == "middle"
    assert branch_label("upper_rvar", 2.5, (1.0, 2.0)) == "above"
    assert branch_label("lower_tvar", 0.0, (1.0,)) == "below"
    assert branch_label("lower_tvar", 1.0, (1.0,)) == "above"


def test_sens_fixed_index_symmetry():
    swapped = BivariateModel(EXP_IND.margin2, EXP_IND.margin1, Independence())
    a = sens_lower_var(EXP_IND, 0.9, 3.0, 2.0)
    bvals = sens_lower_var(swapped, 0.9, 3.0, 2.0, fixed_index=2)
    assert a == pytest.approx(bvals, rel=1e-10)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("measure", [
    lambda x: lower_rvar(WEIB_GUM, LevelRange(0.95, 0.99), x),
    lambda x: upper_rvar(WEIB_GUM, LevelRange(0.5, 0.95), x),
    lambda x: lower_var(WEIB_GUM, 0.95, x),
    lambda x: sensitivity_profile(WEIB_GUM, "lower_rvar", x, levels=LevelRange(0.95, 0.99)),
], ids=["lower_rvar", "upper_rvar", "lower_var", "sensitivity_profile"])
def test_non_finite_x_fixed_is_named(measure, x):
    with pytest.raises(DomainError, match="x_fixed"):
        measure(x)


def _readme_model(c):
    return BivariateModel(Weibull(2.0, 50.0 * c), Weibull(2.0, 150.0 * c), Gumbel(1.5))


_BAND = LevelRange(0.9, 0.99)
# target -> (sensitivity of a model at (x, z), x, z on every piece) on the README model
_SCALED = {
    "sens_lower_var": (lambda b, x, z: sens_lower_var(b, 0.9, x, z), 80.0, (100.0, 400.0)),
    "sens_lower_rvar": (lambda b, x, z: sens_lower_rvar(b, _BAND, x, z), 80.0, (100.0, 290.0, 400.0)),
    "sens_lower_tvar": (lambda b, x, z: sens_lower_tvar(b, 0.9, x, z), 80.0, (100.0, 400.0)),
    "sens_upper_var": (lambda b, x, z: sens_upper_var(b, 0.9, x, z), 40.0, (100.0, 400.0)),
    "sens_upper_rvar": (lambda b, x, z: sens_upper_rvar(b, _BAND, x, z), 40.0, (100.0, 240.0, 400.0)),
}
_UPPER_BISECTS = pytest.mark.xfail(
    strict=True, reason="upper_var bisects in y with absolute tolerances (ROADMAP item 3)")


@pytest.mark.parametrize("target,k", [
    *[(t, k) for t in ("sens_lower_var", "sens_lower_rvar", "sens_lower_tvar")
      for k in range(-12, 13, 3)],
    *[("sens_upper_var", k) for k in (0, 6, 9, 12)],
    *[pytest.param(t, k, marks=_UPPER_BISECTS)
      for t in ("sens_upper_var", "sens_upper_rvar") for k in (-12, -9, -6)],
])
def test_sensitivities_scale_with_the_data(target, k):
    # f(c x, c z) = c f(x, z) with both margins' scales times c. A response
    # that crosses 0 has no relative size, so the floor is 1e-12 of the
    # free margin's scale, where the measure's own quadrature tolerance sits
    sens, x, zs = _SCALED[target]
    c = 10.0**k
    for z in zs:
        want = c * sens(_readme_model(1.0), x, z)
        got = sens(_readme_model(c), c * x, c * z)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * 150.0 * c), z


def _gumbel15_h(a, v):
    """dC(a, v)/dv of Gumbel(1.5), coded apart from the package."""
    la, lv = -math.log(a), -math.log(v)
    s = la**1.5 + lv**1.5
    return _gumbel15(a, v) / v * lv**0.5 * s ** (1.0 / 1.5 - 1.0)


@pytest.mark.parametrize("measure,x,level", [
    (lower_var, 80.0, 0.9),
    (lower_rvar, 80.0, _BAND),
    (lower_tvar, 80.0, 0.9),
    (upper_var, 40.0, 0.9),
    (upper_rvar, 40.0, _BAND),
], ids=["lower_var", "lower_rvar", "lower_tvar", "upper_var", "upper_rvar"])
def test_sensitivities_have_mean_zero_under_the_conditional_law(measure, x, level):
    # an influence function integrates to 0 against the law it perturbs:
    # h(a, F(y)) f(y) / a below the pinned point, (1 - h) f / (1 - a) above
    from scipy import stats
    from scipy.integrate import quad

    free = stats.weibull_min(2.0, scale=150.0)
    a = WEIB_GUM.margin1.cdf(x)
    target = measure.__name__
    if target.startswith("lower"):
        def density(y):
            return _gumbel15_h(a, free.cdf(y)) * free.pdf(y) / a
    else:
        def density(y):
            return (1.0 - _gumbel15_h(a, free.cdf(y))) * free.pdf(y) / (1.0 - a)
    # the response that sens_<target> evaluates, built once for the quadrature
    breakpoints, sens = _TARGETS[target][1](WEIB_GUM, level, x, 1)
    ends = [0.0, *breakpoints, math.inf]
    total = sum(
        quad(lambda y: sens(y) * density(y), lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(ends, ends[1:]))
    assert abs(total) <= 1e-10 * measure(WEIB_GUM, level, x)
