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
    # with independent exponentials the conditional law is the free margin
    alpha, x = 0.9, 3.0
    a = 1.0 - math.exp(-x)
    lv = lower_var(EXP_IND, alpha, x)
    assert lv == pytest.approx(-math.log(1.0 - alpha / a) / 2.0, rel=1e-10)
    dens = 2.0 * math.exp(-2.0 * lv)
    assert sens_lower_var(EXP_IND, alpha, x, lv - 0.5) == pytest.approx(
        -(a - alpha) / (dens * a), rel=1e-7)
    assert sens_lower_var(EXP_IND, alpha, x, lv + 0.5) == pytest.approx(
        alpha / (dens * a), rel=1e-7)
    assert sens_lower_var(EXP_IND, alpha, x, lv) == 0.0


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
