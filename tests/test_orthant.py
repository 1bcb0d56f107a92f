"""Bivariate orthant risk measures against root-finding and MC oracles."""

import decimal
import math

import numpy as np
import pytest

import _oracles as orc
from rvar import (
    GEV,
    BivariateModel,
    Comonotone,
    ComonotonicityError,
    Countermonotone,
    DegenerateRangeError,
    DomainError,
    Exponential,
    GPDTail,
    Gumbel,
    Independence,
    InfeasibleLevelError,
    LevelRange,
    Uniform,
    Weibull,
    closed_lower_rvar_exponential,
    closed_lower_rvar_gev_indep,
    closed_upper_rvar_gev_indep,
    comonotonic_aggregate_rvar,
    is_divergent,
    lower_rvar,
    lower_tvar,
    lower_var,
    orthant_curve,
    sample,
    uni_rvar,
    upper_rvar,
    upper_tvar,
    upper_var,
)

WEIB_GUMBEL = BivariateModel(Weibull(2.0, 50.0), Weibull(2.0, 150.0), Gumbel(1.5))
EXP_PI = BivariateModel(Exponential(1.0), Exponential(2.0), Independence())
GEV_IND = BivariateModel(GEV(0.0, 1.0, 0.2), GEV(1.0, 0.5, 0.3), Independence())


def _gumbel15(u, v):
    return orc.gumbel_cdf(u, v, 1.5)


@pytest.mark.parametrize("x", [110.0, 150.0, 300.0])
def test_lower_var_matches_root_oracle(x):
    b = WEIB_GUMBEL
    alpha = 0.99
    want = orc.root_lower_var(_gumbel15, b.margin1.cdf(x), b.margin2.cdf,
                              alpha, 0.0, 1e4)
    assert lower_var(b, alpha, x) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("x", [20.0, 40.0, 60.0])
def test_upper_var_matches_root_oracle(x):
    b = WEIB_GUMBEL
    alpha = 0.95
    want = orc.root_upper_var(_gumbel15, b.margin1.cdf(x), b.margin2.cdf,
                              alpha, 0.0, 1e4)
    assert upper_var(b, alpha, x) == pytest.approx(want, rel=1e-9)


def test_var_feasibility_errors():
    b = WEIB_GUMBEL
    # A = F1(60) ~ 0.763 < 0.99: no y can reach the level
    with pytest.raises(InfeasibleLevelError):
        lower_var(b, 0.99, 60.0)
    # A = F1(300) ~ 1: survival cannot exceed alpha constraint
    with pytest.raises(InfeasibleLevelError):
        upper_var(b, 0.95, 300.0)
    with pytest.raises(DomainError):
        lower_var(b, 1.0, 150.0)


def test_lower_var_at_the_fixed_level_and_below_tail_coverage():
    # alpha = a maps to free level 1: the top of a bounded free support,
    # out of reach of an unbounded one
    pi = Independence()
    x = 0.7
    a = Uniform(0.0, 1.0).cdf(x)
    assert lower_var(BivariateModel(Uniform(0.0, 1.0), Uniform(2.0, 5.0), pi), a, x) == 5.0
    with pytest.raises(InfeasibleLevelError):
        lower_var(BivariateModel(Uniform(0.0, 1.0), Exponential(1.0), pi), a, x)
    # a GPD tail model has no quantile below level 1 - zeta_u
    gpd = BivariateModel(GEV(0.0, 1.0, 0.2), GPDTail(5.0, 2.0, 0.3, 0.1), pi)
    with pytest.raises(DomainError):
        lower_var(gpd, 0.5, 8.0)
    assert lower_var(gpd, 0.95, 8.0) == pytest.approx(
        gpd.margin2.quantile(0.95 / gpd.margin1.cdf(8.0)), rel=1e-15)


def test_fixed_index_symmetry():
    b = WEIB_GUMBEL
    swapped = BivariateModel(b.margin2, b.margin1, b.copula)
    assert lower_var(b, 0.99, 120.0, fixed_index=1) == pytest.approx(
        lower_var(swapped, 0.99, 120.0, fixed_index=2), rel=1e-12)
    lr = LevelRange(0.95, 0.99)
    assert lower_rvar(b, lr, 150.0, fixed_index=1) == pytest.approx(
        lower_rvar(swapped, lr, 150.0, fixed_index=2), rel=1e-10)
    with pytest.raises(DomainError):
        lower_var(b, 0.99, 120.0, fixed_index=3)
    # one computation on (fixed margin, free margin): the same floats
    for cop in (Independence(), Comonotone(), Countermonotone(), Gumbel(2.0)):
        b = BivariateModel(GEV(0.0, 1.0, 0.9), Weibull(2.0, 150.0), cop)
        swapped = BivariateModel(b.margin2, b.margin1, cop)
        for p in (0.97, 0.999):
            x = b.margin1.quantile(p)
            assert lower_var(b, 0.95, x, 1) == lower_var(swapped, 0.95, x, 2)
            assert lower_rvar(b, lr, x, 1) == lower_rvar(swapped, lr, x, 2)
            assert lower_tvar(b, 0.95, x, 1) == lower_tvar(swapped, 0.95, x, 2)


@pytest.mark.parametrize("b,cop,x,lo,hi", [
    (WEIB_GUMBEL, _gumbel15, 150.0, 0.0, 1e4),
    (EXP_PI, orc.pi_cdf, 4.0, 0.0, 50.0),
    (GEV_IND, orc.pi_cdf, 5.0, -1.0, 1e6),
])
def test_lower_rvar_matches_quadrature_oracle(b, cop, x, lo, hi):
    lr = LevelRange(0.95, 0.99)
    want = orc.orthant_lower_rvar(cop, b.margin1.cdf(x), b.margin2.cdf,
                                  lr.alpha1, lr.alpha2, b.margin2.quantile, lo, hi)
    assert lower_rvar(b, lr, x) == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("b,cop,x,lo,hi", [
    (WEIB_GUMBEL, _gumbel15, 40.0, 0.0, 1e4),
    (EXP_PI, orc.pi_cdf, 0.5, 0.0, 50.0),
    (GEV_IND, orc.pi_cdf, 1.0, -1.0, 1e6),
])
def test_upper_rvar_matches_quadrature_oracle(b, cop, x, lo, hi):
    lr = LevelRange(0.95, 0.99)
    want = orc.orthant_upper_rvar(cop, b.margin1.cdf(x), b.margin2.cdf,
                                  lr.alpha1, lr.alpha2, b.margin2.quantile, lo, hi)
    assert upper_rvar(b, lr, x) == pytest.approx(want, rel=1e-7)


# the lower core against root-plus-quadrature oracles, where those are not
# truncated: bands below level 1, or tails light enough (xi <= 0.3) that
# the oracle's root bracket holds every quadrature node
ORACLE_COPULAS = [
    (Independence(), orc.pi_cdf),
    (Comonotone(), orc.m_cdf),
    (Countermonotone(), orc.w_cdf),
    (Gumbel(1.5), _gumbel15),
    (Gumbel(3.0), lambda u, v: orc.gumbel_cdf(u, v, 3.0)),
]
ORACLE_MARGINS = [
    (Weibull(2.0, 50.0), Weibull(2.0, 150.0), 0.0, 1e4),
    (GEV(0.0, 1.0, 0.2), GEV(1.0, 0.5, 0.3), -1.0, 1e6),
]


@pytest.mark.parametrize("cop,cdf", ORACLE_COPULAS)
@pytest.mark.parametrize("m1,m2,lo,hi", ORACLE_MARGINS)
def test_lower_core_matches_root_quadrature_oracles(cop, cdf, m1, m2, lo, hi):
    b = BivariateModel(m1, m2, cop)
    for p in (0.97, 0.995, 0.9999):
        x = m1.quantile(p)
        a = m1.cdf(x)
        for a1, a2 in ((0.5, 0.9), (0.9, 0.99), (0.95, 1.0)):
            lr = LevelRange(a1, a2)
            want = orc.orthant_lower_rvar(cdf, a, m2.cdf, a1, a2, m2.quantile, lo, hi)
            assert lower_rvar(b, lr, x) == pytest.approx(want, rel=1e-9)
        for alpha in (0.5, 0.9, 0.95):
            want = orc.root_lower_var(cdf, a, m2.cdf, alpha, lo, hi)
            assert lower_var(b, alpha, x) == pytest.approx(want, rel=1e-12, abs=1e-10)


@pytest.mark.parametrize("xi", [0.5, 0.7, 0.9, 0.95, 0.99])
def test_lower_tvar_heavy_tail_matches_closed_form_under_pi(xi):
    # the tail cut-off at level 1 - e^-40 once lost 4e-2 of the value at
    # xi = 0.9 and 7e-1 at xi = 0.99
    g = GEV(0.0, 1.0, xi)
    b = BivariateModel(g, g, Independence())
    for p in (0.96, 0.99, 0.999, 0.99999):
        x = g.quantile(p)
        want = closed_lower_rvar_gev_indep(b, LevelRange(0.95, 1.0), x)
        assert lower_tvar(b, 0.95, x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("x,want", [
    (80.0, 40.439605380965932),
    (200.0, 49.04356049515888),
    (1000.0, 65.806488755368139),
])
def test_lower_tvar_gumbel_heavy_tail_pins(x, want):
    # GEV(0, 1, 0.9) margins under Gumbel(2) at alpha 0.95: untruncated
    # high-precision integrals at a = GEV(0, 1, 0.9).cdf(x) in double
    g = GEV(0.0, 1.0, 0.9)
    b = BivariateModel(g, g, Gumbel(2.0))
    assert lower_tvar(b, 0.95, x) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("k", range(-12, 13))
def test_lower_measures_are_scale_equivariant(k):
    # the README model with both scales and the pinned value times c; the
    # value divided by c once moved by 26 % at c = 1e-12
    c = 10.0**k
    base = BivariateModel(Weibull(2.0, 50.0), Weibull(2.0, 150.0), Gumbel(1.5))
    scaled = BivariateModel(Weibull(2.0, 50.0 * c), Weibull(2.0, 150.0 * c), Gumbel(1.5))
    lr = LevelRange(0.9, 0.99)
    assert lower_var(scaled, 0.95, 100.0 * c) / c == pytest.approx(
        lower_var(base, 0.95, 100.0), rel=1e-13)
    assert lower_rvar(scaled, lr, 100.0 * c) / c == pytest.approx(
        lower_rvar(base, lr, 100.0), rel=1e-13)
    assert lower_tvar(scaled, 0.95, 100.0 * c) / c == pytest.approx(
        lower_tvar(base, 0.95, 100.0), rel=1e-12)


def test_degenerate_bands_raise():
    # B = A * alpha2 drops to alpha1 when A is small
    with pytest.raises(DegenerateRangeError):
        lower_rvar(GEV_IND, LevelRange(0.9, 0.99), 3.0)
    # C rises above alpha2 when A is large
    with pytest.raises(DegenerateRangeError):
        upper_rvar(GEV_IND, LevelRange(0.9, 0.99), GEV_IND.margin1.quantile(0.999))


def test_lower_rvar_far_above_band_approaches_marginal_rvar():
    b = WEIB_GUMBEL
    lr = LevelRange(0.95, 0.99)
    x = b.margin1.quantile(1.0 - 1e-9)
    got = lower_rvar(b, lr, x)
    assert got == pytest.approx(uni_rvar(b.margin2, lr), rel=1e-6)


def test_lower_tvar_matches_mc_conditional_mean():
    b = GEV_IND
    alpha, x = 0.9, 4.0
    lv = orc.root_lower_var(orc.pi_cdf, b.margin1.cdf(x), b.margin2.cdf,
                            alpha, -1.0, 1e6)
    s = sample(b, 400_000, seed=101).data
    sel = (s[:, 0] <= x) & (s[:, 1] > lv)
    mc, se = s[sel, 1].mean(), s[sel, 1].std(ddof=1) / math.sqrt(sel.sum())
    got = lower_tvar(b, alpha, x)
    assert abs(got - mc) <= 3.0 * se


def test_upper_tvar_matches_mc_conditional_mean():
    b = GEV_IND
    alpha, x = 0.9, 1.0
    # the attainable band starts at the free marginal quantile at alpha
    y0 = b.margin2.quantile(alpha)
    s = sample(b, 400_000, seed=102).data
    sel = (s[:, 0] > x) & (s[:, 1] > y0)
    mc, se = s[sel, 1].mean(), s[sel, 1].std(ddof=1) / math.sqrt(sel.sum())
    got = upper_tvar(b, alpha, x)
    assert abs(got - mc) <= 3.0 * se


def test_orthant_divergence_markers():
    both_gumbel0 = BivariateModel(GEV(0.0, 1.0, 0.0), GEV(0.0, 1.0, 0.0),
                                  Independence())
    assert is_divergent(lower_tvar(both_gumbel0, 0.9, 2.0))
    assert is_divergent(upper_tvar(both_gumbel0, 0.9, 0.0))
    heavy_free = BivariateModel(GEV(0.0, 1.0, 0.2), GEV(0.0, 1.0, 1.0),
                                Independence())
    assert is_divergent(lower_tvar(heavy_free, 0.9, 4.0))
    gpd_free = BivariateModel(GEV(0.0, 1.0, 0.2), GPDTail(5.0, 2.0, 1.1, 0.1),
                              Independence())
    assert is_divergent(lower_tvar(gpd_free, 0.95, 4.0))
    # a bounded band on the same heavy-tailed model stays finite
    val = lower_rvar(heavy_free, LevelRange(0.9, 0.99), 4.0)
    assert not is_divergent(val) and np.isfinite(val)


@pytest.mark.parametrize("free", [GEV(1.0, 0.5, 0.3), GEV(0.0, 1.0, 0.0),
                                  GEV(1.0, 0.5, -0.4)])
def test_closed_gev_indep_lower_matches_generic(free):
    b = BivariateModel(GEV(0.0, 1.0, 0.2), free, Independence())
    lr = LevelRange(0.9, 0.99)
    for x in [4.0, 6.0, 12.0]:
        got = closed_lower_rvar_gev_indep(b, lr, x)
        assert got == pytest.approx(lower_rvar(b, lr, x), rel=1e-8)


@pytest.mark.parametrize("free", [GEV(1.0, 0.5, 0.3), GEV(0.0, 1.0, 0.0),
                                  GEV(1.0, 0.5, -0.4)])
def test_closed_gev_indep_upper_matches_generic(free):
    b = BivariateModel(GEV(0.0, 1.0, 0.2), free, Independence())
    lr = LevelRange(0.9, 0.99)
    for x in [0.0, 1.0, 2.0]:
        got = closed_upper_rvar_gev_indep(b, lr, x)
        assert got == pytest.approx(upper_rvar(b, lr, x), rel=1e-8)


def test_closed_gev_indep_tail_bands():
    # alpha2 = 1 variants stay finite for xi < 1 and match the generic path
    b = BivariateModel(GEV(0.0, 1.0, 0.2), GEV(1.0, 0.5, 0.3), Independence())
    lr = LevelRange(0.9, 1.0)
    assert closed_lower_rvar_gev_indep(b, lr, 5.0) == pytest.approx(
        lower_tvar(b, 0.9, 5.0), rel=1e-6)
    assert closed_upper_rvar_gev_indep(b, lr, 1.0) == pytest.approx(
        upper_tvar(b, 0.9, 1.0), rel=1e-6)


@pytest.mark.parametrize("measure", [
    closed_lower_rvar_gev_indep,
    pytest.param(lower_rvar, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP defect 4: the core divides its integral over [alpha1/a, alpha2] by "
        "C(a, alpha2) - alpha1, whose rounding the 1.5e-8 wide band magnifies"))),
])
def test_lower_rvar_on_a_band_narrowed_by_the_fixed_level(measure):
    # the first point of the GEV(0, 1, 0.2) lower_rvar curve on [0.95, 0.99]
    # under Pi: a = F(x) maps the band to [0.95/a, 0.99], 1.5e-8 wide. The
    # band average of the free quantile there, with a exact at the binary x,
    # from mpmath at 50 digits; the closed form is within 5.6e-16 of it and
    # the core 3.8e-9
    gev = GEV(0.0, 1.0, 0.2)
    b = BivariateModel(gev, gev, Independence())
    got = measure(b, LevelRange(0.95, 0.99), 4.460194686270308)
    assert got == pytest.approx(7.546824509557483986360388349890375804743, rel=1e-12, abs=0.0)


def test_closed_gev_indep_requires_model_shape():
    with pytest.raises(DomainError):
        closed_lower_rvar_gev_indep(WEIB_GUMBEL, LevelRange(0.9, 0.99), 150.0)
    b = BivariateModel(GEV(0.0, 1.0, 0.2), GEV(1.0, 0.5, 0.3), Gumbel(1.5))
    with pytest.raises(DomainError):
        closed_upper_rvar_gev_indep(b, LevelRange(0.9, 0.99), 1.0)


@pytest.mark.parametrize("cop", [Independence(), Comonotone()])
def test_closed_exponential_matches_generic(cop):
    b = BivariateModel(Exponential(1.0), Exponential(2.0), cop)
    lr = LevelRange(0.95, 0.995)
    got = closed_lower_rvar_exponential(b, lr, 4.0)
    assert got == pytest.approx(lower_rvar(b, lr, 4.0), rel=1e-9)


def test_closed_exponential_w_copula():
    b = BivariateModel(Exponential(1.0), Exponential(2.0), Countermonotone())
    lr = LevelRange(0.95, 0.995)
    got = closed_lower_rvar_exponential(b, lr, 4.0)
    assert got == pytest.approx(lower_rvar(b, lr, 4.0), rel=1e-9)
    # F1(x) + alpha2 - 1 = alpha1 collapses the band exactly
    x_edge = -math.log(1.0 - (1.0 + lr.alpha1 - lr.alpha2))
    with pytest.raises(DegenerateRangeError):
        closed_lower_rvar_exponential(b, lr, x_edge)


def test_closed_exponential_validation():
    weib = BivariateModel(Weibull(2.0, 50.0), Exponential(1.0), Independence())
    with pytest.raises(DomainError):
        closed_lower_rvar_exponential(weib, LevelRange(0.9, 0.99), 100.0)
    gum = BivariateModel(Exponential(1.0), Exponential(2.0), Gumbel(1.5))
    with pytest.raises(DomainError):
        closed_lower_rvar_exponential(gum, LevelRange(0.9, 0.99), 4.0)


PARITY_BANDS = [(0.5, 0.9), (0.9, 0.99), (0.2, 1.0), (0.9, 1.0), (0.0, 0.95), (0.0, 1.0)]
# fixed levels up to 0.99: the former upper forms divide a rounded level
# by 1 - a, which costs them 1e-13 relative at a = 0.999
PARITY_LEVELS = [0.05, 0.3, 0.7, 0.9, 0.97, 0.99]


def _same_as_former(new, old, args):
    """Same value within 5e-14, same DIVERGES, or the same exception type."""
    try:
        want = old(*args)
    except Exception as exc:
        with pytest.raises(type(exc)):
            new(*args)
        return
    got = new(*args)
    if is_divergent(want):
        assert is_divergent(got)
    else:
        assert got == pytest.approx(want, rel=5e-14, abs=0.0)


@pytest.mark.parametrize("xi", [-0.4, 0.0, 1e-9, 0.2, 0.3, 0.9])
def test_closed_gev_indep_matches_former_closed_form(xi):
    pairs = [(closed_lower_rvar_gev_indep, orc.closed_lower_rvar_gev_indep),
             (closed_upper_rvar_gev_indep, orc.closed_upper_rvar_gev_indep)]
    for cop in (Independence(), Gumbel(1.0)):
        b = BivariateModel(GEV(0.0, 1.0, 0.2), GEV(1.0, 0.5, xi), cop)
        for a1, a2 in PARITY_BANDS:
            for p in PARITY_LEVELS:
                x = b.margin1.quantile(p)
                for new, old in pairs:
                    _same_as_former(new, old, (b, LevelRange(a1, a2), x))


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e6])
@pytest.mark.parametrize("cop", [Independence(), Comonotone(), Countermonotone()])
def test_closed_exponential_matches_former_closed_form(lam, cop):
    b = BivariateModel(Exponential(0.7), Exponential(lam), cop)
    for a1, a2 in PARITY_BANDS:
        for p in PARITY_LEVELS:
            x = b.margin1.quantile(p)
            _same_as_former(closed_lower_rvar_exponential, orc.closed_lower_rvar_exponential,
                            (b, LevelRange(a1, a2), x))


@pytest.mark.parametrize("xi", [-0.4, 0.2, 0.9])
def test_closed_gev_indep_upper_tail_band_is_the_free_tvar(xi):
    # under independence the band [a + alpha1 (1 - a), 1] maps back onto
    # [alpha1, 1] exactly, at every fixed level
    free = GEV(1.0, 0.5, xi)
    b = BivariateModel(GEV(0.0, 1.0, 0.2), free, Independence())
    for p in (0.3, 0.9, 0.999):
        x = b.margin1.quantile(p)
        assert closed_upper_rvar_gev_indep(b, LevelRange(0.9, 1.0), x) == uni_rvar(
            free, LevelRange(0.9, 1.0))


def test_closed_exponential_w_copula_at_50_digits():
    # the former form differenced x log x terms and was off by 1.7e-14 here
    b = BivariateModel(Exponential(1.0), Exponential(2.0), Countermonotone())
    x = b.margin1.quantile(0.96)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        # band [alpha1 + 1 - a, alpha2] at the binary levels, exactly
        w1, w2 = D(0.95) + 1 - D(b.margin1.cdf(x)), D(0.995)
        # antiderivative of the exponential quantile -ln(1 - p) / 2
        anti = lambda p: ((1 - p) * (1 - p).ln() + p) / 2
        want = (anti(w2) - anti(w1)) / (w2 - w1)
        got = D(closed_lower_rvar_exponential(b, LevelRange(0.95, 0.995), x))
        assert abs(got - want) / want <= D("1e-15")


def test_orthant_curve_shapes_and_domains():
    b = GEV_IND
    lr = LevelRange(0.9, 0.99)
    cv = orthant_curve(b, "lower_var", lr, grid=50)
    assert cv.kind == "lower_var" and len(cv.x_fixed) == 50 == len(cv.values)
    lo, hi = b.margin1.quantile(0.9), b.margin1.quantile(1.0 - 1e-6)
    assert lo <= cv.x_fixed[0] < lo + 1e-4
    assert hi - 1e-4 < cv.x_fixed[-1] <= hi
    vals = np.asarray(cv.values, dtype=float)
    assert np.all(np.diff(vals) <= 1e-9)  # nonincreasing in the conditioning value

    cr = orthant_curve(b, "lower_rvar", lr, grid=20)
    assert np.isfinite(np.asarray(cr.values, dtype=float)).all()
    # left edge of the band reproduces the free quantile at alpha2
    assert cr.values[0] == pytest.approx(b.margin2.quantile(0.99), rel=1e-4)

    cu = orthant_curve(b, "upper_rvar", lr, grid=20)
    assert np.isfinite(np.asarray(cu.values, dtype=float)).all()

    with pytest.raises(DomainError):
        orthant_curve(b, "sideways_var", lr)
    with pytest.raises(DomainError):
        orthant_curve(b, "lower_var", lr, grid=1)


def test_aggregate_single_component_identity():
    b = EXP_PI
    lr = LevelRange(0.9, 0.99)
    got = comonotonic_aggregate_rvar([b], lr, 4.0)
    assert got == pytest.approx(lower_rvar(b, lr, 4.0), rel=1e-10)


def test_aggregate_two_exponentials():
    b1 = BivariateModel(Exponential(1.0), Exponential(2.0), Comonotone())
    b2 = BivariateModel(Exponential(2.0), Exponential(1.0), Comonotone())
    lr = LevelRange(0.9, 0.99)
    s_total = 6.0
    got = comonotonic_aggregate_rvar([b1, b2], lr, s_total)
    # comonotone Exp(1) + Exp(2) totals have Exp(2/3) quantiles, and both
    # free margins sum to the same law, so the aggregate collapses to a
    # single comonotone pair in the total
    direct = closed_lower_rvar_exponential(
        BivariateModel(Exponential(2.0 / 3.0), Exponential(2.0 / 3.0), Comonotone()),
        lr, s_total)
    assert got == pytest.approx(direct, rel=1e-9)
    # and it decomposes additively at the common quantile level
    p_star = 1.0 - math.exp(-s_total * (2.0 / 3.0))
    x1 = -math.log1p(-p_star) / 1.0
    x2 = -math.log1p(-p_star) / 2.0
    part = lower_rvar(b1, lr, x1) + lower_rvar(b2, lr, x2)
    assert got == pytest.approx(part, rel=1e-9)


def test_aggregate_check_compares_copulas():
    # the check, always on, asks for one copula, Gumbel(1) counting as Pi; it
    # draws no sample, so GPD-tail margins (no quantile below 1 - zeta_u) pass
    # it. Fixed margins Exp(1) and Exp(2) total 6 at the common level
    # 1 - e^-4, where they sit at 4 and 2
    lr = LevelRange(0.9, 0.99)
    b1 = BivariateModel(Exponential(1.0), Exponential(2.0), Independence())
    b2 = BivariateModel(Exponential(2.0), Exponential(1.0), Gumbel(1.0))
    assert comonotonic_aggregate_rvar([b1, b2], lr, 6.0) == pytest.approx(
        lower_rvar(b1, lr, 4.0) + lower_rvar(b2, lr, 2.0), rel=1e-12)
    b3 = BivariateModel(b2.margin1, b2.margin2, Gumbel(1.5))
    with pytest.raises(ComonotonicityError):
        comonotonic_aggregate_rvar([b1, b3], lr, 6.0)
    lr = LevelRange(0.92, 0.99)
    g1 = BivariateModel(Exponential(1.0), GPDTail(5.0, 2.0, 0.3, 0.1), Comonotone())
    g2 = BivariateModel(Exponential(2.0), GPDTail(3.0, 1.0, 0.2, 0.1), Comonotone())
    assert comonotonic_aggregate_rvar([g1, g2], lr, 6.0) == pytest.approx(
        lower_rvar(g1, lr, 4.0) + lower_rvar(g2, lr, 2.0), rel=1e-12)


def test_aggregate_rejects_non_comonotone_and_bad_totals():
    b1 = BivariateModel(Exponential(1.0), Exponential(2.0), Comonotone())
    b2 = BivariateModel(Exponential(2.0), Exponential(1.0), Gumbel(1.5))
    with pytest.raises(ComonotonicityError):
        comonotonic_aggregate_rvar([b1, b2], LevelRange(0.9, 0.99), 6.0)
    with pytest.raises(DomainError):
        comonotonic_aggregate_rvar([b1], LevelRange(0.9, 0.99), -5.0)
