"""Marginal families and univariate risk measures."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

import _oracles as orc
from rvar import (
    DIVERGES,
    GEV,
    GPDTail,
    DomainError,
    Exponential,
    Gumbel,
    LevelRange,
    Uniform,
    Weibull,
    is_divergent,
    ratio_limit,
    tvar_var_ratio,
    uni_rvar,
    uni_tvar,
    uni_var,
)

ALL_MODELS = [
    GEV(0.0, 1.0, 0.3),
    GEV(1.0, 2.0, -0.4),
    GEV(0.0, 1.0, 0.0),
    GPDTail(5.0, 2.0, 0.25, 0.1),
    GPDTail(0.0, 1.0, -0.3, 0.05),
    Weibull(2.0, 50.0),
    Exponential(0.5),
    Uniform(-1.0, 3.0),
]


def test_level_range_validation():
    lr = LevelRange(0.9, 0.99)
    assert lr.width == pytest.approx(0.09)
    for bad in [(0.99, 0.9), (0.9, 0.9), (-0.1, 0.5), (0.5, 1.2)]:
        with pytest.raises(DomainError):
            LevelRange(*bad)
    # alpha2 = 1 is a legal tail range
    LevelRange(0.95, 1.0)


@pytest.mark.parametrize("make,params", [
    (GEV, (0.0, math.nan, 0.2)),
    (GEV, (0.0, 1.0, math.nan)),
    (GEV, (math.inf, 1.0, 0.2)),
    (GPDTail, (5.0, 2.0, math.nan, 0.1)),
    (GPDTail, (-math.inf, 2.0, 0.25, 0.1)),
    (Weibull, (math.nan, 50.0)),
    (Weibull, (2.0, math.inf)),
    (Exponential, (math.nan,)),
    (Exponential, (math.inf,)),
    (Uniform, (-math.inf, 3.0)),
    (Uniform, (-1.0, math.nan)),
    (Gumbel, (math.nan,)),
    (Gumbel, (math.inf,)),
])
def test_non_finite_parameters_are_domain_errors(make, params):
    with pytest.raises(DomainError):
        make(*params)


@pytest.mark.parametrize("m", ALL_MODELS, ids=lambda m: type(m).__name__ + repr(m))
@pytest.mark.parametrize("p", [0.05, 0.3, 0.7, 0.95, 0.999])
def test_quantile_cdf_round_trip(m, p):
    if isinstance(m, GPDTail) and p < 1.0 - m.zeta_u:
        return  # tail model starts at its threshold level
    q = m.quantile(p)
    assert m.cdf(q) == pytest.approx(p, abs=1e-10)
    assert m.sf_quantile(1.0 - p) == pytest.approx(q, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("s", [1e-6, 1e-10, 1e-14])
def test_sf_quantile_deep_tail(s):
    got = GEV(0.0, 1.0, 0.5).sf_quantile(s)
    assert got == pytest.approx(orc.gev_sf_quantile(0.0, 1.0, 0.5, s), rel=1e-12)
    got = GPDTail(5.0, 2.0, 0.25, 0.1).sf_quantile(s)
    assert got == pytest.approx(orc.gpd_sf_quantile(5.0, 2.0, 0.25, 0.1, s), rel=1e-12)


def test_weibull_quantile_formula():
    m = Weibull(2.0, 150.0)
    assert m.quantile(0.99) == pytest.approx(150.0 * math.sqrt(-math.log(0.01)), rel=1e-14)
    assert m.quantile(0.99) == pytest.approx(321.8949039434021, rel=1e-12)


def test_gpd_cdf_below_threshold_raises():
    m = GPDTail(5.0, 2.0, 0.25, 0.1)
    with pytest.raises(DomainError):
        m.cdf(4.0)
    # at the threshold itself the cdf equals 1 - zeta_u
    assert m.cdf(5.0) == pytest.approx(0.9)


_PDF_LEVELS = [1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-6]
# each family against scipy.stats; GPDTail is zeta_u times the GPD density above u
_PDF_CASES = [
    (GEV(1.0, 2.0, 0.3), stats.genextreme(-0.3, loc=1.0, scale=2.0), 1.0),
    (GEV(1.0, 2.0, 0.9), stats.genextreme(-0.9, loc=1.0, scale=2.0), 1.0),
    (GEV(1.0, 2.0, -0.4), stats.genextreme(0.4, loc=1.0, scale=2.0), 1.0),
    (GEV(1.0, 2.0, -1.5), stats.genextreme(1.5, loc=1.0, scale=2.0), 1.0),
    (GEV(1.0, 2.0, 0.0), stats.gumbel_r(loc=1.0, scale=2.0), 1.0),
    (Weibull(2.0, 50.0), stats.weibull_min(2.0, scale=50.0), 1.0),
    (Weibull(0.5, 3.0), stats.weibull_min(0.5, scale=3.0), 1.0),
    (Exponential(0.5), stats.expon(scale=2.0), 1.0),
    (Uniform(-1.0, 3.0), stats.uniform(-1.0, 4.0), 1.0),
    (GPDTail(5.0, 2.0, 0.25, 0.1), stats.genpareto(0.25, loc=5.0, scale=2.0), 0.1),
    (GPDTail(0.0, 1.0, -0.3, 0.05), stats.genpareto(-0.3, loc=0.0, scale=1.0), 0.05),
    (GPDTail(5.0, 2.0, 0.0, 0.1), stats.genpareto(0.0, loc=5.0, scale=2.0), 0.1),
]


@pytest.mark.parametrize("m,ref,zeta", _PDF_CASES, ids=[repr(c[0]) for c in _PDF_CASES])
def test_pdf_matches_scipy(m, ref, zeta):
    for p in _PDF_LEVELS:
        # GPDTail levels are read inside its tail, 1 - zeta_u (1 - p)
        x = m.quantile(1.0 - zeta * (1.0 - p))
        assert m.pdf(x) == pytest.approx(zeta * ref.pdf(x), rel=1e-13, abs=0.0), (m, p)


def test_pdf_is_zero_off_the_support():
    for m in [GEV(0.0, 1.0, 0.3), GEV(0.0, 1.0, -0.4), Weibull(2.0, 50.0), Exponential(0.5),
              Uniform(-1.0, 3.0)]:
        lo, hi = m.support()
        for x in (lo - 1.0, hi + 1.0):
            if math.isfinite(x):
                assert m.pdf(x) == 0.0, (m, x)
    assert Weibull(2.0, 50.0).pdf(-1.0) == 0.0 and Weibull(2.0, 1.0).pdf(1e300) == 0.0
    gpd = GPDTail(0.0, 1.0, -0.3, 0.05)
    assert gpd.pdf(gpd.support()[1] + 1.0) == 0.0
    with pytest.raises(DomainError):
        GPDTail(5.0, 2.0, 0.25, 0.1).pdf(4.0)  # below u, as its cdf


@pytest.mark.parametrize("xi,x,cdf,pdf", [
    # exp(-tau) and tau^(1 + xi) e^(-tau) at tau = (1 + xi x)^(-1/xi), for
    # the binary xi and x, evaluated once with mpmath at 40 digits
    (1e-07, -1.0, "6.598802687660838773136634729510345482242e-2", "1.793740812606633338961614652912705854906e-1"),
    (1e-07, 0.3, "4.767236891253489117465142026008981679876e-1", "3.53165586128942963682580803485198517899e-1"),
    (1e-07, 0.5, "5.452392077588014469175972339723199674961e-1", "3.307042839817288317028836142367194928555e-1"),
    (1e-07, 2.0, "8.734229948521274323394026998198384515474e-1", "1.182049483936823871489654669180044319328e-1"),
    (1e-07, 5.0, "9.932846937019644878675319150245798149851e-1", "6.692704640691325139496720739689504366467e-3"),
    (1e-05, -1.0, "6.598713897279242693342113402067870366748e-2", "1.793743313914824245090820084868771936576e-1"),
    (1e-05, 0.3, "4.767235317903843044250333533640167855999e-1", "3.531645780085061104957084086209890612347e-1"),
    (1e-05, 0.5, "5.452387985135077147210422002235022106786e-1", "3.307028080282219418757242616799189442082e-1"),
    (1e-05, 2.0, "8.73420654405164546135982893945418500991e-1", "1.182046316407504015345303786946576593393e-1"),
    (1e-05, 5.0, "9.932838654563339171005092659149704762889e-1", "6.693195991847172638009434232767759479737e-3"),
    (0.3, -1.0, "3.749598129075432255873359645170187968961e-2", "1.758840876879015618502260382455002910863e-1"),
    (0.3, 0.3, "4.722166564214399996879687556928741394096e-1", "3.250572154585327869995082477349580181467e-1"),
    (0.3, 0.5, "5.3387855344876724619037343425364729304e-1", "2.913523331055268016304315270936018646992e-1"),
    (0.3, 2.0, "8.116084186504835118285072878019045665074e-1", "1.058830928049192476597714128792287098118e-1"),
    (0.3, 5.0, "9.539389501045805815185271718025671549307e-1", "1.799342663662190040927719858574559433256e-2"),
    (-0.4, -1.0, "9.836174951134759411080732697811507704687e-2", "1.629364681600297671407041716681661234414e-1"),
    (-0.4, 0.3, "4.836220368773959179634530267448492843046e-1", "3.992363625479056387223546665924933432448e-1"),
    (-0.4, 0.5, "5.641509608372548817037728410269650772329e-1", "4.036735673612555519409400091010511346606e-1"),
    (-0.4, 2.0, "9.822705063757784593548871736277109272063e-1", "8.785694498197523914431617137420213759112e-2"),
    (-0.4, 5.0, "1.0", "0.0"),  # above the upper endpoint 2.5
])
def test_gev_cdf_and_pdf_at_small_shapes(xi, x, cdf, pdf):
    # ln(1 + xi x) as ln of the rounded sum lost ~1e-16/|xi|: 1.4e-9 in the
    # cdf and 9.1e-10 in the pdf at xi = 1e-7; log1p(xi x) is measured
    # within 6.2e-16 here
    g = GEV(0.0, 1.0, xi)
    assert g.cdf(x) == pytest.approx(float(cdf), rel=4e-15, abs=0.0)
    assert g.pdf(x) == pytest.approx(float(pdf), rel=4e-15, abs=0.0)


def test_weibull_pdf_at_zero_is_its_limit():
    assert Weibull(1.0, 2.0).pdf(0.0) == Exponential(0.5).pdf(0.0) == 0.5
    assert Weibull(0.5, 1.0).pdf(0.0) == math.inf
    assert Weibull(2.0, 1.0).pdf(0.0) == 0.0
    assert Weibull(1.0, 2.0).pdf(1e-300) == pytest.approx(0.5, rel=1e-15)


def test_quantile_array_matches_scalar():
    m = GEV(0.0, 1.0, 0.2)
    ps = np.array([0.1, 0.5, 0.9, 0.99])
    got = m.quantile_array(ps)
    want = np.array([m.quantile(p) for p in ps])
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_means_against_quadrature():
    # mean = integral of the quantile over (0, 1)
    for m in [GEV(0.0, 1.0, 0.3), GEV(1.0, 2.0, -0.4), Weibull(2.0, 50.0),
              Exponential(0.5), Uniform(-1.0, 3.0)]:
        want = quad(m.quantile, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=200)[0]
        assert m.mean() == pytest.approx(want, rel=1e-8)
    assert GEV(0.0, 1.0, 0.0).mean() == pytest.approx(0.5772156649015329, rel=1e-12)
    assert Weibull(2.0, 50.0).mean() == pytest.approx(50.0 * gamma_fn(1.5), rel=1e-13)
    assert is_divergent(GEV(0.0, 1.0, 1.0).mean())
    assert is_divergent(GEV(0.0, 1.0, 1.5).mean())


def test_uni_var_is_quantile():
    m = GEV(0.0, 1.0, 0.2)
    assert uni_var(m, 0.97) == m.quantile(0.97)
    with pytest.raises(DomainError):
        uni_var(m, 1.0)
    with pytest.raises(DomainError):
        uni_var(m, 0.0)


@pytest.mark.parametrize("xi", [-0.5, -0.2, -1e-9, 0.0, 1e-9, 0.2, 0.5, 0.9, 1.3])
@pytest.mark.parametrize("a1,a2", [(0.9, 0.95), (0.99, 0.999)])
def test_gev_rvar_closed_vs_quadrature(xi, a1, a2):
    m = GEV(0.3, 1.7, xi)
    want = orc.rvar_from_quantile(
        lambda s: orc.gev_sf_quantile(0.3, 1.7, xi, s), a1, a2)
    got = uni_rvar(m, LevelRange(a1, a2))
    # shapes inside the xi = 0 window take the limiting branch, which is
    # itself within ~3e-9 relative of the exact-shape value
    rel = 1e-8 if 0.0 < abs(xi) < 1e-8 else 1e-9
    assert got == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("xi", [-0.5, 0.0, 0.25, 1.0, 1.2])
@pytest.mark.parametrize("a1,a2", [(0.95, 0.99), (0.99, 0.999)])
def test_gpd_rvar_closed_vs_quadrature(xi, a1, a2):
    m = GPDTail(5.0, 2.0, xi, 0.1)
    want = orc.rvar_from_quantile(
        lambda s: orc.gpd_sf_quantile(5.0, 2.0, xi, 0.1, s), a1, a2)
    got = uni_rvar(m, LevelRange(a1, a2))
    assert got == pytest.approx(want, rel=1e-9)


def test_gpd_rvar_near_unit_shape_branch():
    # just inside the xi = 1 window the log-form branch is used; its
    # deviation from the exact shape is O(|xi - 1|) in relative terms
    m = GPDTail(5.0, 2.0, 1.0 - 5e-9, 0.1)
    want = orc.rvar_from_quantile(
        lambda s: orc.gpd_sf_quantile(5.0, 2.0, 1.0 - 5e-9, 0.1, s), 0.99, 0.999)
    assert uni_rvar(m, LevelRange(0.99, 0.999)) == pytest.approx(want, rel=1e-7)


def test_rvar_collapses_to_var_for_narrow_bands():
    m = GEV(0.0, 1.0, 0.2)
    v = uni_var(m, 0.95)
    r = uni_rvar(m, LevelRange(0.95, 0.95 + 1e-8))
    assert r == pytest.approx(v, abs=1e-6)


def test_closed_rvar_families_match_band_integral():
    # Weibull, exponential and uniform band averages are closed forms;
    # cross-check against the independent band integral, whose quantiles
    # are written survival-side so the far tail keeps its digits
    sf_quantiles = [
        (Weibull(2.0, 50.0), lambda s: 50.0 * (-math.log(s)) ** 0.5),
        (Weibull(0.5, 3.0), lambda s: 3.0 * math.log(s) ** 2),
        (Exponential(0.5), lambda s: -math.log(s) / 0.5),
        (Exponential(1e3), lambda s: -math.log(s) / 1e3),
        (Uniform(-1.0, 3.0), lambda s: 3.0 - 4.0 * s),
    ]
    bands = [(0.9, 0.99), (0.95, 1.0), (0.9, 0.9001), (0.999999, 1.0), (0.0, 0.5), (0.0, 1e-4)]
    for m, sfq in sf_quantiles:
        for a1, a2 in bands:
            want = orc.rvar_from_quantile(sfq, a1, a2)
            got = uni_rvar(m, LevelRange(a1, a2))
            assert got == pytest.approx(want, rel=1e-10), (m, a1, a2)


@pytest.mark.parametrize("k,lam,a1,a2", [
    (0.005, 1.0, 0.9, 0.99),      # Gamma(201) overflows a double
    (0.005, 1.0, 0.9, 0.9001),
    (0.005, 1.0, 0.5, 0.6),
    (0.005, 1e40, 0.0, 0.5),      # regularized lower tail underflows to 0
    (0.0062, 1e34, 0.0, 0.5),     # Gamma(s) finite, regularized tail subnormal
    (0.015, 1.0, 0.9, 1.0),       # TVaR: ln Gamma(s) + ln Q(s, t1)
    (0.0204, 1.0, 0.9, 0.99),     # just above the switch to the log form
    (0.0208, 1.0, 0.9, 0.99),     # just below it
])
def test_weibull_rvar_at_very_small_shape(k, lam, a1, a2):
    # a large scale keeps the value clear of the oracle's absolute tolerance
    sfq = lambda s: lam * (-math.log(s)) ** (1.0 / k)
    want = orc.rvar_from_quantile(sfq, a1, a2)
    got = uni_rvar(Weibull(k, lam), LevelRange(a1, a2))
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("xi,a1,a2,want", [
    # mu - sigma/(xi w) [w - Gamma(1-xi, -ln a2) + Gamma(1-xi, -ln a1)] at
    # the binary endpoints, evaluated once with mpmath at 40 digits
    (-0.3, 0.999999, 0.9999995, "3.285065299857919299475335"),
    (0.2, 0.5, 0.5001, "0.3804356753418775222792247"),
    (-0.3, 0.999999, 1.0, "3.292695042901379312860781"),
    (0.2, 0.95, 0.95 + 1e-8, "4.056447932642288872165416"),
])
def test_gev_rvar_on_narrow_and_far_bands(xi, a1, a2, want):
    # beyond the band-integral oracle's 1e-10: differencing upper incomplete
    # gammas was off by 2.9e-10, 7.8e-11, 8.9e-11 and 2.8e-8 here
    got = uni_rvar(GEV(0.0, 1.0, xi), LevelRange(a1, a2))
    assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("xi,a1,a2,want", [
    # the band average of the quantile at the binary endpoints, mpmath at 40 digits
    (0.0, 0.95, 0.95 + 1e-8, "2.970195351651253697263215149123370701951"),
    (1.2, 0.5, 0.5001, "0.4605746475639849793772259803974855283933"),
    (0.0, 0.5, 0.5001, "0.3666571943444618124136100667048864611739"),
])
def test_gev_rvar_on_narrow_bands_at_xi_zero_and_past_one(xi, a1, a2, want):
    # differencing li and the negative-order incomplete gamma was off by
    # 1.1e-8, 5.3e-11 and 1.5e-13 here
    got = uni_rvar(GEV(0.0, 1.0, xi), LevelRange(a1, a2))
    assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("xi,a1,a2,want", [
    # mu - sigma/(xi w) [w - (Gamma(1-xi, -ln a2) - Gamma(1-xi, -ln a1))] at
    # the binary endpoints, mpmath at 40 digits; Gamma(1 - xi) overflows here
    (-171.0, 0.5, 0.9, "0.005847953216374269005847953216"),
    (-171.0, 0.01, 0.99, "-4.267981829870911995134304706e+107"),
    (-200.0, 0.5, 0.9, "0.005"),
    (-200.0, 0.01, 0.99, "-5.332671857178973685099135466e+126"),
    (-500.0, 0.5, 0.9, "0.002"),
])
def test_gev_rvar_at_very_negative_shape(xi, a1, a2, want):
    # the linear band form returned NaN (printed NA) below xi ~ -170.6
    got = uni_rvar(GEV(0.0, 1.0, xi), LevelRange(a1, a2))
    assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("xi,want", [
    # the band average of the quantile over [0.5, 0.9] at the binary xi, mpmath at 50 digits
    (1.0 - 1e-9, "2.492824098535957025695646"),
    (1.0 + 1e-9, "2.492824103276228705299886"),
    (1.0 + 1e-7, "2.492824337919685472515606"),
    (1.0 + 1e-6, "2.492826471043375322535315"),
])
def test_gev_rvar_next_to_unit_shape(xi, want):
    # Gamma(1 - xi, t) for -1e-7 < 1 - xi < 0 once divided a cancelled
    # difference by 1 - xi: 2.3e-7 off at xi = 1 + 1e-9
    got = uni_rvar(GEV(0.0, 1.0, xi), LevelRange(0.5, 0.9))
    assert got == pytest.approx(float(want), rel=1e-13)


def test_exponential_rvar_on_a_narrow_band():
    # mpmath at 50 digits, binary endpoints; differencing the incomplete
    # gamma tails was off by 7.4e-15 here
    got = uni_rvar(Exponential(1e6), LevelRange(0.6, 0.61))
    assert got == pytest.approx(9.288962204868498795123105e-7, rel=1e-15)


def test_weibull_cdf_and_mean_past_the_double_range():
    # (x / scale)^shape and Gamma(1 + 1/shape) once raised OverflowError
    m = Weibull(1000.0, 1.0)
    assert m.cdf(10.0) == 1.0 and m.cdf(1e300) == 1.0
    assert m.cdf(1.0) == -math.expm1(-1.0)
    with pytest.raises(DomainError):
        Weibull(0.005, 1.0).mean()


def test_gev_mean_past_the_double_range():
    # Gamma(1 - xi) once raised OverflowError below xi ~ -170.6
    want = (gamma_fn(171.0) - 1.0) / -170.0
    assert GEV(0.0, 1.0, -170.0).mean() == pytest.approx(want, rel=1e-13)
    for xi in (-170.7, -200.0, -1e6):
        with pytest.raises(DomainError):
            GEV(0.0, 1.0, xi).mean()


def test_gev_mean_scaled_past_the_double_range():
    # Gamma(101) ~ 9.3e157 is finite; sigma 1e300 times it once gave -inf
    with pytest.raises(DomainError):
        GEV(0.0, 1e300, -100.0).mean()
    assert GEV(0.0, 1e100, -100.0).mean() == pytest.approx(
        1e100 * (gamma_fn(101.0) - 1.0) / -100.0, rel=1e-13)


def test_weibull_mean_scaled_past_the_double_range():
    # Gamma(101) ~ 9.3e157 is finite; scale 1e300 times it once gave inf
    with pytest.raises(DomainError):
        Weibull(0.01, 1e300).mean()
    assert Weibull(0.01, 1e100).mean() == pytest.approx(1e100 * gamma_fn(101.0), rel=1e-13)


def test_out_of_range_band_means_are_domain_errors():
    # mpmath: -7.944e324 for this GEV band and 9.47e358 for the Weibull one,
    # beyond the largest double; exp() of their logarithms overflowed
    with pytest.raises(DomainError):
        uni_rvar(GEV(0.0, 1.0, -500.0), LevelRange(0.01, 0.99))
    with pytest.raises(DomainError):
        uni_rvar(Weibull(0.001, 1.0), LevelRange(0.5, 0.9))
    with pytest.raises(DomainError):
        uni_var(Weibull(0.001, 1.0), 0.9)


def test_exponential_tvar_closed_identity():
    # memoryless tail: TVaR_a = VaR_a + 1/lam
    m = Exponential(0.5)
    t = uni_tvar(m, 0.95)
    assert t == pytest.approx(uni_var(m, 0.95) + 2.0, rel=1e-9)


@pytest.mark.parametrize("m,alpha", [
    (GEV(0.0, 1.0, 0.2), 0.95),
    (GEV(2.0, 0.5, -0.3), 0.99),
    (GPDTail(5.0, 2.0, 0.4, 0.1), 0.95),
])
def test_tvar_closed_vs_quadrature(m, alpha):
    if isinstance(m, GEV):
        sfq = lambda s: orc.gev_sf_quantile(m.mu, m.sigma, m.xi, s)
    else:
        sfq = lambda s: orc.gpd_sf_quantile(m.u, m.sigma, m.xi, m.zeta_u, s)
    want = orc.rvar_from_quantile(sfq, alpha, 1.0)
    assert uni_tvar(m, alpha) == pytest.approx(want, rel=1e-9)


def test_tvar_divergence_markers():
    assert is_divergent(uni_tvar(GEV(0.0, 1.0, 1.0), 0.99))
    assert is_divergent(uni_tvar(GEV(0.0, 1.0, 1.4), 0.9))
    assert is_divergent(uni_tvar(GEV(0.0, 1.0, 0.0), 0.99))
    assert is_divergent(uni_tvar(GEV(0.0, 1.0, 1e-12), 0.99))
    assert is_divergent(uni_tvar(GPDTail(5.0, 2.0, 1.0, 0.1), 0.95))
    assert repr(DIVERGES) == "DIVERGES"
    # but a finite band above the same level stays finite
    val = uni_rvar(GEV(0.0, 1.0, 1.4), LevelRange(0.99, 0.999))
    assert not is_divergent(val) and val > 0


def test_gumbel_tail_quadrature_stays_finite():
    # the xi=0 closed form reports the marker, yet direct quadrature of
    # the Gumbel quantile over [alpha, 1) converges; keep the value on
    # record so the two facts stay visible side by side
    assert is_divergent(uni_tvar(GEV(0.0, 1.0, 0.0), 0.99))
    sfq = lambda s: orc.gev_sf_quantile(0.0, 1.0, 0.0, s)
    assert orc.rvar_from_quantile(sfq, 0.99, 1.0) == pytest.approx(
        5.602663210118236, rel=1e-12
    )


def test_tvar_var_ratio_spot():
    m = GPDTail(10.0, 2.0, 0.25, 0.05)
    want = (orc.rvar_from_quantile(
        lambda s: orc.gpd_sf_quantile(10.0, 2.0, 0.25, 0.05, s), 0.99, 1.0)
        / orc.gpd_quantile(10.0, 2.0, 0.25, 0.05, 0.99))
    assert tvar_var_ratio(m, 0.99) == pytest.approx(want, rel=1e-10)


def test_ratio_limit_contract():
    assert ratio_limit(GEV(0.0, 1.0, 0.25)) == pytest.approx(4.0 / 3.0)
    assert ratio_limit(GEV(0.0, 1.0, -0.5)) == 1.0
    assert ratio_limit(GPDTail(0.0, 1.0, 0.5, 0.1)) == pytest.approx(2.0)
    assert ratio_limit(GPDTail(0.0, 1.0, 0.0, 0.1)) == 1.0
    assert ratio_limit(GPDTail(0.0, 1.0, -0.3, 0.1)) == 1.0
    for bad in [GEV(0.0, 1.0, 0.0), GEV(0.0, 1.0, 1e-9), GEV(0.0, 1.0, 1.0),
                GPDTail(0.0, 1.0, 1.1, 0.1), GPDTail(0.0, 1.0, 1.0, 0.1), Weibull(2.0, 1.0)]:
        with pytest.raises(DomainError):
            ratio_limit(bad)
        with pytest.raises(DomainError):
            tvar_var_ratio(bad, 0.99)


def test_gpd_levels_below_threshold_rejected():
    m = GPDTail(5.0, 2.0, 0.25, 0.1)
    with pytest.raises(DomainError):
        uni_var(m, 0.85)  # below 1 - zeta_u = 0.9
    with pytest.raises(DomainError):
        uni_rvar(m, LevelRange(0.85, 0.99))
