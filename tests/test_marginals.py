"""Marginal families and univariate risk measures."""

import math

import numpy as np
import pytest
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


def test_generic_rvar_quadrature_families():
    # families without a closed form go through quadrature internally;
    # cross-check against the independent band integral
    lr = LevelRange(0.9, 0.99)
    for m in [Weibull(2.0, 50.0), Exponential(0.5), Uniform(-1.0, 3.0)]:
        want = orc.rvar_from_quantile(lambda s, m=m: m.quantile(1.0 - s) if s > 1e-15
                                      else m.quantile(1.0 - 1e-15), 0.9, 0.99)
        assert uni_rvar(m, lr) == pytest.approx(want, rel=1e-8)


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
    for bad in [GEV(0.0, 1.0, 0.0), GEV(0.0, 1.0, 1.0), GPDTail(0.0, 1.0, 1.1, 0.1),
                Weibull(2.0, 1.0)]:
        with pytest.raises(DomainError):
            ratio_limit(bad)
    with pytest.raises(DomainError):
        tvar_var_ratio(GEV(0.0, 1.0, 0.0), 0.99)


def test_gpd_levels_below_threshold_rejected():
    m = GPDTail(5.0, 2.0, 0.25, 0.1)
    with pytest.raises(DomainError):
        uni_var(m, 0.85)  # below 1 - zeta_u = 0.9
    with pytest.raises(DomainError):
        uni_rvar(m, LevelRange(0.85, 0.99))
