"""Copulas, bivariate models, and the seeded sampler."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

import _oracles as orc
from rvar import (
    GEV,
    BivariateModel,
    Comonotone,
    Countermonotone,
    DomainError,
    Exponential,
    GPDTail,
    Gumbel,
    Independence,
    Uniform,
    Weibull,
    copula_cdf,
    sample,
)

UV_GRID = [(u, v) for u in (0.0, 0.2, 0.5, 0.8, 1.0) for v in (0.0, 0.3, 0.7, 1.0)]


@pytest.mark.parametrize("u,v", UV_GRID)
def test_copula_cdf_matches_reference_forms(u, v):
    assert copula_cdf(Independence(), u, v) == pytest.approx(orc.pi_cdf(u, v), abs=1e-15)
    assert copula_cdf(Comonotone(), u, v) == pytest.approx(orc.m_cdf(u, v), abs=1e-15)
    assert copula_cdf(Countermonotone(), u, v) == pytest.approx(orc.w_cdf(u, v), abs=1e-15)
    assert copula_cdf(Gumbel(1.5), u, v) == pytest.approx(
        orc.gumbel_cdf(u, v, 1.5), abs=1e-15)


def test_gumbel_theta_one_is_independence():
    for u, v in [(0.3, 0.8), (0.05, 0.95), (0.5, 0.5)]:
        assert copula_cdf(Gumbel(1.0), u, v) == pytest.approx(u * v, rel=1e-14)


def test_gumbel_spot_value():
    # C(0.5, 0.5) with theta = 1.5: exp(-(2 (ln 2)^1.5)^(2/3))
    want = math.exp(-((2.0 * math.log(2.0) ** 1.5) ** (1.0 / 1.5)))
    assert copula_cdf(Gumbel(1.5), 0.5, 0.5) == pytest.approx(want, rel=1e-15)
    assert want == pytest.approx(0.33277038426286515, rel=1e-14)


def test_copula_validation():
    with pytest.raises(DomainError):
        Gumbel(0.8)
    with pytest.raises(DomainError):
        copula_cdf(Independence(), -0.1, 0.5)
    with pytest.raises(DomainError):
        copula_cdf(Independence(), 0.5, 1.2)


def test_frechet_ordering_and_survival_positivity():
    cops = [Countermonotone(), Independence(), Gumbel(1.5), Gumbel(4.0), Comonotone()]
    for u in np.linspace(0.05, 0.95, 7):
        for v in np.linspace(0.05, 0.95, 7):
            vals = [copula_cdf(c, u, v) for c in cops]
            assert vals == sorted(vals)
            for c in cops:
                assert 1.0 - u - v + copula_cdf(c, u, v) >= -1e-15


@settings(max_examples=500, deadline=None)
@given(
    theta=st.floats(1.0, 1e4),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
)
@example(theta=300.0, u=0.95, v=0.99)  # the generator sum underflowed: C = 1
@example(theta=500.0, u=0.95, v=0.99)  # ... and overflowed
@example(theta=1e4, u=1e-300, v=0.5)
def test_gumbel_cdf_within_frechet_bounds(theta, u, v):
    c = copula_cdf(Gumbel(theta), u, v)
    # near (1, 1) even u*v rounds one ulp below the rounded u + v - 1
    assert max(u + v - 1.0, 0.0) - 2.0**-52 <= c <= min(u, v)


@pytest.mark.parametrize("cop", [Independence(), Comonotone(), Countermonotone()])
def test_level_maps_invert_the_copula(cop):
    # lower_inverse(a, u) solves C(a, v) = u for u in (0, a); upper_inverse
    # solves v - C(a, v) = u - a for u in (a, 1)
    for a in (0.3, 0.7, 0.95):
        for u in np.linspace(0.0, a, 9)[1:-1]:
            assert cop.cdf(a, cop.lower_inverse(a, u)) == pytest.approx(u, rel=1e-14)
        for u in np.linspace(a, 1.0, 9)[1:-1]:
            v = cop.upper_inverse(a, u)
            assert v - cop.cdf(a, v) == pytest.approx(u - a, rel=1e-14)


@pytest.mark.parametrize("theta", [1.0, 1.5, 10.0, 300.0])
def test_gumbel_lower_inverse_inverts_the_cdf(theta):
    cop = Gumbel(theta)
    for a in (0.3, 0.7, 0.95):
        for u in np.linspace(0.0, a, 9)[1:-1]:
            assert cop.cdf(a, cop.lower_inverse(a, u)) == pytest.approx(u, rel=1e-14)
        assert cop.lower_inverse(a, 0.0) == 0.0 and cop.lower_inverse(a, a) == 1.0


# (theta, a, v, s, dC(a, v)/dv) with v = 1 - s where s is given, from
# 40-digit mpmath at the binary arguments; near v = 1 the caller passes
# -ln v = -log1p(-s), which v = 1 - s has lost. The rounding of
# -ln v / S^(1/theta) is raised to theta - 1, and exp(-ln v - S^(1/theta))
# differences two logs of ~460 at v = 1e-200: both keep only ~1e-14.
GUMBEL_H_PINS = [
    (1.5, 0.3, 0.2, None, 0.44866262407673588181),
    (1.5, 0.95, 0.5, None, 0.98421118649122176154),
    (1.5, 1e-10, 1e-200, None, 0.032392356253944263585),
    (1.5, 0.95, None, 1e-20, 4.1946266205667055763e-10),
    (2.0, 0.95, None, 1e-3, 0.018545046364692346363),
    (2.0, 0.999, None, 1e-9, 9.9850041820559916966e-7),
    (10.0, 0.3, 0.2, None, 0.944870503214517737),
    (10.0, 0.9, 0.95, None, 0.0014543456178609184577),
    (300.0, 0.95, 0.949, None, 0.99776342192038290633),
    (300.0, 0.95, 0.951, None, 0.0020302368705066459659),
    (300.0, 0.5, 0.5, None, 0.50035368953371664328),
    (500.0, 0.95, 0.9499, None, 0.73639170411902158692),
    (500.0, 0.95, 0.9501, None, 0.26431623182201672183),
]


@pytest.mark.parametrize("theta,a,v,s,want", GUMBEL_H_PINS)
def test_gumbel_h_matches_40_digit_pins(theta, a, v, s, want):
    cop = Gumbel(theta)
    got = cop.h(a, v, -math.log(v)) if s is None else cop.h(a, 1.0 - s, -math.log1p(-s))
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("cop", [Independence(), Comonotone(), Countermonotone(), Gumbel(1.0)])
def test_h_is_the_v_derivative_of_the_cdf(cop):
    # piecewise linear in v for Pi, M and W: a one-sided difference is exact
    # up to rounding away from the kink at v = a (M) or v = 1 - a (W)
    for a in (0.3, 0.7):
        for v in (0.1, 0.5, 0.9):
            dv = 1e-6
            slope = (cop.cdf(a, v + dv) - cop.cdf(a, v)) / dv
            assert cop.h(a, v, -math.log(v)) == pytest.approx(slope, rel=1e-7, abs=1e-12)
    ln2 = math.log(2.0)
    assert Gumbel(2.0).h(0.0, 0.5, ln2) == 0.0 and Gumbel(2.0).h(1.0, 0.5, ln2) == 1.0


@pytest.mark.parametrize("cop", [Independence(), Countermonotone(), Gumbel(2.0)])
def test_lower_inverse_reaches_exactly_one_at_the_fixed_level(cop):
    # C(a, v) = a only at v = 1: a TVaR band must end there, not an ulp short
    for a in np.linspace(0.01, 0.99, 99):
        assert cop.lower_inverse(float(a), float(a)) == 1.0
    assert Comonotone().lower_inverse(0.3, 0.3) == 0.3  # min(a, v) = a from v = a on


def test_bivariate_model_joint_cdf_and_survival():
    b = BivariateModel(Weibull(2.0, 50.0), Weibull(2.0, 150.0), Gumbel(1.5))
    x, y = 60.0, 200.0
    u, v = b.margin1.cdf(x), b.margin2.cdf(y)
    assert b.joint_cdf(x, y) == pytest.approx(orc.gumbel_cdf(u, v, 1.5), rel=1e-14)
    assert b.joint_survival(x, y) == pytest.approx(
        1.0 - u - v + orc.gumbel_cdf(u, v, 1.5), rel=1e-12)


def test_sampler_is_seed_deterministic():
    b = BivariateModel(Exponential(1.0), Exponential(2.0), Gumbel(1.5))
    s1 = sample(b, 100, seed=7).data
    s2 = b.sample(100, seed=7).data
    s3 = sample(b, 100, seed=8).data
    np.testing.assert_array_equal(s1, s2)
    assert not np.array_equal(s1, s3)
    assert s1.shape == (100, 2)


@pytest.mark.parametrize("cop,digest", [
    (Independence(), "cc4ef199a09ac14ff71c2c74112b034ad1160671832632f887f27da1128faacc"),
    (Comonotone(), "08542496790cfd6ee9cb1c378c375f9ba0b2fc7ccc5c9d7cdf9f9a8dbd6360e7"),
    (Countermonotone(), "4167c39d70426cf06eb5ec5c5b2681dacf63ae2000bf5919e40a90e29e0b7bfe"),
    (Gumbel(1.5), "43b6f30d0b0c64b6e798af635a9f769ae56a5a5bf4dca2dd667d1ef484b06843"),
    (Gumbel(1.0), "cc4ef199a09ac14ff71c2c74112b034ad1160671832632f887f27da1128faacc"),
])
def test_sampler_is_bit_reproducible_across_versions(cop, digest):
    # uniform margins leave the copula's uniforms as they are drawn; the
    # digests were taken before the copulas drew their own uniforms. The
    # Gumbel(1.5) stream passes numpy's vectorised exp and sin, whose last
    # bit may differ between CPU instruction sets (taken with numpy 2.4.6
    # on x86-64 with AVX-512)
    b = BivariateModel(Uniform(0.0, 1.0), Uniform(0.0, 1.0), cop)
    assert hashlib.sha256(sample(b, 1000, seed=7).data.tobytes()).hexdigest() == digest


def _one_line_frailty_uniforms(rng, n, theta):
    """Gumbel uniforms as one expression per step, in the sampler's draw order."""
    a = 1.0 / theta
    v = np.clip(rng.uniform(0.0, math.pi, size=n), 1e-12, math.pi - 1e-12)
    w = np.clip(rng.exponential(1.0, size=n), 1e-300, None)
    s = (np.sin(a * v) / np.sin(v) ** (1.0 / a)) * (np.sin((1.0 - a) * v) / w) ** ((1.0 - a) / a)
    e = rng.exponential(1.0, size=(n, 2))
    return np.exp(-((e / s[:, None]) ** (1.0 / theta)))


def _one_line_gp(loc, sigma, xi, x):
    return loc - sigma * x if xi == 0.0 else loc + sigma * np.expm1(-xi * x) / xi


# each family's quantile as one expression, in its operation order
_ONE_LINE_QUANTILES = [
    (GEV(0.0, 1.0, 0.2), lambda p: _one_line_gp(0.0, 1.0, 0.2, np.log(-np.log(p)))),
    (GEV(0.3, 1.7, 0.2), lambda p: _one_line_gp(0.3, 1.7, 0.2, np.log(-np.log(p)))),
    (GEV(0.5, 2.3, 0.0), lambda p: _one_line_gp(0.5, 2.3, 0.0, np.log(-np.log(p)))),
    (GEV(1.0, 0.7, -0.3), lambda p: _one_line_gp(1.0, 0.7, -0.3, np.log(-np.log(p)))),
    (Weibull(2.0, 50.0), lambda p: 50.0 * (-np.log1p(-p)) ** (1.0 / 2.0)),
    (Exponential(2.0), lambda p: -np.log1p(-p) / 2.0),
    (Uniform(-1.0, 3.0), lambda p: -1.0 + p * (3.0 - -1.0)),
    (GPDTail(10.0, 2.3, 0.25, 1.0),
     lambda p: _one_line_gp(10.0, 2.3, 0.25, np.log(np.minimum(1.0 - p, 1.0) / 1.0))),
    (GPDTail(10.0, 2.3, 0.0, 1.0),
     lambda p: _one_line_gp(10.0, 2.3, 0.0, np.log(np.minimum(1.0 - p, 1.0) / 1.0))),
]


def test_gumbel_uniforms_match_the_one_line_frailty_sampler():
    # the in-place frailty sampler runs the same operations in the same
    # order as the one expression, so it gives its bits on any CPU
    for theta in (1.5, 3.0):
        got = Gumbel(theta).uniforms(np.random.default_rng(7), 1000)
        assert np.array_equal(got, _one_line_frailty_uniforms(np.random.default_rng(7), 1000, theta))


@pytest.mark.parametrize("margin,quantile", _ONE_LINE_QUANTILES,
                         ids=[repr(c[0]) for c in _ONE_LINE_QUANTILES])
def test_sampler_margins_match_the_one_line_quantiles(margin, quantile):
    # a quantile_array that reorders an operation moves a bit; the sample is
    # the clipped copula uniforms through each margin, column by column
    for cop in (Independence(), Gumbel(1.5)):
        uv = cop.uniforms(np.random.default_rng(7), 1000)
        np.clip(uv, 2.0**-53, 1.0 - 2.0**-53, out=uv)
        data = sample(BivariateModel(margin, margin, cop), 1000, seed=7).data
        assert np.array_equal(data[:, 0], quantile(uv[:, 0]))
        assert np.array_equal(data[:, 1], quantile(uv[:, 1]))


def test_sampler_margins_are_correct():
    b = BivariateModel(Exponential(1.0), Weibull(2.0, 50.0), Gumbel(2.0))
    s = sample(b, 200_000, seed=11).data
    # transformed coordinates must be standard uniform
    for col, margin in [(0, b.margin1), (1, b.margin2)]:
        u = np.array([margin.cdf(x) for x in s[:, col]])
        assert abs(u.mean() - 0.5) < 0.004
        assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_comonotone_and_countermonotone_ranks():
    b = BivariateModel(Exponential(1.0), Exponential(2.0), Comonotone())
    s = sample(b, 1000, seed=3).data
    r1 = np.argsort(np.argsort(s[:, 0]))
    r2 = np.argsort(np.argsort(s[:, 1]))
    np.testing.assert_array_equal(r1, r2)
    b = BivariateModel(Exponential(1.0), Exponential(2.0), Countermonotone())
    s = sample(b, 1000, seed=3).data
    r1 = np.argsort(np.argsort(s[:, 0]))
    r2 = np.argsort(np.argsort(s[:, 1]))
    np.testing.assert_array_equal(r1, len(r1) - 1 - r2)


@pytest.mark.parametrize("theta", [1.5, 3.0])
def test_gumbel_sampler_kendall_tau(theta):
    b = BivariateModel(Exponential(1.0), Exponential(1.0), Gumbel(theta))
    s = sample(b, 200_000, seed=5).data
    tau = kendalltau(s[:, 0], s[:, 1]).statistic
    assert tau == pytest.approx(1.0 - 1.0 / theta, abs=0.01)


def test_gumbel_sampler_matches_copula_cdf():
    theta = 1.5
    b = BivariateModel(Exponential(1.0), Exponential(2.0), Gumbel(theta))
    s = sample(b, 400_000, seed=13).data
    u = 1.0 - np.exp(-s[:, 0])
    v = 1.0 - np.exp(-2.0 * s[:, 1])
    for uu, vv in [(0.3, 0.4), (0.7, 0.2), (0.9, 0.9), (0.5, 0.8)]:
        emp = np.mean((u <= uu) & (v <= vv))
        want = orc.gumbel_cdf(uu, vv, theta)
        se = math.sqrt(want * (1.0 - want) / len(u))
        assert abs(emp - want) <= 4.0 * se + 1e-12


def test_sample_size_validation():
    b = BivariateModel(Exponential(1.0), Exponential(2.0), Independence())
    with pytest.raises(DomainError):
        sample(b, 0, seed=1)
