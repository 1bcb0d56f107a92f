"""Special-function building blocks against direct integral definitions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1, gamma

from rvar import (
    EULER_GAMMA,
    DomainError,
    exp_integral_e1,
    log_integral,
    upper_incomplete_gamma,
)


def _uig_quad(s, a):
    # direct definition, integral of t^(s-1) e^(-t) from a to infinity
    val, _ = quad(lambda t: t ** (s - 1.0) * math.exp(-t), a, np.inf,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


@pytest.mark.parametrize("s", [2.5, 1.0, 0.5, 0.0, -0.3, -0.5, -1.2, -2.7])
@pytest.mark.parametrize("a", [0.05, 0.3, 1.0, 4.0])
def test_upper_incomplete_gamma_matches_integral(s, a):
    want = _uig_quad(s, a)
    got = upper_incomplete_gamma(s, a)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("s", [0.8, 0.2, -0.4, -1.6])
def test_upper_incomplete_gamma_recurrence(s):
    # Gamma(s+1, a) = s Gamma(s, a) + a^s e^(-a)
    a = 0.7
    lhs = upper_incomplete_gamma(s + 1.0, a)
    rhs = s * upper_incomplete_gamma(s, a) + a ** s * math.exp(-a)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_upper_incomplete_gamma_at_zero_needs_positive_s():
    assert upper_incomplete_gamma(0.5, 0.0) == pytest.approx(gamma(0.5), rel=1e-13)
    with pytest.raises(DomainError):
        upper_incomplete_gamma(0.0, 0.0)
    with pytest.raises(DomainError):
        upper_incomplete_gamma(-0.5, 0.0)


def test_upper_incomplete_gamma_rejects_negative_a():
    with pytest.raises(DomainError):
        upper_incomplete_gamma(1.0, -0.1)


@pytest.mark.parametrize("x", [0.05, 0.2, 0.5, 0.9, 0.99])
def test_log_integral_matches_e1_pullback(x):
    # li(x) = -E1(-ln x), checked against an independent quadrature of
    # the exponential-integral tail
    t0 = -math.log(x)
    want, _ = quad(lambda t: math.exp(-t) / t, t0, np.inf,
                   epsabs=1e-13, epsrel=1e-13, limit=200)
    assert log_integral(x) == pytest.approx(-want, rel=1e-11)


def test_log_integral_derivative():
    # d/dx li(x) = 1 / ln(x)
    x, h = 0.4, 1e-6
    num = (log_integral(x + h) - log_integral(x - h)) / (2 * h)
    assert num == pytest.approx(1.0 / math.log(x), rel=1e-8)


def test_log_integral_domain():
    with pytest.raises(DomainError):
        log_integral(1.0)
    with pytest.raises(DomainError):
        log_integral(-0.2)


def test_exp_integrals_agree_with_scipy_and_each_other():
    assert exp_integral_e1(1.3) == pytest.approx(exp1(1.3), rel=1e-14)
    with pytest.raises(DomainError):
        exp_integral_e1(0.0)
    with pytest.raises(DomainError):
        exp_integral_e1(-1.0)


def test_euler_gamma_value():
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-16)
