"""Special-function building blocks against direct integral definitions
and against 40-digit mpmath values (``tests/_specfun_pins.py``)."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1, gamma, gammainc, gammaincc

from _specfun_pins import E1_PINS, GAMMA_PINS
from rvar import (
    EULER_GAMMA,
    DomainError,
    exp_integral_e1,
    log_integral,
    upper_incomplete_gamma,
)
from rvar.specfun import _regularized_pq


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


def _rel_err(got, pin):
    # exact: a float converts to Decimal without rounding
    want = Decimal(pin)
    return float(abs(Decimal(got) - want) / abs(want))


def _pinned_errors():
    """Relative errors of the port and of scipy, per quantity, over the pins."""
    port = {"P": [], "Q": [], "Gamma": [], "E1": []}
    ref = {"P": [], "Q": [], "Gamma": [], "E1": []}
    for s, t, p, q, upper in GAMMA_PINS:
        if s > 0:
            got_p, got_q = _regularized_pq(s, t)
            for name, got, sci, pin in (
                ("P", got_p, gammainc(s, t), p),
                ("Q", got_q, gammaincc(s, t), q),
                ("Gamma", upper_incomplete_gamma(s, t), gammaincc(s, t) * gamma(s), upper),
            ):
                if pin is not None:
                    port[name].append((_rel_err(got, pin), s, t))
                    ref[name].append(_rel_err(float(sci), pin))
        elif upper is not None:
            port["Gamma"].append((_rel_err(upper_incomplete_gamma(s, t), upper), s, t))
    for x, pin in E1_PINS:
        if pin is not None:
            port["E1"].append((_rel_err(exp_integral_e1(x), pin), x, None))
            ref["E1"].append(_rel_err(float(exp1(x)), pin))
    return port, ref


_PORT_ERRORS, _SCIPY_ERRORS = _pinned_errors()


@pytest.mark.parametrize("name", ["P", "Q", "Gamma", "E1"])
def test_every_pinned_value_within_1e14(name):
    errors = _PORT_ERRORS[name]
    assert len(errors) > 15
    worst = max(errors)
    assert worst[0] <= 1e-14, worst


@pytest.mark.parametrize("name", ["P", "Q", "Gamma", "E1"])
def test_port_no_less_accurate_than_scipy_on_the_pins(name):
    # scipy's error over the positive orders and E1 points it covers; the
    # negative orders have no scipy counterpart and are held to 1e-14 above
    ours = max(e for e, s, _ in _PORT_ERRORS[name] if s > 0)
    assert ours <= max(_SCIPY_ERRORS[name])


def test_negative_order_lands_on_the_requested_order():
    # -0.2 + 1 rounds up, so stepping the base order 0.8 back by 1 once
    # missed -0.2 and a second step returned Gamma(-1.2, a)
    want = 0.5683268819915205527535771677481003908351  # mpmath, 40 digits
    assert upper_incomplete_gamma(-0.2, 0.5) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("s,a,want", [
    # mpmath at 50 digits
    (-1e-12, 1e-3, "6.331539364159026702612532"),
    (-1e-12, 0.3, "0.9056766516762075003038919"),
    (-1e-9, 1e-3, "6.331539387013540770834704"),
    (-1e-9, 0.3, "0.9056766520366071978570614"),
    (-1e-7, 1e-3, "6.331541651875830474042908"),
    (-1e-7, 0.3, "0.9056766877518948011709335"),
    (-1.0 - 1e-9, 1e-3, "992.6689663545439509427813"),
    (-1.0 - 1e-9, 0.3, "1.563717418311818446907238"),
    (-0.3, 1e-3, "22.16210192575859241527535"),
    (-0.3, 0.3, "1.035908388710683703820026"),
])
def test_upper_incomplete_gamma_next_to_order_zero(s, a, want):
    # the recurrence from Gamma(s + 1, a) divided a cancelled difference by
    # s and lost ~|log10 s| digits: 1.3e-7 off at s = -1e-9, a = 0.3
    assert upper_incomplete_gamma(s, a) == pytest.approx(float(want), rel=1e-14)


_ORDERS = st.floats(0.01, 60.0)
_POINTS = st.floats(1e-6, 700.0)


@settings(max_examples=300, deadline=None)
@given(_ORDERS, _POINTS)
def test_p_plus_q_is_one(s, t):
    p, q = _regularized_pq(s, t)
    assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0
    assert abs(p + q - 1.0) <= 5e-16


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40 * 1024).map(lambda k: k / 1024), st.floats(1e-6, 500.0))
def test_upper_gamma_recurrence_holds_to_rounding(s, t):
    # s on a 1/1024 grid, so s + 1 is exact and both sides share the order
    lhs = upper_incomplete_gamma(s + 1.0, t)
    rhs = s * upper_incomplete_gamma(s, t) + t**s * math.exp(-t)
    assert lhs == pytest.approx(rhs, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(_ORDERS, _POINTS, st.floats(1e-12, 1.0))
def test_q_decreases_in_t(s, t, step):
    # strictly in exact arithmetic; allowed to tie or wobble by rounding
    t2 = t * (1.0 + step)
    assert _regularized_pq(s, t2)[1] <= _regularized_pq(s, t)[1] * (1.0 + 1e-15)
