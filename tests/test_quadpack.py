"""The in-package QAGS port against scipy's QUADPACK."""

import math
import warnings

import pytest
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as scipy_quad

from rvar import GEV, BivariateModel, Gumbel, LevelRange, Weibull, orthant
from rvar._quadpack import quad

OPTS = orthant._QUAD_OPTS
WEIB_GUMBEL = BivariateModel(Weibull(2.0, 50.0), Weibull(2.0, 150.0), Gumbel(1.5))
GEV_GUMBEL = BivariateModel(GEV(0.0, 1.0, 0.9), GEV(0.0, 1.0, 0.9), Gumbel(2.0))


def _memo(f):
    # both integrators visit the same nodes, so the second run costs nothing
    seen = {}

    def g(x):
        if x not in seen:
            seen[x] = f(x)
        return seen[x]

    return g


def _assert_parity(f, a, b, exact=None):
    value, abserr, neval = quad(f, a, b, **OPTS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        s_value, s_abserr, info = scipy_quad(f, a, b, full_output=1, **OPTS)[:3]
    assert abs(value - s_value) <= max(1e-12 * abs(s_value), s_abserr)
    assert neval <= 1.1 * info["neval"]
    if exact is not None:
        assert abs(value - exact) <= abserr
    return value, abserr, neval


@pytest.mark.parametrize(
    "f, a, b, exact, panels",
    [
        # a cubic is exact on the first panel
        (lambda x: 3.0 * x**3 - x + 2.0, 0.0, 2.0, 14.0, 1),
        (lambda x: math.exp(-x), 0.0, 40.0, -math.expm1(-40.0), None),
        (lambda x: x**-0.9 if x > 0.0 else 0.0, 0.0, 1.0, 10.0, None),
    ],
    ids=["polynomial", "exp", "endpoint_singularity"],
)
def test_quad_matches_scipy_on_known_integrals(f, a, b, exact, panels):
    _, _, neval = _assert_parity(f, a, b, exact)
    if panels is not None:
        assert neval == 21 * panels


def _recorded_integrals(monkeypatch, measure, *args):
    """Every (integrand, a, b) the orthant measure hands to quad."""
    calls = []

    def recorder(f, a, b, **opts):
        f = _memo(f)
        calls.append((f, a, b))
        return quad(f, a, b, **opts)

    monkeypatch.setattr(orthant, "quad", recorder)
    measure(*args)
    assert calls
    return calls


@pytest.mark.parametrize(
    "measure, args, smooth",
    [
        (orthant.lower_rvar, (WEIB_GUMBEL, LevelRange(0.95, 0.99), 150.0), True),
        (orthant.upper_rvar, (WEIB_GUMBEL, LevelRange(0.95, 0.99), 40.0), True),
        (orthant.lower_tvar, (WEIB_GUMBEL, 0.95, 150.0), True),
        # heavy tails: bisection without extrapolation needs up to ~6x
        # scipy's evaluations here
        (orthant.lower_tvar, (GEV_GUMBEL, 0.95, 80.0), False),
        (orthant.lower_tvar, (GEV_GUMBEL, 0.95, 200.0), False),
        (orthant.lower_tvar, (GEV_GUMBEL, 0.95, 1000.0), False),
    ],
    ids=["lower_rvar", "upper_rvar", "lower_tvar", "gev_tvar_80", "gev_tvar_200", "gev_tvar_1000"],
)
def test_quad_matches_scipy_on_orthant_integrands(monkeypatch, measure, args, smooth):
    for f, a, b in _recorded_integrals(monkeypatch, measure, *args):
        value, abserr, _ = _assert_parity(f, a, b)
        if smooth:
            # a reference three orders tighter bounds the true error; on the
            # heavy tails the integrand's own root-bisection noise (~1e-10)
            # keeps such a reference from converging
            ref, ref_err, _ = quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=1000)
            assert abs(value - ref) + ref_err <= abserr
