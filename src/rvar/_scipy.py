"""First-call importers for the scipy routines the orthant layer binds by name.

``scipy.integrate`` and ``scipy.optimize`` take most of a fresh process's
start-up, and only the quadrature and root paths need them, so each is
loaded on the first call of a routine here rather than at import.  The
routines live outside the layer modules so that ``perfbench/tracing.py``
counts them once, through the ``quad``/``brentq`` names ``orthant`` binds.
"""

import warnings


def quad(f, a: float, b: float, **opts):
    """``scipy.integrate.quad`` with its ``IntegrationWarning`` silenced."""
    from scipy.integrate import IntegrationWarning
    from scipy.integrate import quad as _quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return _quad(f, a, b, **opts)


def brentq(f, a: float, b: float, **opts):
    """``scipy.optimize.brentq``."""
    from scipy.optimize import brentq as _brentq

    return _brentq(f, a, b, **opts)
