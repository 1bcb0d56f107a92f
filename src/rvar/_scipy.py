"""First-call importer for the scipy root finder the orthant layer binds by name.

``scipy.optimize`` takes a large share of a fresh process's start-up, and
only ``comonotonic_aggregate_rvar`` needs ``brentq``, so it is loaded on the
first call rather than at import. The orthant integral needs no scipy: its
``quad`` is ``rvar._quadpack``. The routine lives outside the layer modules
so that ``perfbench/tracing.py`` counts it once, through the ``brentq`` name
``orthant`` binds.
"""


def brentq(f, a: float, b: float, **opts):
    """``scipy.optimize.brentq``."""
    from scipy.optimize import brentq as _brentq

    return _brentq(f, a, b, **opts)
