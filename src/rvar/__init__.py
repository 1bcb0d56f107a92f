"""Range value at risk: univariate closed forms, bivariate orthant
measures, contamination sensitivities and empirical estimators.

The public names are exported lazily (PEP 562): ``import rvar`` loads no
submodule, and the first access to a name, as ``rvar.X``, ``from rvar
import X`` or ``from rvar import *``, imports the submodule that defines it
and caches the value here. So a univariate query loads only ``marginals``
and its pure-``math`` helpers, never numpy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "dependence": (
        "BivariateModel",
        "Comonotone",
        "Countermonotone",
        "Gumbel",
        "Independence",
        "copula_cdf",
        "sample",
    ),
    "empirical": (
        "ConsistencyReport",
        "EmpiricalCurve",
        "EstimatorConfig",
        "SampleMatrix",
        "consistency_experiment",
        "ecdf",
        "emp_lower_rvar",
        "emp_lower_rvar_curve",
        "emp_lower_var",
        "emp_upper_rvar",
        "emp_upper_rvar_curve",
        "emp_upper_var",
        "esurv",
        "marginal_quantile",
    ),
    "errors": (
        "BandError",
        "ComonotonicityError",
        "DataError",
        "DegenerateRangeError",
        "DomainError",
        "EmptyConditioningError",
        "InfeasibleLevelError",
        "ZeroDensityError",
    ),
    "marginals": (
        "DIVERGES",
        "GEV",
        "Exponential",
        "GPDTail",
        "LevelRange",
        "Uniform",
        "Weibull",
        "is_divergent",
        "ratio_limit",
        "tvar_var_ratio",
        "uni_rvar",
        "uni_tvar",
        "uni_var",
    ),
    "orthant": (
        "OrthantCurve",
        "closed_lower_rvar_exponential",
        "closed_lower_rvar_gev_indep",
        "closed_upper_rvar_gev_indep",
        "comonotonic_aggregate_rvar",
        "lower_rvar",
        "lower_tvar",
        "lower_var",
        "orthant_curve",
        "upper_rvar",
        "upper_tvar",
        "upper_var",
    ),
    "robustness": (
        "SensitivityProfile",
        "branch_label",
        "sens_lower_rvar",
        "sens_lower_tvar",
        "sens_lower_var",
        "sens_upper_rvar",
        "sens_upper_var",
        "sensitivity_profile",
    ),
    "specfun": (
        "EULER_GAMMA",
        "exp_integral_e1",
        "log_integral",
        "upper_incomplete_gamma",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
