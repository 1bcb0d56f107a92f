"""Bivariate orthant measures along the fixed coordinate.

Builds a two-line portfolio (two Weibull severities tied by a Gumbel
copula), traces the lower and upper orthant RVaR curves, and shows the
endpoint behavior: the curve runs from the free margin's high quantile
down to the free margin's own band average as the conditioning
coordinate sweeps its feasible range.
"""

from rvar.dependence import BivariateModel, Comonotone, Gumbel, Independence
from rvar.marginals import Exponential, LevelRange, Weibull, uni_rvar
from rvar.orthant import (
    comonotonic_aggregate_rvar,
    lower_rvar,
    orthant_curve,
    upper_rvar,
)


def main():
    band = LevelRange(0.95, 0.99)
    b = BivariateModel(Weibull(2.0, 50.0), Weibull(2.0, 150.0), Gumbel(1.5))
    free = b.margin2

    print("Model: X1 ~ Weibull(2, 50), X2 ~ Weibull(2, 150), Gumbel(theta=1.5).")
    print("Lower orthant RVaR of X2 given the joint cdf event at x1, band [0.95, 0.99]:")
    curve = orthant_curve(b, "lower_rvar", band, grid=9)
    for x, v in zip(curve.x_fixed, curve.values):
        print(f"  x1 = {x:9.3f}   RVaR = {v:10.4f}")
    print(f"  left limit  -> VaR_0.99(X2)      = {free.quantile(0.99):10.4f}")
    print(f"  right limit -> RVaR[.95,.99](X2) = {uni_rvar(free, band):10.4f}")
    print()

    print("Upper orthant RVaR (survival side) over its own feasible range:")
    curve = orthant_curve(b, "upper_rvar", band, grid=9)
    for x, v in zip(curve.x_fixed, curve.values):
        print(f"  x1 = {x:9.3f}   RVaR = {v:10.4f}")
    print(f"  left limit  -> RVaR[.95,.99](X2) = {uni_rvar(free, band):10.4f}")
    print(f"  right limit -> VaR_0.95(X2)      = {free.quantile(0.95):10.4f}")
    print()

    print("Dependence matters: at a fixed conditioning point, stronger positive")
    print("dependence lowers the lower-orthant measure and raises the upper one.")
    # each measure needs its own feasible point: under the comonotone copula
    # the lower band [.95, .99] needs F1(x1) > 0.95, the upper [.5, .95] F1(x1) < 0.95
    x_lower, x_upper = 100.0, 50.0
    print(f"  {'':<13} lower at x1 = {x_lower:g}   upper[.5,.95] at x1 = {x_upper:g}")
    for name, cop in (("independence", Independence()), ("gumbel 1.5", Gumbel(1.5)), ("comonotone", Comonotone())):
        m = BivariateModel(Weibull(2.0, 50.0), Weibull(2.0, 150.0), cop)
        lo = lower_rvar(m, band, x_lower)
        hi = upper_rvar(m, LevelRange(0.5, 0.95), x_upper)
        print(f"  {name:<13} {lo:18.4f}   {hi:24.4f}")
    print()

    print("Comonotonic aggregation: the measure of a sum of commonly-ranked")
    print("exposures is the sum of the component measures at matched quantiles:")
    lr = LevelRange(0.9, 0.99)
    b1 = BivariateModel(Exponential(1.0), Exponential(1.0), Comonotone())
    b2 = BivariateModel(Exponential(2.0), Exponential(2.0), Comonotone())
    agg = comonotonic_aggregate_rvar([b1, b2], lr, 6.0)
    print(f"  aggregate at total x = 6.0: {agg:.10f}")


if __name__ == "__main__":
    main()
