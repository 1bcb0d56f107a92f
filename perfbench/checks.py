"""Output checks: agreement digits, failure bookkeeping and references.

The references here do not call the code they judge.  Orthant values are
compared with the root-plus-quadrature oracles of ``tests/_oracles.py``
(imported read-only) or with the package's closed forms; empirical
estimates with a brute-force order-statistic evaluation written from the
estimator definitions; CLI output with the in-process library value.
"""

from __future__ import annotations

import math

import numpy as np

# -log10 of double precision: a value equal to its reference scores this
DIGITS_CAP = -math.log10(2.0**-52)

# the estimators round level indices up after subtracting this fuzz, so that
# exact multiples of 1/n are not lost to floating point (package convention)
INDEX_FUZZ = 1e-9


class Checker:
    """Collects per-task check outcomes and the worst agreement in digits."""

    def __init__(self):
        self.min_digits = DIGITS_CAP
        self.checked = 0
        self.failed_tasks: dict[int, str] = {}

    def fail(self, task_id: int, what: str) -> None:
        self.failed_tasks.setdefault(task_id, what)

    def expect(self, task_id: int, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.fail(task_id, what)

    def compare(self, task_id: int, got, want, tol: float, what: str, scale: float = 0.0) -> None:
        """Relative agreement of got with want; scale floors the denominator."""
        self.checked += 1
        try:
            got = float(got)
            want = float(want)
        except (TypeError, ValueError):
            self.fail(task_id, f"{what}: non-numeric {got!r} vs {want!r}")
            return
        if not (math.isfinite(got) and math.isfinite(want)):
            self.fail(task_id, f"{what}: non-finite {got!r} vs {want!r}")
            return
        dev = abs(got - want) / max(abs(want), abs(scale), 1e-300)
        digits = DIGITS_CAP if dev == 0.0 else min(DIGITS_CAP, -math.log10(dev))
        self.min_digits = min(self.min_digits, digits)
        if not dev <= tol:
            self.fail(task_id, f"{what}: got {got!r}, want {want!r} (rel dev {dev:.3g} > {tol:g})")


# -- brute-force empirical references -------------------------------------

def _order_stat_index(n: int, level: float) -> int:
    """1-based index ceil(n * level) of the order statistic at a level."""
    return max(1, math.ceil(n * level - INDEX_FUZZ))


def bf_lower_rvar(data: np.ndarray, x: float, m: int, a1: float, a2: float, fixed_col: int = 0):
    """Ladder estimate of the lower orthant RVaR; None where undefined.

    Conditioned set: rows whose fixed coordinate is at or below x.  Rung u
    takes the smallest conditioned free value whose joint ecdf reaches u.
    """
    n = data.shape[0]
    fixed, free = data[:, fixed_col], data[:, 1 - fixed_col]
    cond = np.sort(free[fixed <= x]).tolist()
    if not cond:
        return None
    q2 = float(np.sort(free)[min(_order_stat_index(n, a2), n) - 1])
    top = sum(1 for y in cond if y <= q2) / n
    if top <= a1 + 1e-12:
        return None
    total = 0.0
    for i in range(1, m + 1):
        j = _order_stat_index(n, a1 + (top - a1) / m * i)
        if j > len(cond):
            return None
        total += cond[j - 1]
    return total / m


def bf_upper_rvar(data: np.ndarray, x: float, m: int, a1: float, a2: float, fixed_col: int = 0):
    """Ladder estimate of the upper orthant RVaR; None where undefined.

    Conditioned set: rows whose fixed coordinate is strictly above x.
    """
    n = data.shape[0]
    fixed, free = data[:, fixed_col], data[:, 1 - fixed_col]
    cond = np.sort(free[fixed > x]).tolist()
    k = len(cond)
    if k == 0:
        return None
    if a1 <= 0.0:
        bottom = 1.0 - k / n
    else:
        q1 = float(np.sort(free)[min(_order_stat_index(n, a1), n) - 1])
        bottom = 1.0 - sum(1 for y in cond if y > q1) / n
    if bottom >= a2 - 1e-12:
        return None
    total = 0.0
    for i in range(1, m + 1):
        v = bottom + (a2 - bottom) / m * i
        j = math.ceil(k - n * (1.0 - v) - INDEX_FUZZ)
        if j < 1:
            return None
        total += cond[min(j, k) - 1]
    return total / m


def binomial_ok(hits: int, n: int, p: float, sigmas: float = 6.0) -> bool:
    """Whether a count of hits in n draws is within sigmas of n p."""
    return abs(hits - n * p) <= sigmas * math.sqrt(n * p * (1.0 - p)) + 1.0


def parse_float(token: str):
    """CLI value token as float, or the marker string itself."""
    try:
        return float(token)
    except ValueError:
        return token
