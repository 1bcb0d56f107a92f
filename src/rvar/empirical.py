"""Empirical orthant estimators built on joint order statistics.

Lower estimators condition weakly (coordinates at or below the pinned
point); upper estimators condition strictly above it.  Level indices use a
ceiling with a small fuzz so that exact multiples of 1/n are not lost to
floating point.

Each queried column of a sample keeps a rank index (its sorted values and
the row at every rank), so an estimate selects the conditioned rows by
mask and reads its order statistics off a running count of conditioned
rows in rank order, without sorting.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .dependence import BivariateModel, sample
from .errors import (
    DegenerateRangeError,
    DomainError,
    EmptyConditioningError,
    InfeasibleLevelError,
)
from .marginals import LevelRange
from .orthant import _band_mapped_rvar, lower_rvar

_INDEX_FUZZ = 1e-9


@dataclass(frozen=True)
class SampleMatrix:
    """n x d data matrix with at least two rows and two columns.

    ``data`` is a read-only, column-major copy of the input, so the rank
    index that the estimators build per column can never go stale and every
    column is contiguous.
    """

    data: np.ndarray
    _ranked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.data, dtype=float, order="F")
        if arr.ndim != 2:
            raise DomainError(f"sample matrix must be 2-dimensional, got ndim={arr.ndim}")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise DomainError(f"sample matrix needs n >= 2 and d >= 2, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("sample matrix contains missing or non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def _rank_index(self, col: int):
        """Sorted values and int32 sort order of a 0-based column.

        Built on the first query of the column and kept (12 bytes per row).
        ``order[r]`` is the row at rank r, tied values taking distinct
        ranks, so ``sorted[r] == data[order[r], col]``.
        """
        index = self._ranked.get(col)
        if index is None:
            values = self.data[:, col]
            order = np.argsort(values).astype(np.int32)
            index = self._ranked[col] = (values[order], order)
        return index


@dataclass(frozen=True)
class EstimatorConfig:
    m: int
    levels: LevelRange

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, Integral) or self.m < 1:
            raise DomainError(f"m must be a positive integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))


def ecdf(s: SampleMatrix, point) -> float:
    """Joint empirical cdf at a full d-dimensional point (weak inequalities)."""
    p = np.asarray(point, dtype=float)
    if p.shape != (s.d,):
        raise DomainError(f"point must have {s.d} coordinates")
    return float(np.mean(np.all(s.data <= p, axis=1)))


def esurv(s: SampleMatrix, point) -> float:
    """Joint empirical survival at a full d-dimensional point (strict inequalities)."""
    p = np.asarray(point, dtype=float)
    if p.shape != (s.d,):
        raise DomainError(f"point must have {s.d} coordinates")
    return float(np.mean(np.all(s.data > p, axis=1)))


def _conditioned(s: SampleMatrix, x_fixed, free_index: int, above: bool):
    """Rank index of the free column, mask and number of the conditioned rows.

    A row qualifies when every pinned coordinate is at or below its entry of
    x_fixed, or strictly above it when ``above``.
    """
    if not 1 <= free_index <= s.d:
        raise DomainError(f"free_index must be in 1..{s.d}, got {free_index}")
    fc = free_index - 1
    others = [c for c in range(s.d) if c != fc]
    x = np.asarray(x_fixed, dtype=float).reshape(-1)
    if x.size == 1:
        x = np.full(len(others), float(x[0]))
    if x.size != len(others):
        raise DomainError(f"x_fixed must supply {len(others)} pinned coordinates")
    mask = None
    for c, xc in zip(others, x):
        hit = s.data[:, c] > xc if above else s.data[:, c] <= xc
        mask = hit if mask is None else mask & hit
    return (*s._rank_index(fc), mask, int(np.count_nonzero(mask)))


def _count_from(order: np.ndarray, mask: np.ndarray, rank: int) -> int:
    """Number of conditioned rows at or above a rank."""
    return int(np.count_nonzero(mask[order[rank:]]))


def _order_stats(vals, order, mask, k: int, j: np.ndarray, lo: int | None = None) -> np.ndarray:
    """Values at the 1-based order statistics j of the k conditioned rows.

    j must be non-decreasing and at most k, and lo a rank at or below that
    of the j[0]-th conditioned row.  Ranks are distinct, so j[0] - 1, the
    default, always is.  Only ranks from lo up are visited: the running
    count of conditioned rows among them locates each order statistic.
    """
    if lo is None:
        lo = int(j[0]) - 1
    count = np.cumsum(mask[order[lo:]])
    below = k - int(count[-1])
    return vals[lo + np.searchsorted(count, j - below)]


def marginal_quantile(s: SampleMatrix, col: int, p: float) -> float:
    """Order statistic at ceiling(n p) of a 1-based column."""
    if not 1 <= col <= s.d:
        raise DomainError(f"col must be in 1..{s.d}, got {col}")
    if not 0.0 < p <= 1.0:
        raise DomainError(f"p must lie in (0, 1], got {p}")
    vals, _ = s._rank_index(col - 1)
    j = max(1, math.ceil(s.n * p - _INDEX_FUZZ))
    return float(vals[min(j, s.n) - 1])


def emp_lower_var(s: SampleMatrix, u: float, x_fixed, free_index: int = 2) -> float:
    """Smallest conditioned order statistic pushing the joint ecdf to u."""
    if not 0.0 < u <= 1.0:
        raise DomainError(f"u must lie in (0, 1], got {u}")
    vals, order, mask, k = _conditioned(s, x_fixed, free_index, above=False)
    if k == 0:
        raise EmptyConditioningError("no observations at or below the pinned point")
    j = max(1, math.ceil(s.n * u - _INDEX_FUZZ))
    if j > k:
        raise InfeasibleLevelError(
            f"level u={u:.6g} needs joint mass {j}/{s.n}, only {k} rows qualify"
        )
    return float(_order_stats(vals, order, mask, k, np.array([j]))[0])


def emp_upper_var(s: SampleMatrix, v: float, x_fixed, free_index: int = 2) -> float:
    """Smallest conditioned order statistic pushing the joint esurv below 1 - v."""
    if not 0.0 < v <= 1.0:
        raise DomainError(f"v must lie in (0, 1], got {v}")
    vals, order, mask, k = _conditioned(s, x_fixed, free_index, above=True)
    if k == 0:
        raise EmptyConditioningError("no observations strictly above the pinned point")
    j = math.ceil(k - s.n * (1.0 - v) - _INDEX_FUZZ)
    if j < 1:
        raise InfeasibleLevelError(
            f"level v={v:.6g} is met below every conditioned observation"
        )
    return float(_order_stats(vals, order, mask, k, np.array([min(j, k)]))[0])


def emp_lower_rvar(s: SampleMatrix, cfg: EstimatorConfig, x_fixed, free_index: int = 2) -> float:
    """Average of emp_lower_var over an m-point ladder on the clipped band."""
    a1, a2 = cfg.levels.alpha1, cfg.levels.alpha2
    vals, order, mask, k = _conditioned(s, x_fixed, free_index, above=False)
    if k == 0:
        raise EmptyConditioningError("no observations at or below the pinned point")
    q2 = marginal_quantile(s, free_index, a2)
    top = float(k - _count_from(order, mask, np.searchsorted(vals, q2, side="right"))) / s.n
    if top <= a1 + 1e-12:
        raise DegenerateRangeError(
            f"empirical band top {top:.6g} does not exceed alpha1={a1:.6g}"
        )
    step = (top - a1) / cfg.m
    u = a1 + step * np.arange(1, cfg.m + 1)
    j = np.maximum(1, np.ceil(s.n * u - _INDEX_FUZZ).astype(int))
    if j[-1] > k:
        raise InfeasibleLevelError("level ladder exceeds the conditioned sample")
    return float(np.mean(_order_stats(vals, order, mask, k, j)))


def emp_upper_rvar(s: SampleMatrix, cfg: EstimatorConfig, x_fixed, free_index: int = 2) -> float:
    """Average of emp_upper_var over an m-point ladder on the clipped band."""
    a1, a2 = cfg.levels.alpha1, cfg.levels.alpha2
    vals, order, mask, k = _conditioned(s, x_fixed, free_index, above=True)
    if k == 0:
        raise EmptyConditioningError("no observations strictly above the pinned point")
    start, above = 0, k  # conditioned rows ranked above q1 and its ties
    if a1 <= 0.0:
        bottom = 1.0 - k / s.n
    else:
        q1 = marginal_quantile(s, free_index, a1)
        start = int(np.searchsorted(vals, q1, side="right"))
        above = _count_from(order, mask, start)
        bottom = 1.0 - float(above) / s.n
    if bottom >= a2 - 1e-12:
        raise DegenerateRangeError(
            f"empirical band bottom {bottom:.6g} reaches alpha2={a2:.6g}"
        )
    step = (a2 - bottom) / cfg.m
    v = bottom + step * np.arange(1, cfg.m + 1)
    j = np.ceil(k - s.n * (1.0 - v) - _INDEX_FUZZ).astype(int)
    if np.any(j < 1):
        raise InfeasibleLevelError("level ladder is met below the conditioned sample")
    j = np.minimum(j, k)
    lo = int(j[0]) - 1
    if k - above < j[0]:  # the ladder starts above q1, unless the fuzz pulled it below
        lo = max(lo, start)
    return float(np.mean(_order_stats(vals, order, mask, k, j, lo)))


@dataclass(frozen=True)
class ConsistencyReport:
    grid: np.ndarray
    theoretical: np.ndarray
    mean_dev: np.ndarray
    sd_dev: np.ndarray
    mean_abs_dev: np.ndarray
    failures: np.ndarray
    reps: int
    n: int
    m: int
    levels: LevelRange
    seed: int


def consistency_experiment(
    b: BivariateModel,
    reps: int,
    n: int,
    cfg: EstimatorConfig,
    grid,
    fixed_index: int = 1,
    seed: int = 20240817,
) -> ConsistencyReport:
    """Replicate the lower RVaR estimator against its model value on a grid.

    Each replication draws a fresh sample with seed + rep.  Estimator
    domain errors at a grid point are counted, not fatal.
    """
    if reps < 2:
        raise DomainError("need at least 2 replications")
    if cfg.levels.alpha2 >= 1.0:
        raise DomainError("the experiment needs alpha2 below 1")
    grid = np.asarray(grid, dtype=float)
    free_index = 2 if fixed_index == 1 else 1
    # a copula with a level map has the model value in closed form
    closed = hasattr(b.copula, "lower_inverse")
    theo = np.full(grid.size, np.nan)
    for gi, x in enumerate(grid):
        try:
            if closed:
                theo[gi] = _band_mapped_rvar(b.copula, b, cfg.levels, float(x), fixed_index, upper=False)
            else:
                theo[gi] = lower_rvar(b, cfg.levels, float(x), fixed_index)
        except DomainError:
            pass  # point outside the attainable band: counted below
    devs = np.full((reps, grid.size), np.nan)
    failures = np.zeros(grid.size, dtype=int)
    failures[~np.isfinite(theo)] = reps
    for r in range(reps):
        sm = sample(b, n, seed + r)
        for gi, x in enumerate(grid):
            if not np.isfinite(theo[gi]):
                continue
            try:
                est = emp_lower_rvar(sm, cfg, float(x), free_index)
            except DomainError:
                failures[gi] += 1
                continue
            devs[r, gi] = est - theo[gi]
        del sm  # the next replicate's sample and rank index never coexist with this one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean_dev = np.nanmean(devs, axis=0)
        sd_dev = np.nanstd(devs, axis=0, ddof=1)
        mean_abs_dev = np.nanmean(np.abs(devs), axis=0)
    return ConsistencyReport(
        grid=grid,
        theoretical=theo,
        mean_dev=mean_dev,
        sd_dev=sd_dev,
        mean_abs_dev=mean_abs_dev,
        failures=failures,
        reps=reps,
        n=n,
        m=cfg.m,
        levels=cfg.levels,
        seed=seed,
    )
