"""Empirical orthant estimators built on joint order statistics.

Lower estimators condition weakly (coordinates at or below the pinned
point); upper estimators condition strictly above it.  Level indices use a
ceiling with a small fuzz so that exact multiples of 1/n are not lost to
floating point.

Each queried column of a sample keeps a partial rank index: its sorted
values and the row at every rank from the lowest rank a query has read
up.  A lower ladder reads only ranks from its first rung, ceil(n alpha1)
- 1, up, so the column is partitioned there and only the rows above are
sorted; a later query that reads a lower rank rebuilds the index from
rank 0, a full sort, so no column is sorted more than twice.  An estimate
gives each row a bucket, the first grid point at which the row is
conditioned: one pinned point compares the pinned columns with it, and a
curve, whose conditioned sets are nested along the grid, searches its
grid once per row.  Every grid point's count and order statistics then
come from the buckets in rank order, without sorting.
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
from .orthant import _band_mapped_rvar, _has_affine_level_map, lower_rvar

_INDEX_FUZZ = 1e-9
_CHUNK_CELLS = 1 << 14  # rows or cells per block of transient per-row work


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

    def _rank_index(self, col: int, rank: int):
        """(r0, sorted, order): a 0-based column's rank index from r0 <= rank up.

        ``order[i]`` is the row at rank r0 + i, tied values taking distinct
        ranks, so ``sorted[i] == data[order[i], col]``, and every row ranked
        below r0 holds a value at or below ``sorted[0]``.  The first query
        of a column partitions it at ``rank`` and sorts the rows above; the
        index is kept (12 bytes per indexed row) and serves every query at
        or above r0, while one below r0 rebuilds it from rank 0, so a column
        is sorted at most twice however its queries descend.  Which of
        several tied rows holds a rank is immaterial: the j-th qualifying
        value is the same order statistic either way.
        """
        index = self._ranked.get(col)
        if index is None or index[0] > rank:
            r0 = rank if index is None else 0
            values = self.data[:, col]
            top = np.argpartition(values, r0)[r0:]
            order = top[np.argsort(values[top])].astype(np.int32)
            index = self._ranked[col] = (r0, values[order], order)
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


def _free_and_pinned(s: SampleMatrix, free_index: int):
    if not 1 <= free_index <= s.d:
        raise DomainError(f"free_index must be in 1..{s.d}, got {free_index}")
    fc = free_index - 1
    return fc, [c for c in range(s.d) if c != fc]


def _conditioned(s: SampleMatrix, x_fixed, free_index: int, above: bool):
    """Free column and row buckets of one pinned point.

    A row qualifies when every pinned coordinate is at or below its entry of
    x_fixed, or strictly above it when ``above``; a NaN pin qualifies none.
    Its bucket is 0 (False) when it qualifies and 1 (True) when not: a
    one-point grid, compared column by column instead of searched.
    """
    fc, others = _free_and_pinned(s, free_index)
    x = np.asarray(x_fixed, dtype=float).reshape(-1)
    if x.size == 1:
        x = [float(x[0])] * len(others)
    if len(x) != len(others):
        raise DomainError(f"x_fixed must supply {len(others)} pinned coordinates")
    hit = None
    for c, xc in zip(others, x):
        h = s.data[:, c] > xc if above else s.data[:, c] <= xc
        hit = h if hit is None else np.logical_and(hit, h, out=hit)
    return fc, np.logical_not(hit, out=hit)


def _curve_buckets(s: SampleMatrix, points: np.ndarray, others: list, above: bool) -> np.ndarray:
    """Row buckets of a curve's distinct grid points, given in ascending order.

    The points are ranked so that the conditioned sets grow with the rank:
    ascending for the lower estimators, descending for the upper ones.  A
    row's bucket is the first rank at which it qualifies (the number of
    points if none), so it qualifies at rank g iff its bucket is at most g.
    Every pinned column, listed in ``others``, is held at the grid point, so
    a row is keyed by the largest (lower) or smallest (upper) of them.
    """
    size = points.size
    key = s.data[:, others[0]]
    for c in others[1:]:
        key = (np.minimum if above else np.maximum)(key, s.data[:, c])
    bucket = np.empty(s.n, dtype=np.min_scalar_type(size))
    for i in range(0, s.n, _CHUNK_CELLS):
        b = np.searchsorted(points, key[i:i + _CHUNK_CELLS])  # grid points below the key
        bucket[i:i + _CHUNK_CELLS] = size - b if above else b
    return bucket


def _at_or_below(bucket: np.ndarray, size: int):
    """Number of buckets at or below each rank g < size: rows qualifying at g.

    A one-point bucket is boolean and gives one count, a numpy scalar.
    """
    if bucket.dtype == bool:
        return np.intp(bucket.size - np.count_nonzero(bucket))
    hist = np.zeros(size + 1, dtype=np.intp)
    for i in range(0, bucket.size, _CHUNK_CELLS):
        hist += np.bincount(bucket[i:i + _CHUNK_CELLS], minlength=size + 1)
    return np.cumsum(hist[:size])


def _order_stat_means(s: SampleMatrix, fc: int, bucket, g, k, j, lo: int):
    """Mean of the 1-based order statistics j of the rows qualifying at rank g.

    fc is the 0-based free column and k the number of rows qualifying at
    g.  A one-point bucket has the one rank g = 0, a scalar k and one row
    of j; a curve has a row of j per entry of the arrays g and k.
    Each row of j must be non-decreasing and at most its k, and lo a rank
    at or below that of every row's j[0]-th qualifying row.  Ranks are
    distinct, so min(j[..., 0]) - 1 always is.  Only ranks from lo up are
    visited: the qualifying ones among them, listed in rank order, locate
    each order statistic.  A block of grid ranks, at most _CHUNK_CELLS
    cells or one rank's, lists them all in one pass.  The mean is np.mean's:
    the row sum over the row length.
    """
    r0, vals, order = s._rank_index(fc, lo)
    vals, b = vals[lo - r0:], bucket[order[lo - r0:]]
    g = np.asarray(g, dtype=b.dtype)  # compare in the buckets' type
    # a rank's k - (hits at or above lo) qualifying rows come before its hits
    if g.ndim == 0:
        hits = np.flatnonzero(b <= g)
        return vals[hits[j + (hits.size - k - 1)]].sum() / j.size
    width = b.size
    rows = max(1, _CHUNK_CELLS // width)
    out = np.empty(len(g))
    for i in range(0, len(g), rows):
        hit = b <= g[i:i + rows, None]
        hits = np.flatnonzero(hit)  # cells of the block, rank by rank
        ends = np.searchsorted(hits, np.arange(width, (len(hit) + 1) * width, width))
        at = hits[j[i:i + rows] + (ends - k[i:i + rows] - 1)[:, None]]
        out[i:i + rows] = vals[at % width].sum(axis=1) / j.shape[1]
    return out


def _level_rank(n: int, p: float) -> int:
    """0-based rank of the order statistic at ceiling(n p), for 0 <= p <= 1."""
    return min(max(1, math.ceil(n * p - _INDEX_FUZZ)), n) - 1


def marginal_quantile(s: SampleMatrix, col: int, p: float) -> float:
    """Order statistic at ceiling(n p) of a 1-based column."""
    if not 1 <= col <= s.d:
        raise DomainError(f"col must be in 1..{s.d}, got {col}")
    if not 0.0 < p <= 1.0:
        raise DomainError(f"p must lie in (0, 1], got {p}")
    rank = _level_rank(s.n, p)
    r0, vals, _ = s._rank_index(col - 1, rank)
    return float(vals[rank - r0])


def _lower_ladder(s: SampleMatrix, cfg: EstimatorConfig, fc: int, bucket, size: int):
    """Rungs of the lower estimate at each grid rank: k, j, lo, good and top.

    k rows qualify at a rank.  Where good, its estimate is the mean free
    value of the j-th of them (a row of j per rank), the first ranked at or
    above lo; elsewhere _ladder_error names the failure from k and the band
    top.  A one-point bucket gives scalars and one row of j.
    """
    a1, a2 = cfg.levels.alpha1, cfg.levels.alpha2
    # every rung, and q2, lies at or above the rank of the alpha1 quantile
    r0, vals, order = s._rank_index(fc, _level_rank(s.n, a1))
    k = _at_or_below(bucket, size)
    q2 = vals[_level_rank(s.n, a2) - r0]
    end = np.searchsorted(vals, q2, side="right")  # first rank above q2 and its ties
    top = (k - _at_or_below(bucket[order[end:]], size)) / s.n
    step = (top - a1) / cfg.m
    u = a1 + step[..., None] * np.arange(1, cfg.m + 1)
    j = np.maximum(1, np.ceil(s.n * u - _INDEX_FUZZ).astype(int))
    good = (top > a1 + 1e-12) & (j[..., -1] <= k)  # a band implies k > 0
    return k, j, j[..., 0] - 1, good, top


def _upper_ladder(s: SampleMatrix, cfg: EstimatorConfig, fc: int, bucket, size: int):
    """Rungs of the upper estimate at each grid rank: k, j, lo, good and bottom.

    As _lower_ladder, with the band bottom in place of its top.
    """
    a1, a2 = cfg.levels.alpha1, cfg.levels.alpha2
    k = _at_or_below(bucket, size)
    start, above = 0, k  # qualifying rows ranked above q1 and its ties
    if a1 > 0.0:
        rank = _level_rank(s.n, a1)
        r0, vals, order = s._rank_index(fc, rank)
        end = int(np.searchsorted(vals, vals[rank - r0], side="right"))
        above = _at_or_below(bucket[order[end:]], size)
        start = r0 + end
    bottom = 1.0 - above / s.n
    step = (a2 - bottom) / cfg.m
    v = bottom[..., None] + step[..., None] * np.arange(1, cfg.m + 1)
    j = np.ceil(k[..., None] - s.n * (1.0 - v) - _INDEX_FUZZ).astype(int)
    good = (bottom < a2 - 1e-12) & (j[..., 0] >= 1)  # a band implies k > 0
    j = np.minimum(j, k[..., None])
    lo = j[..., 0] - 1
    # the ladder starts above q1, unless the fuzz pulled it below
    lo = np.where(k - above < j[..., 0], np.maximum(lo, start), lo)
    return k, j, lo, good, bottom


def _ladder_error(above: bool, k, edge: float, levels: LevelRange) -> DomainError:
    """Why a ladder with k qualifying rows and band edge ``edge`` failed.

    The edge is the band's top for a lower ladder and its bottom for an
    upper one.
    """
    if k == 0:
        where = "strictly above" if above else "at or below"
        return EmptyConditioningError(f"no observations {where} the pinned point")
    if above and edge >= levels.alpha2 - 1e-12:
        return DegenerateRangeError(
            f"empirical band bottom {edge:.6g} reaches alpha2={levels.alpha2:.6g}"
        )
    if not above and edge <= levels.alpha1 + 1e-12:
        return DegenerateRangeError(
            f"empirical band top {edge:.6g} does not exceed alpha1={levels.alpha1:.6g}"
        )
    if above:
        return InfeasibleLevelError("level ladder is met below the conditioned sample")
    return InfeasibleLevelError("level ladder exceeds the conditioned sample")


def emp_lower_var(s: SampleMatrix, u: float, x_fixed, free_index: int = 2) -> float:
    """Smallest conditioned order statistic pushing the joint ecdf to u."""
    if not 0.0 < u <= 1.0:
        raise DomainError(f"u must lie in (0, 1], got {u}")
    fc, bucket = _conditioned(s, x_fixed, free_index, above=False)
    k = _at_or_below(bucket, 1)
    if k == 0:
        raise EmptyConditioningError("no observations at or below the pinned point")
    j = max(1, math.ceil(s.n * u - _INDEX_FUZZ))
    if j > k:
        raise InfeasibleLevelError(
            f"level u={u:.6g} needs joint mass {j}/{s.n}, only {k} rows qualify"
        )
    return float(_order_stat_means(s, fc, bucket, 0, k, np.array([j]), j - 1))


def emp_upper_var(s: SampleMatrix, v: float, x_fixed, free_index: int = 2) -> float:
    """Smallest conditioned order statistic pushing the joint esurv below 1 - v."""
    if not 0.0 < v <= 1.0:
        raise DomainError(f"v must lie in (0, 1], got {v}")
    fc, bucket = _conditioned(s, x_fixed, free_index, above=True)
    k = _at_or_below(bucket, 1)
    if k == 0:
        raise EmptyConditioningError("no observations strictly above the pinned point")
    j = math.ceil(k - s.n * (1.0 - v) - _INDEX_FUZZ)
    if j < 1:
        raise InfeasibleLevelError(
            f"level v={v:.6g} is met below every conditioned observation"
        )
    j = min(j, k)
    return float(_order_stat_means(s, fc, bucket, 0, k, np.array([j]), j - 1))


def emp_lower_rvar(s: SampleMatrix, cfg: EstimatorConfig, x_fixed, free_index: int = 2) -> float:
    """Average of emp_lower_var over an m-point ladder on the clipped band."""
    fc, bucket = _conditioned(s, x_fixed, free_index, above=False)
    k, j, lo, good, top = _lower_ladder(s, cfg, fc, bucket, 1)
    if not good:
        raise _ladder_error(False, k, top, cfg.levels)
    return float(_order_stat_means(s, fc, bucket, 0, k, j, int(lo)))


def emp_upper_rvar(s: SampleMatrix, cfg: EstimatorConfig, x_fixed, free_index: int = 2) -> float:
    """Average of emp_upper_var over an m-point ladder on the clipped band."""
    fc, bucket = _conditioned(s, x_fixed, free_index, above=True)
    k, j, lo, good, bottom = _upper_ladder(s, cfg, fc, bucket, 1)
    if not good:
        raise _ladder_error(True, k, bottom, cfg.levels)
    return float(_order_stat_means(s, fc, bucket, 0, k, j, int(lo)))


@dataclass(frozen=True)
class EmpiricalCurve:
    """Ladder estimates over a grid of pinned values.

    ``values[i]`` is the estimate at ``grid[i]``, NaN where it failed, and
    ``errors[i]`` the DomainError the per-point estimator raises there, or
    None.
    """

    grid: np.ndarray
    values: np.ndarray
    errors: tuple


def _curve(s: SampleMatrix, cfg: EstimatorConfig, grid, free_index: int, above: bool):
    fc, others = _free_and_pinned(s, free_index)
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1 or np.isnan(grid).any():
        raise DomainError("grid must be a 1-dimensional array of numbers")
    points, rank = np.unique(grid, return_inverse=True)
    bucket = _curve_buckets(s, points, others, above)
    ladder = _upper_ladder if above else _lower_ladder
    k, j, lo, good, edge = ladder(s, cfg, fc, bucket, points.size)
    values = np.full(points.size, np.nan)
    g = np.flatnonzero(good)
    if g.size:
        values[g] = _order_stat_means(s, fc, bucket, g, k[g], j[g], int(lo[g].min()))
    errors = [None if good[r] else _ladder_error(above, k[r], edge[r], cfg.levels)
              for r in range(points.size)]
    if above:  # ranked from the largest point down
        values, errors = values[::-1], errors[::-1]
    return EmpiricalCurve(grid, values[rank], tuple(errors[g] for g in rank))


def emp_lower_rvar_curve(
    s: SampleMatrix, cfg: EstimatorConfig, grid, free_index: int = 2
) -> EmpiricalCurve:
    """emp_lower_rvar at every point of a grid, in one pass over the sample.

    Every pinned coordinate is held at the grid point.  Points may repeat
    and come in any order; NaN is rejected.
    """
    return _curve(s, cfg, grid, free_index, above=False)


def emp_upper_rvar_curve(
    s: SampleMatrix, cfg: EstimatorConfig, grid, free_index: int = 2
) -> EmpiricalCurve:
    """emp_upper_rvar at every point of a grid, in one pass over the sample.

    Every pinned coordinate is held at the grid point.  Points may repeat
    and come in any order; NaN is rejected.
    """
    return _curve(s, cfg, grid, free_index, above=True)


@dataclass(frozen=True)
class ConsistencyReport:
    grid: np.ndarray
    theoretical: np.ndarray
    mean_dev: np.ndarray
    sd_dev: np.ndarray
    mean_abs_dev: np.ndarray
    failures: np.ndarray
    failure_types: dict  # error type name -> failures of that type per grid point
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

    Each replication draws a fresh sample with seed + rep and estimates
    the whole grid in one pass over it.  Domain errors at a grid point are
    counted, not fatal: in total and by error type, a model value that
    fails counting once per replication.
    """
    if reps < 2:
        raise DomainError("need at least 2 replications")
    if cfg.levels.alpha2 >= 1.0:
        raise DomainError("the experiment needs alpha2 below 1")
    grid = np.asarray(grid, dtype=float)
    free_index = 2 if fixed_index == 1 else 1
    closed = _has_affine_level_map(b.copula)  # the model value in closed form
    theo = np.full(grid.size, np.nan)
    failure_types: dict = {}

    def tally(err, gi, count):
        failure_types.setdefault(type(err).__name__, np.zeros(grid.size, dtype=int))[gi] += count

    for gi, x in enumerate(grid):
        try:
            if closed:
                theo[gi] = _band_mapped_rvar(b.copula, b, cfg.levels, float(x), fixed_index, upper=False)
            else:
                theo[gi] = lower_rvar(b, cfg.levels, float(x), fixed_index)
        except DomainError as exc:
            tally(exc, gi, reps)  # point outside the attainable band
    devs = np.full((reps, grid.size), np.nan)
    failures = np.zeros(grid.size, dtype=int)
    failures[~np.isfinite(theo)] = reps
    modelled = np.flatnonzero(np.isfinite(theo))
    for r in range(reps):
        sm = sample(b, n, seed + r)
        curve = emp_lower_rvar_curve(sm, cfg, grid[modelled], free_index)
        devs[r, modelled] = curve.values - theo[modelled]
        for gi, err in zip(modelled, curve.errors):
            if err is not None:
                failures[gi] += 1
                tally(err, gi, 1)
        del sm, curve  # the next replicate's sample and rank index never coexist with this one
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
        failure_types=dict(sorted(failure_types.items())),
        reps=reps,
        n=n,
        m=cfg.m,
        levels=cfg.levels,
        seed=seed,
    )
