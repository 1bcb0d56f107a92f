"""Empirical orthant estimators on hand-checkable samples."""

import math
import tracemalloc
from unittest import mock

import _oracles as orc
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rvar import (
    GEV,
    BivariateModel,
    DegenerateRangeError,
    DomainError,
    EmpiricalCurve,
    EmptyConditioningError,
    EstimatorConfig,
    Exponential,
    Gumbel,
    Independence,
    InfeasibleLevelError,
    LevelRange,
    SampleMatrix,
    closed_lower_rvar_gev_indep,
    consistency_experiment,
    ecdf,
    emp_lower_rvar,
    emp_lower_rvar_curve,
    emp_lower_var,
    emp_upper_rvar,
    emp_upper_rvar_curve,
    emp_upper_var,
    esurv,
    lower_rvar,
    lower_var,
    marginal_quantile,
    sample,
    upper_var,
)
from rvar import empirical

DIAG = SampleMatrix(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]))


def test_sample_matrix_validation():
    with pytest.raises(DomainError):
        SampleMatrix(np.array([1.0, 2.0, 3.0]))  # 1-d
    with pytest.raises(DomainError):
        SampleMatrix(np.array([[1.0, 2.0]]))  # single row
    with pytest.raises(DomainError):
        SampleMatrix(np.array([[1.0], [2.0]]))  # single column
    with pytest.raises(DomainError):
        SampleMatrix(np.array([[1.0, 2.0], [np.nan, 1.0]]))
    s = SampleMatrix([[1, 2], [3, 4], [5, 6]])
    assert (s.n, s.d) == (3, 2)


def test_estimator_config_validation():
    cfg = EstimatorConfig(100, LevelRange(0.9, 0.99))
    assert cfg.m == 100
    assert EstimatorConfig(np.int64(5), LevelRange(0.9, 0.99)).m == 5
    for bad in (0, 2.5, True, np.bool_(True)):
        with pytest.raises(DomainError):
            EstimatorConfig(bad, LevelRange(0.9, 0.99))


def test_ecdf_and_esurv_by_hand():
    assert ecdf(DIAG, (2.0, 2.0)) == pytest.approx(0.5)
    assert ecdf(DIAG, (2.5, 10.0)) == pytest.approx(0.5)
    assert ecdf(DIAG, (0.5, 0.5)) == 0.0
    assert esurv(DIAG, (0.0, 0.0)) == 1.0
    assert esurv(DIAG, (2.0, 2.0)) == pytest.approx(0.5)
    assert esurv(DIAG, (2.0, 3.0)) == pytest.approx(0.25)
    # d = 2 inclusion-exclusion on the sample itself
    for pt in [(1.5, 2.5), (3.0, 1.0), (2.2, 3.7)]:
        f1 = np.mean(DIAG.data[:, 0] <= pt[0])
        f2 = np.mean(DIAG.data[:, 1] <= pt[1])
        assert esurv(DIAG, pt) == pytest.approx(1.0 - f1 - f2 + ecdf(DIAG, pt))
    with pytest.raises(DomainError):
        ecdf(DIAG, (1.0,))


def test_emp_lower_var_pinned_example():
    # joint ecdf along the diagonal sample: F_n(4, y) counts y-values, so
    # the smallest y with F_n >= 0.5 is the second order statistic
    assert emp_lower_var(DIAG, 0.5, 4.0) == 2.0
    assert emp_lower_var(DIAG, 0.25, 4.0) == 1.0
    assert emp_lower_var(DIAG, 0.51, 4.0) == 3.0
    assert emp_lower_var(DIAG, 1.0, 4.0) == 4.0


def test_emp_lower_var_errors():
    # conditioning keeps only two rows: levels above 2/4 are infeasible
    assert emp_lower_var(DIAG, 0.5, 2.0) == 2.0
    with pytest.raises(InfeasibleLevelError):
        emp_lower_var(DIAG, 0.75, 2.0)
    with pytest.raises(EmptyConditioningError):
        emp_lower_var(DIAG, 0.25, 0.5)
    with pytest.raises(DomainError):
        emp_lower_var(DIAG, 0.0, 2.0)


def test_emp_upper_var_by_hand():
    # smallest y with strict joint survival <= 1 - v, conditioning on > 0
    assert emp_upper_var(DIAG, 0.75, 0.0) == 3.0
    assert emp_upper_var(DIAG, 0.5, 0.0) == 2.0
    # conditioning on > 2 keeps rows 3 and 4; strict survival at y = 3
    # is still 1/4 > 0.2, so the level forces the top observation
    assert emp_upper_var(DIAG, 0.8, 2.0) == 4.0
    with pytest.raises(InfeasibleLevelError):
        emp_upper_var(DIAG, 0.3, 2.0)
    with pytest.raises(EmptyConditioningError):
        emp_upper_var(DIAG, 0.9, 5.0)


def test_marginal_quantile_order_statistic():
    assert marginal_quantile(DIAG, 2, 0.5) == 2.0
    assert marginal_quantile(DIAG, 2, 0.51) == 3.0
    assert marginal_quantile(DIAG, 1, 1.0) == 4.0
    with pytest.raises(DomainError):
        marginal_quantile(DIAG, 3, 0.5)
    with pytest.raises(DomainError):
        marginal_quantile(DIAG, 1, 0.0)


def test_emp_lower_rvar_equals_ladder_average():
    rng = np.random.default_rng(42)
    s = SampleMatrix(rng.exponential(1.0, size=(400, 2)))
    cfg = EstimatorConfig(25, LevelRange(0.8, 0.97))
    x = 3.0
    got = emp_lower_rvar(s, cfg, x)
    # reproduce by explicit ladder over the clipped empirical band
    vals = np.sort(s.data[s.data[:, 0] <= x, 1])
    q2 = marginal_quantile(s, 2, 0.97)
    top = np.count_nonzero(vals <= q2) / s.n
    us = 0.8 + (top - 0.8) * np.arange(1, 26) / 25.0
    want = np.mean([emp_lower_var(s, float(u), x) for u in us])
    assert got == pytest.approx(want, rel=1e-14)


def test_emp_upper_rvar_equals_ladder_average():
    rng = np.random.default_rng(43)
    s = SampleMatrix(rng.exponential(1.0, size=(400, 2)))
    cfg = EstimatorConfig(25, LevelRange(0.8, 0.97))
    x = 0.1
    got = emp_upper_rvar(s, cfg, x)
    vals = np.sort(s.data[s.data[:, 0] > x, 1])
    q1 = marginal_quantile(s, 2, 0.8)
    bottom = 1.0 - np.count_nonzero(vals > q1) / s.n
    vs = bottom + (0.97 - bottom) * np.arange(1, 26) / 25.0
    want = np.mean([emp_upper_var(s, float(v), x) for v in vs])
    assert got == pytest.approx(want, rel=1e-14)


def test_emp_rvar_degenerate_band():
    # pin so low that the clipped band cannot rise above alpha1
    rng = np.random.default_rng(44)
    s = SampleMatrix(rng.exponential(1.0, size=(200, 2)))
    cfg = EstimatorConfig(10, LevelRange(0.9, 0.99))
    with pytest.raises((DegenerateRangeError, EmptyConditioningError)):
        emp_lower_rvar(s, cfg, 0.05)


def test_emp_lower_rvar_converges_to_closed_form():
    b = BivariateModel(GEV(0.0, 1.0, 0.2), GEV(0.0, 1.0, 0.2), Independence())
    lr = LevelRange(0.9, 0.99)
    x = 6.0
    theo = closed_lower_rvar_gev_indep(b, lr, x)
    s = sample(b, 200_000, seed=7)
    est = emp_lower_rvar(s, EstimatorConfig(250, lr), x)
    # sampling noise plus the O(1/m) ladder bias stay well inside 0.05
    assert abs(est - theo) < 0.05


def test_consistency_experiment_report():
    b = BivariateModel(GEV(0.0, 1.0, 0.2), GEV(0.0, 1.0, 0.2), Independence())
    lr = LevelRange(0.9, 0.99)
    grid = np.linspace(4.0, 10.0, 5)
    cfg = EstimatorConfig(50, lr)
    rep = consistency_experiment(b, reps=4, n=600, cfg=cfg, grid=grid, seed=11)
    assert rep.grid.shape == rep.theoretical.shape == (5,)
    assert rep.mean_dev.shape == rep.sd_dev.shape == rep.mean_abs_dev.shape == (5,)
    assert rep.failures.shape == (5,)
    assert rep.reps == 4 and rep.n == 600 and rep.m == 50
    assert np.all(np.isfinite(rep.theoretical))
    # deterministic given the seed
    rep2 = consistency_experiment(b, reps=4, n=600, cfg=cfg, grid=grid, seed=11)
    np.testing.assert_array_equal(rep.mean_dev, rep2.mean_dev)
    # absolute deviations dominate signed ones pointwise
    assert np.all(rep.mean_abs_dev >= np.abs(rep.mean_dev) - 1e-15)


def test_consistency_experiment_gumbel_model_value_is_lower_rvar():
    # Gumbel's h(a, .) varies over the band: the plain band mean of Q is not its RVaR
    gev = GEV(0.0, 1.0, 0.2)
    b = BivariateModel(gev, gev, Gumbel(1.5))
    lr = LevelRange(0.9, 0.99)
    grid = np.linspace(4.0, 10.0, 4)
    rep = consistency_experiment(b, reps=2, n=400, cfg=EstimatorConfig(20, lr), grid=grid, seed=3)
    want = [lower_rvar(b, lr, float(x)) for x in grid]
    np.testing.assert_array_equal(rep.theoretical, want)
    F, Q = gev.cdf, lambda p: orc.gev_quantile(0.0, 1.0, 0.2, p)
    cop = lambda u, v: orc.gumbel_cdf(u, v, 1.5)
    for x, got in zip(grid, rep.theoretical):
        ref = orc.orthant_lower_rvar(cop, F(float(x)), F, 0.9, 0.99, Q, -5.0, 1e6)
        assert got == pytest.approx(ref, rel=1e-7)


def test_consistency_experiment_counts_failures():
    b = BivariateModel(Exponential(1.0), Exponential(2.0), Independence())
    lr = LevelRange(0.9, 0.99)
    # first grid point sits below the attainable band: every rep fails there
    grid = np.array([0.05, 3.0, 4.0])
    rep = consistency_experiment(b, reps=3, n=400,
                                 cfg=EstimatorConfig(20, lr), grid=grid, seed=5)
    assert rep.failures[0] == 3
    assert np.isnan(rep.mean_dev[0])
    assert rep.failures[1] == 0 and np.isfinite(rep.mean_dev[1])


def test_consistency_experiment_counts_failures_by_type():
    b = BivariateModel(Exponential(1.0), Exponential(2.0), Independence())
    lr = LevelRange(0.9, 0.99)
    # 0.05: no model value; 2.0 and 2.5: the small samples' bands degenerate
    grid = np.array([0.05, 2.0, 2.5, 3.0, 4.0])
    rep = consistency_experiment(b, reps=6, n=60, cfg=EstimatorConfig(20, lr), grid=grid, seed=5)
    assert list(rep.failure_types) == ["DegenerateRangeError"]
    np.testing.assert_array_equal(rep.failure_types["DegenerateRangeError"], [6, 6, 1, 1, 0])
    np.testing.assert_array_equal(sum(rep.failure_types.values()), rep.failures)
    rep = consistency_experiment(b, reps=3, n=400, cfg=EstimatorConfig(20, lr), grid=grid[3:], seed=5)
    assert rep.failure_types == {} and not rep.failures.any()


def test_consistency_experiment_validation():
    b = BivariateModel(Exponential(1.0), Exponential(2.0), Independence())
    with pytest.raises(DomainError):
        consistency_experiment(b, reps=1, n=400,
                               cfg=EstimatorConfig(20, LevelRange(0.9, 0.99)),
                               grid=np.array([3.0]))
    with pytest.raises(DomainError):
        consistency_experiment(b, reps=3, n=400,
                               cfg=EstimatorConfig(20, LevelRange(0.9, 1.0)),
                               grid=np.array([3.0]))


def test_free_index_one_conditions_on_second_coordinate():
    s = SampleMatrix(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]]))
    # free column 1, pin column 2 at 20: rows 1 and 2 qualify
    assert emp_lower_var(s, 0.5, 20.0, free_index=1) == 2.0
    with pytest.raises(InfeasibleLevelError):
        emp_lower_var(s, 0.75, 20.0, free_index=1)


def test_sample_data_is_a_read_only_copy():
    a = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
    s = SampleMatrix(a)
    cfg = EstimatorConfig(4, LevelRange(0.5, 1.0))
    assert emp_lower_rvar(s, cfg, 4.0) == 5.0
    a[:, 1] *= 10  # the caller's array stays theirs; the sample and its index do not move
    assert emp_lower_rvar(s, cfg, 4.0) == 5.0
    assert marginal_quantile(s, 2, 1.0) == 5.0
    assert not s.data.flags.writeable
    with pytest.raises(ValueError):
        s.data[0, 1] = 50.0


def _outcome(fn, *args):
    """Estimate, or the type of the DomainError it raised."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc)


@st.composite
def _estimator_cases(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):  # integer-rounded data: heavy ties, also at the pins
        elements = st.integers(-3, 3).map(float)
    else:
        elements = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    data = np.array(draw(st.lists(st.lists(elements, min_size=d, max_size=d),
                                  min_size=n, max_size=n)))
    # a NaN pin qualifies no row
    pin = st.one_of(st.sampled_from(data.ravel().tolist()), st.floats(-5.0, 5.0),
                    st.just(math.nan))
    if d == 3 and draw(st.booleans()):
        x_fixed = np.array([draw(pin), draw(pin)])
    else:
        x_fixed = draw(pin)
    level = st.one_of(st.integers(1, n).map(lambda i: i / n), st.floats(0.0, 1.0))
    a1, a2 = sorted((draw(level), draw(level)))
    if a1 == a2:
        a2 = 1.0 if a1 < 1.0 else a2
        a1 = 0.0 if a1 == a2 else a1
    return dict(data=data, free_index=draw(st.integers(1, d)), x_fixed=x_fixed,
                u=draw(level), m=draw(st.integers(1, 30)), a1=a1, a2=a2,
                col=draw(st.integers(1, d)))


@settings(max_examples=200, deadline=None)
@given(_estimator_cases())
# the upper ladder's first rung lands on the index fuzz, at the order
# statistic just below the alpha1 quantile's rank
@example(dict(data=np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [1.0, 4.0]]),
              free_index=2, x_fixed=0.0, u=0.5, m=1, a1=0.5, a2=0.5 + 1e-10, col=2))
def test_estimators_match_mask_and_sort_reference(case):
    data, fi, x, u = case["data"], case["free_index"], case["x_fixed"], case["u"]
    cfg = EstimatorConfig(case["m"], LevelRange(case["a1"], case["a2"]))
    s = SampleMatrix(data)  # one sample serves every query, so its index is reused
    pairs = [
        (_outcome(marginal_quantile, s, case["col"], u),
         _outcome(orc.bf_marginal_quantile, data, case["col"], u)),
        (_outcome(emp_lower_var, s, u, x, fi), _outcome(orc.bf_lower_var, data, u, x, fi)),
        (_outcome(emp_upper_var, s, u, x, fi), _outcome(orc.bf_upper_var, data, u, x, fi)),
        (_outcome(emp_lower_rvar, s, cfg, x, fi),
         _outcome(orc.bf_lower_rvar, data, cfg.m, cfg.levels.alpha1, cfg.levels.alpha2, x, fi)),
        (_outcome(emp_upper_rvar, s, cfg, x, fi),
         _outcome(orc.bf_upper_rvar, data, cfg.m, cfg.levels.alpha1, cfg.levels.alpha2, x, fi)),
    ]
    for got, want in pairs:
        assert type(got) is type(want) and got == want


@st.composite
def _curve_cases(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):  # integer-rounded data: heavy ties, also at the grid points
        elements = st.integers(-3, 3).map(float)
    else:
        elements = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    data = np.array(draw(st.lists(st.lists(elements, min_size=d, max_size=d),
                                  min_size=n, max_size=n)))
    # data values test the weak (lower) and strict (upper) edges; repeats and
    # any order test the grid's ranking
    point = st.one_of(st.sampled_from(data.ravel().tolist()), st.floats(-5.0, 5.0),
                      st.sampled_from([-math.inf, math.inf]))
    grid = draw(st.lists(point, min_size=1, max_size=12))
    grid = draw(st.permutations(grid + draw(st.lists(st.sampled_from(grid), max_size=4))))
    level = st.one_of(st.integers(1, n).map(lambda i: i / n), st.floats(0.0, 1.0))
    a1, a2 = sorted((draw(level), draw(level)))
    if a1 == a2:
        a2 = 1.0 if a1 < 1.0 else a2
        a1 = 0.0 if a1 == a2 else a1
    # small chunks split the rows and the grid ranks into many blocks
    return dict(data=data, grid=np.array(grid), free_index=draw(st.integers(1, d)),
                m=draw(st.integers(1, 30)), a1=a1, a2=a2,
                chunk=draw(st.sampled_from([1, 3, 16, 1 << 14])))


@settings(max_examples=200, deadline=None)
@given(_curve_cases())
def test_curves_match_per_point_estimates(case):
    data, grid, fi = case["data"], case["grid"], case["free_index"]
    m, a1, a2 = case["m"], case["a1"], case["a2"]
    cfg = EstimatorConfig(m, LevelRange(a1, a2))
    s = SampleMatrix(data)
    for curve_of, at_point, oracle in ((emp_lower_rvar_curve, emp_lower_rvar, orc.bf_lower_rvar),
                                       (emp_upper_rvar_curve, emp_upper_rvar, orc.bf_upper_rvar)):
        with mock.patch.object(empirical, "_CHUNK_CELLS", case["chunk"]):
            curve = curve_of(s, cfg, grid, fi)
        np.testing.assert_array_equal(curve.grid, grid)
        assert curve.values.shape == grid.shape and len(curve.errors) == grid.size
        for x, value, err in zip(grid, curve.values, curve.errors):
            got = float(value) if err is None else type(err)
            assert err is None or (isinstance(err, DomainError) and math.isnan(value))
            for want in (_outcome(at_point, s, cfg, float(x), fi),
                         _outcome(oracle, data, m, a1, a2, float(x), fi)):
                assert type(got) is type(want) and got == want


def test_curve_grid_validation():
    cfg = EstimatorConfig(2, LevelRange(0.25, 0.75))
    for bad in (np.array([1.0, np.nan]), np.array([[1.0, 2.0]]), 3.0):
        with pytest.raises(DomainError):
            emp_lower_rvar_curve(DIAG, cfg, bad)
    with pytest.raises(DomainError):
        emp_upper_rvar_curve(DIAG, cfg, [1.0], free_index=3)
    empty = emp_upper_rvar_curve(DIAG, cfg, [])
    assert isinstance(empty, EmpiricalCurve)
    assert empty.values.shape == (0,) and empty.errors == ()


def test_curve_allocates_less_than_the_sample():
    # a curve holds a bucket per row and bounded blocks of ladders and
    # qualifying ranks; the rank index is built first, as any query does
    gev = GEV(0.0, 1.0, 0.2)
    b = BivariateModel(gev, gev, Gumbel(1.5))
    s = sample(b, 200_000, seed=12)
    marginal_quantile(s, 2, 0.5)
    cfg = EstimatorConfig(250, LevelRange(0.9, 0.99))
    lower = np.linspace(lower_var(b, 0.9, gev.quantile(0.99), fixed_index=2),
                        gev.quantile(0.9995), 50)
    upper = np.linspace(gev.quantile(0.02), upper_var(b, 0.99, gev.quantile(0.9), fixed_index=2), 50)
    for curve_of, grid in ((emp_lower_rvar_curve, lower), (emp_upper_rvar_curve, upper)):
        tracemalloc.start()
        try:
            curve = curve_of(s, cfg, grid, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(curve.values).mean() > 0.8
        assert peak <= s.data.nbytes


def test_lower_curve_indexes_only_the_top_of_the_free_column():
    # the lower ladder reads ranks from ceil(n alpha1) - 1 up, so the free
    # column is partitioned there and only the rows above are sorted
    gev = GEV(0.0, 1.0, 0.2)
    b = BivariateModel(gev, gev, Gumbel(1.5))
    n = 200_000
    s = sample(b, n, seed=12)
    cfg = EstimatorConfig(250, LevelRange(0.9, 0.99))
    grid = np.linspace(lower_var(b, 0.9, gev.quantile(0.99), fixed_index=2),
                       gev.quantile(0.9995), 50)
    curve = emp_lower_rvar_curve(s, cfg, grid, 2)
    assert list(s._ranked) == [1]  # the pinned column is never ranked
    r0, vals, order = s._ranked[1]
    assert r0 == math.ceil(0.9 * n) - 1
    assert vals.size == order.size <= n - math.ceil(0.9 * n) + 1
    # the same bits as on a copy whose index is a full sort
    full = SampleMatrix(s.data)
    marginal_quantile(full, 2, 1e-9)
    assert full._ranked[1][0] == 0 and full._ranked[1][1].size == n
    np.testing.assert_array_equal(emp_lower_rvar_curve(full, cfg, grid, 2).values, curve.values)


@st.composite
def _descending_queries(draw):
    n = draw(st.integers(2, 40))
    data = np.array(draw(st.lists(st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=2),
                                  min_size=n, max_size=n)))  # heavy ties
    level = st.one_of(st.integers(1, n).map(lambda i: i / n), st.floats(0.0, 1.0))
    levels = sorted(draw(st.lists(level, min_size=1, max_size=5)), reverse=True)
    x = draw(st.sampled_from(data.ravel().tolist()))
    grid = np.array(draw(st.lists(st.sampled_from(data.ravel().tolist()), min_size=1, max_size=6)))
    return dict(data=data, levels=levels, x=x, grid=grid,
                free_index=draw(st.integers(1, 2)), m=draw(st.integers(1, 10)))


def _queries(s, p, case):
    """Every estimator that reads the free column at ranks from p's up."""
    x, fi = case["x"], case["free_index"]
    out = [_outcome(marginal_quantile, s, fi, p), _outcome(emp_lower_var, s, p, x, fi),
           _outcome(emp_upper_var, s, p, x, fi)]
    if p < 1.0:
        cfg = EstimatorConfig(case["m"], LevelRange(p, 1.0))
        out += [_outcome(emp_lower_rvar, s, cfg, x, fi), _outcome(emp_upper_rvar, s, cfg, x, fi)]
        for curve_of in (emp_lower_rvar_curve, emp_upper_rvar_curve):
            curve = curve_of(s, cfg, case["grid"], fi)
            out.append((curve.values.tobytes(), tuple(map(type, curve.errors))))
    return out


@settings(max_examples=150, deadline=None)
@given(_descending_queries())
def test_downward_rebuild_matches_a_fresh_index(case):
    # high ranks first, then lower ones: the shared sample rebuilds its
    # partial index downward, and tied rows may then hold other ranks than
    # in a fresh sample's index, but every estimate keeps its bits
    data, fc = case["data"], case["free_index"] - 1
    s = SampleMatrix(data)
    r0 = s.n
    for p in case["levels"]:
        got = _queries(s, p, case)
        assert got == _queries(SampleMatrix(data), p, case)
        if fc in s._ranked:
            assert s._ranked[fc][0] <= r0  # never replaced by one that starts higher
            r0, vals, order = s._ranked[fc]
            np.testing.assert_array_equal(vals, np.sort(data[:, fc])[r0:])
            np.testing.assert_array_equal(data[order, fc], vals)


def test_descending_queries_sort_a_column_at_most_twice():
    # each emp_upper_var reads a lower rank than the last as x_fixed rises:
    # the first query partitions, the first miss below it sorts in full, and
    # every later query reuses that index
    s = sample(BivariateModel(Exponential(1.0), Exponential(1.0), Independence()), 20_000, seed=3)
    built = []
    for x in np.linspace(0.0, 2.5, 30):  # k > n (1 - v) rows lie above each x
        emp_upper_var(s, 0.95, x, 2)
        if not built or s._ranked[1] is not built[-1]:
            built.append(s._ranked[1])
    assert [index[0] for index in built] == [built[0][0], 0]
    assert built[0][0] > 0


@pytest.mark.parametrize("cop", [Independence(), Gumbel(1.5)])
def test_consistency_experiment_at_large_n_matches_a_full_sort(cop):
    # n = 2e5 passes the sampler, the partial rank index and the curve; every
    # replicate's report keeps the bits of one whose index is a full sort
    gev = GEV(0.0, 1.0, 0.2)
    kw = dict(b=BivariateModel(gev, gev, cop), reps=2, n=200_000,
              cfg=EstimatorConfig(100, LevelRange(0.9, 0.99)), grid=np.linspace(3.0, 12.0, 6), seed=5)
    rank_index = SampleMatrix._rank_index
    with mock.patch.object(SampleMatrix, "_rank_index",
                           lambda self, col, rank: rank_index(self, col, 0)):
        full = consistency_experiment(**kw)
    rep = consistency_experiment(**kw)
    assert np.isfinite(rep.mean_dev).sum() >= 5  # Pi has no band at x = 3
    for name in ("theoretical", "mean_dev", "sd_dev", "mean_abs_dev", "failures"):
        assert np.array_equal(getattr(rep, name), getattr(full, name), equal_nan=True)
