"""Empirical orthant estimators on hand-checkable samples."""

import math

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
    EmptyConditioningError,
    EstimatorConfig,
    Exponential,
    Independence,
    InfeasibleLevelError,
    LevelRange,
    SampleMatrix,
    closed_lower_rvar_gev_indep,
    consistency_experiment,
    ecdf,
    emp_lower_rvar,
    emp_lower_var,
    emp_upper_rvar,
    emp_upper_var,
    esurv,
    marginal_quantile,
    sample,
)

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
    pin = st.one_of(st.sampled_from(data.ravel().tolist()), st.floats(-5.0, 5.0))
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
