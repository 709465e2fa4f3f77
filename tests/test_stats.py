import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavemix import stats


def test_jackknife_log_mean_single_value():
    est, se = stats.jackknife_log_mean(np.array([2.5]))
    assert est == math.log(2.5)
    assert se == math.inf


def test_jackknife_log_mean_matches_log_of_mean():
    v = np.array([1.0, 2.0, 4.0, 8.0])
    est, se = stats.jackknife_log_mean(v)
    assert est == pytest.approx(math.log(v.mean()))
    assert 0 < se < math.inf


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_line_fit_matches_polyfit(n):
    rng = np.random.default_rng(n)
    x = rng.uniform(-3.0, 10.0, n)
    y = 1.5 - 0.7 * x + rng.standard_normal(n)
    fit = stats.line_fit(x, y)
    slope, intercept = np.polyfit(x, y, 1)
    res = y - (intercept + slope * x)
    ss_res = float(res @ res)
    # the textbook standard error, with one degree of freedom kept at n = 2
    se = math.sqrt(ss_res / max(n - 2, 1) / float(np.sum((x - x.mean()) ** 2)))
    got = (fit.slope, fit.intercept, fit.slope_se)
    for g, w in zip(got, (slope, intercept, se)):
        assert g == pytest.approx(w, rel=1e-12, abs=1e-12)


def test_line_fit_constant_x():
    fit = stats.line_fit([2.0, 2.0, 2.0], [1.0, 4.0, 2.5])
    assert (fit.slope, fit.intercept, fit.slope_se) == (0.0, 2.5, math.inf)


def test_record_steps_keeps_stride_and_last_step():
    assert stats.record_steps(8, 4) == {0: 0, 4: 1, 8: 2}
    assert stats.record_steps(10, 4) == {0: 0, 4: 1, 8: 2, 10: 3}
    assert stats.record_steps(3, 1) == {0: 0, 1: 1, 2: 2, 3: 3}
    assert stats.record_steps(1, 5) == {0: 0, 1: 1}


_values = st.one_of(st.floats(allow_nan=False, width=64), st.just(math.nan),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_values, min_size=1, max_size=200))
def test_median_matches_numpy_bitwise(values):
    a = np.array(values)
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.float64(np.median(a))
    got = stats.median(a)
    assert isinstance(got, float)
    assert np.float64(got).view(np.uint64) == want.view(np.uint64)


def test_median_leaves_its_input_unsorted():
    a = np.array([3.0, 1.0, 2.0, 0.0])
    assert stats.median(a) == 1.5
    assert a.tolist() == [3.0, 1.0, 2.0, 0.0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), paths=st.integers(1, 3), dt=st.sampled_from([2.0 ** -5, 0.1]))
def test_running_trapezoid_matches_trapezoid_prefixes(n, paths, dt):
    # entry i is np.trapezoid over the first i + 1 samples, along the last
    # axis and path by path; stepping by an exact dt it is the step-by-step
    # sum 0.5 * dt * (prev + cur), bit for bit
    t = np.arange(n) * dt
    values = np.cos(3.0 * t) + np.arange(paths)[:, None]
    out = stats.running_trapezoid(t, values)
    assert out.shape == values.shape and np.all(out[:, 0] == 0.0)
    for i in range(1, n):
        np.testing.assert_allclose(out[:, i], np.trapezoid(values[:, :i + 1], t[:i + 1]),
                                   rtol=1e-12, atol=1e-14)
    if dt == 2.0 ** -5:
        acc = np.zeros(paths)
        for i in range(1, n):
            acc += 0.5 * dt * (values[:, i - 1] + values[:, i])
            assert np.array_equal(out[:, i], acc)
