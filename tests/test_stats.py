import math

import numpy as np
import pytest

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


def test_record_steps_keeps_stride_and_last_step():
    assert stats.record_steps(8, 4) == {0: 0, 4: 1, 8: 2}
    assert stats.record_steps(10, 4) == {0: 0, 4: 1, 8: 2, 10: 3}
    assert stats.record_steps(3, 1) == {0: 0, 1: 1, 2: 2, 3: 3}
    assert stats.record_steps(1, 5) == {0: 0, 1: 1}
