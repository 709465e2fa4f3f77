"""Small fitting and summary utilities shared across experiment modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    slope_se: float


def line_fit(x, y) -> LineFit:
    """Ordinary least squares y = a + b x with the slope's standard error.

    Closed form from centred sums, so no LAPACK call. With constant x the
    slope is 0, the intercept mean(y) and the slope's error infinite.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.size < 2:
        raise ValueError("need at least two points to fit a line")
    xm, ym = x.mean(), y.mean()
    dx, dy = x - xm, y - ym
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx if sxx > 0 else 0.0
    ss_res = float(np.sum((dy - slope * dx) ** 2))
    dof = max(x.size - 2, 1)
    se = math.sqrt(ss_res / dof / sxx) if sxx > 0 else math.inf
    return LineFit(slope, float(ym - slope * xm), se)


def log_decay_fit(t, series, floor: float = 0.0) -> LineFit:
    """Fit log(series) = a + b t on the samples exceeding ``floor``."""
    t = np.asarray(t, float)
    s = np.asarray(series, float)
    mask = s > floor
    if mask.sum() < 3:
        raise ValueError("fewer than 3 samples above the floor")
    return line_fit(t[mask], np.log(s[mask]))


def generator(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """The counter-based stream ``key`` of ``seed``: Philox keyed by
    ``SeedSequence(entropy=seed, spawn_key=key)``.

    Every ensemble draws its paths from these streams, so a path depends on
    (seed, key) alone and no two keys share numbers.
    """
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=key)))


def mean_se(samples, axis=0) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and its standard error along ``axis``."""
    samples = np.asarray(samples, float)
    n = samples.shape[axis]
    m = samples.mean(axis=axis)
    se = samples.std(axis=axis, ddof=1) / math.sqrt(n) if n > 1 else np.full_like(m, np.inf)
    return m, se


def running_trapezoid(t, values) -> np.ndarray:
    """Trapezoid integrals of ``values`` over ``t`` from ``t[0]`` to each point,
    along the last axis: 0 first, then one step's trapezoid added at a time."""
    values = np.asarray(values, float)
    out = np.zeros(values.shape)
    np.cumsum(0.5 * np.diff(t) * (values[..., 1:] + values[..., :-1]), axis=-1, out=out[..., 1:])
    return out


def jackknife_log_mean(values) -> tuple[float, float]:
    """log(mean(values)) with a delete-one jackknife standard error.

    A single value has no leave-one-out estimate; its error is infinite.
    """
    v = np.asarray(values, float)
    n = v.size
    if n == 1:
        return math.log(v.item()), math.inf
    total = v.sum()
    est = math.log(total / n)
    loo = np.log((total - v) / (n - 1))
    se = math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
    return est, se


def median(values) -> float:
    """Median of a sample, equal to ``np.median`` bit for bit; NaN if any value is.

    ``np.median`` imports ``numpy.ma`` on its first call, for its NaN check.
    """
    s = np.sort(np.asarray(values, float), axis=None)
    if s.size and np.isnan(s[-1]):
        return float(s[-1])
    mid = s[(s.size - 1) // 2:s.size // 2 + 1]
    return float(mid.sum() / mid.size)  # the sum and division of np.mean


def tail_dominated(values) -> bool:
    """True when one summand carries more than a tenth of the total."""
    v = np.asarray(values, float)
    total = v.sum()
    return bool(total > 0 and v.max() > 0.1 * total)


def record_steps(n_steps: int, stride: int) -> dict[int, int]:
    """Record grid of a run: every ``stride``-th step and the last, mapped to its row."""
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return {s: i for i, s in enumerate(steps)}
