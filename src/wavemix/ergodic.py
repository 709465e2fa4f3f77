"""Ergodic limit theorems, Feynman-Kac pressures and level-1 large deviations.

The limit theorems judge time averages integral / t, where the integral is a
trapezoid along each path: over every step for a toy (``simulate_toy``'s
integrand), over the recorded probes for the wave
(``stats.running_trapezoid``; stride 1 records every step).

The Feynman-Kac pressure Q(V) = lim (1/t) log E exp(int_0^t V) is estimated by
Monte Carlo on simulators and computed exactly on finite-state chains, where
the tilted generator G + diag(V) yields the principal eigentriple directly.
Legendre transforms of pressure curves produce rate-function samples for the
local level-1 large deviation checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from wavemix import stats
from wavemix.nlw import _expm


# --------------------------------------------------------------------------
# Ergodic limit theorems on running averages


@dataclass
class SllnReport:
    horizons: np.ndarray
    exponent: float
    passed: bool


def slln_check(t: np.ndarray, averages: np.ndarray, reference_mean: float) -> SllnReport:
    """Decay exponent of |time-average - reference| on dyadic horizons.

    ``averages`` may be a single running-average series or an ensemble of them
    (first axis = trajectory); the ensemble RMS residual is fitted, and the
    check passes when its exponent is at most -0.4.
    """
    avg = np.atleast_2d(np.asarray(averages, float))
    resid = np.sqrt(np.mean((avg - reference_mean) ** 2, axis=0))
    T = t[-1]
    horizons = T / 2.0 ** np.arange(4, -1, -1)
    idx = np.searchsorted(t, horizons)
    idx = np.clip(idx, 1, t.size - 1)
    r = resid[idx]
    if np.all(r == 0):
        return SllnReport(horizons, -math.inf, True)
    fit = stats.line_fit(np.log(horizons), np.log(np.maximum(r, 1e-300)))
    return SllnReport(horizons, fit.slope, fit.slope <= -0.4)


@dataclass
class CltReport:
    sigma: float
    ks_pvalue: float
    passed: bool


def clt_check(horizon: float, integrals: np.ndarray, centering: float) -> CltReport:
    """Normality of t^{-1/2} (int_0^t psi ds - t*centering) across an ensemble:
    the check passes when the Kolmogorov-Smirnov p-value exceeds 0.01."""
    s = (np.asarray(integrals, float) - horizon * centering) / math.sqrt(horizon)
    sigma = float(s.std(ddof=1))
    if sigma == 0:
        return CltReport(0.0, 1.0, True)
    from scipy.stats import kstest
    res = kstest(s, "norm", args=(0.0, sigma))
    return CltReport(sigma, float(res.pvalue), res.pvalue > 0.01)


# --------------------------------------------------------------------------
# Feynman-Kac pressure: Monte Carlo estimates


@dataclass
class PressureEstimate:
    value: float
    stderr: float
    horizon: float
    tail_warning: bool


def feynman_kac_estimate(integrals: np.ndarray, horizon: float,
                         antithetic_integrals: np.ndarray | None = None) -> PressureEstimate:
    """(1/t) log of the empirical mean of exp(int V), with jackknife error.

    ``integrals`` holds int_0^t V along each path.  When the law of the integral has an exact symmetry (for instance an odd
    potential on dynamics started at a symmetric point), the mirrored values
    may be passed as ``antithetic_integrals``; each path then contributes the
    average of the paired weights, which tames the exponential tails.
    """
    w = np.exp(np.asarray(integrals, float))
    if antithetic_integrals is not None:
        w = 0.5 * (w + np.exp(np.asarray(antithetic_integrals, float)))
    est, se = stats.jackknife_log_mean(w)
    return PressureEstimate(est / horizon, se / horizon, horizon, stats.tail_dominated(w))


def richardson_pressure(est_t: PressureEstimate, est_2t: PressureEstimate) -> PressureEstimate:
    """Cancel the O(1/t) transient of the pressure by dyadic extrapolation.

    The estimates must come from independent runs at horizons t and 2t; the
    combination 2 Q(2t) - Q(t) kills the leading finite-horizon offset and
    carries the propagated jackknife error.
    """
    if abs(est_2t.horizon - 2 * est_t.horizon) > 1e-9 * est_t.horizon:
        raise ValueError("extrapolation requires horizons t and 2t")
    value = 2.0 * est_2t.value - est_t.value
    se = math.sqrt(4.0 * est_2t.stderr ** 2 + est_t.stderr ** 2)
    return PressureEstimate(value, se, est_2t.horizon,
                            est_t.tail_warning or est_2t.tail_warning)


@dataclass
class PressureCurve:
    """Q(beta) samples of the tilt beta*psi with psi centered at its mean.

    The centering makes Q(0) = 0 exact; ``center`` records the subtracted
    stationary mean so rate samples can be reported in original coordinates.
    """

    betas: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    center: float

    def convexity_violations(self) -> int:
        q = self.values
        viol = 0
        for i in range(1, q.size - 1):
            mid = 0.5 * (q[i - 1] + q[i + 1])
            tol = 2.0 * math.sqrt(self.stderr[i - 1] ** 2 + 4 * self.stderr[i] ** 2
                                  + self.stderr[i + 1] ** 2)
            if q[i] > mid + tol:
                viol += 1
        return viol


def pressure_curve(betas: Sequence[float], estimator: Callable[[float], PressureEstimate],
                   center: float) -> PressureCurve:
    """Assemble a pressure curve from per-beta Monte Carlo estimates.

    ``estimator`` receives the tilt beta and returns a PressureEstimate for
    the centered observable; beta = 0 is pinned to zero by construction.
    """
    betas = np.asarray(sorted(betas), float)
    vals = np.zeros(betas.size)
    errs = np.zeros(betas.size)
    for i, b in enumerate(betas):
        if b == 0.0:
            continue
        e = estimator(float(b))
        vals[i], errs[i] = e.value, e.stderr
    return PressureCurve(betas, vals, errs, center)


# --------------------------------------------------------------------------
# Finite-state chains: exact eigentriples and Gillespie sampling


class FiniteChain:
    """Continuous-time irreducible Markov chain with a potential on states."""

    def __init__(self, generator, potential):
        G = np.asarray(generator, float)
        V = np.asarray(potential, float)
        n = G.shape[0]
        if G.shape != (n, n) or V.shape != (n,):
            raise ValueError("generator must be square and match the potential")
        off = G.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            raise ValueError("off-diagonal rates must be nonnegative")
        if np.max(np.abs(G.sum(axis=1))) > 1e-12:
            raise ValueError("generator rows must sum to zero")
        self.G = G
        self.V = V
        self.n = n

    def is_irreducible(self) -> bool:
        """Breadth-first searches from state 0 along the generator's support
        and against it: strongly connected when both reach every state."""
        support = self.G > 0
        for adj in (support, support.T):
            seen = frontier = np.arange(self.n) == 0
            while frontier.any():
                frontier = adj[frontier].any(axis=0) & ~seen
                seen = seen | frontier
            if not seen.all():
                return False
        return True

    def stationary(self) -> np.ndarray:
        w, vl = np.linalg.eig(self.G.T)
        k = int(np.argmin(np.abs(w)))
        pi = np.real(vl[:, k])
        pi = np.abs(pi)
        return pi / pi.sum()

    def sample_occupation(self, horizon: float, n_paths: int, seed: int,
                          stream: tuple[int, ...] = ()) -> np.ndarray:
        """int_0^T V(x_s) ds per Gillespie path from state 0 (holding times are
        exact).

        The paths draw from ``stats.generator(seed, stream)``.
        """
        rng = stats.generator(seed, stream)
        rates = -np.diag(self.G)
        jump_p = self.G.copy()
        np.fill_diagonal(jump_p, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            jump_p = jump_p / rates[:, None]
        out = np.empty(n_paths)
        for i in range(n_paths):
            t_now = 0.0
            x = 0
            acc = 0.0
            while True:
                if rates[x] <= 0:
                    acc += (horizon - t_now) * self.V[x]
                    break
                hold = rng.exponential(1.0 / rates[x])
                if t_now + hold >= horizon:
                    acc += (horizon - t_now) * self.V[x]
                    break
                acc += hold * self.V[x]
                t_now += hold
                x = rng.choice(self.n, p=jump_p[x])
            out[i] = acc
        return out


def two_state_chain(rate_up: float = 1.0, rate_down: float = 1.0,
                    v: tuple[float, float] = (1.0, 0.0)) -> FiniteChain:
    G = np.array([[-rate_up, rate_up], [rate_down, -rate_down]])
    return FiniteChain(G, np.asarray(v, float))


@dataclass
class EigenTriple:
    """Principal eigentriple of the tilted generator G + diag(V).

    ``log_lam`` is the top eigenvalue, the log of the per-unit-time growth;
    ``h`` and ``mu`` satisfy <h, mu> = 1 with mu a probability vector.
    """

    log_lam: float
    h: np.ndarray
    mu: np.ndarray
    residual_h: float
    residual_mu: float
    convergence: dict[float, float]


def fk_eigen_exact(chain: FiniteChain, check_times: Sequence[float] = (1, 2, 4, 8)) -> EigenTriple:
    """Exact eigentriple of the tilted semigroup plus a convergence probe.

    The convergence entries record lam^-t ||P_t^V psi - <psi, mu> h||_inf for
    psi = 1, which must decay to zero along ``check_times``.
    """
    if not chain.is_irreducible():
        raise ValueError("chain is reducible; the eigentriple is not unique")
    T = chain.G + np.diag(chain.V)
    w, vr = np.linalg.eig(T)
    k = int(np.argmax(w.real))
    log_lam = float(w[k].real)
    h = np.real(vr[:, k])
    h = h * np.sign(h[np.argmax(np.abs(h))])
    if np.any(h <= 0):
        raise ValueError("principal right eigenvector is not positive")
    wl, vl = np.linalg.eig(T.T)
    kl = int(np.argmax(wl.real))
    mu = np.real(vl[:, kl])
    mu = mu * np.sign(mu[np.argmax(np.abs(mu))])
    mu = mu / mu.sum()
    h = h / float(h @ mu)
    res_h = float(np.max(np.abs(T @ h - log_lam * h)))
    res_mu = float(np.max(np.abs(T.T @ mu - log_lam * mu)))
    conv = {}
    ones = np.ones(chain.n)
    for t in check_times:
        P_t = _expm((T * float(t))[None])[0]
        conv[float(t)] = float(np.max(np.abs(
            math.exp(-log_lam * t) * (P_t @ ones) - float(ones @ mu) * h)))
    return EigenTriple(log_lam, h, mu, res_h, res_mu, conv)


def chain_pressure_curve(chain: FiniteChain, betas: Sequence[float]) -> PressureCurve:
    """Exact pressure of the tilt beta*V with V centered at its stationary mean."""
    pi = chain.stationary()
    center = float(pi @ chain.V)
    betas = np.asarray(sorted(betas), float)
    vals = []
    for b in betas:
        tilted = FiniteChain(chain.G, b * (chain.V - center))
        vals.append(fk_eigen_exact(tilted, check_times=()).log_lam)
    return PressureCurve(betas, np.asarray(vals), np.zeros(betas.size), center)


# --------------------------------------------------------------------------
# Legendre transforms


@dataclass
class RateSamples:
    p: np.ndarray
    values: np.ndarray

    def at(self, p: float) -> float:
        return float(np.interp(p, self.p, self.values))

    def infimum(self, lo: float, hi: float) -> float:
        if lo > self.p[-1] or hi < self.p[0]:
            return math.inf
        mask = (self.p >= lo) & (self.p <= hi)
        inner = float(np.min(self.values[mask])) if mask.any() else math.inf
        edges = [self.at(x) for x in (lo, hi) if self.p[0] <= x <= self.p[-1]]
        return min([inner] + edges)


def _lower_convex_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Largest convex minorant of the points, evaluated back on the grid."""
    hull = [0]
    for i in range(1, x.size):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = ((x[i1] - x[i0]) * (y[i] - y[i0])
                     - (y[i1] - y[i0]) * (x[i] - x[i0]))
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return np.interp(x, x[hull], y[hull])


def legendre(curve: PressureCurve, p_grid: np.ndarray | None = None,
             shift_to_original: bool = True) -> RateSamples:
    """Discrete Legendre transform I(p) = sup_beta (beta p - Q(beta)).

    The curve is convexified first.  A supremum attained at a boundary beta
    is reported as the +inf sentinel, since the true conjugate may be
    unbounded there.
    """
    q = _lower_convex_hull(curve.betas, curve.values)
    slopes = np.gradient(q, curve.betas)
    if p_grid is None:
        p_grid = np.linspace(slopes.min(), slopes.max(), 401)
    vals = np.empty(p_grid.size)
    for i, p in enumerate(p_grid):
        obj = curve.betas * p - q
        k = int(np.argmax(obj))
        vals[i] = obj[k] if 0 < k < curve.betas.size - 1 else math.inf
        if curve.betas.size >= 2 and k in (0, curve.betas.size - 1):
            # boundary attainment is legitimate when the slope matches there
            edge_slope = ((q[1] - q[0]) / (curve.betas[1] - curve.betas[0]) if k == 0
                          else (q[-1] - q[-2]) / (curve.betas[-1] - curve.betas[-2]))
            if (k == 0 and p >= edge_slope) or (k == curve.betas.size - 1 and p <= edge_slope):
                vals[i] = obj[k]
    p_out = p_grid + (curve.center if shift_to_original else 0.0)
    return RateSamples(p_out, vals)


# --------------------------------------------------------------------------
# Level-1 LDP check


# The level-1 check's verdict: inconclusive when a horizon has fewer than
# LDP1_MIN_HITS hits, and passed when the rate's relative error is at most
# LDP1_TOL.  The error is relative to max(|target|, 0.05 / LDP1_TOL), so near a
# zero target 0.05 absorbs the extrapolation noise.
LDP1_MIN_HITS = 50
LDP1_TOL = 0.2


@dataclass
class Ldp1Report:
    horizons: np.ndarray
    log_probs: np.ndarray
    hits: np.ndarray
    empirical: float
    target: float
    rel_error: float
    inconclusive: bool
    passed: bool


def ldp_level1_check(horizons: Sequence[float], averages_by_horizon: Sequence[np.ndarray],
                     interval: tuple[float, float], rate: RateSamples) -> Ldp1Report:
    """Empirical decay rate of P{time-average in O} against -inf_O I.

    The per-horizon (1/t) log P estimates are extrapolated linearly in 1/t;
    horizons with fewer than ``LDP1_MIN_HITS`` hits make the verdict
    inconclusive.
    """
    lo, hi = interval
    horizons = np.asarray(horizons, float)
    logp = np.empty(horizons.size)
    hits = np.empty(horizons.size, int)
    for i, avg in enumerate(averages_by_horizon):
        a = np.asarray(avg, float)
        h = int(np.sum((a >= lo) & (a <= hi)))
        hits[i] = h
        logp[i] = math.log(h / a.size) if h else -math.inf
    target = -rate.infimum(lo, hi)
    if np.any(hits < LDP1_MIN_HITS):
        return Ldp1Report(horizons, logp, hits, math.nan, target, math.nan, True, False)
    y = logp / horizons
    fit = stats.line_fit(1.0 / horizons, y)
    emp = fit.intercept
    denom = max(abs(target), 0.05 / LDP1_TOL)
    rel = abs(emp - target) / denom
    return Ldp1Report(horizons, logp, hits, emp, target, rel, False, rel <= LDP1_TOL)
