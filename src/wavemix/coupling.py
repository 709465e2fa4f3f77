"""Intermediate-process coupling, Girsanov likelihood ratios, and mixing rates.

The coupled object simulates two flows on one noise realization: the drive u
from z and the intermediate v from z', whose equation carries the low-mode
feedback P_N[f(u) - f(v)].  Feeding the feedback through the exact linear
half-step expresses v as the plain flow from z' driven by a shifted noise, so
the likelihood ratio between law(v) and the law of the plain flow u' from z'
is an exact finite-dimensional Gaussian density ratio; u' itself is never
simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from wavemix import stats
from wavemix.nlw import (
    NoiseModel,
    Nonlinearity,
    SimConfig,
    _inv2x2,
    _path_blocks,
    _strang_drive,
    apply_modewise,  # noqa: F401  (re-exported; perfbench checks this binding)
    linear_ops,
    trajectory_streams,
)
from wavemix.observables import default_observables
from wavemix.spectral import PhaseState, phase_norm, phase_norm_sq_arr


@dataclass
class CoupledRun:
    """Coupled pairs (u, v) from (z, z'), one per path, on their own noise streams.

    ``diff_vu`` is |xi_v - xi_u|_H and ``lowmode_sq`` is |P_N(xi_v - xi_u)|_H^2
    at the record times ``t``.  The rest describe the measure change taking
    law(v) to law(u'), u' the plain flow from z'.  ``novikov_energy`` is the
    running time-quadrature of |a|^2, with the noise-coordinate drift
    a_j = (f(u)-f(v), e_j) / (sqrt(eps) b_j) at step midpoints.  ``log_lr`` is
    the exact log-likelihood ratio between the shifted and plain discrete noise
    laws, and ``h_energy`` is the exact discrete energy of that measure change
    mapped to unweighted mode coordinates.  A velocity kick is represented
    through the convolution of the step that closes it, which costs a shape
    factor above the naive quadrature of |P_N(f(u)-f(v))|^2: about 8 for the
    half-step before a record step, 4 for a merged full step; the
    total-variation bound must therefore consume ``h_energy``, not the
    quadrature, to stay comparable with the likelihood-ratio estimate.

    Every series is (n_traj, n_rec); ``states`` is (n_traj, n_rec, 2, 2, M),
    u before v, when kept.
    """

    t: np.ndarray
    diff_vu: np.ndarray
    lowmode_sq: np.ndarray
    novikov_energy: np.ndarray
    h_energy: np.ndarray
    log_lr: np.ndarray
    states: np.ndarray | None


def _run_coupled(cfg: SimConfig, nl: Nonlinearity, noise: NoiseModel,
                 z: PhaseState, zprime: PhaseState, n_feedback: int, n_traj: int,
                 keep_states: bool, seed_offset: int = 0) -> CoupledRun:
    basis = cfg.basis
    m = basis.mode_count
    if not 0 <= n_feedback <= m:
        raise ValueError("feedback dimension must lie in [0, M]")
    b_eff = np.sqrt(cfg.eps) * noise.coeffs
    if np.any(b_eff[:n_feedback] == 0):
        raise ValueError("feedback modes must carry non-degenerate noise")
    ops = linear_ops(cfg, noise)
    h = cfg.h_coeffs()
    lam = basis.eigenvalues
    alpha = cfg.alpha
    dt = cfg.dt

    n_steps = cfg.n_steps
    rec = stats.record_steps(n_steps, cfg.stride)
    t_rec = np.array(list(rec)) * dt
    nr = len(rec)

    # the propagator and inverse noise covariance of each closing step, on the
    # feedback modes: the half-step on a record step, the full step otherwise
    closing = {True: (ops.P_half[:n_feedback], _inv2x2(ops.cov_half[:n_feedback])),
               False: (ops.P_full[:n_feedback], _inv2x2(ops.cov_full[:n_feedback]))}

    z0 = np.stack([z.as_array(), zprime.as_array()])  # u, v

    diff_vu = np.empty((n_traj, nr))
    lowmode = np.empty((n_traj, nr))
    nov_run = np.empty((n_traj, nr))
    hen_run = np.empty((n_traj, nr))
    llr_run = np.empty((n_traj, nr))
    states_out = np.empty((n_traj, nr, 2, 2, m)) if keep_states else None

    for lo, hi in _path_blocks(n_traj):
        nb = hi - lo
        states = np.broadcast_to(z0, (nb,) + z0.shape).copy()
        rngs = trajectory_streams(cfg.seed, nb, offset=seed_offset + lo)
        nov = np.zeros(nb)
        hen = np.zeros(nb)
        llr = np.zeros(nb)
        d_n = np.zeros((nb, n_feedback))  # this step's feedback P_N[f(u) - f(v)]

        def record(step, states):
            i = rec[step]
            dvu = states[:, 1] - states[:, 0]
            diff_vu[lo:hi, i] = np.sqrt(phase_norm_sq_arr(dvu, lam, alpha))
            low = dvu[:, :, :n_feedback]
            lowmode[lo:hi, i] = phase_norm_sq_arr(low, lam[:n_feedback], alpha)
            nov_run[lo:hi, i] = nov
            hen_run[lo:hi, i] = hen
            llr_run[lo:hi, i] = llr
            if states_out is not None:
                states_out[lo:hi, i] = states

        def kick(states):
            # -f + h for u; v adds -P_N[f(u) - f(v)]
            nonlocal d_n
            fcoef = basis.project(nl.f, states[:, :, 0, :])
            d_n = fcoef[:, 0, :n_feedback] - fcoef[:, 1, :n_feedback]
            acc = -fcoef + h
            acc[:, 1, :n_feedback] -= d_n
            return acc

        def girsanov(w, close):
            # the feedback kick shifts the convolution of the step that closes it
            nonlocal llr, nov, hen
            P, inv_cov = closing[close]
            mv = np.empty((nb, 2, n_feedback))
            mv[:, 0] = -dt * P[:, 0, 1] * d_n
            mv[:, 1] = -dt * P[:, 1, 1] * d_n
            wf = w[:, :, :n_feedback]
            quad_mm = np.einsum("naj,jab,nbj->nj", mv, inv_cov, mv)
            quad_mw = np.einsum("naj,jab,nbj->n", mv, inv_cov, wf)
            llr += -quad_mw - 0.5 * quad_mm.sum(axis=1)
            nov += dt * np.sum((d_n / b_eff[:n_feedback]) ** 2, axis=1)
            # exact discrete shift energy, mapped back to mode frame
            hen += quad_mm @ (b_eff[:n_feedback] ** 2)

        record(0, states)
        _strang_drive(states, ops, rngs, kick, n_steps, record,
                      girsanov if n_feedback else None, sync=rec, offset=lo)

    return CoupledRun(t_rec, diff_vu, lowmode, nov_run, hen_run, llr_run, states_out)


def couple_fp(cfg: SimConfig, nl: Nonlinearity, noise: NoiseModel, z: PhaseState,
              zprime: PhaseState, n_feedback: int) -> CoupledRun:
    """One coupled pair (u, v) on one shared noise realization, states kept."""
    return _run_coupled(cfg, nl, noise, z, zprime, n_feedback, 1, keep_states=True)


def couple_fp_batch(cfg: SimConfig, nl: Nonlinearity, noise: NoiseModel,
                    z: PhaseState, zprime: PhaseState, n_feedback: int,
                    n_traj: int = 100, seed_offset: int = 0) -> CoupledRun:
    """``n_traj`` coupled pairs, path i on stream ``seed_offset + i``."""
    return _run_coupled(cfg, nl, noise, z, zprime, n_feedback, n_traj,
                        keep_states=False, seed_offset=seed_offset)


# The contraction test's verdict: the low-mode ratio |P_N(xi_v - xi_u)|_H^2
# e^{alpha t} / |xi_v - xi_u|_H^2(0) may exceed 1 by at most LOWMODE_MARGIN_MAX,
# and N* is the first N whose fitted decay rate reaches RATE_FLOOR_PER_ALPHA * alpha.
LOWMODE_MARGIN_MAX = 1e-6
RATE_FLOOR_PER_ALPHA = 0.5


@dataclass
class ContractionReport:
    runs: dict[int, CoupledRun]     # one coupled pair per feedback dimension N
    rates: dict[int, float]
    lowmode_ok: bool
    lowmode_margin: float
    n_star: int | None


def fp_contraction_test(cfg: SimConfig, nl: Nonlinearity, noise: NoiseModel,
                        z: PhaseState, zprime: PhaseState,
                        n_grid: Sequence[int] = (2, 4, 8, 16)) -> ContractionReport:
    """Fitted decay rates of |xi_v - xi_u|_H^2 across feedback dimensions.

    Reports the exact low-mode contraction margin (pathwise, at the largest N)
    and the first N whose fitted full-norm decay rate reaches alpha/2.  A
    dimension repeated in ``n_grid`` runs once.
    """
    alpha = cfg.alpha
    floor = RATE_FLOOR_PER_ALPHA * alpha
    d0_sq = phase_norm(PhaseState.from_coeffs(
        cfg.basis, *(z.as_array() - zprime.as_array()), cfg.alpha)) ** 2
    runs = {n: couple_fp(cfg, nl, noise, z, zprime, n) for n in dict.fromkeys(n_grid)}
    rates: dict[int, float] = {}
    lowmode_margin = -math.inf
    for n, run in runs.items():
        if d0_sq == 0:
            rates[n] = math.inf
            lowmode_margin = max(lowmode_margin, 0.0)
            continue
        ratio = run.lowmode_sq[0] / d0_sq * np.exp(alpha * run.t)
        lowmode_margin = max(lowmode_margin, float(ratio.max() - 1.0))
        sq = run.diff_vu[0] ** 2
        tiny = sq > sq[0] * 1e-22
        if tiny.sum() >= 3:
            fit = stats.line_fit(run.t[tiny], np.log(sq[tiny]))
            rates[n] = -fit.slope
        else:
            rates[n] = math.inf
    n_star = next((n for n in runs if rates[n] >= floor), None)
    return ContractionReport(runs, rates, lowmode_margin <= LOWMODE_MARGIN_MAX,
                             lowmode_margin, n_star)


@dataclass
class TVBound:
    value: float
    tail_warning: bool


def tv_bound(run: CoupledRun, b: np.ndarray, n_feedback: int) -> TVBound:
    """Total-variation bound from the exponential moment of the drift energy.

    Evaluates 0.5 ((E exp[6 max_{j<=N} b_j^-1 int |a|^2 dt])^{1/2} - 1)^{1/2}
    over the paths' energies at the horizon, with |a|^2 the unweighted
    low-mode drift and the max over the effective noise coefficients, clipped
    to [0, 1].
    """
    if n_feedback < 1:
        return TVBound(0.0, False)
    bmax = float(np.max(1.0 / np.asarray(b[:n_feedback], float)))
    weights = np.exp(6.0 * bmax * run.h_energy[:, -1])
    moment = float(weights.mean())
    tail = stats.tail_dominated(weights)
    val = 0.5 * math.sqrt(max(math.sqrt(moment) - 1.0, 0.0))
    return TVBound(min(val, 1.0), tail)


@dataclass
class TVEstimate:
    value: float
    stderr: float
    ess: float
    degenerate: bool


def tv_estimate_likelihood(run: CoupledRun) -> TVEstimate:
    """TV between law(v) and law(u') as half the mean |1 - likelihood ratio|
    over the paths' ratios at the horizon."""
    lam = np.exp(run.log_lr[:, -1])
    vals = 0.5 * np.abs(1.0 - lam)
    est, se = stats.mean_se(vals)
    ess = float(lam.sum() ** 2 / np.sum(lam ** 2)) if np.any(lam > 0) else 0.0
    degenerate = ess < 0.1 * lam.size
    return TVEstimate(float(min(est, 1.0)), float(se), ess, degenerate)


@dataclass
class GirsanovTVExperiment:
    distances: np.ndarray
    tv_estimates: list[TVEstimate]
    bounds: list[TVBound]
    novikov_median: np.ndarray
    scaling_fit: stats.LineFit


def girsanov_tv_experiment(cfg: SimConfig, nl: Nonlinearity, noise: NoiseModel,
                           z: PhaseState, direction: np.ndarray,
                           distances: Sequence[float], n_feedback: int,
                           n_traj: int = 200) -> GirsanovTVExperiment:
    """TV estimate versus bound across a ladder of initial separations.

    ``direction`` is a unit-|.|_H phase-space direction (2, M); z' = z + d*dir.
    Distance k runs on streams ``k * n_traj + i``, so no two share a stream.
    """
    ests, bnds, med = [], [], []
    b_eff = np.sqrt(cfg.eps) * noise.coeffs
    for k, d in enumerate(distances):
        zp = PhaseState.from_coeffs(cfg.basis, *(z.as_array() + d * direction),
                                    cfg.alpha)
        run = couple_fp_batch(cfg, nl, noise, z, zp, n_feedback,
                              n_traj=n_traj, seed_offset=k * n_traj)
        ests.append(tv_estimate_likelihood(run))
        bnds.append(tv_bound(run, b_eff, n_feedback))
        med.append(stats.median(run.novikov_energy[:, -1]))
    med = np.array(med)
    fit = stats.line_fit(np.log(np.asarray(distances, float)), np.log(med))
    return GirsanovTVExperiment(np.asarray(distances, float), ests, bnds, med, fit)


# --------------------------------------------------------------------------
# Exact maximal coupling of finite distributions


class MaximalCoupling:
    """Joint sampler of (X, Y) with exact marginals p, q and P(X != Y) = TV(p, q).

    On the overlap (probability 1 - TV) the pair agrees; otherwise X and Y are
    drawn independently from the normalized residuals, whose supports are
    disjoint, so disagreement is certain there.  Randomness comes only from
    ``sample``'s rng.
    """

    def __init__(self, p, q):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        if p.shape != q.shape or p.ndim != 1:
            raise ValueError("p and q must be equal-length vectors")
        for name, v in (("p", p), ("q", q)):
            if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} is not a probability vector")
        self.p = p
        self.q = q
        overlap = np.minimum(p, q)
        self.tv = float(0.5 * np.abs(p - q).sum())
        self.overlap_mass = float(overlap.sum())
        self._same = overlap / self.overlap_mass if self.overlap_mass > 0 else overlap
        rp = p - overlap
        rq = q - overlap
        self._rp = rp / rp.sum() if rp.sum() > 0 else rp
        self._rq = rq / rq.sum() if rq.sum() > 0 else rq

    def sample(self, rng: np.random.Generator, n: int = 1) -> tuple[np.ndarray, np.ndarray]:
        k = self.p.size
        same = rng.random(n) < self.overlap_mass
        x = np.empty(n, int)
        y = np.empty(n, int)
        n_same = int(same.sum())
        if n_same:
            common = rng.choice(k, size=n_same, p=self._same)
            x[same] = common
            y[same] = common
        n_diff = n - n_same
        if n_diff:
            x[~same] = rng.choice(k, size=n_diff, p=self._rp)
            y[~same] = rng.choice(k, size=n_diff, p=self._rq)
        return x, y


# --------------------------------------------------------------------------
# Coupling-based mixing rate


# Record points of Delta(t) above the noise floor that the rate fit needs.
MIN_FIT_POINTS = 5
# A record counts towards the fit when its gap exceeds this many of its own
# paired standard errors.
FLOOR_SE = 2.0


@dataclass
class MixingReport:
    t: np.ndarray
    delta: np.ndarray
    noise_floor: np.ndarray         # per record: FLOOR_SE paired standard errors
    kappa: float
    kappa_ci: tuple[float, float]
    passed: bool
    n_above_floor: int

    @property
    def inconclusive(self) -> bool:
        """Too few points above the noise floor to fit a rate at all."""
        return self.n_above_floor < MIN_FIT_POINTS


def mixing_rate(cfg: SimConfig, nl: Nonlinearity, noise: NoiseModel,
                z: PhaseState, zprime: PhaseState,
                n_traj: int = 400, threads: int = 1) -> MixingReport:
    """Decay rate of the worst-case observable gap between two starts.

    Delta(t) = max_psi |E_z psi(y_t) - E_z' psi(y_t)|.  Path i runs from z and
    from z' on one noise stream (common random numbers), which leaves each
    mean's law unchanged, and each probe records the paired difference
    psi(y_t^z) - psi(y_t^z') of a path; a gap is the mean of those
    differences.  The floor is per record: ``FLOOR_SE`` times the worst paired
    standard error over the observables at that record, since Delta is a max
    over observables and under common noise the error shrinks with the gap.
    The fit is log-linear on the records whose gap exceeds their floor; the
    report passes when the 95% interval of the fitted rate stays positive,
    and is inconclusive when fewer than ``MIN_FIT_POINTS`` records lie above
    the floor.
    """
    from wavemix.nlw import run_flow

    # one probe per observable, reduced to a path's paired difference
    probes = {o.name: (lambda o: lambda s: o(s[:, 0]) - o(s[:, 1]))(o)
              for o in default_observables(cfg.basis, cfg.alpha)}
    res = run_flow(cfg, nl, noise, (z, zprime), n_traj=n_traj, probes=probes,
                   threads=threads)
    moments = [stats.mean_se(res.probes[name], axis=0) for name in probes]
    delta = np.max([np.abs(m) for m, _ in moments], axis=0)
    floor = FLOOR_SE * np.max([se for _, se in moments], axis=0)
    mask = delta > floor
    kappa = math.nan
    ci = (math.nan, math.nan)
    passed = False
    n_above = int(mask.sum())
    if n_above >= MIN_FIT_POINTS:
        fit = stats.line_fit(res.t[mask], np.log(delta[mask]))
        kappa = -fit.slope
        ci = (kappa - 1.96 * fit.slope_se, kappa + 1.96 * fit.slope_se)
        passed = ci[0] > 0
    return MixingReport(res.t, delta, floor, kappa, ci, passed, n_above)
