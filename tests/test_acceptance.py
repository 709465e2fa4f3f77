"""End-to-end acceptance gates.

Each test exercises one headline claim at its stated tolerance and runtime
budget and prints a one-line PASS/FAIL verdict.  Tolerances are pinned here,
not derived at run time.
"""

import math
import time

import numpy as np
import pytest

from wavemix import coupling as cpl
from wavemix import ergodic as erg
from wavemix import nlw
from wavemix import rates
from wavemix import toys
from wavemix.spectral import Field, PhaseState, SpectralBasis, phase_norm, phase_norm_sq_arr

PI = np.pi


def _report(num: int, name: str, ok: bool, elapsed: float, budget: float, detail: str):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.1f}s / {budget:.0f}s] {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def smooth_state(basis, scale, seed, alpha):
    rng = np.random.default_rng(seed)
    m = basis.mode_count
    decay = 1.0 / np.arange(1, m + 1) ** 2
    return PhaseState.from_coeffs(basis, scale * rng.standard_normal(m) * decay,
                                  scale * rng.standard_normal(m) * decay, alpha)


def closed_form_oscillator(lam, gamma, t):
    disc = gamma * gamma / 4.0 - lam
    if disc < 0:
        w = math.sqrt(-disc)
        c, s = math.cos(w * t), math.sin(w * t)
    elif disc > 0:
        w = math.sqrt(disc)
        c, s = math.cosh(w * t), math.sinh(w * t)
    else:
        w = None
    if w is None:
        M = np.array([[1 + gamma * t / 2, t], [-lam * t, 1 - gamma * t / 2]])
    else:
        M = np.array([[c + gamma / (2 * w) * s, s / w],
                      [-lam / w * s, c - gamma / (2 * w) * s]])
    return math.exp(-gamma * t / 2) * M


def test_ac01_linear_exactness():
    t0 = time.time()
    basis = SpectralBasis((PI,), 16)
    noise = nlw.NoiseModel.power_law(basis, amplitude=0.25, q=2.0)
    dt = 0.5 / math.sqrt(basis.eigenvalues[-1])
    cfg = nlw.SimConfig(basis=basis, gamma=1.0, dt=dt, horizon=1000 * dt,
                        seed=1, eps=0.0, stride=1000)
    y0 = smooth_state(basis, 0.7, 2, cfg.alpha)
    traj = nlw.simulate(cfg, nlw.Nonlinearity.zero(), noise, y0)
    T = traj.t[-1]
    worst = 0.0
    for j in range(basis.mode_count):
        exact = closed_form_oscillator(basis.eigenvalues[j], cfg.gamma, T) \
            @ y0.as_array()[:, j]
        scale = max(np.max(np.abs(exact)), 1e-300)
        worst = max(worst, float(np.max(np.abs(traj.states[-1, :, j] - exact)) / scale))
    _report(1, "linear-exactness", worst <= 1e-10, time.time() - t0, 1.0,
            f"max per-mode relative error {worst:.2e} after 1000 steps")


def test_ac02_energy_dissipation():
    t0 = time.time()
    basis = SpectralBasis((PI,), 64)
    noise = nlw.NoiseModel.power_law(basis, amplitude=0.25, q=2.0)
    cfg = nlw.SimConfig(basis=basis, gamma=1.0,
                        dt=0.5 / math.sqrt(basis.eigenvalues[-1]),
                        horizon=20.0, seed=3, eps=0.0, stride=8)
    nl = nlw.Nonlinearity.klein_gordon(1.0)
    y0 = smooth_state(basis, 0.8, 4, cfg.alpha)
    traj = nlw.simulate(cfg, nl, noise, y0)
    norm_sq = phase_norm_sq_arr(traj.states, basis.eigenvalues, cfg.alpha)
    audit = nlw.energy_audit(traj.t, traj.energy, norm_sq, cfg.alpha)
    envelope = traj.energy[0] * np.exp(-cfg.alpha * traj.t) + audit.c_fit
    pathwise = bool(np.all(traj.energy <= envelope * (1 + 1e-12) + 1e-12))
    slope_ok = audit.decay is not None and audit.decay.slope <= -0.9 * cfg.alpha
    ok = pathwise and np.isfinite(audit.c_fit) and slope_ok
    _report(2, "energy-dissipation", ok, time.time() - t0, 10.0,
            f"C_fit={audit.c_fit:.3e}, slope={audit.decay.slope:.3f} vs "
            f"-alpha={-cfg.alpha}")


def test_ac03_foias_prodi():
    t0 = time.time()
    basis = SpectralBasis((PI,), 64)
    noise = nlw.NoiseModel.power_law(basis, amplitude=0.25, q=2.0)
    nl = nlw.Nonlinearity.klein_gordon(1.0)
    n_grid = (2, 4, 8, 16)
    n_stars = []
    ok = True
    detail = []
    for seed in range(5):
        cfg = nlw.SimConfig(basis=basis, gamma=1.0,
                            dt=0.5 / math.sqrt(basis.eigenvalues[-1]),
                            horizon=8.0, seed=100 + seed, eps=1.0, stride=8)
        z = smooth_state(basis, 0.5, 10 + seed, cfg.alpha)
        zp = smooth_state(basis, 0.5, 50 + seed, cfg.alpha)
        rep = cpl.fp_contraction_test(cfg, nl, noise, z, zp, n_grid=n_grid)
        ok = ok and rep.lowmode_ok and rep.n_star is not None
        if rep.n_star is not None:
            ok = ok and all(rep.rates[n] >= cfg.alpha / 2
                            for n in n_grid if n >= rep.n_star)
        n_stars.append(rep.n_star)
        detail.append(f"seed{seed}: N*={rep.n_star} margin={rep.lowmode_margin:.1e}")
    ok = ok and len(set(n_stars)) == 1
    _report(3, "foias-prodi", ok, time.time() - t0, 60.0, "; ".join(detail))


def test_ac04_girsanov_tv():
    t0 = time.time()
    basis = SpectralBasis((PI,), 32)
    noise = nlw.NoiseModel.power_law(basis, amplitude=0.25, q=2.0)
    cfg = nlw.SimConfig(basis=basis, gamma=1.0,
                        dt=0.5 / math.sqrt(basis.eigenvalues[-1]),
                        horizon=1.0, seed=101, eps=1.0, stride=8)
    nl = nlw.Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 0.3, 11, cfg.alpha)
    d = np.zeros((2, basis.mode_count))
    d[0, 0] = 1.0 / math.sqrt(basis.eigenvalues[0])
    d[1, 0] = -cfg.alpha / math.sqrt(basis.eigenvalues[0])
    exp = cpl.girsanov_tv_experiment(cfg, nl, noise, z, d,
                                     (0.08, 0.04, 0.02, 0.01), n_feedback=8,
                                     n_traj=400)
    # TV comparison on the pinned distances {0.04, 0.02, 0.01}
    dominated = all(e.value <= b.value + 3 * e.stderr
                    for e, b in list(zip(exp.tv_estimates, exp.bounds))[1:])
    shrinking = (exp.tv_estimates[-1].value < exp.tv_estimates[1].value
                 and exp.bounds[-1].value < exp.bounds[1].value)
    quad = abs(exp.scaling_fit.slope - 2.0) <= 0.3
    ok = dominated and shrinking and quad
    _report(4, "girsanov-tv", ok, time.time() - t0, 120.0,
            f"exponent={exp.scaling_fit.slope:.2f}, "
            f"tv@0.01={exp.tv_estimates[-1].value:.3e} <= "
            f"bound={exp.bounds[-1].value:.3e}")


def test_ac05_mixing():
    t0 = time.time()
    basis = SpectralBasis((PI,), 32)
    noise = nlw.NoiseModel.power_law(basis, amplitude=0.25, q=2.0)
    dt = 0.5 / math.sqrt(basis.eigenvalues[-1])
    # nonlinear desk config
    cfg = nlw.SimConfig(basis=basis, gamma=1.0, dt=dt, horizon=20.0, seed=7,
                        eps=1.0, stride=16)
    nl = nlw.Nonlinearity.klein_gordon(1.0)
    z = smooth_state(basis, 1.0, 21, cfg.alpha)
    zp = smooth_state(basis, 1.0, 22, cfg.alpha)
    rep = cpl.mixing_rate(cfg, nl, noise, z, zp, n_traj=800, threads=2)
    # linear reference: kappa at least alpha/2 within confidence
    cfg_l = nlw.SimConfig(basis=basis, gamma=1.0, dt=dt, horizon=14.0, seed=8,
                          eps=1.0, stride=16)
    rep_l = cpl.mixing_rate(cfg_l, nlw.Nonlinearity.zero(), noise,
                            smooth_state(basis, 1.2, 23, cfg_l.alpha),
                            smooth_state(basis, 1.2, 24, cfg_l.alpha),
                            n_traj=600, threads=2)
    ok = rep.passed and rep_l.passed and rep_l.kappa_ci[1] >= cfg_l.alpha / 2
    _report(5, "mixing", ok, time.time() - t0, 180.0,
            f"kappa={rep.kappa:.3f} CI={rep.kappa_ci}; linear kappa="
            f"{rep_l.kappa:.3f} vs alpha/2={cfg_l.alpha / 2}")


def test_ac06_clt_slln():
    t0 = time.time()
    ou = toys.OrnsteinUhlenbeck(1.0, 1.0)
    horizon = 100.0
    t, _, ints = toys.simulate_toy(ou, None, dt=0.01, horizon=horizon, seed=31,
                                   n_traj=4000, record_stride=100,
                                   integrand=lambda u: u)
    clt = erg.clt_check(horizon, ints[:, -1], centering=0.0)
    sigma_ok = abs(clt.sigma ** 2 - 1.0) <= 0.1
    with np.errstate(invalid="ignore", divide="ignore"):
        avgs = ints / t
    avgs[:, 0] = 0.0
    slln = erg.slln_check(t, avgs, reference_mean=0.0)
    ok = sigma_ok and clt.passed and slln.passed
    _report(6, "clt-slln", ok, time.time() - t0, 60.0,
            f"sigma^2={clt.sigma ** 2:.3f}, KS p={clt.ks_pvalue:.3f}, "
            f"slln exponent={slln.exponent:.2f}")


def test_ac07_feynman_kac():
    t0 = time.time()
    # exact eigentriple on the two-state chain
    chain = erg.two_state_chain(1.0, 1.0, v=(1.0, 0.0))
    tri = erg.fk_eigen_exact(chain)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    resid_ok = (tri.residual_h <= 1e-10 and tri.residual_mu <= 1e-10
                and abs(tri.log_lam - golden) <= 1e-10)
    # Monte Carlo pressure for the OU tilt beta*u.  The pressure is a large-t
    # limit, so two dyadic horizons are extrapolated; the OU law from the
    # origin is sign-symmetric, so each path also serves as the antithetic
    # partner of its mirror.
    ou = toys.OrnsteinUhlenbeck(1.0, 1.0)
    ou_integrals = {}
    for T in (15.0, 30.0):
        _, _, ints = toys.simulate_toy(ou, None, dt=0.01, horizon=T,
                                       seed=2003 + int(T), n_traj=30000,
                                       record_stride=10 ** 9,
                                       integrand=lambda u: u)
        ou_integrals[T] = ints[:, -1]
    pressure_ok = True
    pressure_detail = []
    for beta in (0.25, -0.25, 0.5, -0.5):
        pair = [erg.feynman_kac_estimate(beta * ou_integrals[T], T,
                                         antithetic_integrals=-beta * ou_integrals[T])
                for T in (15.0, 30.0)]
        est = erg.richardson_pressure(pair[0], pair[1])
        hit = abs(est.value - ou.pressure(beta)) <= 3 * est.stderr
        pressure_ok = pressure_ok and hit
        pressure_detail.append(f"b={beta:+.2f}:{est.value:.3f}±{est.stderr:.3f}")
    # Legendre transform of the exact quadratic pressure
    betas = np.linspace(-1.2, 1.2, 121)
    curve = erg.PressureCurve(betas, betas ** 2 / 2, np.zeros(121), 0.0)
    rate = erg.legendre(curve)
    ps = np.linspace(-0.9, 0.9, 37)
    leg_err = max(abs(rate.at(p) - p ** 2 / 2) for p in ps)
    # local level-1 check on the OU time averages
    horizons = [8.0, 16.0, 32.0]
    avgs = []
    for k, T in enumerate(horizons):
        _, _, iT = toys.simulate_toy(ou, None, dt=0.01, horizon=T, seed=61 + k,
                                     n_traj=6000, record_stride=10 ** 9,
                                     integrand=lambda u: u)
        avgs.append(iT[:, -1] / T)
    ou_curve = erg.PressureCurve(betas, np.array([ou.pressure(b) for b in betas]),
                                 np.zeros(betas.size), 0.0)
    ldp = erg.ldp_level1_check(horizons, avgs, (0.4, 0.6), erg.legendre(ou_curve))
    ok = resid_ok and pressure_ok and leg_err <= 1e-3 and ldp.passed
    _report(7, "feynman-kac", ok, time.time() - t0, 120.0,
            f"residuals<=1e-10: {resid_ok}; pressure {' '.join(pressure_detail)}; "
            f"legendre err={leg_err:.1e}; ldp rel={ldp.rel_error:.3f}")


def test_ac08_gradient_rates():
    t0 = time.time()
    cubic = toys.builtin_cubic()
    up = rates.toy_quasipotential(cubic, 0.0, 3.0, eta=0.03)
    down = rates.toy_quasipotential(cubic, 3.0, 0.0, eta=0.03)
    up_ok = up.converged and abs(up.value - 5.0 / 6.0) / (5.0 / 6.0) <= 0.05
    down_ok = down.converged and abs(down.value - 16.0 / 3.0) / (16.0 / 3.0) <= 0.05
    # graph arithmetic with oracle V entries is exact
    net = rates.toy_equilibrium_network(cubic)
    r0 = rates.fw_rate(net, net.V[net.stable, 0])
    r3 = rates.fw_rate(net, net.V[net.stable, 2])
    exact_ok = abs(r0 - 4.5) <= 1e-6 and abs(r3) <= 1e-9
    # end-to-end with solver-computed V entries
    pts = [0.0, 3.0]
    V = np.zeros((2, 2))
    V[0, 1] = up.value
    V[1, 0] = down.value
    net_solver = rates.EquilibriumNetwork("cubic", pts, np.array([True, True]), V)
    q0 = rates.fw_rate(net_solver, net_solver.V[net_solver.stable, 0])
    q3 = rates.fw_rate(net_solver, net_solver.V[net_solver.stable, 1])
    e2e_ok = abs(q0 - 4.5) / 4.5 <= 0.07 and abs(q3) <= 1e-9
    ok = up_ok and down_ok and exact_ok and e2e_ok
    _report(8, "gradient-rates", ok, time.time() - t0, 300.0,
            f"V(0->3)={up.value:.4f} (5/6), V(3->0)={down.value:.4f} (16/3), "
            f"rate(0)={q0:.3f} (4.5)")


def test_ac09_w_graphs():
    t0 = time.time()
    rng = np.random.default_rng(99)
    agree = True
    for trial in range(100):
        V = rng.uniform(0.05, 4.0, (5, 5))
        np.fill_diagonal(V, 0.0)
        net = rates.EquilibriumNetwork("rand", list(range(5)), np.ones(5, bool), V)
        W = rates.w_graph_weights(net)
        for i in range(5):
            bf = rates.w_graph_bruteforce(V, i)
            if not math.isclose(W[i], bf, rel_tol=1e-12, abs_tol=1e-12):
                agree = False
    _report(9, "w-graphs", agree, time.time() - t0, 5.0,
            "rooted-graph minimum equals exhaustive enumeration, 100/100")


def test_ac10_smallnoise_ldp():
    t0 = time.time()
    cubic = toys.builtin_cubic()
    exact = rates.smallnoise_stationary_probe(
        cubic, [1e-3], [(2.9, 3.1), (-0.1, 0.1)], mode="exact")
    e_ok = (abs(exact.eps_log_mu[0, 0] - exact.targets[0]) <= 0.02
            and abs(exact.eps_log_mu[1, 0] - exact.targets[1]) <= 0.02)
    mc = rates.smallnoise_stationary_probe(cubic, [0.5, 0.35, 0.25],
                                           [(2.0, 2.5)], mode="mc", seed=71)
    target = mc.targets[0]
    mc_ok = (not mc.inconclusive and mc.agreement_ok
             and abs(mc.intercepts[0] - target) / abs(target) <= 0.2)
    ok = e_ok and mc_ok
    _report(10, "smallnoise-ldp", ok, time.time() - t0, 120.0,
            f"exact gaps=({abs(exact.eps_log_mu[0, 0] - exact.targets[0]):.3f}, "
            f"{abs(exact.eps_log_mu[1, 0] - exact.targets[1]):.3f}); "
            f"mc intercept={mc.intercepts[0]:.3f} vs {target:.3f}")


def test_ac11_boundary_chain():
    t0 = time.time()
    dw = toys.builtin_doublewell()
    rep = rates.boundary_chain(dw, rates.BoundaryChainConfig(), eps=0.1,
                               seed=81, n_replicas=64,
                               horizon_per_replica=1500.0)
    conclusive = not rep.inconclusive
    barrier_ok = conclusive and abs(rep.eps_log_p[0, 1] + 0.5) / 0.5 <= 0.25
    p01, p10 = rep.probabilities[0, 1], rep.probabilities[1, 0]
    n0, n1 = rep.counts[0].sum(), rep.counts[1].sum()
    se = math.sqrt(p01 * (1 - p01) / max(n0, 1) + p10 * (1 - p10) / max(n1, 1))
    sym_ok = conclusive and abs(p01 - p10) <= 3 * se
    ok = conclusive and barrier_ok and sym_ok
    _report(11, "boundary-chain", ok, time.time() - t0, 300.0,
            f"eps log P(0->2)={rep.eps_log_p[0, 1]:.3f} vs -0.5; "
            f"P(0->2)={p01:.4f}, P(2->0)={p10:.4f}")
