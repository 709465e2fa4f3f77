import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavemix.ergodic import (
    FiniteChain,
    PressureCurve,
    chain_pressure_curve,
    clt_check,
    feynman_kac_estimate,
    fk_eigen_exact,
    ldp_level1_check,
    legendre,
    slln_check,
    two_state_chain,
)
from wavemix.stats import running_trapezoid
from wavemix.toys import OrnsteinUhlenbeck, simulate_toy


@pytest.fixture(scope="module")
def ou():
    return OrnsteinUhlenbeck(1.0, 1.0)


# ------------------------------------------------------------ occupation


def test_occupation_ou_second_moment(ou):
    # u^2 along every step of the recorded path, as simulate_toy integrates u
    t, paths, _ = simulate_toy(ou, ou.eps, dt=0.01, horizon=400.0, seed=4, n_traj=16)
    avg = running_trapezoid(t, paths ** 2)[:, -1] / t[-1]
    target = ou.stationary_var
    se = avg.std(ddof=1) / math.sqrt(avg.size)
    assert abs(avg.mean() - target) < 3 * se + 0.01


# ------------------------------------------------------------ SLLN / CLT


def test_slln_constant_observable():
    t = np.linspace(0, 100, 1001)
    rep = slln_check(t, np.full((5, 1001), 2.5), reference_mean=2.5)
    assert rep.passed


def test_slln_ou_exponent(ou):
    t, paths, ints = simulate_toy(ou, ou.eps, dt=0.01, horizon=400.0, seed=5,
                                  n_traj=200, record_stride=100)
    with np.errstate(invalid="ignore", divide="ignore"):
        avgs = ints / t
    avgs[:, 0] = 0.0
    rep = slln_check(t, avgs, reference_mean=0.0)
    assert rep.exponent == pytest.approx(-0.5, abs=0.1)
    assert rep.passed


def test_clt_ou_green_kubo(ou):
    horizon = 100.0
    t, paths, ints = simulate_toy(ou, ou.eps, dt=0.01, horizon=horizon, seed=6,
                                  n_traj=1500, record_stride=10 ** 6)
    rep = clt_check(horizon, ints[:, -1], centering=0.0)
    assert rep.sigma ** 2 == pytest.approx(ou.clt_variance(), abs=0.1)
    assert rep.passed


def test_clt_degenerate_zero():
    rep = clt_check(10.0, np.zeros(100), centering=0.0)
    assert rep.sigma == 0.0
    assert rep.passed


# ------------------------------------------------------------ Feynman-Kac


def test_fk_estimate_constant_potential():
    # V = c: (1/t) log E exp(c t) = c exactly
    ints = np.full(200, 3.0 * 7.0)
    est = feynman_kac_estimate(ints, horizon=7.0)
    assert est.value == pytest.approx(3.0, rel=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)
    zero = feynman_kac_estimate(np.zeros(50), horizon=5.0)
    assert zero.value == 0.0


def test_fk_ou_pressure(ou):
    # V = beta*u on the OU process: pressure beta^2/2
    horizon = 50.0
    for beta in (0.25, -0.25):
        t, _, ints = simulate_toy(ou, ou.eps, dt=0.01, horizon=horizon, seed=7,
                                  n_traj=3000, record_stride=10 ** 6)
        est = feynman_kac_estimate(beta * ints[:, -1], horizon)
        assert abs(est.value - ou.pressure(beta)) < 3 * est.stderr + 0.01


def test_chain_eigentriple_two_state():
    chain = two_state_chain(1.0, 1.0, v=(1.0, 0.0))
    tri = fk_eigen_exact(chain)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert tri.log_lam == pytest.approx(golden, rel=1e-12)
    assert tri.residual_h <= 1e-10
    assert tri.residual_mu <= 1e-10
    assert tri.h @ tri.mu == pytest.approx(1.0, rel=1e-12)
    assert tri.mu.sum() == pytest.approx(1.0, rel=1e-12)
    # convergence of lam^-t P_t^V toward the rank-one limit
    times = sorted(tri.convergence)
    assert tri.convergence[times[-1]] < tri.convergence[times[0]]
    assert tri.convergence[times[-1]] < 1e-3


def test_chain_tilt_shift_invariance():
    chain = two_state_chain(0.7, 1.3, v=(0.4, -0.2))
    tri = fk_eigen_exact(chain, check_times=())
    shifted = FiniteChain(chain.G, chain.V + 2.0)
    tri2 = fk_eigen_exact(shifted, check_times=())
    assert tri2.log_lam == pytest.approx(tri.log_lam + 2.0, rel=1e-12)
    np.testing.assert_allclose(tri2.h, tri.h, rtol=1e-10)
    np.testing.assert_allclose(tri2.mu, tri.mu, rtol=1e-10)


def test_chain_zero_potential():
    chain = two_state_chain(0.5, 2.0, v=(0.0, 0.0))
    tri = fk_eigen_exact(chain, check_times=(1.0,))
    assert tri.log_lam == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(tri.h, np.ones(2), atol=1e-10)
    np.testing.assert_allclose(tri.mu, chain.stationary(), atol=1e-10)


def test_reducible_chain_rejected():
    G = np.array([[0.0, 0.0], [1.0, -1.0]])
    chain = FiniteChain(G, np.zeros(2))
    with pytest.raises(ValueError):
        fk_eigen_exact(chain)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), density=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_irreducibility_matches_scipy_strong_components(n, density, seed):
    from scipy.sparse.csgraph import connected_components
    rng = np.random.default_rng(seed)
    rates = np.where(rng.random((n, n)) < density, rng.uniform(0.1, 2.0, (n, n)), 0.0)
    np.fill_diagonal(rates, 0.0)
    G = rates - np.diag(rates.sum(axis=1))
    ncomp, _ = connected_components(G > 0, directed=True, connection="strong")
    assert FiniteChain(G, np.zeros(n)).is_irreducible() == (ncomp == 1)


def test_invalid_generator_rejected():
    with pytest.raises(ValueError):
        FiniteChain(np.array([[1.0, -1.0], [1.0, -1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        FiniteChain(np.array([[-1.0, 0.5], [1.0, -1.0]]), np.zeros(2))


def test_chain_mc_agrees_with_exact():
    chain = two_state_chain(1.0, 1.0, v=(1.0, 0.0))
    tri = fk_eigen_exact(chain, check_times=())
    horizon = 8.0
    ints = chain.sample_occupation(horizon, n_paths=4000, seed=8)
    est = feynman_kac_estimate(ints, horizon)
    assert abs(est.value - tri.log_lam) < 3 * est.stderr + 0.02


def test_constant_tilt_identity():
    # Osc(V) = 0: lam^-t P_t^V 1 = 1 exactly
    chain = two_state_chain(1.0, 2.0, v=(0.7, 0.7))
    tri = fk_eigen_exact(chain, check_times=(1.0, 4.0))
    assert tri.log_lam == pytest.approx(0.7, rel=1e-12)
    for v in tri.convergence.values():
        assert v < 1e-12


# ------------------------------------------------------------ Legendre


def test_legendre_quadratic():
    betas = np.linspace(-1.5, 1.5, 61)
    curve = PressureCurve(betas, betas ** 2 / 2, np.zeros(61), center=0.0)
    rate = legendre(curve)
    for p in (-0.8, -0.3, 0.0, 0.4, 1.0):
        assert rate.at(p) == pytest.approx(p ** 2 / 2, abs=1e-3)


def test_legendre_linear_gives_sentinel():
    betas = np.linspace(-1, 1, 21)
    curve = PressureCurve(betas, 0.7 * betas, np.zeros(21), center=0.0)
    rate = legendre(curve, p_grid=np.array([-0.5, 0.7, 1.5]))
    assert rate.values[1] == pytest.approx(0.0, abs=1e-12)
    assert rate.values[0] > 1e6 or math.isinf(rate.values[0])
    assert math.isinf(rate.values[2]) or rate.values[2] > 0


def test_legendre_biconjugation():
    betas = np.linspace(-2, 2, 81)
    q = betas ** 2 / 2
    curve = PressureCurve(betas, q, np.zeros(81), center=0.0)
    rate = legendre(curve, shift_to_original=False)
    finite = np.isfinite(rate.values)
    curve2 = PressureCurve(rate.p[finite], rate.values[finite],
                           np.zeros(finite.sum()), center=0.0)
    back = legendre(curve2, p_grid=np.linspace(-1.5, 1.5, 31),
                    shift_to_original=False)
    np.testing.assert_allclose(back.values, back.p ** 2 / 2, atol=5e-3)


def test_rate_zero_at_mean():
    betas = np.linspace(-1, 1, 41)
    curve = PressureCurve(betas, betas ** 2 / 2, np.zeros(41), center=1.7)
    rate = legendre(curve)
    assert rate.at(1.7) == pytest.approx(0.0, abs=1e-6)
    assert np.all(rate.values[np.isfinite(rate.values)] >= -1e-12)


def test_chain_pressure_convex_and_centered():
    chain = two_state_chain(1.0, 1.0, v=(1.0, 0.0))
    curve = chain_pressure_curve(chain, np.linspace(-2, 2, 41))
    assert curve.values[20] == pytest.approx(0.0, abs=1e-12)
    assert curve.convexity_violations() == 0


# ------------------------------------------------------------ level-1 LDP


def test_ldp1_ou_interval(ou):
    horizons = [8.0, 16.0, 32.0]
    avgs = []
    for k, T in enumerate(horizons):
        t, _, ints = simulate_toy(ou, ou.eps, dt=0.01, horizon=T, seed=9 + k,
                                  n_traj=6000, record_stride=10 ** 6)
        avgs.append(ints[:, -1] / T)
    betas = np.linspace(-1.2, 1.2, 49)
    curve = PressureCurve(betas, np.array([ou.pressure(b) for b in betas]),
                          np.zeros(betas.size), center=0.0)
    rate = legendre(curve)
    rep = ldp_level1_check(horizons, avgs, (0.4, 0.6), rate)
    assert not rep.inconclusive
    assert rep.target == pytest.approx(-0.08, abs=1e-6)
    assert rep.passed


def test_ldp1_undersampling_guard(ou):
    avgs = [np.zeros(100)]  # no hits in a far interval
    betas = np.linspace(-1, 1, 21)
    curve = PressureCurve(betas, betas ** 2 / 2, np.zeros(21), center=0.0)
    rate = legendre(curve)
    rep = ldp_level1_check([10.0], avgs, (5.0, 6.0), rate)
    assert rep.inconclusive


def test_fk_initial_condition_uniformity(ou):
    # pressure estimates from a configured set of starting points agree
    horizon = 25.0
    beta = 0.25
    values = []
    for k, u0 in enumerate((-1.0, 0.0, 1.0)):
        _, _, ints = simulate_toy(ou, ou.eps, dt=0.01, horizon=horizon,
                                  seed=600 + k, n_traj=4000,
                                  record_stride=10 ** 6, u0=u0)
        values.append(feynman_kac_estimate(beta * ints[:, -1], horizon).value)
    assert max(values) - min(values) <= 0.02


def test_nlw_clt_and_slln():
    # bounded Lipschitz observable on the driven wave ensemble: KS normality
    # of the scaled integral and the ensemble SLLN residual exponent
    from wavemix.nlw import NoiseModel, Nonlinearity, SimConfig, run_flow
    from wavemix.observables import default_observables
    from wavemix.spectral import PhaseState, SpectralBasis
    from wavemix.stats import running_trapezoid
    basis = SpectralBasis((np.pi,), 16)
    noise = NoiseModel.power_law(basis, amplitude=0.25, q=2.0)
    cfg = SimConfig(basis=basis, gamma=1.0,
                    dt=0.5 / np.sqrt(basis.eigenvalues[-1]), horizon=56.0,
                    seed=77, eps=1.0, stride=1)
    nl = Nonlinearity.klein_gordon(1.0)
    psi = default_observables(basis, cfg.alpha, (1,))[0]
    res = run_flow(cfg, nl, noise, PhaseState.zero(basis, cfg.alpha),
                   n_traj=600, probes={"psi": psi})
    # the integral over every step, read at every 32nd record
    t = res.t[::32]
    ints = running_trapezoid(res.t, res.probes["psi"])[:, ::32]
    # analyze the stationary window after the start-up transient
    k0 = int(np.searchsorted(t, 8.0))
    s = t[k0:] - t[k0]
    J = ints[:, k0:] - ints[:, k0][:, None]
    center = float(np.mean(J[:, -1]) / s[-1])
    rep = clt_check(s[-1], J[:, -1], centering=center)
    assert rep.passed
    with np.errstate(invalid="ignore", divide="ignore"):
        avgs = J / s
    avgs[:, 0] = center
    slln = slln_check(s, avgs, reference_mean=center)
    assert slln.exponent <= -0.4


def test_chain_ldp1_tail_interval():
    chain = two_state_chain(1.0, 1.0, v=(1.0, 0.0))
    curve = chain_pressure_curve(chain, np.linspace(-3.0, 3.0, 121))
    rate = legendre(curve)
    horizons = [4.0, 8.0, 16.0]
    avgs = [chain.sample_occupation(T, 6000, 900 + k) / T
            for k, T in enumerate(horizons)]
    rep = ldp_level1_check(horizons, avgs, (0.65, 0.85), rate)
    assert not rep.inconclusive
    assert rep.passed
