import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wavemix import nlw, stats
from wavemix.nlw import (
    NoiseModel,
    Nonlinearity,
    SimConfig,
    apply_modewise,
    check_dissipativity,
    draw_normals,
    energy_audit,
    linear_ops,
    simulate,
    run_flow,
    make_energy_fn,
    trajectory_streams,
)
from wavemix.observables import default_observables
from wavemix.spectral import PhaseState, SpectralBasis, phase_norm_sq_arr

PI = np.pi


def damped_oscillator_exact(lam, gamma, t):
    """Closed-form 2x2 propagator of q'' + gamma q' + lam q = 0."""
    disc = gamma * gamma / 4.0 - lam
    if disc < 0:
        w = math.sqrt(-disc)
        c, s = math.cos(w * t), math.sin(w * t)
        M = np.array([[c + gamma / (2 * w) * s, s / w],
                      [-lam / w * s, c - gamma / (2 * w) * s]])
    elif disc > 0:
        w = math.sqrt(disc)
        c, s = math.cosh(w * t), math.sinh(w * t)
        M = np.array([[c + gamma / (2 * w) * s, s / w],
                      [-lam / w * s, c - gamma / (2 * w) * s]])
    else:
        M = np.array([[1 + gamma * t / 2, t], [-lam * t, 1 - gamma * t / 2]])
    return math.exp(-gamma * t / 2) * M


@pytest.fixture(scope="module")
def basis16():
    return SpectralBasis((PI,), 16)


@pytest.fixture(scope="module")
def noise16(basis16):
    return NoiseModel.power_law(basis16, amplitude=0.25, q=2.0)


def make_cfg(basis, **kw):
    defaults = dict(gamma=1.0, dt=0.5 / np.sqrt(basis.eigenvalues[-1]),
                    horizon=5.0, seed=7, eps=1.0, stride=4)
    defaults.update(kw)
    return SimConfig(basis=basis, **defaults)


def smooth_state(basis, scale=0.5, seed=11, alpha=None):
    rng = np.random.default_rng(seed)
    m = basis.mode_count
    c1 = scale * rng.standard_normal(m) / np.arange(1, m + 1) ** 2
    c2 = scale * rng.standard_normal(m) / np.arange(1, m + 1) ** 2
    if alpha is None:
        alpha = min(1.0 / 4, basis.eigenvalues[0] / 4)
    return PhaseState.from_coeffs(basis, c1, c2, alpha)


# -------------------------------------------------------------- configuration


def test_nonlinearity_rho_rejection():
    with pytest.raises(ValueError):
        Nonlinearity.klein_gordon(2.5)
    with pytest.raises(ValueError):
        Nonlinearity.klein_gordon(0.0)


def test_nonlinearity_vanishes_at_zero():
    for nl in (Nonlinearity.klein_gordon(1.0, 0.3), Nonlinearity.sine_gordon(),
               Nonlinearity.polynomial([0.5, 0.0, 1.0])):
        assert nl.f(0.0) == 0.0
        assert nl.F(0.0) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rho=st.sampled_from([0.5, 1.0, 1.5]), lam=st.sampled_from([0.0, 0.3]),
       u=hnp.arrays(np.float64, st.integers(0, 12),
                    elements=st.floats(-1e6, 1e6, allow_subnormal=True)))
def test_klein_gordon_f_and_F_match_closed_forms(rho, lam, u):
    nl = Nonlinearity.klein_gordon(rho, lam)
    assert np.array_equal(nl.f(u), np.abs(u) ** rho * u - lam * u)
    assert np.array_equal(nl.F(u), np.abs(u) ** (rho + 2) / (rho + 2) - lam * u ** 2 / 2)


def test_noise_power_law_rules(basis16):
    with pytest.raises(ValueError):
        NoiseModel.power_law(basis16, q=1.0)
    NoiseModel.power_law(basis16, amplitude=0.1, q=2.0)
    with pytest.raises(ValueError):
        NoiseModel(basis16, -np.ones(16))
    cut = NoiseModel.power_law(basis16, q=2.0, cutoff=4)
    assert np.all(cut.coeffs[4:] == 0)


@pytest.mark.parametrize("kw", [{"horizon": 0.0}, {"horizon": -1.0}, {"stride": 0},
                                {"stride": -1}])
def test_simconfig_rejects_empty_runs(basis16, kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        make_cfg(basis16, **kw)


def test_dt_stability_rule(basis16):
    lim = 0.5 / np.sqrt(basis16.eigenvalues[-1])
    with pytest.raises(ValueError):
        make_cfg(basis16, dt=2 * lim)
    cfg = make_cfg(basis16, dt=2 * lim, allow_large_dt=True)
    assert cfg.dt == 2 * lim


def test_dissipativity_klein_gordon():
    rep = check_dissipativity(Nonlinearity.klein_gordon(1.0, 0.0, nu=0.05))
    assert rep.ok
    assert rep.c_lower == pytest.approx(0.0, abs=1e-12)
    assert rep.c_balance == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(rep.c_gradient)


def test_dissipativity_sine_gordon():
    rep = check_dissipativity(Nonlinearity.sine_gordon(nu=0.05))
    assert rep.ok
    assert rep.c_lower == 0.0


def test_dissipativity_violation_reported():
    # f = -u^3 is anti-dissipative: F = -u^4/4 cannot be bounded below
    rep = check_dissipativity(Nonlinearity.polynomial([0.0, 0.0, -1.0], nu=0.05))
    assert not rep.ok
    assert "lower" in rep.violations


# -------------------------------------------------------------- linear steps


def test_linear_step_matches_closed_form(basis16, noise16):
    dt = 0.5 / np.sqrt(basis16.eigenvalues[-1])
    cfg = make_cfg(basis16, eps=0.0, dt=dt, horizon=dt, stride=1)
    nl = Nonlinearity.zero()
    y = smooth_state(basis16, alpha=cfg.alpha)
    stepped = simulate(cfg, nl, noise16, y).states[-1]
    for j in (0, 5, 15):
        lam = basis16.eigenvalues[j]
        exact = damped_oscillator_exact(lam, cfg.gamma, cfg.dt) @ y.as_array()[:, j]
        np.testing.assert_allclose(stepped[:, j], exact, rtol=1e-12, atol=1e-15)


def test_linear_thousand_steps_exact(basis16, noise16):
    cfg = make_cfg(basis16, eps=0.0, horizon=1000 * 0.5 / np.sqrt(basis16.eigenvalues[-1]),
                   stride=1000)
    nl = Nonlinearity.zero()
    y = smooth_state(basis16, alpha=cfg.alpha)
    traj = simulate(cfg, nl, noise16, y)
    T = traj.t[-1]
    for j in range(16):
        lam = basis16.eigenvalues[j]
        exact = damped_oscillator_exact(lam, cfg.gamma, T) @ y.as_array()[:, j]
        scale = max(np.abs(exact).max(), 1e-30)
        np.testing.assert_allclose(traj.states[-1, :, j], exact,
                                   rtol=0, atol=1e-10 * scale)


@st.composite
def damped_modes(draw):
    """(lam, gamma, tau) of an under-, over- or critically damped mode."""
    gamma = draw(st.floats(0.0, 5.0))
    crit = gamma * gamma / 4.0
    kind = draw(st.sampled_from(["under", "critical", "over"]))
    if kind == "under":
        lam = min(crit + 10.0 ** draw(st.floats(-6.0, 4.0)), 1e4)
    elif kind == "over":
        lam = crit * draw(st.floats(0.0, 1.0, exclude_max=True))
    else:
        lam = crit
    return lam, gamma, draw(st.floats(0.0, 0.1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(modes=st.lists(damped_modes(), min_size=1, max_size=6))
def test_expm_matches_damped_oscillator(modes):
    # one stack mixes matrices that need from 0 to 11 squarings; the error
    # bound is a few ulps times 1 + |A tau|_1, the condition of e^{A tau}
    # (at lam = 1e4, tau = 0.1 the closed form itself is off by ~1e-13)
    A = np.array([[[0.0, 1.0], [-lam, -gamma]] for lam, gamma, _ in modes])
    taus = np.array([tau for _, _, tau in modes])
    A = A * taus[:, None, None]
    E = nlw._expm(A)
    for (lam, gamma, tau), a, e in zip(modes, A, E):
        exact = damped_oscillator_exact(lam, gamma, tau)
        rel = np.max(np.abs(e - exact)) / np.max(np.abs(exact))
        assert rel <= 2e-15 * (1.0 + np.abs(a).sum(axis=0).max()), (lam, gamma, tau)


def test_expm_matches_scipy(monkeypatch):
    expm = pytest.importorskip("scipy.linalg").expm
    # every stack the operator build exponentiates: the 2x2 half-step
    # propagators and the 4x4 Van Loan blocks of a 1D and a 2D configuration
    stacks = []

    def scipy_expm(A):
        stacks.append(A)
        return expm(A)
    for lengths, m, dt in (((PI,), 32, 0.01), ((1.0, 1.0), 144, 0.002)):
        basis = SpectralBasis(lengths, m)
        args = (basis, 0.5, 1.0, NoiseModel.power_law(basis, 0.5, 2.5), dt)
        ops = nlw.LinearOps(*args)
        monkeypatch.setattr(nlw, "_expm", scipy_expm)
        ref = nlw.LinearOps(*args)
        monkeypatch.undo()
        # entry by entry: the position variance is ~ (dt/2)^3 / 3, far below
        # the largest entry of the Van Loan block it is read from.  SciPy's
        # own position variance is off by up to 2e-12 of itself against a
        # 50-digit reference, hence 1e-11 here; the quadrature test below
        # holds _expm to 1e-13
        np.testing.assert_allclose(ops.P_half, ref.P_half, rtol=1e-13, atol=0)
        for name in ("cov_half", "chol_half"):
            np.testing.assert_allclose(getattr(ops, name), getattr(ref, name),
                                       rtol=1e-11, atol=0, err_msg=name)
    assert sorted(A.shape for A in stacks) == [(32, 2, 2), (32, 4, 4),
                                                (144, 2, 2), (144, 4, 4)]
    for A in stacks:
        for a, e in zip(A, nlw._expm(A)):
            ref = expm(a)
            assert np.max(np.abs(e - ref)) <= 1e-13 * np.max(np.abs(ref))
    # tilted 2-state and 3-state chain generators at the eigentriple's times
    for G, V in ((np.array([[-1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.0])),
                 (np.array([[-0.7, 0.7], [1.3, -1.3]]), np.array([0.4, -0.2])),
                 (np.array([[-2.0, 1.5, 0.5], [0.3, -1.0, 0.7], [1.0, 2.0, -3.0]]),
                  np.array([0.3, -0.2, 1.0]))):
        for t in (0.5, 1.0, 2.0, 4.0, 8.0):
            T = (G + np.diag(V)) * t
            ref = expm(T)
            got = nlw._expm(T[None])[0]
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("lengths, m, dt", [((PI,), 32, 0.01), ((PI,), 64, 0.005),
                                              ((1.0, 1.0), 144, 0.002)])
def test_noise_covariance_matches_quadrature(lengths, m, dt):
    # the half-step noise covariance sig2 int_0^tau p(s) p(s)^T ds, with p the
    # velocity column of the closed-form propagator, by 24-node Gauss-Legendre
    # (every integrand is entire and lam tau^2 <= 0.03, so the rule is exact
    # to ~1e-15); each entry and each Cholesky entry is held to its own size
    basis = SpectralBasis(lengths, m)
    noise = NoiseModel.power_law(basis, 0.5, 2.5)
    ops = nlw.LinearOps(basis, 0.5, 1.0, noise, dt)
    tau = dt / 2.0
    x, w = np.polynomial.legendre.leggauss(24)
    ref = np.empty((m, 2, 2))
    for i, lam in enumerate(basis.eigenvalues):
        p = np.array([damped_oscillator_exact(lam, 0.5, s)[:, 1] for s in tau / 2 * (x + 1)])
        ref[i] = noise.coeffs[i] ** 2 * tau / 2 * np.einsum("j,ja,jb->ab", w, p, p)
    np.testing.assert_allclose(ops.cov_half, ref, rtol=1e-13, atol=0)
    np.testing.assert_allclose(ops.chol_half, np.linalg.cholesky(ref), rtol=1e-13, atol=0)


@pytest.mark.parametrize("lengths, m", [((PI,), 32), ((PI, PI), 144)])
def test_full_step_composes_two_half_steps(lengths, m):
    # the merged step is the exact flow over dt: the half-step propagator
    # squared, and the half-step covariance propagated once more plus itself.
    # Entry by entry against each entry's own size, since the position
    # variance ~ dt^3 / 12 sits far below the other entries
    basis = SpectralBasis(lengths, m)
    ops = nlw.LinearOps(basis, 0.5, 1.0, NoiseModel.power_law(basis, 0.5, 2.5),
                        0.5 / np.sqrt(basis.eigenvalues[-1]))
    P, S = ops.P_half, ops.cov_half
    np.testing.assert_allclose(ops.P_full, P @ P, rtol=1e-12, atol=0)
    cov_full = ops.chol_full @ np.swapaxes(ops.chol_full, -1, -2)
    np.testing.assert_allclose(cov_full, P @ S @ np.swapaxes(P, -1, -2) + S,
                               rtol=1e-12, atol=0)


def test_equilibrium_fixed_point(basis16, noise16):
    # the origin is an equilibrium of the deterministic Klein-Gordon flow
    cfg = make_cfg(basis16, eps=0.0, horizon=2.0)
    nl = Nonlinearity.klein_gordon(1.0)
    traj = simulate(cfg, nl, noise16, PhaseState.zero(basis16, cfg.alpha))
    assert np.max(np.abs(traj.states)) < 1e-10


def test_determinism_and_zero_flow(basis16, noise16):
    cfg = make_cfg(basis16, horizon=1.0)
    nl = Nonlinearity.klein_gordon(1.0)
    y = smooth_state(basis16, alpha=cfg.alpha)
    t1 = simulate(cfg, nl, noise16, y)
    t2 = simulate(cfg, nl, noise16, y)
    assert np.array_equal(t1.states, t2.states)
    t3 = simulate(make_cfg(basis16, horizon=1.0, seed=8), nl, noise16, y)
    assert not np.array_equal(t1.states, t3.states)


def test_self_convergence_order_one(basis16):
    # strong error against a refined run decays at least linearly in dt
    nl = Nonlinearity.klein_gordon(1.0)
    noise = NoiseModel.power_law(basis16, amplitude=0.2, q=2.0)
    y = smooth_state(basis16)
    base_dt = 0.5 / np.sqrt(basis16.eigenvalues[-1])
    errs = []
    dts = [base_dt, base_dt / 2, base_dt / 4]
    # common noise: use the same seed and the finest grid as reference; the
    # exact convolution draws differ across dt, so compare noiseless runs
    for dt in dts:
        cfg = make_cfg(basis16, dt=dt, horizon=2.0, eps=0.0, stride=10 ** 9)
        ref = make_cfg(basis16, dt=dt / 10, horizon=2.0, eps=0.0, stride=10 ** 9)
        t1 = simulate(cfg, nl, noise, y)
        t2 = simulate(ref, nl, noise, y)
        errs.append(np.linalg.norm(t1.states[-1] - t2.states[-1]))
    rate = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert rate >= 1.0


def test_noise_variance_matches_convolution(basis16):
    # velocity variance injected over [0, t] with f = 0 vs the exact
    # stochastic convolution covariance of the linear SDE
    noise = NoiseModel.power_law(basis16, amplitude=0.5, q=2.0)
    cfg = make_cfg(basis16, horizon=1.0, eps=1.0, stride=10 ** 9, seed=3)
    nl = Nonlinearity.zero()
    res = run_flow(cfg, nl, noise, PhaseState.zero(basis16, cfg.alpha), n_traj=800)
    finals = res.final_states
    from wavemix.nlw import _van_loan_covariance, LinearOps
    ops = linear_ops(cfg, noise)
    cov_t = _van_loan_covariance(ops.A, cfg.n_steps * cfg.dt) * ops.sig2[:, None, None]
    for j in (0, 2, 6):
        sample_var = finals[:, 1, j].var(ddof=1)
        exact = cov_t[j, 1, 1]
        se = exact * math.sqrt(2.0 / (finals.shape[0] - 1))
        assert abs(sample_var - exact) < 3 * se


# -------------------------------------------------------------- diagnostics


def test_energy_audit_free_wave(basis16, noise16):
    cfg = make_cfg(basis16, eps=0.0, horizon=20.0, stride=4)
    nl = Nonlinearity.zero()
    y = smooth_state(basis16, alpha=cfg.alpha)
    traj = simulate(cfg, nl, noise16, y)
    audit = energy_audit(traj.t, traj.energy,
                         phase_norm_sq_arr(traj.states, basis16.eigenvalues, cfg.alpha),
                         cfg.alpha)
    # noiseless free wave: fitted decay rate at least alpha within 10%
    assert audit.decay_rate >= 0.9 * cfg.alpha
    assert audit.c_fit <= 1e-8 * traj.energy[0] + 1e-12
    assert audit.k_fit <= 1e-8


def test_energy_audit_zero_state(basis16, noise16):
    cfg = make_cfg(basis16, eps=0.0, horizon=1.0)
    traj = simulate(cfg, Nonlinearity.zero(), noise16, PhaseState.zero(basis16, cfg.alpha))
    assert np.all(traj.energy == 0)


def test_driven_mean_energy_bounded(basis16, noise16):
    cfg = make_cfg(basis16, horizon=30.0, stride=16, seed=5)
    nl = Nonlinearity.klein_gordon(1.0)
    energy_fn = make_energy_fn(basis16, nl, cfg.alpha)
    res = run_flow(cfg, nl, noise16, PhaseState.zero(basis16, cfg.alpha),
                   n_traj=100, probes={"energy": energy_fn})
    mean_E = res.probes["energy"].mean(axis=0)
    # ensemble mean energy stays bounded: second half below early max + margin
    assert mean_E[len(mean_E) // 2:].max() <= mean_E.max() * 1.5 + 1.0


def test_streams_are_independent_of_batching(basis16, noise16, monkeypatch):
    cfg = make_cfg(basis16, horizon=0.5, stride=2, seed=42)
    nl = Nonlinearity.klein_gordon(1.0)
    y0 = PhaseState.zero(basis16, cfg.alpha)
    monkeypatch.setattr(nlw, "_PATH_BLOCK", 2)
    a = run_flow(cfg, nl, noise16, y0, n_traj=5, return_states=True)
    # same layout, threaded: bit-identical
    c = run_flow(cfg, nl, noise16, y0, n_traj=5, threads=3, return_states=True)
    np.testing.assert_array_equal(a.states, c.states)
    # different batching only reorders BLAS reductions
    monkeypatch.setattr(nlw, "_PATH_BLOCK", 5)
    b = run_flow(cfg, nl, noise16, y0, n_traj=5, return_states=True)
    np.testing.assert_allclose(a.states, b.states, rtol=0, atol=1e-12)


@pytest.mark.parametrize("lengths, m", [((PI,), 32), ((PI, PI), 144)])
@pytest.mark.parametrize("threads", [1, 2])
def test_stacked_starts_equal_plain_runs_bitwise(lengths, m, threads):
    # path i runs from z and from z' on stream i; 130 paths span two path
    # blocks, and each start's path is the plain run from that start
    basis = SpectralBasis(lengths, m)
    noise = NoiseModel.power_law(basis, amplitude=0.25, q=2.0 if len(lengths) == 1 else 3.0)
    cfg = make_cfg(basis, horizon=8.5 * 0.5 / np.sqrt(basis.eigenvalues[-1]), stride=3)
    assert cfg.n_steps == 8
    nl = Nonlinearity.klein_gordon(1.0)
    z, zp = (smooth_state(basis, 0.8, seed, cfg.alpha) for seed in (1, 2))
    obs = default_observables(basis, cfg.alpha, (1, 2))
    stacked = run_flow(cfg, nl, noise, (z, zp), n_traj=130, threads=threads,
                       probes={f"{o.name}/{j}": (lambda o, j: lambda s: o(s[:, j]))(o, j)
                               for o in obs for j in range(2)})
    assert stacked.final_states.shape == (130, 2, 2, m)
    for j, y0 in enumerate((z, zp)):
        plain = run_flow(cfg, nl, noise, y0, n_traj=130, threads=threads,
                         probes={o.name: o for o in obs})
        assert np.array_equal(stacked.final_states[:, j], plain.final_states)
        for o in obs:
            assert np.array_equal(stacked.probes[f"{o.name}/{j}"], plain.probes[o.name])


def test_2d_rectangle_smoke():
    basis = SpectralBasis((np.pi, 1.5), 12)
    noise = NoiseModel.power_law(basis, amplitude=0.2, q=2.5)
    cfg = SimConfig(basis=basis, gamma=1.0,
                    dt=0.5 / np.sqrt(basis.eigenvalues[-1]), horizon=1.0,
                    seed=5, eps=1.0, stride=8)
    nl = Nonlinearity.klein_gordon(1.0)
    y0 = PhaseState.zero(basis, cfg.alpha)
    traj = simulate(cfg, nl, noise, y0)
    assert np.isfinite(traj.states).all()
    assert np.isfinite(traj.energy).all()


# ------------------------------------------------------------ per-mode kernel


def _einsum_modewise(mats, states):
    return np.einsum("jab,...bj->...aj", mats, states)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(2, 9), lead=st.lists(st.integers(1, 4), max_size=2),
       layout=st.sampled_from(["contiguous", "broadcast", "strided", "swapped"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_apply_modewise_matches_einsum_values_and_strides(m, lead, layout, seed):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((m, 2, 2))
    shape = tuple(lead) + (2, m)
    if layout == "contiguous":
        states = rng.standard_normal(shape)
    elif layout == "broadcast":
        states = np.broadcast_to(rng.standard_normal((2, m)), shape)
    elif layout == "strided":
        # a step's slice of a (batch, chunk, 2, 2, M) noise block
        states = rng.standard_normal(tuple(lead) + (3, 2, 2, m))[..., 1, 0, :, :]
    else:
        # the layout apply_modewise itself returns, fed back in by the stepper
        states = rng.standard_normal(tuple(lead) + (m, 2)).swapaxes(-1, -2)
    ref = _einsum_modewise(mats, states)
    out = apply_modewise(mats, states)
    assert np.array_equal(out, ref)
    assert out.strides == ref.strides


def test_apply_modewise_layout_feeds_girsanov_einsum_unchanged():
    # the Girsanov quadratic form reads apply_modewise output; its reduction
    # order follows the operand strides, so the layout must match einsum's
    rng = np.random.default_rng(3)
    m, nb, nf = 32, 64, 6
    mats = rng.standard_normal((m, 2, 2))
    noise = rng.standard_normal((nb, 5, 2, 2, m))[:, 2, 1]
    inv_cov = rng.standard_normal((nf, 2, 2))
    mv = rng.standard_normal((nb, 2, nf))
    quad = [np.einsum("naj,jab,nbj->n", mv, inv_cov, w[:, :, :nf])
            for w in (apply_modewise(mats, noise), _einsum_modewise(mats, noise))]
    assert np.array_equal(quad[0], quad[1])


def test_short_last_chunk_is_batching_invariant(basis16, noise16, monkeypatch):
    cfg = make_cfg(basis16, horizon=10.0, stride=50, seed=21)
    assert cfg.n_steps % 256 != 0 and cfg.n_steps > 256
    nl = Nonlinearity.klein_gordon(1.0)
    y0 = smooth_state(basis16, alpha=cfg.alpha)
    draws = []

    def counted_streams(seed, n, offset=0):
        gens = trajectory_streams(seed, n, offset)

        class Counted:
            def __init__(self, g):
                self.g = g

            def standard_normal(self, *args, **kwargs):
                out = self.g.standard_normal(*args, **kwargs)
                draws.append(out.size)
                return out
        return [Counted(g) for g in gens]

    monkeypatch.setattr(nlw, "trajectory_streams", counted_streams)
    n_traj = 7
    n_sync = len(stats.record_steps(cfg.n_steps, cfg.stride)) - 1
    finals = []
    for block in (128, 5):
        draws.clear()
        monkeypatch.setattr(nlw, "_PATH_BLOCK", block)
        finals.append(run_flow(cfg, nl, noise16, y0, n_traj=n_traj).final_states)
        # every stream draws exactly its steps' worth, short last chunk
        # included: one (2, M) increment per step and one more per recorded step
        assert sum(draws) == n_traj * (cfg.n_steps + n_sync) * 2 * basis16.mode_count
    np.testing.assert_array_equal(finals[0], finals[1])


# ------------------------------------------------------------ one Strang driver


def _per_step_reference(states, ops, xi, kick, n_steps):
    """Textbook Strang steps: every half-step draws its own increment."""
    seen = {}
    for s in range(1, n_steps + 1):
        states = (_einsum_modewise(ops.P_half, states)
                  + _einsum_modewise(ops.chol_half, xi[:, 2 * s - 2]))
        states[:, 1] += ops.dt * kick(states)
        states = (_einsum_modewise(ops.P_half, states)
                  + _einsum_modewise(ops.chol_half, xi[:, 2 * s - 1]))
        seen[s] = states
    return seen


def _merged_reference(states, ops, xi, kick, n_steps, sync, closing=None):
    """Strang steps whose half-steps merge into full steps between sync steps.

    ``closing``, when a list, receives each step's (close, closing increment).
    """
    seen = {}
    k = 0
    for s in range(1, n_steps + 1):
        if s == 1 or s - 1 in seen:
            states = (_einsum_modewise(ops.P_half, states)
                      + _einsum_modewise(ops.chol_half, xi[:, k]))
            k += 1
        states[:, 1] += ops.dt * kick(states)
        close = s in sync or s == n_steps
        P, L = (ops.P_half, ops.chol_half) if close else (ops.P_full, ops.chol_full)
        w = _einsum_modewise(L, xi[:, k])
        if closing is not None:
            closing.append((close, w))
        states = _einsum_modewise(P, states) + w
        k += 1
        if close:
            seen[s] = states
    assert k == xi.shape[1]
    return seen


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_steps=st.integers(1, 24), stride=st.integers(1, 6),
       n_paths=st.integers(1, 4), cap_steps=st.integers(1, 8))
def test_strang_drive_matches_textbook_loops_bitwise(n_steps, stride, n_paths, cap_steps):
    # _strang_drive syncs on the recording grid, and with stride 1 that is
    # every step
    basis = SpectralBasis((PI,), 8)
    dt = 0.5 / np.sqrt(basis.eigenvalues[-1])
    ops = nlw.LinearOps(basis, 0.5, 1.0, NoiseModel.power_law(basis, 0.5, 2.5), dt)
    kick_fn = nlw.make_kick_fn(basis, Nonlinearity.klein_gordon(1.0), np.zeros(8))
    kick = lambda st: kick_fn(st[:, 0, :])  # noqa: E731
    y0 = np.stack([smooth_state(basis, seed=i).as_array() for i in range(n_paths)])
    sync = stats.record_steps(n_steps, stride)
    seen = {}

    def on_step(step, states):
        seen[step] = states.copy()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nlw, "_NOISE_BLOCK_BYTES", cap_steps * 8 * n_paths * 4 * 8)
        final = nlw._strang_drive(y0.copy(), ops, trajectory_streams(3, n_paths), kick,
                                  n_steps, on_step, sync=sync)
    every = len(sync) == n_steps + 1
    n_inc = n_steps + (n_steps if every else len(sync) - 1)
    xi = np.stack([r.standard_normal((n_inc, 2, 8)) for r in trajectory_streams(3, n_paths)])
    ref = (_per_step_reference(y0.copy(), ops, xi, kick, n_steps) if every
           else _merged_reference(y0.copy(), ops, xi, kick, n_steps, sync))
    assert seen.keys() == ref.keys()
    for s in ref:
        assert np.array_equal(seen[s], ref[s]), s
    assert np.array_equal(final, ref[n_steps])


@pytest.mark.parametrize("n_steps, stride", [(1, 3), (7, 1), (13, 4), (20, 7)])
def test_strang_drive_mid_sees_each_closing_increment(n_steps, stride):
    # mid(w, close) runs on every step, before the closing step applies w:
    # close is false exactly on the merged steps, and w is that step's chol @ xi
    basis = SpectralBasis((PI,), 8)
    ops = nlw.LinearOps(basis, 0.5, 1.0, NoiseModel.power_law(basis, 0.5, 2.5),
                        0.5 / np.sqrt(basis.eigenvalues[-1]))
    kick_fn = nlw.make_kick_fn(basis, Nonlinearity.klein_gordon(1.0), np.zeros(8))
    kick = lambda st: kick_fn(st[:, 0, :])  # noqa: E731
    y0 = np.stack([smooth_state(basis, seed=i).as_array() for i in range(2)])
    sync = stats.record_steps(n_steps, stride)
    seen = []
    nlw._strang_drive(y0.copy(), ops, trajectory_streams(5, 2), kick, n_steps,
                      mid=lambda w, close: seen.append((close, w.copy())), sync=sync)
    xi = np.stack([r.standard_normal((n_steps + len(sync) - 1, 2, 8))
                   for r in trajectory_streams(5, 2)])
    ref = []
    _merged_reference(y0.copy(), ops, xi, kick, n_steps, sync, closing=ref)
    assert [c for c, _ in seen] == [s in sync for s in range(1, n_steps + 1)]
    assert [c for c, _ in seen] == [c for c, _ in ref]
    for (_, w), (_, w_ref) in zip(seen, ref):
        assert np.array_equal(w, w_ref)


def test_noiseless_merged_steps_match_per_step_run(basis16, noise16):
    # at eps = 0 both schemes are the deterministic splitting, and P_full is
    # P_half squared up to rounding
    cfg = make_cfg(basis16, eps=0.0, horizon=5.0, stride=8)
    nl = Nonlinearity.klein_gordon(1.0)
    y0 = smooth_state(basis16, alpha=cfg.alpha)
    merged = run_flow(cfg, nl, noise16, y0, return_states=True)
    # stride 1 syncs on every step: the per-step scheme, read at the stride-8 records
    every = run_flow(make_cfg(basis16, eps=0.0, horizon=5.0, stride=1), nl, noise16, y0,
                     return_states=True)
    per_step = every.states[0][list(stats.record_steps(cfg.n_steps, cfg.stride))]
    np.testing.assert_allclose(merged.states[0], per_step, rtol=0, atol=1e-12)
    assert not np.array_equal(merged.states[0], per_step)


def test_run_flow_nonfinite_start_raises_at_first_chunk(basis16, noise16):
    cfg = make_cfg(basis16, horizon=10.0, seed=9)
    assert cfg.n_steps > 256
    y = smooth_state(basis16, alpha=cfg.alpha)
    c1 = y.u1.coeffs.copy()
    c1[2] = np.nan
    bad = PhaseState.from_coeffs(basis16, c1, y.u2.coeffs, cfg.alpha)
    # the driver checks every 256-step chunk, so the run stops at t = 256 dt
    with np.errstate(invalid="ignore"), \
            pytest.raises(nlw.BlowupError, match=r"nonfinite state near t=8 "):
        run_flow(cfg, Nonlinearity.klein_gordon(1.0), noise16, bad)


def test_noise_block_cap_keeps_paths_bitwise(basis16, noise16, monkeypatch):
    cfg = make_cfg(basis16, horizon=2.0, seed=5)
    nl = Nonlinearity.klein_gordon(1.0)
    y0 = smooth_state(basis16, alpha=cfg.alpha)
    n_traj = 7
    chunks = []

    def recorded(rngs, buf, chunk):
        chunks.append(chunk)
        draw_normals(rngs, buf, chunk)

    monkeypatch.setattr(nlw, "draw_normals", recorded)
    # one (2, M) increment per step and one more per recorded step
    n_inc = cfg.n_steps + len(stats.record_steps(cfg.n_steps, cfg.stride)) - 1
    finals = [run_flow(cfg, nl, noise16, y0, n_traj=n_traj).final_states]
    assert cfg.n_steps <= 256 and chunks == [n_inc]
    # room for three steps of the (n_traj, 2, 2, M) normals
    chunks.clear()
    monkeypatch.setattr(nlw, "_NOISE_BLOCK_BYTES", 3 * 8 * n_traj * 4 * basis16.mode_count)
    finals.append(run_flow(cfg, nl, noise16, y0, n_traj=n_traj).final_states)
    assert len(chunks) == math.ceil(cfg.n_steps / 3) and sum(chunks) == n_inc
    assert np.array_equal(finals[0], finals[1])


def test_2d_kick_and_energy_bound_grid_temporaries():
    # 64 paths on (0, pi)^2 at M = 144: the grids (1.66 MB for all paths) are
    # built path block by path block, and the energy reduces each block to its
    # quadrature
    basis = SpectralBasis((PI, PI), 144)
    nl = Nonlinearity.klein_gordon(1.0)
    kick = nlw.make_kick_fn(basis, nl, np.zeros(basis.mode_count))
    energy_fn = make_energy_fn(basis, nl, 0.1)
    states = 0.1 * np.random.default_rng(3).standard_normal((64, 2, basis.mode_count))
    for call in (lambda: kick(states[:, 0, :]), lambda: energy_fn(states)):
        call()  # the basis builds its tables on first use
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_noiseless_simulate_draws_no_normals(basis16, noise16, monkeypatch):
    # eps = 0 zeroes every noise factor, so drawing normals would be wasted
    cfg = make_cfg(basis16, eps=0.0, horizon=1.0)
    chunks = []
    real = nlw.draw_normals

    def recorded(rngs, buf, chunk):
        chunks.append(chunk)
        real(rngs, buf, chunk)

    monkeypatch.setattr(nlw, "draw_normals", recorded)
    traj = simulate(cfg, Nonlinearity.klein_gordon(1.0), noise16,
                    smooth_state(basis16, alpha=cfg.alpha))
    assert chunks == []
    assert np.isfinite(traj.states).all()
