import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from wavemix import toys
from wavemix.nlw import BlowupError
from wavemix.rates import BoundaryChainConfig, boundary_chain
from wavemix.stats import record_steps
from wavemix.toys import (
    GradientSDE,
    OrnsteinUhlenbeck,
    builtin_cubic,
    builtin_doublewell,
    gradient_sde_exact_density,
    simulate_toy,
)


def test_cubic_potential_values():
    cubic = builtin_cubic()
    assert cubic.potential(0.0) == 0.0
    assert cubic.potential(1.0) == pytest.approx(5.0 / 12.0, rel=1e-12)
    assert cubic.potential(3.0) == pytest.approx(-9.0 / 4.0, rel=1e-12)
    assert cubic.potential(2.0) == pytest.approx(-2.0 / 3.0, rel=1e-12)


def test_cubic_equilibria():
    pts, stable = builtin_cubic().equilibria()
    np.testing.assert_allclose(pts, [0.0, 1.0, 3.0], atol=1e-9)
    np.testing.assert_array_equal(stable, [True, False, True])


def test_doublewell_barriers():
    dw = builtin_doublewell()
    assert dw.potential(1.0) == pytest.approx(0.25, rel=1e-12)
    assert dw.potential(0.0) == 0.0
    assert dw.potential(2.0) == pytest.approx(0.0, abs=1e-12)
    # barrier from either well is A(1) - A(well) = 1/4, energy cost 1/2
    assert 2 * (dw.potential(1.0) - dw.potential(0.0)) == pytest.approx(0.5)


def test_potential_derivative_matches_drift():
    # the construction-time check enforces A' = b to 1e-10 on a 1000-point grid;
    # cross-check here with an independent central difference
    for model in (builtin_cubic(), builtin_doublewell()):
        u = np.linspace(-5, 8, 100001)
        dA = np.gradient(model.potential(u), u)
        assert np.max(np.abs(dA[1:-1] - model.drift(u)[1:-1])) < 1e-4


_coeff = st.one_of(st.integers(-5, 5), st.just(0.0),
                   st.floats(-10.0, 10.0, allow_nan=False, width=64))
_point = st.one_of(st.integers(-50, 50), st.floats(-50.0, 50.0, allow_nan=False),
                   st.sampled_from([0.0, -0.0]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coeffs=st.lists(_coeff, min_size=1, max_size=6), lead_zeros=st.integers(0, 2),
       monic=st.booleans(), kind=st.sampled_from(["python", "0-d", "1-d", "n-d"]),
       points=st.lists(_point, min_size=1, max_size=12))
def test_horner_drift_matches_polyval(coeffs, lead_zeros, monic, kind, points):
    # zero leading (highest) powers, or a leading 1 that takes the monic start
    coeffs = coeffs + [0.0] * lead_zeros + [1.0] * monic
    model = GradientSDE(tuple(coeffs))
    if kind == "python":
        u = points[0]
    elif kind == "0-d":
        u = np.asarray(points[0])
    elif kind == "1-d":
        u = np.asarray(points)
    else:
        u = np.resize(np.asarray(points), (2, 3, 2))
    slopes = [k * c for k, c in enumerate(coeffs)][1:] or [0.0]
    curvs = [k * c for k, c in enumerate(slopes)][1:] or [0.0]
    for got, want in ((model.drift(u), np.polyval(list(reversed(coeffs)), u)),
                      (model.drift_prime(u), np.polyval(list(reversed(slopes)), u)),
                      (model.drift_second(u), np.polyval(list(reversed(curvs)), u))):
        assert type(got) is type(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    if monic and len(coeffs) > 1:
        # the monic start u + c1 equals the general u*1 + c1 bit for bit, signed
        # zeros and infinities included (where polyval's 0*inf gives nan)
        desc = model._b_desc
        assert desc[0] == 1
        v = np.asarray(points + [0.0, -0.0, math.inf, -math.inf], float)
        want = v * desc[0] + desc[1]
        for c in desc[2:]:
            want = want * v + c
        assert np.array_equal(model.drift(v).view(np.uint64), want.view(np.uint64))


def test_exact_density_gaussian():
    # A = u^2/2, eps = 1: density is N(0, 1/2); mu([-1,1]) = erf(1)
    model = GradientSDE((0.0, 1.0), name="quadratic")
    dens = gradient_sde_exact_density(model, eps=1.0)
    assert dens.measure(dens.grid[0], dens.grid[-1]) == pytest.approx(1.0, abs=1e-10)
    assert dens.measure(-1.0, 1.0) == pytest.approx(erf(1.0), abs=1e-6)


def test_exact_density_concentration():
    # mass near the global minimizer u = 3 grows to 1 as eps decreases
    cubic = builtin_cubic()
    masses = [gradient_sde_exact_density(cubic, eps).measure(2.9, 3.1)
              for eps in (0.1, 0.02, 0.005)]
    assert masses[0] < masses[1] < masses[2]
    assert masses[2] > 0.999


def test_nonintegrable_potential_rejected():
    inverted = GradientSDE((0.0, -1.0), name="inverted")
    with pytest.raises(ValueError):
        gradient_sde_exact_density(inverted, eps=0.5)


def test_toy_deterministic_at_equilibrium():
    cubic = builtin_cubic()
    t, paths, _ = simulate_toy(cubic, eps=0.0, dt=1e-3, horizon=1.0, seed=0, u0=3.0)
    assert np.max(np.abs(paths - 3.0)) < 1e-9


def _count_drift(monkeypatch, cls=GradientSDE):
    """Record the size of every ``cls.drift`` call; returns the record."""
    sizes, drift = [], cls.drift

    def counted(self, u):
        sizes.append(np.size(u))
        return drift(self, u)

    monkeypatch.setattr(cls, "drift", counted)
    return sizes


def test_nan_start_stops_in_first_chunk(monkeypatch):
    model = builtin_cubic()
    monkeypatch.setattr(toys, "_NOISE_BLOCK_BYTES", 8 * 3 * 4096)  # 4096-step chunks
    drift_sizes = _count_drift(monkeypatch)
    with pytest.raises(BlowupError, match=r"nonfinite toy state at t=0\.001 \(path 1\);"):
        simulate_toy(model, 0.1, dt=1e-3, horizon=12.288, seed=0,
                     n_traj=3, u0=np.array([0.0, np.nan, 0.0]))
    # the first 4096-step chunk ran on all paths; its check stopped the run
    assert drift_sizes == [3] * 4096


def test_noise_block_cap_keeps_paths_bitwise(monkeypatch):
    model = builtin_cubic()

    def run(u0):
        return simulate_toy(model, 0.1, dt=1e-3, horizon=1.0, seed=4,
                            n_traj=5, u0=u0, record_stride=7)

    full = run(0.5)
    monkeypatch.setattr(toys, "_NOISE_BLOCK_BYTES", 8 * 5 * 100)  # 100 steps
    capped = run(0.5)
    for a, b in zip(full, capped):
        assert np.array_equal(a, b)
    # the cap really shortened the chunk: a bad start stops after 100 steps
    drift_sizes = _count_drift(monkeypatch)
    with pytest.raises(BlowupError, match=r"at t=0\.001 \(path 2\);"):
        run(np.array([0.0, 0.0, np.nan, 0.0, 0.0]))
    assert drift_sizes == [5] * 100


def test_block_scaled_noise_matches_per_step_scaling(monkeypatch):
    # simulate_toy scales each noise block once per chunk; the reference loop
    # here scales each step's draws as it uses them, the same IEEE product.
    # A 64-step cap over 1000 steps leaves a short last chunk of 40 steps.
    model, eps, dt, seed, n_traj, stride = builtin_cubic(), 0.3, 1e-3, 9, 5, 7
    n_steps = 1000
    monkeypatch.setattr(toys, "_NOISE_BLOCK_BYTES", 8 * n_traj * 64)
    t, paths, ints = simulate_toy(model, eps, dt, n_steps * dt, seed, n_traj=n_traj,
                                  u0=0.5, record_stride=stride)

    xi = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=seed, spawn_key=()))).standard_normal((n_steps, n_traj))
    root_eps_dt = math.sqrt(eps * dt)
    u = np.full(n_traj, 0.5)
    acc, prev = np.zeros(n_traj), u
    want_paths, want_ints = [u], [acc.copy()]
    for s in range(n_steps):
        u = u - model.drift(u) * dt + root_eps_dt * xi[s]
        acc += 0.5 * dt * (prev + u)
        prev = u
        if (s + 1) % stride == 0 or s + 1 == n_steps:
            want_paths.append(u)
            want_ints.append(acc.copy())
    assert np.array_equal(t, np.array(list(range(0, n_steps, stride)) + [n_steps]) * dt)
    assert np.array_equal(paths, np.array(want_paths).T)
    assert np.array_equal(ints, np.array(want_ints).T)


def test_drift_runs_once_per_step_on_all_paths(monkeypatch):
    # perfbench counts toy path-steps through the drift, so every engine calls
    # it once per step on all paths; 64-step chunks leave a last one of 58
    cubic, dw, ou = builtin_cubic(), builtin_doublewell(), OrnsteinUhlenbeck()
    monkeypatch.setattr(toys, "_NOISE_BLOCK_BYTES", 8 * 5 * 64)
    gradient_sizes = _count_drift(monkeypatch, GradientSDE)
    ou_sizes = _count_drift(monkeypatch, OrnsteinUhlenbeck)
    simulate_toy(cubic, 0.1, dt=1e-3, horizon=0.25, seed=0, n_traj=5)
    assert gradient_sizes == [5] * 250
    simulate_toy(ou, ou.eps, dt=1e-3, horizon=0.25, seed=0, n_traj=5, record_stride=9)
    assert ou_sizes == [5] * 250
    gradient_sizes.clear()
    boundary_chain(dw, BoundaryChainConfig(), eps=1.0, seed=0, n_replicas=5,
                   horizon_per_replica=0.25)
    assert gradient_sizes == [5] * 250


def _simulate_toy_before_driver(model, eps, dt, horizon, seed, n_traj=1, u0=None,
                                record_stride=1, integrand=None, stream=()):
    """``simulate_toy`` as it was before the shared driver, verbatim: one
    step-major (chunk, n_traj) block of at most 4096 steps under a 4 MiB cap."""
    if eps is None:
        if not isinstance(model, OrnsteinUhlenbeck):
            raise ValueError("eps is required for gradient toys")
        eps = model.eps
    n_steps = max(int(round(horizon / dt)), 1)
    rec = record_steps(n_steps, record_stride)
    t = np.array(list(rec)) * dt

    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=stream)))
    if u0 is None:
        u = np.zeros(n_traj)
    else:
        u = np.broadcast_to(np.asarray(u0, float), (n_traj,)).copy()
    out = np.empty((n_traj, len(rec)))
    out[:, 0] = u
    acc = np.zeros(n_traj)
    prev = integrand(u) if integrand is not None else None
    out_int = np.empty((n_traj, len(rec))) if integrand is not None else None
    if out_int is not None:
        out_int[:, 0] = 0.0
    root_eps_dt = math.sqrt(eps * dt)
    chunk = max(min(4096, n_steps, (4 << 20) // (8 * max(n_traj, 1))), 1)
    block = np.empty((chunk, n_traj))
    step = 0
    while step < n_steps:
        k = min(chunk, n_steps - step)
        xi = block[:k]
        rng.standard_normal(out=xi)
        xi *= root_eps_dt
        for s in range(k):
            u = u - model.drift(u) * dt + xi[s]
            if integrand is not None:
                cur = integrand(u)
                acc += 0.5 * dt * (prev + cur)
                prev = cur
            idx = rec.get(step + s + 1)
            if idx is not None:
                out[:, idx] = u
                if out_int is not None:
                    out_int[:, idx] = acc
        step += k
        if not np.isfinite(u).all():
            bad = np.flatnonzero(~np.isfinite(u))[:4]
            raise BlowupError(f"nonfinite toy state near t={step * dt:.4g} "
                              f"(paths {bad}); decrease dt")
    return t, out, out_int


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ou=st.booleans(), n_traj=st.integers(0, 6), n_steps=st.integers(1, 300),
       stride=st.integers(1, 40), cap_steps=st.integers(1, 64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_simulate_toy_matches_loop_before_driver_bitwise(ou, n_traj, n_steps, stride,
                                                         cap_steps, seed):
    # the integral's last state is a row of the noise block the next chunk
    # overwrites, so the trapezoid must not read it back
    model, eps = (OrnsteinUhlenbeck(1.5, 0.8), 0.8 ** 2) if ou else (builtin_cubic(), 0.4)
    args = (model, eps, 0.01, n_steps * 0.01, seed)
    kwargs = dict(n_traj=n_traj, u0=np.linspace(-0.5, 3.5, n_traj), record_stride=stride,
                  stream=(seed % 3,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toys, "_NOISE_BLOCK_BYTES", 8 * n_traj * cap_steps)
        got = simulate_toy(*args, **kwargs)
    want = _simulate_toy_before_driver(*args, **kwargs, integrand=lambda u: u)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_ou_stationary_variance():
    ou = OrnsteinUhlenbeck(1.0, 1.0)
    t, paths, _ = simulate_toy(ou, ou.eps, dt=0.01, horizon=200.0, seed=1,
                               n_traj=64, record_stride=100)
    tail = paths[:, t > 20]
    var = tail.var()
    n_eff = tail.size / 200  # ~2 units of correlation time per sample
    se = ou.stationary_var * math.sqrt(2 / n_eff)
    assert abs(var - ou.stationary_var) < 3 * se + 0.01


def test_gradient_histogram_matches_density():
    cubic = builtin_cubic()
    eps = 0.5
    t, paths, _ = simulate_toy(cubic, eps, dt=2e-3, horizon=150.0, seed=2,
                               n_traj=16, record_stride=50)
    samples = paths[:, t > 25].ravel()
    dens = gradient_sde_exact_density(cubic, eps)
    edges = np.linspace(-0.8, 4.0, 13)
    counts, _ = np.histogram(samples, edges)
    probs = np.array([dens.measure(a, b) for a, b in zip(edges[:-1], edges[1:])])
    # drop near-empty tail bins, which destabilize the statistic
    keep = probs > 0.01
    counts, probs = counts[keep], probs[keep]
    probs /= probs.sum()
    n = counts.sum()
    # correlation-time correction: roughly one independent sample per 4 units
    n_eff = n * 0.1 / 4.0
    chi2 = np.sum((counts / n - probs) ** 2 / probs) * n_eff
    from scipy.stats import chi2 as chi2_dist
    assert chi2 < chi2_dist.ppf(0.99, keep.sum() - 1)
