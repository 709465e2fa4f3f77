import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wavemix.rates as rates_module
from wavemix import newton, toys
from wavemix.nlw import BlowupError, NoiseModel, Nonlinearity
from wavemix.rates import (
    BoundaryChainConfig,
    EquilibriumNetwork,
    _first_passages,
    _nlw_action_and_grad,
    _nlw_hessian,
    _toy_action_and_grad,
    _toy_hessian,
    action_value,
    boundary_chain,
    fw_rate,
    gradient_rate_oracle,
    linear_wave_oracle,
    nlw_quasipotential,
    smallnoise_stationary_probe,
    toy_equilibrium_network,
    toy_quasipotential,
    toy_quasipotential_oracle,
    w_graph_bruteforce,
    w_graph_weights,
)
from wavemix.spectral import Field, PhaseState, SpectralBasis
from wavemix.toys import GradientSDE, builtin_cubic, builtin_doublewell

PI = np.pi


# ------------------------------------------------------------ action


def test_action_zero_control():
    t = np.linspace(0, 3, 31)
    assert action_value(t, np.zeros(31)) == 0.0


# ------------------------------------------------------------ toy oracles


def test_gradient_rate_oracle_cubic():
    cubic = builtin_cubic()
    assert gradient_rate_oracle(cubic, 3.0) == pytest.approx(0.0, abs=1e-9)
    assert gradient_rate_oracle(cubic, 0.0) == pytest.approx(4.5, rel=1e-9)
    assert gradient_rate_oracle(cubic, 1.0) == pytest.approx(
        2 * (5.0 / 12.0 + 9.0 / 4.0), rel=1e-9)


def test_gradient_rate_oracle_needs_bounded_potential():
    # A = -u^2/2 and A = u^3/3 + u have no minimum; a zero drift is flat
    for coeffs in [(0.0, -1.0), (1.0, 0.0, 1.0), (0.0, 1.0, 0.0, -2.0, 0.0)]:
        with pytest.raises(ValueError, match="not bounded below"):
            gradient_rate_oracle(GradientSDE(coeffs), 0.0)
    assert gradient_rate_oracle(GradientSDE((0.0, 0.0)), 1.5) == 0.0
    # the OU potential u^2/2 with a trailing zero coefficient
    assert gradient_rate_oracle(GradientSDE((0.0, 1.0, 0.0)), 2.0) == pytest.approx(4.0)


def test_toy_quasipotential_oracle_values():
    cubic = builtin_cubic()
    assert toy_quasipotential_oracle(cubic, 0.0, 3.0) == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert toy_quasipotential_oracle(cubic, 3.0, 0.0) == pytest.approx(16.0 / 3.0, rel=1e-14)
    assert toy_quasipotential_oracle(cubic, 1.0, 1.0) == 0.0


def test_toy_solver_matches_oracle():
    cubic = builtin_cubic()
    up = toy_quasipotential(cubic, 0.0, 3.0)
    assert up.converged
    assert up.value == pytest.approx(5.0 / 6.0, rel=0.05)
    down = toy_quasipotential(cubic, 3.0, 0.0)
    assert down.converged
    assert down.value == pytest.approx(16.0 / 3.0, rel=0.05)


def test_toy_solver_same_point():
    cubic = builtin_cubic()
    res = toy_quasipotential(cubic, 1.5, 1.5, horizons=(2.0,))
    assert res.value == pytest.approx(0.0, abs=1e-6)


def test_toy_superadditivity():
    cubic = builtin_cubic()
    v02 = toy_quasipotential(cubic, 0.0, 2.0).value
    v23 = toy_quasipotential(cubic, 2.0, 3.0).value
    v03 = toy_quasipotential(cubic, 0.0, 3.0).value
    assert v03 <= v02 + v23 + 0.05


_ends = st.floats(-1.5, 3.5, allow_nan=False)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(model=st.sampled_from([builtin_cubic(), builtin_doublewell()]),
       path=st.lists(_ends, min_size=2, max_size=12), z1=_ends, z2=_ends,
       dt=st.floats(0.02, 0.5))
def test_toy_hessian_is_the_jacobian_of_the_gradient(model, path, z1, z2, dt):
    x = np.array(path)
    args = (model, z1, z2, dt)
    ab = _toy_hessian(x, *args)
    H = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[0, 1:], -1)
    h = 1e-6
    fd = np.empty_like(H)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fd[:, j] = (_toy_action_and_grad(x + e, *args)[1]
                    - _toy_action_and_grad(x - e, *args)[1]) / (2 * h)
    # gradient roundoff scales with its row
    scale = 1.0 + np.abs(H).max(axis=1, keepdims=True)
    assert np.all(np.abs(fd - H) <= 1e-6 * scale)


def test_toy_solver_ends_every_solve_on_its_stopping_rule(monkeypatch):
    solves = []
    real = rates_module.minimize

    def record(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(rates_module, "minimize", record)
    res = toy_quasipotential(builtin_cubic(), 0.0, 3.0)
    assert len(solves) == 4                      # one solve per horizon
    for s in solves:
        assert s.status == 0 and s.success, s.message
    assert res.converged and res.horizon == 16.0
    assert res.grad_norm == np.max(np.abs(solves[-1].jac))
    assert math.isfinite(res.grad_norm)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(2, 700), seed=st.integers(0, 2 ** 32 - 1),
       dominant=st.booleans(), damped=st.booleans(),
       log_scale=st.floats(-6.0, 6.0))
@example(n=2, seed=0, dominant=True, damped=False, log_scale=0.0)
@example(n=3, seed=1, dominant=True, damped=True, log_scale=0.0)
@example(n=699, seed=2, dominant=False, damped=True, log_scale=0.0)
@example(n=700, seed=3, dominant=False, damped=False, log_scale=0.0)
def test_tridiagonal_solve_matches_scipy(n, seed, dominant, damped, log_scale):
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(seed)
    ab = np.zeros((2, n))
    ab[0, 1:] = rng.standard_normal(n - 1)
    if dominant:   # strictly diagonally dominant, so positive definite
        off = np.abs(ab[0])
        ab[1] = off + np.append(off[1:], 0.0) + rng.uniform(0.01, 2.0, n)
    else:          # often indefinite further down the factorization
        ab[1] = rng.uniform(-0.5, 3.0, n)
    ab *= 10.0 ** log_scale
    b = rng.standard_normal(n)
    damping = rng.uniform(0.0, 1.0, n) * 10.0 ** log_scale if damped else None
    full = ab.copy()
    if damped:
        full[1] += damping
    try:
        ref = linalg.solveh_banded(full, b)
    except np.linalg.LinAlgError:
        ref = None
    got = newton.tridiagonal_solve(ab, b, damping)
    if ref is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, ref)


def test_tridiagonal_solve_flags_indefinite_and_nonfinite():
    linalg = pytest.importorskip("scipy.linalg")
    ab = np.array([[0.0, 2.0], [1.0, 1.0]])      # [[1, 2], [2, 1]]
    with pytest.raises(np.linalg.LinAlgError):
        linalg.solveh_banded(ab, np.ones(2))
    assert newton.tridiagonal_solve(ab, np.ones(2)) is None
    spd = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0]])
    for H, g, damping in ((spd, np.array([1.0, np.nan, 1.0]), None),
                          (spd, np.array([1.0, 1.0, np.inf]), None),
                          (np.where(spd == 4.0, np.inf, spd), np.ones(3), None),
                          (spd, np.ones(3), np.array([0.0, np.nan, 0.0]))):
        with pytest.raises(ValueError):
            newton.tridiagonal_solve(H, g, damping)


def _block_banded(A, m):
    """Upper block-banded form (3, n, m, m) of a dense block-pentadiagonal A."""
    n = A.shape[0] // m
    ab = np.zeros((3, n, m, m))
    for j in range(n):
        for r, i in ((2, j), (1, j - 1), (0, j - 2)):
            if i >= 0:
                ab[r, j] = A[i * m:(i + 1) * m, j * m:(j + 1) * m]
    return ab


def _dense(ab):
    """The dense symmetric matrix of an upper block-banded form."""
    n, m = ab.shape[1], ab.shape[-1]
    A = np.zeros((n * m, n * m))
    for j in range(n):
        for r, i in ((2, j), (1, j - 1), (0, j - 2)):
            if i >= 0:
                A[i * m:(i + 1) * m, j * m:(j + 1) * m] = ab[r, j]
                A[j * m:(j + 1) * m, i * m:(i + 1) * m] = ab[r, j].T
    return A


def _block_pentadiagonal_spd(n, m, rng):
    """J^T J for a random block-tridiagonal J: SPD and block-pentadiagonal."""
    J = rng.standard_normal((n * m, n * m))
    node = np.arange(n * m) // m
    J[np.abs(node[:, None] - node[None, :]) > 1] = 0.0
    return J.T @ J + 0.1 * np.eye(n * m)


@pytest.mark.parametrize("n", [5, 6])
def test_block_banded_solve_matches_dense(n):
    rng = np.random.default_rng(n)
    m = 3
    A = _block_pentadiagonal_spd(n, m, rng)
    ab = _block_banded(A, m)
    assert np.array_equal(_dense(ab), A)
    b = rng.standard_normal(n * m)
    for damping in (None, rng.uniform(0.0, 2.0, n * m)):
        full = A if damping is None else A + np.diag(damping)
        ref = np.linalg.solve(full, b)
        got = newton.block_banded_solve(ab, b, damping)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_block_banded_solve_flags_indefinite_and_nonfinite():
    rng = np.random.default_rng(7)
    m, n = 2, 5
    A = _block_pentadiagonal_spd(n, m, rng)
    shift = np.linalg.eigvalsh(A)[1]             # two eigenvalues fall below 0
    ab = _block_banded(A - shift * np.eye(n * m), m)
    b = rng.standard_normal(n * m)
    assert newton.block_banded_solve(ab, b) is None
    damping = np.full(n * m, 2 * shift)          # positive definite again
    ref = np.linalg.solve(A + shift * np.eye(n * m), b)
    got = newton.block_banded_solve(ab, b, damping)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    spd = _block_banded(A, m)
    bad_ab = spd.copy()
    bad_ab[1, 3, 0, 1] = np.inf
    for H, g, d in ((spd, np.where(np.arange(n * m) == 4, np.nan, b), None),
                    (bad_ab, b, None),
                    (spd, b, np.where(np.arange(n * m) == 2, np.nan, 1.0))):
        with pytest.raises(ValueError):
            newton.block_banded_solve(H, g, d)


def test_nlw_hessian_is_exact_at_f_zero():
    # at f = 0 the action is quadratic and its Gauss-Newton Hessian exact
    basis = SpectralBasis((PI,), 3)
    rng = np.random.default_rng(3)
    K, m = 9, 3
    dt = 2.0 / K
    args = (0.1 * rng.standard_normal(m), 0.1 * rng.standard_normal(m),
            rng.standard_normal(m), 0.1 * rng.standard_normal(m),
            basis.eigenvalues, 1.0, rng.uniform(1.0, 20.0, m),
            Nonlinearity.zero(), basis, 0.1 * rng.standard_normal(m), dt, K, m)
    x = rng.standard_normal((K - 3) * m)
    H = _dense(_nlw_hessian(x, *args))
    h = 1e-5
    fd = np.empty_like(H)
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        fd[:, j] = (_nlw_action_and_grad(x + e, *args)[1]
                    - _nlw_action_and_grad(x - e, *args)[1]) / (2 * h)
    scale = 1.0 + np.abs(H).max(axis=1, keepdims=True)
    assert np.all(np.abs(fd - H) <= 1e-6 * scale)


def test_newton_raises_on_a_nan_gradient():
    # a NaN must not read as an indefinite Hessian (status 2); it aborts
    def fun(x):
        return float(x @ x), np.where(x > 0.5, np.nan, 2 * x)

    def hess(x):
        return np.array([[0.0, 0.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        newton.minimize(fun, np.array([1.0, 0.0]), hess=hess)
    res = newton.minimize(fun, np.array([0.25, 0.0]), hess=hess)
    assert res.success and np.abs(res.x).max() < 1e-6


# ------------------------------------------------------------ equilibria


def test_toy_network():
    net = toy_equilibrium_network(builtin_cubic())
    np.testing.assert_allclose(net.points, [0.0, 1.0, 3.0], atol=1e-9)
    np.testing.assert_array_equal(net.stable, [True, False, True])
    assert net.V[0, 2] == pytest.approx(5.0 / 6.0, rel=1e-6)
    assert net.V[2, 0] == pytest.approx(16.0 / 3.0, rel=1e-6)


# ------------------------------------------------------------ W-graphs, rate


def test_w_graph_two_nodes():
    cubic = builtin_cubic()
    net = toy_equilibrium_network(cubic).restrict_to_stable()
    W = w_graph_weights(net)
    # W(0) = V(3 -> 0), W(3) = V(0 -> 3)
    assert W[0] == pytest.approx(16.0 / 3.0, rel=1e-6)
    assert W[1] == pytest.approx(5.0 / 6.0, rel=1e-6)


def test_w_graph_single_node():
    net = EquilibriumNetwork("x", [0.0], np.array([True]), np.zeros((1, 1)))
    assert w_graph_weights(net)[0] == 0.0


def test_w_graph_edmonds_equals_bruteforce():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = 5
        V = rng.uniform(0.1, 3.0, (n, n))
        np.fill_diagonal(V, 0.0)
        if trial % 7 == 0:
            V[rng.integers(n), rng.integers(n)] = math.inf
            np.fill_diagonal(V, 0.0)
        net = EquilibriumNetwork("rand", list(range(n)), np.ones(n, bool), V)
        W = w_graph_weights(net)
        for i in range(n):
            assert W[i] == pytest.approx(w_graph_bruteforce(V, i), rel=1e-12) or \
                (math.isinf(W[i]) and math.isinf(w_graph_bruteforce(V, i)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 6).flatmap(lambda n: st.lists(
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.25, math.inf]),
    min_size=n * n, max_size=n * n)))
def test_w_graph_weights_match_bruteforce(costs):
    # few distinct costs give ties and nested cycle contractions; inf entries
    # are absent arrows and can leave a root unreachable
    n = math.isqrt(len(costs))
    V = np.array(costs).reshape(n, n)
    np.fill_diagonal(V, 0.0)
    W = w_graph_weights(EquilibriumNetwork("rand", list(range(n)), np.ones(n, bool), V))
    for i in range(n):
        ref = w_graph_bruteforce(V, i)
        assert W[i] == ref or W[i] == pytest.approx(ref, rel=1e-12)


def test_fw_rate_cubic():
    cubic = builtin_cubic()
    net = toy_equilibrium_network(cubic)
    # node queries: V entries from the oracle
    q3 = fw_rate(net, net.V[net.stable, 2])
    assert q3 == pytest.approx(0.0, abs=1e-9)
    q0 = fw_rate(net, net.V[net.stable, 0])
    assert q0 == pytest.approx(4.5, rel=1e-6)
    # cross-oracle: the gradient formula gives the same value
    assert gradient_rate_oracle(cubic, 0.0) == pytest.approx(q0, rel=1e-6)


def test_fw_rate_arbitrary_point():
    cubic = builtin_cubic()
    net = toy_equilibrium_network(cubic)
    u = 2.0
    stable_pts = [p for p, s in zip(net.points, net.stable) if s]
    v_vec = [toy_quasipotential_oracle(cubic, p, u) for p in stable_pts]
    q = fw_rate(net, v_to_point=v_vec)
    assert q == pytest.approx(gradient_rate_oracle(cubic, u), rel=1e-6)
    assert q >= 0


def test_fw_rate_random_points_match_gradient_oracle():
    cubic = builtin_cubic()
    net = toy_equilibrium_network(cubic)
    stable_pts = [p for p, s in zip(net.points, net.stable) if s]
    rng = np.random.default_rng(7)
    us = rng.uniform(-0.5, 3.5, 20)
    columns = np.array([[toy_quasipotential_oracle(cubic, p, u) for u in us]
                        for p in stable_pts])
    singles = []
    for u, v_vec in zip(us, columns.T):
        q = fw_rate(net, v_to_point=v_vec)
        assert q == pytest.approx(gradient_rate_oracle(cubic, u),
                                  rel=0.05, abs=1e-6)
        singles.append(q)
    # all points as columns of one call: the per-point rates, bit for bit
    assert fw_rate(net, columns).tolist() == singles
    # the oracle on an array is the oracle at each point, bit for bit
    assert gradient_rate_oracle(cubic, us).tolist() == [
        gradient_rate_oracle(cubic, u) for u in us]


def test_network_json_roundtrip():
    net = toy_equilibrium_network(builtin_cubic())
    V = net.V.copy()
    V[0, 1] = math.inf
    net2 = EquilibriumNetwork(net.kind, net.points, net.stable, V)
    d = net2.to_json_dict()
    assert d["V"][0][1] is None
    assert d["V"][2][0] == V[2, 0]


# ------------------------------------------------------------ NLW solver


@pytest.fixture(scope="module")
def nlw_setup():
    basis = SpectralBasis((PI,), 8)
    nl = Nonlinearity.klein_gordon(1.0)
    noise = NoiseModel.power_law(basis, amplitude=0.5, q=2.0)
    return basis, nl, noise


def test_nlw_quasipotential_same_point(nlw_setup):
    basis, nl, noise = nlw_setup
    alpha = 0.25
    z = PhaseState.zero(basis, alpha)
    res = nlw_quasipotential(basis, nl, 1.0, noise, z, z, horizons=(2.0,))
    assert res.value == pytest.approx(0.0, abs=1e-8)
    assert res.converged


def test_nlw_quasipotential_linear_exact(nlw_setup):
    # free wave with single-mode noise target: compare against the cheapest
    # constant-in-time control reaching a nearby state (upper bound sanity)
    basis, nl, noise = nlw_setup
    alpha = 0.25
    z1 = PhaseState.zero(basis, alpha)
    z2 = PhaseState(Field.from_mode(basis, 1, 0.25), Field.zero(basis), alpha)
    res = nlw_quasipotential(basis, Nonlinearity.zero(), 1.0, noise, z1, z2,
                             horizons=(4.0, 8.0))
    assert res.converged
    assert 0 < res.value < 10.0


@pytest.mark.parametrize("T", [4.0, 8.0])
def test_nlw_quasipotential_linear_oracle(nlw_setup, T):
    # at f = 0 the modes decouple, and the minimal action is the Gramian
    # form; the target is the CLI's, 3 in the first mode
    basis, _, noise = nlw_setup
    alpha = 0.25
    z1 = PhaseState.zero(basis, alpha)
    z2 = PhaseState(Field.from_mode(basis, 1, 3.0), Field.zero(basis), alpha)
    res = nlw_quasipotential(basis, Nonlinearity.zero(), 1.0, noise, z1, z2,
                             horizons=(T,))
    assert res.converged and res.horizon == T
    oracle = linear_wave_oracle(basis, 1.0, noise, z2, T)
    assert abs(res.value - oracle) <= 1e-3 * oracle


@pytest.mark.parametrize("target, T", [((0, 0, 0, 0.1), 4.0), ((0, 0, 0, 0.1), 8.0),
                                       ((1.0, -0.5), 8.0)])
def test_nlw_quasipotential_does_not_undercut_the_linear_oracle(nlw_setup, target, T):
    # the path ends on the target state itself, so the collocated action
    # cannot fall below the exact minimum by stopping short of it
    basis, _, noise = nlw_setup
    alpha = 0.25
    c = np.zeros(basis.mode_count)
    c[:len(target)] = target
    z2 = PhaseState.from_coeffs(basis, c, np.zeros(basis.mode_count), alpha)
    res = nlw_quasipotential(basis, Nonlinearity.zero(), 1.0, noise,
                             PhaseState.zero(basis, alpha), z2, horizons=(T,))
    assert res.converged and res.horizon == T
    excess = res.value / linear_wave_oracle(basis, 1.0, noise, z2, T) - 1
    assert 0 <= excess <= 1e-3


@pytest.mark.parametrize("rho, a", [(1.0, 0.5), (1.9, 1.0)])
def test_nlw_quasipotential_gibbs_oracle(monkeypatch, rho, a):
    # uniform noise b: V_T >= (2 gamma / b^2) (U(z) - U(0)), with equality as
    # T grows; at T = 8 the finite-horizon excess is about 6e-4
    solves = []
    real = rates_module.minimize

    def record(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(rates_module, "minimize", record)
    basis = SpectralBasis((PI,), 8)
    nl = Nonlinearity.klein_gordon(rho)
    c = np.zeros(8)
    c[0] = a
    gibbs = 2.0 * (0.5 * basis.eigenvalues[0] * a ** 2 + float(basis.integrate(nl.F, c)))
    alpha = 0.25
    res = nlw_quasipotential(basis, nl, 1.0, NoiseModel(basis, np.ones(8)),
                             PhaseState.zero(basis, alpha),
                             PhaseState.from_coeffs(basis, c, np.zeros(8), alpha),
                             horizons=(8.0,))
    assert len(solves) == 1 and all(s.status == 0 for s in solves)
    assert res.converged
    assert -1e-4 <= res.value / gibbs - 1 <= 2e-3


def test_nlw_quasipotential_noise_cutoff():
    # modes 3 and 4 carry no noise: a target in mode 1 costs a finite action;
    # at f = 0 nothing couples mode 3 to the noise, so its target costs inf
    basis = SpectralBasis((PI,), 4)
    noise = NoiseModel.power_law(basis, amplitude=0.25, q=2.0, cutoff=2)
    alpha = 0.25
    z1 = PhaseState.zero(basis, alpha)
    live = nlw_quasipotential(basis, Nonlinearity.klein_gordon(1.0), 1.0, noise, z1,
                              PhaseState(Field.from_mode(basis, 1, 0.5),
                                         Field.zero(basis), alpha),
                              horizons=(8.0,))
    assert live.converged and math.isfinite(live.value) and live.value > 0
    dead = nlw_quasipotential(basis, Nonlinearity.zero(), 1.0, noise, z1,
                              PhaseState(Field.from_mode(basis, 3, 0.3),
                                         Field.zero(basis), alpha),
                              horizons=(8.0,))
    assert dead.value == math.inf


def test_nlw_quasipotential_nonlinear_runs(nlw_setup):
    basis, nl, noise = nlw_setup
    alpha = 0.25
    z1 = PhaseState.zero(basis, alpha)
    z2 = PhaseState(Field.from_mode(basis, 1, 0.3), Field.zero(basis), alpha)
    res = nlw_quasipotential(basis, nl, 1.0, noise, z1, z2,
                             horizons=(4.0,))
    assert res.converged
    assert np.isfinite(res.value)


# ------------------------------------------------------------ small noise


def test_smallnoise_exact_cubic():
    cubic = builtin_cubic()
    rep = smallnoise_stationary_probe(cubic, [1e-3], [(2.9, 3.1), (-0.1, 0.1)],
                                      mode="exact")
    assert abs(rep.eps_log_mu[0, 0] - 0.0) <= 0.02
    assert abs(rep.eps_log_mu[1, 0] - (-4.5)) <= 0.02
    np.testing.assert_allclose(rep.targets, [0.0, -4.5], atol=1e-4)
    assert rep.stable_mass[0] > 0.999


def test_smallnoise_exact_concentration_ladder():
    cubic = builtin_cubic()
    rep = smallnoise_stationary_probe(cubic, [0.05, 0.02, 0.01],
                                      [(2.9, 3.1)], mode="exact")
    assert np.all(np.diff(rep.stable_mass) >= -1e-12)


def test_smallnoise_mc_cubic_window():
    cubic = builtin_cubic()
    rep = smallnoise_stationary_probe(cubic, [0.5, 0.35, 0.25], [(2.0, 2.5)],
                                      mode="mc", seed=11)
    assert not rep.inconclusive
    assert rep.agreement_ok
    target = rep.targets[0]
    # oracle target: -inf over [2, 2.5] of the rate, attained at u = 2.5
    assert target == pytest.approx(-107.0 / 96.0, rel=1e-6)
    assert rep.intercepts[0] == pytest.approx(target, rel=0.2)


def test_smallnoise_mc_undersampling_refusal():
    cubic = builtin_cubic()
    rep = smallnoise_stationary_probe(cubic, [0.05], [(1.9, 2.1)], mode="mc",
                                      seed=12, horizon=50.0)
    assert rep.inconclusive


def test_smallnoise_mc_streams_distinct(monkeypatch):
    # seed + 101*run + ei collided from 101 eps values on
    calls = []
    real = rates_module.simulate_toy

    def recording(*args, **kwargs):
        calls.append((args[4], kwargs.get("stream", ())))
        return real(*args, **kwargs)

    monkeypatch.setattr(rates_module, "simulate_toy", recording)
    eps_list = np.linspace(0.5, 0.2, 102)
    smallnoise_stationary_probe(builtin_cubic(), eps_list, [(2.0, 2.5)], mode="mc",
                                seed=3, horizon=0.02)
    assert len(calls) == 2 * eps_list.size
    assert len(set(calls)) == len(calls)


# ------------------------------------------------------------ boundary chain


def test_boundary_chain_radii_validation():
    with pytest.raises(ValueError):
        BoundaryChainConfig(rho1=0.4, rho0=0.3)
    with pytest.raises(ValueError):
        BoundaryChainConfig(rho1=0.0, rho0=0.3)
    # the double well's nodes 0 and 2 are 2 apart: rho0-neighborhoods of
    # radius 1 touch, and the chain refuses them before any path runs
    with pytest.raises(ValueError, match="half the smallest gap"):
        boundary_chain(builtin_doublewell(), BoundaryChainConfig(rho1=0.5, rho0=1.0),
                       eps=0.1, n_replicas=0)


def test_boundary_chain_large_eps_visits_everything():
    dw = builtin_doublewell()
    bc = BoundaryChainConfig()
    rep = boundary_chain(dw, bc, eps=1.0, seed=1, n_replicas=16,
                         horizon_per_replica=40.0)
    assert rep.counts.sum() > 0
    rows = rep.probabilities.sum(axis=1)
    np.testing.assert_allclose(rows[np.isfinite(rows)], 1.0, atol=1e-9)
    assert (rep.counts > 0).all()
    # golden counts of the original per-replica scan: 40 000 steps, two full
    # 20 000-step chunks with the chain state carried across
    np.testing.assert_array_equal(rep.counts, [[861, 67], [64, 964]])


def test_boundary_chain_small_eps_barrier():
    dw = builtin_doublewell()
    bc = BoundaryChainConfig()
    rep = boundary_chain(dw, bc, eps=0.1, seed=2, n_replicas=64,
                         horizon_per_replica=1500.0)
    assert not rep.inconclusive
    # eps log P(0 -> 2) near -Vtilde = -1/2, within 25%
    assert rep.vtilde[0, 1] == pytest.approx(0.5, rel=1e-6)
    assert rep.eps_log_p[0, 1] == pytest.approx(-0.5, rel=0.25)
    # symmetry of the double well within 3 binomial standard errors
    p01, p10 = rep.probabilities[0, 1], rep.probabilities[1, 0]
    n0, n1 = rep.counts[0].sum(), rep.counts[1].sum()
    se = math.sqrt(p01 * (1 - p01) / n0 + p10 * (1 - p10) / n1)
    assert abs(p01 - p10) <= 3 * se


def test_boundary_chain_golden_counts_three_wells():
    # golden counts of the original per-replica scan; a change of the noise
    # stream, the Euler step or the first-passage rules moves them.  Wells at
    # 0, 2 and 4; 25 000 steps end in a short chunk
    quintic = GradientSDE((0.0, 24.0, -50.0, 35.0, -10.0, 1.0), name="quintic")
    rep = boundary_chain(quintic, BoundaryChainConfig(), eps=1.5, seed=7,
                         n_replicas=6, horizon_per_replica=50.0, dt=2e-3)
    np.testing.assert_allclose(rep.nodes, [0.0, 2.0, 4.0], atol=1e-12)
    np.testing.assert_array_equal(rep.counts, [[209, 12, 0], [13, 252, 9], [0, 9, 208]])


def test_boundary_chain_blowup_raises():
    # explicit Euler at dt = 0.5 is unstable for the cubic drift; the report
    # names the earliest nonfinite step and, within it, the lowest replica
    for seed, where in [(0, r"t=10 \(path 0\);"), (1, r"t=5 \(path 2\);")]:
        with np.errstate(all="ignore"), \
                pytest.raises(BlowupError, match="nonfinite toy state at " + where):
            boundary_chain(builtin_doublewell(), BoundaryChainConfig(), eps=1.0,
                           seed=seed, n_replicas=4, horizon_per_replica=50.0, dt=0.5)


def test_boundary_chain_noise_block_cap_keeps_counts_bitwise(monkeypatch):
    def run():
        return boundary_chain(builtin_doublewell(), BoundaryChainConfig(), eps=1.0,
                              seed=3, n_replicas=4, horizon_per_replica=10.0)

    full = run()
    # 777-step chunks; record each chunk's length and whether a replica is
    # between an exit and its next hit when the chunk ends
    chunks, mid_transition = [], []
    scan = rates_module._first_passages

    def recorded(path, nodes, rho0, rho1, resident, waiting_exit, counts):
        scan(path, nodes, rho0, rho1, resident, waiting_exit, counts)
        chunks.append(path.shape[0])
        mid_transition.append(not waiting_exit.all())

    monkeypatch.setattr(toys, "_NOISE_BLOCK_BYTES", 8 * 4 * 777)
    monkeypatch.setattr(rates_module, "_first_passages", recorded)
    capped = run()
    assert chunks == [777] * 12 + [10000 - 12 * 777]
    assert any(mid_transition[:-1])
    assert full.counts.sum() > 0
    np.testing.assert_array_equal(capped.counts, full.counts)
    np.testing.assert_array_equal(capped.probabilities, full.probabilities)


def _chain_counts_before_driver(model, bc, eps, seed, n_replicas, horizon_per_replica, dt):
    """The counts of ``boundary_chain`` as it was before the shared driver,
    verbatim: (replica, step) blocks of at most 20 000 steps under a 4 MiB cap."""
    pts, stable = model.equilibria()
    nodes = pts[stable]
    n = nodes.size
    counts = np.zeros((n, n), int)
    rngs = [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(r,))))
        for r in range(n_replicas)]
    # replicas start spread over the nodes so every source row fills evenly
    resident = np.arange(n_replicas) % n
    u = nodes[resident].astype(float)
    waiting_exit = np.ones(n_replicas, bool)
    n_steps = int(horizon_per_replica / dt)
    chunk = max(min(20000, n_steps, (4 << 20) // (8 * max(n_replicas, 1))), 1)
    root_eps_dt = math.sqrt(eps * dt)
    # one (replica, step) block: a replica's noise row, overwritten step by
    # step with its path once the step has used it
    block = np.empty((n_replicas, chunk))
    done = 0
    while done < n_steps and counts.sum() < rates_module.MAX_TRANSITIONS:
        k = min(chunk, n_steps - done)
        path = block[:, :k]
        for rng, row in zip(rngs, path):
            rng.standard_normal(out=row)
        path *= root_eps_dt
        for s in range(k):
            col = path[:, s]
            np.add(u - model.drift(u) * dt, col, out=col)
            u = col
        bad = ~np.isfinite(path)
        if bad.any():
            step = int(bad.any(axis=0).argmax())
            replica = int(bad[:, step].argmax())
            raise BlowupError(f"nonfinite toy state at t={(done + step + 1) * dt:.4g} "
                              f"(replica {replica}); decrease dt")
        u = u.copy()  # the next chunk's draws overwrite the block
        _first_passages(path.T, nodes, bc.rho0, bc.rho1, resident,
                        waiting_exit, counts)
        done += k
    return counts


@settings(max_examples=25, deadline=None, derandomize=True)
@given(three_wells=st.booleans(), n_replicas=st.integers(0, 5),
       n_steps=st.integers(1, 1500), cap_steps=st.integers(1, 400),
       seed=st.integers(0, 2 ** 32 - 1))
def test_boundary_chain_matches_loop_before_driver_bitwise(three_wells, n_replicas, n_steps,
                                                           cap_steps, seed):
    model = (GradientSDE((0.0, 24.0, -50.0, 35.0, -10.0, 1.0)) if three_wells
             else builtin_doublewell())
    bc, eps, dt = BoundaryChainConfig(), 1.5, 0.01
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toys, "_NOISE_BLOCK_BYTES", 8 * n_replicas * cap_steps)
        rep = boundary_chain(model, bc, eps, seed=seed, n_replicas=n_replicas,
                             horizon_per_replica=n_steps * dt + dt / 2, dt=dt)
    want = _chain_counts_before_driver(model, bc, eps, seed, n_replicas,
                                       n_steps * dt + dt / 2, dt)
    np.testing.assert_array_equal(rep.counts, want)


def _scan_reference(path, nodes, rho0, rho1, resident, waiting_exit, counts):
    """The original per-replica scan of ``boundary_chain``; path is (replicas, steps)."""
    n_replicas, k = path.shape
    for r in range(n_replicas):
        d = np.abs(path[r][:, None] - nodes[None, :])
        cur = 0
        while cur < k:
            if waiting_exit[r]:
                out = np.flatnonzero(d[cur:, resident[r]] >= rho0)
                if out.size == 0:
                    break
                cur += out[0]
                waiting_exit[r] = False
            else:
                near = np.flatnonzero(np.min(d[cur:], axis=1) <= rho1)
                if near.size == 0:
                    break
                cur += near[0]
                j = int(np.argmin(d[cur]))
                counts[resident[r], j] += 1
                resident[r] = j
                waiting_exit[r] = True


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n_nodes=st.integers(1, 4), n_replicas=st.integers(1, 5),
       steps=st.tuples(st.integers(1, 400), st.integers(1, 400)),
       radii=st.tuples(st.integers(1, 8), st.integers(1, 8)),
       snap=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_first_passages_match_reference_scan(n_nodes, n_replicas, steps, radii,
                                             snap, seed):
    rng = np.random.default_rng(seed)
    # dyadic nodes, radii and (when snapped) paths make distances hit the
    # radii exactly, so the >= and <= boundaries are exercised
    nodes = np.sort(rng.choice(np.arange(-24, 25), n_nodes, replace=False)) / 8.0
    rho1 = min(radii) / 8.0
    rho0 = rho1 + max(radii) / 8.0
    start = rng.integers(0, n_nodes, n_replicas)
    walk = nodes[start] + np.cumsum(rng.normal(0, 0.25, (sum(steps), n_replicas)), 0)
    if snap:
        walk = np.round(walk * 8.0) / 8.0
    state = (start.copy(), rng.random(n_replicas) < 0.5, np.zeros((n_nodes,) * 2, int))
    ref = tuple(a.copy() for a in state)
    # two consecutive chunks, the chain state carried from the first
    for chunk in np.split(walk, [steps[0]]):
        _first_passages(chunk, nodes, rho0, rho1, *state)
        _scan_reference(np.ascontiguousarray(chunk.T), nodes, rho0, rho1, *ref)
        for got, want in zip(state, ref):
            np.testing.assert_array_equal(got, want)


def test_action_of_reversed_flow_instanton():
    # the time-reversed flow u' = +b(u) from just off the stable point climbs
    # to the saddle with control phi = 2b(u); its action is exactly 2 dA
    cubic = builtin_cubic()
    t, u = 0.0, 1e-6
    dt = 1e-4
    ts, us = [0.0], [u]
    while u < 1.0 - 1e-6 and t < 40.0:
        u = u + cubic.drift(u) * dt
        t += dt
        ts.append(t)
        us.append(u)
    us = np.array(us)
    phis = 2.0 * cubic.drift(us)
    val = action_value(np.array(ts), phis)
    target = 2.0 * (cubic.potential(1.0) - cubic.potential(0.0))
    assert val == pytest.approx(target, rel=0.01)
