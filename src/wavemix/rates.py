"""Equilibria, action functionals, quasipotentials, and small-noise rates.

The quasipotential V(z1, z2) is minimized by direct collocation: the state
path is the optimization variable with both end states pinned, and the
control is recovered from the equation residual.  Each horizon is one banded
Newton solve (``newton.minimize``: damped Newton steps, in plain NumPy), on
the exact tridiagonal Hessian of a scalar toy's action or on the
block-pentadiagonal Gauss-Newton Hessian of a wave path's, and the value is
the least action over the horizons.
Gradient toys carry exact oracles (positive variation of the potential) that
guard the solver, and the rate function over equilibria uses minimum-cost
rooted graphs with a brute-force cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from wavemix import stats
from wavemix.newton import minimize
from wavemix.nlw import NoiseModel, Nonlinearity, _van_loan_covariance, mode_generators
from wavemix.spectral import PhaseState, SpectralBasis
from wavemix.toys import GradientSDE, _em_drive, autocorrelation_time, \
    gradient_sde_exact_density, simulate_toy


# --------------------------------------------------------------------------
# Control paths and actions


@dataclass
class ControlPath:
    """Time-discretized forcing: ``phis`` has shape (n_nodes,) for scalar toys
    or (n_nodes, M) for spectral controls."""

    t: np.ndarray
    phis: np.ndarray


def action_value(t, phis) -> float:
    """Trapezoid quadrature of 0.5 int |phi(s)|^2 ds for a scalar control."""
    return float(0.5 * np.trapezoid(np.asarray(phis, float) ** 2, np.asarray(t, float)))


# --------------------------------------------------------------------------
# Equilibria


@dataclass
class EquilibriumNetwork:
    """Equilibria with stability flags and the pairwise quasipotential matrix.

    ``points`` holds scalars for toys or position coefficient vectors for the
    wave equation; V[i, j] is the minimal action i -> j (inf allowed).
    """

    kind: str
    points: list
    stable: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        n = len(self.points)
        if self.V.shape != (n, n):
            raise ValueError("V matrix shape mismatch")
        if np.any(np.diag(self.V) != 0):
            raise ValueError("V(i, i) must vanish")
        if np.any(self.V < 0):
            raise ValueError("quasipotentials are nonnegative")

    def restrict_to_stable(self) -> "EquilibriumNetwork":
        idx = np.flatnonzero(self.stable)
        return EquilibriumNetwork(
            self.kind, [self.points[i] for i in idx], self.stable[idx],
            self.V[np.ix_(idx, idx)])

    def to_json_dict(self) -> dict:
        def enc(x):
            return None if math.isinf(x) else x
        return {
            "kind": self.kind,
            "nodes": [{"coefficients": np.atleast_1d(p).tolist(),
                       "stable": bool(s)}
                      for p, s in zip(self.points, self.stable)],
            "V": [[enc(v) for v in row] for row in self.V],
        }


def toy_equilibrium_network(model: GradientSDE) -> EquilibriumNetwork:
    """Network of a 1D gradient toy; V filled by the exact variation oracle."""
    pts, stable = model.equilibria()
    n = pts.size
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                V[i, j] = toy_quasipotential_oracle(model, pts[i], pts[j])
    return EquilibriumNetwork(model.name, list(pts), stable, V)


# --------------------------------------------------------------------------
# Gradient-case oracles


def gradient_rate_oracle(model: GradientSDE, u: float | np.ndarray) -> float | np.ndarray:
    """Rate value 2 (A(u) - min A) of a gradient toy, at a point or elementwise
    over an array of points.  The polynomial A is bounded below when constant
    or of even degree with a positive lead; its minimum then lies at a real
    root of its derivative, the drift."""
    b = np.trim_zeros(np.asarray(model.drift_coeffs, float), "b")
    if b.size % 2 == 1 or (b.size and b[-1] < 0):
        raise ValueError("the potential is not bounded below")
    A = model.potential(u)
    # a constant A has no root to evaluate; A(u) is then its minimum
    low = np.minimum(np.min(model.potential(model.equilibria()[0]), initial=math.inf), A)
    rate = 2.0 * (A - low)
    return float(rate) if np.ndim(rate) == 0 else rate


def toy_quasipotential_oracle(model: GradientSDE, a: float, b: float) -> float:
    """Exact 1D gradient quasipotential: twice the uphill variation of A.

    The optimal transition follows the interval from a to b; descending
    stretches are free and ascending stretches cost twice the potential gain.
    A is monotone between consecutive roots of its derivative, the drift, so
    its values at a, at the roots strictly between a and b in travel order and
    at b carry the whole variation.
    """
    if a == b:
        return 0.0
    roots = model.equilibria()[0]
    inner = roots[(roots > min(a, b)) & (roots < max(a, b))]
    u = np.concatenate([[a], inner if a < b else inner[::-1], [b]])
    rises = np.diff(model.potential(u))
    return float(2.0 * np.sum(rises[rises > 0]))


# --------------------------------------------------------------------------
# Quasipotential by direct collocation: 1D gradient toys


@dataclass
class QuasipotentialResult:
    value: float
    path: ControlPath
    horizon: float
    converged: bool = True
    grad_norm: float = 0.0  # final max |dJ/dx| of the reported solve, 0 if none


def toy_quasipotential(model: GradientSDE, z1: float, z2: float,
                       horizons: Sequence[float] = (2.0, 4.0, 8.0, 16.0)
                       ) -> QuasipotentialResult:
    """Banded Newton collocation of the 1D action between two pinned ends.

    The path itself is the variable, with its first node fixed at z1 and its
    last at z2; the control phi = du/dt + b(u) is recovered from the
    residual.  Each phi_k touches two neighbouring nodes, so the Hessian is
    tridiagonal and each horizon is one solve by damped Newton steps in O(K)
    work (the minimum-action method of E, Ren and Vanden-Eijnden), starting
    from the straight line with max(40 T, 16) nodes.  The value is the least
    action over the horizons; ``converged`` needs its solve to have ended on
    the stopping rule.
    """
    if z1 == z2:
        # V(z, z) = 0, reached as T -> 0
        return QuasipotentialResult(0.0, ControlPath(np.zeros(1), np.zeros(1)), 0.0)
    best = None
    for T in horizons:
        K = max(int(40 * T), 16)
        dt = T / K
        res = minimize(_toy_action_and_grad, np.linspace(z1, z2, K + 1)[1:-1],
                       hess=_toy_hessian, args=(model, z1, z2, dt))
        phi = _toy_controls(res.x, model, z1, z2, dt)[2]
        val = float(0.5 * dt * np.sum(phi ** 2))
        if best is None or val < best.value:
            best = QuasipotentialResult(val, ControlPath((np.arange(K) + 0.5) * dt, phi),
                                        T, res.success, float(np.max(np.abs(res.jac))))
    return best


def _toy_controls(x, model, z1, z2, dt):
    """Nodes u, midpoints, controls phi_k = (u_{k+1} - u_k)/dt + b(mid_k) and
    their slopes a_k = d phi_k / d u_{k+1} and c_k = d phi_k / d u_k."""
    u = np.concatenate([[z1], x, [z2]])
    mids = 0.5 * (u[1:] + u[:-1])
    bp = model.drift_prime(mids)
    phi = np.diff(u) / dt + model.drift(mids)
    return u, mids, phi, 1.0 / dt + 0.5 * bp, -1.0 / dt + 0.5 * bp


def _toy_action_and_grad(x, model, z1, z2, dt):
    u, _, phi, a, c = _toy_controls(x, model, z1, z2, dt)
    grad_u = np.zeros_like(u)
    core = dt * phi
    grad_u[1:] += core * a
    grad_u[:-1] += core * c
    return float(0.5 * dt * np.sum(phi ** 2)), grad_u[1:-1]


def _toy_hessian(x, model, z1, z2, dt):
    """Exact Hessian of ``_toy_action_and_grad``, tridiagonal, in upper banded
    form: row 0 the superdiagonal (its first entry 0), row 1 the diagonal."""
    u, mids, phi, a, c = _toy_controls(x, model, z1, z2, dt)
    curv = 0.25 * phi * model.drift_second(mids)  # phi_k d2 phi_k / du du
    diag = np.zeros_like(u)
    diag[1:] += dt * (a * a + curv)
    diag[:-1] += dt * (c * c + curv)
    ab = np.zeros((2, x.size))
    ab[0, 1:] = dt * (a * c + curv)[1:-1]
    ab[1] = diag[1:-1]
    return ab


# --------------------------------------------------------------------------
# Quasipotential by direct collocation: spectral wave states


def nlw_quasipotential(basis: SpectralBasis, nl: Nonlinearity, gamma: float,
                       noise: NoiseModel, z1: PhaseState, z2: PhaseState,
                       horizons: Sequence[float] = (2.0, 4.0, 8.0),
                       h_coeffs: np.ndarray | None = None) -> QuasipotentialResult:
    """Collocation quasipotential for the damped wave dynamics.

    The position coefficient path is the variable; the control is the
    second-order equation residual weighted by the noise coefficients.  Both
    end states are pinned, each by two nodes: X_0 = p1 and X_1 = p1 + dt v1
    at the start, X_{K-1} = p2 - dt v2 and X_K = p2 at the end.  Dead noise
    modes get a large finite weight and any residual action they carry beyond
    tolerance turns the reported value into the +inf sentinel.  Each horizon
    T gets max(24 T, 12) nodes and one solve by damped Newton steps on the
    Gauss-Newton Hessian (``_nlw_hessian``), as the toys do.  The value is the
    least action over the horizons; ``converged`` needs its solve to have
    ended on the stopping rule.
    """
    m = basis.mode_count
    lam = basis.eigenvalues
    h = np.zeros(m) if h_coeffs is None else np.asarray(h_coeffs, float)
    b2 = noise.coeffs ** 2
    dead = b2 == 0
    inv_b2 = np.where(dead, 1e8, np.divide(1.0, np.where(dead, 1.0, b2)))

    p1, v1 = z1.as_array()
    p2, v2 = z2.as_array()
    if np.array_equal(p1, p2) and np.array_equal(v1, v2):
        # V(z, z) = 0, reached as T -> 0
        return QuasipotentialResult(0.0, ControlPath(np.zeros(1), np.zeros((1, m))), 0.0)

    best = None
    for T in horizons:
        K = max(int(24 * T), 12)
        dt = T / K
        ramp = np.linspace(0, 1, K + 1)[:, None]
        x = ((1 - ramp) * p1 + ramp * p2)[2:-2].ravel()
        res = minimize(_nlw_action_and_grad, x, hess=_nlw_hessian,
                       args=(p1, v1, p2, v2, lam, gamma, inv_b2, nl, basis, h, dt, K, m))
        X = _nlw_nodes(res.x, p1, v1, p2, v2, dt, K, m)
        phi = _nlw_controls(X, lam, gamma, nl, basis, h, dt)
        live_sq = np.sum(phi ** 2 * np.where(dead, 0.0, inv_b2), axis=1)
        dead_action = 0.5 * dt * float(np.sum(phi[:, dead] ** 2)) if dead.any() else 0.0
        val = math.inf if dead_action > 1e-6 else float(0.5 * dt * np.sum(live_sq))
        if best is None or val < best.value:
            best = QuasipotentialResult(val, ControlPath(np.arange(1, K) * dt, phi), T,
                                        res.success, float(np.max(np.abs(res.jac))))
    return best


def linear_wave_oracle(basis: SpectralBasis, gamma: float, noise: NoiseModel,
                       z: PhaseState, T: float) -> float:
    """Exact minimal action from rest to ``z`` over the horizon T at f = 0,
    h = 0, with every noise mode live.

    The modes decouple into controlled linear pairs (u_j, v_j), each driven
    through its velocity by b_j times the control, so the minimal action is
    the sum over modes of 1/2 x_j^T S_j^-1 x_j, with x_j = (u_j, v_j) of ``z``
    and S_j = b_j^2 int_0^T e^{A_j s} Q e^{A_j^T s} ds the controllability
    Gramian of the mode.  Rest to rest costs 0, at T = 0 (singular S_j) too.
    """
    x = z.as_array().T[..., None]            # (M, 2, 1)
    if not x.any():
        return 0.0
    S = noise.coeffs[:, None, None] ** 2 * _van_loan_covariance(
        mode_generators(basis.eigenvalues, gamma), T)
    return float(0.5 * np.sum(x * np.linalg.solve(S, x)))


def _nlw_nodes(x, p1, v1, p2, v2, dt, K, m):
    """All K + 1 nodes: the two the start state fixes, the variables, and the
    two the end state fixes."""
    return np.vstack([p1[None], (p1 + dt * v1)[None], x.reshape(K - 3, m),
                      (p2 - dt * v2)[None], p2[None]])


def _nlw_controls(X, lam, gamma, nl, basis, h, dt):
    u_mid = X[1:-1]
    d2 = (X[2:] - 2 * X[1:-1] + X[:-2]) / dt ** 2
    d1 = (X[2:] - X[:-2]) / (2 * dt)
    fcoef = basis.project(nl.f, u_mid)
    return d2 + gamma * d1 + lam * u_mid + fcoef - h


def _nlw_action_and_grad(x, p1, v1, p2, v2, lam, gamma, inv_b2, nl, basis, h, dt, K, m):
    X = _nlw_nodes(x, p1, v1, p2, v2, dt, K, m)
    phi = _nlw_controls(X, lam, gamma, nl, basis, h, dt)
    psi = phi * inv_b2                       # (K-1, m)
    J = 0.5 * dt * float(np.sum(phi * psi))
    grad = np.zeros_like(X)
    # stencil terms of phi_k touching X_{k-1}, X_k, X_{k+1}
    c_plus = 1.0 / dt ** 2 + gamma / (2 * dt)
    c_minus = 1.0 / dt ** 2 - gamma / (2 * dt)
    grad[2:] += dt * c_plus * psi            # phi_k wrt X_{k+1}
    grad[:-2] += dt * c_minus * psi          # phi_k wrt X_{k-1}
    # the Galerkin Jacobian of f at X_k applied to psi_k
    fp = nl.fprime(basis.synthesize(X[1:-1]))
    nl_term = basis.analyze(fp * basis.synthesize(psi))
    grad[1:-1] += dt * ((-2.0 / dt ** 2) * psi + lam * psi + nl_term)
    return J, grad[2:-2].ravel()


def _nlw_hessian(x, p1, v1, p2, v2, lam, gamma, inv_b2, nl, basis, h, dt, K, m):
    """Gauss-Newton Hessian dt sum_k J_k^T B^-1 J_k of ``_nlw_action_and_grad``,
    in the upper block-banded form ``newton.block_banded_solve`` reads, one
    block per variable node.

    phi_k has the Jacobian c_- I, D_k, c_+ I on X_{k-1}, X_k, X_{k+1}, with
    D_k = diag(lam - 2/dt^2) + E^T diag(w f'(u_k)) E, the Galerkin Jacobian of
    f at node k.  Every variable node X_k, k = 2 .. K-2, meets phi_{k-1},
    phi_k and phi_{k+1}, so one stencil fills every block row.  The term
    phi_k^T B^-1 f''(u_k) is left out: without it the matrix is positive
    definite and needs only f', and at f = 0 it is exact.
    """
    X = _nlw_nodes(x, p1, v1, p2, v2, dt, K, m)
    c_plus = 1.0 / dt ** 2 + gamma / (2 * dt)
    c_minus = 1.0 / dt ** 2 - gamma / (2 * dt)
    modes = basis.synthesize(np.eye(m))      # row j: the values of mode j
    fp = nl.fprime(basis.synthesize(X[1:-1]))
    D = np.empty((K - 1, m, m))              # D[k - 1] = D_k, k = 1 .. K-1
    for k in range(K - 1):
        D[k] = basis.analyze(fp[k] * modes)
    idx = np.arange(m)
    D[:, idx, idx] += lam - 2.0 / dt ** 2
    BD = inv_b2[:, None] * D                 # B^-1 D_k
    # variable j is node j + 2
    ab = np.zeros((3, K - 3, m, m))
    second, first, diag = ab                 # blocks (j-2, j), (j-1, j), (j, j)
    diag[:] = dt * (D[1:-1] @ BD[1:-1])      # phi_k at node k
    diag[:, idx, idx] += dt * (c_plus ** 2 + c_minus ** 2) * inv_b2  # phi_{k-1}, phi_{k+1}
    first[1:] = dt * (c_plus * np.swapaxes(BD[1:-2], 1, 2)           # phi_{k-1}
                      + c_minus * BD[2:-1])                          # phi_k
    second[2:, idx, idx] = dt * c_plus * c_minus * inv_b2           # phi_{k-1}
    return ab


# --------------------------------------------------------------------------
# Rooted-graph weights and the rate function


def w_graph_weights(net: EquilibriumNetwork) -> np.ndarray:
    """W(i) = min over i-graphs of the summed quasipotential costs.

    An i-graph gives every node but the root i exactly one outgoing arrow and
    has no cycles; its minimum is a rooted arborescence on the reversed cost
    matrix.
    """
    return np.array([_arborescence_weight(net.V, i) for i in range(len(net.points))])


def _arborescence_weight(V: np.ndarray, root: int) -> float:
    """Chu-Liu/Edmonds minimum of the i-graphs rooted at ``root``.

    Every node but the root takes its cheapest out-arrow; if those arrows
    close a cycle, the cycle is contracted into one node whose out-arrows
    cost what leaving the cycle adds over its own arrow, and the contracted
    problem is solved recursively.  ``inf`` costs are absent arrows.
    """
    C = np.array(V, dtype=float)
    np.fill_diagonal(C, math.inf)
    n = C.shape[0]
    others = [k for k in range(n) if k != root]
    best = C.argmin(axis=1)
    if any(math.isinf(C[k, best[k]]) for k in others):
        return math.inf  # a node with no arrow out
    cycle = None
    state = [0] * n  # 0 unseen, 1 on the current walk, 2 leads to the root
    state[root] = 2
    for start in others:
        walk, k = [], start
        while state[k] == 0:
            state[k] = 1
            walk.append(k)
            k = int(best[k])
        if state[k] == 1:
            cycle = walk[walk.index(k):]
            break
        for k in walk:
            state[k] = 2
    if cycle is None:
        return float(sum(C[k, best[k]] for k in others))
    rest = [k for k in range(n) if k not in cycle]
    own = C[cycle, best[cycle]]
    D = np.zeros((len(rest) + 1,) * 2)  # the cycle is the last node
    D[:-1, :-1] = C[np.ix_(rest, rest)]
    D[:-1, -1] = C[np.ix_(rest, cycle)].min(axis=1)
    D[-1, :-1] = (C[np.ix_(cycle, rest)] - own[:, None]).min(axis=0)
    return float(own.sum()) + _arborescence_weight(D, rest.index(root))


def w_graph_bruteforce(V: np.ndarray, root: int) -> float:
    """Exhaustive minimum over maps g: nodes\\{root} -> nodes without cycles."""
    n = V.shape[0]
    others = [k for k in range(n) if k != root]
    if not others:
        return 0.0
    best = math.inf
    choices = [[k for k in range(n) if k != mm] for mm in others]
    for assignment in itertools.product(*choices):
        g = dict(zip(others, assignment))
        ok = True
        for start in others:
            seen = set()
            cur = start
            while cur != root:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = g[cur]
            if not ok:
                break
        if not ok:
            continue
        cost = sum(V[mm, g[mm]] for mm in others)
        best = min(best, cost)
    return best


def fw_rate(net: EquilibriumNetwork, v_to_point: np.ndarray) -> float | np.ndarray:
    """Rate value min_i [W(i) + V(i, u)] - min_i W(i) over the stable nodes i.

    ``v_to_point`` holds the quasipotentials V(i, u) from each stable node to
    the point u, in node order; a 2D array holds one point per column and
    gives one rate per column.  Node k of the network is the point
    ``net.V[net.stable, k]``.
    """
    W = w_graph_weights(net.restrict_to_stable())
    v = np.asarray(v_to_point, float)
    if v.shape[0] != W.size:
        raise ValueError("need one quasipotential per stable node")
    rate = (v.T + W).min(axis=-1) - W.min()
    return float(rate) if v.ndim == 1 else rate


# --------------------------------------------------------------------------
# Small-noise stationary measure probes


# The Monte Carlo probe's guards: a set entered fewer than MC_MIN_ENTRIES
# times in either of the two runs is inconclusive, and a run-to-run relative
# difference of a set's mass above MC_AGREEMENT_MAX fails the agreement check.
MC_MIN_ENTRIES = 50
MC_AGREEMENT_MAX = 0.5


@dataclass
class SmallNoiseReport:
    eps: np.ndarray
    sets: list[tuple[float, float]]
    eps_log_mu: np.ndarray          # (n_sets, n_eps)
    intercepts: np.ndarray
    targets: np.ndarray
    stable_mass: np.ndarray         # mass near stable equilibria per eps
    inconclusive: bool
    agreement_ok: bool = True


def smallnoise_stationary_probe(model: GradientSDE, eps_list: Sequence[float],
                                sets: Sequence[tuple[float, float]],
                                mode: str = "exact", seed: int = 0,
                                horizon: float | None = None) -> SmallNoiseReport:
    """eps log mu^eps(Gamma) against -inf_Gamma of the gradient rate function.

    ``exact`` mode evaluates the closed-form density by quadrature; ``mc``
    mode samples one long trajectory per eps after a burn-in of twenty
    empirical mixing times and cross-checks two runs for agreement, and is
    inconclusive when a set sees fewer than ``MC_MIN_ENTRIES`` entries in
    either run.
    ``stable_mass`` is the mass within 0.1 of the stable equilibria.
    """
    pts, stable = model.equilibria()
    eps_arr = np.asarray(sorted(eps_list, reverse=True), float)
    n_sets = len(sets)
    table = np.full((n_sets, eps_arr.size), np.nan)
    stable_mass = np.zeros(eps_arr.size)
    inconclusive = False
    agreement_ok = True
    eta = 0.1

    targets = np.array([np.min(gradient_rate_oracle(model, np.concatenate(
        [np.linspace(lo, hi, 4001), [lo, hi]]))) for lo, hi in sets])

    if mode == "exact":
        for ei, eps in enumerate(eps_arr):
            dens = gradient_sde_exact_density(model, float(eps))
            stable_mass[ei] = dens.mass_near(pts[stable], eta)
            for si, (lo, hi) in enumerate(sets):
                table[si, ei] = eps * dens.log_measure(lo, hi)
    elif mode == "mc":
        n_rep = 32
        for ei, eps in enumerate(eps_arr):
            T = 150.0 if horizon is None else horizon
            masses = []
            for run in range(2):
                t, paths, _ = simulate_toy(model, float(eps), 1e-3, T, seed,
                                           n_traj=n_rep, record_stride=5,
                                           u0=float(pts[stable][0]),
                                           stream=(ei, run))
                # burn-in: twenty empirical mixing times, read off replica 0
                tau = autocorrelation_time(paths[0], t[1] - t[0])
                burn = min(20.0 * max(tau, 0.25), T / 3.0)
                keep = t > burn
                samples = paths[:, keep]
                run_mass = []
                for (lo, hi) in sets:
                    inside = (samples >= lo) & (samples <= hi)
                    entries = int(np.sum(inside[:, 1:] & ~inside[:, :-1]))
                    frac = float(inside.mean())
                    run_mass.append((frac, entries))
                masses.append(run_mass)
            for si in range(n_sets):
                f1, e1 = masses[0][si]
                f2, e2 = masses[1][si]
                if min(e1, e2) < MC_MIN_ENTRIES:
                    inconclusive = True
                    continue
                se = abs(f1 - f2) / max(min(f1, f2), 1e-12)
                if se > MC_AGREEMENT_MAX:
                    agreement_ok = False
                frac = 0.5 * (f1 + f2)
                table[si, ei] = eps * math.log(frac)
            near = 0.0
            for p in pts[stable]:
                inside = (samples >= p - eta) & (samples <= p + eta)
                near += float(inside.mean())
            stable_mass[ei] = near
    else:
        raise ValueError(f"unknown mode {mode!r}")

    intercepts = np.full(n_sets, np.nan)
    for si in range(n_sets):
        row = table[si]
        good = np.isfinite(row)
        if good.sum() >= 2:
            fit = stats.line_fit(eps_arr[good], row[good])
            intercepts[si] = fit.intercept
        elif good.sum() == 1:
            intercepts[si] = row[good][0]
    return SmallNoiseReport(eps_arr, list(sets), table, intercepts,
                            -targets, stable_mass, inconclusive, agreement_ok)


# --------------------------------------------------------------------------
# Markov chain on the boundary


@dataclass(frozen=True)
class BoundaryChainConfig:
    """Radii of the nested neighborhoods of each node: 0 < rho1 < rho0.

    The theory fixes only the ordering; at finite noise the prefactors shift
    the measured exponents, so the defaults come from a sweep of
    ``boundary_chain`` over a ladder of radii at the desk scale eps ~ 0.1.
    """

    rho1: float = 0.3
    rho0: float = 0.45

    def __post_init__(self):
        if not 0 < self.rho1 < self.rho0:
            raise ValueError("radii must satisfy 0 < rho1 < rho0")


# Transitions every off-diagonal cell of the boundary chain needs before its
# eps log P-hat is judged; a sparser matrix is inconclusive.
MIN_CELL = 50
# Transitions after which the boundary chain stops; it is checked between
# noise chunks, so a run may end a chunk past it.
MAX_TRANSITIONS = 100000


@dataclass
class BoundaryChainReport:
    nodes: np.ndarray
    counts: np.ndarray
    probabilities: np.ndarray
    eps_log_p: np.ndarray
    vtilde: np.ndarray
    inconclusive: bool


def boundary_chain(model: GradientSDE, bc: BoundaryChainConfig, eps: float,
                   seed: int = 0, n_replicas: int = 64,
                   horizon_per_replica: float = 250.0,
                   dt: float = 1e-3) -> BoundaryChainReport:
    """Empirical boundary-chain transition matrix of a 1D gradient toy.

    The chain lives on the inner shells around the stable equilibria: each
    step exits the outer rho0-neighborhood and records which rho1-shell the
    path hits next.  eps log P-hat is compared to the avoid-others
    quasipotentials between the nodes.  Each replica is its own noise lane:
    replica ``r`` draws from stream ``stats.generator(seed, (r,))``.
    ``toys._em_drive`` runs the steps and hands each chunk of paths to the
    first-passage scan, so the chain keeps no second copy of them; a
    nonfinite state raises ``BlowupError`` naming its earliest step and,
    within it, the lowest replica.  Overlapping rho0-neighborhoods of the
    nodes raise ``ValueError`` before any path runs.
    """
    pts, stable = model.equilibria()
    nodes = pts[stable]
    n = nodes.size
    gap = np.diff(nodes).min(initial=math.inf)
    if not bc.rho0 < gap / 2:
        raise ValueError(f"rho0={bc.rho0} must lie below half the smallest gap "
                         f"{gap:.6g} between stable equilibria")
    # avoid-others quasipotentials between chain nodes: another chain node
    # strictly between the endpoints blocks every 1D path
    vtilde = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lo, hi = sorted((nodes[i], nodes[j]))
            blocked = any(lo + 1e-9 < q < hi - 1e-9 for q in nodes)
            vtilde[i, j] = (math.inf if blocked
                            else toy_quasipotential_oracle(model, nodes[i], nodes[j]))

    counts = np.zeros((n, n), int)
    rngs = [stats.generator(seed, (r,)) for r in range(n_replicas)]
    # replicas start spread over the nodes so every source row fills evenly
    resident = np.arange(n_replicas) % n
    waiting_exit = np.ones(n_replicas, bool)

    def on_chunk(done, path):
        _first_passages(path, nodes, bc.rho0, bc.rho1, resident, waiting_exit, counts)
        return counts.sum() >= MAX_TRANSITIONS

    _em_drive(model, nodes[resident].astype(float), eps, dt,
              int(horizon_per_replica / dt), rngs, on_chunk)

    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = counts / totals
    eps_log = np.full((n, n), np.nan)
    inconclusive = False
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if counts[i, j] < MIN_CELL:
                inconclusive = True
            elif probs[i, j] > 0:
                eps_log[i, j] = eps * math.log(probs[i, j])
    return BoundaryChainReport(nodes, counts, probs, eps_log, vtilde, inconclusive)


def _first_passages(path, nodes, rho0, rho1, resident, waiting_exit, counts):
    """Advance each replica's boundary chain through one chunk of its path.

    ``path`` has shape (steps, replicas).  A replica waiting to exit looks for
    the first step at distance >= rho0 from its resident node; otherwise for
    the first step within rho1 of any node, which it records in ``counts``
    and makes its new resident.  The crossing indices of a chunk are found
    once per replica and walked with ``searchsorted``.  ``resident``,
    ``waiting_exit`` and ``counts`` are updated in place.
    """
    for r in range(path.shape[1]):
        d = np.abs(path[:, r] - nodes[:, None])     # (node, step)
        exits = [np.flatnonzero(di >= rho0) for di in d]
        hits = np.flatnonzero(d.min(0) <= rho1)
        cur = 0
        while True:
            idx = exits[resident[r]] if waiting_exit[r] else hits
            pos = np.searchsorted(idx, cur)
            if pos == idx.size:
                break
            cur = idx[pos]
            if not waiting_exit[r]:
                j = int(np.argmin(d[:, cur]))
                counts[resident[r], j] += 1
                resident[r] = j
            waiting_exit[r] = not waiting_exit[r]
