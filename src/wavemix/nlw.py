"""Time integration of the damped nonlinear wave equation with white noise.

The flow of  d^2u/dt^2 + gamma du/dt - Lap u + f(u) = h + noise  is advanced
by Strang splitting: each Fourier mode carries an exact half-step of the
damped-oscillator SDE (matrix exponential plus an exactly sampled Gaussian
stochastic convolution), the nonlinearity kicks the velocity explicitly over
the full step, and a second exact linear half-step closes the update.
Trajectories are deterministic functions of (seed, config); ensembles split
the master seed into per-trajectory counter-based streams, and a run from
several starts drives each path from all of them on its one stream.

Both steppers of the package -- ``run_flow`` and the coupled pair in
``coupling`` -- run the one driver ``_strang_drive`` on a block of paths.  The
driver owns the chunked noise buffer and the per-chunk finiteness check; a
caller supplies the kick, its record grid (the sync steps after which it reads
the state) and two hooks: ``mid``, which sees each step's closing noise
increment and whether a sync step closed it (the Girsanov bookkeeping), and
``on_step``, the caller's record, called after every sync step.  Between two
sync steps the two linear half-steps run as one exact full step, which leaves
the law of the state at every sync step unchanged.  A running integral along a
path is the trapezoid of its records (``stats.running_trapezoid``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from wavemix import stats
from wavemix.spectral import (
    Field,
    PhaseState,
    SpectralBasis,
    phase_norm_sq_arr,
)


class BlowupError(RuntimeError):
    """A trajectory left the space of finite states; nothing is clamped."""


class Nonlinearity:
    """Pointwise nonlinear term f with primitive F normalized by F(0) = 0.

    Supported kinds: ``klein_gordon`` (f = |u|^rho u - lam u, rho in (0,2)),
    ``sine_gordon`` (f = sin u), and ``polynomial`` (coefficients of powers
    u^1..u^d).  ``nu`` is the dissipativity margin used in the configuration
    checks; it must stay below (lambda_1 ^ gamma)/8.
    """

    def __init__(self, kind: str, *, rho: float | None = None, lam: float = 0.0,
                 coeffs: Sequence[float] | None = None, nu: float = 0.01):
        self.kind = kind
        self.nu = float(nu)
        if nu < 0:
            raise ValueError("nu must be nonnegative")
        if kind == "klein_gordon":
            if rho is None or not 0.0 < rho < 2.0:
                raise ValueError(f"klein_gordon requires rho in (0, 2), got {rho}")
            self.rho = float(rho)
            self.lam = float(lam)
        elif kind == "sine_gordon":
            self.rho = 1.0
        elif kind == "polynomial":
            c = np.asarray(coeffs if coeffs is not None else [], dtype=float)
            self.coeffs = c
            self.rho = max(float(len(c)) - 1.0, 0.5)
        else:
            raise ValueError(f"unknown nonlinearity kind {kind!r}")

    @staticmethod
    def klein_gordon(rho: float, lam: float = 0.0, nu: float = 0.01) -> "Nonlinearity":
        return Nonlinearity("klein_gordon", rho=rho, lam=lam, nu=nu)

    @staticmethod
    def sine_gordon(nu: float = 0.01) -> "Nonlinearity":
        return Nonlinearity("sine_gordon", nu=nu)

    @staticmethod
    def polynomial(coeffs: Sequence[float], nu: float = 0.01) -> "Nonlinearity":
        return Nonlinearity("polynomial", coeffs=coeffs, nu=nu)

    @staticmethod
    def zero() -> "Nonlinearity":
        return Nonlinearity("polynomial", coeffs=[], nu=0.0)

    def f(self, u):
        u = np.asarray(u, float)
        if self.kind == "klein_gordon":
            # |u|^rho u - lam u, in place on the |u| buffer; the power and the
            # lam term are skipped where they change no finite value
            out = np.abs(u)
            if self.rho != 1.0:
                out **= self.rho
            out *= u
            if self.lam != 0.0:
                out -= self.lam * u
            return out
        if self.kind == "sine_gordon":
            return np.sin(u)
        out = np.zeros_like(u)
        for k, c in enumerate(self.coeffs, start=1):
            out += c * u ** k
        return out

    def F(self, u):
        u = np.asarray(u, float)
        if self.kind == "klein_gordon":
            out = np.abs(u)
            out **= self.rho + 2
            out /= self.rho + 2
            if self.lam != 0.0:
                out -= self.lam * u ** 2 / 2
            return out
        if self.kind == "sine_gordon":
            return 1.0 - np.cos(u)
        out = np.zeros_like(u)
        for k, c in enumerate(self.coeffs, start=1):
            out += c * u ** (k + 1) / (k + 1)
        return out

    def fprime(self, u):
        u = np.asarray(u, float)
        if self.kind == "klein_gordon":
            return (self.rho + 1) * np.abs(u) ** self.rho - self.lam
        if self.kind == "sine_gordon":
            return np.cos(u)
        out = np.zeros_like(u)
        for k, c in enumerate(self.coeffs, start=1):
            out += k * c * u ** (k - 1)
        return out


@dataclass(frozen=True)
class DissipativityReport:
    """Smallest admissible constants for the three lower bounds on (f, F).

    ``c_lower``:    F(u) >= -nu u^2 - C
    ``c_balance``:  f(u) u - F(u) >= -nu u^2 - C
    ``c_gradient``: F(u) >= C^{-1} |f'(u)|^{(rho+2)/rho} - nu u^2 - C
    A condition is violated when the needed constant keeps growing at the
    edge of the scan range.
    """

    c_lower: float
    c_balance: float
    c_gradient: float
    ok: bool
    violations: tuple[str, ...]


def check_dissipativity(nl: Nonlinearity) -> DissipativityReport:
    """Scan the dissipativity inequalities on a symmetric log-spaced grid of
    4001 points with |u| <= 1e4."""
    u_max = 1e4
    mags = np.logspace(-4, math.log10(u_max), 2000)
    u = np.concatenate([-mags[::-1], [0.0], mags])
    f = nl.f(u)
    F = nl.F(u)
    nu = nl.nu

    need1 = -F - nu * u ** 2
    need2 = F - u * f - nu * u ** 2
    expo = (nl.rho + 2.0) / nl.rho
    g = np.abs(nl.fprime(u)) ** expo
    base = F + nu * u ** 2
    need3 = 0.5 * (-base + np.sqrt(base ** 2 + 4.0 * g))

    violations = []
    consts = []
    inner = np.abs(u) <= u_max / 10.0
    for name, need in (("lower", need1), ("balance", need2), ("gradient", need3)):
        c = float(max(need.max(), 0.0))
        consts.append(c)
        # A constant still growing through the last decade of the scan cannot
        # be certified finite.
        c_inner = float(max(need[inner].max(), 0.0))
        if c > 1.2 * max(c_inner, 1e-9):
            violations.append(name)
    return DissipativityReport(consts[0], consts[1], consts[2],
                               ok=not violations, violations=tuple(violations))


class NoiseModel:
    """Mode coefficients of the additive white-in-time noise.

    ``coeffs[j]`` multiplies the Brownian motion acting on the velocity of
    mode j+1.  A ``nondegenerate`` model rejects a zero coefficient.
    """

    def __init__(self, basis: SpectralBasis, coeffs, nondegenerate: bool = True):
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (basis.mode_count,):
            raise ValueError("need one coefficient per retained mode")
        if np.any(c < 0):
            raise ValueError("noise coefficients must be nonnegative")
        if nondegenerate and np.any(c == 0):
            raise ValueError("non-degenerate noise requires all b_j > 0")
        self.coeffs = c

    @staticmethod
    def power_law(basis: SpectralBasis, amplitude: float = 0.25, q: float = 2.0,
                  cutoff: int | None = None) -> "NoiseModel":
        """b_j = amplitude * j^-q, optionally zeroed beyond ``cutoff`` modes.

        The decay rate must satisfy q > (d+2)/2 so that B1 = sum lambda_j b_j^2
        stays summable as the truncation grows.
        """
        if q <= (basis.dim + 2) / 2:
            raise ValueError(
                f"decay q={q} too slow in dimension {basis.dim}: "
                f"B1 diverges unless q > {(basis.dim + 2) / 2}")
        j = np.arange(1, basis.mode_count + 1, dtype=float)
        c = amplitude * j ** (-q)
        if cutoff is not None:
            c[cutoff:] = 0.0
        return NoiseModel(basis, c, nondegenerate=cutoff is None)


def default_alpha(gamma: float, lambda1: float) -> float:
    """Damping weight making d|y|^2/dt <= -alpha |y|^2 hold with margin."""
    return min(gamma / 4.0, lambda1 / (4.0 * gamma))


@dataclass(frozen=True)
class SimConfig:
    """Integration parameters; dt must respect the explicit-kick rule
    dt <= 0.5/sqrt(lambda_M) unless explicitly overridden."""

    basis: SpectralBasis
    gamma: float
    dt: float
    horizon: float
    seed: int
    eps: float = 1.0
    alpha: float | None = None
    h: Field | None = None
    stride: int = 1
    allow_large_dt: bool = False

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        limit = 0.5 / math.sqrt(self.basis.eigenvalues[-1])
        if self.dt > limit * (1 + 1e-12) and not self.allow_large_dt:
            raise ValueError(f"dt={self.dt} exceeds stability rule {limit:.3e}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", default_alpha(
                self.gamma, float(self.basis.eigenvalues[0])))
        if self.h is not None and self.h.basis != self.basis:
            raise ValueError("forcing h lives on a different basis")

    @property
    def n_steps(self) -> int:
        return max(int(round(self.horizon / self.dt)), 1)

    def h_coeffs(self) -> np.ndarray:
        if self.h is None:
            return np.zeros(self.basis.mode_count)
        return self.h.coeffs


# --------------------------------------------------------------------------
# Exact linear step operators


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponentials of a stack (m, n, n) of small matrices.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, with a
    Taylor instead of a Pade kernel): each matrix is scaled by 2^-s, the least
    power of two that brings its 1-norm to at most 1/2; a degree-18 Taylor
    series in Horner form, whose truncation error there is below 1e-22, gives
    the exponential of the scaled matrix; and that matrix alone is squared s
    times.  The operators here are 2x2 and 4x4 and built once per
    configuration, so this replaces ``scipy.linalg.expm``, whose import costs
    a wave run about 0.2 s and 20 MB, at no measurable cost.
    """
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    f, e = np.frexp(norm)  # norm = f 2^e, 1/2 <= f < 1
    s = np.maximum(e + (f > 0.5), 0)
    X = np.ldexp(A, -s[:, None, None])
    eye = np.eye(A.shape[-1])
    E = eye + X / 18.0
    for k in range(17, 0, -1):
        E = eye + (X @ E) / k
    for i in range(int(s.max())):
        sq = s > i
        E[sq] = E[sq] @ E[sq]
    return E


def mode_generators(eigenvalues: np.ndarray, gamma: float) -> np.ndarray:
    """Generators [[0, 1], [-lambda_j, -gamma]] of the noiseless linear flow of
    each mode's (position, velocity), shape (M, 2, 2)."""
    A = np.zeros((eigenvalues.size, 2, 2))
    A[:, 0, 1] = 1.0
    A[:, 1, 0] = -eigenvalues
    A[:, 1, 1] = -gamma
    return A


def _van_loan_covariance(A: np.ndarray, tau: float) -> np.ndarray:
    """int_0^tau e^{As} Q e^{A^T s} ds for Q = diag(0, 1), batched over modes."""
    m = A.shape[0]
    Q = np.zeros((m, 2, 2))
    Q[:, 1, 1] = 1.0
    C = np.zeros((m, 4, 4))
    C[:, :2, :2] = -A
    C[:, :2, 2:] = Q
    C[:, 2:, 2:] = np.transpose(A, (0, 2, 1))
    E = _expm(C * tau)
    F2 = E[:, 2:, 2:]
    G = E[:, :2, 2:]
    return np.transpose(F2, (0, 2, 1)) @ G


def _chol2x2(S: np.ndarray) -> np.ndarray:
    """Cholesky factors of stacked SPD 2x2 matrices; zero blocks stay zero."""
    a = S[:, 0, 0]
    c = S[:, 1, 0]
    b = S[:, 1, 1]
    L = np.zeros_like(S)
    pos = a > 0
    ra = np.sqrt(a[pos])
    L[pos, 0, 0] = ra
    L[pos, 1, 0] = c[pos] / ra
    L[pos, 1, 1] = np.sqrt(np.maximum(b[pos] - (c[pos] / ra) ** 2, 0.0))
    only_vel = (~pos) & (b > 0)
    L[only_vel, 1, 1] = np.sqrt(b[only_vel])
    return L


def _inv2x2(S: np.ndarray) -> np.ndarray:
    """Inverses of stacked invertible 2x2 matrices, by the closed form."""
    det = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]
    adj = np.stack([S[:, 1, 1], -S[:, 0, 1], -S[:, 1, 0], S[:, 0, 0]], axis=-1)
    return adj.reshape(S.shape) / det[:, None, None]


class LinearOps:
    """Per-mode half- and full-step propagators and noise convolution factors."""

    def __init__(self, basis: SpectralBasis, gamma: float, eps: float,
                 noise: NoiseModel, dt: float):
        A = mode_generators(basis.eigenvalues, gamma)
        self.A = A
        self.P_half = _expm(A * (dt / 2.0))
        sig2 = eps * noise.coeffs ** 2
        self.cov_half = sig2[:, None, None] * _van_loan_covariance(A, dt / 2.0)
        self.chol_half = _chol2x2(self.cov_half)
        self.sig2 = sig2
        self.dt = dt
        self.noisy = sig2 > 0

    # The full step, two consecutive half-steps in one, is built on first use:
    # only a run that reads its state less often than every step merges them.
    @functools.cached_property
    def P_full(self) -> np.ndarray:
        return _expm(self.A * self.dt)

    @functools.cached_property
    def cov_full(self) -> np.ndarray:
        return self.sig2[:, None, None] * _van_loan_covariance(self.A, self.dt)

    @functools.cached_property
    def chol_full(self) -> np.ndarray:
        return _chol2x2(self.cov_full)


_OPS_CACHE: dict = {}


def linear_ops(cfg: SimConfig, noise: NoiseModel) -> LinearOps:
    key = (cfg.basis, cfg.gamma, cfg.eps, cfg.dt, noise.coeffs.tobytes())
    ops = _OPS_CACHE.get(key)
    if ops is None:
        ops = LinearOps(cfg.basis, cfg.gamma, cfg.eps, noise, cfg.dt)
        if len(_OPS_CACHE) > 32:
            _OPS_CACHE.clear()
        _OPS_CACHE[key] = ops
    return ops


def apply_modewise(mats: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Apply per-mode 2x2 matrices ``mats`` (M, 2, 2) to states of shape (..., 2, M).

    Layout contract: the result equals ``np.einsum("jab,...bj->...aj", mats,
    states)`` bit for bit, and has the same memory layout for C-ordered
    leading axes (including ``broadcast_to`` views and strided slices): a
    fresh (..., M, 2) array seen through ``swapaxes(-1, -2)``, so its last two
    strides are (8, 16).  The layout matters downstream: the Girsanov
    ``einsum`` reductions in ``coupling`` sum in an order set by the strides
    of their operands, so a C-contiguous result would move their last digit.
    """
    x = states[..., 0, :]
    v = states[..., 1, :]
    out = np.empty(states.shape[:-2] + (states.shape[-1], 2),
                   dtype=np.result_type(mats, states)).swapaxes(-1, -2)
    for a in range(2):
        row = out[..., a, :]
        np.multiply(mats[:, a, 0], x, out=row)
        row += mats[:, a, 1] * v
    return out


def draw_normals(rngs, buf: np.ndarray, chunk: int) -> None:
    """Fill ``buf[i, :chunk]`` from trajectory stream ``i``, in place.

    ``buf`` is a reusable (n_traj, chunk_steps, ...) block; row ``i`` gets the
    same numbers as ``rngs[i].standard_normal((chunk,) + buf.shape[2:])``
    without a second copy of the block being built and stacked.
    """
    for row, r in zip(buf, rngs):
        r.standard_normal(out=row[:chunk])


def check_finite(states: np.ndarray, t: float, offset: int) -> None:
    """Raise ``BlowupError`` if any path of a block (axis 0) holds a nonfinite value."""
    if not np.isfinite(states).all():
        bad = np.where(~np.isfinite(states).reshape(len(states), -1).any(axis=1))[0]
        raise BlowupError(f"nonfinite state near t={t:.4g} "
                          f"(trajectory offset {offset}, local index {bad[:4]})")


def trajectory_streams(seed: int, n: int, offset: int = 0):
    """Counter-based per-trajectory generators split from the master seed:
    trajectory ``offset + i`` draws from ``stats.generator(seed, (offset + i,))``."""
    return [stats.generator(seed, (offset + i,)) for i in range(n)]


# --------------------------------------------------------------------------
# Batched trajectory engine


@dataclass
class FlowResult:
    """Recorded output of a batch of trajectories on a common time grid."""

    t: np.ndarray
    probes: dict[str, np.ndarray]      # name -> (n_traj, n_rec)
    final_states: np.ndarray           # (n_traj, 2, M), or (n_traj, starts, 2, M)
    states: np.ndarray | None          # (n_traj, n_rec, ...) of those, when requested


@dataclass
class Trajectory:
    """One recorded path of ``simulate``: states and energies on the grid ``t``."""

    t: np.ndarray
    states: np.ndarray                 # (n_rec, 2, M)
    energy: np.ndarray


def make_energy_fn(basis: SpectralBasis, nl: Nonlinearity, alpha: float) -> Callable:
    lam = basis.eigenvalues

    def fn(states: np.ndarray) -> np.ndarray:
        pot = basis.integrate(nl.F, states[..., 0, :])
        return phase_norm_sq_arr(states, lam, alpha) + 2.0 * pot
    return fn


def make_kick_fn(basis: SpectralBasis, nl: Nonlinearity, h_coeffs: np.ndarray) -> Callable:
    """Velocity increment coefficients of -f(u)+h, evaluated pseudo-spectrally."""

    def fn(pos_coeffs: np.ndarray) -> np.ndarray:
        return -basis.project(nl.f, pos_coeffs) + h_coeffs
    return fn


_CHUNK_STEPS = 256
# Bytes of a chunk's noise block, here and in the toys: a large batch gets fewer
# steps per chunk, drawn in the same order.  Nothing else depends on this cap.
_NOISE_BLOCK_BYTES = 1 << 20
# Paths per block of both ensemble engines, ``run_flow`` and the coupled pairs.
# A path draws from its own stream wherever its block starts, so the block
# decides only the memory of a run and the BLAS reduction order.
_PATH_BLOCK = 128


def _path_blocks(n_traj: int) -> list[tuple[int, int]]:
    """The (lo, hi) path ranges of ``n_traj`` paths in blocks of ``_PATH_BLOCK``."""
    return [(lo, min(lo + _PATH_BLOCK, n_traj)) for lo in range(0, n_traj, _PATH_BLOCK)]


def _strang_drive(states: np.ndarray, ops: LinearOps, rngs, kick: Callable,
                  n_steps: int, on_step: Callable | None = None,
                  mid: Callable | None = None, *, sync,
                  offset: int = 0) -> np.ndarray:
    """Advance a block of states ``n_steps`` Strang steps and return it.

    ``states`` has shape (n_paths, ..., 2, M); path ``i`` draws its noise from
    ``rngs[i]``, shared by every system of the path, and ``rngs=None`` runs the
    noiseless scheme without drawing.  One step is an exact linear half-step,
    the velocity kick ``dt * kick(states)`` and a closing exact linear step.

    ``sync`` holds the steps after which the caller reads the state, a record
    grid such as ``stats.record_steps`` gives; the last step always is one.  A
    sync step closes with a half-step (``P_half``, ``chol_half``), then calls
    ``on_step(step, states)``; any other closes with an exact full step
    (``P_full``, ``chol_full``) that also opens the next step.  Before the
    closing step, ``mid(w, close)`` sees its (n_paths, 2, M) noise increment
    and whether a sync step closes.  Each path draws one (2, M) increment per
    linear step, in the order the steps use them: ``n_steps`` plus the number
    of sync steps in all.  A nonfinite block raises ``BlowupError`` once per
    chunk.
    """
    dt = ops.dt
    lift = (slice(None),) + (None,) * (states.ndim - 3)  # one increment per path
    normals = None
    chunk_steps = _CHUNK_STEPS
    if rngs is not None:
        n_paths, m = len(states), ops.P_half.shape[0]
        step_bytes = 8 * n_paths * 2 * 2 * m  # one step's float64 normals, at most
        chunk_steps = max(min(chunk_steps, _NOISE_BLOCK_BYTES // max(step_bytes, 1)), 1)
        normals = np.empty((n_paths, 2 * min(chunk_steps, n_steps), 2, m))
    synced = True  # the state sits at a sync step: the next step opens with a half-step
    step = 0
    while step < n_steps:
        chunk = min(chunk_steps, n_steps - step)
        steps = range(step + 1, step + chunk + 1)
        closes = [s in sync or s == n_steps for s in steps]
        k = 0  # the block's next increment: one per linear step
        if normals is not None:
            draw_normals(rngs, normals, chunk + synced + sum(closes[:-1]))
        for s, close in zip(steps, closes):
            if synced:
                states = apply_modewise(ops.P_half, states)
                if normals is not None:
                    states += apply_modewise(ops.chol_half, normals[:, k])[lift]
                k += 1
            states[..., 1, :] += dt * kick(states)
            # a sync step closes with a half-step; any other merges into a full one
            P, chol = (ops.P_half, ops.chol_half) if close else (ops.P_full, ops.chol_full)
            w = None if normals is None else apply_modewise(chol, normals[:, k])
            k += 1
            if mid is not None:
                mid(w, close)
            states = apply_modewise(P, states)
            if w is not None:
                states += w[lift]
            synced = close
            if close and on_step is not None:
                on_step(s, states)
        step += chunk
        check_finite(states, step * dt, offset)
    return states


def run_flow(cfg: SimConfig, nl: Nonlinearity, noise: NoiseModel,
             y0: PhaseState | Sequence[PhaseState], *, n_traj: int = 1,
             probes: dict[str, Callable] | None = None,
             return_states: bool = False, threads: int = 1) -> FlowResult:
    """Advance ``n_traj`` independent trajectories from ``y0``.

    ``probes`` are evaluated at the recorded times, every ``cfg.stride``-th
    step and the last, and give one value per path.  The linear half-steps
    between recorded steps merge (see ``_strang_drive``), so ``cfg.stride``
    decides which path a seed gives; its law at the recorded times does not
    depend on the stride.

    A sequence of start states runs path i from every start on the one
    stream of path i (common random numbers): the states a probe sees, the
    final states and the recorded states gain a start axis after the path
    axis.  The kick runs once per start, so each start's path is bit for bit
    the plain run from that start.
    """
    probes = dict(probes or {})
    ops = linear_ops(cfg, noise)
    kick = make_kick_fn(cfg.basis, nl, cfg.h_coeffs())
    rec = stats.record_steps(cfg.n_steps, cfg.stride)
    t_rec = np.array(list(rec)) * cfg.dt

    y0_arr = (y0.as_array() if isinstance(y0, PhaseState)
              else np.stack([y.as_array() for y in y0]))

    def kick_states(s):
        # one kick per start, each on the (paths, M) positions of a plain run
        if s.ndim == 3:
            return kick(s[:, 0, :])
        return np.stack([kick(s[:, j, 0, :]) for j in range(s.shape[1])], axis=1)

    out_probes = {k: np.empty((n_traj, len(rec))) for k in probes}
    finals = np.empty((n_traj,) + y0_arr.shape)
    all_states = (np.empty((n_traj, len(rec)) + y0_arr.shape)
                  if return_states else None)

    def run_block(lo: int, hi: int):
        nb = hi - lo
        states = np.broadcast_to(y0_arr, (nb,) + y0_arr.shape).copy()
        # a noiseless run (eps = 0) draws nothing
        rngs = trajectory_streams(cfg.seed, nb, offset=lo) if ops.noisy.any() else None

        def record(step: int, states: np.ndarray):
            i = rec[step]
            for k, fn in probes.items():
                out_probes[k][lo:hi, i] = fn(states)
            if all_states is not None:
                all_states[lo:hi, i] = states

        record(0, states)
        finals[lo:hi] = _strang_drive(states, ops, rngs, kick_states, cfg.n_steps,
                                      record, sync=rec, offset=lo)

    blocks = _path_blocks(n_traj)
    if threads > 1 and len(blocks) > 1:
        # imported here: concurrent.futures loads logging, which no 1-thread run needs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: run_block(*b), blocks))
    else:
        for b in blocks:
            run_block(*b)

    return FlowResult(t_rec, out_probes, finals, all_states)


def simulate(cfg: SimConfig, nl: Nonlinearity, noise: NoiseModel,
             y0: PhaseState) -> Trajectory:
    """Single trajectory with its states and energies recorded."""
    energy_fn = make_energy_fn(cfg.basis, nl, cfg.alpha)
    res = run_flow(cfg, nl, noise, y0, probes={"energy": energy_fn}, return_states=True)
    return Trajectory(res.t, res.states[0], res.probes["energy"][0])


# --------------------------------------------------------------------------
# Diagnostics


@dataclass
class EnergyAudit:
    """Decay audit of an energy series against E(0) e^{-alpha t} + C."""

    t: np.ndarray
    series: np.ndarray
    c_fit: float
    decay: stats.LineFit | None
    k_fit: float

    @property
    def decay_rate(self) -> float:
        return -self.decay.slope if self.decay is not None else math.nan


def energy_audit(t: np.ndarray, series: np.ndarray, norm_sq: np.ndarray,
                 alpha: float) -> EnergyAudit:
    """Audit an energy series on the grid ``t`` against E(0) e^{-alpha t} + C.

    ``series`` and ``norm_sq``, the |y|_H^2 series, hold one path (a
    pathwise audit) or a leading path axis, averaged over first.  The running
    integral of |y|_H^2 that ``k_fit`` reads is the trapezoid on ``t``.
    """
    int_norm = stats.running_trapezoid(t, norm_sq)
    if series.ndim > 1:
        series, int_norm = np.mean(series, axis=0), np.mean(int_norm, axis=0)

    envelope = series[0] * np.exp(-alpha * t)
    c_fit = float(max(np.max(series - envelope), 0.0))
    resid = series - c_fit
    decay = None
    floor = max(abs(series).max() * 1e-12, 1e-300)
    try:
        decay = stats.log_decay_fit(t, resid, floor=floor)
    except ValueError:
        pass
    k_fit = 0.0
    if t.size > 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = (series + 0.5 * alpha * int_norm - series[0]) / t
        k_fit = float(np.max(ratios[1:]))
    return EnergyAudit(t, series, c_fit, decay, k_fit)
