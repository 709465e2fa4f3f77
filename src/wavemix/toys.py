"""Exact finite-dimensional ground-truth models.

Gradient diffusions du = -b(u) dt + sqrt(eps) dW carry a closed-form
stationary density proportional to exp(-2A/eps) with A the potential of the
drift; the Ornstein-Uhlenbeck process and finite-state chains add exactly
solvable moments and eigenproblems.  Everything downstream that needs an
independent oracle anchors on these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wavemix.nlw import _NOISE_BLOCK_BYTES, BlowupError
from wavemix.stats import generator, record_steps


@dataclass(frozen=True)
class GradientSDE:
    """Scalar gradient diffusion with polynomial drift b = A'.

    ``drift_coeffs`` are the coefficients of b in ascending powers of u,
    starting at u^0.
    """

    drift_coeffs: tuple[float, ...]
    name: str = "gradient_sde"

    def __post_init__(self):
        # descending coefficients of b, b' and b'', as np.polyval receives them
        b = list(self.drift_coeffs)
        db = [k * c for k, c in enumerate(b)][1:] or [0.0]
        d2b = [k * c for k, c in enumerate(db)][1:] or [0.0]
        object.__setattr__(self, "_b_desc", tuple(np.asarray(b[::-1])))
        object.__setattr__(self, "_db_desc", tuple(np.asarray(db[::-1])))
        object.__setattr__(self, "_d2b_desc", tuple(np.asarray(d2b[::-1])))
        # potential consistency: A' = b checked on a dense grid
        u = np.linspace(-10, 10, 1000)
        dA = np.polyval(np.polyder(np.poly1d(self._poly_A())), u)
        if np.max(np.abs(dA - self.drift(u))) > 1e-10 * max(np.abs(self.drift(u)).max(), 1.0):
            raise AssertionError("potential is not an antiderivative of the drift")

    def _poly_A(self):
        b = list(self.drift_coeffs)
        A = [0.0] + [c / (k + 1) for k, c in enumerate(b)]
        return list(reversed(A))

    def drift(self, u):
        return _horner(self._b_desc, u)

    def drift_prime(self, u):
        """b'(u), evaluated as np.polyval evaluates it."""
        return _horner(self._db_desc, u)

    def drift_second(self, u):
        """b''(u), evaluated as np.polyval evaluates it."""
        return _horner(self._d2b_desc, u)

    def potential(self, u):
        return np.polyval(self._poly_A(), u)

    def equilibria(self) -> tuple[np.ndarray, np.ndarray]:
        """Real roots of the drift with stability flags (b' > 0 is stable)."""
        roots = np.roots(list(reversed(self.drift_coeffs)))
        real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
        dedup = []
        for r in real:
            if not dedup or abs(r - dedup[-1]) > 1e-8:
                dedup.append(r)
        pts = np.array(dedup)
        return pts, self.drift_prime(pts) > 0


def _horner(coeffs: tuple, u):
    """``np.polyval(coeffs, u)`` bit for bit, without its per-call set-up.

    polyval starts from y = 0 and applies y = y*u + c for each coefficient;
    for finite u its first step yields c0 exactly, so the loop here starts
    from u*c0 + c1 and continues in place in the same order.  A monic lead
    (c0 == 1) starts from u + c1, since 1*u == u for every float.
    """
    u = np.asanyarray(u)
    if len(coeffs) == 1:
        return np.zeros_like(u) * u + coeffs[0]
    y = u + coeffs[1] if coeffs[0] == 1 else u * coeffs[0] + coeffs[1]
    for c in coeffs[2:]:
        y *= u
        y += c
    return y


@dataclass(frozen=True)
class OrnsteinUhlenbeck:
    """du = -theta u dt + sigma dW; stationary variance sigma^2/(2 theta)."""

    theta: float = 1.0
    sigma: float = 1.0

    def drift(self, u):
        return self.theta * np.asarray(u, float)

    @property
    def eps(self) -> float:
        return self.sigma ** 2

    @property
    def stationary_var(self) -> float:
        return self.sigma ** 2 / (2 * self.theta)

    def clt_variance(self) -> float:
        """Green-Kubo variance of t^{-1/2} int u ds."""
        return self.sigma ** 2 / self.theta ** 2

    def pressure(self, beta: float) -> float:
        """Exact growth rate of E exp(beta int u ds): beta^2 sigma^2 / (2 theta^2)."""
        return beta ** 2 * self.sigma ** 2 / (2 * self.theta ** 2)


def builtin_cubic() -> GradientSDE:
    """b(u) = u(u-1)(u-3): equilibria {0, 1, 3}, stable {0, 3}."""
    return GradientSDE((0.0, 3.0, -4.0, 1.0), name="cubic")


def builtin_doublewell() -> GradientSDE:
    """b(u) = u(u-1)(u-2): symmetric wells at 0 and 2, barrier 1/2 both ways."""
    return GradientSDE((0.0, 2.0, -3.0, 1.0), name="doublewell")


@dataclass
class ExactDensity:
    """Normalized small-noise stationary density  exp(-2A/eps) / Z, in log space.

    ``log_weight`` is -2A/eps on ``grid`` shifted to peak 0 and ``log_z`` the
    log of its normalizer, so measures of sets stay finite far below
    double-precision underflow of the density itself.
    """

    grid: np.ndarray
    log_weight: np.ndarray
    log_z: float

    def log_measure(self, lo: float, hi: float) -> float:
        """log of the probability of [lo, hi], evaluated stably."""
        lo = max(lo, float(self.grid[0]))
        hi = min(hi, float(self.grid[-1]))
        if hi <= lo:
            return -math.inf
        inner = (self.grid > lo) & (self.grid < hi)
        xs = np.concatenate([[lo], self.grid[inner], [hi]])
        ys = np.concatenate([[np.interp(lo, self.grid, self.log_weight)],
                             self.log_weight[inner],
                             [np.interp(hi, self.grid, self.log_weight)]])
        # trapezoid in log space: logsumexp of node values with cell weights
        w = np.zeros(xs.size)
        dx = np.diff(xs)
        w[:-1] += 0.5 * dx
        w[1:] += 0.5 * dx
        peak = ys.max()
        return float(peak + math.log(np.sum(w * np.exp(ys - peak))) - self.log_z)

    def measure(self, lo: float, hi: float) -> float:
        """Probability of [lo, hi] by quadrature, with interpolated endpoints."""
        lm = self.log_measure(lo, hi)
        return 0.0 if lm == -math.inf else math.exp(lm)

    def mass_near(self, points, eta: float) -> float:
        return float(sum(self.measure(p - eta, p + eta) for p in np.atleast_1d(points)))


def gradient_sde_exact_density(model, eps: float) -> ExactDensity:
    """Quadrature-normalized density on 200001 nodes; rejects non-integrable
    potentials.

    The grid extends until the potential exceeds its minimum by 60*eps on
    both sides, which bounds the truncated mass by e^-120.
    """
    span = 1.0
    lo, hi = -span, span
    for _ in range(60):
        u = np.linspace(lo, hi, 20001)
        A = model.potential(u)
        amin = A.min()
        target = amin + 60.0 * eps + 10.0
        ok_lo = A[0] > target and model.drift(lo) < 0
        ok_hi = A[-1] > target and model.drift(hi) > 0
        if ok_lo and ok_hi:
            break
        if not ok_lo:
            lo *= 1.6
        if not ok_hi:
            hi *= 1.6
        if abs(lo) > 1e6 or hi > 1e6:
            raise ValueError("exp(-2A/eps) is not integrable on the real line")
    u = np.linspace(lo, hi, 200001)
    logw = -2.0 * model.potential(u) / eps
    logw -= logw.max()
    Z = np.trapezoid(np.exp(logw), u)
    return ExactDensity(u, logw, math.log(Z))


def simulate_toy(model, eps: float | None, dt: float, horizon: float, seed: int,
                 n_traj: int = 1, u0: float | np.ndarray | None = None,
                 record_stride: int = 1,
                 integrand=None, stream: tuple[int, ...] = ()
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Euler-Maruyama paths of du = -b(u) dt + sqrt(eps) dW.

    Returns (times, paths, integrals) where paths has shape (n_traj, n_rec)
    and integrals is the running trapezoid integral of ``integrand(u)`` when
    one is supplied.  The noise is one lane of width ``n_traj``, drawn
    step-major from the stream ``stats.generator(seed, stream)``, so callers
    that run several estimates from one seed give each its own ``stream``.
    ``_em_drive`` runs the steps; a nonfinite path raises ``BlowupError``
    naming its earliest step and the lowest such path.
    """
    if eps is None:
        if not isinstance(model, OrnsteinUhlenbeck):
            raise ValueError("eps is required for gradient toys")
        eps = model.eps
    n_steps = max(int(round(horizon / dt)), 1)
    rec = record_steps(n_steps, record_stride)
    t = np.array(list(rec)) * dt

    rng = generator(seed, stream)
    u = np.broadcast_to(np.asarray(0.0 if u0 is None else u0, float), (n_traj,)).copy()
    out = np.empty((n_traj, len(rec)))
    out[:, 0] = u
    acc = np.zeros(n_traj)
    prev = integrand(u) if integrand is not None else None
    out_int = np.zeros((n_traj, len(rec))) if integrand is not None else None

    def on_chunk(done, path):
        nonlocal acc, prev
        for step, u in enumerate(path, done + 1):
            if integrand is not None:
                cur = integrand(u)
                acc += 0.5 * dt * (prev + cur)
                prev = cur
            if step in rec:
                out[:, rec[step]] = u
                if integrand is not None:
                    out_int[:, rec[step]] = acc
        if integrand is not None:
            prev = np.array(prev)  # it may view the block the next chunk overwrites

    _em_drive(model, u, eps, dt, n_steps, [rng], on_chunk)
    return t, out, out_int


def _em_drive(model, u, eps, dt, n_steps, rngs, on_chunk):
    """Euler-Maruyama steps of du = -b(u) dt + sqrt(eps) dW, in noise chunks.

    The paths ``u`` form ``len(rngs)`` lanes, one of every path or one per
    path; lane ``l`` draws its noise step-major from ``rngs[l]``.  A chunk's
    noise, at most ``_NOISE_BLOCK_BYTES``, fills one block, is scaled once and
    is overwritten step by step with the states; the drift runs once per step
    on all paths.  A nonfinite state raises ``BlowupError`` naming its
    earliest step and, within it, the lowest path.  Otherwise ``on_chunk(done,
    path)`` gets the steps done before the chunk and its (steps, paths)
    states, valid until the next draw; a true return ends the run.
    """
    n_paths = u.size
    if n_paths == 0:  # nothing to draw, step or hand on
        return
    chunk = max(min(n_steps, _NOISE_BLOCK_BYTES // (8 * n_paths)), 1)
    block = np.empty((len(rngs), chunk, n_paths // len(rngs)))
    root_eps_dt = math.sqrt(eps * dt)
    done = 0
    while done < n_steps:
        k = min(chunk, n_steps - done)
        lanes = block[:, :k]
        for rng, lane in zip(rngs, lanes):
            rng.standard_normal(out=lane)
        lanes *= root_eps_dt
        # (steps, paths): a view of the block when one lane or unit-width lanes
        path = lanes.transpose(1, 0, 2).reshape(k, n_paths)
        for row in path:
            np.add(u - model.drift(u) * dt, row, out=row)
            u = row
        # the Euler step keeps a nonfinite state nonfinite: the last row decides
        if not np.isfinite(u).all():
            bad = ~np.isfinite(path)
            step = int(bad.any(axis=1).argmax())
            raise BlowupError(f"nonfinite toy state at t={(done + step + 1) * dt:.4g} "
                              f"(path {int(bad[step].argmax())}); decrease dt")
        u = u.copy()  # the next chunk's draws overwrite the block
        if on_chunk(done, path):
            return
        done += k


def autocorrelation_time(path: np.ndarray, dt: float) -> float:
    """Integrated autocorrelation time of a scalar series (in time units),
    summed over lags below min(2000, n/4) until the correlation drops below 0.05."""
    x = np.asarray(path, float)
    x = x - x.mean()
    n = x.size
    max_lag = min(2000, n // 4)
    var = float(np.dot(x, x) / n)
    if var == 0:
        return dt
    tau = 0.5
    for lag in range(1, max_lag):
        c = float(np.dot(x[:-lag], x[lag:]) / (n - lag)) / var
        if c < 0.05:
            break
        tau += c
    return 2.0 * tau * dt
