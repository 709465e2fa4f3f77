"""Dirichlet-Laplacian eigenbasis on boxes, spectral fields, and phase-space norms.

Everything downstream works in the coordinates of this basis: a scalar field
is a coefficient vector, a phase-space point is a pair of coefficient vectors
(position, velocity), and nonlinear terms are evaluated pseudo-spectrally on
an oversampled collocation grid.  ``Field`` and ``PhaseState`` only build and
check points; every computation runs on stacked ``(..., 2, M)`` arrays, through
the ``SpectralBasis`` transforms and the ``*_arr`` norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Oversampling factor of the collocation grid relative to the retained modes.
# A factor 4 keeps products up to degree 7 of retained modes alias-free under
# the trapezoid rule in the sine basis.
GRID_FACTOR = 4
# Bytes of grid values in one leading-axis block of the 2D pseudo-spectral map.
_GRID_BLOCK_BYTES = 256 << 10


class BasisMismatchError(ValueError):
    """Two spectral objects built on different bases were combined."""


@dataclass(frozen=True)
class SpectralBasis:
    """Sine eigenbasis of the Dirichlet Laplacian on (0, L) or (0, L1) x (0, L2).

    Attributes
    ----------
    lengths : tuple of float
        Side lengths; one entry for an interval, two for a rectangle.
    mode_count : int
        Total number of retained modes M, sorted by ascending eigenvalue.
    """

    lengths: tuple[float, ...]
    mode_count: int

    def __post_init__(self):
        if self.mode_count < 1:
            raise ValueError("mode_count must be >= 1")
        if len(self.lengths) not in (1, 2):
            raise ValueError("only 1D intervals and 2D rectangles are supported")
        if any(L <= 0 for L in self.lengths):
            raise ValueError("domain lengths must be positive")

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @cached_property
    def _mode_indices(self) -> np.ndarray:
        """Integer index tuples of the retained modes, ascending eigenvalue."""
        m = self.mode_count
        if self.dim == 1:
            return np.arange(1, m + 1)[:, None]

        def lam(j1, j2):
            return (j1 * np.pi / self.lengths[0]) ** 2 + (j2 * np.pi / self.lengths[1]) ** 2

        # The k x k block, k = ceil(sqrt(M)), holds at least M modes, so its
        # M-th smallest eigenvalue bounds lambda_M from above.  An index pair
        # under the bound has j_d <= L_d sqrt(bound) / pi on each axis; the
        # ranges keep one more against rounding, and only the pairs under the
        # bound are sorted.
        k = np.arange(1, math.isqrt(m - 1) + 2)
        bound = np.partition(lam(k[:, None], k[None, :]), m - 1, axis=None)[m - 1]
        j1, j2 = (g.ravel() for g in np.meshgrid(
            *(np.arange(1, int(L * math.sqrt(bound) / np.pi) + 2) for L in self.lengths),
            indexing="ij"))
        lams = lam(j1, j2)
        under = lams <= bound
        j1, j2, lams = j1[under], j2[under], lams[under]
        order = np.lexsort((j2, j1, lams))[:m]
        return np.stack([j1[order], j2[order]], axis=-1)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Dirichlet eigenvalues lambda_j, ascending, shape (M,)."""
        jj = self._mode_indices
        lam = np.zeros(self.mode_count)
        for d, L in enumerate(self.lengths):
            lam += (jj[:, d] * np.pi / L) ** 2
        return lam

    @cached_property
    def _grid_1d(self) -> list[np.ndarray]:
        return [np.linspace(0.0, L, GRID_FACTOR * k + 1)
                for k, L in zip(self._modes_per_axis, self.lengths)]

    @property
    def _modes_per_axis(self) -> tuple[int, ...]:
        """Largest retained mode index on each axis."""
        return tuple(int(k) for k in self._mode_indices.max(axis=0))

    @cached_property
    def nodes(self) -> np.ndarray:
        """Collocation nodes, shape (n_nodes, dim); includes the boundary."""
        grids = np.meshgrid(*self._grid_1d, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    @cached_property
    def _weights_1d(self) -> list[np.ndarray]:
        ws = []
        for x in self._grid_1d:
            h = x[1] - x[0]
            w = np.full(x.size, h)
            w[0] = w[-1] = h / 2
            ws.append(w)
        return ws

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite-trapezoid quadrature weights matching ``nodes``."""
        ws = self._weights_1d
        if self.dim == 1:
            return ws[0]
        return np.multiply.outer(ws[0], ws[1]).ravel()

    @cached_property
    def eigenfunctions(self) -> np.ndarray:
        """Sampled orthonormal eigenfunctions, shape (n_nodes, M)."""
        cols = []
        for j in self._mode_indices:
            vals = np.ones(len(self.nodes))
            for d, L in enumerate(self.lengths):
                vals = vals * np.sqrt(2.0 / L) * np.sin(j[d] * np.pi * self.nodes[:, d] / L)
            cols.append(vals)
        return np.stack(cols, axis=-1)

    @cached_property
    def _tensor_factors(self) -> tuple[np.ndarray, ...]:
        """1D factors of the 2D transform through the K1 x K2 coefficient block.

        Mode (j1, j2) is e_j1(x) e_j2(y) with e_j = sqrt(2/L) sin(j pi x / L),
        so on the tensor grid a transform is two small matmuls (sum
        factorisation).  Returns ``(S1, S2, w1 S1, w2 S2, flat)``: the
        (n_d+1) x K_d sine table of each axis d, their copies scaled by the 1D
        trapezoid weights, and the position (j1-1) K2 + (j2-1) of each
        retained mode in the flattened block.
        """
        s1, s2 = (np.sqrt(2.0 / L) * np.sin(np.arange(1, k + 1) * np.pi * x[:, None] / L)
                  for k, x, L in zip(self._modes_per_axis, self._grid_1d, self.lengths))
        w1, w2 = self._weights_1d
        k2 = s2.shape[1]
        flat = (self._mode_indices[:, 0] - 1) * k2 + (self._mode_indices[:, 1] - 1)
        return s1, s2, w1[:, None] * s1, w2[:, None] * s2, flat

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values of the field with the given coefficients (batched on the left).

        1D multiplies by the dense ``eigenfunctions`` matrix, with any leading
        axes folded into one (B, M) operand so that a strided batch is one
        gemm rather than numpy's stacked loop; 2D forms ``S1 C S2^T`` from the
        K1 x K2 coefficient block C of each batch entry, one product per entry:
        one gemm over all B K1 rows rounds differently at a few rows (B = 1,
        K1 = 7), so a path's values would depend on its path block.
        """
        lead = np.shape(coeffs)[:-1]
        if self.dim == 1:
            rows = np.reshape(coeffs, (-1, self.mode_count))
            return (rows @ self.eigenfunctions.T).reshape(lead + (-1,))
        s1, s2, _, _, flat = self._tensor_factors
        (n1, k1), (n2, k2) = s1.shape, s2.shape
        block = np.zeros(lead + (k1 * k2,))
        block[..., flat] = coeffs
        rows = block.reshape(lead + (k1, k2)) @ s2.T  # C S2^T
        return (s1 @ rows).reshape(lead + (n1 * n2,))

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of grid values, projected onto the retained modes.

        1D is the dense weighted projection; 2D forms ``(w1 S1)^T V (w2 S2)``
        on the (n1+1) x (n2+1) value grid V and keeps the retained entries.
        """
        if self.dim == 1:
            return (values * self.weights) @ self.eigenfunctions
        _, _, ws1, ws2, flat = self._tensor_factors
        lead = np.shape(values)[:-1]
        block = ws1.T @ np.reshape(values, lead + (ws1.shape[0], ws2.shape[0])) @ ws2
        return block.reshape(lead + (-1,))[..., flat]

    def quadrature(self, values: np.ndarray) -> np.ndarray:
        """Integral over the domain of grid values (batched on the left).

        A per-path pairwise sum, so a path's integral is the same under any
        path blocking (a gemv's bits depend on how its rows are grouped).
        """
        return np.sum(values * self.weights, axis=-1)

    def project(self, g, coeffs: np.ndarray) -> np.ndarray:
        """``analyze(g(synthesize(coeffs)))`` for a pointwise map ``g``."""
        return self._by_path_block(lambda c: self.analyze(g(self.synthesize(c))),
                                   coeffs, (self.mode_count,))

    def integrate(self, G, coeffs: np.ndarray) -> np.ndarray:
        """``quadrature(G(synthesize(coeffs)))`` for a pointwise map ``G``."""
        return self._by_path_block(lambda c: self.quadrature(G(self.synthesize(c))),
                                   coeffs, ())

    def _by_path_block(self, fn, coeffs: np.ndarray, tail: tuple[int, ...]) -> np.ndarray:
        """``fn(coeffs)``, of shape ``lead + tail``; 2D runs it on leading-axis
        blocks, which keeps every bit. 1D runs whole: blocking its gemm would change bits."""
        lead = np.shape(coeffs)[:-1]
        rows = max(_GRID_BLOCK_BYTES // (8 * self.weights.size * math.prod(lead[1:])), 1)
        if self.dim == 1 or not lead or lead[0] <= rows:
            return fn(coeffs)
        out = np.empty(lead + tail)
        for i in range(0, lead[0], rows):
            out[i:i + rows] = fn(coeffs[i:i + rows])
        return out


@dataclass(frozen=True)
class Field:
    """Scalar field in spectral coordinates: its coefficients on ``basis``."""

    basis: SpectralBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.basis.mode_count,):
            raise ValueError(f"expected {self.basis.mode_count} coefficients, got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def zero(basis: SpectralBasis) -> "Field":
        return Field(basis, np.zeros(basis.mode_count))

    @staticmethod
    def from_mode(basis: SpectralBasis, mode: int, amplitude: float = 1.0) -> "Field":
        """Multiple of the ``mode``-th eigenfunction (1-based index)."""
        c = np.zeros(basis.mode_count)
        c[mode - 1] = amplitude
        return Field(basis, c)


@dataclass(frozen=True)
class PhaseState:
    """Point [u1, u2] of the second-order flow with the damping-weighted norm.

    ``alpha`` is the small weight in |y|^2 = ||grad u1||^2 + ||u2 + alpha*u1||^2.
    """

    u1: Field
    u2: Field
    alpha: float

    def __post_init__(self):
        if self.u1.basis != self.u2.basis:
            raise BasisMismatchError("fields live on different spectral bases")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    @property
    def basis(self) -> SpectralBasis:
        return self.u1.basis

    @staticmethod
    def zero(basis: SpectralBasis, alpha: float) -> "PhaseState":
        return PhaseState(Field.zero(basis), Field.zero(basis), alpha)

    @staticmethod
    def from_coeffs(basis: SpectralBasis, c1: np.ndarray, c2: np.ndarray,
                    alpha: float) -> "PhaseState":
        return PhaseState(Field(basis, c1), Field(basis, c2), alpha)

    def as_array(self) -> np.ndarray:
        """Stacked coefficients, shape (2, M): row 0 position, row 1 velocity."""
        return np.stack([self.u1.coeffs, self.u2.coeffs])


def phase_norm(y: PhaseState) -> float:
    """The alpha-weighted phase-space norm |y|_H."""
    return float(np.sqrt(phase_norm_sq_arr(y.as_array(), y.basis.eigenvalues, y.alpha)))


def phase_norm_sq_arr(states: np.ndarray, eigenvalues: np.ndarray, alpha: float) -> np.ndarray:
    """|y|_H^2 for stacked coefficient arrays of shape (..., 2, M)."""
    c1 = states[..., 0, :]
    c2 = states[..., 1, :]
    return np.sum(eigenvalues * c1 ** 2 + (c2 + alpha * c1) ** 2, axis=-1)


def sobolev_phase_norm_sq_arr(states: np.ndarray, eigenvalues: np.ndarray,
                              alpha: float, s: float) -> np.ndarray:
    """|y|_{H^s}^2 = ||u1||_{s+1}^2 + ||u2 + alpha*u1||_s^2 for arrays of shape
    (..., 2, M), with ||c||_s^2 = sum lambda_j^s c_j^2."""
    c1 = states[..., 0, :]
    c2 = states[..., 1, :]
    return np.sum(eigenvalues ** (s + 1) * c1 ** 2
                  + eigenvalues ** s * (c2 + alpha * c1) ** 2, axis=-1)
