"""Bounded Lipschitz observables on the phase space with documented constants.

Each observable is a bounded function of a linear functional whose dual norm
with respect to |.|_H is exactly one, so the composite is 1-Lipschitz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from wavemix.spectral import SpectralBasis


@dataclass(frozen=True)
class Observable:
    """ψ(y) = wave(ℓ(y)) with |ψ|_∞ ≤ 1 and Lipschitz constant ≤ 1, since
    |wave'| ≤ 1 and ℓ has unit dual norm."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, states: np.ndarray) -> np.ndarray:
        return self.fn(states)


def _position_functional(basis: SpectralBasis, mode: int, alpha: float):
    # l(y) = sqrt(lam_k) c1_k has dual H-norm exactly 1
    scale = np.sqrt(basis.eigenvalues[mode - 1])

    def fn(states):
        return scale * states[..., 0, mode - 1]
    return fn


def _velocity_functional(basis: SpectralBasis, mode: int, alpha: float):
    # l(y) = alpha c1_k + c2_k = (u2 + alpha u1, e_k) has dual H-norm exactly 1
    def fn(states):
        return alpha * states[..., 0, mode - 1] + states[..., 1, mode - 1]
    return fn


def default_observables(basis: SpectralBasis, alpha: float,
                        modes: tuple[int, ...] = (1, 2, 3)) -> list[Observable]:
    """cos/sin of unit-dual-norm mode functionals: 1-Lipschitz, bounded by 1."""
    obs = []
    for k in modes:
        for kind, lin in (("pos", _position_functional(basis, k, alpha)),
                          ("vel", _velocity_functional(basis, k, alpha))):
            obs.append(Observable(f"cos_{kind}{k}",
                                  (lambda f: lambda s: np.cos(f(s)))(lin)))
            obs.append(Observable(f"sin_{kind}{k}",
                                  (lambda f: lambda s: np.sin(f(s)))(lin)))
    return obs
