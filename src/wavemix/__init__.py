"""wavemix: numerical laboratory for the stochastic damped nonlinear wave equation.

Spectral Galerkin simulation with exact per-mode linear flow, coupling-based
mixing diagnostics, occupation-measure and pressure estimation, and
small-noise rate functions anchored by exact finite-dimensional oracles.

Importing the package pins BLAS to one thread unless the environment already
sets a count: the ensembles run many small products, for which a BLAS thread
pool costs more than it gives.  The pin takes effect only when numpy is not
yet loaded.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from wavemix.spectral import SpectralBasis, Field, PhaseState, phase_norm  # noqa: E402
from wavemix.nlw import Nonlinearity, NoiseModel, SimConfig, simulate  # noqa: E402

__all__ = [
    "SpectralBasis", "Field", "PhaseState", "phase_norm",
    "Nonlinearity", "NoiseModel", "SimConfig", "simulate",
]
