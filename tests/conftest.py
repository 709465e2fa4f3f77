"""Pin BLAS to one thread before anything imports numpy.

The suite's ensembles are many small products, for which a thread pool costs
more than it gives; pinned, the timings are also those of the one-core
benchmark runs.  A value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
