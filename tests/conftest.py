"""Pin BLAS to one thread before numpy loads.

numpy and scipy each load their own OpenBLAS, and only environment
variables set before the first import reach both. The suite's small p x p
solves and n x p products run slower on several threads: on a 2-core Xeon
it takes 39 s at one thread and 101 s at two. A value already set in the
environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
