"""Pin BLAS to one thread before numpy loads.

numpy and scipy each load their own OpenBLAS, and only environment
variables set before the first import reach both. Iteration counts repeat
exactly only at a fixed thread count, and the suite's small p x p solves
and n x p products gain nothing from more threads: on a 2-core AMD EPYC it
takes 5.1-6.4 s at one thread and 5.5-6.7 s at two (three runs each). A
value already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
