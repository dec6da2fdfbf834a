"""Feasible BB-type optimization over orthogonality constraints.

Minimizes a differentiable F(X) over {X : X^T X = I} (and the generalized
constraint X^T H X = K) with a family of constraint-preserving update
schemes, an adaptive nonmonotone BB line-search loop, low-rank correlation
test problems, and an augmented-Lagrangian wrapper for prescribed entries.
"""

from . import auglag, manifold, problems, retractions, solver, stepsize
from .manifold import *
from .retractions import *
from .stepsize import *
from .solver import *
from .problems import *
from .auglag import *

# the stiefel-bench names load the CLI module on first access (PEP 562), so
# `import stiefelbb` does not import it and `python -m stiefelbb.bench`
# runs it only once
_BENCH_NAMES = (
    "RunRecord",
    "aggregate_records",
    "drift_demo",
    "read_records",
    "run_experiment",
    "write_records",
)


def __getattr__(name):
    if name in _BENCH_NAMES:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    *manifold.__all__,
    *retractions.__all__,
    *stepsize.__all__,
    *solver.__all__,
    *problems.__all__,
    *auglag.__all__,
    *_BENCH_NAMES,
    "__version__",
]
