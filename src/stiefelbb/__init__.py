"""Feasible BB-type optimization over orthogonality constraints.

Minimizes a differentiable F(X) over {X : X^T X = I} (and the generalized
constraint X^T H X = K) with a family of constraint-preserving update
schemes, an adaptive nonmonotone BB line-search loop, low-rank correlation
test problems, and an augmented-Lagrangian wrapper for prescribed entries.
"""

from .manifold import (
    canonical_gradient,
    compute_d_rho,
    feasibility_error,
    optimality_residual,
    random_stiefel,
    tangent_projection,
)
from .retractions import (
    GTAU_NAMES,
    GTAU_SENSITIVE,
    SCHEME_KINDS,
    GeneralizedConstraint,
    RetractionScheme,
    gtau_function,
    polar_project,
    qr_positive,
    retract_generalized,
    retract_geodesic,
    retract_gradproj,
    retract_lowrank_column,
    retract_new,
    retract_polar,
    retract_qr,
    retract_wenyin,
)
from .stepsize import (
    BBState,
    LineSearchError,
    ReferenceState,
    SafeguardParams,
    abb,
    armijo_backtrack,
    bb_long,
    bb_short,
    safeguard,
    update_reference,
)
from .solver import (
    STOP_REASONS,
    SolverConfig,
    SolverReport,
    iterate_once,
    prepare_state,
    solve,
    solve_generalized,
)
from .problems import (
    FixedEntrySet,
    HeterogeneousQuadraticProblem,
    LowRankCorrProblem,
    TraceEigenProblem,
    ex2_matrix,
    ex3_matrix,
    ex3_weights,
    gen_ex2,
    gen_ex3,
    heterogeneous_problem,
    load_matrix,
    modified_pca_init,
    sample_fixed_entries,
    save_matrix_market,
)
from .auglag import (
    AugLagConfig,
    AugLagReport,
    AugLagSubproblem,
    auglag_solve,
)

# the stiefel-bench names load the CLI module on first access (PEP 562), so
# `import stiefelbb` does not import it and `python -m stiefelbb.bench`
# runs it only once
_BENCH_NAMES = (
    "RunRecord",
    "aggregate_records",
    "compare_schemes",
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
    "canonical_gradient",
    "compute_d_rho",
    "feasibility_error",
    "optimality_residual",
    "random_stiefel",
    "tangent_projection",
    "GTAU_NAMES",
    "GTAU_SENSITIVE",
    "SCHEME_KINDS",
    "GeneralizedConstraint",
    "RetractionScheme",
    "gtau_function",
    "polar_project",
    "qr_positive",
    "retract_generalized",
    "retract_geodesic",
    "retract_gradproj",
    "retract_lowrank_column",
    "retract_new",
    "retract_polar",
    "retract_qr",
    "retract_wenyin",
    "BBState",
    "LineSearchError",
    "ReferenceState",
    "SafeguardParams",
    "abb",
    "armijo_backtrack",
    "bb_long",
    "bb_short",
    "safeguard",
    "update_reference",
    "STOP_REASONS",
    "SolverConfig",
    "SolverReport",
    "iterate_once",
    "prepare_state",
    "solve",
    "solve_generalized",
    "FixedEntrySet",
    "HeterogeneousQuadraticProblem",
    "LowRankCorrProblem",
    "TraceEigenProblem",
    "ex2_matrix",
    "ex3_matrix",
    "ex3_weights",
    "gen_ex2",
    "gen_ex3",
    "heterogeneous_problem",
    "load_matrix",
    "modified_pca_init",
    "sample_fixed_entries",
    "save_matrix_market",
    "AugLagConfig",
    "AugLagReport",
    "AugLagSubproblem",
    "auglag_solve",
    *_BENCH_NAMES,
    "__version__",
]
