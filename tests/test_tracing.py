"""The benchmark's outside-in tracer (benchmark/tracing.py) wraps the public
boundaries of a solve; a traced solve must repeat the untraced one exactly
and record a span for every layer."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from stiefelbb import (
    AugLagConfig,
    FixedEntrySet,
    LowRankCorrProblem,
    SolverConfig,
    auglag_solve,
    ex3_matrix,
    heterogeneous_problem,
    solve,
)

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"

SOLVER_SPANS = (
    "solver.iterate",
    "problems.grad",
    "manifold.direction",
    "retractions.build",
    "retractions.eval",
    "stepsize.abb",
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def balogh():
    prob = heterogeneous_problem(200, 4, "random", seed=7)
    rep = solve(prob, None, SolverConfig(seed=7))
    return rep.iters, rep.nfge, rep.f_final, rep.x_final


def corr_auglag():
    base = LowRankCorrProblem(ex3_matrix(30), 3)
    fes = FixedEntrySet([5, 12, 20, 27], [2, 4, 11, 3], [0.0, 0.1, -0.1, 0.0])
    rep = auglag_solve(base, fes, AugLagConfig(max_outer=4))
    return rep.iters_total, rep.nfge_total, rep.theta_final, rep.v_final


def test_traced_solves_repeat_the_untraced_ones(tracing):
    calls = (balogh, corr_auglag)
    plain = [call() for call in calls]
    tracer = tracing.Tracer(lambda problem: 0.0)
    with tracer.installed():
        traced = [tracer.root(k, call) for k, call in enumerate(calls)]
    for (it, nf, f, x), (t_it, t_nf, t_f, t_x) in zip(plain, traced):
        assert (t_it, t_nf, t_f) == (it, nf, f)
        np.testing.assert_array_equal(t_x, x)

    spans = tracing.per_solve(tracer)
    assert set(SOLVER_SPANS) <= set(spans[0])
    # <S,S> is vdot(S, S) on every curve, so no solve calls a trace_jinv
    assert all("retractions.trace_jinv" not in per for per in spans.values())
    assert set(SOLVER_SPANS + ("auglag.sub_solve",)) <= set(spans[1])
    # the tracer's problem proxy counts every objective call of the solver
    assert spans[0]["problems.grad"][0] == plain[0][1]
    assert spans[1]["problems.grad"][0] == plain[1][1]
