"""The benchmark's workloads: program-built instances and checks.

``build(sb, first_seed)`` makes a workload's problem instances through the
program's constructors and initialisers (timed as set-up) and returns its
``Job``. ``job.prepare(solve_seed, warm)`` does the untimed preparation of
one solve; the benchmark times only the zero-argument call it returns.

A run with seed ``seed`` gives solve ``i`` the per-solve seed ``seed + i``.
For balogh-curve the per-solve seed draws the planted values of the
instance and the start.
"""

from dataclasses import dataclass
from typing import Callable

# solve budget of the warm-up pass that fills lazy set-up before timing
WARM_ITERS = 3

FEAS_TOL = 1e-12
GAP_TOL = 1e-3
NU_TOL = 3e-8


@dataclass
class Job:
    """The solve a workload repeats.

    ``prepare(solve_seed, warm)`` does the untimed per-solve preparation and
    returns the call to time; ``check(report, solve_seed)`` returns a
    failure reason or None; ``counts(report)`` gives (accepted iterations,
    nfge, final value).
    """

    prepare: Callable
    check: Callable
    counts: Callable


def _rel_gap(f, ref):
    return abs(f - ref) / max(abs(ref), 1e-300)


def _solver_counts(rep):
    return rep.iters, rep.nfge, rep.f_final


def _auglag_counts(rep):
    return rep.iters_total, rep.nfge_total, rep.theta_final


def _solver_failure(rep):
    if rep.stop_reason == "LineSearchFail":
        return "stopped with LineSearchFail"
    if not rep.feasi <= FEAS_TOL:
        return f"feasi {rep.feasi:.3e} > {FEAS_TOL:.1e}"
    return None


def _solver_config(sb, s, warm):
    return sb.SolverConfig(seed=s, max_iter=WARM_ITERS) if warm else sb.SolverConfig(seed=s)


# --- balogh-curve ---------------------------------------------------------


class _Balogh:
    n, p = 1000, 10
    # instances built during set-up; a run that needs more builds the rest
    # on the way, outside the solve clock
    setup_instances = 64

    def build(self, sb, first_seed):
        def instance(s):
            return sb.heterogeneous_problem(self.n, self.p, "random", seed=100000 + s)

        seeds = range(first_seed, first_seed + self.setup_instances)
        probs = {s: instance(s) for s in seeds}

        def prepare(s, warm):
            # per-solve seeds only grow, so instances of earlier seeds are
            # done with; dropping them keeps peak_rss_mb independent of how
            # many solves a run makes
            for done in [k for k in probs if k < s]:
                del probs[done]
            if s not in probs:
                probs[s] = instance(s)
            prob, cfg = probs[s], _solver_config(sb, s, warm)
            return lambda: sb.solve(prob, None, cfg)

        def check(rep, s):
            bad = _solver_failure(rep)
            gap = _rel_gap(rep.f_final, probs[s].known_optimum)
            if bad is None and gap > GAP_TOL:
                bad = f"gap to the planted optimum {gap:.3e}"
            return bad

        return Job(prepare, check, _solver_counts)


# --- corr-auglag ------------------------------------------------------------


class _CorrAuglag:
    """The README's prescribed-entry example, solved again on every solve.

    The pin pattern does not depend on the seed: random pin patterns make
    the work of one solve vary threefold (2.3 s to 8.2 s on seven patterns),
    which a run of a few solves cannot average out. The start is the
    modified-PCA one, so the per-solve seed changes nothing and every solve
    does the same work.
    """

    n, r, n_e, pins_seed = 200, 10, 3, 0

    def build(self, sb, first_seed):
        prob = sb.LowRankCorrProblem(sb.ex3_matrix(self.n), self.r)
        v0 = sb.modified_pca_init(prob.c, self.r)
        fes = sb.sample_fixed_entries(self.n, self.n_e, seed=self.pins_seed)

        def prepare(s, warm):
            kw = {"max_outer": 1, "sub_max_iter": WARM_ITERS} if warm else {}
            cfg = sb.AugLagConfig(seed=s, **kw)
            return lambda: sb.auglag_solve(prob, fes, cfg, v0)

        def check(rep, s):
            for sub in rep.sub_reports:
                bad = _solver_failure(sub)
                if bad is not None:
                    return f"subproblem {bad}"
            if not rep.nu_final <= NU_TOL:
                return f"nu_final {rep.nu_final:.3e} > {NU_TOL:.0e}"
            return None

        return Job(prepare, check, _auglag_counts)


# every workload runs at one BLAS thread, set in run.py before numpy loads
WORKLOADS = {
    "balogh-curve": _Balogh(),
    "corr-auglag": _CorrAuglag(),
}


def dense_flops(problem) -> float:
    """Computed flops of the dense product in one objective call: 2 n^2 r per
    V^T V (correlation and its augmented Lagrangian); 0 for objectives
    without a dense product (balogh)."""
    base = getattr(problem, "base", problem)
    if hasattr(base, "r") and getattr(base, "manifold", None) == "spheres":
        return 2.0 * base.n * base.n * base.r
    return 0.0
