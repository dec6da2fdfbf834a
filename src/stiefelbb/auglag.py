"""Augmented-Lagrangian outer loop for the low-rank correlation problem with
prescribed off-diagonal entries.

Each pinned entry e = (i, j, q_e) has one multiplier lambda_e, kept in a
vector in entry-set order. Each outer iteration minimizes
    L_mu(V, lambda) = theta(V; H, C) + (mu/2) sum_e (v_i^T v_j - q_e - lambda_e/mu)^2
over unit columns with the feasible BB solver, then updates the multipliers
lambda_e <- lambda_e - mu (v_i^T v_j - q_e) and grows mu tenfold, tightening
the subproblem tolerances on a capped geometric schedule.

Each sub-solve starts where the last one stopped, in its point and in its
step: the first trial step is the last sub-solve's safeguarded BB step over
MU_GROWTH, since the penalty's curvature grows with mu. A cold first step
of 0.5 / ||D_0|| in every sub-solve took 118,727 iterations instead of
40,594 over 23 pin patterns of ex3_matrix(200), r = 10.
"""

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .problems import (
    FixedEntrySet,
    LowRankCorrProblem,
    _FgProblem,
    _gram,
    modified_pca_init,
)
from .solver import SolverConfig, SolverReport, solve

__all__ = [
    "AugLagConfig",
    "AugLagReport",
    "AugLagSubproblem",
    "auglag_solve",
]

# mu_0 and the factor mu grows by per outer step
MU0 = 1.0
MU_GROWTH = 10.0
# sub-solve (eps, eps_x, eps_f): first step, floors, shrink factor per step
EPS_START = (1e-1, 1e-3, 1e-5)
EPS_FLOOR = (1e-5, 1e-5, 1e-8)
SHRINK = 0.1
# nu_target: the loop ends once nu = sum |v_i^T v_j - q_ij| is at most this
NU_TARGET = 3e-8


@dataclass
class AugLagConfig:
    """Outer-loop and sub-solve budgets; the schedules are the module
    constants. The sub-solves run the sphere geometry's one curve, on which
    rho and g(tau) do not act. seed changes nothing, since every sub-solve
    gets a start; it stays because benchmark/workloads.py builds
    AugLagConfig(seed=s, ...) for every corr-auglag solve."""

    sub_max_iter: int = 2000
    max_outer: int = 30
    seed: Optional[int] = None

    def __post_init__(self):
        if not (isinstance(self.sub_max_iter, (int, np.integer)) and self.sub_max_iter >= 0):
            raise ValueError("sub_max_iter must be a nonnegative integer")
        if not (isinstance(self.max_outer, (int, np.integer)) and self.max_outer >= 1):
            raise ValueError("max_outer must be an integer of at least 1")


@dataclass
class AugLagReport:
    """Final factor plus the outer-loop trace: one sub-report per outer step,
    with nu_final and the nfge/iteration totals read from the traces."""

    v_final: np.ndarray
    theta_final: float
    nlcmres_final: float
    nu_trace: List[float]
    mu_trace: List[float]
    lambda_final: np.ndarray  # one multiplier per pinned entry, fes order
    sub_reports: List[SolverReport]
    # "NuTarget": nu_final <= NU_TARGET (also the empty entry set);
    # "OuterCap": max_outer steps ran without reaching it
    stop_reason: str
    wall_time: float

    @property
    def nu_final(self) -> float:
        return self.nu_trace[-1]

    @property
    def nfge_total(self) -> int:
        return sum(r.nfge for r in self.sub_reports)

    @property
    def iters_total(self) -> int:
        return sum(r.iters for r in self.sub_reports)

    @property
    def f_initial(self) -> float:
        return self.sub_reports[0].f_history[0]


class AugLagSubproblem(_FgProblem):
    """L_mu as a sphere-product problem; lam holds one multiplier per entry
    of fes, in its order. Each evaluation forms one V^T V (the base
    objective's Gram), gathers the pinned entries from it through flat
    indices and subtracts C in place; the penalty is scattered into both
    triangles of the weight matrix the same way. Each gather or scatter
    touches an entry at most once, since FixedEntrySet has no duplicates."""

    manifold = "spheres"

    def __init__(self, base: LowRankCorrProblem, fes: FixedEntrySet, lam, mu):
        if not 0.0 < mu < np.inf:
            raise ValueError("mu must be positive and finite")
        self.base = base
        self.fes = fes
        self.mu = float(mu)
        self.shape = base.shape
        self.name = f"{base.name}+auglag"
        self.known_optimum = None
        fes._check_n(base.n)
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (len(fes),):
            raise ValueError(f"lam must have shape ({len(fes)},), got {lam.shape}")
        # flat row-major positions of the 0-based strict-lower (i, j) and of
        # its mirror (j, i), and the targets q + lam/mu there
        i, j = fes.rows - 1, fes.cols - 1
        self._ij = i * base.n + j
        self._ji = j * base.n + i
        self._t = fes.values + lam / self.mu

    def fg(self, v):
        v = self.base._check(v)
        m = _gram(v)
        r = m.reshape(-1)[self._ij] - self._t  # the pinned residuals
        m -= self.base.c
        f, w = self.base._theta_weights(m)
        half_mu_r = (0.5 * self.mu) * r
        wflat = w.reshape(-1)  # a view: w is a fresh C-ordered n x n array
        wflat[self._ij] += half_mu_r
        wflat[self._ji] += half_mu_r
        return f + 0.5 * self.mu * float(np.vdot(r, r)), 2.0 * (v @ w)


def _sub_config(cfg: AugLagConfig, eps, eps_x, eps_f, tau0) -> SolverConfig:
    return SolverConfig(
        eps=eps, eps_x=eps_x, eps_f=eps_f, max_iter=cfg.sub_max_iter, tau0=tau0
    )


def auglag_solve(
    base: LowRankCorrProblem,
    fes: FixedEntrySet,
    cfg: Optional[AugLagConfig] = None,
    v0=None,
) -> AugLagReport:
    """Run the outer loop from the modified-PCA start (or a supplied v0).

    Stops with "NuTarget" once the violation nu = sum |v_i^T v_j - q_ij| over
    the pinned entries is at most NU_TARGET, else with "OuterCap" after
    max_outer steps; a pin set that cannot be met ends there. An empty entry
    set is met at once: one solve of the base objective at the floor
    tolerances EPS_FLOOR. wall_time covers the whole call.
    """
    cfg = AugLagConfig() if cfg is None else cfg
    if v0 is None:
        v0 = modified_pca_init(base.c, base.r)
    t0 = time.perf_counter()
    i, j = fes.rows - 1, fes.cols - 1
    lam = np.zeros(len(fes))
    mu = MU0
    tols = EPS_START if len(fes) else EPS_FLOOR
    v = np.asarray(v0, dtype=float)
    nu_trace: List[float] = []
    mu_trace: List[float] = []
    sub_reports: List[SolverReport] = []
    stop_reason = "OuterCap"
    tau0 = None  # the first sub-solve starts at 0.5 / ||D_0||

    for _ in range(cfg.max_outer):
        prob = AugLagSubproblem(base, fes, lam, mu)
        rep = solve(prob, v, _sub_config(cfg, *tols, tau0))
        sub_reports.append(rep)
        v = rep.x_final
        nu = fes.violation(v)
        nu_trace.append(nu)
        mu_trace.append(mu)
        # multiplier update with the just-computed factor
        lam = lam - mu * (_gram(v)[i, j] - fes.values)
        if nu <= NU_TARGET:
            stop_reason = "NuTarget"
            break
        mu *= MU_GROWTH
        # the penalty's curvature grows with mu, so the next sub-solve starts
        # from the last safeguarded step scaled down by the same factor
        tau0 = rep.tau_next / MU_GROWTH
        tols = tuple(max(SHRINK * t, f) for t, f in zip(tols, EPS_FLOOR))

    return AugLagReport(
        v_final=v,
        theta_final=base.value(v),
        nlcmres_final=base.nlcmres(v),
        nu_trace=nu_trace,
        mu_trace=mu_trace,
        lambda_final=lam,
        sub_reports=sub_reports,
        stop_reason=stop_reason,
        wall_time=time.perf_counter() - t0,
    )
