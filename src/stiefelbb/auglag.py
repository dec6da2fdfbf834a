"""Augmented-Lagrangian outer loop for the low-rank correlation problem with
prescribed off-diagonal entries.

Each outer iteration minimizes
    L_mu(V, Lambda) = theta(V; H, C) + (mu/2) theta(V; H_e, C-hat + Lambda/mu)
over unit columns with the feasible BB solver, then updates the multipliers
Lambda <- Lambda - mu H_e o (V^T V - C-hat) and grows mu tenfold, tightening
the subproblem tolerances on a capped geometric schedule.
"""

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .problems import FixedEntrySet, LowRankCorrProblem, modified_pca_init
from .retractions import RetractionScheme
from .solver import SafeguardParams, SolverConfig, SolverReport, solve

__all__ = [
    "AugLagConfig",
    "AugLagState",
    "AugLagReport",
    "AugLagSubproblem",
    "auglag_solve",
]


@dataclass
class AugLagState:
    """Multipliers, penalty, violation, and the current subproblem tolerances."""

    lam: np.ndarray
    mu: float
    nu: float
    k: int
    sub_tols: tuple  # (eps_k, eps_x_k, eps_f_k)


@dataclass
class AugLagConfig:
    """Outer-loop schedule; defaults follow the recommended setting."""

    mu0: float = 1.0
    mu_growth: float = 10.0
    eps0: float = 1e-1
    eps_x0: float = 1e-3
    eps_f0: float = 1e-5
    eps_floor: float = 1e-5
    eps_x_floor: float = 1e-5
    eps_f_floor: float = 1e-8
    shrink: float = 0.1
    sub_max_iter: int = 2000
    nu_target: float = 3e-8
    nu_stall: float = 1e-8
    max_outer: int = 30
    rho: float = 0.25
    scheme: RetractionScheme = field(default_factory=RetractionScheme)
    safeguard: SafeguardParams = field(default_factory=SafeguardParams)
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mu0 <= 0.0:
            raise ValueError("mu0 must be positive")
        if self.mu_growth <= 1.0:
            raise ValueError("mu_growth must exceed 1")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


@dataclass
class AugLagReport:
    """Final factor plus the outer-loop trace."""

    v_final: np.ndarray
    theta_final: float
    nlcmres_final: float
    nu_final: float
    nu_trace: List[float]
    mu_trace: List[float]
    lambda_final: np.ndarray
    outer_iters: int
    nfge_total: int
    iters_total: int
    sub_reports: List[SolverReport]
    stop_reason: str  # "NuTarget", "NuStall", or "OuterCap"
    hit_outer_cap: bool
    wall_time: float

    @property
    def f_initial(self) -> float:
        return self.sub_reports[0].f_history[0]


class AugLagSubproblem:
    """L_mu as a sphere-product problem, sharing one V^T V per evaluation."""

    manifold = "spheres"

    def __init__(self, base: LowRankCorrProblem, fes: FixedEntrySet, lam, mu):
        if mu <= 0.0:
            raise ValueError("mu must be positive")
        self.base = base
        self.fes = fes
        self.mu = float(mu)
        self.shape = base.shape
        self.name = f"{base.name}+auglag"
        self.known_optimum = None
        if len(fes) == 0:
            self.he = None
            self.ctil = None
        else:
            n = base.n
            lam = np.asarray(lam, dtype=float)
            if lam.shape != (n, n):
                raise ValueError(f"Lambda must be {n}x{n}, got {lam.shape}")
            self.he = fes.mask(n)
            self.ctil = fes.target_matrix(n) + lam / self.mu
        self._hesq = self.he * self.he if self.he is not None else None

    def _weighted(self, vv):
        m1 = vv - self.base.c
        w1 = self.base.hsq * m1 if self.base.hsq is not None else m1
        m2 = vv - self.ctil
        w2 = self._hesq * m2
        return m1, w1, m2, w2

    def value(self, v) -> float:
        if self.he is None:
            return self.base.value(v)
        v = np.asarray(v, dtype=float)
        m1, w1, m2, w2 = self._weighted(v.T @ v)
        return 0.5 * float(np.vdot(m1, w1)) + 0.25 * self.mu * float(np.vdot(m2, w2))

    def fg(self, v):
        if self.he is None:
            return self.base.fg(v)
        v = np.asarray(v, dtype=float)
        m1, w1, m2, w2 = self._weighted(v.T @ v)
        f = 0.5 * float(np.vdot(m1, w1)) + 0.25 * self.mu * float(np.vdot(m2, w2))
        g = 2.0 * (v @ (w1 + 0.5 * self.mu * w2))
        return f, g

    def grad(self, v):
        if self.he is None:
            return self.base.grad(v)
        v = np.asarray(v, dtype=float)
        _, w1, _, w2 = self._weighted(v.T @ v)
        return 2.0 * (v @ (w1 + 0.5 * self.mu * w2))


def _sub_config(cfg: AugLagConfig, eps, eps_x, eps_f) -> SolverConfig:
    return SolverConfig(
        rho=cfg.rho,
        scheme=cfg.scheme,
        eps=eps,
        eps_x=eps_x,
        eps_f=eps_f,
        max_iter=cfg.sub_max_iter,
        safeguard=cfg.safeguard,
        seed=cfg.seed,
    )


def auglag_solve(
    base: LowRankCorrProblem,
    fes: FixedEntrySet,
    cfg: Optional[AugLagConfig] = None,
    v0=None,
) -> AugLagReport:
    """Run the outer loop from the modified-PCA start (or a supplied v0).

    Stops when nu <= nu_target, when nu stalls (|change| <= nu_stall), or at
    the outer cap (reported via hit_outer_cap).
    """
    cfg = AugLagConfig() if cfg is None else cfg
    if v0 is None:
        v0 = modified_pca_init(base.c, base.r)
    t0 = time.perf_counter()

    if len(fes) == 0:
        rep = solve(base, v0, _sub_config(cfg, cfg.eps_floor, cfg.eps_x_floor, cfg.eps_f_floor))
        return AugLagReport(
            v_final=rep.x_final,
            theta_final=rep.f_final,
            nlcmres_final=base.nlcmres(rep.x_final),
            nu_final=0.0,
            nu_trace=[0.0],
            mu_trace=[cfg.mu0],
            lambda_final=np.zeros((base.n, base.n)),
            outer_iters=1,
            nfge_total=rep.nfge,
            iters_total=rep.iters,
            sub_reports=[rep],
            stop_reason="NuTarget",
            hit_outer_cap=False,
            wall_time=time.perf_counter() - t0,
        )

    n = base.n
    he = fes.mask(n)
    ctarget = fes.target_matrix(n)
    lam = np.zeros((n, n))
    mu = cfg.mu0
    eps, eps_x, eps_f = cfg.eps0, cfg.eps_x0, cfg.eps_f0
    v = np.asarray(v0, dtype=float)
    nu_prev = None
    nu_trace: List[float] = []
    mu_trace: List[float] = []
    sub_reports: List[SolverReport] = []
    stop_reason = "OuterCap"

    for _ in range(cfg.max_outer):
        prob = AugLagSubproblem(base, fes, lam, mu)
        rep = solve(prob, v, _sub_config(cfg, eps, eps_x, eps_f))
        sub_reports.append(rep)
        v = rep.x_final
        nu = fes.violation(v)
        nu_trace.append(nu)
        mu_trace.append(mu)
        # multiplier update with the just-computed factor
        lam = lam - mu * (he * (v.T @ v - ctarget))
        if nu <= cfg.nu_target:
            stop_reason = "NuTarget"
            break
        if nu_prev is not None and abs(nu - nu_prev) <= cfg.nu_stall:
            stop_reason = "NuStall"
            break
        nu_prev = nu
        mu *= cfg.mu_growth
        eps = max(cfg.shrink * eps, cfg.eps_floor)
        eps_x = max(cfg.shrink * eps_x, cfg.eps_x_floor)
        eps_f = max(cfg.shrink * eps_f, cfg.eps_f_floor)

    return AugLagReport(
        v_final=v,
        theta_final=base.value(v),
        nlcmres_final=base.nlcmres(v),
        nu_final=nu_trace[-1],
        nu_trace=nu_trace,
        mu_trace=mu_trace,
        lambda_final=lam,
        outer_iters=len(nu_trace),
        nfge_total=sum(r.nfge for r in sub_reports),
        iters_total=sum(r.iters for r in sub_reports),
        sub_reports=sub_reports,
        stop_reason=stop_reason,
        hit_outer_cap=stop_reason == "OuterCap",
        wall_time=time.perf_counter() - t0,
    )
