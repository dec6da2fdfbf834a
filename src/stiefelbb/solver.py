"""Adaptive feasible BB descent over orthogonality constraint sets.

One loop serves three geometries: the Stiefel manifold X^T X = I_p, the
product of unit spheres (one column each), and the generalized constraint
X^T H X = K. The loop alternates long/short BB trial steps, clamps them into
a safeguard band, backtracks against an adaptive nonmonotone reference value,
and moves along a feasibility-preserving curve of the configured scheme.
"""

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.linalg

from .manifold import _d_rho, feasibility_error, qr_positive
from .retractions import (
    _CURVES,
    GeneralizedConstraint,
    RetractionScheme,
    _NewCurve,
    _generalized_curve,
    _generalized_direction,
    _literal_curve,
)
from .stepsize import (
    EPS_MAX,
    LineSearchError,
    ReferenceState,
    abb,
    armijo_backtrack,
    safeguard,
    update_reference,
)

__all__ = [
    "SolverConfig",
    "SolverReport",
    "SolverState",
    "STOP_REASONS",
    "prepare_state",
    "iterate_once",
    "solve",
    "solve_generalized",
]

STOP_REASONS = ("ResidualRel", "WindowedMeans", "MaxIter", "LineSearchFail")

# a starting point further than this from the constraint set is rejected
START_FEAS_TOL = 1e-6
# a returned point at or beyond this feasibility error is reorthogonalized;
# the fixed-entry outer loop starts each sub-solve from the last returned
# point, and at 1e-13 it needs 1,073 iterations instead of 1,134 on
# ex3_matrix(200), r = 10, with sample_fixed_entries(200, 3, seed=0), but
# 41,134 instead of 40,594 over 23 such pin patterns (seeds 0-19, 10001,
# 10002, 10007): roundoff-level noise in the counts, not a dependence
REORTH_TOL = 1e-14
# T: the windowed-means stop averages the last T iterate and value changes
WINDOW_T = 5


@dataclass
class SolverConfig:
    """Tunables of the descent loop; defaults match the recommended setting.

    eps is relative: the loop stops once ||D_rho|| <= eps ||D_rho(x0)||.
    A zero eps, eps_x or eps_f fires only on an exact zero or stall. seed
    draws the random start when x0 is omitted. tau0 is the first trial
    step; None takes 0.5 / ||D_rho(x0)||. The stopping window
    WINDOW_T, REORTH_TOL for the returned point, the step cap max_turn of
    the Stiefel geometry and the line-search constants of stepsize are fixed.
    rho acts on the Stiefel geometry only: on the unit spheres D_rho is the
    same for every rho, and the generalized geometry's D = G X^T H^2 X -
    H X G^T H X is, at H = K = I, D_rho at rho = 1/2 whatever rho says.
    """

    rho: float = 0.25
    scheme: RetractionScheme = field(default_factory=RetractionScheme)
    eps: float = 1e-5
    eps_x: float = 1e-5
    eps_f: float = 1e-8
    max_iter: int = 3000
    seed: Optional[int] = None
    track_feasibility: bool = False
    tau0: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.scheme, RetractionScheme):
            raise TypeError("scheme must be a RetractionScheme")
        if not 0.0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        for name in ("eps", "eps_x", "eps_f"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 0):
            raise ValueError("max_iter must be a nonnegative integer")
        if self.tau0 is not None and not (math.isfinite(self.tau0) and self.tau0 > 0.0):
            raise ValueError("tau0 must be positive and finite")


@dataclass
class SolverReport:
    """Outcome of one solve: the final point plus run statistics.

    f_history holds F at the accepted iterates; f_final is F at x_final,
    which differs from f_history[-1] when the last iterate was
    reorthogonalized before being returned, and residual_final is ||D|| at
    x_final. residual_initial is ||D|| at the start, the scale of the
    relative stop, so residual_final / residual_initial shows how far from
    stationarity a run stopped. tau_next is the safeguarded trial step the
    loop would have tried next, a warm first step for a related solve.
    wall_time is the seconds of the whole solve, from the start evaluation
    to f_final.
    """

    x_final: np.ndarray
    f_history: List[float]
    f_final: float
    residual_final: float
    residual_initial: float
    feasi: float
    nfge: int
    iters: int
    stop_reason: str
    wall_time: float
    tau_next: float
    feasibility_trace: Optional[List[float]] = None

    @property
    def f_initial(self) -> float:
        return self.f_history[0]


def _check_finite(f, d_norm, where):
    if not math.isfinite(f):
        raise FloatingPointError(f"objective non-finite {where}: F = {f}")
    if not math.isfinite(d_norm):
        raise FloatingPointError(f"gradient non-finite {where}: ||D|| = {d_norm}")


class _StiefelEngine:
    """Curves and bookkeeping on {X in R^{n x p} : X^T X = I_p}."""

    # the safeguard band's eps_max for this geometry, the cap on tau ||D||_F
    # of each trial step after the first (cond(J) <= 65 at 16). As
    # tau grows the new curve turns X towards -X, where an even objective
    # has nearly the same F; the secant pair, about (-2X, -2D), then drove
    # the next BB step to 1.4e-12 and balogh 1000x10 (instance seed 180110,
    # start seed 80110) stopped after 6 iterations at F = 32643, optimum -5.41
    max_turn = 16.0

    def __init__(self, cfg: SolverConfig):
        self.scheme = cfg.scheme
        self.rho = cfg.rho

    def direction(self, x, g):
        """D_rho and X^T G; D_rho drives the residual test and the secant
        pairs for every scheme kind."""
        return _d_rho(x, g, self.rho)

    def curve_and_slope(self, x, g, d, xtg):
        """The curve of the configured kind and its slope at tau = 0: -<G, D>
        for the curves that leave X along -D_rho, -slope_inner for those
        built from G."""
        kind = self.scheme.kind
        if kind == "new":
            # drift-safe variant: the J block takes the expression
            # 2 rho (X^T G - G^T X), which equals X^T D_rho on the
            # manifold and is skew for ANY X, so it never feeds
            # feasibility error back into the curve; and
            # W-hat = -(I - X (X^T X)^{-1} X^T) D_rho has X^T W-hat = 0
            # up to solve roundoff even at a drifted X.  The roundoff
            # scales with ||D||, vanishing as the loop converges
            # (building W-hat from G instead leaves a floor of
            # eps_mach ||G|| that accumulates over long runs).
            xte = (2.0 * self.rho) * (xtg - xtg.T)
            w = x @ np.linalg.solve(x.T @ x, x.T @ d) - d
            curve = _NewCurve(x, d, w, w.T @ w, xte, self.scheme.gtau)
        elif kind == "literal":
            # formulas evaluated as written: both the projection
            # W = -(I - X X^T) D_rho and the J block X^T D_rho are taken
            # literally.  Once X drifts, X^T W = (X^T X - I) X^T D != 0 and
            # sym(X^T D) != 0, and both feed the drift back into the next
            # iterate, so orthonormality error grows along the run.
            curve = _literal_curve(x, d, self.scheme.gtau)
        elif getattr(_CURVES[kind], "follows_g", False):
            curve = _CURVES[kind](x, g, xtg)
            return curve, -curve.slope_inner
        else:
            curve = _CURVES[kind](x, d)
        return curve, -float(np.vdot(g, d))

    def feasibility(self, x) -> float:
        return feasibility_error(x)

    def reorthogonalize(self, x):
        # column-major like random_stiefel: the layout alone moves the roundoff
        return np.asfortranarray(qr_positive(x)[0])

    def dim_scale(self, x) -> float:
        return math.sqrt(x.shape[0])


class _SphereCurve:
    """Per-column curve of the new scheme on a product of unit spheres.

    For a single sphere D_rho = G - v v^T G for every rho, and the
    g(tau) v^T E block of J is a 1x1 skew matrix, i.e. exactly zero, so J is
    the diagonal J_i = 1 + tau^2/4 ||w_i||^2 whatever rho and g(tau).
    """

    def __init__(self, v, w):
        self.v = v
        self.w = w
        self.wsq = np.einsum("ij,ij->j", w, w)

    def eval(self, tau):
        j = 1.0 + (0.25 * tau * tau) * self.wsq  # >= 1 wherever finite
        if not np.isfinite(j).all():
            raise np.linalg.LinAlgError("diagonal J numerically singular")
        return (2.0 * self.v + tau * self.w) / j - self.v


class _SphereEngine:
    """The same loop on {V in R^{r x n} : every column has unit norm}; it
    runs only the drift-safe curve of the new scheme."""

    # the band's EPS_MAX: with a cold first step in every sub-solve,
    # tau ||D||_F <= 2 took the outer loop on ex3_matrix(200), r = 10, with
    # sample_fixed_entries(200, 3, seed=4) from 2400 to 20013 iterations;
    # with the carried step it takes 37,091 iterations and 47,013 nfge
    # against 40,594 and 51,350 over 23 such pin patterns; REORTH_TOL = 1e-13
    # alone moves those to 41,134 and 49,763, so the gap is not yet told
    # apart from roundoff noise in the counts
    max_turn = EPS_MAX

    def direction(self, v, g):
        vg = np.einsum("ij,ij->j", v, g)
        d = g - v * vg
        return d, vg

    def curve_and_slope(self, v, g, d, vg):
        # v_i^T w_i = 0 exactly, even after the columns have drifted
        vtd = np.einsum("ij,ij->j", v, d)
        vv = np.einsum("ij,ij->j", v, v)
        w = v * (vtd / vv) - d
        return _SphereCurve(v, w), -float(np.vdot(g, d))

    def feasibility(self, v) -> float:
        return float(np.linalg.norm(np.einsum("ij,ij->j", v, v) - 1.0))

    def reorthogonalize(self, v):
        return v / np.linalg.norm(v, axis=0)

    def dim_scale(self, v) -> float:
        return math.sqrt(v.shape[1])


class _GeneralizedEngine:
    """The loop on {X : X^T H X = K}; BB inner products are taken directly."""

    max_turn = EPS_MAX  # no lower cap has been measured on this geometry

    def __init__(self, cfg: SolverConfig, gc: GeneralizedConstraint):
        self.gc = gc
        self.gtau = cfg.scheme.gtau

    def direction(self, x, g):
        return _generalized_direction(x, g, self.gc.h)

    def curve_and_slope(self, x, g, d, hx):
        return _generalized_curve(x, g, self.gc, self.gtau, hx, d), -float(np.vdot(g, d))

    def feasibility(self, x) -> float:
        return self.gc.feasibility(x)

    def reorthogonalize(self, x):
        m = x.T @ (self.gc.h @ x)
        l = scipy.linalg.cholesky(m, lower=True)
        # X L^{-T} L_K^T restores X^T H X = K exactly (up to roundoff)
        z = scipy.linalg.solve_triangular(l, x.T, lower=True)
        return z.T @ self.gc.k_lower.T

    def dim_scale(self, x) -> float:
        return math.sqrt(x.shape[0])


@dataclass
class SolverState:
    """Everything iterate_once needs; copy.deepcopy(state) is a snapshot."""

    problem: object
    cfg: SolverConfig
    engine: object
    x: np.ndarray
    f: float
    g: np.ndarray
    d: np.ndarray
    d_norm: float
    ctx: object
    d0_norm: float
    tau1: float
    ref: ReferenceState
    k: int = 0
    nfge: int = 1
    f_history: List[float] = field(default_factory=list)
    tolx_win: deque = field(default_factory=lambda: deque(maxlen=WINDOW_T))
    tolf_win: deque = field(default_factory=lambda: deque(maxlen=WINDOW_T))
    stop_reason: Optional[str] = None
    feas_trace: Optional[List[float]] = None

    @property
    def done(self) -> bool:
        return self.stop_reason is not None


def _make_engine(problem, cfg, gc):
    manifold = "generalized" if gc is not None else getattr(problem, "manifold", "stiefel")
    if manifold == "stiefel":
        return _StiefelEngine(cfg)
    if manifold not in ("spheres", "generalized"):
        raise ValueError(f"unknown problem manifold {manifold!r}")
    # the curves of the other kinds are built for X^T X = I_p only, and
    # these geometries have only the drift-safe curve
    if cfg.scheme.kind != "new":
        raise ValueError(f"the {manifold!r} geometry supports only scheme kind 'new'")
    return _SphereEngine() if manifold == "spheres" else _GeneralizedEngine(cfg, gc)


def prepare_state(problem, x0=None, cfg=None, gc=None) -> SolverState:
    """Build the loop state: evaluate the start, form D and the first trial step."""
    cfg = SolverConfig() if cfg is None else cfg
    engine = _make_engine(problem, cfg, gc)
    shape = getattr(problem, "shape", None)
    if x0 is None:
        if shape is None:
            raise ValueError("need x0 or a problem exposing .shape for a random start")
        x0 = engine.reorthogonalize(np.random.default_rng(cfg.seed).standard_normal(shape))
    else:
        x0 = np.array(np.asarray(x0), dtype=float, copy=True)
        if shape is not None and x0.shape != tuple(shape):
            raise ValueError(f"x0 has shape {x0.shape}, the problem needs {tuple(shape)}")
        if gc is not None:
            if engine.feasibility(x0) > 1e-12 * max(1.0, float(np.linalg.norm(gc.k))):
                x0 = engine.reorthogonalize(x0)
        else:
            feas = engine.feasibility(x0)
            if feas > START_FEAS_TOL:
                raise ValueError(
                    f"x0 violates the constraint set: feasibility error {feas:.3e}"
                )
    f0, g0 = problem.fg(x0)
    f0 = float(f0)
    d, ctx = engine.direction(x0, g0)
    d_norm = float(np.linalg.norm(d))
    _check_finite(f0, d_norm, "at the starting point")
    if cfg.tau0 is not None:
        tau1 = cfg.tau0
    else:
        tau1 = 0.5 / d_norm if d_norm > 0.0 else 1.0
    state = SolverState(
        problem=problem,
        cfg=cfg,
        engine=engine,
        x=x0,
        f=f0,
        g=g0,
        d=d,
        d_norm=d_norm,
        ctx=ctx,
        d0_norm=d_norm,
        tau1=tau1,
        ref=ReferenceState.fresh(f0),
        f_history=[f0],
    )
    if cfg.track_feasibility:
        state.feas_trace = [engine.feasibility(x0)]
    return state


def iterate_once(state: SolverState) -> SolverState:
    """Advance the loop by one accepted step, or set the state's stop_reason."""
    if state.done:
        return state
    cfg = state.cfg
    eng = state.engine

    # stopping on the gradient residual, then on the iteration budget
    if state.d_norm <= cfg.eps * state.d0_norm:
        state.stop_reason = "ResidualRel"
        return state
    if state.k >= cfg.max_iter:
        state.stop_reason = "MaxIter"
        return state

    # curve of the configured scheme + adaptive nonmonotone backtracking
    curve, slope = eng.curve_and_slope(state.x, state.g, state.d, state.ctx)
    if not (math.isfinite(slope) and slope < 0.0):
        state.stop_reason = "LineSearchFail"
        return state
    try:
        _, y, f_new, g_new, evals = armijo_backtrack(
            state.problem.fg, curve, slope, state.tau1, state.ref.f_r
        )
    except LineSearchError as err:
        state.nfge += err.evals
        state.stop_reason = "LineSearchFail"
        return state
    state.nfge += evals
    f_new = float(f_new)
    d_new, ctx_new = eng.direction(y, g_new)
    d_new_norm = float(np.linalg.norm(d_new))
    _check_finite(f_new, d_new_norm, f"at iterate {state.k + 1}")

    # reference value recurrence
    update_reference(state.ref, f_new)

    # secant pair S, Y and <S,S>, taken directly on every geometry: the
    # closed form 4p - 4 tr(J^{-1}) cancels to 0 after a tiny step
    s = y - state.x
    yd = d_new - state.d
    ss = float(np.vdot(s, s))

    f_prev = state.f
    state.x, state.f, state.g = y, f_new, g_new
    state.d, state.d_norm, state.ctx = d_new, d_new_norm, ctx_new
    state.k += 1
    state.f_history.append(f_new)
    if state.feas_trace is not None:
        state.feas_trace.append(eng.feasibility(y))

    tau0 = abb(state.k, s, yd, ss)
    if tau0 is None:
        # degenerate secant pair: fall back to the previous safeguarded step
        tau0 = state.tau1
    if d_new_norm > 0.0:
        state.tau1 = safeguard(tau0, d_new_norm, eng.max_turn)

    # diminishing-change test on the windowed means
    state.tolx_win.append(math.sqrt(ss) / eng.dim_scale(state.x))
    state.tolf_win.append(abs(f_prev - f_new) / (abs(f_prev) + 1.0))
    if (
        sum(state.tolx_win) / len(state.tolx_win) <= 10.0 * cfg.eps_x
        and sum(state.tolf_win) / len(state.tolf_win) <= 10.0 * cfg.eps_f
    ):
        state.stop_reason = "WindowedMeans"
    return state


def _run(state: SolverState, t0: float) -> SolverReport:
    """Iterate to a stop and report; t0 is when the solve call began."""
    while not state.done:
        iterate_once(state)
    eng = state.engine
    x_final, f_final, d_norm, nfge = state.x, state.f, state.d_norm, state.nfge
    feas = eng.feasibility(x_final)
    if feas >= REORTH_TOL:
        x_final = eng.reorthogonalize(x_final)
        feas = eng.feasibility(x_final)
        f_final, g_final = state.problem.fg(x_final)
        f_final = float(f_final)
        d_norm = float(np.linalg.norm(eng.direction(x_final, g_final)[0]))
        nfge += 1
    return SolverReport(
        x_final=x_final,
        f_history=list(state.f_history),
        f_final=f_final,
        residual_final=d_norm,
        residual_initial=state.d0_norm,
        feasi=feas,
        nfge=nfge,
        iters=state.k,
        stop_reason=state.stop_reason,
        wall_time=time.perf_counter() - t0,
        tau_next=state.tau1,
        feasibility_trace=(
            list(state.feas_trace) if state.feas_trace is not None else None
        ),
    )


def solve(problem, x0=None, cfg: Optional[SolverConfig] = None) -> SolverReport:
    """Minimize the problem's objective over its constraint set from x0.

    The problem needs only fg(x) -> (float, ndarray), called at the start,
    on every line-search trial and once more for f_final at a
    reorthogonalized returned point. Its optional `manifold` attribute
    selects the geometry ("stiefel" when absent, "spheres" for unit-column
    products), and an optional `shape` allows x0=None (a random start). A
    non-finite F or gradient raises FloatingPointError.
    """
    t0 = time.perf_counter()
    return _run(prepare_state(problem, x0, cfg), t0)


def solve_generalized(
    problem, x0, gc: GeneralizedConstraint, cfg: Optional[SolverConfig] = None
) -> SolverReport:
    """Minimize over {X : X^T H X = K}. An infeasible x0 is projected by the
    Cholesky correction X L^{-T} L_K^T before the loop starts."""
    if not isinstance(gc, GeneralizedConstraint):
        raise TypeError("gc must be a GeneralizedConstraint")
    t0 = time.perf_counter()
    return _run(prepare_state(problem, x0, cfg, gc=gc), t0)
