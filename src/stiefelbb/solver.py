"""Adaptive feasible BB descent over orthogonality constraint sets.

One loop serves three geometries: the Stiefel manifold X^T X = I_p, the
product of unit spheres (one column each), and the generalized constraint
X^T H X = K. The loop alternates long/short BB trial steps, clamps them into
a safeguard band, backtracks against an adaptive nonmonotone reference value,
and moves along a feasibility-preserving curve of the configured scheme.
"""

import copy
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
    _GeneralizedCurve,
    _NewCurve,
    _generalized_direction,
    gtau_function,
)
from .stepsize import (
    BBState,
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

STOP_REASONS = ("ResidualRel", "XtolFtol", "WindowedMeans", "MaxIter", "LineSearchFail")

# a starting point further than this from the constraint set is rejected
START_FEAS_TOL = 1e-6
# a returned point at or beyond this feasibility error is reorthogonalized;
# the fixed-entry outer loop starts each sub-solve from the last returned
# point, and at 1e-13 it needs 28,013 iterations instead of 3,749 on
# ex3_matrix(200), r = 10, with sample_fixed_entries(200, 3, seed=0)
REORTH_TOL = 1e-14
# T: the windowed-means stop averages the last T iterate and value changes
WINDOW_T = 5


@dataclass
class SolverConfig:
    """Tunables of the descent loop; defaults match the recommended setting.

    eps is relative: the loop stops once ||D_rho|| <= eps ||D_rho(x0)||.
    seed draws the random start when x0 is omitted. The stopping window
    WINDOW_T, REORTH_TOL for the returned point and the line-search
    constants of stepsize are fixed.
    """

    rho: float = 0.25
    scheme: RetractionScheme = field(default_factory=RetractionScheme)
    eps: float = 1e-5
    eps_x: float = 1e-5
    eps_f: float = 1e-8
    max_iter: int = 3000
    seed: Optional[int] = None
    check_convergence: bool = True
    track_feasibility: bool = False

    def __post_init__(self):
        if not isinstance(self.scheme, RetractionScheme):
            raise TypeError("scheme must be a RetractionScheme")
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        for name in ("eps", "eps_x", "eps_f"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


@dataclass
class SolverReport:
    """Outcome of one solve: the final point plus run statistics.

    f_history holds F at the accepted iterates; f_final is F at x_final,
    which differs from f_history[-1] when the last iterate was
    reorthogonalized before being returned. wall_time is the seconds of the
    whole solve, from the start evaluation to f_final.
    """

    x_final: np.ndarray
    f_history: List[float]
    f_final: float
    residual_final: float
    feasi: float
    nfge: int
    iters: int
    stop_reason: str
    wall_time: float
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
            if self.scheme.feasibility_control:
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
            else:
                # plain variant, formulas evaluated as written: both the
                # projection W = -(I - X X^T) D_rho and the J block X^T D_rho
                # are taken literally.  Once X drifts, X^T W = (X^T X - I)
                # X^T D != 0 and sym(X^T D) != 0, and both feed the drift
                # back into the next iterate, so orthonormality error grows
                # along the run.
                xtd = x.T @ d
                xte = xtd
                w = x @ xtd - d
            curve = _NewCurve(x, w, xte, self.scheme.gtau)
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

    For a single sphere the g(tau) x^T E block of J is a 1x1 skew matrix,
    i.e. exactly zero in exact arithmetic, so the drift-safe evaluation
    drops it and J is the diagonal J_i = 1 + tau^2/4 ||w_i||^2.  The
    literal evaluation (vtd given) keeps the g(tau) v_i^T d_i term as
    written; once a column drifts off unit norm that term is nonzero and
    feeds the drift back into the next iterate.
    """

    def __init__(self, v, w, vtd=None, gtau="linear"):
        self.v = v
        self.w = w
        self.wsq = np.einsum("ij,ij->j", w, w)
        self.vtd = vtd
        self.gtau = gtau
        self._j = None

    def eval(self, tau):
        j = 1.0 + (0.25 * tau * tau) * self.wsq
        if self.vtd is not None:
            j = j + gtau_function(self.gtau)(tau) * self.vtd
        if not np.isfinite(j).all() or (j == 0.0).any():
            raise np.linalg.LinAlgError("diagonal J numerically singular")
        y = (2.0 * self.v + tau * self.w) / j - self.v
        self._j = j
        return y

    def trace_jinv(self) -> float:
        if self._j is None:
            raise ValueError("curve not evaluated yet")
        return float((1.0 / self._j).sum())


class _SphereEngine:
    """The same loop on {V in R^{r x n} : every column has unit norm}."""

    def __init__(self, cfg: SolverConfig):
        self.scheme = cfg.scheme

    def direction(self, v, g):
        vg = np.einsum("ij,ij->j", v, g)
        d = g - v * vg
        return d, vg

    def curve_and_slope(self, v, g, d, vg):
        vtd = np.einsum("ij,ij->j", v, d)
        if self.scheme.feasibility_control:
            # v_i^T w_i = 0 exactly, even after the columns have drifted,
            # and the 1x1 g(tau) block of J is dropped (exact skew = 0)
            vv = np.einsum("ij,ij->j", v, v)
            w = v * (vtd / vv) - d
            curve = _SphereCurve(v, w)
        else:
            # formulas as written: w_i = -(I - v_i v_i^T) d_i and the
            # g(tau) v_i^T d_i term kept literally; both are nonzero once a
            # column drifts and amplify the drift
            w = v * vtd - d
            curve = _SphereCurve(v, w, vtd, self.scheme.gtau)
        slope = -float(np.vdot(g, d))
        return curve, slope

    def feasibility(self, v) -> float:
        return float(np.linalg.norm(np.einsum("ij,ij->j", v, v) - 1.0))

    def reorthogonalize(self, v):
        return v / np.linalg.norm(v, axis=0)

    def dim_scale(self, v) -> float:
        return math.sqrt(v.shape[1])


class _GeneralizedEngine:
    """The loop on {X : X^T H X = K}; BB inner products are taken directly."""

    def __init__(self, cfg: SolverConfig, gc: GeneralizedConstraint):
        self.gc = gc
        self.gtau = cfg.scheme.gtau

    def direction(self, x, g):
        return _generalized_direction(x, g, self.gc.h)

    def curve_and_slope(self, x, g, d, hx):
        curve = _GeneralizedCurve(x, g, self.gc, self.gtau, hx, d)
        slope = -float(np.vdot(g, d))
        return curve, slope

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
    """Everything iterate_once needs; deep-copyable for snapshotting."""

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
    bb: BBState
    ref: ReferenceState
    k: int = 0
    nfge: int = 1
    f_history: List[float] = field(default_factory=list)
    tolx_win: deque = field(default_factory=deque)
    tolf_win: deque = field(default_factory=deque)
    done: bool = False
    stop_reason: Optional[str] = None
    feas_trace: Optional[List[float]] = None

    def copy(self) -> "SolverState":
        return copy.deepcopy(self)


def _make_engine(problem, cfg, gc):
    manifold = "generalized" if gc is not None else getattr(problem, "manifold", "stiefel")
    if manifold == "stiefel":
        return _StiefelEngine(cfg)
    if manifold not in ("spheres", "generalized"):
        raise ValueError(f"unknown problem manifold {manifold!r}")
    # the curves of the other kinds are built for X^T X = I_p only
    if cfg.scheme.kind != "new":
        raise ValueError(f"the {manifold!r} geometry supports only scheme kind 'new'")
    if manifold == "generalized" and not cfg.scheme.feasibility_control:
        raise ValueError("the 'generalized' curve is built only with feasibility_control=True")
    return _SphereEngine(cfg) if manifold == "spheres" else _GeneralizedEngine(cfg, gc)


def prepare_state(problem, x0=None, cfg=None, gc=None) -> SolverState:
    """Build the loop state: evaluate the start, form D and the first trial step."""
    cfg = SolverConfig() if cfg is None else cfg
    engine = _make_engine(problem, cfg, gc)
    if x0 is None:
        shape = getattr(problem, "shape", None)
        if shape is None:
            raise ValueError("need x0 or a problem exposing .shape for a random start")
        x0 = engine.reorthogonalize(np.random.default_rng(cfg.seed).standard_normal(shape))
    else:
        x0 = np.array(np.asarray(x0), dtype=float, copy=True)
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
        tau1=0.5 / d_norm if d_norm > 0.0 else 1.0,
        bb=BBState(),
        ref=ReferenceState.fresh(f0),
        f_history=[f0],
        tolx_win=deque(maxlen=WINDOW_T),
        tolf_win=deque(maxlen=WINDOW_T),
    )
    if cfg.track_feasibility:
        state.feas_trace = [engine.feasibility(x0)]
    return state


def iterate_once(state: SolverState) -> SolverState:
    """Advance the loop by one accepted step (or mark the state done)."""
    if state.done:
        return state
    cfg = state.cfg
    eng = state.engine

    # stopping on the gradient residual, then on the iteration budget
    if cfg.check_convergence:
        if state.d_norm <= cfg.eps * state.d0_norm:
            state.done = True
            state.stop_reason = "ResidualRel"
            return state
    if state.k >= cfg.max_iter:
        state.done = True
        state.stop_reason = "MaxIter"
        return state

    # curve of the configured scheme + adaptive nonmonotone backtracking
    curve, slope = eng.curve_and_slope(state.x, state.g, state.d, state.ctx)
    if not (math.isfinite(slope) and slope < 0.0):
        state.done = True
        state.stop_reason = "LineSearchFail"
        return state
    try:
        _, y, f_new, g_new, evals = armijo_backtrack(
            state.problem.fg, curve, slope, state.tau1, state.ref.f_r
        )
    except LineSearchError as err:
        state.nfge += err.evals
        state.done = True
        state.stop_reason = "LineSearchFail"
        return state
    state.nfge += evals
    f_new = float(f_new)
    d_new, ctx_new = eng.direction(y, g_new)
    d_new_norm = float(np.linalg.norm(d_new))
    _check_finite(f_new, d_new_norm, f"at iterate {state.k + 1}")

    # reference value recurrence
    update_reference(state.ref, f_new)

    # secant pair, next trial step
    bb = state.bb
    bb.s_prev = y - state.x
    bb.y_prev = d_new - state.d
    bb.k = state.k + 1
    # curves with a cached J offer the <S,S> = 4p - 4 tr(J^{-1}) shortcut
    trace_jinv = getattr(curve, "trace_jinv", None)
    bb.trace_jinv = trace_jinv() if trace_jinv is not None else None
    s_norm_sq = bb.s_dot_s()

    f_prev = state.f
    state.x, state.f, state.g = y, f_new, g_new
    state.d, state.d_norm, state.ctx = d_new, d_new_norm, ctx_new
    state.k += 1
    state.f_history.append(f_new)
    if state.feas_trace is not None:
        state.feas_trace.append(eng.feasibility(y))

    tau0 = abb(bb)
    if tau0 is None:
        # degenerate secant pair: fall back to the previous safeguarded step
        tau0 = state.tau1
    if d_new_norm > 0.0:
        state.tau1 = safeguard(tau0, d_new_norm)

    # diminishing-change tests: pointwise, then windowed means
    tol_x = math.sqrt(max(s_norm_sq, 0.0)) / eng.dim_scale(state.x)
    tol_f = abs(f_prev - f_new) / (abs(f_prev) + 1.0)
    state.tolx_win.append(tol_x)
    state.tolf_win.append(tol_f)
    if cfg.check_convergence:
        if tol_x <= cfg.eps_x and tol_f <= cfg.eps_f:
            state.done = True
            state.stop_reason = "XtolFtol"
        elif (
            sum(state.tolx_win) / len(state.tolx_win) <= 10.0 * cfg.eps_x
            and sum(state.tolf_win) / len(state.tolf_win) <= 10.0 * cfg.eps_f
        ):
            state.done = True
            state.stop_reason = "WindowedMeans"
    return state


def _run(state: SolverState, t0: float) -> SolverReport:
    """Iterate to a stop and report; t0 is when the solve call began."""
    while not state.done:
        iterate_once(state)
    eng = state.engine
    x_final, f_final, nfge = state.x, state.f, state.nfge
    feas = eng.feasibility(x_final)
    if feas >= REORTH_TOL:
        x_final = eng.reorthogonalize(x_final)
        feas = eng.feasibility(x_final)
        f_final = float(state.problem.fg(x_final)[0])
        nfge += 1
    return SolverReport(
        x_final=x_final,
        f_history=list(state.f_history),
        f_final=f_final,
        residual_final=state.d_norm,
        feasi=feas,
        nfge=nfge,
        iters=state.k,
        stop_reason=state.stop_reason,
        wall_time=time.perf_counter() - t0,
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
