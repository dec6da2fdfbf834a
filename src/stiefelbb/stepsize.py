"""BB stepsizes, the alternating rule, the safeguard clamp, and the adaptive
nonmonotone Armijo backtracking with reference value F_r.

The backtracking takes a curve object (anything with eval(tau), as returned
by a retract_<kind> builder or an engine's curve_and_slope) and its initial
slope, so it serves every scheme without knowing which one it follows, and
returns the accepted point with its gradient.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "ReferenceState",
    "LineSearchError",
    "bb_long",
    "bb_short",
    "abb",
    "safeguard",
    "update_reference",
    "armijo_backtrack",
]

# denominators smaller than this times the natural scale signal a degenerate
# secant pair; the caller then reuses the previous safeguarded trial step
DEGENERATE_REL = 1e-16

# the safeguard band's edges on tau ||D||_F and the cap Delta on tau, the
# same on every geometry; tau ||D||_F <= EPS_MAX bounds cond(J) by
# (5 + EPS_MAX^2)/4
EPS_MIN = 1e-8
EPS_MAX = 1e8
DELTA_CAP = 1e10
# the backtracking factor sigma, the Armijo constant delta, and the shrinks
# after the first trial before the line search gives up
SIGMA = 0.5
DELTA = 0.001
MAX_BACKTRACKS = 60
# L, the non-improving steps after which F_c becomes the reference F_r
REF_CAP = 3


class LineSearchError(RuntimeError):
    """Backtracking exhausted its budget without satisfying the Armijo test;
    evals is the number of objective evaluations it spent."""

    def __init__(self, message, evals=0):
        super().__init__(message)
        self.evals = evals


def bb_long(s, y, ss: float) -> Optional[float]:
    """Long BB step <S,S>/|<S,Y>|, with ss = <S,S> from the caller (its root
    is ||S|| in the degeneracy scale); None when the denominator is degenerate."""
    sy = abs(float(np.vdot(s, y)))
    scale = math.sqrt(ss) * float(np.linalg.norm(y))
    if sy <= DEGENERATE_REL * scale or sy == 0.0:
        return None
    return ss / sy


def bb_short(s, y) -> Optional[float]:
    """Short BB step |<S,Y>|/<Y,Y>; None when Y vanishes. A zero numerator is
    returned as 0.0 and left to the safeguard's lower clamp."""
    yy = float(np.vdot(y, y))
    if yy == 0.0:
        return None
    return abs(float(np.vdot(s, y))) / yy


def abb(k: int, s, y, ss: float) -> Optional[float]:
    """Alternating rule on the secant pair S = X_k - X_{k-1}, Y = D_k - D_{k-1}:
    short step for odd k, long step for even k."""
    if k < 1:
        raise ValueError("ABB needs k >= 1 (the first completed step)")
    if k % 2 == 1:
        return bb_short(s, y)
    return bb_long(s, y, ss)


def safeguard(tau0: float, d_norm: float) -> float:
    """Clamp a trial step into [EPS_MIN/||D||, min(EPS_MAX/||D||, DELTA_CAP)]."""
    if d_norm <= 0.0:
        raise ValueError("safeguard needs ||D|| > 0 (stationary point reached)")
    lo = EPS_MIN / d_norm
    hi = min(EPS_MAX / d_norm, DELTA_CAP)
    return max(lo, min(tau0, hi))


@dataclass
class ReferenceState:
    """The (F_r, F_best, F_c, l) quadruple of the adaptive nonmonotone rule."""

    f_r: float = math.inf
    f_best: float = math.inf
    f_c: float = math.inf
    l: int = 0

    @classmethod
    def fresh(cls, f0: float):
        return cls(f_r=math.inf, f_best=f0, f_c=f0, l=0)


def update_reference(ref: ReferenceState, f_next: float) -> ReferenceState:
    """Apply the reference-value recurrence after accepting F_{k+1}.

    Improvement over F_best resets the counter; otherwise the candidate F_c
    rises and, after L consecutive non-improving steps, becomes the new F_r.
    """
    if f_next < ref.f_best:
        ref.f_best = f_next
        ref.f_c = f_next
        ref.l = 0
    else:
        ref.f_c = max(ref.f_c, f_next)
        ref.l += 1
        if ref.l == REF_CAP:
            ref.f_r = ref.f_c
            ref.f_c = f_next
            ref.l = 0
    return ref


def armijo_backtrack(fg_fn, curve, slope, tau1, f_ref):
    """Shrink tau by SIGMA until F(Y(tau)) <= f_ref + DELTA tau slope.

    fg_fn maps a point to (F, gradient), curve.eval(tau) gives Y(tau), slope
    is the curve's initial slope (negative) and f_ref the reference value F_r.
    Returns (tau, y, f_new, g_new, evals), evals counting the fg_fn calls.
    Non-finite trial values are rejections, so the shrinking continues past
    overflow territory; a trial whose curve.eval raises LinAlgError is shrunk
    without an evaluation.
    """
    if not slope < 0.0:
        raise ValueError(f"line search needs a descent direction, slope = {slope:.3e}")
    tau = tau1
    evals = 0
    for _ in range(MAX_BACKTRACKS + 1):
        try:
            y = curve.eval(tau)
        except np.linalg.LinAlgError:
            # a catastrophically large trial step; shrink like a rejection
            tau *= SIGMA
            continue
        f_new, g_new = fg_fn(y)
        evals += 1
        if f_new <= f_ref + DELTA * tau * slope:
            return tau, y, f_new, g_new, evals
        tau *= SIGMA
    raise LineSearchError(
        f"no acceptable step within {MAX_BACKTRACKS} backtracks (last tau {tau:.3e})",
        evals,
    )
