"""BB stepsizes, the alternating rule, the safeguard clamp, and the adaptive
nonmonotone Armijo backtracking with reference value F_r.

The backtracking takes a curve object (anything with eval(tau), as returned
by a retract_<kind> builder or an engine's curve_and_slope) and its initial
slope, so it serves every scheme without knowing which one it follows.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "BBState",
    "ReferenceState",
    "SafeguardParams",
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


class LineSearchError(RuntimeError):
    """Backtracking exhausted its budget without satisfying the Armijo test."""


@dataclass
class BBState:
    """Secant pair S = X_k - X_{k-1}, Y = D_k - D_{k-1} plus the iteration
    counter whose parity drives the alternation. trace_jinv, when present,
    provides <S,S> = 4p - 4 tr(J^{-1}) without touching S."""

    s_prev: Optional[np.ndarray] = None
    y_prev: Optional[np.ndarray] = None
    k: int = 0
    trace_jinv: Optional[float] = None

    def _pair(self):
        if self.s_prev is None or self.y_prev is None:
            raise ValueError("BB stepsize needs a stored (S, Y) pair")
        return self.s_prev, self.y_prev

    def s_dot_s(self) -> float:
        s, _ = self._pair()
        if self.trace_jinv is not None:
            p = s.shape[1]
            return max(4.0 * p - 4.0 * self.trace_jinv, 0.0)
        return float(np.vdot(s, s))


def bb_long(state: BBState) -> Optional[float]:
    """Long BB step <S,S>/|<S,Y>|; None when the denominator is degenerate."""
    s, y = state._pair()
    sy = abs(float(np.vdot(s, y)))
    scale = float(np.linalg.norm(s)) * float(np.linalg.norm(y))
    if sy <= DEGENERATE_REL * scale or sy == 0.0:
        return None
    return state.s_dot_s() / sy


def bb_short(state: BBState) -> Optional[float]:
    """Short BB step |<S,Y>|/<Y,Y>; None when Y vanishes. A zero numerator is
    returned as 0.0 and left to the safeguard's lower clamp."""
    s, y = state._pair()
    yy = float(np.vdot(y, y))
    if yy == 0.0:
        return None
    return abs(float(np.vdot(s, y))) / yy


def abb(state: BBState) -> Optional[float]:
    """Alternating rule: short step for odd k, long step for even k."""
    if state.k < 1:
        raise ValueError("ABB needs k >= 1 (the first completed step)")
    if state.k % 2 == 1:
        return bb_short(state)
    return bb_long(state)


@dataclass
class SafeguardParams:
    """Clamp band and line-search constants. The band keeps
    tau ||D||_F <= eps_max, which bounds cond(J) by (5 + eps_max^2)/4."""

    eps_min: float = 1e-8
    eps_max: float = 1e8
    delta_cap: float = 1e10
    sigma: float = 0.5
    delta_armijo: float = 0.001

    def __post_init__(self):
        if not (0.0 < self.eps_min < self.eps_max):
            raise ValueError("need 0 < eps_min < eps_max")
        if not (0.0 < self.sigma < 1.0):
            raise ValueError("need 0 < sigma < 1")
        if not (0.0 < self.delta_armijo < 1.0):
            raise ValueError("need 0 < delta_armijo < 1")


def safeguard(tau0: float, d_norm: float, params: SafeguardParams) -> float:
    """Clamp a trial step into [eps_min/||D||, min(eps_max/||D||, Delta)]."""
    if d_norm <= 0.0:
        raise ValueError("safeguard needs ||D|| > 0 (stationary point reached)")
    lo = params.eps_min / d_norm
    hi = min(params.eps_max / d_norm, params.delta_cap)
    return max(lo, min(tau0, hi))


@dataclass
class ReferenceState:
    """The (F_r, F_best, F_c, l, L) quintuple of the adaptive nonmonotone rule."""

    f_r: float = math.inf
    f_best: float = math.inf
    f_c: float = math.inf
    l: int = 0
    cap_l: int = 3

    @classmethod
    def fresh(cls, f0: float, cap_l: int = 3):
        return cls(f_r=math.inf, f_best=f0, f_c=f0, l=0, cap_l=cap_l)


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
        if ref.l == ref.cap_l:
            ref.f_r = ref.f_c
            ref.f_c = f_next
            ref.l = 0
    return ref


def armijo_backtrack(value_fn, curve, slope, tau1, f_ref, sigma, delta, max_backtracks):
    """Shrink tau by sigma until F(Y(tau)) <= f_ref + delta tau slope.

    value_fn maps a point to F, curve.eval(tau) gives Y(tau), slope is the
    curve's initial slope (negative) and f_ref the reference value F_r.
    Returns (tau, y, f_new, i) with i the number of rejected trials.
    Non-finite trial values are treated as rejections so the shrinking
    continues past overflow territory.
    """
    if not slope < 0.0:
        raise ValueError(f"line search needs a descent direction, slope = {slope:.3e}")
    tau = tau1
    for i in range(max_backtracks + 1):
        try:
            y = curve.eval(tau)
        except np.linalg.LinAlgError:
            # a catastrophically large trial step; shrink like a rejection
            tau *= sigma
            continue
        f_new = value_fn(y)
        if f_new <= f_ref + delta * tau * slope:
            return tau, y, f_new, i
        tau *= sigma
    raise LineSearchError(
        f"no acceptable step within {max_backtracks} backtracks (last tau {tau:.3e})"
    )
