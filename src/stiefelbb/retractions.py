"""Constraint-preserving update schemes (retractions) for St(n, p).

Every scheme maps a point X and a direction to a curve Y(tau) that stays
feasible for all tau >= 0 and leaves X with a prescribed initial velocity.
Each retract_<kind> builder checks its inputs and returns the curve object
the solver's engines build: curve.eval(tau) gives Y(tau), and the
tau-independent blocks formed at construction are reused by every
evaluation, so backtracking over tau costs only the small tau-dependent
work.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .manifold import _as_matrix, _checked_pair, qr_positive, sym

__all__ = [
    "SCHEME_KINDS",
    "GTAU_NAMES",
    "GTAU_SENSITIVE",
    "RetractionScheme",
    "GeneralizedConstraint",
    "retract_new",
    "retract_polar",
    "retract_qr",
    "retract_gradproj",
    "retract_wenyin",
    "retract_geodesic",
    "retract_lowrank_column",
    "retract_generalized",
    "polar_project",
    "gtau_function",
]

GTAU_NAMES = ("linear", "expdamped")

# kinds whose J(tau) contains the g(tau) X^T E term ("new" also on
# X^T H X = K); gtau is ignored elsewhere
GTAU_SENSITIVE = ("new",)


def _g_linear(tau):
    return 0.5 * tau


def _g_expdamped(tau):
    return 0.5 * tau * math.exp(-tau)


_GTAU = {"linear": _g_linear, "expdamped": _g_expdamped}


def gtau_function(name):
    """Look up a g(tau) variant. Both satisfy g(0)=0, g'(0)=1/2, |g/tau| bounded."""
    try:
        return _GTAU[name]
    except KeyError:
        raise ValueError(f"unknown gtau {name!r}, expected one of {GTAU_NAMES}") from None


def _entry_max(*blocks):
    """The largest |entry| of each block, the bounds of _checked_jinv."""
    return tuple(float(np.abs(m).max()) for m in blocks)


def _checked_jinv(k, m1, m2, bounds, tau, g):
    """J^{-1} for J = K + tau^2/4 M1 + g(tau) M2, through numpy's LAPACK.

    Raises LinAlgError, so that the line search shrinks the step without an
    evaluation, when J would not be finite (an overflowing or NaN tau), when
    J is singular (an exact zero pivot) or when J^{-1} is not finite. The
    first test runs before J is formed, in Python floats, which overflow
    without a warning: with bounds = (max|K|, max|M1|, max|M2|) the same sum
    bounds every entry of J.
    """
    a, b = 0.25 * tau * tau, g(tau)
    if not bounds[0] + a * bounds[1] + abs(b) * bounds[2] < math.inf:
        raise np.linalg.LinAlgError(
            "J not finite; the trial stepsize is catastrophically large"
        )
    jinv = np.linalg.inv(k + a * m1 + b * m2)
    if not np.isfinite(jinv).all():
        raise np.linalg.LinAlgError("J numerically singular")
    return jinv


class _NewCurve:
    """Y(tau) = (2X + tau W) J(tau)^{-1} - X with J = I + tau^2/4 W^T W + g(tau) X^T E.

    W and the p x p blocks are tau-independent and cached; each eval costs one
    p x p assembly, one p x p inverse and one n x p GEMM. The inverse is kept
    for tr(J^{-1}).
    """

    def __init__(self, x, w, xte, gtau):
        self.x = x
        self.w = w
        self.xte = xte
        self.wtw = w.T @ w
        self.g = gtau_function(gtau)
        self._bounds = (1.0,) + _entry_max(self.wtw, xte)
        self._jinv = None

    def eval(self, tau):
        p = self.x.shape[1]
        self._jinv = _checked_jinv(np.eye(p), self.wtw, self.xte, self._bounds, tau, self.g)
        return (2.0 * self.x + tau * self.w) @ self._jinv - self.x

    def trace_jinv(self):
        """tr(J^{-1}) at the last evaluated tau, for the free <S,S> shortcut."""
        if self._jinv is None:
            raise ValueError("curve not evaluated yet")
        return float(np.trace(self._jinv))


def retract_new(x, e, gtau="linear"):
    """The update scheme Y(tau) = (2X + tau W) J^{-1} - X, W = -(I - X X^T) E.

    Parameters
    ----------
    x : array_like, shape (n, p)
        Feasible point.
    e : array_like, shape (n, p)
        Tangent direction at x (X^T E skew-symmetric); the curve satisfies
        Y(0) = X and Y'(0) = -E.
    gtau : {"linear", "expdamped"}
        The g(tau) term in J: tau/2 or tau*exp(-tau)/2.
    """
    x, e = _checked_pair(x, e, "E")
    xte = x.T @ e
    viol = np.linalg.norm(xte + xte.T)
    if viol > 1e-6 * max(1.0, np.linalg.norm(e)):
        raise ValueError(f"E is not tangent at X: ||X^T E + E^T X||_F = {viol:.3e}")
    return _NewCurve(x, x @ xte - e, xte, gtau)


class _PolarCurve:
    """Y(tau) = (X - tau D)(I + tau^2 D^T D)^{-1/2} via p x p eigendecomposition."""

    def __init__(self, x, d):
        self.x = x
        self.d = d
        self.dtd = d.T @ d

    def eval(self, tau):
        p = self.x.shape[1]
        m = np.eye(p) + (tau * tau) * self.dtd
        lam, u = np.linalg.eigh(m)
        lam = np.maximum(lam, 1e-15 * lam[-1])
        inv_sqrt = (u / np.sqrt(lam)) @ u.T
        return (self.x - tau * self.d) @ inv_sqrt


def retract_polar(x, d):
    """Polar scheme: Y = (X - tau D)(I + tau^2 D^T D)^{-1/2} for tangent D."""
    return _PolarCurve(*_checked_pair(x, d, "D"))


class _QrCurve:
    def __init__(self, x, d):
        self.x = x
        self.d = d

    def eval(self, tau):
        q, _ = qr_positive(self.x - tau * self.d)
        return q


def retract_qr(x, d):
    """QR scheme: Y = Q factor of X - tau D with positive-diagonal R."""
    return _QrCurve(*_checked_pair(x, d, "D"))


def polar_project(a):
    """Projection onto St(n, p) via the polar factor, computed by thin SVD."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[-1] <= 0.0:
        raise np.linalg.LinAlgError("matrix is rank-deficient, projection not unique")
    return u @ vt


class _GpCurve:
    """Y(tau) = P_St(X - tau G), leaving X with velocity -(G - X sym(X^T G))."""

    follows_g = True  # built from G and X^T G, not from D_rho

    def __init__(self, x, g, xtg=None):
        xtg = x.T @ g if xtg is None else xtg
        self.x = x
        self.g = g
        self.slope_inner = float(np.vdot(g, g - x @ sym(xtg)))  # <G, E>

    def eval(self, tau):
        return polar_project(self.x - tau * self.g)


def retract_gradproj(x, g):
    """Gradient projection scheme: Y = P_St(X - tau G)."""
    return _GpCurve(*_checked_pair(x, g, "G"))


class _WenYinCurve:
    """Y(tau) = X - tau U (I + tau/2 V^T U)^{-1} V^T X, U = [P_X D, X], V = [X, -P_X D]."""

    def __init__(self, x, d):
        pxd = d - 0.5 * x @ (x.T @ d)
        self.x = x
        self.u = np.hstack([pxd, x])
        v = np.hstack([x, -pxd])
        self.vtu = v.T @ self.u
        self.vtx = v.T @ x

    def eval(self, tau):
        p2 = self.vtu.shape[0]
        k = np.eye(p2) + (0.5 * tau) * self.vtu
        return self.x - tau * (self.u @ np.linalg.solve(k, self.vtx))


def retract_wenyin(x, d):
    """Wen-Yin scheme; equals the new scheme with g = tau/2 whenever its
    2p x 2p system is well conditioned."""
    return _WenYinCurve(*_checked_pair(x, d, "D"))


class _GeodesicCurve:
    """Y(tau) = [X, Q] expm(tau [[-X^T D, -R^T], [R, 0]]) [I_p; 0], QR = -(I - XX^T)D."""

    def __init__(self, x, d):
        xtd = x.T @ d
        q, r = qr_positive(x @ xtd - d, require_full_rank=False)
        p = x.shape[1]
        self.block = np.block([[-xtd, -r.T], [r, np.zeros((p, p))]])
        self.frame = np.hstack([x, q])
        self.p = p

    def eval(self, tau):
        e = scipy.linalg.expm(tau * self.block)
        return self.frame @ e[:, : self.p]


def retract_geodesic(x, d):
    """Geodesic scheme through the exponential of a 2p x 2p skew matrix."""
    return _GeodesicCurve(*_checked_pair(x, d, "D"))


class _LowRankCurve:
    """New scheme with the rank-2 direction D^(q) and the analytic J^{-1}.

    q maximizes <G, D^(i)> = [diag(G^T grad F)]_i over columns; ties take the
    smallest index. Evaluation costs O(np) beyond the one-time X^T G product.
    """

    follows_g = True  # built from G and X^T G, not from D_rho

    def __init__(self, x, g, xtg=None):
        xtg = x.T @ g if xtg is None else xtg
        gtx = xtg.T
        gcol_sq = np.einsum("ij,ij->j", g, g)
        diag_gnf = gcol_sq - np.einsum("ij,ji->i", gtx, gtx)
        q = int(np.argmax(diag_gnf))
        u0 = xtg[:, q]
        self.x = x
        self.q = q
        self.u0 = u0
        self.wcol = x @ u0 - g[:, q]
        self.gq_sq = float(gcol_sq[q])
        self.xqg = float(u0[q])
        self.slope_inner = float(diag_gnf[q])  # <G, D^(q)>

    def direction(self):
        """The rank-2 direction D^(q) = G_(q) e_q^T - X_(q) G_(q)^T X, materialized."""
        x = self.x
        n, p = x.shape
        d = np.zeros((n, p))
        gq = x @ self.u0 - self.wcol  # wcol = X u0 - G_(q)
        d[:, self.q] = gq
        d -= np.outer(x[:, self.q], gq @ x)
        return d

    def eval(self, tau):
        x = self.x
        p = x.shape[1]
        b = (0.5 * tau) * self.u0
        b[self.q] = 0.0
        alpha = 0.25 * tau * tau * (self.gq_sq - self.xqg**2)
        bmat = 2.0 * x
        bmat[:, self.q] += tau * self.wcol
        be = bmat[:, self.q].copy()
        bb = bmat @ b
        eq = np.zeros(p)
        eq[self.q] = 1.0
        coef = 1.0 / (1.0 + alpha)
        y = bmat - coef * (np.outer(alpha * be + bb, eq) + np.outer(bb - be, b))
        return y - x


def retract_lowrank_column(x, g):
    """Single-column rank-2 scheme of the framework, J inverted analytically."""
    return _LowRankCurve(*_checked_pair(x, g, "G"))


# the curve class of each Stiefel kind but "new" (whose two W variants the
# solver's engine builds itself); SCHEME_KINDS keeps this order
_CURVES = {
    "polar": _PolarCurve,
    "qr": _QrCurve,
    "gp": _GpCurve,
    "wenyin": _WenYinCurve,
    "geodesic": _GeodesicCurve,
    "lowrank": _LowRankCurve,
}
SCHEME_KINDS = ("new", *_CURVES)


@dataclass(frozen=True)
class RetractionScheme:
    """A scheme family member: kind, g(tau) choice, and feasibility control.

    feasibility_control selects the drift-safe W-hat construction inside the
    solver loop; it has no effect on kinds other than "new". The sphere
    geometry honours it; the generalized geometry has only the drift-safe
    curve and rejects feasibility_control=False.
    """

    kind: str = "new"
    gtau: str = "linear"
    feasibility_control: bool = True

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}, expected one of {SCHEME_KINDS}")
        if self.gtau not in GTAU_NAMES:
            raise ValueError(f"unknown gtau {self.gtau!r}, expected one of {GTAU_NAMES}")


class GeneralizedConstraint:
    """The feasible set {X : X^T H X = K} with H symmetric PSD and K SPD."""

    __slots__ = ("h", "k", "k_lower")

    def __init__(self, h, k):
        h = _as_matrix(h, "H")
        k = _as_matrix(k, "K")
        if h.shape[0] != h.shape[1] or k.shape[0] != k.shape[1]:
            raise ValueError("H and K must be square")
        hnorm = np.linalg.norm(h)
        if np.linalg.norm(h - h.T) > 1e-12 * max(1.0, hnorm):
            raise ValueError("H must be symmetric")
        try:
            # lower Cholesky factor L_K of K = L_K L_K^T
            self.k_lower = scipy.linalg.cholesky(k, lower=True, check_finite=False)
        except np.linalg.LinAlgError as err:
            raise ValueError("K must be symmetric positive definite") from err
        self.h = h
        self.k = k

    def feasibility(self, x) -> float:
        x = _as_matrix(x, "X")
        return float(np.linalg.norm(x.T @ (self.h @ x) - self.k))


def _generalized_direction(x, g, h):
    """D = G X^T H^2 X - H X G^T H X on {X^T H X = K}, and H X."""
    hx = h @ x
    return g @ (hx.T @ hx) - hx @ (g.T @ hx), hx


class _GeneralizedCurve:
    """Y(tau) = (2X + tau W) J^{-1} K - X on {X^T H X = K}.

    Each eval costs one p x p inverse, one p x p product J^{-1} K and one
    n x p GEMM.

    D and H X come from _generalized_direction; W = -(I - X K^{-1} X^T H) D,
    J = K + tau^2/4 W^T H W + g(tau) X^T H D. The X^T H D block is
    evaluated as A - A^T with A = (X^T H G)(X^T H^2 X): this equals the
    literal product in exact arithmetic but stays skew for any X, so
    feasibility error is never fed back through J.
    """

    def __init__(self, x, g, gc, gtau, hx, d):
        h, k = gc.h, gc.k
        m1 = hx.T @ g
        m2 = sym(hx.T @ hx)
        self.d = d
        a = m1 @ m2
        xthd = a - a.T
        w = x @ scipy.linalg.cho_solve((gc.k_lower, True), xthd, check_finite=False) - d
        self.x = x
        self.w = w
        self.k = k
        self.wthw = w.T @ (h @ w)
        self.xthd = xthd
        self.g = gtau_function(gtau)
        self._bounds = _entry_max(k, self.wthw, xthd)

    def eval(self, tau):
        jinv = _checked_jinv(self.k, self.wthw, self.xthd, self._bounds, tau, self.g)
        return (2.0 * self.x + tau * self.w) @ (jinv @ self.k) - self.x


def retract_generalized(x, g, gc, gtau="linear"):
    """Generalized-constraint scheme; preserves X^T H X = K along the curve."""
    x, g = _checked_pair(x, g, "G")
    feas = gc.feasibility(x)
    if feas > 1e-10 * max(1.0, float(np.linalg.norm(gc.k))):
        raise ValueError(f"X violates X^T H X = K: error {feas:.3e}")
    d, hx = _generalized_direction(x, g, gc.h)
    return _GeneralizedCurve(x, g, gc, gtau, hx, d)

