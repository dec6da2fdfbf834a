"""Constraint-preserving curves on St(n, p), X^T H X = K and unit spheres.

Every scheme maps a point X and a direction to a curve Y(tau) that stays
feasible for all tau >= 0 and leaves X with a prescribed initial velocity.
Each retract_<kind> builder checks its inputs and returns the curve object
the solver's engines build for that kind. curve.eval(tau) gives Y(tau), and
the tau-independent blocks formed at construction are reused by every
evaluation, so backtracking over tau costs only the small tau-dependent work.
"""

import math

import numpy as np
import scipy.linalg

from .manifold import _as_matrix, _checked_pair, qr_positive, sym

__all__ = [
    "SCHEME_KINDS",
    "GTAU_NAMES",
    "GTAU_SENSITIVE",
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

# kinds whose J(tau) contains the g(tau) X^T E term (on unit spheres that
# term is zero); gtau is ignored elsewhere
GTAU_SENSITIVE = ("new", "literal")


def _g_linear(tau):
    return 0.5 * tau


def _g_expdamped(tau):
    return 0.5 * tau * math.exp(-tau)


_GTAU = {"linear": _g_linear, "expdamped": _g_expdamped}
GTAU_NAMES = tuple(_GTAU)


def gtau_function(name):
    """Look up a g(tau) variant. Both satisfy g(0)=0, g'(0)=1/2, |g/tau| bounded."""
    try:
        return _GTAU[name]
    except KeyError:
        raise ValueError(f"unknown gtau {name!r}, expected one of {GTAU_NAMES}") from None


class _NewCurve:
    """Y(tau) = (2X + tau W) J(tau)^{-1} K - X, J = K + tau^2/4 W^T H W + g(tau) X^T H D.

    The new scheme on {X^T H X = K}; Stiefel is H = K = I, the default k,
    where the solve against K = I is numpy's inverse bit for bit. W and the
    tau-independent blocks come from the builder; each eval costs one p x p
    assembly, one LAPACK gesv solve and one n x p GEMM.

    eval raises LinAlgError, so that the line search shrinks the step without
    an evaluation, when J would not be finite (an overflowing or NaN tau),
    when J is singular (an exact zero pivot) or when J^{-1} K is not finite.
    The first test runs before J is formed, in Python floats, which overflow
    without a warning: the largest |entry| of K, W^T H W and X^T H D, summed
    with the weights of J, bounds every entry of J.
    """

    def __init__(self, x, d, w, wthw, xthd, gtau, k=None):
        self.x = x
        self.d = d
        self.w = w
        self.k = np.eye(x.shape[1]) if k is None else k
        self.wthw = wthw
        self.xthd = xthd
        self.g = gtau_function(gtau)
        self._bounds = tuple(float(np.abs(m).max()) for m in (self.k, wthw, xthd))

    def eval(self, tau):
        a, b = 0.25 * tau * tau, self.g(tau)
        k_max, wthw_max, xthd_max = self._bounds
        if not k_max + a * wthw_max + abs(b) * xthd_max < math.inf:
            raise np.linalg.LinAlgError(
                "J not finite; the trial stepsize is catastrophically large"
            )
        jinv_k = np.linalg.solve(self.k + a * self.wthw + b * self.xthd, self.k)
        if not np.isfinite(jinv_k).all():
            raise np.linalg.LinAlgError("J numerically singular")
        return (2.0 * self.x + tau * self.w) @ jinv_k - self.x


def _new_curve(x, e, xte, gtau):
    """The new curve on X^T X = I, built so that drift never feeds back.

    The J block xte equals X^T E on the manifold and is skew for ANY X, so it
    never feeds feasibility error back into the curve. The projection
    W = X (X^T X)^{-1} X^T E - E has X^T W = 0 up to solve roundoff even at a
    drifted X; that roundoff scales with ||E||, vanishing as the loop
    converges (building W from G instead leaves a floor of eps_mach ||G||
    that accumulates).
    """
    w = x @ np.linalg.solve(x.T @ x, x.T @ e) - e
    return _NewCurve(x, e, w, w.T @ w, xte, gtau)


def _literal_curve(x, e, gtau):
    """The "literal" kind: the Stiefel new curve with its formulas as written,
    W = X X^T E - E and the J block X^T E. Once X drifts, X^T W != 0 and
    sym(X^T E) != 0 feed the drift back, so it grows along a run."""
    xte = x.T @ e
    w = x @ xte - e
    return _NewCurve(x, e, w, w.T @ w, xte, gtau)


def retract_new(x, e, gtau="linear"):
    """The update scheme Y(tau) = (2X + tau W) J^{-1} - X, W = -(I - X X^T) E,
    built as the solver's "new" kind builds it: its own output fed back stays
    feasible at roundoff.

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
    return _new_curve(x, e, 0.5 * (xte - xte.T), gtau)


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


# the curve class of each Stiefel kind but "new" and "literal" (built by
# _new_curve and _literal_curve); SCHEME_KINDS keeps this order
_CURVES = {
    "polar": _PolarCurve,
    "qr": _QrCurve,
    "gp": _GpCurve,
    "wenyin": _WenYinCurve,
    "geodesic": _GeodesicCurve,
    "lowrank": _LowRankCurve,
}
SCHEME_KINDS = ("new", "literal", *_CURVES)


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


def _sphere_curve(v, d):
    """The sphere curve leaving the unit columns of V along -D; its
    W = v_i v_i^T d_i / ||v_i||^2 - d_i has v_i^T w_i = 0 exactly, even after
    the columns have drifted."""
    vtd = np.einsum("ij,ij->j", v, d)
    vv = np.einsum("ij,ij->j", v, v)
    return _SphereCurve(v, v * (vtd / vv) - d)


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
        if np.linalg.eigvalsh(h)[0] < -1e-12 * max(1.0, hnorm):
            raise ValueError("H must be positive semidefinite (PSD)")
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


def _generalized_curve(x, g, gc, gtau, hx, d):
    """The new curve on {X^T H X = K}, from D and H X of _generalized_direction.

    W = -(I - X K^{-1} X^T H) D and J = K + tau^2/4 W^T H W + g(tau) X^T H D.
    The X^T H D block is evaluated as A - A^T with A = (X^T H G)(X^T H^2 X):
    this equals the literal product in exact arithmetic but stays skew for
    any X, so feasibility error is never fed back through J.
    """
    a = (hx.T @ g) @ sym(hx.T @ hx)
    xthd = a - a.T
    w = x @ scipy.linalg.cho_solve((gc.k_lower, True), xthd, check_finite=False) - d
    return _NewCurve(x, d, w, w.T @ (gc.h @ w), xthd, gtau, gc.k)


def retract_generalized(x, g, gc, gtau="linear"):
    """Generalized-constraint scheme; preserves X^T H X = K along the curve."""
    x, g = _checked_pair(x, g, "G")
    feas = gc.feasibility(x)
    if feas > 1e-10 * max(1.0, float(np.linalg.norm(gc.k))):
        raise ValueError(f"X violates X^T H X = K: error {feas:.3e}")
    d, hx = _generalized_direction(x, g, gc.h)
    return _generalized_curve(x, g, gc, gtau, hx, d)

