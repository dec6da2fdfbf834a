"""Dense primitives for the Stiefel manifold St(n, p) = {X : X^T X = I_p}.

Conventions: points and directions are n x p numpy arrays with n >= p,
stored column-major. A direction E is tangent at X when X^T E is
skew-symmetric. The Euclidean gradient of the objective at X is written G.
"""

from typing import Optional

import numpy as np

__all__ = [
    "feasibility_error",
    "canonical_gradient",
    "tangent_projection",
    "compute_d_rho",
    "optimality_residual",
    "sym",
    "skew",
    "qr_positive",
    "random_stiefel",
]

def _as_matrix(a, name="matrix"):
    """Coerce input to a finite 2-d float array in column-major order."""
    m = np.asfortranarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def sym(m):
    """Symmetric part (M + M^T) / 2."""
    return 0.5 * (m + m.T)


def skew(m):
    """Skew-symmetric part (M - M^T) / 2."""
    return 0.5 * (m - m.T)


def feasibility_error(x) -> float:
    """Frobenius norm of X^T X - I_p, the orthonormality violation of X."""
    x = _as_matrix(x, "X")
    p = x.shape[1]
    return float(np.linalg.norm(x.T @ x - np.eye(p)))


def _check_shapes(x, g):
    if x.shape != g.shape:
        raise ValueError(f"point shape {x.shape} != gradient shape {g.shape}")


def canonical_gradient(x, g):
    """Gradient under the canonical metric: G - X G^T X."""
    x = _as_matrix(x, "X")
    g = _as_matrix(g, "G")
    _check_shapes(x, g)
    return g - x @ (g.T @ x)


def tangent_projection(x, z):
    """Project Z onto the tangent space at X: Z - X sym(X^T Z)."""
    x = _as_matrix(x, "X")
    z = _as_matrix(z, "Z")
    _check_shapes(x, z)
    return z - x @ sym(x.T @ z)


def _d_rho(x, g, rho):
    """D_rho and X^T G for checked n x p arrays; the solver's direction."""
    xtg = x.T @ g
    two_rho = 2.0 * rho
    return g - x @ (two_rho * xtg.T + (1.0 - two_rho) * xtg), xtg


def compute_d_rho(x, g, rho: float):
    """Descent direction D_rho = G - X (2 rho G^T X + (1 - 2 rho) X^T G).

    rho = 1/2 gives the canonical gradient, rho = 1/4 the steepest tangent
    direction in the Euclidean metric. Requires rho > 0.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    x = _as_matrix(x, "X")
    g = _as_matrix(g, "G")
    _check_shapes(x, g)
    return _d_rho(x, g, rho)[0]


def optimality_residual(x, g, rho: float) -> float:
    """||D_rho||_F, the stationarity measure driving the solver's stopping test."""
    return float(np.linalg.norm(compute_d_rho(x, g, rho)))


def qr_positive(a, require_full_rank=True):
    """Thin QR factorization with the positive-diagonal convention on R."""
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    if require_full_rank and np.min(np.abs(diag)) <= 1e-12 * max(1.0, np.max(np.abs(diag))):
        raise np.linalg.LinAlgError("matrix is rank-deficient, QR factor not unique")
    s = np.where(diag < 0, -1.0, 1.0)
    return q * s, r * s[:, None]


def random_stiefel(n: int, p: int, seed: Optional[int] = None) -> np.ndarray:
    """Random feasible point: Q factor of an n x p standard Gaussian matrix."""
    a = np.random.default_rng(seed).standard_normal((n, p))
    return np.asfortranarray(qr_positive(a, require_full_rank=False)[0])
