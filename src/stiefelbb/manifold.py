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
    xtg = x.T @ g
    return g - x @ (2.0 * rho * xtg.T + (1.0 - 2.0 * rho) * xtg)


def optimality_residual(x, g, rho: float) -> float:
    """||D_rho||_F, the stationarity measure driving the solver's stopping test."""
    return float(np.linalg.norm(compute_d_rho(x, g, rho)))


def random_stiefel(n: int, p: int, seed: Optional[int] = None) -> np.ndarray:
    """Random feasible point: Q factor of an n x p standard Gaussian matrix."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    q, r = np.linalg.qr(a)
    # fix the sign convention so the draw is unique given the Gaussian sample
    q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
    return np.asfortranarray(q)
