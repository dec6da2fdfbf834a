"""Objective implementations and generators for the bundled test problems.

Each problem writes its objective once, in fg(x) -> (value,
euclidean_gradient), the only method the solver calls. value(x) is F taken
from fg, for callers that want F alone. Each also has a shape for random
starts, a manifold tag, and a known_optimum (None when unknown).
"""

import warnings

import numpy as np
import scipy.io

__all__ = [
    "TraceEigenProblem",
    "HeterogeneousQuadraticProblem",
    "LowRankCorrProblem",
    "FixedEntrySet",
    "heterogeneous_problem",
    "ex2_matrix",
    "ex3_matrix",
    "ex3_weights",
    "gen_ex2",
    "gen_ex3",
    "modified_pca_init",
    "sample_fixed_entries",
    "load_matrix",
]

_SYM_TOL = 1e-10


def _require_symmetric(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.linalg.norm(a - a.T) > _SYM_TOL * max(1.0, float(np.linalg.norm(a))):
        raise ValueError(f"{name} must be symmetric")
    return a


def _require_size(value, name, least=1):
    """A dimension n, p or r (or the count n_e, least=0) as an int; like the
    solver's budgets, it must be an int or a numpy integer (2.0 is rejected
    too), and at least `least`."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _gram(v):
    """V^T V as a fresh C-ordered array."""
    # v.T @ v takes numpy's syrk path, whose strided triangle copy costs more than gemm on a copy
    return v.T @ v.copy()


class _FgProblem:
    """Base of the bundled problems: F is written once, in the subclass's fg."""

    def value(self, x) -> float:
        """F alone, taken from fg."""
        return self.fg(x)[0]


class TraceEigenProblem(_FgProblem):
    """F(X) = -tr(X^T A X) on St(n, p): maximize the sum of the p largest
    eigenvalue directions of a symmetric A. Accepts a dense A or a
    matrix-free multiply (callable X -> A X, with n given explicitly)."""

    manifold = "stiefel"

    def __init__(self, a, p, n=None):
        if callable(a):
            if n is None:
                raise ValueError("a matrix-free operator needs the dimension n")
            n = _require_size(n, "n")
            self.a = None
            self._mul = a
        else:
            a = _require_symmetric(a, "A")
            self.a = a
            self._mul = None
            n = a.shape[0]
        p = _require_size(p, "p")
        if not 1 <= p <= n:
            raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
        self.n = n
        self.p = p
        self.shape = (self.n, self.p)
        self.known_optimum = None

    def _apply(self, x):
        return self.a @ x if self.a is not None else self._mul(x)

    def fg(self, x):
        x = np.asarray(x, dtype=float)
        ax = self._apply(x)
        return -float(np.vdot(x, ax)), -2.0 * ax


class HeterogeneousQuadraticProblem(_FgProblem):
    """F(X) = sum_i X_(i)^T A_i X_(i) with A_i = Diag(n(i-1)+1, ..., l_i, ..., ni):
    consecutive integers except the i-th entry, which holds the planted
    negative value l_i. The minimizers are the signed coordinate selections
    (+-e_1, ..., +-e_p) with optimal value sum(l)."""

    manifold = "stiefel"

    def __init__(self, n, p, l):
        n, p = _require_size(n, "n"), _require_size(p, "p")
        l = np.asarray(l, dtype=float).ravel()
        if l.size != p:
            raise ValueError(f"need {p} planted values, got {l.size}")
        if not np.all(np.isfinite(l)):
            raise ValueError("planted values l contain non-finite entries")
        if np.any(l >= 0.0):
            raise ValueError("all planted values l_i must be negative")
        if not 1 <= p <= n:
            raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
        coeff = np.empty((n, p))
        base = np.arange(1, n + 1, dtype=float)
        for i in range(p):
            coeff[:, i] = n * i + base
            coeff[i, i] = l[i]
        self.n = n
        self.p = p
        self.l = l
        self.coeff = coeff  # diagonal of A_i stored as column i
        self.shape = (self.n, self.p)
        self.known_optimum = float(l.sum())

    def fg(self, x):
        x = np.asarray(x, dtype=float)
        cx = self.coeff * x
        return float(np.vdot(cx, x)), 2.0 * cx


def heterogeneous_problem(n, p, l_mode="minus-one", seed=None):
    """Construct the heterogeneous diagonal quadratic with planted values:
    l_mode "minus-one" plants l_i = -1; "random" plants l_i = -u, u uniform
    in (0, 1] (draws are negated so every planted value is negative)."""
    p = _require_size(p, "p")
    if l_mode == "minus-one":
        l = -np.ones(p)
    elif l_mode == "random":
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 1.0, size=p)
        u = np.where(u == 0.0, 0.5, u)
        l = -u
    else:
        raise ValueError(f"unknown l_mode {l_mode!r}, expected 'minus-one' or 'random'")
    return HeterogeneousQuadraticProblem(n, p, l)


class LowRankCorrProblem(_FgProblem):
    """theta(V) = 1/2 ||H o (V^T V - C)||_F^2 over unit columns V in R^{r x n}.

    h=None selects the all-ones weight fast path. The gradient is
    G = 2 V (H o H o (V^T V - C)).
    """

    manifold = "spheres"

    def __init__(self, c, r, h=None):
        c = _require_symmetric(c, "C")
        n = c.shape[0]
        r = _require_size(r, "r")
        if not 1 <= r <= n:
            raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
        if h is not None:
            h = _require_symmetric(h, "H")
            if h.shape != c.shape:
                raise ValueError(f"H shape {h.shape} does not match C shape {c.shape}")
            if np.any(h < 0.0):
                raise ValueError("H must be elementwise nonnegative")
        self.c = c
        self.h = h
        self.hsq = h * h if h is not None else None
        self.r = r
        self.n = n
        self.shape = (self.r, self.n)
        self.known_optimum = None

    def _check(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != self.shape:
            raise ValueError(f"V must have shape {self.shape}, got {v.shape}")
        return v

    def residual_matrix(self, v):
        """V^T V - C, formed in place in the Gram buffer of _gram (one GEMM;
        AugLagSubproblem forms its V^T V the same way)."""
        v = self._check(v)
        m = _gram(v)
        m -= self.c
        return m

    def _weighted(self, m):
        """H o m, formed in the buffer of m."""
        if self.h is not None:
            m *= self.h
        return m

    def _theta_weights(self, m):
        """theta and W = H o H o m (m itself for unit weights); grad = 2 V W."""
        w = self.hsq * m if self.hsq is not None else m
        return 0.5 * float(np.vdot(m, w)), w

    def fg(self, v):
        v = self._check(v)
        f, w = self._theta_weights(self.residual_matrix(v))
        return f, 2.0 * (v @ w)

    def nlcmres(self, v) -> float:
        """The weighted residual ||H o (V^T V - C)||_F = sqrt(2 theta)."""
        return float(np.linalg.norm(self._weighted(self.residual_matrix(v))))


def ex2_matrix(n):
    """Interest-rate-style correlation target: entries
    exp(-g1 |i-j| - g2 |i-j| / max(i,j)^g3 - g4 |sqrt(i) - sqrt(j)|)
    with 1-based indices, (g1, g2, g3, g4) = (0, 0.480, 1.511, 0.186)."""
    g1, g2, g3, g4 = 0.0, 0.480, 1.511, 0.186
    i = np.arange(1, _require_size(n, "n") + 1, dtype=float)
    ii = i[:, None]
    jj = i[None, :]
    gap = np.abs(ii - jj)
    c = np.exp(
        -g1 * gap
        - g2 * gap / np.maximum(ii, jj) ** g3
        - g4 * np.abs(np.sqrt(ii) - np.sqrt(jj))
    )
    return 0.5 * (c + c.T)  # symmetric up to roundoff already; make it exact


def gen_ex2(n=500, r=5) -> LowRankCorrProblem:
    """The banded-decay correlation approximation instance (unit weights)."""
    return LowRankCorrProblem(ex2_matrix(n), r)


def ex3_matrix(n):
    """Long-range correlation target: C_ij = 0.5 + 0.5 exp(-0.05 |i-j|)."""
    i = np.arange(_require_size(n, "n"), dtype=float)
    gap = np.abs(i[:, None] - i[None, :])
    return 0.5 + 0.5 * np.exp(-0.05 * gap)


def ex3_weights(n, seed=0):
    """Symmetric weights uniform in [0.1, 10], except 200 strict-upper
    entries (mirrored) drawn from [0.01, 100]; fully seeded."""
    n = _require_size(n, "n")
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.1, 10.0, size=(n, n))
    h = np.triu(h)
    h = h + np.triu(h, 1).T
    iu, ju = np.triu_indices(n, k=1)
    count = min(200, iu.size)
    sel = rng.choice(iu.size, size=count, replace=False)
    wide = rng.uniform(0.01, 100.0, size=count)
    h[iu[sel], ju[sel]] = wide
    h[ju[sel], iu[sel]] = wide
    return h


def gen_ex3(n=500, weighted=False, seed=0, r=5) -> LowRankCorrProblem:
    """The long-range correlation approximation instance, optionally with
    the seeded random symmetric weight matrix."""
    h = ex3_weights(n, seed) if weighted else None
    return LowRankCorrProblem(ex3_matrix(n), r=r, h=h)


def _pca_columns(c, r):
    w, q = np.linalg.eigh(c)
    order = np.argsort(-w, kind="stable")[:r]
    return w[order], q[:, order]


def modified_pca_init(c, r):
    """Feasible start for the sphere-product geometry from the top-r scaled
    eigenvectors of C, each column normalized to unit length.

    When a top-r eigenvalue is nonpositive, C is first repaired by clipping
    its eigenvalues at 1e-8 and renormalizing to a unit diagonal. Zero
    columns are replaced by the first coordinate axis (with a warning).
    """
    c = _require_symmetric(c, "C")
    n = c.shape[0]
    r = _require_size(r, "r")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    w, q = _pca_columns(c, r)
    if w[-1] <= 0.0:
        wall, qall = np.linalg.eigh(c)
        wall = np.maximum(wall, 1e-8)
        repaired = (qall * wall) @ qall.T
        d = np.sqrt(np.diag(repaired))
        repaired = repaired / np.outer(d, d)
        w, q = _pca_columns(0.5 * (repaired + repaired.T), r)
        w = np.maximum(w, 1e-8)
    v = np.sqrt(w)[:, None] * q.T  # r x n: column i holds Lambda^{1/2} row i of Q_r
    norms = np.linalg.norm(v, axis=0)
    zero = norms == 0.0
    if np.any(zero):
        warnings.warn(
            f"{int(zero.sum())} zero column(s) in the PCA start; "
            "replaced by the first coordinate axis",
            stacklevel=2,
        )
        v[:, zero] = 0.0
        v[0, zero] = 1.0
        norms = np.where(zero, 1.0, norms)
    return v / norms


class FixedEntrySet:
    """Prescribed strict-lower entries (i, j, q): 1 <= j < i <= n, q in [-1, 1].

    Serialized as text lines "i j q" (1-based); blank lines and lines
    starting with '#' are ignored.
    """

    def __init__(self, rows, cols, values):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if not (rows.size == cols.size == values.size):
            raise ValueError("rows, cols, values must have equal length")
        if rows.size and (np.any(cols < 1) or np.any(cols >= rows)):
            raise ValueError("need 1 <= j < i for every entry")
        if not np.all(np.abs(values) <= 1.0):
            raise ValueError("prescribed values must lie in [-1, 1]")
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if rows.size > 1:
            dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if np.any(dup):
                k = int(np.flatnonzero(dup)[0]) + 1
                raise ValueError(f"duplicate entry ({rows[k]}, {cols[k]})")
        self.rows = rows
        self.cols = cols
        self.values = values

    def __len__(self):
        return int(self.rows.size)

    def __iter__(self):
        for i, j, q in zip(self.rows, self.cols, self.values):
            yield int(i), int(j), float(q)

    def max_index(self) -> int:
        return int(self.rows.max()) if len(self) else 0

    @classmethod
    def from_text(cls, path):
        rows, cols, values = [], [], []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 'i j q', got {line!r}")
                rows.append(int(parts[0]))
                cols.append(int(parts[1]))
                values.append(float(parts[2]))
        return cls(rows, cols, values)

    def to_text(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, j, q in self:
                fh.write(f"{i} {j} {q:.17g}\n")

    def violation(self, v) -> float:
        """Total constraint violation sum |V_i^T V_j - q_ij| over the set."""
        if len(self) == 0:
            return 0.0
        v = np.asarray(v, dtype=float)
        self._check_n(v.shape[1])
        prods = np.einsum(
            "ij,ij->j", v[:, self.rows - 1], v[:, self.cols - 1]
        )
        return float(np.sum(np.abs(prods - self.values)))

    def _check_n(self, n):
        if len(self) and self.max_index() > n:
            raise ValueError(
                f"entry index {self.max_index()} exceeds the dimension {n}"
            )


def sample_fixed_entries(n, n_e=3, seed=0, values=None):
    """Seeded index sampling: for each row i, min(n_e, n - i) distinct columns
    j > i, stored as strict-lower pairs. values=None prescribes q = 0
    everywhere; a callable values(i, j) supplies individual targets."""
    n, n_e = _require_size(n, "n"), _require_size(n_e, "n_e", least=0)
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i in range(1, n + 1):
        count = min(n_e, n - i)
        if count <= 0:
            continue
        js = rng.choice(np.arange(i + 1, n + 1), size=count, replace=False)
        for j in sorted(int(j) for j in js):
            rows.append(j)  # strict-lower storage: (larger, smaller)
            cols.append(i)
            vals.append(0.0 if values is None else float(values(i, j)))
    return FixedEntrySet(rows, cols, vals)


def load_matrix(path):
    """Load a dense symmetric matrix from MatrixMarket (.mtx/.mtx.gz), .npy,
    or whitespace text."""
    path = str(path)
    lower = path.lower()
    if lower.endswith((".mtx", ".mtx.gz", ".mm")):
        m = scipy.io.mmread(path)
        a = m.toarray() if hasattr(m, "toarray") else np.asarray(m)
    elif lower.endswith(".npy"):
        a = np.load(path)
    else:
        a = np.loadtxt(path)
    return np.asarray(a, dtype=float)

