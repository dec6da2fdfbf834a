"""Constraint-preserving update schemes: feasibility, slopes, equivalences."""

import numpy as np
import pytest

from stiefelbb import (
    GeneralizedConstraint,
    SolverConfig,
    TraceEigenProblem,
    compute_d_rho,
    feasibility_error,
    gtau_function,
    polar_project,
    prepare_state,
    qr_positive,
    random_stiefel,
    retract_generalized,
    retract_geodesic,
    retract_gradproj,
    retract_lowrank_column,
    retract_new,
    retract_polar,
    retract_qr,
    retract_wenyin,
)
from stiefelbb.solver import _SphereEngine, _StiefelEngine


def tangent_dir(x, seed, rho=0.25):
    rng = np.random.default_rng(seed)
    return compute_d_rho(x, rng.standard_normal(x.shape), rho)


def scheme_curve(kind, x, g):
    """Build one scheme's curve from a raw gradient g."""
    d = compute_d_rho(x, g, 0.25)
    if kind == "new":
        return retract_new(x, d)
    if kind == "polar":
        return retract_polar(x, d)
    if kind == "qr":
        return retract_qr(x, d)
    if kind == "gp":
        return retract_gradproj(x, g)
    if kind == "wenyin":
        return retract_wenyin(x, d)
    if kind == "geodesic":
        return retract_geodesic(x, d)
    if kind == "lowrank":
        return retract_lowrank_column(x, g)
    raise ValueError(kind)


def solver_engine(shape, controlled=True):
    """The engine the solver runs for the "new" kind (or, uncontrolled, the
    "literal" kind), as prepare_state builds it."""
    n, p = shape
    cfg = SolverConfig(scheme="new" if controlled else "literal")
    start = random_stiefel(n, p, seed=0)
    return prepare_state(TraceEigenProblem(np.eye(n), p), start, cfg).engine


def solver_curve(engine, x, g):
    """The curve the solver follows from x with gradient g."""
    d, ctx = engine.direction(x, g)
    curve, _ = engine.curve_and_slope(x, g, d, ctx)
    return curve


STANDARD_KINDS = ("new", "polar", "qr", "gp", "wenyin", "geodesic", "lowrank")


class TestSchemeDataclass:
    """The scheme kind and g(tau) fields of SolverConfig."""

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.scheme == "new" and cfg.gtau == "linear"

    def test_unknown_kind_rejected(self):
        # the constraint, not the kind, selects the X^T H X = K geometry
        for kind in ("cayley", "generalized"):
            with pytest.raises(ValueError, match="scheme"):
                SolverConfig(scheme=kind)

    def test_unknown_gtau_rejected(self):
        with pytest.raises(ValueError, match="gtau"):
            SolverConfig(gtau="sine")

    def test_gtau_lookup(self):
        assert gtau_function("linear")(3.0) == pytest.approx(1.5)
        assert gtau_function("expdamped")(2.0) == pytest.approx(np.exp(-2.0))
        with pytest.raises(ValueError):
            gtau_function("cubic")

    def test_gtau_over_tau_bounded(self):
        taus = np.linspace(1e-8, 50.0, 200)
        for name in ("linear", "expdamped"):
            g = gtau_function(name)
            vals = np.array([abs(g(t)) / t for t in taus])
            assert vals.max() <= 0.5 + 1e-12


class TestNewScheme:
    def test_tau_zero_returns_x_exactly(self):
        x = random_stiefel(6, 3, seed=0)
        d = tangent_dir(x, 1)
        np.testing.assert_array_equal(retract_new(x, d).eval(0.0), x)

    def test_unit_circle_point(self):
        x = np.array([[1.0], [0.0]])
        g = np.array([[0.0], [1.0]])
        y = retract_new(x, g).eval(2.0)
        np.testing.assert_allclose(y, [[0.0], [-1.0]], atol=1e-15)

    def test_vector_closed_form(self):
        # for unit x orthogonal to g: y = (2/den - 1) x - (tau/den) g,
        # den = 1 + tau^2/4 ||g||^2
        rng = np.random.default_rng(2)
        x = random_stiefel(5, 1, seed=2)
        g = rng.standard_normal((5, 1))
        g = g - x * float(np.vdot(x, g))
        for tau in (0.1, 0.7, 2.0, 9.0):
            den = 1.0 + 0.25 * tau * tau * float(np.vdot(g, g))
            expected = (2.0 / den - 1.0) * x - (tau / den) * g
            np.testing.assert_allclose(retract_new(x, g).eval(tau), expected, atol=1e-14)

    def test_feasibility_and_fd_slope(self):
        x = random_stiefel(6, 2, seed=3)
        d = tangent_dir(x, 4)
        y = retract_new(x, d).eval(0.3)
        assert feasibility_error(y) <= 1e-13
        for h in (1e-4, 1e-5):
            yh = retract_new(x, d).eval(h)
            assert np.linalg.norm((yh - x) / h + d) < 10.0 * h * np.linalg.norm(d) ** 2

    def test_nontangent_direction_rejected(self):
        x = random_stiefel(6, 2, seed=5)
        with pytest.raises(ValueError):
            retract_new(x, x)  # X^T X = I is not skew

    def test_malformed_input_rejected(self):
        x = random_stiefel(6, 2, seed=5)
        d = tangent_dir(x, 6)
        bad = x.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            retract_new(bad, d)
        with pytest.raises(ValueError, match="2-dimensional"):
            retract_polar(x, d.ravel())

    def test_overflow_tau_reported_as_singular(self):
        x = random_stiefel(6, 2, seed=6)
        d = tangent_dir(x, 7)
        with pytest.raises(np.linalg.LinAlgError):
            retract_new(x, d).eval(1e200)

    def test_expdamped_variant_feasible_and_distinct(self):
        x = random_stiefel(8, 3, seed=10)
        d = tangent_dir(x, 11)
        tau = 1.2 / np.linalg.norm(d)
        y1 = retract_new(x, d, gtau="linear").eval(tau)
        y2 = retract_new(x, d, gtau="expdamped").eval(tau)
        assert feasibility_error(y2) <= 1e-13
        assert np.linalg.norm(y1 - y2) > 1e-8  # the g term genuinely differs

    def test_projection_form_for_symmetric_frame_gradient(self):
        # with X^T G symmetric the curve equals a polar projection of
        # X (I + tau X^T G - tau^2/4 G^T (I - X X^T) G) - tau G
        rng = np.random.default_rng(12)
        for trial in range(10):
            n, p = 9, 3
            x = random_stiefel(n, p, seed=20 + trial)
            a = rng.standard_normal((n, n))
            a = a + a.T
            g = -2.0 * (a @ x)
            d = compute_d_rho(x, g, 0.25)
            tau = 0.4 / max(np.linalg.norm(d), 1e-12)
            y1 = retract_new(x, d).eval(tau)
            m = (
                np.eye(p)
                + tau * (x.T @ g)
                - 0.25 * tau * tau * (g.T @ (g - x @ (x.T @ g)))
            )
            y2 = polar_project(x @ m - tau * g)
            assert np.linalg.norm(y1 - y2) <= 1e-11

    def test_no_return_to_alignment(self):
        # moving along a nonzero descent direction leaves the starting frame:
        # Y is never a recombination X O of the old columns
        for trial in range(10):
            x = random_stiefel(8, 3, seed=40 + trial)
            d = tangent_dir(x, 50 + trial)
            tau = 1.0 / np.linalg.norm(d)
            y = retract_new(x, d).eval(tau)
            o = polar_project(y.T @ x).T
            assert np.linalg.norm(y - x @ o) > 1e-8

    def test_condition_bound_on_j(self):
        # cond(J) <= (5 + ups^2)/4 with ups = tau ||D||_F, any rho and gtau
        rng = np.random.default_rng(13)
        for trial in range(60):
            n = int(rng.integers(3, 24))
            p = int(rng.integers(1, min(n, 8) + 1))
            x = random_stiefel(n, p, seed=400 + trial)
            g = rng.standard_normal((n, p))
            rho = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
            d = compute_d_rho(x, g, rho)
            dn = np.linalg.norm(d)
            if dn < 1e-12:
                continue
            tau = float(rng.uniform(0.0, 10.0)) / dn
            ups = tau * dn
            for name in ("linear", "expdamped"):
                gf = gtau_function(name)
                xtd = x.T @ d
                w = x @ xtd - d
                j = np.eye(p) + 0.25 * tau * tau * (w.T @ w) + gf(tau) * xtd
                assert np.linalg.cond(j) <= (5.0 + ups * ups) / 4.0 * (1.0 + 1e-10)


class TestControlledVariant:
    def test_matches_plain_variant_at_feasible_point(self):
        rng = np.random.default_rng(14)
        x = random_stiefel(10, 4, seed=14)
        g = rng.standard_normal((10, 4))
        d = compute_d_rho(x, g, 0.25)
        tau = 0.8 / np.linalg.norm(d)
        ya = solver_curve(solver_engine((10, 4)), x, g).eval(tau)
        yb = retract_new(x, d).eval(tau)
        assert np.linalg.norm(ya - yb) <= 1e-14 * max(1.0, np.linalg.norm(yb))

    def test_does_not_amplify_injected_error(self):
        rng = np.random.default_rng(15)
        x = random_stiefel(12, 4, seed=15)
        s = rng.standard_normal((4, 4))
        s = s + s.T
        s *= 1e-8 / np.linalg.norm(s)
        xp = x @ (np.eye(4) + 0.5 * s)  # feasibility error ~ 1e-8
        fin = feasibility_error(xp)
        assert 1e-9 < fin < 1e-7
        engine = solver_engine((12, 4))
        for tau in (1e-8, 1e-3, 0.1, 1.0, 10.0, 1e4):
            g = rng.standard_normal((12, 4))
            y = solver_curve(engine, xp, g).eval(tau)
            assert feasibility_error(y) <= fin * (1.0 + 1e-6)

    def test_rank_deficient_point_rejected(self):
        x = np.zeros((5, 2))
        x[:, 0] = x[:, 1] = np.array([1.0, 0, 0, 0, 0])
        with pytest.raises(np.linalg.LinAlgError):
            solver_curve(solver_engine((5, 2)), x, np.ones((5, 2)))

    def test_descent_walk_drift_contrast(self):
        # gradient walk on a quadratic trace objective: the drift-safe variant
        # holds machine-precision feasibility while the literal formulas let
        # the error feed back through J and grow by orders of magnitude
        def walk(controlled, steps=400, n=30, p=5, seed=42):
            a = (
                np.diag(2.0 * np.ones(n))
                - np.diag(np.ones(n - 1), 1)
                - np.diag(np.ones(n - 1), -1)
            )
            engine = solver_engine((n, p), controlled)
            x = random_stiefel(n, p, seed=seed)
            worst = feasibility_error(x)
            for _ in range(steps):
                g = -2.0 * (a @ x)
                tau = 1.0 / np.linalg.norm(compute_d_rho(x, g, 0.25))
                try:
                    x = solver_curve(engine, x, g).eval(tau)
                except (ValueError, np.linalg.LinAlgError):
                    break  # guard tripped: the iterate has left the manifold
                worst = max(worst, feasibility_error(x))
            return worst

        drift_controlled = walk(True)
        drift_literal = walk(False)
        assert drift_controlled <= 1e-12
        assert drift_literal > 100.0 * drift_controlled


class TestPolarScheme:
    def test_tau_zero(self):
        x = random_stiefel(6, 3, seed=16)
        y = retract_polar(x, tangent_dir(x, 17)).eval(0.0)
        np.testing.assert_allclose(y, x, atol=1e-14)

    def test_unit_vector_normalization(self):
        x = random_stiefel(7, 1, seed=18)
        d = tangent_dir(x, 19)
        tau = 0.9
        expected = (x - tau * d) / np.linalg.norm(x - tau * d)
        np.testing.assert_allclose(retract_polar(x, d).eval(tau), expected, atol=1e-14)

    def test_matches_svd_projection(self):
        x = random_stiefel(9, 4, seed=20)
        d = tangent_dir(x, 21)
        tau = 0.5 / np.linalg.norm(d)
        ya = retract_polar(x, d).eval(tau)
        yb = polar_project(x - tau * d)
        np.testing.assert_allclose(ya, yb, atol=1e-12)


class TestQrScheme:
    def test_tau_zero(self):
        x = random_stiefel(6, 3, seed=22)
        np.testing.assert_allclose(retract_qr(x, tangent_dir(x, 23)).eval(0.0), x, atol=1e-13)

    def test_p1_matches_polar(self):
        x = random_stiefel(7, 1, seed=24)
        d = tangent_dir(x, 25)
        np.testing.assert_allclose(
            retract_qr(x, d).eval(0.7), retract_polar(x, d).eval(0.7), atol=1e-13
        )

    def test_positive_diagonal_convention(self):
        rng = np.random.default_rng(26)
        a = rng.standard_normal((8, 3))
        q, r = qr_positive(a)
        assert np.all(np.diag(r) > 0)
        np.testing.assert_allclose(q @ r, a, atol=1e-13)
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-13)

    def test_qr_rank_deficient_rejected(self):
        a = np.ones((5, 2))
        with pytest.raises(np.linalg.LinAlgError):
            qr_positive(a)


class TestGradProjScheme:
    def test_tau_zero(self):
        x = random_stiefel(6, 3, seed=27)
        rng = np.random.default_rng(27)
        np.testing.assert_allclose(
            retract_gradproj(x, rng.standard_normal((6, 3))).eval(0.0), x, atol=1e-13
        )

    def test_shrinking_along_itself_projects_back(self):
        x = random_stiefel(6, 3, seed=28)
        for tau in (0.1, 0.5, 0.9):
            np.testing.assert_allclose(retract_gradproj(x, x).eval(tau), x, atol=1e-13)

    def test_rank_deficiency_rejected(self):
        x = random_stiefel(6, 2, seed=29)
        with pytest.raises(np.linalg.LinAlgError):
            retract_gradproj(x, x).eval(1.0)  # X - X = 0 has no unique projection

    def test_initial_velocity_is_tangent_projection(self):
        rng = np.random.default_rng(30)
        x = random_stiefel(8, 3, seed=30)
        g = rng.standard_normal((8, 3))
        t = compute_d_rho(x, g, 0.25)
        for h in (1e-4, 1e-5):
            yh = retract_gradproj(x, g).eval(h)
            assert np.linalg.norm((yh - x) / h + t) < 20.0 * h * (1 + np.linalg.norm(g)) ** 2


class TestWenYinScheme:
    def test_tau_zero(self):
        x = random_stiefel(6, 3, seed=31)
        y = retract_wenyin(x, tangent_dir(x, 32)).eval(0.0)
        np.testing.assert_allclose(y, x, atol=1e-14)

    def test_equals_new_scheme(self):
        rng = np.random.default_rng(33)
        for trial in range(30):
            n = int(rng.integers(3, 16))
            p = int(rng.integers(1, min(n, 5) + 1))
            x = random_stiefel(n, p, seed=600 + trial)
            d = compute_d_rho(x, rng.standard_normal((n, p)), 0.25)
            dn = np.linalg.norm(d)
            if dn < 1e-12:
                continue
            tau = float(rng.uniform(0.05, 2.0)) / dn
            ya = retract_wenyin(x, d).eval(tau)
            yb = retract_new(x, d, "linear").eval(tau)
            assert np.linalg.norm(ya - yb) <= 1e-12

    def test_p1_closed_form(self):
        x = random_stiefel(6, 1, seed=34)
        d = tangent_dir(x, 35)
        tau = 1.3
        den = 1.0 + 0.25 * tau * tau * float(np.vdot(d, d))
        expected = (2.0 / den - 1.0) * x - (tau / den) * d
        np.testing.assert_allclose(retract_wenyin(x, d).eval(tau), expected, atol=1e-13)


class TestGeodesicScheme:
    def test_tau_zero(self):
        x = random_stiefel(6, 3, seed=36)
        y = retract_geodesic(x, tangent_dir(x, 37)).eval(0.0)
        np.testing.assert_allclose(y, x, atol=1e-14)

    def test_great_circle(self):
        x = np.array([[1.0], [0.0]])
        d = np.array([[0.0], [1.0]])
        y = retract_geodesic(x, d).eval(np.pi / 2)
        np.testing.assert_allclose(y, [[0.0], [-1.0]], atol=1e-14)
        for tau in (0.3, 1.0, 2.5):
            np.testing.assert_allclose(
                retract_geodesic(x, d).eval(tau),
                [[np.cos(tau)], [-np.sin(tau)]],
                atol=1e-13,
            )

    def test_feasibility_and_fd_slope(self):
        x = random_stiefel(9, 3, seed=38)
        d = tangent_dir(x, 39)
        assert feasibility_error(retract_geodesic(x, d).eval(0.7)) <= 1e-13
        for h in (1e-4, 1e-5):
            yh = retract_geodesic(x, d).eval(h)
            assert np.linalg.norm((yh - x) / h + d) < 10.0 * h * np.linalg.norm(d) ** 2


class TestLowRankScheme:
    def test_tau_zero(self):
        rng = np.random.default_rng(40)
        x = random_stiefel(6, 3, seed=40)
        np.testing.assert_allclose(
            retract_lowrank_column(x, rng.standard_normal((6, 3))).eval(0.0), x, atol=1e-13
        )

    def test_matches_dense_solve_on_materialized_direction(self):
        rng = np.random.default_rng(41)
        for trial in range(20):
            x = random_stiefel(7, 3, seed=700 + trial)
            g = rng.standard_normal((7, 3))
            curve = retract_lowrank_column(x, g)
            d = curve.direction()
            dn = np.linalg.norm(d)
            if dn < 1e-12:
                continue
            tau = float(rng.uniform(0.05, 2.0)) / dn
            ya = curve.eval(tau)
            yb = retract_new(x, d, "linear").eval(tau)
            assert np.linalg.norm(ya - yb) <= 1e-12

    def test_descent_rate_against_full_gradient(self):
        # <G, D^(q)> >= (1/p) <G, grad> >= (1/2p) ||grad||^2
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(2, 20))
            p = int(rng.integers(1, min(n, 6) + 1))
            x = random_stiefel(n, p, seed=800 + trial)
            g = rng.standard_normal((n, p))
            d = retract_lowrank_column(x, g).direction()
            grad = compute_d_rho(x, g, 0.5)
            inner = float(np.vdot(g, d))
            full = float(np.vdot(g, grad))
            gsq = float(np.vdot(grad, grad))
            assert inner >= full / p - 1e-12
            assert inner >= gsq / (2.0 * p) - 1e-12

    def test_argmax_tie_takes_smallest_index(self):
        x = np.zeros((4, 2))
        x[0, 0] = x[1, 1] = 1.0
        g = np.zeros((4, 2))
        g[2, 0] = g[3, 1] = 1.0  # both columns give identical descent
        assert retract_lowrank_column(x, g).q == 0

    def test_feasibility_along_curve(self):
        rng = np.random.default_rng(43)
        x = random_stiefel(10, 4, seed=43)
        g = rng.standard_normal((10, 4))
        for tau in (0.2, 1.0, 4.0):
            assert feasibility_error(retract_lowrank_column(x, g).eval(tau)) <= 1e-13


class TestGeneralizedScheme:
    @staticmethod
    def make_instance(n, p, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n, n))
        h = b @ b.T + 0.5 * np.eye(n)
        x0 = rng.standard_normal((n, p))
        k = x0.T @ h @ x0
        k = 0.5 * (k + k.T)
        return GeneralizedConstraint(h, k), x0, rng

    def test_tau_zero(self):
        gc, x0, rng = self.make_instance(7, 3, 44)
        np.testing.assert_allclose(
            retract_generalized(x0, rng.standard_normal((7, 3)), gc).eval(0.0), x0, atol=1e-12
        )

    def test_identity_data_reduces_to_new_scheme(self):
        rng = np.random.default_rng(45)
        x = random_stiefel(8, 3, seed=45)
        g = rng.standard_normal((8, 3))
        gc = GeneralizedConstraint(np.eye(8), np.eye(3))
        d = compute_d_rho(x, g, 0.5)
        tau = 0.3 / np.linalg.norm(d)
        ya = retract_generalized(x, g, gc).eval(tau)
        yb = retract_new(x, d, "linear").eval(tau)
        assert np.linalg.norm(ya - yb) <= 1e-12

    def test_constraint_preserved_along_random_steps(self):
        rng = np.random.default_rng(46)
        for trial in range(50):
            n = int(rng.integers(4, 16))
            p = int(rng.integers(1, min(n, 5) + 1))
            gc, x0, _ = self.make_instance(n, p, 900 + trial)
            g = rng.standard_normal((n, p))
            curve = retract_generalized(x0, g, gc)
            dn = np.linalg.norm(curve.d)
            if dn < 1e-10:
                continue
            tau = float(rng.uniform(0.05, 1.0)) / dn
            y = curve.eval(tau)
            assert gc.feasibility(y) <= 1e-11 * max(1.0, np.linalg.norm(gc.k))

    def test_condition_bound_with_constraint_factor(self):
        rng = np.random.default_rng(47)
        for trial in range(30):
            n = int(rng.integers(4, 14))
            p = int(rng.integers(1, min(n, 5) + 1))
            gc, x0, _ = self.make_instance(n, p, 950 + trial)
            g = rng.standard_normal((n, p))
            cur = retract_generalized(x0, g, gc)
            hd = np.sqrt(max(np.trace(cur.d.T @ gc.h @ cur.d), 0.0))
            if hd < 1e-10:
                continue
            scale = hd / np.sqrt(np.linalg.norm(gc.k, 2))
            tau = float(rng.uniform(0.0, 5.0)) / scale
            ups = tau * scale
            j = cur.k + 0.25 * tau * tau * cur.wthw + cur.g(tau) * cur.xthd
            bound = (5.0 + ups * ups) / 4.0 * np.linalg.cond(gc.k)
            assert np.linalg.cond(j) <= bound * (1.0 + 1e-10)

    def test_infeasible_point_rejected(self):
        gc, x0, rng = self.make_instance(6, 2, 48)
        with pytest.raises(ValueError):
            retract_generalized(x0 * 1.5, rng.standard_normal((6, 2)), gc)

    def test_constraint_data_validation(self):
        rng = np.random.default_rng(49)
        with pytest.raises(ValueError):
            GeneralizedConstraint(rng.standard_normal((5, 5)), np.eye(2))  # H not symmetric
        with pytest.raises(ValueError):
            GeneralizedConstraint(np.eye(5), -np.eye(2))  # K not positive definite
        with pytest.raises(ValueError):
            GeneralizedConstraint(np.ones((4, 3)), np.eye(2))  # H not square


class TestInverseCurves:
    """The new and generalized curves evaluate Y through one explicit p x p
    inverse; they must match the literal transposed solve and keep reporting
    a singular or overflowing J."""

    @staticmethod
    def curves():
        x = random_stiefel(9, 3, seed=60)
        new = retract_new(x, tangent_dir(x, 61))
        gc, x0, rng = TestGeneralizedScheme.make_instance(9, 3, 62)
        gen = retract_generalized(x0, rng.standard_normal((9, 3)), gc)
        return [(new, np.linalg.norm(new.w)), (gen, np.linalg.norm(gen.d))]

    def test_matches_literal_solve(self):
        for curve, scale in self.curves():
            for t in np.geomspace(1e-3, 1e2, 11):
                tau = t / scale
                j = curve.k + 0.25 * tau * tau * curve.wthw + curve.g(tau) * curve.xthd
                b = 2.0 * curve.x + tau * curve.w
                ref = np.linalg.solve(j.T, b.T).T @ curve.k - curve.x
                err = np.linalg.norm(curve.eval(tau) - ref)
                assert err <= 1e-13 * max(1.0, np.linalg.norm(ref)), (curve.k, t)

    @staticmethod
    def sphere_curve():
        rng = np.random.default_rng(63)
        v = rng.standard_normal((3, 9))
        v /= np.linalg.norm(v, axis=0)
        g = rng.standard_normal((3, 9))
        engine = _SphereEngine()
        d, vg = engine.direction(v, g)
        return engine.curve_and_slope(v, g, d, vg)[0]

    @pytest.mark.parametrize("tau", [np.nan, 1e200], ids=["nan", "overflow"])
    def test_bad_tau_reported_as_singular(self, tau):
        for curve in [c for c, _ in self.curves()] + [self.sphere_curve()]:
            with pytest.raises(np.linalg.LinAlgError):
                curve.eval(tau)


class TestReevaluate:
    """One curve object serves a whole backtracking sequence: evaluating it
    at a new tau matches a freshly built curve, whatever was evaluated before."""

    def test_same_tau_identical(self):
        x = random_stiefel(8, 3, seed=50)
        curve = retract_new(x, tangent_dir(x, 51))
        y = curve.eval(0.4)
        np.testing.assert_allclose(curve.eval(0.4), y, atol=1e-14)

    def test_backtracking_sequence_matches_fresh(self):
        x = random_stiefel(8, 3, seed=52)
        d = tangent_dir(x, 53)
        tau = 0.9
        curve = retract_new(x, d)
        curve.eval(tau)
        for t in (tau / 2, tau / 4, tau / 8):
            np.testing.assert_allclose(
                curve.eval(t), retract_new(x, d).eval(t), atol=1e-13
            )

    def test_every_scheme_supports_reuse(self):
        rng = np.random.default_rng(54)
        x = random_stiefel(8, 3, seed=54)
        g = rng.standard_normal((8, 3))
        for kind in STANDARD_KINDS:
            curve = scheme_curve(kind, x, g)
            curve.eval(0.6)
            again = curve.eval(0.3)
            fresh = scheme_curve(kind, x, g).eval(0.3)
            np.testing.assert_allclose(again, fresh, atol=1e-13, err_msg=kind)


class TestCrossSchemeProperties:
    def test_feasibility_sweep(self):
        # every scheme keeps ||Y^T Y - I|| at roundoff for moderate tau ||E||
        rng = np.random.default_rng(55)
        for trial in range(25):
            n = int(rng.integers(2, 32))
            p = int(rng.integers(1, min(n, 8) + 1))
            x = random_stiefel(n, p, seed=1100 + trial)
            g = rng.standard_normal((n, p))
            d = compute_d_rho(x, g, 0.25)
            dn = np.linalg.norm(d)
            if dn < 1e-12:
                continue
            tau = float(rng.uniform(0.0, 10.0)) / dn
            for kind in STANDARD_KINDS:
                y = scheme_curve(kind, x, g).eval(tau)
                assert feasibility_error(y) <= 1e-12, (kind, trial)

    def test_first_order_agreement_all_schemes(self):
        # (Y(h) - X)/h -> -E with an O(h) error that decays linearly
        rng = np.random.default_rng(56)
        x = random_stiefel(10, 3, seed=56)
        g = rng.standard_normal((10, 3))
        d = compute_d_rho(x, g, 0.25)
        velocities = {
            "new": d,
            "polar": d,
            "qr": d,
            "gp": compute_d_rho(x, g, 0.25),
            "wenyin": d,
            "geodesic": d,
            "lowrank": retract_lowrank_column(x, g).direction(),
        }
        hs = (1e-3, 1e-4, 1e-5)
        for kind in STANDARD_KINDS:
            e = velocities[kind]
            errs = [
                np.linalg.norm((scheme_curve(kind, x, g).eval(h) - x) / h + e)
                for h in hs
            ]
            # each tenfold decrease in h cuts the error by at least ~5x
            assert errs[1] <= errs[0] / 5.0, kind
            assert errs[2] <= errs[1] / 5.0, kind


BUILDERS = {
    "new": retract_new,
    "polar": retract_polar,
    "qr": retract_qr,
    "gradproj": retract_gradproj,
    "wenyin": retract_wenyin,
    "geodesic": retract_geodesic,
    "lowrank_column": retract_lowrank_column,
    "generalized": lambda x, d: retract_generalized(
        x, d, GeneralizedConstraint(np.eye(x.shape[0]), np.eye(x.shape[1]))
    ),
}


class TestBuilderInputs:
    @pytest.mark.parametrize("name", BUILDERS)
    @pytest.mark.parametrize("shape", [(1, 3), (8, 2)], ids=["rows", "cols"])
    def test_direction_of_another_shape_rejected(self, name, shape):
        x = random_stiefel(8, 3, seed=70)
        d = np.random.default_rng(71).standard_normal(shape)
        with pytest.raises(ValueError, match="shape mismatch"):
            BUILDERS[name](x, d)

    @pytest.mark.parametrize("kind", ["gp", "lowrank"])
    def test_engine_slope_is_the_builder_curve_slope(self, kind):
        # the solver's slope of a curve built from G is the curve's own
        # -<G, E>, whether the engine or the public builder forms X^T G
        x = random_stiefel(9, 3, seed=72)
        g = np.asfortranarray(np.random.default_rng(73).standard_normal((9, 3)))
        engine = _StiefelEngine(SolverConfig(scheme=kind))
        d, xtg = engine.direction(x, g)
        _, slope = engine.curve_and_slope(x, g, d, xtg)
        assert slope == -scheme_curve(kind, x, g).slope_inner
        assert slope < 0.0
