"""Manifold primitives: feasibility measure, projections, descent directions."""

import numpy as np
import pytest

from stiefelbb import compute_d_rho, feasibility_error, random_stiefel
from stiefelbb.manifold import sym


def brute_force_feasibility(x):
    """Elementwise double loop over the entries of X^T X - I."""
    n, p = x.shape
    total = 0.0
    for a in range(p):
        for b in range(p):
            entry = 0.0
            for i in range(n):
                entry += x[i, a] * x[i, b]
            if a == b:
                entry -= 1.0
            total += entry * entry
    return total ** 0.5


class TestFeasibilityError:
    def test_identity_is_exactly_feasible(self):
        assert feasibility_error(np.eye(3)) == 0.0

    def test_scaled_first_column(self):
        x = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert feasibility_error(x) == pytest.approx(3.0, abs=1e-15)

    def test_matches_brute_force_on_random_input(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 3))
        assert feasibility_error(x) == pytest.approx(
            brute_force_feasibility(x), rel=1e-13
        )

    def test_random_orthonormal_factor_is_feasible(self):
        x = random_stiefel(40, 7, seed=3)
        assert feasibility_error(x) < 1e-14


class TestCanonicalGradient:
    def test_gradient_equal_to_point_vanishes(self):
        x = random_stiefel(6, 3, seed=0)
        assert np.linalg.norm(compute_d_rho(x, x, 0.5)) < 1e-14

    def test_orthogonal_vector_case(self):
        x = np.array([[1.0], [0.0]])
        g = np.array([[0.0], [1.0]])
        np.testing.assert_allclose(compute_d_rho(x, g, 0.5), g, atol=1e-15)

    def test_split_formula_identity(self):
        # G - X G^T X == (I - X X^T) G + X (X^T G - G^T X) for feasible X
        rng = np.random.default_rng(11)
        x = random_stiefel(5, 2, seed=11)
        g = rng.standard_normal((5, 2))
        direct = compute_d_rho(x, g, 0.5)
        alt = (g - x @ (x.T @ g)) + 2.0 * (x @ (0.5 * (x.T @ g - g.T @ x)))
        np.testing.assert_allclose(direct, alt, atol=1e-13)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_d_rho(np.eye(3), np.ones((3, 2)), 0.5)


class TestTangentProjection:
    def test_tangent_input_unchanged(self):
        rng = np.random.default_rng(2)
        x = random_stiefel(6, 3, seed=2)
        a = rng.standard_normal((3, 3))
        z = x @ (a - a.T) + (np.eye(6) - x @ x.T) @ rng.standard_normal((6, 3))
        np.testing.assert_allclose(compute_d_rho(x, z, 0.25), z, atol=1e-13)

    def test_point_itself_projects_to_zero(self):
        x = random_stiefel(6, 3, seed=4)
        assert np.linalg.norm(compute_d_rho(x, x, 0.25)) < 1e-13

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = random_stiefel(6, 3, seed=5)
        z = rng.standard_normal((6, 3))
        once = compute_d_rho(x, z, 0.25)
        twice = compute_d_rho(x, once, 0.25)
        np.testing.assert_allclose(twice, once, atol=1e-13)

    def test_result_has_skew_frame_component(self):
        rng = np.random.default_rng(6)
        x = random_stiefel(8, 3, seed=6)
        z = rng.standard_normal((8, 3))
        t = compute_d_rho(x, z, 0.25)
        assert np.linalg.norm(sym(x.T @ t)) < 1e-13


class TestComputeDRho:
    def test_stationary_point_gives_zero_for_every_rho(self):
        # at X whose columns span an invariant subspace, G = X S with S symmetric
        rng = np.random.default_rng(8)
        x = random_stiefel(7, 3, seed=8)
        s = rng.standard_normal((3, 3))
        g = x @ sym(s)
        for rho in (0.25, 0.5, 1.0, 2.0):
            assert np.linalg.norm(compute_d_rho(x, g, rho)) < 1e-13

    def test_rank_one_correction_of_canonical_gradient(self):
        # D_rho == (I - (1 - 2 rho) X X^T) (G - X G^T X) for feasible X
        rng = np.random.default_rng(12)
        x = random_stiefel(7, 3, seed=12)
        g = rng.standard_normal((7, 3))
        grad = compute_d_rho(x, g, 0.5)
        for rho in (0.25, 0.5, 1.0, 2.0):
            expected = grad - (1.0 - 2.0 * rho) * (x @ (x.T @ grad))
            np.testing.assert_allclose(compute_d_rho(x, g, rho), expected, atol=1e-12)

    def test_nonpositive_rho_rejected(self):
        x = random_stiefel(4, 2, seed=1)
        with pytest.raises(ValueError):
            compute_d_rho(x, x, 0.0)
        with pytest.raises(ValueError):
            compute_d_rho(x, x, -0.5)
        for rho in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rho"):
                compute_d_rho(x, x, rho)


class TestOptimalityResidual:
    def test_zero_at_stationary_point(self):
        x = random_stiefel(5, 2, seed=13)
        g = x @ np.diag([2.0, 3.0])
        assert np.linalg.norm(compute_d_rho(x, g, 0.25)) < 1e-13

    def test_unit_vector_case(self):
        x = np.array([[1.0], [0.0]])
        g = np.array([[0.0], [1.0]])
        assert np.linalg.norm(compute_d_rho(x, g, 0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_is_norm_of_direction(self):
        # ||D_rho||^2 == 4 rho^2 ||X^T grad||^2 + ||(I - X X^T) G||^2 for
        # feasible X, grad being D_rho at rho = 1/2
        rng = np.random.default_rng(14)
        x = random_stiefel(6, 3, seed=14)
        g = rng.standard_normal((6, 3))
        frame = np.linalg.norm(x.T @ compute_d_rho(x, g, 0.5))
        normal = np.linalg.norm(g - x @ (x.T @ g))
        assert np.linalg.norm(compute_d_rho(x, g, 0.7)) == pytest.approx(
            np.hypot(1.4 * frame, normal), rel=1e-13
        )


class TestDirectionInvariants:
    def test_frame_component_is_skew(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            n, p = int(rng.integers(2, 12)), 0
            p = int(rng.integers(1, n + 1))
            x = random_stiefel(n, p, seed=100 + trial)
            g = rng.standard_normal((n, p))
            for rho in (0.25, 0.5, 1.0, 2.0):
                d = compute_d_rho(x, g, rho)
                xtd = x.T @ d
                assert np.linalg.norm(xtd + xtd.T) <= 1e-12 * max(
                    1.0, np.linalg.norm(d)
                )

    def test_descent_inequality(self):
        # <G, D_rho> >= min(rho, 1) ||grad||^2 on random instances
        rng = np.random.default_rng(16)
        for trial in range(20):
            n, p = 9, 4
            x = random_stiefel(n, p, seed=200 + trial)
            g = rng.standard_normal((n, p))
            grad_sq = np.linalg.norm(compute_d_rho(x, g, 0.5)) ** 2
            for rho in (0.25, 0.5, 1.0, 2.0):
                slope = float(np.vdot(g, compute_d_rho(x, g, rho)))
                assert slope >= min(rho, 1.0) * grad_sq - 1e-12

    def test_norm_bound(self):
        # ||D_rho|| <= max(2 rho, 1) ||grad||
        rng = np.random.default_rng(17)
        for trial in range(20):
            x = random_stiefel(8, 3, seed=300 + trial)
            g = rng.standard_normal((8, 3))
            grad_norm = np.linalg.norm(compute_d_rho(x, g, 0.5))
            for rho in (0.25, 0.5, 1.0, 2.0):
                d_norm = np.linalg.norm(compute_d_rho(x, g, rho))
                assert d_norm <= max(2.0 * rho, 1.0) * grad_norm + 1e-12


class TestRandomStiefel:
    def test_deterministic_given_seed(self):
        a = random_stiefel(10, 4, seed=33)
        b = random_stiefel(10, 4, seed=33)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_stiefel(10, 4, seed=33)
        b = random_stiefel(10, 4, seed=34)
        assert np.linalg.norm(a - b) > 1e-3
