"""Tests for the bundled objectives, generators, and data helpers."""

import numpy as np
import pytest
import scipy.io

from stiefelbb import (
    FixedEntrySet,
    HeterogeneousQuadraticProblem,
    LowRankCorrProblem,
    TraceEigenProblem,
    ex2_matrix,
    ex3_matrix,
    ex3_weights,
    gen_ex2,
    gen_ex3,
    heterogeneous_problem,
    load_matrix,
    modified_pca_init,
    random_stiefel,
    sample_fixed_entries,
)
from stiefelbb.problems import _gram


def fd_gradient_check(problem, x, seed, n_dirs=5, h=1e-6, tol=1e-5):
    """Central-difference check of <grad, Z> along random directions."""
    rng = np.random.default_rng(seed)
    f, g = problem.fg(x)
    for _ in range(n_dirs):
        z = rng.standard_normal(x.shape)
        z /= np.linalg.norm(z)
        fd = (problem.value(x + h * z) - problem.value(x - h * z)) / (2.0 * h)
        assert abs(float(np.vdot(g, z)) - fd) <= tol * max(1.0, abs(fd))


class TestTraceEigen:
    def test_hand_value_and_gradient(self):
        a = np.diag([4.0, 3.0, 2.0, 1.0])
        prob = TraceEigenProblem(a, 2)
        x = np.eye(4)[:, :2]
        f, g = prob.fg(x)
        assert f == -7.0
        assert np.array_equal(g, -2.0 * a @ x)
        assert prob.value(x) == f

    def test_metadata(self):
        prob = TraceEigenProblem(np.eye(5), 2)
        assert prob.shape == (5, 2)
        assert prob.manifold == "stiefel"
        assert prob.known_optimum is None

    def test_matrix_free_route_matches_dense(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 7))
        a = a + a.T
        dense = TraceEigenProblem(a, 3)
        free = TraceEigenProblem(lambda x: a @ x, 3, n=7)
        x = random_stiefel(7, 3, seed=1)
        assert free.value(x) == pytest.approx(dense.value(x), rel=1e-15)
        fd, gd = dense.fg(x)
        ff, gf = free.fg(x)
        assert ff == pytest.approx(fd, rel=1e-15)
        np.testing.assert_allclose(gf, gd, rtol=1e-15)

    def test_matrix_free_needs_n(self):
        with pytest.raises(ValueError):
            TraceEigenProblem(lambda x: x, 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TraceEigenProblem(np.arange(6.0).reshape(2, 3), 1)
        a = np.eye(4)
        a[0, 1] = 0.5  # not symmetric
        with pytest.raises(ValueError):
            TraceEigenProblem(a, 2)
        with pytest.raises(ValueError):
            TraceEigenProblem(np.eye(4), 5)
        with pytest.raises(ValueError):
            TraceEigenProblem(np.eye(4), 0)

    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8))
        a = a + a.T
        prob = TraceEigenProblem(a, 3)
        fd_gradient_check(prob, random_stiefel(8, 3, seed=6), seed=7)


class TestHeterogeneousQuadratic:
    def test_hand_example(self):
        # n=3, p=1, l=(-1,): A_1 = Diag(-1, 2, 3); at x = e_2 the value is 2
        prob = HeterogeneousQuadraticProblem(3, 1, [-1.0])
        x = np.array([[0.0], [1.0], [0.0]])
        f, g = prob.fg(x)
        assert f == 2.0
        assert np.array_equal(g, np.array([[0.0], [4.0], [0.0]]))
        assert prob.known_optimum == -1.0

    def test_value_against_materialized_diagonals(self):
        prob = HeterogeneousQuadraticProblem(6, 3, [-0.5, -1.0, -2.0])
        x = random_stiefel(6, 3, seed=8)
        total = 0.0
        for i in range(3):
            a_i = np.diag(prob.coeff[:, i])
            total += float(x[:, i] @ a_i @ x[:, i])
        assert prob.value(x) == pytest.approx(total, rel=1e-14)

    def test_coordinate_selections_attain_known_optimum(self):
        l = np.array([-1.0, -0.5])
        prob = HeterogeneousQuadraticProblem(5, 2, l)
        x = np.zeros((5, 2))
        x[0, 0] = 1.0
        x[1, 1] = -1.0  # signs do not matter for a quadratic
        assert prob.value(x) == pytest.approx(prob.known_optimum, abs=0)

    def test_brute_force_minimum_over_coordinate_pairs(self):
        # among all (e_i, e_j) selections the planted pair is strictly best
        l = np.array([-1.0, -0.5])
        prob = HeterogeneousQuadraticProblem(5, 2, l)
        best, best_idx = np.inf, None
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                x = np.zeros((5, 2))
                x[i, 0] = 1.0
                x[j, 1] = 1.0
                v = prob.value(x)
                if v < best:
                    best, best_idx = v, (i, j)
        assert best == pytest.approx(l.sum(), abs=0)
        assert best_idx == (0, 1)

    def test_random_points_never_beat_optimum(self):
        prob = heterogeneous_problem(20, 4, l_mode="random", seed=9)
        for seed in range(10):
            x = random_stiefel(20, 4, seed=seed)
            assert prob.value(x) >= prob.known_optimum - 1e-12

    def test_generator_modes(self):
        prob = heterogeneous_problem(10, 3)
        assert np.array_equal(prob.l, -np.ones(3))
        ra = heterogeneous_problem(10, 3, l_mode="random", seed=11)
        rb = heterogeneous_problem(10, 3, l_mode="random", seed=11)
        assert np.array_equal(ra.l, rb.l)
        assert np.all(ra.l < 0.0)
        with pytest.raises(ValueError):
            heterogeneous_problem(10, 3, l_mode="bogus")

    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneousQuadraticProblem(5, 2, [-1.0])  # wrong length
        with pytest.raises(ValueError):
            HeterogeneousQuadraticProblem(5, 2, [-1.0, 0.0])  # nonnegative
        with pytest.raises(ValueError):
            HeterogeneousQuadraticProblem(2, 3, [-1.0, -1.0, -1.0])
        for bad in (np.nan, -np.inf):  # NaN passes the sign test
            with pytest.raises(ValueError, match="planted values l contain non-finite"):
                HeterogeneousQuadraticProblem(10, 2, [bad, -1.0])

    def test_finite_differences(self):
        prob = heterogeneous_problem(7, 3, l_mode="random", seed=13)
        fd_gradient_check(prob, random_stiefel(7, 3, seed=14), seed=15)


class TestLowRankCorr:
    def test_hand_example_unweighted(self):
        # V = [1 1], C = I2: M = [[0,1],[1,0]], theta = 1, G = 2 V M = [2 2]
        prob = LowRankCorrProblem(np.eye(2), 1)
        v = np.array([[1.0, 1.0]])
        f, g = prob.fg(v)
        assert f == 1.0
        assert np.array_equal(g, np.array([[2.0, 2.0]]))
        assert prob.nlcmres(v) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_hand_example_weighted(self):
        h = np.array([[1.0, 2.0], [2.0, 1.0]])
        prob = LowRankCorrProblem(np.eye(2), 1, h)
        v = np.array([[1.0, 1.0]])
        f, g = prob.fg(v)
        assert f == 4.0  # 0.5 * ((2*1)^2 + (2*1)^2)
        assert np.array_equal(g, np.array([[8.0, 8.0]]))

    def test_residual_identity(self):
        prob = gen_ex3(30, weighted=True, seed=16, r=4)
        rng = np.random.default_rng(17)
        v = rng.standard_normal((4, 30))
        v /= np.linalg.norm(v, axis=0)
        assert prob.nlcmres(v) == pytest.approx(
            np.sqrt(2.0 * prob.value(v)), rel=1e-12
        )
        m = prob.residual_matrix(v)
        # the program forms V^T V by GEMM, which differs from v.T @ v (syrk)
        # in the last bits at this size
        np.testing.assert_allclose(m, _gram(v) - prob.c, rtol=0, atol=0)

    def test_metadata_and_shape(self):
        prob = gen_ex2(40, 5)
        assert prob.shape == (5, 40)
        assert prob.manifold == "spheres"
        assert prob.h is None
        wprob = gen_ex3(40, weighted=True, r=3)
        assert wprob.h is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            LowRankCorrProblem(np.eye(3), 4)
        h = np.eye(3)
        h[0, 1] = h[1, 0] = -1.0
        with pytest.raises(ValueError):
            LowRankCorrProblem(np.eye(3), 2, h)
        with pytest.raises(ValueError):
            LowRankCorrProblem(np.eye(3), 2, np.eye(4))
        prob = LowRankCorrProblem(np.eye(3), 2)
        with pytest.raises(ValueError):
            prob.value(np.zeros((3, 3)))

    def test_non_finite_matrices_rejected(self):
        for bad in (np.nan, np.inf):
            m = np.eye(3)
            m[0, 1] = m[1, 0] = bad
            with pytest.raises(ValueError, match="C contains non-finite"):
                LowRankCorrProblem(m, 2)
            with pytest.raises(ValueError, match="H contains non-finite"):
                LowRankCorrProblem(np.eye(3), 2, m)
            with pytest.raises(ValueError, match="A contains non-finite"):
                TraceEigenProblem(m, 2)

    def test_finite_differences_both_weightings(self):
        for weighted, seed in ((False, 18), (True, 19)):
            prob = gen_ex3(12, weighted=weighted, seed=20, r=3)
            rng = np.random.default_rng(seed)
            v = rng.standard_normal((3, 12))
            v /= np.linalg.norm(v, axis=0)
            fd_gradient_check(prob, v, seed=seed + 1)


class TestSizes:
    # sizes follow the solver's rule for budgets: an int or a numpy integer
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: TraceEigenProblem(np.eye(4), 2.5), "p"),
            (lambda: TraceEigenProblem(np.eye(4), 2.0), "p"),
            (lambda: TraceEigenProblem(lambda x: x, 2, n=4.0), "n"),
            (lambda: HeterogeneousQuadraticProblem(10.0, 2, [-1.0, -1.0]), "n"),
            (lambda: HeterogeneousQuadraticProblem(10, 2.0, [-1.0, -1.0]), "p"),
            (lambda: heterogeneous_problem(10, 2.0), "p"),
            (lambda: heterogeneous_problem(10, 2.5, "random", seed=0), "p"),
            (lambda: LowRankCorrProblem(np.eye(3), 2.5), "r"),
            (lambda: modified_pca_init(np.eye(3), 2.0), "r"),
            (lambda: ex2_matrix(2.5), "n"),
            (lambda: gen_ex3(2.5), "n"),
            (lambda: ex3_weights(20.0), "n"),
            (lambda: sample_fixed_entries(20.0), "n"),
            (lambda: sample_fixed_entries(20, 2.5), "n_e"),
        ],
        ids=["eigen-p", "eigen-p-float-int", "eigen-free-n", "balogh-n", "balogh-p",
             "generator-p", "generator-random-p", "corr-r", "pca-r", "ex2-n", "ex3-n",
             "weights-n", "pins-n", "pins-n_e"],
    )
    def test_non_integer_size_rejected(self, build, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            build()

    @pytest.mark.parametrize(
        "build, name, least",
        [
            (lambda: ex2_matrix(0), "n", 1),
            (lambda: ex3_matrix(-2), "n", 1),
            (lambda: ex3_weights(0), "n", 1),
            (lambda: sample_fixed_entries(0), "n", 1),
            (lambda: sample_fixed_entries(10, -3), "n_e", 0),
            (lambda: heterogeneous_problem(10, np.int64(0)), "p", 1),
            (lambda: LowRankCorrProblem(np.eye(3), 0), "r", 1),
        ],
        ids=["ex2-n", "ex3-n", "weights-n", "pins-n", "pins-n_e", "generator-p", "corr-r"],
    )
    def test_too_small_size_rejected(self, build, name, least):
        # the first five returned empty results before sizes had a floor
        with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got -?\\d+$"):
            build()

    def test_zero_pins_per_row_accepted(self):
        assert len(sample_fixed_entries(10, 0).rows) == 0

    def test_numpy_integer_sizes_accepted(self):
        balogh = heterogeneous_problem(np.int64(10), np.int32(2))
        corr = LowRankCorrProblem(np.eye(3), np.int64(2))
        eigen = TraceEigenProblem(lambda x: x, np.int64(2), n=np.int64(4))
        assert (balogh.shape, corr.shape, eigen.shape) == ((10, 2), (2, 3), (4, 2))
        assert all(type(v) is int for v in (*balogh.shape, *corr.shape, *eigen.shape))
        assert modified_pca_init(ex3_matrix(3), np.int64(2)).shape == (2, 3)


class TestCorrelationTargets:
    def test_ex2_entry_formula(self):
        c = ex2_matrix(6)
        # independent recomputation for (i, j) = (1, 2), 1-based
        oracle = np.exp(-0.480 * 1.0 / 2.0**1.511 - 0.186 * abs(1.0 - np.sqrt(2.0)))
        assert c[0, 1] == pytest.approx(oracle, rel=1e-15)
        assert np.array_equal(c, c.T)
        assert np.array_equal(np.diag(c), np.ones(6))
        assert np.all(c > 0.0) and np.all(c <= 1.0)

    def test_ex2_decay_with_distance(self):
        c = ex2_matrix(20)
        assert c[0, 1] > c[0, 2] > c[0, 5] > c[0, 19]

    def test_ex3_entry_formula(self):
        c = ex3_matrix(5)
        assert c[0, 3] == pytest.approx(0.5 + 0.5 * np.exp(-0.15), rel=1e-15)
        assert np.array_equal(np.diag(c), np.ones(5))
        assert np.array_equal(c, c.T)
        assert np.all(c > 0.5)

    def test_ex3_weights_structure(self):
        h = ex3_weights(50, seed=1)
        assert np.array_equal(h, h.T)
        assert h.min() >= 0.01 and h.max() <= 100.0
        outside = np.count_nonzero((h < 0.1) | (h > 10.0))
        assert 0 < outside <= 400  # at most 200 mirrored wide pairs
        assert np.array_equal(h, ex3_weights(50, seed=1))
        assert not np.array_equal(h, ex3_weights(50, seed=2))


class TestModifiedPcaInit:
    def test_unit_columns_and_determinism(self):
        c = ex3_matrix(60)
        v = modified_pca_init(c, 5)
        assert v.shape == (5, 60)
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-13)
        assert np.array_equal(v, modified_pca_init(c, 5))

    def test_all_ones_rank_one_target(self):
        # C = ones: the top eigenvector is constant, so for r = 1 every
        # normalized column is +-1 with a consistent sign
        v = modified_pca_init(np.ones((6, 6)), 1)
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-13)
        assert np.all(v == v[0, 0])

    def test_nonpositive_spectrum_triggers_repair(self):
        # rank-one C has zero eigenvalues, so r = 2 walks the repair branch
        v = modified_pca_init(np.ones((6, 6)), 2)
        assert np.all(np.isfinite(v))
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)

    def test_zero_column_fallback_warns(self):
        c = np.eye(3)
        c[0, 1] = c[1, 0] = 1.0  # top eigenvector is (1,1,0)/sqrt(2)
        with pytest.warns(UserWarning, match="zero column"):
            v = modified_pca_init(c, 1)
        assert v.shape == (1, 3)
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-13)

    def test_table_residual_for_long_range_target(self):
        # frozen reference: the r = 5 PCA start on the n = 500 long-range
        # target has weighted-free residual 1.3500e+02
        prob = gen_ex3(500, weighted=False, r=5)
        v0 = modified_pca_init(prob.c, 5)
        assert prob.nlcmres(v0) == pytest.approx(135.0002071215799, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            modified_pca_init(np.eye(3), 4)
        a = np.eye(3)
        a[0, 1] = 0.3
        with pytest.raises(ValueError):
            modified_pca_init(a, 1)


class TestFixedEntrySet:
    def test_construction_sorts_and_iterates(self):
        fes = FixedEntrySet([5, 2, 3], [1, 1, 2], [0.5, -0.25, 0.0])
        assert len(fes) == 3
        assert list(fes) == [(2, 1, -0.25), (3, 2, 0.0), (5, 1, 0.5)]
        assert fes.max_index() == 5

    def test_text_round_trip(self, tmp_path):
        fes = FixedEntrySet([4, 2, 9], [1, 1, 3], [0.123456789012345, -1.0, 1.0])
        path = tmp_path / "entries.txt"
        fes.to_text(path)
        back = FixedEntrySet.from_text(path)
        assert np.array_equal(back.rows, fes.rows)
        assert np.array_equal(back.cols, fes.cols)
        assert np.array_equal(back.values, fes.values)  # %.17g is lossless

    def test_from_text_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "entries.txt"
        path.write_text("# header\n\n3 1 0.5\n\n# tail\n4 2 -0.5\n")
        fes = FixedEntrySet.from_text(path)
        assert list(fes) == [(3, 1, 0.5), (4, 2, -0.5)]

    def test_from_text_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n")
        with pytest.raises(ValueError, match="expected"):
            FixedEntrySet.from_text(path)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FixedEntrySet([2], [2], [0.0])  # j == i
        with pytest.raises(ValueError):
            FixedEntrySet([2], [3], [0.0])  # j > i
        with pytest.raises(ValueError):
            FixedEntrySet([2], [1], [1.5])  # out of [-1, 1]
        with pytest.raises(ValueError):
            FixedEntrySet([2, 2], [1, 1], [0.0, 0.1])  # duplicate
        with pytest.raises(ValueError):
            FixedEntrySet([2, 3], [1], [0.0])  # ragged
        with pytest.raises(ValueError, match="values"):
            FixedEntrySet([2], [1], [float("nan")])
        path = tmp_path / "nan.txt"
        path.write_text("3 1 nan\n")
        with pytest.raises(ValueError, match="values"):
            FixedEntrySet.from_text(path)

    def test_violation_hand_example(self):
        # columns v1 = v2 = e1, v3 = e2; entries (2,1)->0 and (3,1)->0.5
        fes = FixedEntrySet([2, 3], [1, 1], [0.0, 0.5])
        v = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert fes.violation(v) == pytest.approx(1.5, abs=0)

    def test_empty_set(self):
        fes = FixedEntrySet([], [], [])
        assert len(fes) == 0
        assert fes.max_index() == 0
        assert fes.violation(np.ones((2, 4))) == 0.0


class TestSampleFixedEntries:
    def test_counts_and_strict_lower(self):
        fes = sample_fixed_entries(10, 3, seed=0)
        assert len(fes) == sum(min(3, 10 - i) for i in range(1, 11))
        assert np.all(fes.cols < fes.rows)
        assert np.all(fes.cols >= 1)
        assert fes.max_index() <= 10
        assert np.all(fes.values == 0.0)

    def test_determinism_and_value_callable(self):
        a = sample_fixed_entries(12, 2, seed=5)
        b = sample_fixed_entries(12, 2, seed=5)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)
        c = sample_fixed_entries(12, 2, seed=5, values=lambda i, j: 0.25)
        assert np.all(c.values == 0.25)

    def test_small_n_caps_at_available_columns(self):
        fes = sample_fixed_entries(3, 5, seed=0)
        assert len(fes) == 3  # rows 1 and 2 contribute 2 + 1


class TestMatrixIO:
    def test_matrix_market_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((5, 5))
        a = a + a.T
        path = tmp_path / "mat.mtx"
        scipy.io.mmwrite(path, a, comment="round trip")
        back = load_matrix(path)
        np.testing.assert_allclose(back, a, rtol=1e-14)

    def test_npy_round_trip(self, tmp_path):
        a = np.arange(12.0).reshape(3, 4)
        path = tmp_path / "mat.npy"
        np.save(path, a)
        assert np.array_equal(load_matrix(path), a)

    def test_text_round_trip(self, tmp_path):
        a = np.array([[1.0, 0.25], [0.25, 2.0]])
        path = tmp_path / "mat.txt"
        np.savetxt(path, a)
        np.testing.assert_allclose(load_matrix(path), a, rtol=1e-15)
