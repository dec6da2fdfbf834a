"""The adaptive BB descent loop: termination, accounting, determinism."""

import copy
import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from stiefelbb import (
    GeneralizedConstraint,
    HeterogeneousQuadraticProblem,
    LowRankCorrProblem,
    SolverConfig,
    STOP_REASONS,
    TraceEigenProblem,
    compute_d_rho,
    feasibility_error,
    gen_ex2,
    heterogeneous_problem,
    iterate_once,
    modified_pca_init,
    prepare_state,
    random_stiefel,
    solve,
    solve_generalized,
    solver,
    stepsize,
)
from stiefelbb.bench import _tridiag_mul

ALL_KINDS = ("new", "polar", "qr", "gp", "wenyin", "geodesic", "lowrank")


def random_eigen(n, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return TraceEigenProblem(a + a.T, p)


class CountingProblem:
    """Wrapper counting fg calls for the evaluation audit; it offers nothing
    else a solve could call, so fg is the whole problem protocol."""

    def __init__(self, inner):
        self.inner = inner
        self.shape = inner.shape
        self.manifold = getattr(inner, "manifold", "stiefel")
        self.fg_calls = 0

    def fg(self, x):
        self.fg_calls += 1
        return self.inner.fg(x)


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.rho == 0.25
        assert cfg.scheme == "new" and cfg.gtau == "linear"
        assert cfg.eps == 1e-5 and cfg.eps_x == 1e-5 and cfg.eps_f == 1e-8
        assert cfg.max_iter == 3000 and cfg.seed is None
        assert solver.WINDOW_T == 5 and solver.REORTH_TOL == 1e-14
        assert stepsize.SIGMA == 0.5 and stepsize.DELTA == 0.001
        assert stepsize.MAX_BACKTRACKS == 60 and stepsize.REF_CAP == 3
        assert (stepsize.EPS_MIN, stepsize.EPS_MAX, stepsize.DELTA_CAP) == (1e-8, 1e8, 1e10)

    def test_validation(self):
        for bad in (
            dict(rho=0.0),
            dict(eps=-1.0),
            dict(eps_x=-1e-12),
            dict(eps_f=-1.0),
            dict(eps=float("nan")),
            dict(max_iter=-1),
            dict(rho=math.nan),
            dict(rho=math.inf),
            dict(max_iter=math.nan),
            dict(max_iter=1.5),
            dict(max_iter=3.0),
            # the constraint, not the kind, selects the X^T H X = K geometry
            dict(scheme="cayley"),
            dict(scheme="generalized"),
            dict(gtau="sine"),
            # the kind itself, not an object that carries one
            dict(scheme=SimpleNamespace(kind="qr", gtau="linear")),
        ):
            with pytest.raises(ValueError, match=next(iter(bad))):
                SolverConfig(**bad)
        assert SolverConfig(max_iter=np.int64(3)).max_iter == 3

    @pytest.mark.parametrize("tau0", [0.0, -1e-3, math.nan, math.inf])
    def test_tau0_must_be_positive_and_finite(self, tau0):
        with pytest.raises(ValueError, match="tau0"):
            SolverConfig(tau0=tau0)


class TestFirstStep:
    def test_tau0_is_the_first_trial_step(self):
        prob = random_eigen(25, 3, seed=11)
        x0 = random_stiefel(25, 3, seed=11)
        assert prepare_state(prob, x0, SolverConfig(tau0=0.125)).tau1 == 0.125
        cold = prepare_state(prob, x0, SolverConfig())
        assert cold.tau1 == 0.5 / cold.d0_norm

    def test_default_first_step_is_the_cold_start_bit_for_bit(self):
        # tau0=None takes 0.5 / ||D_0||: the same solve as that step given
        prob = heterogeneous_problem(1000, 10, "random", seed=100001)
        x0 = random_stiefel(1000, 10, seed=1)
        a = solve(prob, x0, SolverConfig(tau0=None))
        b = solve(prob, x0, SolverConfig(tau0=0.5 / a.residual_initial))
        assert a.f_history == b.f_history
        np.testing.assert_array_equal(a.x_final, b.x_final)
        assert (a.iters, a.nfge, a.stop_reason) == (b.iters, b.nfge, b.stop_reason)
        assert a.tau_next == b.tau_next

    @pytest.mark.parametrize("tau0, edge", [(1e30, "EPS_MAX"), (1e-30, "EPS_MIN")])
    def test_tau0_is_clamped_into_the_safeguard_band(self, tau0, edge):
        # an unclamped 1e30 is a wrapping step that F_r = inf accepts
        prob = heterogeneous_problem(200, 4, "random", seed=100001)
        state = prepare_state(prob, random_stiefel(200, 4, seed=1), SolverConfig(tau0=tau0))
        assert state.tau1 * state.d0_norm == pytest.approx(getattr(stepsize, edge), rel=1e-15)

    @pytest.mark.parametrize("max_iter", [0, 3, 3000])
    def test_tau_next_is_a_positive_finite_step(self, max_iter):
        prob = random_eigen(25, 3, seed=11)
        x0 = random_stiefel(25, 3, seed=11)
        rep = solve(prob, x0, SolverConfig(max_iter=max_iter))
        assert math.isfinite(rep.tau_next) and rep.tau_next > 0.0


class TestEigenSolve:
    def test_small_diagonal_reaches_top_invariant_subspace(self):
        prob = TraceEigenProblem(np.diag([4.0, 3.0, 2.0, 1.0]), 2)
        rep = solve(prob, random_stiefel(4, 2, seed=0), SolverConfig(seed=0))
        assert rep.f_final == pytest.approx(-7.0, abs=1e-8)
        assert rep.feasi <= 1e-13
        assert rep.stop_reason in STOP_REASONS

    def test_exactly_stationary_start_stops_immediately(self):
        prob = TraceEigenProblem(np.diag([4.0, 3.0, 2.0, 1.0]), 2)
        x0 = np.zeros((4, 2))
        x0[0, 0] = x0[1, 1] = 1.0  # the top eigenvector columns
        counted = CountingProblem(prob)
        rep = solve(counted, x0)
        assert rep.iters == 0
        assert rep.stop_reason == "ResidualRel"
        assert counted.fg_calls == 1  # single evaluation
        assert rep.nfge == 1

    def test_maximizer_start_without_convergence_checks_fails_cleanly(self):
        # zero tolerances still stop where ||D|| is exactly 0, as it is at
        # the bottom eigenvectors, a maximizer of this objective
        prob = TraceEigenProblem(np.diag([4.0, 3.0, 2.0, 1.0]), 2)
        x0 = np.zeros((4, 2))
        x0[2, 0] = x0[3, 1] = 1.0
        rep = solve(prob, x0, SolverConfig(eps=0.0, eps_x=0.0, eps_f=0.0, max_iter=50))
        assert rep.stop_reason == "ResidualRel"
        assert rep.iters == 0

    def test_non_descent_direction_stops_before_the_line_search(self):
        prob = random_eigen(12, 2, seed=3)
        state = prepare_state(prob, random_stiefel(12, 2, seed=3), SolverConfig())
        state.d = -state.d  # the slope -<G, D> is now positive
        iterate_once(state)
        assert state.stop_reason == "LineSearchFail"
        assert state.k == 0 and state.nfge == 1

    def test_zero_tolerances_run_the_iteration_budget(self):
        # a controlled drift instance: no exact stall within 40 iterations
        prob = TraceEigenProblem(_tridiag_mul, 4, n=60)
        cfg = SolverConfig(eps=0.0, eps_x=0.0, eps_f=0.0, max_iter=40)
        rep = solve(prob, random_stiefel(60, 4, seed=0), cfg)
        assert rep.iters == 40 and rep.stop_reason == "MaxIter"

    def test_unit_relative_tolerance_stops_at_start(self):
        # eps is relative to ||D_rho(x0)||, so eps = 1 is met at iteration 0
        prob = random_eigen(12, 2, seed=1)
        rep = solve(prob, random_stiefel(12, 2, seed=1), SolverConfig(eps=1.0))
        assert rep.iters == 0 and rep.stop_reason == "ResidualRel"

    def test_random_matrix_recovers_spectral_sum(self):
        prob = random_eigen(30, 3, seed=2)
        top = np.sort(np.linalg.eigvalsh(prob.a))[-3:].sum()
        rep = solve(
            prob,
            random_stiefel(30, 3, seed=2),
            SolverConfig(eps=1e-6, eps_x=1e-6, eps_f=1e-10, seed=2),
        )
        assert -rep.f_final == pytest.approx(top, rel=1e-6)

    def test_every_scheme_kind_converges_on_small_eigen(self):
        # The polar, geodesic, and lowrank curves evaluate closed-form
        # expressions that presuppose an exactly feasible X, so roundoff
        # drift is amplified along a convergent trajectory and the reported
        # objective can land a little off the exact optimum (even slightly
        # below it, since a drifted point is not constrained).  The final
        # re-orthogonalization restores feasibility either way, which is
        # what the feasi field certifies.  Schemes whose evaluation
        # orthonormalizes (qr, gp) or corrects drift (new, wenyin) reach
        # the optimum to tight accuracy.
        tight = {"new": 1e-6, "qr": 1e-6, "wenyin": 1e-6, "gp": 1e-4}
        prob = TraceEigenProblem(np.diag(np.arange(8, 0, -1.0)), 2)
        x0 = random_stiefel(8, 2, seed=3)
        for kind in ALL_KINDS:
            rep = solve(prob, x0, SolverConfig(scheme=kind))
            assert rep.f_final == pytest.approx(-15.0, abs=tight.get(kind, 2e-3)), kind
            assert rep.feasi <= 1e-13, kind


class TestStopCriteria:
    def test_max_iter_cap(self):
        prob = random_eigen(25, 3, seed=4)
        rep = solve(prob, random_stiefel(25, 3, seed=4), SolverConfig(max_iter=3))
        assert rep.stop_reason == "MaxIter"
        assert rep.iters == 3
        assert len(rep.f_history) == 4

    def test_loose_change_tolerances_stop_at_windowed_means(self):
        # loose tolerances make the first accepted step trip the windowed
        # test, whose window then holds that one step
        prob = random_eigen(40, 3, seed=2)
        rep = solve(
            prob,
            random_stiefel(40, 3, seed=2),
            SolverConfig(eps=1e-12, eps_x=10.0, eps_f=10.0),
        )
        assert rep.stop_reason == "WindowedMeans"
        assert (rep.iters, rep.nfge) == (1, 2)

    def test_windowed_means_stop_occurs_naturally(self):
        # spiky per-step changes can pass the averaged test only
        prob = random_eigen(40, 3, seed=100)
        rep = solve(prob, random_stiefel(40, 3, seed=0), SolverConfig(seed=0))
        assert rep.stop_reason == "WindowedMeans"

    def test_zero_max_iter_reports_cap(self):
        prob = random_eigen(10, 2, seed=5)
        rep = solve(prob, random_stiefel(10, 2, seed=5), SolverConfig(max_iter=0))
        assert rep.stop_reason == "MaxIter"
        assert rep.iters == 0


class TestReportAccounting:
    def test_nfge_matches_actual_evaluations(self):
        inner = random_eigen(20, 3, seed=6)
        counted = CountingProblem(inner)
        rep = solve(counted, random_stiefel(20, 3, seed=6), SolverConfig(seed=6))
        # one evaluation at the start, one per trial and one more at a
        # reorthogonalized returned point
        assert rep.nfge == counted.fg_calls
        assert rep.nfge >= rep.iters + 1

    def test_failed_line_search_counts_its_trials(self):
        class NanTrials(CountingProblem):
            def fg(self, x):
                f, g = super().fg(x)
                return (f if self.fg_calls == 1 else math.nan), g

        counted = NanTrials(random_eigen(10, 2, seed=6))
        rep = solve(counted, random_stiefel(10, 2, seed=6))
        assert rep.stop_reason == "LineSearchFail"
        # the start plus the first trial and one per backtrack
        assert counted.fg_calls == 1 + stepsize.MAX_BACKTRACKS + 1
        assert rep.nfge == counted.fg_calls

    def test_f_final_is_value_at_returned_point(self):
        # the literal formulas drift off the manifold, so x_final comes back
        # reorthogonalized and F there is 8.6e-3 from the last accepted value
        counted = CountingProblem(TraceEigenProblem(_tridiag_mul, 6, n=200))
        cfg = SolverConfig(
            scheme="literal",
            eps=0.0,
            eps_x=0.0,
            eps_f=0.0,
            max_iter=3000,
            seed=0,
        )
        rep = solve(counted, None, cfg)
        assert rep.f_final == counted.inner.fg(rep.x_final)[0]
        assert abs(rep.f_final - rep.f_history[-1]) > 1e-3
        assert len(rep.f_history) == rep.iters + 1
        assert rep.nfge == counted.fg_calls
        # F is written once: a formula of its own would round differently
        # here (-3.8465453017092734 against fg's -3.846545301709275)
        prob = heterogeneous_problem(1000, 10, "random", seed=100001)
        rep = solve(prob, None, SolverConfig(seed=1))
        assert rep.f_final == prob.fg(rep.x_final)[0]

    def test_history_and_properties(self):
        prob = random_eigen(15, 2, seed=7)
        rep = solve(prob, random_stiefel(15, 2, seed=7))
        assert rep.f_initial == rep.f_history[0]
        assert rep.f_final == rep.f_history[-1]
        assert len(rep.f_history) == rep.iters + 1
        assert rep.wall_time >= 0.0

    def test_wall_time_covers_the_start_evaluation(self):
        class SlowStart(CountingProblem):
            def fg(self, x):
                if self.fg_calls == 0:
                    time.sleep(0.02)
                return super().fg(x)

        prob = SlowStart(random_eigen(10, 2, seed=5))
        rep = solve(prob, random_stiefel(10, 2, seed=5), SolverConfig(max_iter=0))
        assert rep.iters == 0 and prob.fg_calls == 1
        assert rep.wall_time >= 0.02

    def test_residual_final_matches_direction_norm(self):
        prob = random_eigen(15, 2, seed=8)
        cfg = SolverConfig(rho=0.25)
        rep = solve(prob, random_stiefel(15, 2, seed=8), cfg)
        # recompute D_rho at the reported point; the final reorthogonalization
        # may nudge it at machine precision
        d = compute_d_rho(rep.x_final, prob.fg(rep.x_final)[1], cfg.rho)
        assert rep.residual_final == pytest.approx(
            np.linalg.norm(d), rel=1e-6, abs=1e-10
        )

    def test_residual_final_is_taken_at_the_reorthogonalized_point(self):
        prob = heterogeneous_problem(1000, 10, "random", seed=100001)
        rep = solve(prob, cfg=SolverConfig(seed=1))
        assert rep.f_final != rep.f_history[-1]  # the last iterate was reorthogonalized
        res = np.linalg.norm(compute_d_rho(rep.x_final, prob.fg(rep.x_final)[1], 0.25))
        assert rep.residual_final == pytest.approx(res, rel=1e-14, abs=0.0)

    def test_residual_initial_is_the_start_residual(self):
        prob = heterogeneous_problem(1000, 10, "random", seed=100001)
        x0 = random_stiefel(1000, 10, seed=1)
        cfg = SolverConfig(seed=1)
        rep = solve(prob, x0, cfg)
        assert rep.residual_initial == solve(prob, x0, replace(cfg, max_iter=0)).residual_final
        assert rep.residual_final < 1e-3 * rep.residual_initial

    def test_feasibility_trace_tracking(self):
        prob = random_eigen(20, 3, seed=9)
        rep = solve(
            prob,
            random_stiefel(20, 3, seed=9),
            SolverConfig(track_feasibility=True),
        )
        assert rep.feasibility_trace is not None
        assert len(rep.feasibility_trace) == rep.iters + 1
        assert max(rep.feasibility_trace) <= 1e-12

    def test_trace_disabled_by_default(self):
        prob = random_eigen(10, 2, seed=10)
        rep = solve(prob, random_stiefel(10, 2, seed=10))
        assert rep.feasibility_trace is None


class TestDeterminism:
    def test_bitwise_identical_runs(self):
        prob = random_eigen(25, 3, seed=11)
        x0 = random_stiefel(25, 3, seed=11)
        cfg = SolverConfig(seed=11)
        a = solve(prob, x0, cfg)
        b = solve(prob, x0, cfg)
        assert a.f_history == b.f_history
        np.testing.assert_array_equal(a.x_final, b.x_final)
        assert a.nfge == b.nfge and a.iters == b.iters
        assert a.stop_reason == b.stop_reason

    @pytest.mark.parametrize("geometry", ["stiefel", "spheres", "generalized"])
    def test_seeded_random_start_is_reproducible(self, geometry):
        # a random start is the geometry's projection of one seeded Gaussian draw
        cfg = SolverConfig(seed=5)
        gc = None
        if geometry == "stiefel":
            prob = random_eigen(25, 3, seed=12)
            expected = random_stiefel(25, 3, seed=5)
        elif geometry == "spheres":
            prob = TestSphereGeometry.small_corr_problem(seed=12)
            draw = np.random.default_rng(5).standard_normal(prob.shape)
            expected = draw / np.linalg.norm(draw, axis=0)
        else:
            prob = random_eigen(25, 3, seed=12)
            gc = GeneralizedConstraint(TestGeneralizedSolve.spd(25, 12), np.eye(3))
            draw = np.random.default_rng(5).standard_normal(prob.shape)
            expected = solver._GeneralizedEngine(cfg, gc).reorthogonalize(draw)
            assert gc.feasibility(expected) <= 1e-12
        x = prepare_state(prob, None, cfg, gc=gc).x
        np.testing.assert_array_equal(x, expected)
        if geometry == "stiefel":
            # the start's layout alone changes the roundoff of the iterates
            assert x.flags.f_contiguous
        if gc is None:
            a, b = solve(prob, cfg=cfg), solve(prob, cfg=cfg)
        else:
            a, b = (solve_generalized(prob, None, gc, cfg) for _ in range(2))
        assert a.f_history == b.f_history


class TestIterateOnce:
    def test_two_calls_match_solve_prefix(self):
        prob = random_eigen(18, 2, seed=13)
        x0 = random_stiefel(18, 2, seed=13)
        cfg = SolverConfig(seed=13)
        state = prepare_state(prob, x0, cfg)
        iterate_once(state)
        iterate_once(state)
        full = solve(prob, x0, cfg)
        assert state.f_history == full.f_history[:3]

    def test_snapshot_restore_replays_identically(self):
        prob = random_eigen(18, 2, seed=14)
        state = prepare_state(prob, random_stiefel(18, 2, seed=14), SolverConfig())
        for _ in range(3):
            iterate_once(state)
        snap = copy.deepcopy(state)
        for _ in range(4):
            iterate_once(state)
        for _ in range(4):
            iterate_once(snap)
        assert snap.f_history == state.f_history
        np.testing.assert_array_equal(snap.x, state.x)
        assert snap.k == state.k

    def test_noop_after_done(self):
        prob = TraceEigenProblem(np.diag([3.0, 1.0]), 1)
        x0 = np.array([[1.0], [0.0]])
        state = prepare_state(prob, x0, SolverConfig())
        iterate_once(state)
        assert state.done
        k, hist = state.k, list(state.f_history)
        iterate_once(state)
        assert state.k == k and state.f_history == hist

    def test_state_counts_follow_iterations(self):
        prob = random_eigen(18, 2, seed=15)
        state = prepare_state(prob, random_stiefel(18, 2, seed=15), SolverConfig())
        assert state.k == 0 and state.nfge == 1
        iterate_once(state)
        assert state.k == 1 and state.nfge >= 2


class TestStartValidation:
    def test_infeasible_start_rejected(self):
        prob = random_eigen(10, 2, seed=16)
        with pytest.raises(ValueError):
            solve(prob, np.ones((10, 2)))

    def test_start_of_wrong_shape_rejected(self):
        # a feasible 30 x 2 start would otherwise run a p = 2 solve of a
        # p = 3 problem (or end in a broadcast error for balogh)
        x0 = random_stiefel(30, 2, seed=1)
        for prob in (random_eigen(30, 3, seed=1), heterogeneous_problem(30, 3, "minus-one")):
            with pytest.raises(ValueError, match="shape"):
                solve(prob, x0)

    def test_shape_free_problem_needs_x0(self):
        class Bare:
            def value(self, x):
                return 0.0

            def fg(self, x):
                return 0.0, np.zeros_like(x)

        with pytest.raises(ValueError):
            solve(Bare())

    def test_nonfinite_objective_aborts_with_diagnostics(self):
        class NanProblem:
            shape = (4, 2)

            def value(self, x):
                return math.nan

            def fg(self, x):
                return math.nan, np.zeros_like(x)

        with pytest.raises(FloatingPointError):
            solve(NanProblem(), random_stiefel(4, 2, seed=17))

    def test_nonfinite_gradient_aborts_with_diagnostics(self):
        class NanGradient(CountingProblem):
            def __init__(self, inner, clean_calls):
                super().__init__(inner)
                self.clean_calls = clean_calls

            def fg(self, x):
                f, g = super().fg(x)
                return f, (g if self.fg_calls <= self.clean_calls else g * math.nan)

        x0 = random_stiefel(8, 2, seed=17)
        with pytest.raises(FloatingPointError, match="gradient non-finite at the starting point"):
            solve(NanGradient(random_eigen(8, 2, seed=17), 0), x0)
        with pytest.raises(FloatingPointError, match="gradient non-finite at iterate 1"):
            solve(NanGradient(random_eigen(8, 2, seed=17), 1), x0)

    def test_nonfinite_start_on_the_spheres_names_x0(self):
        # a NaN start is blamed on x0, not on the objective evaluated there
        prob = gen_ex2(20, 3)
        v = modified_pca_init(prob.c, 3)
        v[0, 0] = math.nan
        with pytest.raises(ValueError, match="x0 violates the constraint set"):
            solve(prob, v)

    def test_random_start_used_when_x0_missing(self):
        prob = random_eigen(12, 2, seed=18)
        rep = solve(prob, cfg=SolverConfig(seed=18))
        assert rep.x_final.shape == (12, 2)
        assert rep.feasi <= 1e-13


class TestKnownOptimumProblem:
    def test_reaches_planted_value(self):
        prob = HeterogeneousQuadraticProblem(100, 5, -np.ones(5))
        rep = solve(prob, random_stiefel(100, 5, seed=19), SolverConfig(seed=19))
        assert abs(rep.f_final - (-5.0)) / 5.0 <= 1e-5
        assert rep.feasi <= 1e-13

    @pytest.mark.parametrize("s", [80110, 9327, 9530, 14258, 18696, 23752, 705])
    def test_random_planted_instance_reaches_optimum(self, s):
        # instance seed 100000 + s, start seed s. On s = 80110 a long step
        # can wrap X to about -X, where an even objective has nearly the
        # same F and the next BB step comes out tiny; five more stopped
        # 1.1e-3 to 1.4e-3 above the optimum on a pointwise change test
        # that fired on one small step among larger ones; s = 705 accepts
        # tau ||D||_F = 1.6e4, the longest step of seeds 1-1300 inside the
        # safeguard band
        prob = heterogeneous_problem(1000, 10, "random", seed=100000 + s)
        rep = solve(prob, cfg=SolverConfig(seed=s))
        opt = prob.known_optimum
        assert abs(rep.f_final - opt) <= 1e-3 * abs(opt)
        assert rep.feasi <= 1e-12

    def test_tiny_step_keeps_a_positive_iterate_change(self):
        # tol_x is read from vdot(S, S), about 1e-10 after these tiny steps,
        # where 4p - 4 tr(J^{-1}) (4n - 4 sum_i 1/J_i on the unit spheres)
        # cancels to exactly 0
        balogh = heterogeneous_problem(1000, 10, "random", seed=180110)
        corr = gen_ex2(60, 3)
        for state, tau in (
            (prepare_state(balogh, cfg=SolverConfig(seed=80110)), 1.4e-12),
            (prepare_state(corr, modified_pca_init(corr.c, 3)), 1e-10),
        ):
            state.tau1 = tau
            iterate_once(state)
            assert state.k == 1 and state.tolx_win[-1] > 0.0


class TestSphereGeometry:
    @staticmethod
    def small_corr_problem(n=12, r=3, seed=20):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n, n))
        c = np.corrcoef(b)
        return LowRankCorrProblem(c, r)

    def test_solve_reduces_residual_with_unit_columns(self):
        prob = self.small_corr_problem()
        rep = solve(prob, cfg=SolverConfig(seed=20, track_feasibility=True))
        assert rep.f_final < rep.f_initial
        norms = np.linalg.norm(rep.x_final, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-13)
        assert max(rep.feasibility_trace) <= 1e-12

    @pytest.mark.parametrize("kind", ["polar", "literal"])
    def test_non_new_scheme_rejected_on_spheres(self, kind):
        # the sphere curve exists only in its drift-safe construction
        prob = self.small_corr_problem()
        with pytest.raises(ValueError, match="only scheme kind 'new'"):
            solve(prob, cfg=SolverConfig(scheme=kind))


class TestGeneralizedSolve:
    @staticmethod
    def spd(n, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n, n))
        return b @ b.T + 0.5 * np.eye(n)

    def test_identity_data_matches_plain_loop(self):
        n, p = 20, 2
        prob = random_eigen(n, p, seed=22)
        x0 = random_stiefel(n, p, seed=22)
        gc = GeneralizedConstraint(np.eye(n), np.eye(p))
        cfg = dict(rho=0.5, max_iter=25, eps=0.0, eps_x=0.0, eps_f=0.0)
        ra = solve(prob, x0, SolverConfig(**cfg))
        rb = solve_generalized(prob, x0, gc, SolverConfig(**cfg))
        assert len(ra.f_history) == len(rb.f_history)
        np.testing.assert_allclose(ra.f_history, rb.f_history, atol=1e-10)

    def test_rayleigh_residual_reduction_and_feasibility(self):
        n, p = 6, 2
        rng = np.random.default_rng(23)
        a = rng.standard_normal((n, n))
        prob = TraceEigenProblem(a + a.T, p)
        h = self.spd(n, 24)
        gc = GeneralizedConstraint(h, np.eye(p))
        x0 = np.linalg.solve(
            np.linalg.cholesky(h).T, random_stiefel(n, p, seed=23)
        )  # satisfies X^T H X = I
        rep = solve_generalized(
            prob, x0, gc, SolverConfig(track_feasibility=True, eps=1e-6)
        )
        g = prob.fg(rep.x_final)[1]
        hx = h @ rep.x_final
        res = np.linalg.norm(g @ (hx.T @ hx) - hx @ (g.T @ hx))
        g0 = prob.fg(x0)[1]
        hx0 = h @ x0
        res0 = np.linalg.norm(g0 @ (hx0.T @ hx0) - hx0 @ (g0.T @ hx0))
        assert res <= 1e-4 * res0
        assert max(rep.feasibility_trace) <= 1e-10
        assert gc.feasibility(rep.x_final) <= 1e-12

    def test_residual_initial_is_the_start_residual(self):
        # the instance of acceptance criterion 10
        rng = np.random.default_rng(42)
        b = rng.standard_normal((50, 50))
        h = b @ b.T + 50.0 * np.eye(50)
        gc = GeneralizedConstraint(h, np.eye(3))
        a = rng.standard_normal((50, 50))
        prob = TraceEigenProblem(a + a.T, 3)
        x0 = np.linalg.solve(np.linalg.cholesky(h).T, random_stiefel(50, 3, seed=0))
        cfg = SolverConfig(eps=1e-5, eps_x=1e-8, eps_f=1e-12, max_iter=5000)
        rep = solve_generalized(prob, x0, gc, cfg)
        res0 = solve_generalized(prob, x0, gc, replace(cfg, max_iter=0)).residual_final
        assert rep.residual_initial == res0

    def test_stationary_start_stops_immediately(self):
        prob = TraceEigenProblem(np.diag([4.0, 3.0, 2.0, 1.0]), 2)
        x0 = np.zeros((4, 2))
        x0[0, 0] = x0[1, 1] = 1.0
        gc = GeneralizedConstraint(np.eye(4), np.eye(2))
        rep = solve_generalized(prob, x0, gc)
        assert rep.iters == 0 and rep.stop_reason == "ResidualRel"

    def test_requires_constraint_object(self):
        prob = random_eigen(6, 2, seed=25)
        with pytest.raises(TypeError):
            solve_generalized(prob, random_stiefel(6, 2, seed=25), np.eye(6))

    @pytest.mark.parametrize("kind", ["polar", "literal"])
    def test_non_new_scheme_rejected(self, kind):
        # the generalized curve exists only in its drift-safe construction
        prob = random_eigen(6, 2, seed=27)
        gc = GeneralizedConstraint(np.eye(6), np.eye(2))
        with pytest.raises(ValueError, match="only scheme kind 'new'"):
            solve_generalized(prob, random_stiefel(6, 2, seed=27), gc, SolverConfig(scheme=kind))

    @pytest.mark.parametrize("case", ["negative-h", "equal-columns"])
    def test_unprojectable_start_says_why(self, case):
        prob = random_eigen(10, 2, seed=28)
        x0 = np.random.default_rng(28).standard_normal((10, 2))
        if case == "negative-h":
            gc = GeneralizedConstraint(-np.eye(10), np.eye(2))
        else:
            # X^T X is singular, yet here it has a Cholesky factor in roundoff,
            # whose projection lands far off the set
            gc = GeneralizedConstraint(np.eye(10), np.eye(2))
            x0[:, 1] = x0[:, 0]
        with pytest.raises(ValueError, match="not numerically positive definite"):
            solve_generalized(prob, x0, gc)

    def test_infeasible_start_projected_then_solved(self):
        n, p = 10, 2
        prob = random_eigen(n, p, seed=26)
        h = self.spd(n, 26)
        gc = GeneralizedConstraint(h, np.eye(p))
        x0 = np.random.default_rng(26).standard_normal((n, p))  # infeasible
        rep = solve_generalized(prob, x0, gc, SolverConfig())
        assert gc.feasibility(rep.x_final) <= 1e-12
