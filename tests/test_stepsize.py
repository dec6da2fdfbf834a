"""BB stepsizes, alternation, safeguard clamp, and the nonmonotone search."""

import math

import numpy as np
import pytest

from stiefelbb import (
    BBState,
    LineSearchError,
    ReferenceState,
    RetractionScheme,
    SolverConfig,
    TraceEigenProblem,
    abb,
    armijo_backtrack,
    bb_long,
    bb_short,
    compute_d_rho,
    prepare_state,
    random_stiefel,
    retract_new,
    safeguard,
    update_reference,
)
from stiefelbb.stepsize import (
    DELTA,
    DELTA_CAP,
    EPS_MAX,
    EPS_MIN,
    MAX_BACKTRACKS,
    REF_CAP,
    SIGMA,
)


def random_pair(seed, shape=(6, 2)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape), rng.standard_normal(shape)


class TestBBSteps:
    def test_equal_pair_gives_one(self):
        s, _ = random_pair(0)
        state = BBState(s_prev=s, y_prev=s.copy(), k=1)
        assert bb_long(state) == pytest.approx(1.0)
        assert bb_short(state) == pytest.approx(1.0)

    def test_doubled_secant(self):
        _, y = random_pair(1)
        state = BBState(s_prev=2.0 * y, y_prev=y, k=1)
        assert bb_long(state) == pytest.approx(2.0)
        assert bb_short(state) == pytest.approx(2.0)

    def test_short_never_exceeds_long(self):
        for seed in range(20):
            s, y = random_pair(100 + seed)
            state = BBState(s_prev=s, y_prev=y, k=1)
            assert bb_short(state) <= bb_long(state) * (1.0 + 1e-12)

    def test_orthogonal_pair(self):
        s = np.array([[1.0], [0.0]])
        y = np.array([[0.0], [1.0]])
        state = BBState(s_prev=s, y_prev=y, k=1)
        assert bb_long(state) is None  # zero denominator -> fallback
        assert bb_short(state) == 0.0  # valid zero; safeguard clamps it later

    def test_zero_y_signals_fallback(self):
        s, _ = random_pair(2)
        state = BBState(s_prev=s, y_prev=np.zeros_like(s), k=1)
        assert bb_short(state) is None
        assert bb_long(state) is None

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError):
            bb_long(BBState())

    def test_trace_shortcut_matches_direct_inner_product(self):
        # after a curve step from the default scheme, <S,S> can be read off
        # the cached p x p factor: <S,S> = 4p - 4 tr(J^{-1})
        rng = np.random.default_rng(3)
        for trial in range(10):
            n, p = 12, 3
            x = random_stiefel(n, p, seed=trial)
            d = compute_d_rho(x, rng.standard_normal((n, p)), 0.25)
            tau = float(rng.uniform(0.1, 1.5)) / np.linalg.norm(d)
            curve = retract_new(x, d)
            s = curve.eval(tau) - x
            direct = float(np.vdot(s, s))
            state = BBState(s_prev=s, y_prev=s, k=1, trace_jinv=curve.trace_jinv())
            assert state.s_dot_s() == pytest.approx(direct, rel=1e-10, abs=1e-14)


class TestABB:
    def test_parity_alternation(self):
        s, y = random_pair(4)
        short = bb_short(BBState(s_prev=s, y_prev=y, k=1))
        long = bb_long(BBState(s_prev=s, y_prev=y, k=2))
        for k in range(1, 7):
            got = abb(BBState(s_prev=s, y_prev=y, k=k))
            expected = short if k % 2 == 1 else long
            assert got == pytest.approx(expected)

    def test_k_zero_rejected(self):
        s, y = random_pair(5)
        with pytest.raises(ValueError):
            abb(BBState(s_prev=s, y_prev=y, k=0))


class TestSafeguard:
    def test_value_inside_band_unchanged(self):
        assert safeguard(0.37, 1.0) == 0.37

    def test_upper_clamp(self):
        assert safeguard(1e12, 1.0) == pytest.approx(1e8)

    def test_lower_clamp_catches_zero_trial(self):
        assert safeguard(0.0, 2.0) == pytest.approx(5e-9)

    def test_cap_applies_for_tiny_direction(self):
        # eps_max / ||D|| = 1e16 exceeds the cap, so Delta wins
        assert safeguard(1e14, 1e-8) == pytest.approx(1e10)

    def test_band_membership_randomized(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            tau0 = float(10.0 ** rng.uniform(-20, 20))
            dn = float(10.0 ** rng.uniform(-10, 10))
            out = safeguard(tau0, dn)
            lo = EPS_MIN / dn
            hi = min(EPS_MAX / dn, DELTA_CAP)
            assert lo <= out <= hi
            assert out * dn <= EPS_MAX * (1.0 + 1e-12)

    def test_stationary_direction_rejected(self):
        with pytest.raises(ValueError):
            safeguard(1.0, 0.0)


class TestReferenceUpdate:
    def test_improvement_resets(self):
        ref = ReferenceState.fresh(10.0)
        update_reference(ref, 9.0)
        assert ref.f_best == 9.0 and ref.f_c == 9.0 and ref.l == 0
        assert ref.f_r == math.inf

    def test_three_nonimproving_values_promote_candidate(self):
        ref = ReferenceState.fresh(1.0)
        for f in (5.0, 4.0, 6.0):
            update_reference(ref, f)
        # the third non-improving value triggers the promotion: the running
        # max (6) becomes the new reference, the counter restarts
        assert ref.f_r == 6.0
        assert ref.f_c == 6.0
        assert ref.l == 0
        assert ref.f_best == 1.0

    def test_monotone_sequence_keeps_infinite_reference(self):
        ref = ReferenceState.fresh(100.0)
        for f in np.linspace(99.0, 1.0, 25):
            update_reference(ref, float(f))
        assert ref.f_r == math.inf

    def test_candidate_tracks_running_max(self):
        ref = ReferenceState.fresh(0.0)
        update_reference(ref, 7.0)
        update_reference(ref, 3.0)
        assert ref.f_c == 7.0 and ref.l == 2

    def test_reference_never_below_best(self):
        rng = np.random.default_rng(7)
        ref = ReferenceState.fresh(float(rng.standard_normal()))
        for _ in range(200):
            update_reference(ref, float(rng.standard_normal() * 3.0))
            assert ref.f_r >= ref.f_best
            assert 0 <= ref.l < REF_CAP


def make_problem(n=10, p=3, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return TraceEigenProblem(a + a.T, p)


def first_step(prob, x, scheme=RetractionScheme()):
    """The loop state at x and the curve and slope of the solver's first step."""
    state = prepare_state(prob, x, SolverConfig(scheme=scheme))
    curve, slope = state.engine.curve_and_slope(state.x, state.g, state.d, state.ctx)
    return state, curve, slope


class TestArmijoBacktrack:
    def test_infinite_reference_accepts_first_trial(self):
        prob = make_problem()
        state, curve, slope = first_step(prob, random_stiefel(10, 3, seed=8))
        tau1 = state.tau1
        tau, y, f_new, g_new, evals = armijo_backtrack(prob.fg, curve, slope, tau1, state.ref.f_r)
        assert state.ref.f_r == math.inf
        assert evals == 1 and tau == tau1
        assert f_new == pytest.approx(prob.value(y))
        assert np.array_equal(g_new, prob.fg(y)[1])

    def test_adversarial_trial_step_backtracks_and_satisfies_test(self):
        prob = make_problem(seed=1)
        state, curve, slope = first_step(prob, random_stiefel(10, 3, seed=9))
        f0 = state.f  # finite reference forces genuine decrease
        tau, y, f_new, g_new, evals = armijo_backtrack(prob.fg, curve, slope, 1e6, f0)
        assert evals > 1
        # re-check the acceptance inequality with a fresh evaluation
        assert prob.value(y) <= f0 + DELTA * tau * slope + 1e-12

    def test_quadratic_scale_step_accepted_without_backtracking(self):
        # on F = -tr(X^T A X) a step of the natural 1/||A|| scale passes
        prob = make_problem(seed=2)
        anorm = np.linalg.norm(prob.a, 2)
        state, curve, slope = first_step(prob, random_stiefel(10, 3, seed=10))
        f0 = state.f
        tau, _, f_new, _, evals = armijo_backtrack(prob.fg, curve, slope, 0.25 / anorm, f0)
        assert evals == 1
        assert f_new < f0

    def test_nondescent_direction_rejected(self):
        prob = make_problem(seed=3)
        x = random_stiefel(10, 3, seed=11)
        g = prob.fg(x)[1]
        d = compute_d_rho(x, g, 0.25)
        # the curve along +D_rho ascends: its initial slope is <G, D_rho> > 0
        ascent = retract_new(x, -d)
        with pytest.raises(ValueError):
            armijo_backtrack(prob.fg, ascent, float(np.vdot(g, d)), 0.1, math.inf)

    def test_exhausted_budget_raises(self):
        # no finite value passes the test against a reference of -inf
        prob = make_problem(seed=4)
        state, curve, slope = first_step(prob, random_stiefel(10, 3, seed=12))
        with pytest.raises(LineSearchError) as err:
            armijo_backtrack(prob.fg, curve, slope, 1e6, -math.inf)
        assert err.value.evals == MAX_BACKTRACKS + 1

    def test_failed_curve_evaluations_are_not_counted(self):
        # the first two trials raise LinAlgError before any objective call
        prob = make_problem(seed=7)
        state, curve, slope = first_step(prob, random_stiefel(10, 3, seed=15))
        calls = []

        class Fragile:
            def eval(self, tau):
                if len(calls) < 2:
                    calls.append(tau)
                    raise np.linalg.LinAlgError("singular J")
                return curve.eval(tau)

        tau, _, _, _, evals = armijo_backtrack(prob.fg, Fragile(), slope, state.tau1, math.inf)
        assert evals == 1
        assert tau == state.tau1 * SIGMA**2

        class Singular:
            def eval(self, tau):
                raise np.linalg.LinAlgError("singular J")

        with pytest.raises(LineSearchError) as err:
            armijo_backtrack(prob.fg, Singular(), slope, state.tau1, math.inf)
        assert err.value.evals == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_tau_shrinks_without_evaluation(self):
        # tau^2 overflows from 1e160 down to about 1e154: the new curve's J is
        # not finite there, those trials raise LinAlgError, and the first
        # finite J is evaluated once and accepted
        prob = make_problem(seed=7)
        state, curve, slope = first_step(prob, random_stiefel(10, 3, seed=16))
        tau, y, f_new, _, evals = armijo_backtrack(prob.fg, curve, slope, 1e160, math.inf)
        assert evals == 1
        assert tau < 1e155
        assert math.isfinite(f_new) and np.all(np.isfinite(y))

    def test_every_scheme_kind_descends(self):
        prob = make_problem(seed=5)
        x = random_stiefel(10, 3, seed=13)
        for kind in ("new", "polar", "qr", "gp", "wenyin", "geodesic", "lowrank"):
            state, curve, slope = first_step(prob, x, RetractionScheme(kind=kind))
            f0 = state.f
            tau, y, f_new, g_new, evals = armijo_backtrack(prob.fg, curve, slope, state.tau1, f0)
            assert f_new < f0, kind
            assert f_new == pytest.approx(prob.value(y)), kind

    def test_uncontrolled_variant_matches_at_feasible_point(self):
        prob = make_problem(seed=6)
        x = random_stiefel(10, 3, seed=14)
        out = {}
        for flag in (True, False):
            scheme = RetractionScheme(kind="new", feasibility_control=flag)
            state, curve, slope = first_step(prob, x, scheme)
            out[flag] = armijo_backtrack(prob.fg, curve, slope, state.tau1, state.ref.f_r)
        assert out[True][0] == out[False][0]
        np.testing.assert_allclose(out[True][1], out[False][1], atol=1e-12)
