"""Tests for the augmented-Lagrangian outer loop and its subproblem objective."""

import dataclasses

import numpy as np
import pytest

from stiefelbb import (
    AugLagConfig,
    AugLagSubproblem,
    FixedEntrySet,
    LowRankCorrProblem,
    SolverConfig,
    auglag,
    auglag_solve,
    ex3_matrix,
    gen_ex3,
    modified_pca_init,
    sample_fixed_entries,
    solve,
)


def synthetic_weak_instance():
    """n=50 factor-model correlation target with the 10 weakest strict-lower
    pairs prescribed to zero."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 8))
    m = a @ a.T + 0.5 * np.eye(50)
    d = np.sqrt(np.diag(m))
    c = m / np.outer(d, d)
    c = 0.5 * (c + c.T)
    il, jl = np.tril_indices(50, k=-1)
    order = np.argsort(np.abs(c[il, jl]))[:10]
    fes = FixedEntrySet(il[order] + 1, jl[order] + 1, np.zeros(10))
    return LowRankCorrProblem(c, 5, name="synthetic"), fes


def unit_columns(v, tol=1e-12):
    return np.abs(np.linalg.norm(v, axis=0) - 1.0).max() <= tol


def dense_lagrangian(base, fes, lam, mu, v):
    """L_mu and its gradient from the dense n x n formula
    theta(V; H, C) + (mu/2) theta(V; H_e, C-hat + Lambda/mu), with the
    symmetric n x n Lambda built from the per-entry multipliers lam."""
    n = base.n
    he = np.zeros((n, n))
    chat = np.zeros((n, n))
    lam_nn = np.zeros((n, n))
    for (i, j, q), l in zip(fes, lam):
        he[i - 1, j - 1] = he[j - 1, i - 1] = 1.0
        chat[i - 1, j - 1] = chat[j - 1, i - 1] = q
        lam_nn[i - 1, j - 1] = lam_nn[j - 1, i - 1] = l
    hsq = np.ones((n, n)) if base.h is None else base.h * base.h
    vv = v.T @ v
    m1 = vv - base.c
    m2 = vv - (chat + lam_nn / mu)
    f = 0.5 * np.sum(hsq * m1 * m1) + 0.25 * mu * np.sum(he * m2 * m2)
    g = 2.0 * v @ (hsq * m1 + 0.5 * mu * he * m2)
    return f, g


class TestSubproblemObjective:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("lam_kind", ["zero", "symmetric"])
    @pytest.mark.parametrize("n_e", [0, 3])
    def test_sparse_penalty_matches_dense_formula(self, weighted, lam_kind, n_e):
        n, r, mu = 30, 4, 12.5
        base = gen_ex3(n, weighted=weighted, seed=11, r=r)
        fes = sample_fixed_entries(n, n_e, seed=12, values=lambda i, j: 0.3 * np.sin(i - j))
        rng = np.random.default_rng(13)
        # "symmetric": the dense Lambda of the reference is symmetric
        lam = {
            "zero": np.zeros(len(fes)),
            "symmetric": rng.standard_normal(len(fes)),
        }[lam_kind]
        v = rng.standard_normal((r, n))
        v /= np.linalg.norm(v, axis=0)
        sub = AugLagSubproblem(base, fes, lam, mu)
        f_dense, g_dense = dense_lagrangian(base, fes, lam, mu, v)
        f, g = sub.fg(v)
        assert abs(f - f_dense) <= 1e-12 * abs(f_dense)
        assert abs(sub.value(v) - f_dense) <= 1e-12 * abs(f_dense)
        assert np.linalg.norm(g - g_dense) <= 1e-12 * np.linalg.norm(g_dense)

    def test_empty_entry_set_is_exactly_the_base(self):
        base = gen_ex3(20, weighted=True, seed=1, r=3)
        fes = FixedEntrySet([], [], [])
        sub = AugLagSubproblem(base, fes, np.zeros(0), 1.0)
        rng = np.random.default_rng(2)
        v = rng.standard_normal((3, 20))
        v /= np.linalg.norm(v, axis=0)
        fb, gb = base.fg(v)
        fs, gs = sub.fg(v)
        assert fs == fb
        assert np.array_equal(gs, gb)
        assert sub.value(v) == base.value(v)

    def test_satisfied_entries_contribute_nothing(self):
        # columns v1 = v2 = e1, v3 = e2 satisfy (2,1)->1 and (3,1)->0 exactly
        base = LowRankCorrProblem(ex3_matrix(3), 2)
        fes = FixedEntrySet([2, 3], [1, 1], [1.0, 0.0])
        v = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        sub = AugLagSubproblem(base, fes, np.zeros(2), 25.0)
        assert sub.value(v) == base.value(v)
        assert np.array_equal(sub.fg(v)[1], base.fg(v)[1])

    def test_per_entry_penalty_oracle(self):
        base = gen_ex3(12, weighted=False, r=3)
        fes = sample_fixed_entries(12, 2, seed=3)
        rng = np.random.default_rng(4)
        lam = rng.standard_normal(len(fes))
        mu = 7.5
        v = rng.standard_normal((3, 12))
        v /= np.linalg.norm(v, axis=0)
        sub = AugLagSubproblem(base, fes, lam, mu)
        expected = base.value(v)
        for (i, j, q), l in zip(fes, lam):
            c_e = float(v[:, i - 1] @ v[:, j - 1]) - q
            expected += 0.5 * mu * (c_e - l / mu) ** 2
        assert sub.value(v) == pytest.approx(expected, rel=1e-13)

    def test_finite_difference_gradient(self):
        base = gen_ex3(10, weighted=True, seed=5, r=3)
        fes = sample_fixed_entries(10, 2, seed=6)
        rng = np.random.default_rng(7)
        lam = rng.standard_normal(len(fes))
        mu = 3.25
        v = rng.standard_normal((3, 10))
        v /= np.linalg.norm(v, axis=0)
        fg = AugLagSubproblem(base, fes, lam, mu).fg
        _, g = fg(v)
        h = 1e-6
        for _ in range(5):
            z = rng.standard_normal(v.shape)
            z /= np.linalg.norm(z)
            fd = (fg(v + h * z)[0] - fg(v - h * z)[0]) / (2.0 * h)
            assert abs(float(np.vdot(g, z)) - fd) <= 1e-5 * max(
                1.0, abs(fd)
            )

    def test_validation(self):
        base = gen_ex3(8, weighted=False, r=2)
        fes = sample_fixed_entries(8, 1, seed=8)
        for mu in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="mu"):
                AugLagSubproblem(base, fes, np.zeros(len(fes)), mu)
        with pytest.raises(ValueError):
            AugLagSubproblem(base, fes, np.zeros((8, 8)), 1.0)

    def test_metadata_and_consistency(self):
        base = gen_ex3(8, weighted=False, r=2)
        fes = sample_fixed_entries(8, 1, seed=9)
        sub = AugLagSubproblem(base, fes, np.zeros(len(fes)), 2.0)
        assert sub.shape == base.shape
        assert sub.name == "ex3+auglag"
        assert sub.manifold == "spheres"
        rng = np.random.default_rng(10)
        v = rng.standard_normal((2, 8))
        v /= np.linalg.norm(v, axis=0)
        f, g = sub.fg(v)
        assert f == sub.value(v)


class TestAugLagSolve:
    def test_empty_entry_set_single_solve(self):
        base = gen_ex3(25, weighted=False, r=3)
        rep = auglag_solve(base, FixedEntrySet([], [], []))
        assert rep.stop_reason == "NuTarget"
        assert rep.nu_final == 0.0
        assert rep.nu_trace == [0.0]
        assert rep.mu_trace == [1.0]
        assert len(rep.sub_reports) == 1
        assert np.array_equal(rep.lambda_final, np.zeros(0))
        assert rep.theta_final == rep.sub_reports[0].f_final
        assert rep.nlcmres_final == pytest.approx(
            base.nlcmres(rep.v_final), rel=1e-15
        )
        assert rep.f_initial == rep.sub_reports[0].f_history[0]
        assert unit_columns(rep.v_final, tol=1e-12)

    def test_weak_pairs_instance_meets_target_and_penalty_oracle(self):
        base, fes = synthetic_weak_instance()
        rep = auglag_solve(base, fes)
        assert rep.stop_reason == "NuTarget"
        assert rep.nu_final <= 3e-8
        assert unit_columns(rep.v_final)
        # outer-loop bookkeeping
        k = len(rep.sub_reports)
        assert len(rep.nu_trace) == len(rep.mu_trace) == k
        assert rep.mu_trace == [10.0**i for i in range(k)]
        assert rep.nfge_total == sum(r.nfge for r in rep.sub_reports)
        assert rep.iters_total == sum(r.iters for r in rep.sub_reports)
        assert rep.theta_final == pytest.approx(base.value(rep.v_final), rel=1e-15)
        # independent oracle: warm-started pure-penalty continuation to mu=1e10,
        # each solve starting from the last one's step over the growth of mu,
        # as the outer loop does (the problem is nonconvex, and a cold first
        # step leads the continuation to a different stationary point)
        v = modified_pca_init(base.c, base.r)
        zero = np.zeros(len(fes))
        tau0 = None
        for i in range(11):
            sub = AugLagSubproblem(base, fes, zero, 10.0**i)
            r = solve(
                sub, v,
                SolverConfig(eps=1e-5, eps_x=1e-5, eps_f=1e-8, max_iter=2000, tau0=tau0),
            )
            v, tau0 = r.x_final, r.tau_next / 10.0
        theta_pen = base.value(v)
        assert abs(rep.theta_final - theta_pen) <= 1e-3 * max(1.0, abs(theta_pen))

    def test_hard_instance_reduces_violation_by_orders_of_magnitude(self):
        base = gen_ex3(40, weighted=False, r=5)
        fes = sample_fixed_entries(40, 1, seed=7)
        rep = auglag_solve(base, fes)
        assert rep.stop_reason == "NuTarget"
        assert rep.nu_final <= 3e-8
        assert rep.nu_trace[0] > 1.0  # starts badly violated
        assert rep.nu_final < rep.nu_trace[0] * 1e-6

    @pytest.mark.parametrize("pins_seed", [12, 10007])
    def test_carried_step_reaches_target_on_corr_auglag_patterns(self, pins_seed):
        # with a cold first step in every sub-solve both patterns ended at
        # OuterCap, growing mu after sub-solves that stopped at MaxIter
        base = LowRankCorrProblem(ex3_matrix(200), 10)
        fes = sample_fixed_entries(200, 3, seed=pins_seed)
        rep = auglag_solve(base, fes, v0=modified_pca_init(base.c, 10))
        assert rep.stop_reason == "NuTarget"
        assert all(r.stop_reason != "LineSearchFail" for r in rep.sub_reports)
        assert max(r.feasi for r in rep.sub_reports) <= 1e-12

    def test_sub_solves_start_from_the_carried_step(self, monkeypatch):
        base, fes = synthetic_weak_instance()
        cfgs = []

        def spy(prob, v, cfg):
            cfgs.append(cfg)
            return solve(prob, v, cfg)

        monkeypatch.setattr(auglag, "solve", spy)
        rep = auglag_solve(base, fes)
        assert cfgs[0].tau0 is None
        assert [c.tau0 for c in cfgs[1:]] == [
            r.tau_next / auglag.MU_GROWTH for r in rep.sub_reports[:-1]
        ]

    def test_single_outer_multiplier_update(self):
        base, fes = synthetic_weak_instance()
        rep = auglag_solve(base, fes, AugLagConfig(max_outer=1))
        v1 = rep.v_final
        expected = -1.0 * ((v1.T @ v1)[fes.rows - 1, fes.cols - 1] - fes.values)
        assert np.array_equal(rep.lambda_final, expected)

    def test_outer_cap_flag(self):
        base = gen_ex3(40, weighted=False, r=5)
        fes = sample_fixed_entries(40, 1, seed=7)
        rep = auglag_solve(base, fes, AugLagConfig(max_outer=1))
        assert rep.stop_reason == "OuterCap"
        assert len(rep.sub_reports) == 1

    def test_contradictory_pins_end_at_outer_cap(self):
        # v2 = v1 and v3 = v1 force v3^T v2 = 1, but it is pinned to -1
        base = gen_ex3(30, weighted=False, r=3)
        fes = FixedEntrySet([2, 3, 3], [1, 1, 2], [1.0, 1.0, -1.0])
        rep = auglag_solve(base, fes)
        assert rep.stop_reason == "OuterCap"
        assert len(rep.sub_reports) == AugLagConfig().max_outer
        assert np.isfinite(rep.theta_final)
        assert rep.nu_final > auglag.NU_TARGET

    def test_pure_penalty_ladder_monotone(self):
        base = gen_ex3(40, weighted=False, r=5)
        fes = sample_fixed_entries(40, 1, seed=7)
        v0 = modified_pca_init(base.c, 5)
        zero = np.zeros(len(fes))
        nus = []
        for mu in (1.0, 10.0, 100.0, 1000.0):
            sub = AugLagSubproblem(base, fes, zero, mu)
            r = solve(
                sub, v0, SolverConfig(eps=1e-5, eps_x=1e-5, eps_f=1e-8, max_iter=4000)
            )
            nus.append(fes.violation(r.x_final))
        assert all(a > b for a, b in zip(nus, nus[1:]))

    def test_supplied_start_is_used(self):
        base, fes = synthetic_weak_instance()
        rng = np.random.default_rng(11)
        v0 = rng.standard_normal(base.shape)
        v0 /= np.linalg.norm(v0, axis=0)
        rep = auglag_solve(base, fes, AugLagConfig(max_outer=1), v0=v0)
        first = AugLagSubproblem(base, fes, np.zeros(len(fes)), 1.0)
        assert rep.f_initial == first.value(v0)

    def test_defaults(self):
        cfg = AugLagConfig()
        assert (cfg.sub_max_iter, cfg.max_outer, cfg.seed) == (2000, 30, None)
        assert [f.name for f in dataclasses.fields(cfg)] == ["sub_max_iter", "max_outer", "seed"]
        assert (auglag.MU0, auglag.MU_GROWTH, auglag.SHRINK) == (1.0, 10.0, 0.1)
        assert auglag.EPS_START == (1e-1, 1e-3, 1e-5)
        assert auglag.EPS_FLOOR == (1e-5, 1e-5, 1e-8)
        assert auglag.NU_TARGET == 3e-8

    def test_config_validation(self):
        for bad in (0, float("nan"), 2.5, 2.0):
            with pytest.raises(ValueError, match="max_outer"):
                AugLagConfig(max_outer=bad)
        for bad in (-1, float("nan"), 1.5):
            with pytest.raises(ValueError, match="sub_max_iter"):
                AugLagConfig(sub_max_iter=bad)
