"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Each criterion is a single test function so the verbose run prints one
pass/fail line per guarantee. Runtime-sensitive criteria assert their own
wall-clock budgets.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from stiefelbb import (
    AugLagConfig,
    AugLagSubproblem,
    GeneralizedConstraint,
    HeterogeneousQuadraticProblem,
    LowRankCorrProblem,
    SolverConfig,
    TraceEigenProblem,
    auglag_solve,
    canonical_gradient,
    compare_schemes,
    compute_d_rho,
    drift_demo,
    ex3_matrix,
    feasibility_error,
    gen_ex2,
    gen_ex3,
    gtau_function,
    heterogeneous_problem,
    modified_pca_init,
    polar_project,
    random_stiefel,
    retract_generalized,
    retract_geodesic,
    retract_gradproj,
    retract_lowrank_column,
    retract_new,
    retract_polar,
    retract_qr,
    retract_wenyin,
    run_experiment,
    sample_fixed_entries,
    solve,
    solve_generalized,
)
from stiefelbb.bench import _build_parser


def test_criterion_01_feasibility_preservation():
    # every scheme keeps ||Y^T Y - I||_F <= 1e-12 over 1000 seeded triples
    # with n <= 64, p <= 16, tau ||E|| <= 10, in under 10 seconds
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 65))
        p = int(rng.integers(1, min(16, n) + 1))
        x = random_stiefel(n, p, seed=trial)
        g = rng.standard_normal((n, p))
        d = compute_d_rho(x, g, 0.25)
        tau = float(rng.uniform(0.0, 10.0)) / max(np.linalg.norm(d), 1e-30)
        for fn, arg in (
            (retract_new, d),
            (retract_polar, d),
            (retract_qr, d),
            (retract_gradproj, d),
            (retract_wenyin, d),
            (retract_geodesic, d),
            (retract_lowrank_column, g),
        ):
            worst = max(worst, feasibility_error(fn(x, arg).eval(tau)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_02_scheme_equivalences():
    # the low-memory evaluation equals the new scheme; with a symmetric
    # frame gradient the curve is a polar projection; both to 1e-11 in < 5 s
    rng = np.random.default_rng(31)
    t0 = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(3, 33))
        p = int(rng.integers(1, min(8, n) + 1))
        x = random_stiefel(n, p, seed=5000 + trial)
        g = rng.standard_normal((n, p))
        d = compute_d_rho(x, g, 0.25)
        tau = float(rng.uniform(0.0, 5.0)) / max(np.linalg.norm(d), 1e-30)
        y_new = retract_new(x, d).eval(tau)
        y_wy = retract_wenyin(x, d).eval(tau)
        assert np.linalg.norm(y_wy - y_new) <= 1e-11
    for trial in range(200):
        n, p = 12, 4
        x = random_stiefel(n, p, seed=6000 + trial)
        a = rng.standard_normal((n, n))
        a = a + a.T
        g = -2.0 * (a @ x)
        d = compute_d_rho(x, g, 0.25)
        tau = float(rng.uniform(0.0, 2.0)) / max(np.linalg.norm(d), 1e-30)
        m = (
            np.eye(p)
            + tau * (x.T @ g)
            - 0.25 * tau * tau * (g.T @ (g - x @ (x.T @ g)))
        )
        y2 = polar_project(x @ m - tau * g)
        assert np.linalg.norm(retract_new(x, d).eval(tau) - y2) <= 1e-11
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_condition_number_bounds():
    # cond(J) <= (5 + ups^2)/4 on 500 instances; the generalized system
    # carries an extra cond(K) factor, checked on 100 instances
    rng = np.random.default_rng(73)
    for trial in range(500):
        n = int(rng.integers(3, 33))
        p = int(rng.integers(1, min(10, n) + 1))
        x = random_stiefel(n, p, seed=7000 + trial)
        g = rng.standard_normal((n, p))
        rho = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        d = compute_d_rho(x, g, rho)
        dn = np.linalg.norm(d)
        if dn < 1e-12:
            continue
        tau = float(rng.uniform(0.0, 10.0)) / dn
        ups = tau * dn
        xtd = x.T @ d
        w = x @ xtd - d
        for name in ("linear", "expdamped"):
            j = np.eye(p) + 0.25 * tau * tau * (w.T @ w) + gtau_function(name)(
                tau
            ) * xtd
            assert np.linalg.cond(j) <= (5.0 + ups * ups) / 4.0 * (1.0 + 1e-10)
    for trial in range(100):
        n = int(rng.integers(4, 17))
        p = int(rng.integers(1, min(5, n) + 1))
        sub = np.random.default_rng(8000 + trial)
        b = sub.standard_normal((n, n))
        h = b @ b.T + 0.5 * np.eye(n)
        x0 = sub.standard_normal((n, p))
        k = x0.T @ h @ x0
        gc = GeneralizedConstraint(h, 0.5 * (k + k.T))
        g = sub.standard_normal((n, p))
        cur = retract_generalized(x0, g, gc)
        hd = np.sqrt(max(np.trace(cur.d.T @ h @ cur.d), 0.0))
        if hd < 1e-10:
            continue
        scale = hd / np.sqrt(np.linalg.norm(gc.k, 2))
        tau = float(sub.uniform(0.0, 5.0)) / scale
        ups = tau * scale
        j = cur.k + 0.25 * tau * tau * cur.wthw + cur.g(tau) * cur.xthd
        bound = (5.0 + ups * ups) / 4.0 * np.linalg.cond(gc.k)
        assert np.linalg.cond(j) <= bound * (1.0 + 1e-10)


def test_criterion_04_descent_inequalities():
    # initial slope F'(0) <= -min(rho,1) ||grad||^2 for the family, and
    # <= -(1/2p) ||grad||^2 for the single-column variant
    rng = np.random.default_rng(91)
    for rho in (0.25, 0.5, 1.0, 2.0):
        for trial in range(100):
            n = int(rng.integers(2, 33))
            p = int(rng.integers(1, min(10, n) + 1))
            x = random_stiefel(n, p, seed=9000 + trial)
            g = rng.standard_normal((n, p))
            d = compute_d_rho(x, g, rho)
            gn2 = float(np.linalg.norm(canonical_gradient(x, g)) ** 2)
            slope = -float(np.vdot(g, d))
            assert slope <= -min(rho, 1.0) * gn2 + 1e-12
    for trial in range(100):
        n = int(rng.integers(2, 33))
        p = int(rng.integers(1, min(10, n) + 1))
        x = random_stiefel(n, p, seed=9500 + trial)
        g = rng.standard_normal((n, p))
        curve = retract_lowrank_column(x, g)
        gn2 = float(np.linalg.norm(canonical_gradient(x, g)) ** 2)
        assert -curve.slope_inner <= -gn2 / (2.0 * p) + 1e-12


def test_criterion_05_gradient_correctness():
    # central differences at 1e-5 relative, 20 directions per problem
    rng = np.random.default_rng(42)
    a = rng.standard_normal((12, 12))
    a = a + a.T
    lam_rng = np.random.default_rng(43)
    fes = sample_fixed_entries(16, 2, seed=44)
    lam_half = fes.mask(16) * lam_rng.standard_normal((16, 16))
    ex3w = gen_ex3(16, weighted=True, seed=45, r=3)
    problems = [
        (TraceEigenProblem(a, 3), random_stiefel(12, 3, seed=46)),
        (TraceEigenProblem(lambda z: a @ z, 3, n=12), random_stiefel(12, 3, seed=47)),
        (heterogeneous_problem(10, 3, "random", seed=48), random_stiefel(10, 3, seed=49)),
        (gen_ex2(16, 3), None),
        (ex3w, None),
        (AugLagSubproblem(ex3w, fes, lam_half + lam_half.T, 3.5), None),
    ]
    h = 1e-6
    for prob, x in problems:
        if x is None:
            v = np.random.default_rng(50).standard_normal(prob.shape)
            x = v / np.linalg.norm(v, axis=0)
        f0, g0 = prob.fg(x)
        for _ in range(20):
            z = rng.standard_normal(x.shape)
            z /= np.linalg.norm(z)
            fd = (prob.value(x + h * z) - prob.value(x - h * z)) / (2.0 * h)
            assert abs(float(np.vdot(g0, z)) - fd) <= 1e-5 * max(1.0, abs(fd))


def test_criterion_06_eigenvalue_oracle():
    # n=100, p in {1, 4, 10}: at least 45/50 seeds recover the top-p
    # eigenvalue sum to 1e-6 relative; any stalled seed must still have cut
    # the residual by 1e3; under 60 s. Tolerances tightened below the
    # defaults so the inner loop itself reaches 1e-6 accuracy.
    t0 = time.perf_counter()
    cfg = SolverConfig(eps=1e-6, eps_x=1e-6, eps_f=1e-10)
    for p in (1, 4, 10):
        ok = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 * p + seed)
            a = rng.standard_normal((100, 100))
            a = (a + a.T) / 2.0
            prob = TraceEigenProblem(a, p)
            x0 = random_stiefel(100, p, seed=seed)
            rep = solve(prob, x0, cfg)
            target = float(np.sort(np.linalg.eigvalsh(a))[-p:].sum())
            if abs(-rep.f_final - target) <= 1e-6 * abs(target):
                ok += 1
            else:
                d0 = np.linalg.norm(compute_d_rho(x0, prob.grad(x0), cfg.rho))
                assert rep.residual_final <= 1e-3 * d0
        assert ok >= 45
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_correlation_residual_reproduction():
    # long-range target residuals within 1% of the published values and the
    # banded-decay target within 5%, unit weights, PCA starts, < 60 s
    t0 = time.perf_counter()
    for gen, targets, band in (
        (
            lambda r: gen_ex3(500, weighted=False, r=r),
            {5: 7.883e01, 20: 1.571e01, 50: 4.139e00},
            0.01,
        ),
        (lambda r: gen_ex2(500, r), {5: 41.13, 20: 5.280, 50: 1.340}, 0.05),
    ):
        for r, target in targets.items():
            prob = gen(r)
            rep = solve(prob, modified_pca_init(prob.c, r), SolverConfig(seed=0))
            res = prob.nlcmres(rep.x_final)
            assert abs(res - target) <= band * target
            assert rep.feasi <= 1e-13
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_known_optimum_and_direction_pairing():
    # planted optimum recovered to 1e-5 mean relative error on 50 seeds for
    # p in {2, 10}; the Euclidean direction saves evaluations against the
    # canonical one at p=10 (at p=2 the published comparison itself reports
    # a small positive ratio, so the sign is asserted where the effect exists)
    for p in (2, 10):
        prob = heterogeneous_problem(200, p, "minus-one")
        errs = [
            abs(
                solve(
                    prob, random_stiefel(200, p, seed=s), SolverConfig(seed=s)
                ).f_final
                + p
            )
            / p
            for s in range(50)
        ]
        assert float(np.mean(errs)) <= 1e-5
    prob = heterogeneous_problem(200, 10, "minus-one")
    rows = compare_schemes(
        prob, [SolverConfig(rho=0.25), SolverConfig(rho=0.5)], seeds=range(50)
    )
    assert rows[0]["a_s_ratio"] < 0.0


def test_criterion_09_feasibility_drift_control():
    # 2000-iteration demonstration: the corrected construction holds drift
    # at roundoff while the literal formulas let it escape
    controlled = drift_demo(2000, 6, 2000, True, seed=0)
    plain = drift_demo(2000, 6, 2000, False, seed=0)
    assert len(controlled) == 2000
    assert max(controlled) <= 1e-12
    assert plain[-1] > max(controlled)


def test_criterion_10_generalized_constraint_preservation():
    # random SPD H, K = I, n=50, p=3: the constraint holds to 1e-10 at every
    # iterate and the residual drops by at least four orders of magnitude
    rng = np.random.default_rng(42)
    b = rng.standard_normal((50, 50))
    h = b @ b.T + 50.0 * np.eye(50)
    gc = GeneralizedConstraint(h, np.eye(3))
    a = rng.standard_normal((50, 50))
    prob = TraceEigenProblem(a + a.T, 3)
    l = sla.cholesky(h, lower=True)
    x0 = sla.solve_triangular(l, random_stiefel(50, 3, seed=0), lower=True, trans="T")
    res0 = solve_generalized(prob, x0, gc, SolverConfig(max_iter=0)).residual_final
    cfg = SolverConfig(
        eps=1e-5, eps_x=1e-8, eps_f=1e-12, max_iter=5000, track_feasibility=True
    )
    rep = solve_generalized(prob, x0, gc, cfg)
    assert max(rep.feasibility_trace) <= 1e-10
    assert rep.residual_final <= 1e-4 * res0


def test_criterion_11_fixed_entry_outer_loop():
    # desk-scale version of the prescribed-entry experiment: n=200, r=10,
    # three zero constraints sampled per row, five seeds, nu <= 3e-8
    c = ex3_matrix(200)
    v0 = modified_pca_init(c, 10)
    for seed in range(5):
        prob = LowRankCorrProblem(c, 10, name="ex10")
        fes = sample_fixed_entries(200, n_e=3, seed=seed)
        rep = auglag_solve(prob, fes, AugLagConfig(seed=seed), v0=v0)
        assert rep.nu_final <= 3e-8


def test_criterion_12_record_stream_determinism():
    # identical flags and seed produce identical record streams (timing
    # fields excluded: wall-clock is not a deterministic quantity)
    parser = _build_parser()
    argv = ["run", "eigen", "--n", "30", "--ranks", "2,3", "--repeat", "2",
            "--seed", "11"]
    streams = []
    for _ in range(2):
        records = run_experiment(parser.parse_args(argv))
        rows = []
        for r in records:
            d = r.to_dict()
            d.pop("wall_ms")
            rows.append(d)
        streams.append(rows)
    assert streams[0] == streams[1]
