"""Low-rank correlation fit with prescribed entries via multiplier updates.

A handful of strictly-lower entries of the fitted matrix are pinned to zero.
Each outer iteration solves a smooth penalized subproblem on the manifold,
then refreshes the multipliers and grows the penalty until the combined
optimality-and-violation measure drops below the target.
"""

from stiefelbb import (
    AugLagConfig,
    LowRankCorrProblem,
    auglag_solve,
    ex3_matrix,
    modified_pca_init,
    sample_fixed_entries,
)


def main():
    n, r = 200, 10
    c = ex3_matrix(n)
    prob = LowRankCorrProblem(c, r)
    fes = sample_fixed_entries(n, n_e=3, seed=0)
    rep = auglag_solve(prob, fes, AugLagConfig(seed=0),
                       v0=modified_pca_init(c, r))

    print(f"n = {n}, r = {r}, {len(fes)} pinned entries")
    print(f"{'outer':>5} {'mu':>9} {'nu':>10}")
    for k, (mu, nu) in enumerate(zip(rep.mu_trace, rep.nu_trace), start=1):
        print(f"{k:>5} {mu:>9.0e} {nu:>10.3e}")
    print(f"stop: {rep.stop_reason}  theta = {rep.theta_final:.6f}  "
          f"violation sum = {fes.violation(rep.v_final):.3e}")
    print(f"distance residual = {rep.nlcmres_final:.6f}")


if __name__ == "__main__":
    main()
