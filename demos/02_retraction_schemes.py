"""Run every curve construction on the same problem and compare the runs.

All schemes share the solver loop and step-size rule; only the way the next
feasible iterate is built from the descent direction differs.
"""

import numpy as np

from stiefelbb import (
    GTAU_NAMES,
    GTAU_SENSITIVE,
    SCHEME_KINDS,
    SolverConfig,
    TraceEigenProblem,
    random_stiefel,
    solve,
)


def main():
    n, p = 200, 8
    rng = np.random.default_rng(7)
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    prob = TraceEigenProblem(a, p)
    x0 = random_stiefel(n, p, seed=7)
    target = -float(np.sort(np.linalg.eigvalsh(a))[-p:].sum())

    print(f"n = {n}, p = {p}, exact minimum = {target:.8f}")
    print(f"{'scheme':>10} {'gtau':>10} {'f_final':>14} {'feasi':>9} "
          f"{'nfge':>5} {'iters':>5} {'stop':>14}")
    for kind in SCHEME_KINDS:
        # g(tau) acts only on the kinds in GTAU_SENSITIVE
        gtaus = GTAU_NAMES if kind in GTAU_SENSITIVE else (None,)
        for gtau in gtaus:
            rep = solve(prob, x0, SolverConfig(scheme=kind, gtau=gtau or "linear"))
            print(f"{kind:>10} {gtau or '-':>10} {rep.f_final:>14.8f} "
                  f"{rep.feasi:>9.1e} {rep.nfge:>5} {rep.iters:>5} "
                  f"{rep.stop_reason:>14}")


if __name__ == "__main__":
    main()
