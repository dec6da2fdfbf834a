"""Show why the curve evaluation re-anchors itself to the constraint.

Two long runs on the same ill-conditioned instance: the "new" kind
evaluates the curve with the feasibility-controlled construction (W
re-anchored by a solve with X^T X, np.linalg.solve(X^T X, X^T D), plus an
algebraically skew J block), the "literal" kind applies the textbook
formulas as written. The literal version lets roundoff in X^T X feed back
into every step.
"""

from stiefelbb import drift_demo


def main():
    n, p, steps = 1000, 6, 1000
    controlled = drift_demo(n, p, steps, True, seed=0)
    plain = drift_demo(n, p, steps, False, seed=0)

    # the literal run may stop early once drift wrecks the line search: at
    # n = 1000 it ends at LineSearchFail after 21 of the 1000 iterations
    print(f"n = {n}, p = {p}, requested {steps} iterations "
          f"(controlled ran {len(controlled)}, literal ran {len(plain)})")
    print(f"{'iter':>5} {'controlled':>12} {'literal':>12}")
    for k in (0, 9, 99, 499, steps - 1):
        c = f"{controlled[k]:.3e}" if k < len(controlled) else "-"
        lit = f"{plain[k]:.3e}" if k < len(plain) else "-"
        print(f"{k + 1:>5} {c:>12} {lit:>12}")
    print(f"max controlled drift: {max(controlled):.3e}")
    print(f"max literal drift:    {max(plain):.3e}")


if __name__ == "__main__":
    main()
