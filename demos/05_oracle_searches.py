#!/usr/bin/env python3
"""Try to beat the synthesiser; fail in three instructive ways.

1. Exhaustive grid search on tiny domains: every row-stochastic matrix on
   the grid, filtered by the exact audit.  The best it finds is the bound.
2. Hillclimbing from below: random feasible mass transfers climb toward
   the ceiling but never cross it; started at the synthesised optimum,
   every single improving proposal is rejected by the audit.
3. A stream of seeded random feasible channels: none leaks more than the
   closed-form ceiling allows.
"""

from fractions import Fraction

from dpchannel import (
    ChannelMatrix,
    PrivacyParameter,
    Prior,
    build_clique,
    build_cycle,
    distance_profile,
    grid_search_optimal,
    hillclimb_utility,
    posterior_success,
    random_dp_sample,
    utility_bound,
)

HALF = PrivacyParameter(Fraction(1, 2))


def main():
    print("=== exhaustive grid search (epsilon = ln 2) ===")
    for g, step in ((build_clique(2), Fraction(1, 24)), (build_clique(3), Fraction(1, 16))):
        bound = utility_bound(distance_profile(g), HALF).probability
        report = grid_search_optimal(g, HALF, step)
        print(f"  n={g.n}: {report.trials} feasible grid matrices, best utility"
              f" {report.best_utility} vs bound {bound}")

    print("\n=== hillclimb from the uniform channel, K2 ===")
    g = build_clique(2)
    start = ChannelMatrix.from_rows([[Fraction(1, 2)] * 2] * 2)
    for iters in (100, 1000, 4000):
        report = hillclimb_utility(g, HALF, iters=iters, seed=7, start=start)
        print(f"  {iters:5d} iterations -> best {report.best_utility}"
              f" = {float(report.best_utility):.4f} (bound 2/3 = 0.6667)")

    print("\n=== hillclimb from the synthesised optimum ===")
    for g, bound in ((build_clique(6), "2/7"), (build_cycle(6), "8/21")):
        for seed in (1, 2, 3):
            report = hillclimb_utility(g, HALF, iters=10_000, seed=seed)
            assert str(report.best_utility) == bound
        print(f"  n={g.n}: 3 seeds x 10000 proposals, never moved above {bound}")

    print("\n=== random feasible channels never exceed the ceiling ===")
    g = build_cycle(6)
    bound = utility_bound(distance_profile(g), HALF).probability
    uniform = Prior.uniform(g.n)
    best = max(posterior_success(uniform, m)
               for m in random_dp_sample(g, HALF, 200, seed=99))
    print(f"  200 samples on cycle:6, best utility {best} = {float(best):.4f}"
          f" vs bound {bound} = {float(bound):.4f}")


if __name__ == "__main__":
    main()
