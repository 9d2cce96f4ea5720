#!/usr/bin/env python3
"""Audit a published mechanism and read off its information-flow profile.

The running example: six cities A..F, a query asking which city produced
the most votes for some candidate, so every pair of answers is adjacent
(getting an answer wrong by "a little" does not exist).  We audit the
published truncated-geometric mechanism against that clique, then compare
its leakage and utility to the synthesised optimum at the same privacy
level.
"""

import math
from fractions import Fraction

from dpchannel import (
    PrivacyParameter,
    Prior,
    build_clique,
    column_maxima_sum,
    dp_audit,
    leakage,
    min_capacity,
    min_entropy,
    optimal_mechanism,
    posterior_min_entropy,
    posterior_success,
    truncated_geometric_fixture,
)


def report(name, matrix, graph, pp, prior):
    audit = dp_audit(matrix, graph)
    success = posterior_success(prior, matrix)
    print(f"--- {name} ---")
    print(f"eps_star          : {audit.eps_star:.6f}"
          f"  (declared epsilon {pp.epsilon:.6f})")
    if audit.worst_witness:
        i, h, j = audit.worst_witness
        print(f"worst ratio       : {audit.max_ratio} at rows"
              f" {matrix.row_labels[i]}/{matrix.row_labels[h]},"
              f" column {matrix.col_labels[j]}")
    print(f"prior min-entropy : {min_entropy(prior):.6f} bits")
    print(f"posterior success : {success} = {float(success):.4f}"
          f"  ({posterior_min_entropy(prior, matrix):.6f} bits)")
    print(f"leakage           : {leakage(prior, matrix):.6f} bits")
    print(f"min-capacity      : {min_capacity(matrix):.6f} bits"
          f"  (column-maxima sum {column_maxima_sum(matrix)})")
    print()


def main():
    graph = build_clique(6)
    pp = PrivacyParameter(Fraction(1, 2))  # epsilon = ln 2
    uniform = Prior.uniform(6)

    geometric = truncated_geometric_fixture()
    synthesised = optimal_mechanism(graph, pp).matrix

    print(f"privacy level: epsilon = ln 2 = {math.log(2):.6f}\n")
    report("published truncated-geometric mechanism", geometric, graph, pp, uniform)
    report("synthesised distance-kernel mechanism", synthesised, graph, pp, uniform)

    print("note: the published table is printed to three decimals, which pushes")
    print("its audit 0.0019 above ln 2; audit it with tolerance 1e-2 to absorb")
    print("the rounding, or with the default 1e-9 to see the overshoot.\n")

    city = Prior((Fraction(1, 10), Fraction(1, 5), Fraction(1, 5),
                  Fraction(1, 5), Fraction(1, 5), Fraction(1, 10)))
    for name, m in (("geometric", geometric), ("synthesised", synthesised)):
        u_uni = posterior_success(uniform, m)
        u_city = posterior_success(city, m)
        print(f"utility of {name:11s}: uniform prior {float(u_uni):.4f},"
              f" skewed prior {float(u_city):.4f}")
    print("\nthe synthesised mechanism wins under both priors: 2/7 = 0.2857 exactly.")


if __name__ == "__main__":
    main()
