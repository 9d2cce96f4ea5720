#!/usr/bin/env python3
"""Watch the canonical-form pipeline rewrite a messy feasible channel.

Starting from a seeded random channel over the Petersen graph that passes
the exact privacy audit, the pipeline first merges columns onto the
diagonal of their maximising row, then averages entries over distance
classes.  Both steps preserve the uniform-prior attacker success as an
exact rational identity and never weaken the audit; by the end the matrix
is a pure function of graph distance and its diagonal is the global
maximum.
"""

from fractions import Fraction

from dpchannel import (
    PrivacyParameter,
    Prior,
    build_petersen,
    dp_audit,
    is_distance_regular,
    posterior_success,
    random_dp_sample,
    symmetrize_distance_regular,
    to_diagonal_form,
)


def show(title, matrix, graph, uniform):
    audit = dp_audit(matrix, graph)
    success = posterior_success(uniform, matrix)
    print(f"{title}")
    print(f"  shape {matrix.rows}x{matrix.cols},"
          f" eps_star {audit.eps_star:.6f},"
          f" uniform success {success} = {float(success):.6f}")


def main():
    graph = build_petersen()
    pp = PrivacyParameter(Fraction(1, 2))
    uniform = Prior.uniform(graph.n)
    array = is_distance_regular(graph)
    print(f"graph: petersen, intersection array b={tuple(array.b)} c={tuple(array.c)}\n")

    for k, matrix in enumerate(random_dp_sample(graph, pp, 3, seed=2024)):
        print(f"=== sample {k} ===")
        show("raw sampled channel", matrix, graph, uniform)

        cf = to_diagonal_form(matrix, graph)
        show("diagonal stage", cf.matrix, graph, uniform)
        merged = {target: cf.merge_map.count(target) for target in set(cf.merge_map)}
        widest = max(merged.values())
        print(f"  column merges: {len(cf.merge_map)} columns into"
              f" {len(merged)} diagonal slots (largest slot took {widest})")

        out = symmetrize_distance_regular(cf, graph)
        show("symmetric stage", out.matrix, graph, uniform)
        row0 = out.matrix.entries[0][:graph.n]
        print(f"  row 0 is now distance-graded: {[str(x) for x in row0]}")
        print()

    print("success probabilities match line for line: the rewriting is lossless")
    print("for a one-try attacker, which is exactly why bounds proved for the")
    print("symmetric shape apply to every feasible channel.")


if __name__ == "__main__":
    main()
