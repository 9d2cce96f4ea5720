"""Brute-force chained ratio scan, kept as a test oracle for the edge audit.

A channel meets the privacy level at ratio r iff M[i][j] <= M[h][j] / r^d(i,h)
for every ordered pair of vertices at finite distance and every column.
Distance-1 pairs are the edges and the single-step constraint chains along
shortest paths, so this O(n^2 m) scan agrees with the zero-tolerance
``dp_audit(m, g).is_dp(pp, 0)``; the tests check that equivalence rather
than trust it.
"""

from dataclasses import dataclass

from dpchannel import UNREACHABLE, distances


@dataclass(frozen=True)
class DistanceRatioAudit:
    """Result of the chained ratio check at every distance, not just 1."""

    ok: bool
    worst_witness: tuple | None


def distance_ratio_audit(matrix, graph, pp):
    """Check M[i][j] <= M[h][j] / r^d(i,h) for every ordered pair and column.

    Any channel passing :func:`dp_audit` at the same level passes here too,
    because the single-step ratio constraint chains along shortest paths.
    Pairs in different components are unconstrained.
    """
    if matrix.rows != graph.n:
        raise ValueError("matrix rows must match the graph's vertex count")
    dm = distances(graph)
    r = pp.r
    powers = [r ** d for d in range(dm.diameter + 1)]
    worst = None
    worst_excess = None
    for i in range(graph.n):
        for h in range(graph.n):
            if i == h:
                continue
            d = dm.dist[i][h]
            if d == UNREACHABLE:
                continue
            scale = powers[d]
            for j in range(matrix.cols):
                lhs = matrix.entries[i][j] * scale
                rhs = matrix.entries[h][j]
                if lhs > rhs:
                    excess = lhs - rhs
                    if worst_excess is None or excess > worst_excess:
                        worst_excess = excess
                        worst = (i, h, j)
    return DistanceRatioAudit(worst is None, worst)
