"""Canonical-form rewriting of privacy-constrained channels.

A channel with at least as many outputs as inputs can be rewritten, without
losing privacy or changing a uniform-prior attacker's success probability,
into progressively more symmetric shapes:

1. diagonal stage: merge every column into the diagonal position of the row
   holding its maximum (ties to the lowest row index).  Summing columns
   whose maxima share a row adds the maxima, so the column-maxima sum (and
   with it the uniform-prior success) is preserved exactly, and a sum of
   ratios each within e^epsilon stays within e^epsilon.

2. symmetric stage: average the diagonal-stage matrix over the graph's
   symmetry.  For a distance-regular graph each entry becomes the mean of
   its distance class; for a graph with a sharply transitive automorphism
   family each entry becomes the mean over the family's relabelings.
   Either way the diagonal entries all become the global maximum, equal to
   the mean of the previous diagonal.

Both guarantees are exact rational identities, re-verified by the test
suite on seeded random privacy-feasible channels rather than trusted.
"""

import itertools
import math
from dataclasses import dataclass

from .channels import ChannelMatrix
from .graphs import (
    DEFAULT_SEARCH_EFFORT,
    distance_profile,
    is_distance_regular,
    vt_plus_certificate,
)

STAGE_DIAGONAL = "diagonal"
STAGE_SYMMETRIC = "symmetric"


class SymmetryRequiredError(ValueError):
    """The graph carries neither symmetry the averaging step relies on."""


@dataclass(frozen=True)
class CanonicalForm:
    """A rewritten channel plus the provenance of how it was obtained.

    ``merge_map[j]`` records the row whose diagonal column absorbed input
    column j.  ``symmetry`` names the averaging used for the symmetric
    stage, None before symmetrisation.
    """

    matrix: ChannelMatrix
    stage: str
    merge_map: tuple | None = None
    symmetry: str | None = None

    def __post_init__(self):
        if self.stage not in (STAGE_DIAGONAL, STAGE_SYMMETRIC):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.merge_map is not None:
            object.__setattr__(self, "merge_map", tuple(self.merge_map))
        m = self.matrix
        n = m.rows
        if m.cols < n:
            raise ValueError("canonical forms carry at least as many columns as rows")
        rows, _ = m.scaled_rows()
        cols = list(zip(*rows))
        if any(cols[i][i] != max(cols[i]) for i in range(n)):
            raise ValueError("diagonal entries must carry their column maximum")
        if any(map(any, cols[n:])):
            raise ValueError("columns beyond the square block must be zero")
        # Equal diagonal entries, each its column's maximum with the surplus
        # columns zero, are the global maximum.
        if self.stage == STAGE_SYMMETRIC and len({rows[i][i] for i in range(n)}) != 1:
            raise ValueError("symmetric stage requires equal diagonal entries")


def to_diagonal_form(matrix, graph):
    """Merge columns onto the diagonal of their maximising row.

    Requires as many outputs as inputs.  Rows keep their order; column j of
    the result is the sum of all input columns whose maximum sits in row j,
    or zero if no column elected row j.  Surplus output columns stay as
    explicit zero columns so the shape is unchanged.
    """
    n, m = matrix.rows, matrix.cols
    if graph.n != n:
        raise ValueError("matrix rows must match the graph's vertex count")
    if n > m:
        raise ValueError("diagonalisation needs at least as many outputs as inputs")
    rows, _ = matrix.scaled_rows()
    assign = tuple(col.index(max(col)) for col in zip(*rows))
    nums = [[0] * m for _ in range(n)]
    for row, target in zip(matrix.numerators, nums):
        for j, x in enumerate(row):
            target[assign[j]] += x
    # a surplus column's name z{k} may already label a row; skip those names
    taken = set(matrix.row_labels)
    spare = (f"z{k}" for k in itertools.count(n) if f"z{k}" not in taken)
    col_labels = matrix.row_labels + tuple(itertools.islice(spare, m - n))
    merged = ChannelMatrix(nums, matrix.row_labels, col_labels,
                           denominators=matrix.denominators)
    return CanonicalForm(merged, STAGE_DIAGONAL, merge_map=assign)


def _require_diagonal(cf):
    if cf.stage != STAGE_DIAGONAL:
        raise ValueError("symmetrisation expects a diagonal-stage canonical form")


def symmetrize_distance_regular(cf, graph):
    """Average each entry over its distance class.

    The graph's ``intersection_array``, counted once per graph, must exist;
    a graph that is not distance-regular is a precondition error.
    """
    _require_diagonal(cf)
    if graph.intersection_array is None:
        raise ValueError("the graph is not distance-regular")
    # Class d's mean is sums[d] / (den * n * counts[d]); over the one row
    # denominator den * n * lcm(counts) its numerator is an integer.
    n, m = graph.n, cf.matrix.cols
    dm = graph.distance_matrix
    counts = distance_profile(graph).counts
    rows, den = cf.matrix.scaled_rows()
    sums = [0] * len(counts)
    for drow, row in zip(dm.dist, rows):
        for d, x in zip(drow, row):
            sums[d] += x
    scale = math.lcm(*counts)
    avg = [s * (scale // k) for s, k in zip(sums, counts)]
    nums = [[avg[d] for d in drow] + [0] * (m - n) for drow in dm.dist]
    matrix = ChannelMatrix(nums, cf.matrix.row_labels, cf.matrix.col_labels,
                           denominators=[den * n * scale] * n)
    return CanonicalForm(matrix, STAGE_SYMMETRIC, cf.merge_map, "distance_regular")


def symmetrize_vt_plus(cf, graph):
    """Average each entry over the relabelings of ``graph.certified_family``.

    The family, verified when it was recorded, must exist; a graph without
    one is a precondition error.  Because the family moves any fixed vertex
    through every position exactly once, all diagonal entries of the result
    equal the mean of the previous diagonal.
    """
    _require_diagonal(cf)
    family = graph.certified_family
    if family is None:
        raise ValueError("the graph carries no certified automorphism family")
    n, m = graph.n, cf.matrix.cols
    rows, den = cf.matrix.scaled_rows()
    nums = [[0] * m for _ in range(n)]
    for perm in family.perms:
        for i in range(n):
            row = rows[perm[i]]
            target = nums[i]
            for j in range(n):
                target[j] += row[perm[j]]
    matrix = ChannelMatrix(nums, cf.matrix.row_labels, cf.matrix.col_labels,
                           denominators=[den * n] * n)
    return CanonicalForm(matrix, STAGE_SYMMETRIC, cf.merge_map, "vt_plus")


def canonicalize(matrix, graph, effort=DEFAULT_SEARCH_EFFORT):
    """Full pipeline: :func:`to_diagonal_form`, then one public symmetric step.

    Distance-regularity is preferred, with :func:`symmetrize_distance_regular`
    when ``is_distance_regular(graph)`` finds an array; otherwise :func:`symmetrize_vt_plus`
    averages over the family :func:`vt_plus_certificate` certifies, and
    always on a disconnected graph, where distance-regularity is undefined.
    Raises ``SymmetryRequiredError`` when neither applies (or could be
    certified within the search budget).  Each proof is made once per
    graph: either step reads what the graph recorded, the intersection
    array or the certificate's family.
    """
    cf = to_diagonal_form(matrix, graph)
    if graph.is_connected and is_distance_regular(graph) is not None:
        return symmetrize_distance_regular(cf, graph)
    cert = vt_plus_certificate(graph, effort)
    if cert.status == "yes":
        return symmetrize_vt_plus(cf, graph)
    raise SymmetryRequiredError(
        "graph is neither distance-regular nor certifiably vertex-transitive "
        f"(certificate search said {cert.status!r})")
