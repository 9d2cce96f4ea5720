"""Noise-mechanism construction and utility evaluation.

The central construction: on a connected graph whose distance profile is
base-independent, scale r^d(i,j) by the shared normaliser
c = 1 / sum_d n_d r^d to get a row-stochastic channel.  Its adjacent-row
ratios are exactly e^epsilon, so privacy holds with equality, and under the
uniform prior its binary utility is exactly c, the theoretical ceiling.
The same kernel applied to the secret domain maximises leakage instead
(attacker's and user's optima coincide in the binary picture).

Graphs whose profile depends on the base vertex are refused rather than
silently row-normalised: per-row normalisation constants break the ratio
constraint between rows.

Utilities are expected gains over a guess strategy; the binary gain with an
optimal guess collapses to the attacker's posterior success probability,
an identity the tests cross-check module against module.
"""

import json
import operator
from dataclasses import dataclass
from fractions import Fraction

from .bounds import profile_core
from .channels import (
    ChannelMatrix,
    PrivacyParameter,
    _csv_rows,
    as_fraction,
    posterior_success,
)
from .graphs import DisconnectedGraphError, Graph, common_profile


class BaseDependentProfileError(ValueError):
    """The graph's distance profile varies with the base vertex.

    A single shared normaliser cannot make the distance kernel
    row-stochastic on such graphs, and per-row constants would break the
    adjacent-ratio guarantee, so synthesis refuses with a diagnostic.
    """


@dataclass(frozen=True)
class MechanismBundle:
    """A synthesised randomiser: answer graph, channel, level, normaliser."""

    graph: Graph
    matrix: ChannelMatrix
    pp: PrivacyParameter
    c: Fraction

    def to_dict(self):
        return {
            "graph": self.graph.to_dict(),
            "matrix": self.matrix.to_dict(),
            "r_num": self.pp.r.numerator,
            "r_den": self.pp.r.denominator,
            "c_num": self.c.numerator,
            "c_den": self.c.denominator,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        return cls(
            Graph.from_dict(d["graph"]),
            ChannelMatrix.from_dict(d["matrix"]),
            PrivacyParameter(Fraction(d["r_num"], d["r_den"])),
            Fraction(d["c_num"], d["c_den"]),
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def optimal_mechanism(graph, pp):
    """Synthesise the maximum-utility channel at the requested privacy level.

    The channel is the distance kernel c * r^distance.  It is exactly at the
    privacy boundary (every adjacent ratio is e^epsilon when the graph has
    an edge) and its uniform-prior binary utility equals the normaliser c,
    which is the utility ceiling for the graph's profile.  The same kernel,
    viewed as a worst-case channel on the secret domain, meets the
    posterior-entropy floor with equality.
    """
    if not graph.is_connected:
        raise DisconnectedGraphError("mechanism synthesis needs a connected graph")
    base_profile = common_profile(graph)
    if base_profile is None:
        counts = graph.profile_counts
        base = next(v for v, other in enumerate(counts) if other != counts[0])
        raise BaseDependentProfileError(
            "distance profile differs between vertices "
            f"{graph.label(0)} {counts[0]} and {graph.label(base)} {counts[base]}; "
            "a shared normaliser cannot make the distance kernel row-stochastic")
    # With r = p/q and diameter D, c * r^d = p^d q^(D-d) / (core * q^D), and
    # core * q^D = sum_d n_d p^d q^(D-d) is the integer every row shares.
    core = profile_core(base_profile, pp)
    p, q = pp.r.numerator, pp.r.denominator
    top = max(graph.base_row)      # all vertices share the profile: the diameter
    weights = [p ** d * q ** (top - d) for d in range(top + 1)]
    # Carried from row 0, the kernel meets _is_invariant's rule by
    # construction; it records the graph it was carried on.
    rows = graph.carried([weights[d] for d in graph.base_row])
    matrix = ChannelMatrix(
        rows or [[weights[d] for d in row] for row in graph.distance_matrix.dist],
        graph.labels, graph.labels, denominators=[int(core * q ** top)] * graph.n)
    object.__setattr__(matrix, "_carried_on", graph if rows else None)
    return MechanismBundle(graph, matrix, pp, 1 / core)


def utility(prior, matrix, gain=None, guess=None):
    """Expected gain of a guess strategy against the channel.

    ``gain`` is None for the binary gain (1 for exact recovery, 0
    otherwise) or a square table ``gain[guess][truth]`` over the answer
    set, its values read by :func:`as_fraction`.  ``guess`` is None for the
    optimal guess or one answer index per output, total over the output
    set.  With the binary gain and the optimal guess this is exactly the
    posterior success probability (guess the most plausible answer per
    output).  All arithmetic is exact.
    """
    n, m = matrix.rows, matrix.cols
    if len(prior) != n:
        raise ValueError("prior length must match the matrix rows")
    if gain is not None:
        gain = [[as_fraction(x) for x in row] for row in gain]
        if any(len(row) != len(gain) for row in gain):
            raise ValueError("gain table must be square")
        if len(gain) != n:
            raise ValueError("gain table must be indexed by the answer set")
    if guess is not None:
        if len(guess) != m:
            raise ValueError("guess map must be total over the output set")
        if any(not 0 <= y < n for y in guess):
            raise ValueError("guess map targets unknown answers")

    if gain is None and guess is None:
        return posterior_success(prior, matrix)
    joint, den = matrix.scaled_rows(prior.probs)     # p(y) M[y][z] == joint[y][z] / den
    if gain is None:
        return Fraction(sum(joint[y][z] for z, y in enumerate(guess)), den)
    total = 0
    for z, col in enumerate(zip(*joint)):
        cands = range(n) if guess is None else (guess[z],)
        total += max(sum(map(operator.mul, col, gain[cand])) for cand in cands)
    return Fraction(total, den)


def compose_oblivious(secret_graph, answer_map, bundle):
    """Chain a query in front of a randomiser that only sees its answer.

    ``answer_map[x]`` is the answer index the query assigns to secret x; it
    must land inside the randomiser's input rows.  The composite channel
    copies the randomiser's row for each secret.  Also returns the graph
    the secret adjacency induces on answers (two answers are adjacent when
    some adjacent secrets produce them), on which the randomiser's audit
    and the composite's audit agree.
    """
    f = tuple(int(x) for x in answer_map)
    if len(f) != secret_graph.n:
        raise ValueError("answer map must be total over the secret domain")
    if any(not 0 <= y < bundle.matrix.rows for y in f):
        raise ValueError("answer map image is not covered by the randomiser's rows")
    matrix = bundle.matrix
    composite = ChannelMatrix([matrix.numerators[y] for y in f], secret_graph.labels,
                              matrix.col_labels, denominators=[matrix.denominators[y] for y in f])
    induced = ((f[i], f[j]) for i, j in secret_graph.edge_list if f[i] != f[j])
    answer_graph = Graph(bundle.graph.n, induced, bundle.graph.labels)
    return composite, answer_graph


def truncated_geometric_fixture():
    """The published truncated-geometric mechanism for the six-city election
    example, transcribed verbatim (three-decimal entries, which happen to
    sum to exactly 1 per row)."""
    labels = ("A", "B", "C", "D", "E", "F")
    rows = [
        ["0.535", "0.060", "0.052", "0.046", "0.040", "0.267"],
        ["0.465", "0.069", "0.060", "0.053", "0.046", "0.307"],
        ["0.405", "0.060", "0.069", "0.060", "0.053", "0.353"],
        ["0.353", "0.053", "0.060", "0.069", "0.060", "0.405"],
        ["0.307", "0.046", "0.053", "0.060", "0.069", "0.465"],
        ["0.267", "0.040", "0.046", "0.052", "0.060", "0.535"],
    ]
    return ChannelMatrix.from_rows(rows, labels, labels)


def f_map_from_csv(text, secret_labels, answer_labels):
    """Parse ``secret_label,answer_label`` lines into an index map."""
    secret_index = {lab: i for i, lab in enumerate(secret_labels)}
    answer_index = {lab: i for i, lab in enumerate(answer_labels)}
    mapping = {}
    for row in _csv_rows(text):
        if len(row) != 2:
            raise ValueError("query map lines must be 'secret,answer'")
        x, y = row
        if x not in secret_index:
            raise ValueError(f"unknown secret label {x!r}")
        if y not in answer_index:
            raise ValueError(f"unknown answer label {y!r}")
        if secret_index[x] in mapping:
            raise ValueError(f"secret label {x!r} mapped twice")
        mapping[secret_index[x]] = answer_index[y]
    if len(mapping) != len(secret_labels):
        raise ValueError("query map must cover every secret exactly once")
    return tuple(mapping[i] for i in range(len(secret_labels)))
