"""Finite simple graphs and their symmetry structure.

Everything downstream (channel audits, leakage bounds, mechanism synthesis)
is driven by an undirected adjacency structure: the domain of secrets, the
domain of query answers, or the clique of values a single participant can
take.  This module builds the standard domains (Hamming product domains,
cliques, cycles, paths, the Petersen graph) and classifies the two
symmetry families everything else relies on:

* distance-regular graphs, certified by an intersection array, and
* graphs admitting n automorphisms that move any fixed vertex through
  every position exactly once (a sharply transitive family, verified
  explicitly by :func:`verify_family`).

Each :class:`Graph` computes its all-pairs BFS distance matrix once, on
first use, and derives connectivity, the per-vertex distance profiles and
distance-regularity from it.  The rest of the library (the distance kernel,
the canonical form's distance classes, the random sampler's component
representatives) reads ``graph.distance_matrix`` instead of running its own
BFS or component search.

Classification is exact: a "yes" always carries a checked certificate, a
"no" is only reported when the search space was exhausted (or a structural
obstruction such as an irregular degree sequence rules the property out),
and budget exhaustion is reported as "unknown" rather than guessed.
"""

import collections
import itertools
import json
from dataclasses import dataclass
from functools import cached_property

UNREACHABLE = -1

DEFAULT_SIZE_CAP = 4096
DEFAULT_SEARCH_EFFORT = 200_000


class SizeCapError(RuntimeError):
    """Construction or search would exceed the configured size cap."""


class DisconnectedGraphError(ValueError):
    """The operation needs finite distances but the graph is disconnected."""


class SearchBudgetError(RuntimeError):
    """An exhaustive search ran out of budget before reaching a verdict."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``.

    Edges are stored as a frozenset of ``(i, j)`` pairs with ``i < j``;
    arbitrary iterables of pairs are normalised on construction.  Labels
    are optional display names, one per vertex.
    """

    n: int
    edges: frozenset
    labels: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("vertex count must be a positive integer")
        norm = set()
        for edge in self.edges:
            i, j = edge
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {edge!r} out of range for n={self.n}")
            norm.add((i, j) if i < j else (j, i))
        object.__setattr__(self, "edges", frozenset(norm))
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.n:
                raise ValueError("label count must equal vertex count")
            if len(set(labels)) < self.n:
                label = next(x for x, k in collections.Counter(labels).items() if k > 1)
                raise ValueError(f"vertex label {label!r} given twice")
            object.__setattr__(self, "labels", labels)

    @cached_property
    def edge_list(self):
        """Edges as a sorted tuple, for deterministic iteration."""
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self):
        nbrs = [[] for _ in range(self.n)]
        for i, j in self.edge_list:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def degrees(self):
        return tuple(len(a) for a in self.adjacency)

    @cached_property
    def is_regular(self):
        return len(set(self.degrees)) == 1

    @cached_property
    def distance_matrix(self):
        """All-pairs distances, computed once per graph by :func:`distances`."""
        return distances(self)

    @cached_property
    def is_connected(self):
        return UNREACHABLE not in self.distance_matrix.dist[0]

    @cached_property
    def profile_counts(self):
        """``profile_counts[v][d]``: vertices at distance d from v.

        Raises ``DisconnectedGraphError`` when some vertex is unreachable.
        """
        if not self.is_connected:
            raise DisconnectedGraphError("distance profile needs a connected graph")
        return tuple(tuple(row.count(d) for d in range(max(row) + 1))
                     for row in self.distance_matrix.dist)

    def neighbors(self, v):
        return self.adjacency[v]

    def label(self, v):
        return self.labels[v] if self.labels is not None else str(v)

    def to_dict(self):
        d = {"n": self.n, "edges": [list(e) for e in self.edge_list]}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        return cls(d["n"], {tuple(e) for e in d["edges"]},
                   tuple(d["labels"]) if d.get("labels") else None)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest path lengths; ``UNREACHABLE`` marks disconnected pairs.

    ``diameter`` is the maximum finite entry.
    """

    dist: tuple
    diameter: int

    def d(self, i, j):
        return self.dist[i][j]


@dataclass(frozen=True)
class DistanceProfile:
    """Counts ``counts[d]`` of vertices at each distance d from ``base_vertex``."""

    base_vertex: int
    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if not counts or counts[0] != 1:
            raise ValueError("a distance profile starts with a single vertex at distance 0")
        if any(c < 0 for c in counts):
            raise ValueError("profile counts must be non-negative")
        if len(counts) > 1 and counts[-1] == 0:
            raise ValueError("profile must not carry trailing zero strata")

    @property
    def diameter(self):
        return len(self.counts) - 1


@dataclass(frozen=True)
class IntersectionArray:
    """Certificate of distance-regularity: stratum-to-stratum neighbor counts.

    ``b[i]`` neighbors one stratum further out (i = 0 .. D-1), ``c[i]``
    neighbors one stratum closer in (stored for i = 1 .. D), identical for
    every vertex pair at the same distance.
    """

    b: tuple
    c: tuple

    def __post_init__(self):
        b = tuple(int(x) for x in self.b)
        c = tuple(int(x) for x in self.c)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if len(b) != len(c):
            raise ValueError("b and c must cover the same distance range")
        if any(x < 0 for x in b + c):
            raise ValueError("intersection numbers are non-negative")
        if c and c[0] != 1:
            raise ValueError("c_1 is 1 in any distance-regular graph")


@dataclass(frozen=True)
class AutomorphismFamily:
    """n vertex permutations whose images of any fixed vertex cover all vertices."""

    perms: tuple

    def __post_init__(self):
        object.__setattr__(self, "perms", tuple(tuple(p) for p in self.perms))


@dataclass(frozen=True)
class VtPlusCertificate:
    """Tri-state answer of :func:`vt_plus_certificate` with its evidence."""

    status: str                      # "yes" | "no" | "unknown"
    family: AutomorphismFamily | None
    method: str

    def __post_init__(self):
        if self.status not in ("yes", "no", "unknown"):
            raise ValueError(f"unknown status {self.status!r}")
        if (self.status == "yes") != (self.family is not None):
            raise ValueError("a family is attached exactly to 'yes' answers")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _tuple_label(tup, v):
    if v <= 10:
        return "".join(str(d) for d in tup)
    return ".".join(str(d) for d in tup)


def _hamming_edges(tuples, v):
    """Index pairs of base-v ordered tuples that differ in exactly one coordinate."""
    u = len(tuples[0])
    strides = [v ** (u - 1 - i) for i in range(u)]
    edges = set()
    for idx, tup in enumerate(tuples):
        for i, stride in enumerate(strides):
            for val in range(tup[i] + 1, v):
                edges.add((idx, idx + (val - tup[i]) * stride))
    return edges


def build_hamming(u, v, size_cap=DEFAULT_SIZE_CAP):
    """Product domain of ``u`` participants over ``v`` values.

    Vertices are all u-tuples over {0, .., v-1}; two tuples are adjacent iff
    they differ in exactly one coordinate.  Vertex order and labels follow
    base-v digit strings, most significant participant first, so matrices
    derived from the graph are reproducible.

    Raises ``SizeCapError`` when ``v**u`` exceeds ``size_cap``.
    """
    if u < 1:
        raise ValueError("need at least one participant")
    if v < 2:
        raise ValueError("need at least two values per participant")
    n = v ** u
    if n > size_cap:
        raise SizeCapError(f"hamming({u},{v}) has {n} vertices, above the cap of {size_cap}")
    tuples = list(itertools.product(range(v), repeat=u))
    labels = tuple(_tuple_label(t, v) for t in tuples)
    return Graph(n, _hamming_edges(tuples, v), labels)


def build_clique(n):
    if n < 2:
        raise ValueError("a clique needs at least two vertices")
    return Graph(n, {(i, j) for i in range(n) for j in range(i + 1, n)})


def build_cycle(n):
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    return Graph(n, {(i, (i + 1) % n) for i in range(n)})


def build_path(n):
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return Graph(n, {(i, i + 1) for i in range(n - 1)})


def build_petersen():
    """Outer 5-cycle, inner pentagram, five spokes: 10 vertices, 3-regular."""
    edges = {(i, (i + 1) % 5) for i in range(5)}
    edges |= {(i, i + 5) for i in range(5)}
    edges |= {(5 + i, 5 + (i + 2) % 5) for i in range(5)}
    return Graph(10, edges)


def build_family(spec, size_cap=DEFAULT_SIZE_CAP):
    """Build a graph from a compact family spec.

    Accepted forms: ``clique:N``, ``cycle:N``, ``path:N``, ``petersen``,
    ``hamming:U,V``.  Raises ``SizeCapError``, before building anything,
    when the family has more than ``size_cap`` vertices.
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "petersen":
        if arg:
            raise ValueError("the petersen family takes no parameters")
        if size_cap < 10:
            raise SizeCapError(f"petersen has 10 vertices, above the cap of {size_cap}")
        return build_petersen()
    sized = {"clique": build_clique, "cycle": build_cycle, "path": build_path}
    if name in sized:
        try:
            size = int(arg)
        except ValueError:
            raise ValueError(f"malformed graph family spec {spec!r}") from None
        if size > size_cap:
            raise SizeCapError(f"{name}({size}) has {size} vertices, above the cap of {size_cap}")
        return sized[name](size)
    if name == "hamming":
        try:
            u, v = (int(x) for x in arg.split(","))
        except ValueError:
            raise ValueError(f"malformed graph family spec {spec!r}") from None
        return build_hamming(u, v, size_cap=size_cap)
    raise ValueError(f"unknown graph family {name!r}")


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _bfs(g, source):
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = collections.deque([source])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if dist[w] == UNREACHABLE:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def distances(g):
    """All-pairs BFS distances."""
    rows = [_bfs(g, s) for s in range(g.n)]
    # UNREACHABLE is below the zero diagonal, so each row's max is finite
    diameter = max(max(row) for row in rows)
    return DistanceMatrix(tuple(tuple(r) for r in rows), diameter)


def distance_profile(g, base=0):
    """How many vertices sit at each distance from ``base``.

    Raises ``DisconnectedGraphError`` when some vertex is unreachable.
    """
    return DistanceProfile(base, g.profile_counts[base])


def common_profile(g):
    """The shared distance profile of all base vertices, or None if it varies.

    Raises ``DisconnectedGraphError`` when some vertex is unreachable.
    """
    counts = g.profile_counts
    if any(other != counts[0] for other in counts):
        return None
    return DistanceProfile(0, counts[0])


# ---------------------------------------------------------------------------
# distance-regularity
# ---------------------------------------------------------------------------

def is_distance_regular(g):
    """Return the intersection array if the graph is distance-regular, else None.

    Checks the defining counting property on every ordered vertex pair: at
    distance i, the second vertex must have exactly c_i neighbors one
    stratum closer to the first vertex and b_i neighbors one stratum
    further, with the same constants everywhere.
    """
    if not g.is_connected:
        raise DisconnectedGraphError("distance-regularity is defined for connected graphs")
    if not g.is_regular:
        return None
    dm = g.distance_matrix
    diam = dm.diameter
    b = [None] * (diam + 1)
    c = [None] * (diam + 1)
    for x in range(g.n):
        drow = dm.dist[x]
        for y in range(g.n):
            i = drow[y]
            closer = 0
            further = 0
            for z in g.adjacency[y]:
                dz = drow[z]
                if dz == i - 1:
                    closer += 1
                elif dz == i + 1:
                    further += 1
            if i < diam:
                if b[i] is None:
                    b[i] = further
                elif b[i] != further:
                    return None
            if i >= 1:
                if c[i] is None:
                    c[i] = closer
                elif c[i] != closer:
                    return None
    return IntersectionArray(tuple(b[:diam]), tuple(c[1:diam + 1]))


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def _refined_colors(g):
    """Stable vertex coloring: degrees refined by neighbor color multisets."""
    color = list(g.degrees)
    while True:
        sig = [(color[v], tuple(sorted(color[w] for w in g.adjacency[v])))
               for v in range(g.n)]
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ids[s] for s in sig]
        if new == color:
            return tuple(new)
        color = new


def _search_order(g, colors):
    # BFS order starting from the most constrained color class: assigning a
    # vertex adjacent to already-assigned ones prunes much earlier.
    sizes = collections.Counter(colors)
    seen = [False] * g.n
    order = []
    remaining = sorted(range(g.n), key=lambda v: (sizes[colors[v]], colors[v], v))
    for start in remaining:
        if seen[start]:
            continue
        queue = collections.deque([start])
        seen[start] = True
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(g.adjacency[v], key=lambda x: (sizes[colors[x]], x)):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order


def automorphism_group(g, effort=DEFAULT_SEARCH_EFFORT):
    """Enumerate every automorphism by color-refined backtracking.

    Practical for groups up to a few thousand elements; raises
    ``SearchBudgetError`` once more than ``effort`` candidate placements
    have been tried.
    """
    n = g.n
    colors = _refined_colors(g)
    order = _search_order(g, colors)
    adj = [set(a) for a in g.adjacency]
    by_color = collections.defaultdict(list)
    for v in range(n):
        by_color[colors[v]].append(v)

    perms = []
    img = [-1] * n
    used = [False] * n
    nodes = 0

    def backtrack(k):
        nonlocal nodes
        if k == n:
            perms.append(tuple(img))
            return
        v = order[k]
        for w in by_color[colors[v]]:
            if used[w]:
                continue
            nodes += 1
            if nodes > effort:
                raise SearchBudgetError("automorphism enumeration exceeded its budget")
            ok = True
            for t in range(k):
                u = order[t]
                if (u in adj[v]) != (img[u] in adj[w]):
                    ok = False
                    break
            if ok:
                img[v] = w
                used[w] = True
                backtrack(k + 1)
                used[w] = False
                img[v] = -1

    backtrack(0)
    return perms


def single_orbit_automorphism(g, effort=DEFAULT_SEARCH_EFFORT):
    """Find an automorphism that cycles through all n vertices, or prove none exists.

    The permutation is built as the vertex sequence of its single cycle,
    checking partial-automorphism consistency at every extension.  Returns
    the permutation, or None when the exhaustive search ruled one out.
    Raises ``SearchBudgetError`` when the budget runs out first.
    """
    n = g.n
    if n == 1:
        return (0,)
    if not g.is_regular:
        return None
    if len(set(_refined_colors(g))) > 1:
        return None
    adj = [set(a) for a in g.adjacency]
    seq = [0]
    in_seq = [False] * n
    in_seq[0] = True
    nodes = 0

    def extend():
        nonlocal nodes
        t = len(seq)
        if t == n:
            a, b = seq[-1], seq[0]
            return all((a in adj[seq[i]]) == (b in adj[seq[(i + 1) % n]])
                       for i in range(n))
        a = seq[t - 1]
        for w in range(n):
            if in_seq[w]:
                continue
            nodes += 1
            if nodes > effort:
                raise SearchBudgetError("single-orbit search exceeded its budget")
            if all((a in adj[seq[i]]) == (w in adj[seq[i + 1]]) for i in range(t - 1)):
                seq.append(w)
                in_seq[w] = True
                if extend():
                    return True
                in_seq[w] = False
                seq.pop()
        return False

    if not extend():
        return None
    perm = [0] * n
    for i in range(n):
        perm[seq[i]] = seq[(i + 1) % n]
    return tuple(perm)


def _perm_powers(sigma):
    n = len(sigma)
    fam = [tuple(range(n))]
    cur = tuple(range(n))
    for _ in range(n - 1):
        cur = tuple(sigma[cur[v]] for v in range(n))
        fam.append(cur)
    return AutomorphismFamily(tuple(fam))


def _hamming_parameters(g):
    """Recover (u, v) when the graph is a product domain built by build_hamming."""
    if g.labels is None or g.n < 2:
        return None
    first = g.labels[0]
    try:
        if "." in first:
            digits = [tuple(int(p) for p in lab.split(".")) for lab in g.labels]
        else:
            digits = [tuple(int(ch) for ch in lab) for lab in g.labels]
    except ValueError:
        return None
    u = len(digits[0])
    if u < 1 or any(len(d) != u for d in digits):
        return None
    v = max(max(d) for d in digits) + 1
    if v < 2 or v ** u != g.n:
        return None
    if digits != list(itertools.product(range(v), repeat=u)):
        return None
    if _hamming_edges(digits, v) != g.edges:
        return None
    return u, v


def hamming_translation_family(u, v):
    """Coordinate-wise value translations of the (u, v) product domain.

    Adding a fixed shift tuple modulo v moves every vertex and preserves
    the differ-in-one-coordinate relation, and over all v**u shifts any
    fixed vertex visits every position exactly once.  A vertex's index is
    its tuple read in base v, so the family is built one coordinate at a
    time, each new coordinate the most significant, shifts in tuple order.
    """
    perms = [(0,)]
    size = 1
    for _ in range(u):
        perms = [tuple((d + s) % v * size + x for d in range(v) for x in p)
                 for s in range(v) for p in perms]
        size *= v
    return AutomorphismFamily(tuple(perms))


def verify_family(g, fam):
    """Check an automorphism family certificate.

    True iff every permutation maps edges to edges and, for each vertex v,
    the images ``{perm[v]}`` across the family cover all vertices exactly
    once.  Raises ``ValueError`` on a length mismatch.
    """
    n = g.n
    if len(fam.perms) != n or any(len(p) != n for p in fam.perms):
        raise ValueError("family must consist of n permutations of n vertices")
    full = set(range(n))
    for perm in fam.perms:
        if set(perm) != full:
            return False
        for i, j in g.edge_list:
            a, b = perm[i], perm[j]
            if ((a, b) if a < b else (b, a)) not in g.edges:
                return False
    for v in range(n):
        if {perm[v] for perm in fam.perms} != full:
            return False
    return True


def _sharply_transitive_family(perms, n, effort=DEFAULT_SEARCH_EFFORT):
    """Pick n pairwise everywhere-disagreeing permutations out of a group.

    Any such family can be right-translated to contain the identity, so the
    search fixes the identity and extends with fixed-point-free group
    elements, tracking per-vertex used images as bitmasks.  Returns None
    when the exhaustive search proves no family exists.
    """
    ident = tuple(range(n))
    cands = [p for p in perms if p != ident and all(p[v] != v for v in range(n))]
    chosen = [ident]
    used = [1 << v for v in range(n)]
    nodes = 0

    def backtrack(start):
        nonlocal nodes
        if len(chosen) == n:
            return True
        if n - len(chosen) > len(cands) - start:
            return False
        for idx in range(start, len(cands)):
            p = cands[idx]
            nodes += 1
            if nodes > effort:
                raise SearchBudgetError("family cover search exceeded its budget")
            if any((used[v] >> p[v]) & 1 for v in range(n)):
                continue
            for v in range(n):
                used[v] |= 1 << p[v]
            chosen.append(p)
            if backtrack(idx + 1):
                return True
            chosen.pop()
            for v in range(n):
                used[v] &= ~(1 << p[v])
        return False

    if backtrack(0):
        return AutomorphismFamily(tuple(chosen))
    return None


def vt_plus_certificate(g, effort=DEFAULT_SEARCH_EFFORT):
    """Decide whether the graph admits a sharply transitive automorphism family.

    Tri-state: "yes" always carries a family that passes
    :func:`verify_family`; "no" is only returned with a structural
    obstruction or after exhausting the full automorphism group; "unknown"
    means the search budget ran out.

    Fast paths: an irregular degree sequence rules the property out (the
    family would force vertex transitivity); product domains get the
    constructive translation family; a single-orbit automorphism sigma
    yields the family of its powers.
    """
    n = g.n
    if n == 1:
        fam = AutomorphismFamily(((0,),))
        return VtPlusCertificate("yes", fam, "trivial")
    if not g.is_regular:
        return VtPlusCertificate("no", None, "irregular degree sequence")

    params = _hamming_parameters(g)
    if params is not None:
        fam = hamming_translation_family(*params)
        if not verify_family(g, fam):
            raise RuntimeError("internal error: translation family failed verification")
        return VtPlusCertificate("yes", fam, "coordinate translations")

    try:
        sigma = single_orbit_automorphism(g, effort)
    except SearchBudgetError:
        sigma = None
    if sigma is not None:
        fam = _perm_powers(sigma)
        if not verify_family(g, fam):
            raise RuntimeError("internal error: single-orbit powers failed verification")
        return VtPlusCertificate("yes", fam, "single-orbit powers")

    try:
        group = automorphism_group(g, effort)
        fam = _sharply_transitive_family(group, n, effort)
    except SearchBudgetError:
        return VtPlusCertificate("unknown", None, "search budget exhausted")
    if fam is not None:
        if not verify_family(g, fam):
            raise RuntimeError("internal error: cover-search family failed verification")
        return VtPlusCertificate("yes", fam, "automorphism cover search")
    return VtPlusCertificate(
        "no", None,
        f"no sharply transitive family among all {len(group)} automorphisms")
