"""Finite simple graphs and their symmetry structure.

Everything downstream (channel audits, leakage bounds, mechanism synthesis)
is driven by an undirected adjacency structure: the domain of secrets, the
domain of query answers, or the clique of values a single participant can
take.  A :class:`Graph` stores it once, as one sorted neighbour tuple per
vertex (``graph.adjacency``), which every reader walks; its sorted edge
list is derived on demand.  This module builds the standard domains
(Hamming product domains, cliques, cycles, paths, the Petersen graph) and
classifies the two symmetry families everything else relies on:

* distance-regular graphs, certified by an intersection array, and
* graphs admitting n automorphisms that move any fixed vertex through
  every position exactly once (a sharply transitive family, verified
  explicitly by :func:`verify_family`).

A sharply transitive family is held by generators where it is a regular
group: the u unit shifts of a product domain, or the single-orbit
automorphism sigma whose powers form the family.  Such a certificate is
checked in O(generators * (edges + n)) without listing its n members; only
the automorphism cover search, which can return a family that is not a
group, holds all n permutations.

Base-vertex rule: a "yes" certificate proves that an automorphism takes
vertex 0 to every vertex, so every vertex sees the graph as vertex 0 does.
The graph's one piece of symmetry evidence is ``graph.certificate``, a
verified "yes" (``graph.certified_family`` is its family): the family
:func:`build_hamming` or :func:`build_cycle` records, the translations of a
product of cliques read from its structure, or a family
:func:`vt_plus_certificate` has found.  With it, one BFS from vertex 0
(``graph.base_row``) gives connectivity, the diameter and the shared
distance profile (:func:`common_profile`), distance-regularity is counted
from base 0 alone (``graph.intersection_array``), and a generated family
gives the whole distance matrix: row i is the base row carried along the
member that takes 0 to i.  Every other graph computes its all-pairs BFS
matrix once, on first use, with :func:`distances`, the reference the
symmetric shortcuts are tested against.  The rest of the library (the
distance kernel unless a generated family carries it from row 0, the
canonical form's distance classes, the random sampler's components) reads
``graph.distance_matrix`` instead of running its own BFS or component search.

Classification is exact: a "yes" always carries a checked certificate, a
"no" is only reported when the search space was exhausted (or a structural
obstruction such as an irregular degree sequence rules the property out),
and budget exhaustion is reported as "unknown" rather than guessed.
"""

import collections
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

UNREACHABLE = -1

DEFAULT_SIZE_CAP = 4096
DEFAULT_SEARCH_EFFORT = 200_000


class SizeCapError(RuntimeError):
    """Construction or search would exceed the configured size cap."""


class DisconnectedGraphError(ValueError):
    """The operation needs finite distances but the graph is disconnected."""


class SearchBudgetError(RuntimeError):
    """An exhaustive search ran out of budget before reaching a verdict."""


class InternalError(RuntimeError):
    """An internal invariant failed: a bug in the library, not in the input."""


@dataclass(frozen=True, init=False)
class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``, stored as
    ``adjacency``: vertex v's neighbours as one sorted tuple.

    ``edges`` may be any iterable of ``(i, j)`` pairs, in either orientation
    and with repeats, read in one pass that reports the first bad pair.
    Labels are optional display names, one per vertex.  Instances compare
    and hash by ``(n, adjacency, labels)``.
    """

    n: int
    adjacency: tuple
    labels: tuple | None

    def __init__(self, n, edges, labels=None):
        if not isinstance(n, int) or n < 1:
            raise ValueError("vertex count must be a positive integer")
        nbrs = [[] for _ in range(n)]
        for edge in edges:
            i, j = edge
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge {edge!r} out of range for n={n}")
            nbrs[i].append(j)
            nbrs[j].append(i)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(set(a))) for a in nbrs))
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError("label count must equal vertex count")
            if len(set(labels)) < n:
                label = next(x for x, k in collections.Counter(labels).items() if k > 1)
                raise ValueError(f"vertex label {label!r} given twice")
        object.__setattr__(self, "labels", labels)

    @cached_property
    def edge_list(self):
        """The edges ``(i, j)``, i < j, sorted: each row's higher neighbours."""
        return tuple((i, j) for i, row in enumerate(self.adjacency) for j in row if j > i)

    @cached_property
    def degrees(self):
        return tuple(len(a) for a in self.adjacency)

    @cached_property
    def is_regular(self):
        return len(set(self.degrees)) == 1

    @cached_property
    def base_row(self):
        """Distances from vertex 0, by one BFS."""
        return tuple(_bfs(self, 0))

    @cached_property
    def certificate(self):
        """The verified "yes" :class:`VtPlusCertificate`, or None while none
        is known.  :func:`build_hamming` and :func:`build_cycle` record
        theirs, and :func:`vt_plus_certificate` records what its searches
        find, through :func:`_certified`; any other graph starts with the
        translations :func:`_clique_product` recognises, or None."""
        return _clique_product(self)

    @property
    def certified_family(self):
        """The family of ``certificate``, or None."""
        return self.certificate and self.certificate.family

    def carried(self, row):
        """Vertex 0's ``row`` carried to every vertex, or None without a
        generated ``certified_family``: row i of the n tuples returned is
        ``row`` read through the member f that takes 0 to i, so
        ``rows[f(0)][f(j)] == row[j]``."""
        fam = self.certified_family
        if fam is None or fam.explicit is not None:
            return None
        walk = _walk_from_base(fam, tuple(row))
        return tuple(map(walk.__getitem__, range(self.n)))

    @cached_property
    def distance_matrix(self):
        """All-pairs distances, computed once per graph: the base row
        :meth:`carried` to every vertex, or else :func:`distances`."""
        rows = self.carried(self.base_row)
        return distances(self) if rows is None else DistanceMatrix(rows, max(self.base_row))

    @cached_property
    def is_connected(self):
        return UNREACHABLE not in self.base_row

    @cached_property
    def profile_counts(self):
        """``profile_counts[v][d]``: vertices at distance d from v.

        Raises ``DisconnectedGraphError`` when some vertex is unreachable.
        """
        if not self.is_connected:
            raise DisconnectedGraphError("distance profile needs a connected graph")
        return tuple(_strata(row) for row in self.distance_matrix.dist)

    @cached_property
    def intersection_array(self):
        """The :class:`IntersectionArray` if the graph is distance-regular, else None.

        Checks the defining counting property on ordered vertex pairs: at
        distance i, the second vertex must have exactly c_i neighbors one
        stratum closer to the first vertex and b_i neighbors one stratum
        further, with the same constants everywhere.

        A ``certified_family`` proves every vertex looks like vertex 0, so
        only the pairs based at vertex 0 are counted, from the one BFS
        ``base_row``.  Otherwise every pair of the all-pairs distance matrix
        is counted.  Raises ``DisconnectedGraphError`` when some vertex is
        unreachable.
        """
        if not self.is_connected:
            raise DisconnectedGraphError("distance-regularity is defined for connected graphs")
        if not self.is_regular:
            return None
        if self.certified_family is not None:
            rows = (self.base_row,)
            diam = max(self.base_row)
        else:
            dm = self.distance_matrix
            rows, diam = dm.dist, dm.diameter
        b = [None] * (diam + 1)
        c = [None] * (diam + 1)
        for drow in rows:
            for y in range(self.n):
                i = drow[y]
                closer = 0
                further = 0
                for z in self.adjacency[y]:
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

    def label(self, v):
        return self.labels[v] if self.labels is not None else str(v)

    def to_dict(self):
        d = {"n": self.n, "edges": list(map(list, self.edge_list))}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        """Build from ``to_dict``'s form; a malformed field is a ValueError
        naming it, and a JSON boolean is no integer."""
        if not isinstance(d, dict):
            raise ValueError("graph JSON must be an object with 'n' and 'edges'")
        n, edges, labels = d.get("n"), d.get("edges"), d.get("labels")
        if type(n) is not int or n < 1:
            raise ValueError("graph JSON 'n' must be a positive integer")
        if type(edges) is not list or any(
                type(e) is not list or list(map(type, e)) != [int, int] for e in edges):
            raise ValueError("graph JSON 'edges' must be a list of [i, j] vertex index pairs")
        if labels is not None and (type(labels) is not list
                                   or any(type(x) not in (str, int) for x in labels)):
            raise ValueError("graph JSON 'labels' must be a list of strings or integers")
        return cls(n, map(tuple, edges), None if labels is None else tuple(labels))

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


@dataclass(frozen=True)
class DistanceProfile:
    """Counts ``counts[d]`` of vertices at each distance d from a base vertex."""

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
    """n vertex permutations whose images of any fixed vertex cover all vertices.

    Held in one of two forms:

    * explicit, ``AutomorphismFamily(perms)``: all n permutations, as the
      automorphism cover search finds them (not necessarily a group);
    * generated, ``AutomorphismFamily(generators=gens, orders=bounds)``:
      pairwise commuting permutations g_k with one exponent bound o_k each
      and prod(bounds) == n.  The members are the n products
      ``g_0**e_0 * g_1**e_1 * ...`` with 0 <= e_k < o_k, exponent tuples in
      lexicographic order.  A product domain holds its u unit shifts with
      bound v each; a single-orbit automorphism sigma is held with bound n.

    ``perms`` lists the members in that order; a generated family builds
    them on each read, and nothing on the certificate path reads them.
    """

    explicit: tuple | None = None
    generators: tuple = ()
    orders: tuple = ()

    def __post_init__(self):
        if (self.explicit is None) == (not self.generators):
            raise ValueError("give either the explicit permutations or generators")
        if self.explicit is not None:
            object.__setattr__(self, "explicit", tuple(tuple(p) for p in self.explicit))
            return
        orders = tuple(self.orders)
        if len(orders) != len(self.generators) or any(
                not isinstance(o, int) or o < 1 for o in orders):
            raise ValueError("each generator needs a positive exponent bound")
        object.__setattr__(self, "generators", tuple(tuple(p) for p in self.generators))
        object.__setattr__(self, "orders", orders)

    @property
    def perms(self):
        """The n members, each as a tuple mapping vertex v to ``perm[v]``."""
        if self.explicit is not None:
            return self.explicit
        members = [tuple(range(len(self.generators[0])))]
        for gen, order in zip(reversed(self.generators), reversed(self.orders)):
            power = members                      # gen**e * member, e = 0, 1, ...
            members = []
            for _ in range(order):
                members += power
                power = [tuple(map(gen.__getitem__, p)) for p in power]
        return tuple(members)


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

def _hamming_edges(tuples, v):
    """Index pairs of base-v ordered tuples that differ in exactly one coordinate."""
    u = len(tuples[0])
    strides = [v ** (u - 1 - i) for i in range(u)]
    return ((idx, idx + (val - d) * stride) for idx, tup in enumerate(tuples)
            for d, stride in zip(tup, strides) for val in range(d + 1, v))


def build_hamming(u, v):
    """Product domain of ``u`` participants over ``v`` values.

    Vertices are all u-tuples over {0, .., v-1}; two tuples are adjacent iff
    they differ in exactly one coordinate.  Vertex order and labels follow
    base-v digit strings, most significant participant first, so matrices
    derived from the graph are reproducible; for v > 10 the digits are
    joined by dots.  The graph records its coordinate translations as its
    ``certificate``.
    """
    if u < 1:
        raise ValueError("need at least one participant")
    if v < 2:
        raise ValueError("need at least two values per participant")
    n = v ** u
    tuples = list(itertools.product(range(v), repeat=u))
    sep = "" if v <= 10 else "."
    g = Graph(n, _hamming_edges(tuples, v), tuple(sep.join(map(str, t)) for t in tuples))
    _certified(g, hamming_translation_family(u, v), "coordinate translations")
    return g


def build_clique(n):
    if n < 2:
        raise ValueError("a clique needs at least two vertices")
    return Graph(n, itertools.combinations(range(n), 2))


def build_cycle(n):
    """The n-cycle, which records its rotation i -> i + 1 as its ``certificate``."""
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    g = Graph(n, ((i, (i + 1) % n) for i in range(n)))
    sigma = (*range(1, n), 0)
    _certified(g, AutomorphismFamily(generators=(sigma,), orders=(n,)), "single-orbit powers")
    return g


def build_path(n):
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def build_petersen():
    """Outer 5-cycle, inner pentagram, five spokes: 10 vertices, 3-regular."""
    return Graph(10, (e for i in range(5)
                      for e in ((i, (i + 1) % 5), (i, i + 5), (5 + i, 5 + (i + 2) % 5))))


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
        count = 1
        for _ in range(u if v >= 2 else 0):     # build_hamming refuses u < 1 and v < 2
            count *= v                          # stops past the cap, short of v ** u
            if count > size_cap:                # in full to 2^2048: 617 digits, in any str() limit
                vertices = v ** u if u * (v - 1).bit_length() <= 2048 else f"{v}^{u}"
                raise SizeCapError(
                    f"hamming({u},{v}) has {vertices} vertices, above the cap of {size_cap}")
        return build_hamming(u, v)
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


def _strata(row):
    """Counts of vertices at each distance in one row of finite distances."""
    return tuple(row.count(d) for d in range(max(row) + 1))


def distances(g):
    """All-pairs BFS distances; row 0 is the graph's cached ``base_row``."""
    rows = [g.base_row] + [_bfs(g, s) for s in range(1, g.n)]
    # UNREACHABLE is below the zero diagonal, so each row's max is finite
    diameter = max(max(row) for row in rows)
    return DistanceMatrix(tuple(tuple(r) for r in rows), diameter)


def distance_profile(g):
    """How many vertices sit at each distance from vertex 0, read off the
    single BFS ``g.base_row``; vertex v's counts are ``g.profile_counts[v]``.
    Raises ``DisconnectedGraphError`` when some vertex is unreachable.
    """
    if not g.is_connected:
        raise DisconnectedGraphError("distance profile needs a connected graph")
    return DistanceProfile(_strata(g.base_row))


def common_profile(g):
    """The shared distance profile of all base vertices, or None if it varies.

    A ``certified_family`` makes every vertex look like vertex 0, so such a
    graph's profile is read from ``g.base_row`` alone.  Raises
    ``DisconnectedGraphError`` when some vertex is unreachable.
    """
    if g.certified_family is not None:
        return distance_profile(g)
    counts = g.profile_counts
    if any(other != counts[0] for other in counts):
        return None
    return DistanceProfile(counts[0])


# ---------------------------------------------------------------------------
# distance-regularity
# ---------------------------------------------------------------------------

def is_distance_regular(g):
    """The intersection array if the graph is distance-regular, else None:
    ``g.intersection_array``, counted once per graph."""
    return g.intersection_array


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
    have been tried.  The search keeps its own stack, so its depth, one
    level per placed vertex, is not bounded by Python's recursion limit.

    Consistency is read from bitmasks over search positions: ``want[k]``
    has bit t for each t < k with ``order[t]`` adjacent to ``order[k]``,
    and while positions 0 .. k-1 are placed, ``seen[w]`` has bit t iff the
    image of ``order[t]`` is adjacent to w.  So a candidate w for
    ``order[k]`` extends the partial automorphism iff ``seen[w] ==
    want[k]``, and placing or undoing position t flips bit t in the masks
    of its image's neighbours.
    """
    n = g.n
    adjacency = g.adjacency
    colors = _refined_colors(g)
    order = _search_order(g, colors)
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k
    want = [sum(1 << pos[u] for u in adjacency[v] if pos[u] < k)
            for k, v in enumerate(order)]
    by_color = collections.defaultdict(list)
    for v in range(n):
        by_color[colors[v]].append(v)

    perms = []
    img = [-1] * n
    used = [False] * n
    seen = [0] * n
    nodes = 0
    # stack[k] iterates the candidates still untried for order[k]
    stack = [iter(by_color[colors[order[0]]])]
    while stack:
        k = len(stack) - 1
        need = want[k]
        for w in stack[-1]:
            if used[w]:
                continue
            nodes += 1
            if nodes > effort:
                raise SearchBudgetError("automorphism enumeration exceeded its budget")
            if seen[w] != need:
                continue
            img[order[k]] = w               # w extends the partial automorphism
            if k + 1 < n:
                used[w] = True
                bit = 1 << k
                for x in adjacency[w]:
                    seen[x] |= bit
                stack.append(iter(by_color[colors[order[k + 1]]]))
                break
            perms.append(tuple(img))
        else:                               # order[k] is exhausted: undo order[k - 1]
            stack.pop()
            if k:
                w = img[order[k - 1]]
                used[w] = False
                bit = 1 << (k - 1)
                for x in adjacency[w]:
                    seen[x] ^= bit
    return perms


def single_orbit_automorphism(g, effort=DEFAULT_SEARCH_EFFORT):
    """Find an automorphism that cycles through all n vertices, or prove none exists.

    The permutation is built as the vertex sequence of its single cycle,
    checking partial-automorphism consistency at every extension.  Returns
    the permutation, or None when the exhaustive search ruled one out.
    Raises ``SearchBudgetError`` when the budget runs out first.  Like
    :func:`automorphism_group`, it keeps its own stack of n levels.

    ``nb[x]`` has bit i iff ``seq[i]`` is placed and adjacent to x.  The
    cycle maps ``seq[i]`` to ``seq[i + 1]``, so appending w after a =
    ``seq[t - 1]`` is consistent iff bits 1 .. t-1 of ``nb[w]`` equal bits
    0 .. t-2 of ``nb[a]``.

    The cycle closes by itself.  The placements make A(s_i, s_j), s = ``seq``
    and i < j, depend only on j - i, say c(j - i).  A k-regular graph then
    gives c(1) + .. + c(j) + c(1) + .. + c(n-1-j) = k, the degree of s_j;
    j against j - 1 gives c(j) = c(n - j), so A(s_{n-1}, s_j) =
    A(s_0, s_{j+1}): mapping s_{n-1} back to s_0 keeps every edge.
    """
    n = g.n
    if not g.is_regular:
        return None
    adjacency = g.adjacency
    nb = [0] * n
    for x in adjacency[0]:
        nb[x] = 1
    seq = [0]
    in_seq = [False] * n
    in_seq[0] = True
    nodes = 0
    # stack[t - 1] iterates the candidates still untried for seq[t]
    stack = [iter(range(n))]
    while len(seq) < n:
        t = len(seq)
        mask = (1 << (t - 1)) - 1
        need = nb[seq[t - 1]] & mask
        for w in stack[-1]:
            if in_seq[w]:
                continue
            nodes += 1
            if nodes > effort:
                raise SearchBudgetError("single-orbit search exceeded its budget")
            if (nb[w] >> 1) & mask != need:
                continue
            seq.append(w)
            in_seq[w] = True
            bit = 1 << t
            for x in adjacency[w]:
                nb[x] |= bit
            stack.append(iter(range(n)))
            break
        else:                               # seq[t] is exhausted: undo seq[t - 1]
            stack.pop()
            if t == 1:
                return None
            w = seq.pop()
            in_seq[w] = False
            bit = 1 << (t - 1)
            for x in adjacency[w]:
                nb[x] ^= bit
    perm = [0] * n
    for i in range(n):
        perm[seq[i]] = seq[(i + 1) % n]
    return tuple(perm)


def hamming_translation_family(u, v):
    """Coordinate-wise value translations of the (u, v) product domain.

    Adding a fixed shift tuple modulo v moves every vertex and preserves
    the differ-in-one-coordinate relation, and over all v**u shifts any
    fixed vertex visits every position exactly once.  The family is held by
    its generators: one unit shift per coordinate, most significant first,
    each with exponent bound v, so its members in order are the shifts in
    tuple order.  A vertex's index is its tuple read in base v, so the unit
    shift of a coordinate with stride s adds s, wrapping the digit v-1 to 0.
    """
    return _unit_shifts((v,) * u)


def _unit_shifts(orders):
    """The unit shifts of the tuples with digit k below ``orders[k]``, on
    their indices read in that mixed radix, most significant digit first."""
    n = math.prod(orders)
    gens = []
    stride = n
    for v in orders:
        stride //= v
        wrap = (v - 1) * stride
        gens.append(tuple(x - wrap if x // stride % v == v - 1 else x + stride
                          for x in range(n)))
    return AutomorphismFamily(generators=tuple(gens), orders=tuple(orders))


def _clique_product(g):
    """The coordinate translations of ``g`` as a product of cliques
    K_v1 □ … □ K_vu, as a "yes" certificate, or None.

    Vertex 0 is the zero tuple, and its neighbours split into one clique per
    coordinate (singletons where v_k = 2): the a-th member of clique k, in
    vertex order, is the tuple with value a at k.  A vertex at distance
    d >= 2 takes the union of its down-neighbours' values, which must name d
    coordinates once each, and no two vertices may share a tuple.  Cliques
    are numbered from the largest neighbour, so ``build_hamming``'s graph
    gets the builder's family.  A family :func:`verify_family` refuses gives
    None: a misreading leads to the searches, never to a wrong "yes"
    (Imrich and Klavžar, "Recognizing Hamming graphs in linear time and
    space", IPL 63, 1997).
    """
    adj = g.adjacency
    near = set(adj[0])
    coords = {0: {}}                        # vertex -> {coordinate: value}
    orders = []
    for x in reversed(adj[0]):
        if x not in coords:
            members = sorted(near.intersection(adj[x]) | {x})
            if any(y in coords for y in members):
                return None
            coords.update((y, {len(orders): a}) for a, y in enumerate(members, 1))
            orders.append(len(members) + 1)
    if not orders or math.prod(orders) != g.n or not g.is_connected:
        return None
    row = g.base_row
    for x in sorted(set(range(g.n)).difference(coords), key=row.__getitem__):
        d = row[x]
        coords[x] = union = {}
        for y in adj[x]:
            if row[y] == d - 1:
                for k, a in coords[y].items():
                    if union.setdefault(k, a) != a:
                        return None
        if len(union) != d:
            return None
    strides = [math.prod(orders[k + 1:]) for k in range(len(orders))]
    index = [sum(a * strides[k] for k, a in coords[x].items()) for x in range(g.n)]
    vertex = dict(zip(index, range(g.n)))
    if len(vertex) < g.n:
        return None
    fam = AutomorphismFamily(generators=tuple(
        tuple(vertex[shift[i]] for i in index) for shift in _unit_shifts(orders).generators),
        orders=tuple(orders))
    return VtPlusCertificate("yes", fam, "coordinate translations") if verify_family(
        g, fam) else None


def _walk_from_base(fam, row=None):
    """Carry vertex 0 along the members of a generated family.

    Returns ``{vertex: value}`` over the images of vertex 0 under the
    members, so fewer than n keys means two members agree at 0.  Given
    vertex 0's ``row``, the row of g(x) is the row of x read through g's
    inverse.  For a distance row in a graph the generators are automorphisms
    of, that is the vertex's own distance row, since automorphisms preserve
    distance.  Without a row the values are None.  Needs n >= 2, where
    ``itemgetter`` returns tuples.
    """
    reached = {0: row}
    for gen, order in zip(fam.generators, fam.orders):
        carry = None
        if row is not None:
            inverse = [0] * len(gen)
            for x, y in enumerate(gen):
                inverse[y] = x
            carry = itemgetter(*inverse)
        for x, r in list(reached.items()):
            for _ in range(order - 1):
                x = gen[x]
                r = carry(r) if carry else None
                reached[x] = r
    return reached


def verify_family(g, fam):
    """Check an automorphism family certificate.

    True iff the family moves every vertex through all vertices exactly
    once using automorphisms only.  An explicit family is checked member by
    member: every permutation maps edges to edges and, for each vertex v,
    the images ``{perm[v]}`` cover all vertices.  A generated family is
    checked from its generators in O(generators * (edges + n)):

    * every generator is a permutation that maps edges to edges;
    * the generators commute pairwise;
    * the images of vertex 0 under the n members are all n vertices (for a
      single generator sigma with bound n: sigma is one n-cycle).

    That suffices: if f_v is the member taking 0 to v, then any member f
    sends v = f_v(0) to f_v(f(0)), so f -> f(v) is a bijection onto the
    vertices because f -> f(0) is.  Raises ``ValueError`` when the family
    does not have n members of n vertices each.
    """
    n = g.n
    perms = fam.generators if fam.explicit is None else fam.explicit
    members = math.prod(fam.orders) if fam.explicit is None else len(perms)
    if members != n or any(len(p) != n for p in perms):
        raise ValueError("family must consist of n permutations of n vertices")
    full = set(range(n))
    nbr_sets = [set(row) for row in g.adjacency]
    if any(set(p) != full or not _maps_edges_to_edges(g, p, nbr_sets) for p in perms):
        return False
    if fam.explicit is not None:
        return all({p[v] for p in perms} == full for v in range(n))
    for a, b in itertools.combinations(perms, 2):
        if any(a[b[x]] != b[a[x]] for x in range(n)):
            return False
    return len(_walk_from_base(fam)) == n


def _maps_edges_to_edges(g, perm, nbr_sets):
    """Whether the permutation ``perm`` sends every neighbour of each vertex
    v to a neighbour of ``perm[v]``; ``nbr_sets[w]`` is w's neighbour set."""
    image = perm.__getitem__
    return all(nbr_sets[image(v)].issuperset(map(image, row))
               for v, row in enumerate(g.adjacency))


def _sharply_transitive_family(perms, n, effort=DEFAULT_SEARCH_EFFORT):
    """Pick n pairwise everywhere-disagreeing permutations out of a group.

    Any such family can be right-translated to contain the identity, so the
    search fixes the identity and extends with fixed-point-free group
    elements.  Returns None when the exhaustive search proves no family
    exists.

    A permutation p is held as one n*n-bit cell mask, bit ``v*n + p[v]`` for
    each vertex v, and ``used`` is the union of the chosen members' masks:
    p disagrees everywhere with every chosen member iff ``used & cell`` is
    zero.  The masks cost n*n/8 bytes per candidate.
    """
    ident = tuple(range(n))
    cands = [p for p in perms if p != ident and all(p[v] != v for v in range(n))]
    cells = [sum(1 << (v * n + p[v]) for v in range(n)) for p in cands]
    used = sum(1 << (v * n + v) for v in range(n))
    picked = []
    nodes = 0

    def untried(start):
        """The indices a new depth tries: cands[start:], or none when too
        few are left to complete the family."""
        if n - 1 - len(picked) > len(cands) - start:
            start = len(cands)
        return iter(range(start, len(cands)))

    stack = [untried(0)]
    while len(picked) < n - 1:
        for idx in stack[-1]:
            nodes += 1
            if nodes > effort:
                raise SearchBudgetError("family cover search exceeded its budget")
            if used & cells[idx]:
                continue
            used |= cells[idx]
            picked.append(idx)
            stack.append(untried(idx + 1))
            break
        else:                               # this depth is exhausted: undo its pick
            stack.pop()
            if not stack:
                return None
            used ^= cells[picked.pop()]
    return AutomorphismFamily((ident,) + tuple(cands[idx] for idx in picked))


def _certified(g, fam, method):
    """A "yes" for ``fam``, recorded as ``g.certificate`` once
    :func:`verify_family` accepts it on ``g``."""
    if not verify_family(g, fam):
        raise InternalError(f"internal error: {method} failed verification")
    cert = g.__dict__["certificate"] = VtPlusCertificate("yes", fam, method)
    return cert


def vt_plus_certificate(g, effort=DEFAULT_SEARCH_EFFORT):
    """Decide whether the graph admits a sharply transitive automorphism family.

    Tri-state: "yes" always carries a family that passes
    :func:`verify_family`; "no" is only returned with a structural
    obstruction or after exhausting the full automorphism group; "unknown"
    means the search budget ran out.  A "yes" also proves that every vertex
    looks like vertex 0: it is recorded as ``g.certificate``, which
    :func:`common_profile`, :func:`is_distance_regular` and
    ``g.distance_matrix`` then use to work from that one base vertex.

    The graph's ``certificate``, recorded or recognised from its structure,
    is returned first.  Otherwise an irregular degree sequence rules the
    property out (the family would force vertex transitivity), and a
    single-orbit automorphism sigma is held as the one generator of its
    powers.  Only the automorphism cover search lists all n permutations.
    """
    if g.certificate is not None:
        return g.certificate
    n = g.n
    if n == 1:
        return _certified(g, AutomorphismFamily(((0,),)), "trivial")
    if not g.is_regular:
        return VtPlusCertificate("no", None, "irregular degree sequence")

    try:
        sigma = single_orbit_automorphism(g, effort)
    except SearchBudgetError:
        sigma = None
    if sigma is not None:
        fam = AutomorphismFamily(generators=(sigma,), orders=(n,))
        return _certified(g, fam, "single-orbit powers")

    try:
        group = automorphism_group(g, effort)
        fam = _sharply_transitive_family(group, n, effort)
    except SearchBudgetError:
        return VtPlusCertificate("unknown", None, "search budget exhausted")
    if fam is not None:
        return _certified(g, fam, "automorphism cover search")
    return VtPlusCertificate(
        "no", None,
        f"no sharply transitive family among all {len(group)} automorphisms")
