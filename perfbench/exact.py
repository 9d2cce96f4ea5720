"""Exact graph and channel arithmetic of the benchmark's own.

Nothing here imports ``dpchannel``: the generator builds its inputs and the
checker derives its expected answers from this module alone, so a defect in
the library cannot hide by agreeing with itself.

Graphs are ``(n, edges)`` pairs with ``edges`` a sorted list of ``(i, j)``,
``i < j``.  Channels are lists of rows of ``Fraction``.
"""

import itertools
import math
from collections import deque
from fractions import Fraction


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def _norm(n, pairs):
    return n, sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j})


def clique(n):
    return _norm(n, itertools.combinations(range(n), 2))


def cycle(n):
    return _norm(n, ((i, (i + 1) % n) for i in range(n)))


def path(n):
    return _norm(n, ((i, i + 1) for i in range(n - 1)))


def circulant(n, jumps):
    return _norm(n, ((i, (i + s) % n) for i in range(n) for s in jumps))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _norm(10, outer + spokes + inner)


def hamming(u, v):
    """All u-tuples over v values; adjacent iff they differ in one coordinate."""
    tuples = list(itertools.product(range(v), repeat=u))
    index = {t: k for k, t in enumerate(tuples)}
    pairs = []
    for t in tuples:
        for pos in range(u):
            for val in range(v):
                if val != t[pos]:
                    pairs.append((index[t], index[t[:pos] + (val,) + t[pos + 1:]]))
    return _norm(len(tuples), pairs)


def family(spec):
    """The graph a ``--family`` spec names, up to vertex order."""
    name, _, arg = spec.partition(":")
    if name == "petersen":
        return petersen()
    if name == "hamming":
        u, v = (int(x) for x in arg.split(","))
        return hamming(u, v)
    return {"clique": clique, "cycle": cycle}[name](int(arg))


def relabel(graph, perm):
    n, edges = graph
    return _norm(n, ((perm[i], perm[j]) for i, j in edges))


def adjacency(graph):
    n, edges = graph
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def distance_rows(graph):
    """All-pairs BFS distances, -1 for unreachable pairs."""
    n, _ = graph
    adj = adjacency(graph)
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        rows.append(dist)
    return rows


def profiles(dist):
    """Per-vertex counts of vertices at each distance."""
    out = []
    for row in dist:
        counts = [0] * (max(row) + 1)
        for d in row:
            counts[d] += 1
        out.append(tuple(counts))
    return out


def shared_profile(dist):
    """The profile every vertex shares, or None if it depends on the vertex."""
    first, *rest = profiles(dist)
    return first if all(p == first for p in rest) else None


def utility_ceiling(profile, r):
    """c = 1 / sum_d n_d r^d, the uniform-prior utility ceiling."""
    return 1 / sum(n_d * r ** d for d, n_d in enumerate(profile))


def is_distance_regular(graph, dist):
    """True iff, for every pair at distance i, the counts of neighbours of the
    second vertex one step closer to and one step further from the first
    depend on i alone."""
    adj = adjacency(graph)
    if len({len(a) for a in adj}) != 1 or any(d < 0 for d in dist[0]):
        return False
    seen = {}
    for x, row in enumerate(dist):
        for y, i in enumerate(row):
            closer = sum(1 for z in adj[y] if row[z] == i - 1)
            further = sum(1 for z in adj[y] if row[z] == i + 1)
            if seen.setdefault(i, (closer, further)) != (closer, further):
                return False
    return True


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def distance_kernel(dist, r, c):
    """c * r^d(i, j): row-stochastic when c is the shared-profile ceiling."""
    powers = [c * r ** d for d in range(max(max(row) for row in dist) + 1)]
    return [[powers[d] for d in row] for row in dist]


def geometric_kernel(n, r):
    """Truncated geometric mechanism on the path 0 - 1 - ... - n-1."""
    inner = (1 - r) / (1 + r)
    edge = 1 / (1 + r)
    rows = []
    for i in range(n):
        row = [inner * r ** abs(i - j) for j in range(n)]
        row[0] = edge * r ** i
        row[-1] = edge * r ** (n - 1 - i)
        rows.append(row)
    return rows


def mix_permuted(kernels, weights, perms):
    """sum_k w_k K_k with the columns of K_k permuted by perms[k].

    Each term keeps every adjacent same-column ratio of its kernel, and a
    convex combination cannot raise the largest of them.
    """
    n = len(kernels[0])
    rows = [[None] * n for _ in range(n)]
    for k, (kern, w, perm) in enumerate(zip(kernels, weights, perms)):
        scaled = {}             # kernels repeat a few values: scale each once
        for i in range(n):
            src, dst = kern[i], rows[i]
            for j in range(n):
                x = src[j]
                wx = scaled.get(id(x))
                if wx is None:
                    wx = scaled[id(x)] = w * x
                dst[perm[j]] = wx if k == 0 else dst[perm[j]] + wx
    return rows


def split_column(rows, j, t):
    """Replace column j by the two columns t*col and (1-t)*col (appended)."""
    for row in rows:
        x = row[j]
        row[j] = t * x
        row.append(x - t * x)


def column_maxima_sum(rows):
    return sum((max(col) for col in zip(*rows)), Fraction(0))


def posterior_success(prior, rows):
    """sum_j max_i prior_i * M[i][j]."""
    if len(set(prior)) == 1:
        return prior[0] * column_maxima_sum(rows)
    return sum((max(p * x for p, x in zip(prior, col)) for col in zip(*rows)), Fraction(0))


def fraction_text(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def epsilon_ratio(eps):
    """The exact binary value of e^-eps, as a float-epsilon request means it."""
    return Fraction(math.exp(-eps))
