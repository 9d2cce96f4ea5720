"""Library searches as they were before their fast rewrites, kept as references.

The three certificate searches check candidates as they did before
bitmasks.  Each function is the earlier library search verbatim, except
that it also returns the number of candidate placements (nodes) it tried,
so the tests can check that the bitmask searches in ``dpchannel.graphs``
try the same nodes in the same order: a search that completes here in N
nodes must return the same result at ``effort=N`` there and run out of
budget at N - 1.  They re-check each candidate against every earlier
placement, in O(depth) steps per node, which is slow but easy to read.

The two oracle searches, :func:`grid_search_optimal` and
:func:`hillclimb_utility`, are the earlier ``dpchannel.oracle`` functions
verbatim: the grid scores every feasible assignment at its leaf, and the
hillclimb draws through ``randrange`` and ``randint``.  The library must
return an equal ``SearchReport`` for every input.
"""

import collections
import random
from fractions import Fraction

from dpchannel import (
    AutomorphismFamily,
    BaseDependentProfileError,
    ChannelMatrix,
    DisconnectedGraphError,
    InternalError,
    SearchBudgetError,
    SearchReport,
    SizeCapError,
    as_fraction,
    optimal_mechanism,
)
from dpchannel.graphs import _refined_colors, _search_order
from dpchannel.oracle import GRID_VERTEX_CAP


def automorphism_group(g, effort):
    """Every automorphism and the nodes tried, as ``(perms, nodes)``."""
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
    # stack[k] iterates the candidates still untried for order[k]
    stack = [iter(by_color[colors[order[0]]])]
    while stack:
        k = len(stack) - 1
        v = order[k]
        for w in stack[-1]:
            if used[w]:
                continue
            nodes += 1
            if nodes > effort:
                raise SearchBudgetError("automorphism enumeration exceeded its budget")
            for t in range(k):
                u = order[t]
                if (u in adj[v]) != (img[u] in adj[w]):
                    break
            else:                           # w extends the partial automorphism
                img[v] = w
                if k + 1 < n:
                    used[w] = True
                    stack.append(iter(by_color[colors[order[k + 1]]]))
                    break
                perms.append(tuple(img))
                img[v] = -1
        else:                               # order[k] is exhausted: undo order[k - 1]
            stack.pop()
            if k:
                u = order[k - 1]
                used[img[u]] = False
                img[u] = -1
    return perms, nodes


def single_orbit_automorphism(g, effort):
    """A single-cycle automorphism or None, and the nodes tried."""
    n = g.n
    if n == 1:
        return (0,), 0
    if not g.is_regular:
        return None, 0
    if len(set(_refined_colors(g))) > 1:
        return None, 0
    adj = [set(a) for a in g.adjacency]
    seq = [0]
    in_seq = [False] * n
    in_seq[0] = True
    nodes = 0
    # stack[t - 1] iterates the candidates still untried for seq[t]
    stack = [iter(range(n))]
    while len(seq) < n:
        t = len(seq)
        a = seq[t - 1]
        for w in stack[-1]:
            if in_seq[w]:
                continue
            nodes += 1
            if nodes > effort:
                raise SearchBudgetError("single-orbit search exceeded its budget")
            if all((a in adj[seq[i]]) == (w in adj[seq[i + 1]]) for i in range(t - 1)):
                seq.append(w)
                if t + 1 == n and not all(
                        (w in adj[seq[i]]) == (0 in adj[seq[(i + 1) % n]]) for i in range(n)):
                    seq.pop()               # the cycle does not close
                    continue
                in_seq[w] = True
                stack.append(iter(range(n)))
                break
        else:                               # seq[t] is exhausted: undo seq[t - 1]
            stack.pop()
            if t == 1:
                return None, nodes
            in_seq[seq.pop()] = False
    perm = [0] * n
    for i in range(n):
        perm[seq[i]] = seq[(i + 1) % n]
    return tuple(perm), nodes


def sharply_transitive_family(perms, n, effort):
    """A sharply transitive family drawn from ``perms`` or None, and the
    nodes tried."""
    ident = tuple(range(n))
    cands = [p for p in perms if p != ident and all(p[v] != v for v in range(n))]
    chosen = [ident]
    used = [1 << v for v in range(n)]
    nodes = 0

    def untried(start):
        """The indices a new depth tries: cands[start:], or none when too
        few are left to complete the family."""
        if n - len(chosen) > len(cands) - start:
            start = len(cands)
        return iter(range(start, len(cands)))

    stack = [untried(0)]
    while len(chosen) < n:
        for idx in stack[-1]:
            p = cands[idx]
            nodes += 1
            if nodes > effort:
                raise SearchBudgetError("family cover search exceeded its budget")
            if any((used[v] >> p[v]) & 1 for v in range(n)):
                continue
            for v in range(n):
                used[v] |= 1 << p[v]
            chosen.append(p)
            stack.append(untried(idx + 1))
            break
        else:                               # this depth is exhausted: undo its pick
            stack.pop()
            if not stack:
                return None, nodes
            p = chosen.pop()
            for v in range(n):
                used[v] &= ~(1 << p[v])
    return AutomorphismFamily(tuple(chosen)), nodes


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def grid_search_optimal(graph, pp, step):
    """Exhaustive search over grid-valued square channels, best feasible utility.

    ``step`` must divide 1; every row is a composition of 1/step grid units.
    Square matrices lose no generality for binary utility (column merging
    preserves both feasibility and the column-maxima sum).  Ties keep the
    first assignment in lexicographic candidate order, so the report is
    deterministic.  Domains beyond three vertices are refused: the grid
    simplex explodes combinatorially.
    """
    n = graph.n
    if n > GRID_VERTEX_CAP:
        raise SizeCapError(f"grid search is exhaustive only up to {GRID_VERTEX_CAP} vertices")
    step = as_fraction(step)
    if step <= 0 or (1 / step).denominator != 1:
        raise ValueError("step must be a positive rational that divides 1")
    q = int(1 / step)
    cands = list(_compositions(q, n))
    rn, rd = pp.r.numerator, pp.r.denominator

    def compatible(a, b):
        # both directions of the adjacent-column ratio cap, in integers
        return all(rn * x <= rd * y and rn * y <= rd * x for x, y in zip(a, b))

    k = len(cands)
    compat = [0] * k
    for x in range(k):
        for y in range(x, k):
            if compatible(cands[x], cands[y]):
                compat[x] |= 1 << y
                compat[y] |= 1 << x

    full_mask = (1 << k) - 1
    adj = graph.adjacency
    assign = [-1] * n
    best_total = -1
    best_assign = None
    trials = 0

    def backtrack(v):
        nonlocal best_total, best_assign, trials
        if v == n:
            trials += 1
            total = sum(max(cands[assign[i]][j] for i in range(n)) for j in range(n))
            if total > best_total:
                best_total = total
                best_assign = assign.copy()
            return
        mask = full_mask
        for u in adj[v]:
            if assign[u] != -1:
                mask &= compat[assign[u]]
        while mask:
            low = mask & -mask
            mask ^= low
            assign[v] = low.bit_length() - 1
            backtrack(v + 1)
        assign[v] = -1

    backtrack(0)
    if best_assign is None:
        raise InternalError("grid search found no feasible matrix, which cannot happen")
    matrix = ChannelMatrix([cands[c] for c in best_assign], denominators=[q] * n)
    return SearchReport("grid", None, trials, Fraction(best_total, q * n), matrix)


def hillclimb_utility(graph, pp, iters=10_000, seed=0, start=None):
    """Seeded local search over privacy-feasible channels.

    Each step proposes moving a random rational amount of mass between two
    columns of one row; proposals that violate the exact ratio constraint
    against any neighbouring row are rejected, and surviving proposals are
    accepted when they do not lower the uniform-prior utility.  The best
    matrix seen is reported (max reduction, earliest on ties).

    ``start`` defaults to the synthesised optimum, falling back to the
    uniform channel on graphs the synthesiser refuses (base-dependent or
    disconnected).  A one-column start has no move and is returned as is,
    with zero trials.
    """
    n = graph.n
    if start is None:
        try:
            start = optimal_mechanism(graph, pp).matrix
        except (BaseDependentProfileError, DisconnectedGraphError):
            start = ChannelMatrix([[1] * n] * n, denominators=[n] * n)
    if start.rows != n:
        raise ValueError("start matrix rows must match the graph's vertex count")
    rng = random.Random(seed)
    m = start.cols
    rows, den = start.scaled_rows()
    entries = [[256 * x for x in row] for row in rows]     # over 256 * den; steps are k/256
    colmax = [max(col) for col in zip(*entries)]
    best_success = success = sum(colmax)
    best_entries = [row.copy() for row in entries]
    adj = graph.adjacency
    p, q = pp.r.numerator, pp.r.denominator

    def feasible(i, j, value):
        for h in adj[i]:
            other = entries[h][j]
            if p * value > q * other or p * other > q * value:
                return False
        return True

    steps = iters if m > 1 else 0   # one column admits no transfer
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(m)
        k = rng.randrange(m - 1)
        if k >= j:
            k += 1
        delta = rng.randint(1, 16) * den
        if entries[i][j] < delta:
            continue
        new_j = entries[i][j] - delta
        new_k = entries[i][k] + delta
        if not (feasible(i, j, new_j) and feasible(i, k, new_k)):
            continue
        reduced_j = max([new_j] + [entries[h][j] for h in range(n) if h != i])
        reduced_k = max([new_k] + [entries[h][k] for h in range(n) if h != i])
        new_success = success - colmax[j] - colmax[k] + reduced_j + reduced_k
        if new_success < success:
            continue
        entries[i][j] = new_j
        entries[i][k] = new_k
        colmax[j] = reduced_j
        colmax[k] = reduced_k
        success = new_success
        if success > best_success:
            best_success = success
            best_entries = [row.copy() for row in entries]

    matrix = ChannelMatrix(best_entries, start.row_labels, start.col_labels,
                           denominators=[256 * den] * n)
    return SearchReport("hillclimb", seed, steps, Fraction(best_success, 256 * den * n), matrix)
