"""The three certificate searches as they checked candidates before bitmasks.

Each function is the earlier library search verbatim, except that it also
returns the number of candidate placements (nodes) it tried, so the tests
can check that the bitmask searches in ``dpchannel.graphs`` try the same
nodes in the same order: a search that completes here in N nodes must
return the same result at ``effort=N`` there and run out of budget at
N - 1.  They re-check each candidate against every earlier placement, in
O(depth) steps per node, which is slow but easy to read.
"""

import collections

from dpchannel import AutomorphismFamily, SearchBudgetError
from dpchannel.graphs import _refined_colors, _search_order


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
