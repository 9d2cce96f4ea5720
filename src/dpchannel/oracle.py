"""Independent verification harness for the bounds and the synthesiser.

Three falsification tools, none of which share code with the closed forms
they attack:

* :func:`grid_search_optimal` exhaustively enumerates every row-stochastic
  matrix on a rational grid (tiny domains only) and keeps the best
  privacy-feasible binary utility.  If the synthesiser were wrong the grid
  would beat it.
* :func:`hillclimb_utility` perturbs a feasible channel with random
  in-row mass transfers, rejecting moves that break the exact ratio
  constraint; starting at the synthesised optimum, ten thousand rejected
  improvement attempts are evidence the boundary really is a maximum.
* :func:`random_dp_sample` streams seeded random channels that pass the
  exact audit, feeding the transformation-pipeline property tests.

All randomness flows from an explicit seed through ``random.Random`` so
every report reproduces bit for bit.
"""

import functools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .channels import ChannelMatrix, as_fraction, dp_audit, format_fraction
from .graphs import DisconnectedGraphError, InternalError, SizeCapError, UNREACHABLE
from .mechanisms import BaseDependentProfileError, optimal_mechanism

GRID_VERTEX_CAP = 3


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one oracle run; the best matrix always re-passes the audit.

    ``seed`` is None for the grid search, which draws nothing at random,
    and is then left out of the report.
    """

    method: str
    seed: int | None
    trials: int
    best_utility: Fraction
    best_matrix: ChannelMatrix

    def to_dict(self):
        d = {
            "method": self.method,
            "trials": self.trials,
            "best_utility": format_fraction(self.best_utility),
            "best_utility_float": float(self.best_utility),
            "best_matrix": self.best_matrix.to_dict(),
        }
        if self.seed is not None:
            d["seed"] = self.seed
        return d


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
    preserves both feasibility and the column-maxima sum).  Vertices are
    assigned in order, each vertex's candidate rows in lexicographic order,
    and ties keep the first assignment in that depth-first order, so the
    report is deterministic.  ``trials`` counts the feasible complete
    assignments: at the last vertex the candidates left are one bitmask,
    counted by its popcount and each scored against the column maxima
    carried down the search.  Domains beyond three vertices are refused:
    the grid simplex explodes combinatorially.
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

    # holding[j][y]: the candidates with y units in column j, as a bitmask
    holding = [[0] * (q + 1) for _ in range(n)]
    for c, cand in enumerate(cands):
        for j, y in enumerate(cand):
            holding[j][y] |= 1 << c
    # near[j][x]: the candidates with y units in column j that may sit beside
    # x units there: rn*x <= rd*y and rn*y <= rd*x, so ceil(r*x) <= y <= x/r
    near = [[functools.reduce(operator.or_, col[-(-rn * x // rd):rd * x // rn + 1], 0)
             for x in range(q + 1)] for col in holding]
    # compat[c]: the candidates allowed beside candidate c on an edge
    compat = [functools.reduce(operator.and_, (near[j][x] for j, x in enumerate(cand)))
              for cand in cands]

    full_mask = (1 << len(cands)) - 1
    adj = graph.adjacency
    last = n - 1
    assign = [0] * n
    best_total = -1
    best_assign = None
    trials = 0

    def backtrack(v, colmax):
        # colmax: the column maxima of the rows assigned to vertices 0 .. v-1
        nonlocal best_total, best_assign, trials
        mask = full_mask
        for u in adj[v]:
            if u < v:
                mask &= compat[assign[u]]
        if v == last:
            trials += mask.bit_count()
            while mask:
                low = mask & -mask
                mask ^= low
                c = low.bit_length() - 1
                total = sum(map(max, colmax, cands[c]))
                if total > best_total:  # strictly: ties keep the first in DFS order
                    best_total = total
                    best_assign = assign[:last] + [c]
            return
        while mask:
            low = mask & -mask
            mask ^= low
            c = assign[v] = low.bit_length() - 1
            backtrack(v + 1, tuple(map(max, colmax, cands[c])))

    backtrack(0, (0,) * n)
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

    Each step draws its row, its two columns and its transfer of 1 to 16
    units from ``random.Random(seed).getrandbits``, as ``randrange(n)``,
    ``randrange(m)``, ``randrange(m - 1)`` and ``randint(1, 16)`` draw them
    in CPython 3.10 to 3.13: a value below b is ``getrandbits(b.bit_length())``,
    drawn again until it is below b.  So a report is reproducible from its
    seed alone.
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
    draw = rng.getrandbits
    bits_n, bits_m, bits_k = n.bit_length(), m.bit_length(), (m - 1).bit_length()
    for _ in range(steps):
        # randrange(n), randrange(m), randrange(m - 1) and randint(1, 16), inline
        # (see the docstring): the calls into random.py cost more than the step
        i = draw(bits_n)
        while i >= n:
            i = draw(bits_n)
        j = draw(bits_m)
        while j >= m:
            j = draw(bits_m)
        k = draw(bits_k)
        while k >= m - 1:
            k = draw(bits_k)
        if k >= j:
            k += 1
        units = draw(5)
        while units >= 16:
            units = draw(5)
        delta = (units + 1) * den
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


def _contraction_towards_uniform(rows, dens, graph, r, m):
    """Smallest blend with the uniform channel that restores feasibility.

    The feasible set is a polytope containing the uniform channel in its
    interior (for r < 1), so for every violated constraint
    M[a][j] <= M[b][j]/r there is a minimal mixing weight that fixes it;
    the max over violations fixes them all, with equality on the worst.
    Row i is ``rows[i]`` over ``dens[i]``; with r = p/q the weight of cell
    (x, y) is E·m / (E·m + (q−p)·D_a·D_b) for excess E = p·D_b·x − q·D_a·y.
    """
    p, q = r.numerator, r.denominator
    needed = Fraction(0)
    for i, h in graph.edge_list:
        for a, b in ((i, h), (h, i)):
            pb, qa = p * dens[b], q * dens[a]
            slack = (q - p) * dens[a] * dens[b]
            for x, y in zip(rows[a], rows[b]):
                excess = (pb * x - qa * y) * m
                if excess > 0:
                    t = Fraction(excess, excess + slack)
                    if t > needed:
                        needed = t
    return needed


def random_dp_sample(graph, pp, count, seed):
    """Stream ``count`` seeded random channels that pass the exact audit.

    Construction: each column gets a random source vertex and a random
    extra attenuation; entries start as r^(distance to source + shift),
    which keeps every within-column adjacent log-ratio at most epsilon.
    Row normalisation can disturb those ratios, so each candidate is
    audit-checked and, when needed, blended toward the uniform channel by
    the exact minimal amount that restores feasibility before being
    re-audited and emitted.  Every component receives at least one source
    so no row normalises to zero.  Output width varies between n and n+2
    columns to exercise downstream column handling.
    """
    rng = random.Random(seed)
    n = graph.n
    dm = graph.distance_matrix
    # each component's smallest vertex: no smaller vertex is reachable from it
    reps = [v for v, row in enumerate(dm.dist) if row[:v].count(UNREACHABLE) == v]
    r = pp.r
    max_shift = 2
    top = dm.diameter + max_shift
    # r^k = p^k/q^k scaled by q^top; each integer row is over its own sum
    powers = [r.numerator ** k * r.denominator ** (top - k) for k in range(top + 1)]

    for _ in range(count):
        m = n + rng.choice((0, 0, 1, 2))
        sources = reps + [rng.randrange(n) for _ in range(m - len(reps))]
        rng.shuffle(sources)
        shifts = [rng.randrange(max_shift + 1) for _ in range(m)]
        rows = [[0 if drow[s] == UNREACHABLE else powers[drow[s] + k]
                 for s, k in zip(sources, shifts)] for drow in dm.dist]
        dens = [sum(row) for row in rows]
        t = _contraction_towards_uniform(rows, dens, graph, r, m)
        if t > 0:
            a, b = t.numerator, t.denominator
            rows = [[(b - a) * m * x + a * den for x in row] for row, den in zip(rows, dens)]
            dens = [b * m * den for den in dens]
        matrix = ChannelMatrix(rows, denominators=dens)
        audit = dp_audit(matrix, graph)
        if audit.max_ratio is None or audit.max_ratio > pp.inv_ratio:
            raise InternalError("sampler produced an infeasible channel, which cannot happen")
        yield matrix
