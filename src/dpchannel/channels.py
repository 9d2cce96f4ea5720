"""Channel matrices over exact rationals and their privacy/leakage measures.

A channel is a row-stochastic matrix of conditional output probabilities.
All probabilities are kept exact end to end; logarithms (entropies, epsilon
values) appear only at the reporting boundary.  This makes audits, the
canonical-form transformations and every bound-tightness check exact, with
no tolerance debates about what "attains" means.

A :class:`ChannelMatrix` stores each row as integer numerators over one
positive per-row denominator, the lcm of the row's entry denominators.  A
row is stochastic iff its numerators are non-negative and sum to its
denominator, and entries of two rows compare by integer cross-multiplication,
so validation, the audit, column maxima and posterior success never divide;
the transforms, the oracle searches and ``utility`` use ``scaled_rows``,
and the random sampler builds integer rows directly.  ``Fraction`` values
appear at the API edge (``entries``, ``entry``, the results).

Every probability value a caller or a file supplies, matrix cells and prior
values alike, is read by one cell reader, ``_read_rows``: it turns each row
of cells into integer numerators over one common denominator.  A cell whose
stripped text is ASCII ``a`` or ``a/b`` (b nonzero, not necessarily
reduced) is read with ``int``; each distinct text is read once per call;
every other cell goes through :func:`as_fraction`, so accepted syntax, float
handling and error messages are exactly those of ``Fraction``.

The privacy audit follows the discrete ratio formulation: a matrix satisfies
the epsilon constraint for a graph iff every pair of adjacent rows keeps
each column within a factor e^epsilon.  Quotients 0/0 count as ratio 1
(neither input can produce that output); x/0 with x > 0 is an infinite
ratio and the audit reports eps_star = inf.
"""

import csv
import decimal
import io
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat

DEFAULT_LN_TOL = 1e-9   # the verdict's slack: a ratio up to e^epsilon (1 + tol) passes


def as_fraction(x):
    """Coerce to an exact rational.

    Strings accept both ``p/q`` and decimal literals.  Floats are read
    through their shortest decimal representation, so ``0.25`` means 1/4
    and ``0.535`` means 107/200; pass a string or Fraction to control the
    value precisely.  A bool is no number: it is refused with the other
    types.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    if isinstance(x, float):
        return Fraction(repr(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact probability")


class _TextCells(dict):
    """Memo of cell text -> ``(numerator, denominator)``, reading each text once."""

    def __missing__(self, text):
        num, slash, den = text.strip().partition("/")
        if not slash:
            den = "1"
        if num.isascii() and num.isdecimal() and den.isascii() and den.isdecimal() \
                and int(den) != 0:
            pair = int(num), int(den)
        else:
            pair = _exact_pair(text)
        self[text] = pair
        return pair


def _exact_pair(value):
    """``(numerator, denominator)`` of ``as_fraction(value)``; a zero
    denominator is a ValueError that names the cell."""
    try:
        q = as_fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"cell {value!r} has a zero denominator") from None
    return q.numerator, q.denominator


def _read_rows(rows):
    """The one reader of probability values: ``(nums, dens)``, where row i of
    ``rows`` equals ``nums[i]`` over the positive integer ``dens[i]``.

    Cells are anything :func:`as_fraction` reads.  ``dens[i]`` is the lcm of
    the row's cell denominators as written, so it need not be the lowest;
    the ``ChannelMatrix`` constructor reduces rows to the lcm form.
    """
    texts = _TextCells()
    nums, dens = [], []
    for row in rows:
        pairs = [texts[c] if type(c) is str else _exact_pair(c) for c in row]
        row_dens = {d for _, d in pairs}
        den = math.lcm(*row_dens)
        scale = {d: den // d for d in row_dens}
        nums.append(tuple([n * scale[d] for n, d in pairs]))
        dens.append(den)
    return nums, dens


def log2_fraction(q):
    """log2 of a positive rational, safe for arbitrarily large terms."""
    q = as_fraction(q)
    if q <= 0:
        raise ValueError("logarithm of a non-positive rational")
    return math.log2(q.numerator) - math.log2(q.denominator)


def _digits(x):
    """``str(x)`` for an int of any length.

    ``str`` refuses ints past the interpreter's conversion limit (4300
    digits by default); ``decimal`` spells those, so every exact value is
    printed in full, while input parsing keeps the limit.
    """
    try:
        return str(x)
    except ValueError:
        return str(decimal.Decimal(x))


def format_fraction(q):
    return _format_ratio(q.numerator, q.denominator)


def _format_ratio(num, den):
    """The rational ``num/den`` spelt in lowest terms, ``p/q``, or ``p`` when q is 1."""
    g = math.gcd(num, den)
    return _digits(num // g) if g == den else f"{_digits(num // g)}/{_digits(den // g)}"


def _csv_line(fields):
    """``fields`` as one CSV line, without its newline, quoted as ``csv`` quotes them;
    its ``\\r\\n`` terminator, cut off, has ``csv`` quote a ``\\r`` on 3.10-3.12 as 3.13 does."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(fields)
    return out.getvalue()[:-2]


def _csv_rows(text):
    """The rows of CSV ``text`` that hold a cell other than whitespace."""
    return [row for row in csv.reader(io.StringIO(text)) if any(c.strip() for c in row)]


class _Spelling(dict):
    """Memo of numerator -> ``_format_ratio(numerator, den)``, quoted, for one ``den``."""

    def __init__(self, den, quote=""):
        self.den, self.quote = den, quote

    def __missing__(self, num):
        text = self[num] = self.quote + _format_ratio(num, self.den) + self.quote
        return text


@dataclass(frozen=True)
class PrivacyParameter:
    """Privacy level as the exact adjacent-row ratio floor r = e^(-epsilon).

    Keeping r rational makes every feasibility comparison exact; epsilon
    itself is derived and used for reporting only.
    """

    r: Fraction

    def __post_init__(self):
        r = as_fraction(self.r)
        if not 0 < r <= 1:
            raise ValueError("ratio must lie in (0, 1]")
        object.__setattr__(self, "r", r)

    @property
    def epsilon(self):
        return math.log(self.r.denominator) - math.log(self.r.numerator)

    @property
    def inv_ratio(self):
        """The pointwise cap e^epsilon as an exact rational."""
        return 1 / self.r

    @classmethod
    def from_epsilon(cls, eps):
        if not 0 <= eps < math.inf:
            raise ValueError("epsilon must be a finite non-negative number")
        r = math.exp(-eps)
        if r == 0:
            raise ValueError(f"epsilon {eps:g} is too large: e^-epsilon underflows to 0")
        return cls(Fraction(r))


@dataclass(frozen=True)
class Prior:
    """Exact probability distribution over the input index set."""

    probs: tuple

    def __post_init__(self):
        (nums,), (den,) = _read_rows([self.probs])
        if any(x < 0 for x in nums):
            raise ValueError("probabilities must be non-negative")
        if sum(nums) != den:
            raise ValueError("prior must sum exactly to 1")
        object.__setattr__(self, "probs", tuple(Fraction(x, den) for x in nums))

    @classmethod
    def uniform(cls, n):
        return cls((Fraction(1, n),) * n)

    @property
    def max_prob(self):
        return max(self.probs)

    def __len__(self):
        return len(self.probs)


@dataclass(frozen=True, init=False, repr=False)
class ChannelMatrix:
    """Row-stochastic matrix of exact conditional probabilities p(col | row).

    Row i is stored as integer numerators ``numerators[i]`` over one
    positive denominator ``denominators[i]``, the lcm of the row's entry
    denominators, so the form is unique and every row satisfies
    ``sum(numerators[i]) == denominators[i]``.  ``entries``, the same values
    as a tuple of ``Fraction`` tuples, is derived on first access.

    The constructor takes integer rows, row i being ``numerators[i]`` over
    ``denominators[i]``; it validates them, reduces them to the lcm form and
    refuses a row or column label given twice.  :meth:`from_rows` builds
    from entry values, anything :func:`as_fraction` reads, through the
    module's one cell reader.  Instances are immutable, compare and hash by
    value and labels.  CSV and JSON spell each value once per denominator,
    and a kernel carried from its row 0 spells that row alone and has its
    graph carry the texts (``_formatted_rows``).
    """

    numerators: tuple
    denominators: tuple
    row_labels: tuple
    col_labels: tuple

    def __init__(self, numerators, row_labels=None, col_labels=None, *, denominators):
        nums = tuple(tuple(row) for row in numerators)
        dens = tuple(denominators)
        if len(dens) != len(nums) or any(den <= 0 for den in dens):
            raise ValueError("every row needs one positive denominator")
        if not nums or not nums[0]:
            raise ValueError("a channel matrix needs at least one row and column")
        m = len(nums[0])
        for row, den in zip(nums, dens):
            if len(row) != m:
                raise ValueError("all rows must have the same length")
            if min(row) < 0:
                raise ValueError("probabilities must be non-negative")
            if sum(row) != den:
                raise ValueError("every row must sum exactly to 1")
        # Reduce to the lcm form; a row's sum is its denominator, so the gcd
        # of its numerators divides the denominator too.
        gcds = [math.gcd(*row) for row in nums]
        nums = tuple(row if g == 1 else tuple(x // g for x in row)
                     for row, g in zip(nums, gcds))
        dens = tuple(den // g for den, g in zip(dens, gcds))
        rl = tuple(str(x) for x in row_labels) if row_labels is not None \
            else tuple(str(i) for i in range(len(nums)))
        cl = tuple(str(x) for x in col_labels) if col_labels is not None \
            else tuple(str(j) for j in range(m))
        if len(rl) != len(nums) or len(cl) != m:
            raise ValueError("label counts must match the matrix shape")
        for kind, labels in (("row", rl), ("column", cl)):
            if len(set(labels)) < len(labels):
                label = next(x for x, k in Counter(labels).items() if k > 1)
                raise ValueError(f"{kind} label {label!r} given twice")
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominators", dens)
        object.__setattr__(self, "row_labels", rl)
        object.__setattr__(self, "col_labels", cl)

    def __repr__(self):
        return (f"ChannelMatrix.from_rows({self.entries!r}, row_labels={self.row_labels!r},"
                f" col_labels={self.col_labels!r})")

    @cached_property
    def entries(self):
        return tuple(tuple(Fraction(x, den) for x in row)
                     for row, den in zip(self.numerators, self.denominators))

    @property
    def rows(self):
        return len(self.numerators)

    @property
    def cols(self):
        return len(self.numerators[0])

    def entry(self, i, j):
        return Fraction(self.numerators[i][j], self.denominators[i])

    def _row_factors(self, weights):
        """``(f, D)``: integers with ``weights[i] / denominators[i] == f[i] / D``,
        D the lcm of the reduced denominators.  A weight p/q is in lowest
        terms, so p/(q*den) reduces by ``gcd(p, den)`` alone."""
        tops = [w.numerator for w in weights]
        gcds = list(map(math.gcd, tops, self.denominators))
        bottoms = [w.denominator * (den // g)
                   for w, den, g in zip(weights, self.denominators, gcds)]
        den = math.lcm(*bottoms)
        return [p // g * (den // b) for p, g, b in zip(tops, gcds, bottoms)], den

    def scaled_rows(self, weights=None):
        """Integers ``(rows, den)`` with ``weights[i] * M[i][j] == rows[i][j] / den``."""
        factors, den = self._row_factors(weights or [1] * self.rows)
        return [[x * f for x in row] for row, f in zip(self.numerators, factors)], den

    def _weighted_column_maxima(self, weights):
        """``(tops, den)`` with ``max_i weights[i] * M[i][j] == tops[j] / den``,
        streamed over the numerators without building the scaled rows."""
        factors, den = self._row_factors(weights)
        return [max(map(operator.mul, col, factors)) for col in zip(*self.numerators)], den

    def with_labels(self, row_labels=None, col_labels=None):
        return type(self)(self.numerators, row_labels or self.row_labels,
                          col_labels or self.col_labels, denominators=self.denominators)

    @classmethod
    def from_rows(cls, rows, row_labels=None, col_labels=None):
        """Build from entry values, read by the module's one cell reader."""
        nums, dens = _read_rows(rows)
        return cls(nums, row_labels, col_labels, denominators=dens)

    @classmethod
    def identity(cls, n, row_labels=None, col_labels=None):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        return cls(rows, row_labels, col_labels, denominators=[1] * n)

    # -- serialization ------------------------------------------------------

    def _formatted_rows(self, quote=""):
        """The rows as reduced ``num/den`` texts between ``quote`` marks (digits
        and a slash: ``'"'`` spells their JSON), each value once per row
        denominator.  A kernel carried on a graph (``_carried_on``) spells row 0
        and has that graph carry the texts (:meth:`Graph.carried`), as it
        carried the numerators."""
        graph = getattr(self, "_carried_on", None)
        if graph is not None:
            spell = _Spelling(self.denominators[0], quote)
            return graph.carried(map(spell.__getitem__, self.numerators[0]))
        memos = {}
        return (list(map(memos.setdefault(den, _Spelling(den, quote)).__getitem__, row))
                for row, den in zip(self.numerators, self.denominators))

    def _csv_lines(self):
        """``to_csv``'s lines without newlines, row by row.  Labels go through ``csv``
        (:func:`_csv_line`), a row label as ``(label, "")`` since ``csv`` writes a lone
        empty field as ``""``; the cells are digits and a slash, which ``csv`` never
        quotes, so they are joined."""
        yield _csv_line(("", *self.col_labels))
        for label, row in zip(self.row_labels, self._formatted_rows()):
            yield _csv_line((label, "")) + ",".join(row)

    def to_csv(self):
        """Column labels, then each row's label and cells (never quoted: ``_csv_lines``)."""
        return "\n".join(self._csv_lines()) + "\n"

    @classmethod
    def from_csv(cls, text):
        """Read ``to_csv``'s form: labels exactly as ``csv`` reads them, cells
        by the module's one cell reader."""
        rows = _csv_rows(text)
        if len(rows) < 2:
            raise ValueError("matrix CSV needs a header row and at least one data row")
        return cls.from_rows([r[1:] for r in rows[1:]], [r[0] for r in rows[1:]], rows[0][1:])

    def to_dict(self):
        return {
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "entries": list(map(list, self._formatted_rows())),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        """Build from ``to_dict``'s form, an object whose ``entries`` is a
        list of rows, each a list of cells, strings or numbers; labels are
        optional lists of strings or integers.  As in :meth:`Graph.from_dict`,
        a malformed field is a ValueError naming it, and a JSON boolean is
        no number."""
        entries = d.get("entries") if isinstance(d, dict) else None
        lists = (list, tuple)
        if not isinstance(entries, lists) or not all(isinstance(r, lists) for r in entries):
            raise ValueError("matrix JSON must be an object whose 'entries' is a list of row lists")
        if not set(map(type, chain.from_iterable(entries))) <= {str, int, float}:
            raise ValueError("matrix JSON 'entries' cells must be strings or numbers")
        labels = d.get("row_labels"), d.get("col_labels")
        for field, names in zip(("row_labels", "col_labels"), labels):
            if names is not None and not (
                    type(names) in lists and set(map(type, names)) <= {str, int}):
                raise ValueError(f"matrix JSON {field!r} must be a list of strings or integers")
        return cls.from_rows(entries, *labels)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def prior_to_csv(prior, labels=None):
    labels = labels or [str(i) for i in range(len(prior))]
    return "".join(_csv_line((label, format_fraction(p))) + "\n"
                   for label, p in zip(labels, prior.probs))


def prior_from_csv(text):
    """Parse ``label,value`` lines; returns the prior and the label order.

    A label given on two lines is refused.  Values are read by the matrix
    cells' reader, through ``Prior``.
    """
    values = {}
    for row in _csv_rows(text):
        if len(row) != 2:
            raise ValueError("prior file lines must be 'label,value'")
        label = row[0]
        if label in values:
            raise ValueError(f"prior label {label!r} given twice")
        values[label] = row[1]
    return Prior(tuple(values.values())), tuple(values)


# ---------------------------------------------------------------------------
# privacy audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DpAudit:
    """Worst adjacent same-column ratio of a channel over a graph.

    ``max_ratio`` is the exact worst ratio, None when infinite (some
    adjacent pair maps one input to an output the other never produces).
    The witness is oriented so that
    ``M[witness[0]][witness[2]] / M[witness[1]][witness[2]]`` realises it.
    """

    worst_witness: tuple | None
    max_ratio: Fraction | None

    @property
    def eps_star(self):
        """The natural log of the worst ratio, inf when it is infinite."""
        q = self.max_ratio
        return math.inf if q is None else math.log(q.numerator) - math.log(q.denominator)

    def is_dp(self, pp, tol=DEFAULT_LN_TOL):
        """Does the audited channel meet the declared privacy level?

        Exactly when the worst ratio is at most e^epsilon (1 + tol), compared
        as rationals; ``tol`` is read by :func:`as_fraction`.
        """
        return (self.max_ratio is not None
                and self.max_ratio <= pp.inv_ratio * (1 + as_fraction(tol)))


def _is_invariant(matrix, graph):
    """Is the square matrix invariant under the members of the graph's
    generated ``certified_family``, ``M[f(i)][f(j)] == M[i][j]`` for every
    member f?  That holds iff every row is row 0 :meth:`Graph.carried`.

    The members form a regular group; let f_i be the one taking 0 to i.  If
    ``M[i][j] == M[0][f_i^-1 j]`` for every i, then f_{g(i)} = g f_i for a
    member g, so ``M[g(i)][g(j)] == M[0][f_i^-1 g^-1 g(j)] == M[i][j]``;
    conversely, invariance under f_i gives ``M[i][j] == M[0][f_i^-1 j]``.
    Rows are compared as numerators, which sum to their denominators.

    A kernel ``optimal_mechanism`` carried on this very graph object
    (``_carried_on``), whose family is never replaced once recorded, meets
    the rule by construction and is not checked again.  Any other matrix
    or graph, an equal one or a copy included, is.
    """
    if matrix.cols != matrix.rows:
        return False
    if getattr(matrix, "_carried_on", None) is graph:
        return True
    return graph.carried(matrix.numerators[0]) == matrix.numerators


def dp_audit(matrix, graph):
    """Audit the ratio constraint of every adjacent row pair in every column.

    Entries a/D_i and b/D_h are compared as the integers a*D_h and b*D_i
    (as a and b when D_i == D_h), and the worst ratio is kept as an integer
    pair in lowest terms, reduced once after each edge that raised it.  The
    witness is the first strict maximum in ``edge_list`` and column order.

    In the full scan, an edge whose rows share a denominator enters the cell
    loop only if some cell strictly beats the worst ratio num/den in either
    direction, ``a*den > b*num`` or ``b*den > a*num``: one C-level pass over
    per-row products ``row*den`` and ``row*num``, made when a row is first
    met and dropped when the worst ratio rises.  A tie, an equal pair or a
    lower ratio changes nothing, and a zero facing a positive entry always
    beats (b*den > 0), so a skipped edge could not have changed the result
    or the witness.  Edges across two denominators, and the vertex-0 scan
    below, run the cell loop on every edge.

    When ``graph.certified_family`` is a generated family and the square
    matrix is invariant under its members (:func:`_is_invariant`), only
    vertex 0's edges are audited, and the result is exactly that of the
    full scan.  With f_i the member taking 0 to i, the map (i, h, j) ->
    (0, f_i^-1 h, f_i^-1 j) keeps the ratio ``M[i][j] / M[h][j]`` and sends every edge to an edge
    at 0, so the worst ratio, and any zero facing a positive entry, occurs
    at vertex 0's edges.  Those edges are (0, h) for h in ``adjacency[0]``,
    in order: exactly the first ``degrees[0]`` entries of the sorted
    ``edge_list``, which is not built.  So the first cell attaining the
    worst ratio, the witness, is the full scan's.
    """
    if matrix.rows != graph.n:
        raise ValueError("matrix rows must match the graph's vertex count")
    nums, dens = matrix.numerators, matrix.denominators
    invariant = _is_invariant(matrix, graph)
    edges = [(0, h) for h in graph.adjacency[0]] if invariant else graph.edge_list
    best_num = best_den = 1
    witness = None
    products = {}       # row -> (row * best_den, row * best_num), full scan only
    for i, h in edges:
        den_i, den_h = dens[i], dens[h]
        if den_i == den_h:
            if not invariant:
                for r in (i, h):
                    if r not in products:
                        products[r] = (list(map(operator.mul, nums[r], repeat(best_den))),
                                       list(map(operator.mul, nums[r], repeat(best_num))))
                (low_i, high_i), (low_h, high_h) = products[i], products[h]
                if not (any(map(operator.gt, low_i, high_h))
                        or any(map(operator.gt, low_h, high_i))):
                    continue
            pairs = zip(nums[i], nums[h])
        else:
            pairs = zip(map(operator.mul, nums[i], repeat(den_h)),
                        map(operator.mul, nums[h], repeat(den_i)))
        raised = False
        for j, (x, y) in enumerate(pairs):
            if x == y:
                continue
            if x == 0 or y == 0:
                wit = (i, h, j) if x > 0 else (h, i, j)
                return DpAudit(wit, None)
            if x > y:
                if x * best_den > y * best_num:
                    best_num, best_den, witness, raised = x, y, (i, h, j), True
            elif y * best_den > x * best_num:
                best_num, best_den, witness, raised = y, x, (h, i, j), True
        if raised:
            g = math.gcd(best_num, best_den)
            best_num, best_den = best_num // g, best_den // g
            products = {}
    return DpAudit(witness, Fraction(best_num, best_den))


# ---------------------------------------------------------------------------
# entropy and leakage
# ---------------------------------------------------------------------------

def min_entropy(prior):
    """Bits of one-try guessing resistance: -log2 of the largest probability."""
    return -log2_fraction(prior.max_prob)


def posterior_success(prior, matrix):
    """Exact probability that a one-try attacker guesses the input after observing.

    Computed as the sum over columns of the largest joint entry
    ``p(row) * p(col | row)``, which equals the expected best posterior.
    """
    if len(prior) != matrix.rows:
        raise ValueError("prior length must match the matrix rows")
    tops, den = matrix._weighted_column_maxima(prior.probs)
    return Fraction(sum(tops), den)


def posterior_min_entropy(prior, matrix, *, success=None):
    """-log2 of the posterior success; pass ``success`` when
    ``posterior_success(prior, matrix)`` is already known."""
    if success is None:
        success = posterior_success(prior, matrix)
    return -log2_fraction(success)


def leakage(prior, matrix, *, success=None):
    """Min-entropy leakage in bits: prior minus posterior guessing entropy.

    Evaluated as a single log of the exact success ratio, so independence
    gives exactly 0.0.  Pass ``success`` when ``posterior_success(prior,
    matrix)`` is already known.
    """
    if success is None:
        success = posterior_success(prior, matrix)
    return log2_fraction(success / prior.max_prob)


def column_maxima_sum(matrix):
    """Exact sum of the column maxima (the quantity whose log is the capacity)."""
    tops, den = matrix._weighted_column_maxima([1] * matrix.rows)
    return Fraction(sum(tops), den)


def min_capacity(matrix):
    """Largest possible leakage over all priors, in bits.

    Attained at the uniform prior; equals log2 of the column-maxima sum.
    """
    return log2_fraction(column_maxima_sum(matrix))
