"""Channel arithmetic: audits, entropies, leakage, capacity, serialization."""

import itertools
import json
import math
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpchannel import (
    ChannelMatrix,
    DpAudit,
    Graph,
    PrivacyParameter,
    Prior,
    ROUNDED_FIXTURE_LN_TOL,
    as_fraction,
    build_clique,
    build_cycle,
    build_family,
    build_hamming,
    build_path,
    build_petersen,
    column_maxima_sum,
    dp_audit,
    format_fraction,
    leakage,
    log2_fraction,
    min_capacity,
    min_entropy,
    optimal_mechanism,
    posterior_min_entropy,
    posterior_success,
    prior_from_csv,
    prior_to_csv,
    random_dp_sample,
    truncated_geometric_fixture,
    vt_plus_certificate,
)

from chained_audit import distance_ratio_audit
from dpchannel import channels, graphs

HALF = PrivacyParameter.from_ratio(Fraction(1, 2))


def weights_to_matrix(weights):
    rows = []
    for w in weights:
        total = sum(w)
        rows.append([Fraction(x, total) for x in w])
    return ChannelMatrix.from_rows(rows)


def weights_to_prior(weights):
    total = sum(weights)
    return Prior(tuple(Fraction(x, total) for x in weights))


matrix_weights = st.integers(2, 4).flatmap(
    lambda n: st.integers(2, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 9), min_size=m, max_size=m)
            .filter(lambda row: sum(row) > 0),
            min_size=n, max_size=n)))


class TestCoercion:
    def test_string_forms(self):
        assert as_fraction("2/7") == Fraction(2, 7)
        assert as_fraction("0.535") == Fraction(107, 200)
        assert as_fraction(" 1/3 ") == Fraction(1, 3)

    def test_float_reads_decimal_literal(self):
        assert as_fraction(0.25) == Fraction(1, 4)
        assert as_fraction(0.1) == Fraction(1, 10)

    @pytest.mark.parametrize("q", [0, Fraction(-1, 2), "-3"])
    def test_log2_refuses_a_non_positive_rational(self, q):
        with pytest.raises(ValueError, match="^logarithm of a non-positive rational$"):
            log2_fraction(q)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_fraction(object())


class TestPrivacyParameter:
    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            PrivacyParameter.from_ratio(0)
        with pytest.raises(ValueError):
            PrivacyParameter.from_ratio("3/2")
        assert PrivacyParameter.from_ratio(1).epsilon == 0.0

    def test_epsilon_of_half(self):
        assert HALF.epsilon == pytest.approx(math.log(2), abs=1e-15)
        assert HALF.inv_ratio == 2

    def test_from_epsilon_roundtrip(self):
        pp = PrivacyParameter.from_epsilon(1.0)
        assert pp.epsilon == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            PrivacyParameter.from_epsilon(-0.5)


class TestPrior:
    def test_validation(self):
        with pytest.raises(ValueError):
            Prior((Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ValueError):
            Prior((Fraction(3, 2), Fraction(-1, 2)))

    def test_min_entropy_examples(self):
        assert min_entropy(Prior.uniform(4)) == 2.0
        assert min_entropy(Prior((Fraction(1),) + (Fraction(0),) * 3)) == 0.0
        mixed = Prior((Fraction(1, 10), Fraction(1, 10)) + (Fraction(1, 5),) * 4)
        assert min_entropy(mixed) == pytest.approx(math.log2(5), abs=1e-12)

    def test_csv_roundtrip(self):
        prior = Prior((Fraction(1, 10), Fraction(1, 5), Fraction(7, 10)))
        text = prior_to_csv(prior, ["A", "B", "C"])
        again, labels = prior_from_csv(text)
        assert again == prior
        assert labels == ("A", "B", "C")

    def test_csv_refuses_a_label_given_twice(self):
        with pytest.raises(ValueError, match="prior label 'A' given twice"):
            prior_from_csv("A,0\nA,1/2\nB,1/4\nC,1/4\n")

    def test_csv_skips_blank_lines(self):
        prior, labels = prior_from_csv("\nA,1/2\n , \n\nB,1/2\n")
        assert prior == Prior((Fraction(1, 2), Fraction(1, 2)))
        assert labels == ("A", "B")

    @pytest.mark.parametrize("text", ["A,1/2\nB,1/4,\nC,1/4\n", "A\n"],
                             ids=["three-fields", "one-field"])
    def test_csv_refuses_a_line_without_two_fields(self, text):
        with pytest.raises(ValueError, match="^prior file lines must be 'label,value'$"):
            prior_from_csv(text)


class TestChannelMatrix:
    def test_rows_must_sum_to_one_exactly(self):
        with pytest.raises(ValueError):
            ChannelMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]])

    def test_no_negative_entries(self):
        with pytest.raises(ValueError):
            ChannelMatrix.from_rows([[Fraction(3, 2), Fraction(-1, 2)]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            ChannelMatrix.from_rows([[1], [Fraction(1, 2), Fraction(1, 2)]])

    def test_csv_roundtrip_exact(self):
        m = ChannelMatrix.from_rows(
            [["1/3", "2/3"], ["0.25", "3/4"]], ["x0", "x1"], ["z0", "z1"])
        again = ChannelMatrix.from_csv(m.to_csv())
        assert again == m

    def test_csv_roundtrip_keeps_a_carriage_return_in_a_label(self):
        # csv quotes the "\r" on every Python, so csv.reader reads it back
        m = ChannelMatrix.identity(2, ["cr\rx", "y"], ["a", "cr\rz"])
        assert m.to_csv().startswith(',a,"cr\rz"\n"cr\rx",')
        assert ChannelMatrix.from_csv(m.to_csv()) == m

    def test_json_roundtrip_exact(self):
        m = truncated_geometric_fixture()
        assert ChannelMatrix.from_json(m.to_json()) == m

    def test_csv_refuses_a_row_label_given_twice(self):
        # with the prior A,1/4 / B,3/4 this used to fail as "prior must sum exactly to 1"
        with pytest.raises(ValueError, match="^row label 'A' given twice$"):
            ChannelMatrix.from_csv(",a,b\nA,1/2,1/2\nA,1/4,3/4\nB,1,0\n")

    @pytest.mark.parametrize("row_labels, col_labels", [
        (["x"], None), (["x", "y", "z"], None), (None, ["a"]), (None, ["a", "b", "c"]),
    ], ids=["rows-short", "rows-long", "cols-short", "cols-long"])
    def test_label_counts_must_match_the_shape(self, row_labels, col_labels):
        with pytest.raises(ValueError, match="^label counts must match the matrix shape$"):
            ChannelMatrix([[1, 1], [1, 1]], row_labels, col_labels, denominators=[2, 2])

    def test_dict_refuses_a_column_label_given_twice(self):
        with pytest.raises(ValueError, match="^column label 'u' given twice$"):
            ChannelMatrix.from_dict({"entries": [["1/2", "1/2"], ["1/3", "2/3"]],
                                     "col_labels": ["u", "u"]})

    @pytest.mark.parametrize("build", [
        lambda rows, cols: ChannelMatrix.identity(2).with_labels(rows, cols),
        lambda rows, cols: ChannelMatrix([[1, 1], [1, 3]], rows, cols, denominators=[2, 4]),
    ], ids=["with-labels", "integer-rows"])
    @pytest.mark.parametrize("rows, cols, message", [
        (["a", "a"], ["u", "v"], "^row label 'a' given twice$"),
        (["a", "b"], ["u", "u"], "^column label 'u' given twice$"),
    ], ids=["row", "column"])
    def test_every_constructor_refuses_a_label_given_twice(self, build, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            build(rows, cols)


class TestIntegerRows:
    def test_integer_rows_equal_and_hash_like_fraction_rows(self):
        from_fractions = ChannelMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 3)] * 3],
            ["x", "y"], ["a", "b", "c"])
        # the second row is not in lowest terms and gets reduced
        from_integers = ChannelMatrix([[2, 1, 1], [2, 2, 2]], ["x", "y"], ["a", "b", "c"],
                                      denominators=[4, 6])
        assert from_integers == from_fractions
        assert hash(from_integers) == hash(from_fractions)
        assert from_integers.numerators == ((2, 1, 1), (1, 1, 1))
        assert from_integers.denominators == (4, 3)
        assert from_integers.entries == from_fractions.entries
        assert from_integers.to_csv() == from_fractions.to_csv()
        assert from_integers.to_dict() == from_fractions.to_dict()

    def test_denominator_is_the_lcm_of_the_row(self):
        m = ChannelMatrix.from_rows([["1/6", "1/4", "7/12"], ["0", "1", "0"]])
        assert m.numerators == ((2, 3, 7), (0, 1, 0))
        assert m.denominators == (12, 1)

    def test_synthesised_kernel_equals_its_fraction_form(self):
        m = optimal_mechanism(build_hamming(2, 3), HALF).matrix
        again = ChannelMatrix.from_rows(m.entries, m.row_labels, m.col_labels)
        assert again == m and hash(again) == hash(m)
        assert m.with_labels(row_labels=tuple("abcdefghi")) != m

    def test_scaled_rows_put_every_entry_over_one_denominator(self):
        m = ChannelMatrix.from_rows([["1/6", "1/4", "7/12"], ["0", "1", "0"]])
        assert m.scaled_rows() == ([[2, 3, 7], [0, 12, 0]], 12)
        prior = (Fraction(2, 3), Fraction(1, 3))
        rows, den = m.scaled_rows(prior)
        assert all(Fraction(rows[i][j], den) == prior[i] * m.entry(i, j)
                   for i in range(m.rows) for j in range(m.cols))
        assert (rows, den) == ([[2, 3, 7], [0, 6, 0]], 18)

    def test_entries_are_always_derived_from_the_integer_rows(self):
        m = ChannelMatrix.from_rows([["0.5", "0.5"], ["1/3", "2/3"]])
        assert "entries" not in vars(m)
        assert m.entries == ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)))

    def test_matrices_are_immutable(self):
        m = ChannelMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.numerators = ((1, 0), (1, 0))

    @pytest.mark.parametrize("rows, denominators, message", [
        ([[1], [Fraction(1, 2), Fraction(1, 2)]], None, "all rows must have the same length"),
        ([[1], [1, 0]], [1, 1], "all rows must have the same length"),
        ([[Fraction(3, 2), Fraction(-1, 2)]], None, "probabilities must be non-negative"),
        ([[3, -1]], [2], "probabilities must be non-negative"),
        ([[Fraction(1, 2), Fraction(1, 3)]], None, "every row must sum exactly to 1"),
        ([[1, 1], [1, 2]], [2, 2], "every row must sum exactly to 1"),
        ([[]], None, "at least one row and column"),
        ([[0, 0]], [0], "one positive denominator"),
        ([[1, 0]], [1, 1], "one positive denominator"),
    ])
    def test_validation_messages(self, rows, denominators, message):
        with pytest.raises(ValueError, match=message):
            if denominators is None:
                ChannelMatrix.from_rows(rows)
            else:
                ChannelMatrix(rows, denominators=denominators)


def reference_dp_audit(matrix, graph):
    """The audit computed over Fractions, one ratio per column."""
    best = Fraction(1)
    witness = None
    for i, h in graph.edge_list:
        row_i = matrix.entries[i]
        row_h = matrix.entries[h]
        for j in range(matrix.cols):
            a, b = row_i[j], row_h[j]
            if a == b:
                continue
            if a == 0 or b == 0:
                wit = (i, h, j) if a > 0 else (h, i, j)
                return DpAudit(math.inf, wit, None)
            ratio = a / b if a > b else b / a
            if ratio > best:
                best = ratio
                witness = (i, h, j) if a > b else (h, i, j)
    eps_star = 0.0 if best == 1 else math.log(best.numerator) - math.log(best.denominator)
    return DpAudit(eps_star, witness, best)


# Graphs the synthesiser accepts, and all of them with a path added.
SYMMETRIC_GRAPHS = (build_cycle(5), build_clique(4), build_petersen(), build_hamming(2, 3))
AUDIT_GRAPHS = SYMMETRIC_GRAPHS + (build_path(4),)
# n = 16 with degrees 6, 4 and at most 2.
LARGE_AUDIT_GRAPHS = (build_hamming(2, 4), build_hamming(4, 2), build_path(16))
PRECISE = PrivacyParameter.from_epsilon(0.7)


def vertices_by_first_edge(g):
    """The vertices in the order in which ``edge_list`` first reaches them."""
    first = {}
    for k, edge in enumerate(g.edge_list):
        for v in edge:
            first.setdefault(v, k)
    return sorted(first, key=first.get)


def random_rows(rng, n, m, kind):
    """Seeded rows of one kind: small integer weights with mixed row
    denominators, a column that is zero in every row (0/0) and, one time in
    three, one more zero cell (x/0); weights from {1, 2}, so maxima tie; or
    powers of the 54-bit ratio of epsilon 0.7."""
    if kind == "weights":
        w = [[rng.randint(1, 7) for _ in range(m)] for _ in range(n)]
        if m > 2:
            for row in w:
                row[0] = 0
            if rng.random() < 1 / 3:
                w[rng.randrange(n)][rng.randrange(1, m)] = 0
    elif kind == "ties":
        w = [[rng.choice((1, 2)) for _ in range(m)] for _ in range(n)]
    else:
        w = [[PRECISE.r ** rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
    return [[Fraction(x) / sum(row) for x in row] for row in w]


class TestIntegerKernelMatchesFractionReference:
    @pytest.mark.parametrize("kind", ["weights", "ties", "precise"])
    def test_dp_audit(self, kind):
        rng = random.Random(f"audit-{kind}")
        outcomes = set()
        for _ in range(60):
            g = rng.choice(AUDIT_GRAPHS)
            m = ChannelMatrix.from_rows(random_rows(rng, g.n, rng.randint(2, 6), kind))
            audit = dp_audit(m, g)
            assert audit == reference_dp_audit(m, g)
            outcomes.add(audit.max_ratio is None)
        if kind == "weights":
            assert outcomes == {True, False}     # both infinite and finite audits

    def test_dp_audit_at_the_boundary_and_beyond(self):
        for g in SYMMETRIC_GRAPHS:
            kernel = optimal_mechanism(g, PRECISE).matrix   # every adjacent ratio ties at 1/r
            audit = dp_audit(kernel, g)
            assert audit == reference_dp_audit(kernel, g)
            assert audit.max_ratio == PRECISE.inv_ratio
            rng = random.Random(g.n)
            mixed = ChannelMatrix.from_rows(
                [[Fraction(k, 4) * x + Fraction(4 - k, 4) * y for x, y in zip(row, other)]
                 for row, other, k in zip(kernel.entries, reversed(kernel.entries),
                                           (rng.randint(0, 4) for _ in kernel.entries))])
            assert dp_audit(mixed, g) == reference_dp_audit(mixed, g)

    @pytest.mark.parametrize("kind", ["ties", "late-rise", "zero-after-rise", "cross"])
    @pytest.mark.parametrize("g", LARGE_AUDIT_GRAPHS, ids=lambda g: f"n{g.n}-e{len(g.edge_list)}")
    def test_dp_audit_skipping_edges_that_cannot_beat_the_worst_ratio(self, g, kind):
        """Rows that share one denominator at the 54-bit ratio, each a
        permutation of one row of powers of r, so most edges tie at the worst
        ratio and are skipped; a late vertex raises the worst ratio, then
        another brings a zero to a positive entry; or one row has its own
        denominator, so its edges are cross-multiplied among skipped ones."""
        rng = random.Random(f"skip-{kind}-{g.n}-{len(g.edge_list)}")
        late = vertices_by_first_edge(g)
        for _ in range(12):
            m = rng.randint(4, 8)
            base = [0, 1] + [rng.randint(0, 1) for _ in range(m - 4)]
            rows = []
            for _ in range(g.n):
                rng.shuffle(base)
                rows.append(base + [None, 3])      # None: a zero cell
            if kind == "late-rise":
                riser = rows[late[rng.randrange(g.n // 2, g.n)]]
            if kind == "zero-after-rise":
                riser, zeroed = rows[late[-2]], rows[late[-1]]
                zeroed[0], zeroed[-2] = zeroed[-2], zeroed[0]
            if kind in ("late-rise", "zero-after-rise"):     # r^0 facing r^3
                k = riser.index(0)
                riser[k], riser[-1] = 3, 0
            if kind == "cross":
                rows[rng.randrange(1, g.n - 1)][-1] = 2
            weights = [[0 if e is None else PRECISE.r ** e for e in row] for row in rows]
            matrix = ChannelMatrix.from_rows([[x / sum(w) for x in w] for w in weights])
            audit = dp_audit(matrix, g)
            assert audit == reference_dp_audit(matrix, g)
            assert len(set(matrix.denominators)) == (2 if kind == "cross" else 1)
            if kind == "ties":
                assert audit.max_ratio == PRECISE.inv_ratio
            if kind == "late-rise":
                assert audit.max_ratio == PRECISE.inv_ratio ** 3
            if kind == "zero-after-rise":
                assert audit.max_ratio is None and late[-1] in audit.worst_witness

    def test_zero_over_zero_is_ratio_one(self):
        m = ChannelMatrix.from_rows([["1/2", "1/2", "0"], ["1/4", "3/4", "0"]])
        audit = dp_audit(m, build_clique(2))
        assert audit == reference_dp_audit(m, build_clique(2))
        assert audit.max_ratio == 2 and audit.worst_witness == (0, 1, 0)

    @pytest.mark.parametrize("kind", ["weights", "ties", "precise"])
    def test_column_maxima_success_and_serialisers(self, kind):
        rng = random.Random(f"leakage-{kind}")
        for _ in range(30):
            n = rng.randint(1, 6)
            m = ChannelMatrix.from_rows(random_rows(rng, n, rng.randint(1, 6), kind))
            prior = Prior(tuple(random_rows(rng, 1, n, kind)[0]))
            rebuilt = ChannelMatrix.from_rows(m.entries)
            assert m.column_maxima == tuple(max(rebuilt.column(j)) for j in range(m.cols))
            assert posterior_success(prior, m) == sum(
                max(m.entries[i][j] * prior.probs[i] for i in range(n)) for j in range(m.cols))
            cells = [[format_fraction(x) for x in row] for row in m.entries]
            assert m.to_dict()["entries"] == cells
            assert m.to_csv().splitlines()[1:] == [
                ",".join([label] + row) for label, row in zip(m.row_labels, cells)]


class TestDpAudit:
    def test_constant_rows_leak_nothing(self):
        m = ChannelMatrix.constant_rows([Fraction(1, 3)] * 3, 3)
        audit = dp_audit(m, build_clique(3))
        assert audit.eps_star == 0.0
        assert audit.max_ratio == 1

    def test_identity_on_edge_is_infinite(self):
        audit = dp_audit(ChannelMatrix.identity(2), build_clique(2))
        assert math.isinf(audit.eps_star)
        assert audit.max_ratio is None
        assert not audit.is_dp(HALF, tol=1e9)

    def test_fixture_overshoots_by_rounding_only(self):
        audit = dp_audit(truncated_geometric_fixture(), build_clique(6))
        assert audit.max_ratio == Fraction(535, 267)
        assert audit.eps_star == pytest.approx(0.6950, abs=5e-4)
        assert abs(audit.eps_star - math.log(2)) < 0.01
        assert not audit.is_dp(HALF)  # default 1e-9 tolerance
        assert audit.is_dp(HALF, ROUNDED_FIXTURE_LN_TOL)

    def test_witness_reproduces_the_ratio(self):
        m = truncated_geometric_fixture()
        audit = dp_audit(m, build_clique(6))
        i, h, j = audit.worst_witness
        assert m.entry(i, j) / m.entry(h, j) == audit.max_ratio

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dp_audit(ChannelMatrix.identity(3), build_clique(2))

    def test_exact_comparison_at_zero_tolerance(self):
        m = optimal_mechanism(build_clique(4), HALF).matrix
        assert dp_audit(m, build_clique(4)).is_dp(HALF, tol=0)
        tighter = PrivacyParameter.from_ratio(Fraction(51, 100))
        assert not dp_audit(m, build_clique(4)).is_dp(tighter, tol=0)

    def test_invariant_under_column_permutation(self):
        m = truncated_geometric_fixture()
        perm = [3, 0, 5, 1, 4, 2]
        permuted = ChannelMatrix.from_rows(
            [[row[j] for j in perm] for row in m.entries],
            m.row_labels, [m.col_labels[j] for j in perm])
        g = build_clique(6)
        assert dp_audit(permuted, g).max_ratio == dp_audit(m, g).max_ratio


class TestPosterior:
    def test_identity_channel_reveals_everything(self):
        m = ChannelMatrix.identity(5)
        u = Prior.uniform(5)
        assert posterior_success(u, m) == 1
        assert posterior_min_entropy(u, m) == 0.0
        assert leakage(u, m) == pytest.approx(math.log2(5), abs=1e-12)

    def test_synthesised_clique_matrix_success(self):
        m = optimal_mechanism(build_clique(6), HALF).matrix
        u = Prior.uniform(6)
        assert posterior_success(u, m) == Fraction(2, 7)
        assert posterior_min_entropy(u, m) == pytest.approx(math.log2(3.5), abs=1e-12)
        assert leakage(u, m) == pytest.approx(math.log2(Fraction(12, 7)), abs=1e-12)

    def test_fixture_success_matches_published_value(self):
        m = truncated_geometric_fixture()
        success = posterior_success(Prior.uniform(6), m)
        assert success == Fraction(673, 3000)
        assert float(success) == pytest.approx(0.2242, abs=5e-4)

    def test_constant_rows_leak_exactly_zero(self):
        m = ChannelMatrix.constant_rows([Fraction(1, 4)] * 4, 3)
        prior = Prior((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        assert leakage(prior, m) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            posterior_success(Prior.uniform(3), ChannelMatrix.identity(2))

    def test_bit_exact_reproducibility(self):
        m = truncated_geometric_fixture()
        p = Prior((Fraction(1, 10), Fraction(1, 5), Fraction(1, 5),
                   Fraction(1, 5), Fraction(1, 5), Fraction(1, 10)))
        assert posterior_success(p, m) == posterior_success(p, m) == Fraction(603, 2500)


class TestCapacity:
    def test_identity(self):
        assert min_capacity(ChannelMatrix.identity(8)) == 3.0

    def test_constant_rows(self):
        m = ChannelMatrix.constant_rows([Fraction(1, 2), Fraction(1, 2)], 4)
        assert min_capacity(m) == 0.0

    def test_synthesised_clique_matrix(self):
        m = optimal_mechanism(build_clique(6), HALF).matrix
        assert column_maxima_sum(m) == Fraction(12, 7)
        assert min_capacity(m) == pytest.approx(math.log2(Fraction(12, 7)), abs=1e-12)


class TestDistanceRatioAudit:
    def test_adjacent_feasibility_chains_to_all_distances(self):
        g = build_cycle(6)
        m = optimal_mechanism(g, HALF).matrix
        assert distance_ratio_audit(m, g, HALF).ok

    def test_identity_fails(self):
        g = build_clique(3)
        result = distance_ratio_audit(ChannelMatrix.identity(3), g, HALF)
        assert not result.ok
        assert result.worst_witness is not None

    @pytest.mark.parametrize("g", [
        build_cycle(6), build_petersen(), build_path(4),
        Graph(6, {(0, 1), (1, 2), (3, 4)}),   # two components and an isolated vertex
    ], ids=["cycle6", "petersen", "path4", "disconnected"])
    def test_chained_scan_agrees_with_the_zero_tolerance_edge_audit(self, g):
        rng = random.Random(f"chained-{g.n}-{len(g.edge_list)}")
        kinds = set()
        for pp in (HALF, PrivacyParameter.from_ratio(Fraction(1, 3))):
            channels = list(random_dp_sample(g, pp, 6, seed=rng.randrange(10 ** 6)))
            for low in (1, 0):   # positive weights break ratios, zero weights break support
                for _ in range(12):
                    m = rng.randint(2, 5)
                    channels.append(weights_to_matrix(
                        [[rng.randint(low, 9) for _ in range(m - 1)] + [rng.randint(1, 9)]
                         for _ in range(g.n)]))
            for matrix in channels:
                audit = dp_audit(matrix, g)
                ok = audit.is_dp(pp, 0)
                assert distance_ratio_audit(matrix, g, pp).ok == ok
                kinds.add("feasible" if ok else "zero" if audit.max_ratio is None else "ratio")
        assert kinds == {"feasible", "ratio", "zero"}

    def test_synthesised_matrix_is_pinned_at_every_entry(self):
        g = build_cycle(6)
        from dpchannel import distances

        m = optimal_mechanism(g, HALF).matrix
        dm = distances(g)
        c = Fraction(8, 21)
        for i in range(6):
            for j in range(6):
                assert m.entry(i, j) == c * Fraction(1, 2) ** dm.d(i, j)
                # the constraint towards the diagonal is an equality
                assert m.entry(j, j) == m.entry(i, j) * Fraction(2) ** dm.d(i, j)


@settings(max_examples=60, deadline=None)
@given(matrix_weights, st.data())
def test_success_dominates_prior_and_capacity_dominates_leakage(weights, data):
    matrix = weights_to_matrix(weights)
    prior_weights = data.draw(st.lists(
        st.integers(0, 9), min_size=matrix.rows, max_size=matrix.rows
    ).filter(lambda w: sum(w) > 0))
    prior = weights_to_prior(prior_weights)
    success = posterior_success(prior, matrix)
    assert success >= prior.max_prob
    assert leakage(prior, matrix) >= 0.0
    assert min_capacity(matrix) >= leakage(prior, matrix) - 1e-9


@settings(max_examples=40, deadline=None)
@given(matrix_weights)
def test_capacity_attained_at_uniform_with_distinct_maxima_rows(weights):
    matrix = weights_to_matrix(weights)
    uniform = Prior.uniform(matrix.rows)
    gap = min_capacity(matrix) - leakage(uniform, matrix)
    assert gap >= -1e-9
    maxima_rows = [matrix.column(j).index(max(matrix.column(j)))
                   for j in range(matrix.cols)]
    if len(set(maxima_rows)) == matrix.cols:
        assert gap == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# audits of channels invariant under a certified family
# ---------------------------------------------------------------------------

class WatchedEdges(tuple):
    """An edge list that records whether the audit iterated all of it.

    The base-vertex audit slices off vertex 0's edges, and a slice of a
    tuple subclass is a plain tuple, so only the full scan iterates this.
    """

    walked = False

    def __iter__(self):
        self.walked = True
        return super().__iter__()


def watched_audit(matrix, g):
    """``dp_audit(matrix, g)`` and whether it scanned the whole edge list."""
    g.certified_family, g.degrees       # both read the edge list: compute them first
    edges = WatchedEdges(g.edge_list)
    g.__dict__["edge_list"] = edges
    try:
        return dp_audit(matrix, g), edges.walked
    finally:
        g.__dict__["edge_list"] = tuple(edges)


def full_scan(matrix, g):
    """The reference: the same edge list on a copy with no certified family."""
    copy = Graph(g.n, g.edge_list)
    copy.__dict__["certificate"] = None     # a copy of a clique product is recognised
    return dp_audit(matrix, copy)


def carried_rows(g, weights):
    """Row i is ``weights`` carried along the member of ``g.certified_family``
    that takes 0 to i: ``rows[f(0)][f(k)] == weights[k]`` for every member f."""
    rows = [None] * g.n
    for f in g.certified_family.perms:
        row = [0] * g.n
        for k, w in enumerate(weights):
            row[f[k]] = w
        rows[f[0]] = row
    return rows


def as_channel(rows):
    return ChannelMatrix(rows, denominators=[sum(row) for row in rows])


@st.composite
def certified_graphs(draw):
    """Graphs whose ``certified_family`` is generated: Hamming-labelled
    graphs (their translations), and cycles and circulants certified by
    ``vt_plus_certificate`` (the powers of a single-orbit automorphism, or
    the translations of the products of cliques among them)."""
    kind = draw(st.sampled_from(["hamming", "cycle", "circulant"]))
    if kind == "hamming":
        u, v = draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]))
        g = build_hamming(u, v)
    else:
        n = draw(st.integers(3, 12))
        jumps = {1} if kind == "cycle" else draw(
            st.sets(st.integers(1, n // 2), min_size=1, max_size=3))
        g = Graph(n, {(i, (i + d) % n) for i in range(n) for d in jumps})
        assert vt_plus_certificate(g).method in ("single-orbit powers",
                                                 "coordinate translations")
    assert g.certified_family.explicit is None
    return g


def audit_fields(audit):
    return audit.max_ratio, audit.worst_witness, audit.eps_star


class TestInvariantAudit:
    """A channel invariant under ``graph.certified_family`` is audited from
    vertex 0's edges, with the full scan's result; any other is scanned."""

    @settings(max_examples=80, deadline=None)
    @given(certified_graphs(), st.data())
    def test_invariant_channels_read_vertex_0_only(self, g, data):
        weights = data.draw(st.lists(st.integers(0, 6), min_size=g.n, max_size=g.n)
                            .filter(any), label="row 0")
        matrix = as_channel(carried_rows(g, weights))
        audit, walked = watched_audit(matrix, g)
        assert not walked
        assert audit_fields(audit) == audit_fields(full_scan(matrix, g))

    @settings(max_examples=80, deadline=None)
    @given(certified_graphs(), st.data())
    def test_one_moved_unit_falls_back_to_the_full_scan(self, g, data):
        weights = data.draw(st.lists(st.integers(0, 6), min_size=g.n, max_size=g.n)
                            .filter(any), label="row 0")
        rows = carried_rows(g, weights)
        x = data.draw(st.integers(0, g.n - 1), label="row")
        a = data.draw(st.sampled_from([j for j in range(g.n) if rows[x][j]]), label="from")
        b = data.draw(st.sampled_from([j for j in range(g.n) if j != a]), label="to")
        rows[x][a] -= 1
        rows[x][b] += 1
        matrix = as_channel(rows)
        audit, walked = watched_audit(matrix, g)
        assert walked
        assert audit_fields(audit) == audit_fields(full_scan(matrix, g))

    @pytest.mark.parametrize("spec", ["hamming:2,3", "hamming:3,2", "hamming:3,3", "cycle:7"])
    def test_breaking_only_the_last_generator_at_the_last_row_is_caught(self, spec):
        # Move one unit in the last row, and in every row the other
        # generators carry it to, so that only the last generator moves the
        # matrix; for a single generator that is the last row alone.
        g = build_family(spec)
        if g.certified_family is None:
            vt_plus_certificate(g)
        fam = g.certified_family
        rows = carried_rows(g, [3] + [1] * (g.n - 1))
        last = g.n - 1
        a = next(j for j in range(g.n) if rows[last][j] == 3)
        b = next(j for j in range(g.n) if j != a)
        for h in fam.perms[::fam.orders[-1]]:     # the last generator's exponent is 0
            rows[h[last]][h[a]] -= 1
            rows[h[last]][h[b]] += 1
        matrix = as_channel(rows)
        for gen in fam.generators[:-1]:
            assert all(matrix.numerators[gen[i]][gen[j]] == matrix.numerators[i][j]
                       for i in range(g.n) for j in range(g.n))
        audit, walked = watched_audit(matrix, g)
        assert walked
        assert audit_fields(audit) == audit_fields(full_scan(matrix, g))

    @pytest.mark.parametrize("spec", ["hamming:2,3", "cycle:8"])
    def test_all_equal_rows_have_no_witness(self, spec):
        g = build_family(spec)
        vt_plus_certificate(g)
        matrix = as_channel(carried_rows(g, [1] * g.n))
        audit, walked = watched_audit(matrix, g)
        assert not walked
        assert audit_fields(audit) == (1, None, 0.0) == audit_fields(full_scan(matrix, g))

    @pytest.mark.parametrize("spec", ["hamming:3,2", "cycle:9"])
    def test_an_invariant_zero_is_an_infinite_ratio_at_the_first_cell(self, spec):
        g = build_family(spec)
        vt_plus_certificate(g)
        matrix = as_channel(carried_rows(g, [0] + [1] * (g.n - 1)))
        audit, walked = watched_audit(matrix, g)
        assert not walked
        assert math.isinf(audit.eps_star) and audit.max_ratio is None
        assert audit_fields(audit) == audit_fields(full_scan(matrix, g))

    def test_an_explicit_cover_search_family_is_never_used(self):
        g = build_petersen()
        assert vt_plus_certificate(g).method == "automorphism cover search"
        assert g.certified_family.explicit is not None
        # the distance kernel is invariant under every automorphism
        matrix = optimal_mechanism(g, HALF).matrix
        audit, walked = watched_audit(matrix, g)
        assert walked
        assert audit_fields(audit) == audit_fields(full_scan(matrix, g))

    def test_a_certified_hamming_kernel_is_audited_from_vertex_0(self):
        g = build_hamming(4, 4)
        matrix = optimal_mechanism(g, HALF).matrix
        audit, walked = watched_audit(matrix, g)
        assert not walked
        assert audit.max_ratio == 2
        assert audit.worst_witness == (0, 1, 0)
        assert audit_fields(audit) == audit_fields(full_scan(matrix, g))

    def test_a_wider_matrix_is_scanned(self):
        g = build_hamming(2, 2)
        rows = [row + [1] for row in carried_rows(g, [2, 1, 1, 0])]
        matrix = as_channel(rows)
        audit, walked = watched_audit(matrix, g)
        assert walked
        assert audit_fields(audit) == audit_fields(full_scan(matrix, g))


class CountingCarries:
    """``graphs._walk_from_base``, counting the calls that carry a row: the
    invariance check makes one, through ``Graph.carried``, per matrix it
    compares."""

    def __init__(self, walk):
        self.walk = walk
        self.carries = 0

    def __call__(self, fam, row=None):
        self.carries += row is not None
        return self.walk(fam, row)


class TestCarriedKernelAudit:
    """The synthesised kernel records the graph it was carried on and is
    audited there from vertex 0 without the invariance check; copies, equal
    matrices and equal graphs are checked, and audit the same."""

    @pytest.mark.parametrize("spec", ["hamming:2,3", "hamming:3,3", "hamming:4,2", "cycle:7",
                                      "cycle:8", "clique:5"])
    @pytest.mark.parametrize("pp", [HALF, PrivacyParameter.from_epsilon(0.7)],
                             ids=["half", "epsilon-0.7"])
    def test_the_kernel_skips_the_check_and_copies_take_it(self, spec, pp, monkeypatch):
        g = build_family(spec)
        kernel = optimal_mechanism(g, pp).matrix
        relabelled = kernel.with_labels([f"x{i}" for i in range(g.n)])
        by_hand = ChannelMatrix([list(row) for row in kernel.numerators], kernel.row_labels,
                                kernel.col_labels, denominators=list(kernel.denominators))
        assert by_hand == kernel and hash(by_hand) == hash(kernel)
        reference = audit_fields(full_scan(kernel, g))
        spy = CountingCarries(graphs._walk_from_base)
        monkeypatch.setattr(graphs, "_walk_from_base", spy)
        checked = []
        for matrix in (kernel, relabelled, by_hand):
            before = spy.carries
            audit, walked = watched_audit(matrix, g)
            checked.append(spy.carries - before)
            assert not walked
            assert audit_fields(audit) == reference
        assert checked == [0, 1, 1]
        assert reference[0] == pp.inv_ratio

    def test_another_family_object_is_checked(self, monkeypatch):
        g = build_hamming(2, 3)
        kernel = optimal_mechanism(g, HALF).matrix
        other = build_hamming(2, 3)              # an equal graph with its own family
        assert other.certified_family == g.certified_family
        assert other.certified_family is not g.certified_family
        spy = CountingCarries(graphs._walk_from_base)
        monkeypatch.setattr(graphs, "_walk_from_base", spy)
        audit, walked = watched_audit(kernel, other)
        assert spy.carries == 1 and not walked
        assert audit_fields(audit) == audit_fields(full_scan(kernel, g))

    def test_petersen_keeps_the_full_scan(self, monkeypatch):
        g = build_petersen()
        vt_plus_certificate(g)
        kernel = optimal_mechanism(g, HALF).matrix
        spy = CountingCarries(graphs._walk_from_base)
        monkeypatch.setattr(graphs, "_walk_from_base", spy)
        audit, walked = watched_audit(kernel, g)
        assert walked and spy.carries == 0
        assert audit_fields(audit) == audit_fields(full_scan(kernel, g))


def relabelled_k2_k3():
    """K2 □ K3 read from a graph file, its vertex (a, b) numbered 5·(3a + b) mod 6."""
    pairs = [(a, b) for a in range(2) for b in range(3)]
    edges = [[5 * (3 * a + b) % 6, 5 * (3 * c + d) % 6] for (a, b), (c, d)
             in itertools.combinations(pairs, 2) if (a == c) != (b == d)]
    g = Graph.from_json(json.dumps({"n": 6, "edges": edges}))
    assert g.certificate.method == "coordinate translations"
    return g


def invariant_by_brute_force(matrix, g):
    """``M[f(i)][f(j)] == M[i][j]``, with equal row denominators, for every
    member f of ``g.certified_family``, listed one by one."""
    nums, dens = matrix.numerators, matrix.denominators
    return all(dens[f[i]] == dens[i] and all(nums[f[i]][f[j]] == nums[i][j]
                                             for j in range(g.n))
               for f in g.certified_family.perms for i in range(g.n))


class TestInvarianceRule:
    """``_is_invariant`` checks one rule, every row is row 0 carried, and it
    agrees with invariance under every member of the family."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(certified_graphs(), st.builds(relabelled_k2_k3)), st.data())
    def test_agrees_with_every_member_checked_one_by_one(self, g, data):
        weights = data.draw(st.lists(st.integers(0, 6), min_size=g.n, max_size=g.n)
                            .filter(any), label="row 0")
        rows = carried_rows(g, weights)
        if data.draw(st.booleans(), label="move one unit"):
            x = data.draw(st.integers(0, g.n - 1), label="row")
            a = data.draw(st.sampled_from([j for j in range(g.n) if rows[x][j]]), label="from")
            b = data.draw(st.sampled_from([j for j in range(g.n) if j != a]), label="to")
            rows[x][a] -= 1
            rows[x][b] += 1
        matrix = as_channel(rows)
        assert channels._is_invariant(matrix, g) == invariant_by_brute_force(matrix, g)


class TestChannelMatrixValue:
    """A ``ChannelMatrix`` is a frozen value: fields cannot be assigned or
    deleted, and equality and hash go by numerators, denominators and labels."""

    @pytest.mark.parametrize("name", ["numerators", "denominators", "row_labels",
                                      "col_labels", "entries", "other"])
    def test_assignment_and_deletion_are_refused(self, name):
        m = ChannelMatrix.identity(2)
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(m, name, ((1, 0), (1, 0)))
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(m, name)
        assert m == ChannelMatrix.identity(2)

    def test_equality_and_hash_go_by_rows_and_labels(self):
        base = ChannelMatrix([[1, 1], [0, 1]], ["x", "y"], ["a", "b"], denominators=[2, 1])
        same = ChannelMatrix.from_rows([["2/4", "1/2"], ["0", "1"]], ["x", "y"], ["a", "b"])
        key = (base.numerators, base.denominators, base.row_labels, base.col_labels)
        assert same == base and hash(same) == hash(base) == hash(key)
        others = [
            ChannelMatrix([[1, 0], [0, 1]], ["x", "y"], ["a", "b"], denominators=[1, 1]),
            ChannelMatrix([[1, 1], [1, 1]], ["x", "y"], ["a", "b"], denominators=[2, 2]),
            base.with_labels(row_labels=["x", "z"]),
            base.with_labels(col_labels=["a", "c"]),
        ]
        assert all(other != base for other in others)
        assert base != key and base.__eq__(key) is NotImplemented

    def test_the_carried_family_takes_no_part(self):
        g = build_hamming(2, 3)
        kernel = optimal_mechanism(g, HALF).matrix
        copy = ChannelMatrix(kernel.numerators, kernel.row_labels, kernel.col_labels,
                             denominators=kernel.denominators)
        assert kernel._carried_on is g
        assert not hasattr(copy, "_carried_on")
        assert copy == kernel and hash(copy) == hash(kernel)
        assert {kernel: 1}[copy] == 1
