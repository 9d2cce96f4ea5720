"""Mechanism synthesis, utility evaluation, query composition, fixtures."""

import itertools
import math
import re
from fractions import Fraction

import pytest

from dpchannel import (
    BaseDependentProfileError,
    ChannelMatrix,
    DisconnectedGraphError,
    Graph,
    MechanismBundle,
    PrivacyParameter,
    Prior,
    build_clique,
    build_cycle,
    build_family,
    build_hamming,
    build_path,
    build_petersen,
    compose_oblivious,
    distances,
    dp_audit,
    f_map_from_csv,
    hamming_leakage_bound,
    individual_leakage_bound,
    leakage,
    optimal_mechanism,
    posterior_success,
    symmetrize_distance_regular,
    to_diagonal_form,
    truncated_geometric_fixture,
    utility,
    vt_plus_certificate,
)

from chained_audit import distance_ratio_audit

HALF = PrivacyParameter(Fraction(1, 2))
ONE = PrivacyParameter(1)

NONUNIFORM_CITY_PRIOR = Prior((Fraction(1, 10), Fraction(1, 5), Fraction(1, 5),
                               Fraction(1, 5), Fraction(1, 5), Fraction(1, 10)))


class TestOptimalMechanism:
    def test_clique6_reproduces_published_matrix(self):
        bundle = optimal_mechanism(build_clique(6), HALF)
        assert bundle.c == Fraction(2, 7)
        for i in range(6):
            for j in range(6):
                expected = Fraction(2, 7) if i == j else Fraction(1, 7)
                assert bundle.matrix.entry(i, j) == expected

    def test_r_one_gives_the_uniform_channel(self):
        bundle = optimal_mechanism(build_cycle(5), ONE)
        assert set(itertools.chain.from_iterable(bundle.matrix.entries)) == {Fraction(1, 5)}
        assert bundle.c == Fraction(1, 5)

    def test_even_cycle_rows_are_rotations_of_the_kernel(self):
        bundle = optimal_mechanism(build_cycle(6), HALF)
        base = (Fraction(8, 21), Fraction(4, 21), Fraction(2, 21),
                Fraction(1, 21), Fraction(2, 21), Fraction(4, 21))
        assert bundle.matrix.entries[0] == base
        for i in range(6):
            assert bundle.matrix.entries[i] == tuple(base[(j - i) % 6] for j in range(6))

    def test_sits_exactly_on_the_privacy_boundary(self):
        for g in (build_clique(4), build_cycle(6), build_hamming(2, 3)):
            for r in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1)):
                pp = PrivacyParameter(r)
                audit = dp_audit(optimal_mechanism(g, pp).matrix, g)
                # ratio e^eps attained on adjacent pairs, never exceeded
                assert audit.max_ratio == 1 / r

    def test_utility_equals_the_normaliser_for_any_graph(self):
        for g in (build_clique(3), build_cycle(4), build_hamming(3, 2)):
            bundle = optimal_mechanism(g, HALF)
            assert posterior_success(Prior.uniform(g.n), bundle.matrix) == bundle.c

    def test_is_a_fixed_point_of_symmetrisation(self):
        g = build_hamming(2, 2)
        m = optimal_mechanism(g, HALF).matrix
        cf = to_diagonal_form(m, g)
        out = symmetrize_distance_regular(cf, g)
        assert out.matrix.entries == m.entries

    def test_refuses_base_dependent_profiles_with_a_diagnostic(self):
        with pytest.raises(BaseDependentProfileError) as exc:
            optimal_mechanism(build_path(3), HALF)
        assert "profile differs" in str(exc.value)

    def test_diagnostic_names_the_first_base_that_differs_from_vertex_0(self):
        star = Graph(4, {(0, 3), (1, 3), (2, 3)})   # leaves 0, 1, 2 share a profile
        with pytest.raises(BaseDependentProfileError,
                           match=r"vertices 0 \(1, 1, 2\) and 3 \(1, 3\);"):
            optimal_mechanism(star, HALF)

    def test_refuses_disconnected_graphs(self):
        g = Graph(4, {(0, 1), (2, 3)})
        with pytest.raises(DisconnectedGraphError):
            optimal_mechanism(g, HALF)

    def test_bundle_json_roundtrip(self):
        bundle = optimal_mechanism(build_cycle(4), HALF)
        again = MechanismBundle.from_json(bundle.to_json())
        assert again == bundle


def _product_of_cliques(orders, relabel=None):
    """K_v1 x ... x K_vu as a plain graph, vertex k renamed ``relabel[k]``."""
    cells = list(itertools.product(*map(range, orders)))
    relabel = relabel or list(range(len(cells)))
    return Graph(len(cells), {(relabel[a], relabel[b]) for a, b in itertools.combinations(
        range(len(cells)), 2) if sum(x != y for x, y in zip(cells[a], cells[b])) == 1})


CARRIED_GRAPHS = {
    **{spec: lambda spec=spec: build_family(spec) for spec in (
        "hamming:2,3", "hamming:3,3", "hamming:4,2", "cycle:7", "cycle:8", "clique:5")},
    "K2xK3": lambda: _product_of_cliques((2, 3)),
    "relabelled-hamming:3,3": lambda: _product_of_cliques(
        (3, 3, 3), [10 * k % 27 for k in range(27)]),
}
EPSILON_07 = PrivacyParameter.from_epsilon(0.7)     # a 54-bit ratio


def distance_kernel(g, pp):
    """The kernel w[d(i, j)] from all-pairs BFS, in lcm form."""
    dm = distances(g)
    p, q = pp.r.numerator, pp.r.denominator
    w = [p ** d * q ** (dm.diameter - d) for d in range(dm.diameter + 1)]
    rows = [[w[d] for d in row] for row in dm.dist]
    return ChannelMatrix(rows, g.labels, g.labels, denominators=[sum(rows[0])] * g.n)


class TestCarriedKernel:
    """On a generated certified family the kernel is row 0 carried along the
    family; it is the all-pairs distance kernel, built without the distance
    matrix."""

    @pytest.mark.parametrize("pp", [HALF, EPSILON_07], ids=["half", "epsilon-0.7"])
    @pytest.mark.parametrize("name", list(CARRIED_GRAPHS))
    def test_the_carried_kernel_is_the_distance_kernel(self, name, pp):
        g = CARRIED_GRAPHS[name]()
        assert g.certified_family.explicit is None
        matrix = optimal_mechanism(g, pp).matrix
        assert "distance_matrix" not in vars(g)
        expected = distance_kernel(g, pp)
        assert matrix.numerators == expected.numerators
        assert matrix.denominators == expected.denominators
        assert matrix == expected

    @pytest.mark.parametrize("pp", [HALF, EPSILON_07], ids=["half", "epsilon-0.7"])
    def test_an_explicit_family_reads_the_distance_matrix(self, pp):
        g = build_petersen()
        assert vt_plus_certificate(g).method == "automorphism cover search"
        assert optimal_mechanism(g, pp).matrix == distance_kernel(g, pp)
        assert "distance_matrix" in vars(g)


class TestTightLeakageMatrix:
    def test_square_domain_rows(self):
        m = optimal_mechanism(build_hamming(2, 2), HALF).matrix
        assert m.entries[0] == (Fraction(4, 9), Fraction(2, 9),
                                Fraction(2, 9), Fraction(1, 9))

    def test_attains_the_domain_leakage_bound_exactly(self):
        g = build_hamming(2, 2)
        m = optimal_mechanism(g, HALF).matrix
        bound = hamming_leakage_bound(2, 2, HALF)
        success = posterior_success(Prior.uniform(4), m)
        # exact form of attainment: success / (1/n) == v^u / core
        assert success * 4 == Fraction(4) / bound.exact_core
        assert leakage(Prior.uniform(4), m) == pytest.approx(bound.bits, abs=1e-12)

    def test_value_clique_attains_the_individual_bound(self):
        for v in range(2, 7):
            g = build_clique(v)
            m = optimal_mechanism(g, HALF).matrix
            bound = individual_leakage_bound(v, HALF)
            success = posterior_success(Prior.uniform(v), m)
            assert success * v == Fraction(v) / bound.exact_core
            assert leakage(Prior.uniform(v), m) == pytest.approx(bound.bits, abs=1e-12)

    def test_no_privacy_means_no_leakage(self):
        m = optimal_mechanism(build_hamming(2, 2), ONE).matrix
        assert leakage(Prior.uniform(4), m) == 0.0

    def test_distance_ratio_pinning(self):
        g = build_cycle(6)
        m = optimal_mechanism(g, HALF).matrix
        assert distance_ratio_audit(m, g, HALF).ok
        dm = distances(g)
        for i in range(6):
            for j in range(6):
                assert m.entry(j, j) == m.entry(i, j) * Fraction(2) ** dm.dist[i][j]


class TestUtility:
    def test_fixture_uniform_matches_published(self):
        value = utility(Prior.uniform(6), truncated_geometric_fixture())
        assert float(value) == pytest.approx(0.2242, abs=5e-4)

    def test_fixture_nonuniform_matches_published(self):
        value = utility(NONUNIFORM_CITY_PRIOR, truncated_geometric_fixture())
        assert value == Fraction(603, 2500)
        assert float(value) == pytest.approx(0.2412, abs=5e-4)

    def test_synthesised_matrix_beats_the_fixture(self):
        m2 = optimal_mechanism(build_clique(6), HALF).matrix
        assert utility(NONUNIFORM_CITY_PRIOR, m2) == Fraction(2, 7)
        assert utility(Prior.uniform(6), m2) == Fraction(2, 7)
        assert utility(Prior.uniform(6), truncated_geometric_fixture()) < Fraction(2, 7)

    def test_binary_optimal_equals_posterior_success_for_any_prior(self):
        m = truncated_geometric_fixture()
        priors = [Prior.uniform(6), NONUNIFORM_CITY_PRIOR,
                  Prior((Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0))]
        for prior in priors:
            assert utility(prior, m) == posterior_success(prior, m)

    def test_optimal_guess_dominates_every_explicit_map(self):
        # oracle: exhaustively enumerate all guess maps on a small channel
        g = build_cycle(3)
        m = optimal_mechanism(g, HALF).matrix
        prior = Prior((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        best = max(utility(prior, m, guess=mapping)
                   for mapping in itertools.product(range(3), repeat=3))
        assert utility(prior, m) == best

    def test_table_gain_generalises_binary(self):
        m = optimal_mechanism(build_clique(3), HALF).matrix
        prior = Prior.uniform(3)
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert utility(prior, m, eye) == utility(prior, m)
        assert utility(prior, m, eye, (0, 1, 2)) == utility(prior, m, None, (0, 1, 2))

    def test_weighted_table_changes_the_best_guess(self):
        m = ChannelMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)],
                                     [Fraction(1, 2), Fraction(1, 2)]])
        prior = Prior((Fraction(3, 4), Fraction(1, 4)))
        # huge reward for recovering the rare answer flips the optimal guess
        value = utility(prior, m, [[1, 0], [0, 100]])
        assert value == Fraction(25)

    def test_non_total_guess_map_is_rejected(self):
        m = optimal_mechanism(build_clique(3), HALF).matrix
        with pytest.raises(ValueError):
            utility(Prior.uniform(3), m, guess=(0, 1))
        with pytest.raises(ValueError):
            utility(Prior.uniform(3), m, guess=(0, 1, 7))


class TestUtilityRefusals:
    """Each refusal of ``utility``, with its message."""

    @pytest.mark.parametrize("prior, gain, guess, message", [
        (Prior.uniform(2), None, None, "prior length must match the matrix rows"),
        (Prior.uniform(3), [[1, 0], [0, 1]], None,
         "gain table must be indexed by the answer set"),
        (Prior.uniform(3), None, [0, 1, 2], "guess map must be total over the output set"),
        (Prior.uniform(3), None, [0, 1, 2, 3], "guess map targets unknown answers"),
        (Prior.uniform(3), None, [0, 1, 2, -1], "guess map targets unknown answers"),
        (Prior.uniform(3), [[1, 0], [0]], None, "gain table must be square"),
        (Prior.uniform(3), [[1, 0, 0], [0, 1, 0]], None, "gain table must be square"),
    ])
    def test_utility(self, prior, gain, guess, message):
        matrix = ChannelMatrix.from_rows([[Fraction(1, 4)] * 4] * 3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            utility(prior, matrix, gain, guess)


class TestComposeOblivious:
    def test_identity_query_copies_the_randomiser(self):
        g = build_clique(6)
        bundle = optimal_mechanism(g, HALF)
        k, induced = compose_oblivious(g, range(6), bundle)
        assert k.entries == bundle.matrix.entries
        assert induced.edge_list == g.edge_list

    def test_parity_query_on_the_square_induces_an_edge(self):
        g = build_hamming(2, 2)  # labels 00, 01, 10, 11
        f = tuple((int(lab[0]) + int(lab[1])) % 2 for lab in g.labels)
        answers = build_clique(2)
        bundle = optimal_mechanism(answers, HALF)
        k, induced = compose_oblivious(g, f, bundle)
        assert set(induced.edge_list) == {(0, 1)}
        assert len(set(k.entries)) == 2
        audit_k = dp_audit(k, g)
        audit_h = dp_audit(bundle.matrix, induced)
        assert audit_k.max_ratio == audit_h.max_ratio == 2

    def test_constant_query_kills_all_leakage(self):
        g = build_hamming(2, 2)
        bundle = optimal_mechanism(build_clique(2), HALF)
        k, induced = compose_oblivious(g, (0, 0, 0, 0), bundle)
        assert induced.edge_list == ()
        assert leakage(Prior.uniform(4), k) == 0.0
        assert dp_audit(k, g).eps_star == 0.0

    def test_image_must_be_covered(self):
        g = build_hamming(2, 2)
        bundle = optimal_mechanism(build_clique(2), HALF)
        with pytest.raises(ValueError):
            compose_oblivious(g, (0, 1, 2, 0), bundle)
        with pytest.raises(ValueError):
            compose_oblivious(g, (0, 1), bundle)

    def test_composite_audit_never_exceeds_the_randomisers(self):
        # a non-surjective query only exposes part of the randomiser
        g = build_hamming(2, 2)
        answers = build_clique(3)
        bundle = optimal_mechanism(answers, HALF)
        f = tuple((int(lab[0]) + int(lab[1])) % 2 for lab in g.labels)
        k, induced = compose_oblivious(g, f, bundle)
        audit_k = dp_audit(k, g)
        audit_h_full = dp_audit(bundle.matrix, answers)
        audit_h_induced = dp_audit(bundle.matrix, induced)
        assert audit_k.max_ratio == audit_h_induced.max_ratio
        assert audit_k.max_ratio <= audit_h_full.max_ratio

    def test_f_map_csv_parsing(self):
        text = "00,even\n01,odd\n10,odd\n11,even\n"
        f = f_map_from_csv(text, ("00", "01", "10", "11"), ("even", "odd"))
        assert f == (0, 1, 1, 0)
        with pytest.raises(ValueError):
            f_map_from_csv("00,even\n", ("00", "01"), ("even", "odd"))

    def test_f_map_csv_keeps_labels_verbatim(self):
        secrets, answers = (" lead", "trail ", "end\r"), ("a,b", " odd")
        text = '" lead", odd\ntrail , odd\n"end\r","a,b"\n'
        assert f_map_from_csv(text, secrets, answers) == (1, 1, 0)
        with pytest.raises(ValueError, match="^unknown answer label ' odd'$"):
            f_map_from_csv(text, secrets, ("odd",))

    def test_f_map_csv_skips_blank_lines(self):
        text = "\n00,even\n , \n\n01,odd\n"
        assert f_map_from_csv(text, ("00", "01"), ("even", "odd")) == (0, 1)

    @pytest.mark.parametrize("text, message", [
        ("00,even,odd\n01,odd\n", "query map lines must be 'secret,answer'"),
        ("00,even\n02,odd\n", "unknown secret label '02'"),
        ("00,even\n01,zero\n", "unknown answer label 'zero'"),
        ("00,even\n00,odd\n", "secret label '00' mapped twice"),
    ], ids=["three-fields", "unknown-secret", "unknown-answer", "mapped-twice"])
    def test_f_map_csv_refusals(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            f_map_from_csv(text, ("00", "01"), ("even", "odd"))


class TestFixture:
    def test_published_entries(self):
        m = truncated_geometric_fixture()
        a = m.row_labels.index("A")
        c = m.row_labels.index("C")
        f = m.col_labels.index("F")
        assert m.entry(a, a) == Fraction("0.535")
        assert m.entry(c, f) == Fraction("0.353")

    def test_rows_sum_within_printed_rounding(self):
        m = truncated_geometric_fixture()
        for row in m.entries:
            assert abs(float(sum(row)) - 1.0) <= 1e-3

    def test_eps_star_is_near_but_above_ln2(self):
        audit = dp_audit(truncated_geometric_fixture(), build_clique(6))
        assert math.log(2) < audit.eps_star < math.log(2) + 0.01
