"""Graph construction, distances and symmetry classification."""

import itertools
import random
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search
from dpchannel import graphs
from dpchannel.cli import main
from dpchannel import (
    AutomorphismFamily,
    DEFAULT_SEARCH_EFFORT,
    DisconnectedGraphError,
    DistanceProfile,
    Graph,
    IntersectionArray,
    InternalError,
    SearchBudgetError,
    SizeCapError,
    UNREACHABLE,
    VtPlusCertificate,
    automorphism_group,
    build_clique,
    build_cycle,
    build_family,
    build_hamming,
    build_path,
    build_petersen,
    common_profile,
    distance_profile,
    distances,
    hamming_translation_family,
    is_distance_regular,
    single_orbit_automorphism,
    verify_family,
    vt_plus_certificate,
)

STAR_K13 = Graph(4, {(0, 1), (0, 2), (0, 3)})


def independent_bfs(edges, n, source):
    """Plain BFS written here, independent of the library's implementation."""
    adj = {v: set() for v in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@st.composite
def edge_sets(draw):
    n = draw(st.integers(1, 9))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pairs, max_size=20))


class TestAdjacency:
    """The stored form is one sorted neighbour tuple per vertex, whatever
    the order, orientation and repeats of the pairs it was built from;
    ``edges`` and ``edge_list`` are read back from it."""

    @settings(max_examples=200, deadline=None)
    @given(edge_sets())
    def test_neighbours_are_sorted_and_edges_listed(self, drawn):
        n, drawn_pairs = drawn
        # every other pair again reversed, every third again as drawn
        pairs = drawn_pairs + [(j, i) for i, j in drawn_pairs[::2]] + drawn_pairs[::3]
        g = Graph(n, pairs)
        for v in range(n):
            assert g.adjacency[v] == tuple(sorted(
                {j for i, j in pairs if i == v} | {i for i, j in pairs if j == v}))
        edges = frozenset((min(e), max(e)) for e in pairs)
        assert set(g.edge_list) == edges
        assert g.edge_list == tuple(sorted(edges))
        assert g.to_dict() == {"n": n, "edges": [[i, j] for i, j in sorted(edges)]}
        backwards = Graph(n, reversed(pairs))
        assert backwards == g and hash(backwards) == hash(g)
        assert Graph(g.n, g.edge_list) == g
        assert Graph.from_json(g.to_json()) == g


class TestRefusals:
    """Each refusal of a constructor or validator, with its message."""

    @pytest.mark.parametrize("n", [0, -1, 2.0], ids=["zero", "negative", "float"])
    def test_graph_vertex_count(self, n):
        with pytest.raises(ValueError, match="^vertex count must be a positive integer$"):
            Graph(n, [])

    @pytest.mark.parametrize("counts, message", [
        ((), "a distance profile starts with a single vertex at distance 0"),
        ((2, 1), "a distance profile starts with a single vertex at distance 0"),
        ((1, -1, 2), "profile counts must be non-negative"),
        ((1, 2, 0), "profile must not carry trailing zero strata"),
    ])
    def test_distance_profile(self, counts, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DistanceProfile(counts)

    @pytest.mark.parametrize("b, c, message", [
        ((3, 2), (1,), "b and c must cover the same distance range"),
        ((3, -2), (1, 1), "intersection numbers are non-negative"),
        ((3, 2), (2, 1), "c_1 is 1 in any distance-regular graph"),
    ])
    def test_intersection_array(self, b, c, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            IntersectionArray(b, c)

    @pytest.mark.parametrize("kwargs, message", [
        ({}, "give either the explicit permutations or generators"),
        ({"explicit": ((0, 1), (1, 0)), "generators": ((1, 0),), "orders": (2,)},
         "give either the explicit permutations or generators"),
        ({"generators": ((1, 0),)}, "each generator needs a positive exponent bound"),
        ({"generators": ((1, 0),), "orders": (0,)},
         "each generator needs a positive exponent bound"),
        ({"generators": ((1, 0),), "orders": (2.0,)},
         "each generator needs a positive exponent bound"),
    ], ids=["neither", "both", "no-bound", "zero-bound", "float-bound"])
    def test_automorphism_family(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AutomorphismFamily(**kwargs)

    @pytest.mark.parametrize("status, family, message", [
        ("maybe", None, "unknown status 'maybe'"),
        ("yes", None, "a family is attached exactly to 'yes' answers"),
        ("no", AutomorphismFamily(((0,),)), "a family is attached exactly to 'yes' answers"),
        ("unknown", AutomorphismFamily(((0,),)),
         "a family is attached exactly to 'yes' answers"),
    ])
    def test_vt_plus_certificate(self, status, family, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            VtPlusCertificate(status, family, "by hand")

    @pytest.mark.parametrize("spec, message", [
        ("path:0", "a path needs at least one vertex"),
        ("petersen:3", "the petersen family takes no parameters"),
        ("hamming:3", "malformed graph family spec 'hamming:3'"),
    ])
    def test_family_specs(self, spec, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_family(spec)


class TestConstructors:
    def test_hamming_3_2_is_the_cube(self):
        g = build_hamming(3, 2)
        assert g.n == 8
        assert set(g.degrees) == {3}
        assert distances(g).diameter == 3
        assert g.labels[0] == "000" and g.labels[7] == "111"

    def test_hamming_1_2_is_a_single_edge(self):
        g = build_hamming(1, 2)
        assert g.n == 2
        assert g.edge_list == ((0, 1),)

    def test_hamming_2_3_against_brute_force_enumeration(self):
        # oracle: rebuild the product domain from scratch and compare
        g = build_hamming(2, 3)
        tuples = list(itertools.product(range(3), repeat=2))
        expected = set()
        for a, b in itertools.combinations(range(9), 2):
            diff = sum(x != y for x, y in zip(tuples[a], tuples[b]))
            if diff == 1:
                expected.add((a, b))
        assert set(g.edge_list) == expected
        assert g.n == 9
        assert set(g.degrees) == {4}
        reach = independent_bfs(expected, 9, 0)
        assert max(reach.values()) == 2

    def test_hamming_size_cap(self):
        message = r"^hamming\(13,2\) has 8192 vertices, above the cap of 4096$"
        with pytest.raises(SizeCapError, match=message):
            build_family("hamming:13,2")
        assert build_family("hamming:13,2", size_cap=10_000).n == 8192

    def test_hamming_counts_up_to_2_to_the_2048_are_printed_in_full(self):
        with pytest.raises(SizeCapError, match=rf"^hamming\(2048,2\) has {2 ** 2048} vertices"):
            build_family("hamming:2048,2")
        with pytest.raises(SizeCapError, match=r"^hamming\(2049,2\) has 2\^2049 vertices"):
            build_family("hamming:2049,2")

    @pytest.mark.parametrize("spec", ["clique:11", "cycle:11", "path:11", "petersen"])
    def test_sized_families_respect_the_cap(self, spec):
        n = build_family(spec).n
        what = re.escape(spec.replace(":", "(") + ")" if ":" in spec else spec)
        message = rf"^{what} has {n} vertices, above the cap of {n - 1}$"
        with pytest.raises(SizeCapError, match=message):
            build_family(spec, size_cap=n - 1)
        assert build_family(spec, size_cap=n).n == n

    @pytest.mark.parametrize("u, v", [(0, 2), (1, 1), (-1, 3), (2, -100)])
    def test_hamming_argument_errors(self, u, v):
        with pytest.raises(ValueError):
            build_hamming(u, v)
        # build_family checks the cap only on arguments build_hamming accepts
        with pytest.raises(ValueError, match="^need at least"):
            build_family(f"hamming:{u},{v}", size_cap=0)

    def test_clique_6(self):
        g = build_clique(6)
        assert len(g.edge_list) == 15
        assert distances(g).diameter == 1

    def test_cycle_6(self):
        g = build_cycle(6)
        assert distances(g).diameter == 3
        assert distance_profile(g).counts == (1, 2, 2, 1)

    def test_petersen(self):
        g = build_petersen()
        assert g.n == 10
        assert set(g.degrees) == {3}
        assert distances(g).diameter == 2
        assert distance_profile(g).counts == (1, 3, 6)
        # girth 5: no triangles, no 4-cycles
        adj = [set(a) for a in g.adjacency]
        for i, j in g.edge_list:
            assert not (adj[i] & adj[j])
        for i, j in itertools.combinations(range(10), 2):
            assert len(adj[i] & adj[j]) <= 1

    @pytest.mark.parametrize("builder, n", [(build_clique, 1), (build_cycle, 2)])
    def test_minimum_sizes(self, builder, n):
        with pytest.raises(ValueError):
            builder(n)

    def test_family_specs(self):
        assert build_family("clique:6").n == 6
        assert build_family("hamming:2,3").n == 9
        assert build_family("petersen").n == 10
        assert build_family("path:3").n == 3
        with pytest.raises(ValueError):
            build_family("torus:3")
        with pytest.raises(ValueError):
            build_family("clique:x")

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            Graph(3, {(0, 0)})
        with pytest.raises(ValueError):
            Graph(3, {(0, 5)})
        with pytest.raises(ValueError):
            Graph(2, {(0, 1)}, labels=("a",))

    def test_a_vertex_label_given_twice_is_refused(self):
        with pytest.raises(ValueError, match="^vertex label 'a' given twice$"):
            Graph(3, {(0, 1), (1, 2)}, labels=("a", "b", "a"))
        with pytest.raises(ValueError, match="^vertex label 'a' given twice$"):
            Graph.from_json('{"n": 2, "edges": [[0, 1]], "labels": ["a", "a"]}')

    def test_graph_json_roundtrip(self):
        g = build_hamming(2, 2)
        again = Graph.from_json(g.to_json())
        assert again == g


class TestDistances:
    def test_hamming_distance_is_graph_distance(self):
        g = build_hamming(3, 2)
        assert distances(g).dist[0][7] == 3  # 000 vs 111

    def test_cycle_antipodal(self):
        assert distances(build_cycle(6)).dist[0][3] == 3

    @pytest.mark.parametrize("g", [
        build_hamming(2, 3), build_cycle(5), build_petersen(), STAR_K13,
    ])
    def test_symmetric_zero_diagonal_lipschitz(self, g):
        dm = distances(g)
        for i in range(g.n):
            assert dm.dist[i][i] == 0
            for j in range(g.n):
                assert dm.dist[i][j] == dm.dist[j][i]
        for i, h in g.edge_list:
            for j in range(g.n):
                assert abs(dm.dist[i][j] - dm.dist[h][j]) <= 1

    @pytest.mark.parametrize("g", [
        build_hamming(2, 3), build_path(4), build_petersen(), STAR_K13,
        Graph(5, {(0, 1), (2, 3)}),
    ])
    def test_graph_derives_everything_from_one_cached_matrix(self, g):
        dm = g.distance_matrix
        assert g.distance_matrix is dm
        assert dm == distances(g)
        reach = [independent_bfs(g.edge_list, g.n, s) for s in range(g.n)]
        assert g.is_connected == all(len(r) == g.n for r in reach)
        for s in range(g.n):
            assert dm.dist[s] == tuple(reach[s].get(t, UNREACHABLE) for t in range(g.n))
        if not g.is_connected:
            with pytest.raises(DisconnectedGraphError):
                g.profile_counts
            with pytest.raises(DisconnectedGraphError):
                common_profile(g)
            return
        for s in range(g.n):
            expected = [0] * (max(reach[s].values()) + 1)
            for d in reach[s].values():
                expected[d] += 1
            assert g.profile_counts[s] == tuple(expected)
        assert distance_profile(g).counts == g.profile_counts[0]

    def test_disconnected_sentinels(self):
        g = Graph(4, {(0, 1), (2, 3)})
        dm = distances(g)
        assert dm.dist[0][2] == UNREACHABLE
        assert not g.is_connected
        assert dm.diameter == 1
        with pytest.raises(DisconnectedGraphError):
            distance_profile(g)
        with pytest.raises(DisconnectedGraphError):
            is_distance_regular(g)


class TestProfiles:
    def test_square_profile(self):
        g = build_hamming(2, 2)
        for base in range(4):
            assert g.profile_counts[base] == (1, 2, 1)

    @pytest.mark.parametrize("u, v", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
    def test_hamming_profile_is_binomial(self, u, v):
        from math import comb

        g = build_hamming(u, v)
        expected = tuple(comb(u, d) * (v - 1) ** d for d in range(u + 1))
        for base in range(g.n):
            assert g.profile_counts[base] == expected

    def test_clique_profile(self):
        assert distance_profile(build_clique(6)).counts == (1, 5)

    def test_common_profile_detects_base_dependence(self):
        assert common_profile(build_path(3)) is None
        assert common_profile(build_cycle(5)).counts == (1, 2, 2)


class TestDistanceRegularity:
    def test_petersen_intersection_array(self):
        array = is_distance_regular(build_petersen())
        assert array is not None
        assert array.b == (3, 2)
        assert array.c == (1, 1)

    @pytest.mark.parametrize("g", [build_petersen(), build_cycle(6), build_hamming(2, 3)])
    def test_returned_array_satisfies_defining_counts(self, g):
        # oracle: recount the strata for every ordered pair from scratch
        array = is_distance_regular(g)
        assert array is not None
        dm = distances(g)
        for x in range(g.n):
            for y in range(g.n):
                i = dm.dist[x][y]
                closer = sum(1 for z in g.adjacency[y] if dm.dist[x][z] == i - 1)
                further = sum(1 for z in g.adjacency[y] if dm.dist[x][z] == i + 1)
                if i >= 1:
                    assert closer == array.c[i - 1]
                if i < dm.diameter:
                    assert further == array.b[i]

    def test_star_is_not_distance_regular(self):
        assert is_distance_regular(STAR_K13) is None

    def test_even_cycle_is_distance_regular_odd_path_is_not(self):
        assert is_distance_regular(build_cycle(6)) is not None
        assert is_distance_regular(build_path(4)) is None

    @pytest.mark.parametrize("u", [1, 2, 3, 4])
    @pytest.mark.parametrize("v", [2, 3])
    def test_hamming_classification(self, u, v):
        g = build_hamming(u, v)
        assert is_distance_regular(g) is not None
        cert = vt_plus_certificate(g)
        assert cert.status == "yes"
        assert verify_family(g, cert.family)


class TestVertexTransitivity:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_cycles_certified_by_rotation(self, n):
        cert = vt_plus_certificate(build_cycle(n))
        assert cert.status == "yes"
        assert cert.method == "single-orbit powers"

    def test_hamming_certified_by_translations(self):
        g = build_hamming(3, 2)
        cert = vt_plus_certificate(g)
        assert cert.status == "yes"
        assert cert.method == "coordinate translations"

    def test_path3_is_ruled_out(self):
        cert = vt_plus_certificate(build_path(3))
        assert cert.status == "no"
        assert cert.family is None

    def test_path3_automorphism_group_is_the_flip(self):
        group = automorphism_group(build_path(3))
        assert sorted(group) == [(0, 1, 2), (2, 1, 0)]

    def test_petersen_automorphism_group_order(self):
        assert len(automorphism_group(build_petersen())) == 120

    def test_petersen_admits_a_sharply_transitive_family(self):
        # not a Cayley graph, yet a sharply transitive *set* exists;
        # the constructive search settles it either way, so pin the answer
        g = build_petersen()
        cert = vt_plus_certificate(g)
        assert cert.status == "yes"
        assert verify_family(g, cert.family)

    def test_yes_answers_always_verify(self):
        for spec in ("clique:5", "cycle:7", "hamming:2,3"):
            g = build_family(spec)
            cert = vt_plus_certificate(g)
            assert cert.status == "yes"
            assert verify_family(g, cert.family)

    def test_budget_exhaustion_reports_unknown(self):
        cert = vt_plus_certificate(build_petersen(), effort=5)
        assert cert.status == "unknown"

    def test_irregular_graph_is_refused_structurally(self):
        assert vt_plus_certificate(STAR_K13).status == "no"

    def test_single_vertex_is_trivially_certified(self):
        cert = vt_plus_certificate(Graph(1, set()))
        assert (cert.status, cert.method) == ("yes", "trivial")
        assert cert.family.perms == ((0,),)

    def test_triangle_beside_a_square_is_ruled_out_by_its_whole_group(self):
        # 2-regular, so only the exhaustive group search can answer
        g = Graph(7, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)})
        cert = vt_plus_certificate(g)
        assert (cert.status, cert.family) == ("no", None)
        assert cert.method == "no sharply transitive family among all 48 automorphisms"


class TestSingleOrbit:
    def test_present_on_small_product_domains(self):
        assert single_orbit_automorphism(build_hamming(1, 2)) is not None
        assert single_orbit_automorphism(build_hamming(2, 2)) is not None
        # single-participant domains are cliques: any rotation works
        assert single_orbit_automorphism(build_hamming(1, 3)) is not None

    @pytest.mark.parametrize("u, v", [(3, 2), (2, 3)])
    def test_absent_on_larger_product_domains(self, u, v):
        assert single_orbit_automorphism(build_hamming(u, v)) is None

    def test_budget_error(self):
        with pytest.raises(SearchBudgetError):
            single_orbit_automorphism(build_cycle(12), effort=2)


class TestVerifyFamily:
    def test_cycle4_rotations(self):
        g = build_cycle(4)
        rot = (1, 2, 3, 0)
        fam = AutomorphismFamily(((0, 1, 2, 3), rot,
                                  tuple(rot[rot[v]] for v in range(4)),
                                  tuple(rot[rot[rot[v]]] for v in range(4))))
        assert verify_family(g, fam)

    def test_repeated_identity_fails_column_property(self):
        g = build_cycle(4)
        fam = AutomorphismFamily(((0, 1, 2, 3),) * 4)
        assert not verify_family(g, fam)

    def test_translations_verify_on_square(self):
        g = build_hamming(2, 2)
        assert verify_family(g, hamming_translation_family(2, 2))

    @pytest.mark.parametrize("u, v", [(1, 2), (2, 2), (2, 4), (3, 3), (4, 4), (5, 3)])
    def test_translations_match_shifted_digit_tuples(self, u, v):
        # reference: shift each base-v tuple and look up the index of the result
        tuples = list(itertools.product(range(v), repeat=u))
        index = {t: i for i, t in enumerate(tuples)}
        expected = tuple(
            tuple(index[tuple((d + s) % v for d, s in zip(tup, shift))] for tup in tuples)
            for shift in tuples)
        assert hamming_translation_family(u, v).perms == expected

    def test_non_automorphism_fails(self):
        g = build_path(3)
        fam = AutomorphismFamily(((0, 1, 2), (1, 0, 2), (2, 1, 0)))
        assert not verify_family(g, fam)

    def test_length_mismatch_raises(self):
        g = build_cycle(4)
        with pytest.raises(ValueError):
            verify_family(g, AutomorphismFamily(((0, 1, 2, 3),) * 3))


def _rook_3x3(f):
    """Permutation (a, b) -> f(a, b) of the 3x3 product domain's indices 3a + b."""
    return tuple(3 * x + y for x, y in (f(a, b) for a in range(3) for b in range(3)))


UNIT_SHIFT_A = _rook_3x3(lambda a, b: ((a + 1) % 3, b))
UNIT_SHIFT_B = _rook_3x3(lambda a, b: (a, (b + 1) % 3))
# Corrupted generator sets for hamming(2, 3), each breaking one condition:
CORRUPTED_TRANSLATIONS = {
    # commutes with the b shift and covers vertex 0's orbit, but sends the
    # edge 00-10 to 10-21, which differ in both coordinates
    "not-an-automorphism": ((_rook_3x3(lambda a, b: ((a + 1) % 3, (b + (a == 1)) % 3)),
                             UNIT_SHIFT_B), (3, 3)),
    # automorphisms whose products cover vertex 0's orbit, but a(b(0)) = 1 != 2 = b(a(0))
    "non-commuting": ((UNIT_SHIFT_A, _rook_3x3(lambda a, b: ((0, 2, 1)[a], (b + 1) % 3))),
                      (3, 3)),
    # the a shift twice: the products reach only the 3 vertices of one column
    "repeated-shift": ((UNIT_SHIFT_A, UNIT_SHIFT_A), (3, 3)),
}
ROTATE_BY_TWO = (2, 3, 4, 5, 0, 1)       # (0 2 4)(1 3 5) on the 6-cycle


class TestGeneratorCertificates:
    """A generated family is checked from its generators alone, and a
    corrupted one never yields a "yes"."""

    def test_translations_are_held_by_unit_shifts(self):
        fam = hamming_translation_family(2, 3)
        assert fam.explicit is None
        assert fam.generators == (UNIT_SHIFT_A, UNIT_SHIFT_B)
        assert fam.orders == (3, 3)
        assert verify_family(build_hamming(2, 3), fam)

    @pytest.mark.parametrize("kind", list(CORRUPTED_TRANSLATIONS))
    def test_a_corrupted_translation_set_fails(self, kind):
        gens, orders = CORRUPTED_TRANSLATIONS[kind]
        fam = AutomorphismFamily(generators=gens, orders=orders)
        assert not verify_family(build_hamming(2, 3), fam)

    def test_sigma_with_two_cycles_fails(self):
        fam = AutomorphismFamily(generators=(ROTATE_BY_TWO,), orders=(6,))
        assert not verify_family(build_cycle(6), fam)

    def test_a_rotation_that_is_no_automorphism_fails(self):
        fam = AutomorphismFamily(generators=((1, 2, 3, 0),), orders=(4,))
        assert verify_family(build_cycle(4), fam)
        assert not verify_family(build_path(4), fam)

    @pytest.mark.parametrize("kind", list(CORRUPTED_TRANSLATIONS))
    def test_corrupted_translations_never_yield_yes(self, kind, monkeypatch, capsys):
        gens, orders = CORRUPTED_TRANSLATIONS[kind]
        monkeypatch.setattr(graphs, "hamming_translation_family",
                            lambda u, v: AutomorphismFamily(generators=gens, orders=orders))
        with pytest.raises(InternalError, match="coordinate translations failed verification"):
            vt_plus_certificate(build_hamming(2, 3))
        assert main(["graph", "--family", "hamming:2,3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "failed verification" in captured.err

    def test_a_two_cycle_sigma_never_yields_yes(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(graphs, "single_orbit_automorphism", lambda g, effort: ROTATE_BY_TWO)
        hexagon = Graph(6, build_cycle(6).edge_list)     # records no rotation: the search runs
        with pytest.raises(InternalError, match="single-orbit powers failed verification"):
            vt_plus_certificate(hexagon)
        path = tmp_path / "c6.json"
        path.write_text(hexagon.to_json(), encoding="utf-8")
        assert main(["graph", "--graph-file", str(path)]) == 3
        assert capsys.readouterr().out == ""

    def test_a_corrupted_builder_rotation_exits_3(self, monkeypatch, capsys):
        family = graphs.AutomorphismFamily
        monkeypatch.setattr(graphs, "AutomorphismFamily",
                            lambda generators, orders: family(generators=(ROTATE_BY_TWO,),
                                                              orders=orders))
        with pytest.raises(InternalError, match="single-orbit powers failed verification"):
            build_cycle(6)
        assert main(["graph", "--family", "cycle:6"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "failed verification" in captured.err

    def test_the_recorded_rotation_is_the_searched_sigma(self):
        for n in range(3, 65):
            g = build_cycle(n)
            assert g.certificate.method == "single-orbit powers"
            assert g.certified_family.generators == (
                single_orbit_automorphism(Graph(n, g.edge_list)),)

    @pytest.mark.parametrize("orders", [(3,), (3, 2)])
    def test_the_wrong_member_count_raises(self, orders):
        gens = (UNIT_SHIFT_A, UNIT_SHIFT_B)[:len(orders)]
        with pytest.raises(ValueError):
            verify_family(build_hamming(2, 3), AutomorphismFamily(generators=gens,
                                                                  orders=orders))

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_powers_are_listed_in_exponent_order(self, n):
        cert = vt_plus_certificate(build_cycle(n))
        (sigma,) = cert.family.generators
        expected = [tuple(range(n))]
        for _ in range(n - 1):
            expected.append(tuple(sigma[v] for v in expected[-1]))
        assert cert.family.perms == tuple(expected)

    def test_a_hamming_profile_is_read_from_the_base_row(self):
        g = build_hamming(3, 3)
        assert common_profile(g).counts == (1, 6, 12, 8)
        assert "distance_matrix" not in vars(g)

    @pytest.mark.parametrize("u, v", [(1, 2), (2, 3), (3, 4), (4, 2), (2, 5)])
    def test_hamming_rows_are_transported_from_the_base_row(self, u, v, monkeypatch):
        g = build_hamming(u, v)
        expected = distances(g)
        g = build_hamming(u, v)
        monkeypatch.setattr(graphs, "distances", None)      # the matrix must not need it
        assert g.distance_matrix == expected


# The complement of a triangle beside a square: 4-regular, not vertex-
# transitive and not distance-regular, yet the pairs based at vertex 0 alone
# give constant counts, so only verified evidence may shrink the count to base 0.
TRIANGLE_SQUARE_COMPLEMENT = Graph(
    7, set(itertools.combinations(range(7), 2))
    - {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)})
PRISM = Graph(6, {(i, (i + d) % 6) for i in range(6) for d in (2, 3)})   # K3 x K2


class TestCertifiedFamily:
    """The one piece of symmetry evidence a graph carries is a family that
    passed ``verify_family`` on that graph."""

    def test_a_family_for_another_graph_is_never_recorded(self, monkeypatch):
        g = TRIANGLE_SQUARE_COMPLEMENT
        rotation = tuple((v + 1) % 7 for v in range(7))     # an automorphism of C7
        monkeypatch.setattr(graphs, "single_orbit_automorphism", lambda g, effort: rotation)
        with pytest.raises(RuntimeError, match="single-orbit powers failed verification"):
            vt_plus_certificate(g)
        assert g.certified_family is None
        assert is_distance_regular(g) is None

    def test_a_no_leaves_the_all_pairs_count(self):
        g = Graph(TRIANGLE_SQUARE_COMPLEMENT.n, TRIANGLE_SQUARE_COMPLEMENT.edge_list)
        assert vt_plus_certificate(g).status == "no"
        assert g.certified_family is None
        assert is_distance_regular(g) is None
        assert common_profile(g).counts == (1, 4, 2)       # shared, yet not DR

    def test_a_vertex_transitive_graph_need_not_be_distance_regular(self):
        g = Graph(PRISM.n, PRISM.edge_list)
        cert = vt_plus_certificate(g)
        assert g.certified_family is cert.family
        assert is_distance_regular(g) is None
        assert common_profile(g).counts == (1, 3, 2)

    @pytest.mark.parametrize("g", [
        build_cycle(9),
        Graph(12, {(i, (i + d) % 12) for i in range(12) for d in (1, 2)}),
        Graph(6, {(i, (i + 2) % 6) for i in range(6)}),          # two triangles
    ], ids=["cycle-9", "circulant-12", "two-triangles"])
    def test_certified_rotations_transport_rows(self, g, monkeypatch):
        expected = distances(g)
        g = Graph(g.n, g.edge_list)
        assert vt_plus_certificate(g).method == "single-orbit powers"
        monkeypatch.setattr(graphs, "distances", None)      # the matrix must not need it
        assert g.distance_matrix == expected

    def test_a_cover_search_family_counts_from_base_0(self):
        g = build_petersen()
        expected = is_distance_regular(build_petersen())
        assert vt_plus_certificate(g).method == "automorphism cover search"
        assert g.certified_family.explicit is not None
        assert is_distance_regular(g) == expected
        assert "distance_matrix" not in vars(g)
        assert g.distance_matrix == distances(build_petersen())


class SearchRan(Exception):
    """Raised by a patched-out automorphism search."""


SWAP_01 = (1, 0, 2, 3, 4, 5, 6, 7, 8)      # no automorphism of hamming(2, 3)


def _dotted(g):
    return Graph(g.n, g.edge_list, tuple(".".join(label) for label in g.labels))


def _circulant(n, steps):
    return Graph(n, {(i, (i + d) % n) for i in range(n) for d in steps})


def _relabelled(g, perm):
    return Graph(g.n, {(perm[i], perm[j]) for i, j in g.edge_list})


# Z4 x Z4 with steps +-(1, 0), +-(0, 1), +-(1, 1): the parameters of
# hamming(2, 4), but vertex 0's neighbours form a hexagon, not two triangles.
SHRIKHANDE = Graph(16, {(4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
                        for a in range(4) for b in range(4)
                        for da, db in ((1, 0), (0, 1), (1, 1))})


# Vertex 0's neighbours split into cliques {1, 5} and {2}, but 3 and 4 both
# read as the tuple (1, 1): the first irregular, the second 4-regular.
SHARED_TUPLE_6 = Graph(6, {(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)})
SHARED_TUPLE_9 = Graph(9, {(0, 3), (0, 4), (0, 5), (0, 8), (1, 5), (1, 6), (1, 7), (1, 8),
                           (2, 3), (2, 4), (2, 6), (2, 7), (3, 5), (3, 6), (4, 6), (4, 8),
                           (5, 7), (7, 8)})


class TestRecordedCertificate:
    """``build_hamming`` records its coordinate translations, any other
    product of cliques gets them from its structure, labelled or not, and
    ``vt_plus_certificate`` answers from a recorded "yes"."""

    @pytest.fixture
    def searches_refused(self, monkeypatch):
        def refuse(g, effort=None):
            raise SearchRan

        monkeypatch.setattr(graphs, "single_orbit_automorphism", refuse)
        monkeypatch.setattr(graphs, "automorphism_group", refuse)

    @pytest.mark.parametrize("make", [
        lambda: build_hamming(3, 3),
        lambda: Graph.from_json(build_hamming(3, 3).to_json()),
        lambda: build_hamming(1, 11),
        lambda: Graph.from_json(build_hamming(1, 11).to_json()),
        lambda: Graph.from_json(build_hamming(2, 10).to_json()),     # last label 99
        lambda: Graph.from_json(build_hamming(1, 100).to_json()),    # last label 99 too
        lambda: Graph.from_json(build_hamming(2, 11).to_json()),     # dotted labels
    ], ids=["built-3-3", "file-3-3", "built-1-11", "file-1-11", "file-2-10", "file-1-100",
            "file-2-11"])
    def test_builder_graphs_answer_without_a_search(self, make, searches_refused):
        g = make()
        cert = vt_plus_certificate(g)
        assert (cert.status, cert.method) == ("yes", "coordinate translations")
        assert g.certificate is cert
        assert g.certified_family is cert.family

    @pytest.mark.parametrize("g", [
        _dotted(build_hamming(3, 3)),
        Graph(9, build_hamming(2, 3).edge_list, [f"x{k}" for k in range(9)]),
        Graph(9, build_hamming(2, 3).edge_list),
        Graph(9, build_hamming(2, 3).edge_list, reversed(build_hamming(2, 3).labels)),
        Graph(9, {(SWAP_01[i], SWAP_01[j]) for i, j in build_hamming(2, 3).edge_list},
              build_hamming(2, 3).labels),
    ], ids=["dotted-labels", "other-labels", "unlabelled", "reversed-labels", "other-edges"])
    def test_any_labels_or_none_are_recognised_without_a_search(self, g, searches_refused):
        cert = vt_plus_certificate(g)
        assert (cert.status, cert.method) == ("yes", "coordinate translations")
        assert verify_family(g, cert.family)

    def test_a_builder_file_gets_the_builder_family(self):
        g = Graph.from_json(build_hamming(3, 4).to_json())
        assert g.certified_family == hamming_translation_family(3, 4)

    @pytest.mark.parametrize("g", [
        Graph(9, build_cycle(9).edge_list),
        _relabelled(_circulant(12, (1, 2)), [(5 * k + 3) % 12 for k in range(12)]),
        build_petersen(),
        SHRIKHANDE,
        SHARED_TUPLE_9,
    ], ids=["cycle-9", "relabelled-circulant-12", "petersen", "shrikhande", "shared-tuple-9"])
    def test_a_graph_no_clique_product_spells_goes_to_the_searches(self, g, searches_refused):
        assert g.certificate is None
        with pytest.raises(SearchRan):
            vt_plus_certificate(g)

    def test_a_declined_graph_can_still_run_out(self):
        g = _relabelled(_circulant(12, (1, 2)), [(5 * k + 3) % 12 for k in range(12)])
        cert = vt_plus_certificate(g, effort=5)
        assert (cert.status, cert.method) == ("unknown", "search budget exhausted")

    def test_a_recorded_yes_is_answered_again_without_a_search(self, monkeypatch):
        g = build_cycle(7)
        cert = vt_plus_certificate(g)
        monkeypatch.setattr(graphs, "single_orbit_automorphism", None)
        assert vt_plus_certificate(g) is cert


# Relabelled without vertex labels, these graphs are certified by the searches alone.
SEARCHED = {
    "petersen": build_petersen(),
    "hamming:2,3": build_hamming(2, 3),
    "hamming:2,4": build_hamming(2, 4),
    "hamming:4,2": build_hamming(4, 2),
    "hamming:3,3": build_hamming(3, 3),
    "cycle:9": build_cycle(9),
    "C12(1,2)": _circulant(12, (1, 2)),
    "C13(1,5)": _circulant(13, (1, 5)),
}


@st.composite
def small_graphs(draw):
    """A random graph or a relabelled circulant on at most 12 vertices."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 12))
        g = _circulant(n, draw(st.sets(st.integers(1, n // 2), min_size=1)))
        return _relabelled(g, draw(st.permutations(range(n))))
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, {e for e, k in zip(pairs, keep) if k})


# small budgets trip inside the searches; the default one completes most
EFFORTS = st.integers(0, 4000) | st.just(DEFAULT_SEARCH_EFFORT)


def _same_nodes(reference, search, effort):
    """Where ``reference(effort)`` completes in N nodes, ``search`` gives its
    result at effort N and runs out at N - 1; where it runs out, so does
    ``search``.  Returns the reference's result, or None when it ran out."""
    try:
        result, nodes = reference(effort)
    except SearchBudgetError:
        with pytest.raises(SearchBudgetError):
            search(effort)
        return None
    assert search(nodes) == result
    if nodes:
        with pytest.raises(SearchBudgetError):
            search(nodes - 1)
    return result


class TestSearchesMatchTheReference:
    """The bitmask searches try the same candidates, in the same order, as
    the searches that re-check every earlier placement
    (``tests/reference_search.py``): same results, same budget trip points."""

    @staticmethod
    def _check_all_three(g, effort):
        _same_nodes(lambda e: reference_search.single_orbit_automorphism(g, e),
                    lambda e: single_orbit_automorphism(g, e), effort)
        group = _same_nodes(lambda e: reference_search.automorphism_group(g, e),
                            lambda e: automorphism_group(g, e), effort)
        if group is not None:
            _same_nodes(lambda e: reference_search.sharply_transitive_family(group, g.n, e),
                        lambda e: graphs._sharply_transitive_family(group, g.n, e), effort)

    @settings(max_examples=80, deadline=None)
    @given(g=small_graphs(), effort=st.integers(0, 20_000))
    def test_small_graphs(self, g, effort):
        self._check_all_three(g, effort)

    @pytest.mark.parametrize("name", sorted(SEARCHED))
    @settings(max_examples=6, deadline=None)
    @given(data=st.data(), effort=EFFORTS)
    def test_relabelled_named_graphs(self, name, data, effort):
        g = SEARCHED[name]
        self._check_all_three(_relabelled(g, data.draw(st.permutations(range(g.n)))), effort)

    def test_a_relabelled_hamming_3_3_runs_out_at_the_default_effort(self):
        perm = list(range(27))
        random.Random(9).shuffle(perm)
        g = _relabelled(build_hamming(3, 3), perm)
        with pytest.raises(SearchBudgetError):
            single_orbit_automorphism(g)
        with pytest.raises(SearchBudgetError):
            automorphism_group(g)


def _clique_product_graph(orders):
    """K_v1 □ … □ K_vu from its definition: tuples differing in one coordinate."""
    tuples = list(itertools.product(*map(range, orders)))
    return Graph(len(tuples), {(i, j) for (i, s), (j, t) in itertools.combinations(
        enumerate(tuples), 2) if sum(a != b for a, b in zip(s, t)) == 1})


def _maps_edge_set_onto_itself(g, perm):
    """Whether the image of the edge set under ``perm`` is the edge set."""
    edges = {frozenset(e) for e in g.edge_list}
    return {frozenset((perm[i], perm[j])) for i, j in g.edge_list} == edges


def _is_sharply_transitive(g, perms):
    """The all-permutations check, written here: n permutations, each
    mapping the edge set onto itself, that send each vertex to every vertex
    exactly once."""
    everyone = list(range(g.n))
    return (len(perms) == g.n
            and all(sorted(p) == everyone for p in perms)
            and all(_maps_edge_set_onto_itself(g, p) for p in perms)
            and all(sorted(p[v] for p in perms) == everyone for v in range(g.n)))


def _swapped(edges, rnd, swaps):
    """``edges`` after up to ``swaps`` degree-preserving double-edge swaps
    ab, cd -> ad, cb."""
    edges = set(edges)
    for _ in range(swaps):
        (a, b), (c, d) = rnd.sample(sorted(edges), 2)
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges = edges - {(a, b), (c, d)} | new
    return edges


PRODUCT_ORDERS = [(2,), (5,), (2, 2), (3, 3), (2, 3), (4, 3), (2, 2, 2, 2), (3, 2, 2),
                  (2, 3, 5), (3, 3, 3), (4, 4, 4)]


@st.composite
def relabelled_products(draw):
    g = _clique_product_graph(draw(st.sampled_from(PRODUCT_ORDERS)))
    return _relabelled(g, draw(st.permutations(range(g.n))))


@st.composite
def near_products(draw):
    """Graphs a vertex-0 reading could mistake for a product of cliques:
    Hamming graphs and regular circulants after random double-edge swaps,
    disjoint unions of cliques, and the Shrikhande graph; all relabelled."""
    kind = draw(st.sampled_from(["hamming", "regular", "cliques", "shrikhande"]))
    rnd = draw(st.randoms(use_true_random=False))
    if kind == "hamming":
        u, v = draw(st.sampled_from([(2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]))
        g = build_hamming(u, v)
        g = Graph(g.n, _swapped(g.edge_list, rnd, draw(st.integers(0, 4))))
    elif kind == "regular":
        n = draw(st.integers(5, 16))
        steps = draw(st.sets(st.integers(1, (n - 1) // 2), min_size=1, max_size=3))
        g = Graph(n, _swapped(_circulant(n, steps).edge_list, rnd, draw(st.integers(1, 30))))
    elif kind == "cliques":
        sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
        starts = list(itertools.accumulate([0] + sizes))
        g = Graph(starts[-1], {(s + i, s + j) for s, k in zip(starts, sizes)
                               for i, j in itertools.combinations(range(k), 2)})
    else:
        g = SHRIKHANDE
    return _relabelled(g, draw(st.permutations(range(g.n))))


@st.composite
def permuted_graphs(draw):
    """A graph and a vertex permutation that may or may not preserve its
    edges: a permutation of a near product, or of a graph with isolated
    vertices, or a member of its certified family; or a Hamming translation
    on the Hamming graph after double-edge swaps, which keeps every degree."""
    kind = draw(st.sampled_from(["near", "isolated", "swapped"]))
    if kind == "swapped":
        u, v = draw(st.sampled_from([(2, 3), (3, 2), (2, 4), (3, 3)]))
        rnd = draw(st.randoms(use_true_random=False))
        g = Graph(v ** u, _swapped(build_hamming(u, v).edge_list, rnd, draw(st.integers(0, 3))))
        return g, draw(st.sampled_from(hamming_translation_family(u, v).perms))
    if kind == "near":
        g = draw(near_products())
    else:
        n, pairs = draw(edge_sets())
        g = Graph(n + 2, pairs)                 # vertices n and n + 1 are isolated
    perms = [tuple(draw(st.permutations(range(g.n))))]
    if g.certificate is not None:
        perms += g.certified_family.perms
    return g, draw(st.sampled_from(perms))


class TestCliqueProducts:
    """Products of cliques are certified from their structure, and a
    graph that is not one never gets a "yes" it does not deserve."""

    @settings(max_examples=60, deadline=None)
    @given(g=relabelled_products())
    def test_relabelled_products_get_their_translations(self, g):
        cert = vt_plus_certificate(g)
        assert (cert.status, cert.method) == ("yes", "coordinate translations")
        assert verify_family(g, cert.family)
        assert _is_sharply_transitive(g, cert.family.perms)

    @settings(max_examples=200, deadline=None)
    @given(g=near_products())
    def test_a_recognised_yes_is_always_right(self, g):
        cert = g.certificate
        if cert is not None:
            assert cert.method == "coordinate translations"
            assert _is_sharply_transitive(g, cert.family.perms)

    def test_the_shrikhande_graph_is_declined_then_searched(self):
        g = Graph(SHRIKHANDE.n, SHRIKHANDE.edge_list)
        assert g.certificate is None
        cert = vt_plus_certificate(g)
        assert (cert.status, cert.method) == ("yes", "automorphism cover search")
        assert _is_sharply_transitive(g, cert.family.perms)

    def test_a_swap_inside_one_distance_layer_is_refused_by_verification(self):
        # 11-12 and 21-22 become 11-22 and 21-12: every vertex keeps its
        # down-neighbours, so only verify_family can refuse the translations
        edges = set(build_hamming(2, 3).edge_list) - {(4, 5), (7, 8)} | {(4, 8), (5, 7)}
        assert graphs._clique_product(Graph(9, edges)) is None

    @pytest.mark.parametrize("g, answer", [
        (SHARED_TUPLE_6, ("no", "irregular degree sequence")),
        (SHARED_TUPLE_9, ("no", "no sharply transitive family among all 8 automorphisms")),
    ], ids=["irregular-6", "regular-9"])
    def test_two_vertices_on_one_tuple_are_declined(self, g, answer):
        assert graphs._clique_product(g) is None
        cert = vt_plus_certificate(g)
        assert (cert.status, cert.method) == answer

    def test_mixed_clique_sizes_keep_their_orders(self):
        g = _relabelled(_clique_product_graph((2, 3, 5)), [(7 * k + 4) % 30 for k in range(30)])
        assert sorted(g.certified_family.orders) == [2, 3, 5]

    def test_cliques_record_nothing_and_are_recognised(self):
        g = build_clique(6)
        assert "certificate" not in vars(g)
        assert g.certificate.method == "coordinate translations"
        assert g.certified_family.generators == ((1, 2, 3, 4, 5, 0),)

    @pytest.mark.parametrize("g", [Graph(1, set()), Graph(2, set()), Graph(6, set())],
                             ids=["K1", "two-vertices", "six-vertices"])
    def test_graphs_without_edges_at_0_are_declined(self, g):
        assert graphs._clique_product(g) is None

    @settings(max_examples=300, deadline=None)
    @given(drawn=permuted_graphs())
    def test_the_neighbour_set_check_agrees_with_the_edge_set_image(self, drawn):
        g, perm = drawn
        nbr_sets = [set(row) for row in g.adjacency]
        assert graphs._maps_edges_to_edges(g, perm, nbr_sets) == _maps_edge_set_onto_itself(
            g, perm)
