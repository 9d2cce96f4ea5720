"""Canonical-form pipeline: exact preservation guarantees on random channels."""

import functools
from fractions import Fraction

import pytest

from dpchannel import (
    CanonicalForm,
    ChannelMatrix,
    Graph,
    PrivacyParameter,
    Prior,
    SymmetryRequiredError,
    build_clique,
    build_cycle,
    build_family,
    build_hamming,
    build_path,
    canonicalize,
    distances,
    dp_audit,
    is_distance_regular,
    optimal_mechanism,
    posterior_success,
    random_dp_sample,
    symmetrize_distance_regular,
    symmetrize_vt_plus,
    to_diagonal_form,
    vt_plus_certificate,
)
from dpchannel import graphs, transforms

HALF = PrivacyParameter(Fraction(1, 2))
THIRD = PrivacyParameter(Fraction(1, 3))


def ratio_not_worse(before, after):
    """Exact eps_star comparison via the underlying rationals."""
    if before.max_ratio is None:
        return True
    return after.max_ratio is not None and after.max_ratio <= before.max_ratio


class TestDiagonalForm:
    def test_hand_checked_two_by_three_merge(self):
        g = build_clique(2)
        m = ChannelMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
             [Fraction(1, 4), Fraction(3, 8), Fraction(3, 8)]])
        cf = to_diagonal_form(m, g)
        assert cf.matrix.entries == (
            (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
            (Fraction(1, 4), Fraction(3, 4), Fraction(0)))
        assert cf.merge_map == (0, 1, 1)
        u = Prior.uniform(2)
        assert posterior_success(u, m) == posterior_success(u, cf.matrix) == Fraction(5, 8)

    def test_distinct_argmax_rows_only_permute_columns(self):
        g = build_clique(3)
        m = ChannelMatrix.from_rows(
            [[Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)],
             [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)],
             [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]])
        cf = to_diagonal_form(m, g)
        assert sorted(cf.merge_map) == [0, 1, 2]
        assert posterior_success(Prior.uniform(3), cf.matrix) == Fraction(1, 2)

    def test_constant_rows_merge_into_first_column(self):
        g = build_clique(4)
        m = ChannelMatrix.from_rows([[Fraction(1, 4)] * 4] * 4)
        cf = to_diagonal_form(m, g)
        assert [row[0] for row in cf.matrix.entries] == [Fraction(1)] * 4
        assert posterior_success(Prior.uniform(4), cf.matrix) == Fraction(1, 4)

    def test_more_rows_than_columns_is_rejected(self):
        g = build_clique(3)
        m = ChannelMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)]] * 3)
        with pytest.raises(ValueError):
            to_diagonal_form(m, g)

    def test_tie_breaks_to_lowest_row(self):
        g = build_clique(2)
        m = ChannelMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)]] * 2)
        cf = to_diagonal_form(m, g)
        assert cf.merge_map == (0, 0)


class TestSymmetrizeFixedPoints:
    def test_distance_kernel_is_a_fixed_point_of_class_averaging(self):
        g = build_clique(3)
        m = optimal_mechanism(g, HALF).matrix
        cf = CanonicalForm(m, "diagonal")
        out = symmetrize_distance_regular(cf, g)
        assert out.matrix.entries == m.entries

    def test_constant_diagonal_form_is_unchanged_on_triangle(self):
        g = build_clique(3)
        m = ChannelMatrix.from_rows([[Fraction(1, 3)] * 3] * 3)
        cf = CanonicalForm(m, "diagonal")
        out = symmetrize_distance_regular(cf, g)
        assert out.matrix.entries == m.entries

    def test_rotation_averaging_mixes_the_diagonal(self):
        g = build_cycle(4)
        sixth = Fraction(1, 6)
        m = ChannelMatrix.from_rows(
            [[Fraction(1, 2), sixth, sixth, sixth],
             [sixth, Fraction(1, 2), sixth, sixth],
             [Fraction(1, 4)] * 4,
             [sixth, sixth, sixth, Fraction(1, 2)]])
        cf = CanonicalForm(m, "diagonal")
        out = symmetrize_vt_plus(cf, g)
        expected_diag = (Fraction(1, 2) * 3 + Fraction(1, 4)) / 4
        assert all(out.matrix.entry(i, i) == expected_diag for i in range(4))

    def test_invariant_matrix_is_a_fixed_point_of_family_averaging(self):
        g = build_hamming(2, 2)
        m = optimal_mechanism(g, HALF).matrix
        cf = CanonicalForm(m, "diagonal")
        out = symmetrize_vt_plus(cf, g)
        assert out.matrix.entries == m.entries


class TestSymmetrizeErrors:
    def test_wrong_stage(self):
        g = build_clique(3)
        cf = canonicalize(optimal_mechanism(g, HALF).matrix, g)
        with pytest.raises(ValueError):
            symmetrize_distance_regular(cf, g)

    def test_not_distance_regular(self):
        g = build_path(4)
        m = ChannelMatrix.from_rows([[Fraction(1, 4)] * 4] * 4)
        cf = to_diagonal_form(m, g)
        with pytest.raises(ValueError):
            symmetrize_distance_regular(cf, g)

    def test_a_graph_without_a_certified_family_is_refused(self):
        g = build_path(4)
        cf = to_diagonal_form(ChannelMatrix.from_rows([[Fraction(1, 4)] * 4] * 4), g)
        with pytest.raises(ValueError, match="^the graph carries no certified automorphism"
                                             " family$"):
            symmetrize_vt_plus(cf, g)

    def test_canonicalize_requires_symmetry(self):
        g = build_path(3)
        m = ChannelMatrix.from_rows([[Fraction(1, 3)] * 3] * 3)
        with pytest.raises(SymmetryRequiredError):
            canonicalize(m, g)

    def test_canonicalize_disconnected_vertex_transitive_graph(self):
        # two disjoint edges: no distance-regularity, but a single-orbit family
        g = Graph(4, {(0, 1), (2, 3)})
        assert vt_plus_certificate(g).method == "single-orbit powers"
        out = canonicalize(ChannelMatrix.identity(4), g)
        assert out.stage == "symmetric"
        assert out.symmetry == "vt_plus"
        assert out.matrix == ChannelMatrix.identity(4)

    def test_canonicalize_disconnected_irregular_graph_requires_symmetry(self):
        g = Graph(5, {(0, 1), (1, 2), (2, 0), (3, 4)})
        with pytest.raises(SymmetryRequiredError):
            canonicalize(ChannelMatrix.identity(5), g)


class TestRefusals:
    """Each refusal of ``CanonicalForm`` and ``to_diagonal_form``, with its message."""

    @pytest.mark.parametrize("rows, stage, message", [
        ([["1", "0"], ["0", "1"]], "square", "unknown stage 'square'"),
        ([["1", "0"], ["0", "1"], ["1", "0"]], "diagonal",
         "canonical forms carry at least as many columns as rows"),
        ([["1/4", "3/4"], ["1/2", "1/2"]], "diagonal",
         "diagonal entries must carry their column maximum"),
        ([["1/2", "1/4", "1/4"], ["1/4", "3/4", "0"]], "diagonal",
         "columns beyond the square block must be zero"),
        ([["1/2", "1/2", "0"], ["1/4", "3/4", "0"]], "symmetric",
         "symmetric stage requires equal diagonal entries"),
        ([["1/4", "3/4", "0"], ["3/4", "1/4", "0"]], "symmetric",
         "diagonal entries must carry their column maximum"),
        ([["1/2", "0", "1/2"], ["0", "1/2", "1/2"]], "symmetric",
         "columns beyond the square block must be zero"),
    ], ids=["stage", "shape", "diagonal", "surplus", "equal-diagonal", "symmetric-diagonal",
            "symmetric-surplus"])
    def test_canonical_form(self, rows, stage, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CanonicalForm(ChannelMatrix.from_rows(rows), stage)

    @pytest.mark.parametrize("n", [2, 4])
    def test_diagonal_form_needs_one_row_per_vertex(self, n):
        with pytest.raises(ValueError, match="^matrix rows must match the graph's vertex count$"):
            to_diagonal_form(ChannelMatrix.identity(n), build_cycle(3))


class TestCertifiesOnce:
    """canonicalize averages on the certificate it obtained, without re-checking it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"is_distance_regular": 0, "verify_family": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((graphs, "is_distance_regular"),
                             (transforms, "is_distance_regular"), (graphs, "verify_family")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return counts

    def test_distance_regular_route(self, calls):
        out = canonicalize(ChannelMatrix.identity(10), build_family("petersen"))
        assert out.symmetry == "distance_regular"
        assert calls == {"is_distance_regular": 1, "verify_family": 0}

    def test_vt_plus_route(self, calls):
        circulant = Graph(12, {(i, (i + d) % 12) for i in range(12) for d in (1, 2)})
        out = canonicalize(ChannelMatrix.identity(12), circulant)
        assert out.symmetry == "vt_plus"
        assert calls == {"is_distance_regular": 1, "verify_family": 1}

    def test_the_family_step_averages_over_the_recorded_family(self, calls):
        # the graph's own family was verified when it was recorded
        cycle = build_cycle(6)
        cf = to_diagonal_form(next(random_dp_sample(cycle, HALF, 1, seed=7)), cycle)
        calls["verify_family"] = 0              # the builder verifies what it records
        out = symmetrize_vt_plus(cf, cycle)
        assert calls == {"is_distance_regular": 0, "verify_family": 0}
        rows, perms = cf.matrix.entries, cycle.certified_family.perms
        assert [row[:6] for row in out.matrix.entries] == [    # surplus columns stay zero
            tuple(sum(rows[p[i]][p[j]] for p in perms) / 6 for j in range(6))
            for i in range(6)]

    def test_the_intersection_array_is_counted_once_per_graph(self, monkeypatch):
        counted = []
        body = Graph.__dict__["intersection_array"].func

        def counting(g):
            counted.append(g)
            return body(g)

        spy = functools.cached_property(counting)
        spy.__set_name__(Graph, "intersection_array")
        monkeypatch.setattr(Graph, "intersection_array", spy)
        g = build_family("petersen")
        out = canonicalize(ChannelMatrix.identity(10), g)
        cf = to_diagonal_form(ChannelMatrix.identity(10), g)
        assert symmetrize_distance_regular(cf, g) == out
        assert out.symmetry == "distance_regular"
        assert counted == [g]


PIPELINE_GRAPHS = ["clique:6", "cycle:6", "petersen", "hamming:2,3"]


class TestPipelineProperties:
    """Executable form of the preservation guarantees, on seeded random channels."""

    @pytest.mark.parametrize("spec", PIPELINE_GRAPHS)
    @pytest.mark.parametrize("pp", [HALF, THIRD], ids=["r=1/2", "r=1/3"])
    def test_success_preserved_and_privacy_not_weakened(self, spec, pp):
        g = build_family(spec)
        uniform = Prior.uniform(g.n)
        for matrix in random_dp_sample(g, pp, 6, seed=PIPELINE_GRAPHS.index(spec)):
            before = dp_audit(matrix, g)
            cf = to_diagonal_form(matrix, g)
            mid = dp_audit(cf.matrix, g)
            assert ratio_not_worse(before, mid)
            assert posterior_success(uniform, matrix) == posterior_success(uniform, cf.matrix)

            out = symmetrize_distance_regular(cf, g)
            after = dp_audit(out.matrix, g)
            assert ratio_not_worse(mid, after)
            assert posterior_success(uniform, matrix) == posterior_success(uniform, out.matrix)

    @pytest.mark.parametrize("spec", ["cycle:6", "hamming:2,2", "clique:5"])
    def test_family_averaging_gives_the_same_guarantees(self, spec):
        g = build_family(spec)
        cert = vt_plus_certificate(g)
        assert cert.status == "yes"
        uniform = Prior.uniform(g.n)
        for matrix in random_dp_sample(g, HALF, 6, seed=11):
            cf = to_diagonal_form(matrix, g)
            out = symmetrize_vt_plus(cf, g)
            assert posterior_success(uniform, matrix) == posterior_success(uniform, out.matrix)
            assert ratio_not_worse(dp_audit(cf.matrix, g), dp_audit(out.matrix, g))

    @pytest.mark.parametrize("spec", PIPELINE_GRAPHS)
    def test_symmetric_stage_shape(self, spec):
        g = build_family(spec)
        dm = distances(g)
        for matrix in random_dp_sample(g, HALF, 4, seed=5):
            cf = to_diagonal_form(matrix, g)
            diag_mean = sum((cf.matrix.entry(v, v) for v in range(g.n)),
                            Fraction(0)) / g.n
            out = symmetrize_distance_regular(cf, g)
            m = out.matrix
            # equal diagonal = the mean of the previous diagonal = global max
            assert all(m.entry(i, i) == diag_mean for i in range(g.n))
            assert max(map(max, zip(*m.entries))) == diag_mean
            for j in range(g.n):
                for h in range(g.n):
                    assert m.entry(h, j) <= m.entry(j, j)
            # entries depend on distance only
            for i in range(g.n):
                for j in range(g.n):
                    assert m.entry(i, j) == m.entry(0, [v for v in range(g.n)
                                                        if dm.dist[0][v] == dm.dist[i][j]][0])
            # uniform success equals the global maximum
            assert posterior_success(Prior.uniform(g.n), m) == diag_mean

    @pytest.mark.parametrize("spec", ["clique:6", "petersen"])
    def test_class_averaging_is_idempotent(self, spec):
        g = build_family(spec)
        for matrix in random_dp_sample(g, HALF, 3, seed=23):
            once = symmetrize_distance_regular(to_diagonal_form(matrix, g), g)
            again = symmetrize_distance_regular(CanonicalForm(once.matrix, "diagonal"), g)
            assert once.matrix.entries == again.matrix.entries

    def test_a_clique_product_averages_over_its_recognised_translations(self):
        # K3 x K2 is not distance-regular, so canonicalize averages over the
        # family the structural recogniser recorded
        g = Graph(6, {(i, (i + d) % 6) for i in range(6) for d in (2, 3)})
        assert is_distance_regular(g) is None
        assert g.certificate.method == "coordinate translations"
        uniform = Prior.uniform(g.n)
        for matrix in random_dp_sample(g, HALF, 4, seed=31):
            out = canonicalize(matrix, g)
            assert out.symmetry == "vt_plus"
            m = out.matrix
            for gen in g.certified_family.generators:
                assert all(m.entry(gen[i], gen[j]) == m.entry(i, j)
                           for i in range(g.n) for j in range(g.n))
            assert posterior_success(uniform, matrix) == posterior_success(uniform, m)

    @pytest.mark.parametrize("spec", ["cycle:6", "hamming:2,2"])
    def test_group_family_averaging_is_idempotent(self, spec):
        g = build_family(spec)
        assert vt_plus_certificate(g).status == "yes"
        for matrix in random_dp_sample(g, HALF, 3, seed=29):
            once = symmetrize_vt_plus(to_diagonal_form(matrix, g), g)
            again = symmetrize_vt_plus(CanonicalForm(once.matrix, "diagonal"), g)
            assert once.matrix.entries == again.matrix.entries

    def test_canonicalize_picks_a_working_route(self):
        g = build_family("petersen")
        for matrix in random_dp_sample(g, HALF, 2, seed=3):
            out = canonicalize(matrix, g)
            assert out.stage == "symmetric"
            assert out.symmetry == "distance_regular"
