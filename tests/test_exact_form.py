"""One exact form: library code computes on a matrix's integer rows.

``ChannelMatrix.entries`` is the ``Fraction`` view at the API edge.  The
guard tests make every read of it fail and run the transforms, the oracles,
``utility`` and every CLI subcommand; the random sampler's guard also
refuses ``ChannelMatrix.from_rows``, which takes entry values.  The pins
below were captured before those computations left ``entries``, so they
hold the outputs still.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from dpchannel import (
    ChannelMatrix,
    Graph,
    PrivacyParameter,
    Prior,
    build_family,
    canonicalize,
    grid_search_optimal,
    hillclimb_utility,
    posterior_success,
    random_dp_sample,
    to_diagonal_form,
    utility,
)
from dpchannel.cli import main

HALF = PrivacyParameter(Fraction(1, 2))
EPS07 = PrivacyParameter.from_epsilon(0.7)
# circulant C12(1, 2): vertex-transitive, not distance-regular
C12 = Graph(12, {(i, (i + d) % 12) for i in range(12) for d in (1, 2)})


@pytest.fixture
def no_entries(monkeypatch):
    def refuse(self):
        raise AssertionError("library code read ChannelMatrix.entries")
    monkeypatch.setattr(ChannelMatrix, "entries", property(refuse))


def seeded_utility_cases(spec, pp):
    """Two sampled channels, each with a seeded prior, gain table and fixed guess."""
    rng = random.Random(3)
    for matrix in random_dp_sample(build_family(spec), pp, 2, seed=9):
        n = matrix.rows
        table = [[Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)]
        guess = [rng.randrange(n) for _ in range(matrix.cols)]
        weights = [rng.randint(1, 5) for _ in range(n)]
        prior = Prior(tuple(Fraction(w, sum(weights)) for w in weights))
        yield matrix, prior, table, guess


def utilities(spec, pp):
    """Fixed guess, gain table with the optimal guess, gain table with the fixed guess."""
    return [" ".join(str(v) for v in (utility(prior, m, guess=guess), utility(prior, m, table),
                                      utility(prior, m, table, guess)))
            for m, prior, table, guess in seeded_utility_cases(spec, pp)]


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestLibraryCodeReadsNoFractionEntries:
    def test_diagonal_form(self, no_entries):
        g = build_family("cycle:6")
        for matrix in random_dp_sample(g, HALF, 3, seed=1):
            cf = to_diagonal_form(matrix, g)
            assert posterior_success(Prior.uniform(6), cf.matrix) == \
                posterior_success(Prior.uniform(6), matrix)

    @pytest.mark.parametrize("graph, symmetry", [
        (build_family("petersen"), "distance_regular"), (C12, "vt_plus"),
    ], ids=["petersen", "C12(1,2)"])
    def test_canonicalize_by_both_routes(self, graph, symmetry, no_entries):
        matrix = next(random_dp_sample(graph, EPS07, 1, seed=2))
        assert canonicalize(matrix, graph).symmetry == symmetry

    def test_oracles(self, no_entries):
        assert hillclimb_utility(build_family("cycle:5"), HALF, iters=300, seed=1).trials == 300
        assert hillclimb_utility(build_family("path:3"), HALF, iters=300).trials == 300
        report = grid_search_optimal(build_family("clique:3"), HALF, Fraction(1, 4))
        assert report.best_utility == Fraction(1, 2)

    def test_utility_with_fixed_guesses_and_gain_tables(self, no_entries):
        assert len(utilities("cycle:5", HALF)) == 2

    def test_every_subcommand(self, no_entries, tmp_path, capsys):
        g = build_family("cycle:6")
        a, b = random_dp_sample(g, HALF, 2, seed=4)
        (tmp_path / "a.csv").write_text(a.to_csv(), encoding="utf-8")
        (tmp_path / "b.json").write_text(b.to_json(), encoding="utf-8")
        (tmp_path / "prior.csv").write_text("0,1/2\n1,1/10\n2,1/10\n3,1/10\n4,1/10\n5,1/10\n",
                                            encoding="utf-8")
        (tmp_path / "g.json").write_text(g.to_json(), encoding="utf-8")
        src = ["--graph-file", str(tmp_path / "g.json")]
        runs = [
            ["graph", *src],
            ["analyze", *src, "--matrix", str(tmp_path / "a.csv"), "--ratio", "1/2",
             "--prior", str(tmp_path / "prior.csv")],
            ["transform", *src, "--matrix", str(tmp_path / "b.json"), "--stage", "diagonal"],
            ["transform", *src, "--matrix", str(tmp_path / "a.csv")],
            ["synth", *src, "--epsilon", "0.7"],
            ["compare", "--matrix-a", str(tmp_path / "a.csv"), "--matrix-b",
             str(tmp_path / "b.json"), "--prior", str(tmp_path / "prior.csv"), "--format", "csv"],
            ["oracle", "--family", "clique:3", "--ratio", "1/2", "--method", "grid",
             "--step", "1/4"],
            ["oracle", *src, "--ratio", "1/2", "--method", "hillclimb", "--iters", "200"],
            ["oracle", *src, "--ratio", "1/2", "--method", "random", "--count", "3"],
        ]
        for argv in runs:
            assert main(argv) == 0, capsys.readouterr().err
            assert capsys.readouterr().err == ""


class TestOutputsArePinned:
    @pytest.mark.parametrize("family, stage, digest", [
        ("hamming:3,3", "diagonal",
         "c7007c24fe84c46ad5da5879b78d2b9a656a49e97e3d1a334b8daefccf86b526"),
        ("hamming:3,3", "symmetric",
         "a0530d17c8d758652c53189d280c9643081b6cde639e27ba0186ae12ec4a4e76"),
        (None, "diagonal", "ed400ddb85c66272f463ad8e118e57906d6127a30703498cada86b5af2194bb8"),
        (None, "symmetric", "c16707f4e6f498c5ace9fc0d6ef9486b7a1b27ae77c15361000479dafc4d8f4b"),
    ], ids=["hamming33-diagonal", "hamming33-symmetric", "C12-diagonal", "C12-symmetric"])
    def test_transform_json_at_a_54_bit_ratio(self, family, stage, digest, tmp_path, capsys):
        if family is None:
            graph = C12
            (tmp_path / "g.json").write_text(C12.to_json(), encoding="utf-8")
            src = ["--graph-file", str(tmp_path / "g.json")]
        else:
            graph = build_family(family)
            src = ["--family", family]
        matrix = next(random_dp_sample(graph, EPS07, 1, seed=5))
        (tmp_path / "m.csv").write_text(matrix.to_csv(), encoding="utf-8")
        assert main(["transform", *src, "--matrix", str(tmp_path / "m.csv"), "--stage", stage,
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["success_preserved"] is True
        assert sha(out) == digest

    @pytest.mark.parametrize("ratio, digest", [
        ("1/2", "7cceb908fd81ea5f2c07a9741a795e181e6b6a63cb45b53f642e573df9048a13"),
        ("2/3", "e9193eb46900fb4afb32e8b906412d740c501fbb884651d04217c535a1f0f728"),
    ])
    def test_grid_oracle_json(self, ratio, digest, capsys):
        assert main(["oracle", "--family", "clique:3", "--ratio", ratio, "--method", "grid",
                     "--format", "json"]) == 0
        assert sha(capsys.readouterr().out) == digest

    def test_utility_values_on_small_denominators(self):
        assert utilities("cycle:5", HALF) == [
            "88/675 46/15 7169/6552",
            "323/1595 110941/38280 78581/38280",
        ]

    def test_utility_values_at_a_54_bit_ratio(self):
        assert [sha(text) for text in utilities("petersen", EPS07)] == [
            "35706a045209952517726b0a0cbcbcb63bb28da9788b606c36e23f268cc062b6",
            "af7fa2cd3e9ad197417401ab8c6c29d021533927bb6672176fd6bc8e13ddf44b",
        ]


class TestSamplerBuildsIntegerRows:
    """random_dp_sample builds each channel as integer rows over their sums."""

    @pytest.fixture
    def no_from_rows(self, monkeypatch):
        def refuse(cls, *args, **kwargs):
            raise AssertionError("the sampler built a channel from entry values")
        monkeypatch.setattr(ChannelMatrix, "from_rows", classmethod(refuse))

    @pytest.mark.parametrize("graph", [C12, build_family("petersen"),
                                       Graph(5, {(0, 1), (2, 3), (3, 4)})],
                             ids=["C12(1,2)", "petersen", "disconnected"])
    def test_draws_without_entry_values(self, graph, no_from_rows, no_entries):
        assert len(list(random_dp_sample(graph, EPS07, 4, seed=3))) == 4

    def test_seeded_samples_are_pinned(self):
        # captured while the sampler still computed on Fraction entries
        graphs = [build_family(spec) for spec in (
            "clique:3", "cycle:5", "path:4", "petersen", "hamming:2,3", "hamming:3,2")]
        graphs += [C12, Graph(5, {(0, 1), (2, 3), (3, 4)}), Graph(1, set())]
        levels = [PrivacyParameter(r) for r in
                  (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10), 1)] + [EPS07]
        digest = hashlib.sha256()
        for graph in graphs:
            for pp in levels:
                for seed in (0, 1):
                    for matrix in random_dp_sample(graph, pp, 3, seed):
                        digest.update(matrix.to_json().encode("utf-8") + b"\n")
        assert digest.hexdigest() == \
            "a3f6703e60fd5a489d3705a4bff1c97f27bf0c468eb6e8bdd607a307c9e094b4"
