"""Command-line behaviour: wiring, formats, exit codes, stability."""

import argparse
import contextlib
import csv
import decimal
import hashlib
import io
import itertools
import json
import pathlib
import re
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dpchannel import (
    UNREACHABLE,
    AutomorphismFamily,
    ChannelMatrix,
    DpAudit,
    Graph,
    PrivacyParameter,
    Prior,
    build_clique,
    build_cycle,
    build_hamming,
    build_path,
    build_petersen,
    distance_profile,
    distances,
    dp_audit,
    format_fraction,
    optimal_mechanism,
    posterior_success,
    random_dp_sample,
    truncated_geometric_fixture,
    utility_bound,
    vt_plus_certificate,
)
from dpchannel import cli, graphs, oracle
from dpchannel.cli import _write_json, build_parser, main
from test_channels import certified_graphs

HALF = PrivacyParameter(Fraction(1, 2))


@pytest.fixture
def m2_csv(tmp_path):
    matrix = optimal_mechanism(build_clique(6), HALF).matrix.with_labels(
        row_labels=tuple("ABCDEF"), col_labels=tuple("ABCDEF"))
    path = tmp_path / "m2.csv"
    path.write_text(matrix.to_csv(), encoding="utf-8")
    return str(path)


@pytest.fixture
def city_prior_csv(tmp_path):
    path = tmp_path / "prior.csv"
    path.write_text("A,1/10\nB,1/5\nC,1/5\nD,1/5\nE,1/5\nF,1/10\n", encoding="utf-8")
    return str(path)


class TestGraphCommand:
    def test_hamming_classification_lines(self, capsys):
        assert main(["graph", "--family", "hamming:3,2"]) == 0
        out = capsys.readouterr().out
        assert "distance-regular: yes" in out
        assert "VT+: yes" in out

    def test_petersen_intersection_array(self, capsys):
        assert main(["graph", "--family", "petersen"]) == 0
        out = capsys.readouterr().out
        assert "intersection array: b=(3, 2) c=(1, 1)" in out

    def test_path3_is_not_transitive(self, capsys):
        assert main(["graph", "--family", "path:3"]) == 0
        assert "VT+: no" in capsys.readouterr().out

    def test_json_output_is_byte_identical_across_runs(self, capsys):
        assert main(["graph", "--family", "cycle:6", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["graph", "--family", "cycle:6", "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["distance_regular"] is True
        assert payload["vt_plus"] == "yes"

    def test_graph_file_source(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(build_clique(3).to_json(), encoding="utf-8")
        assert main(["graph", "--graph-file", str(path)]) == 0
        assert "vertices: 3" in capsys.readouterr().out

    def test_unreadable_file_is_a_clean_error(self, capsys):
        assert main(["graph", "--graph-file", "/nonexistent/graph.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_two_disjoint_edges(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(Graph(4, {(0, 1), (2, 3)}).to_json(), encoding="utf-8")
        assert main(["graph", "--graph-file", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "connected: no" in lines
        assert "diameter: infinite (disconnected)" in lines
        assert "distance-regular: no" in lines
        assert main(["graph", "--graph-file", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["connected"] is False
        assert payload["distance_regular"] is False
        assert "diameter" not in payload

    @pytest.mark.parametrize("spec, method", [("cycle:1000", "single-orbit powers"),
                                              ("clique:1000", "coordinate translations")],
                             ids=["cycle:1000", "clique:1000"])
    def test_a_thousand_vertices_do_not_exhaust_the_stack(self, spec, method, capsys):
        assert main(["graph", "--family", spec]) == 0
        assert f"VT+: yes ({method})" in capsys.readouterr().out

    def test_a_searched_thousand_vertex_cycle_does_not_exhaust_the_stack(self, tmp_path, capsys):
        path = tmp_path / "c1000.json"
        path.write_text(build_cycle(1000).to_json(), encoding="utf-8")     # records nothing
        assert main(["graph", "--graph-file", str(path)]) == 0
        assert "VT+: yes (single-orbit powers)" in capsys.readouterr().out

    def test_a_failed_internal_invariant_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "verify_family", lambda g, fam: False)
        assert main(["graph", "--family", "cycle:7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal error: single-orbit powers failed verification\n"

    def test_an_infeasible_sample_is_an_internal_error(self, capsys, monkeypatch):
        infinite = DpAudit(None, None)
        monkeypatch.setattr(oracle, "dp_audit", lambda matrix, graph: infinite)
        assert main(["oracle", "--family", "cycle:5", "--ratio", "1/2",
                     "--method", "random", "--count", "1"]) == 3
        assert capsys.readouterr().err == (
            "error: sampler produced an infeasible channel, which cannot happen\n")

    def test_the_environment_does_not_set_the_cap(self, capsys, monkeypatch):
        assert main(["graph", "--family", "hamming:4,2"]) == 0
        alone = capsys.readouterr()
        monkeypatch.setenv("DPCHANNEL_SIZE_CAP", "10")
        assert main(["graph", "--family", "hamming:4,2"]) == 0
        assert capsys.readouterr() == alone


@st.composite
def symmetric_graphs(draw):
    """Hamming graphs (labelled, or relabelled without labels), circulants
    and disjoint unions of cycles."""
    kind = draw(st.sampled_from(["hamming", "circulant", "cycles"]))
    if kind == "hamming":
        u, v = draw(st.sampled_from([(1, 2), (1, 4), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2),
                                     (3, 3), (2, 5)]))
        g = build_hamming(u, v)
        if g.n > 16 or not draw(st.booleans()):
            return g
    elif kind == "circulant":
        n = draw(st.integers(3, 12))
        jumps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3))
        g = Graph(n, {(i, (i + d) % n) for i in range(n) for d in jumps})
    else:
        edges, n = set(), 0
        for k in draw(st.lists(st.integers(3, 6), min_size=1, max_size=3)):
            edges |= {(n + i, n + (i + 1) % k) for i in range(k)}
            n += k
        g = Graph(n, edges)
    perm = draw(st.permutations(range(g.n)))
    return Graph(g.n, {(perm[i], perm[j]) for i, j in g.edge_list})


def all_pairs_report(g):
    """The ``graph --format json`` payload, from all-pairs distances and an
    all-pairs distance-regularity count."""
    rows = distances(g).dist
    degrees = [len(g.adjacency[v]) for v in range(g.n)]
    payload = {"n": g.n, "edges": len(g.edge_list),
               "degree_histogram": {str(d): degrees.count(d) for d in sorted(set(degrees))},
               "connected": UNREACHABLE not in rows[0], "distance_regular": False}
    if payload["connected"]:
        counts = [[row.count(d) for d in range(max(row) + 1)] for row in rows]
        diameter = max(map(max, rows))
        payload.update({"diameter": diameter, "profile_base_0": counts[0],
                        "profile_base_independent": all(c == counts[0] for c in counts)})
        b, c = {}, {}
        for x, y in itertools.product(range(g.n), repeat=2):
            i = rows[x][y]
            near = [rows[x][z] for z in g.adjacency[y]]
            b.setdefault(i, set()).add(near.count(i + 1))
            c.setdefault(i, set()).add(near.count(i - 1))
        if all(len(b[i]) == len(c[i]) == 1 for i in b):
            payload["distance_regular"] = True
            payload["intersection_array"] = {"b": [min(b[i]) for i in range(diameter)],
                                             "c": [min(c[i]) for i in range(1, diameter + 1)]}
    cert = vt_plus_certificate(g)
    payload.update({"vt_plus": cert.status, "vt_plus_method": cert.method})
    return payload


class TestGraphReportOracle:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(g=symmetric_graphs())
    def test_report_matches_the_all_pairs_reference(self, g, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(g.to_json(), encoding="utf-8")
        assert main(["graph", "--graph-file", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == all_pairs_report(g)
        fresh = Graph.from_json(g.to_json())
        vt_plus_certificate(fresh)      # on a "yes" the matrix is carried from row 0
        assert fresh.distance_matrix == distances(g)


class TestGraphFileSizeCap:
    """The size cap bounds a graph file as it bounds a family."""

    @pytest.mark.parametrize("n, code", [(10, 0), (11, 1)], ids=["at-cap", "above-cap"])
    def test_cap_is_checked_before_any_distance_work(
            self, n, code, tmp_path, monkeypatch, capsys):
        passes, built = [], []
        bfs = graphs._bfs
        monkeypatch.setattr(graphs, "_bfs", lambda g, v: passes.append(v) or bfs(g, v))
        path = tmp_path / f"cycle{n}.json"
        path.write_text(build_cycle(n).to_json(), encoding="utf-8")
        init = Graph.__init__
        monkeypatch.setattr(Graph, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        assert main(["graph", "--graph-file", str(path), "--size-cap", "10"]) == code
        captured = capsys.readouterr()
        if code:
            assert passes == [] and built == []
            assert (f"error: graph file {path} has 11 vertices, above the cap of 10"
                    in captured.err)
        else:
            assert "vertices: 10" in captured.out

    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_the_cap_flag_takes_positive_integers_only(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["graph", "--family", "clique:4", "--size-cap", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: dpchannel graph ")
        assert "argument --size-cap:" in captured.err

    @pytest.mark.parametrize("spec", ["hamming:5000,10", "hamming:100000000,10"])
    def test_an_oversized_hamming_spec_is_refused_at_once(self, spec, capsys):
        # V^U is neither computed nor printed: its digits pass str()'s limit
        began = time.perf_counter()
        assert main(["graph", "--family", spec]) == 1
        assert time.perf_counter() - began < 1
        u, v = spec[len("hamming:"):].split(",")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: hamming({u},{v}) has {v}^{u} vertices, above the cap of 4096\n")

    def test_petersen_above_the_cap_is_refused(self, capsys):
        assert main(["graph", "--family", "petersen", "--size-cap", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: petersen has 10 vertices, above the cap of 5\n"


# Every option of every subcommand; each is read by some invocation of it.
GRAPH_SOURCE = {"--family", "--graph-file", "--size-cap"}
OUTPUT = {"--format", "--output"}
PRIVACY = {"--ratio", "--epsilon"}
SUBCOMMAND_OPTIONS = {
    "graph": OUTPUT | GRAPH_SOURCE | {"--effort"},
    "analyze": OUTPUT | GRAPH_SOURCE | PRIVACY | {"--matrix", "--prior", "--tolerance"},
    "transform": OUTPUT | GRAPH_SOURCE | {"--matrix", "--stage", "--effort"},
    "synth": OUTPUT | GRAPH_SOURCE | PRIVACY,
    "compare": OUTPUT | {"--matrix-a", "--matrix-b", "--prior"},
    "oracle": OUTPUT | GRAPH_SOURCE | PRIVACY | {"--method", "--seed", "--iters", "--step",
                                                 "--count"},
}


class TestOptionSurface:
    @staticmethod
    def subparsers():
        parser = build_parser()
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_each_subcommand_takes_only_the_options_it_reads(self):
        subs = self.subparsers()
        assert set(subs) == set(SUBCOMMAND_OPTIONS)
        slots = 0
        for name, sub in subs.items():
            options = [s for a in sub._actions if not isinstance(a, argparse._HelpAction)
                       for s in a.option_strings]
            assert sorted(options) == sorted(SUBCOMMAND_OPTIONS[name]), name
            slots += len(options)
            fmt = next(a for a in sub._actions if "--format" in a.option_strings)
            expected = ("text", "json", "csv") if name == "compare" else ("text", "json")
            assert tuple(fmt.choices) == expected, name
        assert slots == 48

    @pytest.mark.parametrize("argv, option", [
        (["oracle", "--family", "clique:3", "--ratio", "1/2", "--method", "random",
          "--count", "0"], "--count"),
        (["oracle", "--family", "clique:3", "--ratio", "1/2", "--method", "hillclimb",
          "--iters", "-5"], "--iters"),
        (["graph", "--family", "cycle:5", "--effort", "-1"], "--effort"),
    ], ids=["count-0", "iters-minus-5", "effort-minus-1"])
    def test_counts_and_budgets_take_positive_integers_only(self, argv, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: dpchannel {argv[0]} ")
        assert f"argument {option}: must be a positive integer, got {argv[-1]}" in captured.err

    @pytest.mark.parametrize("argv", [
        ["synth", "--family", "clique:3", "--ratio", "1/2", "--effort", "5"],
        ["graph", "--family", "clique:3", "--format", "csv"],
        ["compare", "--matrix-a", "fixture:geometric", "--matrix-b", "fixture:geometric",
         "--size-cap", "5"],
    ], ids=["synth-effort", "graph-csv", "compare-size-cap"])
    def test_an_option_the_subcommand_would_ignore_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: dpchannel {argv[0]} ")
        assert f"dpchannel {argv[0]}: error: " in captured.err


    @pytest.mark.parametrize("method, given", [
        ("grid", ["--seed", "9", "--count", "5", "--iters", "7"]),
        ("grid", ["--seed", "0"]),
        ("hillclimb", ["--count", "3"]),
        ("hillclimb", ["--step", "1/4"]),
        ("random", ["--iters", "5"]),
        ("random", ["--step", "1/4"]),
    ], ids=["grid-seed-count-iters", "grid-seed", "hillclimb-count", "hillclimb-step",
            "random-iters", "random-step"])
    def test_an_option_the_oracle_method_would_ignore_is_a_usage_error(
            self, method, given, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--family", "clique:3", "--ratio", "1/2", "--method", method]
                 + given)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: dpchannel oracle ")
        stray = ", ".join(sorted(given[::2], key=["--step", "--iters", "--count",
                                                   "--seed"].index))
        assert f"dpchannel oracle: error: --method {method} does not take {stray}\n" in (
            captured.err)

    @pytest.mark.parametrize("method, given, seed, trials", [
        ("grid", ["--step", "1/4"], None, 75),
        ("hillclimb", ["--iters", "7", "--seed", "4"], 4, 7),
        ("random", ["--count", "3", "--seed", "4"], 4, 3),
    ], ids=["grid", "hillclimb", "random"])
    def test_each_oracle_method_reads_its_own_options(self, method, given, seed, trials,
                                                      capsys):
        assert main(["oracle", "--family", "clique:3", "--ratio", "1/2", "--method", method,
                     "--format", "json"] + given) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload.get("seed"), payload["trials"]) == (seed, trials)

    @pytest.mark.parametrize("method, given, seed_line", [
        ("grid", ["--step", "1/4"], None),
        ("hillclimb", ["--iters", "7", "--seed", "4"], "seed: 4"),
        ("random", ["--count", "3", "--seed", "4"], "seed: 4"),
    ], ids=["grid", "hillclimb", "random"])
    def test_only_the_seeded_methods_report_a_seed(self, method, given, seed_line, capsys):
        argv = ["oracle", "--family", "clique:3", "--ratio", "1/2", "--method", method] + given
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"method: {method}"
        assert [x for x in lines if x.startswith("seed")] == ([seed_line] if seed_line else [])
        assert main(argv + ["--format", "json"]) == 0
        assert ("seed" in json.loads(capsys.readouterr().out)) == (seed_line is not None)


class TestAnalyzeCommand:
    def test_synthesised_matrix_attains_the_bound(self, m2_csv, capsys):
        assert main(["analyze", "--family", "clique:6", "--matrix", m2_csv,
                     "--ratio", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "posterior success: 2/7" in out
        assert "attains bound: yes" in out
        assert "satisfies declared epsilon: yes" in out

    def test_fixture_needs_the_rounded_tolerance_profile(self, capsys):
        args = ["analyze", "--family", "clique:6", "--matrix", "fixture:geometric",
                "--epsilon", "ln2"]
        assert main(args) == 0
        assert "satisfies declared epsilon: no" in capsys.readouterr().out
        assert main(args + ["--tolerance", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "satisfies declared epsilon: yes" in out
        assert "posterior success: 673/3000" in out

    def test_nonuniform_prior_is_aligned_by_label(self, city_prior_csv, capsys):
        assert main(["analyze", "--family", "clique:6", "--matrix", "fixture:geometric",
                     "--ratio", "1/2", "--prior", city_prior_csv,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["posterior_success"] == "603/2500"

    def test_a_prior_in_another_label_order_is_reordered(self, m2_csv, tmp_path, capsys):
        values = {"A": "1/2", "B": "1/10", "C": "1/10", "D": "1/10", "E": "1/10", "F": "1/10"}
        for name, order in (("in_order.csv", "ABCDEF"), ("shuffled.csv", "FBDAEC")):
            (tmp_path / name).write_text("".join(f"{k},{values[k]}\n" for k in order),
                                         encoding="utf-8")
        outputs = []
        for name in ("in_order.csv", "shuffled.csv"):
            assert main(["analyze", "--family", "clique:6", "--matrix", m2_csv, "--ratio", "1/2",
                         "--prior", str(tmp_path / name), "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[1])["max_prior_prob"] == "1/2"

    def test_a_prior_of_the_wrong_length_is_refused(self, m2_csv, tmp_path, capsys):
        prior = tmp_path / "prior.csv"
        prior.write_text("A,1/5\nB,1/5\nC,1/5\nD,1/5\nE,1/5\n", encoding="utf-8")
        assert main(["analyze", "--family", "clique:6", "--matrix", m2_csv, "--ratio", "1/2",
                     "--prior", str(prior)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: prior length does not match the matrix rows\n"

    def test_base_dependent_profile_has_no_bounds(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(ChannelMatrix.identity(4).to_csv(), encoding="utf-8")
        assert main(["analyze", "--family", "path:4", "--matrix", str(path),
                     "--ratio", "1/2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "bounds: not applicable (base-dependent profile)"
        assert not any(line.startswith("utility bound") for line in lines)

    def test_dimension_mismatch_is_an_error(self, m2_csv, capsys):
        assert main(["analyze", "--family", "clique:5", "--matrix", m2_csv,
                     "--ratio", "1/2"]) == 1

    def test_a_repeated_row_label_is_named(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text(",a,b\nA,1/2,1/2\nA,1/4,3/4\nB,1,0\n", encoding="utf-8")
        prior = tmp_path / "prior.csv"
        prior.write_text("A,1/4\nB,3/4\n", encoding="utf-8")
        assert main(["analyze", "--family", "clique:3", "--matrix", str(matrix),
                     "--ratio", "1/2", "--prior", str(prior)]) == 1
        assert capsys.readouterr().err == "error: row label 'A' given twice\n"

    def test_a_repeated_graph_label_is_named(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text('{"n": 2, "edges": [[0, 1]], "labels": ["a", "a"]}', encoding="utf-8")
        assert main(["synth", "--graph-file", str(graph), "--ratio", "1/2"]) == 1
        assert capsys.readouterr().err == "error: vertex label 'a' given twice\n"

    def test_requires_exactly_one_privacy_flag(self, m2_csv):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--family", "clique:6", "--matrix", m2_csv])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["analyze", "--family", "clique:6", "--matrix", m2_csv,
                  "--ratio", "1/2", "--epsilon", "0.3"])

    def test_zero_opposite_a_positive_entry_is_an_infinite_ratio(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text(",a,b\nx,1,0\ny,1/2,1/2\n", encoding="utf-8")
        graph = tmp_path / "g.json"
        graph.write_text('{"n": 2, "edges": [[0, 1]]}', encoding="utf-8")
        args = ["analyze", "--graph-file", str(graph), "--matrix", str(matrix), "--ratio", "1/2"]
        assert main(args + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eps_star_infinite"] is True
        assert payload["max_ratio"] is None
        assert payload["satisfies_epsilon"] is False
        assert payload["witness"] == [1, 0, 1]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "eps_star: inf (max adjacent ratio inf, witness rows 1/0 column 1)" in out
        assert "satisfies declared epsilon: no" in out

    def test_a_prior_label_given_twice_is_refused(self, tmp_path, capsys):
        prior = tmp_path / "prior.csv"
        prior.write_text("A,0\nA,1/2\nB,1/4\nC,1/4\nD,0\nE,0\nF,0\n", encoding="utf-8")
        assert main(["analyze", "--family", "clique:6", "--matrix", "fixture:geometric",
                     "--ratio", "1/2", "--prior", str(prior)]) == 1
        assert "error: prior label 'A' given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, message", [
        ("m.json", '{"row_labels": ["x", "y"]}',
         "matrix JSON must be an object whose 'entries' is a list of row lists"),
        ("m.json", '{"entries": "abc"}',
         "matrix JSON must be an object whose 'entries' is a list of row lists"),
        ("m.json", '{"entries": ["ab", "cd"]}',
         "matrix JSON must be an object whose 'entries' is a list of row lists"),
        ("m.json", '[["1/2", "1/2"], ["1/2", "1/2"]]',
         "matrix JSON must be an object whose 'entries' is a list of row lists"),
        ("m.csv", ",a,b\nx,1/0,1\ny,1/2,1/2\n", "cell '1/0' has a zero denominator"),
        ("m.json", '{"entries": [["1", "0"], ["0/0", "1"]]}', "cell '0/0' has a zero denominator"),
        ("m.json", '{"entries": [[true, false], [false, true]]}',
         "matrix JSON 'entries' cells must be strings or numbers"),
        ("m.json", '{"entries": [["1/2", "1/2"], [null, "1"]]}',
         "matrix JSON 'entries' cells must be strings or numbers"),
        ("m.json", '{"entries": [["1", "0"], ["0", "1"]], "row_labels": "ab"}',
         "matrix JSON 'row_labels' must be a list of strings or integers"),
        ("m.json", '{"entries": [["1", "0"], ["0", "1"]], "row_labels": [["a"], ["b"]]}',
         "matrix JSON 'row_labels' must be a list of strings or integers"),
        ("m.json", '{"entries": [["1", "0"], ["0", "1"]], "col_labels": [true, false]}',
         "matrix JSON 'col_labels' must be a list of strings or integers"),
        ("m.json", '{"entries": [["1", "0"], ["0", "1"]], "col_labels": 5}',
         "matrix JSON 'col_labels' must be a list of strings or integers"),
    ])
    def test_malformed_matrix_input_is_named(self, name, text, message, tmp_path, capsys):
        matrix = tmp_path / name
        matrix.write_text(text, encoding="utf-8")
        assert main(["analyze", "--family", "clique:2", "--matrix", str(matrix),
                     "--ratio", "1/2"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_zero_denominator_in_a_prior_is_named(self, tmp_path, capsys):
        prior = tmp_path / "prior.csv"
        prior.write_text("x0,1/2\nx1, 1/0\n", encoding="utf-8")
        assert main(["analyze", "--family", "clique:2", "--matrix", "fixture:geometric",
                     "--ratio", "1/2", "--prior", str(prior)]) == 1
        assert capsys.readouterr().err == "error: cell ' 1/0' has a zero denominator\n"

    @pytest.mark.parametrize("value", ["-0.1", "-1e-12", "nan", "inf", "1e400"])
    def test_negative_tolerance_is_refused(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--family", "clique:6", "--matrix", "fixture:geometric",
                  "--ratio", "1/2", f"--tolerance={value}"])
        assert exc.value.code != 0
        assert "--tolerance: must be a finite non-negative number" in capsys.readouterr().err


    @pytest.mark.parametrize("with_prior, scans", [(False, 1), (True, 2)],
                             ids=["uniform", "with-prior"])
    def test_the_column_maxima_are_scanned_once(self, with_prior, scans, city_prior_csv,
                                               monkeypatch, capsys):
        scanned = []
        weighted = ChannelMatrix._weighted_column_maxima
        monkeypatch.setattr(ChannelMatrix, "_weighted_column_maxima",
                            lambda self, weights: scanned.append(1) or weighted(self, weights))
        argv = ["analyze", "--family", "clique:6", "--matrix", "fixture:geometric",
                "--ratio", "1/2"]
        assert main(argv + (["--prior", city_prior_csv] if with_prior else [])) == 0
        assert len(scanned) == scans


class TestPrivacyValues:
    """A privacy level or grid step that names no usable rational is refused
    with one message naming the value and its fault."""

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--family", "cycle:4", "--ratio", "1/0"],
         "--ratio '1/0' has a zero denominator"),
        (["oracle", "--family", "clique:3", "--ratio", "1/2", "--method", "grid",
          "--step", "1/0"], "--step '1/0' has a zero denominator"),
        (["synth", "--family", "cycle:4", "--epsilon", "nan"],
         "epsilon must be a finite non-negative number"),
        (["synth", "--family", "cycle:4", "--epsilon", "inf"],
         "epsilon must be a finite non-negative number"),
        (["synth", "--family", "cycle:4", "--epsilon", "800"],
         "epsilon 800 is too large: e^-epsilon underflows to 0"),
        (["synth", "--family", "cycle:4", "--ratio", "x"],
         "--ratio 'x' is not a rational number (p/q or a decimal)"),
        (["synth", "--family", "cycle:4", "--ratio", "inf"],
         "--ratio 'inf' is not a rational number (p/q or a decimal)"),
        (["oracle", "--family", "clique:3", "--ratio", "1/2", "--method", "grid",
          "--step", "x"], "--step 'x' is not a rational number (p/q or a decimal)"),
        (["synth", "--family", "cycle:4", "--epsilon", "x"],
         "--epsilon 'x' is not a number (a decimal, or ln2)"),
    ], ids=["ratio-1/0", "step-1/0", "epsilon-nan", "epsilon-inf", "epsilon-800",
            "ratio-x", "ratio-inf", "step-x", "epsilon-x"])
    def test_the_value_and_its_fault_are_named(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestSynthCommand:
    def test_clique6_reproduces_the_published_matrix(self, capsys):
        assert main(["synth", "--family", "clique:6", "--ratio", "1/2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c_num"] == 2 and payload["c_den"] == 7
        entries = payload["matrix"]["entries"]
        for i in range(6):
            for j in range(6):
                assert entries[i][j] == ("2/7" if i == j else "1/7")

    def test_cycle6_utility(self, capsys):
        assert main(["synth", "--family", "cycle:6", "--ratio", "1/2"]) == 0
        assert "8/21" in capsys.readouterr().out

    def test_ratio_one_gives_uniform_rows(self, capsys):
        assert main(["synth", "--family", "cycle:4", "--ratio", "1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(map(tuple, payload["matrix"]["entries"])) == {("1/4",) * 4}

    def test_unsupported_graph_is_refused_with_diagnostic(self, capsys):
        assert main(["synth", "--family", "path:3", "--ratio", "1/2"]) == 1
        assert "profile differs" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "bundle.json"
        assert main(["synth", "--family", "clique:3", "--ratio", "1/3",
                     "--format", "json", "--output", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["r_num"] == 1 and payload["r_den"] == 3

    def test_json_spells_c_in_full_past_the_digit_limit(self, tmp_path):
        # c = 1 / (1 + 2r + 2r^2 + 2r^3 + 2r^4) at r = 10^-1100: both of its
        # terms run past the 4300 digits str() spells (and json.loads reads)
        out = tmp_path / "bundle.json"
        assert main(["synth", "--family", "cycle:9", "--ratio", "1/1" + "0" * 1100,
                     "--format", "json", "--output", str(out)]) == 0
        c = optimal_mechanism(build_cycle(9), PrivacyParameter(Fraction(1, 10 ** 1100))).c
        assert min(c.numerator, c.denominator) > 10 ** 4300
        spelt = dict(re.findall(r'^  "(c_num|c_den)": (\d+),$', out.read_text(encoding="utf-8"),
                                re.MULTILINE))
        assert spelt == {"c_num": str(decimal.Decimal(c.numerator)),
                         "c_den": str(decimal.Decimal(c.denominator))}


class TestTransformCommand:
    def test_pipeline_preserves_success(self, tmp_path, capsys):
        matrix = truncated_geometric_fixture()
        path = tmp_path / "m1.csv"
        path.write_text(matrix.to_csv(), encoding="utf-8")
        assert main(["transform", "--family", "clique:6", "--matrix", str(path),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success_preserved"] is True
        assert payload["stage"] == "symmetric"

    def test_diagonal_stage_only(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(",z0,z1,z2\nx0,1/2,1/4,1/4\nx1,1/4,3/8,3/8\n", encoding="utf-8")
        g = tmp_path / "g.json"
        g.write_text('{"n": 2, "edges": [[0, 1]]}', encoding="utf-8")
        assert main(["transform", "--graph-file", str(g), "--matrix", str(path),
                     "--stage", "diagonal", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["merge_map"] == [0, 1, 1]
        assert payload["matrix"]["entries"][0] == ["1/2", "1/2", "0"]

    def test_surplus_columns_never_reuse_a_row_label(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(",a,b,c,d\nz0,1/2,1/4,1/8,1/8\nz1,1/4,1/2,1/8,1/8\n"
                        "z3,1/4,1/4,1/4,1/4\n", encoding="utf-8")
        g = tmp_path / "g.json"
        g.write_text(build_clique(3).to_json(), encoding="utf-8")
        assert main(["transform", "--graph-file", str(g), "--matrix", str(path),
                     "--stage", "diagonal", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"]["col_labels"] == ["z0", "z1", "z3", "z4"]
        assert ChannelMatrix.from_dict(payload["matrix"]).col_labels == ("z0", "z1", "z3", "z4")

    def test_symmetric_stage_on_disconnected_vertex_transitive_graph(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(Graph(4, {(0, 1), (2, 3)}).to_json(), encoding="utf-8")
        path = tmp_path / "m.csv"
        path.write_text(ChannelMatrix.identity(4).to_csv(), encoding="utf-8")
        assert main(["transform", "--stage", "symmetric", "--graph-file", str(g),
                     "--matrix", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["symmetry"] == "vt_plus"
        assert payload["success_preserved"] is True


class TestCompareCommand:
    def test_published_pair_under_both_priors(self, m2_csv, city_prior_csv, capsys):
        assert main(["compare", "--matrix-a", "fixture:geometric",
                     "--matrix-b", m2_csv, "--prior", city_prior_csv,
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "prior,utility_a,utility_b,leakage_a,leakage_b"
        uniform = lines[1].split(",")
        assert float(uniform[1]) == pytest.approx(0.2243, abs=1e-3)
        assert float(uniform[2]) == pytest.approx(2 / 7, abs=1e-6)
        nonuni = lines[2].split(",")
        assert float(nonuni[1]) == pytest.approx(0.2412, abs=1e-6)
        assert float(nonuni[2]) == pytest.approx(2 / 7, abs=1e-6)

    def test_text_format(self, m2_csv, city_prior_csv, capsys):
        assert main(["compare", "--matrix-a", "fixture:geometric", "--matrix-b", m2_csv,
                     "--prior", city_prior_csv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "prior uniform:"
        assert lines[1].startswith("  utility:  673/3000 (= 0.224333)  vs  2/7 (= 0.285714)")
        assert lines[3] == "prior prior.csv:"
        assert len(lines) == 6

    def test_matrix_against_itself(self, m2_csv, capsys):
        assert main(["compare", "--matrix-a", m2_csv, "--matrix-b", m2_csv,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["rows"][0]
        assert row["utility_a"] == row["utility_b"]
        assert row["leakage_a"] == row["leakage_b"]

    def test_a_labelled_prior_is_aligned_to_each_matrix(self, tmp_path, capsys):
        # b lists a's rows in the other order; analyze gives b 3/4 under this prior
        files = {"a.csv": ",y0,y1\nx0,1,0\nx1,1/2,1/2\n",
                 "b.csv": ",y0,y1\nx1,1/2,1/2\nx0,1,0\n", "p.csv": "x0,1/4\nx1,3/4\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        a, b, prior = (str(tmp_path / name) for name in files)
        assert main(["analyze", "--family", "path:2", "--matrix", b, "--ratio", "1/2",
                     "--prior", prior, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["posterior_success"] == "3/4"
        assert main(["compare", "--matrix-a", a, "--matrix-b", b, "--prior", prior,
                     "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][1]
        assert (row["utility_a"], row["utility_b"]) == ("3/4", "3/4")
        assert row["leakage_a"] == row["leakage_b"]

    def test_a_prior_name_is_quoted_in_csv(self, m2_csv, city_prior_csv, tmp_path, capsys):
        path = tmp_path / 'sk,ew"ed.csv'
        path.write_text(pathlib.Path(city_prior_csv).read_text(encoding="utf-8"), encoding="utf-8")
        assert main(["compare", "--matrix-a", "fixture:geometric", "--matrix-b", m2_csv,
                     "--prior", str(path), "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [len(row) for row in rows] == [5, 5, 5]
        assert rows[2][0] == 'sk,ew"ed.csv'


class TestOracleCommand:
    def test_grid_json(self, capsys):
        assert main(["oracle", "--family", "clique:2", "--ratio", "1/2",
                     "--method", "grid", "--step", "1/24", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_utility"] == "2/3"
        assert payload["utility_bound"] == "2/3"

    def test_hillclimb_respects_the_bound(self, capsys):
        assert main(["oracle", "--family", "cycle:6", "--ratio", "1/2",
                     "--method", "hillclimb", "--iters", "500", "--seed", "3",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_utility"] == "8/21"

    def test_random_stream_summary(self, capsys):
        assert main(["oracle", "--family", "petersen", "--ratio", "1/2",
                     "--method", "random", "--count", "12", "--seed", "5",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 12
        assert Fraction(payload["best_utility"]) <= Fraction(1, 4)  # petersen bound at r=1/2

    def test_hillclimb_on_a_disconnected_graph_starts_uniform(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(Graph(4, {(0, 1), (2, 3)}).to_json(), encoding="utf-8")
        assert main(["oracle", "--graph-file", str(g), "--ratio", "1/2",
                     "--method", "hillclimb", "--iters", "200", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 200
        assert Fraction(payload["best_utility"]) >= Fraction(1, 4)

    def test_hillclimb_on_a_one_column_channel(self, capsys):
        assert main(["oracle", "--family", "path:1", "--ratio", "2/3",
                     "--method", "hillclimb", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_utility"] == payload["utility_bound"] == "1"
        assert payload["trials"] == 0

    def test_results_past_the_int_conversion_limit_print_in_full(self, capsys):
        # at epsilon 0.7 the seeded sample on cycle:27 has a utility, and a
        # gap to the bound, whose terms run past the 4300 digits str() spells
        g = build_cycle(27)
        pp = PrivacyParameter.from_epsilon(0.7)
        utility = posterior_success(Prior.uniform(27), next(random_dp_sample(g, pp, 1, 0)))
        gap = utility_bound(distance_profile(g), pp).probability - utility
        assert min(utility.denominator, gap.denominator) > 10 ** 4300
        spelt = {q: f"{decimal.Decimal(q.numerator)}/{decimal.Decimal(q.denominator)}"
                 for q in (utility, gap)}
        args = ["oracle", "--family", "cycle:27", "--epsilon", "0.7",
                "--method", "random", "--count", "1", "--seed", "0"]
        assert main(args + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["best_utility"] == spelt[utility]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].startswith(f"best utility: {spelt[utility]} (= ")
        assert lines[4].endswith(f" (gap {spelt[gap]})")

    def test_seeded_runs_are_byte_identical(self, capsys):
        args = ["oracle", "--family", "cycle:4", "--ratio", "1/2",
                "--method", "random", "--count", "5", "--seed", "11",
                "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


# sha256 of the JSON reports, captured before channels were stored as
# integer rows; the representation must not change a byte of output.
GOLDEN_JSON_SHA256 = {
    ("synth", "--family", "petersen", "--ratio", "1/2"):
        "968c9a60297e2bbdb344bddb640f3347c2f6a8120172b3719ac5c2e9b0876890",
    ("synth", "--family", "hamming:3,4", "--ratio", "2/3"):
        "5ea10eb25fa5b71de7a39c2ecf2707ec888eedd9e842fdeef975bb68843e43e1",
    ("synth", "--family", "hamming:3,2", "--epsilon", "0.7"):
        "f7ea8bf9f00826e7bf3479d573ee1a18f3581c7cf3a46739386c07a50fe829ba",
    ("analyze", "--matrix", "fixture:geometric", "--family", "path:6", "--ratio", "1/2"):
        "57ef9dd7bdb20840e3a5a245c0ed3f3cb19a4b13f21a01e40c871ed275f628ec",
}


class TestOneDistancePass:
    """Each command runs at most one BFS per vertex of its graph; a graph
    whose symmetry is certified is measured from vertex 0 by one BFS."""

    @pytest.fixture
    def bfs_passes(self, monkeypatch):
        calls = []
        bfs = graphs._bfs

        def counting_bfs(g, source):
            calls.append(source)
            return bfs(g, source)

        monkeypatch.setattr(graphs, "_bfs", counting_bfs)
        return calls

    @pytest.fixture
    def perms_refused(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a certificate's members were listed")

        monkeypatch.setattr(AutomorphismFamily, "perms", property(refuse))

    def test_synth(self, bfs_passes, capsys):
        assert main(["synth", "--family", "hamming:3,3", "--ratio", "1/2"]) == 0
        assert len(bfs_passes) == 1

    def test_graph(self, bfs_passes, capsys):
        assert main(["graph", "--family", "petersen"]) == 0
        assert "VT+: yes (automorphism cover search)" in capsys.readouterr().out
        assert len(bfs_passes) == 1

    def test_graph_without_a_certificate_examines_every_base(self, bfs_passes, capsys):
        assert main(["graph", "--family", "path:5"]) == 0
        assert "VT+: no" in capsys.readouterr().out
        assert sorted(bfs_passes) == [0, 1, 2, 3, 4]

    def test_symmetric_transform(self, bfs_passes, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(ChannelMatrix.identity(9).to_csv(), encoding="utf-8")
        assert main(["transform", "--stage", "symmetric", "--family", "hamming:2,3",
                     "--matrix", str(path)]) == 0
        assert "(distance_regular)" in capsys.readouterr().out
        assert len(bfs_passes) == 1

    @pytest.mark.parametrize("argv, method", [
        (["graph", "--family", "hamming:6,4"], "coordinate translations"),
        (["graph", "--family", "cycle:31"], "single-orbit powers"),
        (["synth", "--family", "hamming:4,4", "--ratio", "1/2"], None),
    ], ids=["graph-hamming-6-4", "graph-cycle-31", "synth-hamming-4-4"])
    def test_certified_work_is_one_bfs_and_no_member_list(
            self, argv, method, bfs_passes, perms_refused, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        if method:
            assert f"VT+: yes ({method})" in out
        assert bfs_passes == [0]


class TestGoldenOutput:
    @pytest.mark.parametrize("argv", list(GOLDEN_JSON_SHA256), ids=" ".join)
    def test_json_report_is_byte_identical(self, argv, capsys):
        assert main(list(argv) + ["--format", "json"]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == GOLDEN_JSON_SHA256[argv]

    # sha256 captured while canonicalize still re-verified its own certificate
    @pytest.mark.parametrize("n, source, symmetry, digest", [
        (10, ["--family", "petersen"], "distance_regular",
         "25edfd0e507d7168dbcb1761d8fa2ae2a6a826f5998539497139d90a9fe452aa"),
        (12, ["--graph-file", "c12.json"], "vt_plus",
         "c7c722222970f09fa2518f5ce28c6a1804f2a6acc546576c91d09c96826642d5"),
    ], ids=["petersen", "circulant-c12"])
    def test_transform_json_is_byte_identical(self, n, source, symmetry, digest,
                                              tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        circulant = Graph(12, {(i, (i + d) % 12) for i in range(12) for d in (1, 2)})
        (tmp_path / "c12.json").write_text(circulant.to_json(), encoding="utf-8")
        rows = []
        for i in range(n):
            weights = [1 + (3 * i + 5 * j) % 7 for j in range(n + 1)]
            rows.append([Fraction(w, sum(weights)) for w in weights])
        (tmp_path / "m.csv").write_text(ChannelMatrix.from_rows(rows).to_csv(), encoding="utf-8")
        assert main(["transform", *source, "--matrix", "m.csv", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["symmetry"] == symmetry
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("command", ["synth", "transform"])
    def test_text_mode_builds_no_payload(self, command, monkeypatch, capsys):
        def refuse(matrix):
            raise AssertionError("JSON payload built in text mode")

        monkeypatch.setattr(cli, "_matrix_json", refuse)
        argv = [command, "--family", "clique:6"]
        argv += ["--ratio", "1/2"] if command == "synth" else ["--matrix", "fixture:geometric"]
        assert main(argv) == 0
        assert "eps_star: " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["synth", "transform"])
    def test_json_mode_renders_no_text(self, command, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("text rendering in JSON mode")

        monkeypatch.setattr(ChannelMatrix, "_csv_lines", refuse)
        argv = [command, "--family", "clique:6", "--format", "json"]
        argv += ["--ratio", "1/2"] if command == "synth" else ["--matrix", "fixture:geometric"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("command", ["synth", "transform"])
    def test_text_table_quotes_labels_as_csv_does(self, command, tmp_path, capsys):
        labels = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", " lead", "", "h\u00e9 \u6f22"]
        if command == "synth":
            graph = Graph(7, build_cycle(7).edge_list, labels)
            (tmp_path / "g.json").write_text(graph.to_json(), encoding="utf-8")
            argv = ["synth", "--graph-file", str(tmp_path / "g.json"), "--ratio", "1/2"]
        else:
            rows = [[Fraction(1 + (3 * i + 5 * j) % 7, 28) for j in range(7)] for i in range(7)]
            matrix = ChannelMatrix.from_rows(rows, labels, labels[::-1])
            (tmp_path / "m.json").write_text(matrix.to_json(), encoding="utf-8")
            argv = ["transform", "--family", "cycle:7", "--matrix", str(tmp_path / "m.json")]
        assert main([*argv, "--format", "json"]) == 0
        block = json.loads(capsys.readouterr().out)["matrix"]
        assert set(block["row_labels"]) == set(labels)
        rows = [["", *block["col_labels"]]] + [
            [label, *row] for label, row in zip(block["row_labels"], block["entries"])]
        lines = []
        for row in rows:
            # a "\r\n" terminator has csv quote "\r" on every Python, as 3.13 does
            line = io.StringIO()
            csv.writer(line, lineterminator="\r\n").writerow(row)
            lines.append(line.getvalue()[:-2] + "\n")
        assert main(argv) == 0
        table = capsys.readouterr().out.split("\n\n", 1)[1]
        assert table == "".join(lines)
        assert list(csv.reader(io.StringIO(table))) == rows


def row_lists(cells, rows=st.lists):
    """Matrix- and edge-shaped values: non-empty ``rows`` of ``cells``."""
    return st.lists(rows(cells, min_size=1, max_size=3), min_size=1, max_size=4)


def tuple_rows(cells, **sizes):
    return st.lists(cells, **sizes).map(tuple)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 80, 2 ** 80) | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(st.text(), max_size=4) | st.lists(st.integers(), max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)
                   | row_lists(st.text()) | row_lists(st.integers(-2 ** 80, 2 ** 80))
                   | row_lists(st.integers(), tuple_rows) | row_lists(st.text()).map(tuple)
                   | row_lists(st.booleans() | st.integers(-2, 2))
                   | st.lists(st.lists(st.integers(), max_size=2), min_size=2, max_size=4)
                   | st.lists(st.lists(st.text(), min_size=1, max_size=2)
                              | st.dictionaries(st.text(), inner, max_size=2),
                              min_size=1, max_size=4)),
    max_leaves=20)


class TestJsonWriter:
    """The streamed writer spells what `json.dumps(value, sort_keys=True, indent=2)` does."""

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_bytes_equal_the_indented_dump(self, value):
        out = io.StringIO()
        _write_json(out.write, value)
        assert out.getvalue() == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        {}, [], (), "", [""], {"": []}, [{}, [[]]], float("nan"), -float("inf"), 2 ** 70,
        ["\u00e9", "\"q\"", "\x00\x1f\t", "\ud83d\ude00"], {"b": [1, "a"], "a": {"c": None}},
        [True, False], [True, 1], [0, -2 ** 70], [[0, 1], [1, 2]],
    ])
    def test_edge_values(self, value):
        out = io.StringIO()
        _write_json(out.write, value)
        assert out.getvalue() == json.dumps(value, sort_keys=True, indent=2)


    def test_a_matrix_is_streamed_one_row_per_write(self, monkeypatch, tmp_path):
        report = optimal_mechanism(build_hamming(3, 4), PrivacyParameter(Fraction(1, 3)))
        value = report.matrix.to_dict()
        rows = value["entries"]
        assert len(rows) == len(rows[0]) == 64
        writes = []
        _write_json(writes.append, value)
        assert "".join(writes) == json.dumps(value, sort_keys=True, indent=2)

        def longest_row(pad):
            # a row at indentation pad, with the comma and newline before it
            return max(len("," + pad + json.dumps(row, indent=2).replace("\n", pad))
                       for row in rows)

        assert max(map(len, writes)) <= longest_row("\n    ")
        assert len(writes) > 64
        # the synth report writes the carried kernel's spelt rows the same
        # way, one row, one level further down, per write
        writes.clear()
        monkeypatch.setattr(sys, "stdout", argparse.Namespace(write=writes.append))
        assert main(["synth", "--family", "hamming:3,4", "--ratio", "1/3", "--format", "json"]) == 0
        monkeypatch.undo()
        assert json.loads("".join(writes))["matrix"]["entries"] == rows
        assert max(map(len, writes)) <= longest_row("\n      ")
        assert len(writes) > 2 * 64
        # the text reports of synth (the carried kernel) and transform (its
        # symmetric form, spelt row by row) write their table one CSV line,
        # with its newline, per write
        path = tmp_path / "kernel.csv"
        path.write_text(report.matrix.to_csv(), encoding="utf-8")
        for argv in (["synth", "--family", "hamming:3,4", "--ratio", "1/3"],
                     ["transform", "--family", "hamming:3,4", "--matrix", str(path)]):
            writes.clear()
            monkeypatch.setattr(sys, "stdout", argparse.Namespace(write=writes.append))
            assert main(argv) == 0
            monkeypatch.undo()
            table = "".join(writes).split("\n\n", 1)[1]
            assert table == report.matrix.to_csv()
            assert max(map(len, writes)) <= max(map(len, table.splitlines(keepends=True)))


def small_ratios():
    return st.integers(1, 7).flatmap(lambda q: st.integers(1, q).map(lambda p: Fraction(p, q)))


class TestSynthReport:
    """``synth`` streams its report from spelt blocks: the edges read off the
    adjacency rows and, for a carried kernel, row 0 spelt once and carried."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(certified_graphs(), st.sampled_from(
        [build_petersen(), build_path(1), build_path(2)])), small_ratios())
    def test_the_streamed_report_is_the_dumped_bundle(self, g, r):
        assume(g.is_connected)
        bundle = optimal_mechanism(g, PrivacyParameter(r))
        assert (bundle.matrix._carried_on is g) == (g.certified_family is not None)
        payload = {**bundle.to_dict(), "utility": format_fraction(bundle.c),
                   "eps_star": dp_audit(bundle.matrix, g).eps_star}
        # the spelt rows, carried or not, against each cell spelt on its own
        assert payload["matrix"]["entries"] == [
            list(map(format_fraction, row)) for row in bundle.matrix.entries]
        out = io.StringIO()
        with mock.patch.object(cli, "_load_graph", lambda args: g), \
                contextlib.redirect_stdout(out):
            assert main(["synth", "--family", "drawn", "--ratio", format_fraction(r),
                         "--format", "json"]) == 0
        assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("spec", ["hamming:3,4", "cycle:31", "clique:40"])
    def test_a_carried_report_builds_no_edge_list(self, spec, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "build_family", lambda *a, **k: built.append(
            graphs.build_family(*a, **k)) or built[-1])
        assert main(["synth", "--family", spec, "--ratio", "1/2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["graph"]["n"] == built[0].n
        (g,) = built
        assert g.certified_family.explicit is None
        assert "edge_list" not in g.__dict__


class TestParserReuse:
    """``main`` parses with one parser per process, and reusing it changes
    no outcome."""

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_a_mixed_run_matches_fresh_parsers(self, m2_csv, city_prior_csv, tmp_path,
                                               monkeypatch, capsys):
        uniform = tmp_path / "uniform.csv"
        uniform.write_text("".join(f"{x},1/6\n" for x in "ABCDEF"), encoding="utf-8")
        compare = ["compare", "--matrix-a", m2_csv, "--matrix-b", "fixture:geometric",
                   "--prior", city_prior_csv, "--prior", str(uniform)]
        run = [
            ["graph", "--family", "cycle:5"],
            ["analyze", "--family", "clique:6", "--matrix", m2_csv],       # no privacy level
            compare,
            ["oracle", "--family", "clique:3", "--ratio", "1/2", "--method", "grid",
             "--seed", "3"],
            ["graph", "--graph-file", str(tmp_path / "missing.json")],
            ["synth", "--family", "clique:3", "--ratio", "1/2", "--format", "json"],
            compare,
        ]
        build_parser.cache_clear()
        reused = [self.outcome(argv, capsys) for argv in run]
        assert build_parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = [self.outcome(argv, capsys) for argv in run]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 2, 0, 2, 1, 0, 0]
        assert reused[2] == reused[-1]


# Graph JSON near the accepted shape: small vertex counts and edge lists
# whose fields are, now and then, arbitrary JSON.
graph_json = json_values | st.fixed_dictionaries(
    {"n": st.integers(-1, 6) | json_values,
     "edges": st.lists(st.lists(st.integers(-1, 6) | json_values, max_size=3), max_size=6)
     | json_values},
    optional={"labels": st.lists(st.text(max_size=2) | st.integers(-1, 9) | json_values,
                                 max_size=6) | json_values})


class TestGraphFileShape:
    """A graph file is an object with a positive integer ``n``, ``edges`` a
    list of integer pairs and optional ``labels`` of strings or integers;
    anything else is refused with one message naming the field."""

    @pytest.mark.parametrize("text, message", [
        ('{"n": true, "edges": []}', "graph JSON 'n' must be a positive integer"),
        ('{"n": 2, "edges": [[0, true]]}',
         "graph JSON 'edges' must be a list of [i, j] vertex index pairs"),
        ('{"n": 2, "edges": [[0, 1]], "labels": "ab"}',
         "graph JSON 'labels' must be a list of strings or integers"),
        ('{"n": 2, "edges": [[0, 1]], "labels": ["a", false]}',
         "graph JSON 'labels' must be a list of strings or integers"),
        ("{}", "graph JSON 'n' must be a positive integer"),
        ("[]", "graph JSON must be an object with 'n' and 'edges'"),
        ('{"n": 3}', "graph JSON 'edges' must be a list of [i, j] vertex index pairs"),
        ('{"n": 2, "edges": [[0]]}',
         "graph JSON 'edges' must be a list of [i, j] vertex index pairs"),
        ('{"n": 2, "edges": [["0", "1"]]}',
         "graph JSON 'edges' must be a list of [i, j] vertex index pairs"),
        ('{"n": 2, "edges": null}',
         "graph JSON 'edges' must be a list of [i, j] vertex index pairs"),
        ('{"n": 2, "edges": [[0, 1]], "labels": []}', "label count must equal vertex count"),
    ])
    def test_a_malformed_field_is_named(self, text, message, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(text, encoding="utf-8")
        assert main(["graph", "--graph-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("edges, message", [
        ("[[0, 5], [1, 1]]", "edge (0, 5) out of range for n=3"),
        ("[[1, 1], [0, 5]]", "self-loop at vertex 1"),
        ("[[0, 1], [2, 2], [1, 9]]", "self-loop at vertex 2"),
    ])
    def test_the_first_bad_edge_in_file_order_is_named(self, edges, message, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(f'{{"n": 3, "edges": {edges}}}', encoding="utf-8")
        assert main(["graph", "--graph-file", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integer_labels_are_read_as_text(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"n": 2, "edges": [[0, 1]], "labels": [7, "x"]}', encoding="utf-8")
        assert Graph.from_json(path.read_text(encoding="utf-8")).labels == ("7", "x")
        assert main(["graph", "--graph-file", str(path)]) == 0

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=graph_json)
    def test_any_json_exits_0_or_1_with_one_error_line(self, value, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        code = main(["graph", "--graph-file", str(path)])
        captured = capsys.readouterr()
        assert code in (0, 1)
        if code:
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


# Input files of the rejection property, written under the test's tmp_path:
# per kind, valid files whose sizes match some family below, and malformed
# files.  A path to a file that is never written is a missing file.
REJECTION_FILES = {
    "graph": ({
        "k3.json": '{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}',
        "c4.json": '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "labels": [1, 2, 3, 4]}',
        "two-edges.json": '{"n": 4, "edges": [[0, 1], [2, 3]]}',
    }, {
        "junk.json": "{not json",
        "bad-edge.json": '{"n": 3, "edges": [[0, 3], [1, 1]]}',
        "shape.json": '{"n": 0, "edges": []}',
    }),
    "matrix": ({
        "m3.csv": ",a,b,c\na,1/2,1/4,1/4\nb,1/4,1/2,1/4\nc,1/4,1/4,1/2\n",
        "m4.json": '{"entries": [["1/2", "1/2", "0", "0"], ["1/2", "1/2", "0", "0"],'
                   ' ["0", "0", "1/2", "1/2"], ["0", "0", "1/2", "1/2"]]}',
    }, {
        "uneven.csv": ",a,b\na,1/2,1/3\nb,1,0\n",
        "cell.csv": ",a,b\na,x,1\nb,1,0\n",
        "junk.json": '{"entries": 3}',
        "empty.csv": "",
    }),
    "prior": ({
        "p3.csv": "a,1/3\nb,1/3\nc,1/3\n",
        "p4.csv": "0,1/4\n1,1/4\n2,1/4\n3,1/4\n",
    }, {
        "sum.csv": "a,1/2\nb,1/3\nc,1/3\n",
        "junk.csv": "a,b,c\n",
    }),
}
FILE_OPTIONS = {"--graph-file": "graph", "--matrix": "matrix", "--matrix-a": "matrix",
                "--matrix-b": "matrix", "--prior": "prior"}
SMALL_INTS = ([str(k) for k in range(1, 51)], ["0", "-2", "x", "", "1.5"])
# Each option's (valid, invalid) values; families have at most 27 vertices.
OPTION_VALUES = {
    "--family": (["clique:3", "clique:6", "clique:27", "cycle:4", "cycle:6", "cycle:27",
                  "path:1", "path:3", "path:6", "petersen", "hamming:1,3", "hamming:2,2",
                  "hamming:3,3"],
                 ["clique:1", "cycle:2", "path:0", "path:x", "hamming:3", "hamming:2,1",
                  "petersen:3", "star:4", ""]),
    "--ratio": (["1/2", "1/3", "0.3", "1"], ["0", "2", "-1/2", "1/0", "x", "", "nan", "inf"]),
    "--epsilon": (["ln2", "0.7", "0"], ["-1", "800", "inf", "nan", "x", ""]),
    "--effort": SMALL_INTS,
    "--iters": SMALL_INTS,
    "--count": SMALL_INTS,
    "--seed": (["0", "1", "-3"], ["x"]),
    "--step": (["1/4", "1/2", "1/3", "1"], ["0", "-1/4", "2/3", "1/0", "x"]),
    "--tolerance": (["0", "1e-9", "0.5"], ["-1", "nan", "inf", "x"]),
    "--stage": (["diagonal", "symmetric"], ["x"]),
    "--method": (["grid", "hillclimb", "random"], ["x"]),
    "--format": (["text", "json", "csv"], ["x"]),
    "--size-cap": ([str(k) for k in range(1, 31)], ["0", "-1", "x"]),
}
JUNK = ["--bogus", "x", "-", "--ratio=1/2", "--format=json"]


def written_inputs(root):
    """Write ``REJECTION_FILES`` under ``root``; return ``OPTION_VALUES`` with
    the values of the file options and of ``--output`` added."""
    paths = {}
    for kind, pools in REJECTION_FILES.items():
        (root / kind).mkdir(exist_ok=True)
        for files in pools:
            for name, text in files.items():
                (root / kind / name).write_text(text, encoding="utf-8")
        paths[kind] = [[str(root / kind / name) for name in files] for files in pools]
        paths[kind][1].append(str(root / kind / "missing"))
    paths["matrix"][0].append("fixture:geometric")
    paths["matrix"][1].append("fixture:x")
    values = {option: paths[kind] for option, kind in FILE_OPTIONS.items()}
    values["--output"] = ["-", str(root / "out.txt")], [str(root / "no" / "out")]
    return {**OPTION_VALUES, **values}


@st.composite
def cli_argvs(draw, values):
    """An argv for ``main``: a subcommand, one option of each required group
    and each required option (usually), other options of that subcommand
    (sometimes), each with one of its ``values``, and now and then options
    without a value and junk.  Values are all valid in about half the argvs."""
    sub = TestOptionSurface.subparsers()[draw(st.sampled_from(sorted(SUBCOMMAND_OPTIONS)))]
    actions = [a for a in sub._actions if a.option_strings
               and not isinstance(a, argparse._HelpAction)]
    groups = [g._group_actions for g in sub._mutually_exclusive_groups if g.required]
    grouped = {id(a) for group in groups for a in group}
    picked = [draw(st.sampled_from(group)) for group in groups]
    picked += [a for a in actions if a.required]
    picked = [a for a in picked if draw(st.integers(0, 9))]          # usually kept
    picked += [a for a in actions if not a.required and id(a) not in grouped
               and not draw(st.integers(0, 3))]
    clean = draw(st.booleans())
    pairs = []
    for action in picked:
        valid, invalid = values[action.option_strings[0]]
        pairs.append([action.option_strings[0],
                      draw(st.sampled_from(valid if clean else valid + invalid))])
    if not draw(st.integers(0, 3)):
        pairs += [[a.option_strings[0]] for a in draw(st.lists(st.sampled_from(actions),
                                                              max_size=2))]
        pairs += [[junk] for junk in draw(st.lists(st.sampled_from(JUNK), max_size=1))]
    return [sub.prog.split()[-1]] + [x for pair in draw(st.permutations(pairs)) for x in pair]


class TestRejectionProperty:
    """Whatever argv a user types, ``main`` returns 0 or 1 or exits with a
    usage error (2); an input error prints nothing to stdout and one
    ``error:`` line to stderr, and no input reaches exit 3 or a traceback."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_argv_exits_0_1_or_2(self, data, tmp_path):
        argv = data.draw(cli_argvs(written_inputs(tmp_path)), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, (argv, exc.code)
                return
        assert code in (0, 1), (code, err.getvalue())
        if code == 1:
            assert out.getvalue() == ""
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1, message
            assert message.endswith("\n")
