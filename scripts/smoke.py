#!/usr/bin/env python3
"""Stdlib-only smoke check: run the demos, pin seven synth reports, one
analyze and one transform report, four oracle reports and two graph reports,
and certify one relabelled Hamming graph.

    python scripts/smoke.py

It needs nothing beyond the standard library, so it runs on every supported
Python (3.10 and later), including those without pytest or Hypothesis.  It
runs each script in ``demos/``, ``dpchannel synth --ratio 1/2 --format
json`` on ``--family petersen`` (whose cover-search family is explicit, so
the kernel is read from the distance matrix, spelt row by row and audited
by a full scan) and on ``--family hamming:3,3`` (whose kernel, and its row
0 as spelt, are carried along its coordinate translations), the text
report (the kernel as CSV) of the same hamming:3,3 synth, ``dpchannel
synth --family cycle:31 --ratio 2/3 --format json`` (a kernel carried by
the powers of one rotation), ``dpchannel analyze --ratio 1/2 --format json`` on
hamming:3,3 with that kernel's ``matrix`` read back from a file (a matrix
read from a file is checked for invariance before the vertex-0 audit),
``dpchannel transform --format json`` on hamming:3,3 with the same file
(its symmetric form is not carried, so its matrix block is spelt row by
row), ``dpchannel oracle --format json`` with ``--method grid`` on clique:3 and
with a seeded ``--method hillclimb`` on path:5 (whose uniform start climbs,
so the report depends on every draw the hillclimb makes from its seed) and
a seeded ``--method random`` on petersen at 2/3 and on cycle:9 at a 54-bit
ratio (the sampled channels, each blended toward the uniform channel by its
exact contraction weight),
``dpchannel graph --family petersen`` as JSON (its flat lists spelt by
``json``) and as text (read off the same payload), and ``dpchannel graph
--graph-file`` and ``dpchannel synth --graph-file --ratio 1/2 --format
json`` on the 3x3x3 Hamming graph under a fixed vertex permutation (the
synth report embeds the graph as read from the file, so its pin covers the
graph constructor and the edge list written back from the adjacency),
and the text reports of ``dpchannel synth --graph-file --ratio 1/2`` on a
4-cycle whose vertex labels hold a comma, a double quote and a newline,
and on one whose labels hold carriage returns (labels in the CSV table
are quoted by ``csv``, which each Python version must do alike; the
second pin was taken on 3.13, whose ``csv`` quotes a carriage return of
its own accord), against the library in ``src/``.  It checks that each
exits 0, that each synth, analyze, transform, oracle and petersen graph
report has its pinned sha256 and that the relabelled graph's report says
``VT+: yes (coordinate translations)``, and exits 1 after listing every
failure.
"""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
HAMMING_33_JSON = ("--family", "hamming:3,3", "--ratio", "1/2", "--format", "json")
SYNTH_SHA256 = {
    ("--family", "petersen", "--ratio", "1/2", "--format", "json"):
        "968c9a60297e2bbdb344bddb640f3347c2f6a8120172b3719ac5c2e9b0876890",
    HAMMING_33_JSON: "d6a4bfc085e782ee01d6fe8a3f4d4ef332787faace62e8d58041ebaff2f4cd5c",
    ("--family", "cycle:31", "--ratio", "2/3", "--format", "json"):
        "8082492b5e3d81f240849a08e5138eec2235635a67cbfc2dafd50983ca8af405",
    ("--family", "hamming:3,3", "--ratio", "1/2"):
        "91b563c1749073021016bf7ba7ddcff388bb215b6ffe906d1afb7b61b0237d01",
}
GRAPH_FILE_SYNTH_SHA256 = "f354814cad5cbf9de43ccfad16e7ee36d3ac799ec2a5a8e019162e109cb5e22d"
# 4-cycle files by name: vertex labels that ``csv`` must quote, and the
# sha256 of the text synth report.
LABELLED_CYCLES = {
    "labelled-c4.json": (["a,b", 'say "hi"', "two\nlines", "plain"],
                         "ba2ee561903f913e9fa3c04d714d6d00cc18a23c4b35628bf3fb9e61c80c42f4"),
    "cr-labelled-c4.json": (["cr\rx", "crlf\r\ny", "plain", "end\r"],
                            "6b2d0b6af562cebafe0f148ccbc500416550c242471e3b02a0ad047d6fa782be"),
}
ANALYZE_SHA256 = "79cda1efeae85387449be47b2a1da71839944e36ad7445f74d3a8a8ca02114a1"
ORACLE_SHA256 = {
    ("--family", "clique:3", "--ratio", "1/2", "--method", "grid"):
        "7cceb908fd81ea5f2c07a9741a795e181e6b6a63cb45b53f642e573df9048a13",
    ("--family", "path:5", "--ratio", "1/2", "--method", "hillclimb", "--seed", "3"):
        "9a0a426d01e7bdec909bc7239a06fb064c99cf8ba740c67e796307e76c2ca608",
    ("--family", "petersen", "--ratio", "2/3", "--method", "random", "--seed", "5"):
        "0cf4ad6089c86e3123c41820976f84ae5d0580a7fef424c02806dfba57822780",
    # a literal 54-bit ratio, e^-0.7 as a double, so the pin does not hang on --epsilon
    ("--family", "cycle:9", "--ratio", "4472842778225313/9007199254740992", "--method",
     "random", "--count", "5", "--seed", "2"):
        "3a51bfaef243b925d58ded0fa0fcc40ed79b76a24969c9f6fa6be5c0c4faad15",
}
TRANSFORM_SHA256 = "f8dcd97fe67be579517ff4b3851dfb648375cad4b045436b423e08bbc04d316d"
GRAPH_SHA256 = {
    ("--format", "json"): "86fefc343a207001185a3bf716ba404d6a270d944fa8935a2a1dcca81377d929",
    ("--format", "text"): "2d05b764cc6799acf8ae18c82d5f8c0df9f8d8510c09ecb0a1267829dbaea7f7",
}
VT_LINE = "VT+: yes (coordinate translations)"


def relabelled_hamming_3_3():
    """Graph JSON of the 3x3x3 Hamming graph with vertex t sent to 10t mod 27."""
    tuples = list(itertools.product(range(3), repeat=3))
    edges = [[10 * i % 27, 10 * j % 27] for (i, s), (j, t) in itertools.combinations(
        enumerate(tuples), 2) if sum(a != b for a, b in zip(s, t)) == 1]
    return json.dumps({"n": 27, "edges": edges})


def labelled_cycle_4(labels):
    """Graph JSON of the 4-cycle with these vertex labels."""
    return json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "labels": labels})


def run(args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, *args], env=env, cwd=REPO,
                          capture_output=True, timeout=300)


def check_digest(failures, argv, result, expected):
    """Record a failure unless ``dpchannel argv`` exited 0 with sha256 ``expected``."""
    digest = hashlib.sha256(result.stdout).hexdigest()
    if result.returncode != 0 or digest != expected:
        failures.append(f"dpchannel {' '.join(argv)}: exit {result.returncode},"
                        f" sha256 {digest}, expected {expected}")


def main():
    failures = []
    for script in sorted((REPO / "demos").glob("*.py")):
        result = run([str(script)])
        if result.returncode != 0:
            failures.append(f"{script.name}: exit {result.returncode}\n"
                            f"{result.stderr.decode(errors='replace')}")
    reports = {}
    for options, expected in SYNTH_SHA256.items():
        argv = ["synth", *options]
        result = run(["-m", "dpchannel.cli", *argv])
        reports[options] = result.stdout
        check_digest(failures, argv, result, expected)
    for options, expected in ORACLE_SHA256.items():
        argv = ["oracle", *options, "--format", "json"]
        check_digest(failures, argv, run(["-m", "dpchannel.cli", *argv]), expected)
    for options, expected in GRAPH_SHA256.items():
        argv = ["graph", "--family", "petersen", *options]
        check_digest(failures, argv, run(["-m", "dpchannel.cli", *argv]), expected)
    with tempfile.TemporaryDirectory() as tmp:
        matrix = pathlib.Path(tmp) / "hamming33-kernel.json"
        try:
            matrix.write_text(json.dumps(json.loads(reports[HAMMING_33_JSON])["matrix"]),
                              encoding="utf-8")
        except ValueError:
            pass                            # the synth failure above is reported
        argv = ["analyze", "--family", "hamming:3,3", "--matrix", str(matrix),
                "--ratio", "1/2", "--format", "json"]
        check_digest(failures, argv, run(["-m", "dpchannel.cli", *argv]), ANALYZE_SHA256)
        argv = ["transform", "--family", "hamming:3,3", "--matrix", str(matrix),
                "--format", "json"]
        check_digest(failures, argv, run(["-m", "dpchannel.cli", *argv]), TRANSFORM_SHA256)
        path = pathlib.Path(tmp) / "hamming33.json"
        path.write_text(relabelled_hamming_3_3(), encoding="utf-8")
        argv = ["synth", "--graph-file", str(path), "--ratio", "1/2", "--format", "json"]
        check_digest(failures, argv, run(["-m", "dpchannel.cli", *argv]),
                     GRAPH_FILE_SYNTH_SHA256)
        for name, (labels, expected) in LABELLED_CYCLES.items():
            cycle = pathlib.Path(tmp) / name
            cycle.write_text(labelled_cycle_4(labels), encoding="utf-8")
            argv = ["synth", "--graph-file", str(cycle), "--ratio", "1/2"]
            check_digest(failures, argv, run(["-m", "dpchannel.cli", *argv]), expected)
        result = run(["-m", "dpchannel.cli", "graph", "--graph-file", str(path)])
    if result.returncode != 0 or VT_LINE not in result.stdout.decode().splitlines():
        failures.append(f"dpchannel graph --graph-file (relabelled hamming:3,3):"
                        f" exit {result.returncode}, no line {VT_LINE!r}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{sys.version.split()[0]}: {'ok' if not failures else f'{len(failures)} failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
