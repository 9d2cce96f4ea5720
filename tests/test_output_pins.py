"""sha256 pins of ``graph`` and ``synth`` output.

The digests were captured while classification still examined every vertex
pair and certificates still listed all n permutations; working from one
base vertex and from generators must not change a byte of output.  The
graph files are the benchmark's own: the audit-files graphs and the first
pass of relabelled search-small graphs at seed 7, written by
``perfbench/workloads.py``.  Their bytes are pinned as well, so a change to
the generator shows as an input mismatch rather than an output one.  The
synth digests were captured while every audit scanned all edges and JSON
went through ``json.dumps(..., indent=2)``; the one at the size cap is
taken as the report streams, without holding its 321 MB.  The audit-files
deck at seed 7 (``analyze``, ``transform`` and ``compare`` on the
benchmark's matrix and prior files) was pinned while every cell was still
read as one ``Fraction``.  The ``graph`` digests of ``clique:N``,
``path:2`` and the Hamming and clique files were taken again when products
of cliques came to be certified from their structure: they differ from
the old ones only in the VT+ verdict and method.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from dpchannel.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# family spec: (text digest, JSON digest)
GRAPH_FAMILY_SHA256 = {
    "clique:2": ("904862693ee3bcbde8f46f9c731b23dca89cd0614938554f82b7d90179b22113",
                 "6130acf8c032cf70ac7ae9a683c6e616e8627b3b51a9a14c6d894057bb7566a5"),
    "clique:5": ("36a808c5970565db791edbf2a44aeca384b6c340e41858f68c2e3cfcaba6d593",
                 "51dfdee9ad587bdeaaae408642df1d00e999072a521c6f793f8f60c82fec0826"),
    "clique:40": ("1d70e4ef77b917d5160c0e8695c2b0f9ed832f1a80fb8fa78679068812a33c45",
                  "849cf4e318581bb472e38ef5ead96b1d1b257564b76735457996c82cf8eeac2e"),
    "cycle:3": ("286aeadfad255661433b0893f08ab3185b5ce00b936708215499da334d5fb030",
                "c021823b767f800c37f7cea3d4661d767ee953a6bde661e11bd198c270253eff"),
    "cycle:6": ("3e99d88b4273d28a3e7dcd09fc091b1241653bcf7772fc5eab1ced1caac50d2d",
                "e79a5250733fb06d802220eef058fa0c205cdbf0d6e6bf4c5a731390e88492bd"),
    "cycle:7": ("d033138741145b37103bd68eae5bd279e0a6a6f2a4201892f3e4cb40e86e50b8",
                "54bf591eb6f61d149ee0993c94e74bc6a538c9e5d7beb218482fb4d37c464008"),
    "cycle:31": ("d51e1a3c0c4970296563968e68918913e23b509d2b167a61fecf7ecb35ec1289",
                 "695222a1167f6d7bdb2f8c7b9f23e7b1a2b314133bc3711d1584fb7fdbdf83ec"),
    "path:1": ("e7660171f8bc3847977a415238c016d5739f1941be3dc0f34bbbbbb1713648a6",
               "b1bac8e46cc04f330ca6b3e46eb1da67ba90f5b5a7d8c65e135dc42c36ebeaf3"),
    "path:2": ("904862693ee3bcbde8f46f9c731b23dca89cd0614938554f82b7d90179b22113",
               "6130acf8c032cf70ac7ae9a683c6e616e8627b3b51a9a14c6d894057bb7566a5"),
    "path:4": ("eb38ab4b0aa69660a4c6d8a43a6efd545f068091328030815adf1bbfa1fde80f",
               "422bd765b1d408ff4290fdb4e4d185162fc8aa09f37ba7a4195996a5c2bc87af"),
    "petersen": ("2d05b764cc6799acf8ae18c82d5f8c0df9f8d8510c09ecb0a1267829dbaea7f7",
                 "86fefc343a207001185a3bf716ba404d6a270d944fa8935a2a1dcca81377d929"),
    "hamming:1,2": ("904862693ee3bcbde8f46f9c731b23dca89cd0614938554f82b7d90179b22113",
                    "6130acf8c032cf70ac7ae9a683c6e616e8627b3b51a9a14c6d894057bb7566a5"),
    "hamming:1,5": ("36a808c5970565db791edbf2a44aeca384b6c340e41858f68c2e3cfcaba6d593",
                    "51dfdee9ad587bdeaaae408642df1d00e999072a521c6f793f8f60c82fec0826"),
    "hamming:2,2": ("df2de53e0e04016263ab6585066116387a511c5e82c2cb3e594bab887bacf2dd",
                    "b560b906a339e767e03ee252aeeb3dec57f8d280d85d691c956da5d08c003aae"),
    "hamming:2,3": ("285e09fc98f321905a9d32ac94613703131a1d884b2d7a0a3534badad28465be",
                    "52040eb61a35567499a66ec4d63a3a1d824fdf50a1ab21b76f14588baf428408"),
    "hamming:2,4": ("2df6fd4f17452dee99b392726ec724aeb0ded6b2874b7ed9e59aa62bf231289d",
                    "13a1edb9a94a4d6f1453bee74d034db0ac708db0df691cc6085488617c00522b"),
    "hamming:3,2": ("4ec35c5bdfd2da8b12d465a7904baef5a363e498a33e6dd813aecd7b0b2bea8e",
                    "241509c74cbc199615c1978ab656606743707f019d7ab9420c2ec2a6ca734f1f"),
    "hamming:3,4": ("9c92475c91df58d659eb11d0cc39efc832b79e0acc6ecf83f9231f33111bbb3c",
                    "9e5776ba2192e8f34b9cb4dbfb6766d6df401e396b7881566a1531fe1beede8c"),
    "hamming:3,5": ("d7194d24f30510f17a194cf2d1929f06340347a7b1853618d572a8a68d9470ff",
                    "aecb4e04d3239034aa53a15994d9e8c7171770f63e685949a6aaf0c692373eab"),
    "hamming:4,3": ("8ac41f5ce31553bc80bc75a0dfa9049dcd1b4bc14063d3f8dd9861bac8596a9c",
                    "9b93f1d27e2788f09aa018711d55e08ff212ef1b53b9d544b342d3d9d5e9fc2b"),
    "hamming:4,4": ("10c3f3fc15d650f131098914182d230dedbb52dc022b17a2f42a33d9f95b7a7b",
                    "1eb211ba1f687b233d53fb0f895bf98936f8cf68c529dc3a18f81c62b60cbaec"),
    "hamming:5,3": ("f7e226b20e2515c4f59cee21c80664109cb95da155466b05e093a23f625639c9",
                    "054ede999118d56fd87d94ba5e69696d6bd5710749f9c5c5aabfadb24f2afbd7"),
    "hamming:6,2": ("fe460ae9bc139a4a6ad5f312ee25a0a42fcb42b74c68285b56d28f342e53ca19",
                    "ff7f08e26eee5bea14665bc4da94d208bf403d55cd4ae9f43c4553c04d30355d"),
    "hamming:5,4": ("0445a5e6c657405960c878d576e15cc18ad8818e580ee05229c2a6b070863764",
                    "971241e432ea87ea2b15813f78db516ba4129fbe796f90ae0fba2f85ab1237c0"),
    "hamming:6,4": ("ca13571c090bddb73bd71f5b264c18f756c1e0442240d8cf35cf1791b1361a7a",
                    "fa6a19663db8178546f0352651b542000efaeb209625f2ea10bdc4b015fb65d2"),
}

# graph file: (input digest, text digest, JSON digest)
GRAPH_FILE_SHA256 = {
    "petersen.json": ("34301e37d2a375706b68fe4e6afbc54699c49e859495ee7ca9325e303c61fb7f",
                    "2d05b764cc6799acf8ae18c82d5f8c0df9f8d8510c09ecb0a1267829dbaea7f7",
                    "86fefc343a207001185a3bf716ba404d6a270d944fa8935a2a1dcca81377d929"),
    "cycle12.json": ("3adb99a632b72729cdf17183f7b76ae863b85bf73f449d46784720e9e4679a5a",
                   "fa851a34036c0ca185f1b5e09fab3791bcd147368ade149b106264a03707b82a",
                   "bdce8c009cbe10d1eeafabb1ee660d2603728db282e86638707a4b71b82e1a97"),
    "clique8.json": ("545ead035487c2aa92d16b24186126d50e182903957e99d03d474aa050952189",
                   "6dea805589d4ebfd1669a060d5a0647378e56158caa51bf5d1f23c0eae4297be",
                   "c4891f7e8864edf426184f73759d491e054895a332a07db109fd47fa78a724d8"),
    "hamming33.json": ("2233d508f78924d15c659a2702045f629c2e7523c019b686d5fa21fb5179747e",
                     "c22fb02e1f15c02ae61ff7385ca7a2ffb4cf5eab991d763b0498e39e5f650a36",
                     "880274b76443b4014ce90bde30377df7f4b530eceb5c3aafe95e6d53501b6acc"),
    "hamming43.json": ("6e0fc25d9a70e6c1ba4fc5e6c68c4925d2fd46a90842e37893787e9282530ed6",
                     "8ac41f5ce31553bc80bc75a0dfa9049dcd1b4bc14063d3f8dd9861bac8596a9c",
                     "9b93f1d27e2788f09aa018711d55e08ff212ef1b53b9d544b342d3d9d5e9fc2b"),
    "circulant12.json": ("48dd2be692e4fd740d331aedcf8bc1127fe83338e3b45480c1c8ad8ce319d842",
                       "bf56b686c794123127af96ff6d7be7cef4dedd6e659d6d01426104daf8731520",
                       "a15477bb38d69f58db063567a6a5bce09831167988ee99c05656bf27906915dd"),
    "path9.json": ("b64ad8721876f6e4c2544fadb933fe1286971e6a959fe389a26832c17216a052",
                 "23330d9601cb49bcf0b81c2090f5ee3cb9c2f10279269fceb9cd956297440053",
                 "3464c8b38b2cf63dace7b1cf907920ddae65a9e6aa69c49c78f4d506952e79dc"),
    "hamming24-0-0.json": ("6a09a179d55ddab0f9dce0e83a7b2d6e58548df1d5c328b0a84261586a34f210",
                         "2df6fd4f17452dee99b392726ec724aeb0ded6b2874b7ed9e59aa62bf231289d",
                         "13a1edb9a94a4d6f1453bee74d034db0ac708db0df691cc6085488617c00522b"),
    "hamming33-0-0.json": ("2405308e67ea998f8b911a697be965d7b38b10f765acf3810c9f2532321932c6",
                         "c22fb02e1f15c02ae61ff7385ca7a2ffb4cf5eab991d763b0498e39e5f650a36",
                         "880274b76443b4014ce90bde30377df7f4b530eceb5c3aafe95e6d53501b6acc"),
    "hamming33-0-1.json": ("44c3f1702f7c77828454f04b0a4aef6437b5460fdbda5e51b7e24c294bc78978",
                         "c22fb02e1f15c02ae61ff7385ca7a2ffb4cf5eab991d763b0498e39e5f650a36",
                         "880274b76443b4014ce90bde30377df7f4b530eceb5c3aafe95e6d53501b6acc"),
    "hamming33-0-2.json": ("09fb5f94ca45d56d1f821583dae2dc0ea789918163c0d70d752572e2007b9c47",
                         "c22fb02e1f15c02ae61ff7385ca7a2ffb4cf5eab991d763b0498e39e5f650a36",
                         "880274b76443b4014ce90bde30377df7f4b530eceb5c3aafe95e6d53501b6acc"),
    "hamming33-0-3.json": ("a11e1791c3f1c56228a21dec97e627420fce3c677abb0265276e4e291da88ef4",
                         "c22fb02e1f15c02ae61ff7385ca7a2ffb4cf5eab991d763b0498e39e5f650a36",
                         "880274b76443b4014ce90bde30377df7f4b530eceb5c3aafe95e6d53501b6acc"),
    "hamming42-0-0.json": ("a5beef0b00c1e9881e643cea791f5df576c9fa8af2ea8d9767e7392dc3482ba9",
                         "693f761a7fc98446490520018d88cfe6153c2d2100e737bb399a7da0d17857cb",
                         "68f17ca720a2af1582cb23a4ab6d86a3480ee71e72afe4c0090816e01430e78f"),
    "petersen-0-0.json": ("5e628d7ac7870647ae0566bd7ab8f2a0d8a8fba69392b91a0e72525a9378826a",
                        "2d05b764cc6799acf8ae18c82d5f8c0df9f8d8510c09ecb0a1267829dbaea7f7",
                        "86fefc343a207001185a3bf716ba404d6a270d944fa8935a2a1dcca81377d929"),
}

SYNTH_JSON_SHA256 = {
    "hamming:3,5": "cd7250d9a188605ae73aaf14865933e81d13e7510a72a17d9de99d1d926fea4f",
    "hamming:4,4": "377b12c7db27f161da1c5651ef1dcede4475b1d99c4c68827f934b0423c240bb",
}
SYNTH_CAP_JSON_SHA256 = "adcfd703404198334defc85aae16dff8971b5b15009ca98c71f438fa9eb24a32"


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv, capsys):
    assert main(argv) == 0
    return _digest(capsys.readouterr().out)


def _workloads():
    """The benchmark's own workload generator."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.fixture(scope="module")
def benchmark_graph_files(tmp_path_factory):
    """The benchmark's graph files, written by its own workload generator."""
    workloads = _workloads()
    workdir = tmp_path_factory.mktemp("bench")
    paths = {}
    for name, graph, *_ in workloads.AUDIT_GRAPHS:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"n": graph[0], "edges": [list(e) for e in graph[1]]}),
                        encoding="utf-8")
        paths[path.name] = path
    workloads.build("search-small", 7, str(workdir))
    for path in (workdir / "inputs").glob("*-0-*.json"):
        paths[path.name] = path
    return paths


@pytest.mark.parametrize("spec", list(GRAPH_FAMILY_SHA256))
def test_graph_family_output_is_unchanged(spec, capsys):
    text, as_json = GRAPH_FAMILY_SHA256[spec]
    assert _run(["graph", "--family", spec], capsys) == text
    assert _run(["graph", "--family", spec, "--format", "json"], capsys) == as_json


@pytest.mark.parametrize("name", list(GRAPH_FILE_SHA256))
def test_benchmark_graph_file_output_is_unchanged(name, benchmark_graph_files, capsys):
    source, text, as_json = GRAPH_FILE_SHA256[name]
    path = benchmark_graph_files[name]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == source
    assert _run(["graph", "--graph-file", str(path)], capsys) == text
    assert _run(["graph", "--graph-file", str(path), "--format", "json"], capsys) == as_json


def test_every_benchmark_graph_file_is_pinned(benchmark_graph_files):
    assert sorted(benchmark_graph_files) == sorted(GRAPH_FILE_SHA256)


@pytest.mark.parametrize("spec", list(SYNTH_JSON_SHA256))
def test_synth_json_is_unchanged(spec, capsys):
    argv = ["synth", "--family", spec, "--ratio", "1/2", "--format", "json"]
    assert _run(argv, capsys) == SYNTH_JSON_SHA256[spec]


# Text reports (the kernel as CSV) at r = 2/3, taken while every row of a
# carried kernel was still spelt on its own; Petersen's kernel is not carried.
SYNTH_TEXT_SHA256 = {
    "hamming:3,4": "b5aede023c236e436f89769f743087874aac86d24635de5b83143718c429a926",
    "clique:40": "4ea3f357dff2990a8b587fda00904c1195d21aae032014ba5b9bc7329be1ec08",
    "cycle:31": "3500774c747fcef4e0c8e411dbebd9bbb24e6308cba3a6004342fd1bb5042efe",
    "petersen": "32db44abd3cb1f3f05ec72a1adf6525569a2fceef9d559ffbacbe0ccfae0689b",
}


@pytest.mark.parametrize("spec", list(SYNTH_TEXT_SHA256))
def test_synth_text_is_unchanged(spec, capsys):
    argv = ["synth", "--family", spec, "--ratio", "2/3", "--format", "text"]
    assert _run(argv, capsys) == SYNTH_TEXT_SHA256[spec]


# Taken before synthesis carried the kernel along the certified family:
# path:1 has no family, path:2 and clique:2 are recognised as K_2.
SMALL_SYNTH_JSON_SHA256 = {
    "path:1": "7aec14bf6de8e2016d861bb5bc861bbfb23c001d037ae47c2d45774c8fc0aa0f",
    "path:2": "8628980e31ecac9b795a38a70e53e113bb392d5149b3808b4ee0cb8ffb7810e7",
    "clique:2": "8628980e31ecac9b795a38a70e53e113bb392d5149b3808b4ee0cb8ffb7810e7",
}


@pytest.mark.parametrize("spec", list(SMALL_SYNTH_JSON_SHA256))
def test_small_synth_json_is_unchanged(spec, capsys):
    argv = ["synth", "--family", spec, "--ratio", "1/2", "--format", "json"]
    assert _run(argv, capsys) == SMALL_SYNTH_JSON_SHA256[spec]


class HashingSink:
    """A stdout that feeds each write into sha256 and keeps nothing else."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass


def test_synth_json_at_the_size_cap_is_unchanged(monkeypatch):
    # n = 4096: a 321 MB report, digested as it is written
    sink = HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["synth", "--family", "hamming:6,4", "--ratio", "1/2", "--format", "json"]) == 0
    assert sink.sha256.hexdigest() == SYNTH_CAP_JSON_SHA256


# The audit-files deck at seed 7: the digest of its input files, and per
# command the digest of every request's JSON output in request-id order.
AUDIT_DECK_SHA256 = {
    "inputs": "0baed80c714a6bd973dd408c0ef6f92ba16de7e7b09d9dee5a50dd379159916c",
    "analyze": "eb607fdf05b9a9df4f6d117e400351b0bea2a3d264c0af4060a73a938566160f",
    "transform": "978a809307924380369f59e497703387e0302139c684a10d2ab363f19d900f33",
    "compare": "dc04c79462e8f03d4c460efe3021757f36c60b4e8c7cda713dd8f9751fab1066",
}


def audit_deck_digests(workdir):
    """Run every request of the seed-7 audit-files deck with ``--format json``."""
    deck = _workloads().build("audit-files", 7, str(workdir))
    digests = {name: hashlib.sha256() for name in AUDIT_DECK_SHA256}
    for name in sorted(deck.files):
        digests["inputs"].update(f"{name}\0{deck.files[name]}\n".encode())
    for req in sorted((req for p in deck.passes for req in p), key=lambda req: req.rid):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(req.argv + ["--format", "json"]) == 0, req.rid
        digests[req.command].update(f"{req.rid}\0{_digest(out.getvalue())}\n".encode())
    return {name: h.hexdigest() for name, h in digests.items()}


def test_audit_deck_json_is_unchanged(tmp_path):
    assert audit_deck_digests(tmp_path) == AUDIT_DECK_SHA256
