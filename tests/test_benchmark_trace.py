"""The benchmark's tracer still finds, wraps and restores every function it times.

``perfbench/spans.py`` names library functions by module and attribute; a
renamed or deleted one, or a binding the wrappers miss, raises
``TraceCoverageError`` from ``install``.  Running it here makes that a test
failure instead of a failure of the traced benchmark run only.
"""

from pathlib import Path

from dpchannel import graphs, oracle
from dpchannel.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_listed_function_is_wrapped_and_restored(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = (graphs.verify_family, oracle.random_dp_sample)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert main(["graph", "--family", "hamming:2,3"]) == 0
        assert main(["oracle", "--family", "petersen", "--ratio", "1/2", "--method", "random",
                     "--count", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [span[0] for span in tracer.spans]
    assert names.count("graphs.verify_family") == 1
    assert names.count("oracle.random_dp_sample") == 3    # two items and the final step
    assert (graphs.verify_family, oracle.random_dp_sample) == originals
