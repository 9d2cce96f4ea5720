#!/usr/bin/env python3
"""Stdlib-only smoke check: run the demos and pin one synth report.

    python scripts/smoke.py

It needs nothing beyond the standard library, so it runs on every supported
Python (3.10 and later), including those without pytest or Hypothesis.  It
runs each script in ``demos/`` and ``dpchannel synth --family petersen
--ratio 1/2 --format json`` against the library in ``src/``, checks that
each exits 0 and that the synth report has the pinned sha256, and exits 1
after listing every failure.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SYNTH_ARGV = ["synth", "--family", "petersen", "--ratio", "1/2", "--format", "json"]
SYNTH_SHA256 = "968c9a60297e2bbdb344bddb640f3347c2f6a8120172b3719ac5c2e9b0876890"


def run(args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, *args], env=env, cwd=REPO,
                          capture_output=True, timeout=300)


def main():
    failures = []
    for script in sorted((REPO / "demos").glob("*.py")):
        result = run([str(script)])
        if result.returncode != 0:
            failures.append(f"{script.name}: exit {result.returncode}\n"
                            f"{result.stderr.decode(errors='replace')}")
    result = run(["-m", "dpchannel.cli", *SYNTH_ARGV])
    digest = hashlib.sha256(result.stdout).hexdigest()
    if result.returncode != 0 or digest != SYNTH_SHA256:
        failures.append(f"dpchannel {' '.join(SYNTH_ARGV)}: exit {result.returncode},"
                        f" sha256 {digest}, expected {SYNTH_SHA256}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{sys.version.split()[0]}: {'ok' if not failures else f'{len(failures)} failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
