"""The dpchannel benchmark: one seeded command per workload run.

    python3 perfbench/run.py --workload synth-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list-metrics

Run from the root of a checkout.  Each run starts fresh worker processes
(see ``worker.py``) that import ``dpchannel`` from the checkout's ``src``.
With ``--trace 0`` it reports the end-to-end metrics: set-up time is the
median over ``SETUP_REPEATS`` workers, each timed from process start to
its first timed request; the rest come from the last of them, which goes
on to run the closed loop.  Every end-to-end time is host-speed adjusted
(see ``hostspeed.py``): set-up times by the median of the probes this
process runs just before it starts each worker and just after the worker
is set up, request times by probes the worker runs around each request.
The unadjusted figures are printed on the line before the result.  With
``--trace 1`` one worker runs each pass untraced and then traced, and
reports the per-layer metrics, unadjusted.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, each metric a ``{"value", "unit"}`` pair.
Work files go to ``.bench_work/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
DEADLINE_S = 170


def load_spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def list_metrics(spec):
    """Print every metric, its unit, the workloads reporting it and, for a
    per-layer metric, the end-to-end metric it should move."""
    with open(os.path.join(HERE, "rationale.json"), encoding="utf-8") as fh:
        moves = {name: text for names, text in json.load(fh)["per_layer"]["moves"].items()
                 for name in names.split(", ")}
    workloads = ",".join(w["name"] for w in spec["workloads"])
    for kind, flag in (("end_to_end", "--trace 0"), ("per_layer", "--trace 1")):
        for m in spec[kind]:
            line = f"{m['name']:32} {m['unit']:6} {flag}  {workloads}"
            if m["name"] in moves:
                line += f"  moves: {moves[m['name']]}"
            print(line)


class Worker:
    """A worker process, killed and reaped if it overruns the run's deadline."""

    def __init__(self, mode, args, workdir, deadline):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--workdir", workdir]
        env = {k: v for k, v in os.environ.items() if k != "DPCHANNEL_SIZE_CAP"}
        env["PYTHONHASHSEED"] = "0"
        self.mode = mode
        self.deadline = deadline
        self.probes = [hostspeed.probe_median()]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def wait_ready(self):
        """Seconds from process start to the end of set-up.  Once set up, a
        setup-mode worker has exited and any other waits for ``go()``, so
        the host-speed probe that follows runs alone."""
        line = self.proc.stdout.readline()
        wall = time.perf_counter() - self.start
        if line.strip() != "READY":
            self.finish()
            raise RuntimeError(f"worker set-up failed (exit {self.proc.returncode})")
        if self.mode == "setup":
            self.finish()
        self.probes.append(hostspeed.probe_median())
        return wall

    def go(self):
        """Let a set-up worker start its timed loop."""
        self.proc.stdin.write("GO\n")
        self.proc.stdin.flush()

    def finish(self):
        """Wait for the worker; return its last stdout line."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("worker overran the run's deadline") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out.strip().splitlines()[-1] if out.strip() else ""

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run(args, spec):
    deadline = time.perf_counter() + DEADLINE_S
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    started = []
    try:
        setups = []
        probes = []
        if args.trace:
            worker = Worker("trace", args, workdir, deadline)
            started.append(worker)
            worker.wait_ready()
        else:
            for mode in ["setup"] * (SETUP_REPEATS - 1) + ["measure"]:
                worker = Worker(mode, args, workdir, deadline)
                started.append(worker)
                setups.append(worker.wait_ready())
                probes += worker.probes
        worker.go()
        result = json.loads(worker.finish())
    finally:
        for w in started:
            w.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        # Set-up times are adjusted by the median of all probes around them:
        # one set-up is too short for the two probes beside it to track it.
        metrics["setup_s"] = median(setups) * hostspeed.REFERENCE_S / median(probes)
        unadjusted = dict(result["unadjusted"], setup_s=median(setups))
        print("unadjusted: " + " ".join(f"{k}={v:.6g}" for k, v in unadjusted.items()))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"missing {sorted(set(units) - set(metrics))}, "
                           f"undeclared {sorted(set(metrics) - set(units))}")

    failures = result["failures"]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    samples = f" timed_samples={result['samples']}" if "samples" in result else ""
    print(f"workload={args.workload} seed={args.seed} passes={result['passes']} "
          f"requests={result['attempted']}{samples} inputs_sha256={result['input_digest']} "
          f"outputs_sha256={result['output_digest']}")
    if "trace_file" in result:
        print(f"spans written to {result['trace_file']}")
    return {
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main():
    # Turn a termination request into an exception, so that run() stops its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list-metrics", action="store_true",
                    help="print every metric with its unit and workloads, and exit")
    args = ap.parse_args()
    spec = load_spec()
    if args.list_metrics:
        list_metrics(spec)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "dpchannel", "cli.py")):
        print("error: no dpchannel sources under src/ in this checkout", file=sys.stderr)
        return 2
    try:
        summary = run(args, spec)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
