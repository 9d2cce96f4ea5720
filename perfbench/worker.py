"""One workload process: set up, warm up, then a closed loop with one client.

Run by ``run.py``; not meant to be started by hand.  The worker prints
``READY`` on stdout once set-up (import, input generation, file writes and
one untimed warm-up request) is done, waits for a line on stdin, which
lets ``run.py`` probe the host's speed while nothing else runs, and prints
as its last line a JSON object with the measurements.  ``--mode setup``
stops after ``READY``.

Every request is a call of ``dpchannel.cli.main(argv)`` in this process.
Requests are timed around that call alone; reading, hashing and checking
the output happen outside the timed interval.  In ``--mode measure`` each
request's wall time is also reported host-speed adjusted (see
``hostspeed.py``), from probes run right before and right after it.  The
loop runs the workload's whole deck of passes until ``--seconds`` of
(adjusted) request time have elapsed and at least ``MIN_REQUESTS`` requests
were made.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from statistics import median, quantiles

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# op_p90_ms needs at least ten samples beyond it.
MIN_REQUESTS = 100


def import_cli():
    """Import ``dpchannel.cli`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    from dpchannel import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, "")):
        raise ImportError(f"dpchannel was imported from {cli.__file__}, not {SRC}")
    return cli


class Client:
    """Sends requests, times them, and checks every output."""

    def __init__(self, cli, check, workdir):
        self.main = cli.main
        self.check = check
        self.out_path = os.path.join(workdir, "out.json")
        self.known_good = {}        # rid -> sha256 of an output that passed the check
        self.attempted = 0
        self.failures = []
        self.bytes_out = 0
        self.tracer = None
        self.probe = None           # hostspeed.probe_median while measuring
        self.raw = []               # unadjusted wall times while measuring

    def send(self, req):
        """Run one request; return its wall time in seconds, host-speed
        adjusted when ``self.probe`` is set."""
        argv = req.argv + ["--format", "json", "--output", self.out_path]
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        tracer = self.tracer
        if tracer is not None:
            idx = tracer.open_request(req.rid)
        if self.probe is not None:
            before = self.probe()
        start = time.perf_counter()
        try:
            rc = self.main(argv)
        except SystemExit as exc:          # argparse rejects an argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:           # main lets nothing escape today; count it if it does
            rc = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if self.probe is not None:
            self.raw.append(elapsed)
            elapsed = hostspeed.adjust(elapsed, before, self.probe())
        if tracer is not None:
            tracer.close(idx)
        self.attempted += 1
        self._verify(req, rc)
        # Start the next request from a collected heap, whatever the checker
        # or this request left behind, as a fresh CLI process would.
        gc.collect()
        return elapsed

    def _verify(self, req, rc):
        if rc != 0:
            self.failures.append(f"{req.rid}: exit {rc}")
            return
        try:
            with open(self.out_path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            self.failures.append(f"{req.rid}: exit 0 but no output ({exc})")
            return
        self.bytes_out += len(data)
        digest = hashlib.sha256(data).hexdigest()
        if self.known_good.get(req.rid) == digest:
            return
        errors = self.check(req.command, json.loads(data), req.expect)
        if errors:
            self.failures.append(f"{req.rid}: " + "; ".join(errors))
        else:
            self.known_good.setdefault(req.rid, digest)

    def run_passes(self, passes, seconds):
        """Run the whole deck of passes, again and again, until ``seconds`` of
        request time passed and at least MIN_REQUESTS requests were made;
        return each pass's latencies.  Whole decks keep the mix of request
        classes, and so the percentiles, the same however many run."""
        runs = []
        while sum(map(sum, runs)) < seconds or sum(map(len, runs)) < MIN_REQUESTS:
            runs += [self.run_pass(requests) for requests in passes]
        return runs

    def run_pass(self, requests):
        return [self.send(req) for req in requests]

    def run_traced(self, passes, seconds, tracer):
        """Alternate untraced and traced runs of each pass until every pass
        ran and ``seconds`` have elapsed; return both totals and the number
        of traced passes."""
        untraced = traced = 0.0
        done = 0
        while done < len(passes) or untraced + traced < seconds:
            requests = passes[done % len(passes)]
            untraced += sum(self.run_pass(requests))
            tracer.install()
            self.tracer = tracer
            try:
                traced += sum(self.run_pass(requests))
            finally:
                tracer.uninstall()
                self.tracer = None
            done += 1
        return untraced, traced, done


def latency_metrics(latencies):
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": median(latencies) * 1000,
        "op_p90_ms": quantiles(latencies, n=10)[8] * 1000,
    }


def output_digest(passes, known_good):
    h = hashlib.sha256()
    for rid in sorted({req.rid for p in passes for req in p}):
        h.update(f"{rid}\0{known_good.get(rid, '-')}\n".encode())
    return h.hexdigest()


def input_digest(wl, workdir):
    h = hashlib.sha256()
    for name in sorted(wl.files):
        h.update(f"{name}\0{wl.files[name]}\n".encode())
    for p in wl.passes + [[wl.warmup]]:
        for req in p:
            argv = [a.replace(workdir, "") for a in req.argv]
            h.update(("\0".join(argv) + "\n").encode())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    cli = import_cli()
    sys.path.insert(0, HERE)
    import check
    import workloads

    wl = workloads.build(args.workload, args.seed, args.workdir)
    client = Client(cli, check.check, args.workdir)
    client.send(wl.warmup)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0            # the measuring worker reports the warm-up's failures too
    sys.stdin.readline()

    result = {"input_digest": input_digest(wl, args.workdir)}
    if args.mode == "measure":
        client.probe = hostspeed.probe_median
        runs = client.run_passes(wl.passes, args.seconds)
        done = len(runs)
        latencies = [t for run in runs for t in run]
        result["samples"] = len(latencies)
        result["metrics"] = latency_metrics(latencies)
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["unadjusted"] = latency_metrics(client.raw)
    else:
        import spans
        tracer = spans.Tracer()
        client.bytes_out = 0
        untraced, traced, done = client.run_traced(wl.passes, args.seconds, tracer)
        # bytes_out counted both runs of each pass; the traced half is the same.
        metrics = spans.layer_metrics(tracer.spans, done, client.bytes_out / 2, traced / untraced - 1)
        layer_sum = sum(metrics[name] for name in spans.SELF_TIME_METRICS)
        if layer_sum > metrics["trace.wall_s"] * (1 + 1e-9):
            raise RuntimeError(f"layer self times {layer_sum} exceed the traced wall time")
        result["metrics"] = metrics
        path = os.path.join(os.path.dirname(args.workdir), f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write_jsonl(path)
        result["trace_file"] = os.path.relpath(path, ROOT)
    result.update({
        "passes": done,
        "output_digest": output_digest(wl.passes, client.known_good),
        "attempted": client.attempted,
        "failures": client.failures,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
