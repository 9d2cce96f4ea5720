"""Spans around the public functions of each ``dpchannel`` layer.

The tracer replaces each listed function at every place a ``dpchannel.*``
module binds it (module attributes, re-exports, ``from`` imports and class
attributes), so calls made inside the library are caught too.  Spans stay
in memory as ``[name, start, end, parent, request, value]`` lists, where
``value`` is the span's work count (BFS passes, audited pairs, cells, ...),
and are written as JSONL at the end.
"""

import inspect
import json
import sys
import time
from statistics import median

# (home module, attribute, layer metric that collects its self time, work
# count taken from (args, result), or None).  A generator gets one span per
# item it yields, with a count of 1.
TARGETS = (
    ("graphs", "build_family", "graphs.build_s", None),
    ("graphs", "Graph.from_json", "graphs.build_s", None),
    ("graphs", "distances", "graphs.distances_s", lambda a, r: a[0].n),
    ("graphs", "distance_profile", "graphs.profile_s", lambda a, r: 1),
    ("graphs", "common_profile", "graphs.profile_s", None),
    ("graphs", "is_distance_regular", "graphs.is_distance_regular_s", None),
    ("graphs", "vt_plus_certificate", "graphs.certificate_s", lambda a, r: r.status == "unknown"),
    ("graphs", "single_orbit_automorphism", "graphs.automorphism_search_s", None),
    ("graphs", "automorphism_group", "graphs.automorphism_search_s", None),
    ("graphs", "verify_family", "graphs.verify_family_s", None),
    ("channels", "ChannelMatrix.__init__", "channels.matrix_build_s",
     lambda a, r: a[0].rows * a[0].cols),
    ("channels", "ChannelMatrix.from_csv", "channels.parse_s", None),
    ("channels", "ChannelMatrix.from_json", "channels.parse_s", None),
    ("channels", "prior_from_csv", "channels.parse_s", None),
    ("channels", "dp_audit", "channels.dp_audit_s", lambda a, r: len(a[1].edge_list) * a[0].cols),
    ("channels", "posterior_success", "channels.leakage_s", None),
    ("channels", "leakage", "channels.leakage_s", None),
    ("channels", "min_capacity", "channels.leakage_s", None),
    ("channels", "posterior_min_entropy", "channels.leakage_s", None),
    ("channels", "min_entropy", "channels.leakage_s", None),
    ("channels", "column_maxima_sum", "channels.leakage_s", None),
    ("channels", "ChannelMatrix.to_dict", "channels.serialize_s", None),
    ("channels", "ChannelMatrix.to_csv", "channels.serialize_s", None),
    ("channels", "ChannelMatrix.to_json", "channels.serialize_s", None),
    ("bounds", "utility_bound", "bounds.bound_s", None),
    ("bounds", "posterior_entropy_bound", "bounds.bound_s", None),
    ("mechanisms", "optimal_mechanism", "mechanisms.synthesis_s", None),
    ("mechanisms", "MechanismBundle.to_dict", "mechanisms.serialize_s", None),
    ("transforms", "to_diagonal_form", "transforms.diagonal_s", None),
    ("transforms", "symmetrize_distance_regular", "transforms.symmetrize_s", None),
    ("transforms", "symmetrize_vt_plus", "transforms.symmetrize_s", None),
    ("transforms", "canonicalize", "transforms.canonicalize_s", None),
    ("oracle", "hillclimb_utility", "oracle.hillclimb_s", lambda a, r: r.trials),
    ("oracle", "random_dp_sample", "oracle.random_sample_s", None),   # one span per sample
    ("oracle", "grid_search_optimal", "oracle.grid_s", lambda a, r: r.trials),
)
ROOT = "cli.main"
# Metrics that add up self times; together they cover the traced wall time.
SELF_TIME_METRICS = sorted({metric for _, _, metric, _ in TARGETS} | {"cli.self_s"})
SUBCOMMANDS = ("graph", "analyze", "transform", "synth", "compare", "oracle")


class TraceCoverageError(RuntimeError):
    """A listed function is missing, or some binding of it escaped the wrappers."""


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.request = None

    def open_request(self, rid):
        """Open the root span of one cli.main call."""
        self.request = rid
        return self.open(ROOT)

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, self.request, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx, value=0):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = value
        self._stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            value = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    value = count(args, result)
                return result
            finally:
                tracer.close(idx, value)

        def traced_generator(*args, **kwargs):
            # A generator does its work in next(); time each step instead.
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.close(idx)
                    return
                except BaseException:
                    tracer.close(idx)
                    raise
                tracer.close(idx, 1)
                yield item

        wrapper = traced_generator if inspect.isgeneratorfunction(fn) else traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.span_name = name
        return wrapper

    def install(self):
        """Wrap every target at every binding, then prove nothing escaped."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dpchannel" or n.startswith("dpchannel.")]
        originals = []
        self._restore = []
        for home, attr, _, count in TARGETS:
            mod = sys.modules.get(f"dpchannel.{home}")
            owner_name, _, member = attr.rpartition(".")
            try:
                if owner_name:
                    owner = getattr(mod, owner_name)
                    raw = vars(owner)[member]
                else:
                    raw = getattr(mod, member)
            except (AttributeError, KeyError, TypeError):
                raise TraceCoverageError(f"dpchannel.{home}.{attr} no longer exists") from None
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(f"{home}.{attr}", fn, count)
            if owner_name:
                bindings = [(owner, member, raw)]
                wrapped = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
            else:
                bindings = [(m, key, fn) for m in modules
                            for key, value in vars(m).items() if value is fn]
            for obj, key, value in bindings:
                setattr(obj, key, wrapped)
                self._restore.append((obj, key, value))
            originals.append((f"dpchannel.{home}.{attr}", fn))
        self._verify(modules, originals)

    def uninstall(self):
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore = []

    @staticmethod
    def _verify(modules, originals):
        """Fail if a listed function is still reachable unwrapped from a
        dpchannel module: as an attribute, a class attribute, an item of a
        module-level container, or a default argument or closure cell."""
        escaped = []
        for m in modules:
            for key, value in vars(m).items():
                where = f"{m.__name__}.{key}"
                for found in _references(value):
                    for qualname, fn in originals:
                        if found is fn:
                            escaped.append(f"{qualname} (reachable as {where})")
        if escaped:
            raise TraceCoverageError("unwrapped: " + "; ".join(sorted(set(escaped))))

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "request", "value")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _references(value):
    """The value itself and the objects it holds directly."""
    yield value
    if hasattr(value, "span_name"):     # a wrapper holds its original by design
        return
    if isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield from value
    elif isinstance(value, type):
        for attr in vars(value).values():
            yield getattr(attr, "__func__", attr)
    if callable(value):
        yield from getattr(value, "__defaults__", None) or ()
        yield from (getattr(value, "__kwdefaults__", None) or {}).values()
        for cell in getattr(value, "__closure__", None) or ():
            try:
                yield cell.cell_contents
            except ValueError:          # an empty cell
                pass


def layer_metrics(spans, passes, bytes_out, overhead_frac):
    """Per-layer metrics, as totals per pass over the workload's deck."""
    metric_of = {f"{home}.{attr}": metric for home, attr, metric, _ in TARGETS}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    seconds = {metric: 0.0 for metric in metric_of.values()}
    seconds["cli.self_s"] = 0.0
    counts = {}
    roots = {sub: [] for sub in SUBCOMMANDS}
    wall = 0.0
    for k, (name, start, end, parent, request, value) in enumerate(spans):
        self_time = end - start - child_time[k]
        if name == ROOT:
            seconds["cli.self_s"] += self_time
            wall += end - start
            roots[request.split()[0]].append(end - start)
            continue
        seconds[metric_of[name]] += self_time
        counts[name] = counts.get(name, 0) + 1
        counts[name + ":value"] = counts.get(name + ":value", 0) + value

    def n(name):
        return counts.get(name, 0)

    def v(name):
        return counts.get(name + ":value", 0)

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    out = {metric: secs / passes for metric, secs in seconds.items()}
    out.update({
        "graphs.distances_calls": n("graphs.distances") / passes,
        "graphs.distance_profile_calls": n("graphs.distance_profile") / passes,
        "graphs.bfs_passes": (v("graphs.distances") + v("graphs.distance_profile")) / passes,
        "graphs.is_distance_regular_calls": n("graphs.is_distance_regular") / passes,
        "graphs.cert_unknown_frac": rate(v("graphs.vt_plus_certificate"),
                                         n("graphs.vt_plus_certificate")),
        "channels.matrix_cells": v("channels.ChannelMatrix.__init__") / passes,
        "channels.audit_pairs": v("channels.dp_audit") / passes,
        "channels.audit_pairs_per_s": rate(v("channels.dp_audit"), seconds["channels.dp_audit_s"]),
        "oracle.hillclimb_iters_per_s": rate(v("oracle.hillclimb_utility"),
                                             seconds["oracle.hillclimb_s"]),
        "oracle.samples": v("oracle.random_dp_sample") / passes,
        "oracle.grid_trials": v("oracle.grid_search_optimal") / passes,
        "cli.bytes_out": bytes_out / passes,
        "trace.wall_s": wall / passes,
        "trace.overhead_frac": overhead_frac,
    })
    for sub, durations in roots.items():
        out[f"cli.{sub}_p50_ms"] = median(durations) * 1000 if durations else 0.0
    return out
