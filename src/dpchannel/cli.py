"""Command-line front door.

Subcommands wire the library together for file-based workflows:

* ``graph``      classify a graph: profile, distance-regularity, transitivity
* ``analyze``    audit a channel against a graph and report leakage/utility
* ``transform``  run the canonical-form pipeline on a channel
* ``synth``      synthesise the optimal mechanism for a graph and level
* ``compare``    side-by-side utility/leakage of two channels under priors
* ``oracle``     run the grid / hillclimb / random verification harness

Machine-readable output is stable: JSON is emitted with sorted keys and no
environment-dependent content, so identical inputs (and seeds) produce
byte-identical reports.
"""

import argparse
import bisect
import collections
import functools
import itertools
import json
import math
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import bounds as bounds_mod
from .channels import (
    ChannelMatrix,
    DEFAULT_LN_TOL,
    PrivacyParameter,
    Prior,
    _csv_line,
    _digits,
    as_fraction,
    column_maxima_sum,
    dp_audit,
    format_fraction,
    leakage,
    log2_fraction,
    min_entropy,
    posterior_min_entropy,
    posterior_success,
    prior_from_csv,
)
from .graphs import (
    DEFAULT_SEARCH_EFFORT,
    DEFAULT_SIZE_CAP,
    Graph,
    InternalError,
    SizeCapError,
    build_family,
    common_profile,
    distance_profile,
    is_distance_regular,
    vt_plus_certificate,
)
from .mechanisms import optimal_mechanism, truncated_geometric_fixture
from .oracle import SearchReport, grid_search_optimal, hillclimb_utility, random_dp_sample
from .transforms import canonicalize, to_diagonal_form

def _load_graph(args):
    if args.family:
        return build_family(args.family, size_cap=args.size_cap)
    with open(args.graph_file, encoding="utf-8") as fh:
        data = json.load(fh)
    n = data.get("n") if isinstance(data, dict) else None
    if type(n) is int and n > args.size_cap:    # refused before any per-vertex allocation
        raise SizeCapError(f"graph file {args.graph_file} has {n} vertices,"
                           f" above the cap of {args.size_cap}")
    return Graph.from_dict(data)


def _load_matrix(path):
    if path == "fixture:geometric":
        return truncated_geometric_fixture()
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith(("{", "[")):
        return ChannelMatrix.from_json(text)
    return ChannelMatrix.from_csv(text)


def _load_prior(path, matrix):
    with open(path, encoding="utf-8") as fh:
        prior, labels = prior_from_csv(fh.read())
    if set(labels) == set(matrix.row_labels) and labels != matrix.row_labels:
        by_label = dict(zip(labels, prior.probs))
        prior = Prior(tuple(by_label[lab] for lab in matrix.row_labels))
    elif len(prior) != matrix.rows:
        raise ValueError("prior length does not match the matrix rows")
    return prior


def _exact(option, text):
    """``as_fraction(text)``, naming the option, the text and its fault."""
    try:
        return as_fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{option} {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{option} {text!r} is not a rational number (p/q or a decimal)"
                         ) from None


def _privacy(args):
    if args.ratio is not None:
        return PrivacyParameter(_exact("--ratio", args.ratio))
    if args.epsilon == "ln2":
        return PrivacyParameter(Fraction(1, 2))
    try:
        eps = float(args.epsilon)
    except ValueError:
        raise ValueError(f"--epsilon {args.epsilon!r} is not a number (a decimal, or ln2)"
                         ) from None
    return PrivacyParameter.from_epsilon(eps)


class _Spelt:
    """A list of non-empty lists whose cells are already spelt as JSON:
    ``rows`` yields each inner list, in order, as a sequence of those texts."""
    def __init__(self, rows):
        self.rows = rows


class _SpeltPairs:
    """A list of two-cell lists spelt as JSON, grouped by first cell:
    ``groups`` yields ``(head, tails)``, the texts of the pairs
    ``[head, tail]`` for each tail in ``tails``, in order."""
    def __init__(self, groups):
        self.groups = groups


def _matrix_json(matrix):
    """``matrix.to_dict()`` with its entries as a :class:`_Spelt` block."""
    return {"row_labels": matrix.row_labels, "col_labels": matrix.col_labels,
            "entries": _Spelt(matrix._formatted_rows('"'))}


def _write_json(write, value, pad="\n"):
    """Write ``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` spells it.

    CPython encodes with ``indent`` in pure Python, one call per value; this
    writer streams the same bytes through ``write`` instead.  A dict (with
    string keys, sorted) is written item by item, and so is a list or tuple
    that holds a dict, list or tuple.  Any other non-empty list or tuple is
    spelt by one ``json.dumps`` call without ``indent`` (``json``'s C
    encoder), its brackets padded as ``indent`` pads them.  A
    :class:`_Spelt` block (a report's matrix entries) is written one join,
    and one ``write``, per row, its cells taken as spelt; a
    :class:`_SpeltPairs` block (synth's edges) one join, and one ``write``,
    per head.
    An int (not a bool) is spelt in full, past the interpreter's digit limit
    for ``str``; every other value is spelt by ``json.dumps``.  ``pad`` is
    the newline and indentation before the closing bracket.
    """
    inner = pad + "  "
    if isinstance(value, dict) and value:
        sep = "{" + inner
        for key in sorted(value):
            write(sep + encode_basestring_ascii(key) + ": ")
            _write_json(write, value[key], inner)
            sep = "," + inner
        write(pad + "}")
    elif isinstance(value, _Spelt):
        cell = "," + inner + "  "
        sep = "[" + inner
        for row in value.rows:
            write(sep + "[" + cell[1:] + cell.join(row) + inner + "]")
            sep = "," + inner
        write(pad + "]" if sep[0] == "," else "[]")
    elif isinstance(value, _SpeltPairs):
        sep = "[" + inner
        for head, tails in value.groups:
            if tails:
                start = "[" + inner + "  " + head + "," + inner + "  "
                write(sep + start + (inner + "]," + inner + start).join(tails) + inner + "]")
                sep = "," + inner
        write(pad + "]" if sep[0] == "," else "[]")
    elif isinstance(value, (list, tuple)) and value:
        if any(isinstance(item, (dict, list, tuple)) for item in value):
            sep = "[" + inner
            for item in value:
                write(sep)
                _write_json(write, item, inner)
                sep = "," + inner
            write(pad + "]")
        else:
            spelt = json.dumps(value, separators=("," + inner, ": "))
            write("[" + inner + spelt[1:-1] + pad + "]")
    else:
        write(_digits(value) if type(value) is int else json.dumps(value))


def _emit(args, **renderers):
    """Write what ``renderers[args.format]()`` builds for the chosen format.

    ``json`` builds the payload, written by :func:`_write_json` and a final
    newline; every other format (``text``, and ``csv`` on compare) builds
    the lines, each written as it is drawn.  Only the chosen callable runs.
    """
    built = renderers[args.format]()
    to_file = args.output and args.output != "-"
    with open(args.output, "w", encoding="utf-8") if to_file else nullcontext(sys.stdout) as fh:
        if args.format == "json":
            _write_json(fh.write, built)
            fh.write("\n")
        else:
            for line in built:
                fh.write(line + "\n")
    return 0


def non_negative_float(text):
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite non-negative number, got {text}")
    return value


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _fmt_eps(value):
    return "inf" if math.isinf(value) else f"{value:.6f}"


def _frac_float(q):
    return f"{format_fraction(q)} (= {float(q):.6f})"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_graph(args):
    g = _load_graph(args)
    # Certify first: a "yes" records its family on g, and the profile and
    # distance-regularity below are then read from vertex 0's one BFS.
    cert = vt_plus_certificate(g, effort=args.effort)
    hist = collections.Counter(g.degrees)
    payload = {"n": g.n, "edges": sum(g.degrees) // 2,
               "degree_histogram": {str(k): v for k, v in sorted(hist.items())},
               "connected": g.is_connected, "distance_regular": False,
               "vt_plus": cert.status, "vt_plus_method": cert.method}
    if g.is_connected:
        shared = common_profile(g)
        payload.update(
            diameter=shared.diameter if shared is not None else g.distance_matrix.diameter,
            profile_base_0=list(distance_profile(g).counts),
            profile_base_independent=shared is not None)
        array = is_distance_regular(g)
        if array is not None:
            payload["distance_regular"] = True
            payload["intersection_array"] = {"b": list(array.b), "c": list(array.c)}

    def text():
        p, yes = payload, {True: "yes", False: "no"}
        lines = [f"vertices: {p['n']}", f"edges: {p['edges']}",
                 "degrees: " + ", ".join(f"{k} (x{v})" for k, v in p["degree_histogram"].items()),
                 f"connected: {yes[p['connected']]}",
                 f"diameter: {p.get('diameter', 'infinite (disconnected)')}"]
        if p["connected"]:
            lines.append("profile (base 0): " + ", ".join(map(str, p["profile_base_0"])))
            lines.append(f"profile base-independent: {yes[p['profile_base_independent']]}")
        lines.append(f"distance-regular: {yes[p['distance_regular']]}")
        if "intersection_array" in p:
            b, c = (tuple(p["intersection_array"][k]) for k in "bc")
            lines.append(f"intersection array: b={b} c={c}")
        lines.append(f"VT+: {p['vt_plus']} ({p['vt_plus_method']})")
        return lines

    return _emit(args, json=lambda: payload, text=text)


def cmd_analyze(args):
    g = _load_graph(args)
    matrix = _load_matrix(args.matrix)
    pp = _privacy(args)
    prior = _load_prior(args.prior, matrix) if args.prior else Prior.uniform(matrix.rows)

    audit = dp_audit(matrix, g)
    maxima_sum = column_maxima_sum(matrix)
    uniform_success = maxima_sum / matrix.rows
    success = posterior_success(prior, matrix) if args.prior else uniform_success
    payload = {
        "eps_star": None if math.isinf(audit.eps_star) else audit.eps_star,
        "eps_star_infinite": math.isinf(audit.eps_star),
        "max_ratio": None if audit.max_ratio is None else format_fraction(audit.max_ratio),
        "witness": list(audit.worst_witness) if audit.worst_witness else None,
        "satisfies_epsilon": audit.is_dp(pp, args.tolerance),
        "epsilon": pp.epsilon,
        "r": format_fraction(pp.r),
        "prior_min_entropy_bits": min_entropy(prior),
        "max_prior_prob": format_fraction(prior.max_prob),
        "posterior_success": format_fraction(success),
        "posterior_min_entropy_bits": posterior_min_entropy(prior, matrix, success=success),
        "leakage_bits": leakage(prior, matrix, success=success),
        "min_capacity_bits": log2_fraction(maxima_sum),
        "column_maxima_sum": format_fraction(maxima_sum),
    }

    bound = None
    if g.is_connected:
        shared = common_profile(g)
        if shared is not None:
            bound = bounds_mod.posterior_entropy_bound(shared, pp)
            payload.update({
                "posterior_entropy_bound_bits": bound.bits,
                "utility_bound": format_fraction(bound.probability),
                "uniform_utility": format_fraction(uniform_success),
                "attains_bound": uniform_success == bound.probability,
            })
        else:
            payload["bounds_note"] = "profile is base-dependent; symmetry bounds not applicable"

    def text():
        ratio = "inf" if audit.max_ratio is None else format_fraction(audit.max_ratio)
        lines = [
            f"privacy level: epsilon={pp.epsilon:.6f} (r={format_fraction(pp.r)})",
            f"eps_star: {_fmt_eps(audit.eps_star)}"
            + (f" (max adjacent ratio {ratio},"
               f" witness rows {audit.worst_witness[0]}/{audit.worst_witness[1]}"
               f" column {audit.worst_witness[2]})" if audit.worst_witness else ""),
            f"satisfies declared epsilon: {'yes' if payload['satisfies_epsilon'] else 'no'}"
            f" (tolerance {args.tolerance:g})",
            f"prior min-entropy: {payload['prior_min_entropy_bits']:.6f} bits"
            f" (max prob {payload['max_prior_prob']})",
            f"posterior success: {_frac_float(success)},"
            f" min-entropy {payload['posterior_min_entropy_bits']:.6f} bits",
            f"leakage: {payload['leakage_bits']:.6f} bits",
            f"min-capacity: {payload['min_capacity_bits']:.6f} bits"
            f" (column-maxima sum {payload['column_maxima_sum']})",
            f"binary utility (optimal guess): {_frac_float(success)}",
        ]
        if bound is not None:
            lines.append(
                f"posterior entropy bound: {bound.bits:.6f} bits"
                f" (core {format_fraction(bound.exact_core)})")
            lines.append(
                f"utility bound (uniform prior): {_frac_float(bound.probability)}")
            lines.append(f"attains bound: {'yes' if payload['attains_bound'] else 'no'}")
        elif "bounds_note" in payload:
            lines.append("bounds: not applicable (base-dependent profile)")
        return lines

    return _emit(args, json=lambda: payload, text=text)


def cmd_transform(args):
    g = _load_graph(args)
    matrix = _load_matrix(args.matrix)
    before = dp_audit(matrix, g)
    success_before = column_maxima_sum(matrix) / matrix.rows
    if args.stage == "diagonal":
        cf = to_diagonal_form(matrix, g)
    else:
        cf = canonicalize(matrix, g, effort=args.effort)
    after = dp_audit(cf.matrix, g)
    success_after = column_maxima_sum(cf.matrix) / cf.matrix.rows
    return _emit(args, json=lambda: {
        "stage": cf.stage,
        "symmetry": cf.symmetry,
        "merge_map": list(cf.merge_map) if cf.merge_map else None,
        "eps_star_before": None if math.isinf(before.eps_star) else before.eps_star,
        "eps_star_after": None if math.isinf(after.eps_star) else after.eps_star,
        "uniform_success_before": format_fraction(success_before),
        "uniform_success_after": format_fraction(success_after),
        "success_preserved": success_before == success_after,
        "matrix": _matrix_json(cf.matrix),
    }, text=lambda: itertools.chain([
        f"stage: {cf.stage}" + (f" ({cf.symmetry})" if cf.symmetry else ""),
        f"eps_star: {_fmt_eps(before.eps_star)} -> {_fmt_eps(after.eps_star)}",
        f"uniform success: {format_fraction(success_before)} -> {format_fraction(success_after)}"
        f" ({'preserved exactly' if success_before == success_after else 'CHANGED'})",
        "",
    ], cf.matrix._csv_lines()))


def cmd_synth(args):
    g = _load_graph(args)
    pp = _privacy(args)
    bundle = optimal_mechanism(g, pp)
    matrix = bundle.matrix
    audit = dp_audit(matrix, g)

    def payload():
        # bundle.to_dict(), its edges spelt off the adjacency rows (j > i)
        # and its entries as the matrix spells them, plus utility and eps_star
        names = list(map(str, range(g.n)))
        graph = {"n": g.n, "edges": _SpeltPairs((names[i], [names[j] for j in row[
            bisect.bisect(row, i):]]) for i, row in enumerate(g.adjacency))}
        if g.labels is not None:
            graph["labels"] = g.labels
        return {"graph": graph, "matrix": _matrix_json(matrix), "r_num": pp.r.numerator,
                "r_den": pp.r.denominator, "c_num": bundle.c.numerator,
                "c_den": bundle.c.denominator, "utility": format_fraction(bundle.c),
                "eps_star": audit.eps_star}

    return _emit(args, json=payload, text=lambda: itertools.chain([
        f"privacy level: epsilon={pp.epsilon:.6f} (r={format_fraction(pp.r)})",
        f"normaliser c: {_frac_float(bundle.c)}",
        f"uniform-prior utility: {_frac_float(bundle.c)} (equals the bound by construction)",
        f"eps_star: {_fmt_eps(audit.eps_star)}",
        "",
    ], matrix._csv_lines()))


def cmd_compare(args):
    left = _load_matrix(args.matrix_a)
    right = _load_matrix(args.matrix_b)
    if left.rows != right.rows:
        raise ValueError("matrices must share an input domain to be compared")
    uniform = Prior.uniform(left.rows)
    priors = [("uniform", uniform, uniform)] + [   # each prior aligned to each matrix's labels
        (os.path.basename(path), _load_prior(path, left), _load_prior(path, right))
        for path in args.prior or []]
    rows = []
    for name, prior_a, prior_b in priors:
        success_a = posterior_success(prior_a, left)
        success_b = posterior_success(prior_b, right)
        rows.append((name, success_a, success_b, leakage(prior_a, left, success=success_a),
                     leakage(prior_b, right, success=success_b)))

    def payload():
        return {"rows": [{"prior": name, "utility_a": format_fraction(a),
                          "utility_b": format_fraction(b), "leakage_a": leak_a,
                          "leakage_b": leak_b} for name, a, b, leak_a, leak_b in rows]}

    def csv():
        return [_csv_line(("prior", "utility_a", "utility_b", "leakage_a", "leakage_b"))] + [
            _csv_line((name, *(f"{float(x):.6f}" for x in values))) for name, *values in rows]

    def text():
        lines = []
        for name, a, b, leak_a, leak_b in rows:
            lines.append(f"prior {name}:")
            lines.append(f"  utility:  {_frac_float(a)}  vs  {_frac_float(b)}")
            lines.append(f"  leakage:  {leak_a:.6f} bits  vs  {leak_b:.6f} bits")
        return lines

    return _emit(args, json=payload, text=text, csv=csv)


# The options each oracle method reads, with their defaults; every other
# method option is a usage error.
ORACLE_METHOD_OPTIONS = {
    "grid": {"step": "1/16"},
    "hillclimb": {"iters": 10_000, "seed": 0},
    "random": {"count": 20, "seed": 0},
}


def cmd_oracle(args):
    own = ORACLE_METHOD_OPTIONS[args.method]
    given = {name: getattr(args, name) for name in ("step", "iters", "count", "seed")
             if getattr(args, name) is not None}
    stray = [f"--{name}" for name in given if name not in own]
    if stray:
        args.usage_error(f"--method {args.method} does not take {', '.join(stray)}")
    opt = {**own, **given}
    g = _load_graph(args)
    pp = _privacy(args)
    if args.method == "grid":
        report = grid_search_optimal(g, pp, _exact("--step", opt["step"]))
    elif args.method == "hillclimb":
        report = hillclimb_utility(g, pp, iters=opt["iters"], seed=opt["seed"])
    else:
        best = None
        for matrix in random_dp_sample(g, pp, opt["count"], opt["seed"]):  # exactly count
            value = column_maxima_sum(matrix) / matrix.rows
            if best is None or value > best[0]:
                best = (value, matrix)
        report = SearchReport("random", opt["seed"], opt["count"], best[0], best[1])
    payload = report.to_dict()
    shared = common_profile(g) if g.is_connected else None
    bound = None
    if shared is not None:
        bound = bounds_mod.utility_bound(shared, pp)
        payload["utility_bound"] = format_fraction(bound.probability)

    def text():
        lines = [f"method: {report.method}"]
        if report.seed is not None:
            lines.append(f"seed: {report.seed}")
        lines += [
            f"trials: {report.trials}",
            f"best utility: {_frac_float(report.best_utility)}",
        ]
        if bound is not None:
            gap = bound.probability - report.best_utility
            lines.append(f"utility bound: {_frac_float(bound.probability)}"
                         f" (gap {format_fraction(gap)})")
        return lines

    return _emit(args, json=lambda: payload, text=text)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_output(p, formats=("text", "json")):
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")


def _add_graph_source(p):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--family", help="clique:N | cycle:N | path:N | petersen | hamming:U,V")
    grp.add_argument("--graph-file", help="graph JSON path")
    p.add_argument("--size-cap", type=positive_int, default=DEFAULT_SIZE_CAP,
                   help=f"vertex cap for either graph source (default {DEFAULT_SIZE_CAP})")


def _add_effort(p):
    p.add_argument("--effort", type=positive_int, default=DEFAULT_SEARCH_EFFORT,
                   help="node budget for certificate searches")


def _add_privacy(p):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--ratio", help="exact r = e^-epsilon as p/q or decimal")
    grp.add_argument("--epsilon", help="epsilon as a decimal, or the literal ln2")


@functools.cache
def build_parser():
    """The ``dpchannel`` parser, built once per process: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="dpchannel",
        description="Audit, bound and synthesise privacy mechanisms over graph domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="classify a graph")
    _add_output(p)
    _add_graph_source(p)
    _add_effort(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("analyze", help="audit a channel against a graph")
    _add_output(p)
    _add_graph_source(p)
    _add_privacy(p)
    p.add_argument("--matrix", required=True, help="matrix CSV/JSON path or fixture:geometric")
    p.add_argument("--prior", help="prior CSV path (label,value per line)")
    p.add_argument("--tolerance", type=non_negative_float, default=DEFAULT_LN_TOL,
                   help="slack of the epsilon verdict: a ratio up to e^epsilon (1 + tol) passes")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", help="canonical-form pipeline")
    _add_output(p)
    _add_graph_source(p)
    _add_effort(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--stage", choices=("diagonal", "symmetric"), default="symmetric")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("synth", help="synthesise the optimal mechanism")
    _add_output(p)
    _add_graph_source(p)
    _add_privacy(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("compare", help="compare two channels under priors")
    _add_output(p, formats=("text", "json", "csv"))
    p.add_argument("--matrix-a", required=True)
    p.add_argument("--matrix-b", required=True)
    p.add_argument("--prior", action="append", help="prior CSV path; repeatable")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle", help="verification searches")
    _add_output(p)
    _add_graph_source(p)
    _add_privacy(p)
    p.add_argument("--method", choices=("grid", "hillclimb", "random"), required=True)
    for name, kind, what in (("seed", int, "seed"), ("iters", positive_int, "steps"),
                             ("step", str, "grid step (must divide 1)"),
                             ("count", positive_int, "sample count")):
        methods = [m for m, own in ORACLE_METHOD_OPTIONS.items() if name in own]
        default = ORACLE_METHOD_OPTIONS[methods[0]][name]
        p.add_argument(f"--{name}", type=kind,
                       help=f"{what} for --method {' and '.join(methods)} (default {default})")
    p.set_defaults(func=cmd_oracle)

    for p in sub.choices.values():
        p.set_defaults(usage_error=p.error)
    return parser


def main(argv=None):
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:   # reported with the chosen subcommand's usage
        args.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except InternalError as exc:  # a library bug, not the user's input
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # surface as a clean one-line error, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
