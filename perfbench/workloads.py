"""Seeded request decks for the three workloads.

A workload is a short list of *passes*.  Each pass is a list of requests
(argv for ``dpchannel.cli.main`` plus what the checker expects of the
output).  The timed loop runs whole passes, cycling through the list, so
every run measures the same mix of request classes whatever its length;
the seed changes the order within a pass, the random channels, priors,
vertex relabellings and oracle seeds, never the mix.

Inputs are a pure function of (workload, seed): the only randomness is a
``random.Random`` seeded with both, and files are written from it.
"""

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import exact


@dataclass
class Request:
    rid: str
    argv: list
    expect: dict = field(default_factory=dict)

    @property
    def command(self):
        return self.argv[0]


@dataclass
class Workload:
    passes: list
    warmup: Request
    files: dict = field(default_factory=dict)


def build(name, seed, workdir):
    """Generate the workload's inputs, writing its files under ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    generators = {"synth-large": _synth_large, "audit-files": _audit_files,
                  "search-small": _search_small}
    wl = generators[name](rng, _Files(workdir))
    for p in wl.passes:
        rng.shuffle(p)
    return wl


class _Files:
    """Writes input files and remembers their bytes for the input digest."""

    def __init__(self, workdir):
        self.dir = os.path.join(workdir, "inputs")
        os.makedirs(self.dir, exist_ok=True)
        self.written = {}

    def write(self, name, text):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.written[name] = text
        return path


class _Graphs:
    """Memoised distances, profile and distance-regularity per graph."""

    def __init__(self):
        self._cache = {}

    def facts(self, key, graph):
        if key not in self._cache:
            dist = exact.distance_rows(graph)
            self._cache[key] = {
                "graph": graph, "dist": dist,
                "profile": exact.shared_profile(dist),
                "distance_regular": exact.is_distance_regular(graph, dist),
            }
        return self._cache[key]


def _graph_expect(facts, vt_plus):
    n, edges = facts["graph"]
    return {"n": n, "edges": len(edges),
            "distance_regular": facts["distance_regular"], "vt_plus": vt_plus}


# ---------------------------------------------------------------------------
# synth-large
# ---------------------------------------------------------------------------

# Synthesised at two ratios per pass; consecutive passes swap the pairs, so
# two passes cover each domain at all four ratios.
SYNTH_DOMAINS = ("hamming:4,3", "hamming:3,4", "hamming:6,2", "clique:40", "cycle:31", "petersen")
SYNTH_RATIO_PAIRS = (("1/2", "9/10"), ("2/3", "1/3"))
SYNTH_RATIOS = SYNTH_RATIO_PAIRS[0] + SYNTH_RATIO_PAIRS[1]
# Synthesised at all four ratios in every pass.  These n = 125 requests and
# the n >= 243 graph requests make up the class op_p90_ms falls in.
SYNTH_EVERY_RATIO = "hamming:3,5"
# One n >= 243 synth request per pass (about 1.7 s each), so the four
# passes of the deck cover each domain at two ratios.  Heavier than the
# op_p90_ms class and only 4 % of the requests, they weigh in ops_per_s.
SYNTH_HEAVY = ("hamming:4,4", "hamming:5,3")
# The graph requests of every pass.  With the cheap synth requests they put
# the four n = 64 and n = 81 synth requests of a pass (hamming:6,2 and
# hamming:3,4) in the middle of the pass, where op_p50_ms falls.
SYNTH_GRAPHS = ("hamming:4,4", "hamming:5,3", "hamming:3,5", "hamming:3,4", "hamming:6,2",
                "clique:40", "cycle:31", "petersen")
SYNTH_PASSES = 4


def _synth_large(rng, files):
    graphs = _Graphs()
    passes = []

    def synth(domain, ratio):
        facts = graphs.facts(domain, exact.family(domain))
        c = exact.utility_ceiling(facts["profile"], Fraction(ratio))
        return Request(f"synth {domain} {ratio}",
                       ["synth", "--family", domain, "--ratio", ratio],
                       {"c": c, "n": facts["graph"][0]})

    for p in range(SYNTH_PASSES):
        reqs = [synth(domain, ratio) for k, domain in enumerate(SYNTH_DOMAINS)
                for ratio in SYNTH_RATIO_PAIRS[(k + p) % 2]]
        reqs += [synth(SYNTH_EVERY_RATIO, ratio) for ratio in SYNTH_RATIOS]
        reqs.append(synth(SYNTH_HEAVY[p % 2], SYNTH_RATIOS[p]))
        for domain in SYNTH_GRAPHS:
            facts = graphs.facts(domain, exact.family(domain))
            # Every family here has a sharply transitive automorphism set:
            # coordinate translations, rotations, or (Petersen) a verified cover.
            reqs.append(Request(f"graph {domain}", ["graph", "--family", domain],
                                _graph_expect(facts, {"yes"})))
        passes.append(reqs)
    return Workload(passes, synth("hamming:3,5", "1/2"), files.written)


# ---------------------------------------------------------------------------
# audit-files
# ---------------------------------------------------------------------------

SMALL_RATIOS = (Fraction(1, 2), Fraction(2, 3))
EPSILON = "0.7"
AUDIT_PASSES = 4
# Graph files: name, graph, whether the symmetric stage applies, analyses
# per pass.  hamming43 is the one large graph; its extra analyses make its
# requests, the slowest, about a sixth of each pass, so op_p90_ms falls
# among them.
AUDIT_GRAPHS = (
    ("petersen", exact.petersen(), True, 2),
    ("cycle12", exact.cycle(12), True, 2),
    ("clique8", exact.clique(8), True, 2),
    ("hamming33", exact.hamming(3, 3), True, 2),
    ("hamming43", exact.hamming(4, 3), True, 3),
    ("circulant12", exact.circulant(12, (1, 2)), True, 2),   # VT, not distance-regular
    ("path9", exact.path(9), False, 2),                       # base-dependent profile
)


def _channel(rng, facts, r, extra_cols, infeasible):
    """A convex mix of two column-permuted kernels, split to n + extra_cols
    columns, optionally broken on purpose.  Returns the rows and whether they
    meet the ratio cap 1/r."""
    n = facts["graph"][0]
    if facts["profile"] is not None:
        kernel = exact.distance_kernel(facts["dist"], r, exact.utility_ceiling(facts["profile"], r))
    else:
        kernel = exact.geometric_kernel(n, r)
    a = rng.randint(1, 7)
    perms = [rng.sample(range(n), n) for _ in range(2)]
    rows = exact.mix_permuted([kernel, kernel], [Fraction(a, 8), Fraction(8 - a, 8)], perms)
    for _ in range(extra_cols):
        exact.split_column(rows, rng.randrange(len(rows[0])), Fraction(rng.randint(1, 4), 5))
    if infeasible:
        _break(rng, rows, facts["graph"][1], r, infeasible)
    return rows, not infeasible


def _break(rng, rows, edges, r, how):
    """Break the ratio cap across one edge (i, h) in a column j where row i
    carries at least row h's mass: shrink M[h][j] by r/4, so the ratio
    exceeds the cap fourfold, or to zero.  The mass moves within row h."""
    i, h = rng.choice(edges)
    if rng.random() < 0.5:
        i, h = h, i
    cols = range(len(rows[h]))
    j = rng.choice([col for col in cols if rows[i][col] >= rows[h][col] > 0])
    k = rng.choice([col for col in cols if col != j])
    keep = 0 if how == "zero" else rows[h][j] * r / 4
    rows[h][k] += rows[h][j] - keep
    rows[h][j] = keep


def _matrix_text(rows, as_json):
    cells = [[exact.fraction_text(x) for x in row] for row in rows]
    labels = [f"x{i}" for i in range(len(rows))]
    cols = [f"y{j}" for j in range(len(rows[0]))]
    if as_json:
        return json.dumps({"row_labels": labels, "col_labels": cols, "entries": cells})
    lines = ["," + ",".join(cols)]
    lines += [label + "," + ",".join(row) for label, row in zip(labels, cells)]
    return "\n".join(lines) + "\n"


def _prior(rng, n):
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _prior_text(rng, prior):
    lines = [f"x{i},{exact.fraction_text(p)}" for i, p in enumerate(prior)]
    rng.shuffle(lines)           # the CLI must reorder by label
    return "\n".join(lines) + "\n"


def _audit_files(rng, files):
    graphs = _Graphs()
    passes = [[] for _ in range(AUDIT_PASSES)]
    count = {"channel": 0, "analyze": 0, "transform": 0, "prior": 0}

    def channel_file(name, facts, r, break_as=None):
        k = count["channel"]
        count["channel"] += 1
        rows, feasible = _channel(rng, facts, r, k % 3, break_as)
        as_json = k % 2 == 1
        path = files.write(f"{name}-{k}.{'json' if as_json else 'csv'}", _matrix_text(rows, as_json))
        return path, rows, feasible

    def prior_file(n):
        prior = _prior(rng, n)
        count["prior"] += 1
        return prior, files.write(f"prior-{count['prior']}.csv", _prior_text(rng, prior))

    def analyze(name, gpath, facts, r, privacy, with_prior):
        # Every fifth analysed channel breaks the ratio cap on purpose.  Zeros
        # opposite positive entries go to transform instead: analyze exits 1
        # on them (it formats the missing max_ratio in its text lines).
        a = count["analyze"]
        count["analyze"] += 1
        n = facts["graph"][0]
        path, rows, feasible = channel_file(name, facts, r, "ratio" if a % 5 == 4 else None)
        argv = ["analyze", "--graph-file", gpath, "--matrix", path] + privacy
        prior = [Fraction(1, n)] * n
        if with_prior:
            prior, prior_path = prior_file(n)
            argv += ["--prior", prior_path]
        c = None if facts["profile"] is None else exact.utility_ceiling(facts["profile"], r)
        return Request(f"analyze {name} {a}", argv,
                       {"satisfies": feasible, "c": c,
                        "posterior_success": exact.posterior_success(prior, rows)})

    def transform(name, gpath, facts, r, stage):
        t = count["transform"]
        count["transform"] += 1
        zero = t % 5 == 4
        path, rows, _ = channel_file(name, facts, r, "zero" if zero else None)
        return Request(f"transform {name} {stage} {t}",
                       ["transform", "--graph-file", gpath, "--matrix", path, "--stage", stage],
                       {"uniform_success_before": exact.column_maxima_sum(rows) / facts["graph"][0],
                        "infinite_before": zero})

    def compare(name, facts, r, p):
        n = facts["graph"][0]
        path_a, rows_a, _ = channel_file(name, facts, r)
        path_b, rows_b, _ = channel_file(name, facts, r)
        prior, prior_path = prior_file(n)
        uniform = [Fraction(1, n)] * n
        return Request(f"compare {name} {p}",
                       ["compare", "--matrix-a", path_a, "--matrix-b", path_b, "--prior", prior_path],
                       {"rows": [(exact.posterior_success(q, rows_a), exact.posterior_success(q, rows_b))
                                 for q in (uniform, prior)]})

    for gi, (name, graph, symmetric, analyses) in enumerate(AUDIT_GRAPHS):
        gpath = files.write(f"{name}.json", json.dumps(
            {"n": graph[0], "edges": [list(e) for e in graph[1]]}))
        facts = graphs.facts(name, graph)
        for p in range(AUDIT_PASSES):
            # Each graph alternates between a small-denominator ratio and the
            # 54-bit ratio that --epsilon 0.7 denotes.
            precise = (gi + p) % 2 == 1
            if precise:
                r, privacy = exact.epsilon_ratio(float(EPSILON)), ["--epsilon", EPSILON]
            else:
                r = SMALL_RATIOS[gi // 2 % 2]
                privacy = ["--ratio", exact.fraction_text(r)]
            stages = ("diagonal", "symmetric") if symmetric else ("diagonal",)
            count_here = analyses
            # The symmetric stage's exact averaging at the 54-bit ratio takes
            # seconds beyond 16 vertices; large graphs get analyses instead.
            if precise and graph[0] > 16:
                count_here, stages = analyses + len(stages), ()
            for k in range(count_here):
                passes[p].append(analyze(name, gpath, facts, r, privacy, k % 2 == 1))
            for stage in stages:
                passes[p].append(transform(name, gpath, facts, r, stage))
            passes[p].append(compare(name, facts, r, p))

    warmup = analyze("petersen", os.path.join(files.dir, "petersen.json"),
                     graphs.facts("petersen", exact.petersen()), SMALL_RATIOS[0],
                     ["--ratio", "1/2"], False)
    return Workload(passes, warmup, files.written)


# ---------------------------------------------------------------------------
# search-small
# ---------------------------------------------------------------------------

ORACLE_DOMAINS = ("petersen", "cycle:6", "cycle:8", "clique:3", "clique:4",
                  "hamming:2,3", "hamming:3,2")
ORACLE_RATIOS = ("1/2", "2/3")
# Half the CLI's default of 10 000 hillclimb steps: the requests stay in the
# middle of the pass, where op_p50_ms falls, and a deck of four passes runs
# in about 20 s.
HILLCLIMB_ITERS = "5000"
SEARCH_PASSES = 4
# (name, graph, copies per pass, allowed certificate verdicts).  Each copy
# gets its own relabelling, which hides the Hamming labels the certificate
# fast path keys on.  The truth is "yes" for all four; "unknown" is the
# honest answer when the search runs out of its default effort, which
# hamming33 always does.  Its copies are the slowest requests, so
# op_p90_ms sits among them.
RELABELLED = (
    ("petersen", exact.petersen(), 1, {"yes"}),
    ("hamming24", exact.hamming(2, 4), 1, {"yes", "unknown"}),
    ("hamming42", exact.hamming(4, 2), 1, {"yes", "unknown"}),
    ("hamming33", exact.hamming(3, 3), 4, {"yes", "unknown"}),
)


def _search_small(rng, files):
    graphs = _Graphs()
    passes = [[] for _ in range(SEARCH_PASSES)]

    def oracle(domain, ratio, method):
        facts = graphs.facts(domain, exact.family(domain))
        argv = ["oracle", "--family", domain, "--ratio", ratio, "--method", method]
        rid = f"oracle {domain} {ratio} {method}"
        if method == "hillclimb":
            argv += ["--iters", HILLCLIMB_ITERS]
        if method != "grid":
            seed = rng.randrange(10 ** 6)
            argv += ["--seed", str(seed)]
            rid += f" {seed}"
        return Request(rid, argv,
                       {"ceiling": exact.utility_ceiling(facts["profile"], Fraction(ratio))})

    for p, reqs in enumerate(passes):
        for k, domain in enumerate(ORACLE_DOMAINS):
            for ratio in ORACLE_RATIOS:
                reqs.append(oracle(domain, ratio, "hillclimb"))
            reqs.append(oracle(domain, ORACLE_RATIOS[(k + p) % 2], "random"))
        for ratio in ORACLE_RATIOS:
            reqs.append(oracle("clique:3", ratio, "grid"))
        for name, graph, copies, verdicts in RELABELLED:
            for c in range(copies):
                relabelled = exact.relabel(graph, rng.sample(range(graph[0]), graph[0]))
                path = files.write(f"{name}-{p}-{c}.json", json.dumps(
                    {"n": relabelled[0], "edges": [list(e) for e in relabelled[1]]}))
                facts = graphs.facts(path, relabelled)
                reqs.append(Request(f"graph {name} {p} {c}", ["graph", "--graph-file", path],
                                    _graph_expect(facts, verdicts)))
    return Workload(passes, oracle("petersen", "1/2", "hillclimb"), files.written)
