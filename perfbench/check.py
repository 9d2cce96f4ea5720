"""Independent checks of ``dpchannel`` JSON output.

Each check compares one parsed output with the expectations the generator
derived from :mod:`exact`, and returns a list of mismatch messages (empty
when the output is correct).
"""

from fractions import Fraction


def _synth(out, exp):
    errors = []
    if Fraction(out["utility"]) != exp["c"]:
        errors.append(f"utility {out['utility']} != c {exp['c']}")
    if Fraction(out["c_num"], out["c_den"]) != exp["c"]:
        errors.append("c_num/c_den disagree with c")
    entries = out["matrix"]["entries"]
    if len(entries) != exp["n"] or any(len(row) != exp["n"] for row in entries):
        errors.append("matrix is not n x n")
    return errors


def _graph(out, exp):
    errors = []
    for key in ("n", "edges", "distance_regular"):
        if out[key] != exp[key]:
            errors.append(f"{key} {out[key]!r} != {exp[key]!r}")
    if out["vt_plus"] not in exp["vt_plus"]:
        errors.append(f"vt_plus {out['vt_plus']!r} not in {sorted(exp['vt_plus'])}")
    return errors


def _analyze(out, exp):
    errors = []
    if out["satisfies_epsilon"] is not exp["satisfies"]:
        errors.append(f"satisfies_epsilon {out['satisfies_epsilon']} != {exp['satisfies']}")
    if exp["c"] is None:
        if "utility_bound" in out or "bounds_note" not in out:
            errors.append("base-dependent profile must carry bounds_note, not a bound")
    elif Fraction(out["utility_bound"]) != exp["c"]:
        errors.append(f"utility_bound {out['utility_bound']} != c {exp['c']}")
    if Fraction(out["posterior_success"]) != exp["posterior_success"]:
        errors.append("posterior_success disagrees with the prior-weighted column maxima")
    return errors


def _transform(out, exp):
    errors = []
    if out["success_preserved"] is not True:
        errors.append("success_preserved is not true")
    if Fraction(out["uniform_success_before"]) != exp["uniform_success_before"]:
        errors.append("uniform_success_before != column-maxima sum / n")
    if (out["eps_star_before"] is None) is not exp["infinite_before"]:
        errors.append("eps_star_before disagrees with the zero facing a positive entry")
    return errors


def _compare(out, exp):
    got = [(Fraction(row["utility_a"]), Fraction(row["utility_b"])) for row in out["rows"]]
    return [] if got == exp["rows"] else ["compare utilities disagree with the column maxima"]


def _oracle(out, exp):
    best = Fraction(out["best_utility"])
    return [] if best <= exp["ceiling"] else [f"best_utility {best} beats ceiling {exp['ceiling']}"]


CHECKS = {"synth": _synth, "graph": _graph, "analyze": _analyze,
          "transform": _transform, "compare": _compare, "oracle": _oracle}


def check(command, out, exp):
    try:
        return CHECKS[command](out, exp)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"]
