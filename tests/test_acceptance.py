"""End-to-end acceptance checks.

Each criterion is a self-contained check with its tolerances pinned inline;
running this module (under pytest or directly) prints one PASS/FAIL line
per criterion.  Stated runtime ceilings are asserted, not aspirational.

    pytest -s tests/test_acceptance.py
    python3 tests/test_acceptance.py
"""

import sys
import time
from fractions import Fraction

from dpchannel import (
    PrivacyParameter,
    Prior,
    build_clique,
    build_cycle,
    build_family,
    build_hamming,
    build_path,
    build_petersen,
    distance_profile,
    dp_audit,
    grid_search_optimal,
    hamming_leakage_bound,
    hillclimb_utility,
    is_distance_regular,
    optimal_mechanism,
    posterior_entropy_bound,
    posterior_success,
    random_dp_sample,
    symmetrize_distance_regular,
    to_diagonal_form,
    truncated_geometric_fixture,
    utility,
    utility_bound,
    vt_plus_certificate,
)

from closed_forms import hamming_identity_check

HALF = PrivacyParameter(Fraction(1, 2))

TIGHTNESS_GRAPHS = ("clique:2", "clique:3", "clique:6", "cycle:4", "cycle:6",
                    "petersen", "hamming:2,2", "hamming:3,2", "hamming:2,3")
TIGHTNESS_RATIOS = (Fraction(1), Fraction(1, 2), Fraction(1, 3))


def criterion_1_table_reproduction():
    """published utilities: 0.2242 / 2/7 uniform, 0.2412 / 2/7 non-uniform; < 1 s"""
    start = time.perf_counter()
    m1 = truncated_geometric_fixture()
    m2 = optimal_mechanism(build_clique(6), HALF).matrix
    uniform = Prior.uniform(6)
    city = Prior((Fraction(1, 10), Fraction(1, 5), Fraction(1, 5),
                  Fraction(1, 5), Fraction(1, 5), Fraction(1, 10)))

    assert abs(float(utility(uniform, m1)) - 0.2242) <= 5e-4
    assert utility(uniform, m2) == Fraction(2, 7)
    assert abs(float(utility(city, m1)) - 0.2412) <= 5e-4
    assert utility(city, m2) == Fraction(2, 7)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def criterion_2_synthesis_reproduces_published_matrix():
    """clique(6) at r=1/2 synthesises exactly diagonal 2/7, off-diagonal 1/7"""
    bundle = optimal_mechanism(build_clique(6), HALF)
    for i in range(6):
        for j in range(6):
            expected = Fraction(2, 7) if i == j else Fraction(1, 7)
            assert bundle.matrix.entry(i, j) == expected


def criterion_3_bound_tightness():
    """tight/optimal channels attain both bounds exactly on the graph set; < 10 s"""
    start = time.perf_counter()
    for spec in TIGHTNESS_GRAPHS:
        g = build_family(spec)
        uniform = Prior.uniform(g.n)
        profile = distance_profile(g)
        for r in TIGHTNESS_RATIOS:
            pp = PrivacyParameter(r)
            ent = posterior_entropy_bound(profile, pp)
            tight = optimal_mechanism(g, pp).matrix
            assert posterior_success(uniform, tight) == 1 / ent.exact_core, (spec, r)

            util = utility_bound(profile, pp)
            bundle = optimal_mechanism(g, pp)
            assert utility(uniform, bundle.matrix) == util.probability, (spec, r)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def criterion_4_hamming_closed_forms():
    """binomial identity exact for u<=5, v<=4; derivation within 1e-12 bits"""
    import math

    ratios = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
    for u in range(1, 6):
        for v in range(2, 5):
            profile = distance_profile(build_hamming(u, v))
            for r in ratios:
                pp = PrivacyParameter(r)
                assert hamming_identity_check(u, v, pp), (u, v, r)
                leak = hamming_leakage_bound(u, v, pp)
                ent = posterior_entropy_bound(profile, pp)
                assert abs(leak.bits - (u * math.log2(v) - ent.bits)) <= 1e-12, (u, v, r)


def criterion_5_pipeline_property_suite():
    """>= 200 seeded feasible channels: success exact-preserved, ratio never worse; < 60 s"""
    start = time.perf_counter()
    checked = 0
    for spec in TIGHTNESS_GRAPHS:
        g = build_family(spec)
        uniform = Prior.uniform(g.n)
        array = is_distance_regular(g)
        assert array is not None, spec
        for k, r in enumerate((Fraction(1, 2), Fraction(1, 3))):
            pp = PrivacyParameter(r)
            for matrix in random_dp_sample(g, pp, 12, seed=1000 + k):
                before = dp_audit(matrix, g)
                cf = to_diagonal_form(matrix, g)
                out = symmetrize_distance_regular(cf, g)
                for stage in (cf.matrix, out.matrix):
                    assert (posterior_success(uniform, matrix)
                            == posterior_success(uniform, stage)), spec
                for audit in (dp_audit(cf.matrix, g), dp_audit(out.matrix, g)):
                    assert audit.max_ratio is not None, spec
                    assert audit.max_ratio <= before.max_ratio, spec
                checked += 1
    assert checked >= 200, checked
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def criterion_6_oracle_non_falsification():
    """grid and hillclimb searches never beat the bounds, and reach them"""
    grid_cases = ((build_clique(2), Fraction(1, 24), Fraction(2, 3)),
                  (build_clique(3), Fraction(1, 16), Fraction(1, 2)))
    for g, step, bound in grid_cases:
        report = grid_search_optimal(g, HALF, step)
        assert report.best_utility <= bound
        assert report.best_utility >= bound - step

    climb_cases = ((build_clique(6), Fraction(2, 7)),
                   (build_cycle(6), Fraction(8, 21)))
    for g, bound in climb_cases:
        for seed in (1, 2, 3):
            report = hillclimb_utility(g, HALF, iters=10_000, seed=seed)
            assert report.best_utility <= bound
            assert float(bound - report.best_utility) <= 1e-3


def criterion_7_individual_leakage_bound():
    """value-clique leakage equals log2(v / ((v-1) r + 1)) exactly, for any
    number of other participants"""
    for v in range(2, 7):
        g = build_clique(v)
        uniform = Prior.uniform(v)
        for r in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            pp = PrivacyParameter(r)
            core = (v - 1) * r + 1
            ratios = set()
            for u_context in (1, 2, 3):
                tight = optimal_mechanism(g, pp).matrix
                success_ratio = posterior_success(uniform, tight) / uniform.max_prob
                assert success_ratio == Fraction(v) / core, (v, r, u_context)
                ratios.add(success_ratio)
            assert len(ratios) == 1  # independent of the wider context


def criterion_8_classification():
    """product domains classified, petersen array pinned, path-3 refused"""
    for u in (1, 2, 3):
        for v in (2, 3):
            g = build_hamming(u, v)
            assert is_distance_regular(g) is not None, (u, v)
            assert vt_plus_certificate(g).status == "yes", (u, v)
    array = is_distance_regular(build_petersen())
    assert array.b == (3, 2) and array.c == (1, 1)
    assert vt_plus_certificate(build_path(3)).status == "no"


CRITERIA = (
    (1, criterion_1_table_reproduction),
    (2, criterion_2_synthesis_reproduces_published_matrix),
    (3, criterion_3_bound_tightness),
    (4, criterion_4_hamming_closed_forms),
    (5, criterion_5_pipeline_property_suite),
    (6, criterion_6_oracle_non_falsification),
    (7, criterion_7_individual_leakage_bound),
    (8, criterion_8_classification),
)


def _run(number, check):
    label = check.__doc__.split("\n")[0].strip()
    try:
        check()
    except BaseException:
        print(f"criterion {number}: FAIL  ({label})")
        raise
    print(f"criterion {number}: PASS  ({label})")


def test_criterion_1():
    _run(1, criterion_1_table_reproduction)


def test_criterion_2():
    _run(2, criterion_2_synthesis_reproduces_published_matrix)


def test_criterion_3():
    _run(3, criterion_3_bound_tightness)


def test_criterion_4():
    _run(4, criterion_4_hamming_closed_forms)


def test_criterion_5():
    _run(5, criterion_5_pipeline_property_suite)


def test_criterion_6():
    _run(6, criterion_6_oracle_non_falsification)


def test_criterion_7():
    _run(7, criterion_7_individual_leakage_bound)


def test_criterion_8():
    _run(8, criterion_8_classification)


def main():
    failures = 0
    for number, check in CRITERIA:
        try:
            _run(number, check)
        except BaseException as exc:  # keep going; report everything
            failures += 1
            print(f"  -> {type(exc).__name__}: {exc}")
    if failures:
        print(f"{failures} criterion(s) failed")
        return 1
    print("all acceptance criteria passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
