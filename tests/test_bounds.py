"""Closed-form bound evaluation and its internal identities."""

import math
import re
from fractions import Fraction

import pytest

from dpchannel import (
    BoundReport,
    DistanceProfile,
    PrivacyParameter,
    Prior,
    build_clique,
    build_hamming,
    build_petersen,
    distance_profile,
    hamming_leakage_bound,
    individual_leakage_bound,
    leakage,
    log2_fraction,
    optimal_mechanism,
    posterior_entropy_bound,
    profile_core,
    utility_bound,
)

from closed_forms import hamming_identity_check, hamming_profile

HALF = PrivacyParameter(Fraction(1, 2))
THIRD = PrivacyParameter(Fraction(1, 3))
ONE = PrivacyParameter(1)


@pytest.mark.parametrize("bound, args, message", [
    (hamming_leakage_bound, (0, 2), "need u >= 1 participants and v >= 2 values"),
    (hamming_leakage_bound, (2, 1), "need u >= 1 participants and v >= 2 values"),
    (individual_leakage_bound, (1,), "need u >= 1 participants and v >= 2 values"),
], ids=["leakage-u", "leakage-v", "individual-v"])
def test_parameter_refusals(bound, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bound(*args, HALF)


class TestPosteriorEntropyBound:
    def test_clique6_core(self):
        profile = distance_profile(build_clique(6))
        report = posterior_entropy_bound(profile, HALF)
        assert report.exact_core == Fraction(7, 2)
        assert report.bits == pytest.approx(math.log2(3.5), abs=1e-12)
        assert report.probability == Fraction(2, 7)

    def test_no_privacy_constraint_means_blind_guessing(self):
        profile = distance_profile(build_petersen())
        report = posterior_entropy_bound(profile, ONE)
        assert report.exact_core == 10
        assert report.bits == pytest.approx(math.log2(10), abs=1e-12)

    def test_petersen_half(self):
        profile = DistanceProfile((1, 3, 6))
        report = posterior_entropy_bound(profile, HALF)
        assert report.exact_core == 4
        assert report.bits == 2.0


class TestUtilityBound:
    def test_clique6(self):
        profile = distance_profile(build_clique(6))
        assert utility_bound(profile, HALF).probability == Fraction(2, 7)

    def test_blind_guessing_at_r_one(self):
        profile = distance_profile(build_petersen())
        assert utility_bound(profile, ONE).probability == Fraction(1, 10)

    def test_even_cycle(self):
        profile = DistanceProfile((1, 2, 2, 1))
        assert utility_bound(profile, HALF).probability == Fraction(8, 21)

    def test_duality_with_the_entropy_bound(self):
        profile = DistanceProfile((1, 4, 4))
        for pp in (HALF, THIRD, ONE):
            ent = posterior_entropy_bound(profile, pp)
            util = utility_bound(profile, pp)
            assert util == ent
            assert util.probability == 1 / ent.exact_core


class TestHammingLeakageBound:
    def test_no_privacy_leaks_nothing(self):
        assert hamming_leakage_bound(7, 3, ONE).bits == 0.0

    def test_two_bit_domain_at_half(self):
        report = hamming_leakage_bound(2, 2, HALF)
        assert report.bits == pytest.approx(2 * math.log2(Fraction(4, 3)), abs=1e-12)
        assert report.exact_core == Fraction(9, 4)

    def test_tiny_r_approaches_total_disclosure(self):
        tiny = PrivacyParameter(Fraction(1, 10**6))
        report = hamming_leakage_bound(3, 4, tiny)
        assert report.bits < 3 * math.log2(4)
        assert report.bits == pytest.approx(3 * math.log2(4), abs=1e-4)

    def test_matches_profile_derivation(self):
        for u in range(1, 5):
            for v in (2, 3, 4):
                for pp in (HALF, THIRD, ONE):
                    ent = posterior_entropy_bound(hamming_profile(u, v), pp)
                    leak = hamming_leakage_bound(u, v, pp)
                    assert leak.exact_core == ent.exact_core
                    assert leak.bits == pytest.approx(
                        u * math.log2(v) - ent.bits, abs=1e-12)


class TestIndividualLeakageBound:
    def test_binary_value_at_half(self):
        report = individual_leakage_bound(2, HALF)
        assert report.bits == pytest.approx(math.log2(Fraction(4, 3)), abs=1e-12)

    def test_no_privacy_no_leakage(self):
        assert individual_leakage_bound(9, ONE).bits == 0.0

    def test_six_values_matches_clique_leakage(self):
        report = individual_leakage_bound(6, HALF)
        assert report.bits == pytest.approx(math.log2(Fraction(12, 7)), abs=1e-12)
        matrix = optimal_mechanism(build_clique(6), HALF).matrix
        assert leakage(Prior.uniform(6), matrix) == pytest.approx(report.bits, abs=1e-12)

    def test_is_the_value_clique_bound(self):
        for v in range(2, 7):
            profile = distance_profile(build_clique(v))
            assert (individual_leakage_bound(v, HALF).exact_core
                    == profile_core(profile, HALF))

    def test_is_the_one_participant_domain_bound(self):
        for v in range(2, 7):
            for pp in (HALF, THIRD, ONE):
                assert individual_leakage_bound(v, pp) == hamming_leakage_bound(1, v, pp)


class TestHammingIdentity:
    def test_cube_at_half(self):
        assert hamming_identity_check(3, 2, HALF)
        assert hamming_profile(3, 2).counts == (1, 3, 3, 1)
        assert profile_core(hamming_profile(3, 2), HALF) == Fraction(27, 8)

    def test_single_participant(self):
        for v in (2, 3, 7):
            for pp in (HALF, THIRD, ONE):
                assert hamming_identity_check(1, v, pp)

    def test_four_participants_three_values(self):
        assert hamming_identity_check(4, 3, THIRD)
        assert profile_core(hamming_profile(4, 3), THIRD) == Fraction(5, 3) ** 4

    def test_profile_matches_constructed_graph(self):
        g = build_hamming(3, 3)
        assert distance_profile(g).counts == hamming_profile(3, 3).counts


class TestMonotonicity:
    def test_bounds_move_with_r(self):
        profile = DistanceProfile((1, 3, 6))
        rs = [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1)]
        entropies = [posterior_entropy_bound(profile, PrivacyParameter(r)).bits for r in rs]
        utilities = [utility_bound(profile, PrivacyParameter(r)).probability for r in rs]
        assert entropies == sorted(entropies)
        assert utilities == sorted(utilities, reverse=True)


class TestBoundReport:
    def test_a_report_is_its_core_and_bits(self):
        report = utility_bound(DistanceProfile((1, 2, 2, 1)), HALF)
        assert report == BoundReport(Fraction(21, 8), log2_fraction(Fraction(21, 8)))
        assert report.probability == Fraction(8, 21)

    def test_every_report_derives_its_success_ceiling(self):
        assert hamming_leakage_bound(2, 2, HALF).probability == Fraction(4, 9)
        assert individual_leakage_bound(6, HALF).probability == Fraction(2, 7)

    def test_core_floor(self):
        with pytest.raises(ValueError, match="^the core sum is at least 1"):
            BoundReport(Fraction(1, 2), -1.0)
