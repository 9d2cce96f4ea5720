"""Closed-form privacy/leakage/utility bounds driven by distance profiles.

For a channel over a graph whose distance profile does not depend on the
base vertex (distance-regular or sharply vertex-transitive domains), the
privacy constraint at level r = e^(-epsilon) caps a one-try attacker's
posterior success at 1 / sum_d n_d r^d, where n_d counts vertices at
distance d.  Everything here evaluates that core sum and its consequences
as exact rationals; bits appear only in the report.

On a product domain of u participants over v values the profile is
binomial, n_d = C(u, d) (v-1)^d, and the core collapses to the closed form
((v-1) r + 1)^u; :func:`hamming_identity_check` verifies that collapse
exactly for given parameters.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .channels import format_fraction, log2_fraction
from .graphs import DistanceProfile

KIND_POSTERIOR_ENTROPY = "posterior_entropy"
KIND_LEAKAGE = "leakage"
KIND_INDIVIDUAL_LEAKAGE = "individual_leakage"
KIND_UTILITY = "utility"


@dataclass(frozen=True)
class BoundReport:
    """A bound value together with the exact rational core it derives from."""

    kind: str
    exact_core: Fraction
    bits: float | None
    probability: Fraction | None
    inputs: dict

    def __post_init__(self):
        if self.exact_core < 1:
            raise ValueError("the core sum is at least 1 (the base vertex itself)")

    def to_dict(self):
        return {
            "kind": self.kind,
            "bits": self.bits,
            "probability": None if self.probability is None else float(self.probability),
            "core_num": self.exact_core.numerator,
            "core_den": self.exact_core.denominator,
            "inputs": self.inputs,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def profile_core(profile, pp):
    """The exact discounted neighborhood mass sum_d n_d r^d."""
    r = pp.r
    return sum((n_d * r ** d for d, n_d in enumerate(profile.counts)), Fraction(0))


def posterior_entropy_bound(profile, pp):
    """Floor on the posterior guessing entropy of any channel at this level.

    The caller asserts the profile comes from a graph where it is
    base-independent; the value is log2 of the core in bits, and the
    matching success-probability ceiling is its reciprocal.
    """
    core = profile_core(profile, pp)
    return BoundReport(
        KIND_POSTERIOR_ENTROPY, core, log2_fraction(core), 1 / core,
        {"profile": list(profile.counts), "r": format_fraction(pp.r)})


def utility_bound(profile, pp):
    """Ceiling on binary utility under the uniform prior: 1 over the core."""
    core = profile_core(profile, pp)
    return BoundReport(
        KIND_UTILITY, core, None, 1 / core,
        {"profile": list(profile.counts), "r": format_fraction(pp.r), "prior": "uniform"})


def hamming_leakage_bound(u, v, pp):
    """Leakage ceiling for a whole u-participant, v-value domain.

    Equals u * log2(v) minus the posterior-entropy bound of the binomial
    profile; the core ((v-1) r + 1)^u keeps that identity exact.
    """
    if u < 1 or v < 2:
        raise ValueError("need u >= 1 participants and v >= 2 values")
    r = pp.r
    core = ((v - 1) * r + 1) ** u
    bits = log2_fraction(Fraction(v ** u) / core)
    return BoundReport(KIND_LEAKAGE, core, bits, None,
                       {"u": u, "v": v, "r": format_fraction(pp.r)})


def individual_leakage_bound(v, pp):
    """Leakage ceiling about one participant's value; independent of how
    many other participants the domain has.

    This is the whole-domain bound of the v-clique profile (1, v-1).
    """
    if v < 2:
        raise ValueError("need v >= 2 values")
    r = pp.r
    core = (v - 1) * r + 1
    bits = log2_fraction(Fraction(v) / core)
    return BoundReport(KIND_INDIVIDUAL_LEAKAGE, core, bits, None,
                       {"v": v, "r": format_fraction(pp.r)})


def hamming_identity_check(u, v, pp):
    """Exactly verify sum_d C(u,d) (v-1)^d r^d == ((v-1) r + 1)^u."""
    if u < 1 or v < 2:
        raise ValueError("need u >= 1 participants and v >= 2 values")
    return profile_core(hamming_profile(u, v), pp) == ((v - 1) * pp.r + 1) ** u


def hamming_profile(u, v):
    """The binomial profile of the (u, v) product domain, from the closed form."""
    counts = tuple(math.comb(u, d) * (v - 1) ** d for d in range(u + 1))
    return DistanceProfile(counts)
