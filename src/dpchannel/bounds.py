"""Closed-form privacy/leakage/utility bounds driven by distance profiles.

For a channel over a graph whose distance profile does not depend on the
base vertex (distance-regular or sharply vertex-transitive domains), the
privacy constraint at level r = e^(-epsilon) caps a one-try attacker's
posterior success at 1 / sum_d n_d r^d, where n_d counts vertices at
distance d.  Everything here evaluates that core sum and its consequences
as exact rationals; bits appear only in the report.

On a product domain of u participants over v values the profile is
binomial, n_d = C(u, d) (v-1)^d, and the core collapses to the closed form
((v-1) r + 1)^u.
"""

from dataclasses import dataclass
from fractions import Fraction

from .channels import log2_fraction


@dataclass(frozen=True)
class BoundReport:
    """A bound in bits together with the exact rational core it derives from;
    ``probability``, the matching success ceiling, is the core's reciprocal."""

    exact_core: Fraction
    bits: float

    def __post_init__(self):
        if self.exact_core < 1:
            raise ValueError("the core sum is at least 1 (the base vertex itself)")

    @property
    def probability(self):
        return 1 / self.exact_core


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
    return BoundReport(core, log2_fraction(core))


def utility_bound(profile, pp):
    """Ceiling on binary utility under the uniform prior: the ``probability``
    of :func:`posterior_entropy_bound`, whose report this is."""
    return posterior_entropy_bound(profile, pp)


def hamming_leakage_bound(u, v, pp):
    """Leakage ceiling for a whole u-participant, v-value domain.

    Equals u * log2(v) minus the posterior-entropy bound of the binomial
    profile; the core ((v-1) r + 1)^u keeps that identity exact.
    """
    if u < 1 or v < 2:
        raise ValueError("need u >= 1 participants and v >= 2 values")
    core = ((v - 1) * pp.r + 1) ** u
    return BoundReport(core, log2_fraction(Fraction(v ** u) / core))


def individual_leakage_bound(v, pp):
    """Leakage ceiling about one participant's value; independent of how
    many other participants the domain has: the whole-domain bound of the
    v-clique, one participant over v values."""
    return hamming_leakage_bound(1, v, pp)
