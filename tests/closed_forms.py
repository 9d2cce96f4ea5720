"""The product domain's closed forms, kept as test oracles for the bounds.

On u participants over v values the distance profile is binomial,
n_d = C(u, d) (v-1)^d, and the bounds' core sum_d n_d r^d collapses to
((v-1) r + 1)^u.  The tests check that collapse exactly rather than trust it.
"""

import math

from dpchannel import DistanceProfile, profile_core


def hamming_profile(u, v):
    """The binomial profile of the (u, v) product domain, from the closed form."""
    return DistanceProfile(tuple(math.comb(u, d) * (v - 1) ** d for d in range(u + 1)))


def hamming_identity_check(u, v, pp):
    """Exactly verify sum_d C(u,d) (v-1)^d r^d == ((v-1) r + 1)^u."""
    return profile_core(hamming_profile(u, v), pp) == ((v - 1) * pp.r + 1) ** u
