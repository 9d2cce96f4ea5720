"""Exact analysis of differential privacy as min-entropy information flow.

The library treats a randomised query mechanism as a channel matrix over a
graph-structured input domain, keeps every probability as an exact
rational, and connects three views of the same constraint:

* auditing: does a channel keep adjacent rows within e^epsilon?
* leakage: how much does it improve a one-try attacker's guess?
* utility: how often does an honest user recover the true answer?

On distance-regular and sharply vertex-transitive domains the three meet in
closed form, and the synthesiser produces the channel that is optimal for
all of them simultaneously.
"""

from .bounds import (
    BoundReport,
    hamming_identity_check,
    hamming_leakage_bound,
    hamming_profile,
    individual_leakage_bound,
    posterior_entropy_bound,
    profile_core,
    utility_bound,
)
from .channels import (
    ChannelMatrix,
    DEFAULT_LN_TOL,
    DpAudit,
    PrivacyParameter,
    Prior,
    ROUNDED_FIXTURE_LN_TOL,
    as_fraction,
    column_maxima_sum,
    dp_audit,
    format_fraction,
    leakage,
    log2_fraction,
    min_capacity,
    min_entropy,
    posterior_min_entropy,
    posterior_success,
    prior_from_csv,
    prior_to_csv,
)
from .graphs import (
    AutomorphismFamily,
    DEFAULT_SEARCH_EFFORT,
    DEFAULT_SIZE_CAP,
    DisconnectedGraphError,
    DistanceMatrix,
    DistanceProfile,
    Graph,
    InternalError,
    IntersectionArray,
    SearchBudgetError,
    SizeCapError,
    UNREACHABLE,
    VtPlusCertificate,
    automorphism_group,
    build_clique,
    build_cycle,
    build_family,
    build_hamming,
    build_path,
    build_petersen,
    common_profile,
    distance_profile,
    distances,
    hamming_translation_family,
    is_distance_regular,
    single_orbit_automorphism,
    verify_family,
    vt_plus_certificate,
)
from .mechanisms import (
    BaseDependentProfileError,
    GainFunction,
    GuessStrategy,
    MechanismBundle,
    compose_oblivious,
    f_map_from_csv,
    optimal_mechanism,
    tight_leakage_matrix,
    truncated_geometric_fixture,
    utility,
)
from .oracle import (
    SearchReport,
    grid_search_optimal,
    hillclimb_utility,
    random_dp_sample,
)
from .transforms import (
    CanonicalForm,
    SymmetryRequiredError,
    canonicalize,
    symmetrize_distance_regular,
    symmetrize_vt_plus,
    to_diagonal_form,
)

__version__ = "0.1.0"
