"""Every demo script runs to completion against the library in ``src/``, and
the library's public names are pinned."""

import os
import pathlib
import subprocess
import sys
import types

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, str(script)], env=env, cwd=REPO,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


# The public names, sorted: adding or dropping one shows in this list's diff.
PUBLIC_NAMES = [
    "AutomorphismFamily", "BaseDependentProfileError", "BoundReport", "CanonicalForm",
    "ChannelMatrix", "DEFAULT_LN_TOL", "DEFAULT_SEARCH_EFFORT", "DEFAULT_SIZE_CAP",
    "DisconnectedGraphError", "DistanceMatrix", "DistanceProfile", "DpAudit", "Graph",
    "InternalError", "IntersectionArray", "MechanismBundle", "Prior", "PrivacyParameter",
    "SearchBudgetError", "SearchReport", "SizeCapError", "SymmetryRequiredError",
    "UNREACHABLE", "VtPlusCertificate", "as_fraction", "automorphism_group", "build_clique",
    "build_cycle", "build_family", "build_hamming", "build_path", "build_petersen",
    "canonicalize", "column_maxima_sum", "common_profile", "compose_oblivious",
    "distance_profile", "distances", "dp_audit", "f_map_from_csv", "format_fraction",
    "grid_search_optimal", "hamming_leakage_bound", "hamming_translation_family",
    "hillclimb_utility", "individual_leakage_bound", "is_distance_regular", "leakage",
    "log2_fraction", "min_capacity", "min_entropy", "optimal_mechanism",
    "posterior_entropy_bound", "posterior_min_entropy", "posterior_success",
    "prior_from_csv", "prior_to_csv", "profile_core", "random_dp_sample",
    "single_orbit_automorphism", "symmetrize_distance_regular", "symmetrize_vt_plus",
    "to_diagonal_form", "truncated_geometric_fixture", "utility", "utility_bound",
    "verify_family", "vt_plus_certificate",
]


def test_the_public_names_are_pinned():
    import dpchannel

    names = sorted(name for name in vars(dpchannel) if not name.startswith("_")
                   and not isinstance(getattr(dpchannel, name), types.ModuleType))
    assert names == PUBLIC_NAMES
    assert len(names) == 68
