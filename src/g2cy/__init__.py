"""Exact classification of Calabi-Yau complete intersections in G2 homogeneous spaces.

The package builds the G2 root system from its Cartan matrix, computes
cohomology of equivariant bundles on the three homogeneous spaces G/P1, G/P2
and G/B, enumerates the globally generated bundles whose general sections cut
out Calabi-Yau complete intersections, and extracts their numerical
invariants (Hodge numbers, degree, second Chern number), all in exact
integer arithmetic.
"""

from .classify import (TableRow, diff_against_paper, enumerate_all,
                       enumerate_candidates, published_invariants,
                       reference_tables, verify_theorem)
from .cohomology import (CohomologyTable, bundle_cohomology, bwb_irrep,
                         euler_char, weyl_dim)
from .errors import G2CYError
from .invariants import (Candidate, HodgeRecord, degree_and_c2, hodge_numbers,
                         to_record, validate_candidate)
from .koszul import (DimRange, E1Page, KoszulInput, RestrictedCohomology,
                     e1_page, hilbert_value, koszul_terms,
                     restricted_cohomology)
from .parabolic import ParabolicData, g2_parabolic, is_g_dominant
from .reps import (RepSum, decompose, dual, exterior_power, irrep, irrep_det,
                   irrep_dim, irrep_weights, tensor, trivial)
from .root_system import (G2_CARTAN, CartanMatrix, Root, RootSystem, Weight,
                          WeylElement, build_root_system, g2_root_system)

__version__ = "0.1.0"

__all__ = [
    "G2CYError", "G2_CARTAN", "CartanMatrix", "Root", "RootSystem", "Weight",
    "WeylElement", "build_root_system", "g2_root_system",
    "ParabolicData", "g2_parabolic", "is_g_dominant",
    "RepSum", "decompose", "dual", "exterior_power", "irrep", "irrep_det",
    "irrep_dim", "irrep_weights", "tensor", "trivial",
    "CohomologyTable", "bundle_cohomology", "bwb_irrep", "euler_char",
    "weyl_dim",
    "DimRange", "E1Page", "KoszulInput", "RestrictedCohomology", "e1_page",
    "hilbert_value", "koszul_terms", "restricted_cohomology",
    "Candidate", "HodgeRecord", "degree_and_c2", "hodge_numbers",
    "to_record", "validate_candidate",
    "TableRow", "diff_against_paper", "enumerate_all", "enumerate_candidates",
    "published_invariants", "reference_tables", "verify_theorem",
]
