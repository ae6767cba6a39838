"""Exact classification of Calabi-Yau complete intersections in G2 homogeneous spaces.

The package builds the G2 root system from its Cartan matrix, computes
cohomology of equivariant bundles on the three homogeneous spaces G/P1, G/P2
and G/B, enumerates the globally generated bundles whose general sections cut
out Calabi-Yau complete intersections, and extracts their numerical
invariants (Hodge numbers, degree, second Chern number), all in exact
integer arithmetic.

``import g2cy`` loads none of its modules: the namespace imports each one on
first use, when one of its names (or the module itself) is looked up.  Every CLI
command loads ``errors``, ``root_system``, ``reps`` and ``parabolic``; ``table``
and ``classify`` add ``classify``, ``cohomology`` adds ``cohomology``, and
``invariants`` adds ``invariants``, ``koszul``, ``cohomology`` and ``classify``.
"""

from importlib import import_module

__version__ = "0.1.0"

#: the public names, by the module that defines them
_EXPORTS = {
    "errors": "G2CYError",
    "root_system": "G2_CARTAN CartanMatrix Root RootSystem Weight WeylElement "
                   "build_root_system g2_root_system",
    "parabolic": "ParabolicData g2_parabolic is_g_dominant",
    "reps": "RepSum decompose dual exterior_power irrep tensor trivial",
    "cohomology": "bundle_cohomology bwb_irrep euler_char weyl_dim",
    "koszul": "DimRange E1Page KoszulInput RestrictedCohomology e1_page hilbert_value "
              "koszul_terms restricted_cohomology",
    "invariants": "Candidate HodgeRecord degree_and_c2 hodge_numbers to_record validate_candidate",
    "classify": "TableRow diff_against_paper enumerate_all enumerate_candidates "
                "published_invariants reference_tables verify_theorem",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    """Import a module, or the module that defines a public name (PEP 562)."""
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = import_module(f"{__name__}.{module}")
    return home if module == name else getattr(home, name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
