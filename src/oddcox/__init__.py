"""Computation with odd Coxeter groups whose diagrams are trees.

Library plus CLI covering the word problem (ShortLex normal forms from
the Brink-Howlett small-root automaton), the rank-and-multiset
isomorphism test, construction and factorization of automorphisms of
star presentations, splitting analysis of the automorphism extensions
via unit groups mod m, commutator and pure-subgroup presentations,
twisted-conjugacy counts by Burnside's lemma, and brute-force
searches (Cayley balls, bounded searches) that cross-check the
structural results at desk scale.

Submodules load on first use (PEP 562): ``import oddcox`` loads none of
them, and reading ``oddcox.<name>`` imports only the submodule that
defines the name.  A CLI process therefore loads only the modules its
command runs.
"""

from importlib import import_module

_EXPORTS = {
    "core": (
        "INFINITY",
        "Classification",
        "CoxeterSystem",
        "StarForm",
        "SystemInvariant",
        "canonical_star",
        "classify",
        "decide_isomorphic",
        "invariants",
        "merge_generators",
        "path_system",
        "star_form",
        "system_from_json",
        "system_to_json",
        "validate_system",
    ),
    "words": (
        "alternating",
        "conjugate",
        "dihedral_log",
        "equal",
        "format_word",
        "inverse_word",
        "involution_to_base",
        "left_descents",
        "multiply",
        "parse_word",
        "reduce_word",
        "support",
        "word_length",
    ),
    "oracle": ("CayleyBall", "ball_search", "cayley_ball"),
    "autkit": (
        "AutFactorization",
        "Endomorphism",
        "apply",
        "compose",
        "endo_from_json",
        "endo_to_json",
        "factorize",
        "graph_auto",
        "identity_endo",
        "inner_auto",
        "invert_factorization",
        "is_inner",
        "make_endo",
        "normality_witness",
        "recompose",
        "theta_auto",
        "theta_product",
        "try_invert",
        "verify_endo",
    ),
    "units": (
        "ComplementD",
        "OutDescriptor",
        "UnitGroupStructure",
        "c_structure",
        "out_descriptor",
        "split_inn_c",
        "unit_group",
    ),
    "pathgroups": (
        "CommutatorStructure",
        "FinitePresentation",
        "Permutation",
        "PureWitness",
        "build_ln",
        "commutator_presentation",
        "free_rank",
        "is_pure",
        "pi_image",
        "pl_witness",
        "rs_kernel",
        "twisted_count",
    ),
}
# name -> submodule defining it; a submodule's own name maps to itself
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULE.update((module, module) for module in (*_EXPORTS, "errors"))

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_SUBMODULE[name]}")
    if name == _SUBMODULE[name]:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
