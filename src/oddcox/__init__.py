"""Computation with odd Coxeter groups whose diagrams are trees.

Library plus CLI covering the word problem (ShortLex normal forms from
the Brink-Howlett small-root automaton), the rank-and-multiset
isomorphism test, construction and factorization of automorphisms of
star presentations, splitting analysis of the automorphism extensions
via unit groups mod m, commutator and pure-subgroup presentations,
twisted-conjugacy counts by Burnside's lemma, and brute-force oracles
(Cayley balls, dihedral tables, bounded searches) that cross-check the
structural results at desk scale.
"""

from .core import (
    INFINITY,
    Classification,
    CoxeterSystem,
    DiagramGamma,
    DiagramV,
    StarForm,
    SystemInvariant,
    canonical_star,
    classify,
    decide_isomorphic,
    diagram_gamma,
    diagram_v,
    invariants,
    merge_generators,
    path_system,
    star_form,
    system_from_json,
    system_to_json,
    validate_system,
)
from .words import (
    alternating,
    conjugate,
    dihedral_log,
    equal,
    format_word,
    inverse_word,
    involution_to_base,
    left_descents,
    multiply,
    parse_word,
    reduce_word,
    support,
    word_length,
)
from .oracle import CayleyBall, ball_search, cayley_ball, dihedral_model
from .autkit import (
    AutFactorization,
    Endomorphism,
    apply,
    compose,
    endo_from_json,
    endo_to_json,
    factorize,
    graph_auto,
    identity_endo,
    inner_auto,
    invert_factorization,
    is_inner,
    make_endo,
    normality_witness,
    recompose,
    theta_auto,
    theta_product,
    try_invert,
    verify_endo,
)
from .units import (
    ComplementD,
    OutDescriptor,
    UnitGroupStructure,
    c_structure,
    out_descriptor,
    split_inn_c,
    unit_group,
)
from .pathgroups import (
    CommutatorStructure,
    FinitePresentation,
    Permutation,
    PureWitness,
    build_ln,
    commutator_presentation,
    free_rank,
    is_pure,
    pi_image,
    pl_witness,
    rs_kernel,
    twisted_count,
)
