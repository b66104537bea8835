"""Endomorphisms and automorphisms of star-form groups.

An endomorphism is stored as the list of generator images.  Verified
automorphisms of a star factor as

    e = inner(x^-1) o graph(perm) o exponent_product(cvec)

where perm permutes leaves within blocks of equal exponent and cvec
collects, per leaf i, the exponent k of the reflection map
w_i -> w_1 (w_1 w_i)^k.  ``factorize`` recovers the three parts and
checks the recomposition; failure of any step is reported as
``NotAutomorphism``, which doubles as the non-surjectivity detector used
by ``try_invert``.  Inverses and normality witnesses are computed from
the three factors, so each image is reduced once.

Composition convention: compose(e1, e2) applies e2 first.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

from .core import CoxeterSystem, StarForm, _Record, merge_generators
from .errors import (
    BadThetaExponent,
    BlockViolatingPermutation,
    EndoFileError,
    IsInnerNoWitness,
    NoMergeWitness,
    NotAutomorphism,
    NotInvolution,
    NotSurjective,
)
from .words import (
    DEFAULT_ORBIT_BUDGET,
    Word,
    _dihedral_position,
    alternating,
    check_word,
    inverse_word,
    involution_to_base,
    reduce_word,
)


class Endomorphism(_Record):
    """Generator-image list over a fixed ambient system."""

    system: CoxeterSystem
    images: tuple  # images[i - 1] is the image word of generator i

    def image_of(self, i: int):
        return self.images[i - 1]


def make_endo(sys: CoxeterSystem, images: Sequence[Sequence[int]]) -> Endomorphism:
    if len(images) != sys.rank:
        raise EndoFileError(
            f"expected {sys.rank} generator images, got {len(images)}"
        )
    return Endomorphism(
        system=sys, images=tuple(check_word(sys, w) for w in images)
    )


def identity_endo(sys: CoxeterSystem) -> Endomorphism:
    return Endomorphism(system=sys, images=tuple((i,) for i in sys.generators))


def apply(
    sys: CoxeterSystem,
    e: Endomorphism,
    word: Sequence[int],
    budget: int = DEFAULT_ORBIT_BUDGET,
):
    """Canonical form of the image of a word: substitute letterwise, reduce."""
    # identity first: compose calls this once per generator with the same system
    if e.system is not sys and e.system != sys:
        raise NotAutomorphism("endomorphism belongs to a different system")
    word = check_word(sys, word)
    out: list[int] = []
    for letter in word:
        out.extend(e.image_of(letter))
    return reduce_word(sys, tuple(out), budget)


def satisfies_relations(
    sys: CoxeterSystem, e: Endomorphism, budget: int = DEFAULT_ORBIT_BUDGET
) -> bool:
    """Do the images satisfy every defining relation of the system?"""
    for i in sys.generators:
        if apply(sys, e, (i, i), budget) != ():
            return False
    for i, j, m in sys.finite_pairs():
        if apply(sys, e, alternating(i, j, 2 * m), budget) != ():
            return False
    return True


def verify_endo(
    star: StarForm, e: Endomorphism, budget: int = DEFAULT_ORBIT_BUDGET
) -> bool:
    return satisfies_relations(star.system, e, budget)


def inner_auto(
    star: StarForm, x: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
) -> Endomorphism:
    """Conjugation by x: every generator g maps to x g x^-1."""
    # check before reversing, so a bad letter is reported in the order given
    xinv = inverse_word(check_word(star.system, x))
    ones = (1,) * (star.rank - 1)
    f = AutFactorization(inner=xinv, cvec=ones, perm=tuple(star.leaves))
    return recompose(star, f, budget)


def theta_auto(
    star: StarForm, i: int, k: int, budget: int = DEFAULT_ORBIT_BUDGET
) -> Endomorphism:
    """Reflection-rescaling map fixing all generators but leaf i,
    which is sent to w_1 (w_1 w_i)^k; requires gcd(k, t_i) = 1."""
    if i not in star.leaves:
        raise BadThetaExponent(f"{i} is not a leaf")
    t = star.t_of(i)
    if not (1 <= k < t) or math.gcd(k, t) != 1:
        raise BadThetaExponent(f"exponent {k} invalid for leaf of label {t}")
    cvec = [1] * (star.rank - 1)
    cvec[i - 2] = k
    return theta_product(star, cvec, budget)


def _normalize_perm(star: StarForm, perm) -> tuple:
    """Leaf permutation as a tuple indexed by leaf - 2; validates blocks."""
    if isinstance(perm, dict):
        images = [perm.get(i, i) for i in star.leaves]
    else:
        images = list(perm)
    if sorted(images) != list(star.leaves):
        raise BlockViolatingPermutation(f"{images} is not a permutation of the leaves")
    for leaf, image in zip(star.leaves, images):
        if star.t_of(leaf) != star.t_of(image):
            raise BlockViolatingPermutation(
                f"leaf {leaf} (label {star.t_of(leaf)}) may not map to "
                f"{image} (label {star.t_of(image)})"
            )
    return tuple(images)


def graph_auto(star: StarForm, perm) -> Endomorphism:
    """Diagram symmetry: permutes leaves within equal-label blocks."""
    ones = (1,) * (star.rank - 1)
    f = AutFactorization(inner=(), cvec=ones, perm=_normalize_perm(star, perm))
    return recompose(star, f)


def theta_product(
    star: StarForm, cvec: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
) -> Endomorphism:
    """Product of leaf maps with the given exponents, ascending leaf order."""
    identity = tuple(star.leaves)
    f = AutFactorization(inner=(), cvec=tuple(cvec), perm=identity)
    return recompose(star, f, budget)


def _check_cvec(star: StarForm, cvec: Sequence[int]) -> tuple:
    """The exponent vector as a tuple, each entry a unit mod its leaf label."""
    if len(cvec) != star.rank - 1:
        raise BadThetaExponent(
            f"expected {star.rank - 1} exponents, got {len(cvec)}"
        )
    for leaf, k in zip(star.leaves, cvec):
        t = star.t_of(leaf)
        if not (1 <= k < t) or math.gcd(k, t) != 1:
            raise BadThetaExponent(f"exponent {k} invalid for leaf {leaf}")
    return tuple(cvec)


def compose(
    e1: Endomorphism, e2: Endomorphism, budget: int = DEFAULT_ORBIT_BUDGET
) -> Endomorphism:
    """compose(e1, e2)(w) = e1(e2(w))."""
    if e1.system != e2.system:
        raise NotAutomorphism("cannot compose endomorphisms of different systems")
    sys = e1.system
    return Endomorphism(
        system=sys,
        images=tuple(
            apply(sys, e1, e2.image_of(g), budget) for g in sys.generators
        ),
    )


class AutFactorization(_Record):
    """Inner word x, leaf permutation, and exponent vector of an automorphism.

    The factored map is inner(x^-1) o graph(perm) o exponent_product(cvec);
    perm is stored as the image tuple for leaves 2..n, cvec likewise.
    """

    inner: tuple
    cvec: tuple
    perm: tuple

    def perm_of(self, leaf: int) -> int:
        return self.perm[leaf - 2]

    def perm_is_identity(self) -> bool:
        return all(self.perm_of(i) == i for i in range(2, len(self.perm) + 2))


def _core(f: AutFactorization, g: int) -> Word:
    """Image of generator g under graph(perm) o exponent_product(cvec):
    the center is fixed and leaf g goes to w_1 (w_1 w_perm(g))^k."""
    if g == 1:
        return (1,)
    return (1,) + alternating(1, f.perm_of(g), 2) * f.cvec[g - 2]


def _checked_inner(star: StarForm, f: AutFactorization) -> Word:
    """The inner word of f, once its permutation and exponents are validated."""
    _normalize_perm(star, f.perm)
    _check_cvec(star, f.cvec)
    return check_word(star.system, f.inner)


def recompose(
    star: StarForm, f: AutFactorization, budget: int = DEFAULT_ORBIT_BUDGET
) -> Endomorphism:
    sys = star.system
    x = _checked_inner(star, f)
    xinv = inverse_word(x)
    return Endomorphism(
        system=sys,
        images=tuple(
            reduce_word(sys, xinv + _core(f, g) + x, budget) for g in sys.generators
        ),
    )


def invert_factorization(
    star: StarForm, f: AutFactorization, budget: int = DEFAULT_ORBIT_BUDGET
) -> AutFactorization:
    """Factors of the inverse automorphism, computed from the factors.

    With psi = graph(perm) o exponent_product(cvec) the map is
    inner(x^-1) o psi, so its inverse is psi^-1 o inner(x), which equals
    inner(psi^-1(x)) o psi^-1.  Conjugating an exponent product by a
    diagram symmetry permutes its exponents, so
    psi^-1 = graph(perm^-1) o exponent_product(c') with
    c'_g = cvec_(perm^-1(g))^-1 mod t_g; the inner word is the reversal
    of psi^-1(x).
    """
    sys = star.system
    x = check_word(sys, f.inner)
    back = {j: i for i, j in zip(star.leaves, _normalize_perm(star, f.perm))}
    cvec = _check_cvec(star, f.cvec)
    psi = AutFactorization(
        inner=(),
        cvec=tuple(pow(cvec[back[g] - 2], -1, star.t_of(g)) for g in star.leaves),
        perm=tuple(back[g] for g in star.leaves),
    )
    image = reduce_word(sys, tuple(a for g in x for a in _core(psi, g)), budget)
    return AutFactorization(inner=inverse_word(image), cvec=psi.cvec, perm=psi.perm)


def factorize(
    star: StarForm, e: Endomorphism, budget: int = DEFAULT_ORBIT_BUDGET
) -> AutFactorization:
    """Factor a verified endomorphism, or prove it is no automorphism.

    Steps: conjugate the image of the center back to the center; each leaf
    image must then be a reflection inside exactly one maximal dihedral
    subgroup, which pins the leaf permutation and the exponent vector;
    finally the recomposition must reproduce the input on every generator.
    """
    sys = star.system
    if e.system != sys:
        raise NotAutomorphism("cannot compose endomorphisms of different systems")
    images = tuple(reduce_word(sys, w, budget) for w in e.images)
    if images[0] == ():
        raise NotAutomorphism("center generator maps to the identity")
    try:
        x = involution_to_base(star, images[0], budget)
    except NotInvolution as exc:
        raise NotAutomorphism(f"center image is not an involution: {exc}") from exc
    xinv = inverse_word(x)
    perm = {}
    cvec = {}
    for i in star.leaves:
        # the leaf's image under psi = inner(x) o e
        u = reduce_word(sys, x + images[i - 1] + xinv, budget)
        letters = set(u)
        leaf_letters = letters - {1}
        if len(leaf_letters) != 1:
            raise NotAutomorphism(
                f"image of leaf {i} has support {sorted(letters)}, "
                "expected exactly one maximal dihedral subgroup"
            )
        (j,) = leaf_letters
        parity, k = _dihedral_position(star.t_of(j), u)
        if parity != "odd":
            raise NotAutomorphism(f"image of leaf {i} is a rotation, not a reflection")
        if star.t_of(i) != star.t_of(j):
            raise NotAutomorphism(
                f"leaf {i} (label {star.t_of(i)}) maps into the subgroup of "
                f"leaf {j} (label {star.t_of(j)})"
            )
        if k < 1 or math.gcd(k, star.t_of(j)) != 1:
            raise NotAutomorphism(
                f"leaf {i} maps to a reflection of non-coprime exponent {k}"
            )
        if j in perm.values():
            raise NotAutomorphism(f"two leaves map into the subgroup of leaf {j}")
        perm[i] = j
        cvec[i] = k
    f = AutFactorization(
        inner=x,
        cvec=tuple(cvec[i] for i in star.leaves),
        perm=tuple(perm[i] for i in star.leaves),
    )
    rebuilt = recompose(star, f, budget)
    for g in sys.generators:
        if rebuilt.image_of(g) != images[g - 1]:
            raise NotAutomorphism(
                f"recomposition differs from the input on generator {g}"
            )
    return f


def is_inner(star: StarForm, f: AutFactorization) -> bool:
    """Inner exactly when the permutation is trivial and the exponent
    vector is all ones or all (t_i - 1): those are the only members of the
    abelian part that conjugation can produce."""
    if not f.perm_is_identity():
        return False
    all_one = all(k == 1 for k in f.cvec)
    all_minus = all(
        k == star.t_of(i) - 1 for i, k in zip(star.leaves, f.cvec)
    )
    return all_one or all_minus


class NormalityWitness(_Record):
    """Element g of the merge-quotient kernel whose image escapes it."""

    g: tuple
    merge: tuple
    evidence: tuple
    quotient: CoxeterSystem
    mapping: tuple


def normality_witness(
    star: StarForm, f: AutFactorization, budget: int = DEFAULT_ORBIT_BUDGET
) -> NormalityWitness:
    """Witness that a non-inner automorphism moves some normal subgroup.

    The normal subgroup is the kernel N of a generator merge; the witness
    is g in N whose image under the automorphism maps to a nontrivial
    element of the quotient.  A moved leaf gives g = w_1 w_i with the
    center merge (1, i); differing exponents at leaves i, j with
    gcd(t_i, t_j) > 1 give g = w_i w_j with the leaf merge (i, j).
    When neither case applies no merge quotient can tell the automorphism
    from a normal one and the search fails explicitly.
    """
    x = _checked_inner(star, f)
    if is_inner(star, f):
        raise IsInnerNoWitness("inner automorphisms preserve every normal subgroup")
    sys = star.system
    xinv = inverse_word(x)

    def certified(g, pair):
        quotient, mapping = merge_generators(star, *pair)
        # the image of g = g1 g2 under inner(x^-1) o psi
        image = reduce_word(sys, xinv + _core(f, g[0]) + _core(f, g[1]) + x, budget)
        pushed = tuple(mapping[letter - 1] for letter in image)
        evidence = reduce_word(quotient, pushed, budget)
        if evidence == ():
            return None
        kernel_check = tuple(mapping[letter - 1] for letter in g)
        if reduce_word(quotient, kernel_check, budget) != ():
            raise NoMergeWitness("witness candidate does not lie in the kernel")
        return NormalityWitness(
            g=g, merge=pair, evidence=evidence, quotient=quotient, mapping=mapping
        )

    for i in star.leaves:
        if f.perm_of(i) != i:
            witness = certified((1, i), (1, i))
            if witness is not None:
                return witness
    for i in star.leaves:
        for j in range(i + 1, star.rank + 1):
            d = math.gcd(star.t_of(i), star.t_of(j))
            if d > 1 and f.cvec[i - 2] % d != f.cvec[j - 2] % d:
                witness = certified((i, j), (i, j))
                if witness is not None:
                    return witness
    raise NoMergeWitness(
        "no generator-merge quotient separates this automorphism from a normal one"
    )


def try_invert(
    star: StarForm, e: Endomorphism, budget: int = DEFAULT_ORBIT_BUDGET
) -> Endomorphism:
    """Invert a verified endomorphism or prove it not surjective.

    A verified endomorphism that factorizes is an automorphism and its
    factors invert (``invert_factorization``); one that does not factorize
    cannot be onto.
    """
    try:
        f = factorize(star, e, budget)
    except NotAutomorphism as exc:
        raise NotSurjective(f"endomorphism is not onto: {exc}") from exc
    inverse = recompose(star, invert_factorization(star, f, budget), budget)
    ident = identity_endo(star.system)
    forward = compose(e, inverse, budget)
    backward = compose(inverse, e, budget)
    for g in star.system.generators:
        if forward.image_of(g) != ident.image_of(g) or backward.image_of(
            g
        ) != ident.image_of(g):
            raise NotSurjective("inverse check failed; endomorphism is not onto")
    return inverse


# automorphism file format: {"images": [[1], [1, 2, 1], [3]]}


def endo_to_json(e: Endomorphism) -> str:
    return json.dumps({"images": [list(w) for w in e.images]})


def endo_from_json(sys: CoxeterSystem, text: str) -> Endomorphism:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EndoFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "images" not in data:
        raise EndoFileError("top level must be an object with field 'images'")
    images = data["images"]
    if not isinstance(images, list):
        raise EndoFileError("'images' must be an array of words")
    if len(images) != sys.rank:
        raise EndoFileError(
            f"images[]: expected {sys.rank} words, got {len(images)}"
        )
    for idx, word in enumerate(images):
        if not isinstance(word, list) or not all(
            isinstance(letter, int) and not isinstance(letter, bool)
            for letter in word
        ):
            raise EndoFileError(f"images[{idx}]: must be an array of integers")
        for letter in word:
            if not (1 <= letter <= sys.rank):
                raise EndoFileError(
                    f"images[{idx}]: letter {letter} out of range 1..{sys.rank}"
                )
    return make_endo(sys, [tuple(w) for w in images])
