"""Endomorphisms and automorphisms of star-form groups.

An endomorphism is stored as the list of generator images.  Verified
automorphisms of a star factor as

    e = inner(x^-1) o graph(perm) o exponent_product(cvec)

where perm permutes leaves within blocks of equal exponent and cvec
collects, per leaf i, the exponent k of the reflection map
w_i -> w_1 (w_1 w_i)^k.  The factors spell each image as x^-1 core x,
where a core is the ShortLex normal form of the center or of
w_1 (w_1 w_j)^k, read off from k and t_j alone.  ``recompose`` reduces x
once and joins the canonical words x^-1, core and x at their two seams
(``words._joined``), so it reduces an image only when a seam fails.

``classify_endo`` reads an image list of a star once: the conjugator x
with x e(1) x^-1 = w_1 (``involution_to_base``), the normal form u_g of
x e(g) x^-1 for every generator g, and for each leaf the dihedral
subgroup D_j = <w_1, w_j> that u_i lies in and its position k there.
Every endomorphism has this description, by the fixed-tree argument.
The star is the amalgam of the finite dihedral groups D_j over <w_1>,
so W acts on its Bass-Serre tree, and a finite group acting on a tree
fixes a vertex (Serre, *Trees*, I.4.3).  The vertices that w_1 fixes
are the vertex of <w_1> and the vertices of D_2, ..., D_n: in the odd
dihedral group D_j the reflection w_1 commutes with no element outside
<w_1>, so w_1 fixes no other neighbour of D_j, and a fixed-point set is
a subtree.  Now if e is an endomorphism with e(1) != 1, then e(1) is
an involution, conjugate to w_1, and for each leaf i the group
<w_1, u_i> is a quotient of the dihedral group of order 2 t_i, so
finite.  It fixes a vertex that w_1 fixes, so it lies in <w_1> or in
one D_j: u_i is a reflection w_1 (w_1 w_j)^k of one D_j (u_i = w_1 when
k = 0; u_i = 1 would give w_1^(t_i) = 1), and (w_1 u_i)^(t_i) =
(w_1 w_j)^(k t_i) = 1 says that t_j / gcd(k, t_j) divides t_i.
Conversely those images satisfy every relator.  If e(1) = 1, the
relators give e(i)^2 = e(i)^(t_i) = 1 with t_i odd, so every image is
trivial.  ``verify_endo`` decides from the classification, with no
relator word reduced; so the star (3, 100001) with images (1), (2),
(2 3 2) is refused at once, as u_3 = (2 3 2) lies in no D_j, where
testing the relator (1 3)^100001 reduces a word of 400,000 letters.

``factorize`` reads the same classification.  It reads perm and cvec
off the conjugates, validates them with ``_checked`` (the validator
``recompose`` uses) and certifies them by checking that each u_g is the
core of g letter for letter; failure of any step is reported as
``NotAutomorphism``, which doubles as the non-surjectivity detector
used by ``try_invert``.  Inverses and normality witnesses are computed
from the three factors.  A conjugate x e(g) x^-1 of an image, whose
letters are not known to be canonical, first cancels equal letters
across its two seams with ``words._free_join``, the free reduction that
``recompose``'s joins use, and the word engine reads only what is left.

Each record is classified once per budget.  ``classify_endo`` stores a
successful classification on the ``Endomorphism`` itself, as a derived
attribute that is no field, keyed by the budget it was computed at: a
call with the same budget returns it, a call with any other budget
reads the images again and replaces it when that succeeds.  Refusals
are not stored.  A record freezes its images when it is built and the
word engine keeps no state, so the classification is a function of the
record and the budget, and storing it is exact.  So ``verify_endo``,
``factorize`` and the ``factorize`` inside ``try_invert``, called on one
record, read its images once.  A record that ``_recompose`` or
``compose`` builds carries its factored form from birth (``_form``, by
the same rules: keyed by the budget it was built with, and no field), so
at that budget ``classify_endo`` reads it with its one
``involution_to_base`` call and reduces no image.

Endomorphisms of a star multiply in closed form (``_product``): with
e = inner(x^-1) o phi, where phi fixes w_1 and sends each leaf to a
reflection of one D_j or to w_1, the product e1 o e2 is
inner(x^-1) o phi1 o phi2 with x = phi1(x2) x1, one reduction, and
phi1 o phi2 composes the leaf targets and multiplies their exponents.
``compose_factors`` is its automorphism case, and
``invert_factorization`` is its inverse.  ``try_invert`` certifies the
inverse g of f there with the one product f o g, which must be
((), all 1, id) or ((1,), all t - 1, id), the two factorizations of the
identity; f and g are automorphisms, so g o f is then the identity too.
Since ``factorize`` proved e = recompose(f) letter for letter and the
product is exact, this certifies the returned images exactly, with no
image-level composition.  ``outer_key`` names the outer class of f, and
``is_inner`` asks whether that class is trivial.

Factors are validated once per public call, by ``_checked``: each public
function that takes an ``AutFactorization`` checks it on entry, and the
private bodies ``_recompose`` and ``_compose_factors`` trust factors
already checked.  So ``try_invert`` checks f once in ``factorize`` and
once in ``invert_factorization``, and the inverse, which that builds
from checked factors, is not checked again.  ``inner_auto``,
``graph_auto`` and ``theta_product`` check only their given factor; the
identity and all-ones factors they fill in are valid by construction.

Every letter of every image is checked once, when the ``Endomorphism``
is built, so no function here checks an image's letters again.
``apply`` works on any image list: it substitutes each letter's image
letter by letter and reduces the substituted word once.  ``compose``
takes the closed-form product when e1 is an endomorphism of a star and
every leaf of e2 goes to a reflection, and joins its images at their
seams as ``recompose`` does; elsewhere (off stars, for an e1 that is no
endomorphism, and past the budget) it substitutes as ``apply`` does.
``satisfies_relations`` decides the relators on any system, star or
not (``pathgroups.pl_witness`` uses it), and tests each relator on a
short conjugate, as its docstring proves, instead of reducing a word 2m
images long.

Composition convention: compose(e1, e2) applies e2 first.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence

from .core import INFINITY, CoxeterSystem, StarForm, _Record, merge_generators
from .errors import (
    BadThetaExponent,
    BlockViolatingPermutation,
    EndoFileError,
    IsInnerNoWitness,
    NoMergeWitness,
    NotAutomorphism,
    NotInvolution,
    NotStarForm,
    NotSurjective,
    OrbitBudgetExceeded,
)
from .words import (
    DEFAULT_ORBIT_BUDGET,
    Word,
    _dihedral_position,
    _free_join,
    _is_int,
    _joined,
    _reduce,
    alternating,
    check_word,
    inverse_word,
    involution_to_base,
)


class Endomorphism(_Record):
    """Generator-image list over a fixed ambient system.

    Building one checks that there is one image per generator, or raises
    ``EndoFileError``, and then checks and freezes each image in image
    order with ``check_word``, which raises ``BadLetter`` for the first
    bad letter.  So the images can never change after the record is
    built, and every function that reads them may trust their letters.

    ``_classified`` is derived and not a field: None, or the pair
    (budget, ``EndoClass``) that the last successful ``classify_endo``
    call stored.  ``_form`` is derived too: None, or the factored form
    (budget, star, x, targets) that ``_born`` stored when it spelled the
    images as x^-1 phi(g) x, phi sending the center to w_1 and leaf i to
    w_1 (w_1 w_j)^k for targets[i - 2] = (j, k), 0 < k < t_j, or to w_1
    for None.  Equality, hash, repr, pickling and copying read only the
    fields.
    """

    system: CoxeterSystem
    images: tuple  # images[i - 1] is the image word of generator i

    def __post_init__(self):
        sys = self.system
        rank, k = sys.rank, len(self.images)
        if k != rank:
            raise EndoFileError(f"expected {rank} generator images, got {k}")
        images = tuple([check_word(sys, word) for word in self.images])
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_classified", None)
        object.__setattr__(self, "_form", None)

    def __reduce__(self):
        return Endomorphism, (self.system, self.images)

    def image_of(self, i: int):
        return self.images[i - 1]


def make_endo(sys: CoxeterSystem, images: Sequence[Sequence[int]]) -> Endomorphism:
    return Endomorphism(sys, images)


def identity_endo(sys: CoxeterSystem) -> Endomorphism:
    return Endomorphism(sys, tuple((i,) for i in sys.generators))


def _substituted(images: Sequence[Word], word: Word) -> list:
    """``word`` with each letter g replaced by images[g - 1], letter by
    letter."""
    out = []
    for letter in word:
        out += images[letter - 1]
    return out


def apply(
    sys: CoxeterSystem,
    e: Endomorphism,
    word: Sequence[int],
    budget: int = DEFAULT_ORBIT_BUDGET,
):
    """Canonical form of the image of a word: substitute each letter's image
    letter by letter, then reduce the whole word once."""
    _check_system(sys, e)
    return _reduce(sys, _substituted(e.images, check_word(sys, word)), budget)


def _check_system(sys: CoxeterSystem, e: Endomorphism) -> None:
    # identity first: equality compares every edge
    if e.system is not sys and e.system != sys:
        raise NotAutomorphism("endomorphism belongs to a different system")


def _strip(word: Sequence[int]) -> Sequence[int]:
    """``word`` without its equal end letters, taken off pairwise: s w s
    becomes w, its conjugate by the involution s."""
    lo, hi = 0, len(word) - 1
    while lo < hi and word[lo] == word[hi]:
        lo, hi = lo + 1, hi - 1
    return word[lo : hi + 1]


def _power_is_trivial(sys: CoxeterSystem, u: Word, m: int, budget: int) -> bool:
    """Is u^m = 1, for u a factor of a reduced word?  On one or two
    letters by the order of u in the dihedral parabolic on them (see
    ``satisfies_relations``), else by reducing u^m."""
    if not u:
        return True
    letters = set(u)
    if len(letters) > 2:
        return _reduce(sys, u * m, budget) == ()
    if len(u) % 2:
        return m % 2 == 0
    a, b = letters
    mab = sys.m(a, b)
    if mab == INFINITY:
        return False
    return m % (mab // math.gcd(len(u) // 2, mab)) == 0


def satisfies_relations(
    sys: CoxeterSystem, e: Endomorphism, budget: int = DEFAULT_ORBIT_BUDGET
) -> bool:
    """Do the images satisfy every defining relation of the system?

    Each relator is tested on a short conjugate.  For a generator s,
    (s w s)^k = s w^k s, so taking equal end letters off a word pairwise
    (``_strip``) keeps whether its k-th power is 1.  So (g g) holds when
    the stripped image u of g has u u = 1, and the edge relator (i j)^m
    holds when u^m = 1 for the stripped canonical form u of e(i) e(j).
    That u is a factor of a reduced word, so it is reduced, and on one or
    two letters it alternates and lies in the dihedral parabolic on them,
    where its order has a closed form: of odd length u is a reflection, of
    order 2; of length 2k it is a rotation, of order
    m(a, b) / gcd(k, m(a, b)), or of infinite order when m(a, b) is
    infinite.  Only a u on three or more letters has u^m reduced.
    """
    _check_system(sys, e)
    for u in map(_strip, e.images):
        if _reduce(sys, u + u, budget) != ():
            return False
    return all(
        _power_is_trivial(
            sys, _strip(_reduce(sys, e.image_of(i) + e.image_of(j), budget)), m, budget
        )
        for i, j, m in sys.edges
    )


class EndoClass(_Record):
    """An image list of a star as ``classify_endo`` reads it.

    ``inner`` is x with x e(1) x^-1 = w_1, and ``conjugates`` holds u_g,
    the normal form of x e(g) x^-1, for every generator g.  ``targets``
    holds, for each leaf i, (j, k) when j is the one leaf letter of u_i,
    so u_i lies in D_j = <w_1, w_j> at position k (``dihedral_log``), or
    None when u_i has no leaf letter or more than one.
    """

    inner: object
    conjugates: tuple
    targets: tuple


def classify_endo(
    star: StarForm, e: Endomorphism, budget: int = DEFAULT_ORBIT_BUDGET
) -> EndoClass:
    """Read an image list of a star once (see ``EndoClass``).

    x = ``involution_to_base``(e(1)), u_g = x e(g) x^-1 for every
    generator g, and each leaf's target j and exponent k.  By the
    fixed-tree argument (module docstring) e is an endomorphism with
    e(1) != 1 exactly when every leaf's u_i is a reflection
    w_1 (w_1 w_j)^k of one D_j, k = 0 allowed, with t_j / gcd(k, t_j)
    dividing t_i; ``verify_endo`` reads that off.

    Raises ``NotInvolution`` when e(1) is not an involution, 1 included.

    The classification is stored on e with its budget (``_classified``),
    once e's system is checked against the star's.  A later call with
    the same budget returns it; any other budget reads e again and, if
    that succeeds, replaces it.  The result is a function of e and the
    budget alone, since e's images are frozen and the word engine keeps
    no state, so a stored classification is exact.  Only a success is
    stored: a refused center image or an exceeded budget is raised
    afresh by every call.

    A record with a factored form (``_form``) stored at the same budget
    is classified from it, with no image reduced.  The form's x and
    ``involution_to_base``'s x' both conjugate e(1) to w_1, and the
    centralizer of w_1 is {1, w_1}, so x' is x or w_1 x.  The form is
    trusted only when x' is x, or is w_1 x reduced, where the conjugates
    become w_1 phi(g) w_1 and every k turns into -k; any other x' reads
    the images as above, so a wrong conjugator still fails ``factorize``'s
    certificate.
    """
    sys = star.system
    _check_system(sys, e)
    stored = e._classified
    if stored is not None and stored[0] == budget:
        return stored[1]
    x = involution_to_base(star, e.images[0], budget)
    form = e._form
    c = None
    if form is not None and form[0] == budget:
        c = _class_of_form(star, x, form[2], form[3], budget)
    if c is None:
        xinv = inverse_word(x)
        us = tuple(_reduce(sys, _free_join((x, w, xinv))[0], budget) for w in e.images)
        targets = []
        for u in us[1:]:
            leaf_letters = set(u) - {1}
            if len(leaf_letters) != 1:
                targets.append(None)
                continue
            (j,) = leaf_letters
            targets.append((j, _dihedral_position(star.t_of(j), u)[1]))
        c = EndoClass(x, us, tuple(targets))
    object.__setattr__(e, "_classified", (budget, c))
    return c


def _class_of_form(
    star: StarForm, x: Word, y: Word, targets: tuple, budget: int
) -> EndoClass | None:
    """The ``EndoClass`` of images spelled as y^-1 phi(g) y, read with the
    conjugator x = ``involution_to_base``(e(1)), or None when x is
    neither y nor w_1 y (``classify_endo``)."""
    if x != y:
        if x != _reduce(star.system, (1,) + y, budget):
            return None
        t = star.t
        targets = tuple(
            None if target is None else (target[0], -target[1] % t[target[0] - 2])
            for target in targets
        )
    return EndoClass(x, tuple(_form_cores(star, targets)), targets)


def verify_endo(
    star: StarForm, e: Endomorphism, budget: int = DEFAULT_ORBIT_BUDGET
) -> bool:
    """Is e an endomorphism of the star?  Decided from ``classify_endo``.

    By the fixed-tree argument (module docstring), exactly when every
    image is trivial, or when e(1) is an involution and every leaf i has
    u_i = w_1 (w_1 w_j)^k, a reflection of one D_j: u_i = w_1 (k = 0), or
    an odd-length u_i whose one leaf letter is j, with t_j / gcd(k, t_j)
    dividing t_i.  No relator word is reduced, and it returns what
    ``satisfies_relations`` returns: an image that is no involution is
    not 1, and its leaf's u_i is no reflection.
    """
    try:
        c = classify_endo(star, e, budget)
    except NotInvolution:
        # e(1) = 1 forces every image to be 1, and any() stops at an e(1)
        # that is not 1
        return not any(_reduce(star.system, w, budget) for w in e.images)
    return _sends_leaves_to_reflections(c) and _respects_labels(star, c.targets)


def _sends_leaves_to_reflections(c: EndoClass) -> bool:
    """Is every leaf's u_i w_1, or an odd-length word with one leaf letter,
    a reflection w_1 (w_1 w_j)^k of one D_j?  Then c.targets holds None
    exactly where u_i = w_1."""
    return all(
        u == (1,) or (target is not None and len(u) % 2)
        for u, target in zip(c.conjugates[1:], c.targets)
    )


def _respects_labels(star: StarForm, targets: tuple) -> bool:
    """Does t_j / gcd(k, t_j) divide t_i for every leaf i with target (j, k)?
    For leaves sent to reflections, that is every relator (1 i)^(t_i)."""
    t = star.t
    for ti, target in zip(t, targets):
        if target is not None:
            j, k = target
            tj = t[j - 2]
            if ti % (tj // math.gcd(k, tj)):
                return False
    return True


def inner_auto(
    star: StarForm, x: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
) -> Endomorphism:
    """Conjugation by x: every generator g maps to x g x^-1."""
    # check before reversing, so a bad letter is reported in the order given
    xinv = inverse_word(check_word(star.system, x))
    ones = (1,) * (star.rank - 1)
    return _recompose(star, AutFactorization(xinv, ones, tuple(star.leaves)), budget)


def theta_auto(star: StarForm, i: int, k: int) -> Endomorphism:
    """Reflection-rescaling map fixing all generators but leaf i,
    which is sent to w_1 (w_1 w_i)^k; requires gcd(k, t_i) = 1."""
    if not _is_int(i) or i not in star.leaves:
        raise BadThetaExponent(f"{i!r} is not a leaf")
    cvec = [1] * (star.rank - 1)
    cvec[i - 2] = k
    return theta_product(star, cvec)


def _normalize_perm(star: StarForm, perm) -> tuple:
    """Leaf permutation as a tuple indexed by leaf - 2; validates blocks.

    A dict maps leaves to leaves: a leaf that is no key maps to itself,
    and a key that is no leaf is refused.  Keys and images must pass
    ``words._is_int``, ``check_word``'s integer test, so a bool or a
    float is refused here as it is there."""
    leaves = star.leaves
    if isinstance(perm, dict):
        for key in perm:
            if not _is_int(key) or key not in leaves:
                raise BlockViolatingPermutation(f"{key!r} is not a leaf")
        images = [perm.get(i, i) for i in leaves]
    else:
        images = list(perm)
    # the exact type test is cheap; ``_is_int`` decides the rest
    integers = set(map(type, images)) == {int} or all(map(_is_int, images))
    if not integers or sorted(images) != list(leaves):
        raise BlockViolatingPermutation(f"{images} is not a permutation of the leaves")
    t = star.t
    for leaf, image in zip(star.leaves, images):
        if t[leaf - 2] != t[image - 2]:
            raise BlockViolatingPermutation(
                f"leaf {leaf} (label {t[leaf - 2]}) may not map to "
                f"{image} (label {t[image - 2]})"
            )
    return tuple(images)


def graph_auto(star: StarForm, perm) -> Endomorphism:
    """Diagram symmetry: permutes leaves within equal-label blocks."""
    f = AutFactorization((), (1,) * (star.rank - 1), _normalize_perm(star, perm))
    return _recompose(star, f, DEFAULT_ORBIT_BUDGET)


def theta_product(star: StarForm, cvec: Sequence[int]) -> Endomorphism:
    """Product of leaf maps with the given exponents, ascending leaf order."""
    f = AutFactorization((), _check_cvec(star, tuple(cvec)), tuple(star.leaves))
    return _recompose(star, f, DEFAULT_ORBIT_BUDGET)


def _check_cvec(star: StarForm, cvec: Sequence[int]) -> tuple:
    """The exponent vector as a tuple, each entry an integer (``_is_int``)
    that is a unit mod its leaf label."""
    if len(cvec) != star.rank - 1:
        raise BadThetaExponent(
            f"expected {star.rank - 1} exponents, got {len(cvec)}"
        )
    for leaf, t, k in zip(star.leaves, star.t, cvec):
        # the exact type test is cheap; ``_is_int`` decides the rest
        integer = type(k) is int or _is_int(k)
        if not integer or not (1 <= k < t) or math.gcd(k, t) != 1:
            raise BadThetaExponent(f"exponent {k} invalid for leaf {leaf}")
    return tuple(cvec)


def compose(
    e1: Endomorphism, e2: Endomorphism, budget: int = DEFAULT_ORBIT_BUDGET
) -> Endomorphism:
    """compose(e1, e2)(w) = e1(e2(w)).

    On a star, when e1 is an endomorphism and every leaf of e2 goes to a
    reflection, the product is taken in closed form (``_product``): each
    factor is read as x^-1 phi(g) x from its stored form (``_form``) or
    its classification (``classify_endo``), the product's conjugator is
    reduced once, and its images x^-1 core x are joined at their seams
    (``_born``), so an image is reduced only when a seam fails.  The
    product stores its form, so ``classify_endo`` reads no image of it.

    Otherwise each image e2(g) has e1's images substituted letter by
    letter and is reduced once: off stars, when e1 is no endomorphism
    (the closed form assumes e1 respects the relations), when e1(1) or
    e2(1) is 1 or no involution, when a leaf of e2 goes to no
    reflection, and when the product path exceeds the budget.  Either
    way the images are the same canonical words.
    """
    sys = e1.system
    # identity first: equality compares every edge
    if e2.system is not sys and e2.system != sys:
        raise NotAutomorphism("cannot compose endomorphisms of different systems")
    try:
        product = _composed_forms(e1, e2, budget)
    except OrbitBudgetExceeded:
        product = None
    if product is not None:
        return product
    images = e1.images
    return Endomorphism(
        sys, [_reduce(sys, _substituted(images, w), budget) for w in e2.images]
    )


def _composed_forms(
    e1: Endomorphism, e2: Endomorphism, budget: int
) -> Endomorphism | None:
    """``compose`` in closed form, or None where it substitutes."""
    star = _star_of(e1, e2)
    if star is None:
        return None
    form1 = _form_of(star, e1, budget)
    if form1 is None or not _respects_labels(star, form1[1]):
        return None
    form2 = _form_of(star, e2, budget)
    if form2 is None:
        return None
    return _born(star, *_product(star, *form1, *form2, budget), budget)


def _star_of(e1: Endomorphism, e2: Endomorphism) -> StarForm | None:
    """The star of a stored form, else the system read as a canonical star,
    or None when it is none."""
    for e in (e1, e2):
        if e._form is not None:
            return e._form[1]
    if e1.system._star:
        try:
            return StarForm(e1.system)
        except NotStarForm:
            pass
    return None


def _form_of(star: StarForm, e: Endomorphism, budget: int) -> tuple | None:
    """(x, targets) with e(g) = x^-1 phi(g) x, from the form stored at this
    budget or from ``classify_endo``; None when e(1) is 1 or no
    involution, or a leaf goes to no reflection."""
    form = e._form
    if form is not None and form[0] == budget:
        return form[2], form[3]
    try:
        c = classify_endo(star, e, budget)
    except NotInvolution:
        return None
    if not _sends_leaves_to_reflections(c):
        return None
    return c.inner, c.targets


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


def _core(star: StarForm, f: AutFactorization, g: int) -> Word:
    """Image of generator g under graph(perm) o exponent_product(cvec), as
    its ShortLex normal form.

    The center is fixed.  Leaf g goes to the reflection w_1 (w_1 w_j)^k
    with j = perm(g), k = cvec(g) and t = t_j = t_g; without its leading
    pair (1 1) that is (j 1 j ... j), 2k - 1 letters.  Since
    (w_1 w_j)^t = 1 it is also w_1 (w_j w_1)^(t - k), that is
    (1 j 1 ... 1), 2(t - k) + 1 letters.  The reduced words of an element
    of the dihedral group <w_1, w_j>, of order 2t, use only 1 and j, and an
    alternating word of fewer than t letters is the one reduced word of its
    element, so the shorter spelling is the normal form.  At 2k = t + 1
    both spell the longest element, whose ShortLex form starts with 1 < j.
    """
    if g == 1:
        return (1,)
    return _leaf_core(f.perm_of(g), f.cvec[g - 2], star.t_of(g))


def _leaf_core(j: int, k: int, t: int) -> Word:
    """The normal form of w_1 (w_1 w_j)^k with t = t_j, as in ``_core``."""
    if 2 * k < t + 1:
        return alternating(j, 1, 2 * k - 1)
    return alternating(1, j, 2 * (t - k) + 1)


def _cores(star: StarForm, f: AutFactorization) -> list:
    """``_core`` of every generator, in generator order, in one loop."""
    return _form_cores(star, _targets(f))


def _form_cores(star: StarForm, targets: tuple) -> list:
    """The normal form of phi(g) for every generator g, in generator
    order, where phi fixes w_1 and sends leaf i to w_1 (w_1 w_j)^k for
    targets[i - 2] = (j, k), 0 < k < t_j (``_leaf_core``), or to w_1 for
    None."""
    t = star.t
    return [(1,)] + [
        (1,) if target is None else _leaf_core(target[0], target[1], t[target[0] - 2])
        for target in targets
    ]


def _targets(f: AutFactorization) -> tuple:
    """The (j, k) = (perm(i), cvec(i)) of every leaf i of factors f."""
    return tuple(zip(f.perm, f.cvec))


def _spell(star: StarForm, f: AutFactorization, word: Sequence[int]) -> list:
    """x^-1 psi(word) x letter by letter, unreduced, with x = f.inner and
    psi = graph(perm) o exponent_product(cvec) sending g to ``_core``."""
    out = list(inverse_word(f.inner))
    for g in word:
        out += _core(star, f, g)
    out += f.inner
    return out


def _checked(star: StarForm, f: AutFactorization) -> AutFactorization:
    """f with its permutation as an image tuple, once the permutation, the
    exponents and the inner word are validated, in that order."""
    perm = _normalize_perm(star, f.perm)
    cvec = _check_cvec(star, f.cvec)
    return AutFactorization(check_word(star.system, f.inner), cvec, perm)


def recompose(
    star: StarForm, f: AutFactorization, budget: int = DEFAULT_ORBIT_BUDGET
) -> Endomorphism:
    """The images of the factored automorphism, each x^-1 core x joined
    at its seams and reduced only when a seam fails (``_recompose``)."""
    return _recompose(star, _checked(star, f), budget)


def _recompose(star: StarForm, f: AutFactorization, budget: int) -> Endomorphism:
    """``recompose`` of factors that ``_checked`` has already validated:
    x = f.inner reduced once, then ``words._joined`` joins each image
    x^-1 core x from three canonical words (x^-1 by the reversal lemma).

    Reducing a non-canonical x alone, or a joined word whose seam fails,
    can take more rewrite steps than reducing the whole image, so when
    either exceeds the budget each image ``_spell`` gives is reduced
    whole under the same budget, and an image is refused only when that
    reduction is."""
    sys = star.system
    try:
        return _born(star, _reduce(sys, f.inner, budget), _targets(f), budget)
    except OrbitBudgetExceeded:
        return Endomorphism(
            sys, [_reduce(sys, _spell(star, f, (g,)), budget) for g in sys.generators]
        )


def _born(star: StarForm, x: Word, targets: tuple, budget: int) -> Endomorphism:
    """The endomorphism with images x^-1 phi(g) x, x reduced, each joined
    from three canonical words at its seams (``words._joined``; x^-1 by
    the reversal lemma), with its factored form stored (``_form``)."""
    sys = star.system
    cores = _form_cores(star, targets)
    if x:
        xinv = x[::-1]
        cores = [_joined(sys, (xinv, core, x), budget) for core in cores]
    e = Endomorphism(sys, cores)
    object.__setattr__(e, "_form", (budget, star, x, targets))
    return e


def invert_factorization(
    star: StarForm, f: AutFactorization, budget: int = DEFAULT_ORBIT_BUDGET
) -> AutFactorization:
    """Factors of the inverse automorphism, computed from the factors: the
    inverse of f under ``compose_factors``.

    With psi = graph(perm) o exponent_product(cvec) the map is
    inner(x^-1) o psi, so its inverse is psi^-1 o inner(x), which equals
    inner(psi^-1(x)) o psi^-1.  Conjugating an exponent product by a
    diagram symmetry permutes its exponents, so
    psi^-1 = graph(perm^-1) o exponent_product(c') with
    c'_g = cvec_(perm^-1(g))^-1 mod t_g; the inner word is the reversal
    of psi^-1(x).
    """
    f = _checked(star, f)
    back = {j: i for i, j in zip(star.leaves, f.perm)}
    psi = AutFactorization(
        (),
        tuple(pow(f.cvec[back[g] - 2], -1, star.t_of(g)) for g in star.leaves),
        tuple(back[g] for g in star.leaves),
    )
    image = _reduce(star.system, _spell(star, psi, f.inner), budget)
    return AutFactorization(inverse_word(image), psi.cvec, psi.perm)


def compose_factors(
    star: StarForm,
    f1: AutFactorization,
    f2: AutFactorization,
    budget: int = DEFAULT_ORBIT_BUDGET,
) -> AutFactorization:
    """Factors of f1 o f2 (f2 applied first), computed from the factors.

    Write f = inner(x^-1) o psi with psi = graph(perm) o
    exponent_product(cvec).  Two identities give the product:

    - psi o inner(y) = inner(psi(y)) o psi, so f1 o f2 =
      inner(x1^-1) o inner(psi1(x2)^-1) o psi1 o psi2, whose inner word is
      psi1(x2) x1, reduced once;
    - exponent_product(c) o graph(pi) = graph(pi) o exponent_product(c o pi),
      so psi1 o psi2 = graph(pi1 o pi2) o exponent_product(c), with
      c(i) = c1(pi2(i)) c2(i) mod t_i.
    """
    return _compose_factors(star, _checked(star, f1), _checked(star, f2), budget)


def _compose_factors(
    star: StarForm, f1: AutFactorization, f2: AutFactorization, budget: int
) -> AutFactorization:
    """``compose_factors`` of factors that ``_checked`` has already
    validated: the automorphism case of ``_product``, where every k is a
    unit, so no leaf goes to w_1."""
    x, targets = _product(star, f1.inner, _targets(f1), f2.inner, _targets(f2), budget)
    return AutFactorization(
        x, tuple(k for _, k in targets), tuple(j for j, _ in targets)
    )


def _product(
    star: StarForm,
    x1: Word,
    targets1: tuple,
    x2: Word,
    targets2: tuple,
    budget: int,
) -> tuple:
    """(x, targets) of e1 o e2, for e = inner(x^-1) o phi with targets as
    in ``_form_cores`` and e1 an endomorphism.

    phi1(w_1 w_j) = w_1 phi1(w_j) = (w_1 w_j')^k' for targets1[j - 2] =
    (j', k'), so phi1 sends w_1 (w_1 w_j)^k to w_1 (w_1 w_j')^(k k'), and
    to w_1 when either target is None or k k' = 0 mod t_j'.  And
    e1(y) = x1^-1 phi1(y) x1, so e1 o e2 = inner(x^-1) o phi1 o phi2 with
    x = phi1(x2) x1, spelled letter by letter and reduced once.
    """
    # the cores of x2's letters only: x2 is short, and spelling all n
    # cores costs tens of microseconds at rank 129
    cores = _form_cores(star, [None if g == 1 else targets1[g - 2] for g in x2])
    x = _reduce(star.system, [a for core in cores[1:] for a in core] + list(x1), budget)
    t = star.t
    targets = []
    for target in targets2:
        if target is not None:
            j, k = target
            target = targets1[j - 2]
            if target is not None:
                j, k1 = target
                k = k * k1 % t[j - 2]
                target = (j, k) if k else None
        targets.append(target)
    return x, tuple(targets)


def factorize(
    star: StarForm, e: Endomorphism, budget: int = DEFAULT_ORBIT_BUDGET
) -> AutFactorization:
    """Factor a verified endomorphism, or prove it is no automorphism.

    Four steps, each refusal reported as ``NotAutomorphism``:

    1. ``classify_endo`` finds x with x e(1) x^-1 = w_1 through
       ``involution_to_base``; an identity or non-involution image of the
       center is refused.
    2. ``classify_endo`` reduces u_g = x e(g) x^-1 once for every
       generator g.
    3. Each leaf's u must lie in exactly one maximal dihedral subgroup
       <w_1, w_j>, its target in the classification; its position there
       gives the exponent k.  ``_checked``
       then validates the read factors: perm must be a block-respecting
       permutation of the leaves and every k a unit mod its label.
    4. Certify: every u_g must be the core of g (``_cores``) letter for letter.

    The certificate is the recomposition check.  As elements,
    x e(g) x^-1 = core exactly when e(g) = x^-1 core x, the recomposed image
    of g; each element has one ShortLex normal form and ``_cores`` spells it,
    so the words agree exactly when the elements do.  The center's
    comparison also certifies the conjugator x.  A core is a reflection of
    <w_1, w_j>, spelled with an odd number of letters, and a rotation with
    an even number, so a leaf sent to a rotation fails the certificate.

    So a map is accepted exactly when x e(1) x^-1 = w_1 and every leaf i
    has x e(i) x^-1 a reflection w_1 (w_1 w_j)^k with j in i's label
    block, no j taken twice and k a unit mod t_j.  ``_checked`` tests the
    last three (j is one-to-one exactly when it permutes the leaves) and
    the certificate the first two, so no further check of parity, labels,
    exponents or injectivity is needed.
    """
    sys = star.system
    try:
        c = classify_endo(star, e, budget)
    except NotInvolution as exc:
        raise NotAutomorphism(f"center image is not an involution: {exc}") from exc
    for i, u, target in zip(star.leaves, c.conjugates[1:], c.targets):
        if target is None:
            raise NotAutomorphism(
                f"image of leaf {i} has support {sorted(set(u))}, "
                "expected exactly one maximal dihedral subgroup"
            )
    perm = [j for j, _ in c.targets]
    cvec = [k for _, k in c.targets]
    try:
        f = _checked(star, AutFactorization(c.inner, cvec, perm))
    except (BlockViolatingPermutation, BadThetaExponent) as exc:
        raise NotAutomorphism(str(exc)) from exc
    for g, u, core in zip(sys.generators, c.conjugates, _cores(star, f)):
        if u != core:
            raise NotAutomorphism(
                f"recomposition differs from the input on generator {g}"
            )
    return f


def outer_key(star: StarForm, f: AutFactorization) -> tuple:
    """(perm, the lesser of cvec and -cvec mod t), which names f's outer class.

    f = inner(x^-1) o psi lies in the outer class of psi = graph(perm) o
    exponent_product(cvec).  The only inner automorphisms of that form are
    the identity and exponent_product(-1), so the maps of that form in the
    class are psi and psi o exponent_product(-1), whose exponents are
    -cvec.  So composing f with an inner automorphism leaves the key as it
    is."""
    minus = tuple((-k) % star.t_of(i) for i, k in zip(star.leaves, f.cvec))
    return tuple(f.perm), min(tuple(f.cvec), minus)


def is_inner(star: StarForm, f: AutFactorization) -> bool:
    """Inner exactly when the outer class is trivial."""
    return outer_key(star, f) == (tuple(star.leaves), (1,) * (star.rank - 1))


def _is_identity(star: StarForm, f: AutFactorization) -> bool:
    """Is f, with a reduced inner word, a factorization of the identity?

    The identity has exactly two: ((), all 1, id) and ((1,), all t - 1, id),
    since exponent_product(-1) = inner(w_1).  If inner(x^-1) o psi = id,
    then psi = inner(x) is inner, so psi is the identity or
    exponent_product(-1); the center of W is trivial, so x is 1 or w_1,
    whose reduced words are () and (1,)."""
    return is_inner(star, f) and f.inner == (() if set(f.cvec) == {1} else (1,))


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
    f = _checked(star, f)
    if is_inner(star, f):
        raise IsInnerNoWitness("inner automorphisms preserve every normal subgroup")

    def certified(g, pair):
        quotient, mapping = merge_generators(star, *pair)
        # the image of g = g1 g2 under inner(x^-1) o psi, pushed letter by
        # letter into the quotient: the merge map is a homomorphism
        pushed = tuple(mapping[letter - 1] for letter in _spell(star, f, g))
        evidence = _reduce(quotient, pushed, budget)
        if evidence == ():
            return None
        kernel_check = tuple(mapping[letter - 1] for letter in g)
        if _reduce(quotient, kernel_check, budget) != ():
            raise NoMergeWitness("witness candidate does not lie in the kernel")
        return NormalityWitness(g, pair, evidence, quotient, mapping)

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
    cannot be onto.  The inverse g is certified in factor space:
    ``compose_factors(f, g)`` must be one of the two factorizations of the
    identity (``_is_identity``), and only then is g recomposed into images.
    The check is exact: ``factorize`` has proved e = recompose(f) letter
    for letter, ``compose_factors`` is the exact product, and a product
    with a reduced inner word is the identity exactly when it is one of
    those two factorizations.  One product suffices: f o g checks
    psi o psi^-1 on x as well as perm and cvec, whereas the inner word of
    g o f, psi^-1(x) followed by its reversal, reduces to () by
    construction; and f and g are automorphisms, so a one-sided inverse
    is two-sided.  ``factorize`` returns f checked and
    ``invert_factorization`` builds g from checked factors, so the
    product and the recomposition take both through the private bodies
    with no second check.
    """
    try:
        f = factorize(star, e, budget)
    except NotAutomorphism as exc:
        raise NotSurjective(f"endomorphism is not onto: {exc}") from exc
    inverse = invert_factorization(star, f, budget)
    if not _is_identity(star, _compose_factors(star, f, inverse, budget)):
        raise NotSurjective("inverse check failed; endomorphism is not onto")
    return _recompose(star, inverse, budget)


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
    # the checks above name the file's bad entry; the record's own check passes
    return Endomorphism(sys, images)
