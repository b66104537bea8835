"""``satisfies_relations`` against the relator-by-relator reference.

The library tests each relator on a conjugate with equal end letters taken
off, and decides the order of a conjugate on one or two letters in closed
form.  The reference substitutes the images into every relator and reduces
the whole word (``reference_apply``).  The images are drawn to make the
relators hold often: composed star automorphisms, reflections and rotations
of one dihedral parabolic (a rotation of each order that divides its label)
under a common conjugator, conjugated letters and random words, sometimes
with one image replaced.  A drawn bad letter must be refused when the
record is built, and is then left out (``built``).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox.autkit import (
    Endomorphism,
    compose,
    graph_auto,
    inner_auto,
    satisfies_relations,
    theta_product,
)
from oddcox.core import INFINITY, CoxeterSystem, path_system
from oddcox.errors import BadLetter, NotAutomorphism
from oddcox.words import alternating
from conftest import star
from test_engine_oracle import SYSTEMS as ORACLE_SYSTEMS
from test_substitution import built, outcome, reference_apply, words

LABELS = [3, 5, 9, 15, 21, INFINITY]

STARS = [star(3, 5, 7, 9), star(3, 3, 9), star(9, 15, 21), star(5, 5), star(3)]

SYSTEMS = (
    [s.system for s in STARS]
    + [
        path_system([3, 5, 9]),
        path_system([15, INFINITY, 21]),
        path_system([3, 3, 3, 3]),
        path_system([21, 9]),
    ]
    + [sys for sys, _ in ORACLE_SYSTEMS.values()]
)


def reference_satisfies(sys, e):
    return all(reference_apply(sys, e, r) == () for r in sys.relators())


@st.composite
def labelled_systems(draw):
    """An odd tree, or any graph, of rank 2-6 with labels in ``LABELS``;
    vertices are numbered at random, so a parent may be above or below its
    child."""
    n = draw(st.integers(2, 6))
    order = draw(st.permutations(range(1, n + 1)))
    if draw(st.booleans()):
        pairs = [
            (order[draw(st.integers(0, k - 1))], order[k]) for k in range(1, n)
        ]
    else:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [(i, j, draw(st.sampled_from(LABELS))) for i, j in pairs]
    return CoxeterSystem(n, [edge for edge in edges if edge[2] != INFINITY])


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@st.composite
def dihedral_word(draw, a, b, mab, shapes):
    """A reflection, a rotation of order d for a divisor d of m(a, b), or
    the identity, of the dihedral parabolic on {a, b}, spelled as an
    alternating word that need not be reduced."""
    shape = draw(st.sampled_from(shapes))
    if shape == "identity":
        return ()
    if mab == INFINITY:
        k = draw(st.integers(0, 6))
    elif shape == "rotation":
        # (a b)^k has order d exactly when k = (m / d) j with gcd(j, d) = 1
        d = draw(st.sampled_from(_divisors(mab)))
        units = [j for j in range(1, d + 1) if math.gcd(j, d) == 1]
        k = (mab // d) * draw(st.sampled_from(units)) % mab
    else:
        k = draw(st.integers(0, mab - 1))
    start = draw(st.sampled_from([(a, b), (b, a)]))
    return alternating(*start, 2 * k + (shape == "reflection"))


@st.composite
def image_lists(draw, sys):
    """Images x d_g x^-1 for one conjugator x, with d_g in one dihedral
    parabolic <a, b>, a letter, the identity or a random word.  A third of
    the lists send every generator to a reflection of <a, b>, a map into a
    dihedral group, and a third to any element of it; there every edge
    relator goes to the closed form.  The pair is an edge, a pair with no
    edge (of infinite label) or any pair, a third of the time each."""
    n = sys.rank
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    kind = draw(st.sampled_from(["edge", "infinite", "any"]))
    if kind != "any":
        chosen = [p for p in pairs if (sys.m(*p) == INFINITY) == (kind == "infinite")]
        pairs = chosen or pairs
    a, b = draw(st.sampled_from(pairs))
    mab = sys.m(a, b)
    x = draw(words(n, 5))
    xinv = x[::-1]
    mode = draw(st.sampled_from(["reflections", "dihedral", "mixed"]))
    if mode == "reflections":
        shapes = ["reflection"]
    else:
        shapes = ["reflection", "rotation", "rotation", "identity"]
    images = []
    for _ in range(n):
        shape = "dihedral" if mode != "mixed" else draw(
            st.sampled_from(["dihedral"] * 4 + ["letter", "identity", "free"])
        )
        if shape == "dihedral":
            images.append(x + draw(dihedral_word(a, b, mab, shapes)) + xinv)
        elif shape == "letter":
            images.append(x + (draw(st.integers(1, n)),) + xinv)
        elif shape == "identity":
            images.append(())
        else:
            images.append(draw(words(n, 10)))
    return images


@st.composite
def star_automorphism(draw, s):
    """inner(x) o graph(perm) o theta(cvec), composed as image lists."""
    perm = []
    for block in s.blocks:
        perm.extend(draw(st.permutations(block)))
    cvec = [
        draw(st.sampled_from([k for k in range(1, t) if math.gcd(k, t) == 1]))
        for t in map(s.t_of, s.leaves)
    ]
    e = compose(graph_auto(s, perm), theta_product(s, cvec))
    return list(compose(inner_auto(s, draw(words(s.rank, 6))), e).images)


@st.composite
def cases(draw, bad_letters=True):
    kind = draw(st.sampled_from(["star", "listed", "listed", "labelled"]))
    if kind == "star":
        s = draw(st.sampled_from(STARS))
        sys, images = s.system, draw(star_automorphism(s))
    else:
        if kind == "listed":
            sys = draw(st.sampled_from(SYSTEMS))
        else:
            sys = draw(labelled_systems())
        images = draw(image_lists(sys))
    n = sys.rank
    if draw(st.integers(0, 3)) == 0:
        # replace one image by a conjugated letter or a random word
        g = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            x = draw(words(n, 4))
            images[g] = x + (draw(st.integers(1, n)),) + x[::-1]
        else:
            images[g] = draw(words(n, 8))
    if bad_letters and draw(st.integers(0, 4)) == 0:
        g = draw(st.integers(0, n - 1))
        bad = draw(st.sampled_from([0, n + 1, -2, "x", True, 2.0]))
        pos = draw(st.integers(0, len(images[g])))
        images[g] = images[g][:pos] + (bad,) + images[g][pos:]
    return sys, built(sys, tuple(images))


@settings(max_examples=500, deadline=None)
@given(cases())
def test_relator_check_matches_the_relator_by_relator_reference(case):
    sys, e = case
    assert outcome(satisfies_relations, sys, e) == outcome(reference_satisfies, sys, e)


def test_the_relators_hold_in_a_good_share_of_cases():
    seen = []

    @settings(max_examples=300, deadline=None, database=None)
    @given(cases(bad_letters=False))
    def collect(case):
        seen.append(reference_satisfies(*case))

    collect()
    assert sum(seen) >= len(seen) // 10


# reflections (1 2)^p 1 of <1, 2>, label 15: the product of the p-th and the
# q-th is the rotation (1 2)^(p - q), of order 15 / gcd(p - q, 15)
P15_3 = path_system([15, 3])
TRIANGLE = CoxeterSystem(3, [(1, 2, 3), (2, 3, 3), (1, 3, 3)])


@pytest.mark.parametrize(
    "sys, images, holds",
    [
        # edge (2, 3) of label 3: p - q = -5 gives order 3, p - q = -3 order 5
        (P15_3, [(1,), alternating(1, 2, 3), alternating(1, 2, 13)], True),
        (P15_3, [(1,), alternating(1, 2, 3), alternating(1, 2, 9)], False),
        # a rotation of order 3 meets every edge relator but fails (g g)
        (P15_3, [(), (), (1, 2) * 5], False),
        # 1 and 3 generate an infinite dihedral group in path 3.3
        (path_system([3, 3]), [(1,), (3,), (1,)], False),
        # e(1) e(2) is the reflection 1, of order 2
        (path_system([3, 3]), [(1,), (), (3,)], False),
        # a diagram symmetry of the triangle, and (1 2 3 2) on three letters
        (TRIANGLE, [(1,), (3,), (2,)], True),
        (TRIANGLE, [(1,), (2, 3, 2), (3,)], False),
    ],
)
def test_relator_check_examples(sys, images, holds):
    e = Endomorphism(system=sys, images=tuple(images))
    assert reference_satisfies(sys, e) is holds
    assert satisfies_relations(sys, e) is holds


def test_a_failing_involution_relator_comes_before_a_later_bad_letter():
    sys = path_system([3, 3])
    # the bad letter is refused when the record is built, before any relator
    with pytest.raises(BadLetter, match=r"^letter 9 out of range 1\.\.3$"):
        Endomorphism(system=sys, images=((1, 2), (2, 9), (3,)))
    e = Endomorphism(system=sys, images=((1, 2), (2,), (3,)))
    assert satisfies_relations(sys, e) is False
    assert reference_satisfies(sys, e) is False


def test_a_foreign_system_is_refused_first():
    sys = path_system([3, 3])
    other = path_system([3, 5])
    with pytest.raises(BadLetter, match=r"^letter 'x' is not an integer$"):
        Endomorphism(system=other, images=((1, "x"), (2,), (3,)))
    e = Endomorphism(system=other, images=((1,), (2,), (3,)))
    with pytest.raises(NotAutomorphism, match="^endomorphism belongs to a different system$"):
        satisfies_relations(sys, e)
