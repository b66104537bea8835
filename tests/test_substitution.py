"""``apply``, ``compose`` and ``satisfies_relations`` against a reference
that substitutes each letter's image into the whole word (for
``satisfies_relations``, into every relator) and reduces it with
``reduce_word``."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox.autkit import (
    Endomorphism,
    apply,
    compose,
    graph_auto,
    inner_auto,
    satisfies_relations,
    theta_product,
)
from oddcox.core import CoxeterSystem
from oddcox.errors import BadLetter
from oddcox.words import check_word, reduce_word
from conftest import star

STARS = {
    "star3579": star(3, 5, 7, 9),
    "star339": star(3, 3, 9),
}
PATHS = {
    "path3333": CoxeterSystem(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3)]),
    "path5793": CoxeterSystem(5, [(1, 2, 5), (2, 3, 7), (3, 4, 9), (4, 5, 3)]),
}


def reference_apply(sys, e, word):
    word = check_word(sys, word)
    return reduce_word(sys, tuple(a for letter in word for a in e.image_of(letter)))


def reference_compose(e1, e2):
    sys = e1.system
    return Endomorphism(
        system=sys,
        images=tuple(reference_apply(sys, e1, e2.image_of(g)) for g in sys.generators),
    )


def outcome(fn, *args):
    """The value of a call, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except BadLetter as exc:
        return type(exc).__name__, str(exc)


def first_bad_letter(sys, images):
    """The message ``check_word`` raises on all the images read as one
    word, which names the first bad letter in image order, or None."""
    try:
        check_word(sys, [letter for image in images for letter in image])
    except BadLetter as exc:
        return str(exc)
    return None


def built(sys, images):
    """The record of ``images`` with every bad letter left out, once
    building the record of ``images`` as they stand has raised
    ``BadLetter`` for the first bad letter, if there is one."""
    bad = first_bad_letter(sys, images)
    if bad is None:
        return Endomorphism(system=sys, images=images)
    assert outcome(Endomorphism, sys, images) == ("BadLetter", bad)
    good = range(1, sys.rank + 1)
    return Endomorphism(
        system=sys,
        images=tuple(
            tuple(a for a in image if type(a) is int and a in good) for image in images
        ),
    )


def words(rank, max_size=6):
    return st.lists(st.integers(1, rank), max_size=max_size).map(tuple)


@st.composite
def image_lists(draw, sys, bad_letters=False):
    """Images p + core + p^-1 with one p, mixed with images of other shapes:
    a core may be empty (the image is all conjugator), some images are the
    identity or have no common conjugator, and the map is rarely a
    homomorphism.  A drawn bad letter must be refused when the record is
    built, and is then left out (``built``)."""
    p = draw(words(sys.rank, 4))
    images = []
    for _ in sys.generators:
        shape = draw(st.sampled_from(["conjugated", "conjugated", "identity", "free"]))
        if shape == "conjugated":
            image = p + draw(words(sys.rank)) + p[::-1]
        elif shape == "identity":
            image = ()
        else:
            image = draw(words(sys.rank, 10))
        images.append(image)
    if bad_letters and draw(st.booleans()):
        g = draw(st.integers(0, sys.rank - 1))
        bad = draw(st.sampled_from([0, sys.rank + 1, -2, "x", True, 2.0]))
        pos = draw(st.integers(0, len(images[g])))
        images[g] = images[g][:pos] + (bad,) + images[g][pos:]
    return built(sys, tuple(images))


@st.composite
def endo_cases(draw, bad_letters=False):
    systems = {**{name: s.system for name, s in STARS.items()}, **PATHS}
    sys = systems[draw(st.sampled_from(sorted(systems)))]
    e1 = draw(image_lists(sys, bad_letters))
    e2 = draw(image_lists(sys, bad_letters))
    return sys, e1, e2, draw(words(sys.rank, 12))


@settings(max_examples=300, deadline=None)
@given(endo_cases(bad_letters=True))
def test_apply_and_compose_match_letterwise_substitution(case):
    sys, e1, e2, word = case
    assert outcome(apply, sys, e1, word) == outcome(reference_apply, sys, e1, word)
    assert outcome(compose, e1, e2) == outcome(reference_compose, e1, e2)


@settings(max_examples=150, deadline=None)
@given(endo_cases())
def test_satisfies_relations_matches_letterwise_substitution(case):
    sys, e1, e2, _ = case
    for e in (e1, e2, compose(e1, e2)):
        expected = all(reference_apply(sys, e, r) == () for r in sys.relators())
        assert satisfies_relations(sys, e) == expected


@st.composite
def star_endos(draw):
    """A star automorphism inner(x) o graph(perm) o theta(cvec), or an
    image list as drawn by ``image_lists``."""
    s = STARS[draw(st.sampled_from(sorted(STARS)))]
    if draw(st.booleans()):
        return s, draw(image_lists(s.system))
    perm = []
    for block in s.blocks:
        perm.extend(draw(st.permutations(block)))
    cvec = [
        draw(st.sampled_from([k for k in range(1, s.t_of(i)) if math.gcd(k, s.t_of(i)) == 1]))
        for i in s.leaves
    ]
    x = draw(words(s.rank, 8))
    e = compose(inner_auto(s, x), compose(graph_auto(s, perm), theta_product(s, cvec)))
    return s, e


def test_a_bad_letter_in_a_built_image_reports_as_before():
    sys = PATHS["path3333"]
    # building the record names the first bad letter in image order
    with pytest.raises(BadLetter, match=r"^letter 7 out of range 1\.\.5$"):
        Endomorphism(system=sys, images=((1,), (2, 7, 2), (3,), (4, "x"), (5,)))
    with pytest.raises(BadLetter, match=r"^letter 'x' is not an integer$"):
        Endomorphism(system=sys, images=((1,), (2, 2), (3,), (4, "x"), (5,)))
    e = Endomorphism(system=sys, images=((1,), (2, 2), (3,), (4,), (5,)))
    assert apply(sys, e, (1, 3, 5, 3)) == (1, 3, 5, 3)
    avoids = Endomorphism(system=sys, images=((1,), (1,), (3, 5, 3), (5,), (5,)))
    assert compose(e, avoids).images == ((1,), (1,), (3, 5, 3), (5,), (5,))
