"""``verify_endo``, ``factorize`` and ``try_invert`` read a star map through
``classify_endo``; these tests hold them to references that do not.

``verify_endo`` must return what ``satisfies_relations`` returns, which
substitutes into every relator.
``reference_factorize`` is the factorization that reduces each conjugate
x e(g) x^-1 whole and finds x by the length descent that reduces s v s at
every step (``reference_to_base``); ``factorize`` must give its values and
messages, and ``try_invert`` its refusals and a two-sided inverse.  The
images are drawn to hit the classification's cases: conjugates
x^-1 c x by one common x with c in one dihedral subgroup <w_1, w_j>
(reflections of every exponent, so the order test t_j / gcd(k, t_j) | t_i
both holds and fails, rotations, w_1 itself and the identity), random
words, the empty word and words with a bad letter.  A bad letter must be
refused when the record is built, and is then left out (``built``).
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox import autkit, words
from oddcox.autkit import (
    AutFactorization,
    Endomorphism,
    classify_endo,
    factorize,
    make_endo,
    recompose,
    satisfies_relations,
    try_invert,
    verify_endo,
)
from oddcox.errors import (
    BadThetaExponent,
    BlockViolatingPermutation,
    NotAutomorphism,
    NotInvolution,
    OddCoxeterError,
)
from oddcox.oracle import cayley_ball
from oddcox.words import alternating, check_word, conjugate, dihedral_log, reduce_word
from conftest import star
from test_substitution import built, first_bad_letter, reference_compose

LABELS = [3, 5, 7, 9, 15, 21]


def outcome(fn, *args):
    """The value of a call, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except OddCoxeterError as exc:
        return type(exc).__name__, str(exc)


def reference_to_base(s, v):
    """x with x v x^-1 = w_1: the length descent, reducing s v s each step."""
    sys = s.system
    cur = reduce_word(sys, v)
    if cur == ():
        raise NotInvolution("the identity is not a nontrivial involution")
    if reduce_word(sys, cur + cur) != ():
        raise NotInvolution("word does not square to the identity")
    acc = ()
    while len(cur) > 1:
        acc, cur = (cur[0],) + acc, reduce_word(sys, (cur[0],) + cur + (cur[0],))
    j = cur[0]
    shift = alternating(j, 1, s.t_of(j) - 1) if j != 1 else ()
    return reduce_word(sys, shift + acc)


def reference_factorize(s, e):
    sys = s.system
    if e.system != sys:
        raise NotAutomorphism("endomorphism belongs to a different system")
    images = [check_word(sys, w) for w in e.images]
    try:
        x = reference_to_base(s, images[0])
    except NotInvolution as exc:
        raise NotAutomorphism(f"center image is not an involution: {exc}") from exc
    us = [conjugate(sys, w, x) for w in images]
    perm, cvec = [], []
    for i, u in zip(s.leaves, us[1:]):
        leaf_letters = set(u) - {1}
        if len(leaf_letters) != 1:
            raise NotAutomorphism(
                f"image of leaf {i} has support {sorted(set(u))}, "
                "expected exactly one maximal dihedral subgroup"
            )
        (j,) = leaf_letters
        perm.append(j)
        cvec.append(dihedral_log(s, j, u)[1])
    f = AutFactorization(inner=x, cvec=tuple(cvec), perm=tuple(perm))
    try:
        back = recompose(s, f)
    except (BlockViolatingPermutation, BadThetaExponent) as exc:
        raise NotAutomorphism(str(exc)) from exc
    for g, w, v in zip(sys.generators, images, back.images):
        if reduce_word(sys, w) != v:
            raise NotAutomorphism(f"recomposition differs from the input on generator {g}")
    return f


@st.composite
def star_maps(draw):
    """A star of rank 2-6 and an image list as drawn (see the module
    docstring), which ``built`` turns into a record."""
    s = star(*draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5)))
    n = s.rank
    x = tuple(draw(st.lists(st.integers(1, n), max_size=5)))
    xinv = x[::-1]

    def dihedral():
        j = draw(st.sampled_from(list(s.leaves)))
        k = draw(st.integers(0, s.t_of(j) - 1))
        shape = draw(st.sampled_from(["reflection"] * 4 + ["rotation", "center"]))
        if shape == "center":
            return (1,)
        c = alternating(1, j, 2) * k
        return (1,) + c if shape == "reflection" else c

    images = []
    for g in s.system.generators:
        if g == 1 and draw(st.integers(0, 3)):
            shape = "center"  # mostly an involution, so the leaves are read
        else:
            shape = draw(
                st.sampled_from(["conjugated"] * 6 + ["random", "empty", "bad"])
            )
        if shape == "center":
            images.append(xinv + draw(st.sampled_from([(1,), (2,), (1, 2, 1)])) + x)
        elif shape == "conjugated":
            images.append(xinv + dihedral() + x)
        elif shape == "random":
            images.append(tuple(draw(st.lists(st.integers(1, n), max_size=8))))
        elif shape == "empty":
            images.append(())
        else:
            w = tuple(draw(st.lists(st.integers(1, n), max_size=4)))
            pos = draw(st.integers(0, len(w)))
            bad = draw(st.sampled_from([0, n + 1, -1, "x"]))
            images.append(w[:pos] + (bad,) + w[pos:])
    return s, tuple(images)


@settings(max_examples=600, deadline=None)
@given(star_maps())
def test_verify_endo_matches_the_relator_check(case):
    s, images = case
    e = built(s.system, images)
    assert outcome(verify_endo, s, e) == outcome(satisfies_relations, s.system, e)


@settings(max_examples=400, deadline=None)
@given(star_maps())
def test_factorize_and_try_invert_match_the_reference(case):
    s, images = case
    e = built(s.system, images)
    expected = outcome(reference_factorize, s, e)
    assert outcome(factorize, s, e) == expected
    got = outcome(try_invert, s, e)
    if isinstance(expected, AutFactorization):
        identity = tuple((g,) for g in s.system.generators)
        assert all(reduce_word(s.system, w) == w for w in got.images)
        assert reference_compose(e, got).images == identity
        assert reference_compose(got, e).images == identity
    elif expected[0] == "NotAutomorphism":
        assert got == ("NotSurjective", f"endomorphism is not onto: {expected[1]}")
    else:
        assert got == expected


def test_the_draws_reach_every_decision():
    seen = set()

    # derandomized: random draws missed a decision in some runs
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(star_maps())
    def collect(case):
        s, images = case
        if first_bad_letter(s.system, images) is not None:
            seen.add("BadLetter")
        e = built(s.system, images)
        verified = outcome(verify_endo, s, e)
        factored = outcome(factorize, s, e)
        factored = "factored" if isinstance(factored, AutFactorization) else factored[0]
        seen.add((verified if isinstance(verified, bool) else verified[0], factored))

    collect()
    assert {
        (True, "factored"),
        (True, "NotAutomorphism"),
        (False, "NotAutomorphism"),
        "BadLetter",
    } <= seen


@pytest.mark.parametrize(
    "labels, images, verified",
    [
        # u_3 is a reflection of D_2 of order 3, which divides t_3 = 9
        ((3, 9), [(1,), (2,), (2,)], True),
        # u_2 is a reflection of D_3 of order 9, which does not divide t_2 = 3
        ((3, 9), [(1,), (3,), (3,)], False),
        # (1 3)^3 1 is a reflection of D_3 of order 3
        ((3, 9), [(1,), (1, 3, 1, 3, 1, 3, 1), (3,)], True),
        # k = 0: a leaf sent to the center
        ((5, 7), [(1,), (1,), (3,)], True),
        # a rotation is no reflection
        ((5,), [(1,), (1, 2)], False),
        # two leaves' letters: (2 3 2) lies in no dihedral subgroup
        ((3, 5), [(1,), (2,), (2, 3, 2)], False),
        # the trivial map, and the center sent to 1 with a leaf that is not
        ((3, 5), [(), (2, 2), ()], True),
        ((3, 5), [(), (2,), ()], False),
        # the center sent to a rotation
        ((3,), [(1, 2), (1, 2)], False),
    ],
)
def test_classification_examples(labels, images, verified):
    s = star(*labels)
    e = make_endo(s.system, images)
    assert satisfies_relations(s.system, e) is verified
    assert verify_endo(s, e) is verified


def test_classify_endo_reads_the_conjugator_the_conjugates_and_the_targets():
    s = star(3, 9)
    x = (2, 3)
    e = recompose(s, AutFactorization(inner=x, cvec=(2, 4), perm=(2, 3)))
    c = classify_endo(s, e)
    assert c.inner == x
    assert c.conjugates == ((1,), (1, 2, 1), (3, 1, 3, 1, 3, 1, 3))
    assert c.targets == ((2, 2), (3, 4))
    trivial = make_endo(s.system, [(), (2, 2), ()])
    assert outcome(classify_endo, s, trivial) == (
        "NotInvolution",
        "the identity is not a nontrivial involution",
    )


def test_a_trivial_center_image_is_refused_before_any_other_image_is_reduced():
    s = star(3, 5)
    e = make_endo(s.system, [(), (2, 1, 2, 1), ()])
    refusal = (
        "NotAutomorphism",
        "center image is not an involution: the identity is not a nontrivial involution",
    )
    assert outcome(factorize, s, e, 0) == refusal
    assert outcome(try_invert, s, e, 0) == (
        "NotSurjective",
        f"endomorphism is not onto: {refusal[1]}",
    )


def test_a_bad_letter_after_an_image_that_is_no_involution_is_not_read():
    s = star(3, 5)
    # the record refuses a bad letter when it is built, wherever it stands
    for images in (((1,), (1, 2), (9,)), ((1,), (2,), (3, 9))):
        assert outcome(Endomorphism, s.system, images) == (
            "BadLetter",
            "letter 9 out of range 1..3",
        )
    e = Endomorphism(system=s.system, images=((1,), (1, 2), (3,)))
    assert satisfies_relations(s.system, e) is False
    assert verify_endo(s, e) is False


def reduction_inputs(monkeypatch) -> list:
    """The length of each word ``_reduce`` reads from here on, called from
    ``words`` or from ``autkit``."""
    lengths = []

    def counting(reduce):
        def wrapped(sys, word, budget):
            lengths.append(len(word))
            return reduce(sys, word, budget)

        return wrapped

    monkeypatch.setattr(words, "_reduce", counting(words._reduce))
    monkeypatch.setattr(autkit, "_reduce", counting(autkit._reduce))
    return lengths


BIG = star(3, 100001)


def test_a_big_label_is_decided_without_reducing_its_relator(monkeypatch):
    # testing (1 3)^100001 on e(1) e(3) = 1 2 3 2 reduces 400,004 letters
    e = make_endo(BIG.system, [(1,), (2,), (2, 3, 2)])
    lengths = reduction_inputs(monkeypatch)
    tracemalloc.start()
    try:
        verified = verify_endo(BIG, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verified is False
    assert peak < 10**6
    assert lengths and max(lengths) <= 10


@pytest.mark.parametrize("length", [400, 800])
def test_a_long_inner_word_factors_with_few_reductions(monkeypatch, length):
    # the star of the benchmark's r13: twelve leaves of label 3
    s = star(*(3,) * 12)
    x = reduce_word(s.system, [1 if i % 2 else 2 + i % 12 for i in range(length)])
    assert len(x) == length
    f = AutFactorization(inner=x, cvec=(2,) * 6 + (1,) * 6, perm=tuple(range(2, 14)))
    e = recompose(s, f)
    lengths = reduction_inputs(monkeypatch)
    assert factorize(s, e) == f
    assert len(lengths) <= s.rank + 10


@pytest.mark.parametrize("labels, radius", [((3, 3), 9), ((3, 5), 9), ((5, 5, 5), 7)])
def test_canonical_words_of_a_star_reverse_to_canonical_words(labels, radius):
    """The reversal lemma of ``words``, so a canonical involution is a
    palindrome, and a canonical palindrome is an involution."""
    sys = star(*labels).system
    for v in cayley_ball(sys, radius).elements:
        assert reduce_word(sys, v[::-1]) == v[::-1], v
        assert (v == v[::-1]) is (reduce_word(sys, v + v) == ()), v
