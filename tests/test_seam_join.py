"""``words._joined`` joins canonical words on a star at their seams, and
``autkit.recompose`` builds each image x^-1 core x with it.

The join cancels equal letters across each seam and returns the result
as it stands when every maximal alternating run through a seam has at
most m letters and, with exactly m, starts with 1 (the seam corollary in
the ``words`` docstring); otherwise ``_reduce`` reads it.  These tests
hold it to ``_reduce`` of the plain concatenation on stars of rank at
most 6 with labels 3 to 21.  Pieces are cores, palindromes, random
canonical words, words that cancel the end of the word so far
completely, and the empty word.  For the x^-1 core x shape that
``recompose`` joins, a certified join must also be one that ``_reduce``
of the concatenation reads with no rewrite step, so skipping that read
changes no budget refusal.  ``reference_recompose`` is recompose as it
was before the join: each x^-1 core x spelled by ``_spell`` and reduced
whole.

``words._free_join`` is the one free reduction across seams, which
``_joined`` and ``autkit.classify_endo`` both read.  It is held to the
letter-by-letter free reduction, seams included, on stars and on other
trees, and ``classify_endo``'s conjugates are held to the two-loop cut
they replaced (``reference_conjugate``), at small budgets too.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddcox import autkit, words
from oddcox.autkit import (
    AutFactorization,
    Endomorphism,
    classify_endo,
    graph_auto,
    inner_auto,
    recompose,
    theta_product,
)
from oddcox.errors import OrbitBudgetExceeded
from oddcox.words import (
    DEFAULT_ORBIT_BUDGET,
    _free_join,
    _joined,
    _reduce,
    alternating,
    involution_to_base,
)

from conftest import star
from helpers import random_tree_system

LABELS = range(3, 22, 2)


def random_star(rng):
    return star(*(rng.choice(LABELS) for _ in range(rng.randint(1, 5))))


def canonical(s, word):
    return _reduce(s.system, tuple(word), DEFAULT_ORBIT_BUDGET)


def random_word(rng, s, top):
    return [rng.randint(1, s.rank) for _ in range(rng.randint(0, top))]


def core(rng, s):
    """(1), or a leaf reflection w_1 (w_1 w_j)^k for any k, in normal form."""
    if rng.random() < 0.2:
        return (1,)
    j = rng.randint(2, s.rank)
    return canonical(s, alternating(j, 1, 2 * rng.randint(1, s.t_of(j) - 1) - 1))


def palindrome(rng, s):
    """The canonical word of an involution, a palindrome by the reversal
    lemma."""
    w = random_word(rng, s, 6)
    return canonical(s, w + [rng.randint(1, s.rank)] + w[::-1])


def free_reduction(pieces):
    """The concatenation with equal adjacent letters cancelled, each letter
    tagged with the index of its piece."""
    out = []
    for k, piece in enumerate(pieces):
        for letter in piece:
            if out and out[-1][0] == letter:
                out.pop()
            else:
                out.append((letter, k))
    return out


def draw_pieces(rng):
    """A star and one to five canonical pieces of mixed kinds."""
    s = random_star(rng)
    pieces = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(5)
        if kind == 0:
            piece = core(rng, s)
        elif kind == 1:
            piece = palindrome(rng, s)
        elif kind == 2:
            piece = canonical(s, random_word(rng, s, 10))
        elif kind == 3:
            # the reversal of the end of the last piece, canonical by the
            # factor and reversal lemmas: it cancels that end completely,
            # and more when it reaches past what is left of the piece
            last = pieces[-1] if pieces else ()
            piece = last[len(last) - rng.randint(0, len(last)) :][::-1]
        else:
            piece = ()
        pieces.append(piece)
    return s, pieces


def draw_conjugate(rng):
    """A star, x and a core c for the shape x^-1 c x; x often starts with
    part of c, so letters cancel at one seam or both."""
    s = random_star(rng)
    c = core(rng, s)
    head = c[: rng.randint(0, len(c))] if rng.random() < 0.6 else ()
    x = canonical(s, list(head) + random_word(rng, s, 8))
    return s, (x[::-1], c, x)


def failing_seams(s, pieces):
    """The kinds of failing seam in the free reduction of ``pieces``: a run
    longer than m ("long"), a run of m that starts with a leaf ("leaf"),
    and a failing seam between two pieces with a non-empty piece between
    them that cancelled to nothing ("vanished")."""
    out = free_reduction(pieces)
    letters = [letter for letter, _ in out]
    kinds = set()
    for p in range(1, len(out)):
        left, right = out[p - 1][1], out[p][1]
        if left == right:
            continue
        m = s.system.neighbors(letters[p - 1]).get(letters[p])
        if m is None:
            continue
        lo, hi = p - 1, p
        while lo > 0 and letters[lo - 1] == letters[lo + 1]:
            lo -= 1
        while hi + 1 < len(out) and letters[hi + 1] == letters[hi - 1]:
            hi += 1
        length = hi - lo + 1
        if length > m:
            kinds.add("long")
        elif length == m and letters[lo] != 1:
            kinds.add("leaf")
        else:
            continue
        if any(pieces[k] for k in range(left + 1, right)):
            kinds.add("vanished")
    return kinds


def joined_and_certified(s, pieces, monkeypatch):
    """The join, and whether it certified: it read no word with ``_reduce``."""
    calls = []

    def counting(*args):
        calls.append(args)
        return _reduce(*args)

    with monkeypatch.context() as patch:
        patch.setattr(words, "_reduce", counting)
        out = _joined(s.system, pieces, DEFAULT_ORBIT_BUDGET)
    return out, not calls


def check_join(s, pieces, monkeypatch):
    concatenation = tuple(letter for piece in pieces for letter in piece)
    expected = canonical(s, concatenation)
    out, certified = joined_and_certified(s, pieces, monkeypatch)
    assert out == expected, (s.t, pieces)
    assert type(out) is tuple
    if certified:
        assert not failing_seams(s, pieces), (s.t, pieces)
    return certified


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_the_join_is_the_reduced_concatenation(rng):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_join(*draw_pieces(rng), monkeypatch)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_certified_conjugate_skips_no_rewrite_step(rng):
    s, pieces = draw_conjugate(rng)
    with pytest.MonkeyPatch.context() as monkeypatch:
        certified = check_join(s, pieces, monkeypatch)
    if certified:
        # budget 1 refuses the first rewrite step: the plain read takes none
        _reduce(s.system, sum(pieces, ()), 1)


def test_seeded_draws_reach_every_kind_of_failing_seam(monkeypatch):
    """Every kind of failing seam is drawn, and each join still equals the
    reduced concatenation, so a join that let any of them through would
    fail here whatever the hypothesis draws."""
    rng = random.Random(20261020)
    reached = dict.fromkeys(("long", "leaf", "vanished"), 0)
    certified = 0
    for _ in range(3000):
        s, pieces = draw_pieces(rng) if rng.random() < 0.5 else draw_conjugate(rng)
        certified += check_join(s, pieces, monkeypatch)
        for kind in failing_seams(s, pieces):
            reached[kind] += 1
    assert all(count >= 20 for count in reached.values()), reached
    assert certified >= 1000, certified


def test_seams_that_cancel_away_or_are_left_behind():
    s = star(3, 3)
    sys = s.system
    # (2 1) then (1 2): the second piece cancels the first completely
    assert _joined(sys, ((2, 1), (1, 2)), 1) == ()
    # the core (1) vanishes into (2 1); x = (1 2) then meets (2) at a seam,
    # leaving (2 1 2), a site that starts with a leaf
    assert _joined(sys, ((2, 1), (1,), (1, 2)), DEFAULT_ORBIT_BUDGET) == (1, 2, 1)
    # a run of m + 1 across a seam: (1 2 1 2) = (2 1) when m(1, 2) = 3
    assert _joined(sys, ((1, 2), (1, 2)), DEFAULT_ORBIT_BUDGET) == (2, 1)
    # leaves 2 and 3 have no finite exponent: the seam 2 | 3 passes
    assert _joined(sys, ((1, 2), (), (3, 1)), 0) == (1, 2, 3, 1)


# recompose against the reduction of each spelled image


def reference_recompose(s, f, budget=DEFAULT_ORBIT_BUDGET):
    """Each image x^-1 core x spelled by ``_spell`` and reduced whole."""
    f = autkit._checked(s, f)
    return tuple(
        _reduce(s.system, autkit._spell(s, f, (g,)), budget) for g in s.system.generators
    )


@st.composite
def factorizations(draw):
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5))
    s = star(*labels)
    perm = []
    for block in s.blocks:
        perm.extend(draw(st.permutations(block)))
    cvec = tuple(
        draw(st.sampled_from([k for k in range(1, t) if math.gcd(k, t) == 1]))
        for t in s.t
    )
    kind = draw(st.sampled_from(("random", "canonical", "cancels", "empty")))
    rng = draw(st.randoms(use_true_random=False))
    word = random_word(rng, s, 10)
    if kind == "canonical":
        inner = canonical(s, word)
    elif kind == "cancels":
        # x starts with letters of a core, so x^-1 core x cancels into it
        c = autkit._cores(s, AutFactorization((), cvec, tuple(perm)))[
            rng.randrange(s.rank)
        ]
        inner = c[: rng.randint(1, len(c))] + tuple(word)
    elif kind == "empty":
        inner = ()
    else:
        inner = tuple(word)  # in general not canonical
    return s, AutFactorization(inner, cvec, tuple(perm))


@settings(max_examples=300, deadline=None)
@given(factorizations())
def test_recompose_gives_the_reduced_images(case):
    s, f = case
    assert recompose(s, f).images == reference_recompose(s, f)
    # the inner word is read once, then every image is joined
    ones = (1,) * (s.rank - 1)
    identity = tuple(s.leaves)
    assert inner_auto(s, f.inner[::-1]).images == reference_recompose(
        s, AutFactorization(f.inner, ones, identity)
    )
    assert graph_auto(s, f.perm).images == reference_recompose(
        s, AutFactorization((), ones, f.perm)
    )
    assert theta_product(s, f.cvec).images == reference_recompose(
        s, AutFactorization((), f.cvec, identity)
    )


def _answer(thunk):
    try:
        return thunk()
    except OrbitBudgetExceeded as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(factorizations(), st.integers(0, 8))
# reducing the non-canonical x alone takes 3 or 4 steps; each whole image 2
@example((star(3), AutFactorization((1, 2, 1, 2, 2), (1,), (2,))), 2)
@example((star(3), AutFactorization((2, 1, 2, 1, 1, 2, 2), (1,), (2,))), 2)
def test_recompose_answers_as_the_reference_at_small_budgets(case, budget):
    """Where both answer, at any budget, they agree; an exceeded budget is
    refused with the same message; and no image the reference answers is
    refused, for ``recompose`` or for ``inner_auto``."""
    s, f = case
    inner = AutFactorization(f.inner, (1,) * (s.rank - 1), tuple(s.leaves))
    for expected, got in (
        (
            _answer(lambda: reference_recompose(s, f, budget)),
            _answer(lambda: recompose(s, f, budget).images),
        ),
        (
            _answer(lambda: reference_recompose(s, inner, budget)),
            _answer(lambda: inner_auto(s, f.inner[::-1], budget).images),
        ),
    ):
        assert not (isinstance(expected, tuple) and isinstance(got, str)), (
            s.t, f, budget,
        )
        if isinstance(expected, tuple) and isinstance(got, tuple):
            assert got == expected
        elif isinstance(expected, str) and isinstance(got, str):
            assert got == expected == f"word engine exceeded {budget} rewrite steps"


# _free_join, the one free reduction across seams


def random_system(rng):
    """A star, or a random odd tree of rank 2 to 6, most of them no star."""
    if rng.random() < 0.5:
        return random_star(rng).system
    return random_tree_system(rng, rng.randint(2, 6))


def canonical_on(sys, word):
    return _reduce(sys, tuple(word), DEFAULT_ORBIT_BUDGET)


def letters_of(tagged):
    return tuple(letter for letter, _ in tagged)


def draw_free_pieces(rng):
    """A system and one to six freely reduced pieces: canonical words, the
    reversal of the end of the word joined so far, which cancels to
    nothing and reaches past the last piece when that one is short, the
    same followed by new letters, and the empty word."""
    sys = random_system(rng)
    pieces = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(4)
        so_far = letters_of(free_reduction(pieces))
        if kind == 0:
            piece = canonical_on(sys, random_word(rng, sys, 8))
        elif kind == 3:
            piece = ()
        else:
            piece = so_far[len(so_far) - rng.randint(0, len(so_far)) :][::-1]
            if kind == 2:
                piece = letters_of(free_reduction((piece, random_word(rng, sys, 4))))
        pieces.append(piece)
    return sys, pieces


def vanished(pieces):
    """How many non-empty pieces cancel to nothing in the free join."""
    survivors = {k for _, k in free_reduction(pieces)}
    return sum(1 for k, piece in enumerate(pieces) if piece and k not in survivors)


def check_free_join(sys, pieces):
    word, seams = _free_join(pieces)
    assert type(word) is tuple
    concatenation = tuple(letter for piece in pieces for letter in piece)
    # the same element: a free reduction changes no element
    assert canonical_on(sys, word) == canonical_on(sys, concatenation), pieces
    # every piece is freely reduced, so the join is the letter-by-letter
    # free reduction, and a seam is where two pieces meet in it
    tagged = free_reduction(pieces)
    assert word == letters_of(tagged), pieces
    assert seams == [p for p in range(1, len(tagged)) if tagged[p - 1][1] != tagged[p][1]]
    assert all(0 < p < len(word) for p in seams), (pieces, seams)
    assert seams == sorted(set(seams)), (pieces, seams)
    assert all(word[p - 1] != word[p] for p in seams), (pieces, seams)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_the_free_join_is_the_free_reduction_with_its_seams(rng):
    check_free_join(*draw_free_pieces(rng))


def test_seeded_free_joins_reach_vanished_pieces_on_stars_and_other_trees():
    """Pieces that cancel to nothing are drawn on stars and on trees that
    are no star, so the seam they leave is checked whatever hypothesis
    draws."""
    rng = random.Random(20261021)
    reached = {True: 0, False: 0}  # keyed by sys._star
    for _ in range(2000):
        sys, pieces = draw_free_pieces(rng)
        check_free_join(sys, pieces)
        reached[sys._star] += vanished(pieces) > 0
    assert min(reached.values()) >= 100, reached


def test_free_join_examples():
    # (2 1) then (1 2) cancels to nothing, and so does every empty piece
    assert _free_join(((2, 1), (1, 2))) == ((), [])
    assert _free_join(((), (), ())) == ((), [])
    # (1) vanishes into (2 1), leaving one seam between (2) and (1 2)...
    assert _free_join(((2, 1), (1,), (1, 2))) == ((2, 1, 2), [1])
    # (3 1 3) cancels past the seam between (2) and (1 3), which is gone,
    # and leaves a seam of its own there
    assert _free_join(((2,), (1, 3), (3, 1, 3))) == ((2, 3), [1])


# classify_endo's conjugates against the two-loop cut they replaced


def reference_conjugate(sys, v, x, budget):
    """x v x^-1 as ``classify_endo`` read it before ``_free_join``: equal
    letters cut at x | v, then at v | x^-1 among those left of v, and what
    is left reduced."""
    n = len(x)
    a = 0  # letters cancelled at x | v
    top = min(n, len(v))
    while a < top and x[-1 - a] == v[a]:
        a += 1
    b = 0  # letters cancelled at v | x^-1, among those left of v
    top = min(n, len(v) - a)
    while b < top and v[-1 - b] == x[-1 - b]:
        b += 1
    return _reduce(sys, x[: n - a] + v[a : len(v) - b] + x[::-1][b:], budget)


def draw_endo(rng):
    """A star and an image list whose center image is an involution, with
    images that the conjugator x cancels entirely at its first seam, at
    both seams, or not at all."""
    s = random_star(rng)
    x = canonical(s, random_word(rng, s, 8))
    center = x[::-1] + (rng.randint(1, s.rank),) + x
    if rng.random() < 0.5:
        center = canonical(s, center)
    # the conjugator classify_endo finds, which need not be x
    x = involution_to_base(s, center)
    images = [center]
    for _ in s.leaves:
        kind = rng.randrange(4)
        tail = x[len(x) - rng.randint(0, len(x)) :]
        if kind == 0:
            image = tail[::-1]  # x cancels all of it at x | v
        elif kind == 1:
            image = x[::-1]  # the whole x^-1: x cancels it, and x^-1 stays
        elif kind == 2:
            image = tail[::-1] + tuple(random_word(rng, s, 4)) + tail
        else:
            image = tuple(random_word(rng, s, 10))
        images.append(image)
    return s, Endomorphism(s.system, images)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 8))
def test_classify_endo_conjugates_as_the_two_loop_cut(rng, budget):
    """The conjugates, or the exceeded budget and its message, are those
    of the two-loop cut, at budgets 0 to 8 and at the default."""
    s, e = draw_endo(rng)
    for cap in (budget, DEFAULT_ORBIT_BUDGET):

        def reference():
            x = involution_to_base(s, e.images[0], cap)
            return tuple(reference_conjugate(s.system, w, x, cap) for w in e.images)

        expected = _answer(reference)
        got = _answer(lambda: classify_endo(s, e, cap).conjugates)
        assert got == expected, (s.t, e.images, cap)
