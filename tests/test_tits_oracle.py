"""The word engine and the star automorphisms against the Tits
representation (``tits_oracle``), which shares nothing with the engine: a
reduction, a recomposition or an inverse that changed the element would
change its image.  Images are taken over F_p, and exactly over the
integers where every label is 3, which also decides normal forms."""

import itertools
import math
import random

import pytest

from oddcox import (
    alternating,
    cayley_ball,
    factorize,
    make_endo,
    recompose,
    reduce_word,
    try_invert,
)
from conftest import star
from test_engine_oracle import PATH_3333, _adversarial_spellings
from tits_oracle import P, TitsImage, label_lcm

# the star labels of the aut_star benchmark workload
STARS = {
    "r10": (3, 3, 3, 5, 5, 9, 9, 15, 21),
    "r13": (3,) * 12,
    "r33": (3,) * 8 + (5,) * 6 + (7,) * 6 + (9,) * 6 + (15,) * 6,
    "r129": (3,) * 32 + (5,) * 24 + (7,) * 24 + (9,) * 24 + (15,) * 24,
}
WORDS = 30
MAX_LETTERS = 200


def tits(sys):
    assert (P - 1) % (2 * label_lcm(sys)) == 0, f"p = {P} is not 1 mod 2L"
    return TitsImage(sys)


def star_word(rng, s, length):
    """Random letters mixed with alternating runs on {1, j} of up to 2t_j
    letters, so that the engine rewrites runs, not only cancels pairs."""
    word = []
    while len(word) < length:
        if rng.random() < 0.5:
            word.append(rng.randint(1, s.rank))
        else:
            j = rng.choice(s.leaves)
            first, second = (1, j) if rng.random() < 0.5 else (j, 1)
            word += alternating(first, second, rng.randint(2, 2 * s.t_of(j)))
    return tuple(word[:length])


def test_oracle_sees_the_relators_and_separates_a_ball():
    s = star(3, 5, 7)
    image = tits(s.system)
    identity = image(())
    for r in s.system.relators():
        assert image(r) == identity
    ball = cayley_ball(s.system, 5).elements
    assert len({image(w) for w in ball}) == len(ball)
    for w in ball:
        for g in s.system.generators:
            assert image(w + (g,)) != image(w)


def test_exact_oracle_picks_the_ball_out_of_all_words():
    sys = star(3, 3).system
    image = TitsImage(sys, p=None)
    words = [
        w for r in range(5) for w in itertools.product(sys.generators, repeat=r)
    ]
    normal = [w for w in words if image.is_normal_form(w)]
    ball = cayley_ball(sys, 4).elements
    assert sorted(normal, key=lambda w: (len(w), w)) == list(ball)
    assert len({image(w) for w in normal}) == len(normal)


@pytest.mark.parametrize("name", STARS)
def test_reduce_word_keeps_the_image(name):
    s = star(*STARS[name])
    sys = s.system
    image = tits(sys)
    rng = random.Random(f"tits/{name}")
    for _ in range(WORDS):
        word = star_word(rng, s, rng.randint(0, MAX_LETTERS))
        assert image(reduce_word(sys, word)) == image(word)


@pytest.mark.parametrize("sys", [PATH_3333, star(3, 3).system], ids=["path", "star"])
def test_reduce_word_gives_the_normal_form_of_uniform_words(sys):
    # labels 3 make the images exact, so the output is checked to be the
    # ShortLex normal form, not only the same element; many letters here
    # cancel far from where they meet, which runs the automaton's exchange
    image = TitsImage(sys, p=None)
    rng = random.Random(f"tits/uniform/{sys.rank}")
    for _ in range(WORDS):
        length = rng.randint(0, MAX_LETTERS)
        word = tuple(rng.randint(1, sys.rank) for _ in range(length))
        canon = reduce_word(sys, word)
        assert image(canon) == image(word)
        assert image.is_normal_form(canon)


def automorphism(rng, s):
    """Unreduced images of e = inner(x) o graph(perm) o exponent_product(cvec)
    and of its inverse, spelled from the definitions.

    e sends g to x c_g x^-1, with c_1 = w_1 and c_i = w_1 (w_1 w_perm(i))^k_i
    for a leaf i.  The inverse substitutes, into x^-1 g x, w_1 for w_1 and
    w_1 (w_1 w_j)^k' for a leaf perm(j), where k' k_j = 1 mod t_j: the leaf
    maps with exponents k and k' compose to w_j -> w_1 (w_1 w_j)^(k k').
    """
    blocks = {}
    for leaf in s.leaves:
        blocks.setdefault(s.t_of(leaf), []).append(leaf)
    perm = {}
    for block in blocks.values():
        images = list(block)
        rng.shuffle(images)
        perm.update(zip(block, images))
    x = tuple(rng.randint(1, s.rank) for _ in range(4))
    xinv = x[::-1]
    forward = [x + (1,) + xinv]
    back = {1: (1,)}
    for j in s.leaves:
        t = s.t_of(j)
        k = rng.choice([k for k in range(1, t) if math.gcd(k, t) == 1])
        forward.append(x + (1,) + (1, perm[j]) * k + xinv)
        back[perm[j]] = (1,) + (1, j) * pow(k, -1, t)
    inverse = [
        tuple(a for h in xinv + (g,) + x for a in back[h])
        for g in s.system.generators
    ]
    return forward, inverse


@pytest.mark.parametrize("name", ["r33", "r129"])
def test_round_trips_keep_the_images(name):
    s = star(*STARS[name])
    sys = s.system
    image = tits(sys)
    rng = random.Random(f"tits-round-trip/{name}")
    for _ in range(2):
        forward, inverse = automorphism(rng, s)
        e = make_endo(sys, forward)
        rebuilt = recompose(s, factorize(s, e))
        inverted = try_invert(s, e)
        for g in sys.generators:
            assert image(rebuilt.image_of(g)) == image(forward[g - 1])
            assert image(inverted.image_of(g)) == image(inverse[g - 1])


@pytest.mark.parametrize("k", [1, 2, 5, 10, 25, 50, 100])
def test_adversarial_spellings_keep_the_image(k):
    image = TitsImage(PATH_3333, p=None)
    canon = (1, 2, 1, 4, 5, 4) * k
    assert image.is_normal_form(canon)
    target = image(canon)
    for word in _adversarial_spellings(k, random.Random(k)):
        assert image(word) == target
        assert image(reduce_word(PATH_3333, word)) == target
