"""The cores of star automorphisms in closed form, and the recomposition
check that ``factorize`` used to run kept as a test oracle.

``_core`` below spells the image of leaf g under graph(perm) o
exponent_product(cvec), the reflection w_1 (w_1 w_j)^k, as a ShortLex
normal form read off from k and t_j (``autkit._leaf_core``).
``factorize`` certifies its factors by comparing reduced words with those
cores; the oracle here recomposes the factors and compares them with the
input's reduced images instead.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox import AutFactorization, factorize, make_endo, recompose, reduce_word
from oddcox.autkit import _leaf_core
from oddcox.words import alternating, inverse_word

from conftest import star
from test_factor_space import STARS
from tits_oracle import TitsImage


def _core(star, f, g):
    """The image of generator g under graph(perm) o exponent_product(cvec),
    as its ShortLex normal form: the single-generator spelling that
    ``autkit`` kept before it spelled phi(word) in one place, kept here as
    a reference."""
    if g == 1:
        return (1,)
    return _leaf_core(f.perm_of(g), f.cvec[g - 2], star.t_of(g))


def _units(t):
    return [k for k in range(1, t) if math.gcd(k, t) == 1]


def test_core_is_the_reduced_reflection_for_every_odd_label():
    for t in range(3, 22, 2):
        s = star(t, t)
        for k in _units(t):
            # the swap sends leaf g into the subgroup of the other leaf
            f = AutFactorization(inner=(), cvec=(k, k), perm=(3, 2))
            for g, j in ((2, 3), (3, 2)):
                expected = reduce_word(s.system, alternating(j, 1, 2 * k - 1))
                assert _core(s, f, g) == expected, (t, k, g)
                assert len(expected) == min(2 * k - 1, 2 * (t - k) + 1)
        assert _core(s, AutFactorization(inner=(), cvec=(1, 1), perm=(2, 3)), 1) == (1,)


def test_cores_on_an_all_three_star_are_exact_normal_forms():
    s = star(3, 3, 3)
    exact = TitsImage(s.system, p=None)
    for perm in ((2, 3, 4), (3, 4, 2), (4, 2, 3), (2, 4, 3)):
        for cvec in ((1, 1, 1), (2, 2, 2), (1, 2, 1), (2, 1, 2)):
            f = AutFactorization(inner=(), cvec=cvec, perm=perm)
            for g in s.system.generators:
                assert exact.is_normal_form(_core(s, f, g)), (perm, cvec, g)
    # the longest element of an edge group: ShortLex starts it with 1
    assert _core(s, AutFactorization(inner=(), cvec=(2, 1, 1), perm=(2, 3, 4)), 2) == (1, 2, 1)


# the r10 and r33 stars of the aut_star benchmark, a one-leaf star and an
# all-3 star
ORACLE_STARS = {**STARS, "r2": star(5), "r4": star(3, 3, 3)}


@st.composite
def automorphisms(draw):
    """A star and an automorphism given by unreduced images: generator g
    maps to x^-1 c_g x, with c_g spelled (j 1 j ... j), 2k - 1 letters,
    for a leaf and (1) for the center, independently of ``_core``."""
    s = ORACLE_STARS[draw(st.sampled_from(sorted(ORACLE_STARS)))]
    x = tuple(draw(st.lists(st.integers(1, s.rank), max_size=12)))
    perm = []
    for block in s.blocks:
        perm.extend(draw(st.permutations(block)))
    cvec = [draw(st.sampled_from(_units(s.t_of(i)))) for i in s.leaves]
    xinv = inverse_word(x)
    images = [xinv + (1,) + x]
    for j, k in zip(perm, cvec):
        images.append(xinv + alternating(j, 1, 2 * k - 1) + x)
    return s, make_endo(s.system, images)


@settings(max_examples=80, deadline=None)
@given(automorphisms())
def test_factors_recompose_to_the_reduced_images(case):
    s, e = case
    f = factorize(s, e)
    assert recompose(s, f).images == tuple(reduce_word(s.system, w) for w in e.images)
