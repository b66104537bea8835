"""The factor-space product ``compose_factors`` against ``compose`` of the
recomposed images, its inverse ``invert_factorization``, and the outer-class
key ``outer_key`` behind ``is_inner``."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox.autkit import (
    AutFactorization,
    compose,
    compose_factors,
    invert_factorization,
    is_inner,
    outer_key,
    recompose,
)
from oddcox.errors import BadThetaExponent, BlockViolatingPermutation
from oddcox.words import reduce_word
from conftest import star

STARS = {
    "star3359": star(3, 3, 5, 9),
    "star333": star(3, 3, 3),
    "star5515": star(5, 5, 15),
    # the r33 star of the aut_star benchmark workload
    "r33": star(*((3,) * 8 + (5,) * 6 + (7,) * 6 + (9,) * 6 + (15,) * 6)),
}


def unit_exponents(t):
    return [k for k in range(1, t) if math.gcd(k, t) == 1]


@st.composite
def factors_on(draw, s, max_inner=20):
    """Valid factors on star s: any inner word, a block-respecting
    permutation and unit exponents, the exponents often all 1 or all t - 1
    and the permutation often the identity, so inner maps are drawn too."""
    inner = tuple(draw(st.lists(st.integers(1, s.rank), max_size=max_inner)))
    if draw(st.booleans()):
        perm = tuple(s.leaves)
    else:
        perm = []
        for block in s.blocks:
            perm.extend(draw(st.permutations(block)))
        perm = tuple(perm)
    shape = draw(st.sampled_from(["units", "units", "ones", "minus"]))
    if shape == "ones":
        cvec = (1,) * len(s.leaves)
    elif shape == "minus":
        cvec = tuple(s.t_of(i) - 1 for i in s.leaves)
    else:
        cvec = tuple(draw(st.sampled_from(unit_exponents(s.t_of(i)))) for i in s.leaves)
    return AutFactorization(inner=inner, cvec=cvec, perm=perm)


@st.composite
def factor_pairs(draw):
    s = STARS[draw(st.sampled_from(sorted(STARS)))]
    return s, draw(factors_on(s)), draw(factors_on(s))


def identity(s):
    return AutFactorization(inner=(), cvec=(1,) * len(s.leaves), perm=tuple(s.leaves))


@settings(max_examples=120, deadline=None)
@given(factor_pairs())
def test_product_matches_composing_the_recomposed_images(case):
    s, f1, f2 = case
    product = compose_factors(s, f1, f2)
    expected = compose(recompose(s, f1), recompose(s, f2))
    assert recompose(s, product).images == expected.images
    # the inner word comes out in normal form
    assert product.inner == reduce_word(s.system, product.inner)


@settings(max_examples=60, deadline=None)
@given(factor_pairs())
def test_inverse_factors_multiply_to_the_identity_in_both_orders(case):
    s, f, _ = case
    inverse = invert_factorization(s, f)
    assert compose_factors(s, f, inverse) == identity(s)
    assert compose_factors(s, inverse, f) == identity(s)


def test_the_identity_is_a_two_sided_unit_and_theta_minus_one_is_inner():
    s = STARS["star3359"]
    f = AutFactorization(inner=(2, 1, 4), cvec=(2, 1, 3, 4), perm=(3, 2, 4, 5))
    assert compose_factors(s, identity(s), f) == compose_factors(s, f, identity(s))
    assert compose_factors(s, f, identity(s)).perm == f.perm
    # exponent_product(-1) = inner(w_1): ((1,), all t - 1, id) is the identity
    minus = AutFactorization(inner=(1,), cvec=(2, 2, 4, 8), perm=tuple(s.leaves))
    assert recompose(s, minus).images == recompose(s, identity(s)).images
    assert compose_factors(s, minus, minus) == identity(s)


def test_product_refuses_invalid_factors():
    s = star(3, 3, 5)
    good = identity(s)
    crossing = AutFactorization(inner=(), cvec=(1, 1, 1), perm=(4, 3, 2))
    non_unit = AutFactorization(inner=(), cvec=(1, 1, 5), perm=(2, 3, 4))
    for bad, error in ((crossing, BlockViolatingPermutation), (non_unit, BadThetaExponent)):
        with pytest.raises(error):
            compose_factors(s, bad, good)
        with pytest.raises(error):
            compose_factors(s, good, bad)


@st.composite
def single_factors(draw):
    s = STARS[draw(st.sampled_from(sorted(STARS)))]
    return s, draw(factors_on(s))


@settings(max_examples=200, deadline=None)
@given(single_factors())
def test_is_inner_keeps_the_rule_it_had(case):
    s, f = case
    # the rule before outer_key: a trivial permutation and exponents all 1
    # or all t - 1
    trivial_perm = all(f.perm[i - 2] == i for i in s.leaves)
    all_one = all(k == 1 for k in f.cvec)
    all_minus = all(k == s.t_of(i) - 1 for i, k in zip(s.leaves, f.cvec))
    assert is_inner(s, f) == (trivial_perm and (all_one or all_minus))


@st.composite
def inner_and_factors(draw):
    s = STARS[draw(st.sampled_from(sorted(STARS)))]
    y = tuple(draw(st.lists(st.integers(1, s.rank), max_size=20)))
    if draw(st.booleans()):
        cvec = (1,) * len(s.leaves)
    else:
        cvec = tuple(s.t_of(i) - 1 for i in s.leaves)
    inner = AutFactorization(inner=y, cvec=cvec, perm=tuple(s.leaves))
    return s, inner, draw(factors_on(s))


@settings(max_examples=100, deadline=None)
@given(inner_and_factors())
def test_outer_key_ignores_composing_with_an_inner_automorphism(case):
    s, inner, f = case
    assert is_inner(s, inner)
    key = outer_key(s, f)
    assert outer_key(s, compose_factors(s, inner, f)) == key
    assert outer_key(s, compose_factors(s, f, inner)) == key
