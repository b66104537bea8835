"""``factorize`` refuses a map through the factor validator or the core
certificate, with the message of the check that caught it, and accepts
exactly the near-automorphisms whose leaf map and exponents are valid."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox import (
    AutFactorization,
    factorize,
    make_endo,
    recompose,
    reduce_word,
    try_invert,
    verify_endo,
)
from oddcox.errors import (
    BadThetaExponent,
    BlockViolatingPermutation,
    NotAutomorphism,
    NotSurjective,
)
from oddcox.words import alternating, inverse_word
from conftest import star


def refl(j, k):
    """w_1 (w_1 w_j)^k, unreduced."""
    return (1,) + alternating(1, j, 2) * k


# (labels, images, factors read off them); each map is a verified
# endomorphism whose factors fail the factor validator
INVALID_FACTORS = {
    "label crossing": (
        (3, 9),
        [(1,), refl(3, 3), refl(2, 1)],
        AutFactorization(inner=(), cvec=(3, 1), perm=(3, 2)),
    ),
    "non-unit exponent": (
        (9,),
        [(1,), refl(2, 3)],
        AutFactorization(inner=(), cvec=(3,), perm=(2,)),
    ),
    "two leaves into one subgroup": (
        (3, 3),
        [(1,), (2,), (2,)],
        AutFactorization(inner=(), cvec=(1, 1), perm=(2, 2)),
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_FACTORS))
def test_invalid_factors_are_refused_with_the_validator_message(case):
    labels, images, read = INVALID_FACTORS[case]
    s = star(*labels)
    e = make_endo(s.system, images)
    assert verify_endo(s, e)
    with pytest.raises((BlockViolatingPermutation, BadThetaExponent)) as expected:
        recompose(s, read)
    message = str(expected.value)
    with pytest.raises(NotAutomorphism) as refused:
        factorize(s, e)
    assert str(refused.value) == message
    with pytest.raises(NotSurjective) as inverted:
        try_invert(s, e)
    assert str(inverted.value) == "endomorphism is not onto: " + message


def test_a_leaf_sent_to_a_rotation_fails_the_certificate():
    s = star(5)
    e = make_endo(s.system, [(1,), (1, 2)])
    message = "recomposition differs from the input on generator 2"
    with pytest.raises(NotAutomorphism) as refused:
        factorize(s, e)
    assert str(refused.value) == message
    with pytest.raises(NotSurjective) as inverted:
        try_invert(s, e)
    assert str(inverted.value) == "endomorphism is not onto: " + message


def test_an_identity_center_is_refused_by_the_involution_search():
    s = star(3)
    e = make_endo(s.system, [(), (2,)])
    message = "center image is not an involution: the identity is not a nontrivial involution"
    with pytest.raises(NotAutomorphism) as refused:
        factorize(s, e)
    assert str(refused.value) == message
    with pytest.raises(NotSurjective) as inverted:
        try_invert(s, e)
    assert str(inverted.value) == "endomorphism is not onto: " + message


NEAR_STARS = [(3, 9), (3, 3, 5), (9, 9), (5, 15)]


@st.composite
def near_automorphisms(draw):
    """A star, x, and for each leaf i a leaf j_i and an exponent 0 <= k_i < t_(j_i).

    j is drawn freely, so it may repeat leaves or cross label blocks."""
    s = star(*draw(st.sampled_from(NEAR_STARS)))
    x = tuple(draw(st.lists(st.integers(1, s.rank), max_size=6)))
    js = tuple(draw(st.sampled_from(list(s.leaves))) for _ in s.leaves)
    ks = tuple(draw(st.integers(0, s.t_of(j) - 1)) for j in js)
    return s, x, js, ks


@settings(max_examples=150, deadline=None)
@given(near_automorphisms())
def test_factorize_accepts_exactly_the_valid_near_automorphisms(case):
    s, x, js, ks = case
    xinv = inverse_word(x)
    images = [xinv + (1,) + x] + [xinv + refl(j, k) + x for j, k in zip(js, ks)]
    e = make_endo(s.system, images)
    valid = (
        sorted(js) == list(s.leaves)
        and all(s.t_of(i) == s.t_of(j) for i, j in zip(s.leaves, js))
        and all(math.gcd(k, s.t_of(i)) == 1 for i, k in zip(s.leaves, ks))
    )
    if not valid:
        with pytest.raises(NotAutomorphism):
            factorize(s, e)
        return
    f = factorize(s, e)
    assert f.perm == js
    minus = tuple((-k) % s.t_of(i) for i, k in zip(s.leaves, ks))
    assert f.cvec in (ks, minus)
    assert recompose(s, f).images == tuple(reduce_word(s.system, w) for w in images)
