"""Factor-space functions refuse invalid factors with a named error, and
``apply`` refuses an endomorphism of another system."""

import pytest

from oddcox import (
    AutFactorization,
    apply,
    identity_endo,
    normality_witness,
    recompose,
    theta_auto,
)
from oddcox.errors import BadThetaExponent, BlockViolatingPermutation, NotAutomorphism
from conftest import star


def test_recompose_and_witness_refuse_invalid_factors():
    s = star(3, 5)
    # perm (3 2) crosses the label blocks and 2 is no unit mod 3
    crossing = AutFactorization(inner=(), cvec=(2, 2), perm=(3, 2))
    with pytest.raises((BlockViolatingPermutation, BadThetaExponent)):
        normality_witness(s, crossing)
    with pytest.raises((BlockViolatingPermutation, BadThetaExponent)):
        recompose(s, crossing)
    short = AutFactorization(inner=(), cvec=(2,), perm=(2, 3))
    with pytest.raises(BadThetaExponent):
        recompose(s, short)
    with pytest.raises(BadThetaExponent):
        normality_witness(s, short)


def test_apply_refuses_an_endomorphism_of_another_system():
    foreign = identity_endo(star(3, 5, 7).system)
    message = "endomorphism belongs to a different system"
    with pytest.raises(NotAutomorphism, match=message):
        apply(star(3, 5).system, foreign, (1, 2))


def test_theta_auto_refuses_a_bad_exponent_through_the_factor_check():
    s = star(3, 5, 9)
    for leaf, k in ((2, 3), (3, 5), (4, 3), (4, 0), (3, 6)):
        message = rf"^exponent {k} invalid for leaf {leaf}$"
        with pytest.raises(BadThetaExponent, match=message):
            theta_auto(s, leaf, k)
    with pytest.raises(BadThetaExponent, match="^5 is not a leaf$"):
        theta_auto(s, 5, 2)
