"""Factor-space functions refuse invalid factors with a named error, and
``apply`` refuses an endomorphism of another system."""

import pytest

from oddcox import AutFactorization, apply, identity_endo, normality_witness, recompose
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
