"""Factors are validated once per public call.

``try_invert`` runs ``_checked`` twice: once in ``factorize`` on the
factors it reads and once in ``invert_factorization`` on the same
factors; the product and the recomposition trust them.  The public
``recompose``, ``compose_factors`` and ``invert_factorization`` still
refuse invalid factors, each with the message of the check that fails.
"""

import re

import pytest

from oddcox import autkit
from oddcox.autkit import (
    AutFactorization,
    compose,
    compose_factors,
    invert_factorization,
    recompose,
    try_invert,
)
from oddcox.errors import BadLetter, BadThetaExponent, BlockViolatingPermutation
from conftest import star


def test_try_invert_validates_its_factors_twice(monkeypatch):
    s = star(5, 5, 5)
    e = recompose(s, AutFactorization(inner=(1, 2, 3), cvec=(2, 1, 3), perm=(3, 4, 2)))
    calls = []
    checked, invert = autkit._checked, autkit.invert_factorization

    def counting(star, f):
        calls.append("_checked")
        return checked(star, f)

    def recorded(star, f, budget):
        calls.append("invert_factorization")
        return invert(star, f, budget)

    monkeypatch.setattr(autkit, "_checked", counting)
    monkeypatch.setattr(autkit, "invert_factorization", recorded)
    inverse = try_invert(s, e)
    assert calls == ["_checked", "invert_factorization", "_checked"]
    identity = tuple((g,) for g in s.system.generators)
    assert compose(e, inverse).images == identity
    assert compose(inverse, e).images == identity


BAD = [
    (
        AutFactorization(inner=(), cvec=(1, 1, 1), perm=(4, 3, 2)),
        BlockViolatingPermutation,
        "leaf 2 (label 3) may not map to 4 (label 5)",
    ),
    (
        AutFactorization(inner=(), cvec=(1, 1, 5), perm=(2, 3, 4)),
        BadThetaExponent,
        "exponent 5 invalid for leaf 4",
    ),
    (
        AutFactorization(inner=(1, 9), cvec=(1, 1, 1), perm=(2, 3, 4)),
        BadLetter,
        "letter 9 out of range 1..4",
    ),
]


@pytest.mark.parametrize("bad, error, message", BAD)
def test_public_calls_still_refuse_bad_factors(bad, error, message):
    s = star(3, 3, 5)
    good = AutFactorization(inner=(2,), cvec=(1, 2, 4), perm=(3, 2, 4))
    calls = [
        lambda: recompose(s, bad),
        lambda: invert_factorization(s, bad),
        lambda: compose_factors(s, bad, good),
        lambda: compose_factors(s, good, bad),
    ]
    for call in calls:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
