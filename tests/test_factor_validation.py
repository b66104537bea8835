"""The factor validators that every builder and ``_checked`` use refuse
a malformed permutation or exponent entry with the builder's named error:
a dict key that is no leaf by name, and a permutation entry or exponent
that fails ``check_word``'s integer test (a float, a string, a bool) as
no permutation or an invalid exponent, never with a bare ``TypeError``
or by silently dropping the entry."""

import re

import pytest

from oddcox import AutFactorization, graph_auto, recompose, theta_auto, theta_product
from oddcox.errors import BadThetaExponent, BlockViolatingPermutation
from conftest import star


class Integer(int):
    """An int subclass other than bool, which ``check_word`` accepts."""


def test_a_permutation_key_that_is_no_leaf_is_refused_by_name():
    s = star(3, 3)
    for perm, bad in (
        ({9: 2}, "9"),
        ({"x": 2}, "'x'"),
        ({2: 3, 3: 2, 7: 7}, "7"),
        ({1: 1}, "1"),
        ({True: 2}, "True"),
        ({2.0: 3}, "2.0"),
    ):
        message = f"^{re.escape(bad)} is not a leaf$"
        with pytest.raises(BlockViolatingPermutation, match=message):
            graph_auto(s, perm)
        with pytest.raises(BlockViolatingPermutation, match=message):
            recompose(s, AutFactorization((), (1, 1), perm))


def test_a_permutation_entry_that_is_no_integer_is_refused():
    """As in ``check_word``: a float, a string or a bool is no letter,
    and an int subclass other than bool is one."""
    s = star(3, 3)
    for perm in ((2.0, 3), (2, 3.0), ("x", 3), (True, 3), {2: 3.0, 3: 2}):
        message = "is not a permutation of the leaves$"
        with pytest.raises(BlockViolatingPermutation, match=message):
            graph_auto(s, perm)
        with pytest.raises(BlockViolatingPermutation, match=message):
            recompose(s, AutFactorization((), (1, 1), perm))
    assert graph_auto(s, (Integer(3), Integer(2))) == graph_auto(s, {2: 3, 3: 2})


def test_an_exponent_that_is_no_integer_is_refused():
    s = star(3, 3)
    assert theta_product(s, (Integer(2), 1)) == theta_product(s, (2, 1))
    for cvec, leaf in (((1.0, 2), 2), ((2, True), 3), ((1, "2"), 3), ((True, 1), 2)):
        message = rf"^exponent {re.escape(str(cvec[leaf - 2]))} invalid for leaf {leaf}$"
        with pytest.raises(BadThetaExponent, match=message):
            theta_product(s, cvec)
        with pytest.raises(BadThetaExponent, match=message):
            recompose(s, AutFactorization((), cvec, (2, 3)))
    # the permutation is still checked first, then the exponents
    with pytest.raises(BlockViolatingPermutation):
        recompose(s, AutFactorization((), (1.0, 1), (2.0, 3)))
    with pytest.raises(BadThetaExponent, match="^2.0 is not a leaf$"):
        theta_auto(s, 2.0, 2)
