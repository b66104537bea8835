"""One list of defining relators and one validator of factorizations.

``CoxeterSystem.relators`` is the relator list that both the relation
check on endomorphisms and ``rs_kernel`` use.  ``rs_kernel`` refuses a
map that breaks a relator while it rewrites the relators on the coset
table.  ``recompose``, ``invert_factorization`` and ``normality_witness``
validate their factors in one order: permutation, exponents, inner word.
"""

import re

import pytest

from oddcox import (
    AutFactorization,
    CoxeterSystem,
    build_ln,
    graph_auto,
    invert_factorization,
    normality_witness,
    path_system,
    recompose,
    rs_kernel,
)
from oddcox.errors import (
    BadLetter,
    BadThetaExponent,
    BlockViolatingPermutation,
    ImageTooLarge,
    NotAHomomorphism,
)
from oddcox.pathgroups import Permutation, parse_cycles, symmetric_images
from conftest import star


def test_relators_on_a_star_and_a_path():
    assert star(3, 5).system.relators() == [
        (1, 1),
        (2, 2),
        (3, 3),
        (1, 2, 1, 2, 1, 2),
        (1, 3) * 5,
    ]
    assert path_system([5, 3]).relators() == [
        (1, 1),
        (2, 2),
        (3, 3),
        (1, 2) * 5,
        (2, 3, 2, 3, 2, 3),
    ]
    assert CoxeterSystem(2).relators() == [(1, 1), (2, 2)]


def exactly(message):
    return "^" + re.escape(message) + "$"


def test_rs_kernel_refusal_messages():
    t1, t2, t3, t4 = symmetric_images(5)
    three_cycle = Permutation((2, 3, 1, 4, 5))
    message = "image of generator 1 is not an involution"
    with pytest.raises(NotAHomomorphism, match=exactly(message)):
        rs_kernel(build_ln(5), [three_cycle, t2, t3, t4])
    message = "images of generators 1, 2 do not satisfy the exponent 5"
    with pytest.raises(NotAHomomorphism, match=exactly(message)):
        rs_kernel(path_system([5, 3]), [t1, t2, t1])
    # every image is an involution; the first broken braid relator is named
    message = "images of generators 2, 3 do not satisfy the exponent 3"
    with pytest.raises(NotAHomomorphism, match=exactly(message)):
        rs_kernel(build_ln(5), [t1, t2, t4, t3])


def test_rs_kernel_searches_the_image_group_before_refusing():
    # (1 2 3) breaks w_1^2 = 1, but the image group is larger than the cap
    images = [parse_cycles("(1 2 3)", 4), *symmetric_images(4)[1:]]
    with pytest.raises(ImageTooLarge):
        rs_kernel(build_ln(4), images, image_cap=5)
    with pytest.raises(NotAHomomorphism):
        rs_kernel(build_ln(4), images)


def test_a_dict_permutation_works_like_its_tuple():
    s = star(3, 3, 5)
    by_dict = AutFactorization(inner=(2,), cvec=(1, 2, 3), perm={2: 3, 3: 2})
    by_tuple = AutFactorization(inner=(2,), cvec=(1, 2, 3), perm=(3, 2, 4))
    assert recompose(s, by_dict) == recompose(s, by_tuple)
    assert normality_witness(s, by_dict) == normality_witness(s, by_tuple)
    assert invert_factorization(s, by_dict) == invert_factorization(s, by_tuple)
    swap = AutFactorization(inner=(), cvec=(1, 1, 1), perm={2: 3, 3: 2})
    assert recompose(s, swap) == graph_auto(s, {2: 3, 3: 2})
    assert recompose(s, swap).images == ((1,), (3,), (2,), (4,))


@pytest.mark.parametrize(
    "f, error",
    [
        # the permutation is checked first, then the exponents, then x
        (AutFactorization(inner=(9,), cvec=(1, 1, 7), perm=(2, 4, 3)),
         BlockViolatingPermutation),
        (AutFactorization(inner=(9,), cvec=(1, 1, 7), perm=(2, 3, 4)),
         BadThetaExponent),
        (AutFactorization(inner=(9,), cvec=(1, 1, 2), perm=(2, 3, 4)), BadLetter),
    ],
)
def test_factor_checks_agree_and_run_in_one_order(f, error):
    s = star(3, 3, 5)
    messages = set()
    for check in (recompose, invert_factorization, normality_witness):
        with pytest.raises(error) as refused:
            check(s, f)
        messages.add(str(refused.value))
    assert len(messages) == 1
