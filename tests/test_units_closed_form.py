"""The closed-form C/-1 of ``oddcox.units`` against the Smith normal form
of ``tietze_oracle``, and the complement generators of ``split_inn_c``
pinned to known values."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox import out_descriptor, split_inn_c, unit_group
from oddcox.units import c_mod_minus_one_invariants
from conftest import star
from tietze_oracle import _smith

ODD_LABELS = range(3, 60, 2)


def smith_reference(star_form):
    """Invariant factors of Z^r modulo diag(d_j) and the -1 row (d_j / 2)."""
    orders = [
        d
        for leaf in star_form.leaves
        for _, _, d in unit_group(star_form.t_of(leaf)).factors
    ]
    r = len(orders)
    rows = [[d if j == i else 0 for j in range(r)] for i, d in enumerate(orders)]
    rows.append([d // 2 for d in orders])
    return tuple(_smith(rows, r))


def test_closed_form_matches_smith_on_all_small_stars():
    count = 0
    for k in (1, 2, 3):
        for multiset in itertools.combinations_with_replacement(ODD_LABELS, k):
            s = star(*multiset)
            assert c_mod_minus_one_invariants(s) == smith_reference(s), multiset
            count += 1
    assert count == 4959


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 98).map(lambda i: 2 * i + 1), min_size=1, max_size=8))
def test_closed_form_matches_smith_on_random_stars(labels):
    s = star(*labels)
    assert c_mod_minus_one_invariants(s) == smith_reference(s)


def test_complement_generators_are_pinned():
    expected = {
        (3, 3, 3): ((1, 2, 1), (1, 1, 2)),
        (3, 9): ((1, 2),),
        (7, 5): ((2, 1), (1, 2)),
        (15,): ((7,),),
        (5, 21, 45): ((2, 1, 1), (1, 10, 1), (1, 1, 11), (1, 1, 37)),
    }
    for multiset, generators in expected.items():
        assert split_inn_c(star(*multiset)).generators == generators, multiset


def test_splitting_prime_choice_is_pinned():
    """The (leaf, prime) choice where the first qualifying exponent has two
    primes = 3 mod 4 (21 = 3 * 7, 33 = 3 * 11) and where the qualifying
    leaf is not the first leaf: generators, order and the outer data."""
    expected = {
        (21,): (((10,),), 6, (6,), True),
        (33,): (((13,),), 10, (10,), True),
        (5, 21): (((2, 1), (1, 10)), 24, (2, 12), True),
        (21, 33): (((10, 1), (1, 23), (1, 13)), 120, (2, 2, 30), True),
        (21, 21): (((10, 1), (1, 8), (1, 10)), 72, (2, 6, 6), False),
        (5, 5, 33): (((2, 1, 1), (1, 2, 1), (1, 1, 13)), 160, (2, 4, 20), True),
        (5, 7): (((2, 1), (1, 2)), 12, (12,), True),
        (5, 13, 19): (((2, 1, 1), (1, 2, 1), (1, 1, 4)), 432, (12, 36), True),
    }
    for multiset, (generators, order, abelian, guaranteed) in expected.items():
        s = star(*multiset)
        complement = split_inn_c(s)
        assert complement.generators == generators, multiset
        assert complement.order == order, multiset
        d = out_descriptor(s)
        assert d.out_abelian == abelian, multiset
        assert d.c_order == 2 * order, multiset
        assert d.inn_c_splits is True, multiset
        assert d.aut_out_split_guaranteed is guaranteed, multiset
        assert (d.note is None) is guaranteed, multiset
