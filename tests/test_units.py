import itertools
import math

import pytest

from oddcox import (
    c_structure,
    out_descriptor,
    split_inn_c,
    unit_group,
)
from oddcox.errors import EvenModulus
from oddcox.units import (
    c_order,
    euler_phi,
    factorize_int,
)
from conftest import star
from helpers import cvec_minus_one, cvec_span, units


# ------------------------------------------------------------- unit groups


def test_unit_group_examples():
    assert unit_group(3).order == 2
    assert unit_group(3).factor_orders == (2,)
    assert unit_group(9).order == 6
    assert unit_group(9).factor_orders == (6,)
    u15 = unit_group(15)
    assert u15.order == 8
    assert u15.factor_orders == (2, 4)
    assert u15.minus_one == 14


def test_unit_group_rejects_even():
    with pytest.raises(EvenModulus):
        unit_group(6)
    with pytest.raises(EvenModulus):
        unit_group(1)


def test_unit_group_order_matches_enumeration():
    for m in range(3, 202, 2):
        assert unit_group(m).order == len(units(m)) == euler_phi(m)


def test_unit_group_factor_orders_multiply_up():
    for m in (9, 15, 21, 45, 105, 225):
        u = unit_group(m)
        prod = 1
        for d in u.factor_orders:
            prod *= d
        assert prod == u.order
        for (p, e, d) in u.factors:
            assert d == (p - 1) * p ** (e - 1)


# ------------------------------------------------------------- c structure


def test_c_structure_examples():
    assert c_structure(star(3, 3, 3)) == [(3, 3)]
    assert c_order(star(3, 3, 3)) == 8
    assert c_structure(star(3, 5)) == [(3, 1), (5, 1)]
    assert c_order(star(3, 5)) == 8
    assert c_structure(star(7)) == [(7, 1)]
    assert c_order(star(7)) == 6


# ---------------------------------------------------- splitting criterion


def brute_splits(multiset):
    """Exhaustive search over all index-2 subgroups of C for one avoiding -1.

    Independent path: decompose each unit group by prime powers, list the
    sign characters componentwise via explicit square tests, and scan all
    nontrivial characters.  For small C the kernel is enumerated
    elementwise and checked to be an order-|C|/2 subgroup missing -1.
    """
    components = []  # (prime power q, component order d, leaf index)
    for leaf, m in enumerate(multiset):
        for p, e in factorize_int(m):
            q = p**e
            components.append((q, (p - 1) * p ** (e - 1), leaf))

    def char_value(subset, element):
        total = 0
        for c in subset:
            q, d, leaf = components[c]
            residue = element[leaf] % q
            if pow(residue, d // 2, q) != 1:  # not a square in that factor
                total += 1
        return total % 2

    minus_one = tuple(m - 1 for m in multiset)
    elements = list(itertools.product(*[units(m) for m in multiset]))
    size = len(elements)
    for r in range(1, len(components) + 1):
        for subset in itertools.combinations(range(len(components)), r):
            if char_value(subset, minus_one) == 1:
                if size <= 64:
                    kernel = [x for x in elements if char_value(subset, x) == 0]
                    assert len(kernel) == size // 2
                    assert minus_one not in kernel
                    kernel_set = set(kernel)
                    for a in kernel:
                        for b in kernel:
                            prod = tuple(
                                (x * y) % m for x, y, m in zip(a, b, multiset)
                            )
                            assert prod in kernel_set
                return True
    return False


def test_split_examples():
    d = split_inn_c(star(3, 3))
    assert d is not None and d.order == 2
    assert split_inn_c(star(5)) is None
    assert split_inn_c(star(13)) is None


def test_split_matches_brute_force_on_small_c():
    for multiset in ((3,), (9,), (15,), (3, 3)):
        s = star(*multiset)
        d = split_inn_c(s)
        assert d is not None
        assert brute_splits(multiset)
        span = cvec_span(s, d.generators)
        assert len(span) == c_order(s) // 2 == d.order
        assert cvec_minus_one(s) not in span
    for multiset in ((5,), (13,), (5, 5)):
        assert split_inn_c(star(*multiset)) is None
        assert not brute_splits(multiset)


def test_split_matches_brute_force_sweep():
    moduli = list(range(3, 46, 2))
    cases = []
    for size in (1, 2, 3):
        cases.extend(itertools.combinations_with_replacement(moduli, size))
    for multiset in cases:
        s = star(*multiset)
        verdict = split_inn_c(s) is not None
        assert verdict == brute_splits(multiset), multiset


def test_complement_generators_span_half_without_minus_one():
    for multiset in ((3, 3, 3), (3, 9), (7, 5), (15,)):
        s = star(*multiset)
        d = split_inn_c(s)
        assert d is not None
        span = cvec_span(s, d.generators)
        assert len(span) == c_order(s) // 2
        assert cvec_minus_one(s) not in span


# ------------------------------------------------------------ descriptors


def test_out_descriptor_triple_three():
    d = out_descriptor(star(3, 3, 3))
    assert d.out_order == 24
    assert d.out_abelian == (2, 2)
    assert d.graph_part == (3,)
    assert d.inn_c_splits is True
    assert d.aut_out_split_guaranteed is False
    assert d.note is not None


def test_out_descriptor_single_three():
    d = out_descriptor(star(3))
    assert d.out_order == 1
    assert d.out_abelian == ()


def test_out_descriptor_mixed():
    d = out_descriptor(star(3, 5))
    assert d.out_order == 4
    assert d.aut_out_split_guaranteed is True
    assert d.out_abelian == (4,)


def test_out_order_formula_invariant():
    for multiset in ((3,), (5,), (3, 3), (3, 5), (3, 3, 5), (5, 5, 7), (9, 15)):
        s = star(*multiset)
        d = out_descriptor(s)
        expected = c_order(s) // 2
        for k in s.multiplicities:
            expected *= math.factorial(k)
        assert d.out_order == expected
        quotient_order = 1
        for v in d.out_abelian:
            quotient_order *= v
        assert quotient_order == c_order(s) // 2


def test_out_descriptor_all_three_note_claims_only_the_criterion():
    # nothing checks that the all-3 family splits, so an all-3 star gets the
    # note of any star whose exponents the multiplicity-one criterion misses
    other = out_descriptor(star(3, 3, 5, 5))
    assert other.note == (
        "splitting of the full automorphism extension is not settled by the "
        "multiplicity-one criterion for this exponent multiset"
    )
    for leaves in (2, 3, 5):
        d = out_descriptor(star(*[3] * leaves))
        assert d.inn_c_splits is True
        assert d.aut_out_split_guaranteed is False
        assert d.note == other.note
