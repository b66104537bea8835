import itertools
import math
import random
import sys

import pytest

from oddcox import (
    c_structure,
    out_descriptor,
    split_inn_c,
    unit_group,
)
from oddcox.cli import main
from oddcox.errors import EvenModulus, LabelTooLarge
from oddcox.units import (
    PRIME_TEST_BOUND,
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
        for k in (len(block) for block in s.blocks):
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


# ------------------------------------------------------------- big labels

# primes with no factor below the trial-division limit
P13 = 10**13 + 37
P25 = 10**25 + 13  # past the bound of the proven prime test
M61 = 2**61 - 1


def _small_primes(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for d in range(2, math.isqrt(limit - 1) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(range(d * d, limit, d)))
    return [n for n in range(limit) if sieve[n]]


@pytest.mark.parametrize(
    "factors",
    [
        [(P13, 1)],
        [(3, 60)],
        [(10**12 + 39, 1), (10**12 + 61, 1)],
        [(3, 1), (5, 1), (7, 1), (P13, 1)],
        [(10007, 3)],
        [(10007, 2), (P13, 1)],
        [(3, 2), (10007, 1), (P13, 1)],
    ],
    ids=[
        "prime",
        "3^60",
        "two-1e12",
        "smooth-times-prime",
        "cube",
        "square-times-prime",
        "mixed",
    ],
)
def test_factorize_int_splits_cofactors_past_trial_division(factors):
    assert factorize_int(math.prod(p**e for p, e in factors)) == factors


def test_factorize_int_on_random_products_of_primes():
    """Products of primes above and below the trial-division limit: the
    part above it is split below the bound and refused from it on."""
    primes = _small_primes(2 * 10**5)
    rng = random.Random(27)
    refused = 0
    for _ in range(300):
        chosen = {}
        for _ in range(rng.randint(1, 5)):
            p = rng.choice(primes)
            chosen[p] = chosen.get(p, 0) + rng.randint(1, 3)
        factors = sorted(chosen.items())
        m = math.prod(p**e for p, e in factors)
        if math.prod(p**e for p, e in factors if p > 10**4) < PRIME_TEST_BOUND:
            assert factorize_int(m) == factors
        else:
            refused += 1
            with pytest.raises(LabelTooLarge):
                factorize_int(m)
    assert 0 < refused < 300


def test_factorize_int_refuses_a_cofactor_past_the_prime_test():
    assert P25 >= PRIME_TEST_BOUND
    for m in (P25, 3**5 * P25, P13 * P13 * M61):
        with pytest.raises(LabelTooLarge):
            factorize_int(m)


@pytest.mark.parametrize("command", ["out", "split"])
def test_big_labels_decide_through_the_cli(tmp_path, capsys, monkeypatch, command):
    for label, code in ((P13, 0), (P25, 1)):
        system = tmp_path / f"{label}.json"
        system.write_text(
            '{"rank": 3, "edges": [{"u": 1, "v": 2, "m": 3}, '
            f'{{"u": 1, "v": 3, "m": {label}}}]}}'
        )
        monkeypatch.setattr(sys, "argv", ["oddcox", command, str(system)])
        with pytest.raises(SystemExit) as exit_info:
            main()
        out, err = capsys.readouterr()
        assert (exit_info.value.code or 0, err) == (code, "")
        if code:
            assert out == (
                f"error: label-too-large: {P25} has no prime factor below 10000 "
                f"and is at least {PRIME_TEST_BOUND}, beyond the proven prime test\n"
            )
        else:
            assert str(P13 - 1) in out
