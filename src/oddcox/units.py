"""Structure of unit groups mod m and of the abelian automorphism part.

The abelian subgroup C of the automorphism group of a star is the product
over leaves of the unit groups mod the leaf exponents.  Its elements are
exponent vectors ("cvecs") multiplied componentwise.  Conjugation by the
center generator sits inside C as the all-(t-1) vector, written -1 here.
C is handled through its prime-power factors (``unit_group(t).factors``):
C/-1 is read off them in closed form, with no matrix.
"""

from __future__ import annotations

import math
from typing import Optional

from .core import StarForm, _Record
from .errors import CertificateFailed, EvenModulus


def factorize_int(m: int) -> list[tuple[int, int]]:
    """Prime-power factorization as (p, exponent) pairs, ascending p."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def euler_phi(m: int) -> int:
    phi = 1
    for p, e in factorize_int(m):
        phi *= (p - 1) * p ** (e - 1)
    return phi


class UnitGroupStructure(_Record):
    """Unit group mod an odd m: one cyclic factor per odd prime power."""

    modulus: int
    order: int
    factors: tuple  # (p, e, cyclic order) per prime power

    @property
    def minus_one(self) -> int:
        return self.modulus - 1

    @property
    def factor_orders(self) -> tuple:
        return tuple(order for _, _, order in self.factors)


def unit_group(m: int) -> UnitGroupStructure:
    if not isinstance(m, int) or m < 3 or m % 2 == 0:
        raise EvenModulus(f"modulus {m} must be an odd integer >= 3")
    factors = tuple(
        (p, e, (p - 1) * p ** (e - 1)) for p, e in factorize_int(m)
    )
    order = 1
    for _, _, d in factors:
        order *= d
    return UnitGroupStructure(modulus=m, order=order, factors=factors)


def primitive_root(p: int, e: int) -> int:
    """Smallest generator of the cyclic unit group mod p**e (p an odd prime)."""
    q = p**e
    order = (p - 1) * p ** (e - 1)
    prime_divisors = [r for r, _ in factorize_int(order)]
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, order // r, q) != 1 for r in prime_divisors):
            return g
    raise EvenModulus(f"no generator mod {q}")  # unreachable for odd prime powers


def c_structure(star: StarForm) -> list[tuple[int, int]]:
    """Distinct leaf exponents with multiplicities: the shape of C."""
    return list(zip(star.distinct, star.multiplicities))


def c_order(star: StarForm) -> int:
    total = 1
    for m, k in c_structure(star):
        total *= euler_phi(m) ** k
    return total


class ComplementD(_Record):
    """Complement of the +-1 subgroup inside C, as generating cvecs."""

    generators: tuple
    order: int


def _qualifying_prime(m: int) -> Optional[int]:
    for p, _ in factorize_int(m):
        if p % 4 == 3:
            return p
    return None


def split_inn_c(star: StarForm) -> Optional[ComplementD]:
    """Complement of the -1 vector in C when one exists.

    One exists exactly when some prime p = 3 mod 4 divides a leaf
    exponent: the unit group of that prime power is cyclic of order twice
    an odd number, so its odd-order half complements -1 there, and the
    remaining factors pass through whole.
    """
    # every prime power of every leaf label, each label factored once; the
    # chosen pair is the first leaf with a prime p = 3 mod 4, at its least p
    factors = [
        (leaf, p, e, d)
        for leaf in star.leaves
        for p, e, d in unit_group(star.t_of(leaf)).factors
    ]
    chosen = next(((leaf, p) for leaf, p, _, _ in factors if p % 4 == 3), None)
    if chosen is None:
        return None
    generators = []
    order = 1
    for leaf, p, e, d in factors:
        t = star.t_of(leaf)
        q = p**e
        g = primitive_root(p, e)
        if (leaf, p) == chosen:
            g, d = pow(g, 2, q), d // 2  # odd-order index-2 subgroup
            # arithmetic certificate: -1 does not lie in the odd-order half
            if pow(q - 1, d, q) == 1:
                raise CertificateFailed("-1 landed in the odd-order half")
        if d == 1:
            continue
        rest = t // q
        # lift: congruent to g mod q, to 1 mod the other prime powers
        lifted = (g + q * ((1 - g) * pow(q, -1, rest) % rest)) % t
        vec = [1] * (star.rank - 1)
        vec[leaf - 2] = lifted
        generators.append(tuple(vec))
        order *= d
    if order != c_order(star) // 2:
        raise CertificateFailed(
            f"complement has order {order}, expected {c_order(star) // 2}"
        )
    return ComplementD(generators=tuple(generators), order=order)


def c_mod_minus_one_invariants(star: StarForm) -> tuple:
    """Invariant factors of C modulo the -1 vector, in closed form.

    C is the product of the cyclic groups Z/d_j, one per prime power of
    each leaf exponent (``unit_group(t).factors``), so its primary parts
    are read off the prime powers of each d_j.  Every d_j is even and -1
    is the order-2 element d_j/2 of each factor, so it lives in the
    2-part, the product of Z/2^v_j over generators e_j.  Let v be the
    least v_j, reached at j0.  Then f = sum_j 2^(v_j - v) e_j has order
    2^v and replaces e_j0 in a basis (its e_j0 coefficient is 1), and
    -1 = sum_j 2^(v_j - 1) e_j = 2^(v-1) f.  Dividing it out therefore
    lowers one smallest 2-part 2^v to 2^(v-1) and leaves every other part
    alone.  The k-th largest invariant factor is the product over primes
    of the k-th largest exponent of that prime.  No matrix is built.
    """
    exponents: dict[int, list[int]] = {}  # prime -> its exponent in each d_j
    for leaf in star.leaves:
        for _, _, d in unit_group(star.t_of(leaf)).factors:
            for r, a in factorize_int(d):
                exponents.setdefault(r, []).append(a)
    twos = exponents[2]
    twos[twos.index(min(twos))] -= 1  # divide out -1
    ranked = [(r, sorted(a, reverse=True)) for r, a in exponents.items()]
    invariants = (
        math.prod(r ** a[k] for r, a in ranked if k < len(a))
        for k in range(max(len(a) for _, a in ranked))
    )
    return tuple(sorted(n for n in invariants if n > 1))


class OutDescriptor(_Record):
    """Order and shape of the outer automorphism group of a star."""

    c_shape: tuple  # (exponent, multiplicity) pairs
    c_order: int
    out_order: int
    graph_part: tuple  # multiplicities: the symmetric-group factors
    out_abelian: tuple  # invariant factors of C mod -1
    inn_c_splits: bool
    aut_out_split_guaranteed: bool
    note: Optional[str]


def out_descriptor(star: StarForm) -> OutDescriptor:
    """Outer group data: order (|C|/2) * prod(k_i!), abelian part C/-1,
    symmetric-group part permuting equal-label leaves.

    The splitting guarantee flag follows the multiplicity-one criterion:
    some exponent of multiplicity one divisible by a prime p = 3 mod 4.
    """
    shape = tuple(c_structure(star))
    order_c = c_order(star)
    out_order = order_c // 2
    for _, k in shape:
        out_order *= math.factorial(k)
    splits = any(_qualifying_prime(m) is not None for m, _ in shape)
    guaranteed = any(
        k == 1 and _qualifying_prime(m) is not None for m, k in shape
    )
    note = None
    if splits and not guaranteed:
        note = (
            "splitting of the full automorphism extension is not settled "
            "by the multiplicity-one criterion for this exponent multiset"
        )
    return OutDescriptor(
        c_shape=shape,
        c_order=order_c,
        out_order=out_order,
        graph_part=tuple(star.multiplicities),
        out_abelian=c_mod_minus_one_invariants(star),
        inn_c_splits=splits,
        aut_out_split_guaranteed=guaranteed,
        note=note,
    )
