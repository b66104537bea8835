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

from .core import StarForm, _Record
from .errors import CertificateFailed, EvenModulus, LabelTooLarge


# trial division runs below this; it alone factors every m below its square
TRIAL_LIMIT = 10**4
# Miller-Rabin with the prime bases 2..41 decides every n below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def factorize_int(m: int) -> list[tuple[int, int]]:
    """Prime-power factorization as (p, exponent) pairs, ascending p.

    Trial division by each d below ``TRIAL_LIMIT`` leaves a cofactor whose
    prime factors all exceed it.  A cofactor below ``TRIAL_LIMIT`` squared
    is 1 or prime.  A larger one below ``PRIME_TEST_BOUND`` is split by
    Pollard-Brent into factors that Miller-Rabin proves prime; one at or
    above the bound raises ``LabelTooLarge``, as no prime test here is
    proven there.
    """
    out = []
    d = 2
    while d * d <= m and d < TRIAL_LIMIT:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if d * d > m:
        if m > 1:
            out.append((m, 1))
        return out
    if m >= PRIME_TEST_BOUND:
        raise LabelTooLarge(
            f"{m} has no prime factor below {TRIAL_LIMIT} and is at least "
            f"{PRIME_TEST_BOUND}, beyond the proven prime test"
        )
    primes: dict[int, int] = {}
    rest = [m]
    while rest:
        n = rest.pop()
        if _is_prime(n):
            primes[n] = primes.get(n, 0) + 1
        else:
            f = _pollard_brent(n)
            rest += (f, n // f)
    return out + sorted(primes.items())


def _is_prime(n: int) -> bool:
    """Miller-Rabin for an odd n > 41 below ``PRIME_TEST_BOUND``, where the
    bases 2..41 make it a proof."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_TEST_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper factor of an odd composite n with no prime factor below
    ``TRIAL_LIMIT`` (Brent, BIT 20, 1980).  Deterministic: it retries
    c = 1, 2, ... until the cycle yields a factor other than n."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back one product at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


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
    """Each distinct leaf exponent with its number of leaves: the shape of C."""
    return [(star.t_of(block[0]), len(block)) for block in star.blocks]


def _label_groups(star: StarForm) -> list:
    """(t, k, ``unit_group``(t)) for each block of k leaves labeled t: each
    label's unit group read once."""
    return [(t, k, unit_group(t)) for t, k in c_structure(star)]


def _order(groups: list) -> int:
    """|C|, the product of the unit-group orders of ``_label_groups``."""
    total = 1
    for _, k, group in groups:
        total *= group.order ** k
    return total


def c_order(star: StarForm) -> int:
    return _order(_label_groups(star))


class ComplementD(_Record):
    """Complement of the +-1 subgroup inside C, as generating cvecs."""

    generators: tuple
    order: int


def split_inn_c(star: StarForm) -> ComplementD | None:
    """Complement of the -1 vector in C when one exists.

    One exists exactly when some prime p = 3 mod 4 divides a leaf
    exponent: the unit group of that prime power is cyclic of order twice
    an odd number, so its odd-order half complements -1 there, and the
    remaining factors pass through whole.
    """
    # every prime power of every leaf label, each label's unit group read
    # once per block; the chosen pair is the first leaf with a prime
    # p = 3 mod 4, at its least p
    by_label = {t: group.factors for t, _, group in _label_groups(star)}
    factors = [
        (leaf, p, e, d) for leaf, t in zip(star.leaves, star.t) for p, e, d in by_label[t]
    ]
    chosen = next(((leaf, p) for leaf, p, _, _ in factors if p % 4 == 3), None)
    if chosen is None:
        return None
    # one primitive root per prime power, which refactors its order
    roots = {pe: primitive_root(*pe) for pe in {(p, e) for _, p, e, _ in factors}}
    generators = []
    order = 1
    for leaf, p, e, d in factors:
        t = star.t_of(leaf)
        q = p**e
        g = roots[p, e]
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
    # the certificate reads |C| afresh, from ``c_order``
    expected = c_order(star) // 2
    if order != expected:
        raise CertificateFailed(f"complement has order {order}, expected {expected}")
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
    return _invariants(_label_groups(star))


def _invariants(groups: list) -> tuple:
    """``c_mod_minus_one_invariants`` from ``_label_groups``, each distinct
    d_j factored once."""
    exponents: dict[int, list[int]] = {}  # prime -> its exponent in each d_j
    factored: dict[int, list] = {}  # d_j -> its prime powers, within this call
    for _, k, group in groups:  # the k leaves labeled t have equal d_j
        for _, _, d in group.factors:
            if d not in factored:
                factored[d] = factorize_int(d)
            for r, a in factored[d]:
                exponents.setdefault(r, []).extend([a] * k)
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
    graph_part: tuple  # block sizes: the symmetric-group factors
    out_abelian: tuple  # invariant factors of C mod -1
    inn_c_splits: bool
    aut_out_split_guaranteed: bool
    note: str | None


def out_descriptor(star: StarForm) -> OutDescriptor:
    """Outer group data: order (|C|/2) * prod(k_i!), abelian part C/-1,
    symmetric-group part permuting equal-label leaves.

    The splitting guarantee flag follows the multiplicity-one criterion:
    some exponent of multiplicity one divisible by a prime p = 3 mod 4.
    """
    groups = _label_groups(star)
    shape = tuple((t, k) for t, k, _ in groups)
    order_c = _order(groups)
    out_order = order_c // 2
    for _, k in shape:
        out_order *= math.factorial(k)
    # the multiplicity of each exponent that a prime p = 3 mod 4 divides
    qualifying = [
        k for _, k, group in groups if any(p % 4 == 3 for p, _, _ in group.factors)
    ]
    splits = bool(qualifying)
    guaranteed = 1 in qualifying
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
        graph_part=tuple(k for _, k in shape),
        out_abelian=_invariants(groups),
        inn_c_splits=splits,
        aut_out_split_guaranteed=guaranteed,
        note=note,
    )
