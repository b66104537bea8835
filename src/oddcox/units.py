"""Structure of unit groups mod m and of the abelian automorphism part.

The abelian subgroup C of the automorphism group of a star is the product
over leaves of the unit groups mod the leaf exponents.  Its elements are
exponent vectors ("cvecs") multiplied componentwise.  Conjugation by the
center generator sits inside C as the all-(t-1) vector, written -1 here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import StarForm
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


def units(m: int) -> list[int]:
    """All units mod m by direct enumeration."""
    return [x for x in range(1, m) if math.gcd(x, m) == 1]


@dataclass(frozen=True)
class UnitGroupStructure:
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


@dataclass(frozen=True)
class ComplementD:
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
    chosen_leaf = None
    chosen_p = None
    for leaf in star.leaves:
        p = _qualifying_prime(star.t_of(leaf))
        if p is not None:
            chosen_leaf, chosen_p = leaf, p
            break
    if chosen_leaf is None:
        return None
    generators = []
    order = 1
    for leaf in star.leaves:
        t = star.t_of(leaf)
        for p, e in factorize_int(t):
            q = p**e
            g = primitive_root(p, e)
            component_order = (p - 1) * p ** (e - 1)
            if leaf == chosen_leaf and p == chosen_p:
                g = pow(g, 2, q)  # odd-order index-2 subgroup
                component_order //= 2
            if component_order == 1:
                continue
            rest = t // q
            # lift: congruent to g mod q, to 1 mod the other prime powers
            if rest == 1:
                lifted = g % t
            else:
                inv = pow(q, -1, rest)
                lifted = (g + q * ((1 - g) * inv % rest)) % t
            vec = [1] * (star.rank - 1)
            vec[leaf - 2] = lifted
            generators.append(tuple(vec))
            order *= component_order
    # arithmetic certificate: -1 has no odd-order component in the halved factor
    t0 = star.t_of(chosen_leaf)
    for p, e in factorize_int(t0):
        if p == chosen_p:
            q = p**e
            half = ((p - 1) * p ** (e - 1)) // 2
            if pow(q - 1, half, q) == 1:
                raise CertificateFailed("-1 landed in the odd-order half")
    if order != c_order(star) // 2:
        raise CertificateFailed(
            f"complement has order {order}, expected {c_order(star) // 2}"
        )
    return ComplementD(generators=tuple(generators), order=order)


def _smith_invariants(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """Nontrivial invariant factors of Z^ncols modulo the row lattice."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    t = 0
    invariants = []
    while t < min(nrows, ncols):
        # find pivot of smallest absolute value in the remaining block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if mat[i][j] != 0 and (
                    pivot is None or abs(mat[i][j]) < abs(mat[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        mat[t], mat[i0] = mat[i0], mat[t]
        for row in mat:
            row[t], row[j0] = row[j0], row[t]
        again = False
        for i in range(nrows):
            if i != t and mat[i][t] != 0:
                q = mat[i][t] // mat[t][t]
                for j in range(ncols):
                    mat[i][j] -= q * mat[t][j]
                if mat[i][t] != 0:
                    again = True
        for j in range(ncols):
            if j != t and mat[t][j] != 0:
                q = mat[t][j] // mat[t][t]
                for row in mat:
                    row[j] -= q * row[t]
                if mat[t][j] != 0:
                    again = True
        if again:
            continue
        # divisibility fix: pivot must divide the rest of the block
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if mat[i][j] % mat[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(ncols):
                mat[t][j] += mat[offender][j]
            continue
        invariants.append(abs(mat[t][t]))
        t += 1
    return [d for d in invariants if d > 1]


def _c_components(star: StarForm) -> list[int]:
    """Cyclic component orders of C: per leaf, per prime power, ascending."""
    comps = []
    for leaf in star.leaves:
        for p, e in factorize_int(star.t_of(leaf)):
            comps.append((p - 1) * p ** (e - 1))
    return comps


def c_mod_minus_one_invariants(star: StarForm) -> tuple:
    """Invariant factors of C modulo the -1 vector."""
    comps = _c_components(star)
    r = len(comps)
    rows = []
    for idx, d in enumerate(comps):
        row = [0] * r
        row[idx] = d
        rows.append(row)
    rows.append([d // 2 for d in comps])  # the unique order-2 element per factor
    return tuple(sorted(_smith_invariants(rows, r)))


@dataclass(frozen=True)
class OutDescriptor:
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
    if all(m == 3 for m, _ in shape) and star.rank >= 3:
        note = (
            "all finite exponents equal 3: for this family the "
            "inner-by-outer extension is known to split even though the "
            "multiplicity-one criterion is silent"
        )
    elif splits and not guaranteed:
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
