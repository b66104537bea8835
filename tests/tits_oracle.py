"""Coxeter group elements as points of the Tits representation over F_p.

W acts on the dual of its reflection representation.  Start at the point
f with f(alpha_s) = 1 for every generator s.  It lies inside the
fundamental chamber, whose stabilizer is trivial, so two words are the
same element exactly when they move f to the same point (Bourbaki, *Lie
Groups* Ch. V 4.4-4.6; Humphreys, *Reflection Groups and Coxeter Groups*
5.13).  A letter s negates f(alpha_s) and sends f(alpha_t) to
f(alpha_t) - 2B(alpha_s, alpha_t) f(alpha_s); a word acts rightmost
letter first.  For a finite label m, 2B(alpha_s, alpha_t) is
-(zeta^(L/m) + zeta^(-L/m)), where zeta is a primitive 2L-th root of
unity and L is the lcm of the labels; for m = infinity it is -2.

The values live in F_p, which holds such a zeta when p = 1 mod 2L.  The
reduction mod p is a ring homomorphism, so equal elements always get
equal images, and images that differ prove the elements differ; equal
images of different elements would take a coincidence mod p.

When every finite label is 3, 2B(alpha_s, alpha_t) is -1 or -2 and the
values are integers, computed exactly.  Then signs are known too:
(u.f)(alpha_s) = f(u^-1 alpha_s) is negative exactly when s is a left
descent of u, which decides whether a word is the ShortLex normal form
of its element.  Nothing here uses the word engine.
"""

from __future__ import annotations

import math

from oddcox.core import INFINITY

# prime, and 1 mod 630 = 2 lcm(3, 5, 7, 9, 15, 21)
P = 1_004_221


def _prime_factors(n: int) -> set:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def root_of_unity(order: int, p: int = P) -> int:
    """An element of multiplicative order exactly ``order`` in F_p."""
    if (p - 1) % order:
        raise ValueError(f"{order} does not divide p - 1 = {p - 1}")
    primes = _prime_factors(order)
    for h in range(2, p):
        z = pow(h, (p - 1) // order, p)
        if all(pow(z, order // q, p) != 1 for q in primes):
            return z
    raise ValueError(f"F_{p} has no element of order {order}")


def label_lcm(sys) -> int:
    return math.lcm(1, *(m for _, _, m in sys.finite_pairs()))


class TitsImage:
    """The image of a word: the point it moves f to, one value per generator.

    Over F_p by default; with ``p=None`` over the integers, which needs
    every finite label to be 3.
    """

    def __init__(self, sys, p: int | None = P):
        self.p = p
        if p is None:
            if any(m != 3 for _, _, m in sys.finite_pairs()):
                raise ValueError("exact values need every finite label to be 3")
        else:
            big_l = label_lcm(sys)
            zeta = root_of_unity(2 * big_l, p)
        n = sys.rank
        # rows[s][t] = 2B(alpha_s, alpha_t); column 0 is padding
        self.rows = [None]
        for s in range(1, n + 1):
            row = [0] * (n + 1)
            for t in range(1, n + 1):
                m = sys.m(s, t)
                if s == t:
                    row[t] = 2
                elif m == INFINITY:
                    row[t] = -2
                elif p is None:
                    row[t] = -1  # -2 cos(pi / 3)
                else:
                    e = big_l // m
                    row[t] = -(pow(zeta, e, p) + pow(zeta, -e, p))
            self.rows.append(row if p is None else [c % p for c in row])
        self.start = [1] * (n + 1)

    def _act(self, s: int, f: list) -> list:
        fs = f[s]
        if self.p is None:
            return [ft - c * fs for ft, c in zip(f, self.rows[s])]
        p = self.p
        return [(ft - c * fs) % p for ft, c in zip(f, self.rows[s])]

    def __call__(self, word) -> tuple:
        f = self.start
        for s in reversed(word):
            f = self._act(s, f)
        return tuple(f[1:])

    def is_normal_form(self, word) -> bool:
        """Is the word the ShortLex normal form of its element?  Exact only.

        Read from the right, each letter s must not be a left descent of
        the suffix after it (so the word is reduced) and must be the least
        left descent of the suffix it starts."""
        if self.p is not None:
            raise ValueError("signs need the exact values")
        f = self.start
        for s in reversed(word):
            if f[s] < 0:
                return False
            f = self._act(s, f)
            if any(f[t] < 0 for t in range(1, s)):
                return False
        return True
