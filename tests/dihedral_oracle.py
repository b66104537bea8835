"""Multiplication tables of the dihedral groups of order 2m, m odd.

An exact model of every rank-2 system with an odd label, independent of
the word engine: a rank-2 word evaluates to its element letter by
letter, so two words are equal exactly when they evaluate alike.
"""

from __future__ import annotations

from typing import Sequence

from oddcox.errors import BadLetter, EvenOrSmallExponent


class DihedralModel:
    """Multiplication table of the dihedral group of order 2m.

    Elements are pairs (parity, k): the element w_1^parity (w_1 w_2)^k.
    ``evaluate`` maps rank-2 words to elements and is a homomorphism, so
    the model serves as an equality oracle for rank-2 systems.
    """

    def __init__(self, m: int):
        if m < 3 or m % 2 == 0:
            raise EvenOrSmallExponent(f"exponent {m} must be odd and at least 3")
        self.m = m
        self.size = 2 * m
        self.elements = [(p, k) for p in (0, 1) for k in range(m)]
        self._index = {el: i for i, el in enumerate(self.elements)}
        self.identity = self._index[(0, 0)]
        self.table = tuple(
            tuple(self._mult_index(a, b) for b in range(self.size))
            for a in range(self.size)
        )

    def _mult_index(self, a: int, b: int) -> int:
        p1, k1 = self.elements[a]
        p2, k2 = self.elements[b]
        if p2 == 0:
            out = (p1, (k1 + k2) % self.m)
        else:
            out = ((p1 + 1) % 2, (k2 - k1) % self.m)
        return self._index[out]

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    def evaluate(self, word: Sequence[int]) -> int:
        """Image of a rank-2 word (letters 1 and 2), letters applied in order."""
        p, k = 0, 0
        for letter in word:
            if letter == 1:
                p, k = 1 - p, (-k) % self.m
            elif letter == 2:
                p, k = 1 - p, (1 - k) % self.m
            else:
                raise BadLetter(f"letter {letter} is not 1 or 2")
        return self._index[(p, k)]


def dihedral_model(m: int) -> DihedralModel:
    return DihedralModel(m)
