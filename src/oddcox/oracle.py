"""Brute-force ground truth: Cayley balls, dihedral tables, bounded searches.

Everything here is deliberately independent of the cleverer routines it
is used to check.  Failures are explicit errors, never silently truncated
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import CoxeterSystem
from .errors import (
    BadLetter,
    BadSearchRequest,
    BallBudgetExceeded,
    EvenOrSmallExponent,
    NegativeRadius,
)
from .words import DEFAULT_ORBIT_BUDGET, check_word, inverse_word, reduce_word

DEFAULT_BALL_BUDGET = 10**5


@dataclass(frozen=True)
class CayleyBall:
    """All distinct elements of length <= radius, sorted ShortLex."""

    system: CoxeterSystem
    radius: int
    elements: tuple


def cayley_ball(
    sys: CoxeterSystem,
    radius: int,
    ball_budget: int = DEFAULT_BALL_BUDGET,
    orbit_budget: int = DEFAULT_ORBIT_BUDGET,
) -> CayleyBall:
    """Breadth-first enumeration with canonical-form deduplication."""
    if radius < 0:
        raise NegativeRadius(f"radius must be nonnegative, got {radius}")
    seen = {()}
    layers = [[()]]
    for r in range(1, radius + 1):
        layer = set()
        for w in layers[r - 1]:
            for g in sys.generators:
                canon = reduce_word(sys, w + (g,), orbit_budget)
                if len(canon) == r and canon not in seen:
                    if len(seen) >= ball_budget:
                        raise BallBudgetExceeded(
                            f"ball exceeded {ball_budget} elements"
                        )
                    seen.add(canon)
                    layer.add(canon)
        layers.append(sorted(layer))
    elements = [w for layer in layers for w in layer]
    return CayleyBall(system=sys, radius=radius, elements=tuple(elements))


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


def ball_search(
    sys: CoxeterSystem,
    kind: str,
    a: Sequence[int],
    b: Sequence[int] | None = None,
    radius: int = 0,
    ball_budget: int = DEFAULT_BALL_BUDGET,
    orbit_budget: int = DEFAULT_ORBIT_BUDGET,
) -> list:
    """Exhaustive search over a ball, ShortLex order.

    kind "conjugator": all x with x a x^-1 = b.
    kind "centralizer": all x with x a x^-1 = a.
    """
    a = check_word(sys, a)
    if kind == "conjugator":
        if b is None:
            raise BadSearchRequest("conjugator search needs a target")
        target = reduce_word(sys, b, orbit_budget)
    elif kind == "centralizer":
        target = reduce_word(sys, a, orbit_budget)
    else:
        raise BadSearchRequest(f"unknown search kind {kind!r}")
    ball = cayley_ball(sys, radius, ball_budget, orbit_budget)
    hits = []
    for x in ball.elements:
        image = reduce_word(sys, x + a + inverse_word(x), orbit_budget)
        if image == target:
            hits.append(x)
    return hits
