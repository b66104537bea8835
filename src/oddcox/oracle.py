"""Desk-scale ground truth: Cayley balls, dihedral tables, bounded searches.

The ball enumerates ShortLex normal forms through the word engine's
small-root automaton, so it is not independent of the engine.  The
dihedral model is; the independent checks of the engine and the ball
are the test suite's braid-orbit reducer (``tests/braid_oracle.py``)
and reduce-and-dedup reference ball (``tests/ball_oracle.py``).
Failures are explicit errors, never silently truncated results.
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
from .words import DEFAULT_ORBIT_BUDGET, _push, check_word, reduce_word

DEFAULT_BALL_BUDGET = 10**5


@dataclass(frozen=True)
class CayleyBall:
    """All distinct elements of length <= radius, sorted ShortLex."""

    system: CoxeterSystem
    radius: int
    elements: tuple


def cayley_ball(
    sys: CoxeterSystem, radius: int, ball_budget: int = DEFAULT_BALL_BUDGET
) -> CayleyBall:
    """Layer by layer enumeration of canonical words.

    The canonical form of an element v is s c(s v), where s is the least
    left descent of v (step 4 of the word engine), so the canonical words
    of length r are exactly the words (s,) + u with u canonical of length
    r - 1, s not a left descent of u and s the least simple root in the
    small-root state of s u.  Each element is built once, from the tail
    of its canonical form, with one automaton step and no reduction.
    Taking s in increasing order over a sorted layer keeps each layer
    sorted.
    """
    if radius < 0:
        raise NegativeRadius(f"radius must be nonnegative, got {radius}")
    neighbors = sys.neighbors
    elements = [()]
    # the previous layer, each word with its small-root state
    frontier: list = [((), {})]
    for r in range(1, radius + 1):
        layer = []
        for s in sys.generators:
            row = neighbors(s)
            for u, state in frontier:
                if s in state:
                    continue
                new = _push(row, state, s, r - 1)
                if any(type(key) is int and key < s for key in new):
                    continue
                if len(elements) >= ball_budget:
                    raise BallBudgetExceeded(f"ball exceeded {ball_budget} elements")
                w = (s,) + u
                elements.append(w)
                if r < radius:
                    layer.append((w, new))
        frontier = layer
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
    ball = cayley_ball(sys, radius, ball_budget)
    # x a x^-1 = target exactly when x a = target x
    return [
        x
        for x in ball.elements
        if reduce_word(sys, x + a, orbit_budget)
        == reduce_word(sys, target + x, orbit_budget)
    ]
