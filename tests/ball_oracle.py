"""Reference Cayley ball and ball search: reduce every candidate and dedup.

``reference_ball`` reduces each w g of the previous layer with the word
engine's ``reduce_word`` and keeps the new canonical words of the right
length; it knows nothing of the automaton the library's ball walks.
``reference_search`` tests x a x^-1 = b with full reductions.  Both keep
the library's refusals: ``NegativeRadius``, ``BallBudgetExceeded`` as
soon as a new element would exceed the cap, ``BadSearchRequest``.
"""

from __future__ import annotations

from oddcox.errors import BadSearchRequest, BallBudgetExceeded, NegativeRadius
from oddcox.oracle import DEFAULT_BALL_BUDGET
from oddcox.words import check_word, inverse_word, reduce_word


def reference_ball(sys, radius: int, ball_budget: int = DEFAULT_BALL_BUDGET) -> tuple:
    """All canonical words of length <= radius, sorted ShortLex."""
    if radius < 0:
        raise NegativeRadius(f"radius must be nonnegative, got {radius}")
    if ball_budget < 1:
        raise BallBudgetExceeded(f"ball exceeded {ball_budget} elements")
    seen = {()}
    layers = [[()]]
    for r in range(1, radius + 1):
        layer = set()
        for w in layers[r - 1]:
            for g in sys.generators:
                canon = reduce_word(sys, w + (g,))
                if len(canon) == r and canon not in seen:
                    if len(seen) >= ball_budget:
                        raise BallBudgetExceeded(f"ball exceeded {ball_budget} elements")
                    seen.add(canon)
                    layer.add(canon)
        layers.append(sorted(layer))
    return tuple(w for layer in layers for w in layer)


def reference_search(sys, kind: str, a, b=None, radius: int = 0) -> list:
    """Every x in the ball with x a x^-1 equal to b (conjugator) or a."""
    a = check_word(sys, a)
    if kind == "conjugator":
        if b is None:
            raise BadSearchRequest("conjugator search needs a target")
        target = reduce_word(sys, b)
    elif kind == "centralizer":
        target = reduce_word(sys, a)
    else:
        raise BadSearchRequest(f"unknown search kind {kind!r}")
    return [
        x
        for x in reference_ball(sys, radius)
        if reduce_word(sys, x + a + inverse_word(x)) == target
    ]
