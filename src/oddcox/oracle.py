"""Desk-scale searches: Cayley balls and bounded searches over them.

The ball enumerates ShortLex normal forms through the word engine's
small-root automaton, so it is not independent of the engine.  The
independent checks of the engine and the ball live in the test suite:
the braid-orbit reducer (``tests/braid_oracle.py``), the
reduce-and-dedup reference ball (``tests/ball_oracle.py``), the
dihedral tables (``tests/dihedral_oracle.py``) and the Tits
representation over a prime field (``tests/tits_oracle.py``).
Failures are explicit errors, never silently truncated results.

A search walks the ball as a tree, each canonical word below its
canonical suffix, and carries the conjugate x a x^-1 down it.  It prunes
by one lemma: if y = v x, then y a y^-1 = v (x a x^-1) v^-1 is at least
len(x a x^-1) - 2 len(v) long, and len(v) <= radius - len(x) in the
ball.  So no y below x hits a target shorter than
len(x a x^-1) - 2 (radius - len(x)), and the walk drops x's subtree.
The full-reduction reference search is in ``tests/ball_oracle.py``.
"""

from __future__ import annotations

from typing import Sequence

from .core import CoxeterSystem, _Record
from .errors import BadSearchRequest, BallBudgetExceeded, NegativeRadius
from .words import DEFAULT_ORBIT_BUDGET, _push, check_word, conjugate, reduce_word

DEFAULT_BALL_BUDGET = 10**5


class CayleyBall(_Record):
    """All distinct elements of length <= radius, sorted ShortLex."""

    system: CoxeterSystem
    radius: int
    elements: tuple


def cayley_ball(
    sys: CoxeterSystem, radius: int, ball_budget: int = DEFAULT_BALL_BUDGET
) -> CayleyBall:
    """Layer by layer enumeration of canonical words.

    The canonical form of an element v is s c(s v), where s is the least
    left descent of v (the word engine emits it first), so the canonical
    words of length r are exactly the words (s,) + u with u canonical of
    length r - 1, s not a left descent of u and s the least simple root in
    the small-root state of s u.  Taking s in increasing order over a
    sorted layer keeps each layer sorted.

    A candidate s is accepted exactly when alpha_s is not in the state of
    u and s passes the least-left-descent test of the ``words`` module
    docstring: O(degree of s) lookups, with no new state.  Only a word
    that the next layer extends needs its own state, so ``words._push``
    runs once per accepted word shorter than the radius, never for a
    rejected candidate or the last layer, and no word is reduced.
    """
    if radius < 0:
        raise NegativeRadius(f"radius must be nonnegative, got {radius}")
    neighbors = sys.neighbors
    elements = [()]
    # the previous layer, each word with its small-root state
    frontier: list = [((), {})]
    for r in range(1, radius + 1):
        if not frontier:
            break  # a finite group ended at the last layer
        extend = r < radius
        layer = []
        for s in sys.generators:
            row = neighbors(s)
            # the keys whose presence in u's state rules out s as the
            # least left descent of s u
            blocking = (s,) + sys._blocking[s]
            for u, state in frontier:
                if not state.keys().isdisjoint(blocking):
                    continue
                if len(elements) >= ball_budget:
                    raise BallBudgetExceeded(f"ball exceeded {ball_budget} elements")
                w = (s,) + u
                elements.append(w)
                if extend:
                    layer.append((w, _push(row, state, s, r - 1)))
        frontier = layer
    return CayleyBall(system=sys, radius=radius, elements=tuple(elements))


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

    The canonical words of the ball form a tree: x = (s,) + u has the
    canonical suffix u as its parent, and u comes earlier in ShortLex
    order.  So c(x), the canonical form of x a x^-1, is one conjugation
    of c(u) by s away, through ``words.conjugate``.  A node is pruned,
    with everything below it, by the lemma: if y = v x is in the ball,
    then y a y^-1 = v c(x) v^-1 has length at least
    len(c(x)) - 2 len(v), and len(v) <= radius - len(x).  So no y below
    x can hit the target once len(c(x)) - 2 (radius - len(x)) exceeds
    its length.
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
    root = target if kind == "centralizer" else reduce_word(sys, a, orbit_budget)
    # c(x) for each node of the ball tree whose subtree may still hit
    conj = {(): root}
    hits = [()] if root == target else []
    for x in ball.elements[1:]:
        parent = conj.get(x[1:])
        if parent is None:
            continue
        c = conjugate(sys, parent, x[:1], orbit_budget)
        if c == target:
            hits.append(x)
        if len(c) - 2 * (radius - len(x)) <= len(target):
            conj[x] = c
    return hits
