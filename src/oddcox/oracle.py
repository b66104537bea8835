"""Desk-scale searches: Cayley balls and bounded searches over them.

The ball enumerates ShortLex normal forms through the word engine's
small-root automaton, so it is not independent of the engine.  The
automaton has finitely many states (Brink and Howlett, Math. Ann. 296,
1993): it is the ShortLex automatic structure of Epstein et al., *Word
Processing in Groups* (1992), ch. 2.  So the ball interns each state's
key set once per call and steps the automaton once per (state, letter)
transition, not once per word.  The independent checks of the engine
and the ball live in the test suite:
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
    docstring.  Both read only the keys of u's state, and ``words._push``
    copies tags without reading them, so the keys it returns depend only
    on the keys it is given.  So each frontier word carries the id of its
    key set, interned in a table local to the call, and each letter has a
    row indexed by state id: the id after reading the letter in front, or
    None when the letter is rejected.  The row entries of a state are
    filled once, at the start of the layer whose frontier first holds it,
    and ``_push`` runs only when that layer is extended; the last layer
    needs the rejection test alone.  So ``_push`` runs once per (state,
    letter) transition, each for a distinct word of the layer being
    built, and a candidate costs one list index; no word is reduced.
    The table gains at most one entry per push: one per word that a layer
    extends, plus the candidates of a layer that the ball budget stops.
    So it never holds more than rank + 1 entries per element listed, nor
    more than the automaton's finitely many states.
    """
    if radius < 0:
        raise NegativeRadius(f"radius must be nonnegative, got {radius}")
    neighbors = sys.neighbors
    letters = [(s, (s,) + sys._blocking[s], []) for s in sys.generators]
    # state id of each key set met so far; ids are dense, in order of discovery
    ids: dict = {frozenset(): 0}
    filled = 0  # states whose row entries are filled
    elements = [()]
    # the previous layer, each word with the id of its small-root state
    frontier: list = [((), 0)]
    for r in range(1, radius + 1):
        if not frontier:
            break  # a finite group ended at the last layer
        extend = r < radius
        states = list(ids)
        for keys in states[filled:]:
            state = dict.fromkeys(keys, 0)
            for s, blocking, moves in letters:
                if not keys.isdisjoint(blocking):
                    moves.append(None)
                elif extend:
                    after = frozenset(_push(neighbors(s), state, s, 0))
                    moves.append(ids.setdefault(after, len(ids)))
                else:
                    moves.append(-1)  # accepted; the last layer needs no state
        filled = len(states)
        layer = []
        for s, _, moves in letters:
            for u, state in frontier:
                after = moves[state]
                if after is None:
                    continue
                if len(elements) >= ball_budget:
                    raise BallBudgetExceeded(f"ball exceeded {ball_budget} elements")
                w = (s,) + u
                elements.append(w)
                if extend:
                    layer.append((w, after))
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
