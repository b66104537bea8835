"""Desk-scale searches: Cayley balls and bounded searches in them.

Both walk ShortLex normal forms through the word engine's small-root
automaton, so they are not independent of the engine.  The automaton has
finitely many states (Brink and Howlett, Math. Ann. 296, 1993), and its
accepted paths are exactly the ShortLex words: it is the ShortLex
automatic structure of Epstein et al., *Word Processing in Groups*
(1992), ch. 2.  So ``_Automaton`` interns each state's key set once per
call and steps the automaton once per (state, letter) transition, not
once per word.  A ball lists every word the automaton accepts; a search
extends only the words its pruning keeps, and never builds the ball.
The independent checks of the engine and the ball live in the test
suite:
the braid-orbit reducer (``tests/braid_oracle.py``), the
reduce-and-dedup reference ball (``tests/ball_oracle.py``), the
dihedral tables (``tests/dihedral_oracle.py``) and the Tits
representation over a prime field (``tests/tits_oracle.py``).
Failures are explicit errors, never silently truncated results.

A search walks the ShortLex tree, each canonical word below its
canonical suffix, and carries the conjugate x a x^-1 down it.  It prunes
by one lemma: if y = v x, then y a y^-1 = v (x a x^-1) v^-1 is at least
len(x a x^-1) - 2 len(v) long, and len(v) <= radius - len(x) in the
ball.  So no y below x hits a target shorter than
len(x a x^-1) - 2 (radius - len(x)), and the walk builds no child of x.
Its ``ball_budget`` bounds the nodes the walk builds, not the ball.
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


class _Automaton:
    """The ShortLex automaton of one system, filled as its states are met.

    The canonical form of an element v is s c(s v), where s is the least
    left descent of v (the word engine emits it first), so the canonical
    words of length r are exactly the words (s,) + u with u canonical of
    length r - 1, s not a left descent of u and s the least simple root in
    the small-root state of s u.

    A candidate s is accepted exactly when alpha_s is not in the state of
    u and s passes the least-left-descent test of the ``words`` module
    docstring.  Both read only the keys of u's state, and ``words._push``
    copies tags without reading them, so the keys it returns depend only
    on the keys it is given.  So each word carries the id of its key set,
    interned in ``ids``, and each letter has a row indexed by state id:
    the id after reading the letter in front, None when the letter is
    rejected, or -1 when it is accepted and no state is needed because
    the layer is the last.  ``rows`` fills the entries of every state met
    since its last call, at the start of the next layer, and ``_push``
    runs only when that layer is extended.  So ``_push`` runs once per
    (state, letter) transition, and a candidate costs one list index; no
    word is reduced.  The table gains at most one entry per push, and
    never more than the automaton's finitely many states.  Each ball or
    search builds its own automaton.
    """

    def __init__(self, sys: CoxeterSystem) -> None:
        self.neighbors = sys.neighbors
        self.letters = [(s, (s,) + sys._blocking[s], []) for s in sys.generators]
        # state id of each key set met so far; ids are dense, in order of discovery
        self.ids: dict = {frozenset(): 0}
        self.filled = 0  # states whose row entries are filled

    def rows(self, extend: bool) -> list:
        """(letter, blocking keys, row) for each letter in order, with the
        entries of every state met so far filled; new states get ids only
        when ``extend`` says the layer being built will be extended."""
        ids, neighbors = self.ids, self.neighbors
        states = list(ids)
        for keys in states[self.filled :]:
            state = dict.fromkeys(keys, 0)
            for s, blocking, moves in self.letters:
                if not keys.isdisjoint(blocking):
                    moves.append(None)
                elif extend:
                    after = frozenset(_push(neighbors(s), state, s, 0))
                    moves.append(ids.setdefault(after, len(ids)))
                else:
                    moves.append(-1)  # accepted; the last layer needs no state
        self.filled = len(states)
        return self.letters


def cayley_ball(
    sys: CoxeterSystem, radius: int, ball_budget: int = DEFAULT_BALL_BUDGET
) -> CayleyBall:
    """Layer by layer enumeration of canonical words.

    Layer r is every word (s,) + u that ``_Automaton`` accepts, u running
    over layer r - 1.  Taking s in increasing order over a sorted layer
    keeps each layer sorted.  Every state met is the state of a word of
    the layer being built, so the automaton's table gains at most one
    entry per word that a layer extends, plus the candidates of a layer
    that the ball budget stops, and never holds more than rank + 1
    entries per element listed.
    """
    if radius < 0:
        raise NegativeRadius(f"radius must be nonnegative, got {radius}")
    if ball_budget < 1:  # no room for the identity
        raise BallBudgetExceeded(f"ball exceeded {ball_budget} elements")
    automaton = _Automaton(sys)
    elements = [()]
    # the previous layer, each word with the id of its small-root state
    frontier: list = [((), 0)]
    for r in range(1, radius + 1):
        if not frontier:
            break  # a finite group ended at the last layer
        extend = r < radius
        layer = []
        for s, _, moves in automaton.rows(extend):
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
    canonical suffix u as its parent.  So c(x), the canonical form of
    x a x^-1, is one conjugation of c(u) by s away, through
    ``words.conjugate``.  A node is pruned, with everything below it, by
    the lemma: if y = v x is in the ball, then y a y^-1 = v c(x) v^-1 has
    length at least len(c(x)) - 2 len(v), and len(v) <= radius - len(x).
    So no y below x can hit the target once len(c(x)) - 2 (radius - len(x))
    exceeds its length.

    The walk goes layer by layer and keeps only the nodes that survive
    the lemma.  Layer r is the words (s,) + u that ``_Automaton`` accepts,
    with s ascending and u running over the surviving nodes of layer
    r - 1 in order, so the hits come out in ShortLex order.  It ends when
    no node survives, so on a finite group any radius costs what the
    group does.  ``ball_budget`` bounds the nodes the walk builds, the
    root and each accepted child of a surviving node, not the elements of
    the ball.  Those nodes are words of the ball, so a search whose ball
    fits the budget answers with the same hits as a walk over the whole
    ball, and a search whose ball does not fit may still answer.
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
    if radius < 0:
        raise NegativeRadius(f"radius must be nonnegative, got {radius}")
    if ball_budget < 1:  # no room for the root
        raise BallBudgetExceeded(f"search built more than {ball_budget} nodes")
    root = target if kind == "centralizer" else reduce_word(sys, a, orbit_budget)
    hits = [()] if root == target else []
    automaton = _Automaton(sys)
    built = 1  # the root
    # the surviving nodes of the previous layer: (x, state id, c(x))
    frontier: list = [((), 0, root)]
    for r in range(1, radius + 1):
        if not frontier:
            break
        extend = r < radius
        longest = len(target) + 2 * (radius - r)  # the longest c(x) that survives
        layer = []
        for s, _, moves in automaton.rows(extend):
            letter = (s,)
            for u, state, c_u in frontier:
                after = moves[state]
                if after is None:
                    continue
                if built >= ball_budget:
                    message = f"search built more than {ball_budget} nodes"
                    raise BallBudgetExceeded(message)
                built += 1
                x = letter + u
                c = conjugate(sys, c_u, letter, orbit_budget)
                if c == target:
                    hits.append(x)
                if extend and len(c) <= longest:
                    layer.append((x, after, c))
        frontier = layer
    return hits
