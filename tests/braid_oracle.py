"""Reference reducer: Tits' braid-orbit search.

By Tits' solution of the word problem, a word is reduced exactly when no
sequence of braid moves reaches a word with an adjacent equal pair, and
the reduced words of one element form a single braid orbit.  So deleting
equal pairs and exploring the orbit until either a pair appears or the
orbit is exhausted gives the ShortLex-least reduced word.  The orbit is
exponential in the number of independent braid sites, so this serves
only as an oracle for short words; it uses nothing of ``oddcox`` but
``CoxeterSystem.m``.
"""

from __future__ import annotations

from collections import deque

from oddcox.core import INFINITY


def _strip_pairs(word: tuple) -> tuple:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _alternating(a: int, b: int, length: int) -> tuple:
    return tuple(a if k % 2 == 0 else b for k in range(length))


def braid_neighbors(sys, word: tuple):
    """Every word one braid move away from ``word``."""
    n = len(word)
    for p in range(n - 1):
        a, b = word[p], word[p + 1]
        if a == b:
            continue
        m = sys.m(a, b)
        if m == INFINITY or p + m > n:
            continue
        if word[p : p + m] == _alternating(a, b, m):
            yield word[:p] + _alternating(b, a, m) + word[p + m :]


def braid_reduce(sys, word: tuple) -> tuple:
    """ShortLex-least reduced word of the element spelled by ``word``."""
    current = _strip_pairs(tuple(word))
    while True:
        seen = {current}
        queue = deque([current])
        best = current
        shortened = None
        while queue and shortened is None:
            w = queue.popleft()
            for nb in braid_neighbors(sys, w):
                if nb in seen:
                    continue
                seen.add(nb)
                stripped = _strip_pairs(nb)
                if len(stripped) < len(nb):
                    shortened = stripped
                    break
                best = min(best, nb)
                queue.append(nb)
        if shortened is None:
            return best
        current = shortened
