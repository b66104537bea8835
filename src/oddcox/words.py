"""Word problem for odd tree Coxeter systems.

Words are tuples of 1-based generator indices; every generator is an
involution, so the inverse of a word is its reversal.  The canonical form
of an element is the ShortLex-least reduced word: shortest first, then
lexicographically least.  It is computed by alternating two steps until
neither applies:

* delete an adjacent equal pair of letters,
* explore the orbit of the word under braid moves, where a braid move
  replaces an alternating factor (s t s ...) of length m(s, t) (finite)
  by (t s t ...).

When no orbit member contains an adjacent equal pair the word is reduced
and the ShortLex-least orbit member is returned.  Orbit exploration is
capped by a configurable budget; exceeding it raises rather than
returning a wrong answer.

Conjugation is fixed as ``conjugate(v, x) = x v x^-1`` throughout the
package; the inner map induced by ``x`` sends g to x g x^-1.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Sequence

from .core import INFINITY, CoxeterSystem, StarForm
from .errors import (
    BadLetter,
    NoDescentStep,
    NotInParabolic,
    NotInvolution,
    OrbitBudgetExceeded,
)

DEFAULT_ORBIT_BUDGET = 10**6

Word = tuple


def check_word(sys: CoxeterSystem, word: Sequence[int]) -> Word:
    word = tuple(word)
    rank = sys.rank
    for letter in word:
        # the exact type test is cheap; int subclasses other than bool pass too
        if type(letter) is not int and (
            not isinstance(letter, int) or isinstance(letter, bool)
        ):
            raise BadLetter(f"letter {letter!r} is not an integer")
        if not 1 <= letter <= rank:
            raise BadLetter(f"letter {letter} out of range 1..{rank}")
    return word


def inverse_word(word: Sequence[int]) -> Word:
    """Inverse of a word: its reversal (all generators are involutions)."""
    return tuple(reversed(word))


def alternating(a: int, b: int, length: int) -> Word:
    """The word (a b a b ...) with the given number of letters."""
    return tuple(a if k % 2 == 0 else b for k in range(length))


def _strip_pairs(word: Word) -> Word:
    """Free reduction in one pass; it is confluent, so the result is unique."""
    out: list[int] = []
    for letter in word:
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _braid_neighbors(sys: CoxeterSystem, word: Word):
    n = len(word)
    for p in range(n - 1):
        a, b = word[p], word[p + 1]
        if a == b:
            continue
        m = sys.m(a, b)
        if m == INFINITY or p + m > n:
            continue
        factor = alternating(a, b, m)
        if word[p : p + m] == factor:
            yield word[:p] + alternating(b, a, m) + word[p + m :]


@lru_cache(maxsize=None)
def _reduce_cached(sys: CoxeterSystem, word: Word, budget: int) -> Word:
    current = _strip_pairs(word)
    while True:
        seen = {current}
        queue = deque([current])
        best = current
        shortened = None
        while queue:
            w = queue.popleft()
            for nb in _braid_neighbors(sys, w):
                if nb in seen:
                    continue
                if len(seen) >= budget:
                    raise OrbitBudgetExceeded(
                        f"braid orbit exceeded {budget} states"
                    )
                seen.add(nb)
                stripped = _strip_pairs(nb)
                if len(stripped) < len(nb):
                    shortened = stripped
                    break
                if nb < best:
                    best = nb
                queue.append(nb)
            if shortened is not None:
                break
        if shortened is None:
            return best
        current = shortened


def reduce_word(
    sys: CoxeterSystem, word: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
) -> Word:
    """Canonical (ShortLex-least reduced) form of the element spelled by ``word``."""
    return _reduce_cached(sys, check_word(sys, word), budget)


def word_length(
    sys: CoxeterSystem, word: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
) -> int:
    return len(reduce_word(sys, word, budget))


def equal(
    sys: CoxeterSystem,
    w: Sequence[int],
    v: Sequence[int],
    budget: int = DEFAULT_ORBIT_BUDGET,
) -> bool:
    return reduce_word(sys, w, budget) == reduce_word(sys, v, budget)


def multiply(
    sys: CoxeterSystem,
    w: Sequence[int],
    v: Sequence[int],
    budget: int = DEFAULT_ORBIT_BUDGET,
) -> Word:
    return reduce_word(sys, tuple(w) + tuple(v), budget)


def conjugate(
    sys: CoxeterSystem,
    v: Sequence[int],
    x: Sequence[int],
    budget: int = DEFAULT_ORBIT_BUDGET,
) -> Word:
    """Canonical form of x v x^-1."""
    x = check_word(sys, x)
    return reduce_word(sys, x + tuple(v) + inverse_word(x), budget)


def left_descents(
    sys: CoxeterSystem, word: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
) -> set:
    """Generators s with length(s w) < length(w)."""
    canon = reduce_word(sys, word, budget)
    length = len(canon)
    return {
        s
        for s in sys.generators
        if len(reduce_word(sys, (s,) + canon, budget)) < length
    }


def support(
    sys: CoxeterSystem, word: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
) -> set:
    """Letter set of the canonical form.

    An element lies in the standard parabolic subgroup on a subset I of
    the generators exactly when its support is contained in I.
    """
    return set(reduce_word(sys, word, budget))


def involution_to_base(
    star: StarForm, v: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
) -> Word:
    """Conjugator x with x v x^-1 equal to the center generator.

    Works by length descent: while the involution is longer than one
    letter, some generator s satisfies length(s v s) = length(v) - 2;
    conjugating by s and repeating reaches a single generator.  A leaf
    generator is finally moved to the center by the dihedral shift
    c = (w_leaf w_1)^((t - 1)/2), which conjugates the leaf to the center
    inside their finite dihedral subgroup.
    """
    sys = star.system
    cur = reduce_word(sys, v, budget)
    if cur == ():
        raise NotInvolution("the identity is not a nontrivial involution")
    if reduce_word(sys, cur + cur, budget) != ():
        raise NotInvolution("word does not square to the identity")
    acc: list[int] = []
    while len(cur) > 1:
        for s in sys.generators:
            cand = reduce_word(sys, (s,) + cur + (s,), budget)
            if len(cand) == len(cur) - 2:
                acc.insert(0, s)
                cur = cand
                break
        else:
            raise NoDescentStep(
                "no generator shortens the involution; input is inconsistent"
            )
    j = cur[0]
    if j != 1:
        t = star.t_of(j)
        shift = alternating(j, 1, 2) * ((t - 1) // 2)
        x = shift + tuple(acc)
    else:
        x = tuple(acc)
    return reduce_word(sys, x, budget)


def dihedral_log(
    star: StarForm, j: int, w: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
):
    """Position of an element inside the dihedral subgroup on {1, j}.

    Returns ("even", k) when w = (w_1 w_j)^k and ("odd", k) when
    w = w_1 (w_1 w_j)^k, with 0 <= k < t_j; the pair is unique.
    """
    if j not in star.leaves:
        raise NotInParabolic(f"{j} is not a leaf")
    canon = reduce_word(star.system, w, budget)
    letters = set(canon)
    if not letters <= {1, j}:
        raise NotInParabolic(f"support {sorted(letters)} is not inside {{1, {j}}}")
    t = star.t_of(j)
    parity, k = 0, 0
    for letter in canon:
        if letter == 1:
            parity, k = 1 - parity, (-k) % t
        else:
            parity, k = 1 - parity, (1 - k) % t
    return ("odd" if parity else "even", k)


def parse_word(text: str) -> Word:
    """Parse the serialized form: space-separated indices, "e" for empty."""
    text = text.strip()
    if text == "e" or text == "":
        return ()
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise BadLetter(f"cannot parse word {text!r}") from exc


def format_word(word: Sequence[int]) -> str:
    if not word:
        return "e"
    return " ".join(str(letter) for letter in word)
