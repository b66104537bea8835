"""Word problem for odd Coxeter systems.

Words are tuples of 1-based generator indices; every generator is an
involution, so the inverse of a word is its reversal.  The canonical form
of an element is the ShortLex-least reduced word: shortest first, then
lexicographically least.  ``_reduce`` computes it in two steps:

1. One stack pass reads each letter once.  It cancels an adjacent equal
   pair and rewrites an alternating factor of m + 1 letters as the
   opposite factor of m - 1 letters, (a b ...)_(m+1) = (b a ...)_(m-1),
   re-reading the letters of the new factor.  If no alternating factor
   (a b a ...) of m(a, b) letters is left, no braid move applies, so by
   Tits' solution of the word problem the word is reduced and is the
   only reduced spelling of its element: return it.
2. One loop reads the word from the right through the small-root
   automaton of Brink and Howlett (Math. Ann. 296, 1993).  After each
   letter the state is the set of small roots in the left inversion set
   of the suffix read, each tagged with the letter that introduced it.
   A letter x whose simple root alpha_x is already in the state is a
   left descent; by the exchange condition it cancels against the tagged
   letter, both are deleted and the letters after the tag are read
   again.  With no letter left to read, the least simple root s in the
   state is the least left descent, which starts the ShortLex-least
   spelling: emit s, delete its tagged letter (leaving a reduced word for
   s w) and read the letters after it again, until nothing is left.
   While it reads, the loop certifies a canonical suffix by the test
   below.  When nothing is left to read and the whole reduced word is
   certified, the loop emits it as it stands and stops.  Each letter so
   skipped would have been emitted in front, as the ShortLex-least
   spelling of a canonical x u is x followed by u.  Such an emission
   deletes its own letter, re-reads nothing and counts no budget step,
   so stopping changes neither the output nor the steps.

The least-left-descent test.  Let u be a reduced word with state S, and
x a letter that is not a left descent of u (alpha_x is not in S).
Reading x creates alpha_x, and a simple root other than alpha_x only
from a root rho_k of a pair that holds x (see ``_push``): rho_1 of a pair
(x, b) becomes alpha_b, with b > x, and rho_(m-2) of a pair (a, x)
becomes alpha_a, with a < x.  So x is the least left descent of x u
exactly when no key (a, x, m(a, x) - 2) with a < x is in S.  The system
holds these keys, one per edge, in ``CoxeterSystem._blocking``, so the
test costs O(degree of x) lookups.  The ShortLex-least spelling starts
with the least left descent, so when u is canonical, x u is canonical
exactly when x passes; and every suffix of a canonical word is
canonical.  So the loop keeps c, the length of the longest canonical
suffix of the reduced word read (its first c letters read): a letter
read at index c raises c by one when it passes the test, and an exchange
or re-read that truncates the word below c lowers c to the new length.
``oracle.cayley_ball`` enumerates canonical words by the same test.

Every exponent is odd, so at least 3, and the small roots are exactly the
simple roots and the positive roots of the finite rank-2 parabolics
{a, b}.  Small roots are the closure of the simple roots under beta ->
s_u beta for -1 < B(alpha_u, beta) < 0.  Take u outside the support of a
non-simple root beta = a alpha_s + b alpha_t of I_2(m).  Then a, b >= 1
and B(alpha_u, alpha_s), B(alpha_u, alpha_t) <= -1/2, so
B(alpha_u, beta) <= -1 and s_u beta is not small; inside {s, t} all
positive roots of the finite dihedral group are small.  This holds for
every system ``CoxeterSystem`` accepts, trees or not.  A state therefore
holds O(max m) roots and reading a letter costs O(max m); each exchange
or emission re-reads at most the whole word, so a reduction is at most
quadratic in the word length.

``budget`` caps the rewrite steps of one reduction, counting the input
as the first: each step-1 rewrite, each exchange and each emission whose
letter is not already in front.  Exceeding it raises
``OrbitBudgetExceeded`` rather than returning a wrong answer.  Nothing
is memoized: every call reduces its word afresh and keeps no state.

``_reduce`` checks no letter.  The public entry points check theirs with
``check_word`` first; only code in this module and in ``autkit`` that
builds its words from letters already checked calls ``_reduce`` directly.

Conjugation is fixed as ``conjugate(v, x) = x v x^-1`` throughout the
package; the inner map induced by ``x`` sends g to x g x^-1.

If s is a left descent of a reflection t other than s, then
length(s t s) = length(t) - 2, and in an odd tree group every involution
is a reflection (a finite subgroup lies in a conjugate of a generator or
of an odd dihedral edge); ``involution_to_base`` rests on both facts.
"""

from __future__ import annotations

from typing import Sequence

from .core import CoxeterSystem, StarForm
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


def _stack_pass(sys: CoxeterSystem, word: Word, budget: int) -> tuple:
    """Read each letter once onto a stack: cancel an adjacent equal pair,
    rewrite (a b ...) of m + 1 letters as (b a ...) of m - 1 letters.

    Returns the letters and the rewrite steps taken so far, the input
    counting as the first, or 0 steps when no alternating run of m
    letters remains.
    """
    rows = sys._rows
    # two sentinel letters: 0 equals no letter and has no finite exponent
    out = [0, 0]
    runs = [0, 0]  # runs[i]: the alternating run ending at out[i]
    y = z = run = 0  # out[-1], out[-2] and runs[-1]
    pending: list[int] = []  # letters to re-read after a rewrite, the next last
    steps = 1
    braidable = False
    for x in word:
        while True:
            if x == y:
                out.pop()
                runs.pop()
                y, z, run = out[-1], out[-2], runs[-1]
            elif x != z:
                out.append(x)
                runs.append(2)
                z, y, run = y, x, 2
            else:
                run += 1
                m = rows[x].get(y, run + 1)  # a missing pair has m = infinity
                if run > m:
                    # (a b ...)_(m+1) = (b a ...)_(m-1): drop the run's first
                    # letter and x, and re-read the rest after the new neighbour
                    steps += 1
                    if steps > budget:
                        raise OrbitBudgetExceeded(
                            f"word engine exceeded {budget} rewrite steps"
                        )
                    pending.extend(out[: -m : -1])
                    del out[-m:]
                    del runs[-m:]
                    y, z, run = out[-1], out[-2], runs[-1]
                else:
                    braidable = braidable or run == m
                    out.append(x)
                    runs.append(run)
                    z, y = y, x
            if not pending:
                break
            x = pending.pop()
    del out[:2]
    return out, steps if braidable else 0


def _push(row: dict, state: dict, x: int, index: int) -> dict:
    """The state after the letter x, which must not be a left descent.

    ``row`` is ``sys.neighbors(x)`` and ``state`` the small-root state of
    the word read so far: a dict from each small root in its left
    inversion set to the index of the letter that introduced it.  A
    simple root alpha_y is the key y; the root rho_k (0 < k < m - 1) of
    the pair a < b is the key (a, b, k), where rho_0 = alpha_a,
    rho_(m-1) = alpha_b, s_a sends rho_k to rho_(m-k) and s_b sends rho_k
    to rho_(m-2-k).  ``index`` is the tag of the new simple root alpha_x.
    Every root s_x beta for beta in ``state`` keeps the tag of beta; one
    that is not small is dropped.
    """
    new = {x: index}
    for key, tag in state.items():
        if type(key) is int:
            m = row.get(key)
            if m is not None:
                if x < key:
                    new[(x, key, 1)] = tag
                else:
                    new[(key, x, m - 2)] = tag
            continue
        a, b, k = key
        if x == a:
            m = row[b]
            k = m - k
            new[b if k == m - 1 else (a, b, k)] = tag
        elif x == b:
            k = row[a] - 2 - k
            new[a if k == 0 else (a, b, k)] = tag
    return new


def _descents(sys: CoxeterSystem, canon: Word) -> set:
    """Left descents of a reduced word: the simple roots in its state."""
    state: dict = {}
    for index, x in enumerate(reversed(canon)):
        state = _push(sys.neighbors(x), state, x, index)
    return {key for key in state if type(key) is int}


def _reduce(sys: CoxeterSystem, word: Sequence[int], budget: int) -> Word:
    pending, steps = _stack_pass(sys, word, budget)
    if not steps:  # no run of m letters is left: the word is canonical
        return tuple(pending)
    rows = sys._rows
    blocking = sys._blocking
    # the reduced word read so far, rightmost letter first; states[k] is
    # the small-root state after reduced[:k], and reversed(reduced[:canon])
    # is its longest canonical suffix
    reduced: list[int] = []
    states: list[dict] = [{}]
    canon = 0
    out = []
    while True:
        state = states[-1]
        if pending:
            x = pending.pop()
            tag = state.get(x)
            if tag is None:
                index = len(reduced)
                if index == canon and state.keys().isdisjoint(blocking[x]):
                    canon += 1  # x is the least left descent of x u
                states.append(_push(rows[x], state, x, index))
                reduced.append(x)
                continue
            # x is a left descent: it cancels against the letter at tag
        elif len(reduced) == canon:
            # all certified: each letter left would be emitted in front
            out.extend(reversed(reduced))
            return tuple(out)
        else:
            # emit the least left descent and delete the letter at its tag
            x = min(key for key in state if type(key) is int)
            out.append(x)
            tag = state[x]
            if tag == len(reduced) - 1:  # x is in front already
                reduced.pop()
                states.pop()
                continue
        steps += 1
        if steps > budget:
            raise OrbitBudgetExceeded(f"word engine exceeded {budget} rewrite steps")
        pending.extend(reduced[:tag:-1])
        del reduced[tag:]
        del states[tag + 1 :]
        canon = min(canon, tag)


def reduce_word(
    sys: CoxeterSystem, word: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
) -> Word:
    """Canonical (ShortLex-least reduced) form of the element spelled by ``word``."""
    return _reduce(sys, check_word(sys, word), budget)


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
    x = tuple(x)
    return reduce_word(sys, x + tuple(v) + inverse_word(x), budget)


def left_descents(
    sys: CoxeterSystem, word: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
) -> set:
    """Generators s with length(s w) < length(w)."""
    return _descents(sys, reduce_word(sys, word, budget))


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

    Works by length descent.  Every involution v is a reflection s_beta:
    a finite subgroup lies in a conjugate of a finite standard parabolic,
    here a generator or an odd dihedral edge, whose involutions are all
    reflections.  While v is longer than one letter, its first letter s
    is its least left descent, and v(alpha_s) < 0 forces
    B(alpha_s, beta) > 0, so (s v)(alpha_s) = -alpha_s -
    2 B(alpha_s, beta) s(beta) < 0 and length(s v s) = length(v) - 2;
    a length that does not drop by 2 raises ``NoDescentStep``.
    Conjugating by s and repeating reaches a single generator.  A leaf
    generator is finally moved to the center by the dihedral shift
    c = (w_leaf w_1)^((t - 1)/2), which conjugates the leaf to the center
    inside their finite dihedral subgroup.
    """
    sys = star.system
    cur = reduce_word(sys, v, budget)
    if cur == ():
        raise NotInvolution("the identity is not a nontrivial involution")
    if _reduce(sys, cur + cur, budget) != ():
        raise NotInvolution("word does not square to the identity")
    acc: list[int] = []
    while len(cur) > 1:
        s = cur[0]
        cand = _reduce(sys, (s,) + cur + (s,), budget)
        if len(cand) != len(cur) - 2:
            raise NoDescentStep(
                "no generator shortens the involution; input is inconsistent"
            )
        acc.insert(0, s)
        cur = cand
    j = cur[0]
    if j != 1:
        t = star.t_of(j)
        shift = alternating(j, 1, 2) * ((t - 1) // 2)
        x = shift + tuple(acc)
    else:
        x = tuple(acc)
    return _reduce(sys, x, budget)


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
    return _dihedral_position(star.t_of(j), canon)


def _dihedral_position(t: int, canon: Word):
    """``dihedral_log`` of a reduced word on {1, j} with t = t_j."""
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
