"""Word problem for odd Coxeter systems.

Words are tuples of 1-based generator indices; every generator is an
involution, so the inverse of a word is its reversal.  The canonical form
of an element is the ShortLex-least reduced word: shortest first, then
lexicographically least.  ``_reduce`` computes it in two steps:

1. One stack pass reads each letter once.  It cancels an adjacent equal
   pair and rewrites an alternating factor of m + 1 letters as the
   opposite factor of m - 1 letters, (a b ...)_(m+1) = (b a ...)_(m-1),
   re-reading the letters of the new factor.  What is left has no equal
   pair and no alternating run longer than m.  A run of exactly m(a, b)
   letters is a site, and flipping it, (a b ...)_m -> (b a ...)_m, is a
   braid move.  When no site is left, or the sites pass the flip
   certificate below, the word is canonical: return it.
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

The flip certificate.  By Tits' solution of the word problem, a word is
reduced unless braid moves lead from it to a word with an adjacent equal
pair, and the reduced spellings of an element form one braid class.
Every exponent is odd, so a site (a b ... a) starts and ends with one
letter, and its flip (b a ... b) puts the other letter at both ends.
The stack pass records each index where a run reaches m letters as it
appends, and at the end keeps the records that are still sites.  It
certifies the word when

(a) each site starts with its smaller letter, a < b;
(b) no two sites overlap or touch: some letter lies between them;
(c) at each end of each site, with c the letter past that end, the
    alternating {b, c} run that the flip makes (b, then c, b, c, ... as
    far as the word alternates) is shorter than m(b, c) and does not
    reach the letter next to another site.

Let w pass, with r sites, and let w_F be w with the sites in a set F
flipped.  Every maximal alternating run of w_F is short or a site of w,
flipped or not.  A run that holds two letters of a site holds all of it
and ends there: past an unflipped site the letter is as in w, where the
site was maximal, and past a flipped one it is neither a (the two were
adjacent in w) nor in a site (b).  A run that holds at most one letter
of each site and no flipped end has only letters of w, so it lies in a
run of w that is no site and is shorter than its m.  A run that holds a
flipped end b starts there, as the letter inside is a, and it is the
run (c) measures: it stops before the letter next to any other site, so
each letter it reads lies outside every site and is the same in w and
in w_F.  So every w_F has the same sites, its braid moves are their
flips, and the braid class of w is exactly the 2^r words w_F.  None has
an equal pair: inside a site the letters alternate, outside one they are
those of w, and a flipped end b meets a letter c that is not b, since
the site would otherwise be a run of m + 1 in w.  So w is reduced, its
reduced spellings are the w_F, and w is the ShortLex-least of them: w_F
first differs from w at the first letter of its leftmost flipped site,
where it has b > a.  Certifying costs the automaton nothing it would
have counted, since it reads a canonical word with no step.

Test (c) reads at most the letters between two sites, and stops at the
letter next to the other site because past it the letters change with
that site's flip, so the run's length is not known for every F.  With
one letter c between sites A and B, the run of either flip reaches c at
once, so (c) refuses whenever m(b, c) is finite.  It must: in
(3 4 3 2 1 3 1 4), with every exponent 3 but m(1, 2) infinite, flipping
(1 3 1) alone makes 3 2 3 with the 3 that ends the unflipped (3 4 3), a
new site, and the canonical form is (3 4 2 3 2 1 3 4).  With two
letters c d between A and B, the run of A's flip b c reaches d, the
letter next to B, only when d = b; otherwise it has 2 < m(b, c) letters
and stops at d, which no flip changes.  The same holds for B's flip
and c, so two flips at least two letters apart that pass (c) do not
meet.

On a star centred at 1, where every finite edge contains generator 1
(``CoxeterSystem._star``), the certificate is test (a) alone.  There
every site is a {1, x} run and (a) says it starts with 1, and the
reversal lemma below proves that a stack-pass word is canonical exactly
when every site does, sites that share a letter included, such as
(1 2 1 3 1) with m(1, 2) = m(1, 3) = 3.  (Two such sites cannot touch:
the end of one and the start of the other would be an equal pair.)  So
(b) and (c) are skipped there.  It changes no output and no step count: a certified word is
canonical, and the automaton would have returned it with no step.  On
other systems, paths and other trees, all three tests stay.

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

The reversal lemma, for a star (center 1, leaves 2..n, every leaf pair
unbounded): the reversal of a canonical word is canonical, so the
canonical word of an involution is a palindrome.  Call a maximal
alternating {1, x} run of exactly m(1, x) letters a site; every other
pair is unbounded, so sites are the only factors a braid move can
rewrite.  A word is canonical exactly when it has no equal adjacent
pair, no {1, x} run longer than m(1, x), and every site starts with 1
(as the exponent is odd, it then ends with 1).  That description is the
same read from either end, so the lemma follows from it.  A canonical
word has it: flipping a site (x 1 ... x) to (1 x ... 1) would spell the
element with a lesser letter at the site's start.  Conversely let w
have it, and flip a set F of sites no two of which share a letter.  The
new end letters x of a flipped site meet leaves other than x, an
unbounded pair, and a site that shared its end 1 with a flipped site
loses that letter; so the sites of w_F are the flipped sites of F and
the sites of w that share no letter with them, and no run grows.  So
the words w_F are closed under braid moves and none has an equal
adjacent pair: by Tits' solution of the word problem, w is reduced and
the w_F are all its reduced spellings.  w_F first differs from w at the
first letter of its leftmost flipped site, where w has 1, so w is the
least.  Now v = v^-1 exactly when the canonical word of v equals that
of v^-1, its reversal.  ``involution_to_base`` rests on this and on the
factor lemma: a factor of a canonical word is canonical, since a
ShortLex-lesser reduced spelling of the factor would give a
ShortLex-lesser reduced spelling of the word.  So for a canonical
palindrome v = s u s the conjugate s v s is u as it stands, canonical
and a palindrome again, and peeling end letters reaches the middle
letter with no reduction.

The seam corollary, for canonical words p_1, ..., p_r on a star.  Append
them in turn, cancelling equal letters across each seam, a free
reduction (``_free_join``), and call the result w.  What is left of each
piece is a factor of it, canonical by the factor lemma, and w has no
equal adjacent pair: none inside a fragment, and none at a seam, where
cancelling stopped.  A maximal alternating run of w that holds no seam
lies inside one fragment and is maximal there, so it has at most m
letters and starts with 1 if it has m.  So when every maximal run
through a seam does the same, w has the reversal lemma's description and
is canonical.  ``_joined`` checks just those runs.  A piece that cancels
to nothing leaves one seam between its neighbours, and a seam that a
later piece cancels past is gone; the check reads the seams of w as it
stands.  The free reduction is written once: ``autkit.classify_endo``
cancels x e(g) x^-1 with ``_free_join`` too, for any image e(g), and
reduces what is left.

A certified join skips no step.  ``_reduce`` of w would take none: its
stack pass rewrites nothing in w and certifies it by test (a).  Nor
would ``_reduce`` of the plain concatenation x^-1 c x that
``autkit._recompose`` joins, with x canonical and c a core, an
alternating palindrome on {1, j} of at most m(1, j) letters or (1).  Its
stack pass cancels the same letters, which costs no step, and rewrites
only when an appended letter ends a run of more than m letters.  Every
letter it appends ends a run of x^-1, of w (each passes) or of c, but
for the letters of c that x cancels later.  Say q letters of c cancel
against x^-1, so x = c[:q] y.  With q = 0 nothing cancels at either
seam, since x[0] = c[0] = c[-1] would cancel against x^-1 first.
With 0 < q < |c| the letter y[0] is neither c[q] (cancelling stopped)
nor c[q - 1] (x is reduced), so it is a leaf l outside c.  The run that
c[q] ends is then c[q] after the reversed {l, c[q]} run that starts y:
unbounded when c[q] = j, and when c[q] = 1 a run of x that starts with
a leaf, so of at most m - 1 letters.  Every later letter of c ends a
run inside c.
"""

from __future__ import annotations

from collections.abc import Sequence

from .core import CoxeterSystem, StarForm, _is_int
from .errors import (
    BadLetter,
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
        # the exact type test is cheap; ``_is_int`` decides the rest
        if type(letter) is not int and not _is_int(letter):
            raise BadLetter(f"letter {letter!r} is not an integer")
        if not 1 <= letter <= rank:
            raise BadLetter(f"letter {letter} out of range 1..{rank}")
    return word


def inverse_word(word: Sequence[int]) -> Word:
    """Inverse of a word: its reversal (all generators are involutions)."""
    return tuple(reversed(word))


def alternating(a: int, b: int, length: int) -> Word:
    """The word (a b a b ...) with the given number of letters."""
    return ((a, b) * ((length + 1) // 2))[:length]


def _stack_pass(sys: CoxeterSystem, word: Word, budget: int) -> tuple:
    """Read each letter once onto a stack: cancel an adjacent equal pair,
    rewrite (a b ...) of m + 1 letters as (b a ...) of m - 1 letters.

    Returns the letters and the rewrite steps taken so far, the input
    counting as the first, or 0 steps when the word is certified
    canonical: no site is left, or every site passes ``_flips_are_free``.
    """
    rows = sys._rows
    # two sentinel letters: 0 equals no letter and has no finite exponent
    out = [0, 0]
    runs = [0, 0]  # runs[i]: the alternating run ending at out[i]
    y = z = run = 0  # out[-1], out[-2] and runs[-1]
    pending: list[int] = []  # letters to re-read after a rewrite, the next last
    steps = 1
    sites: list[int] = []  # each index where a run reached m letters as appended
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
                    if run == m:
                        sites.append(len(out))
                    out.append(x)
                    runs.append(run)
                    z, y = y, x
            if not pending:
                break
            x = pending.pop()
    out.append(0)  # a third sentinel, after the word
    certified = not sites or _flips_are_free(sys, out, runs, sites)
    del out[:2]
    out.pop()
    return out, 0 if certified else steps


def _flips_are_free(sys: CoxeterSystem, out: list, runs: list, records: list) -> bool:
    """The flip certificate on the stack-pass word ``out``, between its
    sentinels, with run lengths ``runs``.

    ``records`` holds each index where a run reached m letters as its
    letter was appended, so every site is recorded by the append that
    put its last letter.  A record whose letter stayed lies below every
    later record, as the stack never fell back to it.  So, read from the
    right, a record at or past the least index read so far is stale, and
    one below it ends a site exactly when its run still has m letters.
    True when (a) each site starts with its smaller letter, (b) no two
    sites overlap or touch, and (c) no flip makes a new site at either
    end of its site (``_flip_end_is_free``).

    On a star centred at 1 (``sys._star``) test (a) alone decides,
    sites that share a letter included: by the module docstring's
    reversal lemma a stack-pass word there is canonical exactly when
    every site starts with 1.  A word so certified is canonical, so the
    automaton would return it with no step, and skipping (b) and (c)
    changes no output and no step count.
    """
    rows, star = sys._rows, sys._star
    sites = []  # (start, end, larger letter), right to left
    # stop: the letter before the site to the right; at first the sentinel
    low = stop = len(out) - 1
    for end in reversed(records):
        if end >= low:
            continue
        low = end
        a, b = out[end], out[end - 1]  # m is odd: the site starts with a
        m = runs[end]
        if m != rows[a].get(b):
            continue
        if a > b:
            return False
        if star:
            continue
        if end >= stop:
            return False
        stop = end - m
        sites.append((stop + 1, end, b))
    right = len(out) - 1  # the letter before the site to the right
    for k, (start, end, b) in enumerate(sites):
        # the letter after the site to the left, or the sentinel before the word
        left = sites[k + 1][1] + 1 if k + 1 < len(sites) else 1
        if not (
            _flip_end_is_free(rows, out, b, end + 1, 1, right)
            and _flip_end_is_free(rows, out, b, start - 1, -1, left)
        ):
            return False
        right = start - 1
    return True


def _flip_end_is_free(
    rows: list, out: list, b: int, p: int, step: int, stop: int
) -> bool:
    """Whether flipping a site leaves no new site at one of its ends.

    The flip puts the site's larger letter b at its end, next to
    c = out[p]; the letters past it are read in direction ``step``.  True
    when the alternating {b, c} run so made stays shorter than m(b, c)
    and ends before out[stop], the letter next to another site, whose
    flip could lengthen it.
    """
    m = rows[b].get(out[p])
    if m is None:
        return True
    length = 2
    while p != stop:
        p += step
        if out[p] != b:
            return True
        length += 1
        if length == m:
            return False
        b = out[p - step]  # the letter the run needs next
    return False


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


def _reduce(sys: CoxeterSystem, word: Sequence[int], budget: int) -> Word:
    pending, steps = _stack_pass(sys, word, budget)
    if not steps:  # certified canonical by the stack pass
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
    """Canonical form of x v x^-1.

    The word is reduced as spelled, with no free reduction across its
    seams first (``_free_join``): a ball search conjugates by one letter
    and seldom cancels, so cutting would only add work there.
    ``autkit.classify_endo`` conjugates every image of a map by one long
    x, where the seams cancel much of x, and cuts them."""
    x = tuple(x)
    return reduce_word(sys, x + tuple(v) + inverse_word(x), budget)


def _free_join(pieces: Sequence[Word]) -> tuple:
    """The concatenation of ``pieces`` with equal letters cancelled across
    each seam as a piece is appended, a free reduction that keeps the
    element; and its seams, ascending: each index p, 0 < p < len(word),
    with word[p - 1] and word[p] from two pieces, in the word as it
    stands (the seam corollary, module docstring)."""
    out: Word = ()
    seams: list = []
    for piece in pieces:
        n, i, top = len(out), 0, len(piece)
        while i < top and n and out[n - 1] == piece[i]:
            n -= 1
            i += 1
        if i:
            out = out[:n]
            while seams and seams[-1] >= n:
                seams.pop()
        if i == top:  # the piece cancelled to nothing, or was empty
            continue
        if n:
            seams.append(n)
        out += piece[i:]
    return out, seams


def _joined(sys: CoxeterSystem, pieces: Sequence[Word], budget: int) -> Word:
    """Canonical form of the concatenation of canonical words, given as
    tuples, on a star centred at 1 (``sys._star``).

    ``_free_join`` cancels equal letters across each seam.  Then each
    maximal alternating run through a seam that is left must have at most
    m letters, and start with 1 if it has exactly m.  When every seam
    passes, the word is canonical by the seam corollary (module
    docstring) and is returned as it stands; otherwise ``_reduce`` reads
    it."""
    rows = sys._rows
    out, seams = _free_join(pieces)
    end = len(out) - 1
    for p in seams:
        m = rows[out[p - 1]].get(out[p])
        if m is None:  # two leaves: their runs are unbounded
            continue
        lo, hi = p - 1, p
        while lo and out[lo - 1] == out[lo + 1]:
            lo -= 1
        while hi < end and out[hi + 1] == out[hi - 1]:
            hi += 1
        if hi - lo + 1 > m or (hi - lo + 1 == m and out[lo] != 1):
            return _reduce(sys, out, budget)
    return out


def left_descents(
    sys: CoxeterSystem, word: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
) -> set:
    """Generators s with length(s w) < length(w): the simple roots in the
    state of the reduced word."""
    state: dict = {}
    for index, x in enumerate(reversed(reduce_word(sys, word, budget))):
        state = _push(sys.neighbors(x), state, x, index)
    return {key for key in state if type(key) is int}


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

    By the reversal lemma (module docstring) v is an involution exactly
    when its canonical word is a palindrome, s_1 ... s_h j s_h ... s_1,
    and then x = s_h ... s_1 gives x v x^-1 = j with no reduction: the
    halves cancel letter by letter.  Each peel s v s is v without its end
    letters, canonical by the factor lemma, so this is the length descent
    that reduces s v s at every step, taken all at once.  A leaf j is
    finally moved to the center by the dihedral shift
    c = (w_j w_1)^((t - 1)/2), which conjugates the leaf to the center
    inside their finite dihedral subgroup.  So the canonical word is read
    once, not reduced once for every letter peeled off it, and only x
    itself is reduced.
    """
    sys = star.system
    cur = reduce_word(sys, v, budget)
    if cur == ():
        raise NotInvolution("the identity is not a nontrivial involution")
    if cur != cur[::-1]:
        raise NotInvolution("word does not square to the identity")
    half = len(cur) // 2
    x = cur[:half][::-1]
    j = cur[half]
    if j != 1:
        x = alternating(j, 1, star.t_of(j) - 1) + x
    return _reduce(sys, x, budget)


def dihedral_log(
    star: StarForm, j: int, w: Sequence[int], budget: int = DEFAULT_ORBIT_BUDGET
):
    """Position of an element inside the dihedral subgroup on {1, j}.

    Returns ("even", k) when w = (w_1 w_j)^k and ("odd", k) when
    w = w_1 (w_1 w_j)^k, with 0 <= k < t_j; the pair is unique.
    """
    if not _is_int(j) or j not in star.leaves:
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
