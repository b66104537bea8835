"""The word engine's two certified stops against the engine without them.

``words._reduce`` stops early in two places.  The stack pass certifies a
word canonical when its only braid moves are independent flips, and
``_reduce`` then skips the small-root automaton; the automaton certifies
a canonical suffix while it reads and stops emitting once all that is
left is certified.  ``reference_reduce`` has neither stop: its stack pass
hands every word with a site to the automaton, which emits every letter,
in front or not.  The two must return the same word and need the same
least budget.

Each word of ``certified_case`` is a random prefix followed by a
canonical suffix from ``cayley_ball``: the engine certifies the suffix
as it reads it, and the prefix then makes exchanges and re-reads that cut
the certified part back.  Each word of ``run_built_case`` is a row of
alternating runs one letter short of, equal to or one letter past their
exponent, with a few letters between them: sites side by side, as the
flip certificate sees them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox.core import INFINITY, CoxeterSystem
from oddcox.errors import OrbitBudgetExceeded
from oddcox.oracle import cayley_ball
from oddcox.words import _push, _reduce, _stack_pass, reduce_word
from test_engine_oracle import PATH_3333, SYSTEMS


def reference_stack_pass(sys, word, budget):
    """The stack pass with no flip certificate: 0 steps only when no run
    of m letters is left."""
    rows = sys._rows
    out = [0, 0]
    runs = [0, 0]
    y = z = run = 0
    pending = []
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
                m = rows[x].get(y, run + 1)
                if run > m:
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


def reference_reduce(sys, word, budget):
    """``words._reduce`` with neither certificate: every word with a site
    goes through the automaton, and every letter is emitted."""
    pending, steps = reference_stack_pass(sys, word, budget)
    if not steps:
        return tuple(pending)
    reduced, states, out = [], [{}], []
    while pending or reduced:
        state = states[-1]
        if pending:
            x = pending.pop()
            tag = state.get(x)
            if tag is None:
                states.append(_push(sys.neighbors(x), state, x, len(reduced)))
                reduced.append(x)
                continue
        else:
            x = min(key for key in state if type(key) is int)
            out.append(x)
            tag = state[x]
            if tag == len(reduced) - 1:
                reduced.pop()
                states.pop()
                continue
        steps += 1
        if steps > budget:
            raise OrbitBudgetExceeded(f"word engine exceeded {budget} rewrite steps")
        pending.extend(reduced[:tag:-1])
        del reduced[tag:]
        del states[tag + 1 :]
    return tuple(out)


def least_budget(reduce, sys, word):
    """The least budget of at least 1 at which ``reduce`` succeeds, and its
    output there.  Steps only grow, so success is monotone in the budget."""

    def attempt(budget):
        try:
            return reduce(sys, word, budget)
        except OrbitBudgetExceeded as exc:
            assert str(exc) == f"word engine exceeded {budget} rewrite steps"
            return None

    high = 1
    while attempt(high) is None:
        high *= 2
    low = high // 2  # fails, or is 0
    while high - low > 1:
        mid = (low + high) // 2
        if attempt(mid) is None:
            low = mid
        else:
            high = mid
    return high, attempt(high)


ODD_LABELS = [3, 5, 7, 9, 11]
# the blocking key (a, x, m - 2) reaches far past m = 3 here; None is infinity
WIDE_LABELS = [3, 5, 9, 15, 21, None]


@st.composite
def odd_tree(draw):
    """A random tree on 2..8 vertices, numbered so that a vertex's parent
    may be above or below it."""
    rank = draw(st.integers(2, 8))
    order = draw(st.permutations(range(1, rank + 1)))
    edges = [
        (order[draw(st.integers(0, k - 1))], order[k], draw(st.sampled_from(ODD_LABELS)))
        for k in range(1, rank)
    ]
    return CoxeterSystem(rank, edges)


listed_system = st.sampled_from(sorted(SYSTEMS)).map(lambda name: SYSTEMS[name][0])


@st.composite
def wide_label_system(draw):
    rank = draw(st.integers(2, 5))
    edges = []
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            m = draw(st.sampled_from(WIDE_LABELS))
            if m is not None:
                edges.append((i, j, m))
    return CoxeterSystem(rank, edges)


# balls of at most a few thousand elements
RADIUS = {2: 12, 3: 7, 4: 5, 5: 4, 6: 4, 7: 3, 8: 3}


@st.composite
def certified_case(draw, systems):
    sys = draw(systems)
    elements = cayley_ball(sys, RADIUS[sys.rank]).elements
    suffix = draw(st.sampled_from(elements))
    prefix = draw(st.lists(st.integers(1, sys.rank), max_size=12))
    return sys, tuple(prefix) + suffix


def check_against_reference(sys, word):
    budget, canon = least_budget(_reduce, sys, word)
    assert (budget, canon) == least_budget(reference_reduce, sys, word), word
    assert _reduce(sys, canon, 1) == canon


@settings(max_examples=300, deadline=None)
@given(certified_case(odd_tree()))
def test_certificate_on_random_odd_trees(case):
    check_against_reference(*case)


@settings(max_examples=300, deadline=None)
@given(certified_case(listed_system))
def test_certificate_on_listed_systems(case):
    check_against_reference(*case)


@settings(max_examples=300, deadline=None)
@given(certified_case(wide_label_system()))
def test_certificate_on_wide_labels(case):
    check_against_reference(*case)


@st.composite
def run_built_case(draw, systems):
    """Alternating runs of m - 1, m or m + 1 letters, 0-3 letters between
    them; a pair with no edge gets a run of 2-4 letters."""
    sys = draw(systems)
    letter = st.integers(1, sys.rank)
    word = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(letter)
        b = draw(letter.filter(lambda b: b != a))
        m = sys.m(a, b)
        if m == INFINITY:
            length = draw(st.integers(2, 4))
        else:
            length = draw(st.sampled_from([m - 1, m, m + 1]))
        word += [a, b] * (length // 2) + [a] * (length % 2)
        word += draw(st.lists(letter, max_size=3))
    return sys, tuple(word)


@settings(max_examples=300, deadline=None)
@given(run_built_case(odd_tree()))
def test_certificate_on_run_built_words_on_random_odd_trees(case):
    check_against_reference(*case)


@settings(max_examples=300, deadline=None)
@given(run_built_case(wide_label_system()))
def test_certificate_on_run_built_words_with_wide_labels(case):
    check_against_reference(*case)


# two sites one letter apart whose flip, alone, makes a new site with the
# unflipped neighbour: a neighbour run that stopped at the site boundary
# instead of refusing would certify each word as it stands
ONE_LETTER_APART = [
    (
        CoxeterSystem(4, [(1, 3, 3), (1, 4, 3), (2, 3, 3), (2, 4, 3), (3, 4, 3)]),
        (3, 4, 3, 2, 1, 3, 1, 4),
        (3, 4, 2, 3, 2, 1, 3, 4),
    ),
    (
        CoxeterSystem(4, [(1, 2, 3), (1, 3, 3), (2, 3, 5), (2, 4, 5), (3, 4, 5)]),
        (3, 4, 3, 4, 3, 1, 2, 3, 2, 3, 2, 1),
        (3, 4, 3, 4, 1, 3, 1, 2, 3, 2, 3, 1),
    ),
]


def test_sites_one_letter_apart_reach_the_automaton():
    for sys, word, canon in ONE_LETTER_APART:
        assert reduce_word(sys, word) == canon
        check_against_reference(sys, word)


PATH_333 = CoxeterSystem(4, [(1, 2, 3), (2, 3, 3), (3, 4, 3)])
PATH_2134 = CoxeterSystem(4, [(1, 2, 3), (1, 3, 3), (3, 4, 3)])
PATH_21345 = CoxeterSystem(5, [(1, 2, 3), (1, 3, 3), (3, 4, 3), (4, 5, 3)])


def test_what_the_stack_pass_certifies():
    """The reach of the flip certificate.  Sites that touch or overlap are
    refused even where, as here, the word is canonical."""
    certified = [
        (PATH_333, ()),
        (PATH_333, (1, 3, 2, 4)),  # no site
        (PATH_333, (1, 2, 1)),
        (PATH_333, (1, 2, 1, 3)),  # the flip makes 2 3, short of m(2, 3)
        (PATH_21345, (1, 2, 1, 3, 4, 5, 4)),  # one letter apart, no edge to it
        (PATH_3333, (1, 2, 1, 3, 5, 3, 4, 3)),  # two letters apart
    ]
    refused = [
        (PATH_333, (2, 1, 2)),  # (a): starts with its larger letter
        (PATH_2134, (1, 2, 1, 3, 4, 3)),  # (b): the sites touch
        (PATH_2134, (1, 2, 1, 3, 1)),  # (b): the sites overlap
        (PATH_333, (1, 2, 1, 3, 2)),  # (c): the flip makes the site 2 3 2
        ONE_LETTER_APART[0][:2],  # (c): the run reaches the other site
    ]
    for sys, word in certified:
        assert _stack_pass(sys, word, 1) == (list(word), 0), word
        assert reference_reduce(sys, word, 10**6) == word
    for sys, word in refused:
        assert _stack_pass(sys, word, 1) == (list(word), 1), word
        check_against_reference(sys, word)


def test_certificate_on_words_whose_prefix_cancels_into_the_suffix():
    """The prefix exchanges with a certified suffix letter, so the count of
    certified letters has to drop back to the exchange's tag."""
    sys = CoxeterSystem(3, [(1, 2, 3), (2, 3, 5)])
    for suffix in cayley_ball(sys, 6).elements:
        for first in sys.generators:
            for second in sys.generators:
                check_against_reference(sys, (first, second) + suffix)
