"""The word engine's certified stop against the same loop without it.

``words._reduce`` certifies a canonical suffix while it reads and stops
emitting once all that is left is certified.  ``reference_reduce`` is the
loop without the certificate: it emits every letter, in front or not.
The two must return the same word and need the same least budget.

Each word is a random prefix followed by a canonical suffix from
``cayley_ball``: the engine certifies the suffix as it reads it, and the
prefix then makes exchanges and re-reads that cut the certified part back.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox.core import CoxeterSystem
from oddcox.errors import OrbitBudgetExceeded
from oddcox.oracle import cayley_ball
from oddcox.words import _push, _reduce, _stack_pass
from test_engine_oracle import SYSTEMS


def reference_reduce(sys, word, budget):
    """``words._reduce`` with no certificate: every letter is emitted."""
    pending, steps = _stack_pass(sys, word, budget)
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


def test_certificate_on_words_whose_prefix_cancels_into_the_suffix():
    """The prefix exchanges with a certified suffix letter, so the count of
    certified letters has to drop back to the exchange's tag."""
    sys = CoxeterSystem(3, [(1, 2, 3), (2, 3, 5)])
    for suffix in cayley_ball(sys, 6).elements:
        for first in sys.generators:
            for second in sys.generators:
                check_against_reference(sys, (first, second) + suffix)
