"""The small-root word engine against the braid-orbit reference reducer."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox.core import CoxeterSystem
from oddcox.errors import OrbitBudgetExceeded
from oddcox.words import reduce_word
from braid_oracle import braid_reduce
from conftest import star

PATH_3333 = CoxeterSystem(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3)])

# name -> (system, ball radius)
SYSTEMS = {
    "path 3.3.3.3": (PATH_3333, 7),
    "star 3,3,5,7,9": (star(3, 3, 5, 7, 9).system, 5),
    "rank-8 tree, mixed labels": (
        CoxeterSystem(
            8,
            [(1, 2, 3), (2, 3, 5), (3, 4, 3), (2, 5, 7), (5, 6, 3), (6, 7, 9), (6, 8, 3)],
        ),
        4,
    ),
    "rank-8 tree, two hubs": (
        CoxeterSystem(
            8,
            [(1, 2, 3), (1, 3, 3), (1, 4, 3), (4, 5, 5), (4, 6, 3), (6, 7, 3), (6, 8, 11)],
        ),
        4,
    ),
    "triangle 3.3.3": (CoxeterSystem(3, [(1, 2, 3), (2, 3, 3), (1, 3, 3)]), 7),
    "triangle 3.5.7": (CoxeterSystem(3, [(1, 2, 3), (2, 3, 5), (1, 3, 7)]), 7),
    "4-cycle of 3s": (
        CoxeterSystem(4, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (1, 4, 3)]),
        6,
    ),
    "K4 of 3s": (
        CoxeterSystem(4, [(i, j, 3) for i in range(1, 5) for j in range(i + 1, 5)]),
        6,
    ),
    "free product of three Z/2": (CoxeterSystem(3, []), 7),
}


@pytest.mark.parametrize("name", SYSTEMS)
def test_engine_matches_oracle_on_ball(name):
    """Every element e of the ball and every e g, the ball built by the oracle."""
    sys, radius = SYSTEMS[name]
    layer, seen = [()], {()}
    for r in range(radius + 1):
        grown = []
        for e in layer:
            assert reduce_word(sys, e) == e
            for g in sys.generators:
                canon = braid_reduce(sys, e + (g,))
                assert reduce_word(sys, e + (g,)) == canon, (e, g)
                if len(canon) == r + 1 and canon not in seen:
                    seen.add(canon)
                    grown.append(canon)
        layer = grown
    assert len(seen) > 1


@st.composite
def system_and_word(draw):
    sys, _ = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    word = draw(st.lists(st.integers(1, sys.rank), max_size=16))
    return sys, tuple(word)


@settings(max_examples=300, deadline=None)
@given(system_and_word())
def test_engine_matches_oracle_on_generated_words(case):
    sys, word = case
    canon = reduce_word(sys, word)
    assert canon == braid_reduce(sys, word)
    assert reduce_word(sys, canon) == canon


def _adversarial_spellings(k, rng):
    left, right = ((1, 2, 1), (2, 1, 2)), ((4, 5, 4), (5, 4, 5))
    fixed = [
        (2, 1, 2, 5, 4, 5) * k,
        (1, 2, 1, 5, 4, 5) * k,
        (2, 1, 2, 4, 5, 4) * k,
    ]
    mixed = sum((rng.choice(left) + rng.choice(right) for _ in range(k)), ())
    return fixed + [mixed]


@pytest.mark.parametrize("k", [1, 2, 5, 10, 25, 50, 100])
def test_adversarial_spellings_reduce_fast(k):
    # (1 2 1 4 5 4)^k is reduced and has 2^(2k) braid-equivalent spellings
    rng = random.Random(k)
    target = (1, 2, 1, 4, 5, 4) * k
    for word in _adversarial_spellings(k, rng):
        start = time.perf_counter()
        assert reduce_word(PATH_3333, word) == target
        assert time.perf_counter() - start < 1.0


def test_budget_counts_rewrite_steps():
    sys = star(3).system
    # already ShortLex-least: the input is the only step
    assert reduce_word(sys, (1, 2, 1), budget=1) == (1, 2, 1)
    # one emission moves a letter
    assert reduce_word(sys, (2, 1, 2), budget=2) == (1, 2, 1)
    # one rewrite (1 2 1 2) -> (2 1)
    with pytest.raises(OrbitBudgetExceeded, match="exceeded 1 rewrite steps"):
        reduce_word(sys, (1, 2, 1, 2), budget=1)
    assert reduce_word(sys, (1, 2, 1, 2), budget=2) == (2, 1)
    # words with no braid site take no step at all
    assert reduce_word(sys, (1, 2, 2, 1, 2), budget=0) == (2,)
