"""Long alternating runs and rewrite cascades through the word engine.

The engine's front end reads each letter once onto a stack and rewrites
an alternating run of m + 1 letters as the opposite run of m - 1
letters.  Rewriting a run can put a letter next to the start of another
run of m letters below it, which is then rewritten in turn (a cascade).
The words here are built from such runs and checked against references
that share nothing with the engine: the braid-orbit reducer for words of
up to 16 letters, and the dihedral multiplication table for words on one
pair {1, j}.
"""

import itertools
import random

import pytest

from oddcox import alternating, reduce_word
from braid_oracle import braid_reduce
from conftest import star
from dihedral_oracle import dihedral_model

STAR = star(3, 5, 7, 9)  # center 1; leaves 2, 3, 4, 5 with labels 3, 5, 7, 9
ORACLE_LETTERS = 16


def spliced_run(rng, s, j, length):
    """An alternating run on {1, j} of the given length, with a few other
    leaves spliced in before, inside or after it."""
    first, second = (1, j) if rng.random() < 0.5 else (j, 1)
    word = list(alternating(first, second, length))
    others = [leaf for leaf in s.leaves if leaf != j]
    for _ in range(rng.randint(0, 3)):
        word.insert(rng.randint(0, len(word)), rng.choice(others))
    return tuple(word)


def cascade(s, chain, j, start):
    """Runs of exactly m letters on {k, 1} for each k in ``chain``, each
    ending in k, then a run of m + 1 letters on {j, 1} starting with
    ``start``.  Rewriting the last run puts 1 next to the k before it, which
    makes a run of m + 1 letters on {k, 1}, and so on down the chain."""
    word = ()
    for k in chain:
        word += alternating(k, 1, s.t_of(k))
    other = 1 if start == j else j
    return word + alternating(start, other, s.t_of(j) + 1)


def test_long_runs_match_braid_oracle():
    rng = random.Random(11)
    sys = STAR.system
    checked = 0
    for j in STAR.leaves:
        t = STAR.t_of(j)
        for length in range(t + 1, 3 * t + 1):
            for _ in range(12):
                w = spliced_run(rng, STAR, j, length)
                if len(w) > ORACLE_LETTERS:
                    continue
                assert reduce_word(sys, w) == braid_reduce(sys, w), w
                checked += 1
    assert checked > 300


@pytest.mark.parametrize("labels", [(3, 5, 7, 9), (3, 3, 3, 5)])
def test_rewrite_cascades_match_braid_oracle(labels):
    s = star(*labels)
    sys = s.system
    rng = random.Random(13)
    checked = 0
    for depth in range(1, 4):
        for chain in itertools.permutations(s.leaves, depth):
            for j in s.leaves:
                if j in chain:
                    continue
                for start in (1, j):
                    w = cascade(s, chain, j, start)
                    # the bare cascade, then with a letter spliced on either side
                    before = (rng.choice(s.leaves),)
                    after = (rng.randint(1, s.rank),)
                    for v in (w, before + w, w + after):
                        if len(v) <= ORACLE_LETTERS:
                            assert reduce_word(sys, v) == braid_reduce(sys, v), v
                            checked += 1
    assert checked >= 30


def dihedral_canon(t: int, j: int) -> dict:
    """Element of the dihedral model -> ShortLex-least reduced word on {1, j}.

    Every element has an alternating reduced word, so the first alternating
    word to reach an element, in ShortLex order, is its canonical form.
    """
    model = dihedral_model(t)
    canon: dict = {}
    for length in range(t + 1):
        for first, second in ((1, j), (j, 1)):
            w = alternating(first, second, length)
            canon.setdefault(model.evaluate(_to_rank2(w, j)), w)
    return canon


def _to_rank2(word, j):
    """The word with leaf j renamed 2, for the rank-2 dihedral model."""
    return tuple(2 if letter == j else 1 for letter in word)


def runs_word(rng, j, t, max_len):
    """Consecutive alternating runs on {1, j} of 1 to 3t letters each."""
    word = []
    target = rng.randint(0, max_len)
    while len(word) < target:
        first, second = (1, j) if rng.random() < 0.5 else (j, 1)
        word.extend(alternating(first, second, rng.randint(1, 3 * t)))
    return tuple(word[:target])


@pytest.mark.parametrize("j", list(STAR.leaves))
def test_pure_pair_words_match_dihedral_model(j):
    sys = STAR.system
    t = STAR.t_of(j)
    model = dihedral_model(t)
    canon = dihedral_canon(t, j)
    assert len(canon) == 2 * t
    rng = random.Random(17 + j)
    words = [runs_word(rng, j, t, 4 * t) for _ in range(400)]
    if t == 3:
        # every word of up to 4t letters
        words += [
            w for n in range(4 * t + 1) for w in itertools.product((1, j), repeat=n)
        ]
    for w in words:
        assert reduce_word(sys, w) == canon[model.evaluate(_to_rank2(w, j))], w
