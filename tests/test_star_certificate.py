"""The stack pass on a star centred at 1 certifies by test (a) alone.

By the reversal lemma in the ``words`` docstring, a stack-pass word on
such a star is canonical exactly when every site starts with 1, sites
that share a letter included.  So there the flip certificate
keeps only test (a).  Every word here must reduce as
``test_engine_certificate.reference_reduce`` does, which has no
certificate: the same output and the same least budget.

``star_case`` draws the words as ``test_words._mixed_word`` builds them:
single letters, alternating runs of m - 1, m or m + 1 letters, and two
runs of m letters through a common neighbour b, either (a b a ...)
(c b c ...) or, so that the draws reach sites that share a letter,
(b a ... b c ... b).  On a star, two sites that start with 1 can share
their end letter 1, as in (1 2 1 3 1), but cannot touch: both ends next
to each other would be 1, an equal pair the stack pass cancels.
Touching sites there always start with a leaf.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox.core import CoxeterSystem
from oddcox.words import _stack_pass, alternating, reduce_word
from conftest import star
from test_engine_certificate import PATH_2134, check_against_reference

LABELS = range(3, 22, 2)


def star_case(rng):
    """A star centred at 1 with 1-6 leaves and labels 3-21, and a word of
    1-8 pieces on it.  Only ``rng.random()`` is used."""

    def pick(seq):
        return seq[int(rng.random() * len(seq))]

    rank = 2 + int(rng.random() * 6)
    sys = CoxeterSystem(rank, [(1, leaf, pick(LABELS)) for leaf in range(2, rank + 1)])
    # the center, or with one leaf either letter
    hubs = [b for b in sys.generators if len(sys.neighbors(b)) > 1] or [1, 2]
    word = []
    for _ in range(1 + int(rng.random() * 8)):
        r = rng.random()
        if r < 0.25:
            word.append(1 + int(rng.random() * rank))
        elif r < 0.5:
            a, b, m = pick(sys.finite_pairs())
            if rng.random() < 0.5:
                a, b = b, a
            word += alternating(a, b, m - 1 + int(rng.random() * 3))
        else:
            b = pick(hubs)
            row = sys.neighbors(b)
            a, c = pick(sorted(row)), pick(sorted(row))
            if rng.random() < 0.5:
                word += alternating(a, b, row[a]) + alternating(c, b, row[c])
            else:  # two sites that share their end letter b
                word += alternating(b, a, row[a]) + alternating(c, b, row[c] - 1)
    return sys, tuple(word)


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_star_certificate_against_the_reference(rng):
    check_against_reference(*star_case(rng))


def sites_of(sys, word):
    """(first, last) index of each maximal alternating run of exactly
    m letters, left to right."""
    sites = []
    start = 0  # where the run holding word[k - 1] and word[k] starts
    for k in range(1, len(word)):
        if k >= 2 and word[k] != word[k - 2]:
            start = k - 1
        ends = k + 1 == len(word) or word[k + 1] != word[k - 1]
        if ends and k - start + 1 == sys.m(word[k], word[k - 1]):
            sites.append((start, k))
    return sites


def test_the_draws_reach_each_kind_of_site():
    """The draws reach certified words whose sites share a letter, sites
    that touch and sites that start with a leaf; and the stack pass
    certifies a word with a site exactly when every site starts with 1."""
    overlapping = touching = leaf_start = 0
    for seed in range(400):
        sys, word = star_case(random.Random(f"star/{seed}"))
        out, steps = _stack_pass(sys, word, 10**6)
        sites = sites_of(sys, out)
        starts_with_one = all(out[first] == 1 for first, _ in sites)
        assert (steps == 0) == starts_with_one, word
        pairs = list(zip(sites, sites[1:]))
        if steps == 0 and any(right[0] == left[1] for left, right in pairs):
            overlapping += 1
        if any(right[0] == left[1] + 1 for left, right in pairs):
            touching += 1
            assert not starts_with_one, word
        leaf_start += not starts_with_one
    assert min(overlapping, touching, leaf_start) >= 10, (
        overlapping,
        touching,
        leaf_start,
    )


def test_overlapping_sites_certify_on_a_star():
    sys = star(3, 3).system
    assert _stack_pass(sys, (1, 2, 1, 3, 1), 1) == ([1, 2, 1, 3, 1], 0)
    chain = (1, 2, 1, 3) * 500 + (1,)
    assert _stack_pass(sys, chain, 1) == (list(chain), 0)
    assert _stack_pass(sys, (2, 1, 2), 1) == ([2, 1, 2], 1)  # (a) still refuses
    for word in ((1, 2, 1, 3, 1), (2, 1, 2), (3, 1, 3, 2, 1, 2)):
        check_against_reference(sys, word)
    assert reduce_word(sys, (2, 1, 2)) == (1, 2, 1)


# the path 1 - 3 - 2: its two sites start with their smaller letters and
# touch, and flipping (2 3 2) makes the run 1 3 1 3, so (a) alone is wrong
PATH_132 = CoxeterSystem(3, [(1, 3, 3), (2, 3, 3)])


def test_off_stars_all_three_tests_stay():
    assert _stack_pass(PATH_2134, (1, 2, 1, 3, 1), 1) == ([1, 2, 1, 3, 1], 1)
    assert _stack_pass(PATH_132, (1, 3, 1, 2, 3, 2), 1) == ([1, 3, 1, 2, 3, 2], 1)
    assert reduce_word(PATH_132, (1, 3, 1, 2, 3, 2)) == (3, 1, 2, 3)
    check_against_reference(PATH_132, (1, 3, 1, 2, 3, 2))
