"""inner_auto and graph_auto, both built through recompose."""

import random

import pytest

from oddcox import graph_auto, inner_auto, inverse_word, reduce_word
from oddcox.errors import BadLetter, BlockViolatingPermutation
from conftest import star

STARS = [(3, 3, 3, 5, 5, 9, 9, 15, 21), (3,) * 12, (3, 3, 5, 5, 5, 7, 9)]


def block_shuffle(rng, s) -> tuple:
    perm = list(s.leaves)
    for block in s.blocks:
        images = list(block)
        rng.shuffle(images)
        for leaf, image in zip(block, images):
            perm[leaf - 2] = image
    return tuple(perm)


@pytest.mark.parametrize("labels", STARS)
def test_inner_auto_images_are_conjugates(labels):
    s = star(*labels)
    rng = random.Random(len(labels))
    for _ in range(20):
        x = tuple(rng.randint(1, s.rank) for _ in range(rng.randint(0, 12)))
        images = inner_auto(s, x).images
        xinv = inverse_word(x)
        assert images == tuple(
            reduce_word(s.system, x + (g,) + xinv) for g in s.system.generators
        )


@pytest.mark.parametrize("labels", STARS)
def test_graph_auto_images_are_single_letters(labels):
    s = star(*labels)
    rng = random.Random(len(labels))
    for _ in range(20):
        perm = block_shuffle(rng, s)
        expected = ((1,),) + tuple((image,) for image in perm)
        assert graph_auto(s, perm).images == expected
        # a dict names only the leaves that move
        moved = {leaf: image for leaf, image in zip(s.leaves, perm) if leaf != image}
        assert graph_auto(s, moved).images == expected


def test_builders_keep_their_refusals():
    s = star(3, 3, 5)
    # the first bad letter in the order given, not in the reversed inner word
    with pytest.raises(BadLetter, match="letter 9 out of range 1..4"):
        inner_auto(s, (1, 9, "x"))
    with pytest.raises(BadLetter, match="letter 'x' is not an integer"):
        inner_auto(s, (2, "x", 0))
    with pytest.raises(BlockViolatingPermutation, match="leaf 3 .label 3. may not map"):
        graph_auto(s, {3: 4, 4: 3})
    with pytest.raises(BlockViolatingPermutation, match="not a permutation"):
        graph_auto(s, (2, 2, 4))
