"""A strand count, a permutation degree and an edge of the wrong shape
are refused with a named error, never a bare TypeError or ValueError.

``pathgroups`` tests each strand count with ``core._is_int`` before it
compares or counts with it, and ``CoxeterSystem`` refuses an edge that
does not unpack into (i, j, m).  Integer inputs keep their messages.
"""

import re

import pytest

from oddcox import pathgroups
from oddcox.core import CoxeterSystem
from oddcox.errors import MalformedInvariant, NotBijectiveHom, RankTooSmall

STRAND_CALLS = [
    ("build_ln", lambda n: pathgroups.build_ln(n)),
    ("pl_witness", lambda n: pathgroups.pl_witness(n)),
    ("pi_image", lambda n: pathgroups.pi_image(n, [1])),
    ("is_pure", lambda n: pathgroups.is_pure(n, [1])),
    ("symmetric_images", lambda n: pathgroups.symmetric_images(n)),
    ("transposition", lambda n: pathgroups.transposition(n, 1)),
]


@pytest.mark.parametrize("call", [c for _, c in STRAND_CALLS], ids=[n for n, _ in STRAND_CALLS])
@pytest.mark.parametrize("n", [4.0, "4", True, None])
def test_a_strand_count_that_is_no_integer_is_refused(call, n):
    message = f"strand count must be an integer, got {n!r}"
    with pytest.raises(RankTooSmall, match=f"^{re.escape(message)}$"):
        call(n)


def test_integer_strand_counts_keep_their_messages():
    with pytest.raises(RankTooSmall, match="^the family starts at two strands$"):
        pathgroups.build_ln(1)
    with pytest.raises(RankTooSmall, match="^the family starts at two strands$"):
        pathgroups.pi_image(1, [])
    with pytest.raises(RankTooSmall, match="^the pure subgroup is trivial below four strands$"):
        pathgroups.pl_witness(3)
    assert pathgroups.transposition(4, 1).images == (2, 1, 3, 4)
    assert len(pathgroups.symmetric_images(4)) == 3


@pytest.mark.parametrize("degree", [4.0, "4", True])
def test_a_degree_that_is_no_integer_is_refused(degree):
    message = f"degree must be an integer, got {degree!r}"
    with pytest.raises(NotBijectiveHom, match=f"^{re.escape(message)}$"):
        pathgroups.parse_cycles("(1 2)", degree)


def test_an_integer_degree_parses():
    assert pathgroups.parse_cycles("(1 2)", 4).images == (2, 1, 3, 4)


@pytest.mark.parametrize(
    "edge, shown",
    [((1, 2), "(1, 2)"), ((1, 2, 3, 4), "(1, 2, 3, 4)"), (3, "3"), (None, "None")],
)
def test_an_edge_of_the_wrong_shape_is_refused(edge, shown):
    message = f"edge {shown}: expected (i, j, m)"
    with pytest.raises(MalformedInvariant, match=f"^{re.escape(message)}$"):
        CoxeterSystem(2, [edge])


def test_a_well_formed_edge_is_kept():
    assert CoxeterSystem(2, [(2, 1, 3)]).edges == ((1, 2, 3),)
