"""Every argument that must be an integer is tested by ``core._is_int``
(an int, or an int subclass other than bool), and a float or a bool is
refused with the function's named error, never a bare ``TypeError``,
``IndexError`` or ``AttributeError``, and never read as some other
integer.  Messages for the inputs accepted or refused before stay as
they were."""

import re

import pytest

from oddcox import (
    CoxeterSystem,
    ball_search,
    build_ln,
    cayley_ball,
    free_rank,
    merge_generators,
    system_from_json,
    system_to_json,
)
from oddcox.errors import (
    BadIndex,
    BadLetter,
    MalformedInvariant,
    NegativeRadius,
    NotAdjacentPair,
    NotInParabolic,
)
from oddcox.pathgroups import transposition
from oddcox.words import dihedral_log

from conftest import star


class Integer(int):
    """An int subclass other than bool, which ``_is_int`` accepts."""


def test_transposition_refuses_a_letter_outside_the_path():
    for i in (0, -1, 4, 1.0, True):
        with pytest.raises(BadLetter, match=f"^letter {re.escape(str(i))} out of range 1..3$"):
            transposition(4, i)
    assert transposition(4, 1).images == (2, 1, 3, 4)
    assert transposition(4, Integer(3)).images == (1, 2, 4, 3)


def test_system_edges_refuse_vertices_that_are_no_integers():
    for u in (1.0, True):
        with pytest.raises(MalformedInvariant, match="vertices must be integers"):
            CoxeterSystem(2, [(u, 2, 3)])
    sys = CoxeterSystem(2, [(Integer(1), 2, 3)])
    assert system_from_json(system_to_json(sys)) == sys


def test_merge_generators_refuses_generators_that_are_no_integers():
    s = star(3, 5)
    for i, j in ((2.0, 3), (True, 2), (2, True)):
        with pytest.raises(NotAdjacentPair, match=re.escape(f"pair ({i}, {j})")):
            merge_generators(s, i, j)
    assert merge_generators(s, Integer(1), 2) == merge_generators(s, 1, 2)


def test_dihedral_log_refuses_a_float_leaf_as_theta_auto_does():
    s = star(3, 5)
    with pytest.raises(NotInParabolic, match=r"^2\.0 is not a leaf$"):
        dihedral_log(s, 2.0, (1, 2))
    with pytest.raises(NotInParabolic, match="^True is not a leaf$"):
        dihedral_log(s, True, (1,))
    assert dihedral_log(s, 2, (1, 2)) == ("even", 1)


def test_free_rank_refuses_an_index_that_is_no_integer():
    for index in (2.5, 24.0, True):
        with pytest.raises(BadIndex, match="must be an integer"):
            free_rank(build_ln(4), index)
    with pytest.raises(BadIndex, match="^index must be at least 1, got 0$"):
        free_rank(build_ln(4), 0)
    assert free_rank(build_ln(4), Integer(24)) == 5


def test_balls_refuse_a_radius_that_is_no_integer():
    sys = star(3, 5).system
    for radius in (2.5, 2.0, True):
        with pytest.raises(NegativeRadius, match="nonnegative integer"):
            cayley_ball(sys, radius)
        with pytest.raises(NegativeRadius, match="nonnegative integer"):
            ball_search(sys, "centralizer", (1,), radius=radius)
    for call in (
        lambda: cayley_ball(sys, -1),
        lambda: ball_search(sys, "centralizer", (1,), radius=-1),
    ):
        with pytest.raises(NegativeRadius, match="^radius must be nonnegative, got -1$"):
            call()
    assert cayley_ball(sys, Integer(1)).elements == ((), (1,), (2,), (3,))
