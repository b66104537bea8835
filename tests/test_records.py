"""Value semantics of the package's records: equality, hashing, immutability,
pickling, construction and repr."""

import copy
import pickle
import re

import pytest

from oddcox import autkit, cli, core, oracle, pathgroups, units
from oddcox.errors import (
    BadLetter,
    DiagonalNotOne,
    EndoFileError,
    EvenOrSmallExponent,
    MalformedInvariant,
    NotBijectiveHom,
    NotStarForm,
    NotSymmetric,
)
from conftest import star

SYS = core.CoxeterSystem(3, ((1, 2, 3), (1, 3, 5)))
OTHER_SYS = core.CoxeterSystem(3, ((1, 2, 3), (1, 3, 7)))
PERM = pathgroups.Permutation((2, 1, 3))
ENDO = autkit.Endomorphism(system=SYS, images=((1,), (2,), (3,)))
PRES = pathgroups.FinitePresentation(num_generators=2, relators=((1, 1, 1),))

# (class, field values in field order, a field to change, a different value)
RECORDS = [
    (core.CoxeterSystem, {"rank": 3, "edges": ((1, 2, 3), (1, 3, 5))}, "rank", 4),
    (
        core.Classification,
        {"connected": True, "tree": True, "in_tw": True},
        "tree",
        False,
    ),
    (
        core.SystemInvariant,
        {"rank": 3, "finite_exponents": (3, 5)},
        "finite_exponents",
        (3, 7),
    ),
    (core.StarForm, {"system": SYS}, "system", OTHER_SYS),
    (
        autkit.Endomorphism,
        {"system": SYS, "images": ((1,), (2,), (3,))},
        "images",
        ((1,), (3,), (2,)),
    ),
    (autkit.AutFactorization, {"inner": (1,), "cvec": (1, 1), "perm": (2, 3)}, "cvec", (1, 2)),
    (
        autkit.NormalityWitness,
        {
            "g": (1, 2),
            "merge": (1, 2),
            "evidence": (2, 1),
            "quotient": core.CoxeterSystem(1),
            "mapping": (1, 1, 2),
        },
        "quotient",
        core.CoxeterSystem(2),
    ),
    (
        units.UnitGroupStructure,
        {"modulus": 9, "order": 6, "factors": ((3, 2, 6),)},
        "modulus",
        7,
    ),
    (units.ComplementD, {"generators": ((1, 4),), "order": 3}, "order", 9),
    (
        units.OutDescriptor,
        {
            "c_shape": ((3, 1),),
            "c_order": 2,
            "out_order": 1,
            "graph_part": (1,),
            "out_abelian": (),
            "inn_c_splits": True,
            "aut_out_split_guaranteed": True,
            "note": None,
        },
        "note",
        "text",
    ),
    (oracle.CayleyBall, {"system": SYS, "radius": 1, "elements": ((), (1,))}, "radius", 2),
    (pathgroups.Permutation, {"images": (2, 1, 3)}, "images", (1, 2, 3)),
    (pathgroups.FinitePresentation, {"num_generators": 2, "relators": ()}, "relators", ((1,),)),
    (
        pathgroups.CommutatorStructure,
        {
            "kind": "star",
            "presentation": PRES,
            "chosen_generator": 1,
            "action": ((-1,),),
            "names": ("a2",),
        },
        "kind",
        "path",
    ),
    (pathgroups.PureWitness, {"endo": ENDO, "g": (1, 2), "image": PERM}, "image", None),
]
IDS = [spec[0].__name__ for spec in RECORDS]


@pytest.mark.parametrize("cls, values, field, other", RECORDS, ids=IDS)
def test_equal_records_are_equal_and_hash_equal(cls, values, field, other):
    by_keyword = cls(**values)
    by_position = cls(*values.values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert hash(by_keyword) == hash(by_position)
    assert {by_keyword, by_position} == {by_keyword}
    for name, value in values.items():
        assert getattr(by_keyword, name) == value
        assert vars(by_keyword)[name] is getattr(by_keyword, name)
    changed = cls(**{**values, field: other})
    assert changed != by_keyword
    assert not changed == by_keyword
    assert by_keyword != values
    assert by_keyword != tuple(values.values())


@pytest.mark.parametrize("cls, values, field, other", RECORDS, ids=IDS)
def test_records_are_frozen(cls, values, field, other):
    record = cls(**values)
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert getattr(record, field) == values[field]


@pytest.mark.parametrize("cls, values, field, other", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, values, field, other):
    record = cls(**values)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record
    assert hash(copy) == hash(record)
    assert type(copy) is cls


def test_same_fields_different_class_are_unequal():
    class Left(core._Record):
        vertices: tuple
        edges: tuple

    class Right(core._Record):
        vertices: tuple
        edges: tuple

    left = Left(vertices=(1, 2), edges=((1, 2, 3),))
    right = Right(vertices=(1, 2), edges=((1, 2, 3),))
    assert left._values == right._values
    assert left != right
    assert right != left
    assert not left == right


def test_default_and_mixed_construction():
    assert core.CoxeterSystem(3) == core.CoxeterSystem(3, ()) == core.CoxeterSystem(rank=3)
    assert core.CoxeterSystem(3).edges == ()
    assert core.CoxeterSystem(3).m(1, 2) == core.INFINITY
    assert core.CoxeterSystem(3, edges=((1, 2, 3),)) == core.CoxeterSystem(3, ((2, 1, 3),))
    with pytest.raises(TypeError):
        core.CoxeterSystem()
    with pytest.raises(TypeError):
        core.CoxeterSystem(3, (), None)
    with pytest.raises(TypeError):
        core.CoxeterSystem(3, colour=1)
    with pytest.raises(TypeError):
        core.SystemInvariant(3)


def test_coxeter_system_derived_rows_survive_pickle_and_stay_out_of_equality():
    copy = pickle.loads(pickle.dumps(SYS))
    assert copy.m(1, 3) == 5 and copy.m(3, 1) == 5 and copy.m(2, 3) == core.INFINITY
    assert copy.neighbors(1) == {2: 3, 3: 5}
    assert core.CoxeterSystem(3, ((1, 3, 5), (1, 2, 3))) == SYS
    assert "_rows" not in repr(SYS)
    assert star(3, 5).system == SYS
    assert hash(star(3, 5)) == hash(core.star_form(SYS))


def test_repr_is_pinned():
    assert repr(core.CoxeterSystem(3, [(2, 3, 5), (2, 1, 3)])) == (
        "CoxeterSystem(rank=3, edges=((1, 2, 3), (2, 3, 5)))"
    )
    assert repr(core.CoxeterSystem(1)) == "CoxeterSystem(rank=1, edges=())"
    assert repr(core.invariants(SYS)) == "SystemInvariant(rank=3, finite_exponents=(3, 5))"


def test_bad_coxeter_system_raises_the_same_errors():
    with pytest.raises(MalformedInvariant, match="rank must be at least 1"):
        core.CoxeterSystem(0)
    with pytest.raises(MalformedInvariant, match="rank must be at least 1"):
        core.CoxeterSystem(True)
    with pytest.raises(MalformedInvariant, match=r"edge \(1, 4\) out of range 1..3"):
        core.CoxeterSystem(3, [(1, 4, 3)])
    with pytest.raises(DiagonalNotOne, match=r"edge at \(2, 2\)"):
        core.CoxeterSystem(3, [(2, 2, 3)])
    with pytest.raises(EvenOrSmallExponent, match=r"exponent of \(1, 2\) is 4"):
        core.CoxeterSystem(3, [(2, 1, 4)])
    with pytest.raises(NotSymmetric, match=r"pair \(1, 2\) is given twice"):
        core.CoxeterSystem(3, [(1, 2, 3), (2, 1, 3)])


def test_bad_star_form_raises_the_same_errors():
    with pytest.raises(NotStarForm, match="rank must be at least 2"):
        core.StarForm(core.CoxeterSystem(1))
    with pytest.raises(NotStarForm, match=r"pair \(1, 3\) must carry a finite exponent"):
        core.StarForm(core.CoxeterSystem(3, [(1, 2, 3), (2, 3, 5)]))
    with pytest.raises(NotStarForm, match=r"pair \(2, 3\) must be unbounded in a star"):
        core.StarForm(core.CoxeterSystem(3, [(1, 2, 3), (1, 3, 3), (2, 3, 3)]))
    with pytest.raises(NotStarForm, match="leaf exponents must be ascending"):
        core.StarForm(system=core.CoxeterSystem(3, [(1, 2, 5), (1, 3, 3)]))


def test_star_form_derives_its_shape_from_its_system():
    s = core.StarForm(
        core.CoxeterSystem(5, [(1, 2, 3), (1, 3, 3), (1, 4, 5), (1, 5, 7)])
    )
    assert s._fields == ("system",)
    assert s.t == (3, 3, 5, 7) and s.t_of(4) == 5
    assert s.blocks == ((2, 3), (4,), (5,))
    assert repr(star(3, 5)) == f"StarForm(system={SYS!r})"
    copy = pickle.loads(pickle.dumps(s))
    assert copy.t == s.t and copy.blocks == s.blocks


def test_bad_system_invariant_raises_the_same_errors():
    with pytest.raises(MalformedInvariant, match="rank must be at least 2"):
        core.SystemInvariant(1, ())
    with pytest.raises(MalformedInvariant, match="rank must be at least 2"):
        core.SystemInvariant(True, ())
    with pytest.raises(MalformedInvariant, match="expected 2 finite exponents, got 1"):
        core.SystemInvariant(3, (3,))
    for bad in (4, 1, core.INFINITY, True, 3.0):
        with pytest.raises(MalformedInvariant, match=f"bad exponent {bad}"):
            core.SystemInvariant(3, (3, bad))


def test_system_invariant_holds_a_multiset():
    assert core.SystemInvariant(3, (5, 3)) == core.invariants(star(3, 5).system)
    assert core.SystemInvariant(3, [5, 3]).finite_exponents == (3, 5)
    shuffled, ordered = core.SystemInvariant(4, (7, 3, 5)), core.SystemInvariant(4, (3, 5, 7))
    assert shuffled == ordered and hash(shuffled) == hash(ordered)
    assert core.canonical_star(core.SystemInvariant(3, (5, 3))) == star(3, 5)


def test_endomorphism_with_the_wrong_image_count_is_refused():
    for images in (((1,), (2,)), ((1,), (2,), (3,), (1,)), ()):
        message = f"expected 3 generator images, got {len(images)}"
        with pytest.raises(EndoFileError, match=message):
            autkit.Endomorphism(SYS, images)
        # the count is checked before the letters, here all out of range
        with pytest.raises(EndoFileError, match=message):
            autkit.make_endo(SYS, [(0,)] * len(images))


@pytest.mark.parametrize(
    "images, message",
    [
        (((1,), (2, 0), (3,)), "letter 0 out of range 1..3"),
        (((1,), (2,), (3, 4)), "letter 4 out of range 1..3"),
        (((1,), (-2,), (3,)), "letter -2 out of range 1..3"),
        (((True,), (2,), (3,)), "letter True is not an integer"),
        (((1,), ("x",), (3,)), "letter 'x' is not an integer"),
        (((1,), (2,), (3, 2.0)), "letter 2.0 is not an integer"),
        ([[1], [2, 9], [3]], "letter 9 out of range 1..3"),
        # the first bad letter in image order, whatever kind the later ones are
        (((1, 5), ("x",), (0,)), "letter 5 out of range 1..3"),
        (((1,), (2, 2.0, 9), (True,)), "letter 2.0 is not an integer"),
        (((), (), (3, 1, "x", 0)), "letter 'x' is not an integer"),
    ],
)
def test_endomorphism_refuses_a_bad_letter_when_it_is_built(images, message):
    for build in (autkit.Endomorphism, autkit.make_endo):
        with pytest.raises(BadLetter, match=f"^{re.escape(message)}$"):
            build(SYS, images)


def test_a_checked_endomorphism_survives_pickle_and_copy():
    s = star(3, 5)
    f = autkit.AutFactorization(inner=(2, 1, 3), cvec=(2, 3), perm=(2, 3))
    listed = autkit.Endomorphism(s.system, [[1], [2, 1, 2], [3]])
    for e in (autkit.recompose(s, f), listed):
        autkit.classify_endo(s, e)
        for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
            assert twin == e and hash(twin) == hash(e)
            assert twin.images == e.images and type(twin.images[0]) is tuple
            assert twin._classified is None


def test_bad_permutation_raises_the_same_error():
    with pytest.raises(NotBijectiveHom, match=r"\(1, 1\) is not a permutation"):
        pathgroups.Permutation((1, 1))
    with pytest.raises(NotBijectiveHom, match=r"\(2, 3\) is not a permutation"):
        pathgroups.Permutation(images=(2, 3))
    assert str(PERM) == "(1 2)"


def test_command_result_is_frozen_and_unhashable():
    result = cli.CommandResult(0, ["valid: true"])
    assert result == cli.CommandResult(exit_code=0, lines=["valid: true"])
    assert repr(result) == "CommandResult(exit_code=0, lines=['valid: true'])"
    with pytest.raises(AttributeError):
        result.exit_code = 1
    assert result != cli.CommandResult(1, ["valid: true"])
    with pytest.raises(TypeError):
        hash(result)
    copy = pickle.loads(pickle.dumps(result))
    assert copy == result
