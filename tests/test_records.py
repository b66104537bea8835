"""Value semantics of the package's records: equality, hashing, immutability,
pickling, construction and repr."""

import pickle

import pytest

from oddcox import autkit, cli, core, oracle, pathgroups, units
from oddcox.errors import (
    DiagonalNotOne,
    EvenOrSmallExponent,
    MalformedInvariant,
    NotBijectiveHom,
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
    (core.SystemInvariant, {"rank": 3, "finite_exponents": (3, 5)}, "rank", 2),
    (
        core.StarForm,
        {
            "system": SYS,
            "t": (3, 5),
            "distinct": (3, 5),
            "multiplicities": (1, 1),
            "blocks": ((2,), (3,)),
        },
        "system",
        OTHER_SYS,
    ),
    (autkit.Endomorphism, {"system": SYS, "images": ((1,), (2,), (3,))}, "images", ((1,),)),
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


def test_bad_permutation_raises_the_same_error():
    with pytest.raises(NotBijectiveHom, match=r"\(1, 1\) is not a permutation"):
        pathgroups.Permutation((1, 1))
    with pytest.raises(NotBijectiveHom, match=r"\(2, 3\) is not a permutation"):
        pathgroups.Permutation(images=(2, 3))
    assert str(PERM) == "(1 2)"


def test_command_result_is_mutable_and_unhashable():
    result = cli.CommandResult(0, ["valid: true"])
    assert result == cli.CommandResult(exit_code=0, lines=["valid: true"])
    assert repr(result) == "CommandResult(exit_code=0, lines=['valid: true'])"
    result.exit_code = 1
    result.lines.append("more")
    assert result == cli.CommandResult(1, ["valid: true", "more"])
    assert result != cli.CommandResult(0, ["valid: true", "more"])
    with pytest.raises(TypeError):
        hash(result)
    copy = pickle.loads(pickle.dumps(result))
    assert copy == result
