"""``classify_endo`` stores a successful classification on its record.

The stored ``EndoClass`` is keyed by the budget it was computed at: a
call with the same budget returns it, and any other budget reads the
images again.  Refusals are not stored.  The record freezes its images
when it is built, so the stored answer cannot go stale, and equality,
hash, repr and pickling read only the fields.  These tests hold a record
that has been classified, at any budgets in any order, to a fresh record
with the same images.
"""

import math
import pickle
import random

import pytest

from oddcox import autkit
from oddcox.autkit import (
    Endomorphism,
    classify_endo,
    compose,
    factorize,
    graph_auto,
    inner_auto,
    make_endo,
    theta_product,
    try_invert,
    verify_endo,
)
from oddcox.errors import BadLetter, NotAutomorphism
from oddcox.words import alternating
from conftest import star
from test_classify_endo import outcome


def three(s, e, *budget):
    return tuple(outcome(fn, s, e, *budget) for fn in (verify_endo, factorize, try_invert))


def fresh(e):
    return Endomorphism(e.system, e.images)


def star_maps(seed, labels, count, nonsurjective):
    """inner(x) o graph(perm) o theta(cvec) on the star with these labels,
    as the benchmark's aut_star builds them; the first ``nonsurjective``
    maps send one leaf i to w_1 (w_1 w_i)^k with gcd(k, t_i) > 1, which
    gives a verified endomorphism that is not onto."""
    rng = random.Random(seed)
    s = star(*labels)
    blocks = {}
    for leaf, t in zip(s.leaves, s.t):
        blocks.setdefault(t, []).append(leaf)
    maps = []
    for slot in range(count):
        x = tuple(rng.randint(1, s.rank) for _ in range(4))
        perm = [0] * len(s.leaves)
        for block in blocks.values():
            images = list(block)
            rng.shuffle(images)
            for leaf, image in zip(block, images):
                perm[leaf - 2] = image
        cvec = [rng.choice([k for k in range(1, t) if math.gcd(k, t) == 1]) for t in s.t]
        if slot < nonsurjective:
            leaf = rng.choice([i for i, t in zip(s.leaves, s.t) if t in (9, 15, 21)])
            t = s.t_of(leaf)
            cvec[leaf - 2] = rng.choice([k for k in range(t) if math.gcd(k, t) > 1])
            images = [(1,)] + [
                (1,) + alternating(1, i, 2) * k for i, k in zip(s.leaves, cvec)
            ]
            theta = make_endo(s.system, images)
        else:
            theta = theta_product(s, cvec)
        maps.append(compose(inner_auto(s, x), compose(graph_auto(s, perm), theta)))
    return s, maps


R10 = star_maps(1, (3, 3, 3, 5, 5, 9, 9, 15, 21), 4, 2)
R13 = star_maps(1, (3,) * 12, 6, 0)


def test_the_three_calls_on_one_record_classify_it_once(monkeypatch):
    calls = []
    involution_to_base = autkit.involution_to_base

    def counting(*args):
        calls.append(args)
        return involution_to_base(*args)

    monkeypatch.setattr(autkit, "involution_to_base", counting)
    s, maps = R10
    for e in maps:
        calls.clear()
        assert three(s, e)[0] is True
        assert len(calls) == 1


@pytest.mark.parametrize("s, maps", [R10, R13], ids=["r10", "r13"])
@pytest.mark.parametrize("order", ["up", "down", "default first"])
def test_a_shared_record_answers_every_budget_as_a_fresh_one(s, maps, order):
    budgets = list(range(9))
    seen = set()
    for e in maps:
        shared = fresh(e)
        if order == "default first":
            assert three(s, shared) == three(s, fresh(e))
        for b in budgets[::-1] if order == "down" else budgets:
            got = three(s, shared, b)
            assert got == three(s, fresh(e), b)
            seen |= {o[0] if isinstance(o, tuple) else "value" for o in got}
    # the sweep reaches budget refusals as well as answers
    assert {"OrbitBudgetExceeded", "value"} <= seen


def test_a_refused_budget_keeps_the_stored_classification():
    s, maps = R13
    e = maps[0]
    stored = classify_endo(s, e)
    assert outcome(classify_endo, s, e, 0)[0] == "OrbitBudgetExceeded"
    assert classify_endo(s, e) is stored
    other = classify_endo(s, e, 10**6 + 1)
    assert other == stored and other is not stored
    assert classify_endo(s, e, 10**6 + 1) is other


def test_images_given_as_lists_are_frozen():
    s = star(3, 5)
    images = [[1], [2], [3]]
    e = Endomorphism(s.system, images)
    assert verify_endo(s, e) is True
    images[2][:] = [2, 3, 2]
    assert e.images == ((1,), (2,), (3,))
    assert verify_endo(s, e) is True
    # the mutated list, read afresh, lies in no dihedral subgroup
    assert verify_endo(s, Endomorphism(s.system, images)) is False
    assert verify_endo(s, make_endo(s.system, images)) is False


def test_a_classified_record_keeps_the_value_semantics_of_a_fresh_one():
    s, maps = R10
    for e in maps:
        new = fresh(e)
        three(s, e)
        assert e == new and new == e
        assert hash(e) == hash(new)
        assert repr(e) == repr(new)
        assert pickle.dumps(e) == pickle.dumps(new)
        copy = pickle.loads(pickle.dumps(e))
        assert copy == new and hash(copy) == hash(new)
        assert three(s, copy) == three(s, e)


def test_a_foreign_star_is_refused_after_classification():
    s, maps = R13
    e = maps[0]
    classify_endo(s, e)
    other = star(*(3,) * 11 + (5,))
    for fn in (classify_endo, verify_endo, factorize):
        with pytest.raises(NotAutomorphism, match="endomorphism belongs to a different system"):
            fn(other, e)
    assert outcome(try_invert, other, e) == (
        "NotSurjective",
        "endomorphism is not onto: endomorphism belongs to a different system",
    )


@pytest.mark.parametrize(
    "labels, images",
    [
        ((3, 5), [(1,), (2, 9), (3,)]),
        ((3, 5), [(1,), (2,), (3, "x")]),
        ((3, 5), [(), (2, 1, 2, 1), ()]),
        ((3, 5), [(1, 2), (2,), (3,)]),
        ((3,), [(1, 2), (1, 2)]),
    ],
)
def test_bad_letters_and_refused_centers_repeat_exactly(labels, images):
    s = star(*labels)
    try:
        e = Endomorphism(s.system, images)
    except BadLetter as exc:
        # a bad letter is refused when the record is built, every time alike
        assert str(exc) in ("letter 9 out of range 1..3", "letter 'x' is not an integer")
        for _ in range(2):
            assert outcome(Endomorphism, s.system, images) == ("BadLetter", str(exc))
        return
    first = [outcome(classify_endo, s, e), three(s, e)]
    assert first[0][0] in ("BadLetter", "NotInvolution")
    for _ in range(2):
        assert [outcome(classify_endo, s, e), three(s, e)] == first
    assert three(s, fresh(e)) == first[1]
    assert e._classified is None  # a refusal is not stored
