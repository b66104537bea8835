"""``compose`` multiplies star endomorphisms in closed form, and records
built in ``autkit`` carry their factored form from birth.

Every endomorphism e of a star with e(1) != 1 is inner(x^-1) o phi, where
phi fixes w_1 and sends leaf i to a reflection w_1 (w_1 w_j)^k of one
dihedral subgroup D_j, or to w_1.  ``compose`` takes the product of two
such forms when e1 is an endomorphism and every leaf of e2 goes to a
reflection, and substitutes otherwise.  These tests hold it to
``reference_compose``, which substitutes e1's images into e2's words
letter by letter and reduces each whole, on stars of rank at most 8.  The
maps drawn are automorphisms that ``recompose`` builds, endomorphisms
spelled from targets (j, k) with j not one-to-one and k = 0 allowed,
maps whose leaves go to reflections that break the label test (no
endomorphism), trivial maps, maps with a trivial center image, random
image lists, and products of these, whose stored forms can describe maps
that are no endomorphism.  Conjugators are random, empty, start with w_1
(so ``classify_endo`` reads the form with w_1 x and negated exponents) or
start inside a core (so they cancel against it).

A born record, read by ``classify_endo`` at the budget it was built with,
must answer as a fresh record with the same images: the same
classification wherever the fresh one answers, and where the fresh one
exceeds the budget, its classification at the default budget.
"""

import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox import autkit
from oddcox.autkit import (
    AutFactorization,
    Endomorphism,
    classify_endo,
    compose,
    factorize,
    graph_auto,
    inner_auto,
    recompose,
    theta_product,
    try_invert,
    verify_endo,
)
from oddcox.errors import NotAutomorphism, OddCoxeterError, OrbitBudgetExceeded
from oddcox.words import DEFAULT_ORBIT_BUDGET, reduce_word

from conftest import star

LABELS = (3, 5, 7, 9, 15, 21)


def reference_compose(e1, e2):
    """e1 o e2 by substituting e1's images letter by letter and reducing
    each substituted word whole."""
    sys = e1.system
    return tuple(
        reduce_word(sys, tuple(a for g in w for a in e1.images[g - 1])) for w in e2.images
    )


def spelled(s, x, targets):
    """A fresh record, with no stored form, of x^-1 phi(g) x, each image
    reduced whole; phi(i) = w_1 (w_1 w_j)^k for targets[i - 2] = (j, k)
    and w_1 for None."""
    x = tuple(x)
    cores = [(1,)] + [(1,) if t is None else (1,) + (1, t[0]) * t[1] for t in targets]
    return Endomorphism(s.system, [reduce_word(s.system, x[::-1] + c + x) for c in cores])


def outcome(fn, *args):
    """The value of a call, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except OddCoxeterError as exc:
        return type(exc).__name__, str(exc)


def endo_targets(rng, s):
    """Targets of an endomorphism: any leaf j, and k with t_j / gcd(k, t_j)
    dividing t_i, k = 0 (the leaf goes to w_1) allowed."""
    targets = []
    for ti in s.t:
        j = rng.choice(s.leaves)
        tj = s.t_of(j)
        k = rng.choice([k for k in range(tj) if ti % (tj // math.gcd(k, tj)) == 0])
        targets.append((j, k) if k else None)
    return targets


def any_targets(rng, s):
    """Targets of reflections with no label test: in general no
    endomorphism."""
    targets = []
    for _ in s.leaves:
        j = rng.choice(s.leaves)
        k = rng.randrange(s.t_of(j))
        targets.append((j, k) if k else None)
    return targets


def automorphism(rng, s, x):
    perm = []
    for block in s.blocks:
        perm += rng.sample(block, len(block))
    cvec = [rng.choice([k for k in range(1, t) if math.gcd(k, t) == 1]) for t in s.t]
    return AutFactorization(tuple(x), tuple(cvec), tuple(perm))


def conjugator(rng, s):
    kind = rng.choice(("random", "empty", "center first", "cancels"))
    word = tuple(rng.randint(1, s.rank) for _ in range(rng.randint(0, 6)))
    if kind == "empty":
        return ()
    if kind == "center first":
        return (1,) + word
    if kind == "cancels":
        # x^-1 core x with x starting with the core's letters
        j = rng.choice(s.leaves)
        return (j, 1, j)[: rng.randint(1, 3)] + word
    return word


def draw_map(rng, s, depth=0):
    kind = rng.choice(
        ("auto", "endo", "reflections", "trivial", "trivial center", "random", "product")
    )
    if kind == "product" and depth < 2:
        return compose(draw_map(rng, s, depth + 1), draw_map(rng, s, depth + 1))
    x = conjugator(rng, s)
    if kind == "endo":
        return spelled(s, x, endo_targets(rng, s))
    if kind == "reflections":
        return spelled(s, x, any_targets(rng, s))
    if kind == "trivial":
        return Endomorphism(s.system, [()] * s.rank)
    words = [
        tuple(rng.randint(1, s.rank) for _ in range(rng.randint(0, 5))) for _ in range(s.rank)
    ]
    if kind == "trivial center":
        return Endomorphism(s.system, [()] + words[1:])
    if kind == "random":
        return Endomorphism(s.system, words)
    return recompose(s, automorphism(rng, s, x))


def draw_star(rng):
    return star(*(rng.choice(LABELS) for _ in range(rng.randint(1, 7))))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_compose_gives_the_substituted_images(rng):
    s = draw_star(rng)
    e1, e2 = draw_map(rng, s), draw_map(rng, s)
    product = compose(e1, e2)
    assert product.images == reference_compose(e1, e2)
    # the product's stored form, when it has one, reads as a fresh record does
    if product._form is not None:
        fresh = Endomorphism(s.system, product.images)
        assert classify_endo(s, product) == classify_endo(s, fresh)


def test_the_draws_reach_every_case():
    """Over 400 seeded draws the closed form runs, substitution runs for
    each of its reasons, and the forms hit leaves sent to w_1 by a product
    k k' = 0 and conjugators that classify_endo reads as w_1 x."""
    seen = set()
    for seed in range(400):
        rng = random.Random(seed)
        s = draw_star(rng)
        e1, e2 = draw_map(rng, s), draw_map(rng, s)
        product = compose(e1, e2)
        assert product.images == reference_compose(e1, e2)
        form1 = autkit._form_of(s, e1, DEFAULT_ORBIT_BUDGET)
        form2 = autkit._form_of(s, e2, DEFAULT_ORBIT_BUDGET)
        if product._form is None:
            if form1 is None:
                seen.add("e1 has no form")
            elif not autkit._respects_labels(s, form1[1]):
                seen.add("e1 no endomorphism")
            elif form2 is None:
                seen.add("e2 has no form")
            continue
        seen.add("closed form")
        x, targets = product._form[2:]
        if any(
            t2 is not None and form1[1][t2[0] - 2] is not None and t is None
            for t2, t in zip(form2[1], targets)
        ):
            seen.add("k k' = 0")
        if classify_endo(s, product).inner != x:
            seen.add("w_1 x")
    assert seen == {
        "closed form",
        "e1 has no form",
        "e1 no endomorphism",
        "e2 has no form",
        "k k' = 0",
        "w_1 x",
    }


def test_an_e1_that_is_no_endomorphism_substitutes():
    """Leaf 2 (t = 3) goes to the reflection w_1 w_3 w_1 of D_3 (t = 5),
    whose rotation w_1 w_3 has order 5, not dividing 3: no endomorphism.
    Its form, multiplied as if it were one, gives another map."""
    s = star(3, 5)
    e1 = compose(inner_auto(s, (2,)), autkit._born(s, (), ((3, 1), (3, 1)), DEFAULT_ORBIT_BUDGET))
    assert e1._form is not None and verify_endo(s, e1) is False
    e2 = theta_product(s, (2, 2))
    product = compose(e1, e2)
    assert product.images == reference_compose(e1, e2)
    assert product._form is None
    form1, form2 = (autkit._form_of(s, e, DEFAULT_ORBIT_BUDGET) for e in (e1, e2))
    formal = autkit._product(s, *form1, *form2, DEFAULT_ORBIT_BUDGET)
    assert autkit._born(s, *formal, DEFAULT_ORBIT_BUDGET).images != product.images


def test_a_leaf_sent_to_w1_by_a_product_of_exponents():
    """On the star (9, 9) leaf 3 goes to w_1 (w_1 w_3)^3 under both maps,
    and 3 * 3 = 0 mod 9, so the product sends it to w_1."""
    s = star(9, 9)
    e1 = spelled(s, (2, 1), [(2, 1), (3, 3)])
    e2 = spelled(s, (3,), [(3, 2), (3, 3)])
    product = compose(e1, e2)
    assert product.images == reference_compose(e1, e2)
    assert product._form[3] == ((3, 6), None)


def test_leaf_targets_compose_in_order():
    """Two graph automorphisms that do not commute: compose applies e2
    first, so leaf i goes to perm1(perm2(i))."""
    s = star(3, 3, 3)
    e1, e2 = graph_auto(s, (3, 2, 4)), graph_auto(s, (2, 4, 3))
    product = compose(e1, e2)
    assert product.images == reference_compose(e1, e2) == ((1,), (3,), (4,), (2,))
    assert product.images != compose(e2, e1).images


def test_the_w1_flip_negates_every_exponent():
    """x = (1 2) reduces to a word starting with w_1, so involution_to_base
    of e(1) gives w_1 x = (2), and each leaf's k is read as -k."""
    s = star(5, 7)
    born = recompose(s, AutFactorization((1, 2), (2, 3), (2, 3)))
    fresh = Endomorphism(s.system, born.images)
    c = classify_endo(s, born)
    assert born._form[2] == (1, 2) and c.inner == (2,)
    assert c.targets == ((2, 3), (3, 4))
    assert c == classify_endo(s, fresh)
    assert factorize(s, born) == factorize(s, fresh)


def test_a_wrong_conjugator_on_a_product_is_refused(monkeypatch):
    """A product's form is trusted only when involution_to_base gives its x
    or w_1 x; a conjugator that is neither reads the images afresh, and
    factorize's certificate refuses."""
    s = star(5, 5)
    e = compose(inner_auto(s, (2, 1, 3)), theta_product(s, (2, 3)))
    to_base = autkit.involution_to_base
    monkeypatch.setattr(autkit, "involution_to_base", lambda *args: (3,) + to_base(*args))
    with pytest.raises(NotAutomorphism):
        factorize(s, e)


BUDGETS = list(range(9)) + [DEFAULT_ORBIT_BUDGET]


def born_records(rng, s, budget):
    """Records built in autkit at this budget: recompose, the builders and
    compose of those, each left out where it exceeds the budget."""
    f = automorphism(rng, s, conjugator(rng, s))
    endo = spelled(s, conjugator(rng, s), endo_targets(rng, s))
    records = []

    def build(fn, *args):
        if None in args:
            return None
        try:
            e = fn(*args, budget)
        except OrbitBudgetExceeded:
            return None
        records.append(e)
        return e

    auto = build(recompose, s, f)
    inner = build(inner_auto, s, f.inner)
    graph = build(compose, auto, graph_auto(s, f.perm))
    build(compose, inner, theta_product(s, f.cvec))
    build(compose, build(compose, auto, endo), graph)
    return records


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_born_records_classify_as_fresh_ones(rng):
    s = draw_star(rng)
    for budget in BUDGETS:
        for born in born_records(rng, s, budget):
            fresh = Endomorphism(s.system, born.images)
            got = outcome(classify_endo, s, born, budget)
            want = outcome(classify_endo, s, fresh, budget)
            if isinstance(want, tuple) and want[0] == "OrbitBudgetExceeded":
                # the form may answer where reading the images exceeds the budget
                if got != want:
                    assert got == classify_endo(s, fresh)
            else:
                assert got == want


def test_three_calls_on_a_product_find_its_conjugator_once(monkeypatch):
    s = star(3, 3, 5, 9, 15)
    rng = random.Random(7)
    calls = []
    to_base = autkit.involution_to_base

    def counting(*args):
        calls.append(args)
        return to_base(*args)

    monkeypatch.setattr(autkit, "involution_to_base", counting)
    for _ in range(20):
        e1 = recompose(s, automorphism(rng, s, conjugator(rng, s)))
        e2 = recompose(s, automorphism(rng, s, conjugator(rng, s)))
        product = compose(e1, e2)
        calls.clear()
        answers = (verify_endo(s, product), factorize(s, product), try_invert(s, product))
        assert len(calls) == 1
        calls.clear()
        fresh = Endomorphism(s.system, product.images)
        assert answers == (True, factorize(s, fresh), try_invert(s, fresh))
        assert len(calls) == 1


def test_a_product_past_the_budget_substitutes():
    """On the star (3), e2 = inner_auto((2,)) was built at the default
    budget, so at budget 0 compose reads it with classify_endo, whose
    conjugator needs a rewrite: the product path exceeds the budget, and
    compose substitutes e2's canonical images into the identity."""
    s = star(3)
    e1 = recompose(s, AutFactorization((), (1,), (2,)), 0)
    e2 = inner_auto(s, (2,))
    assert e1._form is not None and e2._form[0] == DEFAULT_ORBIT_BUDGET
    with pytest.raises(OrbitBudgetExceeded):
        classify_endo(s, e2, 0)
    product = compose(e1, e2, 0)
    assert product._form is None
    assert product.images == reference_compose(e1, e2) == e2.images


def test_a_stored_form_keeps_the_value_semantics_of_a_fresh_record():
    s = star(3, 5, 9)
    e1 = recompose(s, AutFactorization((1, 3, 2), (2, 3, 4), (2, 3, 4)))
    for born in (e1, compose(e1, inner_auto(s, (4, 1)))):
        fresh = Endomorphism(s.system, born.images)
        assert born._form is not None and fresh._form is None
        assert born == fresh and hash(born) == hash(fresh) and repr(born) == repr(fresh)
        assert pickle.dumps(born) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(born))._form is None
        assert copy.copy(born)._form is None and copy.deepcopy(born)._form is None
