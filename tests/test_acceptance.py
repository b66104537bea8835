"""Acceptance suite: one test per criterion, exact expectations throughout."""

import itertools
import math
import random

import pytest

from oddcox import (
    alternating,
    ball_search,
    build_ln,
    cayley_ball,
    commutator_presentation,
    compose,
    conjugate,
    decide_isomorphic,
    equal,
    factorize,
    free_rank,
    graph_auto,
    identity_endo,
    inner_auto,
    is_inner,
    make_endo,
    out_descriptor,
    path_system,
    pl_witness,
    recompose,
    reduce_word,
    rs_kernel,
    split_inn_c,
    theta_auto,
    theta_product,
    try_invert,
    twisted_count,
    validate_system,
    verify_endo,
)
from oddcox.errors import NotAutomorphism, NotSurjective
from oddcox.pathgroups import (
    cyclic_group_table,
    format_cycles,
    inversion_map,
    symmetric_group_table,
    symmetric_images,
)
from conftest import star
from dihedral_oracle import dihedral_model
from helpers import random_tree_system, relabel
from test_units import brute_splits
from tietze_oracle import certified_free_rank


def all_rank2_words(max_len):
    for length in range(max_len + 1):
        yield from itertools.product((1, 2), repeat=length)


def test_criterion_01_isomorphism():
    assert decide_isomorphic(star(3, 5).system, path_system([5, 3])) is True
    assert decide_isomorphic(star(3, 3).system, star(3, 5).system) is False
    rng = random.Random(101)
    for _ in range(50):
        sys = random_tree_system(rng, rng.randint(2, 6))
        perm = list(range(1, sys.rank + 1))
        rng.shuffle(perm)
        assert decide_isomorphic(sys, relabel(sys, perm))


def test_criterion_02_word_engine_vs_dihedral_oracle():
    for m in (3, 5, 7):
        sys = validate_system([[1, m], [m, 1]])
        model = dihedral_model(m)
        pool = list(all_rank2_words(m + 2))
        canon = {w: reduce_word(sys, w) for w in pool}
        value = {w: model.evaluate(w) for w in pool}
        for w in pool:
            cw, vw = canon[w], value[w]
            for v in pool:
                assert (cw == canon[v]) == (vw == value[v]), (m, w, v)
        assert len(cayley_ball(sys, m + 1).elements) == 2 * m


def test_criterion_03_automorphism_algebra():
    for ms in ((3, 3), (3, 3, 3), (3, 5)):
        s = star(*ms)
        lhs = inner_auto(s, (1,))
        rhs = theta_product(s, tuple(s.t_of(i) - 1 for i in s.leaves))
        assert lhs.images == rhs.images
    s = star(3, 3, 5)
    perms = []
    for combo in itertools.product(
        *[itertools.permutations(b) for b in s.blocks]
    ):
        perm = {}
        for block, images in zip(s.blocks, combo):
            perm.update(dict(zip(block, images)))
        perms.append(perm)
    for perm in perms:
        inverse = {v: u for u, v in perm.items()}
        for i in s.leaves:
            t = s.t_of(i)
            for k in range(1, t):
                if math.gcd(k, t) != 1:
                    continue
                lhs = compose(
                    graph_auto(s, inverse),
                    compose(theta_auto(s, i, k), graph_auto(s, perm)),
                )
                assert lhs.images == theta_auto(s, inverse[i], k).images


def _random_standard(rng, s):
    kind = rng.choice(("inner", "theta", "graph"))
    if kind == "inner":
        return inner_auto(
            s, tuple(rng.randint(1, s.rank) for _ in range(rng.randint(0, 4)))
        )
    if kind == "theta":
        leaf = rng.choice(list(s.leaves))
        t = s.t_of(leaf)
        ks = [k for k in range(1, t) if math.gcd(k, t) == 1]
        return theta_auto(s, leaf, rng.choice(ks))
    perm = {}
    for block in s.blocks:
        shuffled = list(block)
        rng.shuffle(shuffled)
        perm.update(dict(zip(block, shuffled)))
    return graph_auto(s, perm)


ACCEPTANCE_STARS = [
    (3, 3),
    (3, 5),
    (3, 3, 3),
    (3, 3, 5),
    (3, 5, 7),
    (3, 3, 3, 3),
    (3, 3, 5, 5),
]


def test_criterion_04_factorization_round_trip():
    rng = random.Random(404)
    trips = 0
    for trial in range(110):
        s = star(*ACCEPTANCE_STARS[trial % len(ACCEPTANCE_STARS)])
        e = identity_endo(s.system)
        for _ in range(rng.randint(0, 6)):
            e = compose(e, _random_standard(rng, s))
        assert verify_endo(s, e)
        f = factorize(s, e)
        rebuilt = recompose(s, f)
        assert rebuilt.images == tuple(
            reduce_word(s.system, w) for w in e.images
        )
        trips += 1
    assert trips >= 100
    for ms in ((3, 3), (3, 3, 3), (3, 3, 5)):
        s = star(*ms)
        for combo in itertools.product(
            *[itertools.permutations(b) for b in s.blocks]
        ):
            perm = {}
            for block, images in zip(s.blocks, combo):
                perm.update(dict(zip(block, images)))
            f = factorize(s, graph_auto(s, perm))
            assert f.inner == ()
            assert all(k == 1 for k in f.cvec)


def test_criterion_05_out_descriptors():
    assert out_descriptor(star(3)).out_order == 1  # three strands
    # four strands: order (phi(3)^2 / 2) * 2! = 4, shape (Z/2)^1 x| S_2
    four = out_descriptor(star(3, 3))
    assert four.out_order == 4
    assert four.out_abelian == (2,)
    assert four.graph_part == (2,)
    five = out_descriptor(star(3, 3, 3))
    assert five.out_order == 24
    assert five.out_abelian == (2, 2)  # (Z/2)^2
    assert five.graph_part == (3,)  # S_3
    mixed = out_descriptor(star(3, 5))
    assert mixed.out_order == 4
    assert mixed.aut_out_split_guaranteed is True


def test_criterion_06_splitting_criterion():
    for multiset in ((3,), (9,), (15,), (3, 3)):
        assert split_inn_c(star(*multiset)) is not None
        assert brute_splits(multiset)
    for multiset in ((5,), (13,), (5, 5)):
        assert split_inn_c(star(*multiset)) is None
        assert not brute_splits(multiset)


def test_criterion_07_commutator_structure():
    s = star(3, 5)
    c = commutator_presentation(s.system)
    assert c.presentation.num_generators == 2
    assert c.presentation.relators == ((1, 1, 1), (2, 2, 2, 2, 2))
    assert equal(s.system, alternating(1, 2, 6), ())
    assert equal(s.system, alternating(1, 3, 10), ())
    ball = cayley_ball(s.system, 5)
    for w in ball.elements:
        for v in ball.elements:
            product_length = len(reduce_word(s.system, w + v))
            assert (product_length - len(w) - len(v)) % 2 == 0


def test_criterion_08_pure_subgroup():
    trivial = rs_kernel(build_ln(3), symmetric_images(3))
    assert trivial.num_generators == 0 and trivial.relators == ()
    pres = rs_kernel(build_ln(4), symmetric_images(4))
    assert certified_free_rank(pres) == 5
    assert free_rank(build_ln(4), 24) == 5
    witness = pl_witness(4)
    assert format_cycles(witness.image) == "(1 3 4)"


def test_criterion_09_brute_force_involution_facts():
    for ms in ((3, 3), (3, 5)):
        s = star(*ms)
        ball5 = cayley_ball(s.system, 5)
        ball7 = cayley_ball(s.system, 7)
        involutions = [
            w
            for w in ball5.elements
            if w and reduce_word(s.system, w + w) == ()
        ]
        assert involutions
        for v in involutions:
            assert len(v) % 2 == 1
            assert any(
                conjugate(s.system, v, x) == (1,) for x in ball7.elements
            ), (ms, v)
        for g in s.system.generators:
            hits = ball_search(s.system, "centralizer", (g,), radius=6)
            assert hits == [(), (g,)]
            for r in (0, 2, 4):
                trimmed = [x for x in hits if len(x) <= r]
                expected = [x for x in ((), (g,)) if len(x) <= r]
                assert trimmed == expected


def _parabolic_collapse(rng, s):
    """Verified endomorphism with every image inside one dihedral subgroup."""
    leaf = rng.choice(list(s.leaves))
    t = s.t_of(leaf)
    if rng.random() < 0.2:
        v = ()
    else:
        v = reduce_word(
            s.system, (1,) + alternating(1, leaf, 2) * rng.randrange(t)
        )
    return make_endo(s.system, [v] * s.rank)


def test_criterion_10_property_substitutes():
    _, s3_table = symmetric_group_table(3)
    assert twisted_count(s3_table, list(range(len(s3_table)))) == 3
    z3 = cyclic_group_table(3)
    assert twisted_count(z3, inversion_map(z3)) == 1

    rng = random.Random(1010)
    factorizable = 0
    rejected = 0
    for trial in range(50):
        s = star(*ACCEPTANCE_STARS[trial % len(ACCEPTANCE_STARS)])
        if trial % 2 == 0:
            e = identity_endo(s.system)
            for _ in range(rng.randint(1, 6)):
                e = compose(e, _random_standard(rng, s))
        else:
            e = _parabolic_collapse(rng, s)
        assert verify_endo(s, e)
        try:
            f = factorize(s, e)
        except NotAutomorphism:
            with pytest.raises(NotSurjective):
                try_invert(s, e)
            image_support = set()
            for w in e.images:
                image_support |= set(reduce_word(s.system, w))
            assert image_support != set(s.system.generators)
            rejected += 1
        else:
            inverse = try_invert(s, e)
            ident = identity_endo(s.system)
            assert compose(e, inverse).images == ident.images
            assert compose(inverse, e).images == ident.images
            assert is_inner(s, f) in (True, False)
            factorizable += 1
    assert factorizable > 0 and rejected > 0
    assert factorizable + rejected == 50
