import itertools
import math
import random

import pytest

from oddcox import (
    apply,
    compose,
    endo_from_json,
    endo_to_json,
    factorize,
    graph_auto,
    identity_endo,
    inner_auto,
    is_inner,
    make_endo,
    normality_witness,
    recompose,
    reduce_word,
    theta_auto,
    theta_product,
    try_invert,
    verify_endo,
)
from oddcox.autkit import Endomorphism
from oddcox.core import CoxeterSystem
from oddcox.errors import (
    BadLetter,
    BadThetaExponent,
    BlockViolatingPermutation,
    EndoFileError,
    IsInnerNoWitness,
    NoMergeWitness,
    NotAutomorphism,
    NotSurjective,
    OrbitBudgetExceeded,
)
from conftest import star


STARS_SMALL = [(3, 3), (3, 5), (3, 3, 3), (3, 3, 5), (3, 5, 7), (3, 3, 3, 3)]


def random_standard(rng, s):
    kind = rng.choice(("inner", "theta", "graph"))
    if kind == "inner":
        word = tuple(rng.randint(1, s.rank) for _ in range(rng.randint(0, 4)))
        return inner_auto(s, word)
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


def block_permutations(s):
    for combo in itertools.product(
        *[itertools.permutations(b) for b in s.blocks]
    ):
        perm = {}
        for block, images in zip(s.blocks, combo):
            perm.update(dict(zip(block, images)))
        yield perm


# ------------------------------------------------------------------- apply


def test_apply_identity():
    s = star(3)
    assert apply(s.system, identity_endo(s.system), (1, 2)) == (1, 2)


def test_apply_inner_w1():
    s = star(3)
    assert apply(s.system, inner_auto(s, (1,)), (2,)) == (1, 2, 1)


def test_apply_theta_on_product():
    s = star(3)
    assert apply(s.system, theta_auto(s, 2, 2), (1, 2)) == (2, 1)


# ------------------------------------------------------------------ verify


def test_verify_identity_and_swap():
    s = star(3, 3)
    assert verify_endo(s, identity_endo(s.system))
    swap = make_endo(s.system, [(1,), (3,), (2,)])
    assert verify_endo(s, swap)


def test_verify_rejects_label_breaking_swap():
    s = star(3, 5)
    swap = make_endo(s.system, [(1,), (3,), (2,)])
    assert not verify_endo(s, swap)


# ------------------------------------------------------------- constructors


def test_theta_exponent_one_is_identity():
    s = star(3, 3)
    assert theta_auto(s, 2, 1).images == identity_endo(s.system).images


def test_theta_images_example():
    s = star(3, 3)
    assert theta_auto(s, 2, 2).images == ((1,), (1, 2, 1), (3,))


def test_inner_w1_equals_theta_product():
    # conjugation by the center equals the product of all maximal leaf maps
    for ms in ((3, 3), (3, 3, 3), (3, 5)):
        s = star(*ms)
        lhs = inner_auto(s, (1,))
        rhs = theta_product(s, tuple(s.t_of(i) - 1 for i in s.leaves))
        assert lhs.images == rhs.images
    s = star(3, 3)
    composed = compose(theta_auto(s, 2, 2), theta_auto(s, 3, 2))
    assert inner_auto(s, (1,)).images == composed.images


def test_constructor_rejections():
    s = star(3, 5)
    with pytest.raises(BadThetaExponent):
        theta_auto(s, 2, 0)
    with pytest.raises(BadThetaExponent):
        theta_auto(s, 3, 5)
    with pytest.raises(BadThetaExponent):
        theta_auto(s, 1, 1)
    with pytest.raises(BlockViolatingPermutation):
        graph_auto(s, {2: 3, 3: 2})
    with pytest.raises(BlockViolatingPermutation):
        graph_auto(star(3, 3), {2: 2, 3: 2})


# ----------------------------------------------------------------- compose


def test_compose_with_identity():
    s = star(3, 3)
    phi = theta_auto(s, 2, 2)
    assert compose(identity_endo(s.system), phi).images == phi.images


def test_compose_theta_self_inverse_mod3():
    s = star(3)
    composed = compose(theta_auto(s, 2, 2), theta_auto(s, 2, 2))
    assert composed.images == identity_endo(s.system).images


def test_compose_inner_involution():
    s = star(3, 3)
    w1hat = inner_auto(s, (1,))
    assert compose(w1hat, w1hat).images == identity_endo(s.system).images


def test_compose_checks_every_image_before_reducing_any():
    path = CoxeterSystem(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3)])
    ident = tuple((g,) for g in path.generators)
    # e1's image of 1 needs a braid move, more than a budget of 1 allows
    e1 = Endomorphism(system=path, images=((1, 2, 1, 2),) + ident[1:])
    # a bad letter is refused when the record is built, before any reduction
    with pytest.raises(BadLetter, match=r"^letter 9 out of range 1\.\.5$"):
        Endomorphism(system=path, images=ident[:4] + ((5, 9),))
    with pytest.raises(OrbitBudgetExceeded):
        compose(e1, identity_endo(path), budget=1)


def test_abelian_part_commutes():
    # all leaf-map pairs commute on stars of rank up to 5
    for ms in ((3, 3), (3, 5), (3, 3, 5), (3, 5, 7), (3, 3, 3, 3)):
        s = star(*ms)
        thetas = [
            (i, k)
            for i in s.leaves
            for k in range(1, s.t_of(i))
            if math.gcd(k, s.t_of(i)) == 1
        ]
        for (i, k), (j, m) in itertools.product(thetas, repeat=2):
            a = compose(theta_auto(s, i, k), theta_auto(s, j, m))
            b = compose(theta_auto(s, j, m), theta_auto(s, i, k))
            assert a.images == b.images


def test_graph_conjugation_moves_theta_index():
    # graph(a)^-1 o theta(i, k) o graph(a) = theta(a^-1(i), k)
    s = star(3, 3, 5)
    for perm in block_permutations(s):
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
                rhs = theta_auto(s, inverse[i], k)
                assert lhs.images == rhs.images


# --------------------------------------------------------------- factorize


def test_factorize_identity():
    s = star(3, 3)
    f = factorize(s, identity_endo(s.system))
    assert f.inner == () and f.perm == (2, 3) and f.cvec == (1, 1)


def test_factorize_graph_swap():
    s = star(3, 3)
    f = factorize(s, graph_auto(s, {2: 3, 3: 2}))
    assert f.inner == () and f.perm == (3, 2) and f.cvec == (1, 1)


def test_factorize_rejects_collapse():
    s = star(3, 3)
    collapse = make_endo(s.system, [(1,), (1,), (1,)])
    assert verify_endo(s, collapse)
    with pytest.raises(NotAutomorphism):
        factorize(s, collapse)


def test_recompose_identity_and_w1():
    s = star(3, 3)
    from oddcox import AutFactorization

    ident = recompose(s, AutFactorization(inner=(), cvec=(1, 1), perm=(2, 3)))
    assert ident.images == identity_endo(s.system).images
    shifted = recompose(s, AutFactorization(inner=(1,), cvec=(1, 1), perm=(2, 3)))
    assert shifted.image_of(2) == (1, 2, 1)


def test_round_trip_explicit_composition():
    s = star(3, 3)
    e = compose(theta_auto(s, 2, 2), inner_auto(s, (2, 1)))
    f = factorize(s, e)
    assert recompose(s, f).images == e.images


def test_round_trip_random_compositions():
    rng = random.Random(2024)
    for trial in range(100):
        s = star(*STARS_SMALL[trial % len(STARS_SMALL)])
        e = identity_endo(s.system)
        for _ in range(rng.randint(0, 6)):
            e = compose(e, random_standard(rng, s))
        assert verify_endo(s, e)
        f = factorize(s, e)
        rebuilt = recompose(s, f)
        canon = tuple(reduce_word(s.system, w) for w in e.images)
        assert rebuilt.images == canon


def test_graph_automorphisms_factor_with_trivial_inner_part():
    for ms in ((3, 3), (3, 3, 3), (3, 3, 5)):
        s = star(*ms)
        for perm in block_permutations(s):
            f = factorize(s, graph_auto(s, perm))
            assert f.inner == ()
            assert all(k == 1 for k in f.cvec)


def test_agreement_on_center_leaf_products_forces_equality():
    # automorphisms agreeing on all words (1, i) agree on every generator
    rng = random.Random(99)
    s = star(3, 3, 5)
    endos = [identity_endo(s.system)]
    for _ in range(12):
        e = identity_endo(s.system)
        for _ in range(rng.randint(1, 4)):
            e = compose(e, random_standard(rng, s))
        endos.append(e)
    endos.append(recompose(s, factorize(s, endos[1])))
    for e1, e2 in itertools.combinations(endos, 2):
        agree_on_products = all(
            apply(s.system, e1, (1, i)) == apply(s.system, e2, (1, i))
            for i in s.leaves
        )
        if agree_on_products:
            assert all(
                apply(s.system, e1, (g,)) == apply(s.system, e2, (g,))
                for g in s.system.generators
            )


# ---------------------------------------------------------------- is_inner


def test_is_inner_on_inner_input():
    s = star(3, 3)
    assert is_inner(s, factorize(s, inner_auto(s, (2,))))


def test_is_inner_false_for_graph_swap():
    s = star(3, 3)
    assert not is_inner(s, factorize(s, graph_auto(s, {2: 3, 3: 2})))


def test_is_inner_false_for_single_theta():
    s = star(3, 3)
    f = factorize(s, theta_auto(s, 2, 2))
    assert f.cvec == (2, 1)
    assert not is_inner(s, f)


# -------------------------------------------------------- normality witness


def test_witness_for_graph_swap():
    s = star(3, 3)
    f = factorize(s, graph_auto(s, {2: 3, 3: 2}))
    w = normality_witness(s, f)
    assert w.g == (1, 2) and w.merge == (1, 2)
    assert w.evidence != ()
    pushed = tuple(w.mapping[letter - 1] for letter in w.g)
    assert reduce_word(w.quotient, pushed) == ()


def test_witness_for_unbalanced_exponents():
    s = star(3, 3)
    f = factorize(s, theta_auto(s, 3, 2))  # cvec (1, 2)
    w = normality_witness(s, f)
    assert w.g == (2, 3) and w.merge == (2, 3)
    assert w.evidence == (1, 2)  # the image (w1 w)^1 in the merged star


def test_witness_rejects_inner():
    s = star(3, 3)
    with pytest.raises(IsInnerNoWitness):
        normality_witness(s, factorize(s, identity_endo(s.system)))


def test_witness_unreachable_by_merges():
    # the order-5 dihedral group: every automorphism preserves every
    # normal subgroup, so no merge quotient can produce a witness
    s = star(5)
    f = factorize(s, theta_auto(s, 2, 2))
    assert not is_inner(s, f)
    with pytest.raises(NoMergeWitness):
        normality_witness(s, f)


# -------------------------------------------------------------- try_invert


def test_invert_theta_self_inverse():
    s = star(3)
    phi = theta_auto(s, 2, 2)
    assert try_invert(s, phi).images == phi.images


def test_invert_graph_swap_is_involution():
    s = star(3, 3)
    swap = graph_auto(s, {2: 3, 3: 2})
    assert try_invert(s, swap).images == swap.images


def test_invert_rejects_collapse():
    s = star(3, 3)
    collapse = make_endo(s.system, [(1,), (1,), (1,)])
    with pytest.raises(NotSurjective):
        try_invert(s, collapse)


def test_invert_random_compositions():
    rng = random.Random(606)
    for trial in range(30):
        s = star(*STARS_SMALL[trial % len(STARS_SMALL)])
        e = identity_endo(s.system)
        for _ in range(rng.randint(1, 5)):
            e = compose(e, random_standard(rng, s))
        inverse = try_invert(s, e)
        assert compose(e, inverse).images == identity_endo(s.system).images
        assert compose(inverse, e).images == identity_endo(s.system).images


# --------------------------------------------------------------- file i/o


def test_endo_json_round_trip():
    s = star(3, 3)
    e = theta_auto(s, 2, 2)
    again = endo_from_json(s.system, endo_to_json(e))
    assert again.images == e.images


def test_endo_json_rejections():
    s = star(3, 3)
    with pytest.raises(EndoFileError):
        endo_from_json(s.system, '{"images": [[1],[2]]}')
    with pytest.raises(EndoFileError):
        endo_from_json(s.system, '{"images": [[1],[2],[9]]}')
    with pytest.raises(EndoFileError):
        endo_from_json(s.system, '{"not_images": []}')
