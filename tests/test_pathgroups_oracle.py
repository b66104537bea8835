"""The path-group tools against the reference versions in pathgroups_oracle."""

import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathgroups_oracle as oracle
from oddcox.errors import GroupTooLarge, ImageTooLarge, NotBijectiveHom
from oddcox.pathgroups import (
    Permutation,
    _simplify_limited,
    build_ln,
    conjugation_map,
    cyclic_group_table,
    identity_perm,
    inversion_map,
    perm_group_table,
    pi_image,
    rs_kernel,
    symmetric_group_table,
    symmetric_images,
    transposition,
    twisted_count,
)


# ------------------------------------------------------------ Tietze pass


def _kernel_images(n):
    sym = symmetric_images(n)
    return {
        "symmetric": sym,
        "flipped": sym[::-1],
        "sign": [transposition(2, 1)] * (n - 1),
        "trivial": [identity_perm(n)] * (n - 1),
    }


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["symmetric", "flipped", "sign", "trivial"])
def test_rs_kernel_matches_reference(n, kind):
    images = _kernel_images(n)[kind]
    assert rs_kernel(build_ln(n), images) == oracle.rs_kernel(build_ln(n), images)


def test_rs_kernel_image_cap_matches_reference():
    for cap in (1, 2, 10, 119):
        with pytest.raises(ImageTooLarge) as new:
            rs_kernel(build_ln(5), symmetric_images(5), image_cap=cap)
        with pytest.raises(ImageTooLarge) as ref:
            oracle.rs_kernel(build_ln(5), symmetric_images(5), image_cap=cap)
        assert str(new.value) == str(ref.value)
    sys, images = build_ln(5), symmetric_images(5)
    assert rs_kernel(sys, images, 120) == oracle.rs_kernel(sys, images, 120)


@st.composite
def relator_lists(draw):
    k = draw(st.integers(1, 8))
    letter = st.integers(1, k).flatmap(lambda s: st.sampled_from([s, -s]))
    relators = draw(st.lists(st.lists(letter, max_size=5), max_size=12))
    return k, relators


@settings(max_examples=400, deadline=None)
@given(relator_lists())
@example((3, [[], [1, 1], [2], [2, 3], [2, 3], [-3, 1]]))
@example((2, [[1, -1], [2, 2, 1], [1], [2, 2]]))
@example((4, [[4, 4], [4], [1, 2, 4], [1], [3, 3, 1]]))
def test_simplify_limited_matches_one_kill_per_pass(case):
    k, relators = case
    assert _simplify_limited(k, relators) == oracle.simplify_limited(k, relators)


# ----------------------------------------------------------- group tables


def _perm(images):
    return Permutation(tuple(images))


def _outcome(build, gens, cap):
    try:
        elements, table = build(gens, cap)
    except (GroupTooLarge, NotBijectiveHom) as exc:
        return type(exc), str(exc)
    return [el.images for el in elements], table


@st.composite
def generating_sets(draw):
    degree = draw(st.integers(1, 6))
    gens = draw(
        st.lists(st.permutations(range(1, degree + 1)), min_size=1, max_size=3)
    )
    return [_perm(g) for g in gens]


@settings(max_examples=60, deadline=None)
@given(generating_sets())
def test_perm_group_table_matches_brute_force(gens):
    # cap 120 keeps the brute-force table small; larger groups hit it
    assert _outcome(perm_group_table, gens, 120) == _outcome(
        oracle.perm_group_table, gens, 120
    )


def test_perm_group_table_refusals_match_brute_force():
    s4 = symmetric_images(4)
    cases = [
        ([], 120, NotBijectiveHom),
        ([transposition(3, 1), transposition(4, 1)], 120, NotBijectiveHom),
        (s4, 23, GroupTooLarge),
        (s4, 1, GroupTooLarge),
    ]
    for gens, cap, error in cases:
        new = _outcome(perm_group_table, gens, cap)
        assert new[0] is error
        assert new == _outcome(oracle.perm_group_table, gens, cap)
    assert _outcome(perm_group_table, s4, 24) == _outcome(
        oracle.perm_group_table, s4, 24
    )


def test_perm_group_table_checks_degrees_before_the_cap():
    with pytest.raises(NotBijectiveHom, match="degrees differ"):
        perm_group_table([transposition(3, 1), transposition(4, 1)], cap=1)


# ------------------------------------------------------------ twisted count


def test_twisted_count_names_the_first_failing_cell():
    rng = random.Random(3)
    _, table = symmetric_group_table(4)
    for _ in range(30):
        aut = list(range(24))
        i, j = rng.sample(range(1, 24), 2)
        aut[i], aut[j] = aut[j], aut[i]
        failure = oracle.first_multiplicativity_failure(table, aut)
        assert failure is not None
        with pytest.raises(NotBijectiveHom) as exc:
            twisted_count(table, aut)
        assert str(exc.value) == f"map fails multiplicativity at {failure}"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_twisted_count_matches_union_find_on_symmetric_groups(n):
    _, table = symmetric_group_table(n)
    maps = [list(range(len(table)))]
    maps += [conjugation_map(table, g) for g in range(len(table))]
    for aut in maps:
        assert twisted_count(table, aut) == oracle.twisted_count(table, aut)


def test_twisted_count_matches_union_find_on_s6():
    _, table = symmetric_group_table(6)
    for g in random.Random(8).sample(range(720), 3):
        aut = conjugation_map(table, g)
        assert twisted_count(table, aut) == oracle.twisted_count(table, aut)


def test_twisted_count_matches_union_find_on_cyclic_groups():
    for n in range(1, 61):
        table = cyclic_group_table(n)
        maps = [list(range(n)), inversion_map(table)]
        maps += [[k * x % n for x in range(n)] for k in range(n) if math.gcd(k, n) == 1]
        for aut in maps:
            assert twisted_count(table, aut) == oracle.twisted_count(table, aut)


# --------------------------------------------------------------- pi image


@st.composite
def path_words(draw):
    n = draw(st.integers(2, 7))
    return n, draw(st.lists(st.integers(1, n - 1), max_size=20))


@settings(max_examples=200, deadline=None)
@given(path_words())
def test_pi_image_matches_transposition_products(case):
    n, word = case
    assert pi_image(n, word) == oracle.pi_image(n, word)


# ------------------------------------------------------------------ timing


def test_structure_tools_are_fast():
    # generous bounds: both measured near 0.03 s on a 2-core Xeon VM
    start = time.perf_counter()
    pres = rs_kernel(build_ln(6), symmetric_images(6))
    assert time.perf_counter() - start < 1.0
    assert (pres.num_generators, len(pres.relators)) == (2070, 4200)
    start = time.perf_counter()
    elements, _ = symmetric_group_table(6)
    assert time.perf_counter() - start < 1.0
    assert len(elements) == 720
