import itertools
import random
import re
import tracemalloc

import pytest

from oddcox import (
    CoxeterSystem,
    apply,
    build_ln,
    commutator_presentation,
    equal,
    free_rank,
    invariants,
    is_pure,
    multiply,
    pi_image,
    pl_witness,
    reduce_word,
    rs_kernel,
    twisted_count,
)
from oddcox.errors import (
    BadGroupTable,
    BadIndex,
    BadLetter,
    GroupTooLarge,
    NonIntegerResult,
    NotAHomomorphism,
    NotBijectiveHom,
    NotInTW,
    RankTooSmall,
    UnsupportedShape,
)
from oddcox.pathgroups import (
    DEFAULT_GROUP_CAP,
    Permutation,
    conjugation_map,
    cyclic_group_table,
    format_cycles,
    identity_perm,
    inversion_map,
    parse_cycles,
    perm_group_table,
    symmetric_group_table,
    symmetric_images,
    transposition,
)
from conftest import star
from pathgroups_oracle import perm_image, perm_inverse, perm_mul
from tietze_oracle import abelian_invariants, certified_free_rank, collapse


# ----------------------------------------------------------- permutations


def test_permutation_cycle_format_and_parse():
    p = parse_cycles("(1 3 4)", 4)
    assert format_cycles(p) == "(1 3 4)"
    assert parse_cycles("()", 4).is_identity()
    assert format_cycles(parse_cycles("(1 2)(3 4)", 4)) == "(1 2)(3 4)"
    q = parse_cycles("(1 3 4)(2 5)", 5)
    assert parse_cycles(format_cycles(q), 5) == q


def test_parse_cycles_rejects_a_repeated_entry():
    for text in ("(1 1)", "(1 2 1)", "(1 2)(2 1)", "(1 2)(3 1)"):
        with pytest.raises(NotBijectiveHom, match="appears twice"):
            parse_cycles(text, 3)


def test_permutation_composition_order():
    # left factor acts first
    p = transposition(3, 1)
    q = transposition(3, 2)
    assert perm_image(perm_mul(p, q), 1) == perm_image(q, perm_image(p, 1)) == 3


def test_permutation_inverse():
    p = parse_cycles("(1 3 4)", 4)
    assert perm_mul(p, perm_inverse(p)).is_identity()


def test_permutation_rejects_non_bijection():
    with pytest.raises(NotBijectiveHom):
        Permutation((1, 1, 3))


def test_permutation_given_a_list_stores_a_tuple():
    p = Permutation([2, 1, 3])
    assert p == Permutation((2, 1, 3))
    assert Permutation([1, 2, 3]).is_identity()
    elements, _ = perm_group_table([p])
    assert elements == [identity_perm(3), p]


# ----------------------------------------------------------------- build


def test_build_ln_shapes():
    l4 = build_ln(4)
    assert l4.rank == 3
    assert l4.finite_pairs() == [(1, 2, 3), (2, 3, 3)]
    l3 = build_ln(3)
    assert l3.rank == 2 and l3.m(1, 2) == 3
    l2 = build_ln(2)
    assert l2.rank == 1
    with pytest.raises(RankTooSmall):
        build_ln(1)


# ------------------------------------------------------------- projection


def test_pi_image_examples():
    assert format_cycles(pi_image(4, (1,))) == "(1 2)"
    assert format_cycles(pi_image(4, (1, 3))) == "(1 2)(3 4)"
    assert format_cycles(pi_image(4, (1, 2, 1))) == "(1 3)"


def test_pi_image_rejects_bad_letters():
    with pytest.raises(BadLetter):
        pi_image(4, (4,))


@pytest.mark.parametrize("n", [1, 0, -2])
def test_pi_image_and_is_pure_refuse_fewer_than_two_strands(n):
    with pytest.raises(RankTooSmall, match="starts at two strands"):
        pi_image(n, ())
    with pytest.raises(RankTooSmall, match="starts at two strands"):
        is_pure(n, (1,))


def test_pi_is_homomorphism():
    rng = random.Random(41)
    sys = build_ln(5)
    for _ in range(40):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 6)))
        v = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 6)))
        product = perm_mul(pi_image(5, w), pi_image(5, v))
        assert pi_image(5, w + v) == product
        assert pi_image(5, multiply(sys, w, v)) == product


def test_is_pure_examples():
    assert is_pure(4, ())
    assert is_pure(4, (1, 3, 1, 3))
    assert not is_pure(4, (1,))


def test_pure_words_have_even_length():
    rng = random.Random(43)
    sys = build_ln(5)
    for _ in range(60):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 8)))
        if is_pure(5, w):
            assert len(reduce_word(sys, w)) % 2 == 0


# ------------------------------------------------------------- commutator


def test_commutator_star_example():
    c = commutator_presentation(star(3, 5).system)
    assert c.kind == "star"
    assert c.names == ("a2", "a3")
    assert c.presentation.relators == ((1, 1, 1), (2, 2, 2, 2, 2))
    assert c.action == ((-1,), (-2,))


def test_commutator_path_example():
    c = commutator_presentation(build_ln(4))
    assert c.kind == "path"
    assert c.names == ("x1", "x2")
    assert c.presentation.relators == ((1, 1, 1), (2, 2, 2))


def test_commutator_rank_two():
    c = commutator_presentation(star(3).system)
    assert c.presentation.num_generators == 1
    assert c.presentation.relators == ((1, 1, 1),)


def test_commutator_rejects_non_family_and_odd_shapes():
    from oddcox import validate_system
    from oddcox.core import INFINITY

    with pytest.raises(NotInTW):
        commutator_presentation(validate_system([[1]]))
    # spider: a tree that is neither a star centered at 1 nor a path
    rows = [[INFINITY] * 6 for _ in range(6)]
    for i in range(6):
        rows[i][i] = 1
    for u, v in ((1, 2), (2, 3), (3, 4), (3, 5), (3, 6)):
        rows[u - 1][v - 1] = rows[v - 1][u - 1] = 3
    spider = validate_system(rows)
    with pytest.raises(UnsupportedShape):
        commutator_presentation(spider)


def test_commutator_relations_hold_in_word_engine():
    sys = star(3, 5).system
    from oddcox import alternating

    assert equal(sys, alternating(1, 2, 6), ())
    assert equal(sys, alternating(1, 3, 10), ())


def test_path_action_formulas_hold():
    # conjugation by y2 inverts x1 and x2 and acts by the telescoped
    # conjugated inverse on later x_j, verified in the word engine
    for n in range(4, 8):
        sys = build_ln(n)
        z = (2,)

        def x_word(j, inverse=False):
            return (j + 1, j) if inverse else (j, j + 1)

        for j in range(1, n - 1):
            lhs = z + x_word(j) + z
            if j <= 2:
                rhs = x_word(j, inverse=True)
            else:
                prefix = tuple(
                    letter for i in range(2, j) for letter in x_word(i)
                )
                suffix = tuple(
                    letter
                    for i in reversed(range(2, j))
                    for letter in x_word(i, inverse=True)
                )
                rhs = prefix + x_word(j, inverse=True) + suffix
            assert equal(sys, lhs, rhs), (n, j)


def test_noncommuting_pure_witnesses():
    sys = build_ln(4)
    a = (1, 3, 1, 3)
    b = (2,) + (3, 1, 3, 1) + (2,)
    assert not equal(sys, a + b, b + a)


# ---------------------------------------------------------------- kernels


def test_rs_kernel_trivial_for_full_projection_rank3():
    pres = rs_kernel(build_ln(3), symmetric_images(3))
    assert pres.num_generators == 0
    assert pres.relators == ()


def test_rs_kernel_sign_is_cyclic_of_order_three():
    pres = rs_kernel(build_ln(3), [transposition(2, 1), transposition(2, 1)])
    assert pres.num_generators == 2
    assert abelian_invariants(pres.num_generators, pres.relators) == [3]
    result = collapse(pres.num_generators, pres.relators)
    assert result is not None
    rank, leftover = result
    assert rank == 1
    assert [sorted(abs(s) for s in r) for r in leftover] == [[1, 1, 1]]


def test_rs_kernel_pure_rank4_is_free_of_rank_five():
    pres = rs_kernel(build_ln(4), symmetric_images(4))
    assert certified_free_rank(pres) == 5
    assert free_rank(build_ln(4), 24) == 5


def test_rs_kernel_outputs_have_no_torsion_relator():
    # pure kernels are free: no relator may be a proper power
    for n in (4, 5):
        pres = rs_kernel(build_ln(n), symmetric_images(n))
        for r in pres.relators:
            assert not _is_proper_power(r)


def _is_proper_power(relator):
    size = len(relator)
    for period in range(1, size):
        if size % period == 0 and relator == relator[:period] * (size // period):
            return True
    return False


def test_rs_kernel_rejects_non_homomorphism():
    t1, t2, t3 = symmetric_images(4)
    with pytest.raises(NotAHomomorphism):
        rs_kernel(build_ln(4), [t1, t3, t2])  # (t1 t3)^3 is not the identity
    with pytest.raises(NotAHomomorphism):
        rs_kernel(build_ln(4), [parse_cycles("(1 2 3)", 4), t2, t3])


def test_rs_kernel_accepts_trivial_and_flip_homomorphisms():
    assert rs_kernel(build_ln(4), [identity_perm(4)] * 3).num_generators == 3
    flipped = rs_kernel(build_ln(4), symmetric_images(4)[::-1])
    assert certified_free_rank(flipped) == 5


def test_rs_kernel_image_cap():
    from oddcox.errors import ImageTooLarge

    with pytest.raises(ImageTooLarge):
        rs_kernel(build_ln(5), symmetric_images(5), image_cap=10)


# -------------------------------------------------------------- free rank


def test_free_rank_examples():
    assert free_rank(build_ln(4), 24) == 5
    assert free_rank(build_ln(5), 120) == 61
    assert free_rank(build_ln(3), 6) == 0


def test_free_rank_refuses_non_integer():
    with pytest.raises(NonIntegerResult):
        free_rank(build_ln(4), 5)


def test_free_rank_refuses_a_system_outside_the_family():
    with pytest.raises(NotInTW):
        free_rank(CoxeterSystem(3, [(1, 2, 3)]), 6)


def test_free_rank_refuses_an_index_below_one():
    for index in (0, -1, -6):
        with pytest.raises(BadIndex):
            free_rank(build_ln(4), index)


def test_free_rank_matches_certified_collapse_rank5():
    pres = rs_kernel(build_ln(5), symmetric_images(5))
    assert certified_free_rank(pres) == 61 == free_rank(build_ln(5), 120)


def test_free_rank_matches_collapse_on_folded_projections():
    # torsion-free kernels of surjections onto a smaller symmetric group:
    # the Euler-measure formula and the presentation collapse must agree
    t1, t2 = symmetric_images(3)
    pres = rs_kernel(build_ln(4), [t1, t2, t1])
    assert certified_free_rank(pres) == 2 == free_rank(build_ln(4), 6)
    pres = rs_kernel(build_ln(5), [t1, t2, t1, t2])
    assert certified_free_rank(pres) == 4 == free_rank(build_ln(5), 6)


# ---------------------------------------------------------------- witness


def test_pl_witness_four_strands():
    w = pl_witness(4)
    assert format_cycles(w.image) == "(1 3 4)"
    assert is_pure(4, w.g)
    assert not is_pure(4, apply(w.endo.system, w.endo, w.g))


def test_pl_witness_five_strands():
    w = pl_witness(5)
    assert not w.image.is_identity()


def test_pl_witness_too_small():
    with pytest.raises(RankTooSmall):
        pl_witness(3)


# ---------------------------------------------------------------- twisted


def test_twisted_identity_counts_conjugacy_classes():
    _, table = symmetric_group_table(3)
    assert twisted_count(table, list(range(len(table)))) == 3


def test_twisted_inner_preserves_count():
    elements, table = symmetric_group_table(3)
    g = next(
        i for i, el in enumerate(elements) if el.images == parse_cycles("(1 2)", 3).images
    )
    assert twisted_count(table, conjugation_map(table, g)) == 3


def test_twisted_inversion_on_cyclic():
    table = cyclic_group_table(3)
    assert twisted_count(table, inversion_map(table)) == 1


def test_twisted_rejects_non_homomorphism():
    _, table = symmetric_group_table(3)
    with pytest.raises(NotBijectiveHom):
        twisted_count(table, inversion_map(table))  # inversion not a hom on S3


def test_twisted_rejects_table_without_identity():
    table = [[1, 1], [1, 1]]  # every product is 1
    with pytest.raises(BadGroupTable, match="no identity element"):
        twisted_count(table, [0, 1])


def test_twisted_rejects_element_without_inverse():
    table = [[0, 1, 2], [1, 0, 2], [2, 2, 2]]  # 2 absorbs, so 2 has no inverse
    with pytest.raises(BadGroupTable, match="element 2 has no inverse"):
        twisted_count(table, [0, 1, 2])


def test_twisted_rejects_a_row_of_the_wrong_length():
    with pytest.raises(BadGroupTable, match=r"^row 1 has 1 entries, expected 2$"):
        twisted_count([[0, 1], [1]], [0, 1])


def test_twisted_rejects_an_entry_outside_the_group():
    with pytest.raises(BadGroupTable, match=r"^row 1 has an entry outside 0\.\.1$"):
        twisted_count([[0, 1], [1, 5]], [0, 1])


@pytest.mark.parametrize(
    "table, aut, row",
    [
        ([[0, 1], [1, 0.5]], [0, 1], 1),
        # a negative entry would index from the end of a list
        ([[0, 1], [1, -1]], [0, 1], 1),
        # Z/3 under inversion with 1 + 1 spelled -1: row 1 passes as it is
        # read, and the -1 is caught as the image entry of cell (2, 2)
        ([[0, 1, 2], [1, -1, 0], [2, 0, 1]], [0, 2, 1], 1),
        # the non-integer is met as an image entry before its own row
        ([[0, 1, 2], [1, 2, 0], [2, 0, 0.5]], [0, 2, 1], 2),
    ],
)
def test_twisted_rejects_a_negative_or_non_integer_entry(table, aut, row):
    size = len(table)
    with pytest.raises(
        BadGroupTable, match=rf"^row {row} has an entry outside 0\.\.{size - 1}$"
    ):
        twisted_count(table, aut)


@pytest.mark.parametrize(
    "aut, shown",
    [
        # a float equal to an integer passes the bijection test as that integer
        ([0.0, 1], "0.0"),
        ([1, 0.0], "0.0"),
        # a bool is an int to Python, and True == 1
        ([0, True], "True"),
        (["0", 1], "'0'"),
        ([None, 1], "None"),
    ],
)
def test_twisted_refuses_a_map_entry_that_is_not_an_integer(aut, shown):
    with pytest.raises(NotBijectiveHom, match=rf"^map entry {shown} is not an integer$"):
        twisted_count([[0, 1], [1, 0]], aut)


def test_twisted_refuses_a_non_integer_map_entry_before_a_non_bijection():
    with pytest.raises(NotBijectiveHom, match=r"^map entry 2\.0 is not an integer$"):
        twisted_count([[0, 1, 2], [1, 2, 0], [2, 0, 1]], [0, 0, 2.0])


def test_twisted_accepts_an_int_subclass_map_entry():
    class Index(int):
        pass

    assert twisted_count([[0, 1], [1, 0]], [Index(0), Index(1)]) == 2


def test_twisted_rejects_loop_with_indivisible_burnside_sum():
    # an order-5 loop: identity and inverses exist but it is not associative,
    # and its fixed-point sum 19 is not a multiple of 5
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(BadGroupTable, match="sum 19 is not divisible by the order 5"):
        twisted_count(loop, list(range(5)))


def normalized_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    rows = list(itertools.permutations(range(n)))
    squares = [[list(range(n))]]
    for first in range(1, n):
        squares = [
            square + [list(row)]
            for square in squares
            for row in rows
            if row[0] == first
            and all(row[c] != prev[c] for prev in square for c in range(n))
        ]
    return squares


def is_associative(table):
    n = len(table)
    return all(
        table[table[x][g]][y] == table[x][table[g][y]]
        for x in range(n)
        for g in range(n)
        for y in range(n)
    )


def test_twisted_refuses_every_non_associative_loop_of_order_five():
    squares = normalized_latin_squares(5)
    assert len(squares) == 56
    loops = [t for t in squares if not is_associative(t)]
    assert len(loops) == 50
    messages = []
    for loop in loops:
        with pytest.raises(BadGroupTable) as info:
            twisted_count(loop, list(range(5)))
        messages.append(str(info.value))
    late = [m for m in messages if m.startswith("table is not associative at")]
    assert len(late) == 24
    # the other 26 fail the Burnside divisibility check first
    early = [m for m in messages if m not in late]
    assert all(m.endswith("is not divisible by the order 5") for m in early)
    # the six associative ones are Z_5 under relabelings fixing 0
    for group in (t for t in squares if is_associative(t)):
        assert twisted_count(group, list(range(5))) == 5


def test_twisted_names_a_failing_triple():
    # its fixed-point sum 15 is a multiple of 5, so only associativity fails
    loop = [
        [0, 1, 2, 3, 4],
        [1, 4, 3, 2, 0],
        [2, 3, 4, 0, 1],
        [3, 0, 1, 4, 2],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(BadGroupTable) as info:
        twisted_count(loop, list(range(5)))
    pattern = r"table is not associative at \((\d), (\d), (\d)\)"
    triple = re.fullmatch(pattern, str(info.value))
    x, g, y = map(int, triple.groups())
    assert loop[loop[x][g]][y] != loop[x][loop[g][y]]


def test_cyclic_group_table_rejects_order_zero():
    with pytest.raises(BadGroupTable, match="at least 1, got 0"):
        cyclic_group_table(0)


def test_cyclic_group_table_refuses_order_above_cap_before_allocating():
    n = DEFAULT_GROUP_CAP + 1
    tracemalloc.start()
    try:
        with pytest.raises(GroupTooLarge, match=f"order {n} exceeds cap"):
            cyclic_group_table(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**5  # the n x n table would take over 100 MB


def test_symmetric_group_table_refuses_degree_above_cap_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(GroupTooLarge, match="group exceeds 2000 elements"):
            symmetric_group_table(3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**5  # 2999 transpositions of degree 3000 take over 70 MB


def test_symmetric_group_table_of_one_point_is_trivial():
    elements, table = symmetric_group_table(1)
    assert elements == [identity_perm(1)]
    assert table == [[0]]
    assert twisted_count(table, [0]) == 1


@pytest.mark.parametrize("n", [0, -3])
def test_symmetric_group_table_rejects_degree_below_one(n):
    with pytest.raises(BadGroupTable, match=f"at least 1, got {n}"):
        symmetric_group_table(n)


def test_default_group_cap_bounds_the_table():
    # S_7 has 5040 elements: its table would hold 25 million cells
    assert DEFAULT_GROUP_CAP**2 <= 4 * 10**6
    with pytest.raises(GroupTooLarge):
        symmetric_group_table(7)


def test_twisted_group_cap():
    table = cyclic_group_table(12)
    with pytest.raises(GroupTooLarge):
        twisted_count(table, list(range(12)), cap=10)


# ------------------------------------------------------------ consistency


def test_path_and_star_presentations_agree_at_invariant_level():
    l5 = build_ln(5)
    assert invariants(l5).finite_exponents == (3, 3, 3)
    c_path = commutator_presentation(l5)
    c_star = commutator_presentation(star(3, 3, 3).system)
    assert sorted(len(r) for r in c_path.presentation.relators) == sorted(
        len(r) for r in c_star.presentation.relators
    )
