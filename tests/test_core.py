import pickle
import random
import time
import tracemalloc

import pytest

from oddcox import (
    INFINITY,
    CoxeterSystem,
    SystemInvariant,
    canonical_star,
    classify,
    decide_isomorphic,
    invariants,
    merge_generators,
    path_system,
    reduce_word,
    star_form,
    system_from_json,
    system_to_json,
    validate_system,
)
from oddcox.errors import (
    DiagonalNotOne,
    EvenOrSmallExponent,
    MalformedInvariant,
    NotAdjacentPair,
    NotInTW,
    NotStarForm,
    NotSymmetric,
    SystemFileError,
)
from conftest import star
from helpers import random_tree_system, relabel


def test_validate_smallest_odd_system():
    sys = validate_system([[1, 3], [3, 1]])
    assert sys.rank == 2
    assert sys.m(1, 2) == 3


def test_validate_rejects_even_exponent():
    with pytest.raises(EvenOrSmallExponent):
        validate_system([[1, 4], [4, 1]])


def test_validate_rank3_path_with_gap():
    sys = validate_system([[1, 3, INFINITY], [3, 1, 5], [INFINITY, 5, 1]])
    assert sys.finite_pairs() == [(1, 2, 3), (2, 3, 5)]


def test_validate_rejects_asymmetric_and_bad_diagonal():
    with pytest.raises(NotSymmetric):
        validate_system([[1, 3], [5, 1]])
    with pytest.raises(DiagonalNotOne):
        validate_system([[3, 3], [3, 1]])
    with pytest.raises(EvenOrSmallExponent):
        validate_system([[1, 1], [1, 1]])


def test_classify_star_triangle_disjoint():
    assert classify(star(3, 3).system) == classify(star(3, 3).system)
    c = classify(star(3, 3).system)
    assert (c.connected, c.tree, c.in_tw) == (True, True, True)
    triangle = validate_system(
        [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
    )
    c = classify(triangle)
    assert c.tree is False and c.in_tw is False
    two_edges = validate_system(
        [
            [1, 3, INFINITY, INFINITY],
            [3, 1, INFINITY, INFINITY],
            [INFINITY, INFINITY, 1, 3],
            [INFINITY, INFINITY, 3, 1],
        ]
    )
    c = classify(two_edges)
    assert c.connected is False and c.in_tw is False


def test_classify_rank_one_not_in_family():
    sys = validate_system([[1]])
    c = classify(sys)
    assert c.connected and c.tree and not c.in_tw


def test_invariants_examples():
    assert invariants(path_system([3, 5, 3])) == SystemInvariant(4, (3, 3, 5))
    assert invariants(star(3, 3, 3).system) == SystemInvariant(4, (3, 3, 3))
    assert invariants(validate_system([[1, 9], [9, 1]])) == SystemInvariant(2, (9,))


def test_invariants_rejects_non_family():
    with pytest.raises(NotInTW):
        invariants(validate_system([[1]]))


def test_canonical_star_blocks():
    s = canonical_star(SystemInvariant(4, (3, 3, 5)))
    assert s.t == (3, 3, 5)
    assert s.blocks == ((2, 3), (4,))
    assert s.distinct == (3, 5) and s.multiplicities == (2, 1)


def test_canonical_star_rank_two():
    s = canonical_star(SystemInvariant(2, (7,)))
    assert s.t == (7,)
    assert s.system.m(1, 2) == 7


def test_canonical_star_of_path_invariants():
    inv = invariants(path_system([3, 3, 3]))
    s = canonical_star(inv)
    assert s.t == (3, 3, 3)
    assert invariants(s.system) == inv


def test_canonical_star_rejects_malformed():
    with pytest.raises(MalformedInvariant):
        canonical_star(SystemInvariant(4, (3, 3)))
    with pytest.raises(MalformedInvariant):
        canonical_star(SystemInvariant(1, ()))


def test_decide_isomorphic_examples():
    assert decide_isomorphic(star(3, 5).system, path_system([5, 3])) is True
    assert decide_isomorphic(star(3, 3).system, star(3, 5).system) is False
    assert decide_isomorphic(star(3).system, star(5).system) is False


def test_decide_isomorphic_rejects_outside_family():
    with pytest.raises(NotInTW):
        decide_isomorphic(star(3).system, validate_system([[1]]))


def test_merge_leaf_pair_same_label():
    out, mapping = merge_generators(star(3, 3), 2, 3)
    assert invariants(out) == SystemInvariant(2, (3,))
    assert mapping == (1, 2, 2)


def test_merge_center_leaf():
    out, mapping = merge_generators(star(3, 3), 1, 2)
    assert invariants(out) == SystemInvariant(2, (3,))
    assert mapping == (1, 1, 2)


def test_merge_coprime_labels_collapses():
    out, mapping = merge_generators(star(3, 5), 2, 3)
    assert out.rank == 1
    assert mapping == (1, 1, 1)


def test_merge_rejects_bad_pair():
    with pytest.raises(NotAdjacentPair):
        merge_generators(star(3, 3), 2, 2)
    with pytest.raises(NotAdjacentPair):
        merge_generators(star(3, 3), 1, 4)


def test_merge_output_stays_in_family():
    rng = random.Random(7)
    for _ in range(40):
        ms = sorted(rng.choice((3, 5, 9, 15)) for _ in range(rng.randint(2, 4)))
        s = canonical_star(SystemInvariant(len(ms) + 1, tuple(ms)))
        i = rng.randint(1, s.rank)
        j = rng.choice([v for v in range(1, s.rank + 1) if v != i])
        out, mapping = merge_generators(s, i, j)
        assert len(mapping) == s.rank
        if out.rank >= 2:
            c = classify(out)
            assert c.in_tw
        else:
            assert out.rank == 1


def test_star_form_round_trip_and_rejections():
    s = star(3, 3, 5)
    again = star_form(s.system)
    assert again.t == s.t and again.blocks == s.blocks
    with pytest.raises(NotStarForm):
        star_form(path_system([3, 3, 3]))
    with pytest.raises(NotStarForm):
        star_form(validate_system([[1]]))


def test_json_round_trip_identity():
    rng = random.Random(11)
    for _ in range(30):
        sys = random_tree_system(rng, rng.randint(1, 6))
        again = system_from_json(system_to_json(sys))
        assert again == sys


def test_json_parse_errors_are_precise():
    with pytest.raises(SystemFileError, match=r"edges\[0\]: self-loop"):
        system_from_json('{"rank": 2, "edges": [{"u":1,"v":1,"m":3}]}')
    with pytest.raises(SystemFileError, match=r"edges\[1\]: duplicate edge 1-2"):
        system_from_json(
            '{"rank": 2, "edges": [{"u":1,"v":2,"m":3},{"u":2,"v":1,"m":5}]}'
        )
    with pytest.raises(SystemFileError, match=r"edges\[0\].m: label 4 is even"):
        system_from_json('{"rank": 2, "edges": [{"u":1,"v":2,"m":4}]}')
    with pytest.raises(SystemFileError, match=r"edges\[0\].v: vertex 9"):
        system_from_json('{"rank": 2, "edges": [{"u":1,"v":9,"m":3}]}')
    with pytest.raises(SystemFileError, match="missing field 'rank'"):
        system_from_json('{"edges": []}')


def test_isomorphism_is_equivalence_relation():
    rng = random.Random(23)
    pool = [random_tree_system(rng, rng.randint(2, 5)) for _ in range(12)]
    pool += [relabel(s, _random_perm(rng, s.rank)) for s in pool[:6]]
    for a in pool:
        assert decide_isomorphic(a, a)
        for b in pool:
            assert decide_isomorphic(a, b) == decide_isomorphic(b, a)
            for c in pool:
                if decide_isomorphic(a, b) and decide_isomorphic(b, c):
                    assert decide_isomorphic(a, c)


def _random_perm(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def test_canonical_star_preserves_invariants():
    rng = random.Random(31)
    for _ in range(25):
        sys = random_tree_system(rng, rng.randint(2, 6))
        inv = invariants(sys)
        s = canonical_star(inv)
        assert invariants(s.system) == inv


def test_merge_mapping_is_a_homomorphism():
    # the generator map must send equal words to equal quotient words
    from oddcox import equal, reduce_word

    rng = random.Random(57)
    for multiset in ((3, 3), (3, 5), (3, 3, 5), (3, 9)):
        s = star(*multiset)
        for i in range(1, s.rank + 1):
            for j in range(i + 1, s.rank + 1):
                quotient, mapping = merge_generators(s, i, j)
                for _ in range(10):
                    w = tuple(
                        rng.randint(1, s.rank) for _ in range(rng.randint(0, 8))
                    )
                    canon = reduce_word(s.system, w)
                    assert equal(
                        quotient,
                        tuple(mapping[letter - 1] for letter in w),
                        tuple(mapping[letter - 1] for letter in canon),
                    )
                merged_pair = (i, j)
                image = tuple(mapping[letter - 1] for letter in merged_pair)
                assert reduce_word(quotient, image) == ()


def _matrix(sys):
    return [[sys.m(i, j) for j in sys.generators] for i in sys.generators]


def test_every_constructor_gives_equal_systems():
    inf = INFINITY
    path = [
        validate_system([[1, 5, inf], [5, 1, 3], [inf, 3, 1]]),
        path_system([5, 3]),
        system_from_json(
            '{"rank": 3, "edges": [{"u":3,"v":2,"m":3},{"u":2,"v":1,"m":5}]}'
        ),
        relabel(path_system([3, 5]), [3, 2, 1]),
        CoxeterSystem(3, [(3, 2, 3), (1, 2, 5)]),
    ]
    star35 = [
        canonical_star(SystemInvariant(3, (5, 3))).system,
        star_form(validate_system([[1, 3, 5], [3, 1, inf], [5, inf, 1]])).system,
        system_from_json(
            '{"rank": 3, "edges": [{"u":3,"v":1,"m":5},{"u":1,"v":2,"m":3}]}'
        ),
        merge_generators(star(3, 5, 7), 1, 4)[0],
        merge_generators(star(3, 5, 15), 3, 4)[0],
    ]
    for group in (path, star35):
        for a in group:
            assert a == group[0] and hash(a) == hash(group[0])
            assert a.edges == group[0].edges
    assert path[0] != star35[0]
    assert path_system([5, 3]) != path_system([3, 5])
    assert CoxeterSystem(2) != CoxeterSystem(3)
    assert validate_system([[1]]) == CoxeterSystem(1) == merge_generators(star(3, 5), 2, 3)[0]


def test_equal_exactly_when_matrices_equal():
    rng = random.Random(13)
    pool = [random_tree_system(rng, rng.randint(1, 5), (3, 5)) for _ in range(40)]
    pool += [relabel(s, _random_perm(rng, s.rank)) for s in pool[:20]]
    for a in pool:
        again = validate_system(_matrix(a))
        assert again == a and hash(again) == hash(a)
        for b in pool:
            assert (a == b) == (_matrix(a) == _matrix(b))


def test_exponent_lookup_and_sorted_pairs():
    sys = CoxeterSystem(5, [(4, 2, 5), (1, 3, 3), (3, 2, 7)])
    assert all(sys.m(i, i) == 1 for i in sys.generators)
    assert sys.m(2, 4) == sys.m(4, 2) == 5
    assert sys.m(1, 2) == INFINITY and sys.m(5, 1) == INFINITY
    assert sys.finite_pairs() == [(1, 3, 3), (2, 3, 7), (2, 4, 5)]
    assert sys.finite_pairs() == sorted(sys.finite_pairs())
    assert isinstance(sys.finite_pairs(), list)


def test_system_is_immutable_and_picklable():
    sys = path_system([3, 5, 7])
    with pytest.raises(AttributeError):
        sys.rank = 9
    again = pickle.loads(pickle.dumps(sys))
    assert again == sys and hash(again) == hash(sys)


def test_constructor_rejects_bad_edges():
    with pytest.raises(DiagonalNotOne):
        CoxeterSystem(2, [(2, 2, 3)])
    with pytest.raises(MalformedInvariant):
        CoxeterSystem(2, [(1, 3, 3)])
    with pytest.raises(MalformedInvariant):
        CoxeterSystem(0)
    with pytest.raises(NotSymmetric):
        CoxeterSystem(3, [(1, 2, 3), (2, 1, 5)])
    with pytest.raises(EvenOrSmallExponent):
        CoxeterSystem(2, [(1, 2, 4)])
    with pytest.raises(EvenOrSmallExponent):
        CoxeterSystem(2, [(1, 2, INFINITY)])
    with pytest.raises(EvenOrSmallExponent):
        path_system([3, 1])
    assert path_system([3, INFINITY]).finite_pairs() == [(1, 2, 3)]


def test_huge_rank_file_loads_without_quadratic_memory():
    tracemalloc.start()
    try:
        sys = system_from_json('{"rank": 100000}')
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sys.rank == 100000 and sys.finite_pairs() == []
    assert sys.m(1, 99999) == INFINITY
    assert peak < 40 * 100000  # linear in the rank; rank^2 cells would be 10^10


def test_absurd_rank_file_is_rejected():
    with pytest.raises(SystemFileError):
        system_from_json('{"rank": 1000000000000}')
    assert system_from_json('{"rank": 1000000}').rank == 1000000


def test_relabel_rejects_a_non_permutation():
    sys = path_system([3, 3, 3])
    for perm in ([1, 2, 4, 1], [1, 2, 3], [1, 2, 3, 5], [2, 2, 3, 4]):
        with pytest.raises(MalformedInvariant):
            relabel(sys, perm)
    assert relabel(sys, [4, 3, 2, 1]) == sys


def test_rank_ten_thousand_star_reduces_quickly():
    # the target is 50 ms on a desk machine; the bound leaves room for slow hosts
    start = time.perf_counter()
    s = canonical_star(SystemInvariant(10_000, (3,) * 9_999))
    canon = reduce_word(s.system, (1, 2, 1, 5, 7, 3, 1, 3, 9, 9))
    elapsed = time.perf_counter() - start
    assert canon == (1, 2, 1, 5, 7, 1, 3, 1)
    assert elapsed < 2.0
