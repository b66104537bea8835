import itertools
import random

import pytest

from oddcox import (
    CoxeterSystem,
    alternating,
    conjugate,
    dihedral_log,
    cayley_ball,
    equal,
    format_word,
    inverse_word,
    involution_to_base,
    left_descents,
    multiply,
    parse_word,
    reduce_word,
    support,
    validate_system,
    word_length,
)
from oddcox.errors import (
    BadLetter,
    NotInParabolic,
    NotInvolution,
    OrbitBudgetExceeded,
)
from oddcox.core import path_system
from oddcox.words import check_word
from conftest import star
from dihedral_oracle import dihedral_model


def rank2(m):
    return validate_system([[1, m], [m, 1]])


def all_words(max_len, letters=(1, 2)):
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)


# ------------------------------------------------------------------ reduce


def test_reduce_cancels_square():
    assert reduce_word(star(3).system, (1, 1)) == ()


def test_reduce_picks_shortlex_least_braid_form():
    # D6 oracle: the class of (2,1,2) is {(2,1,2), (1,2,1)}; least is (1,2,1)
    sys = star(3).system
    model = dihedral_model(3)
    target = model.evaluate((2, 1, 2))
    candidates = [
        w for w in all_words(3) if model.evaluate(w) == target and len(w) == 3
    ]
    assert min(candidates) == (1, 2, 1)
    assert reduce_word(sys, (2, 1, 2)) == (1, 2, 1)


def test_reduce_dihedral_power():
    # (w1 w2)^2 equals (w1 w2)^-1 = w2 w1 in the order-3 rotation subgroup
    assert reduce_word(star(3, 5).system, (1, 2, 1, 2)) == (2, 1)


def test_reduce_is_idempotent():
    rng = random.Random(5)
    sys = star(3, 5).system
    for _ in range(60):
        w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 9)))
        canon = reduce_word(sys, w)
        assert reduce_word(sys, canon) == canon


def test_reduce_validates_letters():
    with pytest.raises(BadLetter):
        reduce_word(star(3).system, (0,))
    with pytest.raises(BadLetter):
        reduce_word(star(3).system, (1, 7))


def test_check_word_reports_the_first_bad_letter():
    sys = star(3).system
    with pytest.raises(BadLetter, match="letter True is not an integer"):
        check_word(sys, (1, True, 9))
    with pytest.raises(BadLetter, match="letter 9 out of range 1..2"):
        check_word(sys, (1, 9, "x"))
    with pytest.raises(BadLetter, match="letter 'x' is not an integer"):
        check_word(sys, [2, "x", 0])
    with pytest.raises(BadLetter, match="letter 1.0 is not an integer"):
        check_word(sys, (1.0,))

    class Letter(int):
        pass

    assert check_word(sys, iter([1, Letter(2)])) == (1, 2)
    assert check_word(sys, []) == ()


def _strip_pairs_by_deletion(word):
    w = list(word)
    idx = 0
    while idx < len(w) - 1:
        if w[idx] == w[idx + 1]:
            del w[idx : idx + 2]
            idx = max(idx - 1, 0)
        else:
            idx += 1
    return tuple(w)


def test_free_reduction_matches_deletion_reference():
    # every exponent infinite: reduction is exactly free reduction
    sys = CoxeterSystem(3, [])
    rng = random.Random(5)
    for _ in range(500):
        w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 14)))
        assert reduce_word(sys, w) == _strip_pairs_by_deletion(w)


def test_reduce_budget_cap():
    with pytest.raises(OrbitBudgetExceeded):
        reduce_word(star(3).system, (2, 1, 2), budget=1)


def _mixed_word(rng, sys, pieces):
    """Seeded pieces: a letter, an alternating run of m - 1, m or m + 1
    letters, or two runs of m letters through a common neighbour b,
    (a b a ...)(c b c ...), which cancel only by the exchange condition.
    Only ``rng.random()`` is used: its sequence is fixed across versions."""

    def pick(seq):
        return seq[int(rng.random() * len(seq))]

    hubs = [b for b in sys.generators if len(sys.neighbors(b)) > 1]
    word = []
    for _ in range(pieces):
        r = rng.random()
        if r < 0.25:
            word.append(1 + int(rng.random() * sys.rank))
        elif r < 0.5:
            a, b, m = pick(sys.finite_pairs())
            if rng.random() < 0.5:
                a, b = b, a
            word += alternating(a, b, m - 1 + int(rng.random() * 3))
        else:
            b = pick(hubs)
            row = sys.neighbors(b)
            a, c = pick(sorted(row)), pick(sorted(row))
            word += alternating(a, b, row[a]) + alternating(c, b, row[c])
    return tuple(word)


# the least budget at which each seeded word reduces: the rewrite steps
# (the input, stack-pass rewrites, exchanges and emissions not in front),
# or 0 when the first step is the only one
LEAST_BUDGETS = {
    "star": (
        star(3, 5, 7, 9).system,
        [2, 6, 4, 8, 7, 4, 2, 5, 3, 7, 4, 7, 7, 5, 5, 6, 4, 2, 9, 5],
    ),
    "path": (
        path_system((3, 3, 3, 3)),
        [0, 6, 3, 0, 8, 0, 0, 3, 3, 2, 4, 2, 0, 0, 2, 0, 4, 3, 4, 2],
    ),
}


@pytest.mark.parametrize("name", sorted(LEAST_BUDGETS))
def test_reduce_step_count_is_pinned(name):
    sys, expected = LEAST_BUDGETS[name]
    rng = random.Random(f"steps/{name}")
    for least in expected:
        word = _mixed_word(rng, sys, 5)
        canon = reduce_word(sys, word)
        assert reduce_word(sys, word, budget=least) == canon
        if least:
            with pytest.raises(
                OrbitBudgetExceeded,
                match=f"word engine exceeded {least - 1} rewrite steps",
            ):
                reduce_word(sys, word, budget=least - 1)


# ------------------------------------------------------------------- equal


def test_equal_braid_relation():
    assert equal(star(3).system, (1, 2, 1), (2, 1, 2))


def test_equal_distinct_generators():
    assert not equal(star(3).system, (1,), (2,))


def test_equal_long_braid():
    sys = validate_system([[1, 5], [5, 1]])
    assert equal(sys, (1, 2, 1, 2, 1), (2, 1, 2, 1, 2))


def test_equality_matches_dihedral_table_exhaustively():
    # all words up to length m+3 against the order-2m table
    for m in (3, 5):
        sys = rank2(m)
        model = dihedral_model(m)
        by_canon = {}
        by_value = {}
        for w in all_words(m + 3):
            canon = reduce_word(sys, w)
            value = model.evaluate(w)
            assert by_canon.setdefault(canon, value) == value
            assert by_value.setdefault(value, canon) == canon


def test_parabolic_words_agree_with_embedded_dihedral_table():
    # inside a larger star, words over {1, j} must reduce exactly as the
    # standalone dihedral group of the leaf label does
    s = star(3, 5)
    model = dihedral_model(5)
    by_canon = {}
    by_value = {}
    for w in all_words(7, letters=(1, 3)):
        canon = reduce_word(s.system, w)
        value = model.evaluate(tuple(1 if letter == 1 else 2 for letter in w))
        assert by_canon.setdefault(canon, value) == value
        assert by_value.setdefault(value, canon) == canon


# ---------------------------------------------------------------- multiply


def test_multiply_examples():
    sys = star(3).system
    assert multiply(sys, (1,), (1,)) == ()
    assert multiply(sys, (1, 2), (2, 1)) == ()
    assert multiply(sys, (1, 2), (1, 2)) == (2, 1)


def test_inverse_is_reversal():
    rng = random.Random(9)
    sys = star(3, 3).system
    for _ in range(50):
        w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 8)))
        assert multiply(sys, w, inverse_word(w)) == ()


def test_multiply_associative_sampled():
    rng = random.Random(13)
    sys = star(3, 5).system
    for _ in range(40):
        w, v, u = (
            tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 5)))
            for _ in range(3)
        )
        assert multiply(sys, multiply(sys, w, v), u) == multiply(
            sys, w, multiply(sys, v, u)
        )


def test_length_subadditive_and_parity():
    rng = random.Random(17)
    sys = star(3, 3).system
    for _ in range(60):
        w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 7)))
        v = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 7)))
        lw, lv = word_length(sys, w), word_length(sys, v)
        lwv = word_length(sys, w + v)
        assert lwv <= lw + lv
        assert (lwv - lw - lv) % 2 == 0


# --------------------------------------------------------------- conjugate


def test_conjugate_examples():
    sys = star(3, 3).system
    assert conjugate(sys, (2,), ()) == (2,)
    assert conjugate(sys, (1,), (1,)) == (1,)
    assert conjugate(star(3).system, (2,), (1,)) == (1, 2, 1)


def test_conjugate_reports_the_first_bad_letter_of_x_then_v():
    sys = star(3).system
    with pytest.raises(BadLetter, match="letter 7 out of range"):
        conjugate(sys, (9,), (1, 7, "x"))
    with pytest.raises(BadLetter, match="letter 'x' is not an integer"):
        conjugate(sys, (9,), iter([1, "x"]))
    with pytest.raises(BadLetter, match="letter 9 out of range"):
        conjugate(sys, (2, 9, 0), [2, 1])


# ----------------------------------------------------------- descents etc.


def test_left_descents_examples():
    sys = star(3).system
    assert left_descents(sys, ()) == set()
    assert left_descents(sys, (2, 1)) == {2}
    assert left_descents(sys, (1, 2, 1)) == {1, 2}


def test_support_examples():
    sys = star(3, 3).system
    assert support(sys, ()) == set()
    assert support(sys, (1, 2, 1)) == {1, 2}
    assert support(sys, (2, 1, 3)) == {1, 2, 3}


# ------------------------------------------------- involutions and logs


def test_involution_to_base_trivial():
    assert involution_to_base(star(3), (1,)) == ()


def test_involution_to_base_single_leaf():
    s = star(3)
    x = involution_to_base(s, (2,))
    assert conjugate(s.system, (2,), x) == (1,)


def test_involution_to_base_longer_involution():
    s = star(3, 3)
    v = (2, 1, 3, 1, 2)
    x = involution_to_base(s, v)
    assert conjugate(s.system, v, x) == (1,)


def test_involution_to_base_rejects_non_involutions():
    s = star(3, 3)
    with pytest.raises(NotInvolution):
        involution_to_base(s, ())
    with pytest.raises(NotInvolution):
        involution_to_base(s, (1, 2))


def test_every_ball_involution_conjugates_to_base():
    for s in (star(3, 3), star(3, 5)):
        ball = cayley_ball(s.system, 6)
        involutions = [
            w
            for w in ball.elements
            if w and reduce_word(s.system, w + w) == ()
        ]
        assert involutions
        for v in involutions:
            assert len(v) % 2 == 1  # involutions have odd length
            x = involution_to_base(s, v)
            assert conjugate(s.system, v, x) == (1,)


@pytest.mark.parametrize(
    "sys",
    [star(3, 3).system, star(3, 5, 7).system, path_system((3, 3, 3, 3))],
    ids=["star33", "star357", "path3333"],
)
def test_left_descent_shortens_a_reflection_by_two(sys):
    # every involution is a reflection t, and each left descent s != t
    # gives length(s t s) = length(t) - 2
    pairs = 0
    for v in cayley_ball(sys, 6).elements:
        if not v or reduce_word(sys, v + v) != ():
            continue
        for s in left_descents(sys, v):
            if v != (s,):
                pairs += 1
                assert len(reduce_word(sys, (s,) + v + (s,))) == len(v) - 2
    assert pairs


def test_dihedral_log_examples():
    s = star(3, 5)
    assert dihedral_log(s, 3, ()) == ("even", 0)
    assert dihedral_log(s, 3, (1,)) == ("odd", 0)
    assert dihedral_log(s, 3, (3,)) == ("odd", 1)


def test_dihedral_log_unique_over_parabolic():
    s = star(3, 5)
    t = 5
    seen = {}
    for parity, k in itertools.product(("even", "odd"), range(t)):
        word = ((1,) if parity == "odd" else ()) + alternating(1, 3, 2) * k
        out = dihedral_log(s, 3, word)
        assert out == (parity, k)
        assert out not in seen
        seen[out] = word


def test_dihedral_log_rejects_outside_parabolic():
    s = star(3, 3)
    with pytest.raises(NotInParabolic):
        dihedral_log(s, 3, (2,))
    with pytest.raises(NotInParabolic):
        dihedral_log(s, 1, (1,))


# ------------------------------------------------------------ serialization


def test_word_serialization():
    assert parse_word("1 2 1") == (1, 2, 1)
    assert parse_word("e") == ()
    assert format_word(()) == "e"
    assert format_word((1, 2, 1)) == "1 2 1"
    with pytest.raises(BadLetter):
        parse_word("1 x")
