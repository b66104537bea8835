import time

import pytest

from oddcox import (
    ball_search,
    cayley_ball,
    conjugate,
    inverse_word,
    validate_system,
)
from oddcox.errors import (
    BadLetter,
    BadSearchRequest,
    BallBudgetExceeded,
    EvenOrSmallExponent,
    NegativeRadius,
)
from conftest import star
from dihedral_oracle import dihedral_model


def test_ball_examples():
    sys3 = star(3).system
    assert cayley_ball(sys3, 1).elements == ((), (1,), (2,))
    assert len(cayley_ball(sys3, 3).elements) == 6
    assert len(cayley_ball(star(3, 3).system, 2).elements) == 10


@pytest.mark.parametrize(
    "sys, size",
    [(validate_system([[1]]), 2), (star(3).system, 6)],
    ids=["rank1", "d3"],
)
def test_ball_on_a_finite_group_stops_at_its_last_layer(sys, size):
    # every layer past the longest element is empty, so a radius of 10^12
    # costs what the whole group does
    start = time.perf_counter()
    ball = cayley_ball(sys, 10**12)
    assert ball.elements == cayley_ball(sys, size).elements
    assert len(ball.elements) == size
    assert ball_search(sys, "centralizer", (), radius=10**12) == list(ball.elements)
    assert time.perf_counter() - start < 1.0


def test_ball_growth_monotone():
    sys = star(3, 3).system
    previous = set()
    for r in range(0, 5):
        current = set(cayley_ball(sys, r).elements)
        assert previous <= current
        previous = current


def test_ball_sorted_shortlex_closed_under_inverse():
    sys = star(3, 5).system
    ball = cayley_ball(sys, 4)
    ordered = sorted(ball.elements, key=lambda w: (len(w), w))
    assert list(ball.elements) == ordered
    elements = set(ball.elements)
    assert () in elements
    assert len(elements) == len(ball.elements)
    for w in ball.elements:
        assert tuple(inverse_word(w)) in elements


def test_rank2_ball_stabilizes_at_group_order():
    for m in (3, 5):
        sys = validate_system([[1, m], [m, 1]])
        assert len(cayley_ball(sys, m + 1).elements) == 2 * m
        assert len(cayley_ball(sys, m + 2).elements) == 2 * m


def test_ball_budget_cap():
    with pytest.raises(BallBudgetExceeded):
        cayley_ball(star(3, 3).system, 4, ball_budget=5)


def test_dihedral_model_orders_and_evaluation():
    assert dihedral_model(3).size == 6
    assert dihedral_model(5).size == 10
    model = dihedral_model(5)
    assert model.evaluate((1, 2, 1, 2, 1)) == model.evaluate((2, 1, 2, 1, 2))


def test_dihedral_model_is_homomorphism():
    model = dihedral_model(5)
    import itertools

    for w in itertools.product((1, 2), repeat=4):
        for v in itertools.product((1, 2), repeat=3):
            assert model.evaluate(w + v) == model.mult(
                model.evaluate(w), model.evaluate(v)
            )


def test_conjugator_search_example():
    sys = star(3).system
    hits = ball_search(sys, "conjugator", (2,), (1,), radius=3)
    assert hits
    assert len(hits[0]) == 2
    for x in hits:
        assert conjugate(sys, (2,), x) == (1,)


def test_centralizer_of_generator_is_cyclic():
    sys = star(3, 3).system
    hits = ball_search(sys, "centralizer", (1,), radius=4)
    assert hits == [(), (1,)]


def test_conjugator_identity_search_radius_zero():
    hits = ball_search(star(3).system, "conjugator", (1,), (1,), radius=0)
    assert hits == [()]


# Independent analytic oracle: a rank-3 star is the amalgam of its two
# dihedral subgroups over the center, so its length series satisfies
# 1/W(t) = 1/W1(t) + 1/W2(t) - 1/(1+t).  Layer counts of the BFS ball
# must match the series coefficients.


def _series_inverse(coeffs, degree):
    from fractions import Fraction

    coeffs = [Fraction(c) for c in coeffs]
    inv = [1 / coeffs[0]]
    for n in range(1, degree + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            c = coeffs[k] if k < len(coeffs) else Fraction(0)
            acc += c * inv[n - k]
        inv.append(-acc / coeffs[0])
    return inv


def _dihedral_series(m):
    # (1 + t) * (1 + t + ... + t^(m-1))
    base = [1] * m
    out = [0] * (m + 1)
    for i, c in enumerate(base):
        out[i] += c
        out[i + 1] += c
    return out


def _amalgam_layer_counts(t2, t3, degree):
    inverses = [
        _series_inverse(p, degree)
        for p in (_dihedral_series(t2), _dihedral_series(t3), [1, 1])
    ]
    one_over_w = [a + b - c for a, b, c in zip(*inverses)]
    return [int(c) for c in _series_inverse(one_over_w, degree)]


def test_ball_layers_match_amalgam_length_series():
    expected = {
        (3, 3): [1, 3, 6, 10, 16, 26, 42, 68],
        (3, 5): [1, 3, 6, 11, 20, 36, 64, 114],
    }
    for (t2, t3), frozen in expected.items():
        assert _amalgam_layer_counts(t2, t3, 7) == frozen
        ball = cayley_ball(star(t2, t3).system, 7)
        layers = [0] * 8
        for w in ball.elements:
            layers[len(w)] += 1
        assert layers == frozen


def test_bad_oracle_arguments_raise_named_errors():
    sys3 = star(3).system
    with pytest.raises(NegativeRadius):
        cayley_ball(sys3, -1)
    with pytest.raises(BadSearchRequest):
        ball_search(sys3, "conjugator", (1,), radius=1)
    with pytest.raises(BadSearchRequest):
        ball_search(sys3, "normalizer", (1,), radius=1)
    with pytest.raises(EvenOrSmallExponent):
        dihedral_model(4)
    with pytest.raises(BadLetter):
        dihedral_model(3).evaluate((1, 3))
