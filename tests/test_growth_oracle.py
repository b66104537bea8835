"""Layer sizes of ``cayley_ball`` against Steinberg's growth series."""

import pytest

from oddcox import cayley_ball, validate_system
from conftest import star
from growth_oracle import layer_sizes
from test_engine_oracle import PATH_3333, SYSTEMS


def _layers(ball) -> list:
    counts = [0] * (ball.radius + 1)
    for w in ball.elements:
        counts[len(w)] += 1
    return counts


# the two balls of the ball_growth benchmark, with their element counts
BENCHMARK_BALLS = [
    pytest.param(PATH_3333, 8, 80_826, id="path 3.3.3.3 r8"),
    pytest.param(star(3, 3, 5, 7, 9).system, 6, 22_278, id="star 3,3,5,7,9 r6"),
]


@pytest.mark.parametrize("sys, radius, size", BENCHMARK_BALLS)
def test_benchmark_ball_layers_match_growth_series(sys, radius, size):
    expected = layer_sizes(sys, radius)
    assert sum(expected) == size
    assert _layers(cayley_ball(sys, radius)) == expected


@pytest.mark.parametrize("name", SYSTEMS)
def test_ball_layers_match_growth_series(name):
    sys, radius = SYSTEMS[name]
    assert _layers(cayley_ball(sys, radius)) == layer_sizes(sys, radius)


@pytest.mark.parametrize("m", [3, 5, 21])
def test_growth_series_of_a_dihedral_group_is_its_length_count(m):
    # I2(m): one identity, two elements of each length 1..m-1, one of length m
    assert layer_sizes(validate_system([[1, m], [m, 1]]), m + 2) == [1] + [2] * (m - 1) + [1, 0, 0]
