"""The automaton-walking Cayley ball and the pruned ball-tree search
against the reduce-and-dedup references in ``ball_oracle``, and the work
and orbit budgets of the search."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddcox import (
    ball_search,
    cayley_ball,
    conjugate,
    involution_to_base,
    left_descents,
    oracle,
    validate_system,
    words,
)
from oddcox.core import CoxeterSystem
from oddcox.errors import BallBudgetExceeded, OddCoxeterError, OrbitBudgetExceeded
from oddcox.words import alternating, inverse_word, reduce_word
from ball_oracle import reference_ball, reference_search
from conftest import star
from test_engine_certificate import odd_tree
from test_engine_oracle import PATH_3333, SYSTEMS


@pytest.mark.parametrize("name", SYSTEMS)
def test_ball_matches_reference(name):
    sys, radius = SYSTEMS[name]
    assert cayley_ball(sys, radius).elements == reference_ball(sys, radius)


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_dihedral_ball_matches_reference_past_the_order(m):
    sys = validate_system([[1, m], [m, 1]])
    for radius in range(m + 4):
        elements = cayley_ball(sys, radius).elements
        assert elements == reference_ball(sys, radius)
    assert len(elements) == 2 * m


# balls of at most about 2,000 elements
MAX_RADIUS = {1: 3, 2: 10, 3: 7, 4: 5, 5: 4, 6: 4}


@st.composite
def system_and_radius(draw):
    rank = draw(st.integers(1, 6))
    labels = st.sampled_from([None, 3, 5, 7, 9])
    edges = []
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            m = draw(labels)
            if m is not None:
                edges.append((i, j, m))
    return CoxeterSystem(rank, edges), draw(st.integers(0, MAX_RADIUS[rank]))


@settings(max_examples=100, deadline=None)
@given(system_and_radius())
def test_ball_matches_reference_on_generated_systems(case):
    sys, radius = case
    assert cayley_ball(sys, radius).elements == reference_ball(sys, radius)


# The ball's descent test looks up the key (a, s, m - 2), so the labels
# here reach far past the small ones above.
LARGE_LABELS = [3, 11, 13, 15, 21, None]


@st.composite
def large_label_system_and_radius(draw):
    rank = draw(st.integers(2, 4))
    edges = []
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            m = draw(st.sampled_from(LARGE_LABELS))
            if m is not None:
                edges.append((i, j, m))
    if rank == 2:
        # past the longest element of a finite dihedral group
        top = edges[0][2] + 2 if edges else 8
    else:
        top = 5 if rank == 3 else 4
    return CoxeterSystem(rank, edges), draw(st.integers(0, top))


@settings(max_examples=100, deadline=None)
@given(large_label_system_and_radius())
def test_ball_matches_reference_on_large_labels(case):
    sys, radius = case
    assert cayley_ball(sys, radius).elements == reference_ball(sys, radius)


def _outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except OddCoxeterError as err:
        return type(err), str(err)


@pytest.mark.parametrize(
    "sys, radius",
    [(star(3, 3).system, 4), (PATH_3333, 4), (validate_system([[1, 3], [3, 1]]), 5)],
)
def test_budget_refusals_match_reference(sys, radius):
    size = len(reference_ball(sys, radius))
    for budget in sorted({-1, 0, 1, 2, 3, size // 2, size - 1, size, size + 1}):
        for r in range(radius + 1):
            got = _outcome(lambda *a: cayley_ball(*a).elements, sys, r, budget)
            assert got == _outcome(reference_ball, sys, r, budget), (budget, r)
    with pytest.raises(BallBudgetExceeded, match=f"ball exceeded {size - 1} elements"):
        cayley_ball(sys, radius, size - 1)


def test_budget_refusals_match_reference_on_label_21():
    sys, radius = validate_system([[1, 21], [21, 1]]), 23
    size = len(reference_ball(sys, radius))
    assert size == 42
    for budget in sorted({-1, 0, 1, 2, 3, 21, size - 1, size, size + 1}):
        for r in range(radius + 1):
            got = _outcome(lambda *a: cayley_ball(*a).elements, sys, r, budget)
            assert got == _outcome(reference_ball, sys, r, budget), (budget, r)


def test_ball_makes_no_reductions(monkeypatch):
    def refuse(*args):
        raise AssertionError("cayley_ball reduced a word")

    monkeypatch.setattr(words, "_reduce", refuse)
    cayley_ball(PATH_3333, 5)


def _counted_ball(sys, radius):
    """The ball's elements and the number of ``_push`` calls it made."""
    pushes = []
    push = oracle._push

    def counting(*args):
        pushes.append(args)
        return push(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_push", counting)
        elements = cayley_ball(sys, radius).elements
    return elements, len(pushes)


def _key_sets(sys, elements, below):
    """The distinct small-root key sets of the words shorter than below,
    each state read letter by letter with ``words._push``."""
    states = {(): {}}
    for w in elements[1:]:
        if len(w) < below:
            states[w] = words._push(sys.neighbors(w[0]), states[w[1:]], w[0], 0)
    return {frozenset(state) for state in states.values()}


def _check_one_state_per_transition(sys, radius):
    elements, pushes = _counted_ball(sys, radius)
    # no more than one state per word the next layer extends
    assert pushes <= sum(1 for w in elements if 1 <= len(w) < radius)
    # at most one per (state, letter) of a frontier that is extended
    assert pushes <= sys.rank * len(_key_sets(sys, elements, radius - 1))
    return elements, pushes


@pytest.mark.parametrize(
    "sys, radius", [(PATH_3333, 6), (star(3, 5, 7).system, 5)], ids=["path", "star"]
)
def test_ball_builds_one_state_per_transition(sys, radius):
    _check_one_state_per_transition(sys, radius)


@settings(max_examples=100, deadline=None)
@given(system_and_radius())
def test_ball_builds_one_state_per_transition_on_generated_systems(case):
    _check_one_state_per_transition(*case)


def test_path_ball_at_radius_8_builds_few_states():
    elements, pushes = _check_one_state_per_transition(PATH_3333, 8)
    assert len(elements) == 80826
    assert pushes < 100


def test_no_state_outlives_a_call():
    other = star(3, 5, 7, 9).system
    assert other.rank == PATH_3333.rank
    first, second = _counted_ball(PATH_3333, 5), _counted_ball(PATH_3333, 5)
    assert first == second
    for sys, after in [(PATH_3333, other), (other, PATH_3333)]:
        cayley_ball(sys, 5)
        assert cayley_ball(after, 5).elements == reference_ball(after, 5)


@pytest.mark.parametrize("sys", [PATH_3333, star(3, 5, 7).system])
def test_left_descents_match_the_length_definition(sys):
    for w in cayley_ball(sys, 5).elements:
        for word in (w, inverse_word(w)):
            length = len(reduce_word(sys, word))
            expected = {
                s
                for s in sys.generators
                if len(reduce_word(sys, (s,) + word)) < length
            }
            assert left_descents(sys, word) == expected, word


def _involution_to_base_over_every_generator(star_, v):
    """The length descent trying every generator, least first."""
    sys = star_.system
    cur, acc = reduce_word(sys, v), ()
    while len(cur) > 1:
        s = next(
            s
            for s in sys.generators
            if len(reduce_word(sys, (s,) + cur + (s,))) == len(cur) - 2
        )
        acc, cur = (s,) + acc, reduce_word(sys, (s,) + cur + (s,))
    j = cur[0]
    shift = alternating(j, 1, 2) * ((star_.t_of(j) - 1) // 2) if j != 1 else ()
    return reduce_word(sys, shift + acc)


@pytest.mark.parametrize("exponents", [(3, 3), (3, 5, 7)])
def test_involution_to_base_takes_the_least_shortening_generator(exponents):
    s = star(*exponents)
    involutions = [
        v
        for v in cayley_ball(s.system, 6).elements
        if v and reduce_word(s.system, v + v) == ()
    ]
    assert len(involutions) > 10
    for v in involutions:
        assert involution_to_base(s, v) == _involution_to_base_over_every_generator(s, v)


SEARCHES = [
    ("centralizer", (1,), None),
    ("centralizer", (2, 3), None),
    ("centralizer", (1, 2, 1), None),
    ("conjugator", (1,), (2,)),
    ("conjugator", (2,), (3, 2, 3)),
    ("conjugator", (1, 2), (2, 1)),
    ("conjugator", (1, 3), (2, 4)),
]


@pytest.mark.parametrize("sys", [PATH_3333, star(3, 5, 7).system])
@pytest.mark.parametrize("kind, a, b", SEARCHES)
def test_search_matches_the_conjugation_form(sys, kind, a, b):
    for radius in (0, 2, 4):
        hits = ball_search(sys, kind, a, b, radius=radius)
        assert hits == reference_search(sys, kind, a, b, radius=radius)


STAR_357 = star(3, 5, 7).system


@st.composite
def random_search(draw):
    """(system, kind, a, b, radius) on the path, star(3, 5, 7) or an odd
    tree: a and b have up to 4 letters, then a third of the conjugator
    searches take b = x a x^-1 and a third a = x b x^-1, so that hits
    exist and the conjugate must shrink, not only grow, on the way to
    them.  x is a longest canonical word of the ball, so a hit may sit
    where the pruning bound is tight.  Balls stay within about 3,000
    words."""
    sys = draw(st.sampled_from([PATH_3333, STAR_357]) | odd_tree())
    word = st.lists(st.sampled_from(sys.generators), max_size=4).map(tuple)
    a, b = draw(word), draw(word)
    radius = draw(st.integers(0, 5 if sys.rank <= 5 else 4))
    if draw(st.integers(0, 3)) == 0:
        return sys, "centralizer", a, None, radius
    ball = cayley_ball(sys, radius).elements
    x = draw(st.sampled_from([w for w in ball if len(w) == len(ball[-1])]))
    built = draw(st.integers(0, 2))
    if built == 1:
        b = x + a + inverse_word(x)
    elif built == 2:
        a = x + b + inverse_word(x)
    return sys, "conjugator", a, b, radius


# a and b of different length parity: no x conjugates one to the other
@example((PATH_3333, "conjugator", (1,), (2, 3), 4))
@example((STAR_357, "conjugator", (1, 2), (3,), 4))
@example((PATH_3333, "conjugator", (), (5, 4, 5), 4))
@settings(max_examples=400, deadline=None)
@given(random_search())
def test_search_matches_the_conjugation_form_on_random_searches(case):
    sys, kind, a, b, radius = case
    hits = ball_search(sys, kind, a, b, radius=radius)
    assert hits == reference_search(sys, kind, a, b, radius=radius)


@pytest.mark.parametrize("s", PATH_3333.generators)
def test_pruning_conjugates_a_small_share_of_the_ball(monkeypatch, s):
    size = len(cayley_ball(PATH_3333, 6).elements)
    assert size == 5622
    calls = []
    for name in ("reduce_word", "conjugate"):

        def counting(*args, f=getattr(oracle, name)):
            calls.append(args)
            return f(*args)

        monkeypatch.setattr(oracle, name, counting)
    # the identity and s itself
    assert ball_search(PATH_3333, "centralizer", (s,), radius=6) == [(), (s,)]
    assert len(calls) < size // 10


@settings(max_examples=100, deadline=None)
@given(random_search())
def test_a_search_at_any_budget_answers_exactly_or_refuses(case):
    sys, kind, a, b, radius = case
    expected = ball_search(sys, kind, a, b, radius=radius)
    for budget in range(9):
        try:
            got = ball_search(sys, kind, a, b, radius=radius, orbit_budget=budget)
        except OrbitBudgetExceeded:
            continue
        assert got == expected, budget


@pytest.mark.parametrize("sys", [PATH_3333, STAR_357], ids=["path", "star"])
def test_search_builds_no_ball(monkeypatch, sys):
    def refuse(*args):
        raise AssertionError("ball_search built the ball")

    monkeypatch.setattr(oracle, "cayley_ball", refuse)
    for kind, a, b in SEARCHES:
        hits = ball_search(sys, kind, a, b, radius=4)
        assert hits == reference_search(sys, kind, a, b, radius=4)


@pytest.mark.parametrize(
    "kind, a, b, expected",
    [
        ("centralizer", (1,), None, [(), (1,)]),
        ("conjugator", (2,), (4,), [(3, 4, 2, 3), (3, 4, 2, 3, 2)]),
    ],
)
def test_path_searches_at_radius_10_answer_under_the_default_budget(kind, a, b, expected):
    # the radius-10 ball has 1,161,798 elements, past the default budget
    with pytest.raises(BallBudgetExceeded):
        cayley_ball(PATH_3333, 10)
    hits = ball_search(PATH_3333, kind, a, b, radius=10)
    assert hits == expected
    target = reduce_word(PATH_3333, a if b is None else b)
    for x in hits:
        assert conjugate(PATH_3333, a, x) == target
    short = [x for x in hits if len(x) <= 8]
    assert short == ball_search(PATH_3333, kind, a, b, radius=8)


def _walk(sys, kind, a, b, radius):
    """A search's hits and the nodes its walk built: the root and one
    node per conjugation."""
    calls = []
    conjugate_ = oracle.conjugate

    def counting(*args):
        calls.append(args)
        return conjugate_(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "conjugate", counting)
        hits = ball_search(sys, kind, a, b, radius=radius)
    return hits, 1 + len(calls)


@settings(max_examples=100, deadline=None)
@given(random_search(), st.data())
def test_a_search_at_any_ball_budget_answers_exactly_or_refuses(case, data):
    sys, kind, a, b, radius = case
    expected = reference_search(sys, kind, a, b, radius=radius)
    hits, built = _walk(sys, kind, a, b, radius)
    assert hits == expected
    size = len(reference_ball(sys, radius))
    assert built <= size
    drawn = data.draw(st.integers(0, size), label="budget")
    for budget in sorted({0, built - 1, built, drawn, size}):
        got = _outcome(ball_search, sys, kind, a, b, radius=radius, ball_budget=budget)
        # a budget below 1 has no room for the root
        if budget < built:
            refused = f"search built more than {budget} nodes"
            assert got == (BallBudgetExceeded, refused), budget
        else:
            assert got == expected, budget


@pytest.mark.parametrize("kind, a, b", SEARCHES)
def test_path_search_at_radius_8_builds_few_nodes(kind, a, b):
    # the radius-8 ball has 80,826 elements; these walks build 1,768 to
    # 3,437 nodes
    hits, built = _walk(PATH_3333, kind, a, b, 8)
    assert built < 4000
    target = reduce_word(PATH_3333, a if b is None else b)
    for x in hits:
        assert conjugate(PATH_3333, a, x) == target


@pytest.mark.parametrize("budget", [0, -1])
def test_a_budget_below_one_has_no_room_for_the_identity(budget):
    sys = PATH_3333
    with pytest.raises(BallBudgetExceeded, match=f"^ball exceeded {budget} elements$"):
        cayley_ball(sys, 0, ball_budget=budget)
    for kind, b in (("centralizer", None), ("conjugator", (1,))):
        with pytest.raises(
            BallBudgetExceeded, match=f"^search built more than {budget} nodes$"
        ):
            ball_search(sys, kind, (1,), b, radius=0, ball_budget=budget)
    assert cayley_ball(sys, 0, ball_budget=1).elements == ((),)
    assert ball_search(sys, "centralizer", (1,), radius=0, ball_budget=1) == [()]
