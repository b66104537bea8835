"""phi(word) is spelled in one place, ``autkit._spell_phi``, which
``_spell``, ``_product`` and ``invert_factorization`` all call.

Held here to references that do not go through it: the single-generator
loop x^-1 core(g_1) ... core(g_r) x over ``_core`` (kept in
``test_star_cores``), the inverse built from that loop, and, for targets
that send a leaf to w_1 or to a reflection with a non-unit exponent, the
reduced word w_1 (w_1 w_j)^k itself.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox import AutFactorization, invert_factorization, reduce_word
from oddcox.autkit import _spell, _spell_phi
from oddcox.words import alternating, inverse_word

from conftest import star
from helpers import units
from test_star_cores import _core

LABELS = (3, 5, 7, 9, 15)


def _reference_spell(s, f, word):
    """x^-1 psi(word) x letter by letter, one ``_core`` per letter."""
    out = list(inverse_word(f.inner))
    for g in word:
        out += _core(s, f, g)
    out += f.inner
    return out


def _reference_inverse(s, f):
    """The inverse's factors: psi^-1 = graph(perm^-1) o
    exponent_product(c'), c'_g = cvec_(perm^-1(g))^-1 mod t_g, and the
    inner word the reversal of psi^-1(x), spelled by the loop above."""
    back = {j: i for i, j in zip(s.leaves, f.perm)}
    psi = AutFactorization(
        (),
        tuple(pow(f.cvec[back[g] - 2], -1, s.t_of(g)) for g in s.leaves),
        tuple(back[g] for g in s.leaves),
    )
    image = reduce_word(s.system, _reference_spell(s, psi, f.inner))
    return AutFactorization(inverse_word(image), psi.cvec, psi.perm)


@st.composite
def factored(draw):
    """A star of rank 2 to 8, factors of one of its automorphisms with an
    unreduced inner word, and a word."""
    labels = sorted(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=7)))
    s = star(*labels)
    perm = []
    for block in s.blocks:
        perm.extend(draw(st.permutations(block)))
    cvec = tuple(draw(st.sampled_from(units(s.t_of(i)))) for i in s.leaves)
    letters = st.integers(1, s.rank)
    x = tuple(draw(st.lists(letters, max_size=10)))
    word = tuple(draw(st.lists(letters, max_size=10)))
    return s, AutFactorization(x, cvec, tuple(perm)), word


@settings(max_examples=150, deadline=None)
@given(factored())
def test_phi_is_spelled_as_the_single_generator_loop(case):
    s, f, word = case
    targets = tuple(zip(f.perm, f.cvec))
    assert _spell_phi(s, targets, word) == [a for g in word for a in _core(s, f, g)]
    assert _spell(s, f, word) == _reference_spell(s, f, word)
    assert invert_factorization(s, f) == _reference_inverse(s, f)


@st.composite
def endomorphism_targets(draw):
    """A star of rank 2 to 8, a target per leaf, None or (j, k) with
    0 < k < t_j for any leaf j, and a word."""
    labels = sorted(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=7)))
    s = star(*labels)
    targets = []
    for _ in s.leaves:
        j = draw(st.sampled_from(list(s.leaves)))
        k = draw(st.integers(1, s.t_of(j) - 1))
        targets.append(draw(st.sampled_from([None, (j, k)])))
    word = tuple(draw(st.lists(st.integers(1, s.rank), max_size=10)))
    return s, tuple(targets), word


@settings(max_examples=150, deadline=None)
@given(endomorphism_targets())
def test_phi_spells_each_letter_as_its_reduced_reflection(case):
    s, targets, word = case
    expected = []
    for g in word:
        target = None if g == 1 else targets[g - 2]
        if target is None:
            expected.append((1,))
        else:
            j, k = target
            expected.append(reduce_word(s.system, (1,) + alternating(1, j, 2 * k)))
    assert _spell_phi(s, targets, word) == [a for core in expected for a in core]
