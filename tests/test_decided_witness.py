"""The normality witness is read off the factors, and every public call
that takes factors checks them.

``normality_witness`` takes the first moved leaf i as the merge (1, i),
else the first leaf pair i < j whose exponents differ mod
d = gcd(t_i, t_j) > 1 as the merge (i, j), and certifies that one merge
alone.  Its docstring proves that every such merge separates, not only
the first; the tests below check each of them through the recomposed
images.  ``outer_key`` and ``is_inner`` validate their factors as the
other public factor calls do.
"""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from oddcox import autkit
from oddcox.autkit import (
    AutFactorization,
    Endomorphism,
    apply,
    compose,
    graph_auto,
    is_inner,
    normality_witness,
    outer_key,
    recompose,
    theta_product,
)
from oddcox.core import CoxeterSystem, merge_generators
from oddcox.errors import (
    BadThetaExponent,
    BlockViolatingPermutation,
    CertificateFailed,
    IsInnerNoWitness,
    NoMergeWitness,
    NotAutomorphism,
)
from oddcox.words import reduce_word
from conftest import star

LABELS = (3, 5, 7, 9, 15, 21, 45)


@st.composite
def factorizations(draw):
    s = star(*draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5)))
    perm = []
    for block in s.blocks:
        perm.extend(draw(st.permutations(block)))
    cvec = tuple(
        draw(st.sampled_from([k for k in range(1, t) if math.gcd(k, t) == 1]))
        for t in s.t
    )
    inner = draw(st.lists(st.integers(1, s.rank), max_size=6))
    return s, AutFactorization(tuple(inner), cvec, tuple(perm))


def candidate_merges(s, f):
    """Every moved-leaf merge (1, i), then every leaf pair whose exponents
    differ mod the gcd of their labels, or none when perm moves a leaf."""
    moved = [(1, i) for i in s.leaves if f.perm_of(i) != i]
    if moved:
        return moved
    return [
        (i, j)
        for i in s.leaves
        for j in range(i + 1, s.rank + 1)
        if (d := math.gcd(s.t_of(i), s.t_of(j))) > 1
        and f.cvec[i - 2] % d != f.cvec[j - 2] % d
    ]


@settings(max_examples=120, deadline=None)
@given(factorizations())
def test_every_candidate_merge_separates(case):
    s, f = case
    images = recompose(s, f)
    candidates = candidate_merges(s, f)
    for g in candidates:
        quotient, mapping = merge_generators(s, *g)
        image = apply(s.system, images, g)
        assert reduce_word(quotient, tuple(mapping[a - 1] for a in image)) != ()
        assert reduce_word(quotient, tuple(mapping[a - 1] for a in g)) == ()
    if candidates:
        w = normality_witness(s, f)
        assert w.g == w.merge == candidates[0]
    elif is_inner(s, f):
        with pytest.raises(IsInnerNoWitness):
            normality_witness(s, f)
    else:
        with pytest.raises(NoMergeWitness):
            normality_witness(s, f)


def test_the_witness_checks_its_factors_once(monkeypatch):
    s = star(3, 3, 5)
    f = AutFactorization(inner=(2, 1), cvec=(1, 2, 4), perm=(3, 2, 4))
    calls = []
    checked = autkit._checked

    def counting(star, f):
        calls.append(f)
        return checked(star, f)

    monkeypatch.setattr(autkit, "_checked", counting)
    assert normality_witness(s, f).merge == (1, 2)
    assert len(calls) == 1


def test_trivial_evidence_fails_the_certificate(monkeypatch):
    # a spelling that sends g into the kernel: the one merge is not
    # followed by another, it fails its certificate
    s = star(3, 3)
    f = AutFactorization(inner=(), cvec=(1, 1), perm=(3, 2))
    monkeypatch.setattr(autkit, "_spell", lambda star, f, word: list(word))
    with pytest.raises(CertificateFailed, match=re.escape("merge (1, 2)")):
        normality_witness(s, f)


def test_is_inner_and_outer_key_read_a_dict_permutation_as_a_map():
    s = star(3, 3)
    swap = AutFactorization((), (1, 1), {2: 3, 3: 2})
    assert not is_inner(s, swap)
    assert outer_key(s, swap) == ((3, 2), (1, 1))


def test_is_inner_refuses_a_permutation_of_the_wrong_size():
    s = star(3, 3)
    with pytest.raises(BlockViolatingPermutation, match="is not a permutation of the leaves"):
        is_inner(s, AutFactorization((), (1, 1), (1, 1, 1)))


def test_is_inner_refuses_too_many_exponents():
    s = star(3, 3)
    with pytest.raises(BadThetaExponent, match="^expected 2 exponents, got 3$"):
        is_inner(s, AutFactorization((), (1, 1, 1), (2, 3)))


def test_outer_key_refuses_an_exponent_past_its_label():
    s = star(3, 3)
    with pytest.raises(BadThetaExponent, match="^exponent 4 invalid for leaf 3$"):
        outer_key(s, AutFactorization((), (1, 4), (2, 3)))


def test_builders_give_the_records_recompose_gives():
    s = star(3, 3, 5, 9, 9)
    perm = {2: 3, 3: 2, 5: 6, 6: 5}
    cvec = (2, 1, 3, 4, 7)
    ones = (1,) * (s.rank - 1)
    built = [
        (graph_auto(s, perm), AutFactorization((), ones, perm)),
        (theta_product(s, cvec), AutFactorization((), cvec, tuple(s.leaves))),
    ]
    for e, f in built:
        expected = recompose(s, f)
        assert e == expected
        assert e._form == expected._form


def test_compose_refuses_records_of_two_systems():
    e1 = autkit.identity_endo(star(3, 5).system)
    e2 = autkit.identity_endo(star(3, 3).system)
    with pytest.raises(NotAutomorphism, match="^cannot compose endomorphisms of different systems$"):
        compose(e1, e2)


def test_compose_substitutes_on_a_star_with_descending_labels():
    # every edge holds generator 1, but the labels descend, so the system
    # is no canonical star and compose takes no closed form
    sys = CoxeterSystem(3, [(1, 2, 5), (1, 3, 3)])
    e1 = Endomorphism(sys, [(1,), (1, 2, 1), (3,)])
    e2 = Endomorphism(sys, [(2, 1, 2), (2,), (2, 3, 2)])
    product = compose(e1, e2)
    expected = tuple(
        reduce_word(sys, [a for letter in w for a in e1.images[letter - 1]])
        for w in e2.images
    )
    assert product.images == expected
    assert product._form is None


def test_perm_is_identity():
    assert AutFactorization((), (1, 2), (2, 3)).perm_is_identity()
    assert not AutFactorization((), (1, 2), (3, 2)).perm_is_identity()
    assert AutFactorization((), (), ()).perm_is_identity()
