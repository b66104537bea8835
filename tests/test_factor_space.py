"""Inverses and normality witnesses computed from the factors
(x, perm, cvec) against the image-level references in ``helpers``, the
refusal of endomorphisms of another system, and the word engine keeping
no memory between calls."""

import gc
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcox import (
    AutFactorization,
    ball_search,
    factorize,
    identity_endo,
    invert_factorization,
    normality_witness,
    recompose,
    try_invert,
    verify_endo,
)
from oddcox.errors import (
    BadThetaExponent,
    BlockViolatingPermutation,
    IsInnerNoWitness,
    NoMergeWitness,
    NotAutomorphism,
    NotSurjective,
)
from conftest import star
from helpers import reference_inverse, reference_witness
from test_engine_oracle import PATH_3333

# the r10 and r33 stars of the aut_star benchmark workload
STARS = {
    "r10": star(3, 3, 3, 5, 5, 9, 9, 15, 21),
    "r33": star(*((3,) * 8 + (5,) * 6 + (7,) * 6 + (9,) * 6 + (15,) * 6)),
}


@st.composite
def factorizations(draw):
    s = STARS[draw(st.sampled_from(sorted(STARS)))]
    inner = draw(st.lists(st.integers(1, s.rank), max_size=10))
    perm = []
    for block in s.blocks:
        perm.extend(draw(st.permutations(block)))
    cvec = []
    for i in s.leaves:
        t = s.t_of(i)
        cvec.append(draw(st.sampled_from([k for k in range(1, t) if math.gcd(k, t) == 1])))
    return s, AutFactorization(inner=tuple(inner), cvec=tuple(cvec), perm=tuple(perm))


@settings(max_examples=60, deadline=None)
@given(factorizations())
def test_inverse_factors_give_the_image_level_inverse(case):
    s, f = case
    inverse = invert_factorization(s, f)
    assert recompose(s, inverse).images == reference_inverse(s, f).images
    # inverting twice names the same map as f (the triple may differ)
    assert recompose(s, invert_factorization(s, inverse)).images == recompose(s, f).images


@settings(max_examples=60, deadline=None)
@given(factorizations())
def test_witness_matches_the_recomposed_images(case):
    s, f = case
    try:
        expected = reference_witness(s, f)
    except (IsInnerNoWitness, NoMergeWitness) as exc:
        with pytest.raises(type(exc), match=str(exc)):
            normality_witness(s, f)
        return
    w = normality_witness(s, f)
    assert (w.g, w.merge, w.evidence) == expected


def test_invert_factorization_refuses_invalid_factors():
    s = star(3, 3, 5)
    with pytest.raises(BlockViolatingPermutation):
        invert_factorization(s, AutFactorization(inner=(), cvec=(1, 1, 1), perm=(4, 3, 2)))
    with pytest.raises(BadThetaExponent):
        invert_factorization(s, AutFactorization(inner=(), cvec=(1, 1, 5), perm=(2, 3, 4)))


def test_endomorphisms_of_another_system_are_refused():
    s = star(3, 5)
    foreign = identity_endo(star(3, 5, 7).system)
    with pytest.raises(NotAutomorphism, match="different system"):
        verify_endo(s, foreign)
    message = "endomorphism belongs to a different system"
    with pytest.raises(NotAutomorphism, match=message):
        factorize(s, foreign)
    with pytest.raises(NotSurjective, match=message):
        try_invert(s, foreign)


def test_ball_search_retains_no_memory():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hits = ball_search(PATH_3333, "centralizer", (1, 2), radius=6)
        assert len(hits) == 3
        del hits
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024
