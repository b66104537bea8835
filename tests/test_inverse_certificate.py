"""``try_invert`` certifies the inverse it returns: a wrong inverse of the
factors is refused, also under ``python -O``, and every returned inverse
is a two-sided inverse under letterwise substitution."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from oddcox import autkit
from oddcox.autkit import AutFactorization, factorize, recompose, try_invert
from oddcox.errors import NotAutomorphism, NotSurjective
from oddcox.words import inverse_word
from conftest import star
from test_substitution import reference_compose, star_endos

SRC = Path(__file__).resolve().parent.parent / "src"
MESSAGE = "inverse check failed; endomorphism is not onto"

# a 3-cycle of leaves, exponents that are not their own inverses mod 5 and
# an inner word that is not an involution, so each fault below shows
FACTORS = AutFactorization(inner=(1, 2, 3), cvec=(2, 1, 3), perm=(3, 4, 2))


def exponents_not_inverted(s, g):
    return AutFactorization(
        inner=g.inner,
        cvec=tuple(pow(k, -1, s.t_of(i)) for i, k in zip(s.leaves, g.cvec)),
        perm=g.perm,
    )


def inner_not_reversed(s, g):
    return AutFactorization(inner=inverse_word(g.inner), cvec=g.cvec, perm=g.perm)


def perm_not_inverted(s, g):
    forward = {j: i for i, j in zip(s.leaves, g.perm)}
    return AutFactorization(
        inner=g.inner, cvec=g.cvec, perm=tuple(forward[i] for i in s.leaves)
    )


@pytest.mark.parametrize(
    "fault", [exponents_not_inverted, inner_not_reversed, perm_not_inverted]
)
def test_a_wrong_inverse_is_refused(monkeypatch, fault):
    s = star(5, 5, 5)
    e = recompose(s, FACTORS)
    correct = autkit.invert_factorization
    assert try_invert(s, e).images == recompose(s, correct(s, factorize(s, e))).images

    def faulty(star, f, budget=autkit.DEFAULT_ORBIT_BUDGET):
        g = correct(star, f, budget)
        wrong = fault(star, g)
        assert wrong != g
        return wrong

    monkeypatch.setattr(autkit, "invert_factorization", faulty)
    with pytest.raises(NotSurjective) as info:
        try_invert(s, e)
    assert str(info.value) == MESSAGE


OPTIMIZED_CASE = """
from oddcox import autkit, canonical_star, SystemInvariant
from oddcox.autkit import AutFactorization
from oddcox.errors import NotSurjective

s = canonical_star(SystemInvariant(4, (5, 5, 5)))
e = autkit.recompose(s, AutFactorization(inner=(1, 2, 3), cvec=(2, 1, 3), perm=(3, 4, 2)))
correct = autkit.invert_factorization


def not_inverted(star, f, budget):
    g = correct(star, f, budget)
    cvec = tuple(pow(k, -1, 5) for k in g.cvec)
    return AutFactorization(inner=g.inner, cvec=cvec, perm=g.perm)


autkit.invert_factorization = not_inverted
try:
    print(autkit.try_invert(s, e))
except NotSurjective as exc:
    print(exc)
"""


def test_inverse_certificate_holds_under_optimize_flag():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CASE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [MESSAGE]


def is_identity(e):
    return e.images == tuple((g,) for g in e.system.generators)


@settings(max_examples=80, deadline=None)
@given(star_endos())
def test_inverse_is_two_sided_under_letterwise_substitution(case):
    s, e = case
    try:
        inverse = try_invert(s, e)
    except NotSurjective as exc:
        with pytest.raises(NotAutomorphism) as info:
            factorize(s, e)
        assert str(exc) == f"endomorphism is not onto: {info.value}"
        return
    assert is_identity(reference_compose(e, inverse))
    assert is_identity(reference_compose(inverse, e))
