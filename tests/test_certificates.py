"""Certificates are explicit checks, so they also hold under ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddcox import autkit, pathgroups, units
from oddcox.errors import CertificateFailed, NotAutomorphism
from oddcox.pathgroups import pl_witness
from oddcox.units import split_inn_c

from conftest import star

SRC = Path(__file__).resolve().parent.parent / "src"

CASES = """
from oddcox import SystemInvariant, canonical_star
from oddcox.pathgroups import pl_witness
from oddcox.units import split_inn_c

for ms in ((3,), (3, 5), (5, 7), (3, 3, 7), (9, 21), (5, 9, 11)):
    print(ms, split_inn_c(canonical_star(SystemInvariant(len(ms) + 1, ms))))
for n in (4, 5):
    print(n, pl_witness(n))
"""


def _run_cases(*flags) -> str:
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CASES],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_same_results_under_optimize_flag():
    optimized = _run_cases("-O")
    assert optimized == _run_cases()
    assert optimized.count("\n") == 8


def test_split_certificate_failure_raises(monkeypatch):
    monkeypatch.setattr(units, "c_order", lambda s: 4 * s.rank)
    with pytest.raises(CertificateFailed):
        split_inn_c(star(3, 5))


def test_witness_certificate_failure_raises(monkeypatch):
    monkeypatch.setattr(pathgroups, "is_pure", lambda n, w: False)
    with pytest.raises(CertificateFailed):
        pl_witness(4)


FACTORIZE_CASES = """
from oddcox import autkit, canonical_star, identity_endo, inner_auto, SystemInvariant
from oddcox.errors import NotAutomorphism
from oddcox.words import alternating

position, to_base = autkit._dihedral_position, autkit.involution_to_base
s = canonical_star(SystemInvariant(3, (3, 5)))
autkit._dihedral_position = lambda t, u: (position(t, u)[0], t - position(t, u)[1])
try:
    print(autkit.factorize(s, identity_endo(s.system)))
except NotAutomorphism as exc:
    print(exc)
autkit._dihedral_position = position
s = canonical_star(SystemInvariant(2, (5,)))
autkit.involution_to_base = lambda star, v, budget: to_base(star, v, budget)[4:]
try:
    print(autkit.factorize(s, inner_auto(s, alternating(1, 2, 4))))
except NotAutomorphism as exc:
    print(exc)
"""


def test_factorize_certificate_holds_under_optimize_flag():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FACTORIZE_CASES],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "recomposition differs from the input on generator 2",
        "recomposition differs from the input on generator 1",
    ]


def test_factorize_refuses_a_wrong_exponent(monkeypatch):
    position = autkit._dihedral_position

    def negated(t, u):
        # t - k is still a unit, so only the recomposition check can catch it
        parity, k = position(t, u)
        return parity, t - k

    monkeypatch.setattr(autkit, "_dihedral_position", negated)
    s = star(3, 5)
    with pytest.raises(NotAutomorphism, match="differs from the input on generator 2$"):
        autkit.factorize(s, autkit.identity_endo(s.system))


def test_factorize_refuses_a_conjugator_without_its_dihedral_shift(monkeypatch):
    s = star(5)
    # e sends the center to the leaf, so the conjugator x is the shift alone
    shift = autkit.alternating(2, 1, 4)
    e = autkit.inner_auto(s, autkit.inverse_word(shift))
    assert e.images[0] == (2,)
    assert autkit.involution_to_base(s, e.images[0]) == shift
    to_base = autkit.involution_to_base

    def without_shift(star, v, budget):
        return to_base(star, v, budget)[len(shift) :]

    monkeypatch.setattr(autkit, "involution_to_base", without_shift)
    with pytest.raises(NotAutomorphism, match="differs from the input on generator 1$"):
        autkit.factorize(s, e)
