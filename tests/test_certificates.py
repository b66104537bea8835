"""Certificates are explicit checks, so they also hold under ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddcox import pathgroups, units
from oddcox.errors import CertificateFailed
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
