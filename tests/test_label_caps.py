"""Outputs that grow with an edge label are refused above a cap, before any
of them is built.  A system file bounds no label, so without the caps a
60-byte file with m = 1000003 would spell relators a million letters
long.  Every test here builds only a refused size."""

import sys
import tracemalloc

import pytest

from oddcox import CoxeterSystem, commutator_presentation, rs_kernel, system_to_json
from oddcox import pathgroups
from oddcox.cli import main
from oddcox.errors import OutputTooLarge

BIG = 1000003


def _refusal(call) -> tuple:
    """The detail of the OutputTooLarge that ``call`` raises, and the peak
    traced allocation while it runs."""
    tracemalloc.start()
    try:
        with pytest.raises(OutputTooLarge) as info:
            call()
        return str(info.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rewrite_cap_keeps_l8():
    # L_8: 40320 cosets, rank 7 with six labels 3, so 14 + 36 letters each
    assert 40320 * (2 * 7 + 2 * 6 * 3) <= pathgroups.MAX_REWRITTEN_LETTERS


def test_commutator_relators_over_the_cap_are_refused_unbuilt():
    big = CoxeterSystem(2, [(1, 2, BIG)])
    detail, peak = _refusal(lambda: commutator_presentation(big))
    assert detail == "the relators have 1000003 letters, over the cap 1000000"
    assert peak < 10**6


def test_rs_kernel_rewrite_over_the_cap_is_refused_unbuilt():
    big = CoxeterSystem(2, [(1, 2, BIG)])
    swap = pathgroups.parse_cycles("(1 2)", 2)
    detail, peak = _refusal(lambda: rs_kernel(big, [swap, swap]))
    assert detail == (
        "rewriting the relators over 2 cosets takes 4000020 letters, "
        "over the cap 4000000"
    )
    assert peak < 10**6


@pytest.mark.parametrize(
    "command, detail",
    [
        ("commutator", "the relators have 1000003 letters, over the cap 1000000"),
        (
            "rs-kernel",
            "rewriting the relators over 2 cosets takes 4000020 letters, "
            "over the cap 4000000",
        ),
    ],
    ids=["commutator", "rs-kernel"],
)
def test_label_caps_print_one_error_line(
    tmp_path, capsys, monkeypatch, command, detail
):
    system = tmp_path / "big.json"
    system.write_text(system_to_json(CoxeterSystem(2, [(1, 2, BIG)])))
    hom = tmp_path / "hom.json"
    hom.write_text('{"degree": 2, "images": ["(1 2)", "(1 2)"]}')
    argv = ["oddcox", command, str(system)]
    if command == "rs-kernel":
        argv.append(str(hom))
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        main()
    out, err = capsys.readouterr()
    assert exit_info.value.code == 1
    assert out == f"error: output-too-large: {detail}\n"
    assert err == ""
