"""Outputs whose size is quadratic in the rank are refused above a cap,
before any of them is built.  Every test here builds only a refused size,
in time and memory linear in the rank."""

import sys

import pytest

from oddcox import build_ln, commutator_presentation, diagram_gamma, path_system
from oddcox import core, pathgroups, system_to_json
from oddcox.cli import main
from oddcox.errors import OddCoxeterError


def test_caps_keep_every_output_up_to_rank_1000():
    # Gamma has n(n - 1)/2 edges and the path action (n - 3)(n - 1) + 2 letters
    assert 1000 * 999 // 2 <= core.MAX_GAMMA_EDGES < 1001 * 1000 // 2
    assert 998 * 1000 + 2 <= pathgroups.MAX_ACTION_LETTERS < 999 * 1001 + 2


def test_gamma_over_the_cap_is_refused():
    with pytest.raises(OddCoxeterError) as info:
        diagram_gamma(path_system([3] * 1000))
    assert info.value.slug == "output-too-large"
    assert str(info.value) == (
        "diagram Gamma of rank 1001 has 500500 edges, over the cap 500000"
    )


def test_path_commutator_action_over_the_cap_is_refused():
    with pytest.raises(OddCoxeterError) as info:
        commutator_presentation(build_ln(1003))
    assert info.value.slug == "output-too-large"
    assert str(info.value) == (
        "the path action at rank 1002 has 1000001 letters, over the cap 1000000"
    )


def test_commutator_command_refuses_a_path_over_the_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "path1002.json"
    path.write_text(system_to_json(path_system([5] * 1001)))
    monkeypatch.setattr(sys, "argv", ["oddcox", "commutator", str(path)])
    with pytest.raises(SystemExit) as exit_info:
        main()
    out, err = capsys.readouterr()
    assert exit_info.value.code == 1
    assert out == (
        "error: output-too-large: the path action at rank 1002 has 1000001 letters, "
        "over the cap 1000000\n"
    )
    assert err == ""
