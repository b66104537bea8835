"""``--budget`` and ``--format`` mean the same before a subcommand and after
it, for every registered command."""

import argparse
import json

import pytest

from oddcox import build_ln, system_to_json
from oddcox.cli import build_parser, execute
from conftest import star

# one argv per command; "{name}" is a file of the fixture below
ARGVS = [
    ["validate", "{star33}"],
    ["classify", "{star33}"],
    ["invariants", "{path53}"],
    ["canonical-star", "{path53}"],
    ["iso", "{star35}", "{path53}"],
    ["reduce", "{star3}", "2 1 2"],
    ["equal", "{star3}", "1 2 1", "2 1 2"],
    ["multiply", "{star3}", "1 2", "1 2"],
    ["ball", "{star3}", "--radius", "2"],
    ["search", "{star3}", "conjugator", "2", "1", "--radius", "3"],
    ["search", "{star3}", "centralizer", "1", "--radius", "2"],
    ["aut-verify", "{star33}", "{theta}"],
    ["aut-factorize", "{star33}", "{swap}"],
    ["aut-invert", "{star33}", "{theta}"],
    ["aut-witness", "{star33}", "{theta}"],
    ["out", "{star33}"],
    ["split", "{star33}"],
    ["commutator", "{l5}"],
    ["rs-kernel", "{l3}", "{pi3}"],
    ["ln", "build", "5"],
    ["ln", "pi", "5", "1 2 1"],
    ["ln", "pure", "5", "1 3 1 3"],
    ["ln", "witness", "5"],
    ["ln", "rank", "5", "120"],
    ["twisted", "sym", "3", "identity"],
    ["twisted", "cyc", "3", "inversion"],
    ["twisted", "sym", "3", "conj", "(1 2)"],
]
OPTIONS = [["--budget", "0"], ["--budget", "3"], ["--format", "json"]]
# commands that reduce a word or build a ball, so budget 0 refuses them
REFUSED_AT_BUDGET_0 = {"reduce", "equal", "multiply", "ball", "search"}


@pytest.fixture
def files(tmp_path):
    texts = {
        "star3": system_to_json(star(3).system),
        "star33": system_to_json(star(3, 3).system),
        "star35": system_to_json(star(3, 5).system),
        "path53": '{"rank": 3, "edges": [{"u":1,"v":2,"m":5},{"u":2,"v":3,"m":3}]}',
        "l3": system_to_json(build_ln(3)),
        "l5": system_to_json(build_ln(5)),
        "swap": '{"images": [[1],[3],[2]]}',
        "theta": '{"images": [[1],[2],[1,3,1]]}',
        "pi3": '{"degree": 3, "images": ["(1 2)", "(2 3)"]}',
    }
    out = {}
    for name, text in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        out[name] = str(path)
    return out


def _name(argv):
    return " ".join(argv[:2]) if argv[0] == "ln" else argv[0]


def test_argvs_cover_every_registered_command():
    (commands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    registered = {name for name in commands if name != "ln"}
    (ln,) = (
        action.choices
        for action in commands["ln"]._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    registered |= {f"ln {name}" for name in ln}
    assert {_name(argv) for argv in ARGVS} == registered


@pytest.mark.parametrize("option", OPTIONS, ids=" ".join)
@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_option_before_and_after_the_subcommand(files, argv, option):
    argv = [a.format(**files) for a in argv]
    head = 2 if argv[0] == "ln" else 1
    before = execute([*option, *argv])
    # right after each subcommand word, and at the end
    afters = [[*argv[:k], *option, *argv[k:]] for k in range(1, head + 1)]
    afters.append([*argv, *option])
    for after in afters:
        result = execute(after)
        assert result == before, after
    assert before.exit_code in (0, 1)
    if option == ["--format", "json"]:
        assert len(before.lines) == 1 and isinstance(json.loads(before.lines[0]), dict)
    elif option == ["--budget", "0"] and argv[0] in REFUSED_AT_BUDGET_0:
        assert before.lines == ["error: budget"]
