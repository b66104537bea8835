import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddcox import CoxeterSystem, system_from_json, system_to_json, invariants
from oddcox.cli import execute, main
from conftest import star


@pytest.fixture
def files(tmp_path):
    out = {}
    systems = {
        "star3": star(3),
        "star33": star(3, 3),
        "star35": star(3, 5),
        "l5": star(3, 3, 3),
    }
    for name, s in systems.items():
        path = tmp_path / f"{name}.json"
        path.write_text(system_to_json(s.system))
        out[name] = str(path)
    path53 = tmp_path / "path53.json"
    path53.write_text(
        '{"rank": 3, "edges": [{"u":1,"v":2,"m":5},{"u":2,"v":3,"m":3}]}'
    )
    out["path53"] = str(path53)
    swap = tmp_path / "swap.json"
    swap.write_text('{"images": [[1],[3],[2]]}')
    out["swap"] = str(swap)
    collapse = tmp_path / "collapse.json"
    collapse.write_text('{"images": [[1],[1],[1]]}')
    out["collapse"] = str(collapse)
    hom = tmp_path / "pi3.json"
    hom.write_text('{"degree": 3, "images": ["(1 2)", "(2 3)"]}')
    out["pi3"] = str(hom)
    return out


def run(argv):
    return execute(argv)


def test_iso_output(files):
    res = run(["iso", files["star35"], files["path53"]])
    assert res.exit_code == 0
    assert res.lines == ["isomorphic: true"]
    res = run(["iso", files["star33"], files["star35"]])
    assert res.lines == ["isomorphic: false"]


def test_reduce_output(files):
    res = run(["reduce", files["star3"], "2 1 2"])
    assert res.exit_code == 0
    assert res.lines == ["1 2 1", "length: 3"]


def test_out_output(files):
    res = run(["out", files["l5"]])
    assert res.exit_code == 0
    assert res.lines[0] == "out_order: 24"


@pytest.mark.parametrize(
    "edges, detail",
    [
        ([(1, 2, 3), (1, 3, 3), (2, 3, 3)], "pair (2, 3) must be unbounded in a star"),
        ([(1, 2, 5), (1, 3, 3)], "leaf exponents must be ascending"),
    ],
    ids=["triangle", "descending"],
)
def test_out_refuses_a_system_that_is_no_star_form(tmp_path, edges, detail):
    path = tmp_path / "system.json"
    path.write_text(system_to_json(CoxeterSystem(3, edges)))
    res = run(["out", str(path)])
    assert res.exit_code == 1
    assert res.lines == [f"error: not-star-form: {detail}"]


def test_validate_classify_invariants(files):
    assert run(["validate", files["star33"]]).lines[0] == "valid: true"
    lines = run(["classify", files["star33"]]).lines
    assert "in_tw: true" in lines
    lines = run(["invariants", files["path53"]]).lines
    assert lines == ["rank: 3", "exponents: 3 5"]


CLASSIFY_SYSTEMS = {
    "star": '{"rank": 3, "edges": [{"u": 1, "v": 2, "m": 3}, {"u": 1, "v": 3, "m": 5}]}',
    "triangle": (
        '{"rank": 3, "edges": [{"u": 1, "v": 2, "m": 3}, '
        '{"u": 1, "v": 3, "m": 3}, {"u": 2, "v": 3, "m": 3}]}'
    ),
    "disconnected": (
        '{"rank": 4, "edges": [{"u": 1, "v": 2, "m": 3}, {"u": 3, "v": 4, "m": 5}]}'
    ),
    "rank1": '{"rank": 1}',
}


@pytest.mark.parametrize(
    "name, connected, tree, in_tw",
    [
        ("star", "true", "true", "true"),
        ("triangle", "true", "false", "false"),
        ("disconnected", "false", "false", "false"),
        ("rank1", "true", "true", "false"),
    ],
)
def test_classify_exact_output(tmp_path, name, connected, tree, in_tw):
    path = tmp_path / f"{name}.json"
    path.write_text(CLASSIFY_SYSTEMS[name])
    res = run(["classify", str(path)])
    assert res.exit_code == 0
    assert res.lines == [
        "odd: true",
        f"connected: {connected}",
        f"tree: {tree}",
        f"in_tw: {in_tw}",
    ]
    res = run(["--format", "json", "classify", str(path)])
    assert res.exit_code == 0
    assert res.lines == [
        f'{{"odd": "true", "connected": "{connected}", '
        f'"tree": "{tree}", "in_tw": "{in_tw}"}}'
    ]


def test_canonical_star_round_trip(files):
    lines = run(["canonical-star", files["path53"]]).lines
    system_line = next(l for l in lines if l.startswith("system: "))
    reloaded = system_from_json(system_line[len("system: "):])
    assert invariants(reloaded) == invariants(
        system_from_json(open(files["path53"]).read())
    )


def test_equal_multiply(files):
    assert run(["equal", files["star3"], "1 2 1", "2 1 2"]).lines == ["equal: true"]
    res = run(["multiply", files["star3"], "1 2", "1 2"])
    assert res.lines[0] == "2 1"


def test_ball_and_search(files):
    res = run(["ball", files["star3"], "--radius", "3"])
    assert res.lines[0] == "size: 6"
    res = run(
        ["search", files["star3"], "conjugator", "2", "1", "--radius", "3"]
    )
    assert res.lines[0] == "count: 2"
    assert res.lines[1] == "witness: 2 1"


def test_aut_commands(files):
    assert run(["aut-verify", files["star33"], files["swap"]]).lines == [
        "verified: true"
    ]
    lines = run(["aut-factorize", files["star33"], files["swap"]]).lines
    assert "inner: e" in lines and "perm: (2 3)" in lines and "cvec: 1 1" in lines
    lines = run(["aut-invert", files["star33"], files["swap"]]).lines
    assert lines == ["image_1: 1", "image_2: 3", "image_3: 2"]
    lines = run(["aut-witness", files["star33"], files["swap"]]).lines
    assert lines[0] == "g: 1 2" and lines[1] == "merge: 1 2"
    res = run(["aut-factorize", files["star33"], files["collapse"]])
    assert res.exit_code == 1
    assert res.lines[0].startswith("error: not-automorphism")
    res = run(["aut-invert", files["star33"], files["collapse"]])
    assert res.exit_code == 1
    assert res.lines[0].startswith("error: not-surjective")


def test_split_and_commutator(tmp_path, files):
    assert run(["split", files["star33"]]).lines[0] == "splits: true"
    star5 = tmp_path / "star5.json"
    star5.write_text(system_to_json(star(5).system))
    assert run(["split", str(star5)]).lines == ["splits: false"]
    lines = run(["commutator", files["star35"]]).lines
    assert "relator: a2^3" in lines and "relator: a3^5" in lines


def test_rs_kernel_command(tmp_path, files):
    l3 = tmp_path / "l3.json"
    l3.write_text('{"rank": 2, "edges": [{"u":1,"v":2,"m":3}]}')
    res = run(["rs-kernel", str(l3), files["pi3"]])
    assert res.lines == ["generators: 0", "relator_count: 0"]


def test_rs_kernel_prints_every_relator(tmp_path):
    # L_4 under the sign map: degree 2, every generator sent to (1 2)
    l4 = tmp_path / "l4.json"
    l4.write_text(run(["ln", "build", "4"]).lines[-1][len("system: "):])
    sign = tmp_path / "sign.json"
    sign.write_text('{"degree": 2, "images": ["(1 2)", "(1 2)", "(1 2)"]}')
    res = run(["rs-kernel", str(l4), str(sign)])
    assert res.exit_code == 0
    assert res.lines == [
        "generators: 4",
        "relator_count: 8",
        "relator: 1 3",
        "relator: 2 4",
        "relator: 3 3 3",
        "relator: 1 4 1 4 1 4",
        "relator: 3 1",
        "relator: 4 2",
        "relator: 1 1 1",
        "relator: 3 2 3 2 3 2",
    ]


def test_ln_commands():
    assert run(["ln", "pi", "4", "1 2 1"]).lines == ["(1 3)"]
    assert run(["ln", "pure", "4", "1 3 1 3"]).lines == ["pure: true"]
    lines = run(["ln", "witness", "4"]).lines
    assert "image: (1 3 4)" in lines
    assert run(["ln", "rank", "4", "24"]).lines == ["rank: 5"]
    lines = run(["ln", "build", "4"]).lines
    assert lines[0] == "rank: 3"


def test_twisted_commands():
    assert run(["twisted", "sym", "3", "identity"]).lines == ["classes: 3"]
    assert run(["twisted", "cyc", "3", "inversion"]).lines == ["classes: 1"]
    assert run(["twisted", "sym", "3", "conj", "(1 2)"]).lines == ["classes: 3"]
    res = run(["twisted", "sym", "3", "inversion"])
    assert res.exit_code == 1
    assert res.lines[0].startswith("error: not-bijective-hom")
    res = run(["twisted", "sym", "8", "identity"])
    assert res.exit_code == 1
    assert res.lines[0].startswith("error: group-too-large")
    res = run(["twisted", "cyc", "5000", "identity"])
    assert res.exit_code == 1
    assert res.lines[0].startswith("error: group-too-large")


def test_ln_refuses_fewer_than_two_strands():
    for argv in (["ln", "pi", "-2", ""], ["ln", "pure", "0", ""], ["ln", "pure", "0", "1"]):
        res = run(argv)
        assert res.exit_code == 1
        assert res.lines == ["error: rank-too-small: the family starts at two strands"]


def test_ln_refuses_more_strands_than_a_system_file_may_have():
    from oddcox.core import MAX_FILE_RANK

    n = str(MAX_FILE_RANK + 2)
    limit = MAX_FILE_RANK + 1
    for argv in (
        ["ln", "pi", n, "1"],
        ["ln", "pure", n, "1 1"],
        ["ln", "build", n],
        ["ln", "witness", n],
        ["ln", "rank", n, "1"],
    ):
        res = run(argv)
        assert res.exit_code == 2
        assert res.lines == [f"usage: {n} strands exceed the limit {limit}"]


def test_twisted_on_the_trivial_symmetric_group():
    for aut in (["identity"], ["inversion"], ["conj", "()"]):
        assert run(["twisted", "sym", "1", *aut]).lines == ["classes: 1"]
    res = run(["twisted", "sym", "0", "identity"])
    assert res.exit_code == 1
    assert res.lines == [
        "error: bad-group-table: symmetric group degree must be at least 1, got 0"
    ]


def test_budget_flag(files):
    res = run(["--budget", "1", "reduce", files["star3"], "2 1 2"])
    assert res.exit_code == 1
    assert res.lines == ["error: budget"]
    res = run(["reduce", "--budget", "1", files["star3"], "2 1 2"])
    assert res.exit_code == 1
    assert res.lines == ["error: budget"]
    res = run(["ball", files["star33"], "--radius", "4", "--budget", "5"])
    assert res.exit_code == 1
    assert res.lines == ["error: budget"]


def test_a_budget_below_one_refuses_even_a_radius_0_ball(tmp_path):
    path = tmp_path / "path.json"
    path.write_text(system_to_json(CoxeterSystem(3, [(1, 2, 3), (2, 3, 3)])))
    for budget in ("0", "-1"):
        res = run(["--budget", budget, "ball", str(path), "--radius", "0"])
        assert (res.exit_code, res.lines) == (1, ["error: budget"])
    res = run(["--budget", "1", "ball", str(path), "--radius", "0"])
    assert (res.exit_code, res.lines[0]) == (0, "size: 1")


def test_json_format(files):
    res = run(["--format", "json", "reduce", files["star3"], "2 1 2"])
    data = json.loads(res.lines[0])
    assert data == {"word": "1 2 1", "length": 3}
    res = run(["--format", "json", "ball", files["star3"], "--radius", "1"])
    data = json.loads(res.lines[0])
    assert data["size"] == 3 and data["element"] == ["e", "1", "2"]
    res = run(["--format", "json", "--budget", "1", "reduce", files["star3"], "2 1 2"])
    assert res.exit_code == 1
    assert json.loads(res.lines[0])["error"] == "budget"


def test_witness_command_for_exponent_imbalance(tmp_path, files):
    theta = tmp_path / "theta32.json"
    theta.write_text('{"images": [[1],[2],[1,3,1]]}')
    lines = run(["aut-witness", files["star33"], str(theta)]).lines
    assert lines[0] == "g: 2 3"
    assert lines[1] == "merge: 2 3"
    assert lines[2] == "evidence: 1 2"


def test_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 2, "edges": [{"u":1,"v":2,"m":4}]}')
    res = run(["validate", str(bad)])
    assert res.exit_code == 1
    assert res.lines[0].startswith("error: bad-system-file")
    missing = tmp_path / "missing.json"
    res = run(["validate", str(missing)])
    assert res.exit_code == 1
    assert res.lines == [
        f"error: bad-system-file: cannot read {missing}: No such file or directory"
    ]
    res = run(["validate", str(tmp_path)])
    assert res.lines == [f"error: bad-system-file: cannot read {tmp_path}: Is a directory"]


def test_usage_errors(files):
    assert run(["no-such-command"]).exit_code == 2
    assert run([]).exit_code == 2
    assert run(["reduce"]).exit_code == 2
    res = run(["search", files["star3"], "conjugator", "2", "--radius", "2"])
    assert res.exit_code == 2
    assert run(["twisted", "cyc", "3", "conj", "(1 2)"]).exit_code == 2


# each must end in exactly one "error: <slug>" line and exit code 1
BAD_ARGVS = [
    ["ball", "{star3}", "--radius", "-1"],
    ["search", "{star3}", "centralizer", "1", "--radius", "-1"],
    ["search", "{star3}", "conjugator", "1", "9", "--radius", "1"],
    ["twisted", "cyc", "0", "identity"],
    ["twisted", "cyc", "-3", "identity"],
    ["twisted", "cyc", "0", "inversion"],
    ["twisted", "sym", "0", "identity"],
    ["twisted", "sym", "3", "conj", "(1 2"],
    ["reduce", "{star3}", "0"],
    ["reduce", "{star3}", "1 x"],
    ["equal", "{star3}", "1", "7"],
    ["ln", "build", "-2"],
    ["ln", "pi", "0", "1"],
    ["ln", "witness", "3"],
    ["ln", "rank", "4", "-1"],
    ["ln", "rank", "4", "0"],
    ["ln", "rank", "4", "-6"],
    ["twisted", "sym", "3", "conj", "(1 1)"],
    ["out", "{path53}"],
    ["commutator", "{triangle}"],
    ["canonical-star", "{triangle}"],
    ["validate", "{missing}"],
    ["validate", "{huge_rank}"],
    ["aut-invert", "{star33}", "{collapse}"],
    ["aut-verify", "{star33}", "{bad_letter_endo}"],
    ["rs-kernel", "{star3}", "{string_degree}"],
    ["rs-kernel", "{star3}", "{number_images}"],
    ["ball", "{star3}", "--radius", "3", "--budget", "-1"],
]


@pytest.fixture
def bad_files(tmp_path, files):
    out = dict(files)
    texts = {
        "triangle": '{"rank": 3, "edges": [{"u":1,"v":2,"m":3},'
        '{"u":2,"v":3,"m":3},{"u":1,"v":3,"m":3}]}',
        "bad_letter_endo": '{"images": [[1],[9],[2]]}',
        "string_degree": '{"degree": "3", "images": ["(1 2)", "(2 3)"]}',
        "number_images": '{"degree": 3, "images": [1, 2]}',
        "huge_rank": '{"rank": 1000000000000}',
    }
    for name, text in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        out[name] = str(path)
    out["missing"] = str(tmp_path / "missing.json")
    return out


@pytest.mark.parametrize("argv", BAD_ARGVS, ids=" ".join)
def test_bad_argv_gives_one_slug_line(argv, bad_files, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["oddcox"] + [a.format(**bad_files) for a in argv])
    with pytest.raises(SystemExit) as exit_info:
        main()
    out, err = capsys.readouterr()
    assert exit_info.value.code == 1
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in out + err


def test_bad_argv_in_a_real_process(files):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "oddcox.cli", "ball", files["star3"], "--radius", "-1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == "error: negative-radius: radius must be nonnegative, got -1\n"
    assert "Traceback" not in proc.stderr
