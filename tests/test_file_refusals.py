"""Each refusal of a malformed input file, with its slug and detail.

A refusal the CLI can reach goes through ``cli.execute`` on files written
for the case; the rest are direct calls."""

import pytest

from oddcox import CoxeterSystem, make_endo, path_system, system_to_json
from oddcox import pathgroups
from oddcox.cli import execute
from oddcox.errors import OddCoxeterError

BAD_JSON = (
    "invalid JSON: Expecting property name enclosed in double quotes: "
    "line 1 column 2 (char 1)"
)

# (command, the text of the file it reads last, slug, detail)
CLI_CASES = [
    ("validate", "{bad", "bad-system-file", BAD_JSON),
    ("validate", "[1]", "bad-system-file", "top level must be an object"),
    ("validate", '{"rank": 0}', "bad-system-file", "'rank' must be a positive integer"),
    (
        "validate",
        '{"rank": 2, "edges": {}}',
        "bad-system-file",
        "'edges' must be an array",
    ),
    (
        "validate",
        '{"rank": 2, "edges": [1]}',
        "bad-system-file",
        "edges[0]: must be an object",
    ),
    (
        "validate",
        '{"rank": 2, "edges": [{"v": 2, "m": 3}]}',
        "bad-system-file",
        "edges[0]: missing field 'u'",
    ),
    (
        "validate",
        '{"rank": 2, "edges": [{"u": 1, "m": 3}]}',
        "bad-system-file",
        "edges[0]: missing field 'v'",
    ),
    (
        "validate",
        '{"rank": 2, "edges": [{"u": 1, "v": 2}]}',
        "bad-system-file",
        "edges[0]: missing field 'm'",
    ),
    (
        "validate",
        '{"rank": 2, "edges": [{"u": 1, "v": 2, "m": 3.0}]}',
        "bad-system-file",
        "edges[0].m: must be an integer",
    ),
    (
        "validate",
        '{"rank": 2, "edges": [{"u": 3, "v": 2, "m": 3}]}',
        "bad-system-file",
        "edges[0].u: vertex 3 out of range 1..2",
    ),
    (
        "validate",
        '{"rank": 2, "edges": [{"u": 1, "v": 2, "m": 1}]}',
        "bad-system-file",
        "edges[0].m: label 1 is below 3",
    ),
    ("aut-verify", "{bad", "bad-automorphism-file", BAD_JSON),
    (
        "aut-verify",
        '{"images": 4}',
        "bad-automorphism-file",
        "'images' must be an array of words",
    ),
    (
        "aut-verify",
        '{"images": [[1], [true], [3]]}',
        "bad-automorphism-file",
        "images[1]: must be an array of integers",
    ),
    ("rs-kernel", "{bad", "bad-system-file", BAD_JSON),
    (
        "rs-kernel",
        '{"images": []}',
        "bad-system-file",
        "hom file needs fields 'degree' and 'images'",
    ),
    (
        "rs-kernel",
        '{"degree": 3, "images": ["(1 a)", "(2 3)"]}',
        "not-bijective-hom",
        "cannot parse cycle (1 a)",
    ),
    (
        "rs-kernel",
        '{"degree": 3, "images": ["(1 4)", "(2 3)"]}',
        "not-bijective-hom",
        "cycle entry 4 out of range 1..3",
    ),
    (
        "rs-kernel",
        '{"degree": 3, "images": ["(1 2)"]}',
        "not-a-homomorphism",
        "expected 2 images, got 1",
    ),
]

# the star with leaf labels 3 and 5, and L_3, the path of rank 2
STAR = CoxeterSystem(3, [(1, 2, 3), (1, 3, 5)])
L3 = path_system([3])


@pytest.mark.parametrize("command, text, slug, detail", CLI_CASES)
def test_cli_refuses_a_malformed_file(tmp_path, command, text, slug, detail):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if command == "validate":
        argv = [command, str(bad)]
    else:
        system = tmp_path / "system.json"
        system.write_text(system_to_json(STAR if command == "aut-verify" else L3))
        argv = [command, str(system), str(bad)]
    result = execute(argv)
    assert (result.exit_code, result.lines) == (1, [f"error: {slug}: {detail}"])


@pytest.mark.parametrize(
    "call, slug, detail",
    [
        (
            lambda: make_endo(STAR, [(1,)]),
            "bad-automorphism-file",
            "expected 3 generator images, got 1",
        ),
        (
            lambda: pathgroups.rs_kernel(
                L3, [pathgroups.transposition(3, 1), pathgroups.transposition(4, 2)]
            ),
            "not-a-homomorphism",
            "images act on different degrees",
        ),
        (
            lambda: pathgroups.twisted_count(pathgroups.cyclic_group_table(2), [0, 0]),
            "not-bijective-hom",
            "map is not a bijection",
        ),
    ],
    ids=["make-endo-count", "rs-kernel-degrees", "twisted-not-a-bijection"],
)
def test_library_refuses_what_the_cli_cannot_send(call, slug, detail):
    with pytest.raises(OddCoxeterError) as info:
        call()
    assert (info.value.slug, str(info.value)) == (slug, detail)
