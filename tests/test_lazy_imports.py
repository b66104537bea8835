"""The package loads submodules on first use, and a CLI process loads only
the modules its command runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oddcox
from oddcox import system_to_json
from conftest import star

SRC = Path(__file__).resolve().parent.parent / "src"

# every name ``oddcox`` exported when its __init__ imported all submodules
OLD_EXPORTS = {
    "core": (
        "INFINITY Classification CoxeterSystem StarForm SystemInvariant "
        "canonical_star classify decide_isomorphic invariants merge_generators "
        "path_system star_form system_from_json system_to_json validate_system"
    ),
    "words": (
        "alternating conjugate dihedral_log equal format_word inverse_word "
        "involution_to_base left_descents multiply parse_word reduce_word "
        "support word_length"
    ),
    "oracle": "CayleyBall ball_search cayley_ball",
    "autkit": (
        "AutFactorization Endomorphism apply compose endo_from_json endo_to_json "
        "factorize graph_auto identity_endo inner_auto invert_factorization "
        "is_inner make_endo normality_witness recompose theta_auto theta_product "
        "try_invert verify_endo"
    ),
    "units": (
        "ComplementD OutDescriptor UnitGroupStructure c_structure out_descriptor "
        "split_inn_c unit_group"
    ),
    "pathgroups": (
        "CommutatorStructure FinitePresentation Permutation PureWitness build_ln "
        "commutator_presentation free_rank is_pure pi_image pl_witness rs_kernel "
        "twisted_count"
    ),
}
SUBMODULES = (*OLD_EXPORTS, "errors")

# run ``python -m oddcox.cli <argv>`` and print the loaded modules at exit
PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))
runpy.run_module("oddcox.cli", run_name="__main__", alter_sys=True)
"""

BASE = {"oddcox", "oddcox.core", "oddcox.errors", "oddcox.words"}


def _python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )


@pytest.fixture
def files(tmp_path):
    system = tmp_path / "star33.json"
    system.write_text(system_to_json(star(3, 3).system))
    swap = tmp_path / "swap.json"
    swap.write_text('{"images": [[1],[3],[2]]}')
    return {"star33": str(system), "swap": str(swap)}


def test_import_oddcox_loads_no_submodule():
    proc = _python("-c", "import sys, oddcox; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "oddcox" in loaded
    assert [m for m in loaded if m.startswith("oddcox.")] == []


COMMANDS = [
    (["validate", "{star33}"], "valid: true", set()),
    (["reduce", "{star33}", "2 1 2"], "1 2 1", set()),
    (["out", "{star33}"], "out_order:", {"oddcox.units"}),
    (["twisted", "sym", "4", "identity"], "classes: 5", {"oddcox.pathgroups"}),
    (["aut-factorize", "{star33}", "{swap}"], "inner:", {"oddcox.autkit"}),
]


@pytest.mark.parametrize("argv, stdout, extra", COMMANDS, ids=[c[0][0] for c in COMMANDS])
def test_cli_command_loads_only_its_modules(files, argv, stdout, extra):
    proc = _python("-c", PROBE, *(a.format(**files) for a in argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(stdout)
    loaded = set(proc.stderr.split())
    assert {m for m in loaded if m.startswith("oddcox")} == BASE | extra
    assert "fractions" not in loaded


def test_no_submodule_loads_dataclasses_or_inspect():
    # -S keeps site hooks from loading modules before the package does
    modules = ", ".join(f"oddcox.{name}" for name in (*SUBMODULES, "cli"))
    proc = _python("-S", "-c", f"import sys, {modules}; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "oddcox.cli" in loaded and "oddcox.pathgroups" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()


def test_old_exports_are_the_submodule_objects():
    for module, names in OLD_EXPORTS.items():
        sub = getattr(oddcox, module)
        assert sub.__name__ == f"oddcox.{module}"
        for name in names.split():
            assert getattr(oddcox, name) is getattr(sub, name), name
    assert oddcox.errors.RankTooSmall.slug == "rank-too-small"


def test_star_import_and_dir_list_every_export():
    expected = set(SUBMODULES)
    for names in OLD_EXPORTS.values():
        expected.update(names.split())
    namespace = {}
    exec("from oddcox import *", namespace)
    assert expected <= set(namespace)
    assert expected <= set(dir(oddcox))
    assert set(oddcox.__all__) == expected


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        oddcox.no_such_name
    assert not hasattr(oddcox, "_reduce")
    with pytest.raises(ImportError):
        exec("from oddcox import no_such_name", {})
