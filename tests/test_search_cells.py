"""The Cayley search behind ``rs-kernel`` and the group tables holds each
element as a tuple of its degree points, so it is capped in points (cells)
as well as in elements.  A hom file does not bound its degree: without the
cap a 60-byte file with degree 10^12 would ask for a list of 10^12 points.
Every test here builds only a refused size, apart from the cap's own
check on L_8."""

import time
import tracemalloc

import pytest

from oddcox import CoxeterSystem, pathgroups, rs_kernel, system_to_json
from oddcox.cli import execute
from oddcox.errors import GroupTooLarge, ImageTooLarge


def test_cell_cap_keeps_l8():
    # L_8: the 40320 elements of S_8, each a tuple of 8 points
    assert 40320 * 8 <= pathgroups.MAX_SEARCH_CELLS


def test_huge_degree_is_refused_before_any_cycle_is_parsed(tmp_path):
    system = tmp_path / "l3.json"
    system.write_text(system_to_json(CoxeterSystem(2, [(1, 2, 3)])))
    hom = tmp_path / "hom.json"
    hom.write_text('{"degree": 1000000000000, "images": ["(1 2)", "(2 3)"]}')
    tracemalloc.start()
    try:
        start = time.perf_counter()
        res = execute(["rs-kernel", str(system), str(hom)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 1
    assert res.lines == [
        "error: image-too-large: 2 images of degree 1000000000000 take "
        "3000000000000 cells, over the cap 1000000"
    ]
    assert elapsed < 0.1
    assert peak < 10**6


def test_image_search_over_the_cell_cap_is_refused():
    # (1 2) and (2 3) generate S_3, but at degree 200000 only 5 of its 6
    # elements fit under the cap
    images = [pathgroups.parse_cycles(c, 200000) for c in ("(1 2)", "(2 3)")]
    with pytest.raises(ImageTooLarge) as info:
        rs_kernel(CoxeterSystem(2), images)
    assert str(info.value) == (
        "image group of degree 200000 takes at least 1200000 cells, "
        "over the cap 1000000"
    )


def test_group_table_over_the_cell_cap_is_refused():
    swap = pathgroups.parse_cycles("(1 2)", 500001)
    with pytest.raises(GroupTooLarge) as info:
        pathgroups.perm_group_table([swap])
    assert str(info.value) == (
        "group of degree 500001 takes at least 1000002 cells, over the cap 1000000"
    )
