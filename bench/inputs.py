"""Seeded inputs for the four workloads.

Pure Python with no oddcox import: the same seed gives the same inputs,
and generating them is never part of a timed phase.  Systems are written
in the oddcox file format so that loading them exercises the library's
own parser.  Per-cycle inputs come from ``cycle_rng(seed, cycle)``, so a
run's first cycles do not depend on how long the run lasts.
"""

from __future__ import annotations

import json
import math
import random

DEFAULT_SEED = 1
PATH_LABELS = (3, 3, 3, 3)
SMALL_STAR = (3, 3, 5, 7, 9)
# star exponent multisets for aut_star; composite labels (9, 15, 21) admit
# non-coprime reflection exponents, which make non-surjective endomorphisms
AUT_STARS = {
    "r10": (3, 3, 3, 5, 5, 9, 9, 15, 21),
    "r13": (3,) * 12,
    "r33": (3,) * 8 + (5,) * 6 + (7,) * 6 + (9,) * 6 + (15,) * 6,
    "r129": (3,) * 32 + (5,) * 24 + (7,) * 24 + (9,) * 24 + (15,) * 24,
}
# one aut_star cycle: (star, operations, how many of them non-surjective)
AUT_MIX = (("r10", 4, 2), ("r13", 25, 1), ("r33", 3, 1), ("r129", 2, 0))
AUT_INNER_LENGTH = 4

REDUCE_PER_FAMILY = 60  # words per family per cycle
REDUCE_TREES = 30  # rank-12 trees, cycled through so each cycle sees all
ADVERSARIAL_KS = (4, 5, 6)

BALL_TREES = 48  # rank-8 trees; a cycle takes the next three
BALL_TREES_PER_CYCLE = 3


def cycle_rng(seed: int, cycle: int) -> random.Random:
    return random.Random(f"oddcox-bench/{seed}/{cycle}")


def system_json(rank: int, edges) -> str:
    return json.dumps(
        {"rank": rank, "edges": [{"u": u, "v": v, "m": m} for u, v, m in edges]}
    )


def path_edges(labels) -> list:
    return [(i + 1, i + 2, m) for i, m in enumerate(labels)]


def star_edges(ts) -> list:
    return [(1, i + 2, t) for i, t in enumerate(sorted(ts))]


def random_tree_edges(rng: random.Random, rank: int, labels=(3, 5, 7, 9)) -> list:
    edges = []
    for v in range(2, rank + 1):
        edges.append((rng.randint(1, v - 1), v, rng.choice(labels)))
    return edges


def random_word(rng: random.Random, rank: int, length: int) -> tuple:
    return tuple(rng.randint(1, rank) for _ in range(length))


def reduced_star_word(rng: random.Random, rank: int, length: int) -> tuple:
    """A random reduced word on a star whose labels are all at least 3.

    No letter repeats at once, and no two letters alternate for more than
    three places, so no braid move leads to a cancellation.
    """
    word: list = []
    while len(word) < length:
        g = rng.randint(1, rank)
        if word and g == word[-1]:
            continue
        if len(word) >= 3 and word[-3] == word[-1] and word[-2] == g:
            continue
        word.append(g)
    return tuple(word)


def adversarial_word(rng: random.Random, k: int) -> tuple:
    """A random spelling of (1 2 1 4 5 4)^k on the path 3.3.3.3.

    The element is reduced and has 2^(2k) braid-equivalent spellings, one
    choice per factor; its ShortLex-least form is the all-(1 2 1 4 5 4)
    spelling.  Every spelling costs the full orbit search.
    """
    word = []
    for _ in range(k):
        word += (1, 2, 1) if rng.random() < 0.5 else (2, 1, 2)
        word += (4, 5, 4) if rng.random() < 0.5 else (5, 4, 5)
    return tuple(word)


def adversarial_canon(k: int) -> tuple:
    return (1, 2, 1, 4, 5, 4) * k


# --------------------------------------------------------------- per workload


def systems(workload: str, seed: int) -> dict:
    """Name -> system file text for everything the workload loads at set-up."""
    rng = random.Random(f"oddcox-bench/{seed}/systems")
    out = {}
    if workload == "reduce_random":
        out["path"] = system_json(5, path_edges(PATH_LABELS))
        out["star"] = system_json(6, star_edges(SMALL_STAR))
        for i in range(REDUCE_TREES):
            out[f"tree{i}"] = system_json(12, random_tree_edges(rng, 12))
    elif workload == "aut_star":
        for name, ts in AUT_STARS.items():
            out[name] = system_json(len(ts) + 1, star_edges(ts))
    elif workload == "ball_growth":
        out["path"] = system_json(5, path_edges(PATH_LABELS))
        out["star"] = system_json(6, star_edges(SMALL_STAR))
        for i in range(BALL_TREES):
            out[f"tree{i}"] = system_json(8, random_tree_edges(rng, 8))
    elif workload == "cli_structure":
        files, _ = cli_files(seed)
        out = {name[: -len(".json")]: text for name, text in files.items() if _is_system(name)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def reduce_cycle(seed: int, cycle: int, ranks: dict) -> list:
    """(family, system name, word, expected canonical form or None)."""
    rng = cycle_rng(seed, cycle)
    items = []
    for _ in range(REDUCE_PER_FAMILY):
        items.append(("path", "path", random_word(rng, ranks["path"], 110), None))
        items.append(("star", "star", random_word(rng, ranks["star"], 160), None))
    for i in range(REDUCE_PER_FAMILY):
        name = f"tree{i % REDUCE_TREES}"
        items.append(("tree", name, random_word(rng, ranks[name], 160), None))
    for k in ADVERSARIAL_KS:
        items.append((f"adversarial{k}", "path", adversarial_word(rng, k), adversarial_canon(k)))
    rng.shuffle(items)
    return items


def aut_cycle(seed: int, cycle: int) -> list:
    """(star, inner word, leaf permutation, cvec, bad leaf and exponent or None).

    Leaves are 2..n in ascending exponent order, as in the canonical star.
    The endomorphism is inner(x) o graph(perm) o theta(cvec); with a bad
    leaf, that leaf's theta exponent is replaced by a non-coprime one,
    which gives a verified endomorphism that is not onto.
    """
    rng = cycle_rng(seed, cycle)
    items = []
    for name, count, nonsurjective in AUT_MIX:
        ts = sorted(AUT_STARS[name])
        rank = len(ts) + 1
        blocks: dict = {}
        for leaf, t in enumerate(ts, start=2):
            blocks.setdefault(t, []).append(leaf)
        for slot in range(count):
            x = reduced_star_word(rng, rank, AUT_INNER_LENGTH)
            perm = [0] * len(ts)
            for block in blocks.values():
                images = list(block)
                rng.shuffle(images)
                for leaf, image in zip(block, images):
                    perm[leaf - 2] = image
            cvec = []
            for t in ts:
                cvec.append(rng.choice([k for k in range(1, t) if math.gcd(k, t) == 1]))
            bad = None
            if slot < nonsurjective:
                composite = [leaf for leaf, t in enumerate(ts, start=2) if t in (9, 15, 21)]
                leaf = rng.choice(composite) if composite else rng.randint(2, rank)
                t = ts[leaf - 2]
                bad = (leaf, rng.choice([k for k in range(0, t) if math.gcd(k, t) > 1]))
            items.append((name, x, tuple(perm), tuple(cvec), bad))
    return items


def ball_cycle(seed: int, cycle: int) -> list:
    """(kind, system name, radius, search words) for one ball_growth cycle."""
    rng = cycle_rng(seed, cycle)
    items = [("ball", "path", 8, None), ("ball", "star", 6, None)]
    for j in range(BALL_TREES_PER_CYCLE):
        items.append(("ball", f"tree{(BALL_TREES_PER_CYCLE * cycle + j) % BALL_TREES}", 4, None))
    s = rng.randint(1, 5)
    items.append(("centralizer", "path", 6, ((s,), None)))
    i = rng.randint(1, 5)
    j = rng.choice([v for v in range(1, 6) if 1 <= abs(v - i) <= 2])
    items.append(("conjugator", "path", 6, ((i,), (j,))))
    return items


def _is_system(filename: str) -> bool:
    return filename.endswith(".json") and not filename.startswith(("hom", "endo"))


def cli_files(seed: int):
    """Files the CLI commands read, and the command mix of one cycle.

    Returns (filename -> text, list of argv).  The quickest commands, which
    cost little beyond interpreter start, run four times per cycle with
    different seeded arguments; the other light commands run twice and
    the heavy structure commands once.  The counts place the median and
    the p70 inside groups of commands with similar times.
    """
    rng = random.Random(f"oddcox-bench/{seed}/cli")
    files = {
        "path.json": system_json(5, path_edges(PATH_LABELS)),
        "star.json": system_json(6, star_edges(SMALL_STAR)),
        "bigstar.json": system_json(129, star_edges(AUT_STARS["r129"])),
        "ln5.json": system_json(4, path_edges((3,) * 3)),
        "ln6.json": system_json(5, path_edges((3,) * 4)),
    }
    for n in (5, 6):
        images = [f"({i} {i + 1})" for i in range(1, n)]
        files[f"hom{n}.json"] = json.dumps({"degree": n, "images": images})
    commands = []
    for copy in range(4):
        tree = f"tree{copy}.json"
        files[tree] = system_json(9, random_tree_edges(rng, 9))
        shuffled = f"shuffled{copy}.json"
        files[shuffled] = _shuffled_star_json(rng, SMALL_STAR)
        endo = f"endo{copy}.json"
        files[endo] = _star_endo_json(rng, SMALL_STAR)
        w = " ".join(map(str, random_word(rng, 5, 16)))
        v = " ".join(map(str, random_word(rng, 6, 10)))
        u = " ".join(map(str, random_word(rng, 6, 10)))
        commands += [
            ["validate", tree],
            ["iso", shuffled, "star.json"],
            ["reduce", "path.json", w],
            ["multiply", "star.json", v, u],
            ["aut-factorize", "star.json", endo],
        ]
    for copy in range(2):
        commands += [
            ["split", "bigstar.json"],
            ["commutator", "star.json" if copy else "path.json"],
            ["ln", "rank", "6", "720"],
            ["ln", "witness", str(4 + copy)],
            ["out", "bigstar.json"],
            ["twisted", "sym", "5", "conj", _random_cycle_text(rng, 5)],
        ]
    commands += [
        ["rs-kernel", "ln5.json", "hom5.json"],
        ["rs-kernel", "ln6.json", "hom6.json"],
        ["twisted", "sym", "6", "conj", _random_cycle_text(rng, 6)],
    ]
    return files, commands


def _shuffled_star_json(rng: random.Random, ts) -> str:
    """The star with these labels under a random renaming of its vertices."""
    rank = len(ts) + 1
    names = list(range(1, rank + 1))
    rng.shuffle(names)
    edges = [(names[0], names[i + 1], t) for i, t in enumerate(ts)]
    return system_json(rank, edges)


def _star_endo_json(rng: random.Random, ts) -> str:
    """Images of inner(x) o theta(cvec) on the canonical star, unreduced.

    Generator g maps to x c_g x^-1, where c_1 = w_1 and a leaf i maps to
    w_1 (w_1 w_i)^k with k a unit mod t_i.
    """
    ts = sorted(ts)
    x = list(random_word(rng, len(ts) + 1, 3))
    xinv = list(reversed(x))
    images = [x + [1] + xinv]
    for leaf, t in enumerate(ts, start=2):
        k = rng.choice([k for k in range(1, t) if math.gcd(k, t) == 1])
        images.append(x + [1] + [1, leaf] * k + xinv)
    return json.dumps({"images": images})


def _random_cycle_text(rng: random.Random, n: int) -> str:
    points = rng.sample(range(1, n + 1), 3)
    return "(" + " ".join(map(str, points)) + ")"
