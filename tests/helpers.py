"""Helpers used only by the test suite: random and relabelled systems,
units mod m by enumeration, subgroups of the exponent group C, and
image-level references for the factor-space automorphism algebra of
``oddcox.autkit``."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from oddcox import (
    apply,
    compose,
    graph_auto,
    inner_auto,
    is_inner,
    merge_generators,
    recompose,
    reduce_word,
    theta_product,
)
from oddcox.core import CoxeterSystem, StarForm
from oddcox.errors import IsInnerNoWitness, MalformedInvariant, NoMergeWitness


def relabel(sys: CoxeterSystem, perm: Sequence[int]) -> CoxeterSystem:
    """System with vertices renamed by ``perm`` (perm[i-1] is the new name of i)."""
    if sorted(perm) != list(sys.generators):
        raise MalformedInvariant(f"perm must be a permutation of 1..{sys.rank}")
    edges = ((perm[i - 1], perm[j - 1], m) for i, j, m in sys.edges)
    return CoxeterSystem(sys.rank, edges)


def random_tree_system(rng, rank: int, labels: Iterable[int] = (3, 5, 7, 9)) -> CoxeterSystem:
    """Random member of the validated tree family."""
    labels = tuple(labels)
    edges = []
    for v in range(2, rank + 1):
        parent = rng.randint(1, v - 1)
        edges.append((parent, v, rng.choice(labels)))
    return CoxeterSystem(rank, edges)


def units(m: int) -> list[int]:
    """All units mod m by direct enumeration."""
    return [x for x in range(1, m) if math.gcd(x, m) == 1]


# exponent vectors ("cvecs"): tuples over the leaves, componentwise
# arithmetic mod t_i


def cvec_identity(star: StarForm) -> tuple:
    return tuple(1 for _ in star.leaves)


def cvec_minus_one(star: StarForm) -> tuple:
    return tuple(star.t_of(i) - 1 for i in star.leaves)


def cvec_mul(star: StarForm, a: Sequence[int], b: Sequence[int]) -> tuple:
    return tuple(
        (x * y) % star.t_of(i) for i, x, y in zip(star.leaves, a, b)
    )


def cvec_span(star: StarForm, generators: Sequence[Sequence[int]]) -> set:
    """Subgroup of C generated by the given cvecs, by closure."""
    span = {cvec_identity(star)}
    frontier = list(span)
    while frontier:
        new = []
        for v in frontier:
            for g in generators:
                w = cvec_mul(star, v, g)
                if w not in span:
                    span.add(w)
                    new.append(w)
        frontier = new
    return span


def reference_inverse(star: StarForm, f):
    """Inverse of inner(x^-1) o graph(perm) o exponent_product(cvec), built
    from generator images: exponent_product(cvec^-1) o graph(perm^-1) o
    inner(x)."""
    inv_perm = {f.perm_of(i): i for i in star.leaves}
    inv_cvec = [pow(f.cvec[i - 2], -1, star.t_of(i)) for i in star.leaves]
    return compose(
        theta_product(star, inv_cvec),
        compose(graph_auto(star, inv_perm), inner_auto(star, f.inner)),
    )


def reference_witness(star: StarForm, f):
    """``normality_witness`` through the recomposed images and ``apply``:
    (g, merge, evidence) of the first separating candidate."""
    if is_inner(star, f):
        raise IsInnerNoWitness("inner automorphisms preserve every normal subgroup")
    phi = recompose(star, f)
    candidates = [(1, i) for i in star.leaves if f.perm_of(i) != i]
    for i in star.leaves:
        for j in range(i + 1, star.rank + 1):
            d = math.gcd(star.t_of(i), star.t_of(j))
            if d > 1 and f.cvec[i - 2] % d != f.cvec[j - 2] % d:
                candidates.append((i, j))
    for g in candidates:
        quotient, mapping = merge_generators(star, *g)
        image = apply(star.system, phi, g)
        evidence = reduce_word(quotient, tuple(mapping[a - 1] for a in image))
        if evidence != ():
            return g, g, evidence
    raise NoMergeWitness(
        "no generator-merge quotient separates this automorphism from a normal one"
    )
