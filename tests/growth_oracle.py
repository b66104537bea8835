"""Layer sizes of Cayley balls from Steinberg's growth series.

Independent of the word engine: the counts come from the rank and the
finite labels alone.  The finite parabolic subgroups W_T of an odd
Coxeter system are the trivial group, the single generators and the
finite edges (three labels >= 3 give 1/m1 + 1/m2 + 1/m3 <= 1, so no
three generators span a finite group), trees or not.  Steinberg's
formula (Humphreys, Reflection Groups and Coxeter Groups, 5.12) then
reads

    1/W(q) = 1 - rank*q/(1+q) + sum over finite edges of q^m / ((1+q)(1+q+...+q^(m-1)))

where W(q) is the growth series: its coefficient of q^r is the number
of elements of length r.  Every division is by a series with constant
term 1, so the arithmetic stays in exact integers.
"""

from __future__ import annotations


def _over(f: list, g: list, terms: int) -> list:
    """The first ``terms`` coefficients of f / g, where g[0] is 1."""
    rest = f[:terms] + [0] * (terms - len(f))
    out = []
    for k in range(terms):
        c = rest[k]
        out.append(c)
        for j in range(1, min(len(g), terms - k)):
            rest[k + j] -= c * g[j]
    return out


def layer_sizes(sys, radius: int) -> list:
    """Number of elements of each length 0..radius."""
    terms = radius + 1
    inverse = [1] + [0] * radius
    for k, c in enumerate(_over([0, 1], [1, 1], terms)):
        inverse[k] -= sys.rank * c
    for _, _, m in sys.finite_pairs():
        # (1+q)(1+q+...+q^(m-1)): one element of length 0 and of length m,
        # two of each length between
        dihedral = [1] + [2] * (m - 1) + [1]
        for k, c in enumerate(_over([0] * m + [1], dihedral, terms)):
            inverse[k] += c
    return _over([1], inverse, terms)
