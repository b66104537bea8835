"""Ball sizes from the growth series, independent of the word engine.

For a Coxeter group whose finite parabolic subgroups are the trivial
group, the single generators and the finite edges of a tree diagram,
Steinberg's formula gives

    1/W(q) = 1 - rank*q/(1+q) + sum over edges of q^m / ((1+q)(1+q+...+q^(m-1)))

where W(q) is the growth series.  The number of elements of length at
most r is the sum of the first r+1 coefficients of W(q).
"""

from __future__ import annotations


def _divide(num: list, den: list, terms: int) -> list:
    """First ``terms`` coefficients of num/den; den[0] must be 1."""
    out = []
    rem = num[:terms] + [0] * (terms - len(num))
    for k in range(terms):
        c = rem[k]
        out.append(c)
        if c:
            for j in range(1, min(len(den), terms - k)):
                rem[k + j] -= c * den[j]
    return out


def ball_size(rank: int, labels, radius: int) -> int:
    """Elements of length <= radius for a tree system with these finite labels."""
    terms = radius + 1
    one_plus_q = [1, 1]
    inverse = [0] * terms
    inverse[0] = 1
    single = _divide([0, 1], one_plus_q, terms)
    for k in range(terms):
        inverse[k] -= rank * single[k]
    for m in labels:
        den = one_plus_q
        qint = [1] * m
        prod = [0] * (len(den) + len(qint) - 1)
        for i, a in enumerate(den):
            for j, b in enumerate(qint):
                prod[i + j] += a * b
        edge = _divide([0] * m + [1], prod, terms)
        for k in range(terms):
            inverse[k] += edge[k]
    growth = _divide([1], inverse, terms)
    return sum(growth)
