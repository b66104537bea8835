"""Reference implementations of the path-group tools, kept for tests.

These are the straightforward versions: the Cayley-graph search and the
group table multiply ``Permutation`` objects with ``perm_mul``, the
Tietze pass re-scans every relator after each elimination, and twisted
classes are merged pair by pair in a union-find.  The library versions
must return exactly what these return.
"""

from collections import deque

from oddcox.core import CoxeterSystem
from oddcox.errors import BadGroupTable, GroupTooLarge, ImageTooLarge, NotBijectiveHom
from oddcox.pathgroups import (
    DEFAULT_GROUP_CAP,
    FinitePresentation,
    Permutation,
    identity_perm,
)
from oddcox.words import alternating


def perm_image(p, i):
    """The image of the point i under p."""
    return p.images[i - 1]


def perm_mul(p, q):
    """The product applying the left factor first: perm_mul(p, q)(x) = q(p(x))."""
    if p.degree != q.degree:
        raise NotBijectiveHom("degrees differ")
    return Permutation(
        tuple(perm_image(q, perm_image(p, i)) for i in range(1, p.degree + 1))
    )


def perm_inverse(p):
    """The permutation q with perm_mul(p, q) the identity."""
    out = [0] * p.degree
    for i in range(1, p.degree + 1):
        out[perm_image(p, i) - 1] = i
    return Permutation(tuple(out))


def simplify_limited(num_symbols, relators):
    """Drop trivial relators; kill one pinned generator per pass."""
    alive = [True] * num_symbols
    rels = [list(r) for r in relators]
    changed = True
    while changed:
        changed = False
        cleaned = []
        seen = set()
        for r in rels:
            r = [s for s in r if alive[abs(s) - 1]]
            if not r:
                continue
            key = tuple(r)
            if key in seen:
                continue
            seen.add(key)
            cleaned.append(r)
        rels = cleaned
        for r in rels:
            if len(r) == 1:
                alive[abs(r[0]) - 1] = False
                changed = True
                break
    renumber = {}
    for idx, ok in enumerate(alive):
        if ok:
            renumber[idx + 1] = len(renumber) + 1
    out = []
    seen = set()
    for r in rels:
        mapped = tuple(renumber[s] if s > 0 else -renumber[-s] for s in r)
        if mapped and mapped not in seen:
            seen.add(mapped)
            out.append(mapped)
    return FinitePresentation(len(renumber), tuple(out))


def _bfs(gens, cap, too_large):
    ident = identity_perm(gens[0].degree)
    index = {ident.images: 0}
    elements = [ident]
    tree_edge = set()
    queue = deque([0])
    while queue:
        state = queue.popleft()
        for k, g in enumerate(gens):
            nxt = perm_mul(elements[state], g)
            if nxt.images not in index:
                if len(elements) >= cap:
                    raise too_large()
                index[nxt.images] = len(elements)
                elements.append(nxt)
                tree_edge.add((state, k))
                queue.append(index[nxt.images])
    return elements, index, tree_edge


def rs_kernel(sys: CoxeterSystem, images, image_cap=10**5):
    """Reidemeister-Schreier kernel presentation; images are not validated."""
    n = sys.rank
    elements, index, tree_edge = _bfs(
        images,
        image_cap,
        lambda: ImageTooLarge(f"image group exceeds {image_cap} elements"),
    )
    table = [
        [index[perm_mul(el, images[k]).images] for k in range(n)] for el in elements
    ]
    symbol = {}
    for s in range(len(elements)):
        for k in range(n):
            if (s, k) not in tree_edge:
                symbol[(s, k)] = len(symbol) + 1
    defining = [(i, i) for i in sys.generators]
    defining += [alternating(i, j, 2 * m) for i, j, m in sys.finite_pairs()]
    relators = []
    for s in range(len(elements)):
        for rel in defining:
            out = []
            cur = s
            for letter in rel:
                if (cur, letter - 1) in symbol:
                    out.append(symbol[(cur, letter - 1)])
                cur = table[cur][letter - 1]
            relators.append(out)
    return simplify_limited(len(symbol), relators)


def perm_group_table(gens, cap):
    """Element list and table of <gens>, one Permutation product per cell."""
    if not gens:
        raise NotBijectiveHom("need at least one generator")
    elements, index, _ = _bfs(
        gens, cap, lambda: GroupTooLarge(f"group exceeds {cap} elements")
    )
    table = [[index[perm_mul(a, b).images] for b in elements] for a in elements]
    return elements, table


def first_multiplicativity_failure(table, aut):
    """First (a, b) in row-major order with aut(ab) != aut(a) aut(b)."""
    size = len(table)
    for a in range(size):
        for b in range(size):
            if aut[table[a][b]] != table[aut[a]][aut[b]]:
                return a, b
    return None


def twisted_count(table, aut, cap=DEFAULT_GROUP_CAP):
    """Orbits of x ~ g x aut(g)^-1, merged over all |G|^2 pairs (x, g)."""
    size = len(table)
    if size > cap:
        raise GroupTooLarge(f"group of order {size} exceeds cap {cap}")
    if sorted(aut) != list(range(size)):
        raise NotBijectiveHom("map is not a bijection")
    failure = first_multiplicativity_failure(table, aut)
    if failure is not None:
        raise NotBijectiveHom(f"map fails multiplicativity at {failure}")
    identity = next(
        (
            e
            for e in range(size)
            if all(table[e][x] == x == table[x][e] for x in range(size))
        ),
        None,
    )
    if identity is None:
        raise BadGroupTable("multiplication table has no identity element")
    inverse = []
    for a in range(size):
        b = next((b for b in range(size) if table[a][b] == identity), None)
        if b is None:
            raise BadGroupTable(f"element {a} has no inverse in the table")
        inverse.append(b)
    parent = list(range(size))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x in range(size):
        for g in range(size):
            rx, ry = find(x), find(table[table[g][x]][inverse[aut[g]]])
            if rx != ry:
                parent[rx] = ry
    return len({find(v) for v in range(size)})


def pi_image(n, word):
    """Product of adjacent transpositions, leftmost letter first."""
    out = identity_perm(n)
    for letter in word:
        images = list(range(1, n + 1))
        images[letter - 1], images[letter] = images[letter], images[letter - 1]
        out = perm_mul(out, Permutation(tuple(images)))
    return out
