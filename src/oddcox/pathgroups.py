"""Path-presented family, symmetric-group projection, and subgroup tools.

``build_ln(n)`` is the rank n-1 path system whose consecutive generators
braid (every finite exponent is 3).  Its projection to the symmetric
group sends the i-th generator to the adjacent transposition (i, i+1);
permutations compose with the leftmost word letter acting first.  The
kernel of the projection is the pure subgroup.

Reidemeister-Schreier presentations of kernels are computed from a full
coset table over the image group's elements with a ShortLex Schreier
transversal.  Tietze simplification is limited to removing trivial
relators and eliminating generators pinned by length-1 relators; it is
one worklist pass, linear in the total relator length, whose result
equals that of re-scanning every relator after each elimination.

The coset table and the |G| x |G| group tables come from one
breadth-first search over the Cayley graph that composes image tuples
directly; a group-table row is filled along the search tree, two list
lookups per cell.  Twisted conjugacy classes on such a table are counted
by Burnside's lemma, one row-against-column comparison per element, once
Light's test over at most log2 |G| generators has shown the table
associative.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import eq, itemgetter

from .core import (
    INFINITY,
    CoxeterSystem,
    _Record,
    _is_int,
    cycle_notation,
    invariants,
    path_system,
)
from .errors import (
    BadGroupTable,
    BadIndex,
    BadLetter,
    CertificateFailed,
    GroupTooLarge,
    ImageTooLarge,
    NonIntegerResult,
    NotAHomomorphism,
    NotBijectiveHom,
    OutputTooLarge,
    RankTooSmall,
    UnsupportedShape,
)
from .words import DEFAULT_ORBIT_BUDGET, reduce_word

DEFAULT_IMAGE_CAP = 10**5
# a Cayley search holds each element as a tuple of its degree points, so it
# may hold at most this many points (cells) in all: L_8 on 8 points needs
# 40320 x 8 = 322560
MAX_SEARCH_CELLS = 10**6
# group tables are |G| x |G|, so this cap keeps one to 4 million cells
DEFAULT_GROUP_CAP = 2000
# the path action spells x_j in 2(j - 2) + 1 letters, (n - 3)(n - 1) + 2 in all
# at rank n: capped at rank 1001; the same cap bounds the commutator relators,
# each spelled m times its letter, whose labels a system file does not bound
MAX_ACTION_LETTERS = 10**6
# rs_kernel rewrites every defining relator, 2 rank + 2 (sum of labels)
# letters, over every coset: L_8 needs 40320 x 50 = 2016000 letters
MAX_REWRITTEN_LETTERS = 4 * 10**6


class Permutation(_Record):
    """Bijection of {1..n}; images[i-1] is the image of i, stored as a tuple."""

    images: tuple

    def __post_init__(self):
        images = tuple(self.images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise NotBijectiveHom(f"{self.images} is not a permutation")
        object.__setattr__(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.degree + 1))

    def __str__(self) -> str:
        return format_cycles(self)


def identity_perm(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def _check_count(n, error: type = RankTooSmall, what: str = "strand count") -> None:
    """Refuse a strand count, or a degree, that fails ``core._is_int``,
    before a comparison or a ``range`` reads it."""
    if not _is_int(n):
        raise error(f"{what} must be an integer, got {n!r}")


def transposition(n: int, i: int) -> Permutation:
    """The transposition (i i+1) of S_n, the image of path letter i."""
    _check_count(n)
    if not _is_int(i) or not 1 <= i <= n - 1:
        raise BadLetter(f"letter {i} out of range 1..{n - 1}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def format_cycles(perm: Permutation) -> str:
    return cycle_notation(perm.images)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint cycle notation like "(1 3 4)(2 5)"; "()" is the identity.

    A point may appear at most once in the whole text: "(1 1)" or
    "(1 2)(2 1)" is refused rather than read as some other permutation.
    """
    _check_count(degree, NotBijectiveHom, "degree")
    text = text.strip()
    images = list(range(1, degree + 1))
    if text in ("()", ""):
        return Permutation(tuple(images))
    if not text.startswith("(") or not text.endswith(")"):
        raise NotBijectiveHom(f"cannot parse permutation {text!r}")
    body = text[1:-1]
    used: set[int] = set()
    for chunk in body.split(")("):
        try:
            entries = [int(tok) for tok in chunk.split()]
        except ValueError as exc:
            raise NotBijectiveHom(f"cannot parse cycle ({chunk})") from exc
        if not entries:
            continue
        for v in entries:
            if not (1 <= v <= degree):
                raise NotBijectiveHom(f"cycle entry {v} out of range 1..{degree}")
            if v in used:
                raise NotBijectiveHom(f"cycle entry {v} appears twice")
            used.add(v)
        for pos, v in enumerate(entries):
            images[v - 1] = entries[(pos + 1) % len(entries)]
    return Permutation(tuple(images))


def build_ln(n: int) -> CoxeterSystem:
    """Rank n-1 path with all labels 3; rank 1 when n = 2."""
    _check_count(n)
    if n < 2:
        raise RankTooSmall("the family starts at two strands")
    return path_system([3] * (n - 2))


def symmetric_images(n: int) -> list[Permutation]:
    """Standard projection targets: generator i maps to (i, i+1) in S_n."""
    _check_count(n)
    return [transposition(n, i) for i in range(1, n)]


def pi_image(n: int, word: Sequence[int]) -> Permutation:
    """Image of a path word in S_n, leftmost letter applied first."""
    _check_count(n)
    if n < 2:
        raise RankTooSmall("the family starts at two strands")
    # Swapping positions i, i+1 of a list composes on the right with the
    # transposition, so the swaps build the inverse of the image.
    inv = list(range(1, n + 1))
    for letter in word:
        if not _is_int(letter) or not 1 <= letter <= n - 1:
            raise BadLetter(f"letter {letter} out of range 1..{n - 1}")
        inv[letter - 1], inv[letter] = inv[letter], inv[letter - 1]
    images = [0] * n
    for pos, v in enumerate(inv, start=1):
        images[v - 1] = pos
    return Permutation(tuple(images))


def is_pure(n: int, word: Sequence[int]) -> bool:
    """Does the word project to the identity permutation?"""
    return pi_image(n, word).is_identity()


class FinitePresentation(_Record):
    """Generator count plus relators as words in signed generator indices."""

    num_generators: int
    relators: tuple


class CommutatorStructure(_Record):
    """Presentation of the even-length (commutator) subgroup.

    Star form: generators a_i = w_1 w_i, relators a_i^{t_i}.
    Path form: generators x_i = y_i y_{i+1}, relators x_i^{m_i}.
    ``action`` gives the image of each generator under conjugation by the
    chosen odd generator (w_1 for stars, y_2 for paths), as a signed word.
    """

    kind: str
    presentation: FinitePresentation
    chosen_generator: int
    action: tuple
    names: tuple


def commutator_presentation(sys: CoxeterSystem) -> CommutatorStructure:
    invariants(sys)  # refuses a system outside the odd tree family
    n = sys.rank
    # the shape picks the chosen generator, the orders, the names and the
    # action; the relators and the record are the same for both shapes
    if sys._star:
        # star centered at 1
        kind, chosen = "star", 1
        orders = [sys.m(1, i) for i in range(2, n + 1)]
        names = tuple(f"a{i}" for i in range(2, n + 1))
        action = [(-g,) for g in range(1, n)]
    elif all(sys.m(i, i + 1) != INFINITY for i in range(1, n)):
        # a tree whose n - 1 edges are all (i, i + 1): the path labeled
        # consecutively
        letters = (n - 3) * (n - 1) + 2
        if letters > MAX_ACTION_LETTERS:
            raise OutputTooLarge(
                f"the path action at rank {n} has {letters} letters, "
                f"over the cap {MAX_ACTION_LETTERS}"
            )
        kind, chosen = "path", 2
        orders = [sys.m(i, i + 1) for i in range(1, n)]
        names = tuple(f"x{i}" for i in range(1, n))
        action = [(-1,), (-2,)]
        for j in range(3, n):
            prefix = tuple(range(2, j))
            action.append(prefix + (-j,) + tuple(-v for v in reversed(prefix)))
    else:
        raise UnsupportedShape(
            "commutator presentation needs a star centered at 1 or a "
            "consecutively labeled path"
        )
    letters = sum(orders)
    if letters > MAX_ACTION_LETTERS:
        raise OutputTooLarge(
            f"the relators have {letters} letters, over the cap {MAX_ACTION_LETTERS}"
        )
    return CommutatorStructure(
        kind=kind,
        presentation=FinitePresentation(
            n - 1, tuple((g,) * m for g, m in enumerate(orders, 1))
        ),
        chosen_generator=chosen,
        action=tuple(action),
        names=names,
    )


def _simplify_limited(num_symbols: int, relators: list) -> FinitePresentation:
    """Drop trivial relators; kill generators pinned by length-1 relators.

    A relator pins a symbol when that symbol is its only live letter.  A
    relator that pins s still pins s after more symbols die, so the set
    killed is the same in any order: a worklist of relators with one live
    letter finds it in time linear in the total relator length.  The
    survivors are then filtered, deduplicated (first occurrence wins) and
    renumbered.
    """
    alive = [True] * (num_symbols + 1)
    occurs = [[] for _ in range(num_symbols + 1)]
    live = []
    for idx, r in enumerate(relators):
        for s in r:
            occurs[abs(s)].append(idx)
        live.append(len(r))
    stack = [idx for idx, count in enumerate(live) if count == 1]
    while stack:
        idx = stack.pop()
        if live[idx] != 1:
            continue
        victim = next(abs(s) for s in relators[idx] if alive[abs(s)])
        alive[victim] = False
        for other in occurs[victim]:
            live[other] -= 1
            if live[other] == 1:
                stack.append(other)
    renumber = [0] * (num_symbols + 1)
    count = 0
    for sym in range(1, num_symbols + 1):
        if alive[sym]:
            count += 1
            renumber[sym] = count
    out = []
    seen = set()
    for r in relators:
        mapped = tuple(
            renumber[s] if s > 0 else -renumber[-s] for s in r if alive[abs(s)]
        )
        if mapped and mapped not in seen:
            seen.add(mapped)
            out.append(mapped)
    return FinitePresentation(count, tuple(out))


def _cayley_bfs(gens: Sequence[Permutation], cap: int, error: type, what: str):
    """Breadth-first search of the Cayley graph of <gens> from the identity.

    Returns (elements, right, tree): ``elements`` lists the group in BFS
    order as image tuples, ``right[e][k]`` is the position of
    elements[e] * gens[k], and ``tree[e]`` is the (parent, k) edge that
    first reached e (None for the identity).  Raises ``error``, naming the
    group ``what``, when a new element would pass ``cap`` elements or
    ``MAX_SEARCH_CELLS`` cells.  All gens must share one degree.
    """
    degree = gens[0].degree
    # elements x degree passes the cell cap exactly when elements passes this
    limit = MAX_SEARCH_CELLS // degree
    if limit < cap:
        detail = (
            f"{what} of degree {degree} takes at least {(limit + 1) * degree} "
            f"cells, over the cap {MAX_SEARCH_CELLS}"
        )
    else:
        limit, detail = cap, f"{what} exceeds {cap} elements"
    start = tuple(range(1, degree + 1))
    maps = [(0,) + g.images for g in gens]  # maps[k][x] is the image of x
    index = {start: 0}
    keys = [start]
    right = []
    tree = [None]
    for state, a in enumerate(keys):  # keys grows while it is read: BFS
        row = []
        for k, g in enumerate(maps):
            key = tuple(map(g.__getitem__, a))
            pos = index.get(key)
            if pos is None:
                if len(keys) >= limit:
                    raise error(detail)
                pos = index[key] = len(keys)
                keys.append(key)
                tree.append((state, k))
            row.append(pos)
        right.append(row)
    return keys, right, tree


def rs_kernel(
    sys: CoxeterSystem,
    images: Sequence[Permutation],
    image_cap: int = DEFAULT_IMAGE_CAP,
) -> FinitePresentation:
    """Presentation of the kernel of the map sending generators to ``images``.

    Cosets of the kernel are the elements of the image group; the Schreier
    transversal is the ShortLex-first spelling of each element.  Relators
    are the rewrites of every defining relator over every coset.  The
    images define a homomorphism exactly when every relator walked from a
    coset returns to it; the walks start at the identity coset, so the
    first relator that fails is refused with ``NotAHomomorphism`` while it
    is rewritten, after the search of the image group.  A rewrite of more
    than ``MAX_REWRITTEN_LETTERS`` letters in all is refused with
    ``OutputTooLarge`` before any relator is spelled, since a system file
    does not bound its labels.
    """
    n = sys.rank
    if len(images) != n:
        raise NotAHomomorphism(f"expected {n} images, got {len(images)}")
    degree = images[0].degree
    for img in images:
        if img.degree != degree:
            raise NotAHomomorphism("images act on different degrees")

    # BFS over the image group: ShortLex transversal and full coset table
    _, table, tree = _cayley_bfs(images, image_cap, ImageTooLarge, "image group")
    letters = len(table) * 2 * (n + sum(m for _, _, m in sys.edges))
    if letters > MAX_REWRITTEN_LETTERS:
        raise OutputTooLarge(
            f"rewriting the relators over {len(table)} cosets takes {letters} "
            f"letters, over the cap {MAX_REWRITTEN_LETTERS}"
        )

    # Schreier generators: one symbol per non-tree (coset, letter) pair;
    # symbol[s][letter - 1] is 0 on a tree edge
    symbol = [[1] * n for _ in table]
    for parent, k in tree[1:]:
        symbol[parent][k] = 0
    count = 0
    for row in symbol:
        for k in range(n):
            if row[k]:
                count += 1
                row[k] = count

    def rewrite(state: int, relator: Sequence[int]) -> list:
        out = []
        cur = state
        for letter in relator:
            sym = symbol[cur][letter - 1]
            if sym:
                out.append(sym)
            cur = table[cur][letter - 1]
        if cur != state:
            i, j = relator[:2]
            if i == j:
                raise NotAHomomorphism(f"image of generator {i} is not an involution")
            raise NotAHomomorphism(
                f"images of generators {i}, {j} do not satisfy the exponent "
                f"{len(relator) // 2}"
            )
        return out

    defining = sys.relators()
    relators = [rewrite(s, rel) for s in range(len(table)) for rel in defining]
    return _simplify_limited(count, relators)


def free_rank(sys: CoxeterSystem, index: int) -> int:
    """Rank of a torsion-free subgroup of the given finite index.

    Uses rank = 1 - index * chi where chi is the rational Euler measure
    of the group: half of (sum of reciprocal finite exponents minus
    (rank - 2)).  Refuses loudly on an index that is no integer
    (``core._is_int``) or is below 1, and on a non-integer result, which
    signals a violated precondition.
    """
    from fractions import Fraction

    if not _is_int(index):
        raise BadIndex(f"index must be an integer, got {index!r}")
    if index < 1:
        raise BadIndex(f"index must be at least 1, got {index}")
    inv = invariants(sys)
    chi = (sum(Fraction(1, m) for m in inv.finite_exponents) - (inv.rank - 2)) / 2
    rank = 1 - index * chi
    if rank.denominator != 1:
        raise NonIntegerResult(f"1 - index * chi = {rank} is not an integer")
    return int(rank)


class PureWitness(_Record):
    """Automorphism moving a pure element out of the pure subgroup."""

    endo: object  # an autkit.Endomorphism
    g: tuple
    image: Permutation


def pl_witness(n: int, budget: int = DEFAULT_ORBIT_BUDGET) -> PureWitness:
    """Exhibit that the pure subgroup is not characteristic for n >= 4.

    The automorphism inverts x_1 = y_1 y_2 and fixes the other even
    generators and y_2; on the path generators it sends y_1 to
    y_2 y_1 y_2 and fixes the rest.  The pure element (x_1 x_2)^2 then
    maps to a word with nontrivial symmetric-group image.
    """
    from .autkit import apply, make_endo, satisfies_relations

    _check_count(n)
    if n < 4:
        raise RankTooSmall("the pure subgroup is trivial below four strands")
    sys = build_ln(n)
    images = [(2, 1, 2)] + [(i,) for i in range(2, n)]
    endo = make_endo(sys, images)
    if not satisfies_relations(sys, endo, budget):
        raise CertificateFailed("the witness map breaks a defining relation")
    g = reduce_word(sys, (1, 2, 2, 3, 1, 2, 2, 3), budget)  # (x1 x2)^2
    if not is_pure(n, g):
        raise CertificateFailed("the witness element is not pure")
    moved = apply(sys, endo, g, budget)
    image = pi_image(n, moved)
    if image.is_identity():
        raise CertificateFailed("the witness image is still pure")
    return PureWitness(endo=endo, g=g, image=image)


def perm_group_table(gens: Sequence[Permutation], cap: int = DEFAULT_GROUP_CAP):
    """Element list and multiplication table of the group the gens generate."""
    if not gens:
        raise NotBijectiveHom("need at least one generator")
    if any(g.degree != gens[0].degree for g in gens):
        raise NotBijectiveHom("degrees differ")
    elements, right, tree = _cayley_bfs(gens, cap, GroupTooLarge, "group")
    # elements[b] = elements[parent] * gens[k] with parent < b, so
    # a * elements[b] = (a * elements[parent]) * gens[k]
    steps = tree[1:]
    table = []
    for a in range(len(elements)):
        row = [a]
        for parent, k in steps:
            row.append(right[row[parent]][k])
        table.append(row)
    return [Permutation(images) for images in elements], table


def symmetric_group_table(n: int, cap: int = DEFAULT_GROUP_CAP):
    """S_n as generated by the adjacent transpositions; S_1 is trivial."""
    if n < 1:
        raise BadGroupTable(f"symmetric group degree must be at least 1, got {n}")
    # refuse before building n - 1 transpositions of degree n
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > cap:
            raise GroupTooLarge(f"group exceeds {cap} elements")
    # S_1 has no transpositions: its identity generates it
    return perm_group_table(symmetric_images(n) or [identity_perm(1)], cap)


def cyclic_group_table(n: int):
    """Z/n as a table: element i is the residue i; n is at most the cap."""
    if n < 1:
        raise BadGroupTable(f"cyclic group order must be at least 1, got {n}")
    if n > DEFAULT_GROUP_CAP:
        raise GroupTooLarge(f"group of order {n} exceeds cap {DEFAULT_GROUP_CAP}")
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _identity_of(table: Sequence[Sequence[int]]) -> int:
    size = len(table)
    for e in range(size):
        if all(table[e][x] == x == table[x][e] for x in range(size)):
            return e
    raise BadGroupTable("multiplication table has no identity element")


def _check_associative(table: Sequence[Sequence[int]], identity: int) -> None:
    """Light's associativity test over a generating set picked greedily.

    The elements a with (x a) y = x (a y) for all x, y are closed under
    products, so the table is associative once every generator passes.
    Each generator is the last element outside the span of those before
    it (a table built by breadth-first search lists its longest products
    last, and these tend to span more: S_6 takes 4 generators, not the 5
    that the first elements would give).  Once they have passed, and with
    the identity and inverses the caller has checked, that span is a
    subgroup, so each new generator at least doubles it: there are at most
    log2 |G| of them, each tested in |G|^2 cells.  The caller passes the
    identity it has found, so a table's identity is searched for once.
    """
    inside = [False] * len(table)
    inside[identity] = True
    span = [identity]
    gens = []
    for g in reversed(range(len(table))):
        if inside[g]:
            continue
        get = itemgetter(*table[g])
        for x, row in enumerate(table):
            # x (g y) against (x g) y, for every y at once
            left, right = get(row), tuple(table[row[g]])
            if left != right:
                y = next(y for y, (u, v) in enumerate(zip(left, right)) if u != v)
                raise BadGroupTable(f"table is not associative at ({x}, {g}, {y})")
        gens.append(g)
        # every element spanned is a left-bracketed product of generators
        for h in span:  # span grows while it is read
            for a in gens:
                p = table[h][a]
                if not inside[p]:
                    inside[p] = True
                    span.append(p)


def twisted_count(
    table: Sequence[Sequence[int]],
    aut: Sequence[int],
    cap: int = DEFAULT_GROUP_CAP,
) -> int:
    """Number of orbits of x ~ g x aut(g)^-1 over a finite group table.

    By Burnside's lemma this is the mean over g of #{x : g x = x aut(g)}.
    A sum that |G| does not divide comes from no group action, so the
    table is refused; so is a table that is not associative.
    """
    size = len(table)
    if size > cap:
        raise GroupTooLarge(f"group of order {size} exceeds cap {cap}")
    for a, row in enumerate(table):
        if len(row) != size:
            raise BadGroupTable(f"row {a} has {len(row)} entries, expected {size}")
    for x in aut:
        if not _is_int(x):
            raise NotBijectiveHom(f"map entry {x!r} is not an integer")
    if sorted(aut) != list(range(size)):
        raise NotBijectiveHom("map is not a bijection")
    for a in range(size):
        # compare whole rows; look for the failing cell only in a bad row
        row = table[a]
        target = table[aut[a]]
        try:
            images = [aut[x] for x in row]
        except (IndexError, TypeError):
            # rows are square and aut is onto 0..size-1, so only an entry
            # x >= size or a non-integer can fail here
            raise BadGroupTable(f"row {a} has an entry outside 0..{size - 1}") from None
        if images != [target[x] for x in aut]:
            for b in range(size):
                x, y = row[b], target[aut[b]]
                if aut[x] == y:
                    continue
                # a negative x indexes aut from the end; aut[x] is never
                # negative, so a table with a negative entry y fails the
                # cell of that y and gets no further than this loop
                for c, entry in ((a, x), (aut[a], y)):
                    if entry not in range(size):
                        raise BadGroupTable(
                            f"row {c} has an entry outside 0..{size - 1}"
                        )
                raise NotBijectiveHom(f"map fails multiplicativity at ({a}, {b})")
    # refuses a table without identity or inverses; inverses[0] is where
    # row 0 holds the identity
    inverses = inversion_map(table)
    fixed = sum(
        sum(map(eq, table[g], map(itemgetter(aut[g]), table))) for g in range(size)
    )
    if fixed % size:
        raise BadGroupTable(
            f"table is not a group: fixed-point sum {fixed} "
            f"is not divisible by the order {size}"
        )
    _check_associative(table, table[0][inverses[0]])
    return fixed // size


def conjugation_map(table: Sequence[Sequence[int]], g: int) -> list:
    """Index map of x -> g x g^-1 over a group table."""
    size = len(table)
    ginv = inversion_map(table)[g]
    return [table[table[g][x]][ginv] for x in range(size)]


def inversion_map(table: Sequence[Sequence[int]]) -> list:
    """Index map of x -> x^-1 over a group table: the identity is found
    once, then each row is searched for it."""
    identity = _identity_of(table)
    out = []
    for a, row in enumerate(table):
        try:
            out.append(row.index(identity))
        except ValueError:
            raise BadGroupTable(f"element {a} has no inverse in the table") from None
    return out
