"""Coxeter systems with odd exponents and tree-shaped diagrams.

Mathematically a system is a symmetric matrix of exponents.  Diagonal
entries are 1, off-diagonal entries are odd integers >= 3 or
``INFINITY``.  The value ``INFINITY`` (``math.inf``) is the single
sentinel for unbounded exponents; it never takes part in integer
arithmetic.

A ``CoxeterSystem`` stores the rank, the finite edges and a neighbour map
per vertex, so a tree of rank n costs O(n) to build, hash and compare
rather than O(n^2).  Every pair that is not stored has exponent
``INFINITY``.
``validate_system`` still accepts and checks a full matrix.

Generators are 1-indexed everywhere.

``_Record`` is the base of every value record in the package, in place of
the standard library's dataclass decorator: importing that loads
``inspect``, ``dis``, ``ast`` and ``tokenize``, and each decorated class
compiles generated code, which together cost a fresh CLI process about
13 ms plus about 1 ms per class.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from itertools import groupby
from operator import attrgetter, itemgetter

from .errors import (
    DiagonalNotOne,
    EvenOrSmallExponent,
    MalformedInvariant,
    NotAdjacentPair,
    NotInTW,
    NotStarForm,
    NotSymmetric,
    SystemFileError,
)

INFINITY = math.inf


class _Record:
    """Value record whose fields are the annotated names of its class body.

    A subclass lists its fields as annotations, in order, and gives a field
    a default with a class attribute; ``_fields`` records the names and
    ``_values`` reads the field values (the bare value for one field).  An
    instance is built by position or keyword, then ``__post_init__`` may
    check it or store derived attributes, which are not fields, with
    ``object.__setattr__``.  Records are equal when their classes are the
    same and their ``_values`` are equal, hash as their ``_values`` and
    print as ``Name(field=value, ...)``.  Assigning or deleting an
    attribute raises ``AttributeError``.  Instances keep a ``__dict__``, so
    pickling, ``copy`` and ``vars`` work as for any object.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._values = property(attrgetter(*cls._fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # one setattr per field keeps the values inline in the instance, where
        # attribute reads are fastest; writing through __dict__ would not
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in order, from arguments and class defaults."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(fields)} arguments "
                f"but {len(args)} were given"
            )
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif hasattr(cls, name):
                values.append(getattr(cls, name))
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(
                f"{cls.__qualname__}() got an unexpected keyword argument "
                f"{next(iter(kwargs))!r}"
            )
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _is_int(value) -> bool:
    """The package's integer test: an int, or an int subclass other than
    bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_valid_exponent(m) -> bool:
    if m == INFINITY:
        return True
    return _is_int(m) and m >= 3 and m % 2 == 1


_NO_NEIGHBORS: dict = {}


class CoxeterSystem(_Record):
    """Validated system: the rank plus the finite edges of its diagram.

    ``edges`` is the sorted tuple of (i, j, m) with i < j and m finite;
    edges given in any order or orientation are normalized to it, so two
    systems are equal exactly when their exponent matrices are.  The
    neighbour map ``_rows``, the key table ``_blocking`` and the flag
    ``_star``, true when every finite edge contains generator 1, are
    derived from the edges and are not fields.
    """

    rank: int
    edges: tuple = ()

    def __post_init__(self):
        rank = self.rank
        if not _is_int(rank) or rank < 1:
            raise MalformedInvariant("rank must be at least 1")
        # rows[i] maps each neighbour of i to its exponent; a list indexed
        # by vertex keeps m() as fast as indexing a matrix row
        rows: list[dict[int, int]] = [_NO_NEIGHBORS] * (rank + 1)
        canon = []
        for edge in self.edges:
            try:
                i, j, m = edge
            except (TypeError, ValueError):
                raise MalformedInvariant(f"edge {edge!r}: expected (i, j, m)") from None
            # the exact type test is cheap; ``_is_int`` decides the rest
            exact = type(i) is int and type(j) is int
            if not exact and not (_is_int(i) and _is_int(j)):
                raise MalformedInvariant(
                    f"edge ({i!r}, {j!r}): vertices must be integers"
                )
            if i > j:
                i, j = j, i
            if i == j:
                raise DiagonalNotOne(f"edge at ({i}, {i}): the diagonal is always 1")
            if i < 1 or j > rank:
                raise MalformedInvariant(f"edge ({i}, {j}) out of range 1..{rank}")
            if m == INFINITY or not _is_valid_exponent(m):
                raise EvenOrSmallExponent(
                    f"exponent of ({i}, {j}) is {m}; "
                    "edge labels must be odd integers >= 3"
                )
            if j in rows[i]:
                raise NotSymmetric(f"pair ({i}, {j}) is given twice")
            for u in (i, j):
                if rows[u] is _NO_NEIGHBORS:
                    rows[u] = {}
            rows[i][j] = rows[j][i] = m
            canon.append((i, j, m))
        canon.sort()
        edges = tuple(canon)
        # blocking[j] holds the key (i, j, m - 2) of each edge (i, j, m) with
        # i < j: the small roots of ``words._push`` that the words module
        # docstring's least-left-descent test looks up, one key per edge
        lower: dict[int, list] = {}
        for i, j, m in edges:
            lower.setdefault(j, []).append((i, j, m - 2))
        blocking: list[tuple] = [()] * (rank + 1)
        for j, keys in lower.items():
            blocking[j] = tuple(keys)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_blocking", blocking)
        # a star centred at 1, where the stack pass certifies by the words
        # module docstring's reversal lemma
        object.__setattr__(self, "_star", all(i == 1 for i, _, _ in edges))

    def m(self, i: int, j: int):
        """Exponent of the pair (i, j), 1-indexed."""
        if i == j:
            return 1
        return self._rows[i].get(j, INFINITY)

    def neighbors(self, i: int) -> dict:
        """Finite exponents at vertex i, as a map neighbour -> m.  Do not mutate."""
        return self._rows[i]

    @property
    def generators(self) -> range:
        return range(1, self.rank + 1)

    def finite_pairs(self) -> list[tuple[int, int, int]]:
        """All (i, j, m) with i < j and m finite, sorted."""
        return list(self.edges)

    def relators(self) -> list[tuple[int, ...]]:
        """The defining relators: (i i) for each generator, then (i j)^m
        for each finite edge, in edge order."""
        return [(i, i) for i in self.generators] + [
            (i, j) * m for i, j, m in self.edges
        ]


def validate_system(raw: Sequence[Sequence]) -> CoxeterSystem:
    """Check a raw matrix and wrap it.  Never normalizes silently."""
    n = len(raw)
    if n < 1:
        raise MalformedInvariant("rank must be at least 1")
    for i, row in enumerate(raw):
        if len(row) != n:
            raise NotSymmetric(f"row {i + 1} has length {len(row)}, expected {n}")
    for i in range(n):
        entry = raw[i][i]
        if entry != 1:
            raise DiagonalNotOne(f"exponents[{i + 1}][{i + 1}] = {entry}, expected 1")
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if raw[i][j] != raw[j][i]:
                raise NotSymmetric(
                    f"exponents[{i + 1}][{j + 1}] != exponents[{j + 1}][{i + 1}]"
                )
            if not _is_valid_exponent(raw[i][j]):
                raise EvenOrSmallExponent(
                    f"exponents[{i + 1}][{j + 1}] = {raw[i][j]}; "
                    "off-diagonal entries must be odd integers >= 3 or infinity"
                )
            if raw[i][j] != INFINITY:
                edges.append((i + 1, j + 1, raw[i][j]))
    return CoxeterSystem(n, edges)


class Classification(_Record):
    connected: bool
    tree: bool
    in_tw: bool


def classify(sys: CoxeterSystem) -> Classification:
    """Connectivity and tree shape of the finite-exponent diagram."""
    n = sys.rank
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in sys.neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    connected = len(seen) == n
    tree = connected and len(sys.edges) == n - 1
    return Classification(
        connected=connected,
        tree=tree,
        in_tw=connected and tree and n >= 2,
    )


class SystemInvariant(_Record):
    """Rank together with the multiset of finite exponents.

    Building one checks that the rank is an integer of at least 2 and that
    there are rank - 1 exponents, each an odd integer >= 3, or raises
    ``MalformedInvariant``.  The exponents are stored sorted, so invariants
    holding the same multiset are equal.
    """

    rank: int
    finite_exponents: tuple

    def __post_init__(self):
        rank, ms = self.rank, tuple(self.finite_exponents)
        if not _is_int(rank) or rank < 2:
            raise MalformedInvariant("rank must be at least 2")
        if len(ms) != rank - 1:
            raise MalformedInvariant(
                f"expected {rank - 1} finite exponents, got {len(ms)}"
            )
        for m in ms:
            if not _is_valid_exponent(m) or m == INFINITY:
                raise MalformedInvariant(f"bad exponent {m}")
        object.__setattr__(self, "finite_exponents", tuple(sorted(ms)))


def invariants(sys: CoxeterSystem) -> SystemInvariant:
    if not classify(sys).in_tw:
        raise NotInTW("system is not an odd connected tree of rank >= 2")
    return SystemInvariant(sys.rank, tuple(m for _, _, m in sys.edges))


def decide_isomorphic(a: CoxeterSystem, b: CoxeterSystem) -> bool:
    """Groups are isomorphic exactly when rank and exponent multiset agree."""
    return invariants(a) == invariants(b)


class StarForm(_Record):
    """Canonical star presentation: center 1, leaves 2..n, exponents ascending.

    Building one checks that ``system`` is such a star, or raises
    ``NotStarForm``: the rank is at least 2, the center and each leaf carry
    a finite exponent, every other pair is unbounded, and the leaf
    exponents ascend.  ``t`` lists the leaf exponents in leaf order and
    ``blocks`` groups leaves with equal exponent into consecutive runs;
    both are derived from the system and are not fields.
    """

    system: CoxeterSystem

    def __post_init__(self):
        sys = self.system
        if sys.rank < 2:
            raise NotStarForm("rank must be at least 2")
        ts = [sys.m(1, i) for i in range(2, sys.rank + 1)]
        if INFINITY in ts:
            i = ts.index(INFINITY) + 2
            raise NotStarForm(f"pair (1, {i}) must carry a finite exponent")
        for i, j, _ in sys.edges:
            if i != 1:
                raise NotStarForm(f"pair ({i}, {j}) must be unbounded in a star")
        if ts != sorted(ts):
            raise NotStarForm("leaf exponents must be ascending")
        runs = groupby(enumerate(ts, 2), key=itemgetter(1))
        object.__setattr__(self, "t", tuple(ts))  # t[i - 2] is the exponent of leaf i
        object.__setattr__(
            self, "blocks", tuple(tuple(leaf for leaf, _ in run) for _, run in runs)
        )

    @property
    def rank(self) -> int:
        return self.system.rank

    @property
    def leaves(self) -> range:
        return range(2, self.rank + 1)

    def t_of(self, leaf: int) -> int:
        return self.t[leaf - 2]


def _star_system(ts: Sequence[int]) -> CoxeterSystem:
    """Center 1 joined to leaf k + 2 by ts[k]."""
    return CoxeterSystem(len(ts) + 1, ((1, leaf, t) for leaf, t in enumerate(ts, 2)))


def canonical_star(inv: SystemInvariant) -> StarForm:
    """Star presentation determined by an invariant pair."""
    return StarForm(_star_system(inv.finite_exponents))


def star_form(sys: CoxeterSystem) -> StarForm:
    """Interpret an existing system as a canonical star, or fail."""
    return StarForm(sys)


def path_system(labels: Sequence[int]) -> CoxeterSystem:
    """Path-shaped system: consecutive generators joined by the given labels."""
    edges = ((i, i + 1, m) for i, m in enumerate(labels, 1) if m != INFINITY)
    return CoxeterSystem(len(labels) + 1, edges)


def merge_generators(star: StarForm, i: int, j: int):
    """Quotient identifying generators ``i`` and ``j`` of a star.

    Merging a leaf into the center deletes the leaf.  Merging two leaves
    keeps one leaf labeled gcd of the two exponents; a gcd of 1 collapses
    the merged leaf into the center as well.  Returns the quotient system
    together with the old-generator -> new-generator index map.
    """
    n = star.rank
    if not (_is_int(i) and _is_int(j)) or i == j or not (1 <= i <= n and 1 <= j <= n):
        raise NotAdjacentPair(f"cannot merge generator pair ({i}, {j})")
    # one (label, leaf) row per leaf of the quotient, in the quotient's leaf
    # order 2, 3, ...: the surviving leaves, and two merged leaves whose gcd
    # is above 1 under the smaller index
    rows = [(star.t_of(u), u) for u in star.leaves if u != i and u != j]
    if i != 1 and j != 1 and (d := math.gcd(star.t_of(i), star.t_of(j))) > 1:
        rows.append((d, min(i, j)))
    rows.sort()
    # the center, and a merged letter without a row, go to the center; the
    # larger merged letter goes where the smaller one does
    mapping = [1] * n
    for new, (_, u) in enumerate(rows, 2):
        mapping[u - 1] = new
    mapping[max(i, j) - 1] = mapping[min(i, j) - 1]
    return _star_system([t for t, _ in rows]), tuple(mapping)


def cycle_notation(images: Sequence[int]) -> str:
    """Disjoint cycles of i -> images[i - 1] on 1..n, as "(1 3 4)(2 5)".

    Each cycle starts at its least point, cycles come in order of their
    least points, fixed points are left out and the identity is "()".
    """
    seen = set()
    out = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cycle = [str(start)]
        seen.add(start)
        nxt = images[start - 1]
        while nxt != start:
            cycle.append(str(nxt))
            seen.add(nxt)
            nxt = images[nxt - 1]
        if len(cycle) > 1:
            out.append("(" + " ".join(cycle) + ")")
    return "".join(out) or "()"


# system file format: {"rank": n, "edges": [{"u":1,"v":2,"m":3}, ...]},
# missing pairs mean an unbounded exponent

# a system costs one pointer per vertex, so a file may not ask for more
MAX_FILE_RANK = 10**6


def system_to_json(sys: CoxeterSystem) -> str:
    edges = [{"u": i, "v": j, "m": m} for i, j, m in sys.finite_pairs()]
    return json.dumps({"rank": sys.rank, "edges": edges}, separators=(", ", ": "))


def system_from_json(text: str) -> CoxeterSystem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SystemFileError("top level must be an object")
    if "rank" not in data:
        raise SystemFileError("missing field 'rank'")
    rank = data["rank"]
    if not _is_int(rank) or rank < 1:
        raise SystemFileError("'rank' must be a positive integer")
    if rank > MAX_FILE_RANK:
        raise SystemFileError(f"'rank' {rank} exceeds the limit {MAX_FILE_RANK}")
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise SystemFileError("'edges' must be an array")
    seen: set[tuple[int, int]] = set()
    for k, edge in enumerate(edges):
        where = f"edges[{k}]"
        if not isinstance(edge, dict):
            raise SystemFileError(f"{where}: must be an object")
        for name in ("u", "v", "m"):
            if name not in edge:
                raise SystemFileError(f"{where}: missing field '{name}'")
            if not _is_int(edge[name]):
                raise SystemFileError(f"{where}.{name}: must be an integer")
        u, v, m = edge["u"], edge["v"], edge["m"]
        if not (1 <= u <= rank):
            raise SystemFileError(f"{where}.u: vertex {u} out of range 1..{rank}")
        if not (1 <= v <= rank):
            raise SystemFileError(f"{where}.v: vertex {v} out of range 1..{rank}")
        if u == v:
            raise SystemFileError(f"{where}: self-loop at vertex {u}")
        if m % 2 == 0:
            raise SystemFileError(f"{where}.m: label {m} is even")
        if m < 3:
            raise SystemFileError(f"{where}.m: label {m} is below 3")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise SystemFileError(f"{where}: duplicate edge {key[0]}-{key[1]}")
        seen.add(key)
    return CoxeterSystem(rank, ((e["u"], e["v"], e["m"]) for e in edges))
