"""Finite-group backends over canonical byte encodings.

Every backend realizes one small kernel (identity, multiply, inverse,
generators, enumeration) on opaque fixed-width byte strings, and an
element is that ``bytes`` value everywhere, public API included
(:data:`Element` names the type).  Orbit and closure code upstream can
therefore dedup with plain hash sets and pick canonical representatives
by byte order, independent of the backend.
Every breadth-first closure (conjugation orbits, permutation groups)
runs through :func:`_reach`, which also holds the one enumeration-cap
check for both.  The Cayley-table walk
derives each row where it first reaches it and then checks generator
rows against generator columns, so it has its own (:func:`_walk_table`).

Handles are immutable after construction and safe to share; the only
mutation is idempotent caching (the sorted element list and the class
partition attached by :mod:`classprod.classes`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    EnumerationCapError,
    ForeignElementError,
    InvalidParameterError,
)
from .util import int_byte_width

#: Full-enumeration operations refuse to run on groups larger than this
#: unless the caller raises the cap explicitly.
DEFAULT_ORDER_CAP = 200_000


def _reach(start: Iterable, step, cap: int, what: str) -> set:
    """Everything reachable from ``start`` by repeated ``step``, breadth first.

    ``step(x)`` yields the items one step from x; the frontier is walked
    in the order ``start`` is given, so the order of calls is fixed.
    Raises the cap error as soon as more than ``cap`` items are reached.
    """
    frontier = list(start)
    seen = set(frontier)
    while frontier:
        new = []
        for x in frontier:
            for z in step(x):
                if z not in seen:
                    seen.add(z)
                    new.append(z)
                    if len(seen) > cap:
                        raise EnumerationCapError(
                            f"{what} exceeds the enumeration cap {cap}")
        frontier = new
    return seen


#: A group element is its canonical byte encoding: equality, hashing and
#: the total order all come straight from the bytes, so the smallest
#: element of any set is well defined and the same on every run.
Element = bytes


class GroupHandle(ABC):
    """A finite group: identity, multiplication, inverses, generators.

    Subclasses implement the raw-bytes kernel (``_mul``, ``_inv``,
    ``_check``, ``_enumerate_raw``); everything else is shared.  An
    element is its ``bytes`` encoding throughout.  Public methods
    validate their arguments; internal callers that have already
    validated may use the kernel directly for speed.
    """

    backend = "abstract"

    def __init__(self, order: int, identity: bytes, generators: Iterable[bytes],
                 order_cap: int = DEFAULT_ORDER_CAP):
        gens = tuple(bytes(g) for g in generators)
        if order < 1:
            raise InvalidParameterError(f"group order must be positive, got {order}")
        if not gens:
            raise InvalidParameterError("generator list must be nonempty")
        self.order = int(order)
        self.order_cap = int(order_cap)
        self.identity: Element = bytes(identity)
        self.generators: tuple[Element, ...] = gens
        self._sorted_raw: tuple[bytes, ...] | None = None
        self._partition = None  # cached by classprod.classes.class_partition

    # ------------------------------------------------------------------
    # kernel on raw encodings, implemented per backend

    @abstractmethod
    def _mul(self, x: bytes, y: bytes) -> bytes: ...

    @abstractmethod
    def _inv(self, x: bytes) -> bytes: ...

    @abstractmethod
    def _check(self, x: bytes) -> None:
        """Raise ForeignElementError unless x is a valid encoding here."""

    @abstractmethod
    def _enumerate_raw(self) -> Iterator[bytes]:
        """Yield every element encoding exactly once, in any order."""

    def _conj(self, a: bytes, x: bytes) -> bytes:
        """x^-1 * a * x on raw encodings."""
        return self._mul(self._mul(self._inv(x), a), x)

    def _require_enumerable(self) -> None:
        """Raise the cap error if the order is above the enumeration cap."""
        if self.order > self.order_cap:
            raise EnumerationCapError(
                f"group order {self.order} exceeds the enumeration cap "
                f"{self.order_cap}; raise the cap to force this")

    def _raw_elements(self) -> tuple[bytes, ...]:
        if self._sorted_raw is None:
            self._require_enumerable()
            elems = sorted(self._enumerate_raw())
            if len(elems) != self.order:
                raise InvalidParameterError(
                    f"backend enumerated {len(elems)} encodings but claims "
                    f"order {self.order}")
            for i in range(1, len(elems)):
                if elems[i - 1] == elems[i]:
                    raise InvalidParameterError(
                        f"duplicate encoding {elems[i].hex()} in enumeration")
            self._sorted_raw = tuple(elems)
        return self._sorted_raw

    # ------------------------------------------------------------------
    # public interface

    @property
    def encoding_width(self) -> int:
        return len(self.identity)

    def element(self, encoding: bytes) -> Element:
        """Validate an encoding and return it as ``bytes``."""
        try:  # bytes(n) would be n zero bytes
            x = None if isinstance(encoding, int) else bytes(encoding)
        except (TypeError, ValueError):
            x = None
        if x is None:
            raise ForeignElementError(
                f"an element encoding is bytes, got {type(encoding).__name__}")
        self._check(x)
        return x

    def multiply(self, x: Element, y: Element) -> Element:
        self._check(x)
        self._check(y)
        return self._mul(x, y)

    def inverse(self, x: Element) -> Element:
        self._check(x)
        return self._inv(x)

    def conjugate(self, a: Element, x: Element) -> Element:
        """a conjugated by x, i.e. x^-1 * a * x."""
        self._check(a)
        self._check(x)
        return self._conj(a, x)

    def commutator(self, a: Element, g: Element) -> Element:
        """a^-1 * (a conjugated by g)."""
        self._check(a)
        self._check(g)
        return self._mul(self._inv(a), self._conj(a, g))

    def power(self, x: Element, k: int) -> Element:
        """x**k by square-and-multiply; negative k goes through the inverse."""
        self._check(x)
        if k < 0:
            x = self._inv(x)
            k = -k
        acc = self.identity
        while k:
            if k & 1:
                acc = self._mul(acc, x)
            x = self._mul(x, x)
            k >>= 1
        return acc

    def elements(self) -> tuple[Element, ...]:
        """All elements, sorted by encoding.  Guarded by the order cap."""
        return self._raw_elements()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} backend={self.backend} order={self.order}>"


def _walk_table(n: int, read, same,
                labels: Sequence) -> tuple[list, list[int], list[int]]:
    """Validate a Cayley table in one breadth-first walk from 0.

    ``labels`` are n distinct objects, label i standing for element i;
    the rows are tuples of them.  ``read(i)`` gives the given row i in
    full, as indices, and ``same(i, row)`` says whether it equals the
    label tuple ``row``.  Only tree edges (x, g), where z = x*g is first
    reached, do work: row z is derived as row x permuted by row g and
    compared with the given row z.  After the walk, every generator row g
    must commute with every generator column h: g*(x*h) = (g*x)*h for
    all x.  :class:`CayleyTableGroup` says which rows are read and why
    the walk is exact.  Returns the rows, which share the n labels, the
    generator indices and the inverse of each index.
    """
    ints = list(range(n))
    everything = set(ints)
    index = dict(zip(labels, ints))
    rows: list = [None] * n
    rows[0] = tuple(labels)
    if tuple(map(int, read(0))) != tuple(ints):
        raise InvalidParameterError(
            "row 0 must be the identity row (element 0 is the identity)")
    order = [0]
    # z = came_from[z] * came_by[z] on the edge that first reached z;
    # came_by[s] = 0 for a stall generator s
    came_from = [0] * n
    came_by = [0] * n
    gen_rows = {}  # each stall generator's row, as indices
    steps = []

    def checked(i: int) -> tuple[int, ...]:
        row = tuple(map(int, read(i)))
        if len(row) != n:
            raise InvalidParameterError(
                f"row {i} has {len(row)} entries, expected {n}")
        if set(row) != everything:
            raise InvalidParameterError(
                f"row {i} is not a bijection of 0..{n - 1}")
        if row[0] != i:
            raise InvalidParameterError(
                f"column 0 must fix every element, but {i}*0 = {row[0]}")
        return tuple(map(ints.__getitem__, row))

    def visit(x: int, g: int, take) -> None:
        z = index[rows[x][g]]
        if rows[z] is not None:
            return
        cand = take(rows[x])
        rows[z] = cand
        order.append(z)
        came_from[z] = x
        came_by[z] = g
        if not same(z, cand):
            known = tuple(map(labels.__getitem__, checked(z)))
            if known != cand:
                y = next(y for y in ints if known[y] != cand[y])
                raise InvalidParameterError(
                    f"table is not associative at ({x},{g},{y})")

    done = 0
    least = 1
    while len(order) < n:
        while rows[least] is not None:
            least += 1
        row = gen_rows[least] = checked(least)
        rows[least] = tuple(map(labels.__getitem__, row))
        order.append(least)
        # a stall needs an unreached index, so n >= 2 and this yields tuples
        steps.append((least, itemgetter(*row)))
        for x in order[:done]:
            visit(x, *steps[-1])
        while done < len(order):
            for g, take in steps:
                visit(order[done], g, take)
            done += 1
    # the order-1 table stalls on no index; 0 generates it
    gen_rows = gen_rows or {0: (0,)}
    for h in gen_rows:
        col = list(map(index.__getitem__, map(itemgetter(h), rows)))
        for g, row in gen_rows.items():
            g_xh = list(map(row.__getitem__, col))
            if g_xh != list(map(col.__getitem__, row)):
                x = next(x for x in ints if g_xh[x] != col[row[x]])
                raise InvalidParameterError(
                    f"table is not associative at ({g},{x},{h})")
    # now a group: a stall generator's inverse is read off its row, and
    # every later z = x*g has z^-1 = g^-1 * x^-1, both known by walk order
    inv = [0] * n
    for z in order[1:]:
        g = came_by[z]
        if g:
            inv[z] = index[rows[inv[g]][inv[came_from[z]]]]
        else:
            inv[z] = rows[z].index(labels[0])
    return rows, list(gen_rows), inv


class CayleyTableGroup(GroupHandle):
    """Group given by an explicit multiplication table over 0..n-1.

    Element i is encoded as the fixed-width big-endian integer i; element
    0 must be the identity.  ``table`` is any sequence of n rows, and
    one breadth-first walk from 0 (:func:`_walk_table`) validates it.
    The rows are held in the table's own labels: ``table.labels`` where
    the table has them (the file loader's are the decimal strings with a
    trailing space, ``f"{i} "``) and the ints 0..n-1 otherwise, so every
    row shares those n objects.  The walk reads row 0 and each generator
    row in full; where it stalls, the least unreached index becomes the
    next generator.  Where it first reaches z = x*g, it derives ``cand``,
    row x permuted by row g, and compares the given row z with it:
    through ``table.row_equals(z, cand)`` where the table has one (the
    file loader compares the labels joined with no separator, the row's
    canonical text plus one space, with the line plus one space) and as
    a tuple otherwise, so a match is exact; a row that does not match is
    read and checked in full.  A row read in full is range-, length- and
    bijection-checked and must fix column 0 before it is mapped onto the
    labels; a derived row permutes a bijection by a bijection, so it is
    one, and it fixes column 0 by construction.

    Then, as in Light's test (Clifford & Preston, *The Algebraic Theory
    of Semigroups*, Vol. I, 1961), left translations L_g (row g) are
    checked against right translations R_h (column h), but only for
    generators g and h: L_g R_h = R_h L_g.  The walk is exact:

    1. every row equals its derivation, so each row z lies in the group
       P generated by the L_g and sends 0 to z: P is transitive;
    2. the generator columns reach every element from 0, since the
       walk's edges are theirs (a stall generator s is R_s(0) = s);
    3. each L_g commutes with each R_h, so a p in P that fixes 0 fixes
       every word in the R_h applied to 0, which is every point; so P
       is regular (Dixon & Mortimer, *Permutation Groups*, 1996, §4.2);
    4. in a regular P, row(x*y) and row(x) after row(y) both send 0 to
       x*y, so they are equal, which is associativity.

    So the table is a group, and the inverses come from the walk in walk
    order: a stall generator s has s^-1 = j where s*j = 0, and an element
    z first reached as x*g has z^-1 = g^-1 * x^-1, where g and x were
    reached before z.
    """

    backend = "cayley-table"

    def __init__(self, table: Sequence[Sequence[int]],
                 order_cap: int = DEFAULT_ORDER_CAP):
        n = len(table)
        if n < 1:
            raise InvalidParameterError("multiplication table must be nonempty")
        same = getattr(table, "row_equals", None)
        if same is None:
            def same(i, row):
                return tuple(table[i]) == row
        labels = getattr(table, "labels", None) or list(range(n))
        rows, gen_idx, self._invtab = _walk_table(n, table.__getitem__, same,
                                                  labels)
        width = int_byte_width(n - 1)
        self._enc = [i.to_bytes(width, "big") for i in range(n)]
        self._dec = {b: i for i, b in enumerate(self._enc)}
        self._enc_of = dict(zip(labels, self._enc))
        self._table = rows
        super().__init__(n, self._enc[0], (self._enc[i] for i in gen_idx),
                         order_cap)

    def index_of(self, x: Element) -> int:
        self._check(x)
        return self._dec[x]

    def _mul(self, x: bytes, y: bytes) -> bytes:
        return self._enc_of[self._table[self._dec[x]][self._dec[y]]]

    def _inv(self, x: bytes) -> bytes:
        return self._enc[self._invtab[self._dec[x]]]

    def _check(self, x: bytes) -> None:
        if x not in self._dec:
            raise ForeignElementError(
                f"{x.hex()!r} is not an element index of this {self.order}-element "
                "table group")

    def _enumerate_raw(self) -> Iterator[bytes]:
        return iter(self._enc)


class PermutationGroup(GroupHandle):
    """Group generated by permutations of 0..degree-1.

    An element is encoded as its image vector, one byte per point, so the
    backend supports degrees up to 255.  The full element set is closed
    over eagerly at construction (the order is not known beforehand),
    guarded by the order cap.
    """

    backend = "permutation"

    def __init__(self, generators: Sequence[Sequence[int]],
                 order_cap: int = DEFAULT_ORDER_CAP):
        gens = [tuple(int(v) for v in g) for g in generators]
        if not gens:
            raise InvalidParameterError("at least one generator is required")
        degree = len(gens[0])
        if not 1 <= degree <= 255:
            raise InvalidParameterError(
                f"degree {degree} unsupported (1..255)")
        raw_gens = []
        for i, g in enumerate(gens):
            if len(g) != degree:
                raise InvalidParameterError(
                    f"generator {i} has degree {len(g)}, expected {degree}")
            if sorted(g) != list(range(degree)):
                raise InvalidParameterError(
                    f"generator {i} is not a bijection of 0..{degree - 1}")
            raw_gens.append(bytes(g))
        self.degree = degree
        ident = bytes(range(degree))
        elems = _reach([ident], lambda a: (bytes(map(g.__getitem__, a))
                                           for g in raw_gens),
                       order_cap, "permutation closure")
        self._element_set = frozenset(elems)
        super().__init__(len(elems), ident, raw_gens, order_cap)

    def _mul(self, x: bytes, y: bytes) -> bytes:
        # apply x first, then y
        return bytes(map(y.__getitem__, x))

    def _inv(self, x: bytes) -> bytes:
        out = bytearray(self.degree)
        for i, v in enumerate(x):
            out[v] = i
        return bytes(out)

    def _check(self, x: bytes) -> None:
        if x not in self._element_set:
            raise ForeignElementError(
                f"{x.hex()!r} is not an element of this degree-{self.degree} "
                "permutation group")

    def _enumerate_raw(self) -> Iterator[bytes]:
        return iter(self._element_set)


class SubgroupView:
    """An enumerated subgroup of a parent group.

    Callers must pass a multiplicatively closed set containing the
    identity; only membership in the parent and cheap smell tests run
    here.  Normality is decided against the parent's generators and
    cached.
    """

    def __init__(self, parent: GroupHandle, elements: Iterable[Element]):
        elements = frozenset(elements)
        for x in elements:
            parent._check(x)
        if parent.identity not in elements:
            raise InvalidParameterError("a subgroup must contain the identity")
        if parent.order % len(elements) != 0:
            raise InvalidParameterError(
                f"subgroup size {len(elements)} does not divide the group "
                f"order {parent.order}")
        self.parent = parent
        self.elements = elements
        self._normal: bool | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Element) -> bool:
        return x in self.elements

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubgroupView) and self.parent is other.parent
                and self.elements == other.elements)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elements))

    @property
    def is_normal(self) -> bool:
        if self._normal is None:
            par = self.parent
            self._normal = all(par._conj(h, g) in self.elements
                               for g in par.generators
                               for h in self.elements)
        return self._normal

    def __repr__(self) -> str:
        return f"<SubgroupView order={len(self.elements)} of {self.parent!r}>"


def centralizer(g: GroupHandle, a: Element) -> SubgroupView:
    """All x with a^x = a.  Needs full enumeration, so the cap applies."""
    g._check(a)
    hits = [b for b in g._raw_elements() if g._conj(a, b) == a]
    return SubgroupView(g, hits)


def center(g: GroupHandle) -> SubgroupView:
    """Elements fixed by conjugation; checking the generators suffices."""
    gens = g.generators
    hits = [b for b in g._raw_elements()
            if all(g._conj(b, x) == b for x in gens)]
    return SubgroupView(g, hits)
