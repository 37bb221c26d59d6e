"""Conjugacy classes, class products, and the class-count invariant.

The central quantity everywhere below is eta(X) for a G-invariant set X:
the number of distinct conjugacy classes whose union is X.  Products of
two classes are always G-invariant, so :func:`class_product` reports
their decomposition directly; the invariant is exposed as
``decomposition.eta``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    EnumerationCapError,
    GroupMismatchError,
    InvalidParameterError,
    PreconditionViolatedError,
)
from .constructions import DirectProductGroup
from .groups import Element, GroupHandle, SubgroupView, _reach, centralizer


class ConjugacyClass:
    """The orbit of one element under conjugation by the whole group.

    ``members`` is the orbit and ``representative`` its encoding-least
    member, canonical for the class.
    """

    __slots__ = ("group", "members", "representative")

    def __init__(self, group: GroupHandle, members: frozenset[Element]):
        self.group = group
        self.members = members
        self.representative = min(members)

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, x: Element) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Element]:
        return iter(sorted(self.members))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConjugacyClass):
            return NotImplemented
        return self.group is other.group and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.representative, len(self.members)))

    def __repr__(self) -> str:
        return (f"ConjugacyClass(rep={self.representative.hex()}, "
                f"size={len(self.members)})")


def _orbit_raw(g: GroupHandle, seed: bytes) -> frozenset[bytes]:
    """Conjugation orbit of one raw element under the group generators.

    Raises the cap error once the orbit holds more than ``g.order_cap``
    elements, so the cap bounds orbits of groups too large to enumerate.
    """
    pairs = [(gr, g._inv(gr)) for gr in g.generators]
    mul = g._mul
    return frozenset(_reach(
        [seed], lambda x: (mul(mul(geninv, x), gen) for gen, geninv in pairs),
        g.order_cap, f"conjugacy class of {seed.hex()}"))


def conjugacy_class(g: GroupHandle, a: Element) -> ConjugacyClass:
    g._check(a)
    return ConjugacyClass(g, _orbit_raw(g, a))


class ClassPartition:
    """All conjugacy classes of a group, computed once and cached.

    A direct product's classes are composed from its factors' cached
    partitions; every other group is scanned orbit by orbit.
    """

    def __init__(self, g: GroupHandle):
        self.group = g
        # Enumerated on both paths, so the cap and the enumeration checks
        # hold for composed partitions too.
        elements = g._raw_elements()
        if isinstance(g, DirectProductGroup):
            classes, assigned = _product_classes(g)
        else:
            classes, assigned = _peel(g, elements)
        if len(assigned) != g.order:
            raise InvalidParameterError(
                f"class partition covers {len(assigned)} elements but the "
                f"group has order {g.order}")
        self.classes: tuple[ConjugacyClass, ...] = tuple(classes)
        self._index_of = assigned
        self._center = frozenset(c.representative for c in classes
                                 if c.size == 1)
        # The caches of class_product's central-commutator path.
        self._commutators: dict[int, frozenset[bytes] | None] = {}
        self._translates: dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[ConjugacyClass]:
        return iter(self.classes)

    def class_of(self, x: Element) -> ConjugacyClass:
        self.group._check(x)
        return self.classes[self._index_of[x]]

    def classes_of_size(self, size: int) -> tuple[ConjugacyClass, ...]:
        return tuple(c for c in self.classes if c.size == size)

    def size_histogram(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.classes:
            out[c.size] = out.get(c.size, 0) + 1
        return dict(sorted(out.items()))

    def center_orbits(self, size: int) -> list[tuple[ConjugacyClass, ...]]:
        """The size-``size`` classes in orbits x*Z under the centre Z,
        each sorted, so led by its least class, in order of leaders."""
        orbits: list[tuple[ConjugacyClass, ...]] = []
        placed: set[ConjugacyClass] = set()
        for c in self.classes_of_size(size):
            if c not in placed:
                orbit = _central_translates(self.group, c.representative,
                                            self._center)
                placed.update(orbit)
                orbits.append(orbit)
        return orbits


def _peel(g: GroupHandle, raws: Iterable[bytes]):
    """Peel one conjugation orbit per element of ``raws`` not yet covered.

    Returns the classes in the order first met and the index of each
    covered element's class.  Walked in ascending order over a whole
    group, each class is first met at its least member, so the list is
    already sorted by representative.
    """
    assigned: dict[bytes, int] = {}
    classes: list[ConjugacyClass] = []
    for raw in raws:
        if raw in assigned:
            continue
        orbit = _orbit_raw(g, raw)
        assigned.update(dict.fromkeys(orbit, len(classes)))
        classes.append(ConjugacyClass(g, orbit))
    return classes, assigned


def _classes_meeting(g: GroupHandle,
                     raws: Iterable[bytes]) -> tuple[ConjugacyClass, ...]:
    """The classes of ``g`` that meet ``raws``, sorted by representative.

    Read off the cached partition when there is one; otherwise peeled
    orbit by orbit, walking the set in ascending order so the result
    never depends on iteration order.
    """
    part = g._partition
    if part is not None:
        index_of = part._index_of
        return tuple(part.classes[i] for i in
                     sorted({index_of[raw] for raw in raws}))
    classes, _ = _peel(g, sorted(raws))
    return tuple(sorted(classes, key=lambda c: c.representative))


def _central_translates(g: GroupHandle, rep: bytes,
                        central: Iterable[bytes]) -> tuple[ConjugacyClass, ...]:
    """The classes meeting rep*C, for a set C of central elements.

    For central c, (rep c)^G = rep^G c: these are rep^G's distinct
    translates by C, sorted by representative.
    """
    return _classes_meeting(g, [g._mul(rep, c) for c in central])


def _product_classes(g: DirectProductGroup):
    """Compose the classes of H x K as h^H x k^K, without multiplying.

    Encodings concatenate fixed-width factor encodings, so listing the
    factor-class tuples in lexicographic order lists the classes in
    ascending representative order, and a class's index is the
    mixed-radix index of its tuple.
    """
    assigned: dict[bytes, int] = {}
    classes: list[ConjugacyClass] = []
    factor_classes = [class_partition(f).classes for f in g.factor_groups]
    for combo in itertools.product(*factor_classes):
        members = frozenset(map(b"".join,
                                itertools.product(*(c.members for c in combo))))
        assigned.update(dict.fromkeys(members, len(classes)))
        classes.append(ConjugacyClass(g, members))
    return classes, assigned


def class_partition(g: GroupHandle) -> ClassPartition:
    if g._partition is None:
        g._partition = ClassPartition(g)
    return g._partition


@dataclass(frozen=True)
class CommutatorSet:
    """The set [a, G] = {a^-1 * a^g : g in G}.

    Satisfies a * [a,G] = a^G elementwise, hence |[a,G]| = |a^G|.  It
    always contains the identity but is generally only a set, not a
    subgroup.
    """

    base: Element
    elements: frozenset[Element]

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Element) -> bool:
        return x in self.elements

    def __iter__(self) -> Iterator[Element]:
        return iter(sorted(self.elements))


def commutator_set(g: GroupHandle, a: Element) -> CommutatorSet:
    """[a, G], computed as a^-1 * (a's conjugacy class)."""
    g._check(a)
    ainv = g._inv(a)
    return CommutatorSet(a, frozenset(g._mul(ainv, x) for x in _orbit_raw(g, a)))


@dataclass(frozen=True)
class ClassDecomposition:
    """A G-invariant set written as the disjoint union of classes."""

    group: GroupHandle
    classes: tuple[ConjugacyClass, ...]

    @property
    def source(self) -> frozenset[Element]:
        """The decomposed set itself, rebuilt from its classes on demand."""
        return frozenset(x for c in self.classes for x in c.members)

    @property
    def eta(self) -> int:
        return len(self.classes)

    def sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.classes)


def _central_commutators(part: ClassPartition,
                         y: ConjugacyClass) -> frozenset[bytes] | None:
    """[y,G] = y^-1 * y^G when y is a class of ``part`` and [y,G] is central.

    Built once per class with |y| multiplications, cached by class index.
    A set that only shares its representative with a class gets None.
    """
    j = part._index_of[y.representative]
    if part.classes[j] is not y and part.classes[j].members != y.members:
        return None
    if j not in part._commutators:
        g = part.group
        yinv = g._inv(y.representative)
        comm = frozenset(g._mul(yinv, v) for v in y.members)
        part._commutators[j] = comm if comm <= part._center else None
    return part._commutators[j]


def _covering(g: GroupHandle, classes: tuple[ConjugacyClass, ...]):
    """The decomposition into ``classes``, and the elements they cover."""
    return ClassDecomposition(g, classes), sum(c.size for c in classes)


def _product_bound(g: GroupHandle, m: int, n: int) -> int:
    """m*n, once a product of classes of sizes m and n is known to fit
    the cap: it may hold min(m*n, |G|) elements."""
    bound = min(m * n, g.order)
    if bound > g.order_cap:
        raise EnumerationCapError(
            f"the product of classes of sizes {m} and {n} may hold {bound} "
            f"elements, above the enumeration cap {g.order_cap}")
    return m * n


def class_product(x: ConjugacyClass, y: ConjugacyClass) -> ClassDecomposition:
    """Decompose the product set x * y into conjugacy classes.

    The product of two classes is G-invariant, so it is a disjoint union
    of classes; they are returned sorted by representative encoding.
    Both classes must come from the same group handle, and the cap error
    is raised when min(|x|*|y|, |G|) exceeds the group's cap; both checks
    run first.

    The classes are read off the |y| products a*v for the fixed
    representative a of x: every class of x*y meets a*y, since a^g*v
    conjugated by g^-1 is a*v^(g^-1).  No product set is built, so a
    cover above |x|*|y| elements is rejected instead.

    With a cached partition, y one of its classes and [y,G] central,
    a*y^G = (a*y)[y,G] meets the translates (a*y)^G c: one multiplication
    a*y, and the translates' classes memoised on the partition.
    """
    if x.group is not y.group:
        raise GroupMismatchError(
            "cannot multiply conjugacy classes of different groups")
    g = x.group
    pairs = _product_bound(g, len(x.members), len(y.members))
    mul = g._mul
    a = x.representative
    part = g._partition
    comm = None if part is None else _central_commutators(part, y)
    if comm is None:
        d, total = _covering(
            g, _classes_meeting(g, [mul(a, v) for v in y.members]))
    else:
        w = part._index_of[mul(a, y.representative)]
        if (w, comm) not in part._translates:
            part._translates[w, comm] = _covering(g, _central_translates(
                g, part.classes[w].representative, comm))
        d, total = part._translates[w, comm]
    if total > pairs:
        raise PreconditionViolatedError(
            f"classes cover {total} elements but the product has at "
            f"most {pairs}")
    return d


def as_subgroup(g: GroupHandle, members: Iterable[Element]) -> SubgroupView | None:
    """View a set as a subgroup if it is one, else None (no closure taken)."""
    raw = sorted(set(members))
    if g.identity not in raw:
        return None
    rawset = set(raw)
    mul = g._mul
    for u in raw:
        for v in raw:
            if mul(u, v) not in rawset:
                return None
    return SubgroupView(g, raw)


def eta_one_criterion(g: GroupHandle, a: Element, b: Element) -> bool:
    """Commutator-set test for a^G b^G collapsing to the single class (ab)^G.

    True iff [ab,G] = [a,G] = [b,G] as sets and that common set is a
    normal subgroup.  This is equivalent to eta(a^G b^G) = 1 when
    |a^G| = |b^G| = |(ab)^G| or when C_G(a) = C_G(b); both hypotheses
    are checked here, the centralizers only when the sizes differ, and
    the call raises when neither holds.
    """
    g._check(a)
    g._check(b)
    ab = g._mul(a, b)
    # |[x,G]| = |x^G|, so the commutator sets give the class sizes too;
    # each distinct one is built once.
    sets = {x: commutator_set(g, x).elements for x in {a, b, ab}}
    ka, kb, kab = sets[a], sets[b], sets[ab]
    if (not len(ka) == len(kb) == len(kab)
            and centralizer(g, a) != centralizer(g, b)):
        raise PreconditionViolatedError(
            f"neither hypothesis holds: |a^G|={len(ka)}, |b^G|={len(kb)}, "
            f"|(ab)^G|={len(kab)} differ and the centralizers of a and b "
            "differ")
    if not ka == kb == kab:
        return False
    view = as_subgroup(g, kab)
    return view is not None and view.is_normal
