"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's orbit and partition
machinery: classes are computed by conjugating with every group element,
centralizers by a full sweep, and the dihedral reference table is built
straight from the presentation.  Tests compare the fast paths against
these slow but obviously correct computations.  The shorthands under
"checks through the library's own classes and products" are not oracles:
they state an identity, or rebuild a report, with the library itself.
"""

from __future__ import annotations

import itertools
import random

import pytest

import classprod.verify as verify_mod
from classprod import (
    CayleyTableGroup,
    ConstructionSpec,
    Element,
    build,
    class_partition,
    class_product,
    commutator_set,
    conjugacy_class,
)
from classprod.formats import cayley_table_text
from classprod.verify import SpectrumEntry, TheoremReport, Violation


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_class(g, a: Element) -> frozenset[Element]:
    """Conjugacy class of ``a`` by conjugating with every element of ``g``."""
    return frozenset(g.conjugate(a, x) for x in g.elements())


def brute_centralizer(g, a: Element) -> frozenset[Element]:
    out = set()
    for x in g.elements():
        if g.multiply(x, a) == g.multiply(a, x):
            out.add(x)
    return frozenset(out)


def brute_center(g) -> frozenset[Element]:
    elems = g.elements()
    out = set()
    for z in elems:
        if all(g.multiply(z, x) == g.multiply(x, z) for x in elems):
            out.add(z)
    return frozenset(out)


def brute_class_partition(g) -> list[frozenset[Element]]:
    """All conjugacy classes, via repeated full-sweep orbits."""
    seen: set[Element] = set()
    out = []
    for x in g.elements():
        if x in seen:
            continue
        cls = brute_class(g, x)
        seen |= cls
        out.append(cls)
    return out


def brute_eta(g, a: Element, b: Element) -> int:
    """Number of classes in a^G b^G, computed entirely with full sweeps."""
    xa = brute_class(g, a)
    xb = brute_class(g, b)
    product = {g.multiply(x, y) for x in xa for y in xb}
    count = 0
    while product:
        x = next(iter(product))
        product -= brute_class(g, x)
        count += 1
    return count


def brute_closure(g, seed) -> frozenset[Element]:
    """The subgroup generated by ``seed``: the set grown by its own
    products until it stops growing."""
    out = frozenset({g.identity, *seed})
    while True:
        grown = out | {g.multiply(x, y) for x in out for y in out}
        if grown == out:
            return out
        out = grown


def brute_central_translates(g, a: Element,
                             central) -> set[frozenset[Element]]:
    """The distinct classes brute_class(a*n) for n in a central set."""
    return {brute_class(g, g.multiply(a, n)) for n in central}


def quotient(g, normal):
    """G/N for a normal subgroup N, and the projection G -> G/N.

    The cosets are numbered as first met walking the identity and then
    every element in ascending order: the identity's coset is 0 and the
    rest follow by least member.  G/N is the Cayley table of the cosets'
    products, so its own walk checks that it is a group.
    """
    normal = sorted(normal)
    coset_of: dict[Element, int] = {}
    reps = []
    for x in (g.identity, *g.elements()):
        if x not in coset_of:
            coset_of.update(dict.fromkeys(
                (g.multiply(x, n) for n in normal), len(reps)))
            reps.append(x)
    q = CayleyTableGroup([[coset_of[g.multiply(x, y)] for y in reps]
                          for x in reps])
    cosets = q.elements()
    return q, lambda x: cosets[coset_of[x]]


# ---------------------------------------------------------------------------
# checks through the library's own classes and products


def eta(g, a: Element, b: Element) -> int:
    """Number of classes in a^G b^G, by ``class_product``."""
    return class_product(conjugacy_class(g, a), conjugacy_class(g, b)).eta


def check_product_identity(g, a: Element, b: Element) -> bool:
    """Whether a^G b^G = ab * [a^b, G] * [b, G] elementwise.

    The identity holds in every finite group, so a backend with a wrong
    multiplication convention breaks it at once.
    """
    mul = g._mul
    ab = mul(a, b)
    left = {mul(u, v) for u in conjugacy_class(g, a).members
            for v in conjugacy_class(g, b).members}
    right = {mul(ab, mul(u, v))
             for u in commutator_set(g, g.conjugate(a, b)).elements
             for v in commutator_set(g, b).elements}
    return left == right


def report_from_record(obj: dict) -> TheoremReport:
    """The report a record was written from; no shape is checked."""
    spectrum = {int(key): SpectrumEntry(entry["count"],
                                        entry["witness"]["group"],
                                        entry["witness"]["a"],
                                        entry["witness"]["b"])
                for key, entry in obj["spectrum"].items()}
    return TheoremReport(obj["theorem"], obj["group"], obj["p"],
                         obj["pairs_checked"],
                         [Violation(**v) for v in obj["violations"]],
                         spectrum, obj["elapsed_ms"])


def pair_sweep(theorem, p, desc, g, size, square, rule):
    """Per-pair reference for ``verify._sweep``, with the same signature.

    Decomposes every covered pair in scan order, one product each, with
    neither central translates nor symmetry.  Unlike the oracles above it
    reuses the library's partition and products, since it checks only
    the kernel's two reductions.  The product is looked up
    on the ``verify`` module at call time, as the kernel does, so a test
    that fakes it there fakes it for both.
    """
    sized = class_partition(g).classes_of_size(size)
    pairs = (itertools.product(sized, repeat=2) if square
             else ((x, x) for x in sized))
    counts: dict[int, int] = {}
    witnesses: dict[int, tuple[str, str]] = {}
    violations = []
    scanned = 0
    for x, y in pairs:
        scanned += 1
        d = verify_mod.class_product(x, y)
        if d.eta in counts:
            counts[d.eta] += 1
        else:
            counts[d.eta] = 1
            witnesses[d.eta] = (x.representative.hex(),
                                y.representative.hex())
        expected = rule(x, y, d)
        if expected is not None:
            violations.append(Violation(
                x.representative.hex(), y.representative.hex(), d.eta,
                expected))
    spectrum = {value: SpectrumEntry(counts[value], desc, *witnesses[value])
                for value in counts}
    return TheoremReport(theorem, desc, p, scanned, violations, spectrum)


def brute_quadratic_image(r: int, s: int, t: int, p: int) -> frozenset[int]:
    return frozenset((r * i * i + s * i + t) % p for i in range(p))


def dihedral_reference_table(order: int) -> list[list[int]]:
    """Cayley table of the dihedral group of the given (even) order.

    Built directly from the presentation r^m = s^2 = 1, s r s = r^-1,
    with element k = r^(k % m) s^(k // m).  Independent of the library's
    dihedral backend.
    """
    m = order // 2

    def mul(x: int, y: int) -> int:
        i, u = x % m, x // m
        j, v = y % m, y // m
        k = (j + i) % m if v == 0 else (j - i) % m
        return k + m * (u ^ v)

    return [[mul(x, y) for y in range(order)] for x in range(order)]


def relabelled_table(g, seed: int) -> list[list[int]]:
    """Rows of ``cayley_table_text(g)`` under a seeded relabelling.

    The labels 1..n-1 are shuffled by ``random.Random(seed)``; the
    identity keeps 0, as the table format requires.
    """
    lines = cayley_table_text(g).splitlines()
    n = int(lines[0])
    rows = [[int(v) for v in line.split()] for line in lines[1:]]
    label = [0] + random.Random(seed).sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[label[i]][label[j]] = label[rows[i][j]]
    return out


def table_text(rows) -> str:
    """``rows`` in the table file format, one space between entries."""
    return f"{len(rows)}\n" + "".join(" ".join(map(str, row)) + "\n"
                                      for row in rows)


def random_pairs(g, count: int, seed: int = 0):
    """Deterministic list of element pairs for property sweeps."""
    rng = random.Random(seed)
    elems = g.elements()
    return [(rng.choice(elems), rng.choice(elems)) for _ in range(count)]


def sample_elements(g, count: int, seed: int = 0) -> list[Element]:
    """Deterministic pseudo-random elements.

    Enumerable groups are sampled uniformly; beyond the cap we take short
    random generator words, which is enough for law smoke tests.
    """
    rng = random.Random(seed)
    if g.order <= g.order_cap:
        pool = g._raw_elements()
        return [Element(rng.choice(pool)) for _ in range(count)]
    gens = g.generators
    out = []
    for _ in range(count):
        w = g.identity
        for _ in range(rng.randrange(1, 9)):
            w = g._mul(w, rng.choice(gens))
        out.append(Element(w))
    return out


def assert_group_laws(g, samples: int = 1000, seed: int = 0) -> None:
    """Spot-check associativity, identity and inverses on random triples."""
    e = g.identity
    pool = sample_elements(g, 3 * samples, seed)
    for i in range(samples):
        x, y, z = pool[3 * i], pool[3 * i + 1], pool[3 * i + 2]
        if g._mul(g._mul(x, y), z) != g._mul(x, g._mul(y, z)):
            raise AssertionError(
                f"associativity fails at ({x.hex()}, {y.hex()}, {z.hex()})")
        if g._mul(e, x) != x or g._mul(x, e) != x:
            raise AssertionError(f"identity law fails at {x.hex()}")
        xi = g._inv(x)
        if g._mul(xi, x) != e or g._mul(x, xi) != e:
            raise AssertionError(f"inverse law fails at {x.hex()}")


# ---------------------------------------------------------------------------
# fixtures for groups reused across files


@pytest.fixture(scope="session")
def cyclic9():
    return build(ConstructionSpec(kind="cyclic", n=9))


@pytest.fixture(scope="session")
def dihedral8():
    return build(ConstructionSpec(kind="dihedral", n=8))


@pytest.fixture(scope="session")
def quaternion8():
    return build(ConstructionSpec(kind="quaternion8"))


@pytest.fixture(scope="session")
def heisenberg27():
    return build(ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1))


@pytest.fixture(scope="session")
def wreath81():
    return build(ConstructionSpec(
        kind="wreath-cyclic", p=3, base=ConstructionSpec(kind="cyclic", n=3)))


@pytest.fixture(scope="session")
def affine162():
    return build(ConstructionSpec(kind="affine-wreath", p=3))
