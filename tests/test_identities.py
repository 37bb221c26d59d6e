"""Structural identities of class products.

Each test here checks one exact identity that the verifiers lean on:
the translate form of a product, central-translate counting, direct
product multiplicativity, quotient monotonicity, and the centralizer
facts that drive the size-2 and center-avoidance arguments.
"""

import itertools

import pytest

from classprod import (
    CayleyTableGroup,
    ConstructionSpec,
    build,
    center,
    centralizer,
    class_partition,
    class_product,
    commutator_set,
    conjugacy_class,
)
from classprod.classes import _central_translates

from conftest import (
    brute_central_translates,
    brute_closure,
    brute_eta,
    check_product_identity,
    eta,
    quotient,
    random_pairs,
    relabelled_table,
)


# ---------------------------------------------------------------------------
# a^G b^G as a translate of commutator sets


@pytest.mark.parametrize("fixture", [
    "dihedral8", "quaternion8", "heisenberg27", "wreath81", "affine162"])
def test_product_translate_identity_random_pairs(fixture, request):
    g = request.getfixturevalue(fixture)
    for a, b in random_pairs(g, 120, seed=17):
        assert check_product_identity(g, a, b)


@pytest.mark.parametrize("spec", [
    ConstructionSpec(kind="iterated-wreath-sylow", p=3, copies=2),
    ConstructionSpec(kind="direct-product", factors=(
        ConstructionSpec(kind="dihedral", n=8),
        ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1))),
    ConstructionSpec(kind="iterated-wreath-sylow", p=2, copies=3),
    ConstructionSpec(kind="dihedral", n=16),
], ids=str)
def test_product_translate_identity_on_more_backends(spec):
    g = build(spec)
    for a, b in random_pairs(g, 40, seed=23):
        assert check_product_identity(g, a, b)


def test_product_translate_identity_on_a_relabelled_table(heisenberg27):
    # a table whose labels are not the encoding order of the group
    g = CayleyTableGroup(relabelled_table(heisenberg27, seed=5))
    for a, b in random_pairs(g, 120, seed=17):
        assert check_product_identity(g, a, b)


def test_product_translate_identity_shape(heisenberg27):
    # spot-check the set equality by assembling the right side manually
    g = heisenberg27
    a, b = g.generators[0], g.generators[1]
    left = {g.multiply(x, y)
            for x in conjugacy_class(g, a).members
            for y in conjugacy_class(g, b).members}
    ab = g.multiply(a, b)
    conj_a = g.conjugate(a, b)
    right = {g.multiply(g.multiply(ab, u), v)
             for u in commutator_set(g, conj_a).elements
             for v in commutator_set(g, b).elements}
    assert left == right


# ---------------------------------------------------------------------------
# counting central translates


def _central_subgroups(g):
    """All subgroups of the center, by brute closure over subsets."""
    z = sorted(center(g).elements)
    out = []
    for k in range(len(z) + 1):
        for seed in itertools.combinations(z, k):
            sub = brute_closure(g, seed)
            if sub not in out:
                out.append(sub)
    return out


@pytest.mark.parametrize("spec", [
    ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
    ConstructionSpec(kind="direct-product", factors=(
        ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
        ConstructionSpec(kind="cyclic", n=3))),
    ConstructionSpec(kind="wreath-cyclic", p=3,
                     base=ConstructionSpec(kind="cyclic", n=3)),
])
def test_central_translate_count(spec):
    g = build(spec)
    reps = [cls.representative for cls in class_partition(g)]
    for n_set in _central_subgroups(g):
        for b in reps:
            cls = conjugacy_class(g, b)
            translates = _central_translates(g, b, n_set)
            assert {t.members for t in translates} == \
                brute_central_translates(g, b, n_set)
            stab = sum(1 for n in n_set
                       if n in commutator_set(g, b).elements)
            assert len(translates) == len(n_set) // stab
            # every translate is a genuine class of the same size
            for t in translates:
                assert t.size == cls.size


def test_central_translates_partition_coset(heisenberg27):
    g = heisenberg27
    z = center(g)
    b = g.generators[0]
    cls = conjugacy_class(g, b)
    translates = _central_translates(g, b, z.elements)
    union = set()
    for t in translates:
        union |= t.members
    assert union == {g.multiply(x, n) for x in cls.members
                     for n in z.elements}


# ---------------------------------------------------------------------------
# direct products multiply eta


@pytest.mark.parametrize("left,right", [
    (ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
     ConstructionSpec(kind="cyclic", n=9)),
    (ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
     ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1)),
    (ConstructionSpec(kind="dihedral", n=8),
     ConstructionSpec(kind="quaternion8")),
])
def test_direct_product_eta_multiplicative(left, right):
    k = build(left)
    l = build(right)
    g = build(ConstructionSpec(kind="direct-product", factors=(left, right)))
    width_k = k.encoding_width

    def pack(x, y):
        return g.element(x + y)

    k_reps = [c.representative for c in class_partition(k)][:6]
    l_reps = [c.representative for c in class_partition(l)][:6]
    for a, b in itertools.product(k_reps, repeat=2):
        for c, d in itertools.product(l_reps, repeat=2):
            expected = eta(k, a, b) * eta(l, c, d)
            assert eta(g, pack(a, c), pack(b, d)) == expected


# ---------------------------------------------------------------------------
# quotient monotonicity


@pytest.mark.parametrize("spec", [
    ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
    ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=2),
    ConstructionSpec(kind="wreath-cyclic", p=3,
                     base=ConstructionSpec(kind="cyclic", n=3)),
    ConstructionSpec(kind="iterated-wreath-sylow", p=3, copies=2),
])
def test_quotient_eta_monotone(spec):
    g = build(spec)
    q, project = quotient(g, center(g).elements)
    for a, b in random_pairs(g, 60, seed=23):
        upstairs = eta(g, a, b)
        downstairs = eta(q, project(a), project(b))
        assert downstairs <= upstairs


def test_quotient_class_disjointness_lifts(wreath81):
    # distinct images downstairs force distinct classes upstairs
    g = wreath81
    q, project = quotient(g, center(g).elements)
    part = class_partition(g)
    for ca in part:
        for cb in part:
            qa = conjugacy_class(q, project(ca.representative))
            qb = conjugacy_class(q, project(cb.representative))
            if qa.members.isdisjoint(qb.members):
                assert ca.members.isdisjoint(cb.members)


# ---------------------------------------------------------------------------
# products that meet the center


@pytest.mark.parametrize("fixture", [
    "dihedral8", "quaternion8", "heisenberg27", "affine162"])
def test_center_meeting_product_forces_conjugate_centralizers(
        fixture, request):
    g = request.getfixturevalue(fixture)
    z = center(g).elements
    reps = [cls.representative for cls in class_partition(g)]
    for a in reps:
        for b in reps:
            d = class_product(conjugacy_class(g, a), conjugacy_class(g, b))
            if not any(x in z for x in d.source):
                continue
            ca = centralizer(g, a)
            cb = centralizer(g, b)
            conjugate = any(
                frozenset(g.conjugate(h, x) for h in ca.elements)
                == cb.elements
                for x in g.elements())
            assert conjugate, (a, b)


def test_odd_order_square_meets_center_only_when_central(
        heisenberg27, wreath81, affine162):
    # affine162 has even order, so only the odd-order groups constrain
    for g in (heisenberg27, wreath81):
        z = center(g).elements
        for cls in class_partition(g):
            a = cls.representative
            d = class_product(cls, cls)
            meets = any(x in z for x in d.source)
            assert meets == (cls.size == 1)


def test_even_order_square_can_meet_center(dihedral8):
    # the reflection class squares onto the identity: the odd-order
    # center-avoidance genuinely needs odd order
    flip = dihedral8.generators[1]
    cls = conjugacy_class(dihedral8, flip)
    assert cls.size == 2
    d = class_product(cls, cls)
    assert dihedral8.identity in d.source


# ---------------------------------------------------------------------------
# size-2 classes with a shared centralizer


def test_size_two_shared_centralizer_eta(dihedral8, quaternion8):
    found = 0
    for g in (dihedral8, quaternion8):
        reps = [cls.representative for cls in class_partition(g)
                if cls.size == 2]
        for a in reps:
            for b in reps:
                if centralizer(g, a) != centralizer(g, b):
                    continue
                found += 1
                assert eta(g, a, b) == 2
    assert found > 0


def test_size_two_pairs_eta_bounded(dihedral8, quaternion8):
    for g in (dihedral8, quaternion8):
        reps = [cls.representative for cls in class_partition(g)
                if cls.size == 2]
        for a in reps:
            for b in reps:
                assert eta(g, a, b) in (1, 2)
                assert brute_eta(g, a, b) == eta(g, a, b)
