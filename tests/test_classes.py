"""Conjugacy classes, class products, eta, and the structural criteria."""

import pytest

from classprod import (
    CayleyTableGroup,
    ConstructionSpec,
    EnumerationCapError,
    GroupMismatchError,
    InvalidParameterError,
    PreconditionViolatedError,
    build,
    center,
    centralizer,
    class_partition,
    class_product,
    commutator_set,
    conjugacy_class,
    corpus,
    eta_one_criterion,
)
from classprod.classes import (
    ConjugacyClass,
    _central_commutators,
    _central_translates,
    _classes_meeting,
    as_subgroup,
)

from conftest import (
    brute_class,
    brute_class_partition,
    brute_closure,
    brute_eta,
    check_product_identity,
    eta,
    sample_elements,
)


# ---------------------------------------------------------------------------
# classes and partitions


@pytest.mark.parametrize("fixture", [
    "dihedral8", "quaternion8", "heisenberg27", "wreath81", "affine162"])
def test_class_matches_brute_force(fixture, request):
    g = request.getfixturevalue(fixture)
    for a in g.elements():
        cls = conjugacy_class(g, a)
        assert cls.members == brute_class(g, a)
        assert cls.size == len(cls.members)
        assert cls.representative == min(cls.members)


def test_partition_matches_brute_force(wreath81):
    fast = {cls.members for cls in class_partition(wreath81)}
    slow = set(brute_class_partition(wreath81))
    assert fast == slow


def test_partition_covers_group(affine162):
    part = class_partition(affine162)
    assert sum(cls.size for cls in part) == affine162.order
    reps = [cls.representative for cls in part]
    assert reps == sorted(reps)


# Every direct-product and elementary-abelian corpus group (the p = 2
# ones include table-backed quaternion and dihedral factors), plus one
# product nested inside another.
PRODUCT_SPECS = [
    spec for p, max_order in ((3, 729), (5, 625), (2, 64))
    for spec in corpus(p, max_order)
    if spec.kind in ("direct-product", "elementary-abelian")
] + [ConstructionSpec(kind="direct-product", factors=(
    ConstructionSpec(kind="cyclic", n=3),
    ConstructionSpec(kind="direct-product", factors=(
        ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
        ConstructionSpec(kind="cyclic", n=3)))))]


@pytest.mark.parametrize("spec", PRODUCT_SPECS, ids=str)
def test_product_partition_matches_brute_force(spec):
    g = build(spec)
    part = class_partition(g)
    assert [c.members for c in part.classes] == brute_class_partition(g)
    for i, c in enumerate(part.classes):
        assert all(part._index_of[raw] == i for raw in c.members)


def test_product_partition_past_the_cap_raises():
    nine = ConstructionSpec(kind="cyclic", n=9)
    g = build(ConstructionSpec(kind="direct-product", factors=(nine, nine)),
              order_cap=50)
    assert all(f.order <= g.order_cap for f in g.factor_groups)
    with pytest.raises(EnumerationCapError):
        class_partition(g)
    assert g._partition is None


def test_product_partition_rejects_a_short_factor_partition():
    g = build(ConstructionSpec(kind="elementary-abelian", p=3, n=2))
    factor = class_partition(g.factor_groups[1])
    factor.classes = factor.classes[:-1]
    with pytest.raises(InvalidParameterError, match="covers 6 elements"):
        class_partition(g)


def test_class_sizes_divide_order(heisenberg27, dihedral8):
    for g in (heisenberg27, dihedral8):
        for cls in class_partition(g):
            assert g.order % cls.size == 0


def test_class_of_lookup(wreath81):
    part = class_partition(wreath81)
    for x in sample_elements(wreath81, 25, seed=11):
        assert x in part.class_of(x).members


def test_class_equality_and_hash(heisenberg27):
    a = heisenberg27.generators[0]
    c1 = conjugacy_class(heisenberg27, a)
    c2 = conjugacy_class(heisenberg27, heisenberg27.conjugate(
        a, heisenberg27.generators[1]))
    assert c1 == c2
    assert hash(c1) == hash(c2)
    assert len({c1, c2}) == 1


# ---------------------------------------------------------------------------
# commutator sets


def test_commutator_set_is_shifted_class(wreath81):
    for a in sample_elements(wreath81, 15, seed=2):
        cs = commutator_set(wreath81, a)
        cls = conjugacy_class(wreath81, a)
        inv = wreath81.inverse(a)
        assert cs.elements == frozenset(
            wreath81.multiply(inv, x) for x in cls.members)
        assert len(cs.elements) == cls.size
        assert wreath81.identity in cs.elements


def test_commutator_set_of_central_element(heisenberg27):
    z = sorted(center(heisenberg27).elements)[1]
    cs = commutator_set(heisenberg27, z)
    assert cs.elements == frozenset({heisenberg27.identity})


# ---------------------------------------------------------------------------
# class products and eta


def test_class_product_rejects_mixed_groups(dihedral8, quaternion8):
    xa = conjugacy_class(dihedral8, dihedral8.generators[0])
    xb = conjugacy_class(quaternion8, quaternion8.generators[0])
    with pytest.raises(GroupMismatchError):
        class_product(xa, xb)


def test_relabelled_tables_are_different_groups():
    # Z5 twice, the second with labels 2 and 3 swapped: same order,
    # identity and generator bytes, but 2*2 is 4 in one and 1 in the other.
    swap = [0, 1, 3, 2, 4]
    g1 = CayleyTableGroup([[(i + j) % 5 for j in range(5)]
                           for i in range(5)])
    g2 = CayleyTableGroup([[swap[(swap[i] + swap[j]) % 5] for j in range(5)]
                           for i in range(5)])
    assert g1.generators == g2.generators
    two = bytes([2])
    x1 = conjugacy_class(g1, g1.element(two))
    x2 = conjugacy_class(g2, g2.element(two))
    assert x1 != x2
    assert x1 == conjugacy_class(g1, g1.element(two))
    assert hash(x1) == hash(x2)
    with pytest.raises(GroupMismatchError):
        class_product(x1, x2)
    with pytest.raises(GroupMismatchError):
        class_product(x2, x1)


# The order-7^36 wreath of C7 over ES(7,2) is far too large to enumerate;
# the class of its first generator has 49 elements.
BIG_WREATH = ConstructionSpec(
    kind="wreath-cyclic", p=7,
    base=ConstructionSpec(kind="extraspecial-exponent-p", p=7, l=2))


def test_orbit_past_the_cap_raises():
    g = build(BIG_WREATH, order_cap=40)
    with pytest.raises(EnumerationCapError):
        conjugacy_class(g, g.generators[0])


def test_orbit_cap_boundary():
    # the class has 49 elements: a cap of 48 stops the orbit, 49 admits it
    g = build(BIG_WREATH, order_cap=48)
    with pytest.raises(EnumerationCapError,
                       match="exceeds the enumeration cap 48"):
        conjugacy_class(g, g.generators[0])
    g = build(BIG_WREATH, order_cap=49)
    assert conjugacy_class(g, g.generators[0]).size == 49


def test_class_product_past_the_cap_raises():
    g = build(BIG_WREATH, order_cap=1000)
    x = conjugacy_class(g, g.generators[0])
    assert x.size == 49
    with pytest.raises(EnumerationCapError, match="may hold 2401 elements"):
        class_product(x, x)


def test_orbit_and_product_fit_the_default_cap():
    g = build(BIG_WREATH)
    x = conjugacy_class(g, g.generators[0])
    assert x.size == 49
    d = class_product(x, x)
    assert sum(d.sizes()) <= 49 * 49
    assert check_product_identity(g, g.generators[0], g.generators[0])


# Every corpus group to 729 at p = 3 and to 625 at p = 5.
GATE_GROUPS = ([(3, spec) for spec in corpus(3, 729)]
                 + [(5, spec) for spec in corpus(5, 625)])


def _set_path_classes(x, y):
    """The classes of the whole product set x * y, which cover it."""
    g = x.group
    members = {g._mul(u, v) for u in x.members for v in y.members}
    classes = _classes_meeting(g, members)
    assert sum(c.size for c in classes) == len(members)
    return classes


@pytest.mark.parametrize("p,spec", GATE_GROUPS,
                         ids=[f"p{p}-{spec}" for p, spec in GATE_GROUPS])
def test_fixed_representative_product_matches_set_path(p, spec):
    # with the partition cached, class_product multiplies one fixed
    # representative of x by y; the classes and their order must equal
    # those of the full product set, for every ordered pair of size-p
    # classes
    g = build(spec)
    sized = class_partition(g).classes_of_size(p)
    for x in sized:
        for y in sized:
            assert class_product(x, y).classes == _set_path_classes(x, y)


# Every corpus group to 243 at p = 3 and to 125 at p = 5.
FRESH_GATE_GROUPS = ([(3, spec) for spec in corpus(3, 243)]
                     + [(5, spec) for spec in corpus(5, 125)])


@pytest.mark.parametrize("p,spec", FRESH_GATE_GROUPS,
                         ids=[f"p{p}-{spec}" for p, spec in FRESH_GATE_GROUPS])
def test_product_without_partition_matches_set_path(p, spec):
    # a handle with no partition peels the classes meeting a*y orbit by
    # orbit; they must equal the classes of the full product set, split
    # through another handle's cached partition
    g = build(spec)
    sized = class_partition(g).classes_of_size(p)
    fresh = build(spec)
    for x in sized:
        fx = conjugacy_class(fresh, x.representative)
        for y in sized:
            fy = conjugacy_class(fresh, y.representative)
            assert ([c.members for c in class_product(fx, fy).classes]
                    == [c.members for c in _set_path_classes(x, y)])
    assert fresh._partition is None


def test_fixed_representative_product_rejects_an_oversized_cover(
        heisenberg27):
    # a one-element "class" that is not closed under conjugation: its
    # product with the identity class meets a class of size 3
    part = class_partition(heisenberg27)
    one = part.classes_of_size(1)[0]
    big = part.classes_of_size(3)[0]
    stray = ConjugacyClass(heisenberg27, frozenset([big.representative]))
    with pytest.raises(PreconditionViolatedError, match="cover 3 elements"):
        class_product(one, stray)


def test_stray_set_leaves_no_trace_in_the_partition_caches():
    # a one-element "class" sharing each real class's representative, on
    # either side of a product; the real classes' products afterwards
    # must still equal those of the full product set
    g = build(ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1))
    part = class_partition(g)
    one = part.classes_of_size(1)[0]
    sized = part.classes_of_size(3)
    for y in sized:
        stray = ConjugacyClass(g, frozenset([y.representative]))
        assert _central_commutators(part, stray) is None
        with pytest.raises(PreconditionViolatedError,
                           match="cover 3 elements"):
            class_product(one, stray)
        for x in sized:
            class_product(x, stray)
    for x in sized:
        for y in sized:
            assert class_product(x, y).classes == _set_path_classes(x, y)


# (size-p classes whose [y,G] is central, size-p classes) of every
# nonabelian corpus group to 729 at p = 3 and to 3125 at p = 5
SHORTCUT_COUNTS = {
    "extraspecial-exponent-p(p=3, l=1)": (8, 8),
    "extraspecial-exponent-p(p=3, l=2)": (80, 80),
    "direct-product(factors=[extraspecial-exponent-p(p=3, l=1), "
    "cyclic(n=3)])": (24, 24),
    "direct-product(factors=[extraspecial-exponent-p(p=3, l=1), "
    "cyclic(n=9)])": (72, 72),
    "direct-product(factors=[extraspecial-exponent-p(p=3, l=1), "
    "cyclic(n=27)])": (216, 216),
    "direct-product(factors=[extraspecial-exponent-p(p=3, l=2), "
    "cyclic(n=3)])": (240, 240),
    "wreath-cyclic(p=3, base=cyclic(n=3))": (2, 8),
    "iterated-wreath-sylow(p=3, copies=2)": (2, 8),
    "extraspecial-exponent-p(p=5, l=1)": (24, 24),
    "extraspecial-exponent-p(p=5, l=2)": (624, 624),
    "direct-product(factors=[extraspecial-exponent-p(p=5, l=1), "
    "cyclic(n=5)])": (120, 120),
    "direct-product(factors=[extraspecial-exponent-p(p=5, l=1), "
    "cyclic(n=25)])": (600, 600),
}
SHORTCUT_GROUPS = [(p, spec) for p, n in ((3, 729), (5, 3125))
                   for spec in corpus(p, n) if str(spec) in SHORTCUT_COUNTS]


@pytest.mark.parametrize("p,spec", SHORTCUT_GROUPS,
                         ids=[f"p{p}-{spec}" for p, spec in SHORTCUT_GROUPS])
def test_central_commutator_shortcut_classes(p, spec):
    # class_product translates by [y,G] exactly when it is central; the
    # cached set must equal commutator_set and lie in the centre, and
    # every other size-p class must have a non-central [y,G]
    g = build(spec)
    part = class_partition(g)
    z = center(g).elements
    sized = part.classes_of_size(p)
    hits = 0
    for y in sized:
        comm = set(commutator_set(g, y.representative))
        cached = _central_commutators(part, y)
        assert (cached is not None) == (comm <= z)
        if cached is not None:
            assert cached == comm
            hits += 1
    assert (hits, len(sized)) == SHORTCUT_COUNTS[str(spec)]
    assert len(SHORTCUT_GROUPS) == len(SHORTCUT_COUNTS)


@pytest.mark.parametrize("fixture", [
    "dihedral8", "quaternion8", "heisenberg27", "affine162"])
def test_eta_matches_brute_force(fixture, request):
    g = request.getfixturevalue(fixture)
    reps = [cls.representative for cls in class_partition(g)]
    for a in reps:
        for b in reps:
            assert eta(g, a, b) == brute_eta(g, a, b)


WREATH81 = ConstructionSpec(kind="wreath-cyclic", p=3,
                            base=ConstructionSpec(kind="cyclic", n=3))


@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached"])
def test_decomposition_classes_cover_product(cached):
    g = build(WREATH81)
    if cached:
        class_partition(g)
    for a in sample_elements(g, 6, seed=3):
        for b in sample_elements(g, 6, seed=4):
            x, y = conjugacy_class(g, a), conjugacy_class(g, b)
            d = class_product(x, y)
            product = {g.multiply(u, v) for u in x.members for v in y.members}
            union = set()
            for cls in d.classes:
                assert cls.members <= product
                union |= cls.members
            assert union == product
            assert d.eta == len(d.classes)
            reps = [cls.representative for cls in d.classes]
            assert reps == sorted(reps)
    assert (g._partition is not None) == cached


@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached"])
@pytest.mark.parametrize("spec", [
    ConstructionSpec(kind="dihedral", n=8),
    ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
    WREATH81,
], ids=str)
def test_classes_meeting_finds_the_classes_a_set_meets(spec, cached):
    g = build(spec)
    if cached:
        class_partition(g)
    brute = sorted(brute_class_partition(g), key=min)
    whole = _classes_meeting(g, g.elements())
    assert [c.members for c in whole] == brute
    # one member of every other class, listed twice in two orders
    met = brute[::2]
    picks = [max(c) for c in met]
    found = _classes_meeting(g, picks + picks[::-1])
    assert [c.members for c in found] == met
    assert _classes_meeting(g, []) == ()
    assert (g._partition is not None) == cached


def test_eta_is_symmetric(heisenberg27):
    reps = [cls.representative for cls in class_partition(heisenberg27)]
    for a in reps:
        for b in reps:
            assert eta(heisenberg27, a, b) == eta(heisenberg27, b, a)


# ---------------------------------------------------------------------------
# subgroup recognition and the eta = 1 criterion


def test_as_subgroup_accepts_commutator_subgroup(heisenberg27):
    a = heisenberg27.generators[0]
    cs = commutator_set(heisenberg27, a)
    sub = as_subgroup(heisenberg27, cs.elements)
    assert sub is not None
    assert len(sub) == 3
    assert sub.is_normal


def test_as_subgroup_rejects_non_subgroup(dihedral8):
    rot = dihedral8.generators[0]
    cls = conjugacy_class(dihedral8, rot)
    # {r, r^3} misses the identity
    assert as_subgroup(dihedral8, cls.members) is None


def test_as_subgroup_rejects_a_set_that_is_not_closed(heisenberg27):
    # {e, g0, g1} holds the identity and has order 3, dividing 27, but
    # g0*g0 lies outside it
    g0, g1 = heisenberg27.generators
    assert as_subgroup(heisenberg27, [heisenberg27.identity, g0, g1]) is None


def test_eta_one_criterion_positive(heisenberg27):
    # squaring a noncentral element: all three classes have size 3 and
    # the commutator sets coincide with the center, so eta = 1
    a = heisenberg27.generators[0]
    assert eta_one_criterion(heisenberg27, a, a)
    assert eta(heisenberg27, a, a) == 1


def test_eta_one_criterion_negative(wreath81):
    spec = ConstructionSpec(kind="wreath-cyclic", p=3,
                            base=ConstructionSpec(kind="cyclic", n=3))
    from classprod import distinguished_element
    a = distinguished_element(spec, "a-standard")
    assert not eta_one_criterion(wreath81, a, a)
    assert eta(wreath81, a, a) == 2


def test_eta_one_criterion_agrees_with_eta(heisenberg27):
    # wherever the hypothesis holds, the criterion must equal [eta == 1]
    reps = [cls.representative for cls in class_partition(heisenberg27)]
    checked = 0
    for a in reps:
        for b in reps:
            ka = conjugacy_class(heisenberg27, a).size
            kb = conjugacy_class(heisenberg27, b).size
            kab = conjugacy_class(
                heisenberg27, heisenberg27.multiply(a, b)).size
            if not (ka == kb == kab):
                continue
            checked += 1
            verdict = eta_one_criterion(heisenberg27, a, b)
            assert verdict == (eta(heisenberg27, a, b) == 1)
    assert checked > 0


def test_eta_one_criterion_centralizer_hypothesis(heisenberg27):
    a = heisenberg27.generators[0]
    b = heisenberg27.multiply(a, a)
    assert centralizer(heisenberg27, a) == centralizer(heisenberg27, b)
    verdict = eta_one_criterion(heisenberg27, a, b)
    assert verdict == (eta(heisenberg27, a, b) == 1)


def test_eta_one_criterion_checks_hypothesis(dihedral8):
    rot = dihedral8.generators[0]
    flip = dihedral8.generators[1]
    # |rot^G| = 2 but the identity's class has size 1, and the
    # centralizers differ too: neither hypothesis holds
    with pytest.raises(PreconditionViolatedError):
        eta_one_criterion(dihedral8, rot, dihedral8.identity)
    # the centralizers of rot and flip differ, but the three class sizes
    # are all 2, so the criterion applies
    assert centralizer(dihedral8, rot) != centralizer(dihedral8, flip)
    assert eta_one_criterion(dihedral8, rot, flip)
    assert eta(dihedral8, rot, flip) == 1


# ---------------------------------------------------------------------------
# central translates


def test_central_translates_of_noncentral_class(heisenberg27):
    a = heisenberg27.generators[0]
    cls = conjugacy_class(heisenberg27, a)
    z = center(heisenberg27)
    translates = _central_translates(heisenberg27, a, z.elements)
    # [a,G] is the whole center here, so all translates coincide
    assert len(translates) == 1


def test_central_translates_trivial_intersection():
    # K x L with a noncentral in K and N the center of the L factor:
    # [b,G] meets N trivially, so each n gives a distinct class
    spec = ConstructionSpec(kind="direct-product", factors=(
        ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
        ConstructionSpec(kind="cyclic", n=3)))
    g = build(spec)
    a = g.generators[0]
    cls = conjugacy_class(g, a)
    tail = brute_closure(g, [g.generators[-1]])
    translates = _central_translates(g, a, tail)
    assert len(translates) == 3
    for t in translates:
        assert t.size == cls.size


ES31_C3 = ConstructionSpec(kind="direct-product", factors=(
    ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
    ConstructionSpec(kind="cyclic", n=3)))


def test_central_translates_are_the_partitions_own_classes():
    # with a cached partition the translates are looked up, not rebuilt;
    # a fresh handle peels them orbit by orbit to the same members
    g = build(ES31_C3)
    part = class_partition(g)
    fresh = build(ES31_C3)
    z, fresh_z = center(g), center(fresh)
    for cls in part:
        translates = _central_translates(g, cls.representative, z.elements)
        assert all(t is part.class_of(t.representative) for t in translates)
        again = _central_translates(fresh, cls.representative,
                                    fresh_z.elements)
        assert [t.members for t in again] == [t.members for t in translates]
    assert fresh._partition is None


def test_center_orbits_are_the_central_translates_of_their_leaders():
    g = build(ES31_C3)
    part = class_partition(g)
    z = center(g)
    orbits = part.center_orbits(3)
    assert sorted((c for orbit in orbits for c in orbit),
                  key=lambda c: c.representative) == list(
                      part.classes_of_size(3))
    assert [orbit[0] for orbit in orbits] == sorted(
        (orbit[0] for orbit in orbits), key=lambda c: c.representative)
    for orbit in orbits:
        assert orbit == _central_translates(g, orbit[0].representative,
                                            z.elements)
        assert orbit[0] == min(orbit, key=lambda c: c.representative)


# ---------------------------------------------------------------------------
# the product identity


@pytest.mark.parametrize("fixture", [
    "dihedral8", "heisenberg27", "wreath81", "affine162"])
def test_product_identity_all_rep_pairs(fixture, request):
    g = request.getfixturevalue(fixture)
    reps = [cls.representative for cls in class_partition(g)]
    for a in reps:
        for b in reps:
            assert check_product_identity(g, a, b)
