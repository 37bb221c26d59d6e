"""Group backends: arithmetic, validation, subgroups."""

import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from classprod import (
    CayleyTableGroup,
    ConstructionSpec,
    Element,
    EnumerationCapError,
    ForeignElementError,
    InvalidParameterError,
    PermutationGroup,
    SubgroupView,
    build,
    center,
    centralizer,
    commutator_set,
    conjugacy_class,
    distinguished_element,
    parse_element_word,
)
from classprod.groups import _reach

from conftest import (
    assert_group_laws,
    brute_center,
    brute_centralizer,
    brute_class,
    brute_closure,
    dihedral_reference_table,
    quotient,
    relabelled_table,
    sample_elements,
)


# ---------------------------------------------------------------------------
# Cayley table backend

# A 5x5 Latin square with identity row/column that is not associative:
# (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4.
NONASSOCIATIVE_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


# An order-6 loop whose every row equals the row the walk derives for
# it, with two-sided inverses: only the check of generator rows against
# generator columns can reject it.
LOOP_6 = [
    (0, 1, 2, 3, 4, 5),
    (1, 5, 4, 2, 3, 0),
    (2, 3, 1, 0, 5, 4),
    (3, 4, 0, 5, 1, 2),
    (4, 2, 5, 1, 0, 3),
    (5, 0, 3, 4, 2, 1),
]


def _times_z2(q):
    """The table of Z_2 x q, with (i, a) -> 2a + i."""
    m = 2 * len(q)
    return [[2 * q[a // 2][b // 2] + (a + b) % 2 for b in range(m)]
            for a in range(m)]


def _is_associative(t) -> bool:
    n = range(len(t))
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in n for b in n for c in n)


class _ComparedRows(list):
    """Table rows that record which rows the walk compares."""

    def __init__(self, rows):
        super().__init__(rows)
        self.compared = []

    def row_equals(self, i, row):
        self.compared.append(i)
        return tuple(self[i]) == row


def _rejected_triple(table) -> tuple[int, int, int]:
    """The triple a rejection names, after checking that it really fails."""
    with pytest.raises(InvalidParameterError, match="not associative") as err:
        CayleyTableGroup(table)
    a, b, c = map(int, re.search(r"at \((\d+),(\d+),(\d+)\)",
                                 str(err.value)).groups())
    assert table[table[a][b]][c] != table[a][table[b][c]]
    return a, b, c


def test_cayley_rejects_nonassociative_latin_square():
    with pytest.raises(InvalidParameterError):
        CayleyTableGroup(NONASSOCIATIVE_5)


def test_cayley_reports_the_first_nonassociative_triple():
    with pytest.raises(InvalidParameterError) as err:
        CayleyTableGroup(NONASSOCIATIVE_5)
    x, g, y = map(int, str(err.value).split("(")[1].rstrip(")").split(","))
    t = NONASSOCIATIVE_5
    assert t[t[x][g]][y] != t[x][t[g][y]]


def test_cayley_checks_associativity_at_every_generator():
    # Z_2 x the loop above: the first greedy generator (1, 0) lies in the
    # Z_2 factor; the failure shows only at the third generator, 4.
    assert _rejected_triple(_times_z2(NONASSOCIATIVE_5)) == (2, 4, 4)


def test_cayley_rejects_a_loop_whose_rows_all_derive():
    assert all(LOOP_6[row.index(0)][i] == 0 for i, row in enumerate(LOOP_6))
    assert _rejected_triple(LOOP_6) == (2, 2, 1)


def test_cayley_checks_commutation_at_the_last_generator():
    # the walk reaches every row and compares all but the greedy
    # generators 1, 2 and 4; the failure needs the pairs with 4
    table = _ComparedRows(_times_z2(LOOP_6))
    _rejected_triple(table)
    assert set(range(1, 12)) - set(table.compared) == {1, 2, 4}


def _reduced_latin_squares(n):
    """Every n x n Latin square whose row 0 and column 0 are 0..n-1."""
    rows = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    in_row = [{i} for i in range(n)]
    in_col = [{j} for j in range(n)]
    cells = list(product(range(1, n), repeat=2))

    def fill(k):
        if k == len(cells):
            yield [tuple(row) for row in rows]
            return
        i, j = cells[k]
        for v in range(n):
            if v not in in_row[i] and v not in in_col[j]:
                rows[i][j] = v
                in_row[i].add(v)
                in_col[j].add(v)
                yield from fill(k + 1)
                in_row[i].discard(v)
                in_col[j].discard(v)
    return fill(0)


@pytest.mark.parametrize("n, squares, groups", [
    (1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 4, 4), (5, 56, 6), (6, 9408, 80),
])
def test_cayley_accepts_exactly_the_associative_latin_squares(
        n, squares, groups):
    seen = accepted = 0
    for t in _reduced_latin_squares(n):
        seen += 1
        if _is_associative(t):
            g = CayleyTableGroup(t)
            assert g.order == n
            for x in g.elements():
                y = g.inverse(x)
                assert g.multiply(x, y) == g.multiply(y, x) == g.identity
            accepted += 1
        else:
            _rejected_triple(t)
    assert (seen, accepted) == (squares, groups)


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_cayley_rejects_swapped_intercalate_in_large_table():
    # Swapping 3 and 131 in the intercalate at rows 1, 129 and columns 2,
    # 130 of Z_256 keeps a Latin square with the same identity and
    # inverses, but breaks associativity on few enough triples that a
    # sampled check misses them.
    table = _cyclic_table(256)
    for i, j in ((1, 2), (1, 130), (129, 2), (129, 130)):
        table[i][j] = 3 + 131 - table[i][j]
    with pytest.raises(InvalidParameterError, match="not associative"):
        CayleyTableGroup(table)
    assert CayleyTableGroup(_cyclic_table(256)).order == 256


def test_cayley_rejects_every_transposition_mutant_row():
    # swapping two entries of any row but 0 leaves a Latin square with
    # the same identity that is no group; the walk must name a triple
    # that really fails, whether the row is read or derived
    rows = relabelled_table(build(ConstructionSpec(
        kind="extraspecial-exponent-p", p=3, l=1)), seed=9)
    for z in range(1, len(rows)):
        bad = [list(row) for row in rows]
        bad[z][1], bad[z][2] = bad[z][2], bad[z][1]
        with pytest.raises(InvalidParameterError,
                           match="not associative") as err:
            CayleyTableGroup(bad)
        x, g, y = map(int, str(err.value).split("(")[1].rstrip(")").split(","))
        assert bad[bad[x][g]][y] != bad[x][bad[g][y]]


def test_cayley_walk_compares_each_non_generator_row_once():
    table = _ComparedRows(relabelled_table(build(ConstructionSpec(
        kind="elementary-abelian", p=3, n=3)), seed=9))
    g = CayleyTableGroup(table)
    gens = [g.index_of(x) for x in g.generators]
    assert len(gens) == 3
    assert sorted(table.compared) == sorted(set(range(1, 27)) - set(gens))


def test_cayley_rejects_a_duplicate_in_a_derived_row():
    table = _cyclic_table(6)
    table[4][3] = table[4][2]
    with pytest.raises(InvalidParameterError, match="row 4 is not a bijection"):
        CayleyTableGroup(table)


def test_cayley_order_one_table_loads():
    g = CayleyTableGroup([[0]])
    assert g.order == 1
    assert g.generators == (g.identity,)


def test_cayley_rejects_non_latin_rows():
    with pytest.raises(InvalidParameterError):
        CayleyTableGroup([[0, 1], [1, 1]])


def test_cayley_rejects_shifted_identity():
    # row 0 must act as the identity
    with pytest.raises(InvalidParameterError):
        CayleyTableGroup([[1, 0], [0, 1]])


def test_cayley_rejects_a_row_that_moves_column_0():
    # a bijection that is not the row the identity column asks for
    with pytest.raises(InvalidParameterError, match=re.escape(
            "column 0 must fix every element, but 1*0 = 0")):
        CayleyTableGroup([[0, 1], [0, 1]])


def test_cayley_rejects_a_row_of_the_wrong_length():
    with pytest.raises(InvalidParameterError,
                       match="^row 1 has 3 entries, expected 2$"):
        CayleyTableGroup([[0, 1], [1, 0, 0]])


@pytest.mark.parametrize("table", [
    [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    [(0, True, 2), (True, 2, 0), (2, 0, True)],
    [(0, 1.0, 2), (1, 2, 0), (2, 0, 1.0)],
], ids=["lists", "bools", "floats"])
def test_cayley_coerces_other_rows_to_exact_int_tuples(table):
    g = CayleyTableGroup(table)
    assert g._table == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    assert all(type(row) is tuple and {type(v) for v in row} == {int}
               for row in g._table)


def test_cayley_dihedral_reference_matches_construction(dihedral8):
    table = dihedral_reference_table(8)
    ref = CayleyTableGroup(table)
    assert ref.order == dihedral8.order == 8
    # same multiset of element orders
    def orders(g):
        out = []
        for x in g.elements():
            k = 1
            y = x
            while y != g.identity:
                y = g.multiply(y, x)
                k += 1
            out.append(k)
        return sorted(out)
    assert orders(ref) == orders(dihedral8)


def test_cayley_index_round_trip():
    g = CayleyTableGroup(dihedral_reference_table(12))
    for i, x in enumerate(sorted(g.elements())):
        assert g.index_of(x) is not None
    assert g.order == 12
    assert_group_laws(g)


# ---------------------------------------------------------------------------
# permutation backend


def test_permutation_closure_symmetric_3():
    g = PermutationGroup([[1, 0, 2], [0, 2, 1]])
    assert g.order == 6
    assert_group_laws(g)


def test_permutation_rejects_non_bijection():
    with pytest.raises(InvalidParameterError):
        PermutationGroup([[0, 0, 1]])


@pytest.mark.parametrize("make,message", [
    (lambda: CayleyTableGroup([]), "multiplication table must be nonempty"),
    (lambda: PermutationGroup([]), "at least one generator is required"),
    (lambda: PermutationGroup([[1, 0], [0, 1, 2]]),
     "generator 1 has degree 3, expected 2"),
], ids=["empty-table", "no-generators", "mixed-degrees"])
def test_backends_refuse_empty_or_ragged_input(make, message):
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        make()


def test_permutation_identity_and_inverse():
    g = PermutationGroup([[1, 2, 3, 0]])
    assert g.order == 4
    x = g.generators[0]
    assert g.multiply(x, g.inverse(x)) == g.identity
    assert g.power(x, 4) == g.identity


# ---------------------------------------------------------------------------
# shared handle behavior


@pytest.mark.parametrize("spec", [
    ConstructionSpec(kind="cyclic", n=12),
    ConstructionSpec(kind="dihedral", n=10),
    ConstructionSpec(kind="quaternion8"),
    ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
    ConstructionSpec(kind="wreath-cyclic", p=3,
                     base=ConstructionSpec(kind="cyclic", n=3)),
])
def test_group_laws_hold(spec):
    assert_group_laws(build(spec))


def test_foreign_element_rejected(cyclic9, dihedral8):
    bad = dihedral8.elements()[3]
    with pytest.raises(ForeignElementError):
        cyclic9.multiply(cyclic9.identity, bad)


_C3 = ConstructionSpec(kind="cyclic", n=3)
_ES31 = ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1)


@pytest.mark.parametrize("spec,bad,message", [
    (ConstructionSpec(kind="direct-product", factors=(_ES31, _C3)), "00",
     "must have 4 bytes, got 1"),
    (ConstructionSpec(kind="dihedral", n=8), "0002", "(rotation, flip)"),
    (_ES31, "030000", "(x, y, z)"),
    (ConstructionSpec(kind="wreath-cyclic", p=3, base=_C3), "00000003",
     "(tuple, shift)"),
    (ConstructionSpec(kind="affine-wreath", p=3), "0000000000", "(f, u, v)"),
    (ConstructionSpec(kind="quaternion8"), "08", "table group"),
    (ConstructionSpec(kind="iterated-wreath-sylow", p=3, copies=2),
     "010002030405060708", "permutation group"),
], ids=["direct-product-length", "dihedral", "extraspecial", "wreath-cyclic",
        "affine-wreath", "cayley-table", "permutation"])
def test_each_backend_rejects_a_foreign_encoding(spec, bad, message):
    with pytest.raises(ForeignElementError, match=re.escape(message)):
        build(spec).element(bytes.fromhex(bad))


@pytest.mark.parametrize("spec,value", [
    (ConstructionSpec(kind="cyclic", n=5), 1),
    (ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=2), 5),
    (ConstructionSpec(kind="cyclic", n=5), True),
], ids=["cyclic-1", "extraspecial-5", "bool"])
def test_element_refuses_an_int_as_an_encoding(spec, value):
    with pytest.raises(ForeignElementError,
                       match=f"got {type(value).__name__}$"):
        build(spec).element(value)


@pytest.mark.parametrize("value", ["00", 1.5, None, [300]],
                         ids=["str", "float", "none", "byte-out-of-range"])
def test_element_refuses_what_bytes_cannot_take(value):
    with pytest.raises(ForeignElementError,
                       match=f"got {type(value).__name__}$"):
        build(ConstructionSpec(kind="cyclic", n=5)).element(value)


def test_power_matches_repeated_multiplication(wreath81):
    for x in sample_elements(wreath81, 12, seed=5):
        acc = wreath81.identity
        for k in range(7):
            assert wreath81.power(x, k) == acc
            acc = wreath81.multiply(acc, x)
        assert wreath81.power(x, -1) == wreath81.inverse(x)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 161), st.integers(0, 161), st.integers(0, 161))
def test_associativity_sampled(affine162, i, j, k):
    elems = affine162.elements()
    x, y, z = elems[i], elems[j], elems[k]
    lhs = affine162.multiply(affine162.multiply(x, y), z)
    rhs = affine162.multiply(x, affine162.multiply(y, z))
    assert lhs == rhs


def test_commutator_definition(heisenberg27):
    for a in sample_elements(heisenberg27, 8, seed=1):
        for g in sample_elements(heisenberg27, 8, seed=2):
            expected = heisenberg27.multiply(
                heisenberg27.inverse(a), heisenberg27.conjugate(a, g))
            assert heisenberg27.commutator(a, g) == expected


def test_elements_sorted_and_complete(dihedral8):
    elems = dihedral8.elements()
    assert len(elems) == 8
    assert list(elems) == sorted(elems)
    assert len(set(elems)) == 8


def test_enumeration_cap_enforced():
    spec = ConstructionSpec(kind="cyclic", n=300)
    g = build(spec, order_cap=100)
    with pytest.raises(EnumerationCapError):
        g.elements()


# ---------------------------------------------------------------------------
# subgroups, centralizers, centers


def test_centralizer_matches_brute(dihedral8, heisenberg27):
    for g in (dihedral8, heisenberg27):
        for a in g.elements():
            assert centralizer(g, a).elements == brute_centralizer(g, a)


def test_center_matches_brute(quaternion8, wreath81):
    for g in (quaternion8, wreath81):
        assert center(g).elements == brute_center(g)


def test_orbit_stabilizer_counting(heisenberg27):
    for a in heisenberg27.elements():
        cls = brute_class(heisenberg27, a)
        cent = centralizer(heisenberg27, a)
        assert len(cls) * len(cent) == heisenberg27.order


def test_closure_of_rotation(dihedral8):
    rot = dihedral8.generators[0]
    sub = SubgroupView(dihedral8, brute_closure(dihedral8, [rot]))
    assert len(sub) == 4
    assert sub.is_normal


def test_reach_stops_at_the_first_item_past_the_cap():
    # the walk from 0 by x -> 2x+1, 2x+2 below 7 reaches 0..6 in order
    yielded = []

    def step(x):
        for z in (2 * x + 1, 2 * x + 2):
            if z < 7:
                yielded.append(z)
                yield z

    assert _reach([0], step, 7, "toy walk") == set(range(7))
    yielded.clear()
    with pytest.raises(EnumerationCapError,
                       match="^toy walk exceeds the enumeration cap 5$"):
        _reach([0], step, 5, "toy walk")
    # 5 is the sixth item: nothing is stepped or yielded after it
    assert yielded == [1, 2, 3, 4, 5]


def test_permutation_closure_cap_boundary():
    spec = ConstructionSpec(kind="iterated-wreath-sylow", p=3, copies=2)
    with pytest.raises(EnumerationCapError,
                       match="exceeds the enumeration cap 80"):
        build(spec, order_cap=80)
    assert build(spec, order_cap=81).order == 81


def test_closure_of_reflection_not_normal(dihedral8):
    flip = dihedral8.generators[1]
    sub = SubgroupView(dihedral8, brute_closure(dihedral8, [flip]))
    assert len(sub) == 2
    assert not sub.is_normal


def test_subgroup_view_validation(dihedral8):
    with pytest.raises(InvalidParameterError):
        SubgroupView(dihedral8, dihedral8.elements()[:3])


def test_subgroup_view_refuses_foreign_encodings(cyclic9):
    # once accepted, after which is_normal answered False
    with pytest.raises(ForeignElementError):
        SubgroupView(cyclic9, [cyclic9.identity, b"\xff", b"\xfe"])


FOREIGN_SPECS = [
    ConstructionSpec(kind="cyclic", n=9),
    ConstructionSpec(kind="cyclic", n=300),            # two-byte residues
    ConstructionSpec(kind="elementary-abelian", p=3, n=2),
    ConstructionSpec(kind="dihedral", n=8),
    ConstructionSpec(kind="quaternion8"),              # a Cayley table
    ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
    ConstructionSpec(kind="direct-product", factors=(
        ConstructionSpec(kind="cyclic", n=3),
        ConstructionSpec(kind="dihedral", n=8))),
    ConstructionSpec(kind="wreath-cyclic", p=3,
                     base=ConstructionSpec(kind="cyclic", n=3)),
    ConstructionSpec(kind="affine-wreath", p=3),
    ConstructionSpec(kind="iterated-wreath-sylow", p=3, copies=2),
]


@pytest.mark.parametrize("spec", FOREIGN_SPECS, ids=str)
def test_subgroup_view_refuses_foreign_encodings_on_every_backend(spec):
    # each backend checks its own encodings: one byte too many, one too
    # few, and all bytes 0xff, which no backend here uses
    g = build(spec)
    e = g.identity
    for bad in (e + b"\x00", e[:-1], b"\xff" * len(e)):
        with pytest.raises(ForeignElementError):
            SubgroupView(g, [e, bad])


def test_subgroup_views_of_two_builds_differ(dihedral8):
    h = build(ConstructionSpec(kind="dihedral", n=8))
    z = brute_center(dihedral8)
    assert SubgroupView(dihedral8, z) == SubgroupView(dihedral8, z)
    assert SubgroupView(dihedral8, z) != SubgroupView(h, z)


def test_subgroup_view_needs_the_identity():
    g = build(ConstructionSpec(kind="cyclic", n=5))
    with pytest.raises(InvalidParameterError,
                       match="^a subgroup must contain the identity$"):
        SubgroupView(g, [g.generators[0]])


def test_subgroup_lagrange_check(dihedral8):
    # five elements cannot form a subgroup of an order-8 group
    elems = list(dihedral8.elements())[:5]
    if dihedral8.identity not in elems:
        elems[0] = dihedral8.identity
    with pytest.raises(InvalidParameterError):
        SubgroupView(dihedral8, elems)


# ---------------------------------------------------------------------------
# the tests' own quotient, which the monotonicity tests rest on


def test_quotient_by_center(wreath81):
    q, project = quotient(wreath81, center(wreath81).elements)
    assert q.order == 27
    # projection is a homomorphism
    for x in sample_elements(wreath81, 10, seed=3):
        for y in sample_elements(wreath81, 10, seed=4):
            assert project(wreath81.multiply(x, y)) == q.multiply(
                project(x), project(y))


def test_quotient_identity_is_subgroup_coset(wreath81):
    z = center(wreath81)
    q, project = quotient(wreath81, z.elements)
    kernel = {x for x in wreath81.elements() if project(x) == q.identity}
    assert kernel == z.elements


def test_sample_elements_deterministic(wreath81):
    a = sample_elements(wreath81, 20, seed=7)
    b = sample_elements(wreath81, 20, seed=7)
    assert a == b
    assert all(isinstance(x, Element) for x in a)


# ---------------------------------------------------------------------------
# the element contract


def test_every_public_element_is_its_bytes_encoding(wreath81):
    g = wreath81
    x, y = g.generators[:2]
    cls = conjugacy_class(g, y)
    found = {
        "identity": [g.identity],
        "generators": g.generators,
        "element": [g.element(bytes(x))],
        "multiply": [g.multiply(x, y)],
        "inverse": [g.inverse(x)],
        "conjugate": [g.conjugate(x, y)],
        "commutator": [g.commutator(x, y)],
        "power": [g.power(x, -2)],
        "elements": g.elements(),
        "representative": [cls.representative],
        "members": cls.members,
        "subgroup": centralizer(g, x).elements,
        "commutator_set": commutator_set(g, y).elements,
        "word": [parse_element_word(g, "g0*g1^2")],
    }
    for spec, role in [
            (ConstructionSpec(kind="wreath-cyclic", p=3,
                              base=ConstructionSpec(kind="cyclic", n=3)),
             "a-standard"),
            (ConstructionSpec(kind="affine-wreath", p=3), "b-double"),
            (ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
             "noncentral-witness")]:
        found[f"{spec.kind} {role}"] = [distinguished_element(spec, role)]
    for name, values in found.items():
        assert values, name
        assert all(type(v) is bytes for v in values), name
    assert Element is bytes
