"""Construction specs, builders, distinguished elements, and the corpus."""

import hashlib
import json
import sys

import pytest

from classprod import (
    ConstructionSpec,
    EvenPrimeError,
    InvalidParameterError,
    UnsupportedRoleError,
    build,
    conjugacy_class,
    corpus,
    distinguished_element,
    predicted_order,
)
from classprod.classes import class_partition
from classprod.constructions import KINDS, ROLES
from classprod.groups import center
from classprod.util import is_prime

from conftest import assert_group_laws, brute_center, sample_elements


# ---------------------------------------------------------------------------
# spec round trips and validation


def test_spec_json_round_trip():
    spec = ConstructionSpec(
        kind="wreath-cyclic", p=5,
        base=ConstructionSpec(kind="extraspecial-exponent-p", p=5, l=1))
    again = ConstructionSpec.from_json(spec.to_json())
    assert again == spec


@pytest.mark.parametrize("p,max_order", [(2, 64), (3, 729), (5, 78125)])
def test_spec_plain_round_trip_all_corpus_members(p, max_order):
    for spec in corpus(p, max_order):
        predicted_order(spec)
        assert ConstructionSpec.from_plain(spec.to_plain()) == spec


@pytest.mark.parametrize("field", ["frobs", "role"])
def test_spec_rejects_unknown_fields(field):
    with pytest.raises(InvalidParameterError,
                       match=f"unknown spec fields: {field}"):
        ConstructionSpec.from_plain({"kind": "cyclic", "n": 3, field: "x"})


@pytest.mark.parametrize("kwargs,field", [
    ({"kind": "cyclic", "n": "5"}, "n"),
    ({"kind": "elementary-abelian", "p": 3, "n": 2.0}, "n"),
    ({"kind": "cyclic", "n": True}, "n"),
    ({"kind": "extraspecial-exponent-p", "p": 3.0, "l": 1}, "p"),
    ({"kind": "wreath-cyclic", "p": 3, "base": {"kind": "cyclic", "n": 3}},
     "base"),
    ({"kind": "direct-product", "factors": ({"kind": "cyclic", "n": 3},)},
     "factors"),
    ({"kind": "direct-product", "factors": [ConstructionSpec(kind="cyclic",
                                                             n=3)]},
     "factors"),                                   # a list is unhashable
], ids=["str-n", "float-n", "bool-n", "float-p", "dict-base", "dict-factor",
        "list-factors"])
def test_spec_field_types_are_checked_when_the_spec_is_made(kwargs, field):
    with pytest.raises(InvalidParameterError, match=f"field {field!r} must"):
        ConstructionSpec(**kwargs)


@pytest.mark.parametrize("plain,field", [
    ({"kind": "cyclic", "n": 9, "p": 5}, "p"),
    ({"kind": "quaternion8", "n": 8}, "n"),
    ({"kind": "wreath-cyclic", "p": 3, "base": {"kind": "cyclic", "n": 3},
      "factors": [{"kind": "cyclic", "n": 3}]}, "factors"),
    ({"kind": "direct-product", "factors": [{"kind": "cyclic", "n": 3,
                                             "l": 1}]}, "l"),
], ids=["cyclic-p", "quaternion8-n", "wreath-factors", "factor-l"])
def test_spec_rejects_fields_its_kind_does_not_read(plain, field):
    spec = ConstructionSpec.from_plain(plain)
    for check in (build, predicted_order,
                  lambda s: distinguished_element(s, "a-standard")):
        with pytest.raises(InvalidParameterError, match=repr(field)):
            check(spec)


def test_spec_rejects_unknown_kind():
    with pytest.raises(InvalidParameterError):
        predicted_order(ConstructionSpec(kind="octonion"))


@pytest.mark.parametrize("bad", [
    ConstructionSpec(kind="cyclic"),                       # missing n
    ConstructionSpec(kind="cyclic", n=0),
    # "elementary-abelian needs a rank n >= 1"
    ConstructionSpec(kind="elementary-abelian", p=3, n=0),
    ConstructionSpec(kind="dihedral", n=7),                # odd order
    ConstructionSpec(kind="dihedral", n=2),                # too small
    ConstructionSpec(kind="extraspecial-exponent-p", p=4, l=1),
    ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=0),
    ConstructionSpec(kind="wreath-cyclic", p=3),           # missing base
    ConstructionSpec(kind="affine-wreath", p=6),
    ConstructionSpec(kind="iterated-wreath-sylow", p=3, copies=0),
    ConstructionSpec(kind="direct-product"),               # missing factors
    # the one-byte encodings: a shift, residues mod p, permutation points
    ConstructionSpec(kind="wreath-cyclic", p=257,
                     base=ConstructionSpec(kind="cyclic", n=2)),
    ConstructionSpec(kind="extraspecial-exponent-p", p=257, l=1),
    ConstructionSpec(kind="affine-wreath", p=257),
    ConstructionSpec(kind="iterated-wreath-sylow", p=17, copies=2),
])
def test_spec_validation_rejects(bad):
    # a spec validates if and only if it builds: both raise alike
    with pytest.raises(InvalidParameterError) as first:
        predicted_order(bad)
    with pytest.raises(InvalidParameterError) as err:
        build(bad)
    assert type(err.value) is type(first.value)
    assert str(err.value) == str(first.value)


@pytest.mark.parametrize("spec", [
    ConstructionSpec(kind="wreath-cyclic", p=251,
                     base=ConstructionSpec(kind="cyclic", n=2)),
    ConstructionSpec(kind="extraspecial-exponent-p", p=251, l=1),
    ConstructionSpec(kind="affine-wreath", p=251),
    ConstructionSpec(kind="iterated-wreath-sylow", p=2, copies=4),
], ids=str)
def test_a_spec_at_the_one_byte_limit_validates_and_builds(spec):
    g = build(spec)
    assert g.order == predicted_order(spec)
    for x in g.generators:
        assert g.multiply(x, g.inverse(x)) == g.identity


def test_a_spec_is_refused_exactly_when_its_order_is_too_long_to_print():
    # 2^14284 has 4300 digits, the default limit, and 2^14285 has 4301
    assert sys.get_int_max_str_digits() == 4300
    order = predicted_order(
        ConstructionSpec(kind="elementary-abelian", p=2, n=14284))
    assert len(str(order)) == 4300
    for n in (14285, 10 ** 400):  # 10^400 is too large for a float
        with pytest.raises(InvalidParameterError, match="than 4300 digits"):
            predicted_order(
                ConstructionSpec(kind="elementary-abelian", p=2, n=n))


def test_the_largest_reproduction_group_is_within_the_digit_limit():
    spec = ConstructionSpec(
        kind="wreath-cyclic", p=251,
        base=ConstructionSpec(kind="extraspecial-exponent-p", p=251, l=1))
    assert len(str(predicted_order(spec))) == 1810


def test_even_prime_has_specific_error():
    with pytest.raises(EvenPrimeError):
        predicted_order(ConstructionSpec(kind="extraspecial-exponent-p", p=2,
                                         l=1))


# ---------------------------------------------------------------------------
# builders


@pytest.mark.parametrize("spec,order", [
    (ConstructionSpec(kind="cyclic", n=7), 7),
    (ConstructionSpec(kind="elementary-abelian", p=3, n=3), 27),
    (ConstructionSpec(kind="dihedral", n=16), 16),
    (ConstructionSpec(kind="quaternion8"), 8),
    (ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=2), 243),
    (ConstructionSpec(kind="direct-product", factors=(
        ConstructionSpec(kind="cyclic", n=4),
        ConstructionSpec(kind="cyclic", n=6))), 24),
    (ConstructionSpec(kind="wreath-cyclic", p=3,
                      base=ConstructionSpec(kind="cyclic", n=3)), 81),
    (ConstructionSpec(kind="affine-wreath", p=3), 162),
    (ConstructionSpec(kind="affine-wreath", p=5), 62500),
    (ConstructionSpec(kind="iterated-wreath-sylow", p=2, copies=3), 128),
    (ConstructionSpec(kind="iterated-wreath-sylow", p=3, copies=2), 81),
])
def test_predicted_order_matches_built(spec, order):
    assert predicted_order(spec) == order
    assert build(spec).order == order


@pytest.mark.parametrize("spec", [
    ConstructionSpec(kind="elementary-abelian", p=2, n=3),
    ConstructionSpec(kind="dihedral", n=12),
    ConstructionSpec(kind="quaternion8"),
    ConstructionSpec(kind="direct-product", factors=(
        ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
        ConstructionSpec(kind="cyclic", n=9))),
    ConstructionSpec(kind="affine-wreath", p=3),
    ConstructionSpec(kind="iterated-wreath-sylow", p=2, copies=2),
])
def test_built_groups_satisfy_laws(spec):
    assert_group_laws(build(spec))


def test_three_factor_product_multiplies_componentwise():
    g = build(ConstructionSpec(kind="direct-product", factors=(
        ConstructionSpec(kind="cyclic", n=9),
        ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
        ConstructionSpec(kind="dihedral", n=8))))
    assert [f.encoding_width for f in g.factor_groups] == [1, 3, 2]
    assert_group_laws(g)
    spans, start = [], 0
    for f in g.factor_groups:
        spans.append((f, start, start + f.encoding_width))
        start += f.encoding_width
    xs = sample_elements(g, 400, seed=5)
    for x, y in zip(xs, reversed(xs)):
        assert g._mul(x, y) == b"".join(f._mul(x[a:b], y[a:b])
                                        for f, a, b in spans)
        assert g._inv(x) == b"".join(f._inv(x[a:b]) for f, a, b in spans)


def test_product_generators_pad_each_factor_generator_in_factor_order():
    # ES(3,1) has generators 010000 and 000100; C9 and C3 have 01 each
    g = build(ConstructionSpec(kind="direct-product", factors=(
        ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
        ConstructionSpec(kind="cyclic", n=9),
        ConstructionSpec(kind="cyclic", n=3))))
    assert [x.hex() for x in g.generators] == [
        "0100000000", "0001000000", "0000000100", "0000000001"]


def test_quaternion8_distinct_from_dihedral8(quaternion8, dihedral8):
    # same class sizes, different number of involutions
    def involutions(g):
        return sum(1 for x in g.elements()
                   if x != g.identity and g.multiply(x, x) == g.identity)
    assert involutions(quaternion8) == 1
    assert involutions(dihedral8) == 5
    # the greedy table walk picks i and j as generators
    assert [quaternion8.index_of(x) for x in quaternion8.generators] == [1, 2]


def test_heisenberg_center_and_classes(heisenberg27):
    assert len(center(heisenberg27)) == 3
    assert center(heisenberg27).elements == brute_center(heisenberg27)
    assert class_partition(heisenberg27).size_histogram() == {1: 3, 3: 8}


def test_heisenberg_has_exponent_p(heisenberg27):
    for x in heisenberg27.elements():
        assert heisenberg27.power(x, 3) == heisenberg27.identity


def test_larger_extraspecial_class_histogram():
    g = build(ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=2))
    assert class_partition(g).size_histogram() == {1: 3, 3: 80}


def test_wreath_conjugation_by_shift_rotates_coordinates(wreath81):
    # conjugating a tuple concentrated in coordinate 0 by the shift
    # generator moves the entry to coordinate 1
    base_gen, shift = wreath81.generators
    a = base_gen                      # (1,0,0) with trivial shift
    moved = wreath81.conjugate(a, shift)
    assert moved == bytes([0, 1, 0, 0])
    again = wreath81.conjugate(moved, shift)
    assert again == bytes([0, 0, 1, 0])


def test_wreath_shift_has_order_p(wreath81):
    shift = wreath81.generators[1]
    assert wreath81.power(shift, 3) == wreath81.identity
    assert wreath81.power(shift, 1) != wreath81.identity


def test_affine_scaling_part_has_order_p_minus_1(affine162):
    scaling = affine162.generators[2]
    k = 1
    y = scaling
    while y != affine162.identity:
        y = affine162.multiply(y, scaling)
        k += 1
    assert k == 2  # p - 1 with p = 3


def test_affine_class_of_delta_has_size_p(affine162):
    a = distinguished_element(ConstructionSpec(kind="affine-wreath", p=3),
                              "a-standard")
    assert conjugacy_class(affine162, a).size == 3


def test_sylow_tower_matches_wreath_class_structure(wreath81):
    sylow = build(ConstructionSpec(kind="iterated-wreath-sylow", p=3, copies=2))
    assert sylow.order == wreath81.order == 81
    assert (class_partition(sylow).size_histogram()
            == class_partition(wreath81).size_histogram())


def test_sylow_tower_order_2():
    g = build(ConstructionSpec(kind="iterated-wreath-sylow", p=2, copies=2))
    d8 = build(ConstructionSpec(kind="dihedral", n=8))
    assert g.order == 8
    assert (class_partition(g).size_histogram()
            == class_partition(d8).size_histogram())


# ---------------------------------------------------------------------------
# distinguished elements


def test_roles_enumerated():
    assert set(ROLES) == {"a-standard", "b-double", "noncentral-witness"}
    assert len(KINDS) == 9


def test_wreath_standard_element_has_class_size_p(wreath81):
    spec = ConstructionSpec(kind="wreath-cyclic", p=3,
                            base=ConstructionSpec(kind="cyclic", n=3))
    a = distinguished_element(spec, "a-standard")
    assert conjugacy_class(wreath81, a).size == 3


def test_wreath_double_element_structure(wreath81):
    spec = ConstructionSpec(kind="wreath-cyclic", p=3,
                            base=ConstructionSpec(kind="cyclic", n=3))
    b = distinguished_element(spec, "b-double")
    assert b == bytes([1, 1, 0, 0])


def test_extraspecial_witness_not_central(heisenberg27):
    spec = ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1)
    w = distinguished_element(spec, "noncentral-witness")
    assert w not in center(heisenberg27)


def test_unsupported_role_rejected():
    spec = ConstructionSpec(kind="cyclic", n=5)
    with pytest.raises(UnsupportedRoleError):
        distinguished_element(spec, "b-double")
    with pytest.raises(UnsupportedRoleError):
        distinguished_element(spec, "no-such-role")
    for base, message in [
            (ConstructionSpec(kind="cyclic", n=1),
             "a trivial base has no seed element"),
            (ConstructionSpec(kind="dihedral", n=4),
             "no seed element defined for wreath base kind 'dihedral'")]:
        wreath = ConstructionSpec(kind="wreath-cyclic", p=3, base=base)
        with pytest.raises(UnsupportedRoleError, match=f"^{message}$"):
            distinguished_element(wreath, "a-standard")


# ---------------------------------------------------------------------------
# corpus


def test_corpus_is_deterministic():
    assert corpus(3, 729) == corpus(3, 729)
    assert [json.loads(s.to_json()) for s in corpus(5, 625)] \
        == [json.loads(s.to_json()) for s in corpus(5, 625)]


# sha256 of the corpus specs' JSON, one per line, with the spec count.
CORPUS_DIGESTS = {
    (2, 64): (22, "f6722e2da00895ea89df343e1486bf33"
                  "823dbf269ef86579de464f2166172dcd"),
    (3, 729): (20, "c4bfc26f927bd18373218c2147773ba1"
                   "20b204c82fcfd5e5aaaa2d429507d404"),
    (5, 78125): (24, "a767f690916f8f712599c58393f79149"
                     "f54a3f253d3d83055e46aabd1677cf8a"),
    (7, 117649): (18, "da59a076be4e65abe38fa8cb4f0971be"
                      "0e401732a203c85120208b8cd9c400de"),
    # the iterated-wreath-sylow tower ends on its byte rule at copies = 8
    (2, 10 ** 80): (1063, "7ce0dd188c3613eb8729a26cce0c40b3"
                          "ab46f21b21a8fe4ef910aa789c8b0ad4"),
    (11, 10 ** 6): (14, "d4cd140e8f1a944fe262461ddb390f69"
                        "685a6bdce6ab32f6f8c289715c6b2e8f"),
    (13, 10 ** 12): (34, "e89f372481a0a8ff570848803609c1cb"
                         "40716f1fd135459c2f43529b2768d976"),
    (251, 10 ** 30): (42, "b1c775661c12e11cd234346a7a81ddbd"
                          "ac288df62f8d58a71ccb47407c101ab9"),
}


@pytest.mark.parametrize("p,max_order", sorted(CORPUS_DIGESTS))
def test_corpus_lists_are_pinned(p, max_order):
    specs = corpus(p, max_order)
    text = "\n".join(s.to_json() for s in specs)
    assert (len(specs), hashlib.sha256(text.encode()).hexdigest()) \
        == CORPUS_DIGESTS[p, max_order]


def test_corpus_beyond_one_byte_primes_is_pinned():
    # The smallest nonabelian member, ES(257, 1), does not validate, so
    # the corpus is refused rather than listing specs that cannot build.
    for max_order in (257 ** 3, 10 ** 12):
        with pytest.raises(InvalidParameterError, match="p <= 255, got 257"):
            corpus(257, max_order)


def _primes_up_to(n):
    return [q for q in range(2, n + 1)
            if all(q % d for d in range(2, int(q ** 0.5) + 1))]


@pytest.mark.parametrize("p", _primes_up_to(251))
def test_every_corpus_spec_validates(p):
    for spec in corpus(p, 2 ** 200):
        assert predicted_order(spec) <= 2 ** 200


def test_corpus_orders_within_bound():
    for p, max_order in ((2, 64), (3, 729), (5, 625)):
        for spec in corpus(p, max_order):
            assert predicted_order(spec) <= max_order


def test_corpus_minimum_coverage_odd():
    kinds = {s.kind for s in corpus(3, 729)}
    assert {"elementary-abelian", "extraspecial-exponent-p",
            "direct-product", "wreath-cyclic"} <= kinds


def test_corpus_minimum_coverage_two():
    kinds = {s.kind for s in corpus(2, 64)}
    assert {"dihedral", "quaternion8", "direct-product"} <= kinds
    orders = sorted({predicted_order(s) for s in corpus(2, 64)
                     if s.kind == "dihedral"})
    assert orders == [8, 16, 32, 64]


def test_corpus_requires_room_for_p_cubed():
    with pytest.raises(InvalidParameterError):
        corpus(3, 9)


def test_corpus_all_groups_are_p_groups():
    for p, max_order in ((3, 243), (5, 625)):
        for spec in corpus(p, max_order):
            n = predicted_order(spec)
            while n % p == 0:
                n //= p
            assert n == 1, f"{spec} is not a {p}-group"


# ---------------------------------------------------------------------------
# primality


def test_is_prime_agrees_with_a_sieve_below_10_5():
    n = 10 ** 5
    sieve = [False, False] + [True] * (n - 2)
    for q in range(2, 317):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, n, q))
    assert [k for k in range(-3, n) if is_prime(k)] == [
        k for k in range(n) if sieve[k]]


def test_is_prime_on_large_and_pseudoprime_inputs(monkeypatch):
    assert is_prime(2 ** 61 - 1)
    assert is_prime(2 ** 64 - 59)  # the largest prime below 2^64
    assert not is_prime(2 ** 64 - 1)
    # the least strong pseudoprime to all of the bases 2, 3, 5 and 7
    assert not is_prime(3_215_031_751)
    monkeypatch.setattr("classprod.util._BASES", (2, 3, 5, 7))
    assert is_prime(3_215_031_751)
