"""Acceptance suite: end-to-end checks with stated budgets.

Each test covers one headline requirement: the three reproduction
families with their exact integer outcomes, the exhaustive gap and
dichotomy sweeps over the odd corpora, the size-2 sweep over the
2-group corpus, the quadratic-image oracle, the structural identity
battery, and byte-level determinism under parallelism.

One check is left failing on purpose: the shifted-pair reproduction at
p = 3 asserts the documented value eta = 2, while direct enumeration
(confirmed by the independent brute-force oracle) gives eta = 3.  See
the README for the full decomposition.
"""

import hashlib
import itertools
import time

import pytest

from classprod import (
    ConstructionSpec,
    build,
    center,
    class_partition,
    class_product,
    commutator_set,
    conjugacy_class,
    corpus,
    distinguished_element,
    verify_size_two,
    verify_theorem_a,
    verify_theorem_b,
)
from classprod.classes import _central_translates
from classprod.cli import main

from conftest import (
    brute_class,
    brute_closure,
    brute_eta,
    brute_quadratic_image,
    check_product_identity,
    eta,
    quotient,
    random_pairs,
)


def _wreath(p, base):
    return ConstructionSpec(kind="wreath-cyclic", p=p, base=base)


def _cyc(n):
    return ConstructionSpec(kind="cyclic", n=n)


def _es(p, l):
    return ConstructionSpec(kind="extraspecial-exponent-p", p=p, l=l)


# ---------------------------------------------------------------------------
# 1. wreath squares: |a^G| = p^n and eta = (p+1)/2


@pytest.mark.parametrize("p,base,class_size,expected_eta", [
    (3, _cyc(3), 3, 2),
    (5, _cyc(5), 5, 3),
    (3, _es(3, 1), 9, 2),
])
def test_wreath_square_reproductions(p, base, class_size, expected_eta):
    t0 = time.monotonic()
    spec = _wreath(p, base)
    g = build(spec)
    a = distinguished_element(spec, "a-standard")
    cls = conjugacy_class(g, a)
    assert cls.size == class_size
    d = class_product(cls, cls)
    assert d.eta == expected_eta
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"wreath square at p={p} took {elapsed:.1f}s"


def test_wreath_square_extraspecial_base_order():
    g = build(_wreath(3, _es(3, 1)))
    assert g.order == 3 ** 10


# ---------------------------------------------------------------------------
# 2. affine squares: eta = 2 with the two predicted classes


@pytest.mark.parametrize("p", [3, 5])
def test_affine_square_reproductions(p):
    t0 = time.monotonic()
    spec = ConstructionSpec(kind="affine-wreath", p=p)
    g = build(spec)
    a = distinguished_element(spec, "a-standard")
    cls = conjugacy_class(g, a)
    assert cls.size == p

    d = class_product(cls, cls)
    assert d.eta == 2

    a_sq = conjugacy_class(g, g.multiply(a, a))
    spike = conjugacy_class(g, distinguished_element(spec, "b-double"))
    assert set(d.classes) == {a_sq, spike}
    assert sorted(d.sizes()) == sorted([p, p * (p - 1) // 2])

    # the sizes again, via the independent full-sweep oracle
    assert len(brute_class(g, a_sq.representative)) == p
    assert len(brute_class(g, spike.representative)) == p * (p - 1) // 2
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"affine square at p={p} took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. shifted pairs: the documented value eta = p - 1


def test_shifted_pair_reproduction_p3():
    spec = _wreath(3, _cyc(3))
    g = build(spec)
    a = distinguished_element(spec, "a-standard")
    b = distinguished_element(spec, "b-double")
    d = class_product(conjugacy_class(g, a), conjugacy_class(g, b))
    assert brute_eta(g, a, b) == d.eta  # the decomposition itself is right
    detail = ", ".join(
        f"class rep {cls.representative.hex()} size {cls.size}"
        for cls in d.classes)
    assert d.eta == 2, (
        "documented value eta = p - 1 = 2 does not hold at p = 3: the "
        f"product has {len(d.source)} elements splitting as [{detail}], "
        f"so eta = {d.eta}; the p = 5 instance does give eta = 4")


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_shifted_pair_reproduction(p):
    """eta(a^G b^G) = p - 1 for every p >= 5, in classes of size p.

    In C_p wr C_p the base is abelian, so the class of a base element v
    is its set of rotations, and a^G b^G is the set of
    rot^i(e_0) + rot^j(e_0 + e_1).  Its classes are the rotation orbits
    of e_d + e_0 + e_1, one for each offset d = i - j mod p: d = 0 and
    d = 1 give 2e_0 + e_1 and e_0 + 2e_1, two orbits; d = 2, ..., p - 1
    give the three-point sets {0, 1, d}, of which only {0, 1, 2} and
    {0, 1, p-1} are rotations of each other, since the other gap
    sequences differ.  So eta = 2 + (p - 3) = p - 1.  At p = 3 the only
    such offset is d = 2 = p - 1, so nothing merges, and its vector
    (1, 1, 1) is central: eta = 3, as the test above records.
    """
    spec = _wreath(p, _cyc(p))
    g = build(spec)
    a = distinguished_element(spec, "a-standard")
    b = distinguished_element(spec, "b-double")
    d = class_product(conjugacy_class(g, a), conjugacy_class(g, b))
    assert d.eta == p - 1
    assert d.sizes() == (p,) * (p - 1)


# ---------------------------------------------------------------------------
# 4. gap sweep: no eta strictly inside (1, (p+1)/2)


def test_gap_sweep_odd_corpora():
    t0 = time.monotonic()
    total_pairs = 0
    for p, max_order in ((3, 3 ** 6), (5, 5 ** 4)):
        for spec in corpus(p, max_order):
            report = verify_theorem_a(build(spec), p, group_desc=spec.to_plain())
            assert report.consistent, (spec, report.violations)
            total_pairs += report.pairs_checked
    elapsed = time.monotonic() - t0
    assert total_pairs > 100_000
    assert elapsed < 600, f"gap sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 5. square dichotomy: each size-p square is eta = 1 with a normal
#    commutator subgroup, or eta = (p+1)/2 with all classes of size p


def test_square_dichotomy_odd_corpora():
    t0 = time.monotonic()
    for p, max_order in ((3, 3 ** 6), (5, 5 ** 4)):
        for spec in corpus(p, max_order):
            report = verify_theorem_b(build(spec), p, group_desc=spec.to_plain())
            assert report.consistent, (spec, report.violations)
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"square dichotomy sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 6. 2-group corpus: size-2 pairs give eta in {1, 2}


def test_two_group_size_two_pairs():
    for spec in corpus(2, 64):
        report = verify_size_two(build(spec), group_desc=spec.to_plain())
        assert report.consistent, (spec, report.violations)

    # the order-8 dihedral group witnesses both values
    d8 = build(ConstructionSpec(kind="dihedral", n=8))
    reps = [c.representative for c in class_partition(d8).classes_of_size(2)]
    seen = {eta(d8, a, b) for a in reps for b in reps}
    assert seen == {1, 2}


# ---------------------------------------------------------------------------
# 7. quadratic-image oracle equivalence


def test_quadratic_image_oracle():
    # r*i^2 + s*i + t mod p takes 1 value when constant and p when
    # linear; a true quadratic takes each value at i and -i - s/r, which
    # coincide only at the vertex, so it takes (p+1)/2
    t0 = time.monotonic()
    for p in (3, 5, 7, 11, 13):
        for r, s, t in itertools.product(range(p), repeat=3):
            size = len(brute_quadratic_image(r, s, t, p))
            if r:
                assert size == (p + 1) // 2, (p, r, s, t)
            else:
                assert size == (1 if s == 0 else p), (p, r, s, t)
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"quadratic-image sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 8. structural identity battery


def test_identity_product_translate_form():
    for p, max_order in ((3, 3 ** 5), (2, 2 ** 6)):
        for spec in corpus(p, max_order):
            g = build(spec)
            for a, b in random_pairs(g, 500, seed=29):
                assert check_product_identity(g, a, b), (spec, a, b)


def test_identity_central_translate_count():
    for spec in (_es(3, 1), _wreath(3, _cyc(3)),
                 ConstructionSpec(kind="direct-product",
                                  factors=(_es(3, 1), _cyc(3)))):
        g = build(spec)
        z = sorted(center(g).elements)
        subgroups = []
        for k in range(len(z) + 1):
            for seed in itertools.combinations(z, k):
                sub = brute_closure(g, seed)
                if sub not in subgroups:
                    subgroups.append(sub)
        for cls in class_partition(g):
            b = cls.representative
            commutators = commutator_set(g, b).elements
            for n_set in subgroups:
                stab = sum(1 for n in n_set if n in commutators)
                translates = _central_translates(g, b, n_set)
                assert len(translates) == len(n_set) // stab, (spec, b)


def test_identity_direct_product_multiplicativity():
    k = build(_es(3, 1))
    l = build(_cyc(9))
    g = build(ConstructionSpec(kind="direct-product",
                               factors=(_es(3, 1), _cyc(9))))

    def pack(x, y):
        return g.element(x + y)

    k_reps = [c.representative for c in class_partition(k)]
    l_reps = [c.representative for c in class_partition(l)]
    for a, b in itertools.product(k_reps, repeat=2):
        for c, d in itertools.product(l_reps, repeat=2):
            assert eta(g, pack(a, c), pack(b, d)) \
                == eta(k, a, b) * eta(l, c, d)


def test_identity_odd_order_center_avoidance():
    for spec in corpus(3, 3 ** 5):
        g = build(spec)
        central = center(g).elements
        for cls in class_partition(g):
            d = class_product(cls, cls)
            meets = any(x in central for x in d.source)
            assert meets == (cls.size == 1), (spec, cls.representative)


def test_identity_quotient_monotonicity():
    for spec in corpus(3, 3 ** 5):
        g = build(spec)
        z = center(g)
        if len(z) == g.order:
            continue  # abelian: the quotient is trivial anyway
        q, project = quotient(g, z.elements)
        for a, b in random_pairs(g, 200, seed=31):
            assert eta(q, project(a), project(b)) <= eta(g, a, b), spec


# ---------------------------------------------------------------------------
# 9. determinism under parallelism


def _run_to_file(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


DETERMINISM_COMMANDS = [
    ("verify-a-p3", ["verify", "--theorem", "a", "--corpus", "--p", "3",
                     "--max-order", "729"], 0),
    ("verify-b-p3", ["verify", "--theorem", "b", "--corpus", "--p", "3",
                     "--max-order", "729"], 0),
    ("verify-a-p5", ["verify", "--theorem", "a", "--corpus", "--p", "5",
                     "--max-order", "625"], 0),
    ("verify-size2", ["verify", "--theorem", "size2", "--corpus", "--p", "2",
                      "--max-order", "64"], 0),
    ("spectrum-p3", ["spectrum", "--p", "3", "--max-order", "243"], 0),
]


@pytest.mark.parametrize("name,args,expected_code",
                         DETERMINISM_COMMANDS,
                         ids=[c[0] for c in DETERMINISM_COMMANDS])
def test_parallel_determinism(tmp_path, name, args, expected_code):
    c1, b1 = _run_to_file(tmp_path, "serial.jsonl", args + ["--jobs", "1"])
    c8, b8 = _run_to_file(tmp_path, "pool8.jsonl", args + ["--jobs", "8"])
    assert c1 == c8 == expected_code
    assert b1 == b8, f"{name}: files differ between --jobs 1 and --jobs 8"


# ---------------------------------------------------------------------------
# 10. report bytes: every corpus kind at p = 2, 3 and 5, plus affine-wreath


REPORT_PINS = [
    (["spectrum", "--p", "3", "--max-order", "729"], 0,
     "3097aa175f51c37f697ecccef3972d97a88ac10ac2cf428e910dc8d0e76f71c5"),
    (["spectrum", "--p", "5", "--max-order", "625"], 0,
     "e0451535bd0f32ab84c0f04affe8e52c0432314a72305aeaf09df0def45431b7"),
    (["verify", "--corpus", "--theorem", "a", "--p", "3", "--max-order",
      "729"], 0,
     "3a8cd00cef431b11b5e4683a49974a927220ed90339bbad27cf370dc55ec7c59"),
    (["verify", "--corpus", "--theorem", "a", "--p", "5", "--max-order",
      "625"], 0,
     "8811b782c847daeb46a57bd373ea37e5cde98b0fcdc5ea50915bbdf0e05e34a1"),
    (["verify", "--corpus", "--theorem", "b", "--p", "3", "--max-order",
      "729"], 0,
     "a3bdca244324ca3c9c66d25a5cfd162904e3a611bb9ce53489566a73457c3223"),
    (["verify", "--corpus", "--theorem", "b", "--p", "5", "--max-order",
      "625"], 0,
     "2c86c83a34220b0b50d4c1c2666760b238f7c3b4ed0a96344b9bb415dee56e09"),
    (["verify", "--corpus", "--theorem", "size2", "--p", "2", "--max-order",
      "64"], 0,
     "a5fc9b22d0f843570f076180009bf8e28ff8d2114f2bfd2a51eab075760c6504"),
    (["reproduce", "--p", "3"], 2,
     "f879a3ef5d75ce86e2249991ebb9c6fa34cc3f758df1877838973f564a07f256"),
    (["reproduce", "--p", "5"], 0,
     "c883dc7eda5bd19457b73bc181f44db7956e43de6c6a1bc442c1733e0ddca8f0"),
]


@pytest.mark.parametrize("args,expected_code,digest", REPORT_PINS,
                         ids=[" ".join(a) for a, _, _ in REPORT_PINS])
def test_report_bytes_are_pinned(args, expected_code, digest, capsys):
    # A change that alters reports on purpose updates these digests.
    assert main(args) == expected_code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
