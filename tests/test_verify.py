"""Verifiers, reproduction checks, reports, and the eta spectrum."""

import itertools
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest

import classprod.verify as verify_mod
from classprod import (
    ClassprodError,
    ConstructionSpec,
    EvenPrimeError,
    InvalidParameterError,
    NotAPGroupError,
    build,
    class_partition,
    conjugacy_class,
    corpus,
    eta_spectrum,
    reproduce_examples,
    verify_size_two,
    verify_theorem_a,
    verify_theorem_b,
)
from classprod.cli import main
from classprod.verify import (
    SPECTRUM_LABEL,
    merge_spectrum_reports,
    spectrum_for_group,
    verify_corpus,
    verify_group,
)

from conftest import (
    brute_class_partition,
    brute_eta,
    eta,
    pair_sweep,
    report_from_record,
)


# ---------------------------------------------------------------------------
# report plumbing


def _roundtrip(report):
    record = report.to_record()
    again = report_from_record(json.loads(json.dumps(record)))
    assert again.to_record() == record
    return record


def test_report_round_trip(heisenberg27):
    report = verify_theorem_a(heisenberg27, 3)
    record = _roundtrip(report)
    assert record["theorem"] == "A"
    assert record["p"] == 3
    assert record["elapsed_ms"] == 0


def test_report_timing_zeroed_unless_asked(heisenberg27):
    report = verify_theorem_a(heisenberg27, 3)
    assert report.to_record()["elapsed_ms"] == 0
    timed = report.to_record(include_timing=True)
    assert timed["elapsed_ms"] == report.elapsed_ms


def test_labels_are_fixed():
    assert SPECTRUM_LABEL == "spectrum"


# ---------------------------------------------------------------------------
# theorem sweeps on single groups


def test_theorem_a_clean_on_heisenberg(heisenberg27):
    report = verify_theorem_a(heisenberg27, 3)
    assert report.consistent
    # 8 size-3 classes, ordered pairs
    assert report.pairs_checked == 64
    assert not report.violations


def test_theorem_a_clean_on_wreath(wreath81):
    report = verify_theorem_a(wreath81, 3)
    assert report.consistent
    part = class_partition(wreath81)
    n = len(part.classes_of_size(3))
    assert report.pairs_checked == n * n


def test_theorem_b_clean_on_heisenberg(heisenberg27):
    report = verify_theorem_b(heisenberg27, 3)
    assert report.consistent
    assert report.pairs_checked == 8
    assert report.theorem == "B"


def test_theorem_b_square_clauses_cover(wreath81):
    # every size-3 class square must land in one clause or the other;
    # spot-check both clauses occur in this group
    etas = set()
    for cls in class_partition(wreath81).classes_of_size(3):
        a = cls.representative
        etas.add(eta(wreath81, a, a))
    assert etas == {1, 2}
    assert verify_theorem_b(wreath81, 3).consistent


_CLAUSE_I = "eta=1 forces [a,G]=[a^2,G], a normal subgroup"
_CLAUSE_II = "eta=1, or eta=2 with all classes of size 3"


@pytest.mark.parametrize("target,fake,eta_seen,expected", [
    ("eta_one_criterion", lambda g, a, b: False, 1, _CLAUSE_I),
    ("class_product", lambda x, y: SimpleNamespace(eta=3, classes=()),
     3, _CLAUSE_II),
    ("class_product", lambda x, y: SimpleNamespace(
        eta=2, classes=(SimpleNamespace(size=1), SimpleNamespace(size=3))),
     2, _CLAUSE_II),
], ids=["criterion-false", "eta-3", "eta-2-with-a-central-class"])
def test_theorem_b_reports_each_broken_clause(
        target, fake, eta_seen, expected, heisenberg27, tmp_path,
        monkeypatch, capsys):
    # Each of the 8 size-3 classes of ES(3,1) is its own square's only
    # pair, so a rule that fails everywhere gives one violation per class.
    reps = sorted(c.representative.hex()
                  for c in class_partition(heisenberg27).classes_of_size(3))
    assert len(reps) == 8
    monkeypatch.setattr(verify_mod, target, fake)
    report = verify_theorem_b(heisenberg27, 3)
    assert [v.to_record() for v in report.violations] == [
        {"a": a, "b": a, "eta": eta_seen, "expected": expected}
        for a in reps]
    path = tmp_path / "es31.spec"
    path.write_text(ConstructionSpec(kind="extraspecial-exponent-p", p=3,
                                     l=1).to_json())
    assert main(["verify", "--theorem", "b", "--group", str(path),
                 "--p", "3"]) == 2
    out = capsys.readouterr().out
    assert json.loads(out)["violations"] == [
        v.to_record() for v in report.violations]


def test_theorem_checks_reject_non_p_group(affine162):
    with pytest.raises(NotAPGroupError):
        verify_theorem_a(affine162, 3)
    with pytest.raises(NotAPGroupError):
        verify_theorem_b(affine162, 3)


def test_theorem_checks_reject_even_p(dihedral8):
    with pytest.raises(EvenPrimeError):
        verify_theorem_a(dihedral8, 2)


def test_size_two_rejects_an_odd_order(heisenberg27):
    with pytest.raises(InvalidParameterError,
                       match="order 27 rules out a class of size 2"):
        verify_size_two(heisenberg27)


def test_size_two_clean_on_two_groups(dihedral8, quaternion8):
    for g in (dihedral8, quaternion8):
        report = verify_size_two(g)
        assert report.consistent
        assert report.theorem == "Prop2.1"
        assert report.pairs_checked > 0


def test_clause_agreement_on_squares(heisenberg27, wreath81):
    # whenever the square criterion says eta = 1, the gap sweep must
    # also see eta = 1 for that pair
    for g in (heisenberg27, wreath81):
        ra = verify_theorem_a(g, 3)
        rb = verify_theorem_b(g, 3)
        assert ra.consistent and rb.consistent


# ---------------------------------------------------------------------------
# reproduction checks


def test_reproduce_examples_reports_the_four_checks_in_order():
    wreath = ConstructionSpec(kind="wreath-cyclic", p=5,
                              base=ConstructionSpec(kind="cyclic", n=5))
    wreath_es = ConstructionSpec(
        kind="wreath-cyclic", p=5,
        base=ConstructionSpec(kind="extraspecial-exponent-p", p=5, l=1))
    assert [(r.theorem, r.group) for r in reproduce_examples(5)] == [
        ("Prop4.1", wreath.to_plain()),
        ("Prop4.1", wreath_es.to_plain()),
        ("Remark4.2", wreath.to_plain()),
        ("Prop4.3", ConstructionSpec(kind="affine-wreath", p=5).to_plain()),
    ]


def test_reproduce_p3_flags_only_the_shifted_pair():
    reports = reproduce_examples(3)
    assert len(reports) == 4
    bad = [r for r in reports if not r.consistent]
    assert len(bad) == 1
    assert bad[0].theorem == "Remark4.2"
    violation = bad[0].violations[0]
    assert violation.eta == 3
    assert violation.expected == "eta=2"


def test_reproduce_p3_shifted_pair_value_is_recomputable(wreath81):
    # independently recompute the flagged value
    reports = reproduce_examples(3)
    bad = next(r for r in reports if not r.consistent)
    v = bad.violations[0]
    a = wreath81.element(bytes.fromhex(v.a))
    b = wreath81.element(bytes.fromhex(v.b))
    assert eta(wreath81, a, b) == v.eta == 3


def test_reproduce_p5_all_clean():
    # no check enumerates its group, so the order-5^16 extraspecial-base
    # wreath runs under the default cap too
    reports = reproduce_examples(5)
    assert all(r.consistent for r in reports)
    labels = [r.theorem for r in reports]
    assert labels == ["Prop4.1", "Prop4.1", "Remark4.2", "Prop4.3"]


def test_reproduce_p7_all_clean():
    reports = reproduce_examples(7)
    assert len(reports) == 4
    assert all(r.consistent for r in reports)


def test_reproduce_rejects_even_p(monkeypatch):
    def no_fork():
        raise AssertionError("a worker process was forked")

    monkeypatch.setattr(verify_mod.os, "fork", no_fork)
    with pytest.raises(EvenPrimeError):
        reproduce_examples(2)


def test_corpus_sweeps_refuse_bad_input_before_forking(monkeypatch):
    def no_fork():
        raise AssertionError("a worker process was forked")

    monkeypatch.setattr(verify_mod.os, "fork", no_fork)
    for theorem in ("a", "b"):
        with pytest.raises(EvenPrimeError):
            verify_corpus(theorem, 2, 64, jobs=2)
    with pytest.raises(EvenPrimeError):
        eta_spectrum(2, 64, jobs=2)
    with pytest.raises(InvalidParameterError, match="unknown theorem"):
        verify_corpus("c", 3, 27, jobs=2)
    with pytest.raises(InvalidParameterError, match="needs p = 2"):
        verify_corpus("size2", 3, 27, jobs=2)


def test_single_check_wreath_square():
    report = reproduce_examples(3)[0]
    assert report.consistent
    assert report.theorem == "Prop4.1"


def test_affine_square_check_verifies_sizes():
    report = reproduce_examples(3)[3]
    assert report.consistent
    g = build(ConstructionSpec(kind="affine-wreath", p=3))
    from classprod import class_product, distinguished_element
    a = distinguished_element(ConstructionSpec(kind="affine-wreath", p=3),
                              "a-standard")
    d = class_product(conjugacy_class(g, a), conjugacy_class(g, a))
    assert d.eta == 2
    assert sorted(d.sizes()) == [3, 3]


# ---------------------------------------------------------------------------
# corpus-wide checks


def test_verify_corpus_theorem_a_small():
    reports = verify_corpus("a", 3, 243)
    assert all(r.consistent for r in reports)
    assert all(r.theorem == "A" for r in reports)


def test_verify_corpus_size2():
    reports = verify_corpus("size2", 2, 64)
    assert all(r.consistent for r in reports)


@pytest.mark.parametrize("sweep", [
    lambda jobs: verify_corpus("a", 3, 243, jobs=jobs),
    lambda jobs: eta_spectrum(3, 243, jobs=jobs),
], ids=["verify_corpus", "eta_spectrum"])
def test_corpus_sweeps_identical_across_jobs(sweep):
    serial = [r.to_record() for r in sweep(1)]
    assert [r.to_record() for r in sweep(2)] == serial


def test_verify_group_on_one_corpus_spec():
    spec = ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1)
    report = verify_group("b", build(spec), 3, spec.to_plain())
    assert report.consistent
    assert report.group == spec.to_plain()


# ---------------------------------------------------------------------------
# the eta spectrum


def test_spectrum_for_group_counts(heisenberg27):
    report = spectrum_for_group(heisenberg27, 3)
    counts = {e: entry.count for e, entry in report.spectrum.items()}
    # 8 size-3 classes; each ordered pair lands on eta 1 or 3
    assert sum(counts.values()) == 64
    assert set(counts) == {1, 3}
    assert report.consistent


def test_spectrum_witnesses_are_recomputable(wreath81):
    report = spectrum_for_group(wreath81, 3)
    for value, entry in report.spectrum.items():
        a = wreath81.element(bytes.fromhex(entry.witness_a))
        b = wreath81.element(bytes.fromhex(entry.witness_b))
        assert eta(wreath81, a, b) == value


def test_spectrum_merge_is_additive():
    specs = [s for s in __import__("classprod").corpus(3, 243)]
    reports = [verify_group("spectrum", build(s), 3, s.to_plain())
               for s in specs]
    whole = merge_spectrum_reports(3, 243, reports)
    split = merge_spectrum_reports(
        3, 243,
        [merge_spectrum_reports(3, 243, reports[:4]),
         merge_spectrum_reports(3, 243, reports[4:])])
    whole_counts = {e: entry.count for e, entry in whole.spectrum.items()}
    split_counts = {e: entry.count for e, entry in split.spectrum.items()}
    assert whole_counts == split_counts
    assert whole.pairs_checked == split.pairs_checked == sum(
        r.pairs_checked for r in reports)


def test_eta_spectrum_end_to_end():
    reports = eta_spectrum(3, 243)
    merged = reports[-1]
    assert merged.theorem == SPECTRUM_LABEL
    counts = {e: entry.count for e, entry in merged.spectrum.items()}
    assert counts.get(1, 0) > 0
    # no value strictly inside (1, 2) can exist; consistency holds
    assert all(r.consistent for r in reports)


def test_spectrum_small_p5_corpus_values():
    # below order 5^5 only the extraspecial families carry size-5
    # classes, and they can only produce eta = 1 or eta = 5
    reports = eta_spectrum(5, 625)
    merged = reports[-1]
    assert set(merged.spectrum) == {1, 5}
    assert all(r.consistent for r in reports)


def test_spectrum_matches_brute_force_tally():
    # the sweep kernel against full-sweep classes and a full-sweep eta
    for spec in corpus(3, 81):
        g = build(spec)
        sized = [next(iter(c)) for c in brute_class_partition(g)
                 if len(c) == 3]
        expected = Counter(brute_eta(g, a, b) for a in sized for b in sized)
        report = spectrum_for_group(g, 3)
        counts = {e: entry.count for e, entry in report.spectrum.items()}
        assert counts == dict(expected), spec
        assert report.pairs_checked == len(sized) ** 2


ORACLE_GROUPS = ([(3, spec) for spec in corpus(3, 729)]
                 + [(5, spec) for spec in corpus(5, 625)])


@pytest.mark.parametrize("p,spec", ORACLE_GROUPS,
                         ids=[f"p{p}-{spec}" for p, spec in ORACLE_GROUPS])
def test_sweep_matches_per_pair_oracle(p, spec, monkeypatch):
    # counts, witnesses, violations and pairs_checked of the block sweep
    # against one product per ordered pair
    g = build(spec)
    desc = spec.to_plain()
    checkers = (spectrum_for_group, verify_theorem_a, verify_theorem_b)
    fast = [check(g, p, desc).to_record() for check in checkers]
    monkeypatch.setattr(verify_mod, "_sweep", pair_sweep)
    assert [check(g, p, desc).to_record() for check in checkers] == fast


ES32_C3 = ConstructionSpec(kind="direct-product", factors=(
    ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=2),
    ConstructionSpec(kind="cyclic", n=3)))


def _handles(g):
    """``g`` and every factor handle it is built from, depth first."""
    yield g
    for f in getattr(g, "factor_groups", ()):
        yield from _handles(f)


def _partition_and_sweep_muls(spec, p):
    """Multiplications of a fresh handle's partition and spectrum sweep.

    Counted by wrapping ``_mul`` as an instance attribute, as the
    benchmark's traced pass does, but on every handle the partition and
    the sweep use: a product's partition is composed from its factors',
    and an H x A product is swept as its factor H.
    """
    g = build(spec)
    counter = itertools.count()
    handles = list(_handles(g))
    for h in handles:
        def counted(x, y, raw=h._mul):
            next(counter)
            return raw(x, y)

        h._mul = counted
    class_partition(g)
    spectrum_for_group(g, p)
    for h in handles:
        del h._mul
    return next(counter)


def test_multiplication_count_depends_only_on_the_group():
    # the memo of the central-commutator path lives on each handle's
    # partition, so a second handle repeats the count exactly.  The
    # factors' partitions take 1,950; sweeping ES(3,2) x C3 itself took
    # 4,449 more, and sweeping it as its factor ES(3,2) takes fewer.
    first = _partition_and_sweep_muls(ES32_C3, 3)
    assert first == _partition_and_sweep_muls(ES32_C3, 3)
    assert first < 1_950 + 4_449


SIZE_TWO_SPECS = [
    ConstructionSpec(kind="dihedral", n=16),
    # 12 size-2 classes in 3 orbits under its centre of order 8
    ConstructionSpec(kind="direct-product", factors=(
        ConstructionSpec(kind="dihedral", n=8),
        ConstructionSpec(kind="cyclic", n=4))),
]


#: D16 and D8 x C4, then every other p = 2 corpus group up to order 256.
SIZE_TWO_ORACLE = SIZE_TWO_SPECS + [s for s in corpus(2, 256)
                                    if s not in SIZE_TWO_SPECS]


@pytest.mark.parametrize("spec", SIZE_TWO_ORACLE,
                         ids=["D16", "D8xC4"] + [str(s) for s in
                                                 SIZE_TWO_ORACLE[2:]])
def test_size_two_sweep_matches_per_pair_oracle(spec, monkeypatch):
    g = build(spec)
    fast = verify_size_two(g).to_record()
    monkeypatch.setattr(verify_mod, "_sweep", pair_sweep)
    assert verify_size_two(g).to_record() == fast


@pytest.mark.parametrize("spec,violated", zip(SIZE_TWO_SPECS, [9, 48]),
                         ids=["D16", "D8xC4"])
def test_size_two_violations_match_per_pair_oracle(spec, violated,
                                                   monkeypatch):
    # No real size-2 pair escapes {1, 2}; relabelling every eta = 2 as 3
    # makes the rule report, and the block sweep must expand each
    # violating block pair by pair, both orientations, as the oracle does.
    g = build(spec)
    real = verify_mod.class_product

    def fake(x, y):
        d = real(x, y)
        return SimpleNamespace(eta=3 if d.eta == 2 else d.eta,
                               classes=d.classes)

    monkeypatch.setattr(verify_mod, "class_product", fake)
    fast = verify_size_two(g).to_record()
    assert len(fast["violations"]) == violated
    assert {v["expected"] for v in fast["violations"]} == {"eta in {1, 2}"}
    pairs = {(v["a"], v["b"]) for v in fast["violations"]}
    assert any(a != b and (b, a) in pairs for a, b in pairs)
    monkeypatch.setattr(verify_mod, "_sweep", pair_sweep)
    assert verify_size_two(g).to_record() == fast


def test_violations_expand_in_scan_order(monkeypatch):
    # ES(5,1) x C5 has 120 size-5 classes in 24 orbits under its centre.
    # Relabelling every real eta = 1 as 2 puts whole blocks inside the
    # gap, so each must be expanded pair by pair, both orientations
    # included, and the violations merged in scan order.
    g = build(ConstructionSpec(kind="direct-product", factors=(
        ConstructionSpec(kind="extraspecial-exponent-p", p=5, l=1),
        ConstructionSpec(kind="cyclic", n=5))))
    assert len(class_partition(g).classes_of_size(5)) == 120
    real = verify_mod.class_product

    def fake(x, y):
        d = real(x, y)
        return SimpleNamespace(eta=2 if d.eta == 1 else d.eta,
                               classes=d.classes)

    monkeypatch.setattr(verify_mod, "class_product", fake)
    fast = spectrum_for_group(g, 5)
    monkeypatch.setattr(verify_mod, "_sweep", pair_sweep)
    oracle = spectrum_for_group(g, 5)
    assert fast.violations == oracle.violations
    assert len(fast.violations) == fast.spectrum[2].count > 120
    assert any(v.a > v.b for v in fast.violations)


def _spec(kind, *factors, **fields):
    return ConstructionSpec(kind=kind, factors=factors, **fields)


_ES31 = _spec("extraspecial-exponent-p", p=3, l=1)
_C2, _C3 = _spec("cyclic", n=2), _spec("cyclic", n=3)

#: Direct products the corpus does not list: H between abelian factors,
#: two nonabelian factors (so no reduction), a nested product, and an H
#: whose odd order rules out the swept class size 2.
PRODUCT_SHAPES = [
    (3, _spec("direct-product", _C3, _ES31,
              _spec("elementary-abelian", p=3, n=2))),
    (3, _spec("direct-product", _ES31, _ES31)),
    (2, _spec("direct-product", _spec("dihedral", n=8),
              _spec("quaternion8"))),
    (2, _spec("direct-product", _C2, _spec("direct-product",
                                           _spec("dihedral", n=8),
                                           _spec("cyclic", n=4)))),
    (2, _spec("direct-product", _ES31, _C2)),
]


@pytest.mark.parametrize("fake", [False, True], ids=["real", "relabelled"])
@pytest.mark.parametrize("p,spec", PRODUCT_SHAPES,
                         ids=["C3xES31xE9", "ES31xES31", "D8xQ8",
                              "C2x(D8xC4)", "ES31xC2"])
def test_product_reduction_matches_per_pair_oracle(p, spec, fake,
                                                   monkeypatch):
    # The H x A reduction against one product per ordered pair of G.
    # Relabelling eta e as e + 2 puts every class square of B and every
    # size-2 pair in violation, so the lift must cross them with A.
    g = build(spec)
    desc = spec.to_plain()
    checkers = ((verify_size_two,) if p == 2 else
                (spectrum_for_group, verify_theorem_a, verify_theorem_b))
    if fake:
        real = verify_mod.class_product

        def relabelled(x, y):
            d = real(x, y)
            return SimpleNamespace(eta=d.eta + 2, classes=d.classes)

        monkeypatch.setattr(verify_mod, "class_product", relabelled)
    fast = [check(g, p, desc).to_record() for check in checkers]
    assert any(r["violations"] for r in fast) == (
        fake and any(r["pairs_checked"] for r in fast))
    monkeypatch.setattr(verify_mod, "_sweep", pair_sweep)
    assert [check(g, p, desc).to_record() for check in checkers] == fast


@pytest.mark.parametrize("run,p,max_order", [
    (lambda: eta_spectrum(3, 729), 3, 729),
    (lambda: verify_corpus("size2", 2, 64), 2, 64),
], ids=["eta_spectrum-3-729", "verify_corpus-size2-2-64"])
def test_corpus_runner_hands_out_each_distinct_spec_once(run, p, max_order,
                                                         monkeypatch):
    # Every direct product in these corpora has an abelian factor, so none
    # is handed to the job map: each is derived from its factor H, which
    # the corpus also lists on its own and is swept once.
    handed = []
    real = verify_mod._map_jobs

    def recorded(worker, args_list, jobs):
        handed.extend(spec for spec, in args_list)
        return real(worker, args_list, jobs)

    monkeypatch.setattr(verify_mod, "_map_jobs", recorded)
    reports = run()
    specs = corpus(p, max_order)
    assert [r.group for r in reports[:len(specs)]] == [
        s.to_plain() for s in specs]
    assert len(set(handed)) == len(handed)
    assert handed == [s for s in specs if s.kind != "direct-product"]


def test_pool_never_outnumbers_its_tasks(monkeypatch):
    # The map forks one worker per job up front, so it is sized to the
    # task count.  The fork is counted, and refused past the 5 workers
    # the calls below need, so a map that forks one per job fails here
    # without starting them.
    real_fork = os.fork
    forks = []

    def counted_fork():
        if len(forks) == 5:
            raise AssertionError("more workers forked than tasks")
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(verify_mod.os, "fork", counted_fork)
    sizes = []

    def mapped(call):
        before = len(forks)
        result = call()
        if len(forks) > before:
            sizes.append(len(forks) - before)
        return result

    tasks = [(k,) for k in range(3)]
    assert mapped(lambda: list(verify_mod._map_jobs(str, tasks, 500))) == [
        "0", "1", "2"]
    assert mapped(lambda: list(verify_mod._map_jobs(str, tasks, 2))) == [
        "0", "1", "2"]
    assert mapped(lambda: list(verify_mod._map_jobs(str, tasks[:1], 500))) == [
        "0"]
    assert sizes == [3, 2]


@pytest.fixture
def deadline():
    """Fail a test that waits more than 30 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("the job map did not finish within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _finish_time(k):
    # task 0 finishes last, well after every other task
    time.sleep(0.5 if k == 0 else 0)
    return k, time.monotonic()


def test_job_map_yields_in_list_order(deadline):
    results = list(verify_mod._map_jobs(_finish_time,
                                        [(k,) for k in range(4)], 2))
    assert [k for k, _ in results] == [0, 1, 2, 3]
    assert max(t for _, t in results[1:]) < results[0][1]
    _no_child_left()


def test_job_map_reraises_a_worker_exception(deadline):
    with pytest.raises(ValueError) as raised:
        list(verify_mod._map_jobs(int, [("1",), ("x",), ("3",)], 2))
    assert type(raised.value) is ValueError
    assert str(raised.value) == "invalid literal for int() with base 10: 'x'"
    _no_child_left()


def _dies_on_one(k):
    if k == 1:
        os._exit(3)
    return k


def test_job_map_raises_when_a_worker_dies(deadline):
    with pytest.raises(ClassprodError, match="exit code 3"):
        list(verify_mod._map_jobs(_dies_on_one, [(k,) for k in range(3)], 2))
    _no_child_left()


def _large_after_first(k):
    if k:
        time.sleep(0.3)
    return bytes(300_000) if k else k


def test_job_map_raises_when_a_worker_dies_mid_result(monkeypatch, deadline):
    # Task 1's worker fills its result pipe while the consumer holds task
    # 0's result, and is killed there, so the parent reads a pickle cut
    # off mid-frame rather than an empty pipe.
    real_fork, pids = os.fork, []

    def recorded_fork():
        pids.append(real_fork())
        return pids[-1]

    monkeypatch.setattr(verify_mod.os, "fork", recorded_fork)
    jobs = verify_mod._map_jobs(_large_after_first, [(0,), (1,)], 2)
    assert next(jobs) == 0
    time.sleep(1)
    os.kill(pids[1], signal.SIGKILL)
    with pytest.raises(ClassprodError, match="exit code -9"):
        next(jobs)
    _no_child_left()


def _slow_after_first(k):
    if k:
        time.sleep(20)
    return k


def test_closing_the_job_map_early_reaps_every_worker(deadline):
    jobs = verify_mod._map_jobs(_slow_after_first, [(k,) for k in range(3)],
                                3)
    t0 = time.monotonic()
    assert next(jobs) == 0
    jobs.close()
    assert time.monotonic() - t0 < 10
    _no_child_left()


def _large_result(k):
    return k, bytes(200_000)


def test_job_map_outgrows_a_pipe_buffer_without_deadlock(deadline):
    # 3,000 four-byte task indices are more than one atomic pipe write
    # carries, and a 200 KB result is more than a pipe holds, so its worker blocks
    # mid-write until the parent reads; a map that wrote ahead of the
    # workers or waited on a write would hang here until the deadline
    tasks = [(k,) for k in range(3000)]
    assert list(verify_mod._map_jobs(int, tasks, 2)) == list(range(3000))
    results = list(verify_mod._map_jobs(_large_result, tasks[:20], 3))
    assert [k for k, _ in results] == list(range(20))
    assert all(blob == bytes(200_000) for _, blob in results)
    _no_child_left()


def _package_env():
    """This environment with the imported package's source on the path."""
    src = os.path.dirname(os.path.dirname(verify_mod.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


_MAP_SCENARIOS = """
import gc, os, time
from classprod import ClassprodError
from classprod.verify import _map_jobs

def dies_on_one(k):
    if k == 1:
        os._exit(3)
    return k

def slow_after_first(k):
    if k:
        time.sleep(20)
    return k

assert list(_map_jobs(str, [(k,) for k in range(5)], 2)) == list("01234")
for call, args, error in ((int, ["1", "x", "3"], ValueError),
                          (dies_on_one, [0, 1, 2], ClassprodError)):
    try:
        list(_map_jobs(call, [(a,) for a in args], 2))
    except error:
        pass
    else:
        raise AssertionError(f"{error.__name__} not raised")
jobs = _map_jobs(slow_after_first, [(k,) for k in range(3)], 3)
assert next(jobs) == 0
jobs.close()
gc.collect()
"""


def test_job_map_leaves_no_file_unclosed():
    # A pipe or stream left open warns only while it is collected, as
    # "Exception ignored ... ResourceWarning" on stderr with exit code 0,
    # so stderr must be empty: a clean map, a worker exception, a dead
    # worker and an early close.
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
         _MAP_SCENARIOS], capture_output=True, text=True, timeout=60,
        env=_package_env())
    assert (proc.returncode, proc.stderr) == (0, "")


_KILLED_PARENT = """
import os, time
from classprod.verify import _map_jobs

def large_after_a_second(k):
    os.write(1, b"started\\n")
    time.sleep(1)
    return bytes(200_000)

for _ in _map_jobs(large_after_a_second, [(k,) for k in range(4)], 2):
    time.sleep(60)
"""


def test_workers_exit_when_the_parent_is_killed(deadline):
    # A worker closes its copies of the parent's pipe ends, so once the
    # parent is gone a result larger than a pipe fails to send instead of
    # blocking forever.  The workers share the parent's stdout, which
    # reads EOF only once every one of them has exited.
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_PARENT],
                            stdout=subprocess.PIPE, start_new_session=True,
                            env=_package_env())
    try:
        assert [proc.stdout.readline() for _ in range(2)] == [b"started\n"] * 2
        proc.kill()
        proc.wait()
        assert proc.stdout.read() == b""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.stdout.close()


def test_job_map_needs_fork_for_more_than_one_job(monkeypatch):
    monkeypatch.delattr(verify_mod.os, "fork")
    with pytest.raises(InvalidParameterError, match="os.fork"):
        list(verify_mod._map_jobs(str, [(1,), (2,)], 2))
    assert list(verify_mod._map_jobs(str, [(1,), (2,)], 1)) == ["1", "2"]


def test_spectrum_stops_at_the_first_gap_violation(monkeypatch, capsys):
    # Fake eta = 2 (inside the p = 5 gap) on every pair of the order-125
    # extraspecial group, the only order-125 corpus group with size-5
    # classes; one more corpus group follows it.
    specs = corpus(5, 625)
    target = ConstructionSpec(kind="extraspecial-exponent-p", p=5, l=1)
    stop = specs.index(target)
    assert stop < len(specs) - 1
    real = verify_mod.class_product
    swept = []

    def fake(x, y):
        swept.append(x.group.order)
        if x.group.order == 125:
            return SimpleNamespace(eta=2)
        return real(x, y)

    monkeypatch.setattr(verify_mod, "class_product", fake)
    reports = eta_spectrum(5, 625)
    assert [r.group for r in reports] == [
        s.to_plain() for s in specs[:stop + 1]]
    assert all(r.consistent for r in reports[:-1])
    assert {v.eta for v in reports[-1].violations} == {2}
    assert set(swept) == {125}  # the later group was never swept

    swept.clear()
    assert main(["spectrum", "--p", "5", "--max-order", "625",
                 "--jobs", "1"]) == 2
    out = capsys.readouterr().out
    assert [json.loads(line) for line in out.splitlines()] == [
        r.to_record() for r in reports]
    assert set(swept) == {125}


def test_spectrum_of_large_wreath_contains_all_documented_values():
    g = build(ConstructionSpec(
        kind="wreath-cyclic", p=5, base=ConstructionSpec(kind="cyclic", n=5)))
    report = spectrum_for_group(g, 5)
    counts = {e: entry.count for e, entry in sorted(report.spectrum.items())}
    assert counts == {1: 12, 3: 3300, 4: 12000, 5: 374064}
    assert report.consistent
