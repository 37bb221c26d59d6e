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
    FormatError,
    InvalidParameterError,
    NotAPGroupError,
    TheoremViolationError,
    build,
    class_partition,
    conjugacy_class,
    eta,
    corpus,
    eta_spectrum,
    parse_report_record,
    reproduce_examples,
    verify_size_two,
    verify_theorem_a,
    verify_theorem_b,
)
from classprod.cli import main
from classprod.verify import (
    REPRODUCTION_CHECKS,
    SPECTRUM_LABEL,
    THEOREM_LABELS,
    corpus_theorem_report,
    merge_spectrum_reports,
    reproduction_plan,
    run_reproduction_check,
    spectrum_for_group,
    verify_corpus,
)

from conftest import brute_class_partition, brute_eta, pair_sweep


# ---------------------------------------------------------------------------
# report plumbing


def _roundtrip(report):
    record = report.to_record()
    again = parse_report_record(json.loads(json.dumps(record)))
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


def test_parse_rejects_unknown_fields():
    record = verify_theorem_a(
        build(ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1)),
        3).to_record()
    record["surprise"] = 1
    with pytest.raises(FormatError):
        parse_report_record(record)


def test_parse_rejects_missing_fields():
    with pytest.raises(FormatError):
        parse_report_record({"theorem": "A"})


def test_parse_rejects_unknown_label():
    record = {
        "theorem": "Z", "group": {}, "p": 3, "pairs_checked": 0,
        "violations": [], "spectrum": {}, "elapsed_ms": 0,
    }
    with pytest.raises(FormatError):
        parse_report_record(record)


def _well_formed_record():
    return {
        "theorem": "spectrum", "group": {}, "p": 3, "pairs_checked": 2,
        "violations": [{"a": "00", "b": "01", "eta": 2, "expected": "x"}],
        "spectrum": {"1": {"count": 2, "witness": {"group": {}, "a": "00",
                                                   "b": "00"}}},
        "elapsed_ms": 0,
    }


def test_parse_accepts_the_well_formed_record():
    record = _well_formed_record()
    assert parse_report_record(record).to_record() == record


MALFORMED = {
    "pairs-checked-text": lambda r: r.update(pairs_checked="abc"),
    "pairs-checked-bool": lambda r: r.update(pairs_checked=True),
    "elapsed-ms-float": lambda r: r.update(elapsed_ms=0.0),
    "p-text": lambda r: r.update(p="3"),
    "violations-int": lambda r: r.update(violations=5),
    "violation-list": lambda r: r.update(
        violations=[["a", "b", "eta", "expected"]]),
    "violation-eta-float": lambda r: r["violations"][0].update(eta=2.7),
    "spectrum-list": lambda r: r.update(spectrum=[1]),
    "spectrum-key-text": lambda r: r.update(
        spectrum={"x": r["spectrum"]["1"]}),
    # "01" once parsed as eta 1 and overwrote the count of the "1" entry
    "spectrum-key-leading-zero": lambda r: r["spectrum"].update(
        {"01": {**r["spectrum"]["1"], "count": 3}}),
    "spectrum-entry-list": lambda r: r.update(
        spectrum={"1": ["count", "witness"]}),
    "spectrum-witness-list": lambda r: r["spectrum"]["1"].update(
        witness=["group", "a", "b"]),
    "spectrum-count-bool": lambda r: r["spectrum"]["1"].update(count=True),
    "group-list": lambda r: r.update(group=[1]),
    "violation-a-int": lambda r: r["violations"][0].update(a=5),
    "violation-b-null": lambda r: r["violations"][0].update(b=None),
    "violation-expected-int": lambda r: r["violations"][0].update(expected=7),
    "witness-group-text": lambda r: r["spectrum"]["1"]["witness"].update(
        group="corpus"),
    "witness-a-int": lambda r: r["spectrum"]["1"]["witness"].update(a=0),
    "witness-b-list": lambda r: r["spectrum"]["1"]["witness"].update(b=["00"]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_parse_rejects_every_malformed_shape_as_format_error(name):
    # each of these once leaked a ValueError, TypeError or AttributeError,
    # or truncated a number, instead of raising a file-format error
    record = _well_formed_record()
    MALFORMED[name](record)
    with pytest.raises(FormatError):
        parse_report_record(record)


def test_labels_are_fixed():
    assert THEOREM_LABELS == ("A", "B", "Prop2.1", "Prop4.1", "Prop4.3",
                              "Remark4.2")
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


def test_theorem_checks_reject_non_p_group(affine162):
    with pytest.raises(NotAPGroupError):
        verify_theorem_a(affine162, 3)
    with pytest.raises(NotAPGroupError):
        verify_theorem_b(affine162, 3)


def test_theorem_checks_reject_even_p(dihedral8):
    with pytest.raises(EvenPrimeError):
        verify_theorem_a(dihedral8, 2)


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


def test_reproduction_plan_names():
    names = [name for name, _, _ in reproduction_plan(3)]
    assert names == list(REPRODUCTION_CHECKS)


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
    for jobs in (1, 2):
        with pytest.raises(EvenPrimeError):
            reproduce_examples(2, jobs=jobs)


def test_single_check_wreath_square():
    report = run_reproduction_check("wreath-square", 3)
    assert report.consistent
    assert report.theorem == "Prop4.1"


def test_single_check_unknown_name():
    with pytest.raises(InvalidParameterError):
        run_reproduction_check("no-such-check", 3)


def test_affine_square_check_verifies_sizes():
    report = run_reproduction_check("affine-square", 3)
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


def test_corpus_theorem_report_single():
    spec = ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1)
    report = corpus_theorem_report("b", spec, 3, 200_000)
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
    reports = [
        __import__("classprod").verify.spectrum_corpus_report(s, 3, 200_000)
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


def _partition_and_sweep_muls(spec, p):
    """Multiplications of a fresh handle's partition and spectrum sweep.

    Counted as the benchmark's traced pass counts them: by wrapping the
    handle's ``_mul`` as an instance attribute.
    """
    g = build(spec)
    counter = itertools.count()
    raw = g._mul

    def counted(x, y):
        next(counter)
        return raw(x, y)

    g._mul = counted
    class_partition(g)
    spectrum_for_group(g, p)
    del g._mul
    return next(counter)


def test_multiplication_count_depends_only_on_the_group():
    # the memo of the central-commutator path lives on each handle's
    # partition, so a second handle repeats the count exactly; one
    # multiplication per block instead of |y| needs under half of the
    # 10,440 a sweep took when every block cost |y|
    first = _partition_and_sweep_muls(ES32_C3, 3)
    assert first == _partition_and_sweep_muls(ES32_C3, 3)
    assert first < 10_440 // 2


@pytest.mark.parametrize("spec", [
    ConstructionSpec(kind="dihedral", n=16),
    # 12 size-2 classes in 3 orbits under its centre of order 8
    ConstructionSpec(kind="direct-product", factors=(
        ConstructionSpec(kind="dihedral", n=8),
        ConstructionSpec(kind="cyclic", n=4))),
], ids=["D16", "D8xC4"])
def test_size_two_sweep_matches_per_pair_oracle(spec, monkeypatch):
    g = build(spec)
    fast = verify_size_two(g).to_record()
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


def test_pool_never_outnumbers_its_tasks(monkeypatch):
    # The map forks one worker per job up front, so it is sized to the
    # task count.  The fork is counted, and refused past the 9 workers
    # the calls below need, so a map that forks one per job fails here
    # without starting them.
    real_fork = os.fork
    forks = []

    def counted_fork():
        if len(forks) == 9:
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
    serial = [r.to_record() for r in reproduce_examples(5)]
    assert [r.to_record()
            for r in mapped(lambda: reproduce_examples(5, jobs=500))] == serial
    assert sizes == [3, 2, len(REPRODUCTION_CHECKS)]


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
    with pytest.raises(TheoremViolationError) as info:
        eta_spectrum(5, 625)
    records = info.value.records
    assert [r["group"] for r in records] == [
        s.to_plain() for s in specs[:stop + 1]]
    assert all(not r["violations"] for r in records[:-1])
    assert {v["eta"] for v in records[-1]["violations"]} == {2}
    assert set(swept) == {125}  # the later group was never swept

    swept.clear()
    assert main(["spectrum", "--p", "5", "--max-order", "625",
                 "--jobs", "1"]) == 2
    out = capsys.readouterr().out
    assert [json.loads(line) for line in out.splitlines()] == records
    assert set(swept) == {125}


def test_spectrum_of_large_wreath_contains_all_documented_values():
    g = build(ConstructionSpec(
        kind="wreath-cyclic", p=5, base=ConstructionSpec(kind="cyclic", n=5)))
    report = spectrum_for_group(g, 5)
    counts = {e: entry.count for e, entry in sorted(report.spectrum.items())}
    assert counts == {1: 12, 3: 3300, 4: 12000, 5: 374064}
    assert report.consistent
