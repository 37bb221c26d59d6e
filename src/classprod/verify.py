"""Falsification harnesses for the class-product claims.

Each checker sweeps every qualifying class pair of a group and records a
violation for any pair that escapes the claimed constraint, so a clean
report is an exhaustive certificate for that group and a dirty one
carries reproducible counterexamples.  Nothing here "corrects" an
observation to match a claim: the claims are treated as falsifiable.

Labels used in reports:

- ``A``: size-p class pairs in an odd-p p-group give eta = 1 or
  eta >= (p+1)/2.
- ``B``: size-p class squares give eta = 1 with [a,G] = [a^2,G] a normal
  subgroup, or eta = (p+1)/2 with every class of size exactly p.
- ``Prop2.1``: size-2 class pairs in any finite group give eta in {1,2}.
- ``Prop4.1``: the standard element of a wreath-by-cyclic group has
  |a^G| = p^n and eta(a^G a^G) = (p+1)/2.
- ``Remark4.2``: the claim eta(a^G b^G) = p-1 for the standard and
  doubled elements of the cyclic wreath group.
- ``Prop4.3``: the standard element of the affine wreath group has
  |a^G| = p and its class square splits as (a^2)^G plus the two-spike
  class, eta = 2.
- ``spectrum``: not a claim check; tallies observed eta values.
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import closing
from dataclasses import dataclass, field, replace
from itertools import chain, product, starmap
from typing import Callable, Iterator, NoReturn

from .classes import (
    ClassDecomposition,
    ConjugacyClass,
    class_partition,
    class_product,
    conjugacy_class,
    eta_one_criterion,
)
from .constructions import (
    ConstructionSpec,
    build,
    corpus,
    distinguished_element,
)
from .errors import (
    ClassprodError,
    FormatError,
    InvalidParameterError,
    NotAPGroupError,
    TheoremViolationError,
)
from .groups import DEFAULT_ORDER_CAP, Element, GroupHandle
from .util import _require_odd_prime

THEOREM_LABELS = ("A", "B", "Prop2.1", "Prop4.1", "Prop4.3", "Remark4.2")
SPECTRUM_LABEL = "spectrum"


@dataclass(frozen=True)
class Violation:
    """One class pair that escaped the checked constraint."""

    a: str  # hex encoding of the first representative
    b: str
    eta: int
    expected: str

    def to_record(self) -> dict:
        return {"a": self.a, "b": self.b, "eta": self.eta,
                "expected": self.expected}


@dataclass(frozen=True)
class SpectrumEntry:
    """Occurrence count for one eta value, with its first witness."""

    count: int
    witness_group: dict
    witness_a: str
    witness_b: str

    def to_record(self) -> dict:
        return {"count": self.count,
                "witness": {"group": self.witness_group,
                            "a": self.witness_a, "b": self.witness_b}}


@dataclass
class TheoremReport:
    """Outcome of one checker run over one group (or merged corpus)."""

    theorem: str
    group: dict
    p: int | None
    pairs_checked: int
    violations: list[Violation] = field(default_factory=list)
    spectrum: dict[int, SpectrumEntry] = field(default_factory=dict)
    elapsed_ms: int = 0

    @property
    def consistent(self) -> bool:
        return not self.violations

    def to_record(self, include_timing: bool = False) -> dict:
        return {
            "theorem": self.theorem,
            "group": self.group,
            "p": self.p,
            "pairs_checked": self.pairs_checked,
            "violations": [v.to_record() for v in self.violations],
            "spectrum": {str(k): self.spectrum[k].to_record()
                         for k in sorted(self.spectrum)},
            "elapsed_ms": self.elapsed_ms if include_timing else 0,
        }


def _shaped(value, kind: type, what: str, fields: set | None = None):
    """``value`` if its type is exactly ``kind``, so no bool passes as an
    int, and an object's field names are exactly ``fields`` when given."""
    if type(value) is not kind:
        raise FormatError(f"{what} must be {kind.__name__}, got {value!r}")
    if fields is not None and set(value) != fields:
        raise FormatError(f"{what} fields differ: missing "
                          f"{sorted(fields - set(value))}, unknown "
                          f"{sorted(set(value) - fields)}")
    return value


def parse_report_record(obj: dict) -> TheoremReport:
    """Parse one emitted report record back into a TheoremReport.

    Shipped so every record the tool writes can be round-tripped; raises
    a file-format error on any shape mismatch.
    """
    _shaped(obj, dict, "report record",
            {"theorem", "group", "p", "pairs_checked", "violations",
             "spectrum", "elapsed_ms"})
    if obj["theorem"] not in THEOREM_LABELS + (SPECTRUM_LABEL,):
        raise FormatError(f"unknown theorem label {obj['theorem']!r}")
    violations = []
    for v in _shaped(obj["violations"], list, "violations"):
        _shaped(v, dict, "violation", {"a", "b", "eta", "expected"})
        violations.append(Violation(_shaped(v["a"], str, "a"),
                                    _shaped(v["b"], str, "b"),
                                    _shaped(v["eta"], int, "eta"),
                                    _shaped(v["expected"], str, "expected")))
    spectrum = {}
    for key, entry in _shaped(obj["spectrum"], dict, "spectrum").items():
        if not (type(key) is str and key.isdecimal() and str(int(key)) == key):
            raise FormatError(f"spectrum key {key!r} is not a decimal eta")
        _shaped(entry, dict, f"spectrum entry {key}", {"count", "witness"})
        witness = _shaped(entry["witness"], dict, f"witness {key}",
                          {"group", "a", "b"})
        spectrum[int(key)] = SpectrumEntry(
            _shaped(entry["count"], int, "count"),
            _shaped(witness["group"], dict, "witness group"),
            _shaped(witness["a"], str, "a"), _shaped(witness["b"], str, "b"))
    p = obj["p"] if obj["p"] is None else _shaped(obj["p"], int, "p")
    return TheoremReport(
        obj["theorem"], _shaped(obj["group"], dict, "group"), p,
        _shaped(obj["pairs_checked"], int, "pairs_checked"), violations,
        spectrum, _shaped(obj["elapsed_ms"], int, "elapsed_ms"))


def _ms(t0: float) -> int:
    return max(0, round((time.perf_counter() - t0) * 1000))


def _require_p_group(g: GroupHandle, p: int) -> None:
    order = g.order
    while order % p == 0:
        order //= p
    if order != 1:
        raise NotAPGroupError(
            f"group order {g.order} is not a power of {p}")


def _descriptor(g: GroupHandle, given: dict | None) -> dict:
    if given is not None:
        return given
    return {"kind": "opaque", "backend": g.backend, "order": g.order}


def _map_jobs(worker: Callable[..., TheoremReport], args_list: list[tuple],
             jobs: int) -> Iterator[TheoremReport]:
    """Yield ``worker(*args)`` for each argument tuple, in list order.

    With ``jobs`` > 1 the calls run in ``min(jobs, len(args_list))``
    processes forked from this one, which must have no other thread; without
    ``os.fork`` that raises ``InvalidParameterError``.  A worker inherits
    ``worker`` and the arguments and has one task in flight: it is sent a
    task index on a pipe of its own and pickles the outcome back on another
    before it is sent the next, so no task write blocks.  A worker's
    exception is raised in its result's place with its type and message; a
    worker that dies raises ``ClassprodError``.  Leaving the generator in
    any way stops the work: the serial path runs no further call, and every
    worker is killed and reaped.
    """
    if jobs > 1 and not hasattr(os, "fork"):
        raise InvalidParameterError(
            "more than one job needs os.fork, which this platform lacks")
    jobs = min(jobs, len(args_list))
    if jobs <= 1:
        yield from starmap(worker, args_list)
        return
    # Imported here, not at module level, so that a serial run does not
    # pay for them; forked workers inherit them.
    import pickle
    import select
    import signal
    feeds: dict = {}  # result stream -> write end of its worker's task pipe
    pids: dict = {}  # result stream -> its unreaped worker
    done: dict[int, tuple[bool, object]] = {}
    try:
        # Collections skip frozen objects, so workers keep their pages shared.
        gc.freeze()
        try:
            for task in range(jobs):
                r, w = os.pipe()
                stream = os.fdopen(r, "rb")
                tasks, feeds[stream] = os.pipe()
                os.write(feeds[stream], task.to_bytes(4, "little"))
                try:
                    pids[stream] = os.fork()
                    if pids[stream] == 0:
                        _work(worker, args_list, tasks, w, feeds)
                finally:
                    os.close(tasks)
                    os.close(w)
        finally:
            gc.unfreeze()
        for i in range(len(args_list)):
            while i not in done:
                for stream in select.select(list(pids), [], [])[0]:
                    try:
                        index, ok, value = pickle.load(stream)
                    except (EOFError, pickle.UnpicklingError):
                        _, status = os.waitpid(pids.pop(stream), 0)
                        raise ClassprodError(
                            "a worker process ended early with exit code "
                            f"{os.waitstatus_to_exitcode(status)}") from None
                    done[index] = ok, value
                    task += 1  # the next task, for the worker now idle
                    if task < len(args_list):
                        os.write(feeds[stream], task.to_bytes(4, "little"))
            ok, value = done.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for stream, feed in feeds.items():
            stream.close()
            os.close(feed)


def _work(worker: Callable[..., TheoremReport], args_list: list[tuple],
          tasks: int, out: int, feeds: dict) -> NoReturn:
    """A forked worker of ``_map_jobs``: report each task it is sent until
    the parent closes the task pipe or exits, then exit without returning
    into the caller's code."""
    code = 1
    try:
        import pickle  # already loaded by the parent
        for stream, feed in feeds.items():  # the parent's ends of the pipes
            stream.close()
            os.close(feed)
        results = os.fdopen(out, "wb")
        while index := os.read(tasks, 4):
            i = int.from_bytes(index, "little")
            try:
                outcome = i, True, worker(*args_list[i])
            except Exception as exc:  # re-raised by the parent
                outcome = i, False, exc
            pickle.dump(outcome, results, pickle.HIGHEST_PROTOCOL)
            results.flush()
        code = 0
    finally:
        os._exit(code)


def _sweep(theorem: str, p: int | None, desc: dict, g: GroupHandle,
           size: int, square: bool,
           rule: Callable[[ConjugacyClass, ConjugacyClass,
                           ClassDecomposition], str | None],
           t0: float) -> TheoremReport:
    """The one class-pair loop every checker runs.

    Covers every ordered pair (x, y) of size-``size`` classes of ``g``
    when ``square`` is set, else every pair (x, x), in scan order: by
    position of x, then of y, in the partition's representative order.
    It tallies eta with the first witness in scan order and records a
    violation whenever ``rule`` returns the expected-text of a
    constraint the pair escapes; ``pairs_checked`` counts the pairs
    covered.

    Two exact identities let one product stand for many pairs.  For
    central z1, z2, (x z1)^G (y z2)^G = x^G y^G z1 z2, so eta is constant
    on each block O_i x O_j of Z-orbits of classes; and x^G y^G =
    y^G x^G, so a square sweep takes only the blocks with i <= j.  Each
    block is decomposed once, on its two orbit leaders (the least class
    of each orbit), and counted with its weight in ordered pairs.  So
    ``rule`` must be invariant under central translation of either
    class, and for square sweeps under swapping them.  A block the rule
    rejects is expanded into one violation per pair it covers, sorted
    by representative hex, which is scan order.  The orbits are
    ``ClassPartition.center_orbits``: central translates are split
    through the one helper ``class_product`` uses too.  That product
    multiplies one fixed representative of x by y, so a block costs one
    multiplication if [y,G] is central, else |y|.
    """
    orbits = class_partition(g).center_orbits(size)
    counts: dict[int, int] = {}
    witnesses: dict[int, tuple[str, str]] = {}
    bad: list[Violation] = []
    for i, oi in enumerate(orbits):
        x = oi[0]
        for j in range(i, len(orbits)) if square else (i,):
            oj = orbits[j]
            y = oj[0]
            d = class_product(x, y)
            eta = d.eta
            # Blocks are visited in scan order of their least pair, so the
            # first block with a given eta holds its first witness.
            if eta not in counts:
                witnesses[eta] = (x.representative.hex(),
                                  y.representative.hex())
            weight = (len(oi) * len(oj) * (1 if i == j else 2) if square
                      else len(oi))
            counts[eta] = counts.get(eta, 0) + weight
            expected = rule(x, y, d)
            if expected is not None:
                pairs = product(oi, oj) if square else zip(oi, oi)
                if square and i != j:
                    pairs = chain(pairs, product(oj, oi))
                bad.extend(Violation(a.representative.hex(),
                                     b.representative.hex(), eta, expected)
                           for a, b in pairs)
    spectrum = {value: SpectrumEntry(counts[value], desc, *witnesses[value])
                for value in counts}
    return TheoremReport(theorem, desc, p, sum(counts.values()),
                         sorted(bad, key=lambda v: (v.a, v.b)), spectrum,
                         _ms(t0))


def spectrum_for_group(g: GroupHandle, p: int,
                       group_desc: dict | None = None) -> TheoremReport:
    """Tally eta over all ordered pairs of size-p classes of one group.

    The group is a p-group, hence nilpotent, so any eta strictly between
    1 and (p+1)/2 is recorded as a violation (it would falsify the gap).
    """
    t0 = time.perf_counter()
    _require_odd_prime(p, "the size-p pair sweep")
    _require_p_group(g, p)
    bound = (p + 1) // 2
    expected = f"eta=1 or eta>={bound}"
    return _sweep(SPECTRUM_LABEL, p, _descriptor(g, group_desc), g, p, True,
                  lambda x, y, d: expected if 1 < d.eta < bound else None,
                  t0)


def verify_theorem_a(g: GroupHandle, p: int,
                     group_desc: dict | None = None) -> TheoremReport:
    """Sweep all ordered pairs of size-p classes for the eta gap.

    The spectrum sweep under label A: a violation whenever
    1 < eta < (p+1)/2, and no tally in the report.
    """
    return replace(spectrum_for_group(g, p, group_desc), theorem="A",
                   spectrum={})


def verify_theorem_b(g: GroupHandle, p: int,
                     group_desc: dict | None = None) -> TheoremReport:
    """Check the dichotomy for every size-p class square.

    Clause i: eta = 1, and then [a,G] = [a^2,G] must hold with that set
    a normal subgroup, which is ``eta_one_criterion(g, a, a)``.  Clause
    ii: eta = (p+1)/2 with every class in the decomposition of size
    exactly p.  Anything else is a violation.
    """
    t0 = time.perf_counter()
    _require_odd_prime(p, "the class-square check")
    _require_p_group(g, p)
    bound = (p + 1) // 2

    def rule(x, _y, d):
        if d.eta == 1:
            # The criterion's size hypothesis |a^G| = |(a^2)^G| always
            # holds here: a has odd order, so it is a power of a^2.
            if not eta_one_criterion(g, x.representative, x.representative):
                return "eta=1 forces [a,G]=[a^2,G], a normal subgroup"
        elif not (d.eta == bound and all(c.size == p for c in d.classes)):
            return f"eta=1, or eta={bound} with all classes of size {p}"
        return None

    report = _sweep("B", p, _descriptor(g, group_desc), g, p, False, rule,
                    t0)
    return replace(report, spectrum={})


def verify_size_two(g: GroupHandle, p: int | None = None,
                    group_desc: dict | None = None) -> TheoremReport:
    """Sweep all ordered pairs of size-2 classes: eta must be 1 or 2."""
    t0 = time.perf_counter()
    report = _sweep("Prop2.1", p, _descriptor(g, group_desc), g, 2, True,
                    lambda x, y, d: (None if d.eta in (1, 2)
                                     else "eta in {1, 2}"),
                    t0)
    return replace(report, spectrum={})


# ----------------------------------------------------------------------
# reproductions of the worked examples

REPRODUCTION_CHECKS = ("wreath-square", "wreath-square-extraspecial-base",
                       "shifted-pair", "affine-square")


def reproduction_plan(p: int) -> list[tuple[str, str, ConstructionSpec]]:
    """(check name, report label, spec) for each worked-example check."""
    wreath_cyclic = ConstructionSpec(
        kind="wreath-cyclic", p=p, base=ConstructionSpec(kind="cyclic", n=p))
    wreath_es = ConstructionSpec(
        kind="wreath-cyclic", p=p,
        base=ConstructionSpec(kind="extraspecial-exponent-p", p=p, l=1))
    affine = ConstructionSpec(kind="affine-wreath", p=p)
    return [
        ("wreath-square", "Prop4.1", wreath_cyclic),
        ("wreath-square-extraspecial-base", "Prop4.1", wreath_es),
        ("shifted-pair", "Remark4.2", wreath_cyclic),
        ("affine-square", "Prop4.3", affine),
    ]


def run_reproduction_check(check: str, p: int,
                           order_cap: int = DEFAULT_ORDER_CAP) -> TheoremReport:
    """Run one named reproduction and report what was observed."""
    _require_odd_prime(p, "the example reproductions")
    plan = {name: (label, spec) for name, label, spec in reproduction_plan(p)}
    if check not in plan:
        raise InvalidParameterError(
            f"unknown reproduction check {check!r}; expected one of "
            f"{', '.join(REPRODUCTION_CHECKS)}")
    label, spec = plan[check]
    t0 = time.perf_counter()
    g = build(spec, order_cap)
    a = distinguished_element(spec, "a-standard", order_cap)
    xa = conjugacy_class(g, a)
    violations: list[Violation] = []

    def expect(cond: bool, b_elem: Element, observed_eta: int,
               constraint: str) -> None:
        if not cond:
            violations.append(Violation(a.hex(), b_elem.hex(), observed_eta,
                                        constraint))

    if check in ("wreath-square", "wreath-square-extraspecial-base"):
        n = 1 if check == "wreath-square" else 2
        d = class_product(xa, xa)
        expect(xa.size == p ** n, a, d.eta, f"|a^G|={p ** n}")
        expect(d.eta == (p + 1) // 2, a, d.eta, f"eta={(p + 1) // 2}")
    elif check == "shifted-pair":
        b = distinguished_element(spec, "b-double", order_cap)
        d = class_product(xa, conjugacy_class(g, b))
        expect(d.eta == p - 1, b, d.eta, f"eta={p - 1}")
    else:  # affine-square
        d = class_product(xa, xa)
        expect(xa.size == p, a, d.eta, f"|a^G|={p}")
        expect(d.eta == 2, a, d.eta, "eta=2")
        square_class = conjugacy_class(g, g.power(a, 2))
        spike_class = conjugacy_class(
            g, distinguished_element(spec, "b-double", order_cap))
        expect(set(d.classes) == {square_class, spike_class}, a, d.eta,
               "product = (a^2)^G union (c,c,e,...,e)^G")
    return TheoremReport(label, spec.to_plain(), p, 1, violations, {},
                         _ms(t0))


def reproduce_examples(p: int, order_cap: int = DEFAULT_ORDER_CAP,
                       jobs: int = 1) -> list[TheoremReport]:
    """Run every worked-example reproduction, in plan order.

    None of them enumerates its whole group, so the cap bounds the orbits
    and class products they compute, not the group order.  ``p`` is
    checked before any check runs.  ``jobs`` > 1 runs the checks in
    that many worker processes; the reports do not depend on it.
    """
    _require_odd_prime(p, "the example reproductions")
    args = [(name, p, order_cap) for name in REPRODUCTION_CHECKS]
    return list(_map_jobs(run_reproduction_check, args, jobs))


# ----------------------------------------------------------------------
# corpus sweeps and the eta spectrum

_CHECKERS = {"a": verify_theorem_a, "b": verify_theorem_b,
             "size2": verify_size_two}


def verify_group(theorem: str, g: GroupHandle, p: int | None,
                 group_desc: dict | None = None) -> TheoremReport:
    """Run the checker named by a selector (a, b or size2) over one group."""
    if theorem not in _CHECKERS:
        raise InvalidParameterError(
            f"unknown theorem selector {theorem!r}; expected a, b or size2")
    return _CHECKERS[theorem](g, p, group_desc)


def corpus_theorem_report(theorem: str, spec: ConstructionSpec, p: int,
                          order_cap: int = DEFAULT_ORDER_CAP) -> TheoremReport:
    """Run one theorem checker over one corpus group."""
    return verify_group(theorem, build(spec, order_cap), p, spec.to_plain())


def spectrum_corpus_report(spec: ConstructionSpec, p: int,
                           order_cap: int = DEFAULT_ORDER_CAP) -> TheoremReport:
    """Build one corpus group and tally its spectrum."""
    return spectrum_for_group(build(spec, order_cap), p, spec.to_plain())


def merge_spectrum_reports(p: int, max_order: int,
                           reports: list[TheoremReport]) -> TheoremReport:
    """Combine per-group spectrum tallies into one corpus-level record.

    Counts add; the witness for each eta value comes from the first
    report that attained it, so merging is associative and independent
    of how the per-group work was scheduled.
    """
    merged: dict[int, SpectrumEntry] = {}
    scanned = 0
    elapsed = 0
    for report in reports:
        scanned += report.pairs_checked
        elapsed += report.elapsed_ms
        for value in sorted(report.spectrum):
            entry, old = report.spectrum[value], merged.get(value)
            merged[value] = (entry if old is None
                             else replace(old, count=old.count + entry.count))
    return TheoremReport(
        SPECTRUM_LABEL, {"kind": "corpus", "p": p, "max_order": max_order},
        p, scanned, [], merged, elapsed)


def eta_spectrum(p: int, max_order: int, order_cap: int = DEFAULT_ORDER_CAP,
                 jobs: int = 1) -> list[TheoremReport]:
    """Per-group spectrum reports in corpus order, plus the merged tally.

    If a group contradicts the gap (eta strictly between 1 and (p+1)/2),
    the scan stops at that group, kills the workers still sweeping later
    groups, and raises with the records so far attached to the error.
    ``jobs`` > 1 sweeps the groups in that many worker processes; the
    reports do not depend on it.
    """
    _require_odd_prime(p, "the spectrum sweep")
    args = [(spec, p, order_cap) for spec in corpus(p, max_order)]
    kept = []
    with closing(_map_jobs(spectrum_corpus_report, args, jobs)) as reports:
        for report in reports:
            kept.append(report)
            if report.violations:
                raise TheoremViolationError(
                    f"gap violation: group "
                    f"{json.dumps(report.group, sort_keys=True)} attains eta="
                    f"{report.violations[0].eta} with 1 < eta < "
                    f"{(p + 1) // 2}",
                    records=[r.to_record() for r in kept])
    kept.append(merge_spectrum_reports(p, max_order, kept))
    return kept


def verify_corpus(theorem: str, p: int, max_order: int,
                  order_cap: int = DEFAULT_ORDER_CAP,
                  jobs: int = 1) -> list[TheoremReport]:
    """Run one theorem checker over every corpus group, in corpus order.

    ``jobs`` > 1 checks the groups in that many worker processes; the
    reports do not depend on it.
    """
    args = [(theorem, spec, p, order_cap) for spec in corpus(p, max_order)]
    return list(_map_jobs(corpus_theorem_report, args, jobs))
