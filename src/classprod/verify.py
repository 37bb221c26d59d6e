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
import os
import time
from contextlib import closing
from dataclasses import dataclass, field, replace
from itertools import chain, islice, product, starmap
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
    DirectProductGroup,
    build,
    corpus,
    distinguished_element,
)
from .errors import (
    ClassprodError,
    InvalidParameterError,
    NotAPGroupError,
)
from .groups import DEFAULT_ORDER_CAP, GroupHandle
from .util import _require_odd_prime

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
                           ClassDecomposition], str | None]) -> TheoremReport:
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

    First, once the order is checked against ``size`` and the cap, a
    group whose generators commute pairwise is abelian and reports 0
    pairs unenumerated, and a direct product whose factors are all
    abelian but H is swept as H and lifted by :func:`_lift`, with H's
    sweep in its ``elapsed_ms``; ``rule`` must agree on (x,a)^G and x^H.
    """
    if g.order % size:
        raise InvalidParameterError(
            f"group order {g.order} rules out a class of size {size}")
    g._require_enumerable()
    t0 = time.perf_counter()
    rest = _nonabelian_factors(g)
    if not rest:
        return TheoremReport(theorem, desc, p, 0, elapsed_ms=_ms(t0))
    if len(rest) == 1 and isinstance(g, DirectProductGroup):
        f = g.factor_groups[rest[0]]
        report = (TheoremReport(theorem, desc, p, 0) if f.order % size
                  else _sweep(theorem, p, desc, f, size, square, rule))
        return _lift(report, g, rest[0], square, desc, t0)
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


def _nonabelian_factors(g: GroupHandle) -> list[int]:
    """The positions of the factors of a direct product ``g``, or of ``g``
    itself otherwise, whose generators do not all commute pairwise."""
    factors = g.factor_groups if isinstance(g, DirectProductGroup) else (g,)
    return [i for i, f in enumerate(factors) if not all(
        f._mul(x, y) == f._mul(y, x)
        for j, x in enumerate(f.generators) for y in f.generators[:j])]


def _lift(report: TheoremReport, g: DirectProductGroup, h: int,
          square: bool, desc: dict, t0: float) -> TheoremReport:
    """G's report from H's, for G = H x A with H ``g``'s factor ``h``.

    (x,a)^G (y,b)^G = x^H y^H x {ab}, so eta, class sizes and [(x,a),G] =
    [x,H] x 1 carry over: a pair of H stands for |A|^2 pairs of G (|A|
    class squares unless ``square``), G's first witness puts A's least
    encoding in the other slots, and its violations are H's crossed with
    A (with A's diagonal for squares), sorted by hex.
    """
    a_all = list(product(*([x.hex() for x in f._raw_elements()]
                           for i, f in enumerate(g.factor_groups) if i != h)))

    def splice(x: str, a: tuple[str, ...]) -> str:
        return "".join(a[:h] + (x,) + a[h:])

    weight = len(a_all) ** 2 if square else len(a_all)
    a0 = a_all[0]
    spectrum = {value: SpectrumEntry(e.count * weight, desc,
                                     splice(e.witness_a, a0),
                                     splice(e.witness_b, a0))
                for value, e in report.spectrum.items()}
    bad = sorted((Violation(splice(v.a, a), splice(v.b, b), v.eta, v.expected)
                  for v in report.violations
                  for a, b in (product(a_all, repeat=2) if square
                               else zip(a_all, a_all))),
                 key=lambda v: (v.a, v.b))
    return TheoremReport(report.theorem, desc, report.p,
                         report.pairs_checked * weight, bad, spectrum,
                         _ms(t0))


def spectrum_for_group(g: GroupHandle, p: int,
                       group_desc: dict | None = None) -> TheoremReport:
    """Tally eta over all ordered pairs of size-p classes of one group.

    The group is a p-group, hence nilpotent, so any eta strictly between
    1 and (p+1)/2 is recorded as a violation (it would falsify the gap).
    """
    _require_odd_prime(p, "the size-p pair sweep")
    _require_p_group(g, p)
    bound = (p + 1) // 2
    expected = f"eta=1 or eta>={bound}"
    return _sweep(SPECTRUM_LABEL, p, _descriptor(g, group_desc), g, p, True,
                  lambda x, y, d: expected if 1 < d.eta < bound else None)


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
    _require_odd_prime(p, "the class-square check")
    _require_p_group(g, p)
    bound = (p + 1) // 2

    def rule(x, _y, d):
        if d.eta == 1:
            # The criterion's size hypothesis |a^G| = |(a^2)^G| always
            # holds here: a has odd order, so it is a power of a^2.
            if not eta_one_criterion(x.group, x.representative,
                                     x.representative):
                return "eta=1 forces [a,G]=[a^2,G], a normal subgroup"
        elif not (d.eta == bound and all(c.size == p for c in d.classes)):
            return f"eta=1, or eta={bound} with all classes of size {p}"
        return None

    report = _sweep("B", p, _descriptor(g, group_desc), g, p, False, rule)
    return replace(report, spectrum={})


def verify_size_two(g: GroupHandle, p: int | None = None,
                    group_desc: dict | None = None) -> TheoremReport:
    """Sweep all ordered pairs of size-2 classes: eta must be 1 or 2."""
    report = _sweep("Prop2.1", p, _descriptor(g, group_desc), g, 2, True,
                    lambda x, y, d: (None if d.eta in (1, 2)
                                     else "eta in {1, 2}"))
    return replace(report, spectrum={})


# ----------------------------------------------------------------------
# reproductions of the worked examples

def reproduce_examples(p: int, order_cap: int = DEFAULT_ORDER_CAP
                       ) -> list[TheoremReport]:
    """Recompute the paper's worked examples at the odd prime ``p``.

    With a and b the spec's ``a-standard`` and ``b-double`` elements, one
    report per check (one pair, the spec as its group, the check's own
    ``elapsed_ms``), in this order:

    1. ``Prop4.1`` on wreath(C_p): |a^G| = p and eta(a^G a^G) = (p+1)/2;
    2. ``Prop4.1`` on wreath(ES(p,1)): |a^G| = p^2 and the same eta;
    3. ``Remark4.2`` on wreath(C_p): eta(a^G b^G) = p - 1;
    4. ``Prop4.3`` on affine-wreath(p): |a^G| = p, eta(a^G a^G) = 2 and
       a^G a^G = (a^2)^G + b^G.

    None of them enumerates its whole group, so the cap bounds the orbits
    and class products they compute, not the group order.  A bad ``p`` is
    refused before any check does work.  The checks run in this process,
    as the extraspecial-base wreath square holds nearly all of their work.
    """
    _require_odd_prime(p, "the example reproductions")
    wreath = ConstructionSpec(kind="wreath-cyclic", p=p,
                              base=ConstructionSpec(kind="cyclic", n=p))
    wreath_es = ConstructionSpec(
        kind="wreath-cyclic", p=p,
        base=ConstructionSpec(kind="extraspecial-exponent-p", p=p, l=1))
    reports = []
    for label, spec, size, eta in (  # size: the claimed |a^G|, if any
            ("Prop4.1", wreath, p, (p + 1) // 2),
            ("Prop4.1", wreath_es, p * p, (p + 1) // 2),
            ("Remark4.2", wreath, None, p - 1),
            ("Prop4.3", ConstructionSpec(kind="affine-wreath", p=p), p, 2)):
        t0 = time.perf_counter()
        g = build(spec, order_cap)
        a = b = distinguished_element(spec, "a-standard", order_cap)
        xa = xb = conjugacy_class(g, a)
        if label == "Remark4.2":  # the shifted pair; the others square a^G
            b = distinguished_element(spec, "b-double", order_cap)
            xb = conjugacy_class(g, b)
        d = class_product(xa, xb)
        claims = [] if size is None else [(xa.size == size, f"|a^G|={size}")]
        claims.append((d.eta == eta, f"eta={eta}"))
        if label == "Prop4.3":
            classes = {conjugacy_class(g, g.power(a, 2)), conjugacy_class(
                g, distinguished_element(spec, "b-double", order_cap))}
            claims.append((set(d.classes) == classes,
                           "product = (a^2)^G union (c,c,e,...,e)^G"))
        reports.append(TheoremReport(
            label, spec.to_plain(), p, 1,
            [Violation(a.hex(), b.hex(), d.eta, text)
             for holds, text in claims if not holds], {}, _ms(t0)))
    return reports


# ----------------------------------------------------------------------
# corpus sweeps and the eta spectrum

_CHECKERS = {"a": verify_theorem_a, "b": verify_theorem_b,
             "size2": verify_size_two, "spectrum": spectrum_for_group}


def _checker(theorem: str) -> Callable[..., TheoremReport]:
    if theorem not in _CHECKERS:
        raise InvalidParameterError(f"unknown theorem selector {theorem!r}; "
                                    "expected a, b, size2 or spectrum")
    return _CHECKERS[theorem]


def verify_group(theorem: str, g: GroupHandle, p: int | None,
                 group_desc: dict | None = None) -> TheoremReport:
    """Run the checker a selector (a, b, size2 or spectrum) names."""
    return _checker(theorem)(g, p, group_desc)


def _corpus_reports(theorem: str, p: int, max_order: int, order_cap: int,
                    jobs: int) -> Iterator[TheoremReport]:
    """Yield each corpus group's report for one selector, in corpus order.

    A bad selector or p is refused before any fork.  Direct products are
    built here and resolved as ``_sweep`` does, so ``_map_jobs`` is handed
    each distinct spec that needs a sweep once, in order of first need;
    an abelian product is checked here, and an H x A report lifted from
    H's after G's cap check, with the lift's own time as ``elapsed_ms``.
    """
    _checker(theorem)
    if theorem != "size2":
        _require_odd_prime(p, f"the {theorem!r} corpus sweep")
    elif p != 2:
        raise InvalidParameterError(
            f"the 'size2' corpus sweep needs p = 2, got {p}: a class of "
            "size 2 needs an even group order")
    plan = []  # (spec, built product or None, H's index, task or None)
    tasks: dict[ConstructionSpec, int] = {}
    for spec in corpus(p, max_order):
        g = h = None
        need: ConstructionSpec | None = spec  # the spec to sweep, if any
        if spec.kind == "direct-product":
            g = build(spec, order_cap)
            rest = _nonabelian_factors(g)
            h = rest[0] if len(rest) == 1 else None
            need = (None if not rest else spec if h is None
                    else spec.factors[h])
        plan.append((spec, g, h, None if need is None
                     else tasks.setdefault(need, len(tasks))))
    def sweep(spec: ConstructionSpec) -> TheoremReport:
        return verify_group(theorem, build(spec, order_cap), p,
                            spec.to_plain())

    swept: list[TheoremReport] = []
    with closing(_map_jobs(sweep, [(spec,) for spec in tasks],
                           jobs)) as reports:
        for spec, g, h, task in plan:
            if task is None:
                yield verify_group(theorem, g, p, spec.to_plain())
                continue
            if h is not None:
                g._require_enumerable()
            swept.extend(islice(reports, max(0, task + 1 - len(swept))))
            yield (swept[task] if h is None else
                   _lift(swept[task], g, h, theorem != "b", spec.to_plain(),
                         time.perf_counter()))


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
    the scan stops at that group and kills the workers still sweeping
    later groups; the list then ends with that group's report and has no
    merged tally.  ``jobs`` > 1 sweeps the groups in that many worker
    processes; the reports do not depend on it.
    """
    kept = []
    with closing(_corpus_reports("spectrum", p, max_order, order_cap,
                                 jobs)) as reports:
        for report in reports:
            kept.append(report)
            if report.violations:
                return kept
    kept.append(merge_spectrum_reports(p, max_order, kept))
    return kept


def verify_corpus(theorem: str, p: int, max_order: int,
                  order_cap: int = DEFAULT_ORDER_CAP,
                  jobs: int = 1) -> list[TheoremReport]:
    """Run one theorem checker over every corpus group, in corpus order.

    ``jobs`` > 1 checks the groups in that many worker processes; the
    reports do not depend on it.
    """
    return list(_corpus_reports(theorem, p, max_order, order_cap, jobs))
