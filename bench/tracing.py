"""The traced, in-process pass over one workload.

Spans are recorded from the benchmark's own files around its calls into
each classprod module's public functions; nothing inside ``src/`` is
edited.  Two boundaries are observed by wrapping rather than by calling:

- ``GroupHandle._mul`` on each group handle of the workload, to count
  multiplications (the wrapper is an instance attribute and is removed
  again after the pass);
- ``classprod.verify.class_product``, the name the sweeps call, to count
  and time class products.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import classprod.verify as verify_mod
from classprod import (
    CayleyTableGroup,
    ConstructionSpec,
    build,
    class_partition,
    verify_theorem_b,
)
from classprod.formats import load_group
from classprod.verify import spectrum_for_group

from workloads import P, Workload, table_rows

#: Backends whose multiply is sampled in every traced pass.
BACKENDS = ("cyclic", "direct-product", "extraspecial", "wreath-cyclic",
            "permutation", "cayley-table")

#: Used for a backend that is not on a workload's path, so every traced
#: pass reports every backend.  All are cheap to build.
_REFERENCE_SPECS = {
    "cyclic": {"kind": "cyclic", "n": 729},
    "direct-product": {"kind": "direct-product", "factors": [
        {"kind": "extraspecial-exponent-p", "p": 3, "l": 2},
        {"kind": "cyclic", "n": 3}]},
    "extraspecial": {"kind": "extraspecial-exponent-p", "p": 3, "l": 2},
    "wreath-cyclic": {"kind": "wreath-cyclic", "p": 3,
                      "base": {"kind": "cyclic", "n": 3}},
    "permutation": {"kind": "iterated-wreath-sylow", "p": 3, "copies": 2},
    "cayley-table": {"kind": "direct-product", "factors": [
        {"kind": "extraspecial-exponent-p", "p": 3, "l": 1},
        {"kind": "cyclic", "n": 3}]},
}

MUL_SAMPLE_PAIRS = 4000
MUL_SAMPLE_REPEATS = 5


def backend_of(g) -> str:
    """Kebab-case backend name from the handle's class, e.g. wreath-cyclic."""
    name = type(g).__name__.removesuffix("Group")
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    group: str | None
    trace: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """In-memory span recorder; spans of one pass share a trace id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.trace = 0

    @contextmanager
    def span(self, name: str, group: str | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, time.perf_counter_ns(), 0,
                   parent.id if parent else None, group, self.trace)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class _Products:
    """Counting, timing stand-in for ``verify.class_product``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.ns = 0

    def __call__(self, x, y):
        t0 = time.perf_counter_ns()
        out = self.inner(x, y)
        self.ns += time.perf_counter_ns() - t0
        self.calls += 1
        return out


@contextmanager
def _patched_products():
    orig = verify_mod.class_product
    products = _Products(orig)
    verify_mod.class_product = products
    try:
        yield products
    finally:
        verify_mod.class_product = orig


def _count_muls(g) -> itertools.count:
    """Wrap the handle's multiply so each call advances the counter."""
    counter = itertools.count()
    raw = g._mul
    tick = counter.__next__

    def counted(x, y):
        tick()
        return raw(x, y)

    g._mul = counted
    return counter


def _uncount_muls(groups, counters) -> int:
    """Remove the wrappers and return the calls they counted."""
    for _, g, _ in groups:
        del g._mul
    return sum(next(c) for c in counters)


def _mul_ns(g, rng: random.Random) -> float:
    """Median ns per raw multiply over a seeded sample of pairs."""
    pool = g._raw_elements()
    pairs = [(rng.choice(pool), rng.choice(pool))
             for _ in range(MUL_SAMPLE_PAIRS)]
    mul = g._mul
    times = []
    for _ in range(MUL_SAMPLE_REPEATS):
        t0 = time.perf_counter_ns()
        for x, y in pairs:
            mul(x, y)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / MUL_SAMPLE_PAIRS


def _reference_group(backend: str):
    spec = ConstructionSpec.from_plain(_REFERENCE_SPECS[backend])
    if backend == "cayley-table":
        return CayleyTableGroup(table_rows(spec))
    return build(spec)


def traced_pass(workload: Workload, root: str, seed: int,
                tracer: Tracer) -> tuple[dict[str, float], float]:
    """Run the workload's library calls serially under the tracer.

    Returns the per-layer metrics that come from the pass and its CPU
    seconds (the workload stages only, without the multiply samples).
    """
    groups = []  # (label, handle, report descriptor)
    cpu0 = time.process_time()
    with _patched_products() as products, tracer.span("workload"):
        with tracer.span("stage.load") as load_stage:
            for kind, src in workload.sources:
                if kind == "file":
                    with tracer.span("formats.load_group", group=src):
                        g, desc = load_group(os.path.join(root, src))
                    groups.append((src, g, desc))
        with tracer.span("stage.build") as build_stage:
            for kind, src in workload.sources:
                if kind == "spec":
                    with tracer.span("constructions.build", group=str(src)):
                        g = build(src)
                    groups.append((str(src), g, src.to_plain()))
        with tracer.span("stage.enumerate") as enum_stage:
            for label, g, _ in groups:
                with tracer.span("groups.elements", group=label):
                    g.elements()
        class_count = 0
        counters = [_count_muls(g) for _, g, _ in groups]
        with tracer.span("stage.partition") as part_stage:
            for label, g, _ in groups:
                with tracer.span("classes.class_partition", group=label):
                    class_count += len(class_partition(g))
        partition_muls = _uncount_muls(groups, counters)
        pairs = 0
        group_sweeps = []
        counters = [_count_muls(g) for _, g, _ in groups]
        with tracer.span("stage.sweep") as sweep_stage:
            for label, g, desc in groups:
                with tracer.span("verify.sweep", group=label) as s:
                    if workload.sweep == "spectrum":
                        report = spectrum_for_group(g, P, desc)
                    else:
                        report = verify_theorem_b(g, P, desc)
                pairs += report.pairs_checked
                group_sweeps.append(s.seconds)
        sweep_muls = _uncount_muls(groups, counters)
    cpu_s = time.process_time() - cpu0

    sweep_s = sweep_stage.seconds
    metrics = {
        "groups.mul_calls": partition_muls + sweep_muls,
        "groups.enumerate_s": enum_stage.seconds,
        "constructions.build_s": build_stage.seconds,
        "formats.load_s": load_stage.seconds,
        "classes.partition_s": part_stage.seconds,
        "classes.class_count": class_count,
        "verify.sweep_s": sweep_s,
        "verify.pairs": pairs,
        "verify.pairs_per_s": pairs / sweep_s,
        "verify.mul_per_pair": sweep_muls / pairs,
        "verify.max_group_share": max(group_sweeps) / sum(group_sweeps),
        "classes.product_us": products.ns / 1e3 / products.calls,
    }

    with tracer.span("stage.samples"):
        on_path = {}
        for _, g, _ in groups:  # last largest of each backend wins ties
            b = backend_of(g)
            if b not in on_path or g.order >= on_path[b].order:
                on_path[b] = g
        for backend in BACKENDS:
            g = on_path.get(backend) or _reference_group(backend)
            with tracer.span("groups.mul_sample",
                             group=f"{backend} {g!r}"):
                metrics[f"groups.mul_ns.{backend}"] = _mul_ns(
                    g, random.Random(f"{seed}:{backend}"))
    return metrics, cpu_s
