"""Command-line entry point.

Subcommands::

    classes    list every conjugacy class of a group (rep, size)
    product    decompose a^G * b^G for two generator words
    verify     run a theorem checker over a group or the whole corpus
    reproduce  rerun the worked examples for one prime
    spectrum   tally eta over all size-p class pairs of the corpus
    inspect    basic facts about a group source

Reports are JSON-lines records; identical configurations produce
byte-identical report files at any parallelism degree.  Exit status is 0
when every check is consistent, 2 when a checked constraint was violated
(the counterexample records are still written), and 1 for usage or input
errors, which are reported on stderr as ``{"error": code, "message":
...}`` records.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import sys

from .classes import class_partition, class_product, conjugacy_class
from .errors import IO_ERROR, ClassprodError
from .formats import load_group
from .groups import DEFAULT_ORDER_CAP
from .verify import (
    TheoremReport,
    eta_spectrum,
    merge_spectrum_reports,
    reproduce_examples,
    verify_corpus,
    verify_group,
)
from .words import parse_element_word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(json.dumps({"error": "invalid-parameter", "message": message},
                         sort_keys=True), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="classprod",
                     description="conjugacy class products and their "
                                 "decompositions in finite groups")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=DEFAULT_ORDER_CAP,
                        help="most elements one enumeration, orbit or class "
                             "product may hold (default "
                             f"{DEFAULT_ORDER_CAP}); raising it can cost a "
                             "lot of memory")
    common.add_argument("--out", metavar="PATH",
                        help="write records here instead of stdout")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1,
                      help="worker processes forked to sweep the corpus "
                           "groups (default 1), at most one per group; more "
                           "than 1 needs os.fork")
    timings = argparse.ArgumentParser(add_help=False)
    timings.add_argument("--timings", action="store_true",
                         help="record real elapsed_ms (off by default so "
                              "reports are byte-reproducible)")

    sp = sub.add_parser("classes", parents=[common],
                        help="list all conjugacy classes")
    sp.add_argument("--group", required=True, metavar="PATH")
    sp.set_defaults(run=_run_classes)

    sp = sub.add_parser("product", parents=[common],
                        help="decompose a^G * b^G")
    sp.add_argument("--group", required=True, metavar="PATH")
    sp.add_argument("--a", required=True, metavar="WORD",
                    help="generator word, e.g. 'g0*g1^-1'")
    sp.add_argument("--b", required=True, metavar="WORD")
    sp.set_defaults(run=_run_product)

    sp = sub.add_parser("verify", parents=[common, jobs, timings],
                        help="run a theorem checker")
    sp.add_argument("--theorem", required=True, choices=("a", "b", "size2"))
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--group", metavar="PATH",
                        help="check one group from a file")
    source.add_argument("--corpus", dest="use_corpus", action="store_true",
                        help="check every corpus group (needs --p, "
                             "--max-order)")
    sp.add_argument("--p", type=int)
    sp.add_argument("--max-order", type=int)
    sp.set_defaults(run=_run_verify)

    sp = sub.add_parser("reproduce", parents=[common, timings],
                        help="rerun the worked examples")
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(run=lambda ns: reproduce_examples(ns.p, ns.cap))

    sp = sub.add_parser("spectrum", parents=[common, jobs, timings],
                        help="tally eta over the corpus")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--max-order", type=int, required=True)
    sp.add_argument("--format", dest="fmt", choices=("jsonl", "csv"),
                    default="jsonl", help="jsonl (default) or csv")
    sp.set_defaults(run=lambda ns: eta_spectrum(ns.p, ns.max_order, ns.cap,
                                                ns.jobs))

    sp = sub.add_parser("inspect", parents=[common],
                        help="basic facts about a group source")
    sp.add_argument("--group", required=True, metavar="PATH")
    sp.set_defaults(run=_run_inspect)
    return parser


def parse_config(argv=None) -> argparse.Namespace:
    """Parse and cross-check one invocation; usage errors exit with 1."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "verify":
        if ns.use_corpus and (ns.p is None or ns.max_order is None):
            parser.error("--corpus needs --p and --max-order")
        if not ns.use_corpus and ns.theorem in ("a", "b") and ns.p is None:
            parser.error(f"--theorem {ns.theorem} needs --p")
        if ns.theorem == "size2" and ns.p not in (None, 2):
            parser.error("--theorem size2 only takes --p 2: a class of "
                         "size 2 needs an even group order")
        if not ns.use_corpus and ns.max_order is not None:
            parser.error("--max-order only applies to --corpus")
        if not ns.use_corpus and ns.jobs > 1:
            parser.error("--jobs above 1 only applies to --corpus")
    if "jobs" in ns and ns.jobs < 1:
        parser.error("--jobs must be at least 1")
    if ns.cap < 1:
        parser.error("--cap must be positive")
    return ns


# ----------------------------------------------------------------------
# subcommand implementations, each returning records or TheoremReports

def _load(ns: argparse.Namespace):
    """``load_group(ns.group, ns.cap)`` with the cyclic collector paused.

    A table file's rows are millions of references in tuples of strings,
    which cannot form a cycle, so a collection during the load is wasted
    work.  Freezing what is loaded keeps later collections, including
    the one at exit, from walking it again.  This lives here and not in
    the library, since the command owns the process and a library-level
    freeze would keep every caller's garbage cycles for good.  A caller
    that runs :func:`main` in-process gets its whole heap frozen with
    the group, and its collector left on or off as it was.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return load_group(ns.group, ns.cap)
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


def _run_classes(ns: argparse.Namespace) -> list[dict]:
    g, desc = _load(ns)
    records = []
    for c in class_partition(g):
        records.append({"group": desc, "rep": c.representative.hex(),
                        "size": c.size})
    return records


def _run_product(ns: argparse.Namespace) -> list[dict]:
    g, desc = _load(ns)
    xa = conjugacy_class(g, parse_element_word(g, ns.a))
    xb = conjugacy_class(g, parse_element_word(g, ns.b))
    d = class_product(xa, xb)
    return [{
        "group": desc,
        "a": xa.representative.hex(),
        "b": xb.representative.hex(),
        "eta": d.eta,
        "classes": [{"rep": c.representative.hex(), "size": c.size}
                    for c in d.classes],
    }]


def _run_verify(ns: argparse.Namespace) -> list[TheoremReport]:
    if ns.use_corpus:
        return verify_corpus(ns.theorem, ns.p, ns.max_order, ns.cap, ns.jobs)
    g, desc = _load(ns)
    return [verify_group(ns.theorem, g, ns.p, desc)]


def _run_inspect(ns: argparse.Namespace) -> list[dict]:
    g, desc = _load(ns)
    part = class_partition(g)
    return [{
        "group": desc,
        "backend": g.backend,
        "order": g.order,
        "generators": [x.hex() for x in g.generators],
        "center_size": len(part.classes_of_size(1)),
        "class_count": len(part),
        "class_sizes": {str(size): count
                        for size, count in part.size_histogram().items()},
    }]


# ----------------------------------------------------------------------
# output

def _jsonl(results: list, ns: argparse.Namespace) -> str:
    records = (r.to_record(ns.timings) if isinstance(r, TheoremReport) else r
               for r in results)
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)


def _spectrum_csv(reports: list[TheoremReport], ns: argparse.Namespace) -> str:
    # csv flattens the merged corpus-level report, which comes last.  A
    # run stopped by a gap violation has none: merge the groups it swept.
    merged = reports[-1]
    if merged.group.get("kind") != "corpus":
        merged = merge_spectrum_reports(ns.p, ns.max_order, reports)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["eta", "count", "witness_group", "witness_a",
                     "witness_b"])
    for eta, entry in sorted(merged.spectrum.items()):
        writer.writerow([
            eta, entry.count,
            json.dumps(entry.witness_group, sort_keys=True,
                       separators=(",", ":")),
            entry.witness_a, entry.witness_b,
        ])
    return buf.getvalue()


def _write_records(results: list, ns: argparse.Namespace) -> None:
    text = (_spectrum_csv(results, ns) if getattr(ns, "fmt", None) == "csv"
            else _jsonl(results, ns))
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_error(exc: ClassprodError | OSError) -> None:
    code = exc.code if isinstance(exc, ClassprodError) else IO_ERROR
    print(json.dumps({"error": code, "message": str(exc)}, sort_keys=True),
          file=sys.stderr)


def main(argv=None) -> int:
    try:
        ns = parse_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        results = ns.run(ns)
        _write_records(results, ns)
    except (ClassprodError, OSError) as exc:
        _report_error(exc)
        return EXIT_USAGE
    if any(isinstance(r, TheoremReport) and r.violations for r in results):
        return EXIT_VIOLATION
    return EXIT_OK
