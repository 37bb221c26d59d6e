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
import io
import json
import sys

from .classes import class_partition, class_product, conjugacy_class
from .errors import IO_ERROR, ClassprodError, TheoremViolationError
from .formats import load_group
from .groups import DEFAULT_ORDER_CAP
from .verify import (
    TheoremReport,
    eta_spectrum,
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


def _add_output_flags(sp) -> None:
    sp.add_argument("--out", metavar="PATH",
                    help="write records here instead of stdout")
    sp.add_argument("--format", dest="fmt", choices=("jsonl", "csv"),
                    default="jsonl",
                    help="jsonl (default); csv only for spectrum tallies")


def _add_cap_flag(sp) -> None:
    sp.add_argument("--cap", type=int, default=DEFAULT_ORDER_CAP,
                    help="most elements one enumeration, orbit or class "
                         f"product may hold (default {DEFAULT_ORDER_CAP}); "
                         "raising it can cost a lot of memory")


def _add_jobs_flags(sp) -> None:
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes forked to run the groups or "
                         "checks (default 1), at most one per group or "
                         "check; more than 1 needs os.fork")
    sp.add_argument("--timings", action="store_true",
                    help="record real elapsed_ms (off by default so reports "
                         "are byte-reproducible)")


def build_parser() -> _Parser:
    parser = _Parser(prog="classprod",
                     description="conjugacy class products and their "
                                 "decompositions in finite groups")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classes", help="list all conjugacy classes")
    sp.add_argument("--group", required=True, metavar="PATH")
    _add_cap_flag(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("product", help="decompose a^G * b^G")
    sp.add_argument("--group", required=True, metavar="PATH")
    sp.add_argument("--a", required=True, metavar="WORD",
                    help="generator word, e.g. 'g0*g1^-1'")
    sp.add_argument("--b", required=True, metavar="WORD")
    _add_cap_flag(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("verify", help="run a theorem checker")
    sp.add_argument("--theorem", required=True, choices=("a", "b", "size2"))
    sp.add_argument("--group", metavar="PATH",
                    help="check one group from a file")
    sp.add_argument("--corpus", dest="use_corpus", action="store_true",
                    help="check every corpus group (needs --p, --max-order)")
    sp.add_argument("--p", type=int)
    sp.add_argument("--max-order", type=int)
    _add_cap_flag(sp)
    _add_output_flags(sp)
    _add_jobs_flags(sp)

    sp = sub.add_parser("reproduce", help="rerun the worked examples")
    sp.add_argument("--p", type=int, required=True)
    _add_cap_flag(sp)
    _add_output_flags(sp)
    _add_jobs_flags(sp)

    sp = sub.add_parser("spectrum", help="tally eta over the corpus")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--max-order", type=int, required=True)
    _add_cap_flag(sp)
    _add_output_flags(sp)
    _add_jobs_flags(sp)

    sp = sub.add_parser("inspect", help="basic facts about a group source")
    sp.add_argument("--group", required=True, metavar="PATH")
    _add_cap_flag(sp)
    _add_output_flags(sp)
    return parser


def parse_config(argv=None) -> argparse.Namespace:
    """Parse and cross-check one invocation; usage errors exit with 1."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.fmt == "csv" and ns.command != "spectrum":
        parser.error("--format csv is only available for spectrum tallies")
    if ns.command == "verify":
        if bool(ns.group) == bool(ns.use_corpus):
            parser.error("verify needs exactly one of --group or --corpus")
        if ns.use_corpus and (ns.p is None or ns.max_order is None):
            parser.error("--corpus needs --p and --max-order")
        if ns.group and ns.theorem in ("a", "b") and ns.p is None:
            parser.error(f"--theorem {ns.theorem} needs --p")
    if "jobs" in ns and ns.jobs < 1:
        parser.error("--jobs must be at least 1")
    if ns.cap < 1:
        parser.error("--cap must be positive")
    return ns


# ----------------------------------------------------------------------
# subcommand implementations, each returning a list of records

def _run_classes(ns: argparse.Namespace) -> list[dict]:
    g, desc = load_group(ns.group, ns.cap)
    records = []
    for c in class_partition(g):
        records.append({"group": desc, "rep": c.representative.hex(),
                        "size": c.size})
    return records


def _run_product(ns: argparse.Namespace) -> list[dict]:
    g, desc = load_group(ns.group, ns.cap)
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


def _records(reports: list[TheoremReport], ns) -> list[dict]:
    return [r.to_record(ns.timings) for r in reports]


def _run_verify(ns: argparse.Namespace) -> list[dict]:
    if ns.group:
        g, desc = load_group(ns.group, ns.cap)
        return _records([verify_group(ns.theorem, g, ns.p, desc)], ns)
    return _records(verify_corpus(ns.theorem, ns.p, ns.max_order, ns.cap,
                                  ns.jobs), ns)


def _run_reproduce(ns: argparse.Namespace) -> list[dict]:
    return _records(reproduce_examples(ns.p, ns.cap, ns.jobs), ns)


def _run_spectrum(ns: argparse.Namespace) -> list[dict]:
    return _records(eta_spectrum(ns.p, ns.max_order, ns.cap, ns.jobs), ns)


def _run_inspect(ns: argparse.Namespace) -> list[dict]:
    g, desc = load_group(ns.group, ns.cap)
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


_RUNNERS = {
    "classes": _run_classes,
    "product": _run_product,
    "verify": _run_verify,
    "reproduce": _run_reproduce,
    "spectrum": _run_spectrum,
    "inspect": _run_inspect,
}


# ----------------------------------------------------------------------
# output

def _jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)


def _spectrum_csv(records: list[dict]) -> str:
    # The merged corpus-level record is always last; csv flattens just it.
    merged = records[-1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["eta", "count", "witness_group", "witness_a",
                     "witness_b"])
    for key in sorted(merged["spectrum"], key=int):
        entry = merged["spectrum"][key]
        writer.writerow([
            key, entry["count"],
            json.dumps(entry["witness"]["group"], sort_keys=True,
                       separators=(",", ":")),
            entry["witness"]["a"], entry["witness"]["b"],
        ])
    return buf.getvalue()


def _write_records(records: list[dict], ns: argparse.Namespace) -> None:
    text = (_spectrum_csv(records) if ns.fmt == "csv" else _jsonl(records))
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
        try:
            records = _RUNNERS[ns.command](ns)
        except TheoremViolationError as exc:
            _report_error(exc)
            _write_records(list(exc.records), ns)
            return EXIT_VIOLATION
        _write_records(records, ns)
    except (ClassprodError, OSError) as exc:
        _report_error(exc)
        return EXIT_USAGE
    if any(rec.get("violations") for rec in records):
        return EXIT_VIOLATION
    return EXIT_OK
