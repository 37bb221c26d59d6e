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
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Iterator

from .classes import class_partition, class_product, conjugacy_class
from .constructions import ConstructionSpec, corpus
from .errors import ClassprodError, TheoremViolationError
from .formats import load_group
from .groups import DEFAULT_ORDER_CAP, center
from .util import _require_odd_prime
from .verify import (
    REPRODUCTION_CHECKS,
    TheoremReport,
    collect_spectrum,
    corpus_theorem_report,
    run_reproduction_check,
    spectrum_corpus_report,
    verify_group,
)
from .words import parse_element_word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


@dataclass
class RunConfig:
    """One fully-resolved CLI invocation."""

    command: str
    group: str | None = None
    use_corpus: bool = False
    p: int | None = None
    max_order: int | None = None
    cap: int = DEFAULT_ORDER_CAP
    a: str | None = None
    b: str | None = None
    theorem: str | None = None
    out: str | None = None
    fmt: str = "jsonl"
    jobs: int = 1
    timings: bool = False


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
                    help="parallel worker processes (default 1)")
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


def parse_config(argv=None) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    cfg = RunConfig(command=ns.command)
    for name in ("group", "use_corpus", "p", "max_order", "cap", "a", "b",
                 "theorem", "out", "fmt", "jobs", "timings"):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    if cfg.fmt == "csv" and cfg.command != "spectrum":
        parser.error("--format csv is only available for spectrum tallies")
    if cfg.command == "verify":
        if bool(cfg.group) == bool(cfg.use_corpus):
            parser.error("verify needs exactly one of --group or --corpus")
        if cfg.use_corpus and (cfg.p is None or cfg.max_order is None):
            parser.error("--corpus needs --p and --max-order")
        if cfg.group and cfg.theorem in ("a", "b") and cfg.p is None:
            parser.error(f"--theorem {cfg.theorem} needs --p")
    if cfg.jobs < 1:
        parser.error("--jobs must be at least 1")
    if cfg.cap < 1:
        parser.error("--cap must be positive")
    return cfg


# ----------------------------------------------------------------------
# parallel workers (module level so they pickle)

def _corpus_verify_worker(args) -> TheoremReport:
    theorem, spec_plain, p, cap = args
    spec = ConstructionSpec.from_plain(spec_plain)
    return corpus_theorem_report(theorem, spec, p, cap)


def _reproduction_worker(args) -> TheoremReport:
    check, p, cap = args
    return run_reproduction_check(check, p, cap)


def _spectrum_worker(args) -> TheoremReport:
    spec_plain, p, cap = args
    spec = ConstructionSpec.from_plain(spec_plain)
    return spectrum_corpus_report(spec, p, cap)


def _map_jobs(worker, args_list, jobs: int) -> Iterator[TheoremReport]:
    """Yield the worker's result for each argument tuple, in list order.

    Lazy on both paths, so a consumer that stops early stops the work:
    the serial path runs no further worker, and the pool cancels every
    task not yet started once the generator is closed.
    """
    if jobs <= 1 or len(args_list) <= 1:
        yield from map(worker, args_list)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(worker, args) for args in args_list]
        try:
            for future in futures:
                yield future.result()
        finally:
            pool.shutdown(cancel_futures=True)


# ----------------------------------------------------------------------
# subcommand implementations, each returning a list of records

def _run_classes(cfg: RunConfig) -> list[dict]:
    g, desc = load_group(cfg.group, cfg.cap)
    records = []
    for c in class_partition(g):
        records.append({"group": desc, "rep": c.representative.hex(),
                        "size": c.size})
    return records


def _run_product(cfg: RunConfig) -> list[dict]:
    g, desc = load_group(cfg.group, cfg.cap)
    xa = conjugacy_class(g, parse_element_word(g, cfg.a))
    xb = conjugacy_class(g, parse_element_word(g, cfg.b))
    d = class_product(xa, xb)
    return [{
        "group": desc,
        "a": xa.representative.hex(),
        "b": xb.representative.hex(),
        "eta": d.eta,
        "classes": [{"rep": c.representative.hex(), "size": c.size}
                    for c in d.classes],
    }]


def _records(reports: list[TheoremReport], cfg: RunConfig) -> list[dict]:
    return [r.to_record(cfg.timings) for r in reports]


def _run_verify(cfg: RunConfig) -> list[dict]:
    if cfg.group:
        g, desc = load_group(cfg.group, cfg.cap)
        return _records([verify_group(cfg.theorem, g, cfg.p, desc)], cfg)
    args = [(cfg.theorem, spec.to_plain(), cfg.p, cfg.cap)
            for spec in corpus(cfg.p, cfg.max_order)]
    return _records(list(_map_jobs(_corpus_verify_worker, args, cfg.jobs)),
                    cfg)


def _run_reproduce(cfg: RunConfig) -> list[dict]:
    _require_odd_prime(cfg.p, "the example reproductions")
    args = [(name, cfg.p, cfg.cap) for name in REPRODUCTION_CHECKS]
    return _records(list(_map_jobs(_reproduction_worker, args, cfg.jobs)),
                    cfg)


def _run_spectrum(cfg: RunConfig) -> list[dict]:
    args = [(spec.to_plain(), cfg.p, cfg.cap)
            for spec in corpus(cfg.p, cfg.max_order)]
    with closing(_map_jobs(_spectrum_worker, args, cfg.jobs)) as reports:
        return _records(collect_spectrum(cfg.p, cfg.max_order, reports), cfg)


def _run_inspect(cfg: RunConfig) -> list[dict]:
    g, desc = load_group(cfg.group, cfg.cap)
    part = class_partition(g)
    return [{
        "group": desc,
        "backend": g.backend,
        "order": g.order,
        "generators": [x.hex() for x in g.generators],
        "center_size": len(center(g)),
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


def _write_records(records: list[dict], cfg: RunConfig) -> None:
    text = (_spectrum_csv(records) if cfg.fmt == "csv" else _jsonl(records))
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_error(exc: Exception) -> None:
    code = getattr(exc, "code", "error")
    print(json.dumps({"error": code, "message": str(exc)}, sort_keys=True),
          file=sys.stderr)


def run(cfg: RunConfig) -> list[dict]:
    """Execute one configuration and return its report records."""
    return _RUNNERS[cfg.command](cfg)


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        records = run(cfg)
    except TheoremViolationError as exc:
        _write_records(list(exc.records), cfg)
        _report_error(exc)
        return EXIT_VIOLATION
    except ClassprodError as exc:
        _report_error(exc)
        return EXIT_USAGE
    except OSError as exc:
        _report_error(exc)
        return EXIT_USAGE
    _write_records(records, cfg)
    if any(rec.get("violations") for rec in records):
        return EXIT_VIOLATION
    return EXIT_OK
