"""The benchmark's workloads and the input files they are given.

Each workload is one fixed ``classprod`` command line, run from the root
of the checkout.  The program only ever sees the files written here;
``--seed`` fixes their content (today only the relabelling of the Cayley
table), so the same seed always gives byte-identical inputs.

Paths handed to the CLI are relative to the checkout root and never
change between runs, because the ``verify`` report embeds the ``--group``
path and its stdout hash is pinned in ``expected.json``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

from classprod import ConstructionSpec, build, corpus
from classprod.formats import cayley_table_text

#: Directory for generated inputs and results, relative to the
#: checkout root.  Listed in the root ``.gitignore``.
RUN_DIR = ".bench_run"
WORK_DIR = RUN_DIR + "/work"

#: The prime of every workload.
P = 3
SPECTRUM_MAX_ORDER = 729

TABLE_SOURCE = ConstructionSpec.from_plain({
    "kind": "direct-product",
    "factors": [{"kind": "extraspecial-exponent-p", "p": 3, "l": 2},
                {"kind": "cyclic", "n": 9}]})
TABLE_PATH = WORK_DIR + "/table-2187.cayley"


# ----------------------------------------------------------------------
# relabelled Cayley tables

def table_rows(spec: ConstructionSpec) -> list[list[int]]:
    """Multiplication table of the group ``spec`` builds.

    Rows are those of ``formats.cayley_table_text``: index 0 is the
    identity and the other elements follow in encoding order.  A direct
    product is assembled from its factors' tables, (i, j) -> i * n2 + j,
    which gives the same rows: for the workload's 2187-element table it
    takes about 0.8 s, where rendering the product directly takes about
    27 s (Python 3.11, one 2-vCPU virtual machine).
    """
    if spec.kind == "direct-product":
        rows = table_rows(spec.factors[0])
        for factor in spec.factors[1:]:
            right = table_rows(factor)
            n2 = len(right)
            rows = [[u * n2 + v for u in ra for v in rb]
                    for ra in rows for rb in right]
        return rows
    lines = cayley_table_text(build(spec)).splitlines()[1:]
    return [[int(v) for v in line.split()] for line in lines]


def relabelled_table_text(spec: ConstructionSpec, seed: int) -> str:
    """The table of ``spec`` under a seeded relabelling, in file format.

    The relabelling is a random permutation of 1..n-1 drawn from
    ``random.Random(seed)``; the identity keeps index 0, as the format
    requires.
    """
    rows = table_rows(spec)
    n = len(rows)
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    new_of = [0] + rest
    old_of = [0] * n
    for old, new in enumerate(new_of):
        old_of[new] = old
    lines = [str(n)]
    for new in range(n):
        row = rows[old_of[new]]
        lines.append(" ".join([str(new_of[row[q]]) for q in old_of]))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# workloads

def _write(root: str, rel: str, text: str) -> None:
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _no_inputs(root: str, seed: int) -> None:
    pass


def _write_table(root: str, seed: int) -> None:
    _write(root, TABLE_PATH, relabelled_table_text(TABLE_SOURCE, seed))


def _spectrum_counts(records: list[dict]) -> dict[str, int]:
    # The merged corpus record is last and sums pairs_checked.
    return {"verify.pairs": records[-1]["pairs_checked"]}


def _theorem_counts(records: list[dict]) -> dict[str, int]:
    return {"verify.pairs": sum(r["pairs_checked"] for r in records)}


@dataclass(frozen=True)
class Workload:
    """One fixed CLI command and everything the benchmark needs around it.

    ``sources`` lists the groups the command works on, each either
    ``("spec", ConstructionSpec)`` for a group the CLI builds directly or
    ``("file", path)`` for one it reads with ``formats.load_group``.
    ``sweep`` names the per-group sweep the command runs: ``"spectrum"``
    or ``"theorem-b"``.  ``report_counts`` reads the exact counts
    a report shows from its parsed JSONL records.
    """

    name: str
    cli_args: tuple[str, ...]
    sources: tuple[tuple[str, object], ...]
    sweep: str
    write_inputs: Callable[[str, int], None]
    report_counts: Callable[[list[dict]], dict[str, int]]

    @property
    def jobs(self) -> int:
        """Worker processes the command asks for (``--jobs``, default 1)."""
        args = self.cli_args
        return int(args[args.index("--jobs") + 1]) if "--jobs" in args else 1


WORKLOADS = {w.name: w for w in (
    Workload(
        name="spectrum-p3",
        cli_args=("spectrum", "--p", str(P), "--max-order",
                  str(SPECTRUM_MAX_ORDER), "--jobs", "2"),
        sources=tuple(("spec", s)
                      for s in corpus(P, SPECTRUM_MAX_ORDER)),
        sweep="spectrum",
        write_inputs=_no_inputs,
        report_counts=_spectrum_counts,
    ),
    Workload(
        name="table-2187",
        cli_args=("verify", "--theorem", "b", "--group", TABLE_PATH,
                  "--p", str(P)),
        sources=(("file", TABLE_PATH),),
        sweep="theorem-b",
        write_inputs=_write_table,
        report_counts=_theorem_counts,
    ),
)}
