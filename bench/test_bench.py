"""Tests for the benchmark's input generator and failure accounting.

    python3 -m pytest bench
"""

from __future__ import annotations

import functools
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from classprod import (  # noqa: E402
    CayleyTableGroup,
    ConstructionSpec,
    build,
    class_partition,
)

import run  # noqa: E402
import tracing  # noqa: E402
from classprod.formats import cayley_table_text  # noqa: E402
from workloads import (  # noqa: E402
    TABLE_SOURCE,
    Workload,
    relabelled_table_text,
    table_rows,
)

SMALL = ConstructionSpec.from_plain({"kind": "direct-product", "factors": [
    {"kind": "extraspecial-exponent-p", "p": 3, "l": 1},
    {"kind": "cyclic", "n": 3}]})


def _declared(kind: str) -> set[str]:
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _rows(text: str) -> list[list[int]]:
    lines = text.splitlines()
    n = int(lines[0])
    rows = [[int(v) for v in line.split()] for line in lines[1:]]
    assert len(rows) == n and all(len(r) == n for r in rows)
    return rows


#: Tables under test: a small one, and the workload's own 2187x2187 one.
SPECS = {"small": SMALL, "table-2187": TABLE_SOURCE}


@functools.lru_cache(maxsize=None)
def _table(name: str, seed: int) -> str:
    return relabelled_table_text(SPECS[name], seed)


@functools.lru_cache(maxsize=None)
def _histogram(name: str) -> dict:
    return class_partition(build(SPECS[name])).size_histogram()


def test_direct_product_rows_match_the_library_rendering():
    text = cayley_table_text(build(SMALL))
    assert table_rows(SMALL) == _rows(text)


@pytest.mark.parametrize("name", SPECS)
def test_same_seed_gives_identical_bytes(name):
    assert _table(name, 1) == relabelled_table_text(SPECS[name], 1)


@pytest.mark.parametrize("name", SPECS)
def test_different_seeds_give_different_tables(name):
    assert _rows(_table(name, 1)) != _rows(_table(name, 2))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", SPECS)
def test_identity_stays_at_index_zero(name, seed):
    rows = _rows(_table(name, seed))
    assert rows[0] == list(range(len(rows)))
    assert [row[0] for row in rows] == list(range(len(rows)))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", SPECS)
def test_table_keeps_class_size_histogram(name, seed):
    g = CayleyTableGroup(_rows(_table(name, seed)))
    assert class_partition(g).size_histogram() == _histogram(name)


@pytest.mark.parametrize("code, expect", [
    ("import sys; sys.exit(3)", 3),
    ("import os, signal; os.kill(os.getpid(), signal.SIGKILL)", -9),
])
def test_failing_or_crashing_child_is_counted(tmp_path, code, expect):
    checker = run.Checker({"exit_code": 0, "stdout_sha256": "0" * 64,
                           "orders": []})
    child = run.run_child([sys.executable, "-c", code], dict(os.environ),
                          str(tmp_path), str(tmp_path))
    assert child.exit_code == expect
    assert checker.cli(child) is False
    assert (checker.attempted, checker.failed) == (1, 1)


def test_failures_do_not_abort_the_measurement(tmp_path):
    broken = Workload(
        name="no-such-workload", sources=(), sweep="spectrum",
        cli_args=("classes", "--group", "no/such/file.spec"),
        write_inputs=lambda root, seed: None,
        report_counts=lambda records: {})
    checker = run.Checker({"exit_code": 0, "stdout_sha256": "0" * 64,
                           "orders": []})
    env = dict(os.environ, PYTHONPATH=run.SRC)
    metrics, detail = run.measure_end_to_end(broken, env, str(tmp_path),
                                             checker, seconds=0)
    assert len(detail["runs"]) == run.MIN_ITERATIONS
    assert all(r["exit_code"] == 1 for r in detail["runs"])
    assert not any(p["ok"] for p in detail["setups"])
    children = len(detail["runs"]) + len(detail["setups"])
    assert (checker.attempted, checker.failed) == (children, children)
    assert metrics["wall_s"] > 0
    assert set(metrics) == _declared("end_to_end")


def test_traced_pass_reports_every_per_layer_metric():
    tiny = Workload(
        name="tiny", cli_args=(), sources=(("spec", SMALL),),
        sweep="spectrum", write_inputs=lambda root, seed: None,
        report_counts=lambda records: {})
    metrics, _ = tracing.traced_pass(tiny, run.ROOT, 0, tracing.Tracer())
    assert metrics["verify.mul_per_pair"] == 9
    # measure_traced adds the metrics that come from outside the pass.
    added = {"cli.pool_busy_frac", "bench.calib_s", "bench.trace_overhead"}
    assert set(metrics) | added == _declared("per_layer")
