"""Command-line behavior: output records, exit codes, determinism."""

import argparse
import csv
import gc
import itertools
import json
import os
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import classprod
import classprod.verify as verify_mod
from classprod import ConstructionSpec, build, center, corpus
from classprod.cli import build_parser, main
from classprod.constructions import KINDS
from classprod.formats import cayley_table_text, load_group
from classprod.verify import merge_spectrum_reports

from conftest import report_from_record


@pytest.fixture(scope="module")
def affine_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("groups") / "affine3.spec"
    path.write_text(ConstructionSpec(kind="affine-wreath", p=3).to_json())
    return str(path)


@pytest.fixture(scope="module")
def trivial_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("groups") / "trivial.spec"
    path.write_text(ConstructionSpec(kind="cyclic", n=1).to_json())
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    records = [json.loads(line) for line in out.out.splitlines() if line]
    return code, records, out.err


# ---------------------------------------------------------------------------
# product / classes / inspect


def test_product_square_of_affine_seed(affine_spec, capsys):
    code, records, _ = run_cli(
        ["product", "--group", affine_spec, "--a", "g0", "--b", "g0"], capsys)
    assert code == 0
    assert len(records) == 1
    rec = records[0]
    assert rec["eta"] == 2
    assert sorted(c["size"] for c in rec["classes"]) == [3, 3]
    assert rec["group"] == {"kind": "affine-wreath", "p": 3}


def test_product_reports_class_representatives(affine_spec, capsys):
    code, records, _ = run_cli(
        ["product", "--group", affine_spec, "--a", "g0*g1", "--b", "e"],
        capsys)
    assert code == 0
    rec = records[0]
    # with b = e the product is just the class of a
    assert rec["eta"] == 1
    assert rec["classes"][0]["rep"] == rec["a"]


def test_classes_of_trivial_group(trivial_spec, capsys):
    code, records, _ = run_cli(["classes", "--group", trivial_spec], capsys)
    assert code == 0
    assert len(records) == 1
    assert records[0]["size"] == 1


def test_classes_count_matches_partition(affine_spec, capsys):
    code, records, _ = run_cli(["classes", "--group", affine_spec], capsys)
    assert code == 0
    assert len(records) == 22
    assert sum(r["size"] for r in records) == 162


def test_inspect_reports_structure(affine_spec, capsys):
    code, records, _ = run_cli(["inspect", "--group", affine_spec], capsys)
    assert code == 0
    rec = records[0]
    assert rec["order"] == 162
    assert rec["center_size"] == 3
    assert rec["class_count"] == 22


@pytest.mark.parametrize("spec", corpus(3, 243) + [
    ConstructionSpec(kind="dihedral", n=8),
    ConstructionSpec(kind="quaternion8"),
], ids=str)
def test_inspect_center_size_matches_center(spec, tmp_path, capsys):
    path = tmp_path / "group.spec"
    path.write_text(spec.to_json())
    code, records, _ = run_cli(["inspect", "--group", str(path)], capsys)
    assert code == 0
    assert records[0]["center_size"] == len(center(build(spec)))


def test_inspect_rejects_field_the_kind_does_not_read(tmp_path, capsys):
    path = tmp_path / "group.spec"
    path.write_text(json.dumps({"kind": "cyclic", "n": 9, "p": 5}))
    code, records, err = run_cli(["inspect", "--group", str(path)], capsys)
    assert code == 1
    assert records == []
    assert "'p'" in json.loads(err)["message"]


@pytest.mark.parametrize("command", [
    ["classes"], ["product", "--a", "g0", "--b", "g1"], ["inspect"],
    ["verify", "--theorem", "size2"]], ids=lambda c: c[0])
def test_the_cli_loads_a_group_with_the_collector_paused_then_frozen(
        command, tmp_path, capsys, dihedral8):
    table = tmp_path / "d8.cayley"
    table.write_text(cayley_table_text(dihedral8))
    gc.unfreeze()
    try:
        load_group(str(table))
        assert gc.get_freeze_count() == 0
        assert main([*command, "--group", str(table)]) == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() > 0
        assert main(_non_utf8_table(tmp_path)) == 1
        assert gc.isenabled()
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "bad-file-format"
        gc.disable()
        assert main([*command, "--group", str(table)]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()
        gc.unfreeze()


# ---------------------------------------------------------------------------
# verify / reproduce / spectrum behavior and exit codes


def test_verify_single_group_theorem_b(capsys, tmp_path):
    spec = tmp_path / "es27.spec"
    spec.write_text(ConstructionSpec(
        kind="extraspecial-exponent-p", p=3, l=1).to_json())
    code, records, _ = run_cli(
        ["verify", "--theorem", "b", "--group", str(spec), "--p", "3"],
        capsys)
    assert code == 0
    assert records[0]["theorem"] == "B"
    assert records[0]["violations"] == []


def test_verify_abelian_group_whose_order_allows_the_size(capsys, tmp_path):
    # C9 has no class of size 3, but its order rules none out: a real zero
    spec = tmp_path / "c9.spec"
    spec.write_text(ConstructionSpec(kind="cyclic", n=9).to_json())
    code, records, _ = run_cli(
        ["verify", "--theorem", "a", "--group", str(spec), "--p", "3"],
        capsys)
    assert code == 0
    assert records[0]["pairs_checked"] == 0


_ES31_C27 = ConstructionSpec(kind="direct-product", factors=(
    ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=1),
    ConstructionSpec(kind="cyclic", n=27)))


@pytest.mark.parametrize("source", [
    ["spectrum", "--p", "3", "--max-order", "729", "--jobs", "1"],
    ["spectrum", "--p", "3", "--max-order", "729", "--jobs", "2"],
    _ES31_C27, ConstructionSpec(kind="cyclic", n=729),
], ids=["spectrum-jobs-1", "spectrum-jobs-2", "ES31xC27", "C729"])
def test_a_group_above_the_cap_is_refused_before_any_shortcut(
        source, tmp_path, capsys):
    # An order-729 group above --cap 500 is refused, as when it was
    # enumerated: in the corpus (C729 comes first), as an H x A product
    # whose factor ES(3,1) fits under the cap, and as an abelian group.
    if isinstance(source, ConstructionSpec):
        path = tmp_path / "group.spec"
        path.write_text(source.to_json())
        source = ["verify", "--theorem", "a", "--group", str(path),
                  "--p", "3"]
    code, records, err = run_cli(source + ["--cap", "500"], capsys)
    assert (code, records) == (1, [])
    assert json.loads(err) == {
        "error": "enumeration-too-large",
        "message": "group order 729 exceeds the enumeration cap 500; "
                   "raise the cap to force this"}


def test_verify_corpus_exit_zero(capsys):
    code, records, _ = run_cli(
        ["verify", "--theorem", "a", "--corpus", "--p", "3",
         "--max-order", "243"], capsys)
    assert code == 0
    assert all(r["violations"] == [] for r in records)
    assert all(r["theorem"] == "A" for r in records)


def test_verify_size2_corpus(capsys):
    code, records, _ = run_cli(
        ["verify", "--theorem", "size2", "--corpus", "--p", "2",
         "--max-order", "64"], capsys)
    assert code == 0
    assert all(r["theorem"] == "Prop2.1" for r in records)


def test_reproduce_p3_exits_two_with_violation(capsys):
    code, records, _ = run_cli(["reproduce", "--p", "3"], capsys)
    assert code == 2
    flagged = [r for r in records if r["violations"]]
    assert len(flagged) == 1
    assert flagged[0]["theorem"] == "Remark4.2"
    assert flagged[0]["violations"][0]["eta"] == 3


def test_reproduce_p5_exits_zero(capsys):
    code, records, _ = run_cli(["reproduce", "--p", "5"], capsys)
    assert code == 0
    assert [r["theorem"] for r in records] == [
        "Prop4.1", "Prop4.1", "Remark4.2", "Prop4.3"]
    assert all(r["violations"] == [] for r in records)


def test_reproduce_p7_exits_zero(capsys):
    code, records, _ = run_cli(["reproduce", "--p", "7"], capsys)
    assert code == 0
    assert len(records) == 4
    assert all(r["violations"] == [] for r in records)


def test_reproduce_p23_stops_at_the_default_cap(capsys):
    # The extraspecial-base wreath square may hold 529 * 529 elements.
    code = main(["reproduce", "--p", "23"])
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert [json.loads(line) for line in out.err.splitlines()] == [{
        "error": "enumeration-too-large",
        "message": "the product of classes of sizes 529 and 529 may hold "
                   "279841 elements, above the enumeration cap 200000"}]


def test_reproduce_small_cap_is_input_error(capsys):
    code, records, err = run_cli(["reproduce", "--p", "5", "--cap", "100"],
                                 capsys)
    assert code == 1
    assert records == []
    assert "enumeration-too-large" in err


def test_spectrum_jsonl(capsys):
    code, records, _ = run_cli(
        ["spectrum", "--p", "3", "--max-order", "243"], capsys)
    assert code == 0
    merged = records[-1]
    assert merged["theorem"] == "spectrum"
    assert merged["group"] == {"kind": "corpus", "max_order": 243, "p": 3}
    counts = {k: v["count"] for k, v in merged["spectrum"].items()}
    assert counts == {"1": 11420, "2": 36, "3": 896}


def test_spectrum_csv(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code, _, _ = run_cli(
        ["spectrum", "--p", "3", "--max-order", "243",
         "--format", "csv", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta,count,witness_group,witness_a,witness_b"
    assert len(lines) == 4


def test_spectrum_csv_after_a_gap_violation_tallies_every_swept_group(
        capsys, monkeypatch):
    # eta = 2 is inside the p = 5 gap; faked on each class square of the
    # order-125 group, ES(5,1), the run stops there with no merged record
    # and the fake 2 is tallied with the real 1 and 5 of the other pairs.
    # ES(5,1) x C5 of order 625 follows, but is swept as ES(5,1), so a
    # fake on order 625 would never fire.
    real = verify_mod.class_product
    monkeypatch.setattr(
        verify_mod, "class_product",
        lambda x, y: (SimpleNamespace(eta=2)
                      if x.group.order == 125 and x is y else real(x, y)))
    args = ["spectrum", "--p", "5", "--max-order", "625", "--jobs", "1"]
    code, records, _ = run_cli(args, capsys)
    assert code == 2
    assert [r["group"]["kind"] for r in records[-2:]] == [
        "direct-product", "extraspecial-exponent-p"]
    assert main(args + ["--format", "csv"]) == 2
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    merged = merge_spectrum_reports(
        5, 625, [report_from_record(r) for r in records])
    assert rows[1:] == [
        [str(eta), str(e.count),
         json.dumps(e.witness_group, sort_keys=True, separators=(",", ":")),
         e.witness_a, e.witness_b]
        for eta, e in sorted(merged.spectrum.items())]
    assert [row[0] for row in rows[1:]] == ["1", "2", "5"]


@pytest.mark.parametrize("timings", [False, True])
def test_spectrum_timings_survive_a_gap_violation(timings, capsys,
                                                  monkeypatch):
    # eta = 2 faked on the order-125 group, ES(5,1), stops the run there;
    # the clock verify reads steps 1 s per call, so every group's sweep
    # takes at least 1000 ms, which its record shows only under --timings.
    real = verify_mod.class_product
    monkeypatch.setattr(
        verify_mod, "class_product",
        lambda x, y: (SimpleNamespace(eta=2) if x.group.order == 125
                      else real(x, y)))
    ticks = itertools.count()
    monkeypatch.setattr(verify_mod, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks)))
    args = ["spectrum", "--p", "5", "--max-order", "625", "--jobs", "1"]
    code, records, _ = run_cli(args + ["--timings"] * timings, capsys)
    assert code == 2
    assert records[-1]["violations"]
    assert all(r["elapsed_ms"] >= 1000 if timings else r["elapsed_ms"] == 0
               for r in records)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_gap_violation_is_a_report_not_an_error(fmt, capsys, monkeypatch):
    # eta = 2 faked on the order-125 extraspecial group stops the run
    # there: the counterexample leaves only as records and exit code 2,
    # the same at any --jobs, with nothing on stderr.
    real = verify_mod.class_product
    monkeypatch.setattr(
        verify_mod, "class_product",
        lambda x, y: (SimpleNamespace(eta=2) if x.group.order == 125
                      else real(x, y)))
    outs = []
    for jobs in ("1", "2"):
        assert main(["spectrum", "--p", "5", "--max-order", "625",
                     "--format", fmt, "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("eta," if fmt == "csv" else '{"')


# ---------------------------------------------------------------------------
# the report schema, as the README states it


FIELDS = {"theorem", "group", "p", "pairs_checked", "violations",
          "spectrum", "elapsed_ms"}
LABELS = {"A", "B", "Prop2.1", "Prop4.1", "Prop4.3", "Remark4.2", "spectrum"}


def _count(value, least=0):
    return type(value) is int and value >= least


def _assert_member(group, hex_rep, built):
    """A hex representative names an element of the record's group."""
    assert type(hex_rep) is str and re.fullmatch(r"(?:[0-9a-f]{2})+", hex_rep)
    if group["kind"] in KINDS:
        key = json.dumps(group, sort_keys=True)
        if key not in built:
            built[key] = build(ConstructionSpec.from_plain(group))
        built[key]._check(bytes.fromhex(hex_rep))


def _assert_documented_shape(record, timed, built):
    assert set(record) == FIELDS
    assert record["theorem"] in LABELS
    assert type(record["group"]) is dict
    assert _count(record["p"], 2)
    assert _count(record["pairs_checked"])
    assert _count(record["elapsed_ms"])
    if not timed:
        assert record["elapsed_ms"] == 0
    assert type(record["violations"]) is list
    for v in record["violations"]:
        assert set(v) == {"a", "b", "eta", "expected"}
        _assert_member(record["group"], v["a"], built)
        _assert_member(record["group"], v["b"], built)
        assert _count(v["eta"], 1)
        assert type(v["expected"]) is str and v["expected"]
    assert type(record["spectrum"]) is dict
    for key, entry in record["spectrum"].items():
        assert key == str(int(key)) and int(key) >= 1  # no sign, no zeros
        assert set(entry) == {"count", "witness"}
        assert _count(entry["count"], 1)
        witness = entry["witness"]
        assert set(witness) == {"group", "a", "b"}
        assert type(witness["group"]) is dict
        _assert_member(witness["group"], witness["a"], built)
        _assert_member(witness["group"], witness["b"], built)
    if record["theorem"] == "spectrum":
        # every checked pair is tallied under its eta
        assert sum(e["count"] for e in record["spectrum"].values()) == (
            record["pairs_checked"])


@pytest.mark.parametrize("args,code", [
    (["verify", "--corpus", "--theorem", "a", "--p", "3",
      "--max-order", "243"], 0),
    (["verify", "--corpus", "--theorem", "a", "--p", "5",
      "--max-order", "125"], 0),
    (["verify", "--corpus", "--theorem", "b", "--p", "3",
      "--max-order", "243"], 0),
    (["verify", "--corpus", "--theorem", "b", "--p", "3",
      "--max-order", "243", "--jobs", "2"], 0),
    (["verify", "--corpus", "--theorem", "size2", "--p", "2",
      "--max-order", "32"], 0),
    (["verify", "--corpus", "--theorem", "a", "--p", "3",
      "--max-order", "81", "--timings"], 0),
    (["verify", "--group", "wreath81.spec", "--theorem", "a", "--p", "3"], 0),
    (["verify", "--group", "wreath81.cayley", "--theorem", "b",
      "--p", "3"], 0),
    (["reproduce", "--p", "3"], 2),
    (["reproduce", "--p", "5", "--timings"], 0),
    (["spectrum", "--p", "3", "--max-order", "243"], 0),
    (["spectrum", "--p", "5", "--max-order", "125", "--timings"], 0),
], ids=["verify-a-p3", "verify-a-p5", "verify-b-p3", "verify-b-jobs2",
        "verify-size2-p2", "verify-a-timings", "verify-spec-file",
        "verify-cayley-file", "reproduce-p3", "reproduce-p5-timings",
        "spectrum-p3", "spectrum-p5-timings"])
def test_every_record_has_the_documented_shape(args, code, tmp_path,
                                               capsys):
    wreath = ConstructionSpec(kind="wreath-cyclic", p=3,
                              base=ConstructionSpec(kind="cyclic", n=3))
    (tmp_path / "wreath81.spec").write_text(wreath.to_json())
    (tmp_path / "wreath81.cayley").write_text(
        cayley_table_text(build(wreath)))
    args = [str(tmp_path / a) if a.startswith("wreath81.") else a
            for a in args]
    got, records, err = run_cli(args, capsys)
    assert (got, err) == (code, "")
    assert records
    built: dict = {}
    for record in records:
        _assert_documented_shape(record, "--timings" in args, built)


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize("args", [
    ["verify", "--theorem", "a", "--p", "3"],              # no source
    ["verify", "--theorem", "a", "--corpus", "--p", "3"],  # no max-order
    ["verify", "--theorem", "q", "--corpus", "--p", "3",
     "--max-order", "27"],                                 # bad theorem
    ["product", "--a", "g0", "--b", "g0"],                 # no group
    ["reproduce"],                                         # no p
    ["spectrum", "--p", "3"],                              # no max-order
    ["classes"],                                           # no group
    ["nonsense"],                                          # no such command
    ["verify", "--theorem", "a", "--group", "x.spec"],     # no p
    ["spectrum", "--p", "3", "--max-order", "27", "--jobs", "0"],
    ["classes", "--group", "x.spec", "--cap", "0"],
    ["verify", "--theorem", "a", "--group", "x.spec", "--p", "3",
     "--max-order", "5"],                                  # corpus only
    ["verify", "--theorem", "a", "--group", "x.spec", "--p", "3",
     "--jobs", "7"],                                       # corpus only
    ["reproduce", "--p", "3", "--jobs", "2"],              # runs serially
    ["verify", "--theorem", "size2", "--group", "x.spec", "--p", "9"],
    ["verify", "--theorem", "size2", "--corpus", "--p", "3",
     "--max-order", "729"],                                # odd p: no size 2
])
def test_usage_errors_exit_one(args, capsys):
    code = main(args)
    assert code == 1
    err = capsys.readouterr().err
    records = [json.loads(line) for line in err.splitlines()
               if line.startswith("{")]
    assert [r["error"] for r in records] == ["invalid-parameter"]


def test_usage_error_for_both_sources(affine_spec, capsys):
    code = main(["verify", "--theorem", "a", "--group", affine_spec,
                 "--corpus", "--p", "3", "--max-order", "27"])
    assert code == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()
               if line.startswith("{")]
    assert [r["error"] for r in records] == ["invalid-parameter"]


def test_csv_rejected_outside_spectrum(affine_spec, capsys):
    code = main(["product", "--group", affine_spec, "--a", "g0",
                 "--b", "g0", "--format", "csv"])
    assert code == 1


def test_bad_word_is_input_error(affine_spec, capsys):
    code = main(["product", "--group", affine_spec, "--a", "g9",
                 "--b", "g0"])
    out = capsys.readouterr()
    assert code == 1
    assert "unknown-generator" in out.err


def test_missing_group_file_is_input_error(capsys, tmp_path):
    code = main(["classes", "--group", str(tmp_path / "ghost.spec")])
    assert code == 1


def test_worker_cap_error_matches_the_serial_run(capsys):
    # the order-729 groups are built, and refused, inside the workers
    args = ["spectrum", "--p", "3", "--max-order", "729", "--cap", "500"]
    runs = []
    for jobs in ("1", "2"):
        code = main(args + ["--jobs", jobs])
        out = capsys.readouterr()
        runs.append((code, out.out, out.err))
    assert runs[0] == runs[1]
    code, stdout, stderr = runs[0]
    assert (code, stdout) == (1, "")
    assert json.loads(stderr)["error"] == "enumeration-too-large"


def _wreath257_spec(tmp_path):
    path = tmp_path / "wreath257.spec"
    path.write_text(ConstructionSpec(
        kind="wreath-cyclic", p=257,
        base=ConstructionSpec(kind="cyclic", n=2)).to_json())
    return ["product", "--group", str(path), "--a", "g0", "--b", "g0"]


def _non_utf8_table(tmp_path):
    path = tmp_path / "bad.cayley"
    path.write_bytes(b"2\n0 1\n1 \xff\n")
    return ["inspect", "--group", str(path)]


def _verify_group(theorem, spec, *extra):
    def make_args(tmp_path):
        path = tmp_path / "group.spec"
        path.write_text(spec.to_json())
        return ["verify", "--theorem", theorem, "--group", str(path), *extra]
    return make_args


@pytest.mark.parametrize("make_args,code", [
    (lambda _: ["reproduce", "--p", "257"], "invalid-parameter"),
    (_wreath257_spec, "invalid-parameter"),
    (_non_utf8_table, "bad-file-format"),
    (lambda _: ["spectrum", "--p", "257", "--max-order", "16974593"],
     "invalid-parameter"),
    # the group's order rules out every class of the swept size
    (_verify_group("size2", ConstructionSpec(
        kind="extraspecial-exponent-p", p=3, l=1)), "invalid-parameter"),
    (_verify_group("a", ConstructionSpec(kind="cyclic", n=1), "--p", "3"),
     "invalid-parameter"),
    (_verify_group("b", ConstructionSpec(kind="cyclic", n=1), "--p", "3"),
     "invalid-parameter"),
], ids=["reproduce-p257", "product-wreath257", "inspect-non-utf8",
        "spectrum-p257", "size2-order27", "a-trivial", "b-trivial"])
def test_bad_input_is_one_error_record_not_a_traceback(make_args, code,
                                                      tmp_path, capsys):
    assert main(make_args(tmp_path)) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1
    assert json.loads(out.err)["error"] == code


_BIG_P = "1000000000000000000000000000057"  # a prime above 2^64


def _inspect_file(text, name="group.spec"):
    def make_args(tmp_path):
        path = tmp_path / name
        path.write_text(text)
        return ["inspect", "--group", str(path)]
    return make_args


def _product_words(a):
    def make_args(tmp_path):
        path = tmp_path / "affine3.spec"
        path.write_text(ConstructionSpec(kind="affine-wreath", p=3).to_json())
        return ["product", "--group", str(path), "--a", a, "--b", "g0"]
    return make_args


@pytest.mark.parametrize("make_args,code", [
    # JSON integers above 4300 digits, and orders above 4300 digits
    (_inspect_file('{"kind":"cyclic","n":1' + "0" * 5000 + "}"),
     "bad-file-format"),
    (_inspect_file('{"kind":"elementary-abelian","p":3,"n":20000}'),
     "invalid-parameter"),
    (_inspect_file('{"kind":"elementary-abelian","p":3,"n":10000000}'),
     "invalid-parameter"),
    # primes above 2^64
    (lambda _: ["spectrum", "--p", _BIG_P, "--max-order", "10"],
     "invalid-prime"),
    (lambda _: ["reproduce", "--p", _BIG_P], "invalid-prime"),
    (_inspect_file('{"kind":"elementary-abelian","p":%s,"n":2}' % _BIG_P),
     "invalid-prime"),
    # element words whose numbers have more digits than int() converts
    (_product_words("g0^" + "9" * 5000), "parse-error"),
    (_product_words("g" + "9" * 5000), "unknown-generator"),
    # table and permutation numbers above 4300 digits
    (_inspect_file("1" + "0" * 5000 + "\n0\n", "big.cayley"),
     "bad-file-format"),
    (_inspect_file("3\n0 1 2\n1 2 0\n2 0 1" + "0" * 5000 + "\n",
                   "z3.cayley"), "bad-file-format"),
    (_inspect_file("2\n1 " + "0" * 5000 + "\n", "s2.perm"),
     "bad-file-format"),
], ids=["json-5001-digits", "ea-3-20000", "ea-3-10e7", "spectrum-big-p",
        "reproduce-big-p", "ea-big-p", "word-exponent-5000-digits",
        "word-generator-5000-digits", "table-head-5001-digits",
        "table-row-5001-digits", "perm-row-5000-digits"])
def test_large_number_input_is_one_quick_error_record(make_args, code,
                                                     tmp_path, capsys):
    args = make_args(tmp_path)
    start = time.perf_counter()
    assert main(args) == 1
    assert time.perf_counter() - start < 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1
    assert json.loads(out.err)["error"] == code


@pytest.mark.parametrize("word,position", [
    ("g" + "9" * 5000, 0), ("g0 " + "9" * 5000, 3), ("9" * 5000, 0),
], ids=["unknown-generator", "found-after-a-term", "found-for-a-name"])
def test_word_errors_quote_a_bounded_token(word, position, tmp_path,
                                           capsys):
    # a long token is quoted by a prefix and its length, not in full
    assert main(_product_words(word)(tmp_path)) == 1
    err = capsys.readouterr().err
    assert len(err.encode()) < 300
    message = json.loads(err)["message"]
    assert message.endswith(f"(at position {position})")
    assert f"({len(word) - position} characters)" in message


def test_even_p_reproduce_is_input_error(capsys):
    code = main(["reproduce", "--p", "2"])
    out = capsys.readouterr()
    assert code == 1
    assert "even-p" in out.err


@pytest.mark.parametrize("args", [
    ["spectrum", "--p", "3", "--max-order", "27"],
    ["reproduce", "--p", "3"],  # its records carry a violation
], ids=["spectrum", "reproduce-violation"])
def test_unwritable_out_is_input_error(args, tmp_path, capsys):
    out = tmp_path / "missing" / "records.jsonl"
    code = main(args + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error == {"error": "io-error", "message": error["message"]}
    assert str(out) in error["message"]
    assert not out.parent.exists()


def test_unwritable_out_after_a_gap_violation_is_input_error(
        tmp_path, capsys, monkeypatch):
    # eta = 2 on every pair is inside the p = 5 gap, so the spectrum stops
    # at the first group with size-5 classes and writes what it has
    monkeypatch.setattr(verify_mod, "class_product",
                        lambda x, y: SimpleNamespace(eta=2))
    out = tmp_path / "missing" / "records.jsonl"
    code = main(["spectrum", "--p", "5", "--max-order", "625", "--jobs", "1",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    io_error = json.loads(captured.err)
    assert io_error["error"] == "io-error"
    assert str(out) in io_error["message"]


# ---------------------------------------------------------------------------
# determinism across parallelism and runs


def _file_bytes(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


def test_verify_corpus_identical_across_jobs(tmp_path, capsys):
    base = ["verify", "--theorem", "a", "--corpus", "--p", "3",
            "--max-order", "243"]
    c1, b1 = _file_bytes(tmp_path, "j1.jsonl", base + ["--jobs", "1"])
    c2, b2 = _file_bytes(tmp_path, "j2.jsonl", base + ["--jobs", "4"])
    assert c1 == c2 == 0
    assert b1 == b2


def test_spectrum_identical_across_jobs(tmp_path, capsys):
    base = ["spectrum", "--p", "3", "--max-order", "243"]
    c1, b1 = _file_bytes(tmp_path, "s1.jsonl", base + ["--jobs", "1"])
    c2, b2 = _file_bytes(tmp_path, "s2.jsonl", base + ["--jobs", "3"])
    assert c1 == c2 == 0
    assert b1 == b2


def test_reproduce_identical_across_runs(tmp_path, capsys):
    c1, b1 = _file_bytes(tmp_path, "r1.jsonl", ["reproduce", "--p", "3"])
    c2, b2 = _file_bytes(tmp_path, "r2.jsonl", ["reproduce", "--p", "3"])
    assert c1 == c2 == 2
    assert b1 == b2


# ---------------------------------------------------------------------------
# the installed console script


def _python(*args, **env):
    """Run this interpreter with the imported package's source on its path."""
    src = os.path.dirname(os.path.dirname(classprod.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def test_console_script_smoke(affine_spec):
    proc = _python("-m", "classprod", "product", "--group", affine_spec,
                   "--a", "g0", "--b", "g0")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout.strip())
    assert rec["eta"] == 2


def test_stdout_does_not_depend_on_hash_seed(affine_spec):
    # neither command caches a partition, so their classes are peeled
    # from sets whose iteration order follows the hash seed
    for args in (["product", "--group", affine_spec, "--a", "g1", "--b", "g1"],
                 ["reproduce", "--p", "5"]):
        runs = [_python("-m", "classprod", *args, PYTHONHASHSEED=seed)
                for seed in ("0", "1")]
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[1].returncode == 0, runs[1].stderr
        assert runs[0].stdout == runs[1].stdout


def test_console_script_usage_error():
    proc = _python("-m", "classprod", "verify")
    assert proc.returncode == 1


def test_importing_the_cli_loads_no_process_pool():
    # The pool module is imported only when a pool starts, so a serial run
    # never holds its memory.
    proc = _python("-c", "import sys, classprod.cli; "
                         "print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_readme_flags_line_lists_every_long_option():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        flags_line = re.search(r"^Flags:(.*?)\n\n", fh.read(),
                               re.MULTILINE | re.DOTALL).group(1)
    documented = set(re.findall(r"`(--[a-z-]+)", flags_line))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    defined = {option for sub in subparsers.choices.values()
               for action in sub._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"}
    assert documented == defined
    assert len(defined) == 12


def test_each_subcommand_takes_exactly_its_options():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    shared = {"--cap", "--out"}
    expected = {
        "classes": shared | {"--group"},
        "product": shared | {"--group", "--a", "--b"},
        "verify": shared | {"--theorem", "--group", "--corpus", "--p",
                            "--max-order", "--jobs", "--timings"},
        "reproduce": shared | {"--p", "--timings"},
        "spectrum": shared | {"--p", "--max-order", "--jobs", "--timings",
                              "--format"},
        "inspect": shared | {"--group"},
    }
    assert set(subparsers.choices) == set(expected)
    for name, sub in subparsers.choices.items():
        actions = [a for a in sub._actions if "--help" not in a.option_strings]
        assert {o for a in actions for o in a.option_strings} == expected[name]
        defaults = {a.dest: a.default for a in actions}
        assert defaults["cap"] == 200000
        assert defaults.get("jobs", 1) == 1


def test_readme_error_codes_line_lists_every_code():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        codes_line = re.search(r"^Error codes:(.*?)\n\n", fh.read(),
                               re.MULTILINE | re.DOTALL).group(1)
    documented = re.findall(r"`([a-z-]+)`", codes_line)
    defined = {cls.code for cls in vars(classprod.errors).values()
               if isinstance(cls, type)
               and issubclass(cls, classprod.errors.ClassprodError)}
    defined.add(classprod.errors.IO_ERROR)
    assert sorted(documented) == sorted(defined)
    assert len(defined) == 14
