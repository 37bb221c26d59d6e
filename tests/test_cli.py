"""Command-line behavior: output records, exit codes, determinism."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import classprod
import classprod.verify as verify_mod
from classprod import ConstructionSpec, build, center, corpus
from classprod.cli import main


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
])
def test_usage_errors_exit_one(args, capsys):
    code = main(args)
    assert code == 1


def test_usage_error_for_both_sources(affine_spec, capsys):
    code = main(["verify", "--theorem", "a", "--group", affine_spec,
                 "--corpus", "--p", "3", "--max-order", "27"])
    assert code == 1


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


def test_even_p_reproduce_is_input_error(capsys):
    for jobs in ("1", "2"):
        code = main(["reproduce", "--p", "2", "--jobs", jobs])
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
    gap, io_error = map(json.loads, captured.err.splitlines())
    assert gap["error"] == "theorem-violation"
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
