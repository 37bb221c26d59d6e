"""Reading and writing group description files."""

import json
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import classprod.formats as formats_mod
from classprod import (
    CayleyTableGroup,
    ClassprodError,
    ConstructionSpec,
    FormatError,
    build,
    center,
    class_partition,
    corpus,
)
from classprod.formats import cayley_table_text, load_group
from classprod.verify import spectrum_for_group

from conftest import (
    dihedral_reference_table,
    quotient,
    relabelled_table,
    table_text,
)


ES3_2 = ConstructionSpec(kind="extraspecial-exponent-p", p=3, l=2)

NONASSOCIATIVE_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _int_rows(g):
    """The rows of a table group as int tuples, whatever its labels."""
    return [tuple(map(int, row)) for row in g._table]


# ---------------------------------------------------------------------------
# Cayley table files


def test_cayley_file_round_trip(tmp_path, dihedral8):
    path = _write(tmp_path, "d8.cayley", cayley_table_text(dihedral8))
    g = load_group(path)[0]
    assert g.order == 8
    # identity must occupy index 0 in the emitted table
    lines = [l for l in open(path) if l.strip() and not l.startswith("#")]
    first_row = [int(v) for v in lines[1].split()]
    assert first_row == list(range(8))


def test_cayley_text_matches_reference(tmp_path):
    table = dihedral_reference_table(8)
    body = "8\n" + "\n".join(" ".join(str(v) for v in row) for row in table)
    path = _write(tmp_path, "ref.cayley", body + "\n")
    g = load_group(path)[0]
    assert g.order == 8


def test_cayley_file_tolerates_comments(tmp_path):
    body = "# two element group\n2\n\n0 1\n1 0\n"
    path = _write(tmp_path, "c2.cayley", body)
    assert load_group(path)[0].order == 2


def test_cayley_file_rejects_nonassociative(tmp_path):
    body = "5\n" + "\n".join(
        " ".join(str(v) for v in row) for row in NONASSOCIATIVE_5)
    path = _write(tmp_path, "bad.cayley", body + "\n")
    with pytest.raises(FormatError):
        load_group(path)


def test_cayley_file_rejects_out_of_range_entry(tmp_path):
    path = _write(tmp_path, "bad.cayley", "2\n0 1\n1 7\n")
    with pytest.raises(FormatError) as err:
        load_group(path)
    assert f"{path}:3: entry 7 outside 0..1" in str(err.value)


def test_cayley_file_rejects_in_range_duplicates(tmp_path):
    path = _write(tmp_path, "bad.cayley", "3\n0 1 2\n1 1 0\n2 0 1\n")
    with pytest.raises(FormatError, match="not a bijection"):
        load_group(path)


def test_cayley_file_of_order_one(tmp_path):
    g = load_group(_write(tmp_path, "one.cayley", "1\n0\n"))[0]
    assert g.order == 1
    assert g.generators == (g.identity,)


def test_cayley_file_accepts_noncanonical_integer_tokens(tmp_path):
    plain = load_group(
        _write(tmp_path, "z3.cayley", "3\n0 1 2\n1 2 0\n2 0 1\n"))[0]
    padded = load_group(
        _write(tmp_path, "z3p.cayley", "3\n0 1 2\n+1 002 0\n2 00 +1\n"))[0]
    assert padded._table == plain._table
    assert padded.generators == plain.generators


def test_cayley_file_rows_share_one_set_of_labels(tmp_path):
    # rows are mapped onto one list of n labels or derived from such rows,
    # so the table holds n label objects, not one per entry; row 500 is
    # zero-padded, so it is parsed token by token and must join that set
    def add(i, j):  # (Z_9)^3, digit by digit in base 9
        return sum((i // d + j // d) % 9 * d for d in (1, 9, 81))

    n = 729
    rows = [[add(i, j) for j in range(n)] for i in range(n)]
    lines = table_text(rows).splitlines()
    lines[501] = " ".join(f"{v:04d}" for v in rows[500])
    g = load_group(_write(tmp_path, "g.cayley",
                          "\n".join(lines) + "\n"))[0]
    assert _int_rows(g) == [tuple(row) for row in rows]
    assert len({id(v) for row in g._table for v in row}) == n


def test_cayley_file_rejects_short_table(tmp_path):
    path = _write(tmp_path, "bad.cayley", "3\n0 1 2\n1 2 0\n")
    with pytest.raises(FormatError):
        load_group(path)


def test_cayley_file_rejects_garbage(tmp_path):
    path = _write(tmp_path, "bad.cayley", "2\n0 x\n1 0\n")
    with pytest.raises(FormatError) as err:
        load_group(path)
    # diagnostics carry path:lineno and the token
    assert f"{path}:2: 'x' is not an integer" in str(err.value)


@pytest.mark.parametrize("name,text,lineno,token", [
    ("z3.cayley", "3\n0 1 2\n1 2 0\n2 0 \u0661\n", 4, "\u0661"),
    ("z3.cayley", "3\n0 1 2\n1 2 0\n2 0 0_1\n", 4, "0_1"),
    ("s2.perm", "3\n1 0 \uff12\n", 2, "\uff12"),
    ("z3.cayley", "0_3\n0 1 2\n1 2 0\n2 0 1\n", 1, "0_3"),
    ("z3.txt", "\u0663\n0 1 2\n1 2 0\n2 0 1\n", 1, "\u0663"),
    # more digits than int() converts from a string
    ("z3.cayley", "1" + "0" * 5000 + "\n0 1 2\n1 2 0\n2 0 1\n", 1,
     "1" + "0" * 5000),
    ("z3.cayley", "3\n0 1 2\n1 2 0\n2 0 1" + "0" * 5000 + "\n", 4,
     "1" + "0" * 5000),
], ids=["table-arabic-indic", "table-underscore", "perm-fullwidth",
        "head-underscore", "sniffed-head-arabic-indic", "head-5001-digits",
        "table-row-5001-digits"])
def test_numeric_files_take_only_ascii_decimal_integers(tmp_path, name, text,
                                                        lineno, token):
    # int() alone reads the first five tokens as small indices and raises
    # a bare ValueError on the last two
    path = _write(tmp_path, name, text)
    with pytest.raises(FormatError, match=re.escape(
            f"{path}:{lineno}: {token!r} is not an integer")):
        load_group(path)


def _assert_walk_inverses(g):
    """The walk's inverses equal a scan of each row for the identity."""
    identity = g._table[0][0]
    assert g._invtab == [row.index(identity) for row in g._table]
    for x in g.elements():
        assert (g.multiply(x, g.inverse(x)) == g.multiply(g.inverse(x), x)
                == g.identity)


# Every corpus group to 243 at p = 3 and to 125 at p = 5.
SMALL_CORPUS = corpus(3, 243) + corpus(5, 125)


@pytest.mark.parametrize("spec", SMALL_CORPUS, ids=str)
def test_relabelled_corpus_table_loads_as_in_memory(tmp_path, spec):
    rows = relabelled_table(build(spec), seed=11)
    loaded = load_group(_write(tmp_path, "g.cayley", table_text(rows)))[0]
    ref = CayleyTableGroup(rows)
    assert _int_rows(loaded) == ref._table == [tuple(row) for row in rows]
    assert loaded.generators == ref.generators
    _assert_walk_inverses(loaded)
    _assert_walk_inverses(ref)


def test_quotient_and_order_one_tables_take_inverses_in_walk_order(
        tmp_path, wreath81):
    _assert_walk_inverses(quotient(wreath81, center(wreath81).elements)[0])
    _assert_walk_inverses(CayleyTableGroup([[0]]))
    _assert_walk_inverses(load_group(_write(tmp_path, "one.cayley",
                                            "1\n0\n"))[0])


def _record_walk(monkeypatch):
    """The rows the loader reads in full and those it compares by text."""
    read, compared = [], []
    text = formats_mod._TableText
    get, equals = text.__getitem__, text.row_equals
    monkeypatch.setattr(text, "__getitem__",
                        lambda self, i: read.append(i) or get(self, i))
    monkeypatch.setattr(text, "row_equals", lambda self, i, row:
                        compared.append(i) or equals(self, i, row))
    return read, compared


@pytest.fixture(scope="module")
def es243_rows():
    return relabelled_table(build(ES3_2), seed=4)


def test_cayley_file_reads_only_row_zero_and_generator_rows(
        tmp_path, monkeypatch, es243_rows):
    read, compared = _record_walk(monkeypatch)
    g = load_group(_write(tmp_path, "g.cayley",
                          table_text(es243_rows)))[0]
    gens = [g.index_of(x) for x in g.generators]
    assert read == [0] + gens
    assert sorted(compared) == sorted(set(range(1, 243)) - set(gens))


def _derived_rows(tmp_path, monkeypatch, rows):
    """First, middle and last row the walk derives, in walk order."""
    _, compared = _record_walk(monkeypatch)
    load_group(_write(tmp_path, "walk.cayley", table_text(rows)))
    monkeypatch.undo()
    return compared[0], compared[len(compared) // 2], compared[-1]


def test_cayley_file_rejects_transpositions_in_derived_rows(
        tmp_path, monkeypatch, es243_rows):
    for z in _derived_rows(tmp_path, monkeypatch, es243_rows):
        bad = [list(row) for row in es243_rows]
        bad[z][1], bad[z][-1] = bad[z][-1], bad[z][1]
        with pytest.raises(FormatError, match="not associative") as err:
            load_group(_write(tmp_path, "bad.cayley", table_text(bad)))
        x, g, y = map(int, re.search(r"at \((\d+),(\d+),(\d+)\)",
                                     str(err.value)).groups())
        assert bad[bad[x][g]][y] != bad[x][bad[g][y]]


def test_cayley_file_rejects_a_duplicate_in_a_derived_row(
        tmp_path, monkeypatch, es243_rows):
    z = _derived_rows(tmp_path, monkeypatch, es243_rows)[-1]
    bad = [list(row) for row in es243_rows]
    bad[z][2] = bad[z][1]
    with pytest.raises(FormatError, match=f"row {z} is not a bijection"):
        load_group(_write(tmp_path, "bad.cayley", table_text(bad)))


def test_cayley_file_parses_noncanonical_derived_rows(
        tmp_path, monkeypatch, es243_rows):
    first, middle, last = _derived_rows(tmp_path, monkeypatch, es243_rows)
    lines = table_text(es243_rows).splitlines()
    lines[1 + first] = "\t".join(f"{v:04d}" for v in es243_rows[first])
    lines[1 + middle] = "  ".join(f"+{v}" for v in es243_rows[middle])
    lines[1 + last] = " \t ".join(map(str, es243_rows[last]))
    g = load_group(_write(tmp_path, "odd.cayley",
                          "\n".join(lines) + "\n"))[0]
    assert _int_rows(g) == [tuple(row) for row in es243_rows]


def test_cayley_file_parses_every_zero_padded_derived_row(
        tmp_path, monkeypatch):
    # every line but row 0 and the generator rows differs from its
    # derivation's text, so each is parsed and mapped onto the labels
    rows = relabelled_table(build(ConstructionSpec(
        kind="extraspecial-exponent-p", p=3, l=1)), seed=5)
    ref = load_group(_write(tmp_path, "g.cayley", table_text(rows)))[0]
    gens = {ref.index_of(x) for x in ref.generators}
    lines = table_text(rows).splitlines()
    for i in set(range(1, 27)) - gens:
        lines[1 + i] = " ".join(f"{v:03d}" for v in rows[i])
    read, _ = _record_walk(monkeypatch)
    g = load_group(_write(tmp_path, "padded.cayley",
                          "\n".join(lines) + "\n"))[0]
    assert sorted(read) == list(range(27))
    assert g._table == ref._table
    assert g._invtab == ref._invtab
    assert g.generators == ref.generators
    assert len({id(v) for row in g._table for v in row}) == 27


def _class_and_eta_invariants(g):
    """Class-size histogram and eta multiset over size-3 class pairs."""
    sizes = Counter(c.size for c in class_partition(g).classes)
    report = spectrum_for_group(g, 3)
    return sizes, {eta: e.count for eta, e in report.spectrum.items()}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_relabelled_table_keeps_class_and_eta_invariants(tmp_path_factory,
                                                         data):
    g = build(data.draw(st.sampled_from(corpus(3, 81))))
    lines = cayley_table_text(g).splitlines()
    n = int(lines[0])
    rows = [[int(v) for v in line.split()] for line in lines[1:]]
    label = [0] + data.draw(st.permutations(range(1, n)))
    relabelled = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            relabelled[label[i]][label[j]] = label[rows[i][j]]
    path = tmp_path_factory.mktemp("relabel") / "g.cayley"
    path.write_text(f"{n}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in relabelled))
    loaded = load_group(str(path))[0]
    assert _class_and_eta_invariants(loaded) == _class_and_eta_invariants(g)


# ---------------------------------------------------------------------------
# permutation files


def test_permutation_file_loads(tmp_path):
    path = _write(tmp_path, "s3.perm", "3\n1 0 2\n0 2 1\n")
    g = load_group(path)[0]
    assert g.order == 6


def test_permutation_file_rejects_non_bijection(tmp_path):
    path = _write(tmp_path, "bad.perm", "3\n0 0 1\n")
    with pytest.raises(FormatError):
        load_group(path)


def test_permutation_file_rejects_wrong_width(tmp_path):
    path = _write(tmp_path, "bad.perm", "3\n1 0\n")
    with pytest.raises(FormatError):
        load_group(path)


# ---------------------------------------------------------------------------
# construction spec files


def test_spec_file_loads(tmp_path):
    spec = ConstructionSpec(kind="affine-wreath", p=3)
    path = _write(tmp_path, "g.spec", spec.to_json())
    assert load_group(path)[1] == spec.to_plain()


def test_spec_file_rejects_unknown_field(tmp_path):
    path = _write(tmp_path, "g.spec", json.dumps({"kind": "cyclic", "z": 1}))
    with pytest.raises(FormatError, match="unknown spec fields: z"):
        load_group(path)


@pytest.mark.parametrize("plain,code", [
    ({"kind": "cyclic", "n": 0}, "invalid-parameter"),
    ({"kind": "extraspecial-exponent-p", "p": 2, "l": 1}, "even-p"),
    ({"kind": "cyclic", "n": 3, "p": 3}, "invalid-parameter"),
], ids=["cyclic-n0", "extraspecial-p2", "cyclic-with-p"])
def test_spec_file_that_cannot_build_names_the_file(tmp_path, plain, code):
    path = _write(tmp_path, "g.spec", json.dumps(plain))
    with pytest.raises(ClassprodError) as err:
        load_group(path)
    assert err.value.code == code
    assert str(err.value).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# unified loader


def test_load_group_by_extension(tmp_path, dihedral8):
    cayley = _write(tmp_path, "g.cayley", cayley_table_text(dihedral8))
    g, desc = load_group(cayley)
    assert g.order == 8
    assert desc["kind"] == "cayley-table-file"

    perm = _write(tmp_path, "g.perm", "3\n1 0 2\n")
    g, desc = load_group(perm)
    assert g.order == 2
    assert desc["kind"] == "permutation-file"

    spec = _write(tmp_path, "g.spec",
                  ConstructionSpec(kind="cyclic", n=6).to_json())
    g, desc = load_group(spec)
    assert g.order == 6
    assert desc == {"kind": "cyclic", "n": 6}


def test_load_group_sniffs_unknown_extension(tmp_path):
    path = _write(tmp_path, "mystery.txt",
                  ConstructionSpec(kind="cyclic", n=4).to_json())
    g, _ = load_group(path)
    assert g.order == 4


def test_load_group_sniffs_a_table_without_extension(tmp_path, dihedral8):
    text = cayley_table_text(dihedral8)
    g, desc = load_group(_write(tmp_path, "d8.txt", text))
    ref = load_group(_write(tmp_path, "d8.cayley", text))[0]
    assert desc["kind"] == "cayley-table-file"
    assert g._table == ref._table
    assert g.generators == ref.generators


def test_load_group_sniffs_as_many_generators_as_the_degree(tmp_path):
    # Three degree-3 generators make 3 rows of 3 entries, but the first is
    # not 0 1 2, the identity row every table starts with.
    g, desc = load_group(_write(tmp_path, "s3.txt",
                                "3\n1 2 0\n0 2 1\n1 0 2\n"))
    assert (g.order, desc["kind"]) == (6, "permutation-file")


def test_load_group_sniffs_a_table_whose_identity_row_is_padded(
        tmp_path, dihedral8):
    lines = cayley_table_text(dihedral8).splitlines()
    lines[1] = "0" + lines[1]  # row 0 written "00 1 2 ..."
    g, desc = load_group(_write(tmp_path, "d8.txt", "\n".join(lines) + "\n"))
    ref = load_group(_write(tmp_path, "d8.cayley",
                            cayley_table_text(dihedral8)))[0]
    assert desc["kind"] == "cayley-table-file"
    assert g._table == ref._table


@pytest.mark.parametrize("edit,message", [
    (lambda line: line.rsplit(" ", 1)[0],
     "table row has 7 entries, expected 8"),
    (lambda line: line + " 6", "table row has 9 entries, expected 8"),
    (lambda line: line + "2", "entry 62 outside 0..7"),
], ids=["last-entry-dropped", "extra-entry", "last-entry-extended"])
def test_load_group_reports_a_short_later_row_of_a_sniffed_table(
        tmp_path, monkeypatch, dihedral8, edit, message):
    # row 5 of D8, "5 4 3 2 1 0 7 6", is derived by the walk; each edit
    # leaves a line that is a prefix of its derivation's text or has that
    # text as a prefix, so the comparison must reject it and read the line
    lines = cayley_table_text(dihedral8).splitlines()
    lines[6] = edit(lines[6])
    path = _write(tmp_path, "d8.txt", "\n".join(lines) + "\n")
    read, compared = _record_walk(monkeypatch)
    with pytest.raises(FormatError) as err:
        load_group(path)
    assert 5 in compared and 5 in read
    assert f"{path}:7: {message}" in str(err.value)


def test_load_group_reads_a_sniffed_file_once(tmp_path, dihedral8,
                                              monkeypatch):
    path = _write(tmp_path, "d8.txt", cayley_table_text(dihedral8))
    real = formats_mod._read_text
    calls = []
    monkeypatch.setattr(formats_mod, "_read_text",
                        lambda p: calls.append(p) or real(p))
    g, _ = load_group(path)
    assert g.order == 8
    assert calls == [path]


def test_load_group_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load_group(str(tmp_path / "nope.spec"))


def test_load_group_unsniffable(tmp_path):
    path = _write(tmp_path, "noise.txt", "purple monkey dishwasher\n")
    with pytest.raises(FormatError):
        load_group(path)


_HEAD = ": first line must be the order, one positive integer"
_UNSNIFFABLE = ": cannot identify the format; "


@pytest.mark.parametrize("name,text,message", [
    ("g.cayley", "# only a comment\n", ": file has no content"),
    ("g.cayley", "2 2\n0 1\n1 0\n", ":1" + _HEAD),
    ("g.cayley", "# order\n0\n", ":2" + _HEAD),
    ("g.perm", "3\n", ": no generator lines after the degree"),
    ("g.txt", "", ": file has no content"),
    ("g.txt", "2 2\n0 1\n", _UNSNIFFABLE + "the first line should be a "
     "single integer (order or degree) or a JSON object"),
    ("g.txt", "3\n0 1\n", _UNSNIFFABLE + "rows match neither an order-3 "
     "table nor degree-3 permutations"),
    ("g.spec", '{"kind": "cyclic", "n": "x"}', ": field 'n' must be an integer"),
    ("g.spec", "[1]", ": a construction spec must be an object, got list"),
    ("g.spec", '{"n": 3}', ": spec is missing the 'kind' field"),
    ("g.spec", '{"kind": "direct-product", "factors": {}}',
     ": field 'factors' must be a list"),
    ("g.cayley", "2\n0 1\n0 1\n",
     ": column 0 must fix every element, but 1*0 = 0"),
    ("g.perm", "256\n" + " ".join(map(str, range(256))) + "\n",
     ": degree 256 unsupported (1..255)"),
], ids=["comment-only", "two-int-head", "zero-head", "perm-no-rows",
        "empty-sniffed", "sniffed-two-int-head", "sniffed-short-row",
        "spec-str-n", "spec-list", "spec-no-kind", "spec-dict-factors",
        "column-0-moved", "perm-degree-256"])
def test_load_group_rejects_malformed_heads_and_bodies(tmp_path, name, text,
                                                       message):
    path = _write(tmp_path, name, text)
    with pytest.raises(FormatError, match=f"^{re.escape(path + message)}$"):
        load_group(path)


@pytest.mark.parametrize("name,data", [
    ("g.cayley", b"2\n0 1\n1 \xff\n"),
    ("g.spec", b'{"kind": "cyclic", "n": 3, "\xff": 1}'),
    ("g.txt", b"\xff"),
], ids=["cayley", "spec", "sniffed"])
def test_load_group_rejects_non_utf8_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(FormatError,
                       match=re.escape(f"{path}: not UTF-8 text: byte 0xff")):
        load_group(str(path))


def test_load_group_frees_the_file_text_before_building_a_table(tmp_path):
    text = cayley_table_text(build(
        ConstructionSpec(kind="elementary-abelian", p=3, n=6)))
    path = _write(tmp_path, "ea729.cayley", text)
    size = len(text)
    del text
    tracemalloc.start()
    try:
        g, _ = load_group(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 729
    # The split lines are one copy of the file; the text would be a second.
    assert peak - retained < 1.5 * size


def test_cayley_table_text_round_trips_in_memory(quaternion8):
    text = cayley_table_text(quaternion8)
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("#")]
    assert lines[0].strip() == "8"
    assert len(lines) == 9
