"""Group source files: :func:`load_group` is the one loader for all three.

- construction spec: a JSON object with a ``kind`` field (see
  :mod:`classprod.constructions`); conventional extensions ``.spec`` and
  ``.json``.
- Cayley table (``.cayley`` / ``.table``): first non-comment line is the
  order n, followed by n lines of n space-separated 0-based indices; row
  i, column j holds the index of element i times element j, and element
  0 must be the identity.
- permutation generators (``.perm``): first line is the degree d,
  followed by one generator per line as d space-separated 0-based
  images.

Blank lines and lines starting with ``#`` are ignored in the numeric
formats.  ``load_group`` dispatches on extension and falls back to
sniffing the content.  Every rejection names the file and, where it
applies, the offending line.
"""

from __future__ import annotations

import os
import re

from .constructions import ConstructionSpec, build
from .errors import FormatError, InvalidParameterError
from .groups import (
    DEFAULT_ORDER_CAP,
    CayleyTableGroup,
    GroupHandle,
    PermutationGroup,
)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} at "
            f"offset {exc.start}") from exc


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped text) for each non-blank, non-comment line."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append((lineno, stripped))
    return out


# ``int`` alone would also take ``1_0`` and non-ASCII digits such as ``١``
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int_tokens(line: str, path: str, lineno: int) -> list[int]:
    values = []
    for token in line.split():
        try:
            if not _INTEGER.fullmatch(token):
                raise ValueError(token)
            # int() also refuses more digits than sys.get_int_max_str_digits()
            values.append(int(token))
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: {token!r} is not an integer") from None
    return values


def _head_value(lines: list[tuple[int, str]], path: str, what: str) -> int:
    """The single positive integer on the first meaningful line."""
    if not lines:
        raise FormatError(f"{path}: file has no content")
    head_line, head = lines[0]
    values = _int_tokens(head, path, head_line)
    if len(values) != 1 or values[0] < 1:
        raise FormatError(
            f"{path}:{head_line}: first line must be the {what}, one positive "
            "integer")
    return values[0]


class _TableText:
    """The body rows of a table file, each parsed only when it is read.

    ``labels`` are the canonical entries followed by one space,
    ``f"{i} "``, in which the table group holds its rows.
    ``row_equals(i, row)`` says whether line i is the canonical rendering
    of the label row ``row``, whose join with no separator is that
    rendering plus one space.  A matching line is never split; a line
    that differs is read in full by the validator.
    """

    def __init__(self, body: list[tuple[int, str]], path: str):
        self._body = body
        self._path = path
        self.labels = [f"{i} " for i in range(len(body))]

    def __len__(self) -> int:
        return len(self._body)

    def __getitem__(self, i: int) -> list[int]:
        lineno, line = self._body[i]
        n = len(self._body)
        row = _int_tokens(line, self._path, lineno)
        for v in row:
            if not 0 <= v < n:
                raise FormatError(
                    f"{self._path}:{lineno}: entry {v} outside 0..{n - 1}")
        if len(row) != n:
            raise FormatError(
                f"{self._path}:{lineno}: table row has {len(row)} entries, "
                f"expected {n}")
        return row

    def row_equals(self, i: int, row: tuple[str, ...]) -> bool:
        return "".join(row) == self._body[i][1] + " "


def _parse_cayley_table(lines: list[tuple[int, str]], path: str,
                        order_cap: int) -> CayleyTableGroup:
    """Build the table group from a file's content lines.

    The group's one-pass validator reads row 0 and the generator rows in
    full and derives every other row from them.  A derived row is
    checked against the line's text: a match is exact, since the text is
    that row's canonical rendering, and a line that differs (``007``,
    ``+3``, tabs, a wrong entry) is parsed, so it either loads or is
    reported with its line number.
    """
    n = _head_value(lines, path, "order")
    body = lines[1:]
    if len(body) != n:
        raise FormatError(
            f"{path}: expected {n} table rows after the order line, found "
            f"{len(body)}")
    try:
        return CayleyTableGroup(_TableText(body, path), order_cap=order_cap)
    except InvalidParameterError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _parse_permutations(lines: list[tuple[int, str]], path: str,
                        order_cap: int) -> PermutationGroup:
    degree = _head_value(lines, path, "degree")
    body = [(lineno, _int_tokens(line, path, lineno))
            for lineno, line in lines[1:]]
    if not body:
        raise FormatError(f"{path}: no generator lines after the degree")
    for lineno, row in body:
        if len(row) != degree:
            raise FormatError(
                f"{path}:{lineno}: generator has {len(row)} images, expected "
                f"{degree}")
        if sorted(row) != list(range(degree)):
            raise FormatError(
                f"{path}:{lineno}: generator is not a bijection of "
                f"0..{degree - 1}")
    try:
        return PermutationGroup([row for _, row in body], order_cap=order_cap)
    except InvalidParameterError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _sniff_kind(lines: list[tuple[int, str]], path: str) -> str:
    """The numeric format of a file, from its head line and first row.

    Rows of n entries are permutations unless there are n of them and the
    first parses to 0 .. n-1, the identity row every table starts with.
    The chosen parser reports any later malformed row with its line number.
    """
    if not lines:
        raise FormatError(f"{path}: file has no content")
    head_line, head = lines[0]
    head = _int_tokens(head, path, head_line)
    if len(head) != 1:
        raise FormatError(
            f"{path}: cannot identify the format; the first line should be a "
            "single integer (order or degree) or a JSON object")
    n = head[0]
    body = lines[1:]
    if body and len(body[0][1].split()) == n:
        identity = _int_tokens(body[0][1], path, body[0][0]) == list(range(n))
        return "cayley" if identity and len(body) == n else "perm"
    raise FormatError(
        f"{path}: cannot identify the format; rows match neither an order-"
        f"{n} table nor degree-{n} permutations")


_KIND_OF_EXTENSION = {".spec": "spec", ".json": "spec", ".cayley": "cayley",
                      ".table": "cayley", ".perm": "perm"}


def load_group(path: str,
               order_cap: int = DEFAULT_ORDER_CAP) -> tuple[GroupHandle, dict]:
    """Load a group from any supported source file.

    Dispatches on the file extension (.spec/.json, .cayley/.table, .perm)
    and otherwise sniffs the content; either way the file is read and
    split into lines once.  Returns the group plus a descriptor for
    reports: the spec tree itself for constructions, or the file kind and
    path for the tabular formats.
    """
    text = _read_text(path)
    kind = _KIND_OF_EXTENSION.get(os.path.splitext(path)[1].lower())
    if kind is None and text.lstrip().startswith("{"):
        kind = "spec"
    if kind == "spec":
        try:
            spec = ConstructionSpec.from_json(text)
        except InvalidParameterError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        try:
            g = build(spec, order_cap)
        except InvalidParameterError as exc:
            # same class, so a code such as even-p survives the path prefix
            raise type(exc)(f"{path}: {exc}") from exc
        return g, spec.to_plain()
    lines = _content_lines(text)
    del text  # the table is built from ``lines``; free the file's text first
    if kind is None:
        kind = _sniff_kind(lines, path)
    if kind == "cayley":
        return (_parse_cayley_table(lines, path, order_cap),
                {"kind": "cayley-table-file", "path": path})
    return (_parse_permutations(lines, path, order_cap),
            {"kind": "permutation-file", "path": path})


def cayley_table_text(g: GroupHandle) -> str:
    """Render any enumerable group in the table file format.

    The identity is listed first; the remaining elements follow in
    encoding order.  The result loads back as an isomorphic group.
    """
    elems = list(g._raw_elements())
    elems.remove(g.identity)
    ordered = [g.identity] + elems
    index = {raw: i for i, raw in enumerate(ordered)}
    lines = [str(len(ordered))]
    for x in ordered:
        lines.append(" ".join(str(index[g._mul(x, y)]) for y in ordered))
    return "\n".join(lines) + "\n"
