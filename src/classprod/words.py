"""Parser for generator words like ``g0*g1^-2*g0``.

Elements on the command line are addressed by words over the group's
generator list (``g0``, ``g1``, ... in listed order, ``e`` for the
identity) rather than by enumeration indices, so the same word means the
same element on every run and in every backend.

Grammar::

    word  = term ("*" term)*
    term  = name ("^" signed-int)?
    name  = "e" | "g" digits
"""

from __future__ import annotations

import re

from .errors import UnknownGeneratorError, WordParseError
from .groups import Element, GroupHandle

# Every non-space character starts exactly one token; "bad" catches the
# characters no grammar rule begins with.
_TOKEN = re.compile(
    r"(?P<name>e|g[0-9]+)|(?P<op>[*^])|(?P<int>-?[0-9]+)|(?P<bad>\S)")


def _shown(text: str) -> str:
    """``text`` quoted, or a long token's first characters and length."""
    return (repr(text) if len(text) <= 16
            else f"{text[:16]!r}... ({len(text)} characters)")


def _int(text: str) -> int | None:
    """``int(text)``, or None when it has more digits than int() converts."""
    try:
        return int(text)
    except ValueError:
        return None


def parse_element_word(g: GroupHandle, word: str) -> Element:
    """Evaluate a generator word left-to-right under the group product."""
    if not word.strip():
        raise WordParseError("empty element word", position=0)
    # The whole word is scanned before any term is read, so a stray
    # character is reported ahead of any grammar error before it.
    tokens = []
    for m in _TOKEN.finditer(word):
        if m.lastgroup == "bad":
            raise WordParseError(f"unexpected character {m.group()!r}",
                                 position=m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    gens = g.generators
    end = ("end", "", len(word))
    acc = g.identity
    it = iter(tokens)
    for kind, text, at in it:  # the first token of a term
        if kind != "name":
            raise WordParseError(
                f"expected a generator name, found {_shown(text)}", position=at)
        if text == "e":
            base = g.identity
        elif (index := _int(text[1:])) is not None and index < len(gens):
            base = gens[index]
        else:
            raise UnknownGeneratorError(
                f"generator {_shown(text)} does not exist; this group has "
                f"{len(gens)} generator(s) g0..g{len(gens) - 1}", position=at)
        kind, text, at = next(it, end)
        exponent = 1
        if text == "^":
            kind, text, at = next(it, ("end", "", at + 1))
            if kind != "int":
                raise WordParseError(
                    "expected an integer exponent after '^'", position=at)
            exponent = _int(text)
            if exponent is None:
                raise WordParseError("exponent has too many digits",
                                     position=at)
            kind, text, at = next(it, end)
        acc = g._mul(acc, g.power(base, exponent))
        if kind == "end":
            return acc
        if text != "*":
            raise WordParseError(
                f"expected '*' between terms, found {_shown(text)}", position=at)
    raise WordParseError("word ends with a dangling '*'", position=len(word))
