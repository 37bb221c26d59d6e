"""Generator-word parsing."""

import itertools
import re

import pytest

from classprod import (
    ConstructionSpec,
    UnknownGeneratorError,
    WordParseError,
    build,
    parse_element_word,
)


@pytest.fixture(scope="module")
def c5():
    return build(ConstructionSpec(kind="cyclic", n=5))


def test_identity_word(c5, dihedral8):
    assert parse_element_word(c5, "e") == c5.identity
    assert parse_element_word(dihedral8, "e") == dihedral8.identity


def test_cyclic_full_power_is_identity(c5):
    assert parse_element_word(c5, "g0^5") == c5.identity
    assert parse_element_word(c5, "g0^-5") == c5.identity


def test_dihedral_conjugation_relation(dihedral8):
    # s r s = r^-1, so g1*g0*g1 is the cube of the rotation
    rot = dihedral8.generators[0]
    word = parse_element_word(dihedral8, "g1*g0*g1")
    assert word == dihedral8.power(rot, 3)
    assert word == dihedral8.inverse(rot)


def test_words_evaluate_left_to_right(dihedral8):
    r, s = dihedral8.generators
    assert parse_element_word(dihedral8, "g0*g1") \
        == dihedral8.multiply(r, s)
    assert parse_element_word(dihedral8, "g0^2*g1*g0") \
        == dihedral8.multiply(dihedral8.multiply(dihedral8.power(r, 2), s), r)


def test_whitespace_tolerated(c5):
    assert parse_element_word(c5, "  g0 ^ 2 * g0  ") == c5.power(
        c5.generators[0], 3)


def test_negative_exponent(dihedral8):
    rot = dihedral8.generators[0]
    assert parse_element_word(dihedral8, "g0^-1") == dihedral8.inverse(rot)


def test_identity_times_generator(c5):
    g0 = c5.generators[0]
    assert parse_element_word(c5, "e*g0*e") == g0


def test_unknown_generator_reports_range(c5):
    with pytest.raises(UnknownGeneratorError) as err:
        parse_element_word(c5, "g7")
    assert "g7" in str(err.value)


def test_unknown_generator_is_parse_error(c5):
    with pytest.raises(WordParseError):
        parse_element_word(c5, "g7")


@pytest.mark.parametrize("bad", [
    "", "   ", "*g0", "g0*", "g0**g0", "g0^", "g0^x", "q0", "g0 g0",
    "^2", "g0^2^3",
])
def test_malformed_words_rejected(c5, bad):
    with pytest.raises(WordParseError):
        parse_element_word(c5, bad)


def test_parse_error_carries_position(c5):
    with pytest.raises(WordParseError) as err:
        parse_element_word(c5, "g0*?")
    assert err.value.position == 3


@pytest.mark.parametrize("word,outcome", [
    ("", (WordParseError, "empty element word", 0)),
    ("g0 *  ", (WordParseError, "word ends with a dangling '*'", 6)),
    ("g0^   ", (WordParseError, "expected an integer exponent after '^'", 3)),
    ("g0^^2", (WordParseError, "expected an integer exponent after '^'", 3)),
    ("g0^-", (WordParseError, "unexpected character '-'", 3)),
    ("g", (WordParseError, "unexpected character 'g'", 0)),
    ("e5", (WordParseError, "expected '*' between terms, found '5'", 1)),
    ("g0^2^3", (WordParseError, "expected '*' between terms, found '^'", 4)),
    ("g2", (UnknownGeneratorError, "generator 'g2' does not exist; this "
            "group has 2 generator(s) g0..g1", 0)),
    # the whole word is scanned before any term is read
    ("g0 g0 ?", (WordParseError, "unexpected character '?'", 6)),
    ("g01*g1", "0000"),
    ("\tg1 ^ -3 * e ^ 7 ", "0001"),
])
def test_word_edge_cases_are_pinned(dihedral8, word, outcome):
    if isinstance(outcome, str):
        assert parse_element_word(dihedral8, word).hex() == outcome
        return
    kind, message, position = outcome
    with pytest.raises(WordParseError) as err:
        parse_element_word(dihedral8, word)
    assert type(err.value) is kind
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


_ALPHABET = ["e", "g", "0", "1", "2", "9", "*", "^", "-", "x", " ", "\t"]
_TERM = r"\s*(e|g([0-9]+))(?:\s*\^\s*(-?[0-9]+))?\s*"
_WORD = re.compile(rf"{_TERM}(?:\*{_TERM})*")


def test_every_short_word_parses_exactly_when_it_fits_the_grammar(
        dihedral8):
    gens = dihedral8.generators
    for word in ("".join(w) for n in range(5)
                 for w in itertools.product(_ALPHABET, repeat=n)):
        terms = list(re.finditer(_TERM, word))
        if _WORD.fullmatch(word) is None or any(
                m.group(2) and int(m.group(2)) >= len(gens) for m in terms):
            with pytest.raises(WordParseError):
                parse_element_word(dihedral8, word)
            continue
        expected = dihedral8.identity
        for m in terms:
            base = (dihedral8.identity if m.group(1) == "e"
                    else gens[int(m.group(2))])
            expected = dihedral8.multiply(
                expected, dihedral8.power(base, int(m.group(3) or 1)))
        assert parse_element_word(dihedral8, word) == expected, word
