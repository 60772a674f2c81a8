"""Differential tests of the Turtle reader against the reference reader in
tests/oracles.py: every input gives the same Graph, or a TurtleError with the
same message, line and column.  Three differences are fixes, and each is
allowed only where its own check says it applies:

- a malformed numeric escape (`_bad_escape_at`) raises a TurtleError at the
  escape, where the reference raised a bare ValueError or OverflowError, or
  read a lone surrogate;
- only ASCII digits make numbers (`_non_ascii_digits`), where the reference
  read any str.isdigit() character as one;
- a number takes at most one sign (`_repeated_sign_at`): `--3` raises a
  TurtleError just past the number, where the reference read `"--3"` as an
  xsd:integer.
"""
import re
from pathlib import Path
from random import Random
from string import ascii_letters, digits, hexdigits

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_parse_turtle
from sclkit import rdf
from sclkit.corpus import random_document, random_graph
from sclkit.rdf import (XSD_DECIMAL, XSD_INTEGER, Blank, Graph, Iri, Literal, Triple, TurtleError, parse_turtle,
                        serialize_turtle)
from sclkit.shacl import document_to_graph

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.ttl"))

# Every construct the reader accepts, for truncations and one-character edits.
SAMPLE = "\n".join((
    r"@base <http://ex/base/> .",
    r"@prefix : <http://ex/> .",
    r"@prefix ex.1: <rel/> .   # relative, so resolved against the base",
    "# a comment line\r that a carriage return does not end",
    r':s a :C ; :p :o , <rel> , _:x , [ :q 1, -2.5, +3 ] ; :r ( 1 "two" ( ) [ ] ) ;',
    r'''   :t "plain", 'single', """long''',
    r'''"quoted" """, ''' + "'''long '''" + r''' , "esc \t\n\"é\U0001F600"@en-GB , "5"^^:dt ,''',
    r'''   "6"^^<http://ex/dt>, "7"@de-ä, true, false ; ex.1:local.x :o. _:x :p [ :q 7 ; ], 0.5.''',
    r''':t :p :o ;.''',
    "",
))

# The N-Triples form `serialize_turtle` writes, which the reader takes one
# pattern match per statement, with its edges: tabs, a comment after a '.', a
# '.' directly before the next statement, a relative IRI under @base, and an
# escaped string, which is left to the term reader.
NT_SAMPLE = "\n".join((
    r"<http://ex/s> <http://ex/p> <http://ex/o> .",
    "_:x\t<http://ex/p>\t_:y . # a comment after a statement",
    r'<http://ex/s> <http://ex/p> "plain" .<http://ex/s> <http://ex/q> "5"^^<http://ex/dt> .',
    r'_:y <http://ex/p> "tagged"@EN-us . _:z <http://ex/p> "" .',
    r"@base <http://ex/base/> .",
    r'<rel> <p> <#o> . <rel> <p> "t"^^<dt> . <rel> <p> "esc \"q\"" .',
    "",
))
SAMPLES = (SAMPLE, NT_SAMPLE)

# Characters the grammar gives a meaning to, plus a non-ASCII letter, a
# non-ASCII digit and a carriage return.
EDIT_CHARS = " \n\t\r<>_:\"'\\@^.,;[]()#aeuU019+-é٣"


def _outcome(parse, text):
    try:
        return parse(text)
    except TurtleError as exc:
        return ("TurtleError", str(exc), exc.line, exc.column)
    except (ValueError, OverflowError) as exc:  # the reference only: a bad numeric escape
        return ("ValueError", str(exc))


def _offset(text: str, line: int, column: int) -> int:
    start = 0
    for _ in range(line - 1):
        start = text.index("\n", start) + 1
    return start + column - 1


def _bad_escape_at(text: str, error) -> bool:
    """The error points at a \\u or \\U escape that is not exactly 4 or 8 hex
    digits naming a Unicode scalar value."""
    if not isinstance(error, tuple) or "escape" not in error[1]:
        return False
    pos = _offset(text, error[2], error[3])
    if text[pos : pos + 2] not in ("\\u", "\\U"):
        return False
    width = 4 if text[pos + 1] == "u" else 8
    digits = text[pos + 2 : pos + 2 + width]
    if len(digits) < width or any(c not in hexdigits for c in digits):
        return True
    cp = int(digits, 16)
    return 0xD800 <= cp <= 0xDFFF or cp > 0x10FFFF


def _repeated_sign_at(text: str, error) -> bool:
    """The error points just past a number that starts with two signs."""
    if not isinstance(error, tuple) or "malformed number" not in error[1]:
        return False
    end = _offset(text, error[2], error[3])
    start = end
    while start and text[start - 1] in "+-.0123456789":
        start -= 1
    return text[start : start + 1] in ("+", "-") and text[start + 1 : start + 2] in ("+", "-")


def _non_ascii_digits(text: str) -> bool:
    return any(c.isdigit() and not "0" <= c <= "9" for c in text)


def _ascii_numbers(g) -> bool:
    return all(
        t.datatype not in (XSD_INTEGER, XSD_DECIMAL) or t.lexical.isascii()
        for tr in g.triples for t in tr if isinstance(t, Literal)
    )


def assert_same_reading(text: str) -> None:
    new = _outcome(parse_turtle, text)
    assert not (isinstance(new, tuple) and new[0] == "ValueError"), new
    old = _outcome(reference_parse_turtle, text)
    if new == old:
        return
    if _bad_escape_at(text, new):
        # the reference failed no earlier than the escape
        assert isinstance(old, Graph) or old[0] == "ValueError" or old[2:] >= new[2:], (text, new, old)
        return
    if _repeated_sign_at(text, new):
        # the reference read the number and failed no earlier, if at all
        assert isinstance(old, Graph) or old[2:] >= new[2:], (text, new, old)
        return
    assert _non_ascii_digits(text), (text, new, old)
    assert not isinstance(new, Graph) or _ascii_numbers(new), (text, new)


def test_fixtures_read_as_the_reference_reads_them():
    assert FIXTURES
    for path in FIXTURES:
        text = path.read_text(encoding="utf-8")
        assert isinstance(parse_turtle(text), Graph)
        assert_same_reading(text)
    for sample in SAMPLES:
        assert parse_turtle(sample) == reference_parse_turtle(sample)


def test_generated_documents_and_graphs_read_as_the_reference_reads_them():
    rng = Random(8)
    for i in range(500):
        m = random_document(rng, max_shapes=4, recursive=i % 4 == 0)
        text = serialize_turtle(document_to_graph(m))
        assert parse_turtle(text) == reference_parse_turtle(text)
        g = random_graph(rng, max_nodes=6)
        text = serialize_turtle(g)
        assert parse_turtle(text) == reference_parse_turtle(text) == g


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet=st.one_of(st.sampled_from(EDIT_CHARS), st.characters()), max_size=60))
def test_arbitrary_text_reads_as_the_reference_reads_it(text):
    assert_same_reading(text)


def test_every_cut_deletion_and_inserted_space_reads_as_the_reference_reads_it():
    for sample in SAMPLES:
        for at in range(len(sample) + 1):
            for text in (sample[:at], sample[:at] + sample[at + 1 :], sample[:at] + " " + sample[at:]):
                assert_same_reading(text)


def test_every_doubled_sign_reads_as_the_reference_reads_it():
    signs = [at for at, c in enumerate(SAMPLE) if c in "+-" and SAMPLE[at + 1].isdigit()]
    assert len(signs) == 2
    for at in signs:
        for sign in "+-":
            assert_same_reading(SAMPLE[:at] + sign + SAMPLE[at:])


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.sampled_from(SAMPLES), st.integers(0, max(map(len, SAMPLES))),
       st.sampled_from(("cut", "delete", "replace", "insert")), st.one_of(st.sampled_from(EDIT_CHARS), st.characters()))
def test_truncated_and_edited_turtle_reads_as_the_reference_reads_it(sample, at, edit, char):
    at %= len(sample) + 1
    text = {
        "cut": sample[:at],
        "delete": sample[:at] + sample[at + 1 :],
        "replace": sample[:at] + char + sample[at + 1 :],
        "insert": sample[:at] + char + sample[at:],
    }[edit]
    assert_same_reading(text)


@pytest.mark.parametrize("text, expected", [
    # the term reader keeps a trailing '.' in a blank label
    ("<a> <b> _:b0.", ("TurtleError", "expected '.' at line 1, column 14", 1, 14)),
    ("<a> <b> _:b0. .", Graph([Triple(Iri("a"), Iri("b"), Blank("b0"))])),
    ('<a> <b> "x"@EN-us .', Graph([Triple(Iri("a"), Iri("b"), Literal("x", language="en-us"))])),
    ('<a> <b> "x"@ .', ("TurtleError", "malformed language tag at line 1, column 13", 1, 13)),
    ('<a> <b> "x"^^<> .', Graph([Triple(Iri("a"), Iri("b"), Literal("x", Iri("")))])),
])
def test_n_triples_edges_read_as_the_term_reader_reads_them(text, expected):
    assert _outcome(parse_turtle, text) == expected
    assert_same_reading(text)


def test_the_writers_output_is_read_one_match_per_statement(monkeypatch):
    """Generated documents and graphs, written by `serialize_turtle` (no
    escapes), never reach the term reader: every statement is one match."""
    def term_reader(self, verb=False):
        raise AssertionError(f"the term reader ran at offset {self.pos}")

    rng, texts = Random(9), []
    for i in range(300):
        m = random_document(rng, max_shapes=4, recursive=i % 4 == 0)
        texts += [serialize_turtle(document_to_graph(m)), serialize_turtle(random_graph(rng, max_nodes=6))]
    assert not any("\\" in text for text in texts)
    expected = [reference_parse_turtle(text) for text in texts]
    monkeypatch.setattr(rdf._Parser, "node", term_reader)
    assert [parse_turtle(text) for text in texts] == expected


def test_name_characters_are_the_ascii_name_set_and_every_code_point_past_ascii():
    name_char = re.compile(rdf._NAME_CHAR)
    for cp in (*range(0x80), 0x80, 0xB7, 0xD800, 0xFFFF, 0x10000, 0x10FFFF):
        assert bool(name_char.fullmatch(chr(cp))) == (cp > 0x7F or chr(cp) in "-.%_" + digits + ascii_letters), hex(cp)
