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
from pathlib import Path
from random import Random
from string import hexdigits

from hypothesis import given, settings, strategies as st

from oracles import reference_parse_turtle
from sclkit.corpus import random_document, random_graph
from sclkit.rdf import XSD_DECIMAL, XSD_INTEGER, Graph, Literal, TurtleError, parse_turtle, serialize_turtle
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
    assert parse_turtle(SAMPLE) == reference_parse_turtle(SAMPLE)


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
    for at in range(len(SAMPLE) + 1):
        for text in (SAMPLE[:at], SAMPLE[:at] + SAMPLE[at + 1 :], SAMPLE[:at] + " " + SAMPLE[at:]):
            assert_same_reading(text)


def test_every_doubled_sign_reads_as_the_reference_reads_it():
    signs = [at for at, c in enumerate(SAMPLE) if c in "+-" and SAMPLE[at + 1].isdigit()]
    assert len(signs) == 2
    for at in signs:
        for sign in "+-":
            assert_same_reading(SAMPLE[:at] + sign + SAMPLE[at:])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, len(SAMPLE)), st.sampled_from(("cut", "delete", "replace", "insert")),
       st.one_of(st.sampled_from(EDIT_CHARS), st.characters()))
def test_truncated_and_edited_turtle_reads_as_the_reference_reads_it(at, edit, char):
    text = {
        "cut": SAMPLE[:at],
        "delete": SAMPLE[:at] + SAMPLE[at + 1 :],
        "replace": SAMPLE[:at] + char + SAMPLE[at + 1 :],
        "insert": SAMPLE[:at] + char + SAMPLE[at:],
    }[edit]
    assert_same_reading(text)
