"""Generalised RDF terms, triples, graphs, and a Turtle-subset reader/writer.

Terms live in a single domain: IRIs, literals and blank nodes may occupy any
triple position.  Literal identity is exact lexical form + datatype + language
tag; no value-space canonicalisation happens here.

Terms are interned: `Iri`, `Literal` and `Blank` return the live term of their
key from a table of weak references, so equal terms are one object, and terms
compare and hash by identity, in C.
"""
from __future__ import annotations

import re
from _weakref import _remove_dead_weakref  # as weakref.WeakValueDictionary drops its entries
from fractions import Fraction
from typing import AbstractSet, Iterable, Iterator, Optional, Union
from weakref import ref

from .value import Value, _set, value_class


class _Entry(ref):  # one callback serves every entry: the entry knows its key
    __slots__ = ("key",)


# An IRI's key is its string, a literal's (lexical, datatype, tag) and a blank
# node's (label,), so kinds never share a key.
_TERMS: dict = {}


def _forget(entry: _Entry, table: dict = _TERMS, remove=_remove_dead_weakref) -> None:
    remove(table, entry.key)  # unless a new term has taken the key


def _intern(cls: type, key, fields: tuple):
    """The live `cls` term of `key`, made from `fields` if there is none.
    `setdefault` is atomic, so threads that race on a key agree on one term."""
    term = object.__new__(cls)
    for set_field, value in zip(cls._setters, fields):
        set_field(term, value)
    entry = _Entry(term, _forget)
    entry.key = key
    while (found := _TERMS.setdefault(key, entry)) is not entry:
        if (live := found()) is not None:
            return live
        _remove_dead_weakref(_TERMS, key)  # a dead entry whose callback has not run yet
    return term


@value_class
class Iri:
    value: str
    __slots__ = ("__weakref__",)
    __init__, __eq__, __hash__ = object.__init__, object.__eq__, object.__hash__

    def __new__(cls, value: str):
        entry = _TERMS.get(value)
        return entry and entry() or _intern(cls, value, (value,))

    def __repr__(self) -> str:
        return f"<{self.value}>"


@value_class
class Literal:
    lexical: str
    datatype: Iri
    language: Optional[str]
    __slots__ = ("__weakref__",)
    __init__, __eq__, __hash__ = object.__init__, object.__eq__, object.__hash__

    def __new__(cls, lexical: str, datatype: Optional[Iri] = None, language: Optional[str] = None):
        # Simple literals carry xsd:string; tagged ones carry rdf:langString.
        if language is not None:
            language = language.lower()
            if datatype is None:
                datatype = RDF_LANGSTRING
            elif datatype is not RDF_LANGSTRING:
                raise ValueError("language-tagged literal must have rdf:langString datatype")
        elif datatype is None:
            datatype = XSD_STRING
        key = (lexical, datatype, language)
        entry = _TERMS.get(key)
        return entry and entry() or _intern(cls, key, key)

    def __repr__(self) -> str:
        if self.language:
            return f'"{self.lexical}"@{self.language}'
        if self.datatype is XSD_STRING:
            return f'"{self.lexical}"'
        return f'"{self.lexical}"^^{self.datatype!r}'


@value_class
class Blank:
    label: str
    __slots__ = ("__weakref__",)
    __init__, __eq__, __hash__ = object.__init__, object.__eq__, object.__hash__

    def __new__(cls, label: str):
        key = (label,)
        entry = _TERMS.get(key)
        return entry and entry() or _intern(cls, key, key)

    def __repr__(self) -> str:
        return f"_:{self.label}"


Term = Union[Iri, Literal, Blank]

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
SH_NS = "http://www.w3.org/ns/shacl#"

RDF_TYPE = Iri(RDF_NS + "type")
RDF_FIRST = Iri(RDF_NS + "first")
RDF_REST = Iri(RDF_NS + "rest")
RDF_NIL = Iri(RDF_NS + "nil")
RDF_LANGSTRING = Iri(RDF_NS + "langString")

XSD_STRING = Iri(XSD_NS + "string")
XSD_INTEGER = Iri(XSD_NS + "integer")
XSD_INT = Iri(XSD_NS + "int")
XSD_DECIMAL = Iri(XSD_NS + "decimal")
XSD_BOOLEAN = Iri(XSD_NS + "boolean")


_INTEGER_FORM = re.compile(r"[+-]?[0-9]+")
_DECIMAL_FORM = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)")
_NO_INDEX: dict = {}  # the index entry of an absent predicate or node


def _xsd_number(lexical: str, integer: bool) -> Union[int, Fraction, None]:
    """The int of an xsd:integer or the Fraction of an xsd:decimal lexical
    form; None outside that lexical space (other digits, '_', '/', 'e')."""
    if integer:
        return int(lexical) if _INTEGER_FORM.fullmatch(lexical) else None
    return Fraction(lexical) if _DECIMAL_FORM.fullmatch(lexical) else None


def term_key(t: Term) -> tuple:
    """Total deterministic order over terms: IRIs, then literals, then blanks."""
    if isinstance(t, Iri):
        return (0, t.value)
    if isinstance(t, Literal):
        return (1, t.lexical, t.datatype.value if t.datatype else "", t.language or "")
    return (2, t.label)


@value_class
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __iter__(self) -> Iterator[Term]:
        return iter((self.subject, self.predicate, self.object))


def triple_key(t: Triple) -> tuple:
    return (term_key(t.subject), term_key(t.predicate), term_key(t.object))


def _index(fwd: dict, bwd: dict, s: Term, p: Term, o: Term) -> None:
    """Enter (s, p, o) in the forward and backward predicate indexes."""
    fwd.setdefault(p, {}).setdefault(s, {})[o] = None
    bwd.setdefault(p, {}).setdefault(o, {})[s] = None


class Graph:
    """An immutable finite set of triples with predicate indexes; a query
    returns a read-only view of an index entry (dict keys), not a copy.  The
    frozenset of `Triple` objects (`triples`, which the hash and iteration
    read) is built when first asked for.  Not a `Value`, which stores its
    hash: a value class holding a graph compares it with `==`."""

    __slots__ = ("_fwd", "_bwd", "_nodes", "_triples")
    __setattr__, __delattr__ = Value.__setattr__, Value.__delattr__

    def __init__(self, triples: Iterable[Triple] = (), indexes: tuple = ()):
        """The graph of `triples`, or of the reader's filled (forward, backward) `indexes`."""
        ts = None if indexes else frozenset(triples)
        fwd, bwd = indexes or ({}, {})
        for tr in ts or ():
            _index(fwd, bwd, tr.subject, tr.predicate, tr.object)
        _set(self, "_fwd", fwd)
        _set(self, "_bwd", bwd)
        _set(self, "_nodes", frozenset().union(*fwd.values(), *bwd.values()))  # keys keep their hashes
        _set(self, "_triples", ts)

    @property
    def triples(self) -> frozenset:
        if self._triples is None:
            _set(self, "_triples", frozenset(
                Triple(s, p, o) for p, entry in self._fwd.items() for s, objs in entry.items() for o in objs))
        return self._triples

    def __hash__(self) -> int:
        return hash(self.triples)  # a frozenset keeps its hash

    def __eq__(self, other) -> bool:
        if type(other) is not Graph:
            return NotImplemented
        return self is other or self._fwd == other._fwd

    def __reduce__(self):
        return Graph, (tuple(self.triples),)

    def __len__(self) -> int:
        return sum(len(objs) for entry in self._fwd.values() for objs in entry.values())

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self.triples, key=triple_key))

    def __repr__(self) -> str:
        return f"Graph({len(self)} triples)"

    def nodes(self) -> frozenset:
        return self._nodes

    def predicates(self) -> AbstractSet[Term]:
        return self._fwd.keys()

    def edges(self, predicate: Term) -> Iterator[tuple]:
        """(subject, its objects) for each subject with a `predicate` value."""
        for subject, objs in self._fwd.get(predicate, _NO_INDEX).items():
            yield subject, objs.keys()

    def objects(self, subject: Term, predicate: Term) -> AbstractSet[Term]:
        return self._fwd.get(predicate, _NO_INDEX).get(subject, _NO_INDEX).keys()

    def subjects(self, predicate: Term, obj: Term) -> AbstractSet[Term]:
        return self._bwd.get(predicate, _NO_INDEX).get(obj, _NO_INDEX).keys()

    def has(self, subject: Term, predicate: Term, obj: Term) -> bool:
        return obj in self._fwd.get(predicate, _NO_INDEX).get(subject, _NO_INDEX)

    def one_object(self, subject: Term, predicate: Term) -> Optional[Term]:
        return one_of(self.objects(subject, predicate), subject, predicate)


def one_of(objs, subject: Term, predicate: Term) -> Optional[Term]:
    """The one `predicate` value of `subject` among `objs`, or None if there is none."""
    if len(objs) > 1:
        raise ValueError(f"expected at most one value of {predicate!r} on {subject!r}")
    return next(iter(objs)) if objs else None


def nodes_of(g: Graph, document=None) -> frozenset:
    """nodes(G, M): graph nodes plus node-target constants of the document."""
    nodes = set(g.nodes())
    if document is not None:
        for shape in document.shapes:
            for t in shape.targets:
                c = getattr(t, "node", None)
                if c is not None:
                    nodes.add(c)
    return frozenset(nodes)


# --- Turtle subset ---------------------------------------------------------

MAX_NESTING = 128


class TurtleError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


# The reader matches compiled patterns at a position.  Whitespace and comments
# are skipped only where the grammar below skips them.
# The characters of prefixes, local names and blank labels: [-.%0-9A-Z_a-z]
# and every code point past ASCII, written as the ASCII characters it leaves
# out.  `re` compiles this form at once; the range up to U+10FFFF took 7 ms
# per use, and the reader's patterns use the class seven times.
_NAME_CHAR = r"[^\x00-$&-,/:-@\[-^`{-\x7f]"
_SKIP = r"(?:[ \t\r\n]+|\#[^\n]*)*"
_SPACE = re.compile(_SKIP)
_NAME = re.compile(f"{_NAME_CHAR}*")
# One term after whitespace; the group that matched names its kind.  A
# leading '_', digit, sign, quote or bracket always commits to its kind.
_TERM = re.compile(rf"""{_SKIP}(?:
    <(?P<iri>[^> \n\t]*)>
  | (?P<bad_iri><)
  | _:(?P<blank>{_NAME_CHAR}*)
  | (?P<bad_blank>_)
  | (?P<number>[-+0-9][-+.0-9]*)
  | (?P<string>\"\"\"|'''|"|')
  | (?P<open>[\[(])
  | (?P<name>{_NAME_CHAR}*)
)""", re.X)
_IRI_BODY = re.compile(r"[^> \n\t]*")
_NUMBER = re.compile(r"[-+]?[0-9]+(\.[0-9]+)?")
_STRING_BODY = {
    '"': re.compile(r'[^"\\\n]*'),
    "'": re.compile(r"[^'\\\n]*"),
    '"""': re.compile(r'[^"\\]*(?:"(?!"")[^"\\]*)*'),
    "'''": re.compile(r"[^'\\]*(?:'(?!'')[^'\\]*)*"),
}
_ESCAPE = re.compile(r"""\\(?:([tnrbf"'\\])|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8}))""")
_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", "b": "\b", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_LANGUAGE = re.compile(r"@((?:[^\W_]|-)*)")
# A whole statement in the N-Triples form `<s> <p> <o> .` that
# `serialize_turtle` writes, after whitespace: an IRI or blank subject, an IRI
# predicate, and an IRI, blank or escape-free "..." object with an optional
# ^^<datatype> or @tag.  It matches only text that the term reader reads as
# the same triple, ending at the same offset: a blank label is maximal, so it
# keeps a trailing '.' as the term reader's does, and so is a tag.  Comments,
# escapes and every other construct are left to the term reader.  Each
# whitespace run is one class: `_SKIP`'s nested repeat, followed by a part
# that fails, backtracks exponentially in the length of the run.
_IRI = rf"<({_IRI_BODY.pattern})>"
_BLANK = rf"_:({_NAME_CHAR}*)(?!{_NAME_CHAR})"
_STATEMENT = re.compile(rf"""[ \t\r\n]*(?:{_IRI}|{_BLANK})[ \t\r\n]*{_IRI}[ \t\r\n]*
    (?:{_IRI}|{_BLANK}|"([^"\\\n]*)"(?:\^\^{_IRI}|@((?:[^\W_]|-)+))?)[ \t\r\n]*\.""", re.X)


class _Parser:
    """Recursive descent over the text; `pos` is the offset of the next
    unread character.  Line and column are computed only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.base = ""
        self.fwd: dict = {}  # the graph's indexes, filled triple by triple
        self.bwd: dict = {}
        # a hit skips the call to Iri or Literal: files with many repeated
        # terms parse up to 23% slower without these
        self.iris: dict[str, Iri] = {}
        self.literals: dict[tuple, Literal] = {}  # (lexical, datatype, tag) of an N-Triples object
        self._blank_counter = 0
        self._blank_map: dict[str, Blank] = {}
        self.depth = 0  # open brackets around the current position

    def error(self, message: str, pos: int) -> TurtleError:
        line = self.text.count("\n", 0, pos) + 1
        return TurtleError(message, line, pos - self.text.rfind("\n", 0, pos))

    def peek(self) -> str:
        """The next character after whitespace, or '' at the end."""
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1]

    def take(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}", self.pos)
        self.pos += 1

    def iri(self, value: str) -> Iri:
        out = self.iris.get(value)
        if out is None:
            out = self.iris[value] = Iri(value)
        return out

    def resolve(self, iri: str) -> str:
        return self.base + iri if self.base and not _is_absolute(iri) else iri

    # Blank labels are skolemised per parse; source labels are not preserved.
    def fresh_blank(self) -> Blank:
        self._blank_counter += 1
        return Blank(f"b{self._blank_counter - 1}")

    def named_blank(self, label: str) -> Blank:
        if label not in self._blank_map:
            self._blank_map[label] = self.fresh_blank()
        return self._blank_map[label]

    def parse(self) -> Graph:
        text, fwd, bwd, iris, literals = self.text, self.fwd, self.bwd, self.iris, self.literals
        pos = 0
        while True:
            m = _STATEMENT.match(text, pos)
            if m is None:  # a comment first, the end, or another form
                self.pos = pos
                if not self.peek():
                    return Graph(indexes=(fwd, bwd))
                m = _STATEMENT.match(text, self.pos)
                if m is None:
                    self.statement()
                    pos = self.pos
                    continue
            pos = m.end()
            s, sb, p, o, ob, lexical, dt, tag = m.groups()
            if self.base:
                s, p, o, dt = (v if v is None else self.resolve(v) for v in (s, p, o, dt))
            subject = self.named_blank(sb) if s is None else iris.get(s) or self.iri(s)
            if o is not None:
                obj = iris.get(o) or self.iri(o)
            elif ob is not None:
                obj = self.named_blank(ob)
            else:
                obj = literals.get((lexical, dt, tag))
                if obj is None:
                    datatype = None if dt is None else self.iri(dt)
                    obj = literals[lexical, dt, tag] = Literal(lexical, datatype, tag)
            _index(fwd, bwd, subject, iris.get(p) or self.iri(p), obj)

    def statement(self) -> None:
        """One directive or statement, read term by term."""
        if self.text.startswith(("@prefix", "@base"), self.pos):
            self.directive()
        else:
            self.predicate_object_list(self.node())
            self.take(".")

    def directive(self) -> None:
        if self.text.startswith("@prefix", self.pos):
            self.pos = _SPACE.match(self.text, self.pos + 7).end()
            name = _NAME.match(self.text, self.pos).group()
            self.pos += len(name)
            self.take(":")
            iri = self.iriref()
            self.prefixes[name] = self.resolve(iri)
        else:
            self.pos += 5
            self.base = self.iriref()
        self.take(".")

    def iriref(self) -> str:
        self.take("<")
        end = _IRI_BODY.match(self.text, self.pos).end()
        if not self.text.startswith(">", end):
            raise self.iri_error(end)
        value, self.pos = self.text[self.pos : end], end + 1
        return value

    def iri_error(self, end: int) -> TurtleError:
        if end == len(self.text):
            return self.error("unterminated IRI", end)
        return self.error("whitespace in IRI", end + 1)

    def predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self.node(verb=True)
            while True:
                _index(self.fwd, self.bwd, subject, predicate, self.node())
                if self.peek() != ",":
                    break
                self.pos += 1
            if self.peek() != ";":
                return
            self.pos += 1
            # permit trailing semicolon
            if self.peek() in (".", "]", ""):
                return

    def node(self, verb: bool = False) -> Term:
        m = _TERM.match(self.text, self.pos)
        kind = m.lastgroup
        token = m.group(kind)
        self.pos = m.end()
        if kind == "iri":
            return self.iri(self.resolve(token))
        if kind == "name":
            if verb and token == "a":
                return RDF_TYPE
            return self.prefixed_name(token, m.start(kind))
        if kind == "blank":
            return self.named_blank(token)
        if kind == "string":
            return self.literal(token)
        if kind == "number":
            return self.number(token)
        if kind == "open":
            # one bound on bracket nesting keeps every recursive walker over
            # the parsed document inside Python's recursion limit
            if self.depth == MAX_NESTING:
                raise self.error(f"brackets nested deeper than {MAX_NESTING}", self.pos - 1)
            self.depth += 1
            out = self.collection() if token == "(" else self.blank_node()
            self.depth -= 1
            return out
        if kind == "bad_iri":
            raise self.iri_error(_IRI_BODY.match(self.text, self.pos).end())
        raise self.error("expected '_:'", self.pos - 1)

    def prefixed_name(self, name: str, start: int) -> Term:
        """A prefixed name or a bare boolean; whitespace may precede the ':'."""
        text = self.text
        colon = _SPACE.match(text, self.pos).end()
        if text.startswith(":", colon):
            local = _NAME.match(text, colon + 1).group()
            self.pos = colon + 1 + len(local)
            if local.endswith("."):
                # a trailing dot belongs to the statement terminator
                self.pos, local = self.pos - 1, local[:-1]
            if name not in self.prefixes:
                raise self.error(f"undefined prefix {name!r}", self.pos)
            return self.iri(self.prefixes[name] + local)
        self.pos = colon
        if name == "true" or name == "false":
            return Literal(name, XSD_BOOLEAN)
        if start == len(text):
            raise self.error("unexpected end of input", start)
        raise self.error(f"unexpected token {name or text[start]!r}", colon)

    def blank_node(self) -> Blank:
        b = self.fresh_blank()
        if self.peek() != "]":
            self.predicate_object_list(b)
        self.take("]")
        return b

    def collection(self) -> Term:
        items = []
        while (ch := self.peek()) != ")":
            if not ch:
                raise self.error("unterminated collection", self.pos)
            items.append(self.node())
        self.pos += 1
        head: Term = RDF_NIL
        for item in reversed(items):
            node = self.fresh_blank()
            _index(self.fwd, self.bwd, node, RDF_FIRST, item)
            _index(self.fwd, self.bwd, node, RDF_REST, head)
            head = node
        return head

    def literal(self, quote: str) -> Literal:
        lexical = self.string(quote)
        text, pos = self.text, self.pos
        language = _LANGUAGE.match(text, pos)
        if language:
            tag, self.pos = language.group(1), language.end()
            if not tag:
                raise self.error("malformed language tag", self.pos)
            return Literal(lexical, language=tag)
        if text.startswith("^^", pos):
            self.pos = pos + 2
            dt = self.node()
            if not isinstance(dt, Iri):
                raise self.error("datatype must be an IRI", self.pos)
            return Literal(lexical, dt)
        return Literal(lexical)

    def string(self, quote: str) -> str:
        """The string body after its opening quote, escapes decoded."""
        text, pos, parts = self.text, self.pos, []
        body = _STRING_BODY[quote]
        while True:
            end = body.match(text, pos).end()
            parts.append(text[pos:end])
            if text.startswith(quote, end):
                self.pos = end + len(quote)
                return "".join(parts)
            if end == len(text):
                raise self.error("unterminated string literal", end)
            if text[end] == "\n":
                raise self.error("newline in single-quoted string", end + 1)
            parts.append(self.escape(end))
            pos = self.pos

    def escape(self, pos: int) -> str:
        """The character an escape at `pos` stands for, moving past it.  A
        numeric escape names a Unicode scalar value in 4 or 8 hex digits."""
        m = _ESCAPE.match(self.text, pos)
        if m is None:
            if pos + 1 == len(self.text):
                raise self.error("dangling escape", pos + 1)
            esc = self.text[pos + 1]
            if esc in "uU":
                raise self.error(f"invalid \\{esc} escape", pos)
            raise self.error(f"unknown escape \\{esc}", pos + 2)
        self.pos = m.end()
        char, short, long = m.groups()
        if char:
            return _ESCAPES[char]
        cp = int(short or long, 16)
        if 0xD800 <= cp <= 0xDFFF or cp > 0x10FFFF:
            raise self.error(f"invalid \\{'u' if short else 'U'} escape", pos)
        return chr(cp)

    def number(self, text: str) -> Literal:
        if text.endswith("."):
            # statement dot, not a decimal point
            self.pos, text = self.pos - 1, text[:-1]
        m = _NUMBER.fullmatch(text)
        if m is None:
            raise self.error(f"malformed number {text!r}", self.pos)
        return Literal(text, XSD_DECIMAL if m.group(1) else XSD_INTEGER)


def _is_absolute(iri: str) -> bool:
    head = iri.split(":", 1)[0]
    return ":" in iri and head.isalnum() and head[:1].isalpha()


def parse_turtle(text: str) -> Graph:
    return _Parser(text).parse()


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")


def term_to_turtle(t: Term) -> str:
    if isinstance(t, Iri):
        return f"<{t.value}>"
    if isinstance(t, Blank):
        return f"_:{t.label}"
    if t.language:
        return f'"{_escape(t.lexical)}"@{t.language}'
    if t.datatype == XSD_STRING:
        return f'"{_escape(t.lexical)}"'
    return f'"{_escape(t.lexical)}"^^<{t.datatype.value}>'


def _serial_key(t: Term) -> tuple:
    """term_key, except that parser-style blank labels b0, b1, ... sort by
    number, the order in which parsing the output assigns them."""
    if isinstance(t, Blank) and t.label[:1] == "b" and t.label[1:].isdigit():
        return (2, "", int(t.label[1:]))
    return term_key(t)


def _relabel_blanks(g: Graph) -> list:
    """The triples, sorted, with blanks relabelled b0, b1, ... in
    first-appearance order of the sorted stream.

    Iterated until stable so that parsing the serialized text reproduces the
    same labels (round-trip stability).
    """
    def key(t: tuple) -> tuple:
        return tuple(map(_serial_key, t))

    triples = sorted((tuple(t) for t in g.triples), key=key)
    for _ in range(len(triples) + 1):
        mapping: dict[Blank, Blank] = {}
        for t in triples:
            for term in t:
                if isinstance(term, Blank) and term not in mapping:
                    mapping[term] = Blank(f"b{len(mapping)}")
        if all(old == new for old, new in mapping.items()):
            break
        triples = sorted((tuple(mapping.get(term, term) for term in t) for t in triples), key=key)
    return triples


def serialize_turtle(g: Graph) -> str:
    """Emit sorted N-Triples-style statements (stable for golden files)."""
    lines = [
        f"{term_to_turtle(s)} {term_to_turtle(p)} {term_to_turtle(o)} ."
        for s, p, o in _relabel_blanks(g)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
