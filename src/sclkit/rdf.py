"""Generalised RDF terms, triples, graphs, and a Turtle-subset reader/writer.

Terms live in a single domain: IRIs, literals and blank nodes may occupy any
triple position.  Literal identity is exact lexical form + datatype + language
tag; no value-space canonicalisation happens here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union


@dataclass(frozen=True, order=False)
class Iri:
    value: str

    def __repr__(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True, order=False)
class Literal:
    lexical: str
    datatype: Optional[Iri] = None
    language: Optional[str] = None

    def __post_init__(self) -> None:
        # Simple literals carry xsd:string; tagged ones carry rdf:langString.
        if self.language is not None:
            object.__setattr__(self, "language", self.language.lower())
            if self.datatype is None:
                object.__setattr__(self, "datatype", RDF_LANGSTRING)
            elif self.datatype != RDF_LANGSTRING:
                raise ValueError("language-tagged literal must have rdf:langString datatype")
        elif self.datatype is None:
            object.__setattr__(self, "datatype", XSD_STRING)

    def __repr__(self) -> str:
        if self.language:
            return f'"{self.lexical}"@{self.language}'
        if self.datatype == XSD_STRING:
            return f'"{self.lexical}"'
        return f'"{self.lexical}"^^{self.datatype!r}'


@dataclass(frozen=True, order=False)
class Blank:
    label: str

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


def term_key(t: Term) -> tuple:
    """Total deterministic order over terms: IRIs, then literals, then blanks."""
    if isinstance(t, Iri):
        return (0, t.value)
    if isinstance(t, Literal):
        return (1, t.lexical, t.datatype.value if t.datatype else "", t.language or "")
    return (2, t.label)


@dataclass(frozen=True, order=False)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __iter__(self) -> Iterator[Term]:
        return iter((self.subject, self.predicate, self.object))


def triple_key(t: Triple) -> tuple:
    return (term_key(t.subject), term_key(t.predicate), term_key(t.object))


class Graph:
    """An immutable finite set of triples with predicate indexes."""

    __slots__ = ("triples", "_fwd", "_bwd", "_nodes", "_hash")

    def __init__(self, triples: Iterable[Triple] = ()):
        ts = frozenset(triples)
        object.__setattr__(self, "triples", ts)
        fwd: dict = {}
        bwd: dict = {}
        nodes = set()
        for tr in ts:
            fwd.setdefault(tr.predicate, {}).setdefault(tr.subject, set()).add(tr.object)
            bwd.setdefault(tr.predicate, {}).setdefault(tr.object, set()).add(tr.subject)
            nodes.add(tr.subject)
            nodes.add(tr.object)
        object.__setattr__(self, "_fwd", fwd)
        object.__setattr__(self, "_bwd", bwd)
        object.__setattr__(self, "_nodes", frozenset(nodes))
        object.__setattr__(self, "_hash", hash(ts))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.triples == other.triples

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self.triples, key=triple_key))

    def __repr__(self) -> str:
        return f"Graph({len(self.triples)} triples)"

    def nodes(self) -> frozenset:
        return self._nodes

    def objects(self, subject: Term, predicate: Term) -> set:
        return set(self._fwd.get(predicate, {}).get(subject, ()))

    def subjects(self, predicate: Term, obj: Term) -> set:
        return set(self._bwd.get(predicate, {}).get(obj, ()))

    def has(self, subject: Term, predicate: Term, obj: Term) -> bool:
        return obj in self._fwd.get(predicate, {}).get(subject, ())

    def one_object(self, subject: Term, predicate: Term) -> Optional[Term]:
        objs = self.objects(subject, predicate)
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

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", "b": "\b", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


MAX_NESTING = 128


class TurtleError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, msg: str) -> TurtleError:
        return TurtleError(msg, self.line, self.col)

    def _advance(self, n: int) -> str:
        s = self.text[self.pos : self.pos + n]
        for ch in s:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n
        return s

    def skip_ws(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
            elif ch == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance(1)
            else:
                return

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, s: str) -> bool:
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def take(self, s: str) -> None:
        if not self.startswith(s):
            raise self.error(f"expected {s!r}")
        self._advance(len(s))

    def take_while(self, pred) -> str:
        start = self.pos
        while self.pos < len(self.text) and pred(self.text[self.pos]):
            self._advance(1)
        return self.text[start : self.pos]

    def read_iriref(self) -> str:
        self.take("<")
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated IRI")
            ch = self._advance(1)
            if ch == ">":
                return "".join(out)
            if ch in " \n\t":
                raise self.error("whitespace in IRI")
            out.append(ch)

    def read_string(self) -> str:
        quote = self.text[self.pos]
        long = self.text.startswith(quote * 3, self.pos)
        self._advance(3 if long else 1)
        terminator = quote * 3 if long else quote
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string literal")
            if self.text.startswith(terminator, self.pos):
                self._advance(len(terminator))
                return "".join(out)
            ch = self._advance(1)
            if ch == "\\":
                if self.pos >= len(self.text):
                    raise self.error("dangling escape")
                esc = self._advance(1)
                if esc in _ESCAPES:
                    out.append(_ESCAPES[esc])
                elif esc == "u":
                    out.append(chr(int(self._advance(4), 16)))
                elif esc == "U":
                    out.append(chr(int(self._advance(8), 16)))
                else:
                    raise self.error(f"unknown escape \\{esc}")
            elif not long and ch == "\n":
                raise self.error("newline in single-quoted string")
            else:
                out.append(ch)


def _is_pname_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-.%\u00b7" or ord(ch) > 0x7F


class _Parser:
    def __init__(self, text: str):
        self.lex = _Lexer(text)
        self.prefixes: dict[str, str] = {}
        self.base = ""
        self.triples: list[Triple] = []
        self._blank_counter = 0
        self._blank_map: dict[str, Blank] = {}
        self.depth = 0  # open brackets around the current position

    # Blank labels are skolemised per parse; source labels are not preserved.
    def fresh_blank(self) -> Blank:
        b = Blank(f"b{self._blank_counter}")
        self._blank_counter += 1
        return b

    def named_blank(self, label: str) -> Blank:
        if label not in self._blank_map:
            self._blank_map[label] = self.fresh_blank()
        return self._blank_map[label]

    def emit(self, s: Term, p: Term, o: Term) -> None:
        self.triples.append(Triple(s, p, o))

    def parse(self) -> Graph:
        while not self.lex.eof():
            if self.lex.startswith("@prefix") or self.lex.startswith("@base"):
                self.directive()
            else:
                self.triples_block()
        return Graph(self.triples)

    def directive(self) -> None:
        if self.lex.startswith("@prefix"):
            self.lex.take("@prefix")
            self.lex.skip_ws()
            name = self.lex.take_while(_is_pname_char)
            self.lex.take(":")
            self.lex.skip_ws()
            iri = self.lex.read_iriref()
            self.prefixes[name] = self.base + iri if self.base and not _is_absolute(iri) else iri
        else:
            self.lex.take("@base")
            self.lex.skip_ws()
            self.base = self.lex.read_iriref()
        self.lex.take(".")

    def triples_block(self) -> None:
        subject = self.node()
        self.predicate_object_list(subject)
        self.lex.take(".")

    def predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self.verb()
            while True:
                obj = self.node()
                self.emit(subject, predicate, obj)
                if self.lex.peek() == ",":
                    self.lex.take(",")
                else:
                    break
            if self.lex.peek() == ";":
                self.lex.take(";")
                # permit trailing semicolon
                if self.lex.peek() in (".", "]", ""):
                    return
            else:
                return

    def verb(self) -> Term:
        if self.lex.peek() == "a" and not _is_pname_char(self.lex.text[self.lex.pos + 1 : self.lex.pos + 2] or " "):
            self.lex.take("a")
            return RDF_TYPE
        return self.node()

    def node(self) -> Term:
        ch = self.lex.peek()
        if not ch:
            raise self.lex.error("unexpected end of input")
        if ch == "<":
            iri = self.lex.read_iriref()
            if not _is_absolute(iri):
                iri = self.base + iri
            return Iri(iri)
        if ch == "_":
            self.lex.take("_:")
            label = self.lex.take_while(_is_pname_char)
            return self.named_blank(label)
        if ch in "[(":
            # one bound on bracket nesting keeps every recursive walker over
            # the parsed document inside Python's recursion limit
            if self.depth == MAX_NESTING:
                raise self.lex.error(f"brackets nested deeper than {MAX_NESTING}")
            self.depth += 1
            out = self.collection() if ch == "(" else self.blank_node()
            self.depth -= 1
            return out
        if ch in "\"'":
            return self.literal()
        if ch.isdigit() or ch in "+-":
            return self.number()
        # prefixed name, or the bare booleans
        name = self.lex.take_while(_is_pname_char)
        if self.lex.peek() == ":":
            self.lex.take(":")
            local = self.lex.take_while(_is_pname_char)
            if local.endswith("."):
                # a trailing dot belongs to the statement terminator
                self.lex.pos -= 1
                self.lex.col -= 1
                local = local[:-1]
            if name not in self.prefixes:
                raise self.lex.error(f"undefined prefix {name!r}")
            return Iri(self.prefixes[name] + local)
        if name == "true" or name == "false":
            return Literal(name, XSD_BOOLEAN)
        raise self.lex.error(f"unexpected token {name or ch!r}")

    def blank_node(self) -> Blank:
        self.lex.take("[")
        b = self.fresh_blank()
        if self.lex.peek() != "]":
            self.predicate_object_list(b)
        self.lex.take("]")
        return b

    def collection(self) -> Term:
        self.lex.take("(")
        items = []
        while self.lex.peek() != ")":
            if self.lex.eof():
                raise self.lex.error("unterminated collection")
            items.append(self.node())
        self.lex.take(")")
        return self.build_list(items)

    def build_list(self, items: list) -> Term:
        head: Term = RDF_NIL
        for item in reversed(items):
            node = self.fresh_blank()
            self.emit(node, RDF_FIRST, item)
            self.emit(node, RDF_REST, head)
            head = node
        return head

    def literal(self) -> Literal:
        lexical = self.lex.read_string()
        if self.lex.text.startswith("@", self.lex.pos):
            self.lex.take("@")
            tag = self.lex.take_while(lambda c: c.isalnum() or c == "-")
            if not tag:
                raise self.lex.error("malformed language tag")
            return Literal(lexical, language=tag)
        if self.lex.text.startswith("^^", self.lex.pos):
            self.lex.take("^^")
            dt = self.node()
            if not isinstance(dt, Iri):
                raise self.lex.error("datatype must be an IRI")
            return Literal(lexical, dt)
        return Literal(lexical)

    def number(self) -> Literal:
        text = self.lex.take_while(lambda c: c.isdigit() or c in "+-.")
        if text.endswith("."):
            # statement dot, not a decimal point
            self.lex.pos -= 1
            self.lex.col -= 1
            text = text[:-1]
        body = text.lstrip("+-")
        if body.count(".") == 1 and all(p.isdigit() for p in body.split(".")) and not body.endswith("."):
            return Literal(text, XSD_DECIMAL)
        if body.isdigit():
            return Literal(text, XSD_INTEGER)
        raise self.lex.error(f"malformed number {text!r}")


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
