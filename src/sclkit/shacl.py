"""Shape documents: constraint trees, target declarations, property paths.

A document is an ordered set of named shapes.  A shape is a node shape
(path is None) or a property shape (path set); constraints are conjunctions
of the atoms below.  Constraints that scope over the values of the path
(MinCount, AllValues, ...) are only legal inside property shapes.
"""
from __future__ import annotations

import re
from graphlib import CycleError, TopologicalSorter
from typing import Iterator, Optional

from .rdf import (
    MAX_NESTING,
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    SH_NS,
    Blank,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
    XSD_BOOLEAN,
    XSD_INTEGER,
    _xsd_number,
    one_of,
    term_key,
)
from .value import Value, _set, value_class

FRESH_NS = "urn:sclkit:fresh:"


class NameMint:
    """Deterministic fresh-IRI supply that never collides with seen names."""

    def __init__(self, taken: set[Iri] = frozenset(), namespace: str = FRESH_NS):
        self.namespace = namespace
        self._next = 0
        for name in taken:
            if name.value.startswith(namespace):
                tail = name.value[len(namespace):]
                if tail.isdigit():
                    self._next = max(self._next, int(tail) + 1)

    def fresh(self) -> Iri:
        name = Iri(f"{self.namespace}{self._next}")
        self._next += 1
        return name


# --- target declarations ----------------------------------------------------

@value_class
class NodeTarget:
    node: Term


@value_class
class ClassTarget:
    cls: Term


@value_class
class SubjectsOfTarget:
    rel: Iri


@value_class
class ObjectsOfTarget:
    rel: Iri


TargetDecl = NodeTarget | ClassTarget | SubjectsOfTarget | ObjectsOfTarget


# --- property paths ---------------------------------------------------------

@value_class
class PredPath:
    iri: Iri


@value_class
class InversePath:
    iri: Iri


@value_class
class SeqPath:
    parts: tuple


@value_class
class AltPath:
    parts: tuple


@value_class
class ZeroOrMorePath:
    inner: "PathExpr"


@value_class
class OneOrMorePath:
    inner: "PathExpr"


@value_class
class ZeroOrOnePath:
    inner: "PathExpr"


PathExpr = PredPath | InversePath | SeqPath | AltPath | ZeroOrMorePath | OneOrMorePath | ZeroOrOnePath


def path_relation_names(p: PathExpr) -> set[Iri]:
    if isinstance(p, (PredPath, InversePath)):
        return {p.iri}
    if isinstance(p, (SeqPath, AltPath)):
        out: set[Iri] = set()
        for q in p.parts:
            out |= path_relation_names(q)
        return out
    return path_relation_names(p.inner)


# --- constraints -------------------------------------------------------------

@value_class
class Top:
    pass


@value_class
class HasValue:
    value: Term


@value_class
class InSet:
    values: tuple


@value_class
class ClassConstraint:
    cls: Term


@value_class
class DatatypeConstraint:
    datatype: Iri


@value_class
class NodeKindConstraint:
    # one of IRI, Literal, BlankNode, BlankNodeOrIRI, BlankNodeOrLiteral, IRIOrLiteral
    kind: str


@value_class
class MinExclusive:
    limit: Literal


@value_class
class MinInclusive:
    limit: Literal


@value_class
class MaxExclusive:
    limit: Literal


@value_class
class MaxInclusive:
    limit: Literal


@value_class
class MinLengthConstraint:
    length: int


@value_class
class MaxLengthConstraint:
    length: int


@value_class
class PatternConstraint:
    regex: str


@value_class
class LanguageIn:
    tags: tuple


@value_class
class Not:
    inner: "Constraint"


@value_class
class And:
    items: tuple


@value_class
class Or:
    items: tuple


@value_class
class Xone:
    # exclusive-or over shape references; eliminated before translation
    names: tuple


@value_class
class Ref:
    name: Iri


@value_class
class MinCount:
    n: int


@value_class
class MaxCount:
    n: int


@value_class
class UniqueLang:
    pass


@value_class
class EqualsRel:
    rel: Iri


@value_class
class DisjointRel:
    rel: Iri


@value_class
class LessThanRel:
    rel: Iri


@value_class
class LessThanOrEqualsRel:
    rel: Iri


@value_class
class QualifiedValue:
    ref: Iri
    min_count: Optional[int] = None
    max_count: Optional[int] = None
    siblings: tuple = ()


@value_class
class Closed:
    ignored: tuple = ()


@value_class
class AllValues:
    """Every value reachable over the shape's path satisfies `inner`."""

    inner: "Constraint"


@value_class
class SomeValues:
    """Some value reachable over the shape's path satisfies `inner`."""

    inner: "Constraint"


Constraint = (
    Top | HasValue | InSet | ClassConstraint | DatatypeConstraint | NodeKindConstraint
    | MinExclusive | MinInclusive | MaxExclusive | MaxInclusive
    | MinLengthConstraint | MaxLengthConstraint | PatternConstraint | LanguageIn
    | Not | And | Or | Xone | Ref
    | MinCount | MaxCount | UniqueLang
    | EqualsRel | DisjointRel | LessThanRel | LessThanOrEqualsRel
    | QualifiedValue | Closed | AllValues | SomeValues
)

def walk(c: Constraint) -> Iterator[Constraint]:
    yield c
    if isinstance(c, (Not, AllValues, SomeValues)):
        yield from walk(c.inner)
    elif isinstance(c, (And, Or)):
        for item in c.items:
            yield from walk(item)


def referenced_names(c: Constraint) -> set[Iri]:
    """Shape names occurring in a constraint (direct references)."""
    names: set[Iri] = set()
    for node in walk(c):
        if isinstance(node, Ref):
            names.add(node.name)
        elif isinstance(node, QualifiedValue):
            names.add(node.ref)
            names.update(node.siblings)
        elif isinstance(node, Xone):
            names.update(node.names)
    return names


@value_class
class Shape:
    name: Iri
    targets: tuple = ()
    path: Optional[PathExpr] = None
    constraint: Constraint = Top()


class DocumentError(ValueError):
    pass


@value_class
class Document:
    shapes: tuple
    __slots__ = ("_by_name",)

    def __init__(self, shapes: tuple = ()):
        super().__init__(shapes)
        by_name: dict = {}
        for s in self.shapes:
            if s.name in by_name:
                raise DocumentError(f"duplicate shape name {s.name!r}")
            by_name[s.name] = s
        _set(self, "_by_name", by_name)
        for s in self.shapes:
            for ref in referenced_names(s.constraint):
                if ref not in by_name:
                    raise DocumentError(f"dangling shape reference {ref!r} in {s.name!r}")
            if s.path is None:
                for node in walk(s.constraint):
                    if isinstance(node, _PROPERTY_ONLY):
                        raise DocumentError(
                            f"node shape {s.name!r} carries property-scoped constraint "
                            f"{type(node).__name__}"
                        )

    def __iter__(self) -> Iterator[Shape]:
        return iter(self.shapes)

    def names(self) -> list[Iri]:
        return [s.name for s in self.shapes]

    def shape(self, name: Iri) -> Shape:
        try:
            return self._by_name[name]
        except KeyError:
            raise DocumentError(f"unknown shape {name!r}") from None

    @classmethod
    def _trusted(cls, by_name: dict) -> "Document":
        """The document of the shapes of `by_name` (name -> shape), in its
        order, without the checks of `__init__`; for the reader."""
        m = object.__new__(cls)
        Value.__init__(m, tuple(by_name.values()))
        _set(m, "_by_name", by_name)
        return m

    def has_shape(self, name: Iri) -> bool:
        return name in self._by_name

    def with_shape(self, shape: Shape) -> "Document":
        return Document(self.shapes + (shape,))


def referenced_shapes_closure(m: Document, name: Iri) -> set[Iri]:
    """Least fixpoint of the directly-referenced-shapes expansion."""
    start = m.shape(name)
    seen: set[Iri] = set()
    frontier = list(referenced_names(start.constraint))
    while frontier:
        n = frontier.pop()
        if n in seen:
            continue
        seen.add(n)
        frontier.extend(referenced_names(m.shape(n).constraint))
    return seen


def evaluation_order(references: dict) -> Optional[list]:
    """The shapes of `references`, a map from each shape to the shapes it
    references, each after all it references; None when the references form
    a cycle.  A topological sort without recursion (stdlib graphlib)."""
    try:
        return list(TopologicalSorter(references).static_order())
    except CycleError:
        return None


def is_recursive(m: Document) -> bool:
    return evaluation_order({s.name: referenced_names(s.constraint) for s in m.shapes}) is None


def rebuild(c: Constraint, leaf) -> Constraint:
    """The constraint tree rebuilt with `leaf` applied to each node that is
    not Not, And, Or, AllValues or SomeValues."""
    if isinstance(c, (Not, AllValues, SomeValues)):
        return type(c)(rebuild(c.inner, leaf))
    if isinstance(c, (And, Or)):
        return type(c)(tuple(rebuild(i, leaf) for i in c.items))
    return leaf(c)


def strip_targets(m: Document) -> Document:
    return Document(tuple(
        Shape(s.name, (), s.path, s.constraint) for s in m.shapes
    ))


def eliminate_xone(m: Document) -> Document:
    """Fold n-ary xone into fresh binary xones, then expand each binary xone
    to (a and not b) or (not a and b).  Validation behaviour is unchanged."""
    if not any(isinstance(node, Xone) for s in m.shapes for node in walk(s.constraint)):
        return m
    mint = NameMint(set(m.names()))
    extra: list[Shape] = []

    def xone2(a: Iri, b: Iri) -> Constraint:
        return Or((And((Ref(a), Not(Ref(b)))), And((Not(Ref(a)), Ref(b)))))

    def expand(names: tuple) -> Constraint:
        if len(names) < 2:
            return Ref(names[0]) if names else Not(Top())
        # heads[k] is the xone of names[:-1 - k]: minted outermost first,
        # defined innermost first, each by the next-inner head and one name
        heads = [mint.fresh() for _ in names[2:]]
        head = names[0]
        for fresh, name in zip(reversed(heads), names[1:-1]):
            extra.append(Shape(fresh, (), None, xone2(head, name)))
            head = fresh
        return xone2(head, names[-1])

    def leaf(c: Constraint) -> Constraint:
        return expand(c.names) if isinstance(c, Xone) else c

    shapes = [Shape(s.name, s.targets, s.path, rebuild(s.constraint, leaf)) for s in m.shapes]
    return Document(tuple(shapes + extra))


# --- the SHACL terms ----------------------------------------------------------

# Each sh: term a shape carries: the class it reads to, the kind of object it
# takes and its scope.  Objects of kind "term", "iri", "literal" or "integer"
# fill the class's one field; "shape" and "shapes" name a shape or a list of
# shapes; "boolean" is true or false, and false reads as if the term were
# absent; None is an object with structure of its own.  Scope "values": on a
# property shape the term ranges over the path values (standardisation rule
# 3); "property": legal on property shapes only; "focus": on the focus node in
# either kind of shape; "target": a target declaration; "parameter": read
# together with the term of its class.
_TERMS = {
    "targetNode": (NodeTarget, "term", "target"),
    "targetClass": (ClassTarget, "term", "target"),
    "targetSubjectsOf": (SubjectsOfTarget, "iri", "target"),
    "targetObjectsOf": (ObjectsOfTarget, "iri", "target"),
    "hasValue": (HasValue, "term", "values"),
    "class": (ClassConstraint, "term", "values"),
    "datatype": (DatatypeConstraint, "iri", "values"),
    "minExclusive": (MinExclusive, "literal", "values"),
    "minInclusive": (MinInclusive, "literal", "values"),
    "maxExclusive": (MaxExclusive, "literal", "values"),
    "maxInclusive": (MaxInclusive, "literal", "values"),
    "minLength": (MinLengthConstraint, "integer", "values"),
    "maxLength": (MaxLengthConstraint, "integer", "values"),
    "minCount": (MinCount, "integer", "property"),
    "maxCount": (MaxCount, "integer", "property"),
    "equals": (EqualsRel, "iri", "property"),
    "disjoint": (DisjointRel, "iri", "property"),
    "lessThan": (LessThanRel, "iri", "property"),
    "lessThanOrEquals": (LessThanOrEqualsRel, "iri", "property"),
    "in": (InSet, None, "values"),
    "languageIn": (LanguageIn, None, "values"),
    "nodeKind": (NodeKindConstraint, None, "values"),
    "pattern": (PatternConstraint, None, "values"),
    "not": (Not, "shape", "values"),
    "and": (And, "shapes", "values"),
    "or": (Or, "shapes", "values"),
    "xone": (Xone, "shapes", "values"),
    "node": (Ref, "shape", "values"),
    "property": (Ref, "shape", "values"),
    "uniqueLang": (UniqueLang, "boolean", "property"),
    "qualifiedValueShape": (QualifiedValue, "shape", "property"),
    "qualifiedMinCount": (QualifiedValue, None, "parameter"),
    "qualifiedMaxCount": (QualifiedValue, None, "parameter"),
    "qualifiedValueShapesDisjoint": (QualifiedValue, "boolean", "parameter"),
    "closed": (Closed, "boolean", "focus"),
    "ignoredProperties": (Closed, None, "parameter"),
}
_ONE_FIELD = ("term", "iri", "literal", "integer")
_PATHS = {"inversePath": InversePath, "alternativePath": AltPath,
          "zeroOrMorePath": ZeroOrMorePath, "oneOrMorePath": OneOrMorePath,
          "zeroOrOnePath": ZeroOrOnePath}

# the constraint classes only a property shape may carry
_PROPERTY_ONLY = (*dict.fromkeys(cls for cls, _, scope in _TERMS.values() if scope == "property"),
                  AllValues, SomeValues)

# every sh: term the reader and the writer use, each IRI built once
_VOCABULARY = {local: Iri(SH_NS + local)
               for local in ("NodeShape", "PropertyShape", "path", *_PATHS, *_TERMS)}


def sh(local: str) -> Iri:
    return _VOCABULARY[local]


_TARGETS = tuple((local, cls, kind) for local, (cls, kind, scope) in _TERMS.items() if scope == "target")
# class -> (predicate, field, object kind) of the terms that fill one field
_WRITTEN_AS = {cls: (sh(local), cls._fields[0], kind)
               for local, (cls, kind, _) in _TERMS.items() if kind in _ONE_FIELD}
_PATH_PREDICATE = {cls: sh(local) for local, cls in _PATHS.items()}
# the xsd:boolean literals, by value
_BOOLEANS = {Literal(form, XSD_BOOLEAN): form in ("true", "1") for form in ("true", "false", "1", "0")}


# --- reading a document from its triple encoding -----------------------------

_SHAPE_CLASSES = (sh("NodeShape"), sh("PropertyShape"))
_NO_TERMS: dict = {}  # the sh: terms of a node without any
# what the subject of an sh: term is: a shape carrying it ("term"), also
# naming the shape or list of shapes that is its object ("shape", "shapes"),
# or a path helper
_ROLE = {"path": "term", **{local: kind if kind in ("shape", "shapes") else "term"
                            for local, (_, kind, _) in _TERMS.items()},
         **dict.fromkeys(_PATHS, "helper")}


def _object_of(kind: str, local: str, obj: Term):
    """The object of an sh:`local` triple, read as a field of kind `kind`."""
    if kind == "iri" and not isinstance(obj, Iri):
        raise DocumentError(f"sh:{local} expects an IRI")
    if kind == "literal" and not isinstance(obj, Literal):
        # only the order comparisons take a literal
        raise DocumentError(f"order-comparison constraint expects a literal, got {obj!r}")
    if kind == "boolean":
        if obj not in _BOOLEANS:
            raise DocumentError(f"sh:{local} expects true or false, got {obj!r}")
        return _BOOLEANS[obj]
    if kind != "integer":
        return obj
    n = _xsd_number(obj.lexical, True) if isinstance(obj, Literal) else None
    if n is None:
        raise DocumentError(f"sh:{local} expects an integer, got {obj!r}")
    return n


class _DocumentReader:
    """Reads a document in one checked pass, so `Document`'s own checks are
    left out: every shape gets a distinct name, every reference resolves
    through `ref_name`, and `read_atom` rejects property-only terms in node
    shapes."""

    def __init__(self, g: Graph):
        self.g = g
        # subject -> {local name: its objects (sorted by term_key if more
        # than one)} over the sh: predicates, in local-name order
        self.sh_terms: dict = {}
        self.lists: dict = {}  # head -> items: each RDF list is read once
        self.path_depth = 0  # the blank path nodes being read, one inside the next
        # a shape is typed, the subject of sh:path or of a term a shape
        # carries, or named by such a term; list and path helpers are not
        nodes = {n for cls in _SHAPE_CLASSES for n in g.subjects(RDF_TYPE, cls)}
        refs: list = []
        helpers = {cell for cell, _ in g.edges(RDF_FIRST)}
        found = sorted((p.value[len(SH_NS):], p) for p in g.predicates()
                       if isinstance(p, Iri) and p.value.startswith(SH_NS))
        for local, p in found:
            role = _ROLE.get(local)
            for subject, objs in g.edges(p):
                objs = sorted(objs, key=term_key) if len(objs) > 1 else objs
                self.sh_terms.setdefault(subject, {})[local] = objs
                if role == "helper":
                    helpers.add(subject)
                elif role is not None:
                    nodes.add(subject)
                    if role == "shape":
                        refs += objs
                    elif role == "shapes":
                        for o in objs:
                            refs += self.read_list(o)
        nodes.update(o for o in refs if not isinstance(o, Literal))  # ref_name rejects a literal
        self.shape_nodes = sorted(nodes - helpers, key=term_key)
        self.names: dict[Term, Iri] = {n: n for n in self.shape_nodes if isinstance(n, Iri)}
        blanks = [n for n in self.shape_nodes if not isinstance(n, Iri)]
        if blanks:  # they get fresh IRIs (standardisation rule 1)
            mint = NameMint(set(self.names))
            self.names.update((n, mint.fresh()) for n in blanks)

    def read_list(self, head: Term) -> list[Term]:
        if head in self.lists:
            return self.lists[head]
        objects = self.g.objects
        items: list[Term] = []
        cell, seen = head, set()
        while cell != RDF_NIL:
            if cell in seen:
                raise DocumentError("cyclic RDF list")
            seen.add(cell)
            first = one_of(objects(cell, RDF_FIRST), cell, RDF_FIRST)
            if first is None:
                raise DocumentError(f"malformed RDF list at {cell!r}")
            items.append(first)
            cell = one_of(objects(cell, RDF_REST), cell, RDF_REST) or RDF_NIL
        self.lists[head] = items
        return items

    def one(self, node: Term, local: str) -> Optional[Term]:
        return one_of(self.sh_terms.get(node, _NO_TERMS).get(local, ()), node, sh(local))

    def ref_name(self, local: str, node: Term) -> Iri:
        """The name of the shape that the object of an sh:`local` triple is."""
        if isinstance(node, Literal):
            raise DocumentError(f"sh:{local} expects a shape, got {node!r}")
        name = self.names.get(node)
        if name is None:
            raise DocumentError(f"dangling shape reference {node!r}")
        return name

    def read(self) -> Document:
        return Document._trusted({self.names[n]: self.read_shape(n) for n in self.shape_nodes})

    def read_shape(self, node: Term) -> Shape:
        terms = self.sh_terms.get(node, _NO_TERMS)
        targets = [cls(_object_of(kind, local, o)) for local, cls, kind in _TARGETS for o in terms.get(local, ())]

        paths = terms.get("path", ())
        if len(paths) > 1:
            raise DocumentError(f"shape {node!r} has two sh:path values")
        path = self.read_path(next(iter(paths))) if paths else None

        atoms: list[Constraint] = []
        for local, objs in terms.items():
            for obj in objs:
                atom = self.read_atom(node, local, obj, path is not None)
                if atom is not None:
                    atoms.append(atom)
        constraint = atoms[0] if len(atoms) == 1 else And(tuple(atoms)) if atoms else Top()
        return Shape(self.names[node], tuple(targets), path, constraint)

    def read_atom(self, node: Term, local: str, obj: Term, in_property: bool) -> Optional[Constraint]:
        entry = _TERMS.get(local)
        if entry is None:
            if local == "path":
                return None
            raise DocumentError(f"unsupported vocabulary term sh:{local} on triple ({node!r}, sh:{local}, {obj!r})")
        cls, kind, scope = entry
        if scope == "property" and not in_property:
            raise DocumentError(f"node shape {node!r} carries property-only sh:{local}")
        if kind == "boolean" and not _object_of(kind, local, obj):
            return None
        if scope in ("target", "parameter"):
            return None
        if kind in _ONE_FIELD:
            atom = cls(_object_of(kind, local, obj))
        else:
            atom = self._structured_atom(node, local, obj)
        if atom is None or not (in_property and scope == "values"):
            return atom
        return SomeValues(atom) if local == "hasValue" else AllValues(atom)

    def _structured_atom(self, node: Term, local: str, obj: Term) -> Optional[Constraint]:
        if local == "in":
            return InSet(tuple(self.read_list(obj)))
        if local == "nodeKind":
            if not isinstance(obj, Iri) or not obj.value.startswith(SH_NS):
                raise DocumentError(f"unknown sh:nodeKind {obj!r}")
            return NodeKindConstraint(obj.value[len(SH_NS):])
        if local == "pattern":
            if not isinstance(obj, Literal):
                raise DocumentError("sh:pattern expects a string literal")
            try:
                re.compile(obj.lexical)
            except re.error as exc:
                raise DocumentError(f"malformed sh:pattern {obj.lexical!r}: {exc}") from None
            return PatternConstraint(obj.lexical)
        if local == "languageIn":
            tags = self.read_list(obj)
            if not all(isinstance(t, Literal) for t in tags):
                raise DocumentError("sh:languageIn expects string literals")
            return LanguageIn(tuple(t.lexical.lower() for t in tags))
        if local == "not":
            return Not(Ref(self.ref_name(local, obj)))
        if local in ("and", "or"):
            refs = tuple(Ref(self.ref_name(local, n)) for n in self.read_list(obj))
            return And(refs) if local == "and" else Or(refs)
        if local == "xone":
            return Xone(tuple(self.ref_name(local, n) for n in self.read_list(obj)))
        if local in ("node", "property"):
            return Ref(self.ref_name(local, obj))
        if local == "uniqueLang":
            return UniqueLang()
        if local == "qualifiedValueShape":
            mn = self.one(node, "qualifiedMinCount")
            mx = self.one(node, "qualifiedMaxCount")
            disjoint = _BOOLEANS.get(self.one(node, "qualifiedValueShapesDisjoint"), False)
            return QualifiedValue(
                ref=self.ref_name(local, obj),
                min_count=_object_of("integer", "qualifiedMinCount", mn) if mn is not None else None,
                max_count=_object_of("integer", "qualifiedMaxCount", mx) if mx is not None else None,
                siblings=self._siblings(node) if disjoint else (),
            )
        # sh:closed true
        ignored = self.one(node, "ignoredProperties")
        props = self.read_list(ignored) if ignored is not None else []
        if not all(isinstance(p, Iri) for p in props):
            raise DocumentError("sh:ignoredProperties expects IRIs")
        return Closed(tuple(sorted(props, key=lambda i: i.value)))

    def _siblings(self, node: Term) -> tuple:
        """Qualified value shapes of sibling property shapes under shared parents."""
        g = self.g
        sibs = {self.ref_name("qualifiedValueShape", q) for parent in g.subjects(sh("property"), node)
                for other in g.objects(parent, sh("property")) if other != node
                for q in self.sh_terms.get(other, _NO_TERMS).get("qualifiedValueShape", ())}
        return tuple(sorted(sibs, key=lambda i: i.value))

    def read_path(self, node: Term) -> PathExpr:
        if isinstance(node, Iri):
            return PredPath(node)
        # capped as Turtle brackets are, which also ends a path that contains itself
        if self.path_depth == MAX_NESTING:
            raise DocumentError(f"sh:path nested deeper than {MAX_NESTING}")
        self.path_depth += 1
        try:
            terms = self.sh_terms.get(node, _NO_TERMS)
            for local, cls in _PATHS.items():  # in the order the forms are tried
                if local in terms:
                    inner = one_of(terms[local], node, sh(local))
                    if cls is InversePath:
                        if not isinstance(inner, Iri):
                            raise DocumentError("sh:inversePath applies only to a plain IRI")
                        return InversePath(inner)
                    if cls is AltPath:
                        return AltPath(tuple(self.read_path(p) for p in self.read_list(inner)))
                    return cls(self.read_path(inner))
            if self.g.objects(node, RDF_FIRST):
                return SeqPath(tuple(self.read_path(p) for p in self.read_list(node)))
            raise DocumentError(f"unsupported sh:path value {node!r}")
        finally:
            self.path_depth -= 1


def document_from_graph(g: Graph) -> Document:
    """Build the shape-document object model from its triple encoding."""
    return _DocumentReader(g).read()


def document_constants(m: Document) -> set[Term]:
    """All constants a document mentions (targets, values, classes)."""
    out: set[Term] = set()
    for s in m.shapes:
        for t in s.targets:
            if isinstance(t, NodeTarget):
                out.add(t.node)
            elif isinstance(t, ClassTarget):
                out.add(t.cls)
        for node in walk(s.constraint):
            if isinstance(node, HasValue):
                out.add(node.value)
            elif isinstance(node, InSet):
                out.update(node.values)
            elif isinstance(node, ClassConstraint):
                out.add(node.cls)
    return out


def document_vocabulary(*documents: Document) -> tuple[set[Iri], set[str]]:
    """The data-graph relation names the documents constrain (isA included
    when class targets or class constraints occur) and the language tags
    they name."""
    rels: set[Iri] = set()
    tags: set[str] = set()
    for s in (s for m in documents for s in m.shapes):
        if s.path is not None:
            rels |= path_relation_names(s.path)
        for t in s.targets:
            if isinstance(t, (SubjectsOfTarget, ObjectsOfTarget)):
                rels.add(t.rel)
            elif isinstance(t, ClassTarget):
                rels.add(RDF_TYPE)
        for node in walk(s.constraint):
            if isinstance(node, (EqualsRel, DisjointRel, LessThanRel, LessThanOrEqualsRel)):
                rels.add(node.rel)
            elif isinstance(node, ClassConstraint):
                rels.add(RDF_TYPE)
            elif isinstance(node, Closed):
                rels.update(node.ignored)
            elif isinstance(node, LanguageIn):
                tags.update(node.tags)
    return rels, tags


def document_to_graph(m: Document) -> Graph:
    """Triple encoding of a document (inverse of document_from_graph)."""
    triples: list = []
    counter = [0]

    def blank() -> Blank:
        counter[0] += 1
        return Blank(f"s{counter[0]}")

    def emit_list(items) -> Term:
        head: Term = RDF_NIL
        for item in reversed(list(items)):
            node = blank()
            triples.append(Triple(node, RDF_FIRST, item))
            triples.append(Triple(node, RDF_REST, head))
            head = node
        return head

    def emit_path(p: PathExpr) -> Term:
        if isinstance(p, PredPath):
            return p.iri
        if isinstance(p, SeqPath):
            return emit_list([emit_path(q) for q in p.parts])
        node = blank()
        if isinstance(p, InversePath):
            o = p.iri
        elif isinstance(p, AltPath):
            o = emit_list([emit_path(q) for q in p.parts])
        else:
            o = emit_path(p.inner)
        triples.append(Triple(node, _PATH_PREDICATE[type(p)], o))
        return node

    def intlit(n: int) -> Literal:
        return Literal(str(n), XSD_INTEGER)

    true = Literal("true", XSD_BOOLEAN)
    mint = NameMint(set(m.names()))
    # siblings are read back from sh:property links, so use them when any occur
    qualified = [(s.name, n) for s in m.shapes for n in walk(s.constraint) if isinstance(n, QualifiedValue)]
    by_property = {name for name, n in qualified} if any(n.siblings for _, n in qualified) else set()
    pending: list[Shape] = []

    def ref_of(c: Constraint) -> Iri:
        """Name of a shape holding the constraint, minting one if needed."""
        if isinstance(c, Ref):
            return c.name
        if any(isinstance(n, _PROPERTY_ONLY) for n in walk(c)):
            # a reference from sh:not / sh:or ranges over the focus node, so a
            # property-scoped operand has no faithful triple encoding
            raise DocumentError(
                f"no triple encoding for {type(c).__name__} over property-scoped constraints"
            )
        name = mint.fresh()
        pending.append(Shape(name, (), None, c))
        return name

    def conjuncts(c: Constraint) -> Iterator[Constraint]:
        if isinstance(c, And):
            for item in c.items:
                yield from conjuncts(item)
        else:
            yield c

    def emit_constraint(subject: Term, c: Constraint) -> None:
        def put(local: str, o: Term) -> None:
            triples.append(Triple(subject, sh(local), o))

        if type(c) in _WRITTEN_AS:
            p, field, kind = _WRITTEN_AS[type(c)]
            o = getattr(c, field)
            triples.append(Triple(subject, p, intlit(o) if kind == "integer" else o))
        elif isinstance(c, InSet):
            put("in", emit_list(c.values))
        elif isinstance(c, NodeKindConstraint):
            put("nodeKind", Iri(SH_NS + c.kind))
        elif isinstance(c, PatternConstraint):
            put("pattern", Literal(c.regex))
        elif isinstance(c, LanguageIn):
            put("languageIn", emit_list([Literal(t) for t in c.tags]))
        elif isinstance(c, UniqueLang):
            put("uniqueLang", true)
        elif isinstance(c, Ref):
            put("property" if c.name in by_property else "node", c.name)
        elif isinstance(c, And):
            for item in c.items:
                emit_constraint(subject, item)
        elif isinstance(c, Not):
            put("not", ref_of(c.inner))
        elif isinstance(c, Or):
            put("or", emit_list([ref_of(i) for i in c.items]))
        elif isinstance(c, Xone):
            put("xone", emit_list(c.names))
        elif isinstance(c, QualifiedValue):
            put("qualifiedValueShape", c.ref)
            if c.min_count is not None:
                put("qualifiedMinCount", intlit(c.min_count))
            if c.max_count is not None:
                put("qualifiedMaxCount", intlit(c.max_count))
            if c.siblings:
                put("qualifiedValueShapesDisjoint", true)
        elif isinstance(c, Closed):
            put("closed", true)
            if c.ignored:
                put("ignoredProperties", emit_list(c.ignored))
        elif isinstance(c, AllValues):
            if any(isinstance(i, HasValue) for i in conjuncts(c.inner)):
                # a bare sh:hasValue on a property shape reads back as SomeValues
                put("node", ref_of(c.inner))
            else:
                emit_constraint(subject, c.inner)
        elif isinstance(c, SomeValues):
            if isinstance(c.inner, HasValue):
                put("hasValue", c.inner.value)
            else:
                put("qualifiedValueShape", ref_of(c.inner))
                put("qualifiedMinCount", intlit(1))
        elif not isinstance(c, Top):
            raise DocumentError(f"cannot serialize constraint {type(c).__name__}")

    def emit_shape(shape: Shape) -> None:
        kind = "PropertyShape" if shape.path is not None else "NodeShape"
        triples.append(Triple(shape.name, RDF_TYPE, sh(kind)))
        if shape.path is not None:
            triples.append(Triple(shape.name, sh("path"), emit_path(shape.path)))
        for t in shape.targets:
            p, field, _ = _WRITTEN_AS[type(t)]
            triples.append(Triple(shape.name, p, getattr(t, field)))
        emit_constraint(shape.name, shape.constraint)

    for shape in m.shapes:
        emit_shape(shape)
    while pending:
        emit_shape(pending.pop(0))
    return Graph(triples)
