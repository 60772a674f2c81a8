"""The two-way compiler between shape documents and logic sentences.

`tau` turns a document into a well-formed sentence: one constraint axiom per
shape (a biconditional defining its shape relation) plus one target axiom per
target declaration.  `tau_inverse` reads a well-formed sentence back into a
document, minting fresh names for anonymous subformulae.
"""
from __future__ import annotations

from typing import Optional

from .rdf import Graph, Iri, Literal, RDF_TYPE, term_key
from . import shacl as sh
from .filters import (
    DatatypeAtom,
    KindAtom,
    LanguageTagAtom,
    MaxLengthAtom,
    MinLengthAtom,
    OrderCmp,
    PatternAtom,
)
from .scl import (
    AtMostAxiom,
    ConstraintAxiom,
    Pi,
    PiAlt,
    PiSeq,
    PiStar,
    PiZeroOrOne,
    Psi,
    PsiAnd,
    PsiCount,
    PsiDisjoint,
    PsiEq,
    PsiEquals,
    PsiExists,
    PsiFilter,
    PsiNot,
    PsiOrder,
    PsiShape,
    PsiTop,
    RelAtom,
    RelStep,
    SclSentence,
    ShapeRel,
    TargetClassAxiom,
    TargetNodeAxiom,
    TargetObjectsAxiom,
    TargetSubjectsAxiom,
    balanced,
    psi_and_all,
    psi_forall,
    psi_or_all,
    relation_names,
    well_formed,
)

# the fresh language tag uniqueLang quantifies over beside the declared ones
UNIQUE_LANG_TAG = "x-sclkit-unique"
# the fresh relation name a closed shape forbids alongside the undeclared ones
CLOSED_RELATION = Iri("urn:sclkit:closed")


class TranslationError(ValueError):
    pass


def path_to_pi(path: sh.PathExpr) -> Pi:
    if isinstance(path, sh.PredPath):
        return RelStep(RelAtom(path.iri))
    if isinstance(path, sh.InversePath):
        return RelStep(RelAtom(path.iri, inverted=True))
    if isinstance(path, (sh.SeqPath, sh.AltPath)):
        join = PiSeq if isinstance(path, sh.SeqPath) else PiAlt
        return balanced(join, [path_to_pi(p) for p in path.parts])
    if isinstance(path, sh.ZeroOrMorePath):
        return PiStar(path_to_pi(path.inner))
    if isinstance(path, sh.OneOrMorePath):
        inner = path_to_pi(path.inner)
        return PiSeq(inner, PiStar(inner))
    return PiZeroOrOne(path_to_pi(path.inner))


def pi_to_path(pi: Pi) -> sh.PathExpr:
    if isinstance(pi, RelStep):
        return sh.InversePath(pi.rel.name) if pi.rel.inverted else sh.PredPath(pi.rel.name)
    if isinstance(pi, (PiSeq, PiAlt)):
        cls = sh.SeqPath if isinstance(pi, PiSeq) else sh.AltPath
        parts: tuple = ()
        for side in (pi_to_path(pi.left), pi_to_path(pi.right)):
            parts += side.parts if isinstance(side, cls) else (side,)
        return cls(parts)
    if isinstance(pi, PiStar):
        return sh.ZeroOrMorePath(pi_to_path(pi.inner))
    return sh.ZeroOrOnePath(pi_to_path(pi.inner))


_NODE_KIND_FILTERS = {
    "IRI": PsiFilter(KindAtom("IRI")),
    "Literal": PsiFilter(KindAtom("Literal")),
    "BlankNode": PsiFilter(KindAtom("BlankNode")),
    # each term has exactly one kind, so a two-kind disjunction is the
    # negation of the excluded kind
    "BlankNodeOrIRI": PsiNot(PsiFilter(KindAtom("Literal"))),
    "BlankNodeOrLiteral": PsiNot(PsiFilter(KindAtom("IRI"))),
    "IRIOrLiteral": PsiNot(PsiFilter(KindAtom("BlankNode"))),
}


class _TauContext:
    __slots__ = ("document", "language_tags", "relation_names")

    def __init__(self, m: sh.Document, vocabulary: tuple, g: Optional[Graph] = None):
        """`vocabulary`: the relation names and language tags of the
        documents at hand (`sh.document_vocabulary`), which a graph widens."""
        rels, tags = vocabulary
        if g is not None:
            rels = rels | g.predicates()
            tags = tags | {t.language for t in g.nodes() if isinstance(t, Literal) and t.language}
        self.document = m
        self.language_tags = tuple(sorted(tags)) + (UNIQUE_LANG_TAG,)
        self.relation_names = tuple(sorted(rels, key=term_key))


def _declared_property_relations(shape: sh.Shape, m: sh.Document) -> set[Iri]:
    """Plain-predicate paths of the shape's sh:property values, the property
    shapes among its conjuncts; one under sh:not, sh:or, sh:and or a qualified
    value shape declares nothing.  The reader folds sh:node and sh:property
    into one Ref, so a top-level sh:node naming a property shape reads like
    sh:property; SHACL's syntax rules exclude that case."""
    out: set[Iri] = set()
    c = shape.constraint
    for item in c.items if isinstance(c, sh.And) else (c,):
        path = m.shape(item.name).path if isinstance(item, sh.Ref) else None
        if isinstance(path, sh.PredPath):
            out.add(path.iri)
    return out


def _filter_psi_node(c: sh.Constraint) -> Optional[Psi]:
    if isinstance(c, sh.DatatypeConstraint):
        return PsiFilter(DatatypeAtom(c.datatype))
    if isinstance(c, sh.NodeKindConstraint):
        if c.kind not in _NODE_KIND_FILTERS:
            raise TranslationError(f"unknown node kind {c.kind!r}")
        return _NODE_KIND_FILTERS[c.kind]
    if isinstance(c, sh.MinExclusive):
        return PsiFilter(OrderCmp(">", c.limit))
    if isinstance(c, sh.MinInclusive):
        return PsiFilter(OrderCmp(">=", c.limit))
    if isinstance(c, sh.MaxExclusive):
        return PsiFilter(OrderCmp("<", c.limit))
    if isinstance(c, sh.MaxInclusive):
        return PsiFilter(OrderCmp("<=", c.limit))
    if isinstance(c, sh.MinLengthConstraint):
        return PsiFilter(MinLengthAtom(c.length))
    if isinstance(c, sh.MaxLengthConstraint):
        return PsiFilter(MaxLengthAtom(c.length))
    if isinstance(c, sh.PatternConstraint):
        return PsiFilter(PatternAtom(c.regex))
    if isinstance(c, sh.LanguageIn):
        return psi_or_all([PsiFilter(LanguageTagAtom(t)) for t in c.tags])
    return None


def _node_psi(c: sh.Constraint, ctx: _TauContext, shape: sh.Shape) -> Psi:
    """Translation of a node-scoped constraint at the current variable."""
    if isinstance(c, sh.Top):
        return PsiTop()
    if isinstance(c, sh.HasValue):
        return PsiEq(c.value)
    if isinstance(c, sh.InSet):
        return psi_or_all([PsiEq(v) for v in c.values])
    if isinstance(c, sh.ClassConstraint):
        return PsiExists(RelStep(RelAtom(RDF_TYPE)), PsiEq(c.cls))
    if isinstance(c, sh.Not):
        return PsiNot(_node_psi(c.inner, ctx, shape))
    if isinstance(c, sh.And):
        return psi_and_all([_node_psi(i, ctx, shape) for i in c.items])
    if isinstance(c, sh.Or):
        return psi_or_all([_node_psi(i, ctx, shape) for i in c.items])
    if isinstance(c, sh.Xone):
        raise TranslationError("xone must be eliminated before translation")
    if isinstance(c, sh.Ref):
        return PsiShape(ShapeRel(c.name))
    if isinstance(c, sh.Closed):
        universe = set(ctx.relation_names) | {CLOSED_RELATION}
        allowed = _declared_property_relations(shape, ctx.document) | set(c.ignored)
        forbidden = sorted(universe - allowed, key=term_key)
        return psi_and_all([PsiNot(PsiExists(RelStep(RelAtom(r)), PsiTop())) for r in forbidden])
    filt = _filter_psi_node(c)
    if filt is not None:
        return filt
    raise TranslationError(f"constraint {type(c).__name__} is not node-scoped")


def _property_psi(c: sh.Constraint, pi: Pi, ctx: _TauContext, shape: sh.Shape) -> Psi:
    """Translation of a property-scoped constraint over the shape's path."""
    if isinstance(c, sh.Top):
        return PsiTop()
    if isinstance(c, sh.And):
        return psi_and_all([_property_psi(i, pi, ctx, shape) for i in c.items])
    if isinstance(c, sh.Or):
        return psi_or_all([_property_psi(i, pi, ctx, shape) for i in c.items])
    if isinstance(c, sh.Not):
        return PsiNot(_property_psi(c.inner, pi, ctx, shape))
    if isinstance(c, sh.MinCount):
        if c.n <= 0:
            return PsiTop()
        return PsiCount(c.n, pi, PsiTop())
    if isinstance(c, sh.MaxCount):
        return PsiNot(PsiCount(c.n + 1, pi, PsiTop()))
    if isinstance(c, sh.SomeValues):
        return PsiExists(pi, _node_psi(c.inner, ctx, shape))
    if isinstance(c, sh.AllValues):
        return psi_forall(pi, _node_psi(c.inner, ctx, shape))
    if isinstance(c, sh.HasValue):
        return PsiExists(pi, PsiEq(c.value))
    if isinstance(c, sh.UniqueLang):
        return psi_and_all([
            PsiNot(PsiCount(2, pi, PsiFilter(LanguageTagAtom(tag))))
            for tag in ctx.language_tags
        ])
    if isinstance(c, sh.EqualsRel):
        return PsiEquals(pi, RelAtom(c.rel))
    if isinstance(c, sh.DisjointRel):
        return PsiDisjoint(pi, RelAtom(c.rel))
    if isinstance(c, sh.LessThanRel):
        return PsiOrder(pi, RelAtom(c.rel), "<")
    if isinstance(c, sh.LessThanOrEqualsRel):
        return PsiOrder(pi, RelAtom(c.rel), "<=")
    if isinstance(c, sh.QualifiedValue):
        value_ok = psi_and_all(
            [PsiShape(ShapeRel(c.ref))]
            + [PsiNot(PsiShape(ShapeRel(s))) for s in c.siblings]
        )
        parts = []
        if c.min_count is not None and c.min_count >= 1:
            parts.append(PsiCount(c.min_count, pi, value_ok))
        if c.max_count is not None:
            parts.append(PsiNot(PsiCount(c.max_count + 1, pi, value_ok)))
        return psi_and_all(parts)
    if isinstance(c, sh.Closed):
        return _node_psi(c, ctx, shape)
    # remaining node-scoped atoms range over the path values
    return psi_forall(pi, _node_psi(c, ctx, shape))


def constraint_psi(shape: sh.Shape, ctx: _TauContext) -> Psi:
    if shape.path is None:
        return _node_psi(shape.constraint, ctx, shape)
    return _property_psi(shape.constraint, path_to_pi(shape.path), ctx, shape)


def shape_bodies(m: sh.Document, g: Optional[Graph] = None, shapes: Optional[tuple] = None,
                 vocabulary: Optional[tuple] = None) -> dict:
    """The per-shape constraint formula of each of `shapes` (by default every
    shape of the document); with a graph, sh:closed and sh:uniqueLang range
    over its predicates and language tags too.  `vocabulary` is the
    document's own, if known (`sh.document_vocabulary(m)`)."""
    ctx = _TauContext(m, vocabulary or sh.document_vocabulary(m), g)
    return {shape.name: constraint_psi(shape, ctx) for shape in (m.shapes if shapes is None else shapes)}


def _target_axiom(t: sh.TargetDecl, rel: ShapeRel):
    if isinstance(t, sh.NodeTarget):
        return TargetNodeAxiom(rel, t.node)
    if isinstance(t, sh.ClassTarget):
        return TargetClassAxiom(rel, t.cls)
    if isinstance(t, sh.SubjectsOfTarget):
        return TargetSubjectsAxiom(rel, t.rel)
    return TargetObjectsAxiom(rel, t.rel)


def tau(m: sh.Document, extra_documents: tuple = ()) -> SclSentence:
    """Compile a document to its sentence.  `extra_documents` widen the
    language-tag and closed-relation universes when two documents are
    compared (containment)."""
    m = sh.eliminate_xone(m)
    ctx = _TauContext(m, sh.document_vocabulary(m, *extra_documents))
    axioms = []
    for shape in m.shapes:
        rel = ShapeRel(shape.name)
        for t in shape.targets:
            axioms.append(_target_axiom(t, rel))
        axioms.append(ConstraintAxiom(rel, constraint_psi(shape, ctx)))
    return SclSentence(tuple(axioms))


# --- inverse translation -----------------------------------------------------


class _InverseContext:
    __slots__ = ("sentence", "mint", "named_bodies", "built", "memo")

    def __init__(self, sentence: SclSentence, mint: sh.NameMint, named_bodies: dict):
        self.sentence = sentence
        self.mint = mint
        self.named_bodies = named_bodies
        self.built: dict = {}  # Iri -> Shape
        self.memo: dict = {}  # Psi -> Iri

    def all_relation_names(self) -> set:
        return {r for r in relation_names(self.sentence) if isinstance(r, Iri)}


def _and_leaves(psi: Psi) -> list:
    """The conjuncts of an and-tree that are not themselves conjunctions."""
    leaves = []
    stack = [psi]
    while stack:
        node = stack.pop()
        if isinstance(node, PsiAnd):
            stack.extend((node.left, node.right))
        else:
            leaves.append(node)
    return leaves


def _match_unique_lang(psi: Psi):
    """An and-tree of ¬∃≥2y.π∧F_lang=t(y) whose tag set includes the fresh
    marker reads back as sh:uniqueLang."""
    tags = set()
    paths = set()
    for node in _and_leaves(psi):
        if not (isinstance(node, PsiNot) and isinstance(node.inner, PsiCount)
                and node.inner.n == 2 and isinstance(node.inner.body, PsiFilter)
                and isinstance(node.inner.body.atom, LanguageTagAtom)):
            return None
        tags.add(node.inner.body.atom.tag)
        paths.add(node.inner.path)
    if len(paths) != 1 or UNIQUE_LANG_TAG not in tags:
        return None
    return next(iter(paths))


def _match_closed(psi: Psi):
    """An and-tree of ¬∃y.R(x,y) whose relation set includes the closed
    marker reads back as sh:closed."""
    rels = set()
    for node in _and_leaves(psi):
        if not (isinstance(node, PsiNot) and isinstance(node.inner, PsiExists)
                and isinstance(node.inner.body, PsiTop)
                and isinstance(node.inner.path, RelStep)
                and not node.inner.path.rel.inverted
                and isinstance(node.inner.path.rel.name, Iri)):
            return None
        rels.add(node.inner.path.rel.name)
    if CLOSED_RELATION not in rels:
        return None
    return rels


_FILTER_CONSTRAINTS = {
    DatatypeAtom: lambda a: sh.DatatypeConstraint(a.datatype),
    KindAtom: lambda a: sh.NodeKindConstraint(a.kind),
    LanguageTagAtom: lambda a: sh.LanguageIn((a.tag,)),
    MinLengthAtom: lambda a: sh.MinLengthConstraint(a.length),
    MaxLengthAtom: lambda a: sh.MaxLengthConstraint(a.length),
    PatternAtom: lambda a: sh.PatternConstraint(a.regex),
}

_ORDER_CONSTRAINTS = {
    ">": sh.MinExclusive,
    ">=": sh.MinInclusive,
    "<": sh.MaxExclusive,
    "<=": sh.MaxInclusive,
}


def _psi_to_shape_parts(psi: Psi, ctx: _InverseContext):
    """(path, constraint) content of the shape a formula denotes.

    Follows the inverse translation's precedence: the first matching rule
    wins, and every unnamed subformula becomes an auxiliary shape via iota.
    """
    if isinstance(psi, PsiTop):
        return (None, sh.Top())
    if isinstance(psi, PsiEq):
        return (None, sh.HasValue(psi.constant))
    unique_path = _match_unique_lang(psi)
    if unique_path is not None:
        return (pi_to_path(unique_path), sh.UniqueLang())
    if isinstance(psi, PsiFilter):
        atom = psi.atom
        if isinstance(atom, OrderCmp):
            return (None, _ORDER_CONSTRAINTS[atom.op](atom.limit))
        return (None, _FILTER_CONSTRAINTS[type(atom)](atom))
    if isinstance(psi, PsiShape):
        return (None, sh.Ref(_iota(psi, ctx)))
    closed_rels = _match_closed(psi)
    if closed_rels is not None:
        ignored = sorted(ctx.all_relation_names() - closed_rels, key=lambda i: i.value)
        return (None, sh.Closed(tuple(ignored)))
    if isinstance(psi, PsiNot):
        return (None, sh.Not(sh.Ref(_iota(psi.inner, ctx))))
    if isinstance(psi, PsiAnd):
        return (None, sh.And((sh.Ref(_iota(psi.left, ctx)), sh.Ref(_iota(psi.right, ctx)))))
    if isinstance(psi, PsiExists):
        return (pi_to_path(psi.path), sh.QualifiedValue(_iota(psi.body, ctx), min_count=1))
    if isinstance(psi, PsiCount):
        return (pi_to_path(psi.path), sh.QualifiedValue(_iota(psi.body, ctx), min_count=psi.n))
    if isinstance(psi, PsiEquals):
        if psi.rel.inverted or not isinstance(psi.rel.name, Iri):
            raise TranslationError("sh:equals requires a plain relation name")
        return (pi_to_path(psi.path), sh.EqualsRel(psi.rel.name))
    if isinstance(psi, PsiDisjoint):
        if psi.rel.inverted or not isinstance(psi.rel.name, Iri):
            raise TranslationError("sh:disjoint requires a plain relation name")
        return (pi_to_path(psi.path), sh.DisjointRel(psi.rel.name))
    if isinstance(psi, PsiOrder):
        if psi.op in (">", ">="):
            raise TranslationError(
                "order atom with an inverted comparison has no shape counterpart "
                f"(op {psi.op!r}); only less-than forms exist"
            )
        if psi.rel.inverted or not isinstance(psi.rel.name, Iri):
            raise TranslationError("property-pair order requires a plain relation name")
        cls = sh.LessThanRel if psi.op == "<" else sh.LessThanOrEqualsRel
        return (pi_to_path(psi.path), cls(psi.rel.name))
    raise TranslationError(f"no inverse-translation rule matches {type(psi).__name__}")


def _iota(psi: Psi, ctx: _InverseContext) -> Iri:
    """Shape name of a subformula; structural sharing keeps output minimal."""
    if isinstance(psi, PsiShape):
        return psi.rel.name  # well-formed: `tau_inverse` builds each named shape
    if psi in ctx.memo:
        return ctx.memo[psi]
    name = ctx.mint.fresh()
    ctx.memo[psi] = name
    path, constraint = _psi_to_shape_parts(psi, ctx)
    ctx.built[name] = sh.Shape(name, (), path, constraint)
    return name


def tau_inverse(phi: SclSentence) -> sh.Document:
    """Read a well-formed sentence back into a document."""
    if not well_formed(phi):
        raise TranslationError("inverse translation requires a well-formed sentence")
    named_bodies: dict = {}
    for axiom in phi.constraint_axioms():
        named_bodies[axiom.shape.name] = axiom.body
    for axiom in phi.axioms:
        if isinstance(axiom, AtMostAxiom):
            raise TranslationError("counting conjuncts have no shape counterpart")

    ctx = _InverseContext(
        sentence=phi,
        mint=sh.NameMint(set(named_bodies)),
        named_bodies=named_bodies,
    )
    for name, body in named_bodies.items():
        path, constraint = _psi_to_shape_parts(body, ctx)
        ctx.built[name] = sh.Shape(name, (), path, constraint)

    targets: dict = {}
    for axiom in phi.axioms:
        if isinstance(axiom, ConstraintAxiom):
            continue
        name = axiom.shape.name
        if name not in ctx.built:
            raise TranslationError(f"target for undefined shape relation {name!r}")
        decl: sh.TargetDecl
        if isinstance(axiom, TargetNodeAxiom):
            decl = sh.NodeTarget(axiom.constant)
        elif isinstance(axiom, TargetClassAxiom):
            decl = sh.ClassTarget(axiom.cls)
        elif isinstance(axiom, TargetSubjectsAxiom):
            decl = sh.SubjectsOfTarget(axiom.rel)
        else:
            decl = sh.ObjectsOfTarget(axiom.rel)
        targets.setdefault(name, []).append(decl)

    shapes = []
    for name, shape in ctx.built.items():
        shapes.append(sh.Shape(name, tuple(targets.get(name, ())), shape.path, shape.constraint))
    shapes.sort(key=lambda s: s.name.value)
    return sh.Document(tuple(shapes))
