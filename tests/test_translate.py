import random

import pytest

from sclkit.rdf import Iri, Literal, XSD_INTEGER, parse_turtle, term_key
from sclkit import shacl as sh
from sclkit.scl import (
    PiSeq,
    PiStar,
    PsiCount,
    PsiExists,
    PsiNot,
    PsiOrder,
    PsiShape,
    PsiTop,
    RelAtom,
    RelStep,
    SclSentence,
    ConstraintAxiom,
    ShapeRel,
    walk_psi,
    well_formed,
)
from sclkit.translate import (
    CLOSED_RELATION,
    TranslationError,
    UNIQUE_LANG_TAG,
    path_to_pi,
    shape_bodies,
    tau,
    tau_inverse,
)
from sclkit.corpus import RELATIONS, random_document, random_graph
from sclkit.semantics import EvalContext, SemanticsMode, validate

EX = "http://ex/"
PRE = f"@prefix : <{EX}> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"


def iri(local):
    return Iri(EX + local)


def doc(text):
    return sh.document_from_graph(parse_turtle(PRE + text))


def body_of(m, name):
    return shape_bodies(m)[iri(name)]


def test_every_constraint_kind_has_an_emitting_branch():
    limit = Literal("3", XSD_INTEGER)
    samples = {
        "Top": sh.Top(),
        "HasValue": sh.HasValue(iri("v")),
        "InSet": sh.InSet((iri("v"), limit)),
        "ClassConstraint": sh.ClassConstraint(iri("C")),
        "DatatypeConstraint": sh.DatatypeConstraint(XSD_INTEGER),
        "NodeKindConstraint": sh.NodeKindConstraint("BlankNodeOrIRI"),
        "MinExclusive": sh.MinExclusive(limit),
        "MinInclusive": sh.MinInclusive(limit),
        "MaxExclusive": sh.MaxExclusive(limit),
        "MaxInclusive": sh.MaxInclusive(limit),
        "MinLengthConstraint": sh.MinLengthConstraint(2),
        "MaxLengthConstraint": sh.MaxLengthConstraint(4),
        "PatternConstraint": sh.PatternConstraint("^a"),
        "LanguageIn": sh.LanguageIn(("en", "fr")),
        "Not": sh.Not(sh.Top()),
        "And": sh.And((sh.Top(), sh.Top())),
        "Or": sh.Or((sh.Top(), sh.Top())),
        "Ref": None,  # needs a second shape, handled below
        "Closed": sh.Closed((iri("keep"),)),
    }
    for kind, constraint in samples.items():
        if constraint is None:
            continue
        m = sh.Document((sh.Shape(iri("s"), (), None, constraint),))
        assert well_formed(tau(m)), kind
    other = sh.Shape(iri("other"), (), None, sh.Top())
    m = sh.Document((other, sh.Shape(iri("s"), (), None, sh.Ref(iri("other")))))
    assert well_formed(tau(m))
    property_samples = {
        "MinCount": sh.MinCount(2),
        "MaxCount": sh.MaxCount(1),
        "UniqueLang": sh.UniqueLang(),
        "EqualsRel": sh.EqualsRel(iri("q")),
        "DisjointRel": sh.DisjointRel(iri("q")),
        "LessThanRel": sh.LessThanRel(iri("q")),
        "LessThanOrEqualsRel": sh.LessThanOrEqualsRel(iri("q")),
        "SomeValues": sh.SomeValues(sh.Top()),
        "AllValues": sh.AllValues(sh.Top()),
        "HasValue": sh.HasValue(iri("v")),
        "QualifiedValue": sh.QualifiedValue(iri("other"), 1, 2),
        "Closed": sh.Closed(()),
    }
    for kind, constraint in property_samples.items():
        m = sh.Document((other, sh.Shape(iri("s"), (), sh.PredPath(iri("r")), constraint)))
        assert well_formed(tau(m)), kind
    for path in [sh.PredPath(iri("r")), sh.InversePath(iri("r")),
                 sh.SeqPath((sh.PredPath(iri("r")), sh.InversePath(iri("q")))),
                 sh.AltPath((sh.PredPath(iri("r")), sh.PredPath(iri("q")))),
                 sh.ZeroOrMorePath(sh.PredPath(iri("r"))),
                 sh.OneOrMorePath(sh.PredPath(iri("r"))),
                 sh.ZeroOrOnePath(sh.PredPath(iri("r")))]:
        m = sh.Document((sh.Shape(iri("s"), (), path, sh.MinCount(1)),))
        assert well_formed(tau(m))


def test_target_axioms():
    from sclkit.scl import (TargetClassAxiom, TargetNodeAxiom, TargetObjectsAxiom,
                            TargetSubjectsAxiom)

    m = doc(":s a sh:NodeShape ; sh:targetNode :c ; sh:targetClass :C ; "
            "sh:targetSubjectsOf :r ; sh:targetObjectsOf :q .")
    phi = tau(m)
    kinds = {type(a) for a in phi.target_axioms()}
    assert kinds == {TargetNodeAxiom, TargetClassAxiom, TargetSubjectsAxiom, TargetObjectsAxiom}


def test_min_count_two_translates_to_counting():
    m = doc(":s a sh:PropertyShape ; sh:path :r ; sh:minCount 2 .")
    body = body_of(m, "s")
    assert body == PsiCount(2, RelStep(RelAtom(iri("r"))), PsiTop())


def test_max_count_translates_to_negated_counting():
    m = doc(":s a sh:PropertyShape ; sh:path :r ; sh:maxCount 2 .")
    body = body_of(m, "s")
    assert body == PsiNot(PsiCount(3, RelStep(RelAtom(iri("r"))), PsiTop()))


def test_unique_lang_quantifies_declared_tags_plus_fresh():
    m = doc("""
    :s a sh:PropertyShape ; sh:path :r ; sh:uniqueLang true .
    :t a sh:NodeShape ; sh:languageIn ( "en" ) .
    """)
    body = body_of(m, "s")
    tags = {n.body.atom.tag for n in walk_psi(body)
            if isinstance(n, PsiCount)}
    assert tags == {"en", UNIQUE_LANG_TAG}


def test_closed_forbids_undeclared_relations():
    m = doc("""
    :s a sh:NodeShape ; sh:closed true ; sh:ignoredProperties ( :keep ) ; sh:property :p .
    :p a sh:PropertyShape ; sh:path :declared ; sh:minCount 1 .
    :t a sh:PropertyShape ; sh:path :other ; sh:minCount 1 .
    """)
    body = body_of(m, "s")
    forbidden = {n.path.rel.name for n in walk_psi(body) if isinstance(n, PsiExists)}
    assert iri("other") in forbidden and CLOSED_RELATION in forbidden
    assert iri("declared") not in forbidden and iri("keep") not in forbidden


def test_qualified_value_with_siblings():
    m = doc("""
    :parent a sh:NodeShape ; sh:property :p1 ; sh:property :p2 .
    :p1 a sh:PropertyShape ; sh:path :r ; sh:qualifiedValueShape :a ;
        sh:qualifiedMinCount 1 ; sh:qualifiedMaxCount 2 ; sh:qualifiedValueShapesDisjoint true .
    :p2 a sh:PropertyShape ; sh:path :r ; sh:qualifiedValueShape :b ; sh:qualifiedMinCount 1 .
    :a a sh:NodeShape . :b a sh:NodeShape .
    """)
    body = body_of(m, "p1")
    counts = [n for n in walk_psi(body) if isinstance(n, PsiCount)]
    assert {c.n for c in counts} == {1, 3}
    shapes_in_nu = {n.rel.name for c in counts for n in walk_psi(c.body) if isinstance(n, PsiShape)}
    assert shapes_in_nu == {iri("a"), iri("b")}


def test_xone_is_rejected_untranslated():
    m = sh.Document((
        sh.Shape(iri("a"), (), None, sh.Top()),
        sh.Shape(iri("b"), (), None, sh.Top()),
        sh.Shape(iri("s"), (), None, sh.Xone((iri("a"), iri("b")))),
    ))
    phi = tau(m)  # eliminate_xone applies internally
    assert well_formed(phi)


# --- inverse translation -------------------------------------------------------

def test_tau_inverse_reproduces_fig1():
    m = doc("""
    :studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .
    :disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; sh:disjoint :hasFaculty .
    """)
    back = tau_inverse(tau(m))
    assert back == sh.Document(tuple(sorted(m.shapes, key=lambda s: s.name.value)))


def test_tau_inverse_target_and_top_rules():
    s = ShapeRel(iri("s"))
    phi = SclSentence((
        __import__("sclkit.scl", fromlist=["TargetNodeAxiom"]).TargetNodeAxiom(s, iri("c")),
        ConstraintAxiom(s, PsiTop()),
    ))
    m = tau_inverse(phi)
    shape = m.shape(iri("s"))
    assert shape.targets == (sh.NodeTarget(iri("c")),)
    assert shape.constraint == sh.Top()
    assert shape.path is None


def test_tau_inverse_rejects_inverted_order_atoms():
    s = ShapeRel(iri("s"))
    phi = SclSentence((
        ConstraintAxiom(s, PsiOrder(RelStep(RelAtom(iri("r"))), RelAtom(iri("q")), ">")),
    ))
    with pytest.raises(TranslationError, match="inverted comparison"):
        tau_inverse(phi)


def test_tau_inverse_requires_well_formed():
    s = ShapeRel(iri("s"))
    with pytest.raises(TranslationError, match="well-formed"):
        tau_inverse(SclSentence((
            __import__("sclkit.scl", fromlist=["TargetNodeAxiom"]).TargetNodeAxiom(s, iri("c")),
        )))


def test_roundtrip_preserves_validation_on_corpus():
    rng = random.Random(29)
    for _ in range(30):
        m = random_document(rng, max_shapes=3)
        back = tau_inverse(tau(m))
        for _ in range(2):
            g = random_graph(rng, max_nodes=3)
            for mode in SemanticsMode:
                assert validate(g, m, mode) == validate(g, back, mode)


def test_roundtrip_preserves_recursion():
    rng = random.Random(31)
    for recursive in (False, True):
        for _ in range(10):
            m = random_document(rng, max_shapes=3, recursive=recursive)
            assert sh.is_recursive(tau_inverse(tau(m))) == recursive


def test_vocabulary_widens_across_compared_documents():
    # the uniqueLang tag set and the closed-relation universe are computed
    # over both documents when two are compared
    from sclkit.scl import PsiCount as _PsiCount, walk_psi as _walk
    from sclkit.translate import UNIQUE_LANG_TAG

    m1 = doc(":s a sh:PropertyShape ; sh:path :r ; sh:uniqueLang true .")
    m2 = doc(':t a sh:NodeShape ; sh:languageIn ( "de" ) .')
    solo = tau(m1)
    joint = tau(m1, extra_documents=(m2,))
    tags_solo = {n.body.atom.tag for a in solo.constraint_axioms()
                 for n in _walk(a.body) if isinstance(n, _PsiCount)}
    tags_joint = {n.body.atom.tag for a in joint.constraint_axioms()
                  for n in _walk(a.body) if isinstance(n, _PsiCount)}
    assert tags_solo == {UNIQUE_LANG_TAG}
    assert tags_joint == {"de", UNIQUE_LANG_TAG}

    c1 = doc(":s a sh:NodeShape ; sh:closed true .")
    c2 = doc(":u a sh:PropertyShape ; sh:path :elsewhere ; sh:minCount 1 .")
    joint_closed = tau(c1, extra_documents=(c2,))
    forbidden = {n.path.rel.name for a in joint_closed.constraint_axioms()
                 for n in _walk(a.body) if isinstance(n, PsiExists)}
    assert iri("elsewhere") in forbidden


def _uncollapsed_pi(path: sh.PathExpr):
    """`path_to_pi` without collapsing nested closures: π+ as π·π*."""
    if isinstance(path, sh.ZeroOrMorePath):
        return PiStar(_uncollapsed_pi(path.inner))
    if isinstance(path, sh.OneOrMorePath):
        inner = _uncollapsed_pi(path.inner)
        return PiSeq(inner, PiStar(inner))
    return path_to_pi(path)


def test_directly_nested_closures_collapse():
    p = sh.PredPath(iri("p"))
    plus, star = path_to_pi(sh.OneOrMorePath(p)), path_to_pi(sh.ZeroOrMorePath(p))
    assert plus == PiSeq(RelStep(RelAtom(iri("p"))), PiStar(RelStep(RelAtom(iri("p")))))
    assert path_to_pi(sh.OneOrMorePath(sh.OneOrMorePath(p))) == plus
    for outer, inner in ((sh.OneOrMorePath, sh.ZeroOrMorePath), (sh.ZeroOrMorePath, sh.OneOrMorePath),
                         (sh.ZeroOrMorePath, sh.ZeroOrMorePath)):
        assert path_to_pi(outer(inner(p))) == star
    # a closure under a sequence is not directly nested
    seq = sh.OneOrMorePath(sh.SeqPath((sh.OneOrMorePath(p), p)))
    assert path_to_pi(seq) == _uncollapsed_pi(seq)


def test_collapsed_closures_reach_what_the_nested_ones_reach():
    rng = random.Random(30)
    for _ in range(60):
        path: sh.PathExpr = rng.choice([sh.PredPath(rng.choice(RELATIONS)), sh.InversePath(rng.choice(RELATIONS)),
                                        sh.SeqPath((sh.PredPath(rng.choice(RELATIONS)),
                                                    sh.InversePath(rng.choice(RELATIONS))))])
        for _ in range(rng.randint(1, 4)):
            path = rng.choice([sh.OneOrMorePath, sh.ZeroOrMorePath])(path)
        nested, collapsed = _uncollapsed_pi(path), path_to_pi(path)
        for _ in range(5):
            g = random_graph(rng)
            ctx = EvalContext(g)
            for node in sorted(g.nodes(), key=term_key):
                assert ctx.eval_path(collapsed, node) == ctx.eval_path(nested, node), path
