import random

import pytest

from sclkit.rdf import Iri, parse_turtle
from sclkit import shacl as sh
from sclkit.corpus import random_document
from oracles import native_xor_validate

EX = "http://ex/"
PRE = f"@prefix : <{EX}> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"


def iri(local):
    return Iri(EX + local)


def doc(text):
    return sh.document_from_graph(parse_turtle(PRE + text))


FIG1 = """
:studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .
:disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; sh:disjoint :hasFaculty .
"""


def test_fig1_document_model():
    m = doc(FIG1)
    student = m.shape(iri("studentShape"))
    assert student.targets == (sh.ClassTarget(iri("Student")),)
    assert student.constraint == sh.Not(sh.Ref(iri("disjFacultyShape")))
    disj = m.shape(iri("disjFacultyShape"))
    assert disj.path == sh.SeqPath((sh.PredPath(iri("hasSupervisor")), sh.PredPath(iri("hasFaculty"))))
    assert disj.constraint == sh.DisjointRel(iri("hasFaculty"))


def test_bare_node_shape_has_empty_constraint():
    m = doc(":s a sh:NodeShape .")
    assert m.shape(iri("s")).constraint == sh.Top()
    assert m.shape(iri("s")).targets == ()


def test_self_referential_shape():
    m = doc(":InconsistentS a sh:NodeShape ; sh:not :InconsistentS .")
    assert m.shape(iri("InconsistentS")).constraint == sh.Not(sh.Ref(iri("InconsistentS")))
    assert sh.is_recursive(m)


def test_property_shape_lifting_and_errors():
    m = doc(":p a sh:PropertyShape ; sh:path :r ; sh:datatype :dt ; sh:hasValue :v ; sh:minCount 1 .")
    c = m.shape(iri("p")).constraint
    assert isinstance(c, sh.And)
    kinds = {type(i) for i in c.items}
    assert kinds == {sh.AllValues, sh.SomeValues, sh.MinCount}
    with pytest.raises(sh.DocumentError, match="two sh:path"):
        doc(":p a sh:PropertyShape ; sh:path :r ; sh:path :q ; sh:minCount 1 .")
    with pytest.raises(sh.DocumentError, match="property-only"):
        doc(":n a sh:NodeShape ; sh:minCount 1 .")
    with pytest.raises(sh.DocumentError, match="dangling"):
        sh.Document((sh.Shape(iri("s"), (), None, sh.Ref(iri("missing"))),))
    with pytest.raises(sh.DocumentError, match="unsupported vocabulary"):
        doc(':n a sh:NodeShape ; sh:severity sh:Warning .')


def test_anonymous_shapes_get_fresh_names():
    m = doc(":p a sh:PropertyShape ; sh:path :r ; sh:qualifiedValueShape [ sh:not :q ] ; "
            "sh:qualifiedMinCount 1 . :q a sh:NodeShape .")
    qv = next(n for n in sh.walk(m.shape(iri("p")).constraint) if isinstance(n, sh.QualifiedValue))
    assert qv.ref.value.startswith(sh.FRESH_NS)
    assert m.shape(qv.ref).constraint == sh.Not(sh.Ref(iri("q")))


def test_sibling_shapes_for_disjoint_qualified_values():
    m = doc("""
    :parent a sh:NodeShape ; sh:property :p1 ; sh:property :p2 .
    :p1 a sh:PropertyShape ; sh:path :r ; sh:qualifiedValueShape :a ;
        sh:qualifiedMinCount 1 ; sh:qualifiedValueShapesDisjoint true .
    :p2 a sh:PropertyShape ; sh:path :r ; sh:qualifiedValueShape :b ; sh:qualifiedMinCount 1 .
    :a a sh:NodeShape . :b a sh:NodeShape .
    """)
    qv1 = next(n for n in sh.walk(m.shape(iri("p1")).constraint) if isinstance(n, sh.QualifiedValue))
    assert qv1.siblings == (iri("b"),)
    qv2 = next(n for n in sh.walk(m.shape(iri("p2")).constraint) if isinstance(n, sh.QualifiedValue))
    assert qv2.siblings == ()


def test_closure_and_recursion():
    m = doc(FIG1)
    assert sh.referenced_shapes_closure(m, iri("studentShape")) == {iri("disjFacultyShape")}
    assert sh.referenced_shapes_closure(m, iri("disjFacultyShape")) == set()
    assert not sh.is_recursive(m)
    inc = doc(":InconsistentS a sh:NodeShape ; sh:not :InconsistentS .")
    assert sh.referenced_shapes_closure(inc, iri("InconsistentS")) == {iri("InconsistentS")}
    assert sh.is_recursive(inc)
    with pytest.raises(sh.DocumentError):
        sh.referenced_shapes_closure(m, iri("unknown"))


def test_closure_monotone_under_document_extension():
    rng = random.Random(5)
    for _ in range(40):
        m = random_document(rng, max_shapes=4)
        extra = sh.Shape(Iri(EX + "extra"), (), None, sh.Top())
        bigger = m.with_shape(extra)
        for name in m.names():
            assert sh.referenced_shapes_closure(m, name) <= sh.referenced_shapes_closure(bigger, name)


def test_strip_targets():
    m = doc(FIG1)
    stripped = sh.strip_targets(m)
    assert all(s.targets == () for s in stripped.shapes)
    assert [s.constraint for s in stripped.shapes] == [s.constraint for s in m.shapes]
    assert sh.strip_targets(stripped) == stripped
    assert sh.is_recursive(m) == sh.is_recursive(stripped)


def test_xone_binary_expansion():
    m = doc(":x a sh:NodeShape ; sh:xone ( :s1 :s2 ) . :s1 a sh:NodeShape . :s2 a sh:NodeShape .")
    out = sh.eliminate_xone(m)
    c = out.shape(iri("x")).constraint
    assert c == sh.Or((
        sh.And((sh.Ref(iri("s1")), sh.Not(sh.Ref(iri("s2"))))),
        sh.And((sh.Not(sh.Ref(iri("s1"))), sh.Ref(iri("s2")))),
    ))


def test_xone_free_document_unchanged():
    m = doc(FIG1)
    assert sh.eliminate_xone(m) == m


def test_xone_ternary_agrees_with_native_evaluator():
    m = doc("""
    :x a sh:NodeShape ; sh:targetNode :n0 ; sh:xone ( :s1 :s2 :s3 ) .
    :s1 a sh:NodeShape ; sh:hasValue :n0 .
    :s2 a sh:NodeShape ; sh:hasValue :n1 .
    :s3 a sh:NodeShape ; sh:class :C .
    """)
    out = sh.eliminate_xone(m)
    assert not any(isinstance(n, sh.Xone) for s in out.shapes for n in sh.walk(s.constraint))
    from sclkit.semantics import SemanticsMode, validate

    texts = [
        "",
        ":n0 a :C .",
        ":n0 :p :n1 .",
        ":n0 a :C . :n1 a :C .",
        ":n1 :p :n2 . :n0 a :C .",
        ":n0 :p :n0 .",
    ]
    for text in texts:
        g = parse_turtle(PRE + text)
        assert validate(g, out, SemanticsMode.BRAVE_TOTAL) == native_xor_validate(g, m)


def test_document_serialization_roundtrip_structural():
    m = doc(FIG1)
    assert sh.document_from_graph(sh.document_to_graph(m)) == m


def test_document_serialization_roundtrip_semantic():
    from sclkit.semantics import SemanticsMode, validate
    from sclkit.corpus import random_graph

    # sh:hasValue under AllValues: every value is :n1, not just some
    all_values_has = sh.Document((sh.Shape(
        iri("s"), (sh.NodeTarget(iri("n0")),), sh.PredPath(iri("p")),
        sh.AllValues(sh.And((sh.HasValue(iri("n1")), sh.Top())))),))
    pinned = parse_turtle(PRE + ":n0 :p :n1 , :n2 .")
    cases = [(all_values_has, pinned)]
    rng = random.Random(11)
    for i in range(40):
        m = random_document(rng, max_shapes=3, recursive=i % 4 == 0)
        cases += [(m, random_graph(rng, max_nodes=3)) for _ in range(2)]
    for m, g in cases:
        back = sh.document_from_graph(sh.document_to_graph(m))
        for mode in SemanticsMode:
            assert validate(g, m, mode) == validate(g, back, mode), (m, mode)
