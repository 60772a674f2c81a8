import pickle
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


def test_recursion_of_fig1_and_a_self_negation():
    assert not sh.is_recursive(doc(FIG1))
    assert sh.is_recursive(doc(":InconsistentS a sh:NodeShape ; sh:not :InconsistentS ."))


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


def test_xone_of_four_folds_into_two_fresh_binary_xones():
    m = doc(":x a sh:NodeShape ; sh:xone ( :s1 :s2 :s3 :s4 ) ."
            + "".join(f" :s{i} a sh:NodeShape ." for i in range(1, 5)))
    out = sh.eliminate_xone(m)

    def xone2(a, b):
        return sh.Or((sh.And((sh.Ref(a), sh.Not(sh.Ref(b)))), sh.And((sh.Not(sh.Ref(a)), sh.Ref(b)))))

    outer, inner = Iri(sh.FRESH_NS + "0"), Iri(sh.FRESH_NS + "1")
    assert out.shape(iri("x")).constraint == xone2(outer, iri("s4"))
    assert [(s.name, s.constraint) for s in out.shapes[len(m.shapes):]] == [
        (inner, xone2(iri("s1"), iri("s2"))), (outer, xone2(inner, iri("s3")))]


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


# Every sh: term the reader knows, read with each kind of object in a node
# shape and in a property shape.  The exact error text is pinned; a case not
# listed below reads without error.
_READER_TERMS = (
    "hasValue", "in", "class", "datatype", "nodeKind", "minExclusive", "minInclusive",
    "maxExclusive", "maxInclusive", "minLength", "maxLength", "pattern", "languageIn",
    "not", "and", "or", "xone", "node", "property", "minCount", "maxCount", "uniqueLang",
    "equals", "disjoint", "lessThan", "lessThanOrEquals", "qualifiedValueShape",
    "qualifiedMinCount", "qualifiedMaxCount", "qualifiedValueShapesDisjoint", "closed",
    "ignoredProperties", "severity", "targetNode", "targetClass", "targetSubjectsOf",
    "targetObjectsOf",
)
# object kind -> (Turtle text, repr in messages)
_READER_OBJECTS = {
    "iri": (":o", "<http://ex/o>"),
    "literal": ('"x"', '"x"'),
    "integer": ("3", '"3"^^<http://www.w3.org/2001/XMLSchema#integer>'),
    "blank": ("[]", "_:b0"),
    "bad-regex": ('"("', '"("'),
}
_NON_IRI = ("literal", "integer", "blank", "bad-regex")
_NOT_INTEGER = ("iri", "literal", "blank", "bad-regex")
_LIST_ERROR = {kind: "malformed RDF list at {o}" for kind in _READER_OBJECTS}
_ORDER_ERROR = {kind: "order-comparison constraint expects a literal, got {o}"
                for kind in ("iri", "blank")}
# term -> object kind -> message, in either scope ({o}: the object's repr)
_READER_ERRORS = {
    "in": _LIST_ERROR, "languageIn": _LIST_ERROR,
    "and": _LIST_ERROR, "or": _LIST_ERROR, "xone": _LIST_ERROR,
    "datatype": {kind: "sh:datatype expects an IRI" for kind in _NON_IRI},
    "nodeKind": {kind: "unknown sh:nodeKind {o}" for kind in _READER_OBJECTS},
    "minExclusive": _ORDER_ERROR, "minInclusive": _ORDER_ERROR,
    "maxExclusive": _ORDER_ERROR, "maxInclusive": _ORDER_ERROR,
    "pattern": {"iri": "sh:pattern expects a string literal",
                "blank": "sh:pattern expects a string literal",
                "bad-regex": "malformed sh:pattern '(': missing ), unterminated subpattern "
                             "at position 0"},
    **{term: {kind: f"sh:{term} expects an integer, got {{o}}" for kind in _NOT_INTEGER}
       for term in ("minLength", "maxLength", "minCount", "maxCount")},
    **{term: {kind: f"sh:{term} expects an IRI" for kind in _NON_IRI}
       for term in ("equals", "disjoint", "lessThan", "lessThanOrEquals", "targetSubjectsOf",
                    "targetObjectsOf")},
    "severity": {kind: "unsupported vocabulary term sh:severity on triple "
                       "(<http://ex/s>, sh:severity, {o})" for kind in _READER_OBJECTS},
    **{term: {kind: f"sh:{term} expects a shape, got {{o}}" for kind in ("literal", "integer", "bad-regex")}
       for term in ("not", "node", "property", "qualifiedValueShape")},
    **{term: {kind: f"sh:{term} expects true or false, got {{o}}" for kind in _READER_OBJECTS}
       for term in ("uniqueLang", "closed", "qualifiedValueShapesDisjoint")},
}
# in a node shape these fail before their object is read
_READER_PROPERTY_ONLY = ("minCount", "maxCount", "uniqueLang", "equals", "disjoint",
                         "lessThan", "lessThanOrEquals", "qualifiedValueShape")


def _expected_reader_error(term, kind, scope):
    if scope == "node" and term in _READER_PROPERTY_ONLY:
        return f"node shape <http://ex/s> carries property-only sh:{term}"
    message = _READER_ERRORS.get(term, {}).get(kind)
    return None if message is None else message.format(o=_READER_OBJECTS[kind][1])


@pytest.mark.parametrize("scope", ["node", "property"])
@pytest.mark.parametrize("kind", list(_READER_OBJECTS))
@pytest.mark.parametrize("term", _READER_TERMS)
def test_reader_error_messages(term, kind, scope):
    head = ":s a sh:NodeShape ; " if scope == "node" else ":s a sh:PropertyShape ; sh:path :r ; "
    text = f"{head}sh:{term} {_READER_OBJECTS[kind][0]} ."
    expected = _expected_reader_error(term, kind, scope)
    if expected is None:
        doc(text)
    else:
        with pytest.raises(sh.DocumentError) as err:
            doc(text)
        assert str(err.value) == expected


@pytest.mark.parametrize("term", ["and", "or", "xone"])
def test_reader_rejects_a_literal_in_a_shape_list(term):
    with pytest.raises(sh.DocumentError) as err:
        doc(f':s a sh:NodeShape ; sh:{term} ( :t "x" ) . :t a sh:NodeShape .')
    assert str(err.value) == f'sh:{term} expects a shape, got "x"'


def test_reader_booleans():
    prop = ":s a sh:PropertyShape ; sh:path :p ; "
    assert doc(prop + "sh:uniqueLang false .").shape(iri("s")).constraint == sh.Top()
    assert doc(prop + 'sh:uniqueLang "1"^^<http://www.w3.org/2001/XMLSchema#boolean> .').shape(iri("s")).constraint == sh.UniqueLang()
    assert doc(":s a sh:NodeShape ; sh:closed false .").shape(iri("s")).constraint == sh.Top()
    qualified = doc(prop + "sh:qualifiedValueShape :t ; sh:qualifiedMinCount 1 ; "
                           "sh:qualifiedValueShapesDisjoint false . :t a sh:NodeShape .")
    assert qualified.shape(iri("s")).constraint == sh.QualifiedValue(iri("t"), 1)
    # the qualified counts without sh:qualifiedValueShape do not activate the component
    assert doc(':s a sh:NodeShape ; sh:qualifiedMinCount "x" .').shape(iri("s")).constraint == sh.Top()


XSD_INTEGER_IRI = "<http://www.w3.org/2001/XMLSchema#integer>"


def test_counts_outside_the_integer_lexical_space_are_rejected():
    for term in ("minCount", "maxCount", "qualifiedMinCount"):
        for form in ("٣", "1_0", "1.0", "+-1"):
            with pytest.raises(sh.DocumentError, match="expects an integer"):
                doc(f':s a sh:PropertyShape ; sh:path :p ; sh:qualifiedValueShape :t ; '
                    f'sh:{term} "{form}"^^{XSD_INTEGER_IRI} . :t a sh:NodeShape .')
    m = doc(f':s a sh:PropertyShape ; sh:path :p ; sh:minCount "+1"^^{XSD_INTEGER_IRI} ; '
            f'sh:maxCount "05"^^{XSD_INTEGER_IRI} .')
    assert m.shape(iri("s")).constraint == sh.And((sh.MaxCount(5), sh.MinCount(1)))


RDF_PREFIX = "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
# One document for each error the reader raises, with its exact text; the
# last rows pin which error wins when a document has several (targets, then
# the path, then the constraint terms, shape by shape in term order).  The
# DocumentError sites of Document() and document_to_graph() cannot be reached
# from Turtle: the reader names shapes uniquely, checks every reference and
# rejects property-only terms itself, and builds its document without
# Document()'s checks, so the rows of the dangling references (sh:node, an
# sh:and item, a qualified value shape) and of the property-only terms (also
# in a nested node shape) pin checks that only the reader makes.  A repeated
# single-valued term raises the ValueError of Graph.one_object.
def test_path_nesting_is_capped_as_turtle_brackets_are():
    from sclkit.rdf import MAX_NESTING

    def nested(n):
        return (":s a sh:PropertyShape ; sh:path _:p0 . "
                + " ".join(f"_:p{i} sh:zeroOrOnePath _:p{i + 1} ." for i in range(n - 1))
                + f" _:p{n - 1} sh:zeroOrOnePath :q .")

    path, depth = doc(nested(MAX_NESTING)).shape(iri("s")).path, 0
    while isinstance(path, sh.ZeroOrOnePath):
        path, depth = path.inner, depth + 1
    assert (depth, path) == (MAX_NESTING, sh.PredPath(iri("q")))
    with pytest.raises(sh.DocumentError, match="sh:path nested deeper than 128"):
        doc(nested(MAX_NESTING + 1))


_READER_ERROR_TABLE = (
    (":s a sh:NodeShape ; sh:in _:l . _:l rdf:first :a ; rdf:rest _:l .",
     sh.DocumentError, "cyclic RDF list"),
    (":s a sh:NodeShape ; sh:in [ rdf:rest () ] .", sh.DocumentError, "malformed RDF list at _:b0"),
    (":s a sh:NodeShape ; sh:in [ rdf:first :a, :b ; rdf:rest () ] .", ValueError,
     "expected at most one value of <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> on _:b0"),
    (":s a sh:NodeShape ; sh:datatype 1 .", sh.DocumentError, "sh:datatype expects an IRI"),
    (":s a sh:NodeShape ; sh:minInclusive :a .", sh.DocumentError,
     "order-comparison constraint expects a literal, got <http://ex/a>"),
    (":s a sh:NodeShape ; sh:closed 1 .", sh.DocumentError,
     'sh:closed expects true or false, got "1"^^<http://www.w3.org/2001/XMLSchema#integer>'),
    (":s a sh:PropertyShape ; sh:path :p ; sh:minCount :a .", sh.DocumentError,
     "sh:minCount expects an integer, got <http://ex/a>"),
    (':s a sh:NodeShape ; sh:node "t" .', sh.DocumentError, 'sh:node expects a shape, got "t"'),
    (":s a sh:NodeShape ; sh:node ( :t ) .", sh.DocumentError, "dangling shape reference _:b0"),
    (":s a sh:NodeShape ; sh:and ( :t [ sh:inversePath :q ] ) . :t a sh:NodeShape .", sh.DocumentError,
     "dangling shape reference _:b0"),
    (":s a sh:PropertyShape ; sh:path :p ; sh:qualifiedValueShape [ sh:inversePath :q ] ; "
     "sh:qualifiedMinCount 1 .", sh.DocumentError, "dangling shape reference _:b0"),
    (":s a sh:NodeShape ; sh:node [ sh:minCount 1 ] .", sh.DocumentError,
     "node shape _:b0 carries property-only sh:minCount"),
    (":s a sh:PropertyShape ; sh:path :p, :q .", sh.DocumentError,
     "shape <http://ex/s> has two sh:path values"),
    (":s a sh:NodeShape ; sh:severity sh:Info .", sh.DocumentError,
     "unsupported vocabulary term sh:severity on triple (<http://ex/s>, sh:severity, "
     "<http://www.w3.org/ns/shacl#Info>)"),
    (":s a sh:NodeShape ; sh:maxCount 1 .", sh.DocumentError,
     "node shape <http://ex/s> carries property-only sh:maxCount"),
    (":s a sh:NodeShape ; sh:nodeKind :IRI .", sh.DocumentError, "unknown sh:nodeKind <http://ex/IRI>"),
    (":s a sh:NodeShape ; sh:pattern :a .", sh.DocumentError, "sh:pattern expects a string literal"),
    (':s a sh:NodeShape ; sh:pattern "[" .', sh.DocumentError,
     "malformed sh:pattern '[': unterminated character set at position 0"),
    (":s a sh:NodeShape ; sh:languageIn ( :en ) .", sh.DocumentError,
     "sh:languageIn expects string literals"),
    (':s a sh:NodeShape ; sh:closed true ; sh:ignoredProperties ( "x" ) .', sh.DocumentError,
     "sh:ignoredProperties expects IRIs"),
    (":s a sh:NodeShape ; sh:closed true ; sh:ignoredProperties ( :p ), ( :q ) .", ValueError,
     "expected at most one value of <http://www.w3.org/ns/shacl#ignoredProperties> on <http://ex/s>"),
    (":s a sh:PropertyShape ; sh:path [ sh:inversePath [ sh:inversePath :p ] ] .", sh.DocumentError,
     "sh:inversePath applies only to a plain IRI"),
    (":s a sh:PropertyShape ; sh:path [ sh:inversePath :p, :q ] .", ValueError,
     "expected at most one value of <http://www.w3.org/ns/shacl#inversePath> on _:b0"),
    (':s a sh:PropertyShape ; sh:path "x" .', sh.DocumentError, 'unsupported sh:path value "x"'),
    (":s a sh:PropertyShape ; sh:path _:p . _:p sh:zeroOrMorePath _:p .", sh.DocumentError,
     "sh:path nested deeper than 128"),
    (":s a sh:PropertyShape ; sh:path _:l . _:l rdf:first _:l ; rdf:rest () .", sh.DocumentError,
     "sh:path nested deeper than 128"),
    (":s a sh:PropertyShape ; sh:path [ :q :r ] .", sh.DocumentError, "unsupported sh:path value _:b0"),
    (":s a sh:PropertyShape ; sh:path :p ; sh:qualifiedValueShape :t ; sh:qualifiedMaxCount :x . "
     ":t a sh:NodeShape .", sh.DocumentError, "sh:qualifiedMaxCount expects an integer, got <http://ex/x>"),
    (":s a sh:PropertyShape ; sh:path :p ; sh:qualifiedValueShape :t ; sh:qualifiedMinCount 1, 2 . "
     ":t a sh:NodeShape .", ValueError,
     "expected at most one value of <http://www.w3.org/ns/shacl#qualifiedMinCount> on <http://ex/s>"),
    (":s a sh:PropertyShape ; sh:path :p ; sh:qualifiedValueShape :t ; "
     "sh:qualifiedValueShapesDisjoint true, false . :t a sh:NodeShape .", ValueError,
     "expected at most one value of <http://www.w3.org/ns/shacl#qualifiedValueShapesDisjoint> on <http://ex/s>"),
    (':s a sh:NodeShape ; sh:targetSubjectsOf "x" ; sh:datatype "y" .', sh.DocumentError,
     "sh:targetSubjectsOf expects an IRI"),
    (':s a sh:PropertyShape ; sh:targetObjectsOf 1 ; sh:path "x" .', sh.DocumentError,
     "sh:targetObjectsOf expects an IRI"),
    (':s a sh:PropertyShape ; sh:path "x" ; sh:datatype "y" .', sh.DocumentError,
     'unsupported sh:path value "x"'),
    (':s a sh:NodeShape ; sh:pattern :a ; sh:datatype "y" .', sh.DocumentError,
     "sh:datatype expects an IRI"),
    (':b a sh:NodeShape ; sh:datatype "y" . :a a sh:NodeShape ; sh:nodeKind :k .', sh.DocumentError,
     "unknown sh:nodeKind <http://ex/k>"),
)


@pytest.mark.parametrize("text, error, message", _READER_ERROR_TABLE)
def test_reader_error_table(text, error, message):
    with pytest.raises(error) as err:
        doc(RDF_PREFIX + text)
    assert type(err.value) is error and str(err.value) == message


def test_an_unknown_shape_name_is_a_document_error():
    with pytest.raises(sh.DocumentError) as err:
        doc(":s a sh:NodeShape .").shape(iri("t"))
    assert str(err.value) == "unknown shape <http://ex/t>"


def _round_trip_corpus():
    rng = random.Random(26)
    return [random_document(rng, max_shapes=4, recursive=i % 2 == 0) for i in range(60)]


def test_a_read_document_equals_the_checked_document_of_its_shapes():
    """The reader builds its document without Document()'s checks; the
    result equals, hashes like, pickles like and answers shape() and
    has_shape() like the checked Document of the same shapes."""
    missing = Iri(EX + "missing")
    for m in _round_trip_corpus():
        read = sh.document_from_graph(sh.document_to_graph(m))
        checked = sh.Document(read.shapes)
        assert read == checked and checked == read and hash(read) == hash(checked)
        assert pickle.loads(pickle.dumps(read)) == read
        assert read.names() == checked.names()
        for name in read.names():
            assert read.has_shape(name) and checked.has_shape(name)
            assert read.shape(name) is checked.shape(name)
        assert not read.has_shape(missing) and not checked.has_shape(missing)
        for d in (read, checked):
            with pytest.raises(sh.DocumentError, match="unknown shape"):
                d.shape(missing)


def test_a_read_shapes_graph_holds_the_vocabulary_objects():
    g = parse_turtle(PRE + FIG1)
    used = [t for tr in g for t in tr if isinstance(t, Iri) and t.value.startswith(sh.SH_NS)]
    assert len(used) == 6
    for t in used:
        assert t is sh.sh(t.value[len(sh.SH_NS):])


def test_a_document_built_in_python_is_checked():
    node, prop = sh.Shape(iri("s"), (), None, sh.Top()), sh.Shape(iri("p"), (), sh.PredPath(iri("r")))
    cases = (
        ((node, node), "duplicate shape name <http://ex/s>"),
        ((node, sh.Shape(iri("t"), (), None, sh.Not(sh.Ref(iri("u"))))),
         "dangling shape reference <http://ex/u> in <http://ex/t>"),
        ((prop, sh.Shape(iri("q"), (), sh.PredPath(iri("r")),
                         sh.QualifiedValue(iri("p"), 1, None, (iri("gone"),)))),
         "dangling shape reference <http://ex/gone> in <http://ex/q>"),
        ((node, sh.Shape(iri("n"), (), None, sh.And((sh.Ref(iri("s")), sh.MinCount(1))))),
         "node shape <http://ex/n> carries property-scoped constraint MinCount"),
        ((sh.Shape(iri("n"), (), None, sh.Not(sh.AllValues(sh.Top()))),),
         "node shape <http://ex/n> carries property-scoped constraint AllValues"),
    )
    for shapes, message in cases:
        with pytest.raises(sh.DocumentError) as err:
            sh.Document(shapes)
        assert str(err.value) == message
    # the same shapes, once each and with every reference resolved, are a document
    assert sh.Document((node, prop)).names() == [iri("s"), iri("p")]
