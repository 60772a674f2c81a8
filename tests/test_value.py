"""The immutable value base: stored hash, equality, immutability, repr, and
nesting deeper than the recursion limit."""
import copy
import pickle

import pytest

from sclkit import shacl as sh
from sclkit.decide import SatResult, SearchBudget
from sclkit.filters import Finite, Pos, Neg, KindAtom
from sclkit.rdf import XSD_INTEGER, Blank, Graph, Iri, Literal, Triple, parse_turtle
from sclkit.scl import PsiAnd, PsiCount, PsiNot, PsiShape, PsiTop, RelAtom, RelStep, ShapeRel
from sclkit.value import Value, value_class


def _chain(depth: int):
    psi = PsiTop()
    for _ in range(depth):
        psi = PsiNot(psi)
    return psi


def test_equal_fields_give_equal_values_and_hashes():
    pairs = [
        (Iri("http://ex/a"), Iri("http://ex/a")),
        (Literal("1", XSD_INTEGER), Literal("1", XSD_INTEGER)),
        (Literal("x", language="EN"), Literal("x", language="en")),
        (Triple(Iri("http://ex/s"), Iri("http://ex/p"), Blank("b0")),
         Triple(Iri("http://ex/s"), Iri("http://ex/p"), Blank("b0"))),
        (PsiAnd(PsiNot(PsiTop()), PsiShape(ShapeRel(Iri("http://ex/s")))),
         PsiAnd(PsiNot(PsiTop()), PsiShape(ShapeRel(Iri("http://ex/s"))))),
        (sh.Shape(Iri("http://ex/s")), sh.Shape(Iri("http://ex/s"), (), None, sh.Top())),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_the_hash_is_the_tuple_hash_of_the_fields():
    # the number a frozen dataclass gives, so sets iterate in the same order
    i = Iri("http://ex/a")
    assert hash(i) == hash(("http://ex/a",))
    assert hash(RelAtom(i, True)) == hash((i, True))
    assert hash(PsiTop()) == hash(())


def test_equal_fields_in_different_classes_are_unequal():
    i = Iri("http://ex/p")
    assert sh.PredPath(i) != sh.InversePath(i)
    assert sh.MinCount(1) != sh.MaxCount(1)
    assert Pos(KindAtom("IRI")) != Neg(KindAtom("IRI"))
    assert Iri("b0") != Blank("b0")
    assert Iri("x") != Literal("x")
    assert len({sh.MinCount(1), sh.MaxCount(1)}) == 2
    assert Iri("x") != "x" and Finite(1) != 1


def test_unequal_nested_fields_are_unequal():
    a = PsiAnd(PsiTop(), PsiNot(PsiShape(ShapeRel(Iri("http://ex/a")))))
    b = PsiAnd(PsiTop(), PsiNot(PsiShape(ShapeRel(Iri("http://ex/b")))))
    assert a != b
    assert Literal("1", XSD_INTEGER) != Literal("1")


@pytest.mark.parametrize("value, field", [
    (Iri("http://ex/a"), "value"),
    (Literal("x"), "datatype"),
    (Triple(Blank("b0"), Iri("http://ex/p"), Blank("b1")), "object"),
    (PsiNot(PsiTop()), "inner"),
    (sh.Document(()), "shapes"),
    (SearchBudget(), "max_fresh"),
])
def test_fields_cannot_be_assigned_or_deleted(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def test_repr_is_the_dataclass_text():
    assert repr(Iri("http://ex/a")) == "<http://ex/a>"
    assert repr(Literal("1", XSD_INTEGER)) == '"1"^^<http://www.w3.org/2001/XMLSchema#integer>'
    assert repr(Triple(Blank("b0"), Iri("http://ex/p"), Literal("x", language="en"))) == \
        'Triple(subject=_:b0, predicate=<http://ex/p>, object="x"@en)'
    shape = sh.Shape(Iri("http://ex/s"), (sh.ClassTarget(Iri("http://ex/C")),),
                     sh.PredPath(Iri("http://ex/p")), sh.QualifiedValue(Iri("http://ex/q"), min_count=2))
    assert repr(shape) == (
        "Shape(name=<http://ex/s>, targets=(ClassTarget(cls=<http://ex/C>),), "
        "path=PredPath(iri=<http://ex/p>), "
        "constraint=QualifiedValue(ref=<http://ex/q>, min_count=2, max_count=None, siblings=()))")
    assert repr(PsiCount(2, RelStep(RelAtom(Iri("http://ex/p"), True)), PsiNot(PsiTop()))) == (
        "PsiCount(n=2, path=RelStep(rel=RelAtom(name=<http://ex/p>, inverted=True)), "
        "body=PsiNot(inner=PsiTop()))")
    assert repr(SatResult("unknown", reason="no model within budget")) == (
        "SatResult(status='unknown', witness_graph=None, witness_assignment=None, "
        "witness_node=None, approximate=False, reason='no model within budget')")


def test_keywords_defaults_and_argument_errors():
    q = Iri("http://ex/q")
    assert sh.QualifiedValue(q, max_count=1) == sh.QualifiedValue(q, None, 1, ())
    assert RelAtom(name=Iri("http://ex/p")) == RelAtom(Iri("http://ex/p"), False)
    with pytest.raises(TypeError):
        PsiNot()
    with pytest.raises(TypeError):
        PsiNot(PsiTop(), PsiTop())
    with pytest.raises(TypeError):
        PsiNot(PsiTop(), inner=PsiTop())
    with pytest.raises(TypeError):
        RelAtom(Iri("http://ex/p"), flipped=True)
    with pytest.raises(TypeError):
        sh.MinCount(n=[1])  # every field must be hashable
    with pytest.raises(ValueError):
        PsiCount(0, RelStep(RelAtom(Iri("http://ex/p"))), PsiTop())


def test_fields_keep_declaration_order_with_inherited_ones_first():
    @value_class
    class Base:
        a: int
        b: int = 2

    @value_class
    class Derived(Base):
        c: int = 3

    d = Derived(1)
    assert Derived._fields == ("a", "b", "c")
    assert (d.a, d.b, d.c) == (1, 2, 3)
    assert repr(d).endswith(".<locals>.Derived(a=1, b=2, c=3)")  # the qualified name, as dataclasses print
    assert hash(d) == hash((1, 2, 3))
    assert d != Base(1, 2)
    assert isinstance(d, Base) and isinstance(d, Value) and type(Derived) is type


def test_a_chain_deeper_than_the_recursion_limit_hashes_and_compares():
    deep, twin = _chain(3000), _chain(3000)
    assert deep is not twin
    assert hash(deep) == hash(twin)
    assert deep == twin
    assert twin in {deep}
    assert {deep: 1}[twin] == 1
    assert deep != _chain(2999) and deep != PsiNot(PsiNot(_chain(2999)))


def test_values_copy_pickle_and_match_like_dataclasses():
    doc = sh.Document((sh.Shape(Iri("http://ex/s"), (sh.NodeTarget(Literal("x", language="en")),),
                                None, sh.Not(sh.Ref(Iri("http://ex/s")))),))
    triple = Triple(Blank("b0"), Iri("http://ex/p"), Literal("1", XSD_INTEGER))
    for value in (doc, triple, SearchBudget(1, 2, 3.0)):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    assert pickle.loads(pickle.dumps(doc)).shape(Iri("http://ex/s")) == doc.shapes[0]
    match PsiAnd(PsiTop(), PsiNot(PsiTop())):
        case PsiAnd(PsiTop(), PsiNot(inner)):
            assert inner == PsiTop()
        case _:
            pytest.fail("positional class pattern did not match")


def test_a_value_holding_a_graph_compares_and_hashes_it():
    # a parsed graph builds its triples (and so its hash) on demand
    built = SatResult("sat", witness_graph=Graph([Triple(Iri("http://ex/a"), Iri("http://ex/p"), Iri("http://ex/b"))]))
    parsed = SatResult("sat", witness_graph=parse_turtle("<http://ex/a> <http://ex/p> <http://ex/b> ."))
    assert built == parsed and hash(built) == hash(parsed)
    assert built != SatResult("sat", witness_graph=Graph(()))
    with pytest.raises(AttributeError):
        parsed.witness_graph.triples = frozenset()
