"""The immutable value base: stored hash, equality, immutability, repr,
nesting deeper than the recursion limit, and interned terms."""
import copy
import gc
import inspect
import pickle
import sys
import threading

import pytest

from sclkit import rdf
from sclkit import shacl as sh
from sclkit.decide import SatResult, SearchBudget
from sclkit.filters import Finite, Pos, Neg, KindAtom
from sclkit.rdf import XSD_INTEGER, XSD_STRING, Blank, Graph, Iri, Literal, Triple, parse_turtle
from sclkit.scl import PsiAnd, PsiCount, PsiNot, PsiShape, PsiTop, RelAtom, RelStep, ShapeRel
from sclkit.value import Value, value_class


def _chain(depth: int):
    psi = PsiTop()
    for _ in range(depth):
        psi = PsiNot(psi)
    return psi


def test_equal_fields_give_equal_values_and_hashes():
    terms = [
        (Iri("http://ex/a"), Iri("http://ex/a")),
        (Literal("1", XSD_INTEGER), Literal("1", XSD_INTEGER)),
        (Literal("x", language="EN"), Literal("x", language="en")),
        (Literal("x"), Literal("x", XSD_STRING)),
        (Blank("b0"), Blank("b0")),
    ]
    values = [
        (Triple(Iri("http://ex/s"), Iri("http://ex/p"), Blank("b0")),
         Triple(Iri("http://ex/s"), Iri("http://ex/p"), Blank("b0"))),
        (PsiAnd(PsiNot(PsiTop()), PsiShape(ShapeRel(Iri("http://ex/s")))),
         PsiAnd(PsiNot(PsiTop()), PsiShape(ShapeRel(Iri("http://ex/s"))))),
        (sh.Shape(Iri("http://ex/s")), sh.Shape(Iri("http://ex/s"), (), None, sh.Top())),
    ]
    for a, b in terms + values:
        assert (a is b) == ((a, b) in terms)  # terms are interned, other values are not
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_terms_hash_by_identity_other_values_by_class_and_fields():
    i = Iri("http://ex/a")
    for term in (i, Literal("1", XSD_INTEGER), Blank("b0")):
        assert type(term).__hash__ is object.__hash__ and type(term).__eq__ is object.__eq__
        assert hash(term) == object.__hash__(term)
    assert hash(RelAtom(i, True)) == hash((RelAtom, i, True))
    assert hash(PsiTop()) == hash((PsiTop,))
    assert hash(sh.MinCount(1)) == hash((sh.MinCount, 1))


def test_classes_with_equal_fields_hash_apart():
    r = Iri("http://ex/r")
    items = (sh.MinCount(1), sh.Ref(r))
    for a, b in [(sh.SubjectsOfTarget(r), sh.ObjectsOfTarget(r)), (sh.MinCount(1), sh.MaxCount(1)),
                 (sh.And(items), sh.Or(items)), (sh.AllValues(sh.Top()), sh.SomeValues(sh.Top()))]:
        assert hash(a) != hash(b)


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
    # a generated __init__ takes the fields, in order, with their defaults
    assert str(inspect.signature(sh.QualifiedValue)) == "(ref, min_count=None, max_count=None, siblings=())"
    assert str(inspect.signature(PsiTop)) == "()" and PsiTop() == PsiTop()
    assert hash(PsiTop()) == hash((PsiTop,)) and hash(PsiNot(PsiTop())) == hash((PsiNot, PsiTop()))
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
    assert hash(d) == hash((Derived, 1, 2, 3))
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


def test_copy_pickle_and_deepcopy_return_the_interned_term():
    for term in (Iri("http://ex/a"), Literal("x", language="en"), Literal("1", XSD_INTEGER), Blank("b7")):
        for twin in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
            assert twin is term
    triple = Triple(Blank("b0"), Iri("http://ex/p"), Literal("1", XSD_INTEGER))
    assert all(a is b for a, b in zip(pickle.loads(pickle.dumps(triple)), triple))


def test_the_term_table_forgets_freed_terms():
    gc.collect()
    before = len(rdf._TERMS)
    fresh = [Iri(f"http://ex/forgotten/{n}") for n in range(10_000)]
    assert len(rdf._TERMS) == before + 10_000
    del fresh
    assert len(rdf._TERMS) == before
    assert Iri("http://ex/forgotten/0").value == "http://ex/forgotten/0"


def test_threads_minting_one_key_get_one_term():
    # each of five rounds races 8 threads over 1,000 IRIs that no term has yet
    def race(tag: int) -> list:
        barrier = threading.Barrier(8, timeout=30)
        built = [None] * 8

        def mint(slot):
            barrier.wait()
            built[slot] = [Iri(f"http://ex/raced/{tag}/{n}") for n in range(1_000)]

        threads = [threading.Thread(target=mint, args=(slot,)) for slot in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        return built

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rounds = [race(tag) for tag in range(5)]
    finally:
        sys.setswitchinterval(interval)
    for built in rounds:
        assert all(terms is not None for terms in built)
        for terms in built[1:]:
            assert all(a is b for a, b in zip(terms, built[0]))
