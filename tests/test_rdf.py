import copy
import pickle
from pathlib import Path

import pytest

from sclkit.rdf import (
    Blank,
    Graph,
    Iri,
    Literal,
    MAX_NESTING,
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    Triple,
    TurtleError,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
    nodes_of,
    parse_turtle,
    serialize_turtle,
)
from sclkit.shacl import Document, NodeTarget, Shape
from oracles import reference_parse_turtle

EX = "http://ex/"
PRE = f"@prefix : <{EX}> .\n"


def iri(local):
    return Iri(EX + local)


def test_figure_graph_parses_to_expected_triples():
    g = parse_turtle(PRE + ":Alex a :Student ; :hasFaculty :CS .")
    assert g.triples == {
        Triple(iri("Alex"), RDF_TYPE, iri("Student")),
        Triple(iri("Alex"), iri("hasFaculty"), iri("CS")),
    }


def test_empty_document_is_empty_graph():
    assert parse_turtle("") == Graph(())


def test_collection_expands_to_first_rest_chain():
    g = parse_turtle(PRE + ":s :p ( :a :b ) .")
    # 1 statement triple + 4 list triples
    assert len(g) == 5
    head = next(iter(g.objects(iri("s"), iri("p"))))
    assert g.objects(head, RDF_FIRST) == {iri("a")}
    second = next(iter(g.objects(head, RDF_REST)))
    assert g.objects(second, RDF_FIRST) == {iri("b")}
    assert g.objects(second, RDF_REST) == {RDF_NIL}


def test_parsed_well_known_iris_are_the_module_constants():
    # also when written out in full, as the serializer writes them
    sugared = "<a> a <b> . <c> <p> ( <d> ) ."
    for text in (sugared, serialize_turtle(parse_turtle(sugared))):
        g = parse_turtle(text)
        (head,) = g.objects(Iri("c"), Iri("p"))
        found = {p.value: p for p in g.predicates()} | {RDF_NIL.value: g.one_object(head, RDF_REST)}
        for constant in (RDF_TYPE, RDF_FIRST, RDF_REST, RDF_NIL):
            assert found[constant.value] is constant


def test_literals_and_sugar():
    g = parse_turtle(PRE + ':s :p "plain", "tag"@EN, "5"^^:dt, 42, 4.5, true .')
    objs = g.objects(iri("s"), iri("p"))
    assert Literal("plain", XSD_STRING) in objs
    assert Literal("tag", language="en") in objs  # tags are case-normalised
    assert Literal("5", iri("dt")) in objs
    assert Literal("42", XSD_INTEGER) in objs
    assert Literal("4.5", XSD_DECIMAL) in objs
    assert Literal("true", XSD_BOOLEAN) in objs


def test_blank_property_list_and_labels_are_skolemised():
    g = parse_turtle(PRE + ":s :p [ :q :v ] . _:x :r _:x .")
    blanks = {t for t in g.nodes() if isinstance(t, Blank)}
    assert len(blanks) == 2
    loop = [t for t in g if t.predicate == iri("r")][0]
    assert loop.subject == loop.object


def test_syntax_errors_carry_position():
    with pytest.raises(TurtleError) as err:
        parse_turtle(PRE + ":s :p <no end")
    assert "line" in str(err.value)
    with pytest.raises(TurtleError, match="undefined prefix"):
        parse_turtle(":s ex:p :o .")
    for truncated in ("<a> <b>", ":s :p ", ":s :p [ :q", ":s :p :o , "):
        with pytest.raises(TurtleError):
            parse_turtle(PRE + truncated)


@pytest.mark.parametrize("escape", [r"\uZZZZ", r"\U00110000", r"\UFFFFFFFF", r"\uD800"])
def test_bad_numeric_escape_is_a_turtle_error_at_the_escape(escape):
    # not hex digits, past the last code point, past a C int, a lone surrogate
    text = PRE + ':s :p\n  "ok\\t' + escape + '" .'
    with pytest.raises(TurtleError, match="escape") as err:
        parse_turtle(text)
    assert (err.value.line, err.value.column) == (3, 8)


def test_numeric_escapes_name_scalar_values():
    # the code points either side of the surrogates, and the last one
    g = parse_turtle(PRE + r':s :p "\u00e9\uD7FF\uE000\U0001F600\U0010FFFF" .')
    assert g.objects(iri("s"), iri("p")) == {Literal("\u00e9\ud7ff\ue000\U0001f600\U0010ffff")}


@pytest.mark.parametrize("digit", ["٣", "²"])  # Arabic-Indic three, superscript two
def test_only_ascii_digits_make_numbers(digit):
    for statement in (f":a :p {digit} .", f":a :p 1{digit} .", f":a :p -{digit} .", f":a :p 1.{digit} ."):
        with pytest.raises(TurtleError):
            parse_turtle(PRE + statement)
    assert parse_turtle(PRE + ":a :p 3, -1.5 .").objects(iri("a"), iri("p")) == {
        Literal("3", XSD_INTEGER), Literal("-1.5", XSD_DECIMAL)}


@pytest.mark.parametrize("number", ["--3", "+-3.5", "++0", "-+1"])
def test_a_number_takes_at_most_one_sign(number):
    with pytest.raises(TurtleError, match="malformed number") as err:
        parse_turtle(PRE + f":a :p {number} .")
    assert (err.value.line, err.value.column) == (2, 7 + len(number))  # just past it
    assert parse_turtle(PRE + ":a :p +3, -0.5 .").objects(iri("a"), iri("p")) == {
        Literal("+3", XSD_INTEGER), Literal("-0.5", XSD_DECIMAL)}


def test_bracket_nesting_is_bounded():
    def nested(depth, open_, close):
        return PRE + ":s :p " + open_ * depth + ":o" + close * depth + " ."

    assert len(parse_turtle(nested(MAX_NESTING, "[ :p ", " ]"))) == MAX_NESTING + 1
    assert len(parse_turtle(nested(MAX_NESTING, "( ", " )"))) == 2 * MAX_NESTING + 1
    for open_, close in (("[ :p ", " ]"), ("( ", " )"), ("( [ :p ", " ] )")):
        with pytest.raises(TurtleError, match="nested deeper"):
            parse_turtle(nested(MAX_NESTING + 1, open_, close))
    # siblings do not add up
    assert parse_turtle(PRE + ":s :p " + ", ".join(["[ :p :o ]"] * (2 * MAX_NESTING)) + " .")


def test_generalised_positions_allowed():
    g = parse_turtle(PRE + '"lit" :p :o . :s "litp" 4 .')
    assert len(g) == 2


def test_roundtrip_fixpoint():
    text = PRE + ':s :p ( :a :b ) ; :q [ :r "v"@de ] . _:z :p _:y . _:y :p 4.5 .'
    g1 = parse_turtle(text)
    g2 = parse_turtle(serialize_turtle(g1))
    g3 = parse_turtle(serialize_turtle(g2))
    assert g2 == g3
    assert len(g1) == len(g2)


def test_serialize_is_sorted_and_stable():
    g = parse_turtle(PRE + ":b :p :o . :a :p :o .")
    out = serialize_turtle(g)
    assert out.index("a>") < out.index("b>")
    assert serialize_turtle(parse_turtle(out)) == out


def test_serialize_is_a_round_trip_fixpoint_on_many_blank_nodes():
    # documents written back from the logic carry tens of blank nodes; labels
    # from b10 on must sort by number, as parsing the output assigns them
    from random import Random

    from sclkit.corpus import random_document
    from sclkit.shacl import document_to_graph
    from sclkit.translate import tau, tau_inverse

    rng = Random(77)
    unstable = []
    for i in range(600):
        m = random_document(rng, max_shapes=4, recursive=rng.random() < 0.3)
        out = serialize_turtle(document_to_graph(tau_inverse(tau(m))))
        if serialize_turtle(parse_turtle(out)) != out:
            unstable.append(i)
    assert unstable == []


def test_nodes_of_with_and_without_document():
    g = parse_turtle(PRE + ":Alex a :Student ; :hasFaculty :CS ; :hasSupervisor :Jane . :Jane :hasFaculty :CS .")
    assert nodes_of(g) == frozenset({iri("Alex"), iri("Student"), iri("CS"), iri("Jane")})
    m = Document((Shape(iri("s"), (NodeTarget(iri("n")),)),))
    assert nodes_of(Graph(()), m) == frozenset({iri("n")})
    # class targets add no nodes
    from sclkit.shacl import ClassTarget

    m2 = Document((Shape(iri("s"), (ClassTarget(iri("Student")),)),))
    assert nodes_of(g, m2) == nodes_of(g)
    assert nodes_of(g, m2) >= nodes_of(g, None)


def test_graph_queries_return_read_only_views():
    g = parse_turtle(PRE + ":s :p :a, :b . :t :p :a .")
    objs, subjs = g.objects(iri("s"), iri("p")), g.subjects(iri("p"), iri("a"))
    assert objs == {iri("a"), iri("b")} and subjs == {iri("s"), iri("t")}
    for view in (objs, subjs, g.objects(iri("a"), iri("p")), g.subjects(iri("q"), iri("a"))):
        assert not hasattr(view, "add") and not hasattr(view, "discard")
    assert not g.objects(iri("a"), iri("p")) and not g.subjects(iri("q"), iri("a"))
    assert g.one_object(iri("t"), iri("p")) == iri("a") and g.one_object(iri("a"), iri("p")) is None


_GRAPH_TEXTS = (
    "",
    PRE + ":s :p :o .",
    PRE + ":s :p :o . :s :p :o . :s :p :o, :o ; :p :o .",  # one triple, stated four times
    PRE + ':s :p :a, "1", 1, 1.5, true, "x"@en, "x"@EN, "y"^^:dt ; :q [ :r ( :a ( ) [ ] ) ] .',
    PRE + "_:x :p _:x . _:y :p _:x . :s :p [ :p _:y ] . :t a :C, :D .",
    PRE + ":s :p ( :a :a ) . :t :p ( :a :a ) .",
)


@pytest.mark.parametrize("text", _GRAPH_TEXTS + tuple(
    path.read_text() for path in sorted((Path(__file__).parent / "fixtures").glob("*.ttl"))))
def test_a_parsed_graph_agrees_with_the_graph_of_its_triples(text):
    # the reference reader returns Graph(triples) over the triples it read
    parsed, built = parse_turtle(text), reference_parse_turtle(text)
    assert parsed == built and built == parsed and hash(parsed) == hash(built)
    assert len(parsed) == len(built) and list(parsed) == list(built)
    assert parsed.nodes() == built.nodes() and parsed.predicates() == built.predicates()
    assert serialize_turtle(parsed) == serialize_turtle(built)
    for s, p, o in built:
        assert parsed.has(s, p, o)
        assert parsed.objects(s, p) == built.objects(s, p) and parsed.subjects(p, o) == built.subjects(p, o)
    assert {parsed: 1}[built] == 1
    assert copy.copy(parsed) == pickle.loads(pickle.dumps(parsed)) == built
    if len(built):
        assert parsed != Graph(list(built)[1:])
