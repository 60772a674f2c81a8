"""One document with every constraint, path and target kind
(`fixtures/every-constraint.ttl`) through the writer, the inverse
translation, the pretty printer, the model-search grounder and the prover
encodings."""
import random
from pathlib import Path
from typing import get_args

from sclkit import shacl as sh
from sclkit.decide import _dpll, _ground_problem, emit_smtlib, emit_tptp
from sclkit.rdf import RDF_TYPE, XSD_INTEGER, Graph, Iri, Literal, Triple, parse_turtle
from sclkit.scl import pretty
from sclkit.semantics import ALL_MODES, validate
from sclkit.translate import tau, tau_inverse

EX = "http://ex/"
SH = "http://www.w3.org/ns/shacl#"
FIXTURE = Path(__file__).parent / "fixtures" / "every-constraint.ttl"
# valid: alice and bob are persons, and the knows edges make both knowers
VALID = """@prefix : <http://ex/> .
:alice a :Person ; :name "Al" ; :nick "Al" ; :age 20 ; :deathAge 90 ; :retireAge 65 ;
  :label "chat"@fr ; :knows :bob .
:bob a :Person ; :name "Bob" ; :nick "Bob" ; :age 30 ; :knows :alice, :bob .
"""


def iri(local):
    return Iri(EX + local)


def every_constraint() -> sh.Document:
    return sh.document_from_graph(parse_turtle(FIXTURE.read_text()))


def test_the_fixture_has_every_kind():
    m = every_constraint()
    constraints = {type(n) for s in m.shapes for n in sh.walk(s.constraint)}
    assert constraints == set(get_args(sh.Constraint)) - {sh.Top}
    paths, stack = set(), [s.path for s in m.shapes if s.path is not None]
    while stack:
        p = stack.pop()
        paths.add(type(p))
        stack.extend(getattr(p, "parts", ()) + ((p.inner,) if hasattr(p, "inner") else ()))
    assert paths == {sh.PredPath, sh.InversePath, sh.SeqPath, sh.AltPath,
                     sh.ZeroOrMorePath, sh.OneOrMorePath, sh.ZeroOrOnePath}
    targets = {type(t) for s in m.shapes for t in s.targets}
    assert targets == {sh.NodeTarget, sh.ClassTarget, sh.SubjectsOfTarget, sh.ObjectsOfTarget}
    assert not sh.is_recursive(m)


def _unordered(c: sh.Constraint):
    """The constraint with the items of each sh:and as a set."""
    if isinstance(c, sh.And):
        return frozenset(_unordered(i) for i in c.items)
    if isinstance(c, sh.Or):
        return ("or",) + tuple(_unordered(i) for i in c.items)
    if isinstance(c, (sh.Not, sh.AllValues, sh.SomeValues)):
        return (type(c).__name__, _unordered(c.inner))
    return c


def test_writer_round_trip_reads_back_the_same_shapes():
    m = every_constraint()
    g = sh.document_to_graph(m)
    written = {t.predicate.value[len(SH):] for t in g if t.predicate.value.startswith(SH)}
    assert written >= {"in", "nodeKind", "pattern", "languageIn", "uniqueLang", "closed",
                       "ignoredProperties", "qualifiedValueShapesDisjoint", "property"}
    back = sh.document_from_graph(g)
    assert [(s.name, s.targets, s.path) for s in back.shapes] == [
        (s.name, s.targets, s.path) for s in m.shapes]
    assert [_unordered(s.constraint) for s in back.shapes] == [
        _unordered(s.constraint) for s in m.shapes]
    # the siblings come back because the writer links qualified shapes by sh:property
    older = back.shape(iri("olderFriend")).constraint
    assert older.siblings == (iri("minor"),)


def _graphs(rng: random.Random, count: int):
    """The valid graph, then copies with a few triples added or removed."""
    base = parse_turtle(VALID)
    nodes = [iri(n) for n in ("alice", "bob", "carol")]
    values = nodes + [Literal("Al"), Literal("Bob"), Literal(""), Literal("chat", language="fr"),
                      Literal("chatte", language="fr"), Literal("cat", language="de"),
                      Literal("5", XSD_INTEGER), Literal("17", XSD_INTEGER),
                      Literal("70", XSD_INTEGER), Literal("200", XSD_INTEGER)]
    preds = [iri(p) for p in ("knows", "name", "nick", "label", "age", "deathAge", "retireAge",
                              "other")]
    yield base
    for _ in range(count - 1):
        triples = set(base.triples)
        for _ in range(rng.randint(1, 3)):
            if triples and rng.random() < 0.4:
                triples.discard(rng.choice(sorted(triples, key=repr)))
            elif rng.random() < 0.1:
                triples.add(Triple(rng.choice(nodes), RDF_TYPE, iri("Person")))
            else:
                triples.add(Triple(rng.choice(nodes), rng.choice(preds), rng.choice(values)))
        yield Graph(triples)


def test_untranslate_validates_the_same_graphs_in_every_mode():
    m = every_constraint()
    back = tau_inverse(tau(m))
    # sh:closed and sh:uniqueLang read back from the sentence
    kinds = {type(n) for s in back.shapes for n in sh.walk(s.constraint)}
    assert {sh.Closed, sh.UniqueLang} <= kinds
    closed = next(n for s in back.shapes for n in sh.walk(s.constraint) if isinstance(n, sh.Closed))
    assert set(closed.ignored) >= {RDF_TYPE, iri("nick"), iri("deathAge"), iri("retireAge")}
    verdicts = []
    for g in _graphs(random.Random(29), 60):
        for mode in ALL_MODES:
            verdict = validate(g, m, mode)
            assert validate(g, back, mode) == verdict, (sorted(g.triples, key=repr), mode)
            verdicts.append(verdict)
    assert verdicts[0] and 10 < sum(verdicts) < len(verdicts) - 10


def test_pretty_printer_writes_every_path_and_target():
    text = pretty(tau(every_constraint()))
    knows = f"R<{EX}knows>"
    assert f"∀y. R<{EX}name>(x, y) ↔ R<{EX}nick>(x, y)" in text  # sh:equals
    assert f"R<{EX}deathAge>(x, z) → y < z" in text  # sh:lessThan
    assert f"R<{EX}retireAge>(x, z) → y ≤ z" in text  # sh:lessThanOrEquals
    assert f"({knows}(x, y) ∨ {knows}⁻(x, y))" in text  # alternative and inverse
    assert f"({knows}(w, z))*" in text  # zero or more
    assert f"(z = y ∨ {knows}(z, y))" in text  # zero or one
    assert f"∀x, y. {knows}(x, y) → Σ<{EX}knower>(x)" in text  # subjects of
    assert f"∀x, y. {knows}⁻(x, y) → Σ<{EX}knower>(x)" in text  # objects of


def _targeted_at_alice(*names: str) -> sh.Document:
    m = every_constraint()
    return sh.Document(tuple(sh.Shape(s.name, (sh.NodeTarget(iri("alice")),), s.path, s.constraint)
                             for s in m.shapes if s.name in {iri(n) for n in names}))


def test_grounder_encodes_equals_and_order_atoms():
    phi = tau(_targeted_at_alice("name", "age"))
    domain = [iri("alice"), Iri("urn:sclkit:model:e0"), Iri("urn:sclkit:model:e1")]
    cnf, gr = _ground_problem(phi, domain, {iri("alice"): 0})
    model = _dpll(cnf.n_vars, cnf.clauses)
    assert model is not None
    edges = {(name, i, j) for (name, i, j), v in gr.rel_vars.items() if model[v]}
    # sh:equals: alice's name and nick values coincide, and she has one
    names = {j for name, i, j in edges if name == iri("name") and i == 0}
    assert names and names == {j for name, i, j in edges if name == iri("nick") and i == 0}
    # sh:lessThan and sh:lessThanOrEquals: each (age, bound) pair is ordered
    for rel, op in ((iri("deathAge"), "<"), (iri("retireAge"), "<=")):
        for j in {j for name, i, j in edges if name == iri("age") and i == 0}:
            for k in {k for name, i, k in edges if name == rel and i == 0}:
                assert model[gr.ord_vars[(op, j, k)]]
    assert {op for op, _, _ in gr.ord_vars} == {"<", "<="}


def test_prover_encodings_of_equals_and_order_atoms():
    phi = tau(_targeted_at_alice("name", "age"))
    smt = emit_smtlib(phi)
    assert f"(= (|r:{EX}name| x9 x11) (|r:{EX}nick| x9 x11))" in smt
    assert "(lt x2 x3)" in smt and "(le x4 x5)" in smt
    assert "(declare-fun lt (T T) Bool)" in smt and "(declare-fun le (T T) Bool)" in smt
    tptp = emit_tptp(phi)
    assert "(r_http___ex_name(X9,X11) <=> r_http___ex_nick(X9,X11))" in tptp
    assert "=> lt(X2,X3)" in tptp and "=> le(X4,X5)" in tptp
