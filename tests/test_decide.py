import json
import random
import re

import pytest

from sclkit.rdf import Iri, Literal, XSD_INT, parse_turtle
from sclkit import shacl as sh
from sclkit.scl import SclSentence
from sclkit.semantics import SemanticsMode, validate
from sclkit.translate import tau
from sclkit.value import Value
from sclkit.corpus import random_document
from sclkit.decide import (
    DECIDABLE,
    DecisionError,
    EXPTIME_COMPLETE,
    FMP_NO,
    FMP_UNKNOWN,
    FMP_YES,
    NEXPTIME,
    NEXPTIME_COMPLETE,
    TWO_EXPTIME,
    UNDECIDABLE,
    UNKNOWN,
    SearchBudget,
    bounded_sat,
    check_containment,
    classify,
    containment_sentence,
    emit,
    emit_smtlib,
    emit_tptp,
    scl_bounded_sat,
    shape_containment,
    template_sat,
)
from generators import domino_witness, feature_witness

EX = "http://ex/"
PRE = f"@prefix : <{EX}> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
BUDGET = SearchBudget(max_fresh=2, max_triples=3, max_seconds=30)


def iri(local):
    return Iri(EX + local)


def doc(text):
    return sh.document_from_graph(parse_turtle(PRE + text))


# --- classification -----------------------------------------------------------

CLASSIFIER_TABLE = [
    # (letters, decidability, complexity, fmp)
    (set(), DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
    ({"S"}, DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
    ({"Z"}, DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
    ({"A"}, DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
    ({"S", "Z"}, DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
    ({"S", "A"}, DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
    ({"Z", "A"}, DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
    ({"S", "Z", "A"}, DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
    ({"D"}, DECIDABLE, NEXPTIME, FMP_YES),
    ({"E"}, DECIDABLE, NEXPTIME, FMP_YES),
    ({"A", "E"}, DECIDABLE, NEXPTIME, FMP_YES),
    ({"Z", "A", "D", "E"}, DECIDABLE, NEXPTIME, FMP_YES),
    ({"C"}, DECIDABLE, NEXPTIME_COMPLETE, FMP_NO),
    ({"Z", "A", "D", "E", "C"}, DECIDABLE, NEXPTIME_COMPLETE, FMP_NO),
    ({"S", "D"}, DECIDABLE, TWO_EXPTIME, FMP_YES),
    ({"T"}, DECIDABLE, TWO_EXPTIME, FMP_UNKNOWN),
    ({"S", "T", "D"}, DECIDABLE, TWO_EXPTIME, FMP_NO),
    ({"S", "Z", "A", "T", "D"}, DECIDABLE, TWO_EXPTIME, FMP_NO),
    ({"S", "O"}, UNDECIDABLE, None, FMP_NO),
    ({"S", "A", "C"}, UNDECIDABLE, None, FMP_NO),
    ({"S", "E", "C"}, UNDECIDABLE, None, FMP_NO),
    ({"S", "E", "O'"}, UNDECIDABLE, None, FMP_NO),
    ({"S", "Z", "A", "E"}, UNDECIDABLE, None, FMP_UNKNOWN),
    ({"S", "E"}, UNDECIDABLE, None, FMP_UNKNOWN),
    ({"S", "T", "O"}, UNDECIDABLE, None, FMP_NO),
    ({"S", "A", "T", "C"}, UNDECIDABLE, None, FMP_NO),
    ({"S", "Z", "A", "T", "E"}, UNDECIDABLE, None, FMP_UNKNOWN),
    ({"O"}, UNKNOWN, None, FMP_NO),
    ({"O'"}, UNKNOWN, None, FMP_UNKNOWN),
    ({"E", "O'"}, UNKNOWN, None, FMP_NO),
    ({"Z", "A", "T", "D", "E"}, UNKNOWN, None, FMP_UNKNOWN),
    ({"S", "C"}, UNKNOWN, None, FMP_NO),
]


def test_classifier_reproduces_the_fragment_map():
    for letters, decidability, complexity, fmp in CLASSIFIER_TABLE:
        verdict = classify(feature_witness(letters))
        assert verdict.decidability == decidability, letters
        assert verdict.complexity == complexity, letters
        assert verdict.fmp == fmp, letters
        if decidability == UNDECIDABLE:
            assert verdict.complexity is None


def test_domino_witness_fixtures_are_undecidable():
    for frag in ("SO", "SAC", "SEC", "SEO'", "SZAE", "SE"):
        verdict = classify(domino_witness(frag))
        assert verdict.decidability == UNDECIDABLE, frag


def test_classifier_monotone_adding_features():
    rank = {DECIDABLE: 0, UNKNOWN: 1, UNDECIDABLE: 2}
    letters = ["S", "Z", "A", "T", "D", "E", "O", "O'", "C"]
    rng = random.Random(13)
    for _ in range(200):
        base = {l for l in letters if rng.random() < 0.3}
        extra = base | {rng.choice(letters)}
        a = classify(feature_witness(base))
        b = classify(feature_witness(extra))
        assert rank[b.decidability] >= rank[a.decidability]


def test_fig2_verdict():
    m = doc("""
    :studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .
    :disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; sh:disjoint :hasFaculty .
    """)
    verdict = classify(tau(m))
    assert (verdict.decidability, verdict.complexity, verdict.fmp) == (DECIDABLE, TWO_EXPTIME, FMP_YES)
    assert not verdict.features.recursive


# --- graph-level search ---------------------------------------------------------

def test_search_budget_rejects_nan_seconds():
    with pytest.raises(ValueError):
        SearchBudget(max_seconds=float("nan"))
    with pytest.raises(ValueError):
        SearchBudget(max_seconds=-1.0)
    assert SearchBudget(max_seconds=float("inf")).max_seconds == float("inf")


def test_bounded_sat_trivial_shape():
    m = sh.Document((sh.Shape(iri("s"), (sh.NodeTarget(iri("a")),), None, sh.Top()),))
    r = bounded_sat(m, SemanticsMode.BRAVE_TOTAL, BUDGET)
    assert r.is_sat
    assert r.witness_assignment.sign(iri("a"), iri("s")) is True


def test_bounded_sat_inconsistent_with_target_finds_nothing():
    m = doc(":I a sh:NodeShape ; sh:targetNode :a ; sh:not :I .")
    for mode in (SemanticsMode.BRAVE_TOTAL, SemanticsMode.BRAVE_PARTIAL):
        r = bounded_sat(m, mode, SearchBudget(1, 2, 30))
        assert not r.is_sat


def test_bounded_sat_unsat_by_unique_names():
    m = sh.Document((sh.Shape(iri("s"), (sh.NodeTarget(iri("a")),), None, sh.HasValue(iri("b"))),))
    r = bounded_sat(m, SemanticsMode.BRAVE_TOTAL, SearchBudget(1, 2, 30))
    assert not r.is_sat


def test_bounded_sat_filter_witness():
    m = sh.Document((sh.Shape(iri("s"), (sh.NodeTarget(iri("a")),), sh.PredPath(iri("r")),
                              sh.And((sh.MinCount(1), sh.AllValues(sh.DatatypeConstraint(XSD_INT))))),))
    r = bounded_sat(m, SemanticsMode.BRAVE_TOTAL, BUDGET)
    assert r.is_sat
    objs = {t.object for t in r.witness_graph}
    assert any(isinstance(o, Literal) and o.datatype == XSD_INT for o in objs)


def test_containment_reflexive_and_strictness():
    m1 = doc(":s a sh:NodeShape ; sh:targetClass :C ; sh:datatype <http://www.w3.org/2001/XMLSchema#int> .")
    m2 = doc(":s a sh:NodeShape ; sh:targetClass :C .")
    self_check = check_containment(m1, m1, SemanticsMode.BRAVE_TOTAL, BUDGET)
    assert self_check.status == "unknown"  # no counterexample exists
    forward = check_containment(m1, m2, SemanticsMode.BRAVE_TOTAL, BUDGET)
    assert forward.status == "unsat"  # m2's body is ⊤: every graph validates it
    assert forward.reason == "doc2 holds everywhere"
    backward = check_containment(m2, m1, SemanticsMode.BRAVE_TOTAL, BUDGET)
    assert backward.is_sat  # an IRI instance of :C separates them
    g = backward.witness_graph
    assert validate(g, m2, SemanticsMode.BRAVE_TOTAL)
    assert not validate(g, m1, SemanticsMode.BRAVE_TOTAL)


def test_containment_sentence_refutes_containment():
    from sclkit.decide import containment_sentence

    m1 = doc(":s a sh:NodeShape ; sh:targetClass :C ; sh:datatype <http://www.w3.org/2001/XMLSchema#int> .")
    m2 = doc(":s a sh:NodeShape ; sh:targetClass :C .")
    phi, negated = containment_sentence(m2, m1)
    r = scl_bounded_sat(phi, BUDGET, negated_target_disjunction=negated)
    assert r.is_sat
    phi2, negated2 = containment_sentence(m1, m2)
    r2 = scl_bounded_sat(phi2, BUDGET, negated_target_disjunction=negated2)
    assert not r2.is_sat


def test_containment_refutation_keeps_refuted_target_constants():
    from sclkit.decide import containment_sentence

    # every graph validates m2: its one target node conforms trivially; the
    # node occurs only in the target axiom the refutation negates
    m1 = sh.Document((sh.Shape(iri("a")),))
    m2 = sh.Document((sh.Shape(iri("b"), (sh.NodeTarget(iri("n")),)),))
    phi, negated = containment_sentence(m1, m2)
    assert not scl_bounded_sat(phi, BUDGET, negated_target_disjunction=negated).is_sat


def test_containment_refutation_models_separate_the_documents():
    from sclkit.decide import containment_sentence

    rng = random.Random(5)
    refuted = 0
    for _ in range(250):
        m1, m2 = (random_document(rng, max_shapes=2, features=("Z", "A", "D", "C"))
                  for _ in range(2))
        phi, negated = containment_sentence(m1, m2)
        r = scl_bounded_sat(phi, BUDGET, negated_target_disjunction=negated)
        if r.is_sat:
            refuted += 1
            assert validate(r.witness_graph, m1, SemanticsMode.BRAVE_TOTAL)
            assert not validate(r.witness_graph, m2, SemanticsMode.BRAVE_TOTAL)
    assert refuted > 100


def test_template_sat_examples():
    empty = sh.Document(())
    r = template_sat(empty, iri("t"), sh.Top(), BUDGET)
    assert r.is_sat
    inc = doc(":I a sh:NodeShape ; sh:not :I .")
    r2 = template_sat(inc, iri("t"), sh.Ref(iri("I")), BUDGET)
    assert not r2.is_sat
    r3 = template_sat(inc, iri("t"), sh.Ref(iri("I")), BUDGET, SemanticsMode.BRAVE_PARTIAL)
    assert not r3.is_sat  # forcing conformance fails even partially
    with pytest.raises(DecisionError, match="already occurs"):
        template_sat(inc, iri("I"), sh.Top(), BUDGET)
    with pytest.raises(DecisionError, match="unknown shape"):
        template_sat(empty, iri("t"), sh.Ref(iri("missing")), BUDGET)


def test_template_sat_respects_constant_symmetry():
    m = doc(":s a sh:NodeShape ; sh:hasValue :a .")
    r1 = template_sat(m, iri("t1"), sh.Ref(iri("s")), BUDGET)
    r2 = template_sat(m, iri("t2"), sh.Ref(iri("s")), BUDGET)
    assert r1.status == r2.status == "sat"
    assert r1.witness_node == r2.witness_node


def test_shape_containment_examples():
    m = doc("""
    :studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .
    :disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; sh:disjoint :hasFaculty .
    """)
    same = shape_containment(m, iri("studentShape"), iri("studentShape"),
                             SemanticsMode.BRAVE_TOTAL, BUDGET)
    assert not same.is_sat  # contained in itself
    different = shape_containment(m, iri("studentShape"), iri("disjFacultyShape"),
                                  SemanticsMode.BRAVE_TOTAL, BUDGET)
    assert different.is_sat  # a witness node conforms to one but not the other


def test_count_contradiction_with_two_targets_is_refuted_quickly():
    import time
    from pathlib import Path

    fixture = Path(__file__).parent / "fixtures" / "count-contradiction.ttl"
    m = sh.document_from_graph(parse_turtle(fixture.read_text()))
    t = m.shape(iri("T"))
    rest = sh.Document(tuple(s for s in m.shapes if s.name != t.name))
    start = time.perf_counter()
    results = [template_sat(rest, t.name, t.constraint, BUDGET, path=t.path),
               shape_containment(m, iri("T"), iri("A"), SemanticsMode.BRAVE_TOTAL, BUDGET)]
    assert time.perf_counter() - start < 5.0
    for r in results:
        assert r.status == "unknown" and r.reason == "no model within budget"


def test_constraint_satisfiability_examples():
    # a constraint is satisfiable when a fresh shape holding it is
    empty = sh.Document(())
    assert template_sat(empty, iri("T"), sh.Top(), BUDGET).is_sat
    contradiction = sh.And((sh.DatatypeConstraint(XSD_INT), sh.NodeKindConstraint("IRI")))
    r = template_sat(empty, iri("T"), contradiction, BUDGET)
    assert not r.is_sat
    some = template_sat(empty, iri("T"), sh.MinCount(1), BUDGET, path=sh.PredPath(iri("r")))
    assert some.is_sat
    assert len(some.witness_graph) >= 1


def test_scl_bounded_sat_agrees_with_graph_search_on_corpus():
    # brave-total document satisfiability: the uninterpreted search and the
    # graph-level search agree on filter-free documents
    rng = random.Random(47)
    budget = SearchBudget(max_fresh=2, max_triples=4, max_seconds=30)
    agree = 0
    for _ in range(25):
        m = random_document(rng, max_shapes=2, features=("Z", "A", "D"))
        graph_level = bounded_sat(m, SemanticsMode.BRAVE_TOTAL, budget)
        sentence_level = scl_bounded_sat(tau(m), budget)
        if graph_level.status != "unknown" or sentence_level.status != "unknown":
            assert graph_level.is_sat == sentence_level.is_sat
            agree += 1
    assert agree >= 15


# --- emitters -------------------------------------------------------------------

def test_emit_smtlib_structure():
    m = doc("""
    :studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .
    :disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; sh:disjoint :hasFaculty .
    """)
    out = emit_smtlib(tau(m))
    assert out.splitlines()[0] == "(set-logic UF)"
    assert "(declare-sort T 0)" in out
    assert out.count("(declare-fun |sh:") == 2
    assert out.count("(T T) Bool") == 3  # hasSupervisor, hasFaculty, rdf:type
    assert out.strip().endswith("(check-sat)")
    assert out.count("(assert") == 3


def test_emit_expands_counting_and_asserts_distinct():
    m = doc(':s a sh:PropertyShape ; sh:targetNode :a ; sh:path :r ; sh:minCount 2 ; sh:hasValue :b .')
    out = emit_smtlib(tau(m))
    assert "(distinct" in out
    tptp = emit_tptp(tau(m))
    assert "fof(" in tptp and "!=" in tptp


def test_emit_refuses_transitive_closure_and_large_counts():
    m = doc(":s a sh:PropertyShape ; sh:path [ sh:zeroOrMorePath :r ] ; sh:minCount 1 .")
    with pytest.raises(DecisionError, match="transitive closure"):
        emit_smtlib(tau(m))
    big = doc(":s a sh:PropertyShape ; sh:path :r ; sh:minCount 100 .")
    with pytest.raises(DecisionError, match="cap"):
        emit_smtlib(tau(big))


def test_emit_trivial_sentence():
    out = emit_smtlib(SclSentence(()))
    assert "(check-sat)" in out


_DECLARATION = re.compile(r"\(declare-fun (\|[^|\\]*\||lt|le) \((T( T)?)?\) (T|Bool)\)")


_SMT_TOKEN = re.compile(r"\|[^|]*\||[()]|[^\s()|]+|\|")


def _quoted_symbols(smt):
    """The quoted symbols in order, checking that parentheses outside them
    balance and that every `and`/`or` has at least two arguments."""
    symbols, stack = [], [[]]
    for tok in _SMT_TOKEN.findall(smt):
        assert tok != "|", "unterminated quoted symbol"
        if tok == "(":
            stack.append([])
        elif tok == ")":
            assert len(stack) > 1, "unbalanced parentheses"
            items = stack.pop()
            assert items[:1] not in (["and"], ["or"]) or len(items) > 2, items
            stack[-1].append(items)
        else:
            if tok.startswith("|"):
                symbols.append(tok)
            stack[-1].append(tok)
    assert len(stack) == 1, "unbalanced parentheses"
    return symbols


def _assert_well_formed(smt, tptp):
    declared = set()
    for line in smt.splitlines():
        if line.startswith("(declare-fun"):
            assert _DECLARATION.fullmatch(line), line
            declared.add(line.split(" ")[1])
    assert set(_quoted_symbols(smt)) <= declared
    for line in tptp.splitlines()[1:]:
        assert line.startswith("fof(") and line.endswith(")."), line
        assert "()" not in line, line
        for opening, closing in ("()", "[]"):
            depth = 0
            for ch in line:
                depth += (ch == opening) - (ch == closing)
                assert depth >= 0, line
            assert depth == 0, line


def test_emitted_text_is_well_formed():
    from pathlib import Path
    from sclkit.filters import bounded_axiomatisation, naive_axiomatisation

    fixture = Path(__file__).parent / "fixtures" / "filtered.ttl"
    docs = [sh.document_from_graph(parse_turtle(fixture.read_text()))]
    rng = random.Random(43)
    docs += [random_document(rng, max_shapes=3, max_count=3) for _ in range(30)]
    for m in docs:
        phi = tau(sh.eliminate_xone(m))
        for ax in (None, naive_axiomatisation(phi).sentence, bounded_axiomatisation(phi).sentence):
            _assert_well_formed(emit_smtlib(phi, ax), emit_tptp(phi, ax))


def test_emit_keeps_constants_apart_that_quote_alike():
    m = doc(':s a sh:NodeShape ; sh:targetNode :a ; sh:in ( "x|y" "x_y" ) .')
    out = emit_smtlib(tau(m))
    _assert_well_formed(out, emit_tptp(tau(m)))
    declared = [line.split(" ")[1] for line in out.splitlines()
                if line.startswith('(declare-fun |c:"')]
    assert len(declared) == 2 and len(set(declared)) == 2
    assert all("|" not in name[1:-1] for name in declared)
    distinct = next(line for line in out.splitlines() if line.startswith("(assert (distinct"))
    assert all(name in distinct for name in declared)


def test_emit_unknown_format_is_an_error():
    with pytest.raises(DecisionError, match="unknown prover encoding"):
        emit("smt", SclSentence(()))
    m = doc(":s a sh:NodeShape ; sh:targetNode :a .")
    phi, negated = containment_sentence(m, m)
    with pytest.raises(DecisionError, match="unknown prover encoding"):
        emit("smt", phi, negated_target_disjunction=negated)
    with pytest.raises(DecisionError, match="unknown prover encoding"):
        emit("smt", tau(m))


def test_bounded_sat_agrees_with_prune_free_oracle():
    # graph enumeration + the definitional assignment enumerator, no pruning
    import itertools
    import sys

    from sclkit.rdf import Triple
    from oracles import brute_force_validate

    rng = random.Random(61)
    budget = SearchBudget(max_fresh=1, max_triples=2, max_seconds=30)
    for _ in range(12):
        m = random_document_small(rng)
        from sclkit.decide import candidate_graphs

        ours = bounded_sat(m, SemanticsMode.BRAVE_TOTAL, budget)
        oracle_hit = None
        for g in candidate_graphs(m, budget):
            if brute_force_validate(g, m, SemanticsMode.BRAVE_TOTAL):
                oracle_hit = g
                break
        assert ours.is_sat == (oracle_hit is not None)
        if ours.is_sat:
            assert ours.witness_graph == oracle_hit  # first witness in order


def random_document_small(rng):
    from sclkit.corpus import random_document

    return random_document(rng, max_shapes=2, features=("Z", "D"))


def test_lemma3_sentence_with_naive_axiomatisation_agrees():
    from sclkit.decide import check_containment, containment_sentence
    from sclkit.filters import naive_axiomatisation

    m1 = doc(":s a sh:NodeShape ; sh:targetClass :C ; sh:datatype <http://www.w3.org/2001/XMLSchema#int> .")
    m2 = doc(":s a sh:NodeShape ; sh:targetClass :C .")
    for lhs, rhs, contained in ((m1, m2, True), (m2, m1, False)):
        phi, negated = containment_sentence(lhs, rhs)
        ax = naive_axiomatisation(phi)
        refutation = scl_bounded_sat(phi.conjoin(ax.sentence), BUDGET,
                                     negated_target_disjunction=negated)
        counterexample = check_containment(lhs, rhs, SemanticsMode.BRAVE_TOTAL, BUDGET)
        assert refutation.is_sat == counterexample.is_sat == (not contained)


def test_document_level_filter_unsatisfiability():
    # the criterion-4 sentence expressed as a shape document: a target must
    # reach four distinct eligible values but only three exist canonically
    from sclkit.filters import bounded_axiomatisation

    text = """
    :fourDistinct a sh:PropertyShape ; sh:targetNode :e ; sh:path :R ;
      sh:qualifiedValueShape :eligible ; sh:qualifiedMinCount 4 .
    :eligible a sh:NodeShape ;
      sh:datatype <http://www.w3.org/2001/XMLSchema#int> ;
      sh:minExclusive "0"^^<http://www.w3.org/2001/XMLSchema#int> ;
      sh:maxInclusive "5"^^<http://www.w3.org/2001/XMLSchema#int> ;
      sh:not :excluded .
    :excluded a sh:NodeShape ;
      sh:in ( "2"^^<http://www.w3.org/2001/XMLSchema#int> "3"^^<http://www.w3.org/2001/XMLSchema#int> ) .
    """
    m = doc(text)
    phi = tau(m)
    ax = bounded_axiomatisation(phi)
    budget = SearchBudget(max_fresh=5, max_triples=99, max_seconds=20)
    assert not scl_bounded_sat(phi.conjoin(ax.sentence), budget).is_sat
    relaxed = doc(text.replace('sh:qualifiedMinCount 4', 'sh:qualifiedMinCount 3'))
    phi2 = tau(relaxed)
    ax2 = bounded_axiomatisation(phi2)
    assert scl_bounded_sat(phi2.conjoin(ax2.sentence), budget).is_sat


def test_satisfiability_encoding_of_tau():
    m = doc(":s a sh:NodeShape ; sh:targetNode :a .")
    assert bounded_sat(m, SemanticsMode.BRAVE_TOTAL, BUDGET).is_sat
    assert "(check-sat)" in emit("smtlib2", tau(m))
    assert "fof(" in emit("tptp", tau(m))


def test_containment_encoding_of_sentence():
    m1 = doc(":s a sh:NodeShape ; sh:targetClass :C ; sh:hasValue :v .")
    m2 = doc(":s a sh:NodeShape ; sh:targetClass :C .")
    assert check_containment(m2, m1, SemanticsMode.BRAVE_TOTAL, BUDGET).is_sat
    phi, negated = containment_sentence(m2, m1)
    smt = emit("smtlib2", phi, negated_target_disjunction=negated)
    # the one target axiom of m1 is refuted: a one-item disjunction is the item
    assert "(assert (not (forall" in smt and "(check-sat)" in smt
    phi, negated = containment_sentence(m1, m2)
    assert "fof(" in emit("tptp", phi, negated_target_disjunction=negated)


def test_containment_encoding_keeps_refuted_target_constants_apart():
    from sclkit.decide import containment_sentence

    # m2 holds on every graph: its target :n differs from :k by unique names
    m1 = sh.Document((sh.Shape(iri("a")),))
    m2 = sh.Document((sh.Shape(iri("b"), (sh.NodeTarget(iri("n")),), None,
                               sh.Not(sh.HasValue(iri("k")))),))
    phi, negated = containment_sentence(m1, m2)
    assert not scl_bounded_sat(phi, BUDGET, negated_target_disjunction=negated).is_sat
    smt = emit_smtlib(phi, negated_target_disjunction=negated)
    assert "(assert (distinct |c:<http://ex/k>| |c:<http://ex/n>|))" in smt
    tptp = emit_tptp(phi, negated_target_disjunction=negated)
    assert "(c_http___ex_k != c_http___ex_n)" in tptp


def test_gamma_preserves_brave_satisfiability():
    from sclkit.semantics import gamma_transform

    rng = random.Random(71)
    budget = SearchBudget(max_fresh=1, max_triples=3, max_seconds=30)
    for _ in range(10):
        m = random_document(rng, max_shapes=2, features=("Z", "D"), recursive=rng.random() < 0.5)
        a = bounded_sat(m, SemanticsMode.BRAVE_PARTIAL, budget)
        b = bounded_sat(gamma_transform(m), SemanticsMode.BRAVE_TOTAL, budget)
        assert a.is_sat == b.is_sat
        if a.is_sat:
            assert a.witness_graph == b.witness_graph


def test_bounded_sat_untargeted_self_negation_total():
    # with no targets, the empty graph has no node scope, so a total faithful
    # assignment exists vacuously
    m = doc(":I a sh:NodeShape ; sh:not :I .")
    r = bounded_sat(m, SemanticsMode.BRAVE_TOTAL, SearchBudget(1, 1, 20))
    assert r.is_sat
    assert len(r.witness_graph) == 0


def test_shape_containment_trivial_in_unsatisfiable_document():
    m = sh.Document((
        sh.Shape(iri("a"), (sh.NodeTarget(iri("n")),), None, sh.HasValue(iri("other"))),
        sh.Shape(iri("b"), (), None, sh.Top()),
    ))
    r = shape_containment(m, iri("b"), iri("a"), SemanticsMode.BRAVE_TOTAL,
                          SearchBudget(1, 2, 20))
    assert not r.is_sat  # no witness: the document admits no valid graph at all


XONE_SHAPES = """
:s a sh:NodeShape ; sh:targetNode :a ; sh:xone ( :p :q ) .
:p a sh:PropertyShape ; sh:path :r ; sh:minCount 3 .
:q a sh:PropertyShape ; sh:path :r ; sh:minCount 4 .
"""


def test_graph_search_compares_a_fresh_document_once(monkeypatch):
    # two reads of one shapes file: equal documents, not the same object
    first, second = doc(XONE_SHAPES), doc(XONE_SHAPES)
    assert first == second and first is not second
    validate(parse_turtle(PRE + ":a :r :b ."), first, SemanticsMode.BRAVE_TOTAL)
    comparisons = []
    value_eq = Value.__eq__

    def counting_eq(self, other):
        if isinstance(self, sh.Document) and isinstance(other, sh.Document):
            comparisons.append((self, other))
        return value_eq(self, other)

    monkeypatch.setattr(Value, "__eq__", counting_eq)
    budget = SearchBudget(max_fresh=1, max_triples=2, max_seconds=30)
    # no model within 2 triples, so both searches try every candidate graph
    assert bounded_sat(second, SemanticsMode.BRAVE_TOTAL, budget).reason == "no model within budget"
    assert len(comparisons) <= 1
    comparisons.clear()
    result = check_containment(second, second, SemanticsMode.BRAVE_TOTAL, budget)
    assert result.reason == "no counterexample within budget"
    assert len(comparisons) <= 2


# three filter shapes, whose bounded axiomatisation takes longer than 0.2 s
THREE_FILTERS = """@prefix ex: <http://example.org/> .
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:F0 a sh:PropertyShape ; sh:targetClass ex:C30 ; sh:path ex:r69 ; sh:datatype xsd:integer ; sh:minInclusive 4 ; sh:maxExclusive 9 .
ex:F1 a sh:PropertyShape ; sh:targetClass ex:C75 ; sh:path ex:r16 ; sh:minLength 2 ; sh:maxLength 3 .
ex:F2 a sh:PropertyShape ; sh:path ex:r47 ; sh:languageIn ( "en" "fr" ) .
ex:T a sh:NodeShape ; sh:node ex:F0 .
"""


def test_template_sat_keeps_its_budget_through_the_axiomatisation(tmp_path, capsys):
    from sclkit.cli import main

    path = tmp_path / "filters.ttl"
    path.write_text(THREE_FILTERS)
    code = main(["--json", "template-sat", "--doc", str(path), "--template", "http://example.org/T",
                 "--seconds", "0.2"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["result"], report["reason"]) == (2, "unknown", "time budget exhausted")
    assert report["approximate"] is True


def test_bounded_axiomatisation_stops_at_an_expired_deadline():
    from sclkit.filters import bounded_axiomatisation

    class Expired:
        def expired(self):
            return True

    phi = tau(sh.document_from_graph(parse_turtle(THREE_FILTERS)))
    full = bounded_axiomatisation(phi)
    cut = bounded_axiomatisation(phi, Expired())
    assert cut.approximate and len(full.sentence.axioms) > 1
    assert cut.sentence.axioms == full.sentence.axioms[:1]  # Nu's definition only


def test_bounded_combinations_stop_at_the_deadline_while_they_are_built():
    from sclkit.filters import _bounded_combos, _gather

    class ExpiresOnSecondCheck:
        checks = 0

        def expired(self):
            self.checks += 1
            return self.checks > 1

    constants, atoms, _ = _gather(tau(sh.document_from_graph(parse_turtle(THREE_FILTERS))))
    assert len(_bounded_combos(constants, atoms)) > 1024
    deadline = ExpiresOnSecondCheck()
    assert _bounded_combos(constants, atoms, deadline) is None and deadline.checks == 2


CLOSED_P = ":P a sh:PropertyShape ; sh:path :p ; sh:minCount 1 . "


@pytest.mark.parametrize("mode", (SemanticsMode.BRAVE_TOTAL, SemanticsMode.BRAVE_PARTIAL))
def test_closed_shape_keeps_its_property_paths_under_both_brave_modes(mode):
    # Γ splits each sh:property value of a closed shape into a conjunction;
    # the value's path must stay declared, so a node with :p is a model
    m = doc(CLOSED_P)
    template = sh.And((sh.Closed(()), sh.Ref(iri("P"))))
    assert template_sat(m, iri("t"), template, BUDGET, mode).is_sat
    m2 = doc(CLOSED_P + ":S a sh:NodeShape ; sh:closed true ; sh:property :P . "
             ":Q a sh:NodeShape ; sh:not :S .")
    assert shape_containment(m2, iri("S"), iri("Q"), mode, BUDGET).is_sat


def test_gamma_keeps_the_declared_paths_of_closed_shapes():
    from sclkit.semantics import gamma_transform

    graphs = [parse_turtle(PRE + edges) for edges in
              ("", ":n :p :v .", ":n :p :v1, :v2 .", ":n :q :v .", ":n :p :v ; :q :w .")]
    for reference in ("sh:property :P", "sh:not :P", "sh:or ( :P )", "sh:property :P ; sh:not :P"):
        m = doc(":s a sh:NodeShape ; sh:targetNode :n ; sh:closed true ; "
                f"sh:ignoredProperties ( :q ) ; {reference} . " + CLOSED_P)
        for g in graphs:
            assert (validate(g, m, SemanticsMode.BRAVE_PARTIAL)
                    == validate(g, gamma_transform(m), SemanticsMode.BRAVE_TOTAL)), reference
